//! The typed n-sided hammer-pattern representation.
//!
//! A [`HammerPattern`] describes one iteration of a (possibly non-uniform)
//! many-sided hammer entirely in attacker-visible terms:
//!
//! * **Aggressor set** — positions in units of the double-sided pair stride
//!   relative to a timing-verified base pair (offset 0 is the base low,
//!   offset 1 the base high; one stride moves the target's Level-1 PTE by
//!   two DRAM rows within the same bank, cf. `pthammer::pairs`).
//! * **Phase / ordering** — the `schedule` lists, in execution order, which
//!   aggressor each implicit touch of the round addresses.
//! * **Intensity** — an aggressor referenced several times per round is
//!   hammered proportionally harder (the schedule *is* the intensity
//!   vector).
//!
//! Patterns compile to the same interpretable
//! [`RoundOp`] sequences the built-in strategies declare,
//! with each touch addressed by `Target::Aggressor(i)`.

use std::fmt;

use pthammer::{RoundOp, Target};

/// Largest aggressor set a pattern may use. Bounded by how many pair
/// strides fit in a CI-sized page-table spray, with margin.
pub const MAX_SIDES: usize = 8;

/// Largest per-round schedule (total implicit touches per iteration).
pub const MAX_SCHEDULE: usize = 16;

/// Largest absolute aggressor offset, in pair strides.
pub const MAX_OFFSET: i32 = 7;

/// One n-sided, possibly non-uniform hammer pattern.
///
/// # Examples
///
/// ```
/// use pthammer_patterns::HammerPattern;
/// let ds = HammerPattern::double_sided();
/// assert_eq!(ds.sides(), 2);
/// assert!(ds.validate().is_ok());
/// assert_eq!(ds.round_ops().len(), 6, "two touches, each with two evictions");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HammerPattern {
    /// Aggressor positions in pair strides relative to the base low target.
    /// `offsets[0]` must be 0 (the base low) and `offsets[1]` must be 1 (the
    /// base high); further entries extend the set in either direction. One
    /// stride is two DRAM rows, so offset `k` is aggressor row
    /// `base_row + 2k`.
    pub offsets: Vec<i32>,
    /// Execution order of the round's implicit touches: indices into
    /// [`offsets`](Self::offsets). Repeating an index raises that
    /// aggressor's intensity.
    pub schedule: Vec<u8>,
}

impl HammerPattern {
    /// The classic double-sided pattern: the base pair, touched once each.
    pub fn double_sided() -> Self {
        Self {
            offsets: vec![0, 1],
            schedule: vec![0, 1],
        }
    }

    /// A uniform n-sided pattern: aggressors at strides `0..n`, rotated once
    /// per round in position order.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not in `2..=MAX_SIDES`.
    pub fn uniform_n_sided(n: usize) -> Self {
        assert!((2..=MAX_SIDES).contains(&n), "n must be in 2..={MAX_SIDES}");
        Self {
            offsets: (0..n as i32).collect(),
            schedule: (0..n as u8).collect(),
        }
    }

    /// A centered n-sided pattern: the base pair plus aggressors alternating
    /// outward on both sides (`0, 1, -1, 2, -2, …`), rotated once per round.
    /// Centered sets minimize the [`span`](Self::span) an aggressor set
    /// needs inside the sprayed region, so they arm far more often than
    /// one-directional runs of the same size.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not in `2..=MAX_SIDES`.
    pub fn centered_n_sided(n: usize) -> Self {
        assert!((2..=MAX_SIDES).contains(&n), "n must be in 2..={MAX_SIDES}");
        let mut offsets = vec![0, 1];
        let mut k = 1;
        while offsets.len() < n {
            offsets.push(-k);
            if offsets.len() < n {
                offsets.push(k + 1);
            }
            k += 1;
        }
        Self {
            offsets,
            schedule: (0..n as u8).collect(),
        }
    }

    /// Largest absolute offset of the set — the number of pair strides of
    /// sprayed address space the pattern needs on the wider side of the base
    /// pair. Smaller spans fit more candidate base pairs.
    pub fn span(&self) -> i32 {
        self.offsets.iter().map(|o| o.abs()).max().unwrap_or(0)
    }

    /// Number of aggressors in the set.
    pub fn sides(&self) -> usize {
        self.offsets.len()
    }

    /// How many times aggressor `index` is touched per round.
    pub fn intensity(&self, index: u8) -> usize {
        self.schedule.iter().filter(|&&s| s == index).count()
    }

    /// Touches per round (the schedule length).
    pub fn touches_per_round(&self) -> usize {
        self.schedule.len()
    }

    /// The aggressor DRAM rows of this pattern for a base-pair low target in
    /// `base_row`, in offset order (two rows per stride).
    pub fn aggressor_rows(&self, base_row: i64) -> Vec<i64> {
        self.offsets
            .iter()
            .map(|&o| base_row + 2 * i64::from(o))
            .collect()
    }

    /// Validates the structural invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.offsets.len() < 2 || self.offsets.len() > MAX_SIDES {
            return Err(format!(
                "pattern needs 2..={MAX_SIDES} aggressors, has {}",
                self.offsets.len()
            ));
        }
        if self.offsets[0] != 0 || self.offsets[1] != 1 {
            return Err("offsets must start with the base pair [0, 1]".to_string());
        }
        for (i, &o) in self.offsets.iter().enumerate() {
            if o.abs() > MAX_OFFSET {
                return Err(format!("offset {o} exceeds ±{MAX_OFFSET} strides"));
            }
            if self.offsets[..i].contains(&o) {
                return Err(format!("duplicate aggressor offset {o}"));
            }
        }
        if self.schedule.is_empty() || self.schedule.len() > MAX_SCHEDULE {
            return Err(format!(
                "schedule needs 1..={MAX_SCHEDULE} touches, has {}",
                self.schedule.len()
            ));
        }
        for &s in &self.schedule {
            if usize::from(s) >= self.offsets.len() {
                return Err(format!(
                    "schedule references aggressor {s}, only {} exist",
                    self.offsets.len()
                ));
            }
        }
        for i in 0..self.offsets.len() as u8 {
            if !self.schedule.contains(&i) {
                return Err(format!("aggressor {i} is never touched by the schedule"));
            }
        }
        for w in self.schedule.windows(2) {
            if w[0] == w[1] {
                return Err(format!(
                    "schedule touches aggressor {} twice in a row (row-buffer hit, no activation)",
                    w[0]
                ));
            }
        }
        Ok(())
    }

    /// The interpretable per-round op sequence: for each schedule entry, the
    /// aggressor's TLB eviction, its L1PTE LLC eviction, and the implicit
    /// touch — the exact trio of the built-in implicit strategies, addressed
    /// through [`Target::Aggressor`].
    pub fn round_ops(&self) -> Vec<RoundOp> {
        let mut ops = Vec::with_capacity(self.schedule.len() * 3);
        for &i in &self.schedule {
            ops.push(RoundOp::EvictTlb(Target::Aggressor(i)));
            ops.push(RoundOp::EvictLlc(Target::Aggressor(i)));
            ops.push(RoundOp::TouchImplicit(Target::Aggressor(i)));
        }
        ops
    }

    /// Canonical compact name, e.g. `5s[0,1,-1,-2,-3]@[2,0,3,1,4]` — stable
    /// across runs, used in store keys, reports and logs.
    pub fn canonical_name(&self) -> String {
        let offsets: Vec<String> = self.offsets.iter().map(|o| o.to_string()).collect();
        let schedule: Vec<String> = self.schedule.iter().map(|s| s.to_string()).collect();
        format!(
            "{}s[{}]@[{}]",
            self.sides(),
            offsets.join(","),
            schedule.join(",")
        )
    }
}

impl fmt::Display for HammerPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert!(HammerPattern::double_sided().validate().is_ok());
        for n in 2..=MAX_SIDES {
            let p = HammerPattern::uniform_n_sided(n);
            assert!(p.validate().is_ok(), "{p}");
            assert_eq!(p.sides(), n);
            assert_eq!(p.touches_per_round(), n);
        }
    }

    #[test]
    fn invariants_are_enforced() {
        let base = HammerPattern::double_sided();

        let mut p = base.clone();
        p.offsets = vec![1, 0];
        assert!(p.validate().is_err(), "base pair order");

        let mut p = base.clone();
        p.offsets.push(0);
        assert!(p.validate().is_err(), "duplicate offset");

        let mut p = base.clone();
        p.offsets.push(MAX_OFFSET + 1);
        p.schedule = vec![0, 1, 2];
        assert!(p.validate().is_err(), "offset bound");

        let mut p = base.clone();
        p.schedule = vec![0, 7];
        assert!(p.validate().is_err(), "schedule index out of range");

        let mut p = base.clone();
        p.schedule = vec![0, 0, 1];
        assert!(p.validate().is_err(), "adjacent repeat");

        let mut p = base.clone();
        p.schedule = vec![0];
        assert!(p.validate().is_err(), "aggressor 1 never touched");

        let mut p = base.clone();
        p.schedule = [0, 1].repeat(MAX_SCHEDULE);
        assert!(p.validate().is_err(), "schedule too long");
    }

    #[test]
    fn round_ops_follow_the_schedule_with_the_implicit_trio() {
        let p = HammerPattern {
            offsets: vec![0, 1, -1],
            schedule: vec![2, 0, 1],
        };
        assert!(p.validate().is_ok());
        let ops = p.round_ops();
        assert_eq!(ops.len(), 9);
        for (k, &i) in p.schedule.iter().enumerate() {
            assert_eq!(ops[3 * k], RoundOp::EvictTlb(Target::Aggressor(i)));
            assert_eq!(ops[3 * k + 1], RoundOp::EvictLlc(Target::Aggressor(i)));
            assert_eq!(ops[3 * k + 2], RoundOp::TouchImplicit(Target::Aggressor(i)));
        }
        assert_eq!(p.intensity(0), 1);
        assert_eq!(p.aggressor_rows(10), vec![10, 12, 8]);
    }

    #[test]
    fn canonical_name_is_compact() {
        let p = HammerPattern {
            offsets: vec![0, 1, -1, -2],
            schedule: vec![2, 0, 3, 1],
        };
        assert_eq!(p.canonical_name(), "4s[0,1,-1,-2]@[2,0,3,1]");
        assert_eq!(p.to_string(), p.canonical_name());
    }
}
