//! [`PatternHammer`]: executing synthesized patterns through the attack
//! pipeline.
//!
//! The strategy implements the existing
//! [`HammerStrategy`] trait, so a synthesized
//! many-sided pattern runs on the same phase pipeline, through the same
//! implicit (PTE-walk) touch path, and emits the same
//! [`RoundOp`]/event-bus telemetry as the four built-in
//! modes. Arming goes through the same helper as the built-in implicit
//! strategies ([`arm_implicit`]) and mirrors the paper's double-sided
//! methodology: the pattern's aggressors are materialized at multiples of
//! the pair stride — which moves a target's Level-1 PTE two DRAM rows
//! within the same bank — each receives its own TLB eviction set and
//! Algorithm 2 LLC eviction set, and the base pair and then every further
//! aggressor are timing-verified for a row-buffer conflict (same bank).

use pthammer::hammer::strategy::{arm_implicit, ArmResult};
use pthammer::pipeline::PreparedAttack;
use pthammer::{AttackConfig, AttackError, HammerMode, HammerPair, HammerStrategy, RoundOp};
use pthammer_kernel::{Pid, System};
use pthammer_types::VirtAddr;

use crate::pattern::HammerPattern;

/// A hammer strategy executing one fixed [`HammerPattern`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternHammer {
    pattern: HammerPattern,
    ops: Vec<RoundOp>,
}

impl PatternHammer {
    /// Creates the strategy for a validated pattern.
    ///
    /// # Errors
    ///
    /// Returns the pattern's validation error.
    pub fn new(pattern: HammerPattern) -> Result<Self, String> {
        pattern.validate()?;
        let ops = pattern.round_ops();
        Ok(Self { pattern, ops })
    }

    /// The pattern this strategy executes.
    pub fn pattern(&self) -> &HammerPattern {
        &self.pattern
    }

    /// The virtual address of aggressor `offset` for a base pair at `low`
    /// with the given stride, if it exists (offsets may be negative).
    fn aggressor_va(low: VirtAddr, stride: u64, offset: i32) -> Option<VirtAddr> {
        let delta = stride.checked_mul(offset.unsigned_abs() as u64)?;
        if offset >= 0 {
            Some(low + delta)
        } else if low.as_u64() >= delta {
            Some(VirtAddr::new(low.as_u64() - delta))
        } else {
            None
        }
    }

    /// Shifts a candidate base low by whole pair strides until the whole
    /// aggressor window (`min_offset..=max_offset` strides around it) fits
    /// the sprayed region; `None` when the spray is too small for the
    /// pattern at any position.
    ///
    /// The candidate generator draws uniform pair positions without knowing
    /// the strategy; an attacker hammering a wide pattern simply re-bases
    /// its window inside the region it sprayed. Stride-granular shifts
    /// preserve the candidate's Level-1 index and chunk phase, so shifted
    /// candidates remain as valid (and as random) as unshifted ones.
    fn fit_low(
        &self,
        low: VirtAddr,
        stride: u64,
        spray: &pthammer::SprayRegion,
    ) -> Option<VirtAddr> {
        let min_offset = *self.pattern.offsets.iter().min().expect("validated");
        let max_offset = *self.pattern.offsets.iter().max().expect("validated");
        // Lowest admissible low: `|min_offset|` strides above the base.
        let floor = spray.base.as_u64() + stride * u64::from(min_offset.unsigned_abs());
        // Exclusive ceiling: the `max_offset` aggressor must stay inside.
        let ceiling = spray
            .end()
            .as_u64()
            .checked_sub(stride * max_offset.unsigned_abs() as u64)?;
        if floor >= ceiling {
            return None;
        }
        let mut low = low.as_u64();
        while low < floor {
            low += stride;
        }
        while low >= ceiling {
            low = low.checked_sub(stride)?;
        }
        (low >= floor).then(|| VirtAddr::new(low))
    }
}

impl HammerStrategy for PatternHammer {
    /// Pattern strategies hammer through the implicit touch path of the
    /// paper's default mode; the pattern descriptor — not the mode — is what
    /// identifies them in reports.
    fn mode(&self) -> HammerMode {
        HammerMode::ImplicitDoubleSided
    }

    fn round_ops(&self) -> &[RoundOp] {
        &self.ops
    }

    fn arm(
        &self,
        sys: &mut System,
        pid: Pid,
        pair: HammerPair,
        prepared: &PreparedAttack,
        config: &AttackConfig,
        conflict_threshold: u64,
    ) -> Result<ArmResult, AttackError> {
        let stride = pair.high - pair.low;

        // Re-base the candidate so the whole aggressor window fits the
        // sprayed region; candidates are rejected only when the spray is too
        // small for the pattern at any position.
        let Some(low) = self.fit_low(pair.low, stride, &prepared.spray) else {
            return Ok(ArmResult::default());
        };
        let pair = HammerPair {
            low,
            high: low + stride,
        };

        // Every aggressor must resolve to a sprayed address.
        let mut aggressors = Vec::with_capacity(self.pattern.sides());
        for &offset in &self.pattern.offsets {
            match Self::aggressor_va(pair.low, stride, offset) {
                Some(va) if prepared.spray.contains(va) => aggressors.push(va),
                _ => return Ok(ArmResult::default()),
            }
        }

        // Each aggressor gets its own TLB and Algorithm 2 LLC eviction set.
        // The base pair is gated like the paper's double-sided strategy, and
        // every further aggressor by the same row-buffer-conflict probe
        // against the base low target. Stride arithmetic makes an
        // aggressor's L1PTE *likely* to share the bank, but the kernel's own
        // mid-spray page-table allocations can shift part of the window into
        // another bank — and a split aggressor set hands the TRR sampler two
        // small row groups it can track. Timing verification (all the
        // attacker can measure) rejects such windows; the pipeline then
        // tries the next candidate.
        arm_implicit(
            sys,
            pid,
            pair,
            &aggressors,
            prepared,
            config,
            Some(conflict_threshold),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pthammer::pairs::{candidate_pairs, conflict_threshold};
    use pthammer::pipeline::prepare_attack;
    use pthammer::{CompiledTrace, Target};
    use pthammer_dram::FlipModelProfile;
    use pthammer_machine::MachineConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_system(seed: u64) -> (System, Pid) {
        let cfg = MachineConfig::ci_small(FlipModelProfile::invulnerable(), seed);
        let mut sys = System::undefended(cfg);
        let pid = sys.spawn_process(1000).unwrap();
        (sys, pid)
    }

    fn tiny_config(seed: u64) -> AttackConfig {
        AttackConfig {
            spray_bytes: 640 << 20,
            llc_profile_trials: 6,
            ..AttackConfig::quick_test(seed, false)
        }
    }

    #[test]
    fn invalid_patterns_are_rejected_at_construction() {
        let mut bad = HammerPattern::double_sided();
        bad.schedule = vec![0, 0, 1];
        assert!(PatternHammer::new(bad).is_err());
    }

    #[test]
    fn aggressor_va_resolution_handles_negative_offsets() {
        let low = VirtAddr::new(0x4000_0000);
        let stride = 0x100_0000u64;
        assert_eq!(PatternHammer::aggressor_va(low, stride, 0), Some(low));
        assert_eq!(
            PatternHammer::aggressor_va(low, stride, 2),
            Some(low + 2 * stride)
        );
        assert_eq!(
            PatternHammer::aggressor_va(low, stride, -1),
            Some(VirtAddr::new(0x4000_0000 - 0x100_0000))
        );
        assert_eq!(
            PatternHammer::aggressor_va(VirtAddr::new(0x1000), stride, -1),
            None,
            "offsets below the address space are rejected"
        );
    }

    /// End to end against the simulated machine: a 4-sided pattern arms a
    /// verified base pair plus two negative-stride aggressors, all of its
    /// implicit touches reach DRAM, and the round op stream matches the
    /// schedule verbatim.
    #[test]
    fn pattern_rounds_execute_through_the_implicit_touch_path() {
        let config = tiny_config(47);
        let (mut sys, pid) = tiny_system(47);
        let prepared = prepare_attack(&mut sys, pid, &config).unwrap();
        let row_span = sys.machine().config().dram.geometry.row_span_bytes();
        let threshold = conflict_threshold(&sys);
        let pattern = HammerPattern {
            offsets: vec![0, 1, -1, -2],
            schedule: vec![2, 0, 3, 1],
        };
        let strategy = PatternHammer::new(pattern.clone()).unwrap();
        assert_eq!(strategy.implicit_touches_per_round(), 4);
        assert_eq!(strategy.round_ops(), pattern.round_ops().as_slice());

        let mut rng = StdRng::seed_from_u64(47);
        let mut armed = None;
        'search: for _ in 0..12 {
            for pair in candidate_pairs(&prepared.spray, row_span, 4, &mut rng) {
                let arm = strategy
                    .arm(&mut sys, pid, pair, &prepared, &config, threshold)
                    .unwrap();
                if let Some(a) = arm.armed {
                    assert!(arm.verification.unwrap().same_bank);
                    assert!(arm.llc_selection_cycles > 0);
                    armed = Some(a);
                    break 'search;
                }
            }
        }
        let armed = armed.expect("an armable 4-sided candidate");
        let round = CompiledTrace::compile(&armed, strategy.round_ops(), &sys, pid)
            .unwrap()
            .replay(&mut sys, pid)
            .unwrap();
        assert_eq!(
            round.aggressor_dram_hits, 4,
            "every implicit touch of the pattern must reach DRAM: {round:?}"
        );
        assert!(!round.low_dram && !round.high_dram);
        assert!(round.cycles > 0);
        // Ops address only pattern aggressors, never the pair targets.
        assert!(strategy.round_ops().iter().all(|op| matches!(
            op,
            RoundOp::EvictTlb(Target::Aggressor(_))
                | RoundOp::EvictLlc(Target::Aggressor(_))
                | RoundOp::TouchImplicit(Target::Aggressor(_))
        )));
    }

    /// Candidates whose aggressors would fall outside the sprayed region are
    /// rejected (armed: None), not errored.
    #[test]
    fn out_of_spray_candidates_are_rejected() {
        let config = tiny_config(53);
        let (mut sys, pid) = tiny_system(53);
        let prepared = prepare_attack(&mut sys, pid, &config).unwrap();
        let row_span = sys.machine().config().dram.geometry.row_span_bytes();
        let threshold = conflict_threshold(&sys);
        // Six strides below the base cannot fit: the spray is five strides.
        let pattern = HammerPattern {
            offsets: vec![0, 1, -6],
            schedule: vec![2, 0, 1],
        };
        let strategy = PatternHammer::new(pattern).unwrap();
        let mut rng = StdRng::seed_from_u64(53);
        for pair in candidate_pairs(&prepared.spray, row_span, 8, &mut rng) {
            let arm = strategy
                .arm(&mut sys, pid, pair, &prepared, &config, threshold)
                .unwrap();
            assert!(arm.armed.is_none());
            assert!(arm.verification.is_none(), "rejected before verification");
        }
    }
}
