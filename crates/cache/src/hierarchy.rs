//! The three-level cache hierarchy (L1D, L2, sliced inclusive LLC).

use serde::Serialize;

use pthammer_types::{Cycles, LaneSink, LaneSource, MemoryLevel, PhysAddr};

use crate::{
    cache::SetAssociativeCache, config::CacheHierarchyConfig, kernel::Probe, pmc::CachePmc,
    slice::SliceHasher,
};

/// The sets of every level that a group of physical lines maps to: the
/// part of the hierarchy an access stream over those lines can change.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheFootprint {
    /// Store sets (see [`SetAssociativeCache::store_set`]) per level.
    l1: Vec<u32>,
    l2: Vec<u32>,
    llc: Vec<u32>,
}

/// Result of a lookup through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyAccess {
    /// The level that served the access, or `None` when all levels missed:
    /// the caller fetches the line from DRAM, and the access has already
    /// filled it into every level.
    pub hit_level: Option<MemoryLevel>,
    /// Lookup latency accumulated down to the serving level (or down to the
    /// LLC for a full miss — DRAM latency is added by the caller).
    pub latency: Cycles,
}

/// The simulated L1D / L2 / LLC hierarchy.
///
/// The LLC is physically indexed and split into slices selected by an
/// Intel-like XOR hash; the slices share one set store. It is inclusive, as
/// on Sandy/Ivy Bridge: evicting a line from the LLC back-invalidates it
/// from L1 and L2 — the property that lets an unprivileged attacker evict
/// *kernel* page-table entries from the whole hierarchy by contention on the
/// LLC only.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CacheHierarchy {
    config: CacheHierarchyConfig,
    l1d: SetAssociativeCache,
    l2: SetAssociativeCache,
    llc: SetAssociativeCache,
    pmc: CachePmc,
}

impl CacheHierarchy {
    /// Builds the hierarchy from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: CacheHierarchyConfig) -> Self {
        config
            .validate()
            .expect("invalid cache hierarchy configuration");
        let l1d =
            SetAssociativeCache::new(config.l1d.sets, config.l1d.ways, config.l1d.replacement);
        let l2 = SetAssociativeCache::new(config.l2.sets, config.l2.ways, config.l2.replacement);
        let llc = SetAssociativeCache::sliced(
            SliceHasher::intel_like(config.llc.slices),
            config.llc.sets_per_slice,
            config.llc.ways,
            config.llc.replacement,
        );
        Self {
            config,
            l1d,
            l2,
            llc,
            pmc: CachePmc::default(),
        }
    }

    /// The configuration of this hierarchy.
    pub fn config(&self) -> &CacheHierarchyConfig {
        &self.config
    }

    /// Current performance-counter values.
    pub fn pmc(&self) -> &CachePmc {
        &self.pmc
    }

    /// Resets the performance counters.
    pub fn reset_pmc(&mut self) {
        self.pmc.reset();
    }

    /// LLC (slice, set) pair a physical address maps to — the ground truth
    /// used by the evaluation oracle to verify eviction-set selection
    /// (Section IV-C of the paper).
    pub fn llc_slice_and_set(&self, paddr: PhysAddr) -> (u32, u32) {
        self.llc.slice_and_set(paddr)
    }

    /// Looks the line up in L1D → L2 → LLC, updating replacement state and
    /// performance counters. A hit in L2 or the LLC promotes the line into
    /// the levels above it; a full miss fills it into every level before
    /// returning (the caller then fetches it from DRAM, which never touches
    /// cache state).
    #[inline(always)]
    pub fn access(&mut self, paddr: PhysAddr) -> HierarchyAccess {
        let mut latency = u64::from(self.config.l1d.latency);
        self.pmc.l1_accesses += 1;
        let Probe::Miss(l1_empty) = self.l1d.access(paddr) else {
            return HierarchyAccess {
                hit_level: Some(MemoryLevel::L1),
                latency: Cycles::new(latency),
            };
        };
        self.pmc.l1_misses += 1;

        latency += u64::from(self.config.l2.latency);
        let Probe::Miss(l2_empty) = self.l2.access(paddr) else {
            // Promote into L1; the L1 probe above just missed, so the line
            // is absent there and `l1_empty` is its set's first empty way.
            self.l1d.fill_absent_at(paddr, l1_empty);
            return HierarchyAccess {
                hit_level: Some(MemoryLevel::L2),
                latency: Cycles::new(latency),
            };
        };
        self.pmc.l2_misses += 1;

        latency += u64::from(self.config.llc.latency);
        self.pmc.llc_accesses += 1;
        let Probe::Miss(llc_empty) = self.llc.access(paddr) else {
            self.l2.fill_absent_at(paddr, l2_empty);
            self.l1d.fill_absent_at(paddr, l1_empty);
            return HierarchyAccess {
                hit_level: Some(MemoryLevel::Llc),
                latency: Cycles::new(latency),
            };
        };
        self.pmc.llc_misses += 1;

        // Fill every level. If the LLC victim's back-invalidation frees a
        // way in the very L1/L2 set `paddr` is about to fill, that level's
        // empty-way hint is stale: its fill scans the set again, so the line
        // lands in the first empty way.
        let mut l1_stale = false;
        let mut l2_stale = false;
        if let Some(victim) = self.llc.fill_absent_at(paddr, llc_empty) {
            l1_stale = self.l1d.invalidate(victim)
                && self.l1d.set_index(victim) == self.l1d.set_index(paddr);
            l2_stale =
                self.l2.invalidate(victim) && self.l2.set_index(victim) == self.l2.set_index(paddr);
        }
        if l2_stale {
            self.l2.fill_absent(paddr);
        } else {
            self.l2.fill_absent_at(paddr, l2_empty);
        }
        if l1_stale {
            self.l1d.fill_absent(paddr);
        } else {
            self.l1d.fill_absent_at(paddr, l1_empty);
        }
        HierarchyAccess {
            hit_level: None,
            latency: Cycles::new(latency),
        }
    }

    /// Probes the hierarchy without updating replacement state or counters.
    pub fn contains(&self, paddr: PhysAddr) -> Option<MemoryLevel> {
        if self.l1d.contains(paddr) {
            return Some(MemoryLevel::L1);
        }
        if self.l2.contains(paddr) {
            return Some(MemoryLevel::L2);
        }
        if self.llc.contains(paddr) {
            return Some(MemoryLevel::Llc);
        }
        None
    }

    /// Records `rounds` rounds of L1D hits on `lines`, every one held by
    /// the L1D and at most eight of them, each round accessing them in
    /// order: the same end state and counters as [`CacheHierarchy::access`]
    /// of each line, round after round.
    pub fn l1_hit_run(&mut self, lines: &[PhysAddr], rounds: u64) {
        self.pmc.l1_accesses += rounds * lines.len() as u64;
        self.l1d.hit_run(lines, rounds);
    }

    /// Flushes the line from every level (models `clflush`).
    pub fn clflush(&mut self, paddr: PhysAddr) {
        self.l1d.invalidate(paddr);
        self.l2.invalidate(paddr);
        self.llc.invalidate(paddr);
    }

    /// Invalidates every line of every level.
    pub fn flush_all(&mut self) {
        self.l1d.invalidate_all();
        self.l2.invalidate_all();
        self.llc.invalidate_all();
    }

    /// The sets `lines` map to at every level, each listed once.
    pub fn footprint(&self, lines: impl IntoIterator<Item = PhysAddr>) -> CacheFootprint {
        let mut fp = CacheFootprint::default();
        for line in lines {
            fp.l1.push(self.l1d.store_set(line));
            fp.l2.push(self.l2.store_set(line));
            fp.llc.push(self.llc.store_set(line));
        }
        for sets in [&mut fp.l1, &mut fp.l2, &mut fp.llc] {
            sets.sort_unstable();
            sets.dedup();
        }
        fp
    }

    /// Records the footprint's sets, level by level, and the performance
    /// counters as [`LaneSink`].
    pub fn read_footprint(&self, fp: &CacheFootprint, lanes: &mut impl LaneSink) {
        fp.l1.iter().for_each(|&set| self.l1d.read_set(set, lanes));
        fp.l2.iter().for_each(|&set| self.l2.read_set(set, lanes));
        fp.llc.iter().for_each(|&set| self.llc.read_set(set, lanes));
        self.pmc.read_lanes(lanes);
    }

    /// Writes back the lanes of [`CacheHierarchy::read_footprint`].
    pub fn write_footprint(&mut self, fp: &CacheFootprint, source: &mut LaneSource) {
        fp.l1
            .iter()
            .for_each(|&set| self.l1d.write_set(set, source));
        fp.l2.iter().for_each(|&set| self.l2.write_set(set, source));
        fp.llc
            .iter()
            .for_each(|&set| self.llc.write_set(set, source));
        self.pmc.write_lanes(source);
    }

    /// Lookup latency charged when an access misses every level (the cost of
    /// walking the hierarchy before DRAM is consulted).
    pub fn full_miss_latency(&self) -> Cycles {
        Cycles::new(u64::from(
            self.config.l1d.latency + self.config.l2.latency + self.config.llc.latency,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheHierarchyConfig, CacheLevelConfig, LlcConfig};
    use crate::replacement::ReplacementPolicy;

    fn hierarchy() -> CacheHierarchy {
        CacheHierarchy::new(CacheHierarchyConfig::test_small())
    }

    #[test]
    fn cold_miss_then_hits_at_l1() {
        let mut h = hierarchy();
        let a = PhysAddr::new(0x8000);
        let miss = h.access(a);
        assert_eq!(miss.hit_level, None);
        assert_eq!(miss.latency, h.full_miss_latency());
        let hit = h.access(a);
        assert_eq!(hit.hit_level, Some(MemoryLevel::L1));
        assert!(hit.latency < miss.latency);
    }

    #[test]
    fn pmc_counts_misses() {
        let mut h = hierarchy();
        let a = PhysAddr::new(0x4000);
        h.access(a);
        h.access(a);
        let pmc = h.pmc();
        assert_eq!(pmc.l1_accesses, 2);
        assert_eq!(pmc.l1_misses, 1);
        assert_eq!(pmc.llc_accesses, 1);
        assert_eq!(pmc.llc_misses, 1);
        let mut h2 = hierarchy();
        h2.reset_pmc();
        assert_eq!(h2.pmc().l1_accesses, 0);
    }

    #[test]
    fn clflush_removes_from_all_levels() {
        let mut h = hierarchy();
        let a = PhysAddr::new(0xc0c0);
        h.access(a);
        assert!(h.contains(a).is_some());
        h.clflush(a);
        assert_eq!(h.contains(a), None);
        assert_eq!(h.access(a).hit_level, None);
    }

    #[test]
    fn inclusive_llc_eviction_back_invalidates() {
        // Single-slice small LLC so we can force contention deterministically.
        let mut cfg = CacheHierarchyConfig::test_small();
        cfg.llc = LlcConfig {
            slices: 1,
            sets_per_slice: 16,
            ways: 2,
            latency: 18,
            replacement: ReplacementPolicy::Lru,
        };
        let mut h = CacheHierarchy::new(cfg);
        // Three lines in the same LLC set (stride = sets * 64).
        let stride = 16 * 64;
        let a = PhysAddr::new(0);
        let b = PhysAddr::new(stride);
        let c = PhysAddr::new(2 * stride);
        h.access(a);
        h.access(b);
        h.access(c); // evicts `a` from the 2-way LLC set
        assert_eq!(
            h.contains(a),
            None,
            "inclusive LLC eviction must also remove the line from L1/L2"
        );
        assert!(h.contains(b).is_some());
        assert!(h.contains(c).is_some());
    }

    #[test]
    fn back_invalidation_of_the_filled_sets_frees_the_way_the_fill_takes() {
        // Lines congruent in every level, with full sets everywhere when
        // `x` misses: its probes find no empty way, then the LLC evicts `a`,
        // whose back-invalidation empties a way in the very L1 and L2 sets
        // `x` fills. The inner levels run SRRIP, whose victim is not the
        // freed way, so a fill that kept the probes' stale hint would evict
        // `b` instead.
        let level = |sets, latency| CacheLevelConfig {
            sets,
            ways: 2,
            latency,
            replacement: ReplacementPolicy::Srrip,
        };
        let mut h = CacheHierarchy::new(CacheHierarchyConfig {
            l1d: level(4, 4),
            l2: level(8, 8),
            llc: LlcConfig {
                slices: 1,
                sets_per_slice: 16,
                ways: 2,
                latency: 18,
                replacement: ReplacementPolicy::Lru,
            },
        });
        let [a, b, x] = [0, 1, 2].map(|n| PhysAddr::new(3 * 64 + n * 16 * 64));
        h.access(a);
        h.access(b);
        let (mut l1d, mut l2) = (h.l1d.clone(), h.l2.clone());
        assert_eq!(h.access(x).hit_level, None);
        // The scanning fill: `a` leaves each inner level, then `x` takes
        // the first empty way of its set.
        for scanned in [&mut l2, &mut l1d] {
            assert!(scanned.invalidate(a));
            assert_eq!(scanned.fill_absent(x), None);
        }
        assert_eq!(h.l1d, l1d);
        assert_eq!(h.l2, l2);
        assert_eq!(h.contains(a), None);
        assert_eq!(h.contains(b), Some(MemoryLevel::L1));
    }

    #[test]
    fn l2_hit_promotes_to_l1() {
        let mut h = hierarchy();
        let a = PhysAddr::new(0x1_0000);
        h.access(a);
        // Evict from tiny L1 by filling its set with more lines than ways.
        let l1_sets = u64::from(h.config().l1d.sets);
        for n in 1..=8u64 {
            h.access(PhysAddr::new(0x1_0000 + n * l1_sets * 64));
        }
        // The line should have left L1 but still be in L2 or LLC.
        let level = h.contains(a);
        assert!(matches!(
            level,
            Some(MemoryLevel::L2) | Some(MemoryLevel::Llc)
        ));
        let acc = h.access(a);
        assert_eq!(acc.hit_level, level);
        // After the access it is back in L1.
        assert_eq!(h.contains(a), Some(MemoryLevel::L1));
    }

    #[test]
    fn slice_and_set_oracle_is_stable() {
        let h = CacheHierarchy::new(CacheHierarchyConfig::sandy_bridge_3mib());
        let a = PhysAddr::new(0x1234_5640);
        let (slice, set) = h.llc_slice_and_set(a);
        assert!(slice < 2);
        assert!(set < 2048);
        assert_eq!(h.llc_slice_and_set(a), (slice, set));
    }

    #[test]
    fn flush_all_empties_everything() {
        let mut h = hierarchy();
        for i in 0..64u64 {
            h.access(PhysAddr::new(i * 64));
        }
        h.flush_all();
        for i in 0..64u64 {
            assert_eq!(h.contains(PhysAddr::new(i * 64)), None);
        }
    }

    #[test]
    fn thirteen_line_eviction_set_evicts_rarely_used_target_under_srrip() {
        // Reproduce the core mechanism of Figure 4: accessing a 13-line
        // eviction set congruent with a target line evicts the target from a
        // 12-way SRRIP LLC set with high probability, while an 8-line set
        // does not.
        let mut cfg = CacheHierarchyConfig::sandy_bridge_3mib();
        cfg.llc.slices = 1; // single slice so congruence is purely set-index based
        let run = |lines: u64, cfg: CacheHierarchyConfig| -> f64 {
            let mut h = CacheHierarchy::new(cfg);
            let sets = u64::from(h.config().llc.sets_per_slice);
            let target = PhysAddr::new(7 * 64);
            let eviction: Vec<PhysAddr> = (1..=lines)
                .map(|n| PhysAddr::new(7 * 64 + n * sets * 64))
                .collect();
            let mut evicted = 0;
            let rounds = 50;
            for _ in 0..rounds {
                h.access(target);
                for &e in &eviction {
                    h.access(e);
                }
                if h.contains(target).is_none() {
                    evicted += 1;
                }
            }
            f64::from(evicted) / f64::from(rounds)
        };
        let rate_13 = run(13, cfg);
        let rate_8 = run(8, cfg);
        assert!(
            rate_13 > 0.9,
            "13-line set should evict reliably, got {rate_13}"
        );
        assert!(rate_8 < rate_13, "smaller set should evict less often");
    }
}
