//! Property tests pinning the hierarchy's single access path to a plain
//! scanning model of it: [`CacheHierarchy::access`] (probe hints, fill on a
//! full miss, stale-hint fallback) and the L1 hit run must produce the
//! same hit/miss/eviction sequences as per-level caches driven one scan at
//! a time, on randomized traces.

use proptest::prelude::*;

use pthammer_cache::{
    CacheHierarchy, CacheHierarchyConfig, CacheLevelConfig, LlcConfig, ReplacementPolicy,
    SetAssociativeCache, SliceHasher,
};
use pthammer_types::{MemoryLevel, PhysAddr};

/// A small hierarchy with heavy set contention so random traces exercise
/// evictions, promotions and inclusive back-invalidation, every level
/// under `policy`.
fn contended_config(policy: ReplacementPolicy) -> CacheHierarchyConfig {
    let base = CacheHierarchyConfig::test_small();
    let level = |level: CacheLevelConfig| CacheLevelConfig {
        replacement: policy,
        ..level
    };
    CacheHierarchyConfig {
        l1d: level(base.l1d),
        l2: level(base.l2),
        llc: LlcConfig {
            slices: 2,
            sets_per_slice: 16,
            ways: 4,
            latency: 18,
            replacement: policy,
        },
    }
}

/// The hierarchy as per-level caches, every fill scanning its set: probe
/// each level, promote on an inner hit, and on a full miss fill the LLC,
/// back-invalidate its victim, then fill L2 and L1D.
struct Scanning {
    l1d: SetAssociativeCache,
    l2: SetAssociativeCache,
    llc: Vec<SetAssociativeCache>,
    hasher: SliceHasher,
}

impl Scanning {
    fn new(config: &CacheHierarchyConfig) -> Self {
        let level = |c: CacheLevelConfig| SetAssociativeCache::new(c.sets, c.ways, c.replacement);
        let llc = config.llc;
        Self {
            l1d: level(config.l1d),
            l2: level(config.l2),
            llc: (0..llc.slices)
                .map(|_| SetAssociativeCache::new(llc.sets_per_slice, llc.ways, llc.replacement))
                .collect(),
            hasher: SliceHasher::intel_like(llc.slices),
        }
    }

    fn access(&mut self, paddr: PhysAddr) -> Option<MemoryLevel> {
        if self.l1d.access(paddr).is_hit() {
            return Some(MemoryLevel::L1);
        }
        if self.l2.access(paddr).is_hit() {
            self.l1d.fill_absent(paddr);
            return Some(MemoryLevel::L2);
        }
        let llc = &mut self.llc[self.hasher.slice_of(paddr) as usize];
        if llc.access(paddr).is_hit() {
            self.l2.fill_absent(paddr);
            self.l1d.fill_absent(paddr);
            return Some(MemoryLevel::Llc);
        }
        if let Some(victim) = llc.fill_absent(paddr) {
            self.l1d.invalidate(victim);
            self.l2.invalidate(victim);
        }
        self.l2.fill_absent(paddr);
        self.l1d.fill_absent(paddr);
        None
    }

    fn contains(&self, paddr: PhysAddr) -> Option<MemoryLevel> {
        if self.l1d.contains(paddr) {
            Some(MemoryLevel::L1)
        } else if self.l2.contains(paddr) {
            Some(MemoryLevel::L2)
        } else if self.llc[self.hasher.slice_of(paddr) as usize].contains(paddr) {
            Some(MemoryLevel::Llc)
        } else {
            None
        }
    }
}

/// Addresses drawn from a deliberately tiny pool of lines so sets overflow.
fn addr(raw: u64) -> PhysAddr {
    PhysAddr::new((raw % 256) * 64)
}

const POLICIES: [ReplacementPolicy; 3] = [
    ReplacementPolicy::Lru,
    ReplacementPolicy::Srrip,
    ReplacementPolicy::Nru,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The hinted access path must be byte-identical to the scanning model
    // — including the stale-hint case where inclusive back-invalidation
    // frees a way in the set being filled: same serving levels and
    // latencies in order, same counters, same final contents.
    #[test]
    fn access_matches_the_scanning_hierarchy(
        raws in prop::collection::vec(any::<u64>(), 1..160),
        policy in prop::sample::select(POLICIES.to_vec()),
    ) {
        let config = contended_config(policy);
        let mut hinted = CacheHierarchy::new(config);
        let mut scanning = Scanning::new(&config);
        let (mut l1_misses, mut l2_misses, mut llc_misses) = (0, 0, 0);
        for (step, &r) in raws.iter().enumerate() {
            let a = addr(r);
            let want = scanning.access(a);
            let got = hinted.access(a);
            prop_assert_eq!((step, got.hit_level), (step, want));
            let latency = match want {
                Some(MemoryLevel::L1) => config.l1d.latency,
                Some(MemoryLevel::L2) => config.l1d.latency + config.l2.latency,
                _ => config.l1d.latency + config.l2.latency + config.llc.latency,
            };
            prop_assert_eq!(got.latency.as_u64(), u64::from(latency));
            l1_misses += u64::from(want != Some(MemoryLevel::L1));
            l2_misses += u64::from(matches!(want, Some(MemoryLevel::Llc) | None));
            llc_misses += u64::from(want.is_none());
            for r in 0..256u64 {
                prop_assert_eq!((step, hinted.contains(addr(r))), (step, scanning.contains(addr(r))));
            }
        }
        let pmc = hinted.pmc();
        prop_assert_eq!(pmc.l1_accesses, raws.len() as u64);
        prop_assert_eq!(pmc.l1_misses, l1_misses);
        prop_assert_eq!(pmc.l2_misses, l2_misses);
        prop_assert_eq!(pmc.llc_accesses, l2_misses);
        prop_assert_eq!(pmc.llc_misses, llc_misses);
    }

    // An L1 hit run (the page-run batch of a walker's PTE line and a data
    // line) leaves the hierarchy exactly as accessing its lines round
    // after round: same counters and replacement state at every level,
    // whether the lines share an L1 set or not.
    #[test]
    fn an_l1_hit_run_matches_accessing_round_by_round(
        raws in prop::collection::vec(any::<u64>(), 1..60),
        picks in prop::collection::vec(any::<u64>(), 1..4),
        rounds in 0u64..12,
        policy in prop::sample::select(POLICIES.to_vec()),
    ) {
        let mut per_access = CacheHierarchy::new(contended_config(policy));
        for &r in &raws {
            per_access.access(addr(r));
        }
        let held: Vec<PhysAddr> = (0..256u64)
            .map(addr)
            .filter(|&a| per_access.contains(a) == Some(MemoryLevel::L1))
            .collect();
        let lines: Vec<PhysAddr> = picks.iter().map(|&p| held[(p % held.len() as u64) as usize]).collect();
        let mut batched = per_access.clone();
        for _ in 0..rounds {
            for &line in &lines {
                prop_assert_eq!(per_access.access(line).hit_level, Some(MemoryLevel::L1));
            }
        }
        batched.l1_hit_run(&lines, rounds);
        prop_assert_eq!(batched, per_access);
    }
}
