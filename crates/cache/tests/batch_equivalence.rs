//! Property tests pinning the hot-path rewrite to the per-address semantics:
//! the batched lookup, the plan-based fill and the hint-skipping fills must
//! produce byte-identical hit/miss/eviction sequences to the per-address
//! `access` path on randomized traces.

use proptest::prelude::*;

use pthammer_cache::{
    CacheHierarchy, CacheHierarchyConfig, HierarchyAccess, LlcConfig, ReplacementPolicy,
    SetAssociativeCache,
};
use pthammer_types::{MemoryLevel, PhysAddr};

/// A small hierarchy with heavy set contention so random traces exercise
/// evictions, promotions and inclusive back-invalidation.
fn contended_hierarchy(policy: ReplacementPolicy, seed: u64) -> CacheHierarchy {
    let mut cfg = CacheHierarchyConfig::test_small(seed);
    cfg.llc = LlcConfig {
        slices: 2,
        sets_per_slice: 16,
        ways: 4,
        latency: 18,
        replacement: policy,
        inclusive: true,
    };
    CacheHierarchy::new(cfg)
}

/// Addresses drawn from a deliberately tiny pool of lines so sets overflow.
fn addr(raw: u64) -> PhysAddr {
    PhysAddr::new((raw % 256) * 64)
}

const POLICIES: [ReplacementPolicy; 5] = [
    ReplacementPolicy::Lru,
    ReplacementPolicy::Srrip,
    ReplacementPolicy::Nru,
    ReplacementPolicy::Random,
    ReplacementPolicy::Bip,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // `access_batch` must produce exactly the per-address `access` sequence:
    // same hit levels and latencies in order, same counter values, same
    // final contents. Traces interleave batched lookup chunks with fills of
    // the missed lines, mirroring how the memory subsystem drives the API.
    #[test]
    fn access_batch_matches_per_address_access(
        raws in prop::collection::vec(any::<u64>(), 1..120),
        policy in prop::sample::select(POLICIES.to_vec()),
        seed in 0u64..64,
    ) {
        let addrs: Vec<PhysAddr> = raws.iter().map(|&r| addr(r)).collect();
        let mut per_address = contended_hierarchy(policy, seed);
        let mut batched = contended_hierarchy(policy, seed);

        for chunk in addrs.chunks(7) {
            let serial: Vec<HierarchyAccess> = chunk.iter().map(|&a| per_address.access(a)).collect();
            let mut batch: Vec<HierarchyAccess> = Vec::new();
            batched.access_batch(chunk, &mut batch);
            prop_assert_eq!(&batch, &serial);
            for &a in chunk {
                prop_assert_eq!(per_address.contains(a), batched.contains(a));
                if per_address.contains(a).is_none() {
                    per_address.fill(a);
                    batched.fill(a);
                }
            }
        }
        prop_assert_eq!(batched.pmc().l1_accesses, per_address.pmc().l1_accesses);
        prop_assert_eq!(batched.pmc().l1_misses, per_address.pmc().l1_misses);
        prop_assert_eq!(batched.pmc().llc_misses, per_address.pmc().llc_misses);
        for r in 0..256u64 {
            let a = addr(r);
            prop_assert_eq!(batched.contains(a), per_address.contains(a));
        }
    }

    // The scan-free plan path (`access_planning_fill` + `fill_with_plan`)
    // must be byte-identical to `access` + `fill_after_miss` — including the
    // stale-hint case where inclusive back-invalidation frees a way in the
    // set being filled.
    #[test]
    fn plan_fill_matches_scanning_fill(
        raws in prop::collection::vec(any::<u64>(), 1..160),
        policy in prop::sample::select(POLICIES.to_vec()),
        seed in 0u64..64,
    ) {
        let mut scanning = contended_hierarchy(policy, seed);
        let mut planned = contended_hierarchy(policy, seed);
        for &r in &raws {
            let a = addr(r);
            let expect = scanning.access(a);
            if expect.hit_level.is_none() {
                scanning.fill_after_miss(a);
            }
            let (got, plan) = planned.access_planning_fill(a);
            prop_assert_eq!(got, expect);
            if got.hit_level.is_none() {
                planned.fill_with_plan(a, plan);
            }
        }
        prop_assert_eq!(scanning.pmc().l1_accesses, planned.pmc().l1_accesses);
        prop_assert_eq!(scanning.pmc().l1_misses, planned.pmc().l1_misses);
        prop_assert_eq!(scanning.pmc().l2_misses, planned.pmc().l2_misses);
        prop_assert_eq!(scanning.pmc().llc_misses, planned.pmc().llc_misses);
        for r in 0..256u64 {
            let a = addr(r);
            prop_assert_eq!(scanning.contains(a), planned.contains(a));
        }
    }

    // `fill_absent` must match `fill` for lines that are not present, and
    // single caches must agree with a straightforward model of occupancy.
    #[test]
    fn fill_absent_matches_fill_on_random_traces(
        raws in prop::collection::vec(any::<u64>(), 1..100),
        policy in prop::sample::select(POLICIES.to_vec()),
        seed in 0u64..64,
    ) {
        let mut via_fill = SetAssociativeCache::new(8, 2, policy, seed | 1);
        let mut via_absent = SetAssociativeCache::new(8, 2, policy, seed | 1);
        for &r in &raws {
            let a = addr(r);
            // Keep the traces aligned: only drive fill_absent when the line
            // is genuinely absent (its contract); otherwise access both.
            if via_fill.contains(a) {
                prop_assert_eq!(via_fill.access(a).hit, via_absent.access(a).hit);
            } else {
                prop_assert_eq!(via_fill.fill(a), via_absent.fill_absent(a));
            }
        }
        for r in 0..256u64 {
            let a = addr(r);
            prop_assert_eq!(via_fill.contains(a), via_absent.contains(a));
        }
        for set in 0..8 {
            prop_assert!(via_fill.occupancy(set) <= 2);
            prop_assert_eq!(via_fill.occupancy(set), via_absent.occupancy(set));
        }
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
        seed in 0u64..64,
    ) {
        let mut per_access = contended_hierarchy(policy, seed);
        for &r in &raws {
            let a = addr(r);
            if per_access.access(a).hit_level.is_none() {
                per_access.fill(a);
            }
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
