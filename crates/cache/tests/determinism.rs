//! Determinism contract of the cache substrate: slice hashing and
//! replacement decisions must be pure functions of (configuration, access
//! sequence) — never of process randomness or scheduling.

use pthammer_cache::{Assoc, ReplacementPolicy, ReplacementState, SliceHasher};
use pthammer_types::PhysAddr;

#[test]
fn slice_hash_is_stable_across_instances() {
    for slices in [1u32, 2, 4] {
        let a = SliceHasher::intel_like(slices);
        let b = SliceHasher::intel_like(slices);
        for i in 0..10_000u64 {
            let pa = PhysAddr::new(i * 64 + (i << 17));
            assert_eq!(
                a.slice_of(pa),
                b.slice_of(pa),
                "slices={slices} addr={pa:?}"
            );
            assert!(a.slice_of(pa) < slices);
        }
    }
}

/// Runs a fixed fill/hit/victim workload on one set's metadata words and
/// records every victim choice.
fn victim_sequence(policy: ReplacementPolicy) -> Vec<usize> {
    const WAYS: usize = 8;
    let (mut meta, mut state) = ([0u64; WAYS], ReplacementState::default());
    let mut victims = Vec::new();
    for word in &mut meta {
        policy.on_fill(word, &mut state);
    }
    for round in 0..200usize {
        policy.on_hit(&mut meta[round % WAYS], &mut state);
        let victim = policy.choose_victim(Assoc::new(WAYS as u32), &mut meta, &mut state);
        victims.push(victim);
        policy.on_fill(&mut meta[victim], &mut state);
    }
    victims
}

#[test]
fn replacement_decisions_are_deterministic() {
    for policy in [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Srrip,
        ReplacementPolicy::Nru,
    ] {
        let a = victim_sequence(policy);
        let b = victim_sequence(policy);
        assert_eq!(a, b, "{policy:?} victim sequence must be deterministic");
        assert!(a.iter().all(|&v| v < 8));
    }
}
