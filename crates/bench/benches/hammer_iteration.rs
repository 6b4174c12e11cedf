//! Criterion bench: host-side cost of one simulated double-sided implicit
//! hammer iteration (the simulator's hottest path), replayed from a compiled
//! trace exactly as the hammer phase runs it.
use criterion::{criterion_group, criterion_main, Criterion};
use pthammer::{
    pairs::{candidate_pairs, conflict_threshold},
    pipeline::prepare_attack,
    AttackConfig, CompiledTrace, HammerMode, ImplicitHammer,
};
use pthammer_cache::{CacheHierarchyConfig, LlcConfig, ReplacementPolicy};
use pthammer_dram::FlipModelProfile;
use pthammer_kernel::System;
use pthammer_machine::MachineConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_hammer_iteration(c: &mut Criterion) {
    let mut cfg = MachineConfig::test_small(FlipModelProfile::invulnerable(), 3);
    cfg.cache = CacheHierarchyConfig {
        llc: LlcConfig {
            slices: 2,
            sets_per_slice: 256,
            ways: 8,
            latency: 18,
            replacement: ReplacementPolicy::Srrip,
            inclusive: true,
        },
        ..CacheHierarchyConfig::test_small(3)
    };
    let mut sys = System::undefended(cfg);
    let pid = sys.spawn_process(1000).unwrap();
    let config = AttackConfig {
        spray_bytes: 512 << 20,
        llc_profile_trials: 4,
        ..AttackConfig::quick_test(3, false)
    };
    let prepared = prepare_attack(&mut sys, pid, &config).unwrap();
    let row_span = sys.machine().config().dram.geometry.row_span_bytes();
    let mut rng = StdRng::seed_from_u64(3);
    let pair = candidate_pairs(&prepared.spray, row_span, 1, &mut rng)[0];
    // Single-sided arming: the first candidate pair, unverified, hammered
    // with the double-sided round.
    let strategy = HammerMode::ImplicitSingleSided.strategy();
    let threshold = conflict_threshold(&sys);
    let armed = strategy
        .arm(&mut sys, pid, pair, &prepared, &config, threshold)
        .unwrap()
        .armed
        .unwrap();
    let trace = CompiledTrace::compile(&armed, strategy.round_ops(), &sys).unwrap();
    // The component benches below time the pieces of that round on the
    // same pair's eviction sets.
    let hammer = ImplicitHammer::prepare(
        &mut sys,
        pid,
        pair,
        &prepared.tlb_pool,
        &prepared.llc_pool,
        config.llc_profile_trials,
    )
    .unwrap();

    let mut group = c.benchmark_group("hammer");
    group.sample_size(20);
    group.bench_function("implicit_double_sided_iteration", |b| {
        b.iter(|| trace.replay(&mut sys, pid).unwrap())
    });
    // Component benchmarks of the same round, for hot-path attribution.
    group.bench_function("tlb_evict_one_target", |b| {
        b.iter(|| hammer.tlb_low.evict(&mut sys, pid).unwrap())
    });
    group.bench_function("llc_evict_one_target", |b| {
        b.iter(|| hammer.llc_low.evict(&mut sys, pid).unwrap())
    });
    group.bench_function("touch_target", |b| {
        b.iter(|| sys.access(pid, hammer.pair.low).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_hammer_iteration);
criterion_main!(benches);
