//! Compares the conventional explicit (clflush-based) rowhammer baseline with
//! PThammer's implicit hammering, and shows what an ANVIL-style detector sees
//! in each case.
//!
//! Run with: `cargo run --release --example explicit_vs_implicit`

use pthammer::{
    hammer::{ExplicitHammer, ExplicitHammerConfig, ExplicitMode},
    pairs::{candidate_pairs, conflict_threshold},
    pipeline::prepare_attack,
    AttackConfig, CompiledTrace, HammerMode,
};
use pthammer_defenses::{AnvilDetector, AnvilMode};
use pthammer_dram::FlipModelProfile;
use pthammer_kernel::System;
use pthammer_machine::MachineConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- explicit clflush double-sided hammering on the attacker's own memory ---
    let mut sys = System::undefended(MachineConfig::lenovo_t420(FlipModelProfile::fast(), 5));
    let pid = sys.spawn_process(1000)?;
    let hammer = ExplicitHammer::setup(&mut sys, pid, 64 << 20, u64::MAX)?;
    let config = ExplicitHammerConfig {
        mode: ExplicitMode::ClflushDoubleSided,
        nop_padding_cycles: 0,
        rounds_per_target: 2_000,
        max_total_cycles: 2_000_000_000,
        seed: 5,
    };
    let start_dram = sys.machine().dram_stats().accesses;
    let start = sys.rdtsc();
    let flip = hammer.run_until_first_flip(&mut sys, pid, &config)?;
    let explicit_window = sys.rdtsc() - start;
    let explicit_dram = sys.machine().dram_stats().accesses - start_dram;
    println!(
        "explicit clflush hammer: first flip = {:?} (simulated {:.2} s)",
        flip.map(|f| f.vaddr),
        explicit_window as f64 / sys.machine().clock_hz()
    );

    // --- implicit (PThammer) hammering of kernel-owned Level-1 page tables ---
    let mut sys = System::undefended(MachineConfig::lenovo_t420(FlipModelProfile::fast(), 5));
    let pid = sys.spawn_process(1000)?;
    let config = AttackConfig {
        spray_bytes: 1 << 30,
        eviction_buffer_factor: 1.25,
        llc_profile_trials: 6,
        ..AttackConfig::quick_test(5, false)
    };
    let prepared = prepare_attack(&mut sys, pid, &config)?;
    let row_span = sys.machine().config().dram.geometry.row_span_bytes();
    let mut rng = StdRng::seed_from_u64(5);
    let pair = candidate_pairs(&prepared.spray, row_span, 1, &mut rng)[0];
    // Single-sided arming: eviction sets for both targets, no same-bank gate.
    let strategy = HammerMode::ImplicitSingleSided.strategy();
    let threshold = conflict_threshold(&sys);
    let armed = strategy
        .arm(&mut sys, pid, pair, &prepared, &config, threshold)?
        .armed
        .expect("single-sided arming accepts every pair");
    let ops = strategy.round_ops();
    let mut trace = CompiledTrace::compile(&armed, ops, &sys)?;
    let start = sys.rdtsc();
    let stats = trace.hammer(&armed, ops, &mut sys, pid, 2_000, |_| {})?;
    let implicit_window = sys.rdtsc() - start;
    let implicit_blows = stats.low_dram_hits + stats.high_dram_hits;
    println!(
        "implicit PThammer: {} rounds, avg {:.0} cycles/round, {} implicit kernel-row activations",
        stats.rounds,
        stats.avg_round_cycles(),
        implicit_blows
    );

    // --- what an ANVIL-style detector can see ---
    let threshold = 400.0;
    let mut naive = AnvilDetector::new(AnvilMode::ExplicitLoadsOnly, threshold);
    let mut naive2 = AnvilDetector::new(AnvilMode::ExplicitLoadsOnly, threshold);
    let mut extended = AnvilDetector::new(AnvilMode::IncludeImplicitAccesses, threshold);
    println!("\nANVIL-style detection (threshold {threshold} DRAM accesses / Mcycle):");
    println!(
        "  explicit hammer, unmodified ANVIL : detected = {}",
        naive
            .observe_window(explicit_window, explicit_dram, 0)
            .detected
    );
    println!(
        "  PThammer, unmodified ANVIL        : detected = {}",
        naive2
            .observe_window(implicit_window, 0, implicit_blows)
            .detected
    );
    println!(
        "  PThammer, ANVIL + implicit loads  : detected = {}",
        extended
            .observe_window(implicit_window, 0, implicit_blows)
            .detected
    );
    Ok(())
}
