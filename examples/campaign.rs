//! Defense-sweep campaign: run PThammer against every software-only defense
//! (undefended baseline, CATT, RIP-RH, CTA, ZebRAM) as one parallel
//! scenario-matrix campaign, print the aggregated escalation-rate table,
//! sweep the hammer-strategy axis (implicit double-sided vs the explicit
//! baseline, single-sided and one-location variants), and show what an
//! ANVIL-style detector sees.
//!
//! Run with: `cargo run --release --example campaign`

use pthammer_bench::scenarios;
use pthammer_bench::{ExperimentScale, MachineChoice};
use pthammer_harness::{
    run_campaign, CampaignConfig, DefenseChoice, HammerMode, ProfileChoice, ScenarioMatrix,
};

fn main() {
    // Sweep every defense on the CI-scale machine: 5 defenses x 3 seeds.
    let matrix = ScenarioMatrix::new(
        vec![MachineChoice::TestSmall],
        DefenseChoice::all(),
        vec![ProfileChoice::Ci],
        3,
    );
    let mut config = CampaignConfig::ci(42);
    // A little more hammering budget than the CI preset so the undefended
    // baseline usually escalates within the sweep.
    config.attack.max_attempts = 8;
    config.attack.hammer_rounds_per_attempt = 2_000;
    println!(
        "running a {}-cell defense-sweep campaign ({} worker threads)...",
        matrix.len(),
        if config.threads == 0 {
            "auto".to_string()
        } else {
            config.threads.to_string()
        }
    );
    let report = run_campaign(&matrix, &config);

    println!(
        "\n{:<12} {:>6} {:>12} {:>12} {:>12} {:>10}",
        "defense", "cells", "esc. rate", "flip cells", "mean flips", "delta"
    );
    println!("{}", "-".repeat(70));
    for s in &report.summaries {
        println!(
            "{:<12} {:>6} {:>12.2} {:>12} {:>12.2} {:>10}",
            s.group.defense.name(),
            s.cells,
            s.escalation_rate,
            s.flip_cells,
            s.mean_flips,
            s.escalation_rate_delta_vs_undefended
                .map(|d| format!("{d:+.2}"))
                .unwrap_or_else(|| "-".into()),
        );
    }

    // Hammer-strategy sweep on the undefended CI machine: the new matrix
    // axis. Every mode attacks the same weak-cell map (mode, like defense,
    // never enters the cell seed), so the per-mode deltas isolate the
    // strategy itself. Budget stays in the ci_small range: 4 modes × 2
    // seeds at the standard CI cell scale (8 cells ≈ a quarter of the
    // golden matrix).
    let mode_matrix = ScenarioMatrix::new(
        vec![MachineChoice::TestSmall],
        vec![DefenseChoice::None],
        vec![ProfileChoice::Ci],
        2,
    )
    .with_hammer_modes(HammerMode::all());
    let mode_config = CampaignConfig::ci(42);
    println!(
        "\nrunning a {}-cell hammer-mode sweep (implicit vs explicit strategies)...",
        mode_matrix.len()
    );
    let mode_report = run_campaign(&mode_matrix, &mode_config);
    println!(
        "\n{:<24} {:>6} {:>12} {:>12} {:>12} {:>10}",
        "hammer mode", "cells", "esc. rate", "flip cells", "mean flips", "DRAM rate"
    );
    println!("{}", "-".repeat(82));
    for s in &mode_report.summaries {
        println!(
            "{:<24} {:>6} {:>12.2} {:>12} {:>12.2} {:>10.3}",
            s.group.hammer_mode.name(),
            s.cells,
            s.escalation_rate,
            s.flip_cells,
            s.mean_flips,
            s.mean_implicit_dram_rate,
        );
    }
    println!(
        "(explicit hammering cannot reach the kernel's page-table rows: zero implicit\n\
         DRAM accesses and zero corrupted mappings, exactly the contrast the paper draws)"
    );

    // ANVIL is a detector, not a placement policy: show what an unmodified
    // ANVIL (explicit loads only) and an extended one (implicit page-walk
    // accesses attributed) observe against PThammer on the same machine.
    println!("\nANVIL-style detection (Section V):");
    let anvil = scenarios::anvil_eval(MachineChoice::TestSmall, ExperimentScale::scaled(), 42);
    println!(
        "  explicit clflush hammer detected : {} ({:.0} activations/Mcycle)",
        anvil.explicit_detected, anvil.explicit_rate
    );
    println!(
        "  PThammer vs unmodified ANVIL     : {} (implicit accesses invisible)",
        anvil.implicit_detected_naive
    );
    println!(
        "  PThammer vs extended ANVIL       : {} ({:.0} activations/Mcycle)",
        anvil.implicit_detected_extended, anvil.implicit_rate
    );

    println!(
        "\ncanonical JSON report: {} bytes (see EXPERIMENTS.md)",
        report.to_canonical_json().len()
    );
}
