//! Reproduces the TRR-era headline result: on a machine with an in-DRAM
//! Target Row Refresh mitigation, the paper's stock implicit double-sided
//! attack observes **zero** flips, while a deterministically synthesized
//! many-sided pattern (crate `pthammer-patterns`) still flips — through the
//! same implicit (PTE-walk) touch path.
//!
//! Usage:
//!
//! ```text
//! repro_trr [--seed N] [--reps N] [--synth-cache DIR]
//! ```
//!
//! Runs TestSmall-sized cells (the host is expected to be small); the
//! machine axis contrasts `Test Small` (no TRR, DDR3-era) against
//! `Test Small TRR` (capacity-bounded sampler). With `--synth-cache DIR`
//! the synthesizer preview goes through a content-addressed
//! [`ArtifactCache`]: the first invocation searches and writes through,
//! repeat invocations get the identical bytes back from disk.

use std::process::ExitCode;

use pthammer_bench::MachineChoice;
use pthammer_harness::{
    run_cell, ArtifactCache, CampaignConfig, CellCoord, CellReport, DefenseChoice, ProfileChoice,
};
use pthammer_patterns::{synthesize, PatternChoice, Synthesis, SynthesisResult};

fn flag_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_flag(name: &str) -> Option<u64> {
    flag_value(name).and_then(|v| v.parse().ok())
}

fn run(
    machine: MachineChoice,
    pattern: Option<PatternChoice>,
    rep: u32,
    config: &CampaignConfig,
) -> CellReport {
    run_cell(
        &CellCoord {
            pattern,
            ..CellCoord::new(machine, DefenseChoice::None, ProfileChoice::Ci, rep)
        },
        config,
    )
}

fn describe(label: &str, cell: &CellReport) {
    println!(
        "  {label:<28} flips={:<3} exploitable={:<2} attempts={:<2} trr_refreshes={}",
        cell.flips_observed, cell.exploitable_flips, cell.attempts, cell.trr_refreshes
    );
}

fn main() -> ExitCode {
    let base_seed = parse_flag("--seed").unwrap_or(0x5452_5265_7263);
    let reps = parse_flag("--reps").unwrap_or(1) as u32;
    let config = CampaignConfig::trr_ci(base_seed);

    // Show what the synthesizer would run on the TRR machine before the
    // cells execute it (cells re-derive it from their own seeds). With
    // --synth-cache, repeat invocations get the search result back from the
    // content-addressed store instead of re-searching.
    let machine_cfg = MachineChoice::TestSmallTrr.config(ProfileChoice::Ci.profile(), base_seed);
    let synth_cfg = config.synthesis_config(&machine_cfg);
    let synth: SynthesisResult = match flag_value("--synth-cache") {
        Some(dir) => {
            let cache = ArtifactCache::<Synthesis>::open(&dir).expect("open synthesis cache");
            let (result, source) = cache
                .get_or_compute(&(synth_cfg, base_seed))
                .expect("cached synthesis");
            println!("synthesis cache at {dir}: {source:?}");
            result
        }
        None => synthesize(&synth_cfg, base_seed),
    };
    println!(
        "synthesizer preview on {}: {} (peak victim disturbance {}, sampler capacity {})",
        machine_cfg.name,
        synth.best,
        synth.score.peak_victim_disturbance,
        machine_cfg.dram.trr.sampler_capacity
    );

    let mut trr_stock_flips = 0usize;
    let mut trr_pattern_flips = 0usize;
    for rep in 0..reps {
        println!("rep {rep} (base seed {base_seed:#x}):");
        let baseline = run(MachineChoice::TestSmall, None, rep, &config);
        describe("DDR3-era, double-sided:", &baseline);
        let stock = run(MachineChoice::TestSmallTrr, None, rep, &config);
        describe("TRR, double-sided:", &stock);
        trr_stock_flips += stock.flips_observed;
        let pattern = run(
            MachineChoice::TestSmallTrr,
            Some(PatternChoice::Synthesized),
            rep,
            &config,
        );
        describe("TRR, synthesized n-sided:", &pattern);
        trr_pattern_flips += pattern.flips_observed;
    }

    println!(
        "Expected shape: double-sided dies under TRR (got {trr_stock_flips} flips), \
         the synthesized pattern still flips (got {trr_pattern_flips})."
    );
    if trr_stock_flips == 0 && trr_pattern_flips > 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("contrast not reproduced at this seed");
        ExitCode::FAILURE
    }
}
