//! Sweeps the shipped victims (Section V's PTE takeover, the cred-corruption
//! peer, and the FrodoKEM-style key-recovery victim) over an undefended and
//! a CTA-defended small machine, reporting the per-cell `exploit_succeeded`
//! and `time_to_exploit` keys the victims axis adds to campaign reports.
//!
//! Usage:
//!
//! ```text
//! repro_victims [--seed N] [--reps N] [--profile-cache DIR]
//! ```
//!
//! With `--profile-cache DIR` the key-recovery flip profile goes through a
//! content-addressed [`ArtifactCache`]: the first invocation templates
//! the machine's weak-cell map and writes through, repeat invocations get
//! the identical bytes back from disk.

use std::process::ExitCode;

use pthammer_bench::MachineChoice;
use pthammer_harness::{
    run_cell, ArtifactCache, CampaignConfig, CellCoord, CellReport, DefenseChoice,
    KeyRecoveryProfile, ProfileChoice, VictimChoice,
};

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
    defense: DefenseChoice,
    victim: VictimChoice,
    rep: u32,
    config: &CampaignConfig,
) -> CellReport {
    run_cell(
        &CellCoord {
            victim: Some(victim),
            ..CellCoord::new(MachineChoice::TestSmall, defense, ProfileChoice::Ci, rep)
        },
        config,
    )
}

fn describe(label: &str, cell: &CellReport) {
    let time = cell
        .time_to_exploit()
        .map_or_else(|| "-".to_string(), |t| t.to_string());
    println!(
        "  {label:<34} flips={:<3} exploit_succeeded={:<5} time_to_exploit={time:<7} route={:?}",
        cell.flips_observed,
        cell.exploit_succeeded(),
        cell.route
    );
}

fn main() -> ExitCode {
    let base_seed = parse_flag("--seed").unwrap_or(0x5669_6354_694d);
    let reps = parse_flag("--reps").unwrap_or(1) as u32;
    let config = CampaignConfig::ci(base_seed);

    // Show the key-recovery flip profile before the cells execute (cells
    // re-template it from their own machine configs). With --profile-cache,
    // repeat invocations get the template back from the content-addressed
    // store instead of re-walking the weak-cell map.
    let machine_cfg = MachineChoice::TestSmall.config(ProfileChoice::Ci.profile(), base_seed);
    match flag_value("--profile-cache") {
        Some(dir) => {
            let cache =
                ArtifactCache::<KeyRecoveryProfile>::open(&dir).expect("open victim profile cache");
            let (profile, source) = cache
                .get_or_compute(&machine_cfg)
                .expect("cached flip profile");
            println!(
                "profile cache at {dir}: {source:?} ({} templated targets on {})",
                profile.targets.len(),
                machine_cfg.name
            );
        }
        None => {
            use pthammer::victim::KeyRecovery;
            let profile = KeyRecovery::template_profile(&machine_cfg);
            println!(
                "key-recovery template: {} targets on {}",
                profile.targets.len(),
                machine_cfg.name
            );
        }
    }

    let mut undefended_successes = 0usize;
    for rep in 0..reps {
        println!("rep {rep} (base seed {base_seed:#x}):");
        for &victim in &VictimChoice::all() {
            let open = run(DefenseChoice::None, victim, rep, &config);
            undefended_successes += usize::from(open.exploit_succeeded());
            describe(&format!("undefended, {}:", victim.name()), &open);
            let defended = run(DefenseChoice::Cta, victim, rep, &config);
            describe(&format!("cta-defended, {}:", victim.name()), &defended);
        }
    }

    println!(
        "Expected shape: the undefended machine yields exploits (got {undefended_successes} \
         victim successes); CTA blocks the implicit-touch chain."
    );
    if undefended_successes > 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("no victim succeeded at this seed");
        ExitCode::FAILURE
    }
}
