//! Pipeline-equivalence tier: the refactored phase pipeline must reproduce
//! the pre-refactor monolithic driver *exactly* for the paper's default
//! implicit double-sided mode.
//!
//! Two pins:
//!
//! 1. A single golden campaign cell (undefended / ci / repetition 0 of
//!    `tests/golden/campaign_ci_matrix.json`), re-run in isolation through
//!    the pipeline and compared field-for-field against the values the
//!    pre-refactor driver recorded in the snapshot. The full 30-cell
//!    byte-for-byte check lives in `tests/campaign_matrix.rs`; this test
//!    fails with a readable field diff instead of a JSON diff.
//! 2. Event subscribers observe without perturbing: an observed run and a
//!    plain run of the same attack produce equal outcomes, and the
//!    subscriber's tally agrees with the outcome's own counts.

use pthammer::{AttackEvent, EventSink, HammerMode, PtHammer, RunOptions};
use pthammer_harness::{
    cell_seed, run_cell, CampaignConfig, CellCoord, DefenseChoice, ProfileChoice,
};
use pthammer_kernel::System;
use pthammer_machine::MachineChoice;

/// Base seed of the pinned golden campaign (`tests/campaign_matrix.rs`).
const GOLDEN_BASE_SEED: u64 = 0x7453_4861_4d21;

fn golden_cell_coord() -> CellCoord {
    CellCoord::new(
        MachineChoice::TestSmall,
        DefenseChoice::None,
        ProfileChoice::Ci,
        0,
    )
}

/// The first golden row (undefended / ci / repetition 0), as the
/// pre-refactor driver recorded it in `tests/golden/campaign_ci_matrix.json`.
#[test]
fn default_mode_cell_matches_the_pre_refactor_golden_row() {
    let coord = golden_cell_coord();
    let config = CampaignConfig::ci(GOLDEN_BASE_SEED);
    let row = run_cell(&coord, &config);

    assert_eq!(
        row.cell_seed, 5090048989402711287,
        "seed derivation drifted"
    );
    assert_eq!(row.cell_seed, cell_seed(GOLDEN_BASE_SEED, &coord));
    assert_eq!(row.coord, coord);
    assert_eq!(row.attempts, 4);
    assert_eq!(row.flips_observed, 1);
    assert_eq!(row.exploitable_flips, 0);
    assert!(!row.escalated);
    assert_eq!(row.implicit_dram_rate, 1.0);
    assert_eq!(row.seconds_to_first_flip, Some(0.009439841538461538));
    assert_eq!(row.seconds_to_escalation, None);
    assert_eq!(row.route, None);
    assert_eq!(row.error, None);
}

/// Counting subscriber used to cross-check the event stream against the
/// outcome.
#[derive(Default)]
struct Tally {
    attempts: usize,
    iterations: u64,
    flips: usize,
    escalations: usize,
}

impl EventSink for Tally {
    fn on_event(&mut self, event: &AttackEvent) {
        match event {
            AttackEvent::AttemptStarted { .. } => self.attempts += 1,
            AttackEvent::HammerFinished { stats, .. } => self.iterations += stats.rounds,
            AttackEvent::FlipObserved { .. } => self.flips += 1,
            AttackEvent::VictimAttacked { outcome, .. } if outcome.success => self.escalations += 1,
            _ => {}
        }
    }
}

#[test]
fn observed_and_plain_runs_are_identical_and_event_counts_agree() {
    let machine = || {
        MachineChoice::TestSmall.config(
            pthammer_dram::FlipModelProfile::ci(),
            5090048989402711287, // the golden cell's seed, reused as machine seed
        )
    };
    let config = CampaignConfig::ci(GOLDEN_BASE_SEED).attack_config(
        5090048989402711287,
        DefenseChoice::None,
        HammerMode::ImplicitDoubleSided,
    );
    let attack = PtHammer::new(config).unwrap();

    let mut sys = System::undefended(machine());
    let pid = sys.spawn_process(1000).unwrap();
    let plain = attack.run_with(&mut sys, pid, RunOptions::new()).unwrap();

    let mut sys = System::undefended(machine());
    let pid = sys.spawn_process(1000).unwrap();
    let mut tally = Tally::default();
    let observed = attack
        .run_with(&mut sys, pid, RunOptions::new().observed_by(&mut tally))
        .unwrap();

    assert_eq!(plain, observed, "subscribers must not perturb the attack");
    assert_eq!(tally.attempts, observed.attempts);
    assert_eq!(tally.iterations, observed.hammer_iterations);
    assert_eq!(tally.flips, observed.flips_observed);
    assert_eq!(tally.escalations, usize::from(observed.escalated));
}
