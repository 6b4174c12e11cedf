//! Golden-snapshot regression tier for the victims axis: the campaign
//! harness runs the CI-scale machine × defense × profile × **victim** sweep
//! and its canonical JSON must match the committed snapshot **byte for
//! byte**, independent of worker-thread count.
//!
//! Where `campaign_matrix` pins the victim-free default rows, this tier pins
//! the exploitation layer: every cell carries an explicit [`VictimChoice`],
//! so the snapshot exercises the `profile → evaluate → attack` lifecycle of
//! all three shipped victims and the conditional `victim` /
//! `exploit_succeeded` / `time_to_exploit` report keys.
//!
//! Refreshing the snapshot after an *intentional* behaviour change:
//!
//! ```text
//! PTHAMMER_UPDATE_GOLDEN=1 cargo test --test victim_matrix
//! ```
//!
//! then commit the updated `tests/golden/*.json` and explain the drift in
//! the PR description.

use std::collections::BTreeSet;

mod common;
use common::compare_with_golden;

use pthammer_harness::{run_campaign, CampaignConfig, ProfileChoice, ScenarioMatrix, VictimChoice};

/// The committed snapshot this tier pins.
const GOLDEN: &str = "campaign_victim_matrix.json";

/// Base seed of the pinned sweep; deliberately the same seed as the
/// victim-free `campaign_matrix` golden so the two tiers hammer identical
/// weak-cell maps and differ only in the exploitation layer.
const GOLDEN_BASE_SEED: u64 = 0x7453_4861_4d21;

fn golden_matrix() -> ScenarioMatrix {
    ScenarioMatrix::victim_sweep_ci()
}

fn golden_config(threads: usize) -> CampaignConfig {
    CampaignConfig {
        threads,
        ..CampaignConfig::ci(GOLDEN_BASE_SEED)
    }
}

#[test]
fn matrix_sweeps_every_victim() {
    let matrix = golden_matrix();
    assert!(matrix.validate().is_ok());
    assert_eq!(
        matrix.len(),
        24,
        "2 defenses × 2 profiles × 3 victims × 2 reps"
    );
    let victims: BTreeSet<&str> = matrix
        .cells()
        .iter()
        .map(|c| c.victim.expect("sweep cells carry explicit victims").name())
        .collect();
    assert_eq!(victims.len(), VictimChoice::all().len());
}

/// Two-thread run must match the snapshot. Together with
/// [`eight_thread_victim_sweep_matches_golden_snapshot`] this also pins
/// thread-count independence: both runs are compared to the same bytes.
#[test]
fn two_thread_victim_sweep_matches_golden_snapshot() {
    let json = run_campaign(&golden_matrix(), &golden_config(2)).to_canonical_json();
    compare_with_golden(GOLDEN, &json);
}

#[test]
fn eight_thread_victim_sweep_matches_golden_snapshot() {
    let report = run_campaign(&golden_matrix(), &golden_config(8));
    let json = report.to_canonical_json();

    // Sanity-check the sweep itself before comparing bytes: every cell must
    // report the exploitation keys, and every victim must appear.
    assert_eq!(
        report.cells.len(),
        golden_matrix().len(),
        "one row per cell"
    );
    let mut succeeded: BTreeSet<&str> = BTreeSet::new();
    for cell in &report.cells {
        let victim = cell
            .coord
            .victim
            .expect("sweep cells carry explicit victims");
        let exploit = cell
            .exploit
            .unwrap_or_else(|| panic!("explicit-victim cells carry an exploit outcome: {cell:?}"));
        assert!(
            exploit.exploit_succeeded.is_some(),
            "explicit-victim cells must report exploit_succeeded: {cell:?}"
        );
        if exploit.exploit_succeeded == Some(true) {
            succeeded.insert(victim.name());
            assert!(
                exploit.time_to_exploit.is_some(),
                "successful exploits must report time-to-exploit: {cell:?}"
            );
        }
        if cell.coord.profile == ProfileChoice::Invulnerable {
            assert_eq!(
                exploit.exploit_succeeded,
                Some(false),
                "invulnerable DRAM cannot be exploited: {cell:?}"
            );
        }
    }
    assert!(
        succeeded.contains(VictimChoice::PteTakeover.name()),
        "the paper's PTE takeover must succeed on the undefended CI machine: {json}"
    );
    for summary in report.summaries.iter().filter(|s| s.group.victim.is_some()) {
        assert!(
            summary.exploit.is_some(),
            "victim summaries must aggregate exploit successes: {summary:?}"
        );
    }

    compare_with_golden(GOLDEN, &json);
}
