//! Golden-snapshot regression tier: the campaign harness runs the CI-scale
//! machine × defense × profile matrix and its canonical JSON must match the
//! committed snapshot **byte for byte**, independent of worker-thread count.
//!
//! This turns the entire simulator stack — DRAM weak cells, TRR, caches,
//! TLBs, page walks, the buddy allocator, every defense policy, and the
//! full attack chain — into one deterministic regression oracle: any
//! behavioural drift anywhere shows up as a snapshot diff.
//!
//! Refreshing the snapshot after an *intentional* behaviour change:
//!
//! ```text
//! PTHAMMER_UPDATE_GOLDEN=1 cargo test --test campaign_matrix
//! ```
//!
//! then commit the updated `tests/golden/*.json` and explain the drift in
//! the PR description.

mod common;
use common::compare_with_golden;

use pthammer_harness::{
    run_campaign, CampaignConfig, DefenseChoice, ProfileChoice, ScenarioMatrix,
};

/// The committed snapshot this tier pins.
const GOLDEN: &str = "campaign_ci_matrix.json";

/// Base seed of the pinned campaign; changing it invalidates the snapshot.
const GOLDEN_BASE_SEED: u64 = 0x7453_4861_4d21;

fn golden_matrix() -> ScenarioMatrix {
    ScenarioMatrix::ci_default()
}

fn golden_config(threads: usize) -> CampaignConfig {
    CampaignConfig {
        threads,
        ..CampaignConfig::ci(GOLDEN_BASE_SEED)
    }
}

#[test]
fn matrix_is_ci_scale_but_meaningful() {
    let matrix = golden_matrix();
    assert!(
        matrix.len() >= 24,
        "golden matrix must cover at least 24 cells, has {}",
        matrix.len()
    );
    assert!(matrix.validate().is_ok());
}

/// Two-thread run must match the snapshot. Together with
/// [`eight_thread_campaign_matches_golden_snapshot`] this also pins
/// thread-count independence: both runs are compared to the same bytes.
#[test]
fn two_thread_campaign_matches_golden_snapshot() {
    let json = run_campaign(&golden_matrix(), &golden_config(2)).to_canonical_json();
    compare_with_golden(GOLDEN, &json);
}

#[test]
fn eight_thread_campaign_matches_golden_snapshot() {
    let report = run_campaign(&golden_matrix(), &golden_config(8));
    let json = report.to_canonical_json();

    // Sanity-check the campaign itself before comparing bytes: the matrix
    // must demonstrate the paper's headline contrasts.
    let summary = |name: &str| {
        report
            .summaries
            .iter()
            .find(|s| s.group.defense.name() == name)
            .unwrap_or_else(|| panic!("missing summary for {name}"))
    };
    assert!(
        summary("undefended").flip_cells > 0,
        "undefended cells must observe flips: {json}"
    );
    assert_eq!(
        report.cells.len(),
        golden_matrix().len(),
        "one row per cell"
    );
    for cell in report
        .cells
        .iter()
        .filter(|c| c.coord.profile == ProfileChoice::Invulnerable)
    {
        assert_eq!(
            cell.flips_observed, 0,
            "invulnerable DRAM flipped: {cell:?}"
        );
        assert!(!cell.escalated);
    }
    for cell in report
        .cells
        .iter()
        .filter(|c| c.coord.defense == DefenseChoice::Zebram)
    {
        assert_eq!(
            cell.exploitable_flips, 0,
            "ZebRAM must prevent exploitable corruption: {cell:?}"
        );
        assert!(!cell.escalated);
    }

    compare_with_golden(GOLDEN, &json);
}
