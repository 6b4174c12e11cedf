//! TRR-era golden tier: the pinned TRR/pattern mini-matrix — the plain CI
//! machine and its TRR twin × {stock double-sided, synthesized pattern,
//! uniform 4-sided control} — must be byte-identical to the committed
//! snapshot at any worker-thread count, and must demonstrate the headline
//! TRRespass-style contrast:
//!
//! * on the TRR-free machine the stock implicit double-sided attack flips;
//! * on the TRR machine the *same* attack observes **zero** flips (the
//!   sampler refreshes the victim's neighbours first) while the
//!   synthesizer-found many-sided pattern still flips;
//! * the whole campaign — including the per-cell pattern synthesis — is
//!   byte-identically resumable through a `pthammer-store`.
//!
//! Refresh after an intentional behaviour change with
//! `PTHAMMER_UPDATE_GOLDEN=1 cargo test --release --test trr_pattern_matrix`.

use std::sync::OnceLock;

mod common;
use common::compare_with_golden;

use pthammer_harness::{
    run_campaign, run_campaign_resumable, store_manifest, CampaignConfig, CampaignReport,
    CellStore, MachineChoice, ProfileChoice, ScenarioMatrix,
};
use pthammer_patterns::PatternChoice;

/// The committed snapshot this tier pins.
const GOLDEN: &str = "campaign_trr_matrix.json";

/// Base seed of the pinned TRR campaign; changing it invalidates the
/// snapshot.
///
/// The seed is chosen so that **every** synthesized-pattern cell on the TRR
/// machine's `ci` profile observes a flip: a pattern cell needs a candidate
/// window that is not split across banks by the kernel's own mid-spray
/// page-table allocations *and* whose detectable victim row is weak, which
/// individual cells miss with noticeable probability. If a future behavior
/// change forces a golden refresh and a synthesized cell comes back flipless,
/// re-tune this seed (any value satisfying
/// [`trr_kills_double_sided_but_synthesized_patterns_still_flip`] works).
const TRR_BASE_SEED: u64 = 0x5452_5265_7263; // "TRRerc"

fn trr_matrix() -> ScenarioMatrix {
    ScenarioMatrix::trr_pattern_ci()
}

fn trr_config(threads: usize) -> CampaignConfig {
    CampaignConfig {
        threads,
        ..CampaignConfig::trr_ci(TRR_BASE_SEED)
    }
}

/// The two-thread report, computed once through a fresh store (which also
/// exercises the cold write-through path) and shared by every assertion
/// test, so the expensive matrix runs as few times as possible.
fn fixture() -> &'static (CampaignReport, String) {
    static FIXTURE: OnceLock<(CampaignReport, String)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let root =
            std::env::temp_dir().join(format!("pthammer-trr-golden-store-{}", std::process::id()));
        CellStore::wipe(&root).expect("wipe fixture store");
        let config = trr_config(2);
        let store = CellStore::open(&root, &store_manifest(&config)).expect("open fixture store");
        let (report, stats) =
            run_campaign_resumable(&trr_matrix(), &config, &store).expect("cold store pass");
        assert_eq!(stats.computed, trr_matrix().len());
        assert_eq!(stats.cache_hits, 0);

        // Warm pass: every cell — including the synthesized-pattern cells —
        // must come back from the store byte-identically, with no search
        // and no simulation re-run.
        let (warm, warm_stats) =
            run_campaign_resumable(&trr_matrix(), &config, &store).expect("warm store pass");
        assert_eq!(warm_stats.cache_hits, trr_matrix().len());
        assert_eq!(warm_stats.computed, 0);
        let json = report.to_canonical_json();
        assert_eq!(
            warm.to_canonical_json(),
            json,
            "store-resumed TRR campaign must be byte-identical"
        );
        CellStore::wipe(&root).expect("clean up fixture store");
        (report, json)
    })
}

#[test]
fn matrix_shape_covers_the_trr_axes() {
    let matrix = trr_matrix();
    assert_eq!(matrix.len(), 24, "2 machines × 2 profiles × 3 patterns × 2");
    assert!(matrix.validate().is_ok());
    assert!(matrix.machines.iter().any(|m| m.has_trr()));
    assert!(matrix.machines.iter().any(|m| !m.has_trr()));
    assert!(matrix.patterns.contains(&None));
    assert!(matrix.patterns.contains(&Some(PatternChoice::Synthesized)));
}

#[test]
fn two_thread_trr_campaign_matches_golden_snapshot() {
    compare_with_golden(GOLDEN, &fixture().1);
}

#[test]
fn eight_thread_trr_campaign_matches_golden_snapshot() {
    let json = run_campaign(&trr_matrix(), &trr_config(8)).to_canonical_json();
    assert_eq!(
        json,
        fixture().1,
        "thread count leaked into the TRR campaign"
    );
    compare_with_golden(GOLDEN, &json);
}

#[test]
fn trr_kills_double_sided_but_synthesized_patterns_still_flip() {
    let report = &fixture().0;
    for cell in &report.cells {
        assert!(cell.error.is_none(), "cell aborted: {cell:?}");
        let trr_machine = cell.coord.machine == MachineChoice::TestSmallTrr;

        // Mitigation interventions are reported exactly where they exist.
        if trr_machine {
            assert!(cell.trr_refreshes > 0, "TRR never sampled: {cell:?}");
        } else {
            assert_eq!(cell.trr_refreshes, 0, "phantom TRR: {cell:?}");
        }

        // Control group: invulnerable DRAM never flips, pattern or not.
        if cell.coord.profile == ProfileChoice::Invulnerable {
            assert_eq!(cell.flips_observed, 0, "invulnerable flipped: {cell:?}");
            assert!(!cell.escalated);
            continue;
        }

        match (trr_machine, cell.coord.pattern) {
            // The headline contrast, cell for cell: stock double-sided dies
            // under TRR…
            (true, None) => {
                assert_eq!(
                    cell.flips_observed, 0,
                    "TRR must stop stock double-sided: {cell:?}"
                );
                assert!(!cell.escalated);
            }
            // …while the synthesized many-sided pattern still flips.
            (true, Some(PatternChoice::Synthesized)) => {
                assert!(
                    cell.flips_observed >= 1,
                    "synthesized pattern must slip past the sampler: {cell:?}"
                );
            }
            // The naive uniform 4-sided rotation sits right at the sampler's
            // edge: four tracked aggressors fit the capacity-6 sampler, but
            // background eviction-set traffic in the same bank can push it
            // over. Its (borderline, seed-dependent) behavior is pinned by
            // the golden bytes rather than asserted semantically.
            (true, Some(PatternChoice::UniformFourSided)) => {}
            // Without TRR the stock attack flips as always (the machines
            // differ only in the sampler).
            (false, None) => {
                assert!(
                    cell.flips_observed >= 1,
                    "stock attack must flip without TRR: {cell:?}"
                );
            }
            (false, Some(_)) => {}
        }
    }

    // Per-(machine-implied) summaries exist for every pattern-axis value.
    assert_eq!(report.summaries.len(), 2 * 3);
}
