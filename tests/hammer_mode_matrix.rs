//! Hammer-mode axis tier: a 32-cell campaign sweeping every
//! [`HammerMode`] (machine × defense × profile × mode × repetition) must be
//! deterministic across worker-thread counts, and the strategies must show
//! their expected physics on the small test machine: implicit strategies
//! reach DRAM through page walks and (on weak DRAM) produce flips, while the
//! explicit baseline cannot touch the kernel's page-table rows at all.

use pthammer::HammerMode;
use pthammer_harness::{
    run_campaign, CampaignConfig, CampaignReport, DefenseChoice, HammerMode as AxisMode,
    MachineChoice, ProfileChoice, ScenarioMatrix,
};

const BASE_SEED: u64 = 0x4d4f_4445_5353; // "MODESS"

fn mode_matrix() -> ScenarioMatrix {
    ScenarioMatrix::new(
        vec![MachineChoice::TestSmall],
        vec![DefenseChoice::None, DefenseChoice::Zebram],
        vec![ProfileChoice::Ci, ProfileChoice::Invulnerable],
        2,
    )
    .with_hammer_modes(HammerMode::all())
}

fn mode_config(threads: usize) -> CampaignConfig {
    let mut config = CampaignConfig {
        threads,
        ..CampaignConfig::ci(BASE_SEED)
    };
    config.attack.hammer_rounds_per_attempt = 600;
    config.attack.max_attempts = 2;
    config
}

fn run(threads: usize) -> CampaignReport {
    run_campaign(&mode_matrix(), &mode_config(threads))
}

#[test]
fn mode_matrix_covers_thirty_plus_cells() {
    let matrix = mode_matrix();
    assert!(
        matrix.len() >= 30,
        "mode sweep must cover at least 30 cells, has {}",
        matrix.len()
    );
    assert_eq!(matrix.hammer_modes.len(), 4);
    assert!(matrix.validate().is_ok());
}

#[test]
fn mode_campaign_is_deterministic_across_thread_counts() {
    let two = run(2).to_canonical_json();
    let eight = run(8).to_canonical_json();
    assert_eq!(two, eight, "thread count leaked into the mode campaign");
    // The non-default axis is serialized explicitly.
    assert!(two.contains("\"hammer_modes\""));
    assert!(two.contains("\"hammer_mode\": \"implicit-one-location\""));
}

#[test]
fn strategies_behave_as_expected_on_test_small() {
    let report = run(2);
    assert_eq!(report.cells.len(), mode_matrix().len());

    // At least one non-default mode produces flips on the weak (ci) DRAM.
    let non_default_flips: usize = report
        .cells
        .iter()
        .filter(|c| !c.coord.hammer_mode.is_default() && c.coord.profile == ProfileChoice::Ci)
        .map(|c| c.flips_observed)
        .sum();
    assert!(
        non_default_flips > 0,
        "some non-default strategy must flip on TestSmall: {}",
        report.to_canonical_json()
    );

    for cell in &report.cells {
        assert!(cell.error.is_none(), "cell aborted: {cell:?}");
        // Control group: invulnerable DRAM never flips, in any mode.
        if cell.coord.profile == ProfileChoice::Invulnerable {
            assert_eq!(
                cell.flips_observed, 0,
                "invulnerable DRAM flipped: {cell:?}"
            );
            assert!(!cell.escalated);
        }
        match cell.coord.hammer_mode {
            // The explicit baseline performs no implicit loads and can never
            // corrupt page tables: its flips land (if anywhere) in the
            // attacker's own aliased data frame, which the spray scan cannot
            // misread as a corrupted mapping.
            AxisMode::ExplicitDoubleSided => {
                assert_eq!(cell.implicit_dram_rate, 0.0, "{cell:?}");
                assert_eq!(cell.flips_observed, 0, "{cell:?}");
                assert!(!cell.escalated, "{cell:?}");
            }
            // Every implicit strategy drives its L1PTE loads to DRAM on
            // essentially every iteration.
            _ => assert!(
                cell.implicit_dram_rate > 0.5,
                "implicit loads must reach DRAM: {cell:?}"
            ),
        }
    }

    // Per-(defense, profile, mode) summaries: one for each combination.
    assert_eq!(report.summaries.len(), 2 * 2 * 4);
    for summary in &report.summaries {
        assert_eq!(summary.cells, 2);
        assert_eq!(summary.errored_cells, 0);
    }
}
