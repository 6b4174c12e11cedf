//! The three workloads, their inputs and the checks on their outputs.

use pthammer_defenses::DefenseChoice;
use pthammer_harness::{
    CampaignConfig, CampaignReport, CellCoord, CellReport, MachineChoice, ProfileChoice,
    ScenarioMatrix,
};
use pthammer_store::fnv1a_128;

/// The golden defense-sweep report, which also pins the report schema.
const CI_GOLDEN: &str = include_str!("../../tests/golden/campaign_ci_matrix.json");
/// The golden TRR/pattern report.
const TRR_GOLDEN: &str = include_str!("../../tests/golden/campaign_trr_matrix.json");
/// Base seed of `campaign_ci_matrix.json` (and of `BENCH_perf.json`).
const CI_GOLDEN_SEED: u64 = 0x7453_4861_4d21;
/// Base seed of `campaign_trr_matrix.json`.
const TRR_GOLDEN_SEED: u64 = 0x5452_5265_7263;
/// `fnv1a_128` digest of the `table1_cells` report at [`CI_GOLDEN_SEED`].
/// No golden file exists for this matrix, so the benchmark pins its own; it
/// equals the digest of `run_campaign`'s report for the same matrix.
const TABLE1_DIGEST: u128 = 0xf30a_9979_6615_7a5e_f0f1_e480_0b66_e66b;

/// A benchmark workload: one campaign matrix at one scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every defense on the small test machine: the kernel allocator under
    /// placement constraints dominates.
    DefenseSweep,
    /// The Table I machines undefended: the LLC eviction pool dominates.
    Table1Cells,
    /// Stock, synthesized and 4-sided patterns with and without TRR: the
    /// compiled hammer loop and the detect scan dominate.
    TrrPatterns,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::DefenseSweep,
        Workload::Table1Cells,
        Workload::TrrPatterns,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DefenseSweep => "defense_sweep",
            Workload::Table1Cells => "table1_cells",
            Workload::TrrPatterns => "trr_patterns",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The campaign matrix one pass runs.
    pub fn matrix(self) -> ScenarioMatrix {
        match self {
            Workload::DefenseSweep => ScenarioMatrix::ci_default(),
            Workload::Table1Cells => ScenarioMatrix::new(
                MachineChoice::all(),
                vec![DefenseChoice::None],
                vec![ProfileChoice::Fast],
                2,
            ),
            Workload::TrrPatterns => ScenarioMatrix::trr_pattern_ci(),
        }
    }

    /// The campaign configuration of a pass with base seed `base_seed`.
    pub fn config(self, base_seed: u64, threads: usize) -> CampaignConfig {
        let config = match self {
            Workload::DefenseSweep | Workload::Table1Cells => CampaignConfig::ci(base_seed),
            Workload::TrrPatterns => CampaignConfig::trr_ci(base_seed),
        };
        CampaignConfig { threads, ..config }
    }

    /// The base seed of pass `pass` in a run seeded with `seed`. Pass 0
    /// always runs at the pinned golden seed, so every run checks its
    /// output byte for byte. Later passes walk the workload's seed pool
    /// from an offset drawn from `seed`.
    pub fn pass_seed(self, seed: u64, pass: usize) -> u64 {
        if pass == 0 {
            return match self {
                Workload::DefenseSweep | Workload::Table1Cells => CI_GOLDEN_SEED,
                Workload::TrrPatterns => TRR_GOLDEN_SEED,
            };
        }
        let pool = self.seed_pool();
        let offset = (splitmix64(seed) % pool.len() as u64) as usize;
        splitmix64(pool[(offset + pass - 1) % pool.len()])
    }

    /// Pass seeds are `splitmix64(k)` for these `k`: the first candidates
    /// k = 1, 2, … whose whole matrix ran with no cell aborting and no
    /// panic. The skipped ones hit simulator faults (a `bad address`
    /// system-call error, or on `trr_patterns` at k = 5 a panic on a
    /// physical address beyond DRAM capacity), and the benchmark runs only
    /// inputs on which every operation succeeds.
    fn seed_pool(self) -> &'static [u64] {
        match self {
            Workload::DefenseSweep => &[
                1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24,
                25,
            ],
            Workload::Table1Cells => &[
                1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 16, 18, 19, 20, 21, 22, 23, 24,
            ],
            Workload::TrrPatterns => &[
                2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25,
                26, 28,
            ],
        }
    }

    /// Checks the canonical report of the pinned pass.
    pub fn check_pinned_report(self, json: &str) -> Result<(), String> {
        let golden = match self {
            Workload::DefenseSweep => CI_GOLDEN,
            Workload::TrrPatterns => TRR_GOLDEN,
            Workload::Table1Cells => {
                let digest = fnv1a_128(json.as_bytes());
                return if digest == TABLE1_DIGEST {
                    Ok(())
                } else {
                    Err(format!(
                        "report digest {digest:#034x}, pinned {TABLE1_DIGEST:#034x}"
                    ))
                };
            }
        };
        if json == golden {
            Ok(())
        } else {
            Err(format!(
                "report differs from the golden: {}",
                first_diff(golden, json)
            ))
        }
    }
}

/// Assembles the canonical campaign report of one pass from its rows, in
/// matrix order, exactly as the harness does after `run_campaign`.
pub fn assemble_report(
    matrix: &ScenarioMatrix,
    config: &CampaignConfig,
    rows: Vec<CellReport>,
) -> CampaignReport {
    CampaignReport {
        schema_version: report_schema_version(),
        base_seed: config.base_seed,
        matrix: matrix.clone(),
        superpages: config.superpages,
        summaries: CampaignReport::summarize(matrix, &rows),
        cells: rows,
    }
}

/// The report schema version the goldens pin (the harness keeps its
/// constant private).
fn report_schema_version() -> u32 {
    serde_json::from_str(CI_GOLDEN)
        .ok()
        .and_then(|v| v.get("schema_version").and_then(|s| s.as_u64()))
        .and_then(|s| u32::try_from(s).ok())
        .expect("the golden report carries its schema version")
}

/// Checks one row against what holds at any seed: the cell ran to
/// completion, and DRAM without weak cells never flipped.
pub fn check_row(coord: &CellCoord, row: &CellReport) -> Result<(), String> {
    if let Some(error) = &row.error {
        return Err(format!("cell aborted: {error}"));
    }
    if coord.profile == ProfileChoice::Invulnerable && (row.flips_observed > 0 || row.escalated) {
        return Err(format!(
            "invulnerable DRAM flipped ({} flips, escalated {})",
            row.flips_observed, row.escalated
        ));
    }
    Ok(())
}

/// A short label of a cell for traces and messages.
pub fn cell_label(coord: &CellCoord) -> String {
    let mut label = format!(
        "{}/{}/{}",
        coord.machine.name(),
        coord.defense.name(),
        coord.profile.name()
    );
    if let Some(pattern) = coord.pattern {
        label.push('/');
        label.push_str(pattern.name());
    }
    label.push_str(&format!("#{}", coord.repetition));
    label
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn first_diff(golden: &str, new: &str) -> String {
    match golden
        .lines()
        .zip(new.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
    {
        Some((i, (a, b))) => format!("line {}: golden `{a}`, got `{b}`", i + 1),
        None => format!("lengths differ ({} vs {} bytes)", golden.len(), new.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn matrices_have_the_documented_sizes() {
        assert_eq!(Workload::DefenseSweep.matrix().len(), 30);
        assert_eq!(Workload::Table1Cells.matrix().len(), 6);
        assert_eq!(Workload::TrrPatterns.matrix().len(), 24);
    }

    #[test]
    fn pass_zero_is_pinned_and_later_passes_follow_the_seed() {
        for w in Workload::ALL {
            assert_eq!(w.pass_seed(1, 0), w.pass_seed(2, 0));
            assert_eq!(w.pass_seed(1, 3), w.pass_seed(1, 3));
            assert_ne!(w.pass_seed(1, 1), w.pass_seed(1, 2));
            let seeds: Vec<u64> = (0..4).map(|s| w.pass_seed(s, 1)).collect();
            assert!(seeds.windows(2).any(|p| p[0] != p[1]), "{seeds:?}");
            // Passes walk the whole pool before repeating a seed.
            let pool = w.seed_pool().len();
            let walk: std::collections::HashSet<u64> =
                (1..=pool).map(|p| w.pass_seed(9, p)).collect();
            assert_eq!(walk.len(), pool);
        }
    }

    #[test]
    fn the_golden_pins_a_schema_version() {
        assert!(report_schema_version() >= 1);
    }
}
