//! Campaign results: per-cell rows, per-defense summaries, canonical JSON.
//!
//! Rows and summaries carry their coordinates flattened, spelled by the
//! axis table in `matrix.rs`; the derived `Deserialize` reads store cells
//! back exactly.

use serde::{Deserialize, Serialize};

use crate::matrix::{CellCoord, ScenarioMatrix, SummaryGroup};

/// Version stamp of the report schema; bump when the JSON layout changes so
/// golden snapshots fail loudly instead of mysteriously.
pub const REPORT_SCHEMA_VERSION: u32 = 1;

fn is_zero(n: &u64) -> bool {
    *n == 0
}

/// Outcome of one campaign cell (one attack run).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellReport {
    /// The cell's coordinates.
    #[serde(flatten)]
    pub coord: CellCoord,
    /// The seed derived from the coordinates (for reproducing this cell in
    /// isolation).
    pub cell_seed: u64,
    /// Whether kernel privilege escalation succeeded.
    pub escalated: bool,
    /// Hammer attempts performed.
    pub attempts: usize,
    /// Bit flips observed (including unexploitable ones).
    pub flips_observed: usize,
    /// Exploitable flips (captured an L1PT or cred page).
    pub exploitable_flips: usize,
    /// Targeted refreshes the machine's TRR mitigation issued during the
    /// cell (0 on TRR-free machines). Serialized only when non-zero.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub trr_refreshes: u64,
    /// Fraction of hammer iterations whose L1PTE loads reached DRAM.
    pub implicit_dram_rate: f64,
    /// Simulated seconds until the first flip, if one occurred.
    pub seconds_to_first_flip: Option<f64>,
    /// Simulated seconds until escalation, if it happened.
    pub seconds_to_escalation: Option<f64>,
    /// The victim attack's outcome: `Some` exactly for explicit-victim
    /// cells, whose rows carry its keys in place of this field.
    #[serde(flatten)]
    pub exploit: Option<ExploitOutcome>,
    /// Escalation route (the victim outcome's route label), if the exploit
    /// escalated or recovered key material.
    pub route: Option<String>,
    /// Error description if the attack aborted instead of completing.
    pub error: Option<String>,
}

impl CellReport {
    /// Whether the cell's victim attack succeeded (false for cells that
    /// swept no victim).
    pub fn exploit_succeeded(&self) -> bool {
        self.exploit
            .is_some_and(|e| e.exploit_succeeded == Some(true))
    }

    /// Hammer iterations to the successful victim attack, if there was one.
    pub fn time_to_exploit(&self) -> Option<u64> {
        self.exploit?.time_to_exploit
    }
}

/// The exploit outcome of an explicit-victim cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExploitOutcome {
    /// Whether the victim attack succeeded (`None` when the cell aborted).
    pub exploit_succeeded: Option<bool>,
    /// Double-sided hammer iterations performed before the victim attack
    /// succeeded; `None` when it never did.
    pub time_to_exploit: Option<u64>,
}

/// Aggregates over all cells of one [`SummaryGroup`].
///
/// Summaries are split by weak-cell profile so control groups (e.g. the
/// `invulnerable` profile) can never dilute a defense's headline escalation
/// rate, and by every other swept axis but the machine and repetition so
/// strategy, pattern and victim sweeps stay comparable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DefenseSummary {
    /// The coordinates the summarized cells share.
    #[serde(flatten)]
    pub group: SummaryGroup,
    /// Number of cells aggregated (including errored ones).
    pub cells: usize,
    /// Cells that aborted with an error; excluded from every rate and mean
    /// below so environmental failures never masquerade as defense wins.
    pub errored_cells: usize,
    /// Completed cells where escalation succeeded.
    pub escalations: usize,
    /// Escalation rate over the defense's completed cells.
    pub escalation_rate: f64,
    /// Completed cells that observed at least one flip.
    pub flip_cells: usize,
    /// Mean observed flips per completed cell.
    pub mean_flips: f64,
    /// Mean exploitable flips per completed cell.
    pub mean_exploitable_flips: f64,
    /// Mean implicit DRAM rate over completed cells.
    pub mean_implicit_dram_rate: f64,
    /// Mean simulated seconds to first flip over cells that flipped.
    pub mean_seconds_to_first_flip: Option<f64>,
    /// Exploit aggregates: `Some` exactly for explicit-victim rows, whose
    /// summaries carry its keys in place of this field.
    #[serde(flatten)]
    pub exploit: Option<ExploitSummary>,
    /// Escalation-rate delta against the undefended baseline of the same
    /// group (`None` when the campaign has no undefended cells for it).
    pub escalation_rate_delta_vs_undefended: Option<f64>,
}

/// Exploit aggregates of an explicit-victim summary row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ExploitSummary {
    /// Completed cells whose victim attack succeeded.
    pub exploit_successes: usize,
    /// Mean hammer iterations to a successful exploit over cells that
    /// succeeded; `None` when no cell succeeded.
    pub mean_time_to_exploit: Option<f64>,
}

/// Complete campaign result: inputs, per-cell rows, per-defense summaries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Schema version of this report.
    pub schema_version: u32,
    /// Campaign base seed.
    pub base_seed: u64,
    /// The matrix that was run.
    pub matrix: ScenarioMatrix,
    /// Whether the attack ran in the superpage setting.
    pub superpages: bool,
    /// One row per cell, in canonical matrix order.
    pub cells: Vec<CellReport>,
    /// One summary per [`SummaryGroup`], in matrix axis order.
    pub summaries: Vec<DefenseSummary>,
}

impl CampaignReport {
    /// Renders the report as canonical pretty JSON (stable field order, fixed
    /// float formatting, `\n` line endings, trailing newline). Byte-stable
    /// across thread counts and platforms for identical campaigns.
    pub fn to_canonical_json(&self) -> String {
        let mut json = serde_json::to_string_pretty(self).expect("report serializes");
        json.push('\n');
        json
    }

    /// Builds one summary per [`ScenarioMatrix::groups`] entry, aggregating
    /// cells in row order. Errored cells are counted in
    /// [`DefenseSummary::errored_cells`] and excluded from every rate and
    /// mean. Exposed for the campaign runner and tests.
    pub fn summarize(matrix: &ScenarioMatrix, cells: &[CellReport]) -> Vec<DefenseSummary> {
        // A group's row count and its completed rows.
        let rows_of = |group: SummaryGroup| {
            let rows: Vec<&CellReport> =
                cells.iter().filter(|c| c.coord.group() == group).collect();
            let total = rows.len();
            let completed: Vec<&CellReport> =
                rows.into_iter().filter(|c| c.error.is_none()).collect();
            (total, completed)
        };
        let escalation_rate =
            |rows: &[&CellReport]| mean(rows.iter().map(|c| if c.escalated { 1.0 } else { 0.0 }));
        matrix
            .groups()
            .into_iter()
            .map(|group| {
                let (total, completed) = rows_of(group);
                let (_, baseline) = rows_of(group.baseline());
                let mean_of =
                    |f: fn(&CellReport) -> f64| mean(completed.iter().map(|c| f(c))).unwrap_or(0.0);
                let rate = escalation_rate(&completed).unwrap_or(0.0);
                DefenseSummary {
                    group,
                    cells: total,
                    errored_cells: total - completed.len(),
                    escalations: completed.iter().filter(|c| c.escalated).count(),
                    escalation_rate: rate,
                    flip_cells: completed.iter().filter(|c| c.flips_observed > 0).count(),
                    mean_flips: mean_of(|c| c.flips_observed as f64),
                    mean_exploitable_flips: mean_of(|c| c.exploitable_flips as f64),
                    mean_implicit_dram_rate: mean_of(|c| c.implicit_dram_rate),
                    mean_seconds_to_first_flip: mean(
                        completed.iter().filter_map(|c| c.seconds_to_first_flip),
                    ),
                    exploit: group.reports_exploits().then(|| ExploitSummary {
                        exploit_successes: completed
                            .iter()
                            .filter(|c| c.exploit_succeeded())
                            .count(),
                        mean_time_to_exploit: mean(
                            completed
                                .iter()
                                .filter_map(|c| c.time_to_exploit())
                                .map(|t| t as f64),
                        ),
                    }),
                    escalation_rate_delta_vs_undefended: escalation_rate(&baseline)
                        .map(|base| rate - base),
                }
            })
            .collect()
    }
}

/// The mean of `values`, or `None` when there are none.
fn mean(values: impl Iterator<Item = f64>) -> Option<f64> {
    let values: Vec<f64> = values.collect();
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::ProfileChoice;
    use pthammer::{HammerMode, VictimChoice};
    use pthammer_defenses::DefenseChoice;
    use pthammer_machine::MachineChoice;
    use pthammer_patterns::PatternChoice;

    fn cell(defense: DefenseChoice, escalated: bool, flips: usize) -> CellReport {
        CellReport {
            coord: CellCoord::new(MachineChoice::TestSmall, defense, ProfileChoice::Ci, 0),
            cell_seed: 1,
            escalated,
            attempts: 2,
            flips_observed: flips,
            exploitable_flips: usize::from(escalated),
            trr_refreshes: 0,
            implicit_dram_rate: 0.9,
            seconds_to_first_flip: if flips > 0 { Some(1.5) } else { None },
            seconds_to_escalation: None,
            exploit: None,
            route: None,
            error: None,
        }
    }

    fn compact<T: Serialize>(value: &T) -> String {
        serde_json::to_string(value).unwrap()
    }

    fn matrix() -> ScenarioMatrix {
        ScenarioMatrix::new(
            vec![MachineChoice::TestSmall],
            vec![DefenseChoice::None, DefenseChoice::Zebram],
            vec![ProfileChoice::Ci],
            2,
        )
    }

    #[test]
    fn summaries_aggregate_per_defense() {
        let cells = vec![
            cell(DefenseChoice::None, true, 3),
            cell(DefenseChoice::None, true, 1),
            cell(DefenseChoice::Zebram, false, 2),
            cell(DefenseChoice::Zebram, false, 0),
        ];
        let summaries = CampaignReport::summarize(&matrix(), &cells);
        assert_eq!(summaries.len(), 2);
        let none = &summaries[0];
        assert_eq!(none.group.defense, DefenseChoice::None);
        assert_eq!(none.group.profile, ProfileChoice::Ci);
        assert_eq!(none.escalations, 2);
        assert!((none.escalation_rate - 1.0).abs() < 1e-12);
        assert!((none.mean_flips - 2.0).abs() < 1e-12);
        assert_eq!(none.escalation_rate_delta_vs_undefended, Some(0.0));
        let zebram = &summaries[1];
        assert_eq!(zebram.escalations, 0);
        assert_eq!(zebram.flip_cells, 1);
        assert_eq!(zebram.escalation_rate_delta_vs_undefended, Some(-1.0));
    }

    #[test]
    fn control_profiles_do_not_dilute_vulnerable_rates() {
        // Same defense on two profiles: the ci cells escalate, the
        // invulnerable control cells cannot. Per-profile summaries must keep
        // the ci escalation rate at 1.0 instead of averaging it down to 0.5.
        let m = ScenarioMatrix::new(
            vec![MachineChoice::TestSmall],
            vec![DefenseChoice::None],
            vec![ProfileChoice::Ci, ProfileChoice::Invulnerable],
            1,
        );
        let mut control = cell(DefenseChoice::None, false, 0);
        control.coord.profile = ProfileChoice::Invulnerable;
        let cells = vec![cell(DefenseChoice::None, true, 2), control];
        let summaries = CampaignReport::summarize(&m, &cells);
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].group.profile, ProfileChoice::Ci);
        assert!((summaries[0].escalation_rate - 1.0).abs() < 1e-12);
        assert_eq!(summaries[1].group.profile, ProfileChoice::Invulnerable);
        assert!((summaries[1].escalation_rate - 0.0).abs() < 1e-12);
    }

    #[test]
    fn summaries_split_by_hammer_mode() {
        // A two-mode sweep: the default mode escalates, the explicit
        // baseline does not. Summaries must keep the rates apart and use
        // per-mode undefended baselines.
        let m = ScenarioMatrix::new(
            vec![MachineChoice::TestSmall],
            vec![DefenseChoice::None],
            vec![ProfileChoice::Ci],
            1,
        )
        .with_hammer_modes(vec![
            HammerMode::ImplicitDoubleSided,
            HammerMode::ExplicitDoubleSided,
        ]);
        let mut explicit = cell(DefenseChoice::None, false, 0);
        explicit.coord.hammer_mode = HammerMode::ExplicitDoubleSided;
        let cells = vec![cell(DefenseChoice::None, true, 2), explicit];
        let summaries = CampaignReport::summarize(&m, &cells);
        assert_eq!(summaries.len(), 2);
        assert_eq!(
            summaries[0].group.hammer_mode,
            HammerMode::ImplicitDoubleSided
        );
        assert!((summaries[0].escalation_rate - 1.0).abs() < 1e-12);
        assert_eq!(
            summaries[1].group.hammer_mode,
            HammerMode::ExplicitDoubleSided
        );
        assert!((summaries[1].escalation_rate - 0.0).abs() < 1e-12);
        assert_eq!(
            summaries[1].escalation_rate_delta_vs_undefended,
            Some(0.0),
            "explicit mode compares against the explicit undefended baseline"
        );
    }

    #[test]
    fn errored_cells_do_not_drag_down_implicit_rate() {
        let m = ScenarioMatrix::new(
            vec![MachineChoice::TestSmall],
            vec![DefenseChoice::None],
            vec![ProfileChoice::Ci],
            2,
        );
        let mut errored = cell(DefenseChoice::None, false, 0);
        errored.error = Some("aborted".into());
        errored.implicit_dram_rate = 0.0;
        let cells = vec![cell(DefenseChoice::None, false, 1), errored];
        let summaries = CampaignReport::summarize(&m, &cells);
        assert!((summaries[0].mean_implicit_dram_rate - 0.9).abs() < 1e-12);
        assert!((summaries[0].mean_flips - 1.0).abs() < 1e-12);
        assert_eq!(summaries[0].cells, 2);
        assert_eq!(summaries[0].errored_cells, 1);
    }

    #[test]
    fn delta_absent_without_undefended_baseline() {
        let m = ScenarioMatrix::new(
            vec![MachineChoice::TestSmall],
            vec![DefenseChoice::Zebram],
            vec![ProfileChoice::Ci],
            1,
        );
        let cells = vec![cell(DefenseChoice::Zebram, false, 0)];
        let summaries = CampaignReport::summarize(&m, &cells);
        assert_eq!(summaries[0].escalation_rate_delta_vs_undefended, None);
        assert_eq!(summaries[0].mean_seconds_to_first_flip, None);
    }

    #[test]
    fn canonical_json_is_stable_and_newline_terminated() {
        let report = CampaignReport {
            schema_version: REPORT_SCHEMA_VERSION,
            base_seed: 7,
            matrix: matrix(),
            superpages: false,
            cells: vec![cell(DefenseChoice::None, true, 1)],
            summaries: vec![],
        };
        let a = report.to_canonical_json();
        let b = report.to_canonical_json();
        assert_eq!(a, b);
        assert!(a.ends_with('\n'));
        assert!(a.contains("\"schema_version\": 1"));
        assert!(a.contains("\"undefended\""));
        // Default-mode reports carry no hammer_mode keys anywhere — the
        // pre-axis golden snapshot stays byte-identical.
        assert!(!a.contains("hammer_mode"));
    }

    #[test]
    fn victim_rows_and_summaries_carry_the_exploit_keys() {
        let mut row = cell(DefenseChoice::None, true, 2);
        row.coord.victim = Some(VictimChoice::KeyRecovery);
        row.exploit = Some(ExploitOutcome {
            exploit_succeeded: Some(true),
            time_to_exploit: Some(4_800),
        });
        let json = compact(&row);
        assert!(json.contains("\"victim\":\"key-recovery\""));
        assert!(json.contains("\"exploit_succeeded\":true"));
        assert!(json.contains("\"time_to_exploit\":4800"));
        // The outcome keys sit between seconds_to_escalation and route.
        assert!(
            json.find("\"seconds_to_escalation\"").unwrap()
                < json.find("\"exploit_succeeded\"").unwrap()
        );

        // Default-victim rows carry none of the keys.
        let json = compact(&cell(DefenseChoice::None, true, 2));
        assert!(!json.contains("victim"));
        assert!(!json.contains("exploit_succeeded"));
        assert!(!json.contains("time_to_exploit"));

        // Victim summaries split per victim and aggregate exploit outcomes.
        let m = ScenarioMatrix::new(
            vec![MachineChoice::TestSmall],
            vec![DefenseChoice::None],
            vec![ProfileChoice::Ci],
            1,
        )
        .with_victims(vec![
            Some(VictimChoice::PteTakeover),
            Some(VictimChoice::KeyRecovery),
        ]);
        let cells = vec![
            {
                let mut c = cell(DefenseChoice::None, true, 2);
                c.coord.victim = Some(VictimChoice::PteTakeover);
                c.exploit = Some(ExploitOutcome {
                    exploit_succeeded: Some(true),
                    time_to_exploit: Some(1_000),
                });
                c
            },
            {
                let mut c = cell(DefenseChoice::None, false, 2);
                c.coord.victim = Some(VictimChoice::KeyRecovery);
                c.exploit = Some(ExploitOutcome {
                    exploit_succeeded: Some(false),
                    time_to_exploit: None,
                });
                c
            },
        ];
        let summaries = CampaignReport::summarize(&m, &cells);
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].group.victim, Some(VictimChoice::PteTakeover));
        assert_eq!(
            summaries[0].exploit,
            Some(ExploitSummary {
                exploit_successes: 1,
                mean_time_to_exploit: Some(1_000.0)
            })
        );
        assert_eq!(summaries[1].group.victim, Some(VictimChoice::KeyRecovery));
        assert_eq!(
            summaries[1].exploit,
            Some(ExploitSummary {
                exploit_successes: 0,
                mean_time_to_exploit: None
            })
        );
        let json = compact(&summaries[0]);
        assert!(json.contains("\"victim\":\"pte-takeover\""));
        assert!(json.contains("\"exploit_successes\":1"));
        assert!(json.contains("\"mean_time_to_exploit\":1000.0"));
    }

    fn decode(body: &str) -> Result<CellReport, String> {
        serde_json::from_str(body)
            .and_then(serde_json::from_value)
            .map_err(|e| e.to_string())
    }

    fn tricky_report() -> CellReport {
        CellReport {
            coord: CellCoord {
                hammer_mode: HammerMode::ImplicitOneLocation,
                pattern: Some(PatternChoice::Synthesized),
                victim: Some(VictimChoice::KeyRecovery),
                ..CellCoord::new(
                    MachineChoice::TestSmall,
                    DefenseChoice::RipRh,
                    ProfileChoice::Ci,
                    2,
                )
            },
            cell_seed: u64::MAX - 1,
            escalated: true,
            attempts: 3,
            flips_observed: 7,
            exploitable_flips: 1,
            trr_refreshes: u64::MAX - 3,
            implicit_dram_rate: 0.1 + 0.2, // not exactly representable
            seconds_to_first_flip: Some(1.0e-7),
            seconds_to_escalation: None,
            exploit: Some(ExploitOutcome {
                exploit_succeeded: Some(true),
                time_to_exploit: Some(u64::MAX - 7),
            }),
            route: Some("PageTable { pte: 0x1000 }".into()),
            error: Some("line1\nline2 \"quoted\"".into()),
        }
    }

    #[test]
    fn decoded_report_round_trips_exactly() {
        let bare = CellReport {
            coord: CellCoord::new(
                MachineChoice::TestSmall,
                DefenseChoice::RipRh,
                ProfileChoice::Ci,
                2,
            ),
            trr_refreshes: 0,
            exploit: None,
            route: None,
            error: None,
            ..tricky_report()
        };
        // An unsuccessful explicit-victim row keeps its null outcome keys.
        let failed_exploit = CellReport {
            exploit: Some(ExploitOutcome::default()),
            ..tricky_report()
        };
        for report in [tricky_report(), bare.clone(), failed_exploit.clone()] {
            let body = compact(&report);
            let decoded = decode(&body).unwrap();
            assert_eq!(decoded, report);
            // Bit-exact floats, not just PartialEq-equal.
            assert_eq!(
                decoded.implicit_dram_rate.to_bits(),
                report.implicit_dram_rate.to_bits()
            );
            // Byte-exact re-serialization — what merge actually emits.
            assert_eq!(compact(&decoded), body);
        }
        // Absent axis keys decode to their defaults.
        let body = compact(&bare);
        for key in [
            "hammer_mode",
            "pattern",
            "victim",
            "trr_",
            "exploit_",
            "_exploit",
        ] {
            assert!(!body.contains(key), "{key} in {body}");
        }
        let body = compact(&failed_exploit);
        assert!(body.contains("\"exploit_succeeded\":null,\"time_to_exploit\":null"));
    }

    #[test]
    fn schema_drift_is_a_described_error() {
        let body = compact(&tricky_report());
        let err = decode(&body.replace("\"attempts\"", "\"tries\"")).unwrap_err();
        assert!(err.contains("attempts"), "{err}");
        let err = decode("][").unwrap_err();
        assert!(err.contains("byte"), "{err}");
        let err = decode("{\"machine\":3}").unwrap_err();
        assert!(err.contains("machine"), "{err}");
        let err = decode(&body.replace("\"RIP-RH\"", "\"RIP\"")).unwrap_err();
        assert!(err.contains("defense"), "{err}");
    }

    #[test]
    fn narrow_fields_reject_out_of_range_values() {
        let body = compact(&tricky_report());
        let overflow = body.replace("\"repetition\":2", "\"repetition\":4294967296");
        assert!(decode(&overflow).unwrap_err().contains("repetition"));
        assert!(decode(&body.replace("\"attempts\":3", "\"attempts\":-3")).is_err());
        assert!(decode(&body.replace("\"attempts\":3", "\"attempts\":3.0")).is_err());
    }
}
