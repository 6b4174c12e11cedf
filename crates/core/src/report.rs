//! Attack outcome reporting (the data behind Table II and Section IV-F/G).

use std::fmt;
use std::str::FromStr;

use serde::Serialize;

use pthammer_kernel::DefenseKind;

use crate::hammer::strategy::HammerMode;
use crate::victim::VictimOutcome;

/// The system's page-size setting during the attack (Table II's "regular" vs
/// "superpage" columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageSetting {
    /// 4 KiB pages only.
    Regular,
    /// Transparent superpages enabled.
    Superpage,
}

impl PageSetting {
    /// The setting implied by an `AttackConfig::superpages` flag.
    pub fn from_superpages(superpages: bool) -> Self {
        if superpages {
            PageSetting::Superpage
        } else {
            PageSetting::Regular
        }
    }

    /// Canonical display name (also the canonical JSON serialization).
    pub fn name(&self) -> &'static str {
        match self {
            PageSetting::Regular => "regular",
            PageSetting::Superpage => "superpage",
        }
    }
}

impl fmt::Display for PageSetting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for PageSetting {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "regular" => Ok(PageSetting::Regular),
            "superpage" => Ok(PageSetting::Superpage),
            other => Err(format!("unknown page setting `{other}`")),
        }
    }
}

serde::string_enum!(PageSetting);

/// Simulated-cycle timings of the attack stages, mirroring the columns of
/// Table II in the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct StageTimings {
    /// One-off TLB eviction-pool preparation.
    pub tlb_pool_prep_cycles: u64,
    /// One-off LLC eviction-pool preparation.
    pub llc_pool_prep_cycles: u64,
    /// Average TLB eviction-set selection per pair (drawing from the pool).
    pub tlb_selection_cycles: u64,
    /// Average LLC eviction-set selection per pair (Algorithm 2).
    pub llc_selection_cycles: u64,
    /// Average hammering time per attempt.
    pub hammer_cycles_per_attempt: u64,
    /// Average check (scan) time per attempt.
    pub check_cycles_per_attempt: u64,
    /// Simulated cycles from the start of the attack to the first observed
    /// bit flip (`None` if no flip was observed).
    pub time_to_first_flip_cycles: Option<u64>,
    /// Simulated cycles from the start of the attack to privilege escalation.
    pub time_to_escalation_cycles: Option<u64>,
}

impl StageTimings {
    /// Converts a cycle count to seconds at the given clock.
    pub fn seconds(cycles: u64, clock_hz: f64) -> f64 {
        cycles as f64 / clock_hz
    }
}

/// Complete outcome of one PThammer run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AttackOutcome {
    /// Machine the attack ran on.
    pub machine: String,
    /// Nominal clock frequency (Hz) used to convert cycles to seconds.
    pub clock_hz: f64,
    /// The system's page-size setting ("regular" or "superpage").
    pub page_setting: PageSetting,
    /// Typed identity of the active placement policy / defense.
    pub defense: DefenseKind,
    /// The hammer strategy the pipeline ran.
    pub hammer_mode: HammerMode,
    /// Whether kernel privilege escalation succeeded.
    pub escalated: bool,
    /// The successful victim outcome, if the `Exploit` phase produced one
    /// (success may be key recovery rather than escalation).
    pub victim_outcome: Option<VictimOutcome>,
    /// Hammer attempts (pairs hammered).
    pub attempts: usize,
    /// Double-sided hammer iterations actually performed across all attempts
    /// (measured by the hammer loop — the single source of truth for
    /// iteration counts; perf reports must not re-derive this from
    /// configuration).
    pub hammer_iterations: u64,
    /// Total simulated cycles those iterations took (exact sum, unlike the
    /// integer-divided per-attempt average in [`StageTimings`]).
    pub hammer_cycles_total: u64,
    /// Bit-flip findings observed across all attempts (including
    /// unexploitable ones).
    pub flips_observed: usize,
    /// Findings that were exploitable (captured an L1PT or cred page).
    pub exploitable_flips: usize,
    /// uid of the attacker before the attack.
    pub uid_before: u32,
    /// Effective uid of the escalated process after the attack (0 on success).
    pub uid_after: u32,
    /// Stage timings (Table II).
    pub timings: StageTimings,
    /// Sample of per-iteration double-sided hammer costs in cycles (Figure 6).
    pub hammer_cycle_samples: Vec<u64>,
    /// Fraction of hammer iterations whose L1PTE loads reached DRAM.
    pub implicit_dram_rate: f64,
}

impl AttackOutcome {
    /// Simulated seconds until the first flip, if one was observed.
    pub fn seconds_to_first_flip(&self) -> Option<f64> {
        self.timings
            .time_to_first_flip_cycles
            .map(|c| StageTimings::seconds(c, self.clock_hz))
    }

    /// Simulated seconds until escalation, if it happened.
    pub fn seconds_to_escalation(&self) -> Option<f64> {
        self.timings
            .time_to_escalation_cycles
            .map(|c| StageTimings::seconds(c, self.clock_hz))
    }

    /// Simulated minutes until the first flip (the headline Table II number).
    pub fn minutes_to_first_flip(&self) -> Option<f64> {
        self.seconds_to_first_flip().map(|s| s / 60.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> AttackOutcome {
        AttackOutcome {
            machine: "Test".to_string(),
            clock_hz: 2.6e9,
            page_setting: PageSetting::Regular,
            defense: DefenseKind::Undefended,
            hammer_mode: HammerMode::ImplicitDoubleSided,
            escalated: true,
            victim_outcome: Some(VictimOutcome::escalation(
                "pte-takeover",
                "PageTableTakeover",
                1,
            )),
            attempts: 3,
            hammer_iterations: 4_500,
            hammer_cycles_total: 9_000_000,
            flips_observed: 2,
            exploitable_flips: 1,
            uid_before: 1000,
            uid_after: 0,
            timings: StageTimings {
                time_to_first_flip_cycles: Some(156_000_000_000),
                time_to_escalation_cycles: Some(160_000_000_000),
                ..StageTimings::default()
            },
            hammer_cycle_samples: vec![700, 720, 800],
            implicit_dram_rate: 0.97,
        }
    }

    #[test]
    fn time_conversions() {
        let o = outcome();
        let minutes = o.minutes_to_first_flip().unwrap();
        assert!(
            (minutes - 1.0).abs() < 1e-9,
            "156e9 cycles at 2.6 GHz = 1 minute"
        );
        assert!(o.seconds_to_escalation().unwrap() > o.seconds_to_first_flip().unwrap());
    }

    #[test]
    fn missing_flip_yields_none() {
        let mut o = outcome();
        o.timings.time_to_first_flip_cycles = None;
        assert!(o.seconds_to_first_flip().is_none());
        assert!(o.minutes_to_first_flip().is_none());
    }

    #[test]
    fn debug_output_contains_key_fields() {
        let o = outcome();
        let debug = format!("{o:?}");
        assert!(debug.contains("escalated: true"));
        assert!(debug.contains("Test"));
        assert!(debug.contains("implicit_dram_rate"));
        assert!(debug.contains("ImplicitDoubleSided"));
    }

    #[test]
    fn page_setting_round_trips_and_serializes_canonically() {
        assert_eq!(PageSetting::from_superpages(false), PageSetting::Regular);
        assert_eq!(PageSetting::from_superpages(true), PageSetting::Superpage);
        for s in [PageSetting::Regular, PageSetting::Superpage] {
            assert_eq!(s.name().parse::<PageSetting>().unwrap(), s);
            assert_eq!(s.to_string(), s.name());
        }
        assert!("huge".parse::<PageSetting>().is_err());
        let mut w = serde::ser::JsonWriter::new(false);
        PageSetting::Superpage.serialize(&mut w);
        assert_eq!(w.into_string(), "\"superpage\"");
    }
}
