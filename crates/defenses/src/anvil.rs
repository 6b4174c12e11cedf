//! ANVIL-style performance-counter rowhammer detection (Aweke et al.,
//! ASPLOS 2016).

use serde::Serialize;

/// What the detector is allowed to observe.
///
/// The original ANVIL samples the addresses of *load instructions* that miss
/// the LLC and checks whether they repeatedly target the same DRAM row. As
/// the paper points out (Section V), PThammer's DRAM activity comes from the
/// page-table walker, not from attacker loads, so an unmodified ANVIL never
/// sees the hammering addresses. The extended mode models the fix the paper
/// suggests: also attributing walker-issued (implicit) DRAM accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum AnvilMode {
    /// Only explicit (attacker-issued load/store) DRAM accesses are visible.
    ExplicitLoadsOnly,
    /// Implicit accesses from page-table walks are also attributed.
    IncludeImplicitAccesses,
}

/// Verdict for one observation window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AnvilVerdict {
    /// Whether the window was flagged as a rowhammer attempt.
    pub detected: bool,
    /// DRAM activation rate (activations per million cycles) that was
    /// attributed to observable accesses in this window.
    pub observed_activation_rate: f64,
}

/// A sampling detector in the spirit of ANVIL.
#[derive(Debug, Clone, Serialize)]
pub struct AnvilDetector {
    mode: AnvilMode,
    /// Activations per million cycles above which a window is flagged.
    threshold_per_mcycle: f64,
    windows_observed: u64,
    windows_flagged: u64,
}

impl AnvilDetector {
    /// Creates a detector. A typical threshold is a few hundred same-bank
    /// activations per million cycles.
    pub fn new(mode: AnvilMode, threshold_per_mcycle: f64) -> Self {
        Self {
            mode,
            threshold_per_mcycle,
            windows_observed: 0,
            windows_flagged: 0,
        }
    }

    /// The detector's observation mode.
    pub fn mode(&self) -> AnvilMode {
        self.mode
    }

    /// Observes one sampling window.
    ///
    /// * `window_cycles` — length of the window in cycles.
    /// * `explicit_dram_accesses` — DRAM accesses caused by attacker-visible
    ///   loads/stores (what the unmodified ANVIL samples).
    /// * `implicit_dram_accesses` — DRAM accesses issued by the page-table
    ///   walker (only visible in [`AnvilMode::IncludeImplicitAccesses`]).
    pub fn observe_window(
        &mut self,
        window_cycles: u64,
        explicit_dram_accesses: u64,
        implicit_dram_accesses: u64,
    ) -> AnvilVerdict {
        self.windows_observed += 1;
        let observable = match self.mode {
            AnvilMode::ExplicitLoadsOnly => explicit_dram_accesses,
            AnvilMode::IncludeImplicitAccesses => explicit_dram_accesses + implicit_dram_accesses,
        };
        let rate = if window_cycles == 0 {
            0.0
        } else {
            observable as f64 * 1.0e6 / window_cycles as f64
        };
        let detected = rate > self.threshold_per_mcycle;
        if detected {
            self.windows_flagged += 1;
        }
        AnvilVerdict {
            detected,
            observed_activation_rate: rate,
        }
    }

    /// Fraction of observed windows that were flagged.
    pub fn detection_rate(&self) -> f64 {
        if self.windows_observed == 0 {
            0.0
        } else {
            self.windows_flagged as f64 / self.windows_observed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_mode_misses_implicit_hammering() {
        let mut anvil = AnvilDetector::new(AnvilMode::ExplicitLoadsOnly, 500.0);
        // A PThammer-like window: almost all DRAM activity is implicit.
        let verdict = anvil.observe_window(1_000_000, 20, 3_000);
        assert!(
            !verdict.detected,
            "unmodified ANVIL cannot see walker accesses"
        );
    }

    #[test]
    fn extended_mode_detects_implicit_hammering() {
        let mut anvil = AnvilDetector::new(AnvilMode::IncludeImplicitAccesses, 500.0);
        let verdict = anvil.observe_window(1_000_000, 20, 3_000);
        assert!(verdict.detected);
        assert!(verdict.observed_activation_rate > 500.0);
    }

    #[test]
    fn explicit_mode_detects_explicit_hammering() {
        let mut anvil = AnvilDetector::new(AnvilMode::ExplicitLoadsOnly, 500.0);
        // A clflush-based double-sided hammer issues explicit DRAM accesses.
        let verdict = anvil.observe_window(1_000_000, 4_000, 0);
        assert!(verdict.detected);
    }

    #[test]
    fn benign_workload_not_flagged() {
        for mode in [
            AnvilMode::ExplicitLoadsOnly,
            AnvilMode::IncludeImplicitAccesses,
        ] {
            let mut anvil = AnvilDetector::new(mode, 500.0);
            let verdict = anvil.observe_window(1_000_000, 50, 30);
            assert!(!verdict.detected);
        }
    }

    #[test]
    fn detection_rate_accumulates() {
        let mut anvil = AnvilDetector::new(AnvilMode::IncludeImplicitAccesses, 500.0);
        anvil.observe_window(1_000_000, 0, 3_000);
        anvil.observe_window(1_000_000, 0, 10);
        assert!((anvil.detection_rate() - 0.5).abs() < 1e-12);
        assert_eq!(
            AnvilDetector::new(AnvilMode::ExplicitLoadsOnly, 1.0).detection_rate(),
            0.0
        );
    }

    #[test]
    fn zero_length_window_is_not_flagged() {
        let mut anvil = AnvilDetector::new(AnvilMode::IncludeImplicitAccesses, 500.0);
        assert!(!anvil.observe_window(0, 1_000, 1_000).detected);
    }
}
