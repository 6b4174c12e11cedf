//! Attack configuration.

use serde::Serialize;

use crate::hammer::strategy::HammerMode;

/// Tunable parameters of a PThammer run: the attack's scale (spray size,
/// hammer rounds, profiling trials, attempt and flip budgets) plus its seed,
/// hammer mode and page setting.
///
/// [`AttackConfig::paper`] follows the paper's setup scaled to the simulated
/// machines; [`AttackConfig::quick_test`] shrinks everything so integration
/// tests and examples finish in seconds of host time. A campaign carries one
/// of these as the template every cell runs (`CampaignConfig::attack` in
/// `pthammer-harness`). What no preset varies is a constant next to its
/// reader: the LLC eviction buffer's size (twice the LLC, in
/// [`LlcEvictionPool::build`](crate::eviction::LlcEvictionPool::build)) and
/// Algorithm 1's trim tolerance (in
/// [`calibrate_tlb_eviction`](crate::eviction::calibrate_tlb_eviction)).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AttackConfig {
    /// Seed for the attacker's own pseudo-random choices.
    pub seed: u64,
    /// Which hammer strategy the pipeline runs (the paper's implicit
    /// double-sided attack by default).
    pub hammer_mode: HammerMode,
    /// Whether the system has superpages enabled (changes how the LLC
    /// eviction pool is prepared, cf. Table II).
    pub superpages: bool,
    /// Virtual-address span of the page-table spray in bytes. Every 2 MiB of
    /// span creates one Level-1 page table.
    pub spray_bytes: u64,
    /// Trials per measurement when profiling TLB eviction sets (Algorithm 1).
    pub tlb_profile_trials: usize,
    /// Trials per measurement when profiling LLC eviction sets (Algorithm 2).
    pub llc_profile_trials: usize,
    /// Number of double-sided hammer iterations per hammer attempt.
    pub hammer_rounds_per_attempt: u64,
    /// Maximum number of hammer attempts (pairs hammered) before giving up.
    pub max_attempts: usize,
    /// Maximum number of observed (possibly unexploitable) flips before the
    /// attack gives up on escalation.
    pub max_flips: usize,
    /// Number of candidate pairs to verify per attempt batch.
    pub pair_candidates_per_round: usize,
}

impl AttackConfig {
    /// Paper-like parameters (big spray, long hammering). Intended for the
    /// benchmark harness; host runtime is substantial.
    pub fn paper(seed: u64, superpages: bool) -> Self {
        Self {
            seed,
            hammer_mode: HammerMode::default(),
            superpages,
            spray_bytes: 4 << 30,
            tlb_profile_trials: 50,
            llc_profile_trials: 16,
            hammer_rounds_per_attempt: 120_000,
            max_attempts: 512,
            max_flips: 32,
            pair_candidates_per_round: 8,
        }
    }

    /// Scaled-down parameters for integration tests and examples, meant to be
    /// paired with [`FlipModelProfile::ci`](pthammer_dram::FlipModelProfile::ci)
    /// or `fast` DRAM profiles and the small test machine.
    pub fn quick_test(seed: u64, superpages: bool) -> Self {
        Self {
            seed,
            hammer_mode: HammerMode::default(),
            superpages,
            spray_bytes: 768 << 20,
            tlb_profile_trials: 20,
            llc_profile_trials: 8,
            hammer_rounds_per_attempt: 3_000,
            max_attempts: 24,
            max_flips: 16,
            pair_candidates_per_round: 4,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.spray_bytes < (512 << 20) {
            return Err(format!(
                "spray_bytes must cover at least 512 MiB of VA (one hammer pair stride needs 256 MiB), got {}",
                self.spray_bytes
            ));
        }
        if self.tlb_profile_trials == 0 || self.llc_profile_trials == 0 {
            return Err("profiling trial counts must be non-zero".to_string());
        }
        if self.hammer_rounds_per_attempt == 0 || self.max_attempts == 0 {
            return Err("hammer rounds and attempts must be non-zero".to_string());
        }
        Ok(())
    }
}

impl Default for AttackConfig {
    fn default() -> Self {
        Self::quick_test(0x7453_4861_4d65_5221, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_default_to_the_paper_mode() {
        assert_eq!(
            AttackConfig::paper(1, false).hammer_mode,
            HammerMode::ImplicitDoubleSided
        );
        assert_eq!(
            AttackConfig::quick_test(1, false).hammer_mode,
            HammerMode::ImplicitDoubleSided
        );
        assert!(HammerMode::default().is_default());
    }

    #[test]
    fn presets_validate() {
        assert!(AttackConfig::paper(1, false).validate().is_ok());
        assert!(AttackConfig::paper(1, true).validate().is_ok());
        assert!(AttackConfig::quick_test(1, false).validate().is_ok());
        assert!(AttackConfig::default().validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_values() {
        let mut cfg = AttackConfig::quick_test(1, false);
        cfg.spray_bytes = 1 << 20;
        assert!(cfg.validate().is_err());

        let mut cfg = AttackConfig::quick_test(1, false);
        cfg.tlb_profile_trials = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = AttackConfig::quick_test(1, false);
        cfg.max_attempts = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn paper_config_is_larger_than_quick_test() {
        let paper = AttackConfig::paper(1, false);
        let quick = AttackConfig::quick_test(1, false);
        assert!(paper.spray_bytes > quick.spray_bytes);
        assert!(paper.hammer_rounds_per_attempt > quick.hammer_rounds_per_attempt);
    }
}
