//! Named machine models (the paper's Table I plus the CI-scale test machine).

use pthammer_dram::FlipModelProfile;
use serde::{Deserialize, Serialize};

use crate::MachineConfig;

/// Which machine model to instantiate.
///
/// The three Table I machines are the paper's evaluation targets;
/// [`MachineChoice::TestSmall`] is the deliberately small but fully modelled
/// machine the integration tests and the campaign harness's CI-scale
/// matrices run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MachineChoice {
    /// Lenovo T420 (Sandy Bridge, 3 MiB 12-way LLC).
    LenovoT420,
    /// Lenovo X230 (Ivy Bridge, 3 MiB 12-way LLC).
    LenovoX230,
    /// Dell E6420 (Sandy Bridge, 4 MiB 16-way LLC).
    DellE6420,
    /// Small test machine (CI scale; not part of Table I).
    TestSmall,
    /// The small test machine with an in-DRAM TRR mitigation (CI scale;
    /// post-DDR3 era, not part of Table I).
    TestSmallTrr,
    /// DDR4-class 8 GiB machine with TRR (post-DDR3 era, not part of
    /// Table I).
    Ddr4Trr,
}

impl MachineChoice {
    /// All Table I machines (excludes [`MachineChoice::TestSmall`]).
    pub fn all() -> Vec<MachineChoice> {
        vec![
            MachineChoice::LenovoT420,
            MachineChoice::LenovoX230,
            MachineChoice::DellE6420,
        ]
    }

    /// Every machine model, Table I first.
    pub fn every() -> [MachineChoice; 6] {
        [
            MachineChoice::LenovoT420,
            MachineChoice::LenovoX230,
            MachineChoice::DellE6420,
            MachineChoice::TestSmall,
            MachineChoice::TestSmallTrr,
            MachineChoice::Ddr4Trr,
        ]
    }

    /// The machines to run given the `PTHAMMER_ALL_MACHINES` environment
    /// variable (default: only the T420, to keep host time reasonable).
    pub fn selected() -> Vec<MachineChoice> {
        if std::env::var("PTHAMMER_ALL_MACHINES")
            .map(|v| v == "1")
            .unwrap_or(false)
        {
            Self::all()
        } else {
            vec![MachineChoice::LenovoT420]
        }
    }

    /// The TRR-era machines (in-DRAM mitigation enabled; not part of
    /// Table I — the paper's DDR3 machines have no TRR).
    pub fn trr_machines() -> Vec<MachineChoice> {
        vec![MachineChoice::TestSmallTrr, MachineChoice::Ddr4Trr]
    }

    /// Whether this machine models an in-DRAM TRR mitigation.
    pub fn has_trr(&self) -> bool {
        matches!(self, MachineChoice::TestSmallTrr | MachineChoice::Ddr4Trr)
    }

    /// Human-readable machine name.
    pub fn name(&self) -> &'static str {
        match self {
            MachineChoice::LenovoT420 => "Lenovo T420",
            MachineChoice::LenovoX230 => "Lenovo X230",
            MachineChoice::DellE6420 => "Dell E6420",
            MachineChoice::TestSmall => "Test Small",
            MachineChoice::TestSmallTrr => "Test Small TRR",
            MachineChoice::Ddr4Trr => "DDR4 TRR",
        }
    }

    /// Builds the machine configuration with the given weak-cell profile.
    pub fn config(&self, profile: FlipModelProfile, seed: u64) -> MachineConfig {
        match self {
            MachineChoice::LenovoT420 => MachineConfig::lenovo_t420(profile, seed),
            MachineChoice::LenovoX230 => MachineConfig::lenovo_x230(profile, seed),
            MachineChoice::DellE6420 => MachineConfig::dell_e6420(profile, seed),
            MachineChoice::TestSmall => MachineConfig::ci_small(profile, seed),
            MachineChoice::TestSmallTrr => MachineConfig::ci_small_trr(profile, seed),
            MachineChoice::Ddr4Trr => MachineConfig::ddr4_trr(profile, seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_machines_and_names() {
        assert_eq!(MachineChoice::all().len(), 3);
        assert!(!MachineChoice::all().contains(&MachineChoice::TestSmall));
        assert!(!MachineChoice::selected().is_empty());
        assert_eq!(MachineChoice::LenovoT420.name(), "Lenovo T420");
        let names: std::collections::HashSet<_> = MachineChoice::every().map(|m| m.name()).into();
        assert_eq!(names.len(), MachineChoice::every().len());
        let cfg = MachineChoice::DellE6420.config(FlipModelProfile::fast(), 1);
        assert_eq!(cfg.cache.llc.ways, 16);
    }

    #[test]
    fn test_small_uses_the_ci_machine() {
        let cfg = MachineChoice::TestSmall.config(FlipModelProfile::ci(), 7);
        assert_eq!(cfg, MachineConfig::ci_small(FlipModelProfile::ci(), 7));
        assert_eq!(cfg.name, "Test Small");
    }

    #[test]
    fn trr_machines_enable_the_sampler_and_stay_out_of_table1() {
        for machine in MachineChoice::trr_machines() {
            assert!(machine.has_trr());
            assert!(!MachineChoice::all().contains(&machine));
            let cfg = machine.config(FlipModelProfile::ci(), 7);
            assert!(cfg.validate().is_ok(), "{} invalid", cfg.name);
            assert!(cfg.dram.trr.enabled, "{} must enable TRR", cfg.name);
            assert!(cfg.dram.trr.sampler_capacity > 0);
            assert_eq!(cfg.name, machine.name());
        }
        assert!(!MachineChoice::TestSmall.has_trr());
        // Apart from the name and the TRR sampler, the TRR test machine is
        // the CI machine — same caches, TLBs and DRAM geometry — so flips
        // deltas against TestSmall isolate the mitigation itself.
        let trr = MachineChoice::TestSmallTrr.config(FlipModelProfile::ci(), 7);
        let mut base = MachineConfig::ci_small(FlipModelProfile::ci(), 7);
        base.name = trr.name.clone();
        base.dram.trr = trr.dram.trr;
        assert_eq!(trr, base);
    }
}
