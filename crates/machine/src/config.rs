//! Machine configurations, including the Table I presets.

use serde::Serialize;

use pthammer_cache::{CacheHierarchyConfig, EMPTY_TAG};
use pthammer_dram::{DramConfig, DramGeometry, DramTimings, FlipModelProfile};
use pthammer_mmu::MmuConfig;
use pthammer_types::CACHE_LINE_SIZE;

/// Complete configuration of a simulated machine.
///
/// The three presets mirror Table I of the paper:
///
/// | Machine      | CPU               | TLB              | LLC            | DRAM |
/// |--------------|-------------------|------------------|----------------|------|
/// | Lenovo T420  | Sandy Bridge i5   | 4-way L1d/L2s    | 12-way, 3 MiB  | 8 GiB DDR3 |
/// | Lenovo X230  | Ivy Bridge i5     | 4-way L1d/L2s    | 12-way, 3 MiB  | 8 GiB DDR3 |
/// | Dell E6420   | Sandy Bridge i7   | 4-way L1d/L2s    | 16-way, 4 MiB  | 8 GiB DDR3 |
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MachineConfig {
    /// Human-readable machine name (used in experiment reports).
    pub name: String,
    /// Nominal CPU clock in Hz; converts simulated cycles to seconds.
    pub clock_hz: f64,
    /// Cache hierarchy configuration.
    pub cache: CacheHierarchyConfig,
    /// MMU (TLBs, paging-structure caches, walker) configuration.
    pub mmu: MmuConfig,
    /// DRAM module configuration.
    pub dram: DramConfig,
    /// Latency charged for a DRAM-served access issued from a pipelined
    /// (batched) access sequence, modelling memory-level parallelism of the
    /// out-of-order core. Serialized (timed) accesses pay the full DRAM
    /// latency.
    pub dram_overlap_latency: u32,
    /// Fixed per-access front-end overhead in cycles.
    pub access_overhead: u32,
}

impl MachineConfig {
    /// Lenovo T420 (Sandy Bridge i5-2540M, 3 MiB 12-way LLC, 8 GiB DDR3).
    pub fn lenovo_t420(flip_profile: FlipModelProfile, seed: u64) -> Self {
        Self {
            name: "Lenovo T420".to_string(),
            clock_hz: 2.6e9,
            cache: CacheHierarchyConfig::sandy_bridge_3mib(),
            mmu: MmuConfig::sandy_bridge(),
            dram: DramConfig {
                timings: DramTimings::ddr3_default(),
                ..DramConfig::ddr3_8gib(flip_profile, seed ^ 0x3420)
            },
            dram_overlap_latency: 35,
            access_overhead: 2,
        }
    }

    /// Lenovo X230 (Ivy Bridge i5-3230M, 3 MiB 12-way LLC, 8 GiB DDR3).
    pub fn lenovo_x230(flip_profile: FlipModelProfile, seed: u64) -> Self {
        let mut cfg = Self::lenovo_t420(flip_profile, seed ^ 0x230);
        cfg.name = "Lenovo X230".to_string();
        cfg.clock_hz = 2.6e9;
        // Ivy Bridge: marginally faster DRAM path than the T420.
        cfg.dram.timings = DramTimings {
            cas: 105,
            rcd: 42,
            rp: 42,
            refresh_window: 166_400_000,
        };
        cfg
    }

    /// Dell E6420 (Sandy Bridge i7-2640M, 4 MiB 16-way LLC, 8 GiB DDR3).
    pub fn dell_e6420(flip_profile: FlipModelProfile, seed: u64) -> Self {
        Self {
            name: "Dell E6420".to_string(),
            clock_hz: 2.8e9,
            cache: CacheHierarchyConfig::sandy_bridge_4mib(),
            mmu: MmuConfig::sandy_bridge(),
            dram: DramConfig {
                timings: DramTimings::ddr3_slow(),
                ..DramConfig::ddr3_8gib(flip_profile, seed ^ 0x8420)
            },
            dram_overlap_latency: 50,
            access_overhead: 3,
        }
    }

    /// All three Table I machines.
    pub fn table1_machines(flip_profile: FlipModelProfile, seed: u64) -> Vec<Self> {
        vec![
            Self::lenovo_t420(flip_profile, seed),
            Self::lenovo_x230(flip_profile, seed),
            Self::dell_e6420(flip_profile, seed),
        ]
    }

    /// A scaled-down machine (1 GiB DRAM, small caches unchanged TLBs) for
    /// integration tests and examples that need to finish quickly.
    pub fn test_small(flip_profile: FlipModelProfile, seed: u64) -> Self {
        Self {
            name: "Test Small".to_string(),
            clock_hz: 2.6e9,
            cache: CacheHierarchyConfig::sandy_bridge_3mib(),
            mmu: MmuConfig::sandy_bridge(),
            dram: DramConfig {
                geometry: DramGeometry::small_1gib(),
                timings: DramTimings::fast_test(),
                ..DramConfig::ddr3_8gib(flip_profile, seed ^ 0x53)
            },
            dram_overlap_latency: 35,
            access_overhead: 2,
        }
    }

    /// The CI-scale machine: [`test_small`](Self::test_small) with the small
    /// cache hierarchy and a trimmed 2-slice, 256-set, 8-way LLC, so
    /// eviction-pool construction costs seconds instead of minutes of host
    /// time. This is the machine the integration tests and the campaign
    /// harness's golden-snapshot matrix attack.
    pub fn ci_small(flip_profile: FlipModelProfile, seed: u64) -> Self {
        use pthammer_cache::{LlcConfig, ReplacementPolicy};
        let mut cfg = Self::test_small(flip_profile, seed);
        cfg.cache = CacheHierarchyConfig {
            llc: LlcConfig {
                slices: 2,
                sets_per_slice: 256,
                ways: 8,
                latency: 18,
                replacement: ReplacementPolicy::Srrip,
            },
            ..CacheHierarchyConfig::test_small()
        };
        cfg
    }

    /// The CI-scale machine with an in-DRAM Target Row Refresh mitigation:
    /// [`ci_small`](Self::ci_small) plus a bounded TRR sampler. The sampler
    /// threshold is set so that a tracked aggressor's neighbours are
    /// refreshed well before the `ci` profile's minimum flip threshold (100
    /// disturbances) accumulates, and the capacity is deliberately small —
    /// like real DDR4 TRR implementations — so many-sided access patterns
    /// with more simultaneous aggressors than sampler slots can still slip
    /// past it (the TRRespass effect).
    pub fn ci_small_trr(flip_profile: FlipModelProfile, seed: u64) -> Self {
        use pthammer_dram::TrrConfig;
        let mut cfg = Self::ci_small(flip_profile, seed);
        cfg.name = "Test Small TRR".to_string();
        cfg.dram.trr = TrrConfig::enabled(40, 6);
        cfg
    }

    /// A DDR4-class 8 GiB machine with TRR: the T420's platform with faster
    /// DRAM timings and an in-DRAM mitigation scaled to the paper profile's
    /// flip thresholds (min 30 000 disturbances → refresh tracked aggressors'
    /// neighbours every 12 000 activations; sampler capacity 4).
    pub fn ddr4_trr(flip_profile: FlipModelProfile, seed: u64) -> Self {
        use pthammer_dram::TrrConfig;
        let mut cfg = Self::lenovo_t420(flip_profile, seed ^ 0x0DD4);
        cfg.name = "DDR4 TRR".to_string();
        // DDR4-1866-class timings at the same 2.6 GHz core clock: shorter
        // CAS/RCD/RP than the DDR3 presets.
        cfg.dram.timings = DramTimings {
            cas: 90,
            rcd: 36,
            rp: 36,
            refresh_window: 166_400_000,
        };
        cfg.dram.trr = TrrConfig::enabled(12_000, 4);
        cfg
    }

    /// Validates every component configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid component.
    pub fn validate(&self) -> Result<(), String> {
        if self.clock_hz <= 0.0 || self.clock_hz.is_nan() {
            return Err("clock_hz must be positive".to_string());
        }
        self.cache.validate()?;
        self.mmu.validate()?;
        self.dram.validate()?;
        // The caches keep a line's index as a `u32` tag below `EMPTY_TAG`.
        let lines = self.dram.geometry.capacity_bytes() / CACHE_LINE_SIZE;
        if lines >= u64::from(EMPTY_TAG) {
            return Err(format!(
                "{lines} cache lines of DRAM exceed the caches' u32 line tags"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_presets_are_valid_and_distinct() {
        let machines = MachineConfig::table1_machines(FlipModelProfile::paper(), 1);
        assert_eq!(machines.len(), 3);
        for m in &machines {
            assert!(m.validate().is_ok(), "{} invalid", m.name);
            assert_eq!(m.dram.geometry.capacity_bytes(), 8 << 30);
        }
        assert_eq!(machines[0].cache.llc.ways, 12);
        assert_eq!(machines[1].cache.llc.ways, 12);
        assert_eq!(machines[2].cache.llc.ways, 16);
        assert_eq!(machines[2].cache.llc.capacity_bytes(), 4 << 20);
    }

    #[test]
    fn test_machine_is_small_and_valid() {
        let m = MachineConfig::test_small(FlipModelProfile::ci(), 7);
        assert!(m.validate().is_ok());
        assert_eq!(m.dram.geometry.capacity_bytes(), 1 << 30);
    }

    #[test]
    fn validation_rejects_dram_beyond_the_cache_tags() {
        let mut m = MachineConfig::lenovo_t420(FlipModelProfile::ci(), 7);
        // 8 GiB × 32 = 256 GiB: 2^32 lines, one past the last u32 tag.
        m.dram.geometry.rows_per_bank *= 32;
        let err = m.validate().unwrap_err();
        assert!(err.contains("u32 line tags"), "{err}");
        m.dram.geometry.rows_per_bank /= 2;
        assert!(m.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_clock() {
        let mut m = MachineConfig::test_small(FlipModelProfile::ci(), 7);
        m.clock_hz = 0.0;
        assert!(m.validate().is_err());
    }
}
