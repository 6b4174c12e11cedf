//! Cache hierarchy configuration and Table I presets.

use serde::Serialize;

use crate::kernel::MAX_WAYS;
use crate::replacement::ReplacementPolicy;

/// Configuration of a single cache level (L1D or L2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CacheLevelConfig {
    /// Number of sets.
    pub sets: u32,
    /// Associativity.
    pub ways: u32,
    /// Lookup latency added when the access reaches this level (cycles).
    pub latency: u32,
    /// Replacement policy.
    pub replacement: ReplacementPolicy,
}

impl CacheLevelConfig {
    /// 32 KiB, 8-way L1 data cache (64 sets), 4-cycle latency.
    pub const fn l1d_32kib() -> Self {
        Self {
            sets: 64,
            ways: 8,
            latency: 4,
            replacement: ReplacementPolicy::Lru,
        }
    }

    /// 256 KiB, 8-way unified L2 (512 sets), 8 additional cycles.
    pub const fn l2_256kib() -> Self {
        Self {
            sets: 512,
            ways: 8,
            latency: 8,
            replacement: ReplacementPolicy::Lru,
        }
    }

    /// Total capacity in bytes (64-byte lines).
    pub const fn capacity_bytes(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * 64
    }

    /// Validates that set count is a power of two and fields are non-zero.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.sets == 0 || !self.sets.is_power_of_two() {
            return Err(format!(
                "cache sets must be a power of two, got {}",
                self.sets
            ));
        }
        if self.ways == 0 {
            return Err("cache associativity must be non-zero".to_string());
        }
        if self.ways > MAX_WAYS {
            return Err(format!(
                "cache associativity must be at most {MAX_WAYS}, got {}",
                self.ways
            ));
        }
        Ok(())
    }
}

/// Configuration of the sliced last-level cache. The LLC is inclusive of L1
/// and L2, as on the paper's machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct LlcConfig {
    /// Number of slices (must be 1, 2 or 4 for the Intel-like hash).
    pub slices: u32,
    /// Sets per slice.
    pub sets_per_slice: u32,
    /// Associativity.
    pub ways: u32,
    /// Additional lookup latency when the access reaches the LLC (cycles).
    pub latency: u32,
    /// Replacement policy.
    pub replacement: ReplacementPolicy,
}

impl LlcConfig {
    /// 3 MiB, 12-way, 2-slice LLC (Lenovo T420 / X230 in Table I).
    pub const fn lenovo_3mib_12way() -> Self {
        Self {
            slices: 2,
            sets_per_slice: 2048,
            ways: 12,
            latency: 18,
            replacement: ReplacementPolicy::Srrip,
        }
    }

    /// 4 MiB, 16-way, 2-slice LLC (Dell E6420 in Table I).
    pub const fn dell_4mib_16way() -> Self {
        Self {
            slices: 2,
            sets_per_slice: 2048,
            ways: 16,
            latency: 22,
            replacement: ReplacementPolicy::Srrip,
        }
    }

    /// A small LLC for fast unit tests: 64 KiB, 8-way, single slice.
    pub const fn test_small() -> Self {
        Self {
            slices: 1,
            sets_per_slice: 128,
            ways: 8,
            latency: 18,
            replacement: ReplacementPolicy::Srrip,
        }
    }

    /// Total capacity in bytes (64-byte lines).
    pub const fn capacity_bytes(&self) -> u64 {
        self.slices as u64 * self.sets_per_slice as u64 * self.ways as u64 * 64
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem.
    pub fn validate(&self) -> Result<(), String> {
        if !matches!(self.slices, 1 | 2 | 4) {
            return Err(format!("LLC slices must be 1, 2 or 4, got {}", self.slices));
        }
        if self.sets_per_slice == 0 || !self.sets_per_slice.is_power_of_two() {
            return Err(format!(
                "LLC sets_per_slice must be a power of two, got {}",
                self.sets_per_slice
            ));
        }
        if self.ways == 0 {
            return Err("LLC associativity must be non-zero".to_string());
        }
        if self.ways > MAX_WAYS {
            return Err(format!(
                "LLC associativity must be at most {MAX_WAYS}, got {}",
                self.ways
            ));
        }
        Ok(())
    }
}

/// Configuration of the full three-level hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CacheHierarchyConfig {
    /// L1 data cache.
    pub l1d: CacheLevelConfig,
    /// Unified L2 cache.
    pub l2: CacheLevelConfig,
    /// Sliced last-level cache.
    pub llc: LlcConfig,
}

impl CacheHierarchyConfig {
    /// Sandy Bridge-like hierarchy with a 3 MiB 12-way LLC (Lenovo machines).
    pub const fn sandy_bridge_3mib() -> Self {
        Self {
            l1d: CacheLevelConfig::l1d_32kib(),
            l2: CacheLevelConfig::l2_256kib(),
            llc: LlcConfig::lenovo_3mib_12way(),
        }
    }

    /// Sandy Bridge-like hierarchy with a 4 MiB 16-way LLC (Dell E6420).
    pub const fn sandy_bridge_4mib() -> Self {
        Self {
            l1d: CacheLevelConfig::l1d_32kib(),
            l2: CacheLevelConfig::l2_256kib(),
            llc: LlcConfig::dell_4mib_16way(),
        }
    }

    /// Small hierarchy for fast unit tests.
    pub const fn test_small() -> Self {
        Self {
            l1d: CacheLevelConfig {
                sets: 16,
                ways: 4,
                latency: 4,
                replacement: ReplacementPolicy::Lru,
            },
            l2: CacheLevelConfig {
                sets: 64,
                ways: 8,
                latency: 8,
                replacement: ReplacementPolicy::Lru,
            },
            llc: LlcConfig::test_small(),
        }
    }

    /// Validates every level.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid level.
    pub fn validate(&self) -> Result<(), String> {
        self.l1d.validate()?;
        self.l2.validate()?;
        self.llc.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_capacities_match_table1() {
        assert_eq!(CacheLevelConfig::l1d_32kib().capacity_bytes(), 32 << 10);
        assert_eq!(CacheLevelConfig::l2_256kib().capacity_bytes(), 256 << 10);
        assert_eq!(LlcConfig::lenovo_3mib_12way().capacity_bytes(), 3 << 20);
        assert_eq!(LlcConfig::dell_4mib_16way().capacity_bytes(), 4 << 20);
    }

    #[test]
    fn presets_validate() {
        assert!(CacheHierarchyConfig::sandy_bridge_3mib().validate().is_ok());
        assert!(CacheHierarchyConfig::sandy_bridge_4mib().validate().is_ok());
        assert!(CacheHierarchyConfig::test_small().validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_fields() {
        let mut cfg = CacheHierarchyConfig::test_small();
        cfg.l1d.sets = 3;
        assert!(cfg.validate().is_err());
        let mut cfg = CacheHierarchyConfig::test_small();
        cfg.llc.slices = 3;
        assert!(cfg.validate().is_err());
        let mut cfg = CacheHierarchyConfig::test_small();
        cfg.l2.ways = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn cache_level_rejects_associativity_above_the_kernel_width() {
        let mut level = CacheLevelConfig::l2_256kib();
        level.ways = 16;
        assert!(level.validate().is_ok());
        level.ways = 17;
        let err = level.validate().unwrap_err();
        assert!(err.contains("at most 16"), "{err}");
    }

    #[test]
    fn llc_rejects_associativity_above_the_kernel_width() {
        let mut llc = LlcConfig::dell_4mib_16way();
        llc.ways = 16;
        assert!(llc.validate().is_ok());
        llc.ways = 17;
        let err = llc.validate().unwrap_err();
        assert!(err.contains("at most 16"), "{err}");
    }

    #[test]
    fn associativities_match_table1() {
        assert_eq!(LlcConfig::lenovo_3mib_12way().ways, 12);
        assert_eq!(LlcConfig::dell_4mib_16way().ways, 16);
    }
}
