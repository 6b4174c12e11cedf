//! Top-level DRAM module configuration.

use serde::Serialize;

use crate::{
    address::MappingKind, geometry::DramGeometry, row_buffer::RowBufferPolicy, timing::DramTimings,
    trr::TrrConfig, vulnerability::FlipModelProfile,
};

/// Complete configuration of a simulated DRAM module.
///
/// # Examples
///
/// ```
/// use pthammer_dram::{DramConfig, FlipModelProfile};
/// let cfg = DramConfig::ddr3_8gib(FlipModelProfile::paper(), 0xA5A5);
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DramConfig {
    /// Physical organisation.
    pub geometry: DramGeometry,
    /// Physical-address mapping kind.
    pub mapping: MappingKind,
    /// Timing parameters in CPU cycles.
    pub timings: DramTimings,
    /// Row-buffer management policy.
    pub row_buffer_policy: RowBufferPolicy,
    /// Weak-cell population profile.
    pub flip_profile: FlipModelProfile,
    /// Seed for the deterministic weak-cell map.
    pub flip_seed: u64,
    /// Target Row Refresh configuration.
    pub trr: TrrConfig,
}

impl DramConfig {
    /// The 8 GiB DDR3 module used by the Table I machines (no TRR).
    pub fn ddr3_8gib(flip_profile: FlipModelProfile, flip_seed: u64) -> Self {
        Self {
            geometry: DramGeometry::ddr3_8gib(),
            mapping: MappingKind::Sequential,
            timings: DramTimings::ddr3_default(),
            row_buffer_policy: RowBufferPolicy::OpenPage,
            flip_profile,
            flip_seed,
            trr: TrrConfig::disabled(),
        }
    }

    /// A small, fast configuration for unit tests.
    pub fn test_small(flip_profile: FlipModelProfile, flip_seed: u64) -> Self {
        Self {
            geometry: DramGeometry::tiny_32mib(),
            mapping: MappingKind::Sequential,
            timings: DramTimings::fast_test(),
            row_buffer_policy: RowBufferPolicy::OpenPage,
            flip_profile,
            flip_seed,
            trr: TrrConfig::disabled(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid component.
    pub fn validate(&self) -> Result<(), String> {
        self.geometry.validate()?;
        self.flip_profile.validate()?;
        if self.timings.refresh_window == 0 {
            return Err("refresh_window must be non-zero".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        assert!(DramConfig::ddr3_8gib(FlipModelProfile::paper(), 1)
            .validate()
            .is_ok());
        assert!(DramConfig::test_small(FlipModelProfile::ci(), 1)
            .validate()
            .is_ok());
    }

    #[test]
    fn validation_propagates_geometry_errors() {
        let mut cfg = DramConfig::ddr3_8gib(FlipModelProfile::paper(), 1);
        cfg.geometry.channels = 3;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_propagates_profile_errors() {
        let mut cfg = DramConfig::ddr3_8gib(FlipModelProfile::paper(), 1);
        cfg.flip_profile.weak_row_density = 2.0;
        assert!(cfg.validate().is_err());
    }
}
