//! MMU configuration: TLB organisations and paging-structure cache sizes.

use serde::Serialize;

use pthammer_cache::{ReplacementPolicy, MAX_WAYS};

/// Configuration of one TLB level.
///
/// A virtual page number maps to set `vpn mod sets`, the linear index Gras
/// et al. (USENIX Security 2018) reverse engineered for both TLB levels of
/// the modelled Sandy Bridge / Ivy Bridge machines. The attack relies on it
/// to construct congruent page sets; because an eviction set must displace
/// the target from both levels, its minimal size exceeds a single level's
/// associativity (Figure 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TlbConfig {
    /// Number of sets (a power of two).
    pub sets: u32,
    /// Associativity.
    pub ways: u32,
    /// Replacement policy. The presets use NRU.
    pub replacement: ReplacementPolicy,
}

impl TlbConfig {
    /// 64-entry, 4-way L1 dTLB for 4 KiB pages (Table I machines).
    pub const fn l1_dtlb_64() -> Self {
        Self {
            sets: 16,
            ways: 4,
            replacement: ReplacementPolicy::Nru,
        }
    }

    /// 512-entry, 4-way L2 sTLB for 4 KiB pages (Table I machines).
    pub const fn l2_stlb_512() -> Self {
        Self {
            sets: 128,
            ways: 4,
            replacement: ReplacementPolicy::Nru,
        }
    }

    /// 32-entry, 4-way L1 dTLB for 2 MiB pages.
    pub const fn l1_dtlb_huge_32() -> Self {
        Self {
            sets: 8,
            ways: 4,
            replacement: ReplacementPolicy::Nru,
        }
    }

    /// Total number of entries.
    pub const fn entries(&self) -> u32 {
        self.sets * self.ways
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.sets == 0 || !self.sets.is_power_of_two() {
            return Err(format!(
                "TLB sets must be a power of two, got {}",
                self.sets
            ));
        }
        if self.ways == 0 {
            return Err("TLB associativity must be non-zero".to_string());
        }
        if self.ways > MAX_WAYS {
            return Err(format!(
                "TLB associativity must be at most {MAX_WAYS}, got {}",
                self.ways
            ));
        }
        Ok(())
    }
}

/// Sizes of the paging-structure caches (fully associative, LRU).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PagingCacheConfig {
    /// PDE-cache entries (each covers 2 MiB of VA and skips to the L1 PT).
    pub pde_entries: u32,
    /// PDPTE-cache entries (each covers 1 GiB of VA).
    pub pdpte_entries: u32,
    /// PML4E-cache entries (each covers 512 GiB of VA).
    pub pml4e_entries: u32,
}

impl PagingCacheConfig {
    /// Sandy Bridge-like sizes.
    pub const fn sandy_bridge() -> Self {
        Self {
            pde_entries: 32,
            pdpte_entries: 8,
            pml4e_entries: 4,
        }
    }
}

/// Complete MMU configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct MmuConfig {
    /// L1 dTLB for 4 KiB pages.
    pub l1_dtlb: TlbConfig,
    /// L2 sTLB for 4 KiB pages.
    pub l2_stlb: TlbConfig,
    /// L1 dTLB for 2 MiB pages.
    pub l1_dtlb_huge: TlbConfig,
    /// Paging-structure cache sizes.
    pub paging_caches: PagingCacheConfig,
    /// Cycles charged for a TLB lookup.
    pub tlb_lookup_latency: u32,
    /// Extra cycles charged when the lookup falls through to the L2 sTLB.
    pub stlb_lookup_latency: u32,
    /// Fixed per-level overhead of the hardware walker, on top of the memory
    /// accesses it performs.
    pub walk_step_latency: u32,
}

impl MmuConfig {
    /// Sandy Bridge / Ivy Bridge-like MMU (Table I machines).
    pub const fn sandy_bridge() -> Self {
        Self {
            l1_dtlb: TlbConfig::l1_dtlb_64(),
            l2_stlb: TlbConfig::l2_stlb_512(),
            l1_dtlb_huge: TlbConfig::l1_dtlb_huge_32(),
            paging_caches: PagingCacheConfig::sandy_bridge(),
            tlb_lookup_latency: 1,
            stlb_lookup_latency: 6,
            walk_step_latency: 2,
        }
    }

    /// Validates every component.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid component.
    pub fn validate(&self) -> Result<(), String> {
        self.l1_dtlb.validate()?;
        self.l2_stlb.validate()?;
        self.l1_dtlb_huge.validate()?;
        if self.paging_caches.pde_entries == 0 {
            return Err("PDE cache must have at least one entry".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_tlb_sizes() {
        assert_eq!(TlbConfig::l1_dtlb_64().entries(), 64);
        assert_eq!(TlbConfig::l2_stlb_512().entries(), 512);
        assert_eq!(TlbConfig::l1_dtlb_64().ways, 4);
        assert_eq!(TlbConfig::l2_stlb_512().ways, 4);
    }

    #[test]
    fn presets_validate() {
        assert!(MmuConfig::sandy_bridge().validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_values() {
        let mut cfg = MmuConfig::sandy_bridge();
        cfg.l1_dtlb.sets = 3;
        assert!(cfg.validate().is_err());
        let mut cfg = MmuConfig::sandy_bridge();
        cfg.paging_caches.pde_entries = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_rejects_associativity_above_the_kernel_width() {
        let mut cfg = TlbConfig::l2_stlb_512();
        cfg.ways = 16;
        assert!(cfg.validate().is_ok());
        cfg.ways = 17;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("at most 16"), "{err}");
    }
}
