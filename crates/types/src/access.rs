//! Memory access kinds, outcomes and the physical-memory access trait used by
//! the page-table walker.

use core::fmt;

use serde::Serialize;

use crate::{Cycles, PhysAddr};

/// Whether a memory access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl AccessKind {
    /// Returns true for writes.
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "read"),
            AccessKind::Write => write!(f, "write"),
        }
    }
}

/// The level of the memory hierarchy that served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum MemoryLevel {
    /// Level-1 data cache.
    L1,
    /// Level-2 unified cache.
    L2,
    /// Last-level (level-3) cache.
    Llc,
    /// DRAM main memory.
    Dram,
}

impl MemoryLevel {
    /// Returns true when the access had to go all the way to DRAM.
    pub const fn is_dram(self) -> bool {
        matches!(self, MemoryLevel::Dram)
    }
}

impl fmt::Display for MemoryLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryLevel::L1 => write!(f, "L1"),
            MemoryLevel::L2 => write!(f, "L2"),
            MemoryLevel::Llc => write!(f, "LLC"),
            MemoryLevel::Dram => write!(f, "DRAM"),
        }
    }
}

/// The outcome of a single physical memory access through the cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct MemAccessOutcome {
    /// Physical address that was accessed (cache-line granularity semantics).
    pub paddr: PhysAddr,
    /// Level of the hierarchy that served the access.
    pub served_by: MemoryLevel,
    /// Modelled latency of the access.
    pub latency: Cycles,
    /// Whether the DRAM access (if any) hit the open row buffer.
    pub row_buffer_hit: bool,
}

impl MemAccessOutcome {
    /// Convenience constructor for an access served by a cache level.
    pub fn cache_hit(paddr: PhysAddr, level: MemoryLevel, latency: Cycles) -> Self {
        Self {
            paddr,
            served_by: level,
            latency,
            row_buffer_hit: false,
        }
    }
}

/// Access to physical memory with modelled timing.
///
/// The MMU's page-table walker is the confused deputy at the heart of
/// PThammer: it issues loads of page-table entries on behalf of an
/// unprivileged access. The walker is written against this trait so that it
/// can be driven by the full machine (caches + DRAM + sparse physical memory)
/// in production and by lightweight fakes in unit tests.
pub trait PhysicalMemoryAccess {
    /// Loads the naturally-aligned 64-bit word at `paddr` through the memory
    /// hierarchy, returning the value and the access outcome (latency, level).
    fn load_qword(&mut self, paddr: PhysAddr) -> (u64, MemAccessOutcome);

    /// Stores the naturally-aligned 64-bit word at `paddr` through the memory
    /// hierarchy, returning the access outcome.
    fn store_qword(&mut self, paddr: PhysAddr, value: u64) -> MemAccessOutcome;

    /// Whether the 64-bit word at `paddr` lies in installed memory. The
    /// walker faults instead of loading a table entry outside it. The
    /// default treats every address as installed.
    fn is_installed(&self, paddr: PhysAddr) -> bool {
        let _ = paddr;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_kind_predicates() {
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
        assert_eq!(AccessKind::Read.to_string(), "read");
    }

    #[test]
    fn memory_level_ordering_matches_distance() {
        assert!(MemoryLevel::L1 < MemoryLevel::L2);
        assert!(MemoryLevel::L2 < MemoryLevel::Llc);
        assert!(MemoryLevel::Llc < MemoryLevel::Dram);
        assert!(MemoryLevel::Dram.is_dram());
        assert!(!MemoryLevel::Llc.is_dram());
    }

    #[test]
    fn outcome_constructor() {
        let o = MemAccessOutcome::cache_hit(PhysAddr::new(64), MemoryLevel::L2, Cycles::new(12));
        assert_eq!(o.served_by, MemoryLevel::L2);
        assert_eq!(o.latency, Cycles::new(12));
        assert!(!o.row_buffer_hit);
    }
}
