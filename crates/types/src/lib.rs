//! Shared primitive types for the PThammer reproduction.
//!
//! Every other crate in the workspace builds on the newtypes and traits defined
//! here: physical/virtual addresses, simulated cycle counts, page sizes, access
//! outcomes, and the [`PhysicalMemoryAccess`] trait through which the MMU's
//! page-table walker issues implicit loads.
//!
//! # Examples
//!
//! ```
//! use pthammer_types::{PhysAddr, VirtAddr, Cycles, PAGE_SIZE};
//!
//! let pa = PhysAddr::new(0x1234_5000);
//! assert_eq!(pa.frame_number(), 0x1234_5);
//! assert_eq!(pa.page_offset(), 0);
//!
//! let va = VirtAddr::new(0x7f00_dead_b000);
//! assert_eq!(va.page_number(), 0x7f00_dead_b000 / PAGE_SIZE);
//!
//! let t = Cycles::new(2_600_000_000);
//! assert!((t.as_seconds(2.6e9) - 1.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod addr;
mod cycles;
mod flip;
mod hash;
mod lanes;
mod page;

pub use access::{AccessKind, MemAccessOutcome, MemoryLevel, PhysicalMemoryAccess};
pub use addr::{PhysAddr, VirtAddr};
pub use cycles::Cycles;
pub use flip::{CellOrientation, FlipDirection};
pub use hash::{DetHashBuilder, DetHashMap, DetHashSet, DetHasher};
pub use lanes::{Fingerprint, LaneCount, LaneSink, LaneSource, Lanes, LanesDiff};
pub use page::PageSize;

/// Size of a base (4 KiB) page in bytes.
pub const PAGE_SIZE: u64 = 4096;
/// Size of a huge (2 MiB) superpage in bytes.
pub const HUGE_PAGE_SIZE: u64 = 2 * 1024 * 1024;
/// Size of a cache line in bytes.
pub const CACHE_LINE_SIZE: u64 = 64;
/// Size of a page-table entry in bytes.
pub const PTE_SIZE: u64 = 8;
/// Number of page-table entries per page-table page.
pub const PTES_PER_TABLE: u64 = PAGE_SIZE / PTE_SIZE;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        assert_eq!(PTES_PER_TABLE, 512);
        assert_eq!(HUGE_PAGE_SIZE, PAGE_SIZE * PTES_PER_TABLE);
        assert_eq!(PAGE_SIZE % CACHE_LINE_SIZE, 0);
    }
}
