//! Simulated MMU for the PThammer reproduction: TLBs, paging-structure
//! caches, and the 4-level page-table walker that acts as PThammer's
//! confused deputy.
//!
//! The translation path mirrors Figure 2 of the paper: a lookup first probes
//! the L1 dTLB and L2 sTLB; on a miss it consults the PDE / PDPTE / PML4E
//! paging-structure caches to skip part of the walk; whatever remains of the
//! walk issues *implicit physical loads* of page-table entries through the
//! cache hierarchy and, when those lines are not cached, from DRAM. PThammer
//! arranges for exactly one such load — the Level-1 PTE — to reach DRAM on
//! every hammering iteration.
//!
//! # Examples
//!
//! ```
//! use pthammer_mmu::{Mmu, MmuConfig, PteFlags, Pte};
//! use pthammer_types::{PhysAddr, VirtAddr, PhysicalMemoryAccess, MemAccessOutcome, Cycles, MemoryLevel};
//! use std::collections::HashMap;
//!
//! // A trivial flat physical memory for the walker to read page tables from.
//! struct FlatMem(HashMap<u64, u64>);
//! impl PhysicalMemoryAccess for FlatMem {
//!     fn load_qword(&mut self, paddr: PhysAddr) -> (u64, MemAccessOutcome) {
//!         let v = *self.0.get(&paddr.as_u64()).unwrap_or(&0);
//!         (v, MemAccessOutcome::cache_hit(paddr, MemoryLevel::L1, Cycles::new(4)))
//!     }
//!     fn store_qword(&mut self, paddr: PhysAddr, value: u64) -> MemAccessOutcome {
//!         self.0.insert(paddr.as_u64(), value);
//!         MemAccessOutcome::cache_hit(paddr, MemoryLevel::L1, Cycles::new(4))
//!     }
//! }
//!
//! // Build a one-page mapping: VA 0x1000 -> PA 0x5000.
//! let mut mem = FlatMem(HashMap::new());
//! let cr3 = PhysAddr::new(0x10_000);
//! let pdpt = 0x11_000u64;
//! let pd = 0x12_000u64;
//! let pt = 0x13_000u64;
//! mem.0.insert(cr3.as_u64(), Pte::table(PhysAddr::new(pdpt)).raw());
//! mem.0.insert(pdpt, Pte::table(PhysAddr::new(pd)).raw());
//! mem.0.insert(pd, Pte::table(PhysAddr::new(pt)).raw());
//! mem.0.insert(pt + 8, Pte::page(PhysAddr::new(0x5000), PteFlags::user_rw()).raw());
//!
//! let mut mmu = Mmu::new(MmuConfig::sandy_bridge(1));
//! let res = mmu.translate_touch(cr3, VirtAddr::new(0x1234), &mut mem);
//! assert_eq!(res.paddr, Some(PhysAddr::new(0x5234)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod paging_cache;
mod pte;
mod tlb;
mod translate;

pub use config::{MmuConfig, PagingCacheConfig, TlbConfig, TlbIndexing};
pub use paging_cache::{PagingStructureCache, PscLevel};
pub use pte::{Pte, PteFlags};
pub use tlb::{Tlb, TlbEntry, TlbFootprint, TlbHierarchy, TlbLevel, TlbPmc, MAX_DEFERRED_REFILLS};
pub use translate::{Mmu, PageFault, TouchTranslation};
