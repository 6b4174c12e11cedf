//! The MMU proper: TLB lookup, paging-structure-cache consultation and the
//! hardware page-table walk (Figure 2 of the paper).

use serde::Serialize;

use pthammer_types::{
    Cycles, LaneSink, LaneSource, MemoryLevel, PageSize, PhysAddr, PhysicalMemoryAccess, VirtAddr,
    PTE_SIZE,
};

use crate::{
    config::MmuConfig,
    paging_cache::{PagingStructureCache, PscLevel},
    pte::Pte,
    tlb::{TlbEntry, TlbFootprint, TlbHierarchy, TlbLevel},
};

/// A translation fault (non-present entry encountered during the walk).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PageFault {
    /// Faulting virtual address.
    pub vaddr: VirtAddr,
    /// Page-table level at which the walk found a non-present entry.
    pub level: u8,
}

/// The result of translating one virtual address ([`Mmu::translate_touch`]
/// and [`Mmu::translate_deferred`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TouchTranslation {
    /// Translated physical address, or `None` if the walk faulted.
    pub paddr: Option<PhysAddr>,
    /// Fault information when `paddr` is `None`.
    pub fault: Option<PageFault>,
    /// Size of the mapping that served the translation.
    pub page_size: PageSize,
    /// Total translation latency (TLB lookups + walk).
    pub latency: Cycles,
    /// TLB level that served the translation, if any.
    pub tlb_hit: Option<TlbLevel>,
    /// Paging-structure cache that provided a partial translation, if any.
    pub psc_hit: Option<PscLevel>,
    /// Whether the walk loaded the Level-1 PTE from DRAM (the implicit
    /// hammer blow).
    pub l1pte_from_dram: bool,
    /// Physical address of the Level-1 PTE the walk loaded, if it reached
    /// level 1.
    pub l1pte: Option<PhysAddr>,
}

/// The memory-management unit of one core.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Mmu {
    config: MmuConfig,
    tlbs: TlbHierarchy,
    pde_cache: PagingStructureCache,
    pdpte_cache: PagingStructureCache,
    pml4e_cache: PagingStructureCache,
}

impl Mmu {
    /// Creates an MMU from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: MmuConfig) -> Self {
        config.validate().expect("invalid MMU configuration");
        Self {
            tlbs: TlbHierarchy::new(&config),
            pde_cache: PagingStructureCache::new(
                PscLevel::Pde,
                config.paging_caches.pde_entries as usize,
            ),
            pdpte_cache: PagingStructureCache::new(
                PscLevel::Pdpte,
                config.paging_caches.pdpte_entries as usize,
            ),
            pml4e_cache: PagingStructureCache::new(
                PscLevel::Pml4e,
                config.paging_caches.pml4e_entries as usize,
            ),
            config,
        }
    }

    /// The configuration of this MMU.
    pub fn config(&self) -> &MmuConfig {
        &self.config
    }

    /// The TLB hierarchy (read access, e.g. for the evaluation oracle).
    pub fn tlbs(&self) -> &TlbHierarchy {
        &self.tlbs
    }

    /// The PDE paging-structure cache (read access for tests / oracle).
    pub fn pde_cache(&self) -> &PagingStructureCache {
        &self.pde_cache
    }

    /// Invalidates all cached translation state for the page containing
    /// `vaddr` (TLBs and paging-structure caches). Models `invlpg`; only the
    /// kernel substrate uses this.
    pub fn invalidate_page(&mut self, vaddr: VirtAddr) {
        self.tlbs.invalidate(vaddr);
        self.pde_cache.invalidate(vaddr);
        self.pdpte_cache.invalidate(vaddr);
        self.pml4e_cache.invalidate(vaddr);
    }

    /// Flushes every TLB entry and paging-structure cache entry (CR3 reload).
    pub fn flush_all(&mut self) {
        self.tlbs.flush_all();
        self.pde_cache.flush_all();
        self.pdpte_cache.flush_all();
        self.pml4e_cache.flush_all();
    }

    /// The TLB sets `vaddrs` map to (the paging-structure caches are small
    /// and fully associative, so they are always read whole).
    pub fn footprint(&self, vaddrs: &[VirtAddr]) -> TlbFootprint {
        self.tlbs.footprint(vaddrs)
    }

    /// Records the footprint's TLB sets, the TLB counters and the three
    /// paging-structure caches as [`LaneSink`].
    pub fn read_footprint(&self, fp: &TlbFootprint, lanes: &mut impl LaneSink) {
        self.tlbs.read_footprint(fp, lanes);
        for psc in [&self.pde_cache, &self.pdpte_cache, &self.pml4e_cache] {
            psc.read_lanes(lanes);
        }
    }

    /// Writes back the lanes of [`Mmu::read_footprint`].
    pub fn write_footprint(&mut self, fp: &TlbFootprint, source: &mut LaneSource) {
        self.tlbs.write_footprint(fp, source);
        for psc in [
            &mut self.pde_cache,
            &mut self.pdpte_cache,
            &mut self.pml4e_cache,
        ] {
            psc.write_lanes(source);
        }
    }

    /// Translates `vaddr` under the address space rooted at `cr3`: the TLB
    /// lookup, then on a miss the paging-structure caches and the page-table
    /// walk, whose entry loads go through `mem`, and the TLB refill.
    pub fn translate_touch(
        &mut self,
        cr3: PhysAddr,
        vaddr: VirtAddr,
        mem: &mut impl PhysicalMemoryAccess,
    ) -> TouchTranslation {
        self.translate_core::<false>(cr3, vaddr, mem)
    }

    /// [`Mmu::translate_touch`] of a page that no TLB holds, so its lookup
    /// misses every level and changes nothing but the counters: the probe
    /// is skipped and a 4 KiB refill is deferred to
    /// [`Mmu::apply_refills`]. A 2 MiB refill is applied at once.
    pub fn translate_deferred(
        &mut self,
        cr3: PhysAddr,
        vaddr: VirtAddr,
        mem: &mut impl PhysicalMemoryAccess,
    ) -> TouchTranslation {
        self.translate_core::<true>(cr3, vaddr, mem)
    }

    /// Applies the TLB refills deferred since the last call, in order.
    pub fn apply_refills(&mut self) {
        self.tlbs.apply_refills();
    }

    /// Records `pages` walks whose TLB lookups missed every level and whose
    /// 4 KiB refills the caller defers with [`Mmu::defer_refill`].
    pub fn count_walks(&mut self, pages: u64) {
        self.tlbs.count_walks(pages);
    }

    /// Defers the TLB refill of a 4 KiB translation walked without a probe.
    pub fn defer_refill(&mut self, entry: TlbEntry) {
        self.tlbs.defer_refill(entry);
    }

    /// Records `hits` PDE-cache hits on the entry covering `vaddr` (see
    /// [`PagingStructureCache::hit_run`]).
    pub fn pde_hit_run(&mut self, vaddr: VirtAddr, hits: u64) {
        self.pde_cache.hit_run(vaddr, hits);
    }

    /// The shared translation engine. With `DEFER`, the TLB probe is
    /// skipped (the caller knows it misses) and a 4 KiB refill is deferred.
    #[inline(always)]
    fn translate_core<const DEFER: bool>(
        &mut self,
        cr3: PhysAddr,
        vaddr: VirtAddr,
        mem: &mut impl PhysicalMemoryAccess,
    ) -> TouchTranslation {
        let mut latency = Cycles::new(u64::from(self.config.tlb_lookup_latency));

        if DEFER {
            self.tlbs.count_walks(1);
        } else if let Some((level, entry)) = self.tlbs.lookup(vaddr) {
            if level == TlbLevel::L2 {
                latency += Cycles::new(u64::from(self.config.stlb_lookup_latency));
            }
            return TouchTranslation {
                paddr: Some(entry.translate(vaddr)),
                fault: None,
                page_size: entry.page_size,
                latency,
                tlb_hit: Some(level),
                psc_hit: None,
                l1pte_from_dram: false,
                l1pte: None,
            };
        }
        // Both TLB levels were probed before declaring a walk.
        latency += Cycles::new(u64::from(self.config.stlb_lookup_latency));

        // Consult the paging-structure caches, nearest-to-leaf first.
        let (mut level, mut table_base, psc_hit) = if let Some(pt) = self.pde_cache.lookup(vaddr) {
            (1u8, pt, Some(PscLevel::Pde))
        } else if let Some(pd) = self.pdpte_cache.lookup(vaddr) {
            (2u8, pd, Some(PscLevel::Pdpte))
        } else if let Some(pdpt) = self.pml4e_cache.lookup(vaddr) {
            (3u8, pdpt, Some(PscLevel::Pml4e))
        } else {
            (4u8, cr3, None)
        };

        let mut l1pte_from_dram = false;
        let mut l1pte = None;
        let fault = |level, latency, l1pte_from_dram, l1pte| TouchTranslation {
            paddr: None,
            fault: Some(PageFault { vaddr, level }),
            page_size: PageSize::Base4K,
            latency,
            tlb_hit: None,
            psc_hit,
            l1pte_from_dram,
            l1pte,
        };
        loop {
            let entry_paddr = table_base + vaddr.pt_index(level) * PTE_SIZE;
            if !mem.is_installed(entry_paddr) {
                // A table pointer past installed DRAM (e.g. a flipped frame
                // bit in an upper-level entry) faults, as a leaf pointing
                // there does on the data path.
                return fault(level, latency, l1pte_from_dram, l1pte);
            }
            let (raw, outcome) = mem.load_qword(entry_paddr);
            let value = Pte::from_raw(raw);
            latency += outcome.latency;
            latency += Cycles::new(u64::from(self.config.walk_step_latency));
            if level == 1 {
                l1pte_from_dram = outcome.served_by == MemoryLevel::Dram;
                l1pte = Some(entry_paddr);
            }

            if !value.present() {
                return fault(level, latency, l1pte_from_dram, l1pte);
            }

            let leaf = match level {
                2 if value.huge() => Some(PageSize::Huge2M),
                1 => Some(PageSize::Base4K),
                _ => None,
            };
            if let Some(page_size) = leaf {
                let frame = value.frame();
                let entry = TlbEntry {
                    vpn: vaddr.as_u64() / page_size.bytes(),
                    frame,
                    pte: value,
                    page_size,
                };
                if DEFER && page_size == PageSize::Base4K {
                    self.tlbs.defer_refill(entry);
                } else {
                    self.tlbs.insert(entry);
                }
                return TouchTranslation {
                    paddr: Some(entry.translate(vaddr)),
                    fault: None,
                    page_size,
                    latency,
                    tlb_hit: None,
                    psc_hit,
                    l1pte_from_dram,
                    l1pte,
                };
            }

            // Intermediate level: cache the partial translation and descend.
            match level {
                4 => self.pml4e_cache.insert(vaddr, value.frame()),
                3 => self.pdpte_cache.insert(vaddr, value.frame()),
                2 => self.pde_cache.insert(vaddr, value.frame()),
                _ => unreachable!("levels below 2 are handled above"),
            }
            table_base = value.frame();
            level -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pte::PteFlags;
    use pthammer_types::{MemAccessOutcome, MemoryLevel, PAGE_SIZE};
    use std::collections::HashMap;

    /// Flat qword-addressed test memory with fixed latency.
    struct FlatMem {
        words: HashMap<u64, u64>,
        latency: u64,
        loads: Vec<PhysAddr>,
    }

    impl FlatMem {
        fn new() -> Self {
            Self {
                words: HashMap::new(),
                latency: 10,
                loads: Vec::new(),
            }
        }

        fn write(&mut self, paddr: u64, value: u64) {
            self.words.insert(paddr, value);
        }
    }

    impl PhysicalMemoryAccess for FlatMem {
        fn load_qword(&mut self, paddr: PhysAddr) -> (u64, MemAccessOutcome) {
            self.loads.push(paddr);
            let v = *self.words.get(&paddr.as_u64()).unwrap_or(&0);
            (
                v,
                MemAccessOutcome::cache_hit(paddr, MemoryLevel::Dram, Cycles::new(self.latency)),
            )
        }
        fn store_qword(&mut self, paddr: PhysAddr, value: u64) -> MemAccessOutcome {
            self.words.insert(paddr.as_u64(), value);
            MemAccessOutcome::cache_hit(paddr, MemoryLevel::L1, Cycles::new(self.latency))
        }
    }

    const CR3: u64 = 0x100_000;
    const PDPT: u64 = 0x101_000;
    const PD: u64 = 0x102_000;
    const PT: u64 = 0x103_000;

    /// Builds a 4-level mapping for `vaddr` -> `frame` in the flat memory.
    fn map_page(mem: &mut FlatMem, vaddr: VirtAddr, frame: u64) {
        mem.write(
            CR3 + vaddr.pt_index(4) * 8,
            Pte::table(PhysAddr::new(PDPT)).raw(),
        );
        mem.write(
            PDPT + vaddr.pt_index(3) * 8,
            Pte::table(PhysAddr::new(PD)).raw(),
        );
        mem.write(
            PD + vaddr.pt_index(2) * 8,
            Pte::table(PhysAddr::new(PT)).raw(),
        );
        mem.write(
            PT + vaddr.pt_index(1) * 8,
            Pte::page(PhysAddr::new(frame), PteFlags::user_rw()).raw(),
        );
    }

    fn mmu() -> Mmu {
        Mmu::new(MmuConfig::sandy_bridge())
    }

    #[test]
    fn full_walk_then_tlb_hit() {
        let mut mem = FlatMem::new();
        let vaddr = VirtAddr::new(0x40_0000_1234);
        map_page(&mut mem, vaddr, 0x7_0000);
        let mut mmu = mmu();

        let first = mmu.translate_touch(PhysAddr::new(CR3), vaddr, &mut mem);
        // Page offset of 0x...1234 within its 4 KiB page is 0x234.
        assert_eq!(first.paddr, Some(PhysAddr::new(0x7_0234)));
        assert_eq!(first.tlb_hit, None);
        assert_eq!(first.psc_hit, None);
        assert_eq!(mem.loads.len(), 4, "PML4E, PDPTE, PDE and PTE");

        let second = mmu.translate_touch(PhysAddr::new(CR3), vaddr, &mut mem);
        assert_eq!(second.paddr, first.paddr);
        assert_eq!(second.tlb_hit, Some(TlbLevel::L1));
        assert_eq!(mem.loads.len(), 4, "a TLB hit loads nothing");
        assert!(second.latency < first.latency);
    }

    #[test]
    fn pde_cache_shortcuts_walk_to_l1pte_only() {
        let mut mem = FlatMem::new();
        let base = 0x40_0000_0000u64;
        let a = VirtAddr::new(base);
        let b = VirtAddr::new(base + PAGE_SIZE); // same 2 MiB region, different L1PTE
        map_page(&mut mem, a, 0x7_0000);
        map_page(&mut mem, b, 0x8_0000);
        let mut mmu = mmu();

        // First translation warms the paging-structure caches.
        mmu.translate_touch(PhysAddr::new(CR3), a, &mut mem);
        mem.loads.clear();
        // Second translation of a *different page in the same PD entry* should
        // only load the Level-1 PTE — the PThammer fast path.
        let res = mmu.translate_touch(PhysAddr::new(CR3), b, &mut mem);
        assert_eq!(res.paddr, Some(PhysAddr::new(0x8_0000)));
        assert_eq!(res.psc_hit, Some(PscLevel::Pde));
        assert_eq!(mem.loads, vec![PhysAddr::new(PT + 8)], "the L1PTE only");
        assert_eq!(res.l1pte, Some(PhysAddr::new(PT + 8)));
    }

    #[test]
    fn invalidate_page_forces_new_walk() {
        let mut mem = FlatMem::new();
        let vaddr = VirtAddr::new(0x1234_5000);
        map_page(&mut mem, vaddr, 0x9_0000);
        let mut mmu = mmu();
        mmu.translate_touch(PhysAddr::new(CR3), vaddr, &mut mem);
        mmu.invalidate_page(vaddr);
        mem.loads.clear();
        let res = mmu.translate_touch(PhysAddr::new(CR3), vaddr, &mut mem);
        assert_eq!(res.tlb_hit, None);
        assert!(!mem.loads.is_empty());
    }

    #[test]
    fn fault_on_non_present_entry() {
        let mut mem = FlatMem::new();
        let vaddr = VirtAddr::new(0x5000_0000);
        // Only map down to the PD level; leave the PTE absent.
        mem.write(
            CR3 + vaddr.pt_index(4) * 8,
            Pte::table(PhysAddr::new(PDPT)).raw(),
        );
        mem.write(
            PDPT + vaddr.pt_index(3) * 8,
            Pte::table(PhysAddr::new(PD)).raw(),
        );
        mem.write(
            PD + vaddr.pt_index(2) * 8,
            Pte::table(PhysAddr::new(PT)).raw(),
        );
        let mut mmu = mmu();
        let res = mmu.translate_touch(PhysAddr::new(CR3), vaddr, &mut mem);
        assert_eq!(res.paddr, None);
        assert_eq!(res.fault, Some(PageFault { vaddr, level: 1 }));
        // The fault is not cached: translating again walks again.
        let res2 = mmu.translate_touch(PhysAddr::new(CR3), vaddr, &mut mem);
        assert!(res2.fault.is_some());
    }

    #[test]
    fn huge_page_translation_stops_at_pde() {
        let mut mem = FlatMem::new();
        let vaddr = VirtAddr::new(0x8000_0000 + 0x12_3456);
        let huge_frame = 0x4000_0000u64; // 2 MiB aligned
        mem.write(
            CR3 + vaddr.pt_index(4) * 8,
            Pte::table(PhysAddr::new(PDPT)).raw(),
        );
        mem.write(
            PDPT + vaddr.pt_index(3) * 8,
            Pte::table(PhysAddr::new(PD)).raw(),
        );
        mem.write(
            PD + vaddr.pt_index(2) * 8,
            Pte::page(PhysAddr::new(huge_frame), PteFlags::user_rw_huge()).raw(),
        );
        let mut mmu = mmu();
        let res = mmu.translate_touch(PhysAddr::new(CR3), vaddr, &mut mem);
        assert_eq!(res.page_size, PageSize::Huge2M);
        assert_eq!(res.paddr, Some(PhysAddr::new(huge_frame + 0x12_3456)));
        assert_eq!(mem.loads.len(), 3, "PML4E, PDPTE, PDE only");
        // Subsequent access hits the huge-page TLB.
        let res2 = mmu.translate_touch(PhysAddr::new(CR3), vaddr, &mut mem);
        assert_eq!(res2.tlb_hit, Some(TlbLevel::L1));
        assert_eq!(res2.page_size, PageSize::Huge2M);
    }

    #[test]
    fn walk_latency_includes_memory_latencies() {
        let mut mem = FlatMem::new();
        mem.latency = 100;
        let vaddr = VirtAddr::new(0x1000);
        map_page(&mut mem, vaddr, 0x7_0000);
        let mut mmu = mmu();
        let res = mmu.translate_touch(PhysAddr::new(CR3), vaddr, &mut mem);
        // 4 loads at 100 cycles each plus overheads.
        assert!(res.latency.as_u64() >= 400);
    }

    #[test]
    fn walk_reads_expected_entry_addresses() {
        let mut mem = FlatMem::new();
        let vaddr = VirtAddr::new(0x40_0000_1000);
        map_page(&mut mem, vaddr, 0x7_0000);
        let mut mmu = mmu();
        mmu.translate_touch(PhysAddr::new(CR3), vaddr, &mut mem);
        assert_eq!(
            mem.loads,
            vec![
                PhysAddr::new(CR3 + vaddr.pt_index(4) * 8),
                PhysAddr::new(PDPT + vaddr.pt_index(3) * 8),
                PhysAddr::new(PD + vaddr.pt_index(2) * 8),
                PhysAddr::new(PT + vaddr.pt_index(1) * 8),
            ]
        );
    }

    /// A deferred translation of a page no TLB holds walks exactly as a
    /// probing one and, once its refill is applied, leaves the same MMU.
    #[test]
    fn deferred_translation_matches_probing_after_the_refill() {
        let mut mem = FlatMem::new();
        let vaddrs: Vec<VirtAddr> = (0..40u64)
            .map(|i| VirtAddr::new(0x40_0000_0000 + i * 7 * PAGE_SIZE))
            .collect();
        for (i, &va) in vaddrs.iter().enumerate() {
            map_page(&mut mem, va, 0x7_0000 + i as u64 * PAGE_SIZE);
        }
        let mut probing = mmu();
        let mut deferring = mmu();
        for &va in &vaddrs {
            let want = probing.translate_touch(PhysAddr::new(CR3), va, &mut mem);
            let got = deferring.translate_deferred(PhysAddr::new(CR3), va, &mut mem);
            assert_eq!(got, want);
        }
        assert_ne!(deferring, probing, "the refills are still pending");
        deferring.apply_refills();
        assert_eq!(deferring, probing);
    }
}
