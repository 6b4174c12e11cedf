//! The MMU proper: TLB lookup, paging-structure-cache consultation and the
//! hardware page-table walk (Figure 2 of the paper).

use serde::Serialize;

use pthammer_types::{
    Cycles, LaneSink, LaneSource, MemAccessOutcome, MemoryLevel, PageSize, PhysAddr,
    PhysicalMemoryAccess, VirtAddr, PTE_SIZE,
};

use crate::{
    config::MmuConfig,
    paging_cache::{PagingStructureCache, PscLevel},
    pte::Pte,
    tlb::{TlbEntry, TlbFootprint, TlbHierarchy, TlbLevel},
};

/// One page-table-entry load issued by the hardware walker.
///
/// These are the *implicit accesses* PThammer turns into hammer blows: when
/// the Level-1 PTE load is served by DRAM (`outcome.served_by == Dram`), the
/// DRAM row holding the victim process's page table is activated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct WalkLoad {
    /// Page-table level of the entry (4 = PML4E … 1 = PTE).
    pub level: u8,
    /// Physical address of the entry that was loaded.
    pub entry_paddr: PhysAddr,
    /// Memory-hierarchy outcome of the load.
    pub outcome: MemAccessOutcome,
    /// The entry value that was read.
    pub value: Pte,
}

/// A translation fault (non-present entry encountered during the walk).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PageFault {
    /// Faulting virtual address.
    pub vaddr: VirtAddr,
    /// Page-table level at which the walk found a non-present entry.
    pub level: u8,
}

/// The page-table-entry loads of one walk, stored inline (a 4-level walk
/// loads at most four entries) so the translation hot path never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalkLoads {
    loads: [Option<WalkLoad>; 4],
    len: u8,
}

impl WalkLoads {
    /// Number of recorded loads.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// True when the walk performed no loads (TLB hit).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the recorded loads in walk order.
    pub fn iter(&self) -> impl Iterator<Item = &WalkLoad> {
        self.loads[..usize::from(self.len)]
            .iter()
            .map(|slot| slot.as_ref().expect("recorded slot"))
    }

    #[inline]
    fn push(&mut self, load: WalkLoad) {
        self.loads[usize::from(self.len)] = Some(load);
        self.len += 1;
    }
}

impl core::ops::Index<usize> for WalkLoads {
    type Output = WalkLoad;

    fn index(&self, index: usize) -> &WalkLoad {
        assert!(index < self.len(), "walk load index out of range");
        self.loads[index].as_ref().expect("recorded slot")
    }
}

/// The complete result of translating one virtual address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranslationResult {
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
    /// Page-table-entry loads performed by the walker (empty on a TLB hit).
    pub walk_loads: WalkLoads,
}

/// The slim result of [`Mmu::translate_touch`]: what a batched touch needs
/// and nothing more, so the hot path moves ~40 bytes instead of the full
/// [`TranslationResult`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TouchTranslation {
    /// Translated physical address, or `None` if the walk faulted.
    pub paddr: Option<PhysAddr>,
    /// Fault information when `paddr` is `None`.
    pub fault: Option<PageFault>,
    /// Total translation latency (TLB lookups + walk).
    pub latency: Cycles,
    /// Whether the walk loaded the Level-1 PTE from DRAM (the implicit
    /// hammer blow).
    pub l1pte_from_dram: bool,
}

impl TranslationResult {
    /// True when the walk loaded exactly one entry and it was the Level-1 PTE —
    /// the efficient implicit-access path PThammer engineers (red arrows in
    /// Figure 2).
    pub fn is_l1pte_only_walk(&self) -> bool {
        self.walk_loads.len() == 1 && self.walk_loads[0].level == 1
    }

    /// The Level-1 PTE load of this translation, if the walk reached level 1.
    pub fn l1pte_load(&self) -> Option<&WalkLoad> {
        self.walk_loads.iter().find(|l| l.level == 1)
    }
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

    /// Translates `vaddr` under the address space rooted at `cr3`, issuing
    /// any required page-table loads through `mem`.
    pub fn translate(
        &mut self,
        cr3: PhysAddr,
        vaddr: VirtAddr,
        mem: &mut impl PhysicalMemoryAccess,
    ) -> TranslationResult {
        let mut walk_loads = WalkLoads::default();
        let core = self.translate_core(cr3, vaddr, mem, &mut |load| walk_loads.push(load));
        TranslationResult {
            paddr: core.paddr,
            fault: core.fault,
            page_size: core.page_size,
            latency: core.latency,
            tlb_hit: core.tlb_hit,
            psc_hit: core.psc_hit,
            walk_loads,
        }
    }

    /// Slim translation for batched touches: performs exactly the same TLB,
    /// paging-structure-cache and page-table-load sequence as
    /// [`Mmu::translate`] — the simulated state transitions are identical —
    /// but records no walk loads and returns only the [`TouchTranslation`]
    /// the batch driver needs. This is the walker entry point of the
    /// eviction-set hot path.
    pub fn translate_touch(
        &mut self,
        cr3: PhysAddr,
        vaddr: VirtAddr,
        mem: &mut impl PhysicalMemoryAccess,
    ) -> TouchTranslation {
        let core = self.translate_core(cr3, vaddr, mem, &mut |_| {});
        TouchTranslation {
            paddr: core.paddr,
            fault: core.fault,
            latency: core.latency,
            l1pte_from_dram: core.l1pte_from_dram,
        }
    }

    /// The shared translation engine behind [`Mmu::translate`] and
    /// [`Mmu::translate_touch`]; `record` observes every page-table load.
    #[inline]
    fn translate_core(
        &mut self,
        cr3: PhysAddr,
        vaddr: VirtAddr,
        mem: &mut impl PhysicalMemoryAccess,
        record: &mut impl FnMut(WalkLoad),
    ) -> CoreTranslation {
        let mut latency = Cycles::new(u64::from(self.config.tlb_lookup_latency));

        if let Some((level, entry)) = self.tlbs.lookup(vaddr) {
            if level == TlbLevel::L2 {
                latency += Cycles::new(u64::from(self.config.stlb_lookup_latency));
            }
            return CoreTranslation {
                paddr: Some(entry.translate(vaddr)),
                fault: None,
                page_size: entry.page_size,
                latency,
                tlb_hit: Some(level),
                psc_hit: None,
                l1pte_from_dram: false,
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
        loop {
            let entry_paddr = table_base + vaddr.pt_index(level) * PTE_SIZE;
            if !mem.is_installed(entry_paddr) {
                // A table pointer past installed DRAM (e.g. a flipped frame
                // bit in an upper-level entry) faults, as a leaf pointing
                // there does on the data path.
                return CoreTranslation {
                    paddr: None,
                    fault: Some(PageFault { vaddr, level }),
                    page_size: PageSize::Base4K,
                    latency,
                    tlb_hit: None,
                    psc_hit,
                    l1pte_from_dram,
                };
            }
            let (raw, outcome) = mem.load_qword(entry_paddr);
            let value = Pte::from_raw(raw);
            latency += outcome.latency;
            latency += Cycles::new(u64::from(self.config.walk_step_latency));
            if level == 1 {
                l1pte_from_dram = outcome.served_by == MemoryLevel::Dram;
            }
            record(WalkLoad {
                level,
                entry_paddr,
                outcome,
                value,
            });

            if !value.present() {
                return CoreTranslation {
                    paddr: None,
                    fault: Some(PageFault { vaddr, level }),
                    page_size: PageSize::Base4K,
                    latency,
                    tlb_hit: None,
                    psc_hit,
                    l1pte_from_dram,
                };
            }

            if level == 2 && value.huge() {
                let frame = value.frame();
                let entry = TlbEntry {
                    vpn: vaddr.as_u64() / PageSize::Huge2M.bytes(),
                    frame,
                    pte: value,
                    page_size: PageSize::Huge2M,
                };
                self.tlbs.insert(entry);
                return CoreTranslation {
                    paddr: Some(frame + vaddr.huge_page_offset()),
                    fault: None,
                    page_size: PageSize::Huge2M,
                    latency,
                    tlb_hit: None,
                    psc_hit,
                    l1pte_from_dram,
                };
            }

            if level == 1 {
                let frame = value.frame();
                let entry = TlbEntry {
                    vpn: vaddr.page_number(),
                    frame,
                    pte: value,
                    page_size: PageSize::Base4K,
                };
                self.tlbs.insert(entry);
                return CoreTranslation {
                    paddr: Some(frame + vaddr.page_offset()),
                    fault: None,
                    page_size: PageSize::Base4K,
                    latency,
                    tlb_hit: None,
                    psc_hit,
                    l1pte_from_dram,
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

/// Internal result of the shared translation engine.
#[derive(Debug, Clone, Copy)]
struct CoreTranslation {
    paddr: Option<PhysAddr>,
    fault: Option<PageFault>,
    page_size: PageSize,
    latency: Cycles,
    tlb_hit: Option<TlbLevel>,
    psc_hit: Option<PscLevel>,
    l1pte_from_dram: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pte::PteFlags;
    use pthammer_types::{MemoryLevel, PAGE_SIZE};
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
        Mmu::new(MmuConfig::sandy_bridge(3))
    }

    #[test]
    fn full_walk_then_tlb_hit() {
        let mut mem = FlatMem::new();
        let vaddr = VirtAddr::new(0x40_0000_1234);
        map_page(&mut mem, vaddr, 0x7_0000);
        let mut mmu = mmu();

        let first = mmu.translate(PhysAddr::new(CR3), vaddr, &mut mem);
        // Page offset of 0x...1234 within its 4 KiB page is 0x234.
        assert_eq!(first.paddr, Some(PhysAddr::new(0x7_0234)));
        assert_eq!(first.tlb_hit, None);
        assert_eq!(first.psc_hit, None);
        assert_eq!(first.walk_loads.len(), 4);
        assert_eq!(
            first.walk_loads.iter().map(|l| l.level).collect::<Vec<_>>(),
            vec![4, 3, 2, 1]
        );

        let second = mmu.translate(PhysAddr::new(CR3), vaddr, &mut mem);
        assert_eq!(second.paddr, first.paddr);
        assert_eq!(second.tlb_hit, Some(TlbLevel::L1));
        assert!(second.walk_loads.is_empty());
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
        mmu.translate(PhysAddr::new(CR3), a, &mut mem);
        // Second translation of a *different page in the same PD entry* should
        // only load the Level-1 PTE — the PThammer fast path.
        let res = mmu.translate(PhysAddr::new(CR3), b, &mut mem);
        assert_eq!(res.paddr, Some(PhysAddr::new(0x8_0000)));
        assert_eq!(res.psc_hit, Some(PscLevel::Pde));
        assert!(res.is_l1pte_only_walk(), "walk loads: {:?}", res.walk_loads);
        assert_eq!(res.l1pte_load().unwrap().entry_paddr, PhysAddr::new(PT + 8));
    }

    #[test]
    fn invalidate_page_forces_new_walk() {
        let mut mem = FlatMem::new();
        let vaddr = VirtAddr::new(0x1234_5000);
        map_page(&mut mem, vaddr, 0x9_0000);
        let mut mmu = mmu();
        mmu.translate(PhysAddr::new(CR3), vaddr, &mut mem);
        mmu.invalidate_page(vaddr);
        let res = mmu.translate(PhysAddr::new(CR3), vaddr, &mut mem);
        assert_eq!(res.tlb_hit, None);
        assert!(!res.walk_loads.is_empty());
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
        let res = mmu.translate(PhysAddr::new(CR3), vaddr, &mut mem);
        assert_eq!(res.paddr, None);
        assert_eq!(res.fault, Some(PageFault { vaddr, level: 1 }));
        // The fault is not cached: translating again walks again.
        let res2 = mmu.translate(PhysAddr::new(CR3), vaddr, &mut mem);
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
        let res = mmu.translate(PhysAddr::new(CR3), vaddr, &mut mem);
        assert_eq!(res.page_size, PageSize::Huge2M);
        assert_eq!(res.paddr, Some(PhysAddr::new(huge_frame + 0x12_3456)));
        assert_eq!(res.walk_loads.len(), 3, "PML4E, PDPTE, PDE only");
        // Subsequent access hits the huge-page TLB.
        let res2 = mmu.translate(PhysAddr::new(CR3), vaddr, &mut mem);
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
        let res = mmu.translate(PhysAddr::new(CR3), vaddr, &mut mem);
        // 4 loads at 100 cycles each plus overheads.
        assert!(res.latency.as_u64() >= 400);
    }

    #[test]
    fn walk_reads_expected_entry_addresses() {
        let mut mem = FlatMem::new();
        let vaddr = VirtAddr::new(0x40_0000_1000);
        map_page(&mut mem, vaddr, 0x7_0000);
        let mut mmu = mmu();
        mmu.translate(PhysAddr::new(CR3), vaddr, &mut mem);
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
}
