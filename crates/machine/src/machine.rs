//! The simulated machine: MMU + memory subsystem + cycle clock.

use serde::Serialize;

use pthammer_cache::{CacheHierarchy, CachePmc};
use pthammer_dram::{DramModule, DramStats};
use pthammer_mmu::{Mmu, PageFault, PscLevel, Pte, TlbEntry, TlbLevel, TlbPmc, TouchTranslation};
use pthammer_types::{
    AccessKind, Cycles, Fingerprint, LaneCount, LaneSink, LaneSource, Lanes, MemoryLevel, PageSize,
    PhysAddr, VirtAddr, PAGE_SIZE,
};

use crate::config::MachineConfig;
use crate::footprint::{DramRecord, FastRoundGuard, Footprint};
use crate::memory::MemorySubsystem;
use crate::oracle;
use crate::phys_mem::{AppliedFlip, PhysicalMemory};

/// The outcome of one user-level virtual memory access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirtualAccess {
    /// The accessed virtual address.
    pub vaddr: VirtAddr,
    /// Translated physical address (`None` on a page fault).
    pub paddr: Option<PhysAddr>,
    /// Fault raised by the translation, if any.
    pub fault: Option<PageFault>,
    /// Total modelled latency of the access (translation + data).
    pub latency: Cycles,
    /// TLB level that served the translation, if any.
    pub tlb_hit: Option<TlbLevel>,
    /// Paging-structure cache that provided a partial translation, if any.
    pub psc_hit: Option<PscLevel>,
    /// Whether the walk loaded the Level-1 PTE from DRAM — the implicit
    /// hammer blow PThammer aims to trigger on every iteration.
    pub l1pte_from_dram: bool,
    /// Level that served the *data* access (None on fault).
    pub data_level: Option<MemoryLevel>,
    /// Value read (zero for writes and faults).
    pub value: u64,
}

/// Outcome of a lean timed touch ([`Machine::touch_lean`]): latency, fault
/// and the implicit-access bit — everything the hammer loop observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TouchAccess {
    /// Total modelled latency of the access (translation + data).
    pub latency: Cycles,
    /// Fault raised by the translation, if any.
    pub fault: Option<PageFault>,
    /// Whether the walk loaded the Level-1 PTE from DRAM — the implicit
    /// hammer blow PThammer aims to trigger on every iteration.
    pub l1pte_from_dram: bool,
}

/// One access through [`Machine::access_core`].
#[derive(Debug, Clone, Copy)]
struct CoreAccess {
    translation: TouchTranslation,
    /// The translated address, if it lies in installed DRAM.
    paddr: Option<PhysAddr>,
    fault: Option<PageFault>,
    latency: Cycles,
    /// Level that served the data access (None on fault).
    data_level: Option<MemoryLevel>,
}

impl CoreAccess {
    fn into_access(self, vaddr: VirtAddr, value: u64) -> VirtualAccess {
        VirtualAccess {
            vaddr,
            paddr: self.paddr,
            fault: self.fault,
            latency: self.latency,
            tlb_hit: self.translation.tlb_hit,
            psc_hit: self.translation.psc_hit,
            l1pte_from_dram: self.translation.l1pte_from_dram,
            data_level: self.data_level,
            value,
        }
    }
}

/// The qword-aligned address containing `paddr`.
fn aligned(paddr: PhysAddr) -> PhysAddr {
    PhysAddr::new(paddr.as_u64() & !7)
}

/// Page-run pages that follow a stepped page and share its L1PTE line,
/// served without a walker call (see [`Machine::read_run`]): their PDE-cache
/// and L1 hits are counted here and applied in one go.
#[derive(Debug, Clone, Copy)]
struct HitBatch {
    /// The stepped page.
    stepped: VirtAddr,
    /// The Level-1 PTEs of the stepped page's PTE line.
    ptes: [u64; PTES_PER_LINE],
    /// The frame the stepped page maps.
    frame: PhysAddr,
    /// The PTE line, then the data line: one batched page's L1 hits.
    lines: [PhysAddr; 2],
    /// The latency of one batched page.
    latency: Cycles,
    /// Batched pages so far.
    pages: u64,
}

/// Level-1 PTEs per 64-byte line.
const PTES_PER_LINE: usize = 8;

impl HitBatch {
    /// The TLB refill of `vaddr`, if the batch serves it: it shares the
    /// stepped page's PTE line and its PTE is present and maps the same
    /// frame.
    fn serves(&self, vaddr: VirtAddr) -> Option<TlbEntry> {
        let line_pages = (PTES_PER_LINE as u64) * PAGE_SIZE;
        if vaddr.as_u64() / line_pages != self.stepped.as_u64() / line_pages {
            return None;
        }
        let pte = Pte::from_raw(self.ptes[vaddr.pt_index(1) as usize % PTES_PER_LINE]);
        (pte.present() && pte.frame() == self.frame).then(|| TlbEntry {
            vpn: vaddr.page_number(),
            frame: self.frame,
            pte,
            page_size: PageSize::Base4K,
        })
    }
}

/// A complete simulated machine.
///
/// The machine exposes two API surfaces:
///
/// * **privileged** operations used by the kernel substrate (direct physical
///   reads/writes, TLB shoot-downs) that do not advance the simulated clock;
/// * **user-level** operations used by the simulated attacker (timed virtual
///   accesses, `clflush`, `rdtsc`) that behave exactly like the corresponding
///   instructions, including every microarchitectural side effect the attack
///   depends on.
#[derive(Debug, Clone, Serialize)]
pub struct Machine {
    config: MachineConfig,
    mmu: Mmu,
    mem: MemorySubsystem,
    clock: Cycles,
    /// Pages [`Machine::read_run`] served without a walker call.
    #[serde(skip)]
    batched_pages: u64,
    /// The pages a TLB held when the current page run started.
    #[serde(skip)]
    held: Vec<u64>,
}

impl Machine {
    /// Builds a machine from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: MachineConfig) -> Self {
        config.validate().expect("invalid machine configuration");
        let caches = CacheHierarchy::new(config.cache);
        let dram = DramModule::new(config.dram.clone());
        let phys = PhysicalMemory::new(config.dram.geometry.capacity_bytes());
        let mem = MemorySubsystem::new(caches, dram, phys, config.dram_overlap_latency);
        let mmu = Mmu::new(config.mmu);
        Self {
            config,
            mmu,
            mem,
            clock: Cycles::ZERO,
            batched_pages: 0,
            held: Vec::new(),
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycles {
        self.clock
    }

    /// The nominal clock frequency in Hz.
    pub fn clock_hz(&self) -> f64 {
        self.config.clock_hz
    }

    /// Reads the timestamp counter (user-visible, like `rdtsc`).
    pub fn rdtsc(&self) -> u64 {
        self.clock.as_u64()
    }

    /// Advances the simulated clock, e.g. to model computation between
    /// memory operations (the NOP padding of Figure 5).
    pub fn advance_clock(&mut self, cycles: Cycles) {
        self.clock += cycles;
    }

    // ------------------------------------------------------------------
    // Privileged (kernel substrate) operations — no timing side effects.
    // ------------------------------------------------------------------

    /// Reads a u64 from physical memory without timing side effects.
    pub fn phys_read_u64(&self, paddr: PhysAddr) -> u64 {
        self.mem.phys().read_u64(paddr)
    }

    /// Writes a u64 to physical memory without timing side effects.
    pub fn phys_write_u64(&mut self, paddr: PhysAddr, value: u64) {
        self.mem.phys_mut().write_u64(paddr, value);
    }

    /// Fills an entire frame with a repeated u64 value (cheap uniform frame).
    pub fn phys_write_frame_uniform(&mut self, frame: u64, value: u64) {
        self.mem.phys_mut().write_frame_uniform(frame, value);
    }

    /// Reads raw bytes from physical memory without timing side effects.
    pub fn phys_read_bytes(&self, paddr: PhysAddr, len: usize) -> Vec<u8> {
        self.mem.phys().read_bytes(paddr, len)
    }

    /// Writes raw bytes to physical memory without timing side effects.
    pub fn phys_write_bytes(&mut self, paddr: PhysAddr, data: &[u8]) {
        self.mem.phys_mut().write_bytes(paddr, data);
    }

    /// Invalidates cached translations for the page containing `vaddr`
    /// (`invlpg`), used by the kernel after changing page tables.
    pub fn invalidate_page(&mut self, vaddr: VirtAddr) {
        self.mmu.invalidate_page(vaddr);
    }

    /// Flushes all TLBs and paging-structure caches (CR3 reload).
    pub fn flush_translation_caches(&mut self) {
        self.mmu.flush_all();
    }

    // ------------------------------------------------------------------
    // User-level operations.
    // ------------------------------------------------------------------

    /// The walk-and-access body every timed user-level access runs: the
    /// translation (a deferred one with `DEFER`, see
    /// [`Mmu::translate_deferred`]), then the data line's access, charged
    /// to the clock. A translation past installed DRAM (e.g. a rowhammer
    /// flip set a high frame bit of a PTE) faults as on real hardware,
    /// where the access would hit unpopulated physical address space.
    #[inline(always)]
    fn access_core<const DEFER: bool>(&mut self, cr3: PhysAddr, vaddr: VirtAddr) -> CoreAccess {
        let overhead = Cycles::new(u64::from(self.config.access_overhead));
        let capacity = self.config.dram.geometry.capacity_bytes();
        self.mem.set_now(self.clock);
        let translation = if DEFER {
            self.mmu.translate_deferred(cr3, vaddr, &mut self.mem)
        } else {
            self.mmu.translate_touch(cr3, vaddr, &mut self.mem)
        };
        let mut latency = translation.latency + overhead;
        let paddr = translation.paddr.filter(|p| p.as_u64() + 8 <= capacity);
        let (fault, data_level) = if let Some(paddr) = paddr {
            let outcome = self.mem.access_line(paddr);
            latency += outcome.latency;
            (None, Some(outcome.served_by))
        } else if translation.paddr.is_some() {
            (Some(PageFault { vaddr, level: 0 }), None)
        } else {
            (translation.fault, None)
        };
        self.clock += latency;
        CoreAccess {
            translation,
            paddr,
            fault,
            latency,
            data_level,
        }
    }

    /// A serial [`Machine::access_core`] that reads or writes the qword at
    /// `vaddr`.
    fn do_access(
        &mut self,
        cr3: PhysAddr,
        vaddr: VirtAddr,
        kind: AccessKind,
        write_value: u64,
    ) -> VirtualAccess {
        self.mem.set_batch_mode(false);
        let core = self.access_core::<false>(cr3, vaddr);
        let value = match (core.paddr, kind) {
            (None, _) => 0,
            (Some(paddr), AccessKind::Read) => self.mem.phys().read_u64(aligned(paddr)),
            (Some(paddr), AccessKind::Write) => {
                self.mem.phys_mut().write_u64(aligned(paddr), write_value);
                0
            }
        };
        core.into_access(vaddr, value)
    }

    /// Performs a timed user-level read of the u64 at `vaddr`.
    pub fn read_u64(&mut self, cr3: PhysAddr, vaddr: VirtAddr) -> VirtualAccess {
        self.do_access(cr3, vaddr, AccessKind::Read, 0)
    }

    /// Performs a timed user-level write of the u64 at `vaddr`.
    pub fn write_u64(&mut self, cr3: PhysAddr, vaddr: VirtAddr, value: u64) -> VirtualAccess {
        self.do_access(cr3, vaddr, AccessKind::Write, value)
    }

    /// Accesses a sequence of addresses back-to-back as an out-of-order core
    /// would: independent DRAM misses overlap, so each DRAM-served access is
    /// charged the configured overlap latency instead of the full latency.
    /// Returns the total latency and any faults encountered.
    ///
    /// This is the simulator's hottest entry point — eviction-set traversal
    /// (the bulk of every hammer iteration) runs through it — so it drives
    /// the translation walker and the cache hierarchy directly, without
    /// constructing a [`VirtualAccess`] per address and without reading the
    /// (ignored) data values. The modelled state transitions are identical
    /// to calling [`Machine::read_u64`] per address in batch mode.
    pub fn access_batch(&mut self, cr3: PhysAddr, vaddrs: &[VirtAddr]) -> (Cycles, Vec<PageFault>) {
        self.access_batch_passes(cr3, vaddrs, 1)
    }

    /// Runs [`Machine::access_batch`] over the same address sequence
    /// `passes` times in one call — the access pattern of repeated
    /// eviction-set traversal. Identical state transitions to calling
    /// `access_batch` `passes` times; one entry/exit of the batch machinery.
    pub fn access_batch_passes(
        &mut self,
        cr3: PhysAddr,
        vaddrs: &[VirtAddr],
        passes: usize,
    ) -> (Cycles, Vec<PageFault>) {
        let mut total = Cycles::ZERO;
        let mut faults = Vec::new();
        self.mem.set_batch_mode(true);
        for _ in 0..passes {
            for &vaddr in vaddrs {
                let core = self.access_core::<false>(cr3, vaddr);
                faults.extend(core.fault);
                total += core.latency;
            }
        }
        self.mem.set_batch_mode(false);
        (total, faults)
    }

    /// A timed touch without reading the (ignored) data value or building a
    /// [`VirtualAccess`]: identical simulated state transitions and latency
    /// accounting to [`Machine::read_u64`] (serial mode — *not* the overlapped
    /// batch charging). This is what the hammer loop uses for its two target
    /// accesses per iteration.
    pub fn touch_lean(&mut self, cr3: PhysAddr, vaddr: VirtAddr) -> TouchAccess {
        self.mem.set_batch_mode(false);
        let core = self.access_core::<false>(cr3, vaddr);
        TouchAccess {
            latency: core.latency,
            fault: core.fault,
            l1pte_from_dram: core.translation.l1pte_from_dram,
        }
    }

    /// Executes `clflush` on the line containing `vaddr`: translates the
    /// address (a TLB-filling operation, as on real hardware) and flushes the
    /// line from every cache level.
    pub fn clflush(&mut self, cr3: PhysAddr, vaddr: VirtAddr) -> VirtualAccess {
        let mut acc = self.do_access(cr3, vaddr, AccessKind::Read, 0);
        if let Some(paddr) = acc.paddr {
            self.mem.clflush_line(paddr);
            let flush_cost = Cycles::new(40);
            acc.latency += flush_cost;
            self.clock += flush_cost;
        }
        acc
    }

    /// Reads the qword at `start` and at every following page below `end`,
    /// and stops at the first page that faults or reads something other
    /// than `expected`, returning that page's access; `None` when every
    /// page read `expected`. The state it leaves, clock and counters
    /// included, is exactly what [`Machine::read_u64`] of each page in
    /// turn leaves.
    ///
    /// Inside the run, the per-page cost goes two ways:
    ///
    /// * A page no TLB held at the run's start misses every TLB and its
    ///   lookup changes nothing but the counters, so it is walked without
    ///   the probe and its refill waits ([`Mmu::translate_deferred`]). The
    ///   refills are applied before a page some TLB held is read through
    ///   the ordinary path, and when the run ends.
    /// * Up to seven pages after a stepped (walked) page that share its
    ///   L1PTE line make no walker call at all, while the L1 holds that
    ///   line and the data line, the region's PDE-cache entry is present
    ///   and the page's PTE is present and maps the same frame: each would
    ///   hit the PDE cache and the L1 twice and read the same value. Their
    ///   hits are counted and applied before the next stepped access.
    ///
    /// A walk to a 2 MiB leaf ends the run: its refill is applied at once,
    /// and a new run starts at the next page.
    pub fn read_run(
        &mut self,
        cr3: PhysAddr,
        start: VirtAddr,
        end: VirtAddr,
        expected: u64,
    ) -> Option<VirtualAccess> {
        self.mem.set_batch_mode(false);
        let mut held = core::mem::take(&mut self.held);
        let pages = |from: VirtAddr| from.page_number()..end.as_u64().div_ceil(PAGE_SIZE);
        self.mmu.tlbs().held_pages(pages(start), &mut held);
        let mut next_held = 0;
        let mut batch: Option<HitBatch> = None;
        let mut va = start.as_u64();
        let stop = loop {
            if va >= end.as_u64() {
                break None;
            }
            let vaddr = VirtAddr::new(va);
            va += PAGE_SIZE;
            while held
                .get(next_held)
                .is_some_and(|&h| h < vaddr.page_number())
            {
                next_held += 1;
            }
            let is_held = held.get(next_held) == Some(&vaddr.page_number());
            if let Some(batch) = batch.as_mut().filter(|_| !is_held) {
                if let Some(entry) = batch.serves(vaddr) {
                    self.mmu.defer_refill(entry);
                    self.clock += batch.latency;
                    batch.pages += 1;
                    continue;
                }
            }
            if let Some(batch) = batch.take() {
                self.apply_batch(batch);
            }
            let core = if is_held {
                self.mmu.apply_refills();
                self.access_core::<false>(cr3, vaddr)
            } else {
                self.access_core::<true>(cr3, vaddr)
            };
            let value = core
                .paddr
                .map_or(0, |p| self.mem.phys().read_u64(aligned(p)));
            if core.fault.is_some() || value != expected {
                break Some(core.into_access(vaddr, value));
            }
            let translation = core.translation;
            if translation.page_size == PageSize::Huge2M {
                if translation.tlb_hit.is_none() {
                    // A new 2 MiB entry holds the rest of its region.
                    self.mmu.apply_refills();
                    self.mmu
                        .tlbs()
                        .held_pages(pages(VirtAddr::new(va)), &mut held);
                    next_held = 0;
                }
            } else if !is_held {
                batch = self.open_batch(vaddr, &core);
            }
        };
        if let Some(batch) = batch {
            self.apply_batch(batch);
        }
        self.mmu.apply_refills();
        self.held = held;
        stop
    }

    /// The batch that may follow `vaddr`, a page [`Machine::read_run`] just
    /// walked to a 4 KiB leaf, if the L1 holds its PTE line and data line.
    /// The walk left the region's PDE-cache entry present: it either hit
    /// it or inserted it on the way down.
    fn open_batch(&mut self, vaddr: VirtAddr, core: &CoreAccess) -> Option<HitBatch> {
        let paddr = core.paddr?;
        let pte_line = core.translation.l1pte?.cache_line_base();
        let data_line = paddr.cache_line_base();
        let in_l1 = |line| self.mem.caches().contains(line) == Some(MemoryLevel::L1);
        if !(in_l1(pte_line) && in_l1(data_line)) {
            return None;
        }
        debug_assert!(self.mmu.pde_cache().contains(vaddr));
        let phys = self.mem.phys();
        let ptes = core::array::from_fn(|i| phys.read_u64(pte_line + 8 * i as u64));
        let mmu = self.mmu.config();
        let l1 = u64::from(self.config.cache.l1d.latency);
        let latency = u64::from(mmu.tlb_lookup_latency)
            + u64::from(mmu.stlb_lookup_latency)
            + l1
            + u64::from(mmu.walk_step_latency)
            + u64::from(self.config.access_overhead)
            + l1;
        Some(HitBatch {
            stepped: vaddr,
            ptes,
            frame: PhysAddr::new(paddr.as_u64() & !(PAGE_SIZE - 1)),
            lines: [pte_line, data_line],
            latency: Cycles::new(latency),
            pages: 0,
        })
    }

    /// Applies a batch's counted hits: its TLB misses, one PDE-cache hit
    /// and two L1 hits per page.
    fn apply_batch(&mut self, batch: HitBatch) {
        if batch.pages == 0 {
            return;
        }
        self.mmu.count_walks(batch.pages);
        self.mmu.pde_hit_run(batch.stepped, batch.pages);
        self.mem.caches_mut().l1_hit_run(&batch.lines, batch.pages);
        self.batched_pages += batch.pages;
    }

    /// Pages [`Machine::read_run`] has served without a walker call:
    /// host-side telemetry, not simulated state.
    pub fn batched_run_pages(&self) -> u64 {
        self.batched_pages
    }

    // ------------------------------------------------------------------
    // Steady-state replay: footprints, DRAM records and fast rounds.
    // ------------------------------------------------------------------

    /// The footprint of an access stream over `vaddrs` in the address
    /// space rooted at `cr3`: every cache, TLB and paging-structure-cache
    /// set the addresses and their page walks map to, the page-table
    /// entries the walks read, and the DRAM banks and rows of those lines.
    /// Reads the page tables without timing side effects.
    pub fn footprint(&self, cr3: PhysAddr, vaddrs: &[VirtAddr]) -> Footprint {
        let capacity = self.config().dram.geometry.capacity_bytes();
        let mut walk_entries = Vec::new();
        let mut lines = Vec::new();
        let mut complete = true;
        for &vaddr in vaddrs {
            let walk = oracle::software_walk_reading(self, cr3, vaddr, |entry, raw| {
                walk_entries.push((entry, raw));
            });
            match walk.filter(|walk| walk.paddr.as_u64() + 8 <= capacity) {
                Some(walk) => lines.push(walk.paddr),
                None => complete = false,
            }
        }
        walk_entries.sort_unstable();
        walk_entries.dedup();
        lines.extend(walk_entries.iter().map(|&(entry, _)| entry));
        let dram = self.mem.dram();
        let mut banks: Vec<u32> = lines
            .iter()
            .map(|&line| dram.bank_unit(&dram.locate(line)))
            .collect();
        banks.sort_unstable();
        banks.dedup();
        let mut read_entries: Vec<(u32, u32, u32)> = walk_entries
            .iter()
            .map(|&(entry, _)| {
                let location = dram.locate(entry);
                debug_assert_eq!(dram.locate(entry + 7).col, location.col + 7);
                (dram.bank_unit(&location), location.row, location.col)
            })
            .collect();
        read_entries.sort_unstable();
        Footprint {
            caches: self.mem.caches().footprint(lines),
            tlbs: self.mmu.footprint(vaddrs),
            walk_entries,
            banks,
            read_entries,
            complete,
        }
    }

    /// Reads the footprint's state as [`Lanes`]: its TLB, paging-structure
    /// and cache sets with their performance counters, then the page-table
    /// entries its walks read and its banks' open rows as discrete lanes.
    /// The clock is not a lane: only DRAM reads it, and DRAM is replayed,
    /// not extrapolated.
    pub fn read_footprint(&self, fp: &Footprint) -> Lanes {
        let mut count = LaneCount::default();
        self.read_footprint_into(fp, &mut count);
        let mut lanes = Lanes::with_capacity(&count);
        self.read_footprint_into(fp, &mut lanes);
        lanes
    }

    /// The [`Fingerprint`] of [`Machine::read_footprint`]'s discrete lanes,
    /// read without storing them.
    pub fn footprint_fingerprint(&self, fp: &Footprint) -> u64 {
        let mut print = Fingerprint::default();
        self.read_footprint_into(fp, &mut print);
        print.finish()
    }

    fn read_footprint_into(&self, fp: &Footprint, lanes: &mut impl LaneSink) {
        self.mmu.read_footprint(&fp.tlbs, lanes);
        self.mem.caches().read_footprint(&fp.caches, lanes);
        for &(entry, _) in &fp.walk_entries {
            lanes.discrete(self.phys_read_u64(entry));
        }
        let banks = self.mem.dram().banks();
        for &unit in &fp.banks {
            lanes.discrete(banks[unit as usize].open_row().map_or(u64::MAX, u64::from));
        }
    }

    /// Writes `lanes`, a [`Machine::read_footprint`] snapshot of `fp`,
    /// back into the footprint's TLB, paging-structure and cache sets and
    /// performance counters, each counter grown by `periods` copies of its
    /// `delta`. The page-table entries and open rows the snapshot also
    /// holds are left as they are: the entries must not have changed, and
    /// DRAM is never written back.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` or `delta` does not match the footprint's layout,
    /// a page-table entry changed, or a counter would overflow `u64`.
    pub fn write_footprint(&mut self, fp: &Footprint, lanes: &Lanes, delta: &[u64], periods: u64) {
        let mut source = LaneSource::new(lanes, delta, periods);
        self.mmu.write_footprint(&fp.tlbs, &mut source);
        self.mem
            .caches_mut()
            .write_footprint(&fp.caches, &mut source);
        for &(entry, _) in &fp.walk_entries {
            assert_eq!(
                source.discrete(),
                self.phys_read_u64(entry),
                "a page-table entry of the footprint changed"
            );
        }
        for _ in &fp.banks {
            source.discrete();
        }
        source.finish();
    }

    /// Starts recording every DRAM access (see [`Machine::take_dram_record`]).
    pub fn record_dram(&mut self) {
        self.mem.record_dram();
    }

    /// Stops recording and returns the DRAM accesses made since
    /// [`Machine::record_dram`], timed from cycle `start`.
    pub fn take_dram_record(&mut self, start: u64) -> Vec<DramRecord> {
        self.mem.take_dram_record(Cycles::new(start))
    }

    /// The stop conditions for fast rounds replaying `records`, the DRAM
    /// accesses of recorded rounds over `fp`, from the current DRAM state.
    pub fn fast_round_guard<'a>(
        &self,
        fp: &Footprint,
        records: impl IntoIterator<Item = &'a DramRecord>,
    ) -> FastRoundGuard {
        FastRoundGuard::new(self.mem.dram(), fp, records)
    }

    /// Replays `round`'s DRAM accesses for a round starting at cycle
    /// `start`, through the same DRAM path a full cache miss takes. Nothing
    /// above DRAM moves, the clock included.
    ///
    /// # Panics
    ///
    /// Panics if an access's row-buffer outcome differs from the recorded
    /// one: the caller replayed a round that was not in a steady state.
    pub fn replay_dram_round(&mut self, round: &[DramRecord], start: u64) {
        for record in round {
            let now = Cycles::new(start + record.offset);
            let outcome = self.mem.replay_dram(record.addr, now);
            assert_eq!(
                outcome, record.outcome,
                "fast round diverged from its recorded DRAM access {record:?}"
            );
        }
    }

    // ------------------------------------------------------------------
    // Component access for oracles, kernels and tests.
    // ------------------------------------------------------------------

    /// The MMU (read-only).
    pub fn mmu(&self) -> &Mmu {
        &self.mmu
    }

    /// The cache hierarchy (read-only).
    pub fn caches(&self) -> &CacheHierarchy {
        self.mem.caches()
    }

    /// The DRAM module (read-only).
    pub fn dram(&self) -> &DramModule {
        self.mem.dram()
    }

    /// TLB performance counters (privileged; the paper reads these through a
    /// kernel module during offline calibration).
    pub fn tlb_pmc(&self) -> TlbPmc {
        *self.mmu.tlbs().pmc()
    }

    /// Cache performance counters (privileged).
    pub fn cache_pmc(&self) -> CachePmc {
        *self.mem.caches().pmc()
    }

    /// DRAM statistics.
    pub fn dram_stats(&self) -> DramStats {
        *self.mem.dram().stats()
    }

    /// Every bit flip applied to physical memory so far (evaluation oracle —
    /// the simulated attacker never reads this; it detects flips by scanning
    /// its own address space).
    pub fn applied_flips(&self) -> &[AppliedFlip] {
        self.mem.applied_flips()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::software_walk;
    use pthammer_dram::FlipModelProfile;
    use pthammer_mmu::{Pte, PteFlags};

    /// Builds a machine with a single 4 KiB page mapped: VA `va` -> PA `pa`.
    fn machine_with_mapping(va: u64, pa: u64) -> (Machine, PhysAddr) {
        let mut m = Machine::new(MachineConfig::test_small(
            FlipModelProfile::invulnerable(),
            3,
        ));
        let cr3 = PhysAddr::new(0x40_0000);
        let pdpt = 0x40_1000u64;
        let pd = 0x40_2000u64;
        let pt = 0x40_3000u64;
        let vaddr = VirtAddr::new(va);
        m.phys_write_u64(
            cr3 + vaddr.pt_index(4) * 8,
            Pte::table(PhysAddr::new(pdpt)).raw(),
        );
        m.phys_write_u64(
            PhysAddr::new(pdpt) + vaddr.pt_index(3) * 8,
            Pte::table(PhysAddr::new(pd)).raw(),
        );
        m.phys_write_u64(
            PhysAddr::new(pd) + vaddr.pt_index(2) * 8,
            Pte::table(PhysAddr::new(pt)).raw(),
        );
        m.phys_write_u64(
            PhysAddr::new(pt) + vaddr.pt_index(1) * 8,
            Pte::page(PhysAddr::new(pa), PteFlags::user_rw()).raw(),
        );
        (m, cr3)
    }

    #[test]
    fn read_write_through_virtual_mapping() {
        let (mut m, cr3) = machine_with_mapping(0x7000_0000, 0x9000);
        let va = VirtAddr::new(0x7000_0008);
        m.write_u64(cr3, va, 0x1234_5678);
        let acc = m.read_u64(cr3, va);
        assert_eq!(acc.value, 0x1234_5678);
        assert_eq!(acc.paddr, Some(PhysAddr::new(0x9008)));
        assert!(acc.fault.is_none());
        assert_eq!(m.phys_read_u64(PhysAddr::new(0x9008)), 0x1234_5678);
    }

    #[test]
    fn first_access_walks_second_hits_tlb() {
        let (mut m, cr3) = machine_with_mapping(0x7000_0000, 0x9000);
        let va = VirtAddr::new(0x7000_0000);
        let first = m.read_u64(cr3, va);
        assert_eq!(first.tlb_hit, None);
        let second = m.read_u64(cr3, va);
        assert_eq!(second.tlb_hit, Some(TlbLevel::L1));
        assert!(second.latency < first.latency);
    }

    #[test]
    fn clock_advances_with_accesses() {
        let (mut m, cr3) = machine_with_mapping(0x7000_0000, 0x9000);
        let t0 = m.rdtsc();
        m.read_u64(cr3, VirtAddr::new(0x7000_0000));
        let t1 = m.rdtsc();
        assert!(t1 > t0);
        m.advance_clock(Cycles::new(100));
        assert_eq!(m.rdtsc(), t1 + 100);
    }

    #[test]
    fn unmapped_access_faults_without_data_access() {
        let (mut m, cr3) = machine_with_mapping(0x7000_0000, 0x9000);
        let acc = m.read_u64(cr3, VirtAddr::new(0x9000_0000));
        assert!(acc.fault.is_some());
        assert_eq!(acc.paddr, None);
        assert_eq!(acc.data_level, None);
    }

    #[test]
    fn clflush_then_access_reaches_dram_for_data() {
        let (mut m, cr3) = machine_with_mapping(0x7000_0000, 0x9000);
        let va = VirtAddr::new(0x7000_0000);
        m.read_u64(cr3, va);
        let cached = m.read_u64(cr3, va);
        assert_eq!(cached.data_level, Some(MemoryLevel::L1));
        m.clflush(cr3, va);
        let after_flush = m.read_u64(cr3, va);
        assert_eq!(after_flush.data_level, Some(MemoryLevel::Dram));
        assert!(after_flush.latency > cached.latency);
    }

    #[test]
    fn l1pte_from_dram_flag_reflects_walk_source() {
        let (mut m, cr3) = machine_with_mapping(0x7000_0000, 0x9000);
        let va = VirtAddr::new(0x7000_0000);
        // Cold: everything (including the PTE) comes from DRAM.
        let first = m.read_u64(cr3, va);
        assert!(first.l1pte_from_dram);
        // Warm TLB: no walk at all.
        let second = m.read_u64(cr3, va);
        assert!(!second.l1pte_from_dram);
        // Evict only the TLB entry (kernel-style invlpg) but keep the PTE line
        // cached: the walk happens but the L1PTE is served by the caches.
        m.invalidate_page(va);
        let third = m.read_u64(cr3, va);
        assert!(!third.l1pte_from_dram);
        assert!(third.tlb_hit.is_none());
    }

    #[test]
    fn batch_access_is_cheaper_than_serial_for_dram_misses() {
        let (mut m, cr3) = machine_with_mapping(0x7000_0000, 0x9000);
        let (mut m2, cr3_2) = machine_with_mapping(0x7000_0000, 0x9000);
        // Touch several distinct lines of the mapped page.
        let vaddrs: Vec<VirtAddr> = (0..8u64)
            .map(|i| VirtAddr::new(0x7000_0000 + i * 64))
            .collect();
        let (batched, faults) = m.access_batch(cr3, &vaddrs);
        assert!(faults.is_empty());
        let mut serial = Cycles::ZERO;
        for &va in &vaddrs {
            serial += m2.read_u64(cr3_2, va).latency;
        }
        assert!(batched < serial);
    }

    #[test]
    fn oracle_walk_matches_hardware_walk() {
        let (mut m, cr3) = machine_with_mapping(0x7000_0000, 0x9000);
        let va = VirtAddr::new(0x7000_0123);
        let hw = m.read_u64(cr3, va);
        let sw = software_walk(&m, cr3, va).expect("mapped");
        assert_eq!(Some(sw.paddr), hw.paddr);
        assert_eq!(sw.level, 1);
    }

    /// A PDE whose table pointer lies past installed DRAM makes the walk
    /// fault at the unreachable level — on the single-access, batch and
    /// lean paths alike — instead of reaching the DRAM model with an
    /// out-of-range address.
    #[test]
    fn table_pointer_beyond_dram_faults_the_walk() {
        let va = VirtAddr::new(0x7000_0000);
        let (mut m, cr3) = machine_with_mapping(va.as_u64(), 0x9000);
        let capacity = m.config().dram.geometry.capacity_bytes();
        let pd = PhysAddr::new(0x40_2000);
        m.phys_write_u64(
            pd + va.pt_index(2) * 8,
            Pte::table(PhysAddr::new(capacity + 0x1000)).raw(),
        );
        let acc = m.read_u64(cr3, va);
        assert_eq!(
            acc.fault,
            Some(PageFault {
                vaddr: va,
                level: 1
            })
        );
        assert_eq!(acc.paddr, None);
        let (_, faults) = m.access_batch(cr3, &[va]);
        assert_eq!(
            faults,
            vec![PageFault {
                vaddr: va,
                level: 1
            }]
        );
        assert_eq!(
            m.touch_lean(cr3, va).fault,
            Some(PageFault {
                vaddr: va,
                level: 1
            })
        );
        assert_eq!(software_walk(&m, cr3, va), None);
    }
}
