//! Translation-lookaside buffers (L1 dTLB, L2 sTLB, huge-page dTLB).

use core::fmt;
use core::ops::Range;

use serde::Serialize;

use pthammer_cache::{SetStore, EMPTY_TAG};
use pthammer_types::{
    LaneSink, LaneSource, PageSize, PhysAddr, VirtAddr, HUGE_PAGE_SIZE, PAGE_SIZE,
};

use crate::config::{MmuConfig, TlbConfig};
use crate::pte::Pte;

/// A cached virtual-to-physical translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TlbEntry {
    /// Virtual page number (of the 4 KiB page or the 2 MiB superpage).
    pub vpn: u64,
    /// Base physical address of the mapped page.
    pub frame: PhysAddr,
    /// Leaf PTE that produced this translation (flags are consulted on use).
    pub pte: Pte,
    /// Size of the mapping.
    pub page_size: PageSize,
}

impl TlbEntry {
    /// Translates a full virtual address covered by this entry.
    pub fn translate(&self, vaddr: VirtAddr) -> PhysAddr {
        let offset = match self.page_size {
            PageSize::Base4K => vaddr.page_offset(),
            PageSize::Huge2M => vaddr.huge_page_offset(),
        };
        self.frame + offset
    }
}

/// Which TLB level served a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum TlbLevel {
    /// L1 dTLB (4 KiB or 2 MiB).
    L1,
    /// L2 sTLB.
    L2,
}

/// TLB-related performance counters (the `dtlb_load_misses.miss_causes_a_walk`
/// event the paper's kernel module reads during Algorithm 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct TlbPmc {
    /// Translations attempted.
    pub lookups: u64,
    /// Lookups that missed the L1 dTLB.
    pub l1_misses: u64,
    /// Lookups that missed every TLB level and caused a page-table walk.
    pub walks: u64,
}

impl TlbPmc {
    /// Resets all counters.
    pub fn reset(&mut self) {
        *self = TlbPmc::default();
    }

    /// Difference of two snapshots (`self - earlier`).
    pub fn since(&self, earlier: &TlbPmc) -> TlbPmc {
        TlbPmc {
            lookups: self.lookups.saturating_sub(earlier.lookups),
            l1_misses: self.l1_misses.saturating_sub(earlier.l1_misses),
            walks: self.walks.saturating_sub(earlier.walks),
        }
    }
}

impl fmt::Display for TlbPmc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lookups={} l1_misses={} walks={}",
            self.lookups, self.l1_misses, self.walks
        )
    }
}

/// One set-associative TLB level.
///
/// The vpn tags and replacement state live in a [`SetStore`], whose
/// set-operation kernel runs every per-way loop; the cached entries sit in
/// a parallel array, read only on a hit — TLB lookups run on every
/// simulated access, so this layout is on the simulator's hottest path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Tlb {
    config: TlbConfig,
    /// Vpn tags and replacement state.
    store: SetStore,
    /// The entry of each way, way-major within each set; meaningful only
    /// where the way's tag is valid.
    entries: Vec<TlbEntry>,
    /// Number of valid entries.
    len: usize,
}

impl Tlb {
    /// Placeholder in the entry slot of an empty way.
    const NO_ENTRY: TlbEntry = TlbEntry {
        vpn: EMPTY_TAG,
        frame: PhysAddr::new(0),
        pte: Pte::empty(),
        page_size: PageSize::Base4K,
    };

    /// Creates a TLB from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: TlbConfig, seed: u64) -> Self {
        config.validate().expect("invalid TLB configuration");
        Self {
            config,
            store: SetStore::new(config.sets, config.ways, config.replacement, |s| {
                seed ^ (u64::from(s) << 13) | 1
            }),
            entries: vec![Self::NO_ENTRY; config.entries() as usize],
            len: 0,
        }
    }

    /// The configuration of this TLB.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the TLB holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set index of a virtual page number (the reverse-engineered mapping the
    /// attack relies on to build congruent page sets).
    #[inline]
    pub fn set_index(&self, vpn: u64) -> u32 {
        self.config.indexing.set_index(vpn, self.config.sets)
    }

    /// Index of `way` of `set` in `entries`.
    #[inline]
    fn slot(&self, set: usize, way: u32) -> usize {
        set * self.config.ways as usize + way as usize
    }

    /// Looks up `vpn`, refreshing replacement state on a hit.
    #[inline(always)]
    pub fn lookup(&mut self, vpn: u64) -> Option<TlbEntry> {
        let set = self.set_index(vpn) as usize;
        let way = self.store.lookup(set, vpn)?;
        Some(self.entries[self.slot(set, way)])
    }

    /// Probes for `vpn` without touching replacement state.
    pub fn contains(&self, vpn: u64) -> bool {
        let set = self.set_index(vpn) as usize;
        self.store.find(set, vpn).is_some()
    }

    /// Inserts a translation, evicting a victim if the set is full. Returns
    /// the evicted entry, if any.
    #[inline]
    pub fn insert(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
        let set = self.set_index(entry.vpn) as usize;
        if let Some(way) = self.store.find(set, entry.vpn) {
            let slot = self.slot(set, way);
            self.entries[slot] = entry;
            self.store.touch(set, way);
            return None;
        }
        self.insert_after_miss(entry)
    }

    /// Inserts a translation that a lookup just missed in this TLB, skipping
    /// the presence scan of [`Tlb::insert`]. Inserting a vpn that *is*
    /// present would duplicate it; callers must only use this right after a
    /// miss (the walker's refill path).
    #[inline(always)]
    pub fn insert_after_miss(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
        let set = self.set_index(entry.vpn) as usize;
        let empty = self.store.first_empty(set);
        let (way, displaced) = self.store.place(set, entry.vpn, empty);
        let slot = self.slot(set, way);
        let victim = core::mem::replace(&mut self.entries[slot], entry);
        match displaced {
            Some(_) => Some(victim),
            None => {
                self.len += 1;
                None
            }
        }
    }

    /// Applies `refills`, translations walked after lookups that missed
    /// this TLB, in order: the end state of [`Tlb::insert_after_miss`] per
    /// refill. Each set's placements are chosen in order from its
    /// replacement state alone ([`SetStore::place_run`]), and only the
    /// entries that survive the run are written. `scratch` holds no state
    /// between calls.
    fn refill_all(&mut self, refills: &[TlbEntry], scratch: &mut RefillScratch) {
        let RefillScratch { empty, holds } = scratch;
        let sets = self.config.sets as usize;
        let ways = self.config.ways as usize;
        empty.extend((0..sets).map(|set| self.store.empty_ways(set)));
        let was_empty: u32 = empty.iter().map(|mask| mask.count_ones()).sum();
        holds.resize(sets * ways, u32::MAX);
        let indexing = self.config.indexing;
        let set_of = |entry: &TlbEntry| indexing.set_index(entry.vpn, sets as u32) as usize;
        self.store
            .place_run(refills.iter().map(set_of), empty, |index, set, way| {
                holds[set * ways + way as usize] = index as u32;
            });
        for (slot, &index) in holds.iter().enumerate() {
            if index != u32::MAX {
                let entry = refills[index as usize];
                self.store
                    .set_tag(slot / ways, (slot % ways) as u32, entry.vpn);
                self.entries[slot] = entry;
            }
        }
        let still_empty: u32 = empty.iter().map(|mask| mask.count_ones()).sum();
        self.len += (was_empty - still_empty) as usize;
        empty.clear();
        holds.clear();
    }

    /// Removes the translation for `vpn` (models `invlpg`). Returns whether
    /// an entry was removed.
    pub fn invalidate(&mut self, vpn: u64) -> bool {
        let set = self.set_index(vpn) as usize;
        let removed = self.store.remove(set, vpn).is_some();
        self.len -= usize::from(removed);
        removed
    }

    /// Removes every translation (models a CR3 write without PCID).
    pub fn flush_all(&mut self) {
        self.store.clear();
        self.len = 0;
    }

    /// Number of valid entries currently held in `set`.
    pub fn occupancy(&self, set: u32) -> usize {
        self.store.occupancy(set as usize)
    }

    /// Records `set` as [`LaneSink`]: its tags and replacement state (see
    /// [`SetStore::read_set`]) and every way's cached entry as discrete
    /// lanes.
    pub(crate) fn read_set(&self, set: u32, lanes: &mut impl LaneSink) {
        self.store.read_set(set as usize, lanes);
        let ways = self.config.ways as usize;
        for entry in &self.entries[set as usize * ways..(set as usize + 1) * ways] {
            lanes.discrete(entry.vpn);
            lanes.discrete(entry.frame.as_u64());
            lanes.discrete(entry.pte.raw());
            lanes.discrete(u64::from(entry.page_size == PageSize::Huge2M));
        }
    }

    /// Writes `set` back from lanes recorded by [`Tlb::read_set`].
    pub(crate) fn write_set(&mut self, set: u32, source: &mut LaneSource) {
        self.store.write_set(set as usize, source);
        let ways = self.config.ways as usize;
        for entry in &mut self.entries[set as usize * ways..(set as usize + 1) * ways] {
            entry.vpn = source.discrete();
            entry.frame = PhysAddr::new(source.discrete());
            entry.pte = Pte::from_raw(source.discrete());
            entry.page_size = if source.discrete() == 1 {
                PageSize::Huge2M
            } else {
                PageSize::Base4K
            };
        }
    }
}

/// The TLB sets a group of virtual addresses maps to, per TLB.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TlbFootprint {
    l1d: Vec<u32>,
    l1d_huge: Vec<u32>,
    l2s: Vec<u32>,
}

/// The most refills [`TlbHierarchy::defer_refill`] holds before it applies
/// them.
pub const MAX_DEFERRED_REFILLS: usize = 1024;

/// Reused buffers of [`Tlb::refill_all`]; empty between calls.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct RefillScratch {
    /// Per set, the mask of its ways still empty.
    empty: Vec<u32>,
    /// Per way, the index of the refill it holds, or `u32::MAX`.
    holds: Vec<u32>,
}

/// The full TLB hierarchy of one core: L1 dTLB (4 KiB), L1 dTLB (2 MiB) and a
/// unified L2 sTLB for 4 KiB pages.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TlbHierarchy {
    l1d: Tlb,
    l1d_huge: Tlb,
    l2s: Tlb,
    pmc: TlbPmc,
    /// 4 KiB refills deferred by [`TlbHierarchy::defer_refill`], in walk
    /// order; empty outside a page run.
    #[serde(skip)]
    deferred: Vec<TlbEntry>,
    /// Reused buffers of [`TlbHierarchy::apply_refills`].
    #[serde(skip)]
    scratch: RefillScratch,
}

impl TlbHierarchy {
    /// Builds the hierarchy from the MMU configuration.
    pub fn new(config: &MmuConfig) -> Self {
        Self {
            l1d: Tlb::new(config.l1_dtlb, config.seed ^ 0xA1),
            l1d_huge: Tlb::new(config.l1_dtlb_huge, config.seed ^ 0xB2),
            l2s: Tlb::new(config.l2_stlb, config.seed ^ 0xC3),
            pmc: TlbPmc::default(),
            deferred: Vec::new(),
            scratch: RefillScratch::default(),
        }
    }

    /// The performance counters.
    pub fn pmc(&self) -> &TlbPmc {
        &self.pmc
    }

    /// Resets the performance counters.
    pub fn reset_pmc(&mut self) {
        self.pmc.reset();
    }

    /// The L1 dTLB for 4 KiB pages.
    pub fn l1d(&self) -> &Tlb {
        &self.l1d
    }

    /// The L2 sTLB.
    pub fn l2s(&self) -> &Tlb {
        &self.l2s
    }

    /// The L1 dTLB for 2 MiB pages.
    pub fn l1d_huge(&self) -> &Tlb {
        &self.l1d_huge
    }

    /// Looks up a virtual address. Returns the serving level and entry, or
    /// `None` when a page-table walk is required. Counts PMC events.
    #[inline(always)]
    pub fn lookup(&mut self, vaddr: VirtAddr) -> Option<(TlbLevel, TlbEntry)> {
        self.pmc.lookups += 1;
        let vpn4k = vaddr.as_u64() / PAGE_SIZE;
        let vpn_huge = vaddr.as_u64() / HUGE_PAGE_SIZE;

        if let Some(entry) = self.l1d.lookup(vpn4k) {
            return Some((TlbLevel::L1, entry));
        }
        // The 2 MiB dTLB stays empty unless superpages are mapped; a miss
        // there has no side effects, so an empty one is not probed.
        if !self.l1d_huge.is_empty() {
            if let Some(entry) = self.l1d_huge.lookup(vpn_huge) {
                return Some((TlbLevel::L1, entry));
            }
        }
        self.pmc.l1_misses += 1;

        if let Some(entry) = self.l2s.lookup(vpn4k) {
            // Refill the L1 on an sTLB hit; the L1 probe above just missed,
            // so the entry is absent there.
            self.l1d.insert_after_miss(entry);
            return Some((TlbLevel::L2, entry));
        }
        self.pmc.walks += 1;
        None
    }

    /// Inserts a translation produced by a page-table walk.
    ///
    /// The walker only reaches this after [`TlbHierarchy::lookup`] missed
    /// every level for the entry's vpn, so the per-level presence scans are
    /// skipped. External callers inserting speculatively must use the
    /// individual [`Tlb::insert`] methods instead.
    pub fn insert(&mut self, entry: TlbEntry) {
        match entry.page_size {
            PageSize::Base4K => {
                self.l1d.insert_after_miss(entry);
                self.l2s.insert_after_miss(entry);
            }
            PageSize::Huge2M => {
                self.l1d_huge.insert_after_miss(entry);
            }
        }
    }

    /// Records `pages` lookups known to miss every level: the counters move
    /// as [`TlbHierarchy::lookup`]'s would, and nothing else does.
    pub fn count_walks(&mut self, pages: u64) {
        self.pmc.lookups += pages;
        self.pmc.l1_misses += pages;
        self.pmc.walks += pages;
    }

    /// Defers the refill [`TlbHierarchy::insert`] would make of a 4 KiB
    /// translation walked after [`TlbHierarchy::count_walks`]: the L1 dTLB
    /// and sTLB refills wait for [`TlbHierarchy::apply_refills`], which
    /// runs on its own once [`MAX_DEFERRED_REFILLS`] are waiting. Exact as
    /// long as no lookup of a page the refills may evict runs in between.
    pub fn defer_refill(&mut self, entry: TlbEntry) {
        debug_assert_eq!(entry.page_size, PageSize::Base4K);
        self.deferred.push(entry);
        if self.deferred.len() == MAX_DEFERRED_REFILLS {
            self.apply_refills();
        }
    }

    /// Applies the deferred refills: the end state of
    /// [`TlbHierarchy::insert`] of each, in order. Each set's placements are
    /// chosen from its replacement state alone
    /// ([`SetStore::place_run`]), and only the entries that survive are
    /// written.
    pub fn apply_refills(&mut self) {
        if self.deferred.is_empty() {
            return;
        }
        self.l1d.refill_all(&self.deferred, &mut self.scratch);
        self.l2s.refill_all(&self.deferred, &mut self.scratch);
        self.deferred.clear();
    }

    /// The 4 KiB page numbers in `pages` that some TLB holds a translation
    /// for, sorted and each listed once, into `held` (a 2 MiB entry holds
    /// all of its pages). Deferred refills are not held yet.
    pub fn held_pages(&self, pages: Range<u64>, held: &mut Vec<u64>) {
        const PAGES_PER_HUGE: u64 = HUGE_PAGE_SIZE / PAGE_SIZE;
        held.clear();
        held.extend(
            self.l1d
                .store
                .tags()
                .chain(self.l2s.store.tags())
                .filter(|vpn| pages.contains(vpn)),
        );
        for huge in self.l1d_huge.store.tags() {
            let first = (huge * PAGES_PER_HUGE).max(pages.start);
            let last = ((huge + 1) * PAGES_PER_HUGE).min(pages.end);
            held.extend(first..last);
        }
        held.sort_unstable();
        held.dedup();
    }

    /// Invalidates any cached translation for the page containing `vaddr`
    /// (models `invlpg`; privileged — only the kernel substrate calls this).
    pub fn invalidate(&mut self, vaddr: VirtAddr) {
        self.l1d.invalidate(vaddr.as_u64() / PAGE_SIZE);
        self.l2s.invalidate(vaddr.as_u64() / PAGE_SIZE);
        self.l1d_huge.invalidate(vaddr.as_u64() / HUGE_PAGE_SIZE);
    }

    /// Flushes every entry from every level (CR3 reload).
    pub fn flush_all(&mut self) {
        self.l1d.flush_all();
        self.l2s.flush_all();
        self.l1d_huge.flush_all();
    }

    /// The sets `vaddrs` map to in every TLB, each listed once.
    pub(crate) fn footprint(&self, vaddrs: &[VirtAddr]) -> TlbFootprint {
        let sets = |tlb: &Tlb, page: u64| {
            let mut sets: Vec<u32> = vaddrs
                .iter()
                .map(|v| tlb.set_index(v.as_u64() / page))
                .collect();
            sets.sort_unstable();
            sets.dedup();
            sets
        };
        TlbFootprint {
            l1d: sets(&self.l1d, PAGE_SIZE),
            l1d_huge: sets(&self.l1d_huge, HUGE_PAGE_SIZE),
            l2s: sets(&self.l2s, PAGE_SIZE),
        }
    }

    /// Records the footprint's sets, each TLB's entry count and the
    /// performance counters as [`LaneSink`].
    pub(crate) fn read_footprint(&self, fp: &TlbFootprint, lanes: &mut impl LaneSink) {
        for (tlb, sets) in self.levels(fp) {
            sets.iter().for_each(|&set| tlb.read_set(set, lanes));
            lanes.discrete(tlb.len() as u64);
        }
        for value in [self.pmc.lookups, self.pmc.l1_misses, self.pmc.walks] {
            lanes.counter(value);
        }
    }

    /// Writes back the lanes of [`TlbHierarchy::read_footprint`].
    pub(crate) fn write_footprint(&mut self, fp: &TlbFootprint, source: &mut LaneSource) {
        for (tlb, sets) in [
            (&mut self.l1d, &fp.l1d),
            (&mut self.l1d_huge, &fp.l1d_huge),
            (&mut self.l2s, &fp.l2s),
        ] {
            sets.iter().for_each(|&set| tlb.write_set(set, source));
            tlb.len = usize::try_from(source.discrete()).expect("entry count fits usize");
        }
        for lane in [
            &mut self.pmc.lookups,
            &mut self.pmc.l1_misses,
            &mut self.pmc.walks,
        ] {
            *lane = source.counter();
        }
    }

    /// Each TLB with its footprint sets, in lane order.
    fn levels<'a>(&'a self, fp: &'a TlbFootprint) -> [(&'a Tlb, &'a [u32]); 3] {
        [
            (&self.l1d, &fp.l1d),
            (&self.l1d_huge, &fp.l1d_huge),
            (&self.l2s, &fp.l2s),
        ]
    }

    /// Probes whether any level holds a translation for `vaddr` without
    /// updating replacement state (evaluation oracle).
    pub fn contains(&self, vaddr: VirtAddr) -> bool {
        self.l1d.contains(vaddr.as_u64() / PAGE_SIZE)
            || self.l2s.contains(vaddr.as_u64() / PAGE_SIZE)
            || self.l1d_huge.contains(vaddr.as_u64() / HUGE_PAGE_SIZE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TlbIndexing;
    use crate::pte::PteFlags;
    use proptest::prelude::*;
    use pthammer_cache::{Assoc, ReplacementPolicy, ReplacementState};

    fn entry(vpn: u64) -> TlbEntry {
        let frame = PhysAddr::new((vpn % 1024) * PAGE_SIZE + 0x10_0000);
        TlbEntry {
            vpn,
            frame,
            pte: Pte::page(frame, PteFlags::user_rw()),
            page_size: PageSize::Base4K,
        }
    }

    #[test]
    fn insert_then_lookup() {
        let mut tlb = Tlb::new(TlbConfig::l1_dtlb_64(), 1);
        tlb.insert(entry(0x42));
        assert!(tlb.contains(0x42));
        assert_eq!(tlb.lookup(0x42).unwrap().vpn, 0x42);
        assert!(tlb.lookup(0x43).is_none());
    }

    #[test]
    fn insert_same_vpn_updates_in_place() {
        let mut tlb = Tlb::new(TlbConfig::l1_dtlb_64(), 1);
        tlb.insert(entry(7));
        let mut e2 = entry(7);
        e2.frame = PhysAddr::new(0x9_0000);
        assert_eq!(tlb.insert(e2), None);
        assert_eq!(tlb.lookup(7).unwrap().frame, PhysAddr::new(0x9_0000));
        assert_eq!(tlb.occupancy(tlb.set_index(7)), 1);
    }

    #[test]
    fn eviction_when_set_full() {
        let cfg = TlbConfig::l1_dtlb_64(); // 16 sets, 4 ways, linear
        let mut tlb = Tlb::new(cfg, 1);
        // 6 VPNs congruent to set 3.
        let vpns: Vec<u64> = (0..6).map(|i| 3 + i * 16).collect();
        let mut evicted = 0;
        for &vpn in &vpns {
            if tlb.insert(entry(vpn)).is_some() {
                evicted += 1;
            }
        }
        assert_eq!(evicted, 2, "6 inserts into a 4-way set evict twice");
        assert_eq!(tlb.occupancy(3), 4);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut tlb = Tlb::new(TlbConfig::l2_stlb_512(), 1);
        tlb.insert(entry(100));
        tlb.insert(entry(200));
        assert!(tlb.invalidate(100));
        assert!(!tlb.invalidate(100));
        assert!(tlb.contains(200));
        tlb.flush_all();
        assert!(!tlb.contains(200));
    }

    #[test]
    fn entry_translation_offsets() {
        let e = entry(0x42);
        let vaddr = VirtAddr::new(0x42 * PAGE_SIZE + 0x123);
        assert_eq!(e.translate(vaddr), e.frame + 0x123);

        let huge = TlbEntry {
            vpn: 3,
            frame: PhysAddr::new(3 * HUGE_PAGE_SIZE),
            pte: Pte::page(PhysAddr::new(3 * HUGE_PAGE_SIZE), PteFlags::user_rw_huge()),
            page_size: PageSize::Huge2M,
        };
        let vaddr = VirtAddr::new(3 * HUGE_PAGE_SIZE + 0x12_3456);
        assert_eq!(
            huge.translate(vaddr),
            PhysAddr::new(3 * HUGE_PAGE_SIZE + 0x12_3456)
        );
    }

    #[test]
    fn hierarchy_l1_miss_falls_back_to_l2() {
        let cfg = MmuConfig::sandy_bridge(5);
        let mut h = TlbHierarchy::new(&cfg);
        let e = entry(0x1000);
        h.insert(e);
        // Evict from the 4-way L1 set by inserting 8 more conflicting entries
        // directly into the L1 (simulating later accesses).
        for i in 1..=8u64 {
            h.l1d.insert(entry(0x1000 + i * 16));
        }
        let vaddr = VirtAddr::new(0x1000 * PAGE_SIZE + 5);
        let (level, found) = h.lookup(vaddr).expect("still in sTLB");
        assert_eq!(level, TlbLevel::L2);
        assert_eq!(found.vpn, 0x1000);
        // The hit refilled L1: next lookup hits L1.
        let (level, _) = h.lookup(vaddr).unwrap();
        assert_eq!(level, TlbLevel::L1);
    }

    #[test]
    fn hierarchy_counts_walks() {
        let cfg = MmuConfig::sandy_bridge(5);
        let mut h = TlbHierarchy::new(&cfg);
        assert!(h.lookup(VirtAddr::new(0xdead_b000)).is_none());
        assert_eq!(h.pmc().lookups, 1);
        assert_eq!(h.pmc().l1_misses, 1);
        assert_eq!(h.pmc().walks, 1);
        h.reset_pmc();
        assert_eq!(h.pmc().walks, 0);
    }

    #[test]
    fn hierarchy_huge_entries_use_huge_tlb() {
        let cfg = MmuConfig::sandy_bridge(5);
        let mut h = TlbHierarchy::new(&cfg);
        let frame = PhysAddr::new(8 * HUGE_PAGE_SIZE);
        h.insert(TlbEntry {
            vpn: 5,
            frame,
            pte: Pte::page(frame, PteFlags::user_rw_huge()),
            page_size: PageSize::Huge2M,
        });
        assert!(h.l1d_huge().contains(5));
        assert!(!h.l1d().contains(5 * 512));
        let vaddr = VirtAddr::new(5 * HUGE_PAGE_SIZE + 0x777);
        let (level, e) = h.lookup(vaddr).expect("huge TLB hit");
        assert_eq!(level, TlbLevel::L1);
        assert_eq!(e.translate(vaddr), frame + 0x777);
    }

    #[test]
    fn hierarchy_invalidate_removes_everywhere() {
        let cfg = MmuConfig::sandy_bridge(5);
        let mut h = TlbHierarchy::new(&cfg);
        let e = entry(77);
        h.insert(e);
        let vaddr = VirtAddr::new(77 * PAGE_SIZE);
        assert!(h.contains(vaddr));
        h.invalidate(vaddr);
        assert!(!h.contains(vaddr));
    }

    #[test]
    fn pmc_since_subtracts() {
        let a = TlbPmc {
            lookups: 10,
            l1_misses: 4,
            walks: 2,
        };
        let b = TlbPmc {
            lookups: 25,
            l1_misses: 9,
            walks: 5,
        };
        let d = b.since(&a);
        assert_eq!(d.lookups, 15);
        assert_eq!(d.l1_misses, 5);
        assert_eq!(d.walks, 3);
    }

    #[test]
    fn nru_tlb_needs_more_than_associativity_to_evict_reliably() {
        // The observation behind Algorithm 1: under a non-LRU policy, an
        // eviction set exactly as large as the associativity does not always
        // evict, a somewhat larger one does. We measure eviction probability
        // of a target VPN after sequentially inserting k congruent VPNs into
        // an NRU-managed TLB (available for the replacement ablation).
        let evict_rate = |k: u64| -> f64 {
            let mut evictions = 0;
            let trials = 200;
            for trial in 0..trials {
                let cfg = TlbConfig {
                    replacement: pthammer_cache::ReplacementPolicy::Nru,
                    ..TlbConfig::l1_dtlb_64()
                };
                let mut tlb = Tlb::new(cfg, trial);
                let target = 5u64;
                tlb.insert(entry(target));
                // Pre-populate the set with unrelated entries to vary state.
                for j in 0..(trial % 4) {
                    tlb.insert(entry(5 + (100 + j) * 16));
                }
                for i in 1..=k {
                    tlb.insert(entry(5 + i * 16));
                }
                if !tlb.contains(target) {
                    evictions += 1;
                }
            }
            evictions as f64 / trials as f64
        };
        let at_assoc = evict_rate(4);
        let at_8 = evict_rate(8);
        assert!(
            at_8 > 0.95,
            "8 congruent inserts should almost always evict, got {at_8}"
        );
        assert!(at_assoc <= at_8);
    }

    /// The per-way-loop TLB the kernel replaced (merged entry + metadata
    /// slots, `position` scans), kept as the oracle of
    /// `kernel_tlbs_match_the_reference_loops`. Its victim choice runs the
    /// run-time-width kernel instance, whose equivalence with the reference
    /// policy loops `pthammer-cache` proves separately.
    struct RefTlb {
        config: TlbConfig,
        /// `(entry, meta)` per way, way-major within each set.
        slots: Vec<(Option<TlbEntry>, u64)>,
        states: Vec<ReplacementState>,
    }

    impl RefTlb {
        fn new(config: TlbConfig, seed: u64) -> Self {
            Self {
                config,
                slots: vec![(None, 0); config.entries() as usize],
                states: (0..config.sets)
                    .map(|s| ReplacementState::new(seed ^ (u64::from(s) << 13) | 1))
                    .collect(),
            }
        }

        fn span(&self, vpn: u64) -> (usize, core::ops::Range<usize>) {
            let set = self.config.indexing.set_index(vpn, self.config.sets) as usize;
            let ways = self.config.ways as usize;
            (set, set * ways..(set + 1) * ways)
        }

        fn position(&self, vpn: u64, pred: impl Fn(&Option<TlbEntry>) -> bool) -> Option<usize> {
            let (_, span) = self.span(vpn);
            self.slots[span].iter().position(|(entry, _)| pred(entry))
        }

        fn holds(vpn: u64) -> impl Fn(&Option<TlbEntry>) -> bool {
            move |entry| matches!(entry, Some(e) if e.vpn == vpn)
        }

        fn lookup(&mut self, vpn: u64) -> Option<TlbEntry> {
            let way = self.position(vpn, Self::holds(vpn))?;
            let (set, span) = self.span(vpn);
            let slot = &mut self.slots[span.start + way];
            self.config
                .replacement
                .on_hit(&mut slot.1, &mut self.states[set]);
            slot.0
        }

        fn insert(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
            let (set, span) = self.span(entry.vpn);
            if let Some(way) = self.position(entry.vpn, Self::holds(entry.vpn)) {
                let slot = &mut self.slots[span.start + way];
                slot.0 = Some(entry);
                self.config
                    .replacement
                    .on_hit(&mut slot.1, &mut self.states[set]);
                return None;
            }
            let (way, victim) = match self.position(entry.vpn, Option::is_none) {
                Some(way) => (way, None),
                None => {
                    let mut meta: Vec<u64> = self.slots[span.clone()].iter().map(|s| s.1).collect();
                    let way = self.config.replacement.choose_victim(
                        Assoc::dynamic(self.config.ways),
                        &mut meta,
                        &mut self.states[set],
                    );
                    for (slot, m) in self.slots[span.clone()].iter_mut().zip(meta) {
                        slot.1 = m;
                    }
                    (way, self.slots[span.start + way].0)
                }
            };
            let slot = &mut self.slots[span.start + way];
            slot.0 = Some(entry);
            self.config
                .replacement
                .on_fill(&mut slot.1, &mut self.states[set]);
            victim
        }

        fn invalidate(&mut self, vpn: u64) -> bool {
            let Some(way) = self.position(vpn, Self::holds(vpn)) else {
                return false;
            };
            let (_, span) = self.span(vpn);
            self.slots[span.start + way] = (None, 0);
            true
        }

        fn flush_all(&mut self) {
            for slot in &mut self.slots {
                slot.0 = None;
            }
        }

        /// Asserts that `tlb` holds the same entries, metadata words and
        /// per-set scalars.
        fn assert_matches(&self, tlb: &Tlb) -> Result<(), TestCaseError> {
            let ways = self.config.ways as usize;
            let mut len = 0;
            for set in 0..self.config.sets as usize {
                let (tags, meta, state) = tlb.store.set_state(set);
                let want = &self.slots[set * ways..(set + 1) * ways];
                let got: Vec<Option<TlbEntry>> = tags
                    .iter()
                    .enumerate()
                    .map(|(way, &tag)| (tag != EMPTY_TAG).then(|| tlb.entries[set * ways + way]))
                    .collect();
                let want_entries: Vec<Option<TlbEntry>> = want.iter().map(|s| s.0).collect();
                let want_meta: Vec<u64> = want.iter().map(|s| s.1).collect();
                prop_assert_eq!(got, want_entries);
                prop_assert_eq!(meta, &want_meta[..]);
                prop_assert_eq!(state, &self.states[set]);
                let occupied = want.iter().filter(|s| s.0.is_some()).count();
                prop_assert_eq!(tlb.occupancy(set as u32), occupied);
                len += occupied;
            }
            prop_assert_eq!(tlb.len(), len);
            Ok(())
        }
    }

    /// [`TlbHierarchy::lookup`] as it was: every level probed in turn.
    fn reference_lookup(
        l1d: &mut RefTlb,
        l1d_huge: &mut RefTlb,
        l2s: &mut RefTlb,
        vaddr: VirtAddr,
    ) -> Option<(TlbLevel, TlbEntry)> {
        let vpn4k = vaddr.as_u64() / PAGE_SIZE;
        if let Some(entry) = l1d.lookup(vpn4k) {
            return Some((TlbLevel::L1, entry));
        }
        if let Some(entry) = l1d_huge.lookup(vaddr.as_u64() / HUGE_PAGE_SIZE) {
            return Some((TlbLevel::L1, entry));
        }
        let entry = l2s.lookup(vpn4k)?;
        l1d.insert(entry);
        Some((TlbLevel::L2, entry))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        // A TLB hierarchy and a twin of reference-loop TLBs, driven by one
        // random stream of lookups (with a 4 KiB or 2 MiB walk refill after
        // each miss), speculative per-level inserts, invlpg and flushes,
        // return the same translations and evicted entries and hold the same
        // entries, metadata words and per-set scalars after every step.
        #[test]
        fn kernel_tlbs_match_the_reference_loops(
            ways in prop::sample::select(vec![1u32, 2, 3, 4, 5, 8, 12, 16]),
            policy in prop::sample::select(vec![
                ReplacementPolicy::Lru,
                ReplacementPolicy::Srrip,
                ReplacementPolicy::Nru,
                ReplacementPolicy::Random,
                ReplacementPolicy::Bip,
            ]),
            xor_fold in any::<bool>(),
            seed in any::<u64>(),
            ops in prop::collection::vec(any::<u64>(), 1..300),
        ) {
            let level = |sets| TlbConfig {
                sets,
                ways,
                indexing: if xor_fold { TlbIndexing::XorFold } else { TlbIndexing::Linear },
                replacement: policy,
            };
            let config = MmuConfig {
                l1_dtlb: level(4),
                l2_stlb: level(8),
                l1_dtlb_huge: level(2),
                ..MmuConfig::sandy_bridge(seed)
            };
            let mut tlbs = TlbHierarchy::new(&config);
            let mut l1d = RefTlb::new(config.l1_dtlb, config.seed ^ 0xA1);
            let mut l1d_huge = RefTlb::new(config.l1_dtlb_huge, config.seed ^ 0xB2);
            let mut l2s = RefTlb::new(config.l2_stlb, config.seed ^ 0xC3);
            // Enough 4 KiB pages and 2 MiB regions to overflow every level.
            let span = u64::from(ways) * 2 + 3;
            for (step, &op) in ops.iter().enumerate() {
                let vaddr = VirtAddr::new(
                    (op >> 8) % span * HUGE_PAGE_SIZE + (op >> 24) % (span * 4) * PAGE_SIZE,
                );
                let frame = PhysAddr::new((op >> 40) * HUGE_PAGE_SIZE);
                let walked = |page_size: PageSize| TlbEntry {
                    vpn: vaddr.as_u64() / page_size.bytes(),
                    frame,
                    pte: Pte::page(frame, PteFlags::user_rw()),
                    page_size,
                };
                match op & 7 {
                    0..=3 => {
                        let got = tlbs.lookup(vaddr);
                        let want = reference_lookup(&mut l1d, &mut l1d_huge, &mut l2s, vaddr);
                        prop_assert_eq!((step, got), (step, want));
                        if got.is_none() {
                            let entry = walked(if op & 1 == 0 { PageSize::Base4K } else { PageSize::Huge2M });
                            tlbs.insert(entry);
                            match entry.page_size {
                                PageSize::Base4K => {
                                    l1d.insert(entry);
                                    l2s.insert(entry);
                                }
                                PageSize::Huge2M => {
                                    l1d_huge.insert(entry);
                                }
                            }
                        }
                    }
                    4 => {
                        let entry = walked(PageSize::Base4K);
                        prop_assert_eq!((step, tlbs.l1d.insert(entry)), (step, l1d.insert(entry)));
                    }
                    5 => {
                        let entry = walked(PageSize::Huge2M);
                        prop_assert_eq!(
                            (step, tlbs.l1d_huge.insert(entry)),
                            (step, l1d_huge.insert(entry))
                        );
                    }
                    6 => {
                        tlbs.invalidate(vaddr);
                        l1d.invalidate(vaddr.as_u64() / PAGE_SIZE);
                        l2s.invalidate(vaddr.as_u64() / PAGE_SIZE);
                        l1d_huge.invalidate(vaddr.as_u64() / HUGE_PAGE_SIZE);
                    }
                    _ if (op >> 3) % 8 == 0 => {
                        tlbs.flush_all();
                        l1d.flush_all();
                        l2s.flush_all();
                        l1d_huge.flush_all();
                    }
                    _ => {
                        let vpn = vaddr.as_u64() / PAGE_SIZE;
                        prop_assert_eq!(
                            (step, tlbs.l2s.invalidate(vpn)),
                            (step, l2s.invalidate(vpn))
                        );
                    }
                }
                l1d.assert_matches(&tlbs.l1d)?;
                l1d_huge.assert_matches(&tlbs.l1d_huge)?;
                l2s.assert_matches(&tlbs.l2s)?;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Deferred refills of pages no TLB holds, applied set by set (and
        // on their own whenever the buffer fills), leave the hierarchy
        // exactly as looking each page up and inserting its walk at once.
        #[test]
        fn deferred_refills_match_inserting_at_once(
            ways in prop::sample::select(vec![1u32, 2, 3, 4, 5, 8]),
            policy in prop::sample::select(vec![
                ReplacementPolicy::Lru,
                ReplacementPolicy::Srrip,
                ReplacementPolicy::Nru,
                ReplacementPolicy::Random,
                ReplacementPolicy::Bip,
            ]),
            seed in any::<u64>(),
            warm in prop::collection::vec(0u64..4096, 0..200),
            first in 0u64..4096,
            pages in 0usize..2500,
        ) {
            let level = |sets| TlbConfig {
                sets,
                ways,
                indexing: TlbIndexing::XorFold,
                replacement: policy,
            };
            let config = MmuConfig {
                l1_dtlb: level(4),
                l2_stlb: level(16),
                ..MmuConfig::sandy_bridge(seed)
            };
            let mut at_once = TlbHierarchy::new(&config);
            for &vpn in &warm {
                if at_once.lookup(VirtAddr::new(vpn * PAGE_SIZE)).is_none() {
                    at_once.insert(entry(vpn));
                }
            }
            let mut deferred = at_once.clone();
            let mut held = Vec::new();
            let run = first + 4096..first + 4096 + pages as u64;
            deferred.held_pages(run.clone(), &mut held);
            prop_assert!(held.is_empty(), "the run's pages are disjoint from the warm ones");
            for vpn in run {
                prop_assert!(at_once.lookup(VirtAddr::new(vpn * PAGE_SIZE)).is_none());
                at_once.insert(entry(vpn));
                deferred.count_walks(1);
                deferred.defer_refill(entry(vpn));
                prop_assert!(deferred.deferred.len() < MAX_DEFERRED_REFILLS);
            }
            deferred.apply_refills();
            prop_assert_eq!(deferred, at_once);
        }
    }

    #[test]
    fn held_pages_lists_every_level_in_range() {
        let mut h = TlbHierarchy::new(&MmuConfig::sandy_bridge(5));
        for vpn in [3u64, 700, 9000] {
            h.insert(entry(vpn));
        }
        let frame = PhysAddr::new(8 * HUGE_PAGE_SIZE);
        h.insert(TlbEntry {
            vpn: 2,
            frame,
            pte: Pte::page(frame, PteFlags::user_rw_huge()),
            page_size: PageSize::Huge2M,
        });
        let mut held = Vec::new();
        h.held_pages(0..1030, &mut held);
        let huge: Vec<u64> = (1024..1030).collect();
        assert_eq!(held, [vec![3, 700], huge].concat());
        h.held_pages(9000..9001, &mut held);
        assert_eq!(held, vec![9000]);
    }
}
