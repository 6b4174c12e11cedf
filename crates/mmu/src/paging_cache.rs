//! Paging-structure caches (PML4E, PDPTE and PDE caches).
//!
//! These small, fully-associative structures cache *partial* translations:
//! each entry maps a prefix of the virtual address to the physical address of
//! the next page-table level, letting the walker skip the upper levels.
//! PThammer depends on the PDE cache retaining the target's partial
//! translation so that a hammering iteration performs exactly one memory
//! load — the Level-1 PTE (the red path in Figure 2 of the paper).

use serde::Serialize;

use pthammer_types::{LaneSink, LaneSource, PhysAddr, VirtAddr};

/// The paging-structure-cache level, named after the entry kind it caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum PscLevel {
    /// Caches PDE entries: tag = VA bits 47..21, payload = L1 page-table base.
    Pde,
    /// Caches PDPTE entries: tag = VA bits 47..30, payload = PD base.
    Pdpte,
    /// Caches PML4E entries: tag = VA bits 47..39, payload = PDPT base.
    Pml4e,
}

impl PscLevel {
    /// Number of low virtual-address bits *not* covered by this cache's tag.
    pub const fn tag_shift(self) -> u32 {
        match self {
            PscLevel::Pde => 21,
            PscLevel::Pdpte => 30,
            PscLevel::Pml4e => 39,
        }
    }

    /// Extracts the tag of a virtual address for this level.
    pub fn tag_of(self, vaddr: VirtAddr) -> u64 {
        vaddr.as_u64() >> self.tag_shift()
    }

    /// The page-table level whose *base* this cache's payload points to
    /// (e.g. the PDE cache points at Level-1 page tables).
    pub const fn next_table_level(self) -> u8 {
        match self {
            PscLevel::Pde => 1,
            PscLevel::Pdpte => 2,
            PscLevel::Pml4e => 3,
        }
    }
}

/// One fully-associative, LRU paging-structure cache.
///
/// Tags live in their own dense array so the per-translation scan touches
/// the minimum number of host cache lines; payloads (next-table base, LRU
/// stamp) are looked up by index only on a hit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PagingStructureCache {
    level: PscLevel,
    capacity: usize,
    /// Tags, scanned linearly on every walk.
    tags: Vec<u64>,
    /// (next-table base, LRU stamp) per tag, same indices as `tags`.
    payloads: Vec<(PhysAddr, u64)>,
    tick: u64,
}

impl PagingStructureCache {
    /// Creates a cache for `level` holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(level: PscLevel, capacity: usize) -> Self {
        assert!(
            capacity > 0,
            "paging-structure cache capacity must be non-zero"
        );
        Self {
            level,
            capacity,
            tags: Vec::with_capacity(capacity),
            payloads: Vec::with_capacity(capacity),
            tick: 0,
        }
    }

    /// The level this cache serves.
    pub fn level(&self) -> PscLevel {
        self.level
    }

    /// Number of currently cached entries.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// True when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Looks up the partial translation for `vaddr`, returning the physical
    /// base of the next page-table level on a hit.
    #[inline]
    pub fn lookup(&mut self, vaddr: VirtAddr) -> Option<PhysAddr> {
        let tag = self.level.tag_of(vaddr);
        self.tick += 1;
        let idx = self.tags.iter().position(|&t| t == tag)?;
        let payload = &mut self.payloads[idx];
        payload.1 = self.tick;
        Some(payload.0)
    }

    /// Probes for `vaddr` without updating LRU state.
    pub fn contains(&self, vaddr: VirtAddr) -> bool {
        let tag = self.level.tag_of(vaddr);
        self.tags.contains(&tag)
    }

    /// Inserts the partial translation for `vaddr`.
    pub fn insert(&mut self, vaddr: VirtAddr, next_table: PhysAddr) {
        let tag = self.level.tag_of(vaddr);
        self.tick += 1;
        if let Some(idx) = self.tags.iter().position(|&t| t == tag) {
            self.payloads[idx] = (next_table, self.tick);
            return;
        }
        if self.tags.len() < self.capacity {
            self.tags.push(tag);
            self.payloads.push((next_table, self.tick));
            return;
        }
        let lru = self
            .payloads
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, stamp))| *stamp)
            .map(|(i, _)| i)
            .expect("cache is non-empty");
        self.tags[lru] = tag;
        self.payloads[lru] = (next_table, self.tick);
    }

    /// Removes the entry covering `vaddr`, if present.
    pub fn invalidate(&mut self, vaddr: VirtAddr) {
        let tag = self.level.tag_of(vaddr);
        while let Some(idx) = self.tags.iter().position(|&t| t == tag) {
            self.tags.remove(idx);
            self.payloads.remove(idx);
        }
    }

    /// Removes every entry.
    pub fn flush_all(&mut self) {
        self.tags.clear();
        self.payloads.clear();
    }

    /// Records the whole cache as [`LaneSink`]: its entry count, tags and
    /// next-table bases as discrete lanes, its tick and LRU stamps as
    /// counter lanes.
    pub(crate) fn read_lanes(&self, lanes: &mut impl LaneSink) {
        lanes.discrete(self.tags.len() as u64);
        for (&tag, (next_table, _)) in self.tags.iter().zip(&self.payloads) {
            lanes.discrete(tag);
            lanes.discrete(next_table.as_u64());
        }
        lanes.stamped(self.tick, self.payloads.iter().map(|&(_, stamp)| stamp));
    }

    /// Writes the whole cache back from lanes recorded by
    /// [`PagingStructureCache::read_lanes`].
    pub(crate) fn write_lanes(&mut self, source: &mut LaneSource) {
        let len = usize::try_from(source.discrete()).expect("entry count fits usize");
        self.tags.clear();
        self.payloads.clear();
        for _ in 0..len {
            self.tags.push(source.discrete());
            self.payloads.push((PhysAddr::new(source.discrete()), 0));
        }
        self.tick = source.counter();
        for (_, stamp) in &mut self.payloads {
            *stamp = source.counter();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;
    const TWO_MIB: u64 = 2 << 20;

    #[test]
    fn tags_cover_the_right_spans() {
        let level = PscLevel::Pde;
        // Two addresses in the same 2 MiB region share a PDE tag.
        assert_eq!(
            level.tag_of(VirtAddr::new(5 * TWO_MIB)),
            level.tag_of(VirtAddr::new(5 * TWO_MIB + 0x1f_ffff))
        );
        assert_ne!(
            level.tag_of(VirtAddr::new(5 * TWO_MIB)),
            level.tag_of(VirtAddr::new(6 * TWO_MIB))
        );
        // PDPTE covers 1 GiB.
        assert_eq!(
            PscLevel::Pdpte.tag_of(VirtAddr::new(3 * GIB)),
            PscLevel::Pdpte.tag_of(VirtAddr::new(3 * GIB + 512 * TWO_MIB - 1))
        );
    }

    #[test]
    fn lookup_hit_and_miss() {
        let mut c = PagingStructureCache::new(PscLevel::Pde, 4);
        let va = VirtAddr::new(7 * TWO_MIB + 0x123);
        assert_eq!(c.lookup(va), None);
        c.insert(va, PhysAddr::new(0x55_000));
        assert_eq!(
            c.lookup(VirtAddr::new(7 * TWO_MIB)),
            Some(PhysAddr::new(0x55_000))
        );
        assert!(c.contains(va));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_when_full() {
        let mut c = PagingStructureCache::new(PscLevel::Pde, 2);
        let a = VirtAddr::new(TWO_MIB);
        let b = VirtAddr::new(2 * TWO_MIB);
        let d = VirtAddr::new(3 * TWO_MIB);
        c.insert(a, PhysAddr::new(0x1000));
        c.insert(b, PhysAddr::new(0x2000));
        // Touch `a` so `b` becomes LRU.
        c.lookup(a);
        c.insert(d, PhysAddr::new(0x3000));
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn insert_existing_tag_updates_payload() {
        let mut c = PagingStructureCache::new(PscLevel::Pml4e, 4);
        let va = VirtAddr::new(0x12345 * TWO_MIB);
        c.insert(va, PhysAddr::new(0x1000));
        c.insert(va, PhysAddr::new(0x2000));
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(va), Some(PhysAddr::new(0x2000)));
    }

    #[test]
    fn invalidate_and_flush() {
        let mut c = PagingStructureCache::new(PscLevel::Pdpte, 4);
        let a = VirtAddr::new(GIB);
        let b = VirtAddr::new(2 * GIB);
        c.insert(a, PhysAddr::new(0x1000));
        c.insert(b, PhysAddr::new(0x2000));
        c.invalidate(a);
        assert!(!c.contains(a));
        assert!(c.contains(b));
        c.flush_all();
        assert!(c.is_empty());
    }

    #[test]
    fn next_table_levels() {
        assert_eq!(PscLevel::Pde.next_table_level(), 1);
        assert_eq!(PscLevel::Pdpte.next_table_level(), 2);
        assert_eq!(PscLevel::Pml4e.next_table_level(), 3);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = PagingStructureCache::new(PscLevel::Pde, 0);
    }
}
