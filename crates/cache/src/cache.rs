//! A single set-associative cache structure.
//!
//! The tags and replacement metadata live in a [`SetStore`], whose
//! set-operation kernel runs every per-way loop — this is the hottest data
//! structure of the whole simulator (every simulated memory access probes
//! three cache levels).

use serde::Serialize;

use pthammer_types::{LaneSink, LaneSource, PhysAddr};

use crate::kernel::{Probe, SetStore, EMPTY_TAG};
use crate::replacement::ReplacementPolicy;

/// Result of an access to one cache structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the line was present.
    pub hit: bool,
    /// The set that was probed.
    pub set: u32,
}

/// A physically-indexed set-associative cache (or one LLC slice).
///
/// Only presence is tracked; tags store the full cache-line address. Set
/// selection uses `line_index % sets`, which matches real hardware when the
/// set count is a power of two.
///
/// # Examples
///
/// ```
/// use pthammer_cache::{ReplacementPolicy, SetAssociativeCache};
/// use pthammer_types::PhysAddr;
///
/// let mut cache = SetAssociativeCache::new(64, 8, ReplacementPolicy::Lru, 1);
/// let addr = PhysAddr::new(0x1000);
/// assert!(!cache.access(addr).hit);
/// cache.fill(addr);
/// assert!(cache.access(addr).hit);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SetAssociativeCache {
    sets: u32,
    /// `sets - 1`; set selection is a mask because `sets` is a power of two.
    set_mask: u64,
    /// Line tags (cache-line indices) and replacement state.
    store: SetStore,
}

impl SetAssociativeCache {
    /// Creates a cache with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, or `ways` is zero or above
    /// [`MAX_WAYS`](crate::MAX_WAYS).
    pub fn new(sets: u32, ways: u32, replacement: ReplacementPolicy, seed: u64) -> Self {
        assert!(
            sets.is_power_of_two() && sets > 0,
            "sets must be a power of two"
        );
        Self {
            sets,
            set_mask: u64::from(sets) - 1,
            store: SetStore::new(sets, ways, replacement, |s| seed ^ (u64::from(s) << 17) | 1),
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> u32 {
        self.store.ways()
    }

    /// Set index of a physical address.
    #[inline]
    pub fn set_index(&self, paddr: PhysAddr) -> u32 {
        (paddr.cache_line_index() & self.set_mask) as u32
    }

    #[inline]
    fn line_tag(paddr: PhysAddr) -> u64 {
        paddr.cache_line_index()
    }

    /// Probes for the line without updating replacement state.
    #[inline]
    pub fn contains(&self, paddr: PhysAddr) -> bool {
        let set = self.set_index(paddr) as usize;
        self.store.find(set, Self::line_tag(paddr)).is_some()
    }

    /// Looks up the line, updating replacement state on a hit.
    #[inline(always)]
    pub fn access(&mut self, paddr: PhysAddr) -> CacheAccess {
        let set = self.set_index(paddr);
        let hit = self
            .store
            .lookup(set as usize, Self::line_tag(paddr))
            .is_some();
        CacheAccess { hit, set }
    }

    /// Looks up the line like [`SetAssociativeCache::access`]; on a miss,
    /// additionally reports the first empty way of the probed set (if any),
    /// so a subsequent [`SetAssociativeCache::fill_absent_at`] of the same
    /// line can skip re-scanning the set.
    #[inline(always)]
    pub fn access_noting_empty(&mut self, paddr: PhysAddr) -> (CacheAccess, Option<u32>) {
        let set = self.set_index(paddr);
        match self.store.probe(set as usize, Self::line_tag(paddr)) {
            Probe::Hit(_) => (CacheAccess { hit: true, set }, None),
            Probe::Miss(empty) => (CacheAccess { hit: false, set }, empty),
        }
    }

    /// Inserts the line, returning the physical line address it displaced (if
    /// any). Filling an already-present line only refreshes its replacement
    /// state.
    pub fn fill(&mut self, paddr: PhysAddr) -> Option<PhysAddr> {
        let set = self.set_index(paddr) as usize;
        if self.store.lookup(set, Self::line_tag(paddr)).is_some() {
            return None;
        }
        self.fill_absent(paddr)
    }

    /// Inserts a line that is known to be absent from this structure (e.g.
    /// because a lookup just missed), skipping the presence scan of
    /// [`SetAssociativeCache::fill`]. Returns the displaced line, if any.
    ///
    /// Calling this for a line that *is* present would duplicate the line;
    /// debug builds assert against that.
    #[inline]
    pub fn fill_absent(&mut self, paddr: PhysAddr) -> Option<PhysAddr> {
        let empty = self.store.first_empty(self.set_index(paddr) as usize);
        self.fill_absent_at(paddr, empty)
    }

    /// Inserts an absent line whose destination set was already scanned by
    /// [`SetAssociativeCache::access_noting_empty`]: `empty_way` is that
    /// probe's result, so no way scan runs at all. The set must not have
    /// been touched in between.
    #[inline(always)]
    pub fn fill_absent_at(&mut self, paddr: PhysAddr, empty_way: Option<u32>) -> Option<PhysAddr> {
        debug_assert_ne!(Self::line_tag(paddr), EMPTY_TAG, "unrepresentable tag");
        let set = self.set_index(paddr) as usize;
        let (_, displaced) = self.store.place(set, Self::line_tag(paddr), empty_way);
        displaced.map(|tag| PhysAddr::new(tag * 64))
    }

    /// Invalidates the line if present; returns whether it was present.
    pub fn invalidate(&mut self, paddr: PhysAddr) -> bool {
        let set = self.set_index(paddr) as usize;
        self.store.remove(set, Self::line_tag(paddr)).is_some()
    }

    /// Invalidates every line (e.g. `wbinvd`).
    pub fn invalidate_all(&mut self) {
        self.store.clear();
    }

    /// Number of valid lines currently held in the given set.
    pub fn occupancy(&self, set: u32) -> usize {
        self.store.occupancy(set as usize)
    }

    /// Records `set` as [`LaneSink`] (see [`SetStore::read_set`]).
    pub(crate) fn read_set(&self, set: u32, lanes: &mut impl LaneSink) {
        self.store.read_set(set as usize, lanes);
    }

    /// Writes `set` back from its lanes (see [`SetStore::write_set`]).
    pub(crate) fn write_set(&mut self, set: u32, source: &mut LaneSource) {
        self.store.write_set(set as usize, source);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::{reference, ReplacementState};
    use proptest::prelude::*;

    fn addr_in_set(cache: &SetAssociativeCache, set: u32, n: u64) -> PhysAddr {
        // Distinct lines that map to the same set: step by sets*64.
        PhysAddr::new(u64::from(set) * 64 + n * u64::from(cache.sets()) * 64)
    }

    #[test]
    fn fill_then_hit() {
        let mut c = SetAssociativeCache::new(16, 4, ReplacementPolicy::Lru, 1);
        let a = PhysAddr::new(0x1040);
        assert!(!c.access(a).hit);
        assert_eq!(c.fill(a), None);
        assert!(c.access(a).hit);
        assert!(c.contains(a));
    }

    #[test]
    fn same_line_bytes_share_entry() {
        let mut c = SetAssociativeCache::new(16, 4, ReplacementPolicy::Lru, 1);
        c.fill(PhysAddr::new(0x1000));
        assert!(c.access(PhysAddr::new(0x103f)).hit);
        assert!(!c.access(PhysAddr::new(0x1040)).hit);
    }

    #[test]
    fn lru_eviction_of_oldest_line() {
        let mut c = SetAssociativeCache::new(16, 2, ReplacementPolicy::Lru, 1);
        let a = addr_in_set(&c, 3, 0);
        let b = addr_in_set(&c, 3, 1);
        let d = addr_in_set(&c, 3, 2);
        c.fill(a);
        c.fill(b);
        // Touch `a` so `b` is LRU.
        c.access(a);
        let evicted = c.fill(d);
        assert_eq!(evicted, Some(b.cache_line_base()));
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn fill_existing_line_does_not_evict() {
        let mut c = SetAssociativeCache::new(16, 2, ReplacementPolicy::Lru, 1);
        let a = addr_in_set(&c, 5, 0);
        let b = addr_in_set(&c, 5, 1);
        c.fill(a);
        c.fill(b);
        assert_eq!(c.fill(a), None);
        assert_eq!(c.occupancy(5), 2);
    }

    #[test]
    fn fill_absent_matches_fill_for_missing_lines() {
        let mut via_fill = SetAssociativeCache::new(8, 2, ReplacementPolicy::Srrip, 5);
        let mut via_absent = SetAssociativeCache::new(8, 2, ReplacementPolicy::Srrip, 5);
        for n in 0..12u64 {
            let a = addr_in_set(&via_fill, 2, n);
            assert!(!via_fill.contains(a));
            assert_eq!(via_fill.fill(a), via_absent.fill_absent(a));
        }
        for n in 0..12u64 {
            let a = addr_in_set(&via_fill, 2, n);
            assert_eq!(via_fill.contains(a), via_absent.contains(a));
        }
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = SetAssociativeCache::new(16, 4, ReplacementPolicy::Lru, 1);
        let a = PhysAddr::new(0x2000);
        c.fill(a);
        assert!(c.invalidate(a));
        assert!(!c.contains(a));
        assert!(!c.invalidate(a));
    }

    #[test]
    fn invalidate_all_empties_cache() {
        let mut c = SetAssociativeCache::new(8, 2, ReplacementPolicy::Lru, 1);
        for i in 0..16u64 {
            c.fill(PhysAddr::new(i * 64));
        }
        c.invalidate_all();
        for set in 0..8 {
            assert_eq!(c.occupancy(set), 0);
        }
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut c = SetAssociativeCache::new(16, 1, ReplacementPolicy::Lru, 1);
        let a = PhysAddr::new(0);
        let b = PhysAddr::new(64);
        c.fill(a);
        c.fill(b);
        assert!(c.contains(a));
        assert!(c.contains(b));
    }

    #[test]
    fn eviction_within_capacity_limits() {
        let mut c = SetAssociativeCache::new(4, 3, ReplacementPolicy::Srrip, 9);
        // Fill 10 lines mapping to set 0; occupancy can never exceed 3.
        for n in 0..10 {
            c.fill(addr_in_set(&c, 0, n));
            assert!(c.occupancy(0) <= 3);
        }
        assert_eq!(c.occupancy(0), 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = SetAssociativeCache::new(12, 4, ReplacementPolicy::Lru, 1);
    }

    /// The per-way-loop cache the kernel replaced (merged tag + metadata
    /// slots, `position` scans), kept as the oracle of
    /// `kernel_cache_matches_the_reference_loops`.
    struct RefCache {
        set_mask: u64,
        ways: usize,
        policy: ReplacementPolicy,
        /// `(tag, meta)` per way, way-major within each set.
        slots: Vec<(u64, u64)>,
        states: Vec<ReplacementState>,
    }

    impl RefCache {
        fn new(sets: u32, ways: u32, policy: ReplacementPolicy, seed: u64) -> Self {
            Self {
                set_mask: u64::from(sets) - 1,
                ways: ways as usize,
                policy,
                slots: vec![(EMPTY_TAG, 0); sets as usize * ways as usize],
                states: (0..sets)
                    .map(|s| ReplacementState::new(seed ^ (u64::from(s) << 17) | 1))
                    .collect(),
            }
        }

        fn set_of(&self, paddr: PhysAddr) -> usize {
            (paddr.cache_line_index() & self.set_mask) as usize
        }

        /// The set's tags and metadata words, split apart.
        fn set(&self, set: usize) -> (Vec<u64>, Vec<u64>) {
            self.slots[set * self.ways..(set + 1) * self.ways]
                .iter()
                .copied()
                .unzip()
        }

        /// Runs `f` over the set's metadata words, then writes them back.
        fn with_meta<R>(
            &mut self,
            set: usize,
            f: impl FnOnce(&mut [u64], &mut ReplacementState) -> R,
        ) -> R {
            let (_, mut meta) = self.set(set);
            let result = f(&mut meta, &mut self.states[set]);
            for (slot, m) in self.slots[set * self.ways..].iter_mut().zip(meta) {
                slot.1 = m;
            }
            result
        }

        fn position(&self, set: usize, tag: u64) -> Option<usize> {
            self.slots[set * self.ways..(set + 1) * self.ways]
                .iter()
                .position(|slot| slot.0 == tag)
        }

        fn contains(&self, paddr: PhysAddr) -> bool {
            self.position(self.set_of(paddr), paddr.cache_line_index())
                .is_some()
        }

        fn access_noting_empty(&mut self, paddr: PhysAddr) -> (bool, Option<u32>) {
            let set = self.set_of(paddr);
            let tag = paddr.cache_line_index();
            let mut empty = None;
            for way in 0..self.ways {
                let slot_tag = self.slots[set * self.ways + way].0;
                if slot_tag == tag {
                    let policy = self.policy;
                    self.with_meta(set, |m, st| reference::on_hit(policy, m, st, way));
                    return (true, None);
                }
                if empty.is_none() && slot_tag == EMPTY_TAG {
                    empty = Some(way as u32);
                }
            }
            (false, empty)
        }

        fn fill(&mut self, paddr: PhysAddr) -> Option<PhysAddr> {
            let set = self.set_of(paddr);
            if let Some(way) = self.position(set, paddr.cache_line_index()) {
                let policy = self.policy;
                self.with_meta(set, |m, st| reference::on_hit(policy, m, st, way));
                return None;
            }
            self.fill_absent(paddr)
        }

        fn fill_absent(&mut self, paddr: PhysAddr) -> Option<PhysAddr> {
            let set = self.set_of(paddr);
            let empty = self.position(set, EMPTY_TAG).map(|w| w as u32);
            self.fill_absent_at(paddr, empty)
        }

        fn fill_absent_at(&mut self, paddr: PhysAddr, empty: Option<u32>) -> Option<PhysAddr> {
            let set = self.set_of(paddr);
            let policy = self.policy;
            let (way, displaced) = match empty {
                Some(way) => (way as usize, None),
                None => {
                    let way = self.with_meta(set, |m, st| reference::choose_victim(policy, m, st));
                    (
                        way,
                        Some(PhysAddr::new(self.slots[set * self.ways + way].0 * 64)),
                    )
                }
            };
            self.slots[set * self.ways + way].0 = paddr.cache_line_index();
            self.with_meta(set, |m, st| reference::on_fill(policy, m, st, way));
            displaced
        }

        fn invalidate(&mut self, paddr: PhysAddr) -> bool {
            let set = self.set_of(paddr);
            match self.position(set, paddr.cache_line_index()) {
                Some(way) => {
                    self.slots[set * self.ways + way] = (EMPTY_TAG, 0);
                    true
                }
                None => false,
            }
        }

        fn invalidate_all(&mut self) {
            for slot in &mut self.slots {
                slot.0 = EMPTY_TAG;
            }
        }

        fn occupancy(&self, set: usize) -> usize {
            self.set(set).0.iter().filter(|&&t| t != EMPTY_TAG).count()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        // Twin caches — the kernel and the reference loops — driven by one
        // random stream of access / probe+fill / fill / fill_absent /
        // invalidate / invalidate_all report the same hits, empty ways and
        // displaced lines, and hold the same tags, metadata words and
        // per-set scalars after every step.
        #[test]
        fn kernel_cache_matches_the_reference_loops(
            ways in prop::sample::select(reference::WAYS.to_vec()),
            policy in prop::sample::select(reference::POLICIES.to_vec()),
            seed in any::<u64>(),
            ops in prop::collection::vec(any::<u64>(), 1..400),
        ) {
            const SETS: u32 = 4;
            let mut cache = SetAssociativeCache::new(SETS, ways, policy, seed);
            let mut twin = RefCache::new(SETS, ways, policy, seed);
            // Enough distinct lines per set to overflow the widest set.
            let lines = u64::from(SETS) * (u64::from(ways) * 2 + 1);
            for (step, &op) in ops.iter().enumerate() {
                let paddr = PhysAddr::new((op >> 8) % lines * 64);
                match op & 7 {
                    0 => {
                        let got = cache.access(paddr);
                        let (hit, _) = twin.access_noting_empty(paddr);
                        prop_assert_eq!(
                            (step, got.hit, got.set as usize),
                            (step, hit, twin.set_of(paddr))
                        );
                    }
                    1 | 2 => {
                        // The memory subsystem's miss path: probe, then fill
                        // at the probe's empty-way hint.
                        let (got, empty) = cache.access_noting_empty(paddr);
                        let want = twin.access_noting_empty(paddr);
                        prop_assert_eq!((step, got.hit, empty), (step, want.0, want.1));
                        if !got.hit {
                            prop_assert_eq!(
                                (step, cache.fill_absent_at(paddr, empty)),
                                (step, twin.fill_absent_at(paddr, empty))
                            );
                        }
                    }
                    3 => prop_assert_eq!((step, cache.fill(paddr)), (step, twin.fill(paddr))),
                    4 if !twin.contains(paddr) => prop_assert_eq!(
                        (step, cache.fill_absent(paddr)),
                        (step, twin.fill_absent(paddr))
                    ),
                    5 => prop_assert_eq!(
                        (step, cache.invalidate(paddr)),
                        (step, twin.invalidate(paddr))
                    ),
                    6 if (op >> 3) % 16 == 0 => {
                        cache.invalidate_all();
                        twin.invalidate_all();
                    }
                    _ => prop_assert_eq!(
                        (step, cache.contains(paddr)),
                        (step, twin.contains(paddr))
                    ),
                }
                for set in 0..SETS as usize {
                    let (tags, meta, state) = cache.store.set_state(set);
                    let (want_tags, want_meta) = twin.set(set);
                    prop_assert_eq!((step, tags), (step, &want_tags[..]));
                    prop_assert_eq!((step, meta), (step, &want_meta[..]));
                    prop_assert_eq!((step, state), (step, &twin.states[set]));
                    prop_assert_eq!(cache.occupancy(set as u32), twin.occupancy(set));
                }
            }
        }
    }
}
