//! A single set-associative cache structure.
//!
//! The tags and replacement metadata live in a [`SetStore`], whose
//! set-operation kernel runs every per-way loop — this is the hottest data
//! structure of the whole simulator (every simulated memory access probes
//! three cache levels). A sliced LLC keeps every slice's sets in one store.

use serde::Serialize;

use pthammer_types::{LaneSink, LaneSource, PhysAddr};

use crate::kernel::{Probe, SetStore};
use crate::replacement::ReplacementPolicy;
use crate::slice::SliceHasher;

/// A physically-indexed set-associative cache, optionally split into
/// slices.
///
/// Only presence is tracked; tags store the cache-line index, which must
/// stay below `u32::MAX` (physical addresses below 256 GiB). A line's slice
/// comes from the [`SliceHasher`] and its set within the slice from
/// `line_index % sets`, which matches real hardware when the set count is a
/// power of two. The slices' sets share one [`SetStore`], slice after
/// slice; a *store set* ([`SetAssociativeCache::store_set`]) names a set
/// there.
///
/// # Examples
///
/// ```
/// use pthammer_cache::{Probe, ReplacementPolicy, SetAssociativeCache};
/// use pthammer_types::PhysAddr;
///
/// let mut cache = SetAssociativeCache::new(64, 8, ReplacementPolicy::Lru);
/// let addr = PhysAddr::new(0x1000);
/// let Probe::Miss(empty) = cache.access(addr) else { unreachable!() };
/// cache.fill_absent_at(addr, empty);
/// assert!(cache.access(addr).is_hit());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SetAssociativeCache {
    /// Sets per slice.
    sets: u32,
    /// `sets - 1`; set selection is a mask because `sets` is a power of two.
    set_mask: u64,
    /// The slice of a line; one slice, with no hash, for an unsliced cache.
    hasher: SliceHasher,
    /// Line tags (cache-line indices) and replacement state of every
    /// slice's sets.
    store: SetStore,
}

impl SetAssociativeCache {
    /// Creates an unsliced cache with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, or `ways` is zero or above
    /// [`MAX_WAYS`](crate::MAX_WAYS).
    pub fn new(sets: u32, ways: u32, replacement: ReplacementPolicy) -> Self {
        Self::sliced(SliceHasher::intel_like(1), sets, ways, replacement)
    }

    /// Creates a cache of `hasher.slices()` slices, each of `sets` sets of
    /// `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, or `ways` is zero or above
    /// [`MAX_WAYS`](crate::MAX_WAYS).
    pub fn sliced(
        hasher: SliceHasher,
        sets: u32,
        ways: u32,
        replacement: ReplacementPolicy,
    ) -> Self {
        assert!(
            sets.is_power_of_two() && sets > 0,
            "sets must be a power of two"
        );
        Self {
            sets,
            set_mask: u64::from(sets) - 1,
            store: SetStore::new(hasher.slices() * sets, ways, replacement),
            hasher,
        }
    }

    /// Number of sets per slice.
    pub fn sets(&self) -> u32 {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> u32 {
        self.store.ways()
    }

    /// Set index of a physical address within its slice.
    #[inline]
    pub fn set_index(&self, paddr: PhysAddr) -> u32 {
        (paddr.cache_line_index() & self.set_mask) as u32
    }

    /// The slice and the set within it of a physical address.
    pub fn slice_and_set(&self, paddr: PhysAddr) -> (u32, u32) {
        (self.hasher.slice_of(paddr), self.set_index(paddr))
    }

    /// The store set of a physical address: its slice's sets come after
    /// those of every lower slice.
    #[inline(always)]
    pub fn store_set(&self, paddr: PhysAddr) -> u32 {
        self.hasher.slice_of(paddr) * self.sets + self.set_index(paddr)
    }

    #[inline]
    fn line_tag(paddr: PhysAddr) -> u64 {
        paddr.cache_line_index()
    }

    /// Probes for the line without updating replacement state.
    #[inline]
    pub fn contains(&self, paddr: PhysAddr) -> bool {
        let set = self.store_set(paddr) as usize;
        self.store.find(set, Self::line_tag(paddr)).is_some()
    }

    /// Looks up the line, updating replacement state on a hit. A miss
    /// reports the probed set's first empty way (if any), so a following
    /// [`SetAssociativeCache::fill_absent_at`] of the same line skips
    /// re-scanning the set.
    #[inline(always)]
    pub fn access(&mut self, paddr: PhysAddr) -> Probe {
        let set = self.store_set(paddr) as usize;
        self.store.probe(set, Self::line_tag(paddr))
    }

    /// Inserts a line that is known to be absent from this structure (e.g.
    /// because a lookup just missed) into the set's first empty way, else
    /// the replacement policy's victim. Returns the displaced line, if any.
    ///
    /// Calling this for a line that *is* present would duplicate the line;
    /// debug builds assert against that.
    #[inline]
    pub fn fill_absent(&mut self, paddr: PhysAddr) -> Option<PhysAddr> {
        let empty = self.store.first_empty(self.store_set(paddr) as usize);
        self.fill_absent_at(paddr, empty)
    }

    /// Inserts an absent line whose destination set was already scanned by
    /// [`SetAssociativeCache::access`]: `empty_way` is that probe's result,
    /// so no way scan runs at all. The set must not have been touched in
    /// between.
    #[inline(always)]
    pub fn fill_absent_at(&mut self, paddr: PhysAddr, empty_way: Option<u32>) -> Option<PhysAddr> {
        let set = self.store_set(paddr) as usize;
        let (_, displaced) = self.store.place(set, Self::line_tag(paddr), empty_way);
        displaced.map(|tag| PhysAddr::new(tag * 64))
    }

    /// Records `rounds` rounds of hits on `lines`, every one present and at
    /// most eight of them, each round hitting them in order: the same end
    /// state as [`SetAssociativeCache::access`] of each line, round after
    /// round, as one [`SetStore::touch_run`] per set that replays the last
    /// round.
    pub fn hit_run(&mut self, lines: &[PhysAddr], rounds: u64) {
        const MAX_LINES: usize = 8;
        assert!(
            lines.len() <= MAX_LINES,
            "at most {MAX_LINES} lines per hit run"
        );
        if rounds == 0 {
            return;
        }
        for (first, &line) in lines.iter().enumerate() {
            let set = self.store_set(line);
            if lines[..first].iter().any(|&l| self.store_set(l) == set) {
                continue;
            }
            // The set's ways in the order one round hits them.
            let (mut ways, mut len) = ([0u32; MAX_LINES], 0);
            for &other in lines[first..].iter().filter(|&&l| self.store_set(l) == set) {
                ways[len] = self
                    .store
                    .find(set as usize, Self::line_tag(other))
                    .expect("a hit run's lines are present");
                len += 1;
            }
            self.store
                .touch_run(set as usize, &ways[..len], len as u64 * rounds);
        }
    }

    /// Invalidates the line if present; returns whether it was present.
    pub fn invalidate(&mut self, paddr: PhysAddr) -> bool {
        let set = self.store_set(paddr) as usize;
        self.store.remove(set, Self::line_tag(paddr)).is_some()
    }

    /// Invalidates every line (e.g. `wbinvd`).
    pub fn invalidate_all(&mut self) {
        self.store.clear();
    }

    /// Number of valid lines currently held in the given store set.
    pub fn occupancy(&self, set: u32) -> usize {
        self.store.occupancy(set as usize)
    }

    /// Records store set `set` as [`LaneSink`] (see [`SetStore::read_set`]).
    pub(crate) fn read_set(&self, set: u32, lanes: &mut impl LaneSink) {
        self.store.read_set(set as usize, lanes);
    }

    /// Writes store set `set` back from its lanes (see
    /// [`SetStore::write_set`]).
    pub(crate) fn write_set(&mut self, set: u32, source: &mut LaneSource) {
        self.store.write_set(set as usize, source);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::{reference, ReplacementState};
    use proptest::prelude::*;

    /// Accesses the line and, on a miss, fills it as the hierarchy does:
    /// at the probe's empty way, else over the policy's victim. Returns the
    /// displaced line.
    fn access_filling(cache: &mut SetAssociativeCache, paddr: PhysAddr) -> Option<PhysAddr> {
        match cache.access(paddr) {
            Probe::Hit(_) => None,
            Probe::Miss(empty) => cache.fill_absent_at(paddr, empty),
        }
    }

    fn addr_in_set(cache: &SetAssociativeCache, set: u32, n: u64) -> PhysAddr {
        // Distinct lines that map to the same set: step by sets*64.
        PhysAddr::new(u64::from(set) * 64 + n * u64::from(cache.sets()) * 64)
    }

    #[test]
    fn fill_then_hit() {
        let mut c = SetAssociativeCache::new(16, 4, ReplacementPolicy::Lru);
        let a = PhysAddr::new(0x1040);
        assert_eq!(c.access(a), Probe::Miss(Some(0)));
        assert_eq!(c.fill_absent_at(a, Some(0)), None);
        assert!(c.access(a).is_hit());
        assert!(c.contains(a));
    }

    #[test]
    fn same_line_bytes_share_entry() {
        let mut c = SetAssociativeCache::new(16, 4, ReplacementPolicy::Lru);
        access_filling(&mut c, PhysAddr::new(0x1000));
        assert!(c.access(PhysAddr::new(0x103f)).is_hit());
        assert!(!c.access(PhysAddr::new(0x1040)).is_hit());
    }

    #[test]
    fn lru_eviction_of_oldest_line() {
        let mut c = SetAssociativeCache::new(16, 2, ReplacementPolicy::Lru);
        let a = addr_in_set(&c, 3, 0);
        let b = addr_in_set(&c, 3, 1);
        let d = addr_in_set(&c, 3, 2);
        access_filling(&mut c, a);
        access_filling(&mut c, b);
        // Touch `a` so `b` is LRU.
        c.access(a);
        let evicted = access_filling(&mut c, d);
        assert_eq!(evicted, Some(b.cache_line_base()));
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn accessing_a_held_line_does_not_evict() {
        let mut c = SetAssociativeCache::new(16, 2, ReplacementPolicy::Lru);
        let a = addr_in_set(&c, 5, 0);
        let b = addr_in_set(&c, 5, 1);
        access_filling(&mut c, a);
        access_filling(&mut c, b);
        assert_eq!(access_filling(&mut c, a), None);
        assert_eq!(c.occupancy(5), 2);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = SetAssociativeCache::new(16, 4, ReplacementPolicy::Lru);
        let a = PhysAddr::new(0x2000);
        access_filling(&mut c, a);
        assert!(c.invalidate(a));
        assert!(!c.contains(a));
        assert!(!c.invalidate(a));
    }

    #[test]
    fn invalidate_all_empties_cache() {
        let mut c = SetAssociativeCache::new(8, 2, ReplacementPolicy::Lru);
        for i in 0..16u64 {
            access_filling(&mut c, PhysAddr::new(i * 64));
        }
        c.invalidate_all();
        for set in 0..8 {
            assert_eq!(c.occupancy(set), 0);
        }
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut c = SetAssociativeCache::new(16, 1, ReplacementPolicy::Lru);
        let a = PhysAddr::new(0);
        let b = PhysAddr::new(64);
        access_filling(&mut c, a);
        access_filling(&mut c, b);
        assert!(c.contains(a));
        assert!(c.contains(b));
    }

    #[test]
    fn eviction_within_capacity_limits() {
        let mut c = SetAssociativeCache::new(4, 3, ReplacementPolicy::Srrip);
        // Fill 10 lines mapping to set 0; occupancy can never exceed 3.
        for n in 0..10 {
            let line = addr_in_set(&c, 0, n);
            access_filling(&mut c, line);
            assert!(c.occupancy(0) <= 3);
        }
        assert_eq!(c.occupancy(0), 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = SetAssociativeCache::new(12, 4, ReplacementPolicy::Lru);
    }

    /// The key of an empty way in the reference layout and in
    /// [`SetStore::set_state`].
    const EMPTY_TAG: u64 = u64::MAX;

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
        fn new(sets: u32, ways: u32, policy: ReplacementPolicy) -> Self {
            Self {
                set_mask: u64::from(sets) - 1,
                ways: ways as usize,
                policy,
                slots: vec![(EMPTY_TAG, 0); sets as usize * ways as usize],
                states: vec![ReplacementState::default(); sets as usize],
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

        fn access(&mut self, paddr: PhysAddr) -> Probe {
            let set = self.set_of(paddr);
            let tag = paddr.cache_line_index();
            let mut empty = None;
            for way in 0..self.ways {
                let slot_tag = self.slots[set * self.ways + way].0;
                if slot_tag == tag {
                    let policy = self.policy;
                    self.with_meta(set, |m, st| reference::on_hit(policy, m, st, way));
                    return Probe::Hit(way as u32);
                }
                if empty.is_none() && slot_tag == EMPTY_TAG {
                    empty = Some(way as u32);
                }
            }
            Probe::Miss(empty)
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
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 96 } else { 384 }
        ))]

        // Twin caches — the kernel and the reference loops — driven by one
        // random stream of access / access+fill / fill_absent / invalidate /
        // invalidate_all report the same probes and displaced lines, and
        // hold the same tags, metadata words and per-set scalars after
        // every step.
        #[test]
        fn kernel_cache_matches_the_reference_loops(
            ways in prop::sample::select(reference::WAYS.to_vec()),
            policy in prop::sample::select(reference::POLICIES.to_vec()),
            ops in prop::collection::vec(any::<u64>(), 1..400),
        ) {
            const SETS: u32 = 4;
            let mut cache = SetAssociativeCache::new(SETS, ways, policy);
            let mut twin = RefCache::new(SETS, ways, policy);
            // Enough distinct lines per set to overflow the widest set.
            let lines = u64::from(SETS) * (u64::from(ways) * 2 + 1);
            for (step, &op) in ops.iter().enumerate() {
                let paddr = PhysAddr::new((op >> 8) % lines * 64);
                match op & 7 {
                    0..=3 => {
                        // The hierarchy's miss path: probe, then fill at the
                        // probe's empty-way hint (op 0 probes only).
                        let got = cache.access(paddr);
                        prop_assert_eq!((step, got), (step, twin.access(paddr)));
                        if let (Probe::Miss(empty), 1..=3) = (got, op & 7) {
                            prop_assert_eq!(
                                (step, cache.fill_absent_at(paddr, empty)),
                                (step, twin.fill_absent_at(paddr, empty))
                            );
                        }
                    }
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
                    prop_assert_eq!((step, tags), (step, want_tags));
                    prop_assert_eq!((step, meta), (step, want_meta));
                    prop_assert_eq!((step, state), (step, twin.states[set]));
                    prop_assert_eq!(cache.occupancy(set as u32), twin.occupancy(set));
                }
            }
        }
    }
}
