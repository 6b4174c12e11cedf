//! The set-operation kernel: every per-way loop of the cache and TLB models.
//!
//! A set-associative structure keeps its ways in a [`SetStore`]: parallel
//! arrays of tags and replacement-metadata words, `ways` consecutive entries
//! per set, plus one [`ReplacementState`] per set. Every operation that looks
//! at more than one way of a set — the tag probe, the first-empty-way scan,
//! the victim choice and the SRRIP/NRU metadata sweeps — is written once
//! here, generic over the set's [`Width`], and monomorphised per
//! associativity. For the widths the machine presets use (4, 8, 12 and 16)
//! the way count is a compile-time constant, so a probe compiles to an
//! unrolled, branch-free compare mask plus `trailing_zeros`; every other
//! width runs the same body with a run-time count. [`Assoc`] picks the
//! instance once, when a structure is built.

use core::ops::Range;

use serde::Serialize;

use pthammer_types::{LaneSink, LaneSource};

use crate::replacement::{ReplacementPolicy, ReplacementState};

/// The widest associativity the kernel supports: a set's way masks are `u32`.
pub const MAX_WAYS: u32 = u32::BITS;

/// Tag of an empty way. Tags are cache-line or page numbers, which never
/// reach this value.
pub const EMPTY_TAG: u64 = u64::MAX;

/// The way count of a set: a compile-time constant ([`Fixed`]) or a
/// run-time value ([`Dynamic`]). Kernel bodies are written once against this
/// trait.
pub(crate) trait Width: Copy {
    /// Number of ways, `1..=MAX_WAYS`.
    fn ways(self) -> usize;

    /// Mask with one bit per way.
    #[inline(always)]
    fn full(self) -> u32 {
        u32::MAX >> (MAX_WAYS as usize - self.ways())
    }

    /// Index range of `set`'s block in a [`SetStore`]: its tags, then its
    /// metadata words.
    #[inline(always)]
    fn block(self, set: usize) -> Range<usize> {
        let len = 2 * self.ways();
        set * len..(set + 1) * len
    }
}

/// A way count known at compile time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fixed<const W: usize>;

impl<const W: usize> Width for Fixed<W> {
    #[inline(always)]
    fn ways(self) -> usize {
        W
    }
}

/// A way count known only at run time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Dynamic(pub(crate) usize);

impl Width for Dynamic {
    #[inline(always)]
    fn ways(self) -> usize {
        self.0
    }
}

/// The associativity of a structure, as the kernel instance that serves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Assoc {
    /// 4 ways, unrolled (the TLBs and the small L1).
    W4,
    /// 8 ways, unrolled (L1D, L2 and the CI-scale LLC).
    W8,
    /// 12 ways, unrolled (the Lenovo 3 MiB LLC).
    W12,
    /// 16 ways, unrolled (the Dell 4 MiB LLC).
    W16,
    /// Any other width: the same kernel bodies with a run-time way count.
    Dynamic(u32),
}

impl Assoc {
    /// The instance for `ways` ways: unrolled where one exists.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or above [`MAX_WAYS`].
    pub fn new(ways: u32) -> Self {
        match ways {
            4 => Assoc::W4,
            8 => Assoc::W8,
            12 => Assoc::W12,
            16 => Assoc::W16,
            _ => Assoc::dynamic(ways),
        }
    }

    /// The run-time-width instance for `ways` ways, whatever the width.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or above [`MAX_WAYS`].
    pub fn dynamic(ways: u32) -> Self {
        assert!(
            (1..=MAX_WAYS).contains(&ways),
            "associativity must be 1..={MAX_WAYS}, got {ways}"
        );
        Assoc::Dynamic(ways)
    }

    /// Number of ways.
    pub fn ways(self) -> u32 {
        match self {
            Assoc::W4 => 4,
            Assoc::W8 => 8,
            Assoc::W12 => 12,
            Assoc::W16 => 16,
            Assoc::Dynamic(ways) => ways,
        }
    }
}

/// Runs `$body` with `$w` bound to the [`Width`] instance of `$assoc`.
macro_rules! with_width {
    ($assoc:expr, |$w:ident| $body:expr) => {
        match $assoc {
            $crate::kernel::Assoc::W4 => {
                let $w = $crate::kernel::Fixed::<4>;
                $body
            }
            $crate::kernel::Assoc::W8 => {
                let $w = $crate::kernel::Fixed::<8>;
                $body
            }
            $crate::kernel::Assoc::W12 => {
                let $w = $crate::kernel::Fixed::<12>;
                $body
            }
            $crate::kernel::Assoc::W16 => {
                let $w = $crate::kernel::Fixed::<16>;
                $body
            }
            $crate::kernel::Assoc::Dynamic(ways) => {
                let $w = $crate::kernel::Dynamic(ways as usize);
                $body
            }
        }
    };
}
pub(crate) use with_width;

/// Bit `i` is set iff `words[i] == value`, over the set's ways.
#[inline(always)]
pub(crate) fn eq_mask(w: impl Width, words: &[u64], value: u64) -> u32 {
    words[..w.ways()]
        .iter()
        .enumerate()
        .fold(0, |mask, (i, &word)| mask | (u32::from(word == value) << i))
}

/// The lowest set bit of `mask`, if any.
#[inline(always)]
fn lowest(mask: u32) -> Option<u32> {
    (mask != 0).then(|| mask.trailing_zeros())
}

/// The first way holding the smallest word.
#[inline(always)]
pub(crate) fn first_min(w: impl Width, words: &[u64]) -> usize {
    let words = &words[..w.ways()];
    let (mut best, mut at) = (words[0], 0);
    for (i, &word) in words.iter().enumerate().skip(1) {
        let less = word < best;
        best = if less { word } else { best };
        at = if less { i } else { at };
    }
    at
}

/// The first way holding the largest word, and that word.
#[inline(always)]
pub(crate) fn first_max(w: impl Width, words: &[u64]) -> (usize, u64) {
    let words = &words[..w.ways()];
    let (mut best, mut at) = (words[0], 0);
    for (i, &word) in words.iter().enumerate().skip(1) {
        let greater = word > best;
        best = if greater { word } else { best };
        at = if greater { i } else { at };
    }
    (at, best)
}

/// Sets every way's word to `value`.
#[inline(always)]
pub(crate) fn fill_all(w: impl Width, words: &mut [u64], value: u64) {
    words[..w.ways()].fill(value);
}

/// Adds `delta` to every way's word.
#[inline(always)]
pub(crate) fn add_all(w: impl Width, words: &mut [u64], delta: u64) {
    for word in &mut words[..w.ways()] {
        *word += delta;
    }
}

/// Outcome of [`SetStore::probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probe {
    /// The tag is held in this way (its hit has been recorded).
    Hit(u32),
    /// The tag is absent; the set's first empty way, if any.
    Miss(Option<u32>),
}

/// The tag and replacement store of one set-associative structure, and
/// every operation over its ways.
///
/// `set` arguments must be below the set count the store was built with.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SetStore {
    assoc: Assoc,
    policy: ReplacementPolicy,
    /// One block per set: its `ways` tags ([`EMPTY_TAG`] marks an empty
    /// way) followed by its `ways` replacement-metadata words, so a set's
    /// probe, victim choice and update touch adjacent host cache lines.
    blocks: Vec<u64>,
    /// Per-set replacement scalars (tick / clock hand / PRNG).
    states: Vec<ReplacementState>,
}

impl SetStore {
    /// An empty store of `sets` sets of `ways` ways; set `s` seeds its
    /// replacement PRNG with `set_seed(s)`.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or above [`MAX_WAYS`].
    pub fn new(
        sets: u32,
        ways: u32,
        policy: ReplacementPolicy,
        set_seed: impl Fn(u32) -> u64,
    ) -> Self {
        let assoc = Assoc::new(ways);
        let block = [vec![EMPTY_TAG; ways as usize], vec![0; ways as usize]].concat();
        Self {
            assoc,
            policy,
            blocks: block.repeat(sets as usize),
            states: (0..sets)
                .map(|s| ReplacementState::new(set_seed(s)))
                .collect(),
        }
    }

    /// Associativity.
    pub fn ways(&self) -> u32 {
        self.assoc.ways()
    }

    /// The way of `set` holding `tag`, without touching replacement state.
    #[inline(always)]
    pub fn find(&self, set: usize, tag: u64) -> Option<u32> {
        with_width!(self.assoc, |w| lowest(eq_mask(
            w,
            &self.blocks[w.block(set)],
            tag
        )))
    }

    /// The way of `set` holding `tag`, recording a hit on it.
    #[inline(always)]
    pub fn lookup(&mut self, set: usize, tag: u64) -> Option<u32> {
        with_width!(self.assoc, |w| {
            let (tags, meta) = self.blocks[w.block(set)].split_at_mut(w.ways());
            let way = lowest(eq_mask(w, tags, tag))?;
            self.policy
                .on_hit(&mut meta[way as usize], &mut self.states[set]);
            Some(way)
        })
    }

    /// Like [`SetStore::lookup`], but a miss also reports the set's first
    /// empty way, so a following [`SetStore::place`] of the same tag needs
    /// no second scan.
    #[inline(always)]
    pub(crate) fn probe(&mut self, set: usize, tag: u64) -> Probe {
        with_width!(self.assoc, |w| {
            let (tags, meta) = self.blocks[w.block(set)].split_at_mut(w.ways());
            match lowest(eq_mask(w, tags, tag)) {
                Some(way) => {
                    self.policy
                        .on_hit(&mut meta[way as usize], &mut self.states[set]);
                    Probe::Hit(way)
                }
                None => Probe::Miss(lowest(eq_mask(w, tags, EMPTY_TAG))),
            }
        })
    }

    /// The first empty way of `set`, if any.
    #[inline(always)]
    pub fn first_empty(&self, set: usize) -> Option<u32> {
        self.find(set, EMPTY_TAG)
    }

    /// Records a hit on `way` of `set`.
    #[inline(always)]
    pub fn touch(&mut self, set: usize, way: u32) {
        with_width!(self.assoc, |w| {
            let meta = w.block(set).start + w.ways() + way as usize;
            self.policy
                .on_hit(&mut self.blocks[meta], &mut self.states[set]);
        })
    }

    /// Places `tag`, absent from `set`, into the set: into `empty` (the
    /// set's first empty way, as a missed probe reported it, or
    /// [`SetStore::first_empty`]) when given, else into the replacement
    /// policy's victim. Returns the way written and, when a victim was
    /// chosen, the tag it held.
    #[inline(always)]
    pub fn place(&mut self, set: usize, tag: u64, empty: Option<u32>) -> (u32, Option<u64>) {
        debug_assert_ne!(tag, EMPTY_TAG, "unrepresentable tag");
        debug_assert_eq!(self.find(set, tag), None, "placing a present tag");
        with_width!(self.assoc, |w| {
            let (tags, meta) = self.blocks[w.block(set)].split_at_mut(w.ways());
            let state = &mut self.states[set];
            let (way, displaced) = match empty {
                Some(way) => {
                    debug_assert_eq!(tags[way as usize], EMPTY_TAG, "hinted way is occupied");
                    (way as usize, None)
                }
                None => {
                    let way = self.policy.victim(w, meta, state);
                    (way, Some(tags[way]))
                }
            };
            tags[way] = tag;
            self.policy.on_fill(&mut meta[way], state);
            (way as u32, displaced)
        })
    }

    /// Mask of the empty ways of `set`.
    #[inline]
    pub fn empty_ways(&self, set: usize) -> u32 {
        with_width!(self.assoc, |w| eq_mask(
            w,
            &self.blocks[w.block(set)],
            EMPTY_TAG
        ))
    }

    /// Chooses the way of each placement of a run, in order: `sets` names
    /// the set of each placement, `empty` masks each set's empty ways and
    /// `placed(index, set, way)` receives the placement's index in the run,
    /// set and way. A placement takes the lowest way of its set's `empty`
    /// mask, which it clears, else the replacement policy's victim, and
    /// records the fill in the replacement state; it writes no tag
    /// ([`SetStore::set_tag`] does). A victim choice reads only metadata
    /// words and per-set scalars, never tags, so a run can write only the
    /// tags that survive it: [`SetStore::empty_ways`] of each set, then
    /// `place_run`, then `set_tag` of each way's last tag, leaves every set
    /// exactly as [`SetStore::first_empty`] and [`SetStore::place`] of each
    /// tag in turn.
    #[inline]
    pub fn place_run(
        &mut self,
        sets: impl Iterator<Item = usize>,
        empty: &mut [u32],
        mut placed: impl FnMut(usize, usize, u32),
    ) {
        with_width!(self.assoc, |w| {
            for (index, set) in sets.enumerate() {
                let meta = &mut self.blocks[w.block(set)][w.ways()..];
                let state = &mut self.states[set];
                let free = &mut empty[set];
                let way = match lowest(*free) {
                    Some(way) => {
                        *free &= *free - 1;
                        way as usize
                    }
                    None => self.policy.victim(w, meta, state),
                };
                self.policy.on_fill(&mut meta[way], state);
                placed(index, set, way as u32);
            }
        })
    }

    /// Writes `tag` into `way` of `set` (see [`SetStore::place_run`]).
    #[inline]
    pub fn set_tag(&mut self, set: usize, way: u32, tag: u64) {
        debug_assert_ne!(tag, EMPTY_TAG, "unrepresentable tag");
        let ways = self.assoc.ways() as usize;
        self.blocks[2 * ways * set + way as usize] = tag;
    }

    /// Records `hits` hits on `set` whose last `ways.len()` hits land on
    /// `ways`, in that order, and whose earlier hits all land on ways
    /// listed in `ways`: the same end state as [`SetStore::touch`] once per
    /// hit. A hit writes only the per-set tick and the hit way's metadata
    /// word, from the tick alone, so the last hits overwrite every earlier
    /// one: the run advances the tick past the earlier hits and replays the
    /// last ones.
    pub fn touch_run(&mut self, set: usize, ways: &[u32], hits: u64) {
        let last = ways.len() as u64;
        debug_assert!(last <= hits, "more last hits than hits");
        let state = &mut self.states[set];
        state.set_tick(state.tick() + (hits - last));
        for &way in ways {
            self.touch(set, way);
        }
    }

    /// Every tag held in the store, in no particular order.
    pub fn tags(&self) -> impl Iterator<Item = u64> + '_ {
        let ways = self.assoc.ways() as usize;
        self.blocks
            .chunks_exact(2 * ways)
            .flat_map(move |block| &block[..ways])
            .copied()
            .filter(|&tag| tag != EMPTY_TAG)
    }

    /// Empties the way of `set` holding `tag`; returns that way.
    #[inline]
    pub fn remove(&mut self, set: usize, tag: u64) -> Option<u32> {
        with_width!(self.assoc, |w| {
            let (tags, meta) = self.blocks[w.block(set)].split_at_mut(w.ways());
            let way = lowest(eq_mask(w, tags, tag))?;
            tags[way as usize] = EMPTY_TAG;
            self.policy.on_invalidate(&mut meta[way as usize]);
            Some(way)
        })
    }

    /// Empties every way. Replacement metadata is left as it was.
    pub fn clear(&mut self) {
        with_width!(self.assoc, |w| {
            for block in self.blocks.chunks_exact_mut(2 * w.ways()) {
                fill_all(w, block, EMPTY_TAG);
            }
        })
    }

    /// Number of occupied ways in `set`.
    pub fn occupancy(&self, set: usize) -> usize {
        with_width!(self.assoc, |w| {
            let empty = eq_mask(w, &self.blocks[w.block(set)], EMPTY_TAG);
            (!empty & w.full()).count_ones() as usize
        })
    }

    /// The tags, metadata words and replacement scalars of `set`.
    pub fn set_state(&self, set: usize) -> (&[u64], &[u64], &ReplacementState) {
        let ways = self.assoc.ways() as usize;
        let (tags, meta) = self.blocks[2 * ways * set..2 * ways * (set + 1)].split_at(ways);
        (tags, meta, &self.states[set])
    }

    /// Records `set` as [`LaneSink`]: its tags, clock hand and PRNG state as
    /// discrete lanes, its tick as a counter lane, and its metadata words
    /// as stamps of that tick under the stamp policies (LRU, BIP) or as
    /// discrete lanes under the others (SRRIP RRPVs, NRU bits).
    pub fn read_set(&self, set: usize, lanes: &mut impl LaneSink) {
        let (tags, meta, state) = self.set_state(set);
        tags.iter().for_each(|&tag| lanes.discrete(tag));
        state.read_discrete(lanes);
        if self.policy.stamps() {
            lanes.stamped(state.tick(), meta.iter().copied());
        } else {
            meta.iter().for_each(|&word| lanes.discrete(word));
            lanes.counter(state.tick());
        }
    }

    /// Writes `set` back from lanes recorded by [`SetStore::read_set`].
    pub fn write_set(&mut self, set: usize, source: &mut LaneSource) {
        let ways = self.assoc.ways() as usize;
        let (tags, meta) = self.blocks[2 * ways * set..2 * ways * (set + 1)].split_at_mut(ways);
        tags.iter_mut().for_each(|tag| *tag = source.discrete());
        let state = &mut self.states[set];
        state.write_discrete(source);
        if self.policy.stamps() {
            state.set_tick(source.counter());
            meta.iter_mut().for_each(|word| *word = source.counter());
        } else {
            meta.iter_mut().for_each(|word| *word = source.discrete());
            state.set_tick(source.counter());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::reference::{POLICIES, WAYS};
    use proptest::prelude::*;

    /// A 4-set store whose set 1 holds `prefill` tags (placed one at a
    /// time, then with a few ways emptied by `holes`) and a history of
    /// `touches`, so runs start from varied metadata.
    fn seeded_store(
        ways: u32,
        policy: ReplacementPolicy,
        seed: u64,
        prefill: &[u64],
        holes: &[u32],
        touches: &[u32],
    ) -> SetStore {
        let mut store = SetStore::new(4, ways, policy, |s| seed ^ u64::from(s));
        for &tag in prefill {
            if store.find(1, tag).is_none() {
                let empty = store.first_empty(1);
                store.place(1, tag, empty);
            }
        }
        for &way in touches {
            if store.set_state(1).0[(way % ways) as usize] != EMPTY_TAG {
                store.touch(1, way % ways);
            }
        }
        for &hole in holes {
            let tag = store.set_state(1).0[(hole % ways) as usize];
            if tag != EMPTY_TAG {
                store.remove(1, tag);
            }
        }
        store
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        // A refill run (placements chosen from metadata alone, then only
        // the surviving tags written) leaves the store exactly as placing
        // its tags one at a time: first empty way, else the policy's victim.
        #[test]
        fn a_refill_run_matches_placing_one_at_a_time(
            ways in prop::sample::select(WAYS.to_vec()),
            policy in prop::sample::select(POLICIES.to_vec()),
            seed in any::<u64>(),
            prefill in prop::collection::vec(0u64..64, 0..40),
            holes in prop::collection::vec(any::<u32>(), 0..4),
            touches in prop::collection::vec(any::<u32>(), 0..20),
            run in 0usize..80,
        ) {
            let mut one_by_one = seeded_store(ways, policy, seed, &prefill, &holes, &touches);
            let mut batched = one_by_one.clone();
            let tags: Vec<u64> = (0..run as u64).map(|i| 1000 + i).collect();
            for &tag in &tags {
                let empty = one_by_one.first_empty(1);
                one_by_one.place(1, tag, empty);
            }
            let mut empty = vec![0, batched.empty_ways(1), 0, 0];
            let mut holds = vec![None; ways as usize];
            batched.place_run(tags.iter().map(|_| 1), &mut empty, |index, set, way| {
                assert_eq!(set, 1);
                holds[way as usize] = Some(tags[index]);
            });
            for (way, tag) in holds.into_iter().enumerate() {
                if let Some(tag) = tag {
                    batched.set_tag(1, way as u32, tag);
                }
            }
            prop_assert_eq!(empty[1], batched.empty_ways(1));
            prop_assert_eq!(batched, one_by_one);
        }

        // A hit batch (the tick advanced past the earlier hits, then the
        // last hits replayed in order) leaves the store exactly as
        // touching once per hit, when every earlier hit lands on a way the
        // last hits touch again.
        #[test]
        fn a_hit_batch_matches_touching_one_at_a_time(
            ways in prop::sample::select(WAYS.to_vec()),
            policy in prop::sample::select(POLICIES.to_vec()),
            seed in any::<u64>(),
            prefill in prop::collection::vec(0u64..64, 1..40),
            touches in prop::collection::vec(any::<u32>(), 0..20),
            last in prop::collection::vec(any::<u32>(), 1..6),
            earlier in prop::collection::vec(any::<usize>(), 0..60),
        ) {
            let mut one_by_one = seeded_store(ways, policy, seed, &prefill, &[], &touches);
            let mut batched = one_by_one.clone();
            let occupied = one_by_one.occupancy(1) as u32;
            let last: Vec<u32> = last.iter().map(|&way| way % occupied).collect();
            let hits: Vec<u32> = earlier
                .iter()
                .map(|&i| last[i % last.len()])
                .chain(last.iter().copied())
                .collect();
            for &way in &hits {
                one_by_one.touch(1, way);
            }
            batched.touch_run(1, &last, hits.len() as u64);
            prop_assert_eq!(batched, one_by_one);
        }
    }

    #[test]
    fn tags_lists_every_held_tag() {
        let mut store = SetStore::new(2, 3, ReplacementPolicy::Lru, u64::from);
        for (set, tag) in [(0, 7), (1, 9), (0, 4)] {
            let empty = store.first_empty(set);
            store.place(set, tag, empty);
        }
        let mut tags: Vec<u64> = store.tags().collect();
        tags.sort_unstable();
        assert_eq!(tags, vec![4, 7, 9]);
    }

    #[test]
    fn presets_get_unrolled_instances() {
        assert_eq!(Assoc::new(4), Assoc::W4);
        assert_eq!(Assoc::new(8), Assoc::W8);
        assert_eq!(Assoc::new(12), Assoc::W12);
        assert_eq!(Assoc::new(16), Assoc::W16);
        assert_eq!(Assoc::new(2), Assoc::Dynamic(2));
        assert_eq!(Assoc::dynamic(8), Assoc::Dynamic(8));
        for ways in 1..=MAX_WAYS {
            assert_eq!(Assoc::new(ways).ways(), ways);
        }
    }

    #[test]
    #[should_panic(expected = "associativity must be")]
    fn widths_above_the_mask_are_rejected() {
        let _ = Assoc::new(MAX_WAYS + 1);
    }

    #[test]
    fn masks_cover_the_full_width() {
        let words: Vec<u64> = (0..32).map(|i| i % 3).collect();
        let mask = eq_mask(Dynamic(32), &words, 0);
        assert_eq!(mask.count_ones(), 11);
        assert_eq!(Dynamic(32).full(), u32::MAX);
        assert_eq!(Fixed::<12>.full(), 0xfff);
        assert_eq!(first_min(Fixed::<4>, &[3, 1, 1, 2]), 1);
        assert_eq!(first_max(Fixed::<4>, &[3, 1, 3, 2]), (0, 3));
    }
}
