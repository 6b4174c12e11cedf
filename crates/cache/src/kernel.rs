//! The set-operation kernel: every per-way loop of the cache and TLB models.
//!
//! A set-associative structure keeps its ways in a [`SetStore`]. Each set is
//! one 64-byte-aligned host line of sixteen `u32` lanes holding its tags, so
//! a probe loads one line, and one masked compare of its lanes gives the hit
//! way and, on a miss, the first empty way. Each set also keeps its
//! replacement tick and, under SRRIP and NRU, every way's policy state
//! packed into one word (2-bit RRPVs; used bits and the clock hand), so a
//! victim choice or an aging sweep is a few word operations. LRU keeps one
//! `u64` stamp per way, at the set's own width.
//!
//! The bodies are written once, generic over the set's [`Width`], and
//! monomorphised per associativity: for the widths the machine presets use
//! (4, 8, 12 and 16) the way count is a compile-time constant; every other
//! width runs the same body with a run-time count. [`Assoc`] picks the
//! instance once, when a structure is built.

use serde::Serialize;

use pthammer_types::{LaneSink, LaneSource};

use crate::replacement::{self, ReplacementPolicy, ReplacementState};

/// Lanes per set: one 64-byte host line of `u32`s.
const LANES: usize = 16;

/// The widest associativity the kernel supports: a set's tags fill one
/// 64-byte host line of sixteen `u32` lanes.
pub const MAX_WAYS: u32 = LANES as u32;

/// Tag of an empty way; tags are below it. A key whose tag would reach it
/// is rejected when it is stored or looked up.
pub const EMPTY_TAG: u32 = u32::MAX;

/// The key an empty way reads as in lanes and in [`SetStore::set_state`].
const EMPTY_KEY: u64 = u64::MAX;

/// The way count of a set: a compile-time constant ([`Fixed`]) or a
/// run-time value ([`Dynamic`]). Kernel bodies are written once against this
/// trait.
pub(crate) trait Width: Copy {
    /// Number of ways, `1..=MAX_WAYS`.
    fn ways(self) -> usize;

    /// Mask with one bit per way.
    #[inline(always)]
    fn full(self) -> u32 {
        u32::MAX >> (u32::BITS as usize - self.ways())
    }

    /// Mask with the low bit of each way's 2-bit field of a packed word.
    #[inline(always)]
    fn pairs(self) -> u32 {
        0x5555_5555 >> (u32::BITS as usize - 2 * self.ways())
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

/// One set's tags: lanes at and above the set's width stay [`EMPTY_TAG`]
/// and are masked off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, align(64))]
struct TagLine([u32; LANES]);

impl TagLine {
    const EMPTY: TagLine = TagLine([EMPTY_TAG; LANES]);

    /// Bit `i` is set iff lane `i` holds `tag`, over all sixteen lanes: four
    /// SSE2 compares, three packs and one byte mask.
    ///
    /// Stable Rust has no safe form of this compare. The portable fold
    /// ([`TagLine::mask_by_lane`]) compiles to it only where it stands
    /// alone: inlined into a probe, LLVM unrolls it into one scalar compare
    /// per lane, and the probe was then no faster than with `u64` tags
    /// (PERF.md, "Compact set blocks").
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    #[allow(unsafe_code)]
    fn mask(&self, tag: u32) -> u32 {
        use core::arch::x86_64::{
            __m128i, _mm_cmpeq_epi32, _mm_load_si128, _mm_movemask_epi8, _mm_packs_epi16,
            _mm_packs_epi32, _mm_set1_epi32,
        };
        let lanes = self.0.as_ptr().cast::<__m128i>();
        // SAFETY: SSE2 is part of the x86_64 baseline, so every x86_64
        // target has these instructions. The line is 64 bytes, 64-byte
        // aligned, so the four aligned 16-byte loads stay inside it.
        unsafe {
            let tag = _mm_set1_epi32(tag as i32);
            let [q0, q1, q2, q3] =
                [0, 1, 2, 3].map(|q| _mm_cmpeq_epi32(_mm_load_si128(lanes.add(q)), tag));
            // Each pack keeps the compares' all-ones / all-zeros lanes in
            // lane order: dwords to words, then words to bytes.
            let bytes = _mm_packs_epi16(_mm_packs_epi32(q0, q1), _mm_packs_epi32(q2, q3));
            _mm_movemask_epi8(bytes) as u32
        }
    }

    /// [`TagLine::mask`] on other targets.
    #[cfg(not(target_arch = "x86_64"))]
    #[inline(always)]
    fn mask(&self, tag: u32) -> u32 {
        self.mask_by_lane(tag)
    }

    /// [`TagLine::mask`] as a portable fold, one compare per lane.
    #[cfg_attr(target_arch = "x86_64", allow(dead_code))]
    fn mask_by_lane(&self, tag: u32) -> u32 {
        self.0.iter().enumerate().fold(0, |mask, (lane, &value)| {
            mask | u32::from(value == tag) << lane
        })
    }
}

impl Serialize for TagLine {
    fn serialize(&self, w: &mut serde::ser::JsonWriter) {
        self.0[..].serialize(w);
    }
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

const SRRIP_MAX: u32 = replacement::SRRIP_MAX as u32;
const SRRIP_INSERT: u32 = replacement::SRRIP_INSERT as u32;

/// The replacement state of one set as the store keeps it: the tick every
/// hit and fill advances, and under SRRIP and NRU each way's state packed
/// into one word. Under LRU the ways' stamps live beside it, passed to each
/// operation as `stamps` (empty under the other policies).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub(crate) struct PackedState {
    tick: u64,
    /// SRRIP: way `i`'s RRPV in bits `2i..2i + 2`. NRU: way `i`'s used bit
    /// in bit `i`. LRU: zero.
    word: u32,
    /// The NRU clock hand; zero under the other policies.
    hand: u32,
}

impl PackedState {
    /// Packs one set's unpacked metadata words (one per way, as the
    /// reference loops keep them) and scalars.
    pub(crate) fn pack(policy: ReplacementPolicy, words: &[u64], state: &ReplacementState) -> Self {
        let mut packed = PackedState {
            tick: state.tick(),
            word: 0,
            hand: u32::try_from(state.hand()).expect("clock hand fits u32"),
        };
        if !policy.stamps() {
            for (way, &word) in words.iter().enumerate() {
                packed.set_word(policy, way, word);
            }
        }
        packed
    }

    /// The per-set scalars in their unpacked form.
    pub(crate) fn scalars(&self) -> ReplacementState {
        ReplacementState::new(self.tick, self.hand as usize)
    }

    /// Way `way`'s metadata word as the unpacked form holds it (SRRIP
    /// RRPV, NRU used bit); LRU stamps are not held here.
    #[inline]
    pub(crate) fn word(&self, policy: ReplacementPolicy, way: usize) -> u64 {
        match policy {
            ReplacementPolicy::Lru => 0,
            ReplacementPolicy::Srrip => u64::from(self.word >> (2 * way) & SRRIP_MAX),
            ReplacementPolicy::Nru => u64::from(self.word >> way & 1),
        }
    }

    /// Sets way `way`'s metadata word from its unpacked form.
    fn set_word(&mut self, policy: ReplacementPolicy, way: usize, word: u64) {
        match policy {
            ReplacementPolicy::Lru => {}
            ReplacementPolicy::Srrip => {
                let rrpv = u32::try_from(word)
                    .ok()
                    .filter(|&rrpv| rrpv <= SRRIP_MAX)
                    .expect("an SRRIP RRPV is 0..=3");
                self.word = self.word & !(SRRIP_MAX << (2 * way)) | rrpv << (2 * way);
            }
            ReplacementPolicy::Nru => {
                assert!(word <= 1, "an NRU used bit is 0 or 1");
                self.word = self.word & !(1 << way) | (word as u32) << way;
            }
        }
    }

    /// Records a hit on `way`.
    #[inline(always)]
    pub(crate) fn hit(&mut self, policy: ReplacementPolicy, stamps: &mut [u64], way: usize) {
        self.tick += 1;
        match policy {
            ReplacementPolicy::Lru => stamps[way] = self.tick,
            ReplacementPolicy::Srrip => self.word &= !(SRRIP_MAX << (2 * way)),
            ReplacementPolicy::Nru => self.word |= 1 << way,
        }
    }

    /// Records a fill into `way`.
    #[inline(always)]
    pub(crate) fn fill(&mut self, policy: ReplacementPolicy, stamps: &mut [u64], way: usize) {
        self.tick += 1;
        match policy {
            ReplacementPolicy::Lru => stamps[way] = self.tick,
            ReplacementPolicy::Srrip => {
                self.word = self.word & !(SRRIP_MAX << (2 * way)) | SRRIP_INSERT << (2 * way);
            }
            ReplacementPolicy::Nru => self.word |= 1 << way,
        }
    }

    /// Clears the metadata of an invalidated `way`.
    #[inline]
    fn invalidate(&mut self, policy: ReplacementPolicy, stamps: &mut [u64], way: usize) {
        match policy {
            ReplacementPolicy::Lru => stamps[way] = 0,
            ReplacementPolicy::Srrip => self.word &= !(SRRIP_MAX << (2 * way)),
            ReplacementPolicy::Nru => self.word &= !(1 << way),
        }
    }

    /// Chooses the victim of a set whose ways are all occupied, updating
    /// the policy state as the choice does.
    #[inline(always)]
    pub(crate) fn victim(
        &mut self,
        policy: ReplacementPolicy,
        w: impl Width,
        stamps: &[u64],
    ) -> usize {
        match policy {
            ReplacementPolicy::Lru => first_min(w, stamps),
            ReplacementPolicy::Srrip => {
                // The first way holding the largest RRPV. Aging everyone
                // until someone reaches SRRIP_MAX adds the same deficit
                // (SRRIP_MAX minus that maximum) to every field, which no
                // field carries out of.
                let low = self.word & w.pairs();
                let high = self.word >> 1 & w.pairs();
                let (first, max) = if low & high != 0 {
                    (low & high, 3)
                } else if high != 0 {
                    (high, 2)
                } else if low != 0 {
                    (low, 1)
                } else {
                    (1, 0)
                };
                self.word += (SRRIP_MAX - max) * w.pairs();
                first.trailing_zeros() as usize / 2
            }
            ReplacementPolicy::Nru => {
                // Rotating clock: the first way at or after the hand with its
                // used bit clear; when every used bit is set, clear them all
                // and take the way under the hand.
                let mut clear = !self.word & w.full();
                if clear == 0 {
                    self.word = 0;
                    clear = w.full();
                }
                let from_hand = clear & (u32::MAX << self.hand);
                let victim = if from_hand != 0 { from_hand } else { clear }.trailing_zeros();
                self.hand = if victim as usize + 1 == w.ways() {
                    0
                } else {
                    victim + 1
                };
                victim as usize
            }
        }
    }
}

/// Outcome of a tag probe that records a hit
/// ([`SetAssociativeCache::access`](crate::SetAssociativeCache::access)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The tag is held in this way (its hit has been recorded).
    Hit(u32),
    /// The tag is absent; the set's first empty way, if any.
    Miss(Option<u32>),
}

impl Probe {
    /// True for [`Probe::Hit`].
    pub fn is_hit(self) -> bool {
        matches!(self, Probe::Hit(_))
    }
}

#[cold]
#[inline(never)]
fn untaggable(key: u64, shift: u32) -> ! {
    panic!("key {key:#x} has no u32 tag (key >> {shift} must be below {EMPTY_TAG:#x})")
}

/// The tag and replacement store of one set-associative structure, and
/// every operation over its ways.
///
/// Operations name a way's content by its `u64` key (a cache-line index, a
/// virtual page number); the store keeps `key >> shift` as a `u32` tag,
/// where `shift` is zero or the number of key bits the set index already
/// names (see [`SetStore::low_bits_indexed`]). A key whose tag is not below
/// [`EMPTY_TAG`] panics.
///
/// `set` arguments must be below the set count the store was built with.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SetStore {
    assoc: Assoc,
    policy: ReplacementPolicy,
    /// Key bits dropped from a tag.
    shift: u32,
    /// One host line of tags per set.
    lines: Vec<TagLine>,
    /// One tick and packed policy word per set.
    states: Vec<PackedState>,
    /// LRU only: `ways` stamps per set. Empty under the other policies.
    stamps: Vec<u64>,
}

impl SetStore {
    /// An empty store of `sets` sets of `ways` ways, whose tags are the
    /// keys themselves.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or above [`MAX_WAYS`].
    pub fn new(sets: u32, ways: u32, policy: ReplacementPolicy) -> Self {
        Self::with_shift(sets, ways, policy, 0)
    }

    /// An empty store of `sets` sets (a power of two) of `ways` ways for
    /// keys whose low bits are the set index: a tag keeps only the key bits
    /// above them.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, or `ways` is zero or above
    /// [`MAX_WAYS`].
    pub fn low_bits_indexed(sets: u32, ways: u32, policy: ReplacementPolicy) -> Self {
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        Self::with_shift(sets, ways, policy, sets.trailing_zeros())
    }

    fn with_shift(sets: u32, ways: u32, policy: ReplacementPolicy, shift: u32) -> Self {
        let sets = sets as usize;
        let stamps = if policy.stamps() {
            vec![0; sets * ways as usize]
        } else {
            Vec::new()
        };
        Self {
            assoc: Assoc::new(ways),
            policy,
            shift,
            lines: vec![TagLine::EMPTY; sets],
            states: vec![PackedState::default(); sets],
            stamps,
        }
    }

    /// Associativity.
    pub fn ways(&self) -> u32 {
        self.assoc.ways()
    }

    /// The tag of `key`.
    #[inline(always)]
    fn tag(&self, key: u64) -> u32 {
        let tag = key >> self.shift;
        if tag >= u64::from(EMPTY_TAG) {
            untaggable(key, self.shift);
        }
        tag as u32
    }

    /// The key of `tag` held in `set`.
    #[inline]
    fn key(&self, set: usize, tag: u32) -> u64 {
        let low = set as u64 & ((1 << self.shift) - 1);
        u64::from(tag) << self.shift | low
    }

    /// The stamps of `set` under LRU; empty under the other policies.
    #[inline(always)]
    fn stamps_mut(stamps: &mut [u64], w: impl Width, set: usize) -> &mut [u64] {
        if stamps.is_empty() {
            stamps
        } else {
            &mut stamps[set * w.ways()..(set + 1) * w.ways()]
        }
    }

    /// Records a hit on `way` of `set`.
    #[inline(always)]
    fn hit(&mut self, w: impl Width, set: usize, way: usize) {
        let stamps = Self::stamps_mut(&mut self.stamps, w, set);
        self.states[set].hit(self.policy, stamps, way);
    }

    /// Records a fill of `set`: into `empty` when given, else into the
    /// policy's victim. Returns the way filled.
    #[inline(always)]
    fn fill(&mut self, w: impl Width, set: usize, empty: Option<u32>) -> usize {
        let state = &mut self.states[set];
        let stamps = Self::stamps_mut(&mut self.stamps, w, set);
        let way = match empty {
            Some(way) => way as usize,
            None => state.victim(self.policy, w, stamps),
        };
        state.fill(self.policy, stamps, way);
        way
    }

    /// The ways of `set` whose lane holds `tag`, as a bit mask.
    #[inline(always)]
    fn ways_holding(&self, w: impl Width, set: usize, tag: u32) -> u32 {
        self.lines[set].mask(tag) & w.full()
    }

    /// The way of `set` holding `key`, without touching replacement state.
    #[inline(always)]
    pub fn find(&self, set: usize, key: u64) -> Option<u32> {
        let tag = self.tag(key);
        with_width!(self.assoc, |w| lowest(self.ways_holding(w, set, tag)))
    }

    /// The way of `set` holding `key`, recording a hit on it.
    #[inline(always)]
    pub fn lookup(&mut self, set: usize, key: u64) -> Option<u32> {
        match self.probe(set, key) {
            Probe::Hit(way) => Some(way),
            Probe::Miss(_) => None,
        }
    }

    /// Like [`SetStore::lookup`], but a miss also reports the set's first
    /// empty way, so a following [`SetStore::place`] of the same key needs
    /// no second scan. Both come from compares of the one line.
    #[inline(always)]
    pub(crate) fn probe(&mut self, set: usize, key: u64) -> Probe {
        let tag = self.tag(key);
        with_width!(self.assoc, |w| {
            match lowest(self.ways_holding(w, set, tag)) {
                Some(way) => {
                    self.hit(w, set, way as usize);
                    Probe::Hit(way)
                }
                None => Probe::Miss(lowest(self.ways_holding(w, set, EMPTY_TAG))),
            }
        })
    }

    /// The first empty way of `set`, if any.
    #[inline(always)]
    pub fn first_empty(&self, set: usize) -> Option<u32> {
        lowest(self.empty_ways(set))
    }

    /// Records a hit on `way` of `set`.
    #[inline(always)]
    pub fn touch(&mut self, set: usize, way: u32) {
        with_width!(self.assoc, |w| self.hit(w, set, way as usize))
    }

    /// Places `key`, absent from `set`, into the set: into `empty` (the
    /// set's first empty way, as a missed probe reported it, or
    /// [`SetStore::first_empty`]) when given, else into the replacement
    /// policy's victim. Returns the way written and, when a victim was
    /// chosen, the key it held.
    #[inline(always)]
    pub fn place(&mut self, set: usize, key: u64, empty: Option<u32>) -> (u32, Option<u64>) {
        let tag = self.tag(key);
        debug_assert_eq!(self.find(set, key), None, "placing a present key");
        debug_assert!(
            empty.is_none_or(|way| self.lines[set].0[way as usize] == EMPTY_TAG),
            "hinted way is occupied"
        );
        let way = with_width!(self.assoc, |w| self.fill(w, set, empty));
        let displaced = core::mem::replace(&mut self.lines[set].0[way], tag);
        debug_assert!(
            empty.is_some() == (displaced == EMPTY_TAG),
            "a victim way is occupied, an empty one is not"
        );
        let displaced = (displaced != EMPTY_TAG).then(|| self.key(set, displaced));
        (way as u32, displaced)
    }

    /// Mask of the empty ways of `set`.
    #[inline(always)]
    pub fn empty_ways(&self, set: usize) -> u32 {
        with_width!(self.assoc, |w| self.ways_holding(w, set, EMPTY_TAG))
    }

    /// Chooses the way of each placement of a run, in order: `sets` names
    /// the set of each placement, `empty` masks each set's empty ways and
    /// `placed(index, set, way)` receives the placement's index in the run,
    /// set and way. A placement takes the lowest way of its set's `empty`
    /// mask, which it clears, else the replacement policy's victim, and
    /// records the fill in the replacement state; it writes no tag
    /// ([`SetStore::set_tag`] does). A victim choice reads only the
    /// replacement state, never tags, so a run can write only the tags that
    /// survive it: [`SetStore::empty_ways`] of each set, then `place_run`,
    /// then `set_tag` of each way's last key, leaves every set exactly as
    /// [`SetStore::first_empty`] and [`SetStore::place`] of each key in
    /// turn.
    #[inline]
    pub fn place_run(
        &mut self,
        sets: impl Iterator<Item = usize>,
        empty: &mut [u32],
        mut placed: impl FnMut(usize, usize, u32),
    ) {
        with_width!(self.assoc, |w| {
            for (index, set) in sets.enumerate() {
                let free = &mut empty[set];
                let hint = lowest(*free);
                *free &= free.wrapping_sub(1);
                let way = self.fill(w, set, hint);
                placed(index, set, way as u32);
            }
        })
    }

    /// Writes `key` into `way` of `set` (see [`SetStore::place_run`]).
    #[inline]
    pub fn set_tag(&mut self, set: usize, way: u32, key: u64) {
        self.lines[set].0[way as usize] = self.tag(key);
    }

    /// Records `hits` hits on `set` whose last `ways.len()` hits land on
    /// `ways`, in that order, and whose earlier hits all land on ways
    /// listed in `ways`: the same end state as [`SetStore::touch`] once per
    /// hit. A hit writes the tick and the hit way's state from the tick
    /// alone, so the last hits overwrite every earlier one: the run
    /// advances the tick past the earlier hits and replays the last ones.
    pub fn touch_run(&mut self, set: usize, ways: &[u32], hits: u64) {
        let last = ways.len() as u64;
        debug_assert!(last <= hits, "more last hits than hits");
        self.states[set].tick += hits - last;
        for &way in ways {
            self.touch(set, way);
        }
    }

    /// Every key held in the store, in no particular order.
    pub fn tags(&self) -> impl Iterator<Item = u64> + '_ {
        let ways = self.ways() as usize;
        self.lines.iter().enumerate().flat_map(move |(set, line)| {
            line.0[..ways]
                .iter()
                .filter(|&&tag| tag != EMPTY_TAG)
                .map(move |&tag| self.key(set, tag))
        })
    }

    /// Empties the way of `set` holding `key`; returns that way.
    #[inline]
    pub fn remove(&mut self, set: usize, key: u64) -> Option<u32> {
        let way = self.find(set, key)?;
        with_width!(self.assoc, |w| {
            let stamps = Self::stamps_mut(&mut self.stamps, w, set);
            self.states[set].invalidate(self.policy, stamps, way as usize);
        });
        self.lines[set].0[way as usize] = EMPTY_TAG;
        Some(way)
    }

    /// Empties every way. Replacement state is left as it was.
    pub fn clear(&mut self) {
        self.lines.fill(TagLine::EMPTY);
    }

    /// Number of occupied ways in `set`.
    pub fn occupancy(&self, set: usize) -> usize {
        self.ways() as usize - self.empty_ways(set).count_ones() as usize
    }

    /// The key `way` of `set` holds, or [`u64::MAX`] for an empty way.
    fn key_of(&self, set: usize, way: usize) -> u64 {
        match self.lines[set].0[way] {
            EMPTY_TAG => EMPTY_KEY,
            tag => self.key(set, tag),
        }
    }

    /// The unpacked metadata word of `way` of `set`: its LRU stamp, SRRIP
    /// RRPV or NRU used bit.
    fn word_of(&self, set: usize, way: usize) -> u64 {
        if self.policy.stamps() {
            self.stamps[set * self.ways() as usize + way]
        } else {
            self.states[set].word(self.policy, way)
        }
    }

    /// The keys ([`u64::MAX`] for an empty way), unpacked metadata words
    /// (LRU stamps, SRRIP RRPVs or NRU used bits, one per way) and
    /// replacement scalars of `set`: the layout the reference loops keep.
    pub fn set_state(&self, set: usize) -> (Vec<u64>, Vec<u64>, ReplacementState) {
        let ways = 0..self.ways() as usize;
        (
            ways.clone().map(|way| self.key_of(set, way)).collect(),
            ways.map(|way| self.word_of(set, way)).collect(),
            self.states[set].scalars(),
        )
    }

    /// Records `set` as [`LaneSink`], in the layout of
    /// [`SetStore::set_state`]: its keys and clock hand as discrete lanes,
    /// its tick as a counter lane, and its metadata words as stamps of that
    /// tick under LRU or as discrete lanes under the others.
    pub fn read_set(&self, set: usize, lanes: &mut impl LaneSink) {
        let ways = 0..self.ways() as usize;
        ways.clone()
            .for_each(|way| lanes.discrete(self.key_of(set, way)));
        let scalars = self.states[set].scalars();
        scalars.read_discrete(lanes);
        let words = ways.map(|way| self.word_of(set, way));
        if self.policy.stamps() {
            lanes.stamped(scalars.tick(), words);
        } else {
            words.for_each(|word| lanes.discrete(word));
            lanes.counter(scalars.tick());
        }
    }

    /// Writes `set` back from lanes recorded by [`SetStore::read_set`].
    pub fn write_set(&mut self, set: usize, source: &mut LaneSource) {
        let ways = self.ways() as usize;
        for way in 0..ways {
            self.lines[set].0[way] = match source.discrete() {
                EMPTY_KEY => EMPTY_TAG,
                key => self.tag(key),
            };
        }
        let mut scalars = ReplacementState::default();
        scalars.write_discrete(source);
        let policy = self.policy;
        if policy.stamps() {
            scalars.set_tick(source.counter());
            for stamp in &mut self.stamps[set * ways..(set + 1) * ways] {
                *stamp = source.counter();
            }
            self.states[set] = PackedState::pack(policy, &[], &scalars);
        } else {
            let mut packed = PackedState::pack(policy, &[], &scalars);
            for way in 0..ways {
                packed.set_word(policy, way, source.discrete());
            }
            packed.tick = source.counter();
            self.states[set] = packed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::reference::{POLICIES, WAYS};
    use proptest::prelude::*;
    use pthammer_types::Lanes;

    /// A 4-set store whose set 1 holds `prefill` keys (placed one at a
    /// time, then with a few ways emptied by `holes`) and a history of
    /// `touches`, so runs start from varied replacement state.
    fn seeded_store(
        ways: u32,
        policy: ReplacementPolicy,
        prefill: &[u64],
        holes: &[u32],
        touches: &[u32],
    ) -> SetStore {
        let mut store = SetStore::new(4, ways, policy);
        for &key in prefill {
            if store.find(1, key).is_none() {
                let empty = store.first_empty(1);
                store.place(1, key, empty);
            }
        }
        for &way in touches {
            if store.set_state(1).0[(way % ways) as usize] != EMPTY_KEY {
                store.touch(1, way % ways);
            }
        }
        for &hole in holes {
            let key = store.set_state(1).0[(hole % ways) as usize];
            if key != EMPTY_KEY {
                store.remove(1, key);
            }
        }
        store
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 128 } else { 512 }
        ))]

        // A refill run (placements chosen from replacement state alone,
        // then only the surviving keys written) leaves the store exactly as
        // placing its keys one at a time: first empty way, else the
        // policy's victim.
        #[test]
        fn a_refill_run_matches_placing_one_at_a_time(
            ways in prop::sample::select(WAYS.to_vec()),
            policy in prop::sample::select(POLICIES.to_vec()),
            prefill in prop::collection::vec(0u64..64, 0..40),
            holes in prop::collection::vec(any::<u32>(), 0..4),
            touches in prop::collection::vec(any::<u32>(), 0..20),
            run in 0usize..80,
        ) {
            let mut one_by_one = seeded_store(ways, policy, &prefill, &holes, &touches);
            let mut batched = one_by_one.clone();
            let keys: Vec<u64> = (0..run as u64).map(|i| 1000 + i).collect();
            for &key in &keys {
                let empty = one_by_one.first_empty(1);
                one_by_one.place(1, key, empty);
            }
            let mut empty = vec![0, batched.empty_ways(1), 0, 0];
            let mut holds = vec![None; ways as usize];
            batched.place_run(keys.iter().map(|_| 1), &mut empty, |index, set, way| {
                assert_eq!(set, 1);
                holds[way as usize] = Some(keys[index]);
            });
            for (way, key) in holds.into_iter().enumerate() {
                if let Some(key) = key {
                    batched.set_tag(1, way as u32, key);
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
            prefill in prop::collection::vec(0u64..64, 1..40),
            touches in prop::collection::vec(any::<u32>(), 0..20),
            last in prop::collection::vec(any::<u32>(), 1..6),
            earlier in prop::collection::vec(any::<usize>(), 0..60),
        ) {
            let mut one_by_one = seeded_store(ways, policy, &prefill, &[], &touches);
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

        // Reading a set as lanes and writing those lanes back into a
        // cleared store restores the set bit for bit: tags, packed word or
        // stamps, tick and hand.
        #[test]
        fn a_set_read_as_lanes_writes_back_bit_for_bit(
            ways in prop::sample::select(WAYS.to_vec()),
            policy in prop::sample::select(POLICIES.to_vec()),
            prefill in prop::collection::vec(0u64..64, 0..40),
            holes in prop::collection::vec(any::<u32>(), 0..4),
            touches in prop::collection::vec(any::<u32>(), 0..20),
            indexed in any::<bool>(),
        ) {
            let seeded = seeded_store(ways, policy, &prefill, &holes, &touches);
            let mut store = if indexed {
                // The same history, with tags read as the key bits above
                // the set index.
                SetStore {
                    shift: 2,
                    ..seeded
                }
            } else {
                seeded
            };
            let mut lanes = Lanes::new();
            store.read_set(1, &mut lanes);
            let want = store.clone();
            store.lines[1] = TagLine::EMPTY;
            store.states.iter_mut().for_each(|state| *state = PackedState::default());
            store.stamps.iter_mut().for_each(|stamp| *stamp = 0);
            let delta = lanes.delta_since(&lanes).expect("a snapshot repeats itself");
            let mut source = LaneSource::new(&lanes, &delta, 0);
            store.write_set(1, &mut source);
            source.finish();
            prop_assert_eq!(store, want);
        }
    }

    #[test]
    fn tags_lists_every_held_tag() {
        let mut store = SetStore::new(2, 3, ReplacementPolicy::Lru);
        for (set, key) in [(0, 7), (1, 9), (0, 4)] {
            let empty = store.first_empty(set);
            store.place(set, key, empty);
        }
        let mut keys: Vec<u64> = store.tags().collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![4, 7, 9]);
    }

    #[test]
    fn low_bits_indexed_keys_keep_their_set_bits() {
        let mut store = SetStore::low_bits_indexed(16, 4, ReplacementPolicy::Nru);
        let key = (0x1234_5678 << 4) | 5;
        store.place(5, key, Some(0));
        assert_eq!(store.lines[5].0[0], 0x1234_5678);
        assert_eq!(store.find(5, key), Some(0));
        assert_eq!(store.tags().collect::<Vec<_>>(), vec![key]);
        assert_eq!(store.set_state(5).0[0], key);
    }

    #[test]
    #[should_panic(expected = "has no u32 tag")]
    fn keys_without_a_u32_tag_are_rejected() {
        let store = SetStore::new(4, 4, ReplacementPolicy::Lru);
        store.find(0, u64::from(EMPTY_TAG));
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
    fn sixteen_ways_fill_one_host_line() {
        assert_eq!(MAX_WAYS, 16);
        assert_eq!(core::mem::size_of::<TagLine>(), 64);
        assert_eq!(core::mem::align_of::<TagLine>(), 64);
        assert_eq!(Assoc::dynamic(16).ways(), 16);
    }

    #[test]
    #[should_panic(expected = "associativity must be 1..=16, got 17")]
    fn widths_above_the_mask_are_rejected() {
        let _ = Assoc::new(17);
    }

    #[test]
    fn masks_cover_the_full_width() {
        let mut line = TagLine::EMPTY;
        for (i, lane) in line.0.iter_mut().enumerate() {
            *lane = i as u32 % 3;
        }
        let store = SetStore {
            lines: vec![line],
            ..SetStore::new(1, 16, ReplacementPolicy::Srrip)
        };
        assert_eq!(store.ways_holding(Fixed::<16>, 0, 0), 0b1001_0010_0100_1001);
        assert_eq!(store.ways_holding(Dynamic(16), 0, 2), 0b0100_1001_0010_0100);
        assert_eq!(Dynamic(16).full(), 0xffff);
        assert_eq!(Fixed::<12>.full(), 0xfff);
        assert_eq!(Dynamic(16).pairs(), 0x5555_5555);
        assert_eq!(Fixed::<12>.pairs(), 0x55_5555);
        assert_eq!(Dynamic(1).pairs(), 1);
        assert_eq!(first_min(Fixed::<4>, &[3, 1, 1, 2]), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 256 } else { 1024 }
        ))]

        // The vector compare and the lane-by-lane fold agree on every line,
        // for tags that occur, repeat or are absent.
        #[test]
        fn the_line_compare_matches_a_compare_per_lane(
            lanes in prop::collection::vec(
                prop::sample::select(vec![0u32, 1, 7, u32::MAX - 1, EMPTY_TAG]),
                16..17
            ),
            tag in prop::sample::select(vec![0u32, 1, 7, 8, u32::MAX - 1, EMPTY_TAG]),
        ) {
            let line = TagLine(core::array::from_fn(|lane| lanes[lane]));
            prop_assert_eq!(line.mask(tag), line.mask_by_lane(tag));
        }
    }
}
