//! Cache replacement policies.
//!
//! The LLC of real Sandy Bridge parts is not true-LRU, which is why an
//! eviction set exactly as large as the associativity does not evict reliably
//! (Figure 4 of the paper) and why traversing a 13-line eviction set does not
//! thrash itself completely. [`ReplacementPolicy::Srrip`] reproduces both
//! effects and is the default for the LLC; the other policies are provided for
//! ablation studies.
//!
//! The policy logic operates on the flat per-way metadata words of a
//! [`SetStore`](crate::SetStore); its per-way scans (victim choice, SRRIP
//! aging, NRU clearing) run through the set-operation kernel, instantiated
//! for the set's [`Assoc`]. [`SetMeta`] remains available as the boxed
//! per-set wrapper the original API exposed.

use serde::Serialize;

use pthammer_types::{LaneSink, LaneSource};

use crate::kernel::{self, with_width, Assoc, Width};

/// Replacement policy of a set-associative structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Default)]
pub enum ReplacementPolicy {
    /// True least-recently-used.
    #[default]
    Lru,
    /// Static re-reference interval prediction (2-bit RRPV), the default LLC
    /// policy; rarely-touched lines age out quickly.
    Srrip,
    /// Not-recently-used with a rotating clock hand (typical TLB policy).
    Nru,
    /// Uniformly random victim.
    Random,
    /// Bimodal insertion (LRU insertion most of the time), thrash-resistant.
    Bip,
}

const SRRIP_MAX: u64 = 3;
const SRRIP_INSERT: u64 = 2;

/// The policy-independent per-set scalars: the LRU tick, the NRU clock hand
/// and the deterministic PRNG state for Random / BIP decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ReplacementState {
    tick: u64,
    hand: usize,
    rng_state: u64,
}

impl ReplacementState {
    /// Creates the per-set state from a seed (the low bit is forced so the
    /// xorshift stream never starts at zero).
    pub fn new(seed: u64) -> Self {
        Self {
            tick: 0,
            hand: 0,
            rng_state: seed | 1,
        }
    }

    /// The LRU tick.
    pub(crate) fn tick(&self) -> u64 {
        self.tick
    }

    /// Sets the LRU tick.
    pub(crate) fn set_tick(&mut self, tick: u64) {
        self.tick = tick;
    }

    /// Records the clock hand and the PRNG state as discrete lanes.
    pub(crate) fn read_discrete(&self, lanes: &mut impl LaneSink) {
        lanes.discrete(self.hand as u64);
        lanes.discrete(self.rng_state);
    }

    /// Writes back the lanes of [`ReplacementState::read_discrete`].
    pub(crate) fn write_discrete(&mut self, source: &mut LaneSource) {
        self.hand = usize::try_from(source.discrete()).expect("clock hand fits usize");
        self.rng_state = source.discrete();
    }

    #[inline]
    fn next_rand(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

impl ReplacementPolicy {
    /// True when the policy's metadata words are tick stamps (LRU, BIP), which
    /// grow with the tick; the other policies keep small per-way states.
    pub(crate) fn stamps(self) -> bool {
        matches!(self, ReplacementPolicy::Lru | ReplacementPolicy::Bip)
    }

    /// Records a hit on the way whose metadata word is `meta`.
    #[inline(always)]
    pub fn on_hit(self, meta: &mut u64, state: &mut ReplacementState) {
        state.tick += 1;
        match self {
            ReplacementPolicy::Lru | ReplacementPolicy::Bip => *meta = state.tick,
            ReplacementPolicy::Srrip => *meta = 0,
            ReplacementPolicy::Nru => *meta = 1,
            ReplacementPolicy::Random => {}
        }
    }

    /// Records a fill into the way whose metadata word is `meta`.
    #[inline(always)]
    pub fn on_fill(self, meta: &mut u64, state: &mut ReplacementState) {
        state.tick += 1;
        match self {
            ReplacementPolicy::Lru => *meta = state.tick,
            ReplacementPolicy::Bip => {
                // Mostly insert as LRU (old timestamp); occasionally as MRU.
                if state.next_rand().is_multiple_of(32) {
                    *meta = state.tick;
                } else {
                    *meta = state.tick.saturating_sub(1_000_000);
                }
            }
            ReplacementPolicy::Srrip => *meta = SRRIP_INSERT,
            ReplacementPolicy::Nru => *meta = 1,
            ReplacementPolicy::Random => {}
        }
    }

    /// Chooses a victim way among the occupied ways of a set whose metadata
    /// words are `meta` (callers fill invalid ways first, so every way is
    /// occupied when this is called). `assoc` is the kernel instance for
    /// `meta.len()` ways.
    #[inline]
    pub fn choose_victim(
        self,
        assoc: Assoc,
        meta: &mut [u64],
        state: &mut ReplacementState,
    ) -> usize {
        debug_assert_eq!(meta.len(), assoc.ways() as usize);
        with_width!(assoc, |w| self.victim(w, meta, state))
    }

    /// [`ReplacementPolicy::choose_victim`] for one kernel width.
    #[inline(always)]
    pub(crate) fn victim(
        self,
        w: impl Width,
        meta: &mut [u64],
        state: &mut ReplacementState,
    ) -> usize {
        match self {
            ReplacementPolicy::Lru | ReplacementPolicy::Bip => kernel::first_min(w, meta),
            ReplacementPolicy::Srrip => {
                // Age everyone until someone reaches SRRIP_MAX, then pick the
                // first such way. Equivalent single pass: every way ages by
                // the same deficit (SRRIP_MAX minus the current maximum RRPV,
                // when positive), which preserves relative order, and the
                // victim is the first way holding the maximum.
                let (victim, max) = kernel::first_max(w, meta);
                if max < SRRIP_MAX {
                    kernel::add_all(w, meta, SRRIP_MAX - max);
                }
                victim
            }
            ReplacementPolicy::Nru => {
                // Rotating clock: the first way at or after the hand with its
                // used bit clear; when every used bit is set, clear them all
                // and take the way under the hand.
                let mut clear = kernel::eq_mask(w, meta, 0);
                if clear == 0 {
                    kernel::fill_all(w, meta, 0);
                    clear = w.full();
                }
                let from_hand = clear & (u32::MAX << state.hand);
                let victim =
                    if from_hand != 0 { from_hand } else { clear }.trailing_zeros() as usize;
                state.hand = if victim + 1 == w.ways() {
                    0
                } else {
                    victim + 1
                };
                victim
            }
            ReplacementPolicy::Random => (state.next_rand() % w.ways() as u64) as usize,
        }
    }

    /// Clears the metadata word of an invalidated way.
    #[inline]
    pub fn on_invalidate(self, meta: &mut u64) {
        *meta = 0;
    }
}

/// Per-set replacement metadata as a standalone object.
///
/// The flattened cache and TLB structures keep their metadata inline in their
/// way arrays; `SetMeta` remains for callers that want one self-contained
/// per-set object, delegating to the same policy engine.
#[derive(Debug, Clone, Serialize)]
pub struct SetMeta {
    policy: ReplacementPolicy,
    /// The kernel instance for the set's width.
    assoc: Assoc,
    /// Per-way age / RRPV / used-bit, meaning depends on the policy.
    meta: Vec<u64>,
    /// The per-set scalars (tick, clock hand, PRNG state).
    state: ReplacementState,
}

impl SetMeta {
    /// Creates replacement metadata for a set with `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or above [`MAX_WAYS`](crate::MAX_WAYS).
    pub fn new(policy: ReplacementPolicy, ways: usize, seed: u64) -> Self {
        Self {
            policy,
            assoc: Assoc::new(u32::try_from(ways).expect("way count fits u32")),
            meta: vec![0; ways],
            state: ReplacementState::new(seed),
        }
    }

    /// Records a hit on `way`.
    pub fn on_hit(&mut self, way: usize) {
        self.policy.on_hit(&mut self.meta[way], &mut self.state);
    }

    /// Records a fill into `way`.
    pub fn on_fill(&mut self, way: usize) {
        self.policy.on_fill(&mut self.meta[way], &mut self.state);
    }

    /// Chooses a victim way among the occupied ways (callers fill invalid
    /// ways first, so every way is occupied when this is called).
    pub fn choose_victim(&mut self, ways: usize) -> usize {
        debug_assert_eq!(ways, self.meta.len());
        self.policy
            .choose_victim(self.assoc, &mut self.meta, &mut self.state)
    }

    /// Clears metadata for `way` (used when a line is invalidated).
    pub fn on_invalidate(&mut self, way: usize) {
        self.policy.on_invalidate(&mut self.meta[way]);
    }

    /// The policy of this set.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut m = SetMeta::new(ReplacementPolicy::Lru, 4, 1);
        for way in 0..4 {
            m.on_fill(way);
        }
        m.on_hit(0);
        m.on_hit(2);
        m.on_hit(3);
        assert_eq!(m.choose_victim(4), 1);
    }

    #[test]
    fn srrip_protects_recently_hit_lines() {
        let mut m = SetMeta::new(ReplacementPolicy::Srrip, 4, 1);
        for way in 0..4 {
            m.on_fill(way);
        }
        // Way 2 was recently reused: RRPV 0; the rest stay at insert RRPV.
        m.on_hit(2);
        let victim = m.choose_victim(4);
        assert_ne!(victim, 2, "recently reused line should not be the victim");
    }

    #[test]
    fn srrip_ages_untouched_lines_out() {
        let mut m = SetMeta::new(ReplacementPolicy::Srrip, 2, 1);
        m.on_fill(0);
        m.on_fill(1);
        m.on_hit(0);
        // Line 1 was never reused after fill: it must be evicted before line 0.
        assert_eq!(m.choose_victim(2), 1);
    }

    #[test]
    fn nru_cycles_through_ways() {
        let mut m = SetMeta::new(ReplacementPolicy::Nru, 4, 1);
        for way in 0..4 {
            m.on_fill(way);
        }
        // All used bits set: policy clears them and picks from the hand.
        let v1 = m.choose_victim(4);
        m.on_fill(v1);
        let v2 = m.choose_victim(4);
        assert_ne!(v1, v2, "clock hand should advance");
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut a = SetMeta::new(ReplacementPolicy::Random, 8, 42);
        let mut b = SetMeta::new(ReplacementPolicy::Random, 8, 42);
        let va: Vec<usize> = (0..32).map(|_| a.choose_victim(8)).collect();
        let vb: Vec<usize> = (0..32).map(|_| b.choose_victim(8)).collect();
        assert_eq!(va, vb);
        assert!(va.iter().any(|&v| v != va[0]), "victims should vary");
    }

    #[test]
    fn victims_are_always_in_range() {
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Srrip,
            ReplacementPolicy::Nru,
            ReplacementPolicy::Random,
            ReplacementPolicy::Bip,
        ] {
            let mut m = SetMeta::new(policy, 12, 7);
            for way in 0..12 {
                m.on_fill(way);
            }
            for i in 0..100 {
                let v = m.choose_victim(12);
                assert!(v < 12, "{policy:?} produced out-of-range victim");
                if i % 3 == 0 {
                    m.on_hit(v);
                } else {
                    m.on_fill(v);
                }
            }
        }
    }

    #[test]
    fn default_policy_is_lru() {
        assert_eq!(ReplacementPolicy::default(), ReplacementPolicy::Lru);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Every kernel instance (unrolled and run-time width) makes the
        // reference loop's victim choices and leaves the same metadata
        // words and per-set scalars, step by step.
        #[test]
        fn kernel_victims_match_the_reference_loops(
            ways in prop::sample::select(reference::WAYS.to_vec()),
            policy in prop::sample::select(reference::POLICIES.to_vec()),
            seed in any::<u64>(),
            ops in prop::collection::vec(any::<u64>(), 1..300),
        ) {
            for assoc in [Assoc::new(ways), Assoc::dynamic(ways)] {
                let n = ways as usize;
                let (mut meta, mut expect) = (vec![0u64; n], vec![0u64; n]);
                let mut state = ReplacementState::new(seed);
                let mut expect_state = state;
                for (step, &op) in ops.iter().enumerate() {
                    let way = (op >> 2) as usize % n;
                    match op & 3 {
                        0 => {
                            policy.on_fill(&mut meta[way], &mut state);
                            reference::on_fill(policy, &mut expect, &mut expect_state, way);
                        }
                        1 => {
                            policy.on_hit(&mut meta[way], &mut state);
                            reference::on_hit(policy, &mut expect, &mut expect_state, way);
                        }
                        2 => {
                            policy.on_invalidate(&mut meta[way]);
                            expect[way] = 0;
                        }
                        _ => {
                            let got = policy.choose_victim(assoc, &mut meta, &mut state);
                            let want = reference::choose_victim(policy, &mut expect, &mut expect_state);
                            prop_assert_eq!((step, got), (step, want));
                        }
                    }
                    prop_assert_eq!(&meta, &expect);
                    prop_assert_eq!(state, expect_state);
                }
            }
        }
    }
}

/// The hand-written per-way policy loops the kernel replaced, kept as the
/// oracle of the equivalence proptests (here, in `cache.rs`) — never run
/// outside tests.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// The widths the equivalence proptests cover: every unrolled instance
    /// plus run-time widths on either side of them.
    pub(crate) const WAYS: [u32; 8] = [1, 2, 3, 4, 5, 8, 12, 16];

    /// Every policy.
    pub(crate) const POLICIES: [ReplacementPolicy; 5] = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Srrip,
        ReplacementPolicy::Nru,
        ReplacementPolicy::Random,
        ReplacementPolicy::Bip,
    ];

    pub(crate) fn on_hit(
        policy: ReplacementPolicy,
        ways: &mut [u64],
        state: &mut ReplacementState,
        way: usize,
    ) {
        state.tick += 1;
        match policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Bip => ways[way] = state.tick,
            ReplacementPolicy::Srrip => ways[way] = 0,
            ReplacementPolicy::Nru => ways[way] = 1,
            ReplacementPolicy::Random => {}
        }
    }

    pub(crate) fn on_fill(
        policy: ReplacementPolicy,
        ways: &mut [u64],
        state: &mut ReplacementState,
        way: usize,
    ) {
        state.tick += 1;
        match policy {
            ReplacementPolicy::Lru => ways[way] = state.tick,
            ReplacementPolicy::Bip => {
                if state.next_rand().is_multiple_of(32) {
                    ways[way] = state.tick;
                } else {
                    ways[way] = state.tick.saturating_sub(1_000_000);
                }
            }
            ReplacementPolicy::Srrip => ways[way] = SRRIP_INSERT,
            ReplacementPolicy::Nru => ways[way] = 1,
            ReplacementPolicy::Random => {}
        }
    }

    pub(crate) fn choose_victim(
        policy: ReplacementPolicy,
        ways: &mut [u64],
        state: &mut ReplacementState,
    ) -> usize {
        let count = ways.len();
        match policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Bip => {
                let mut victim = 0;
                let mut best = u64::MAX;
                for (i, &age) in ways.iter().enumerate() {
                    if age < best {
                        best = age;
                        victim = i;
                    }
                }
                victim
            }
            ReplacementPolicy::Srrip => {
                let mut victim = 0;
                let mut max = 0;
                for (i, &v) in ways.iter().enumerate() {
                    if v > max {
                        max = v;
                        victim = i;
                    }
                }
                if max < SRRIP_MAX {
                    let deficit = SRRIP_MAX - max;
                    for v in ways.iter_mut() {
                        *v += deficit;
                    }
                }
                victim
            }
            ReplacementPolicy::Nru => {
                for _ in 0..2 {
                    for offset in 0..count {
                        let idx = (state.hand + offset) % count;
                        if ways[idx] == 0 {
                            state.hand = (idx + 1) % count;
                            return idx;
                        }
                    }
                    for v in ways.iter_mut() {
                        *v = 0;
                    }
                }
                state.hand
            }
            ReplacementPolicy::Random => (state.next_rand() % count as u64) as usize,
        }
    }
}
