//! Cache replacement policies.
//!
//! The LLC of real Sandy Bridge parts is not true-LRU, which is why an
//! eviction set exactly as large as the associativity does not evict reliably
//! (Figure 4 of the paper) and why traversing a 13-line eviction set does not
//! thrash itself completely. [`ReplacementPolicy::Srrip`] reproduces both
//! effects and is the LLC policy of every machine; the L1 and L2 caches use
//! [`ReplacementPolicy::Lru`] and the TLBs [`ReplacementPolicy::Nru`].
//!
//! The methods here state each policy over one metadata word per way.
//! A [`SetStore`](crate::SetStore) keeps the same state packed (one word of
//! SRRIP RRPVs or NRU used bits per set; LRU stamps as they are), and
//! [`ReplacementPolicy::choose_victim`] runs the store's set-operation
//! kernel on the packed form, instantiated for the set's [`Assoc`].

use serde::Serialize;

use pthammer_types::{LaneSink, LaneSource};

use crate::kernel::{with_width, Assoc, PackedState};

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
}

/// SRRIP's largest RRPV, reached by aging.
pub(crate) const SRRIP_MAX: u64 = 3;
/// SRRIP's RRPV of a filled way.
pub(crate) const SRRIP_INSERT: u64 = 2;

/// The policy-independent per-set scalars: the LRU tick and the NRU clock
/// hand.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ReplacementState {
    tick: u64,
    hand: usize,
}

impl ReplacementState {
    /// The scalars `tick` and `hand`.
    pub(crate) fn new(tick: u64, hand: usize) -> Self {
        Self { tick, hand }
    }

    /// The NRU clock hand.
    pub(crate) fn hand(&self) -> usize {
        self.hand
    }

    /// The LRU tick.
    pub(crate) fn tick(&self) -> u64 {
        self.tick
    }

    /// Sets the LRU tick.
    pub(crate) fn set_tick(&mut self, tick: u64) {
        self.tick = tick;
    }

    /// Records the clock hand as a discrete lane.
    pub(crate) fn read_discrete(&self, lanes: &mut impl LaneSink) {
        lanes.discrete(self.hand as u64);
    }

    /// Writes back the lane of [`ReplacementState::read_discrete`].
    pub(crate) fn write_discrete(&mut self, source: &mut LaneSource) {
        self.hand = usize::try_from(source.discrete()).expect("clock hand fits usize");
    }
}

impl ReplacementPolicy {
    /// True when the policy's metadata words are tick stamps (LRU), which
    /// grow with the tick; the other policies keep small per-way states.
    pub(crate) fn stamps(self) -> bool {
        self == ReplacementPolicy::Lru
    }

    /// Records a hit on the way whose metadata word is `meta`.
    #[inline(always)]
    pub fn on_hit(self, meta: &mut u64, state: &mut ReplacementState) {
        state.tick += 1;
        match self {
            ReplacementPolicy::Lru => *meta = state.tick,
            ReplacementPolicy::Srrip => *meta = 0,
            ReplacementPolicy::Nru => *meta = 1,
        }
    }

    /// Records a fill into the way whose metadata word is `meta`.
    #[inline(always)]
    pub fn on_fill(self, meta: &mut u64, state: &mut ReplacementState) {
        state.tick += 1;
        match self {
            ReplacementPolicy::Lru => *meta = state.tick,
            ReplacementPolicy::Srrip => *meta = SRRIP_INSERT,
            ReplacementPolicy::Nru => *meta = 1,
        }
    }

    /// Chooses a victim way among the occupied ways of a set whose metadata
    /// words are `meta` (callers fill invalid ways first, so every way is
    /// occupied when this is called). `assoc` is the kernel instance for
    /// `meta.len()` ways: the words are packed as a
    /// [`SetStore`](crate::SetStore) keeps them, the kernel chooses, and
    /// the aged words are unpacked back into `meta`.
    pub fn choose_victim(
        self,
        assoc: Assoc,
        meta: &mut [u64],
        state: &mut ReplacementState,
    ) -> usize {
        debug_assert_eq!(meta.len(), assoc.ways() as usize);
        let mut packed = PackedState::pack(self, meta, state);
        let victim = with_width!(assoc, |w| packed.victim(self, w, meta));
        if !self.stamps() {
            for (way, word) in meta.iter_mut().enumerate() {
                *word = packed.word(self, way);
            }
        }
        *state = packed.scalars();
        victim
    }

    /// Clears the metadata word of an invalidated way.
    #[inline]
    pub fn on_invalidate(self, meta: &mut u64) {
        *meta = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A set of `ways` ways after a fill of each, as metadata words and
    /// per-set scalars.
    fn filled(policy: ReplacementPolicy, ways: usize) -> (Vec<u64>, ReplacementState) {
        let (mut meta, mut state) = (vec![0; ways], ReplacementState::default());
        for word in &mut meta {
            policy.on_fill(word, &mut state);
        }
        (meta, state)
    }

    fn victim(policy: ReplacementPolicy, meta: &mut [u64], state: &mut ReplacementState) -> usize {
        let assoc = Assoc::new(u32::try_from(meta.len()).expect("way count fits u32"));
        policy.choose_victim(assoc, meta, state)
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let policy = ReplacementPolicy::Lru;
        let (mut m, mut st) = filled(policy, 4);
        policy.on_hit(&mut m[0], &mut st);
        policy.on_hit(&mut m[2], &mut st);
        policy.on_hit(&mut m[3], &mut st);
        assert_eq!(victim(policy, &mut m, &mut st), 1);
    }

    #[test]
    fn srrip_protects_recently_hit_lines() {
        let policy = ReplacementPolicy::Srrip;
        let (mut m, mut st) = filled(policy, 4);
        // Way 2 was recently reused: RRPV 0; the rest stay at insert RRPV.
        policy.on_hit(&mut m[2], &mut st);
        let victim = victim(policy, &mut m, &mut st);
        assert_ne!(victim, 2, "recently reused line should not be the victim");
    }

    #[test]
    fn srrip_ages_untouched_lines_out() {
        let policy = ReplacementPolicy::Srrip;
        let (mut m, mut st) = filled(policy, 2);
        policy.on_hit(&mut m[0], &mut st);
        // Line 1 was never reused after fill: it must be evicted before line 0.
        assert_eq!(victim(policy, &mut m, &mut st), 1);
    }

    #[test]
    fn nru_cycles_through_ways() {
        let policy = ReplacementPolicy::Nru;
        let (mut m, mut st) = filled(policy, 4);
        // All used bits set: policy clears them and picks from the hand.
        let v1 = victim(policy, &mut m, &mut st);
        policy.on_fill(&mut m[v1], &mut st);
        let v2 = victim(policy, &mut m, &mut st);
        assert_ne!(v1, v2, "clock hand should advance");
    }

    #[test]
    fn victims_are_always_in_range() {
        for policy in reference::POLICIES {
            let (mut m, mut st) = filled(policy, 12);
            for i in 0..100 {
                let v = victim(policy, &mut m, &mut st);
                assert!(v < 12, "{policy:?} produced out-of-range victim");
                if i % 3 == 0 {
                    policy.on_hit(&mut m[v], &mut st);
                } else {
                    policy.on_fill(&mut m[v], &mut st);
                }
            }
        }
    }

    #[test]
    fn default_policy_is_lru() {
        assert_eq!(ReplacementPolicy::default(), ReplacementPolicy::Lru);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 64 } else { 256 }
        ))]

        // Every kernel instance (unrolled and run-time width) makes the
        // reference loop's victim choices and leaves the same metadata
        // words and per-set scalars, step by step.
        #[test]
        fn kernel_victims_match_the_reference_loops(
            ways in prop::sample::select(reference::WAYS.to_vec()),
            policy in prop::sample::select(reference::POLICIES.to_vec()),
            ops in prop::collection::vec(any::<u64>(), 1..300),
        ) {
            for assoc in [Assoc::new(ways), Assoc::dynamic(ways)] {
                let n = ways as usize;
                let (mut meta, mut expect) = (vec![0u64; n], vec![0u64; n]);
                let mut state = ReplacementState::default();
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
    pub(crate) const POLICIES: [ReplacementPolicy; 3] = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Srrip,
        ReplacementPolicy::Nru,
    ];

    pub(crate) fn on_hit(
        policy: ReplacementPolicy,
        ways: &mut [u64],
        state: &mut ReplacementState,
        way: usize,
    ) {
        state.tick += 1;
        match policy {
            ReplacementPolicy::Lru => ways[way] = state.tick,
            ReplacementPolicy::Srrip => ways[way] = 0,
            ReplacementPolicy::Nru => ways[way] = 1,
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
            ReplacementPolicy::Srrip => ways[way] = SRRIP_INSERT,
            ReplacementPolicy::Nru => ways[way] = 1,
        }
    }

    pub(crate) fn choose_victim(
        policy: ReplacementPolicy,
        ways: &mut [u64],
        state: &mut ReplacementState,
    ) -> usize {
        let count = ways.len();
        match policy {
            ReplacementPolicy::Lru => {
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
        }
    }
}
