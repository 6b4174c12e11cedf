//! Flat lane snapshots of simulated state, for detecting a steady state
//! and extrapolating through it.
//!
//! State is read through a [`LaneSink`] as two kinds of lane. *Discrete*
//! lanes (tags, valid bits, policy bits, table contents, open rows) must
//! repeat exactly. *Counter* lanes (replacement ticks, LRU stamps,
//! performance counters) may grow. A [`Lanes`] snapshot keeps both kinds;
//! a [`Fingerprint`] hashes the discrete ones. Two snapshots taken a period
//! apart give a per-counter delta ([`Lanes::delta_since`]), and a
//! [`LaneSource`] hands a snapshot back, grown by whole periods of that
//! delta, to the code that writes it into the live state in the order it
//! was read. A [`LanesDiff`] keeps a run of nearby snapshots compactly.
//!
//! LRU stamps are recorded as a group with the tick that issues them
//! ([`LaneSink::stamped`]). A delta is only accepted when each stamp of a
//! group either stayed put or advanced by exactly its tick's delta: then
//! the stamps written during the round all exceed the ones left alone, in
//! both snapshots, and the stamps' order — all an LRU victim choice reads —
//! repeats along with the discrete lanes.

use std::hash::Hasher;

use crate::DetHasher;

/// Receives the lanes of a state as it is read, discrete and counter lanes
/// in a fixed order: [`Lanes`] keeps them all, [`Fingerprint`] hashes the
/// discrete ones.
pub trait LaneSink {
    /// Takes a lane that must repeat exactly.
    fn discrete(&mut self, value: u64);

    /// Takes a lane that may grow between snapshots.
    fn counter(&mut self, value: u64);

    /// Takes an LRU tick and the stamps it issued, as counter lanes (the
    /// tick first, then the stamps in order).
    fn stamped(&mut self, tick: u64, stamps: impl IntoIterator<Item = u64>);
}

/// A snapshot of simulated state as discrete and counter lanes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Lanes {
    discrete: Vec<u64>,
    counters: Vec<u64>,
    /// `(tick, stamps)` counter-index ranges recorded by [`Lanes::stamped`]:
    /// the tick's index and the number of stamps following it.
    groups: Vec<(usize, usize)>,
}

impl Lanes {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty snapshot with room for the lanes `count` counted, so
    /// recording them allocates once.
    pub fn with_capacity(count: &LaneCount) -> Self {
        Self {
            discrete: Vec::with_capacity(count.discrete),
            counters: Vec::with_capacity(count.counters),
            groups: Vec::with_capacity(count.groups),
        }
    }

    /// The snapshot's [`Fingerprint`]: snapshots with different
    /// fingerprints differ in a discrete lane, so no delta exists between
    /// them.
    pub fn fingerprint(&self) -> u64 {
        let mut print = Fingerprint::default();
        self.discrete.iter().for_each(|&lane| print.discrete(lane));
        print.finish()
    }

    /// The per-counter growth from `earlier` to `self`, or `None` when a
    /// discrete lane differs, a counter went backwards, or a stamp moved by
    /// anything but zero or its tick's growth.
    pub fn delta_since(&self, earlier: &Lanes) -> Option<Vec<u64>> {
        if self.discrete != earlier.discrete
            || self.groups != earlier.groups
            || self.counters.len() != earlier.counters.len()
        {
            return None;
        }
        let delta = self
            .counters
            .iter()
            .zip(&earlier.counters)
            .map(|(now, then)| now.checked_sub(*then))
            .collect::<Option<Vec<u64>>>()?;
        let stamps_keep_order = self.groups.iter().all(|&(tick, len)| {
            delta[tick + 1..=tick + len]
                .iter()
                .all(|&d| d == 0 || d == delta[tick])
        });
        stamps_keep_order.then_some(delta)
    }
}

impl LaneSink for Lanes {
    #[inline]
    fn discrete(&mut self, value: u64) {
        self.discrete.push(value);
    }

    #[inline]
    fn counter(&mut self, value: u64) {
        self.counters.push(value);
    }

    fn stamped(&mut self, tick: u64, stamps: impl IntoIterator<Item = u64>) {
        let at = self.counters.len();
        self.counters.push(tick);
        self.counters.extend(stamps);
        self.groups.push((at, self.counters.len() - at - 1));
    }
}

/// The number of lanes of each kind a state reads as.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneCount {
    discrete: usize,
    counters: usize,
    groups: usize,
}

impl LaneSink for LaneCount {
    #[inline]
    fn discrete(&mut self, _: u64) {
        self.discrete += 1;
    }

    #[inline]
    fn counter(&mut self, _: u64) {
        self.counters += 1;
    }

    fn stamped(&mut self, _: u64, stamps: impl IntoIterator<Item = u64>) {
        self.counters += 1 + stamps.into_iter().count();
        self.groups += 1;
    }
}

/// A hash of the discrete lanes of a state, read without storing them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fingerprint(DetHasher);

impl Fingerprint {
    /// The hash of the discrete lanes taken so far.
    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

impl LaneSink for Fingerprint {
    #[inline]
    fn discrete(&mut self, value: u64) {
        self.0.write_u64(value);
    }

    #[inline]
    fn counter(&mut self, _: u64) {}

    fn stamped(&mut self, _: u64, _: impl IntoIterator<Item = u64>) {}
}

/// The lanes of a [`Lanes`] snapshot, handed back one at a time in the
/// order they were recorded, each counter grown by `periods` copies of a
/// per-period delta: the state to write back, lane by lane, by the same
/// code path that read it.
#[derive(Debug)]
pub struct LaneSource<'a> {
    discrete: core::slice::Iter<'a, u64>,
    counters: core::iter::Zip<core::slice::Iter<'a, u64>, core::slice::Iter<'a, u64>>,
    periods: u64,
}

impl<'a> LaneSource<'a> {
    /// Hands back `lanes`, adding `periods × delta[i]` to counter `i`.
    ///
    /// # Panics
    ///
    /// Panics if `delta` does not have one entry per counter lane.
    pub fn new(lanes: &'a Lanes, delta: &'a [u64], periods: u64) -> Self {
        assert_eq!(
            lanes.counters.len(),
            delta.len(),
            "one delta per counter lane"
        );
        Self {
            discrete: lanes.discrete.iter(),
            counters: lanes.counters.iter().zip(delta),
            periods,
        }
    }

    /// The next discrete lane.
    ///
    /// # Panics
    ///
    /// Panics when more discrete lanes are taken than were recorded.
    #[inline]
    pub fn discrete(&mut self) -> u64 {
        *self
            .discrete
            .next()
            .expect("more discrete lanes than recorded")
    }

    /// The next counter lane, grown by its delta times the periods.
    ///
    /// # Panics
    ///
    /// Panics when more counter lanes are taken than were recorded, or the
    /// grown value overflows `u64`.
    #[inline]
    pub fn counter(&mut self) -> u64 {
        let (&value, &delta) = self
            .counters
            .next()
            .expect("more counter lanes than recorded");
        delta
            .checked_mul(self.periods)
            .and_then(|growth| value.checked_add(growth))
            .expect("counter lane overflows u64")
    }

    /// Checks that every recorded lane was taken.
    ///
    /// # Panics
    ///
    /// Panics when lanes are left.
    pub fn finish(mut self) {
        assert!(
            self.discrete.next().is_none() && self.counters.next().is_none(),
            "lanes left unwritten"
        );
    }
}

/// The lanes in which one snapshot differs from an earlier one of the same
/// layout, as `(index, value)` pairs: a compact way to keep a sequence of
/// nearby snapshots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LanesDiff {
    discrete: Changed,
    counters: Changed,
}

/// The changed lanes of one kind: their indices and new values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Changed {
    at: Vec<u32>,
    values: Vec<u64>,
}

impl Changed {
    /// The lanes of `now` that differ from `then`, held at their exact size
    /// (a locked period keeps one diff per round).
    fn between(now: &[u64], then: &[u64]) -> Self {
        let changed = || {
            now.iter()
                .zip(then)
                .enumerate()
                .filter(|(_, (a, b))| a != b)
        };
        let count = changed().count();
        let mut at = Vec::with_capacity(count);
        let mut values = Vec::with_capacity(count);
        for (i, (&a, _)) in changed() {
            at.push(i as u32);
            values.push(a);
        }
        Self { at, values }
    }

    fn apply(&self, lanes: &mut [u64]) {
        for (&i, &value) in self.at.iter().zip(&self.values) {
            lanes[i as usize] = value;
        }
    }
}

impl LanesDiff {
    /// Number of lanes that differ.
    pub fn len(&self) -> usize {
        self.discrete.at.len() + self.counters.at.len()
    }

    /// True when the snapshots are equal.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Lanes {
    /// The lanes in which `self` differs from `earlier`, or `None` when
    /// the two were recorded with different layouts.
    pub fn diff_from(&self, earlier: &Lanes) -> Option<LanesDiff> {
        (self.discrete.len() == earlier.discrete.len()
            && self.counters.len() == earlier.counters.len()
            && self.groups == earlier.groups)
            .then(|| LanesDiff {
                discrete: Changed::between(&self.discrete, &earlier.discrete),
                counters: Changed::between(&self.counters, &earlier.counters),
            })
    }

    /// Applies a diff taken by [`Lanes::diff_from`] against a snapshot
    /// equal to `self`.
    pub fn apply(&mut self, diff: &LanesDiff) {
        diff.discrete.apply(&mut self.discrete);
        diff.counters.apply(&mut self.counters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(tags: [u64; 2], tick: u64, stamps: [u64; 3], pmc: u64) -> Lanes {
        let mut lanes = Lanes::new();
        for tag in tags {
            lanes.discrete(tag);
        }
        lanes.stamped(tick, stamps);
        lanes.counter(pmc);
        lanes
    }

    #[test]
    fn deltas_cover_counters_and_require_equal_discrete_lanes() {
        let a = snapshot([1, 2], 10, [4, 9, 10], 100);
        let b = snapshot([1, 2], 13, [4, 12, 13], 150);
        assert_eq!(b.delta_since(&a), Some(vec![3, 0, 3, 3, 50]));
        let moved = snapshot([1, 3], 13, [4, 12, 13], 150);
        assert_eq!(moved.delta_since(&a), None, "a tag changed");
        let back = snapshot([1, 2], 13, [4, 12, 13], 90);
        assert_eq!(back.delta_since(&a), None, "a counter went backwards");
    }

    #[test]
    fn stamps_must_stay_or_follow_their_tick() {
        let a = snapshot([1, 2], 10, [4, 8, 10], 0);
        // Stamp 2 advanced by 2 while the tick advanced by 3: the stamps'
        // order may not repeat, so no delta is offered.
        let b = snapshot([1, 2], 13, [4, 10, 13], 0);
        assert_eq!(b.delta_since(&a), None);
    }

    #[test]
    fn sources_hand_back_lanes_grown_by_whole_periods() {
        let lanes = snapshot([1, 2], 13, [4, 12, 13], 150);
        let delta = [3, 0, 3, 3, 50];
        let mut source = LaneSource::new(&lanes, &delta, 4);
        assert_eq!((source.discrete(), source.discrete()), (1, 2));
        let counters: Vec<u64> = (0..5).map(|_| source.counter()).collect();
        source.finish();
        assert_eq!(counters, [25, 4, 24, 25, 350]);
    }

    #[test]
    #[should_panic(expected = "overflows u64")]
    fn sources_are_checked() {
        let mut lanes = Lanes::new();
        lanes.counter(u64::MAX - 1);
        LaneSource::new(&lanes, &[1], 2).counter();
    }

    #[test]
    #[should_panic(expected = "left unwritten")]
    fn sources_must_be_drained() {
        let mut lanes = Lanes::new();
        lanes.counter(1);
        lanes.counter(2);
        let mut source = LaneSource::new(&lanes, &[0, 0], 1);
        source.counter();
        source.finish();
    }

    #[test]
    fn diffs_rebuild_later_snapshots() {
        let a = snapshot([1, 2], 10, [4, 9, 10], 100);
        let b = snapshot([1, 5], 13, [4, 12, 13], 150);
        let diff = b.diff_from(&a).expect("same layout");
        assert_eq!(diff.len(), 5);
        let mut rebuilt = a.clone();
        rebuilt.apply(&diff);
        assert_eq!(rebuilt, b);
        let mut other = Lanes::new();
        other.discrete(1);
        assert_eq!(other.diff_from(&a), None);
    }
}
