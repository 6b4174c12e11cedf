//! Performance-monitoring counters exposed by the cache hierarchy.

use core::fmt;

use serde::Serialize;

use pthammer_types::{LaneSink, LaneSource};

/// Cache-related performance counters.
///
/// These mirror the hardware events the paper's evaluation kernel module
/// reads: `longest_lat_cache.miss` corresponds to [`CachePmc::llc_misses`].
/// The simulated attacker only reads them through the privileged oracle
/// interface during offline calibration, exactly as in the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CachePmc {
    /// L1D lookups.
    pub l1_accesses: u64,
    /// L1D misses.
    pub l1_misses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// LLC lookups (accesses that reached the LLC).
    pub llc_accesses: u64,
    /// LLC misses (`longest_lat_cache.miss`).
    pub llc_misses: u64,
}

impl CachePmc {
    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        *self = CachePmc::default();
    }

    /// LLC miss rate over LLC accesses (0 when there were none).
    pub fn llc_miss_rate(&self) -> f64 {
        if self.llc_accesses == 0 {
            0.0
        } else {
            self.llc_misses as f64 / self.llc_accesses as f64
        }
    }

    /// Records every counter as a counter lane.
    pub(crate) fn read_lanes(&self, lanes: &mut impl LaneSink) {
        for value in [
            self.l1_accesses,
            self.l1_misses,
            self.l2_misses,
            self.llc_accesses,
            self.llc_misses,
        ] {
            lanes.counter(value);
        }
    }

    /// Writes back the lanes of [`CachePmc::read_lanes`].
    pub(crate) fn write_lanes(&mut self, source: &mut LaneSource) {
        for lane in [
            &mut self.l1_accesses,
            &mut self.l1_misses,
            &mut self.l2_misses,
            &mut self.llc_accesses,
            &mut self.llc_misses,
        ] {
            *lane = source.counter();
        }
    }

    /// Difference of two snapshots (`self - earlier`), saturating at zero.
    pub fn since(&self, earlier: &CachePmc) -> CachePmc {
        CachePmc {
            l1_accesses: self.l1_accesses.saturating_sub(earlier.l1_accesses),
            l1_misses: self.l1_misses.saturating_sub(earlier.l1_misses),
            l2_misses: self.l2_misses.saturating_sub(earlier.l2_misses),
            llc_accesses: self.llc_accesses.saturating_sub(earlier.llc_accesses),
            llc_misses: self.llc_misses.saturating_sub(earlier.llc_misses),
        }
    }
}

impl fmt::Display for CachePmc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "l1_acc={} l1_miss={} l2_miss={} llc_acc={} llc_miss={}",
            self.l1_accesses, self.l1_misses, self.l2_misses, self.llc_accesses, self.llc_misses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_rate_handles_zero() {
        assert_eq!(CachePmc::default().llc_miss_rate(), 0.0);
    }

    #[test]
    fn miss_rate_computation() {
        let pmc = CachePmc {
            llc_accesses: 8,
            llc_misses: 2,
            ..Default::default()
        };
        assert!((pmc.llc_miss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn since_subtracts_snapshots() {
        let early = CachePmc {
            l1_accesses: 10,
            llc_misses: 1,
            ..Default::default()
        };
        let late = CachePmc {
            l1_accesses: 15,
            llc_misses: 4,
            ..Default::default()
        };
        let diff = late.since(&early);
        assert_eq!(diff.l1_accesses, 5);
        assert_eq!(diff.llc_misses, 3);
    }

    #[test]
    fn reset_zeroes_counters() {
        let mut pmc = CachePmc {
            l1_accesses: 3,
            ..Default::default()
        };
        pmc.reset();
        assert_eq!(pmc, CachePmc::default());
    }
}
