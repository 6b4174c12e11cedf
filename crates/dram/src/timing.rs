//! DRAM timing parameters expressed in CPU cycles.

use serde::Serialize;

use pthammer_types::Cycles;

/// DRAM timing parameters, folded into CPU cycles at the machine's nominal
/// clock so the rest of the simulation runs on a single clock domain.
///
/// The individual latencies are calibrated so that a full PThammer
/// double-sided iteration (two implicit L1PTE loads from DRAM plus ~50 cached
/// eviction-set accesses) lands in the 600–1400 cycle range reported in
/// Figure 6 of the paper.
///
/// # Examples
///
/// ```
/// use pthammer_dram::DramTimings;
/// let t = DramTimings::ddr3_default();
/// assert!(t.row_conflict_latency() > t.row_hit_latency());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct DramTimings {
    /// Column access latency (CAS + bus transfer), charged on every access.
    pub cas: u32,
    /// Row-to-column delay, charged when a closed row must be activated.
    pub rcd: u32,
    /// Row precharge delay, charged when a different row is currently open.
    pub rp: u32,
    /// Length of a refresh window in cycles (64 ms at the nominal clock).
    pub refresh_window: u64,
}

impl DramTimings {
    /// Default DDR3 timings at a ~2.6 GHz CPU clock.
    pub const fn ddr3_default() -> Self {
        Self {
            cas: 110,
            rcd: 45,
            rp: 45,
            refresh_window: 166_400_000, // 64 ms * 2.6 GHz
        }
    }

    /// Slightly slower timings used for the Dell E6420 preset so that its
    /// per-iteration hammer cost lands in the 900–1400 cycle band of Fig. 6.
    pub const fn ddr3_slow() -> Self {
        Self {
            cas: 160,
            rcd: 70,
            rp: 70,
            refresh_window: 179_200_000, // 64 ms * 2.8 GHz
        }
    }

    /// Compressed timings for fast unit tests: short refresh window so
    /// rowhammer windows roll over quickly.
    pub const fn fast_test() -> Self {
        Self {
            cas: 100,
            rcd: 40,
            rp: 40,
            refresh_window: 2_000_000,
        }
    }

    /// Latency of an access that hits the open row buffer.
    pub const fn row_hit_latency(&self) -> Cycles {
        Cycles::new(self.cas as u64)
    }

    /// Latency of an access to a bank with no open row.
    pub const fn row_miss_latency(&self) -> Cycles {
        Cycles::new((self.cas + self.rcd) as u64)
    }

    /// Latency of an access that conflicts with a different open row.
    pub const fn row_conflict_latency(&self) -> Cycles {
        Cycles::new((self.cas + self.rcd + self.rp) as u64)
    }
}

impl Default for DramTimings {
    fn default() -> Self {
        Self::ddr3_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_are_ordered() {
        for t in [
            DramTimings::ddr3_default(),
            DramTimings::ddr3_slow(),
            DramTimings::fast_test(),
        ] {
            assert!(t.row_hit_latency() < t.row_miss_latency());
            assert!(t.row_miss_latency() < t.row_conflict_latency());
            assert!(t.refresh_window > 0);
        }
    }

    #[test]
    fn default_is_ddr3() {
        assert_eq!(DramTimings::default(), DramTimings::ddr3_default());
    }

    #[test]
    fn refresh_window_is_roughly_64ms() {
        let t = DramTimings::ddr3_default();
        let seconds = t.refresh_window as f64 / 2.6e9;
        assert!((seconds - 0.064).abs() < 1e-6);
    }
}
