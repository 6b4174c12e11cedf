//! Aggregate statistics collected by the DRAM model.

use core::fmt;

use serde::Serialize;

/// Counters accumulated over the lifetime of a [`DramModule`](crate::DramModule).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct DramStats {
    /// Total accesses served.
    pub accesses: u64,
    /// Accesses that hit an open row buffer.
    pub row_hits: u64,
    /// Accesses to banks with no open row.
    pub row_misses: u64,
    /// Accesses that conflicted with a different open row.
    pub row_conflicts: u64,
    /// Total row activations (misses + conflicts).
    pub activations: u64,
    /// Refresh-window rollovers observed.
    pub refresh_windows: u64,
    /// Targeted refreshes issued by TRR.
    pub trr_refreshes: u64,
    /// Bit-flip events emitted.
    pub flips: u64,
}

impl DramStats {
    /// Fraction of accesses that hit the row buffer (0 when no accesses).
    pub fn row_hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.accesses as f64
        }
    }
}

impl fmt::Display for DramStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "accesses={} hits={} misses={} conflicts={} activations={} refresh_windows={} trr={} flips={}",
            self.accesses,
            self.row_hits,
            self.row_misses,
            self.row_conflicts,
            self.activations,
            self.refresh_windows,
            self.trr_refreshes,
            self.flips
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_zero_accesses() {
        let s = DramStats::default();
        assert_eq!(s.row_hit_rate(), 0.0);
    }

    #[test]
    fn hit_rate_computation() {
        let s = DramStats {
            accesses: 10,
            row_hits: 4,
            ..Default::default()
        };
        assert!((s.row_hit_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!DramStats::default().to_string().is_empty());
    }
}
