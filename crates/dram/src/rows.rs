//! Dense structure-of-arrays row state for a bank.
//!
//! The hammer loop's hot path probes two to three rows per activation
//! (aggressor bookkeeping plus both neighbours), and the pattern
//! synthesizer's scoring loop replays thousands of activations per
//! candidate. Both want the per-row counters laid out as separate dense
//! `u32` arrays — activation counts and disturbance each contiguous and
//! indexed by row — instead of an array of per-row structs, so a sweep over
//! one counter kind streams one array.

use serde::Serialize;

/// Per-row refresh-window bookkeeping in structure-of-arrays layout: two
/// dense `u32` arrays, each indexed by row number.
///
/// Activation counts and disturbance saturate at `u32::MAX` instead of
/// wrapping. A refresh window bounds both far below that: the longest
/// window of any preset is 179.2 M cycles, and even a paper-scale attempt
/// (120 000 rounds of a few thousand cycles) activates a row fewer than a
/// million times per window.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct RowStateSoA {
    /// Activation count per row within the current refresh window.
    activations: Vec<u32>,
    /// Accumulated disturbance (adjacent-row activations) per row within
    /// the window.
    disturbance: Vec<u32>,
}

impl RowStateSoA {
    /// Zeroed state for a bank of `rows` rows.
    pub fn new(rows: u32) -> Self {
        Self {
            activations: vec![0; rows as usize],
            disturbance: vec![0; rows as usize],
        }
    }

    /// Number of rows tracked.
    pub fn rows(&self) -> u32 {
        self.activations.len() as u32
    }

    /// Resets every counter (refresh-window rollover).
    pub fn clear(&mut self) {
        self.activations.fill(0);
        self.disturbance.fill(0);
    }

    /// Records an activation of `row`.
    #[inline]
    pub fn record_activation(&mut self, row: u32) {
        let count = &mut self.activations[row as usize];
        *count = count.saturating_add(1);
    }

    /// Adds one unit of disturbance to `row` and returns the new total.
    #[inline]
    pub fn add_disturbance(&mut self, row: u32) -> u32 {
        let d = &mut self.disturbance[row as usize];
        *d = d.saturating_add(1);
        *d
    }

    /// Clears `row`'s accumulated disturbance (targeted refresh).
    #[inline]
    pub fn clear_disturbance(&mut self, row: u32) {
        self.disturbance[row as usize] = 0;
    }

    /// Activation count of `row` this window (0 for out-of-range rows).
    pub fn activations_of(&self, row: u32) -> u32 {
        self.activations.get(row as usize).copied().unwrap_or(0)
    }

    /// Accumulated disturbance of `row` this window (0 for out-of-range
    /// rows).
    pub fn disturbance_of(&self, row: u32) -> u32 {
        self.disturbance.get(row as usize).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrays_start_zeroed_and_clear() {
        let mut s = RowStateSoA::new(8);
        assert_eq!(s.rows(), 8);
        assert_eq!(s.activations_of(3), 0);
        assert_eq!(s.disturbance_of(3), 0);
        s.record_activation(3);
        assert_eq!(s.add_disturbance(4), 1);
        assert_eq!(s.add_disturbance(4), 2);
        assert_eq!(s.activations_of(3), 1);
        s.clear();
        assert_eq!(s.activations_of(3), 0);
        assert_eq!(s.disturbance_of(4), 0);
    }

    #[test]
    fn out_of_range_probes_read_zero() {
        let s = RowStateSoA::new(4);
        assert_eq!(s.activations_of(99), 0);
        assert_eq!(s.disturbance_of(99), 0);
    }

    #[test]
    fn clear_disturbance_is_targeted() {
        let mut s = RowStateSoA::new(4);
        s.add_disturbance(1);
        s.add_disturbance(2);
        s.clear_disturbance(1);
        assert_eq!(s.disturbance_of(1), 0);
        assert_eq!(s.disturbance_of(2), 1);
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let mut s = RowStateSoA::new(2);
        s.disturbance[1] = u32::MAX - 1;
        s.activations[0] = u32::MAX;
        assert_eq!(s.add_disturbance(1), u32::MAX);
        assert_eq!(s.add_disturbance(1), u32::MAX);
        s.record_activation(0);
        assert_eq!(s.activations_of(0), u32::MAX);
    }
}
