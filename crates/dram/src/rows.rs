//! Dense structure-of-arrays row state for a bank.
//!
//! The hammer loop's hot path probes two to three rows per activation
//! (aggressor bookkeeping plus both neighbours), and the pattern
//! synthesizer's scoring loop replays thousands of activations per
//! candidate. Both want the per-row counters laid out as separate dense
//! `u32` arrays — activation counts, last-activation times and disturbance
//! each contiguous and indexed by row — instead of an array of per-row
//! structs, so a sweep over one counter kind streams one array.

use serde::Serialize;

/// Per-row refresh-window bookkeeping in structure-of-arrays layout: three
/// dense `u32` arrays, each indexed by row number.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct RowStateSoA {
    /// Activation count per row within the current refresh window.
    activations: Vec<u32>,
    /// Window-relative cycle of each row's most recent activation
    /// (saturated to `u32`; meaningful only while the row's activation
    /// count is non-zero).
    last_activation: Vec<u32>,
    /// Accumulated disturbance (adjacent-row activations) per row within
    /// the window.
    disturbance: Vec<u32>,
}

impl RowStateSoA {
    /// Zeroed state for a bank of `rows` rows.
    pub fn new(rows: u32) -> Self {
        Self {
            activations: vec![0; rows as usize],
            last_activation: vec![0; rows as usize],
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
        self.last_activation.fill(0);
        self.disturbance.fill(0);
    }

    /// Records an activation of `row` at window-relative cycle
    /// `window_cycle`.
    #[inline]
    pub fn record_activation(&mut self, row: u32, window_cycle: u64) {
        self.activations[row as usize] += 1;
        self.last_activation[row as usize] = window_cycle.min(u64::from(u32::MAX)) as u32;
    }

    /// Adds one unit of disturbance to `row` and returns the new total.
    #[inline]
    pub fn add_disturbance(&mut self, row: u32) -> u32 {
        let d = &mut self.disturbance[row as usize];
        *d += 1;
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

    /// Window-relative cycle of `row`'s most recent activation this window,
    /// or `None` while the row has not been activated (or is out of range).
    pub fn last_activation_of(&self, row: u32) -> Option<u32> {
        (self.activations_of(row) > 0).then(|| self.last_activation[row as usize])
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
        assert_eq!(s.last_activation_of(3), None);
        s.record_activation(3, 700);
        assert_eq!(s.add_disturbance(4), 1);
        assert_eq!(s.add_disturbance(4), 2);
        assert_eq!(s.activations_of(3), 1);
        assert_eq!(s.last_activation_of(3), Some(700));
        s.clear();
        assert_eq!(s.activations_of(3), 0);
        assert_eq!(s.disturbance_of(4), 0);
        assert_eq!(s.last_activation_of(3), None);
    }

    #[test]
    fn out_of_range_probes_read_zero() {
        let s = RowStateSoA::new(4);
        assert_eq!(s.activations_of(99), 0);
        assert_eq!(s.disturbance_of(99), 0);
        assert_eq!(s.last_activation_of(99), None);
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
    fn last_activation_saturates_past_u32() {
        let mut s = RowStateSoA::new(2);
        s.record_activation(0, u64::from(u32::MAX) + 17);
        assert_eq!(s.last_activation_of(0), Some(u32::MAX));
    }
}
