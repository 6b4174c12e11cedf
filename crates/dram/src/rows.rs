//! Per-row disturbance of a bank, stored only for the rows a refresh window
//! touches.
//!
//! A refresh window activates few rows of a bank: a hammer loop's
//! aggressors, the rows its eviction and spray traffic opens, and their
//! neighbours. Disturbance therefore lives in fixed 64-row chunks, allocated
//! on the first disturbance of a row they cover and found through a
//! per-bank chunk index. A refresh-window rollover forgets only the chunks
//! that window allocated, and a copy of the state (a bank checkpoint)
//! copies only those chunks, so neither scales with the bank's row count.

use serde::Serialize;

/// Rows per disturbance chunk.
const CHUNK_ROWS: u32 = 64;

/// Chunk-index entry of a chunk slot that holds no chunk this window.
const UNALLOCATED: u32 = u32::MAX;

/// The counters of a chunk slot that holds no chunk: every row reads zero.
const ZERO_CHUNK: [u32; CHUNK_ROWS as usize] = [0; CHUNK_ROWS as usize];

/// Accumulated disturbance (adjacent-row activations) per row of one bank
/// within the current refresh window.
///
/// Rows are grouped into slots of 64 consecutive rows. A slot's counters
/// exist only once one of its rows has been disturbed this window; every
/// other row reads zero. Equality compares these logical per-row
/// values, so two states are equal whatever order their chunks were
/// allocated in.
///
/// Disturbance saturates at `u32::MAX` instead of wrapping. A refresh window
/// bounds it far below that: the longest window of any preset is 179.2 M
/// cycles, and even a paper-scale attempt (120 000 rounds of a few thousand
/// cycles) activates a row fewer than a million times per window.
#[derive(Debug, Clone, Serialize)]
pub struct RowDisturbance {
    /// Number of rows of the bank.
    rows: u32,
    /// Per slot: the position of its chunk in `slots`, or [`UNALLOCATED`].
    index: Vec<u32>,
    /// The slot of each allocated chunk, in allocation order.
    slots: Vec<u32>,
    /// The allocated chunks' counters back to back, [`CHUNK_ROWS`] per
    /// chunk, in allocation order.
    chunks: Vec<u32>,
    /// The most chunks this state has held at once.
    peak_chunks: u32,
}

impl RowDisturbance {
    /// Zeroed state for a bank of `rows` rows; it holds no chunk yet.
    pub fn new(rows: u32) -> Self {
        Self {
            rows,
            index: vec![UNALLOCATED; rows.div_ceil(CHUNK_ROWS) as usize],
            slots: Vec::new(),
            chunks: Vec::new(),
            peak_chunks: 0,
        }
    }

    /// Number of rows tracked.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// The most chunks this state has held at once (over every window).
    pub fn peak_chunks(&self) -> u32 {
        self.peak_chunks
    }

    /// Resets every row to zero (refresh-window rollover): forgets the
    /// chunks this window allocated and keeps their storage for the next.
    pub fn clear(&mut self) {
        for &slot in &self.slots {
            self.index[slot as usize] = UNALLOCATED;
        }
        self.slots.clear();
        self.chunks.clear();
    }

    /// Adds one unit of disturbance to `row` and returns the new total.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not a row of the bank.
    #[inline]
    pub fn add_disturbance(&mut self, row: u32) -> u32 {
        let slot = self.slot_of(row);
        let mut chunk = self.index[slot];
        if chunk == UNALLOCATED {
            chunk = self.allocate(slot);
        }
        let d = &mut self.chunks[(chunk * CHUNK_ROWS + row % CHUNK_ROWS) as usize];
        *d = d.saturating_add(1);
        *d
    }

    /// Clears `row`'s accumulated disturbance (targeted refresh). A row whose
    /// chunk was never allocated already reads zero and stays unallocated.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not a row of the bank.
    #[inline]
    pub fn clear_disturbance(&mut self, row: u32) {
        let chunk = self.index[self.slot_of(row)];
        if chunk != UNALLOCATED {
            self.chunks[(chunk * CHUNK_ROWS + row % CHUNK_ROWS) as usize] = 0;
        }
    }

    /// Accumulated disturbance of `row` this window (0 for out-of-range
    /// rows).
    pub fn disturbance_of(&self, row: u32) -> u32 {
        if row >= self.rows {
            return 0;
        }
        self.chunk(row / CHUNK_ROWS)[(row % CHUNK_ROWS) as usize]
    }

    /// Replaces this state with `other`'s counters, reusing this state's
    /// storage. The peak chunk count keeps the larger of the two.
    pub fn restore_from(&mut self, other: &Self) {
        self.rows = other.rows;
        self.index.clone_from(&other.index);
        self.slots.clone_from(&other.slots);
        self.chunks.clone_from(&other.chunks);
        self.peak_chunks = self.peak_chunks.max(other.peak_chunks);
    }

    /// The chunk slot of `row`, asserting that `row` is a row of the bank.
    #[inline]
    fn slot_of(&self, row: u32) -> usize {
        assert!(
            row < self.rows,
            "row {row} out of range for a bank of {} rows",
            self.rows
        );
        (row / CHUNK_ROWS) as usize
    }

    /// Allocates a zeroed chunk for `slot` and returns its position.
    fn allocate(&mut self, slot: usize) -> u32 {
        let chunk = self.slots.len() as u32;
        self.index[slot] = chunk;
        self.slots.push(slot as u32);
        self.chunks
            .resize(self.chunks.len() + CHUNK_ROWS as usize, 0);
        self.peak_chunks = self.peak_chunks.max(chunk + 1);
        chunk
    }

    /// The counters of chunk slot `slot`: its chunk, or zeros when none is
    /// allocated.
    fn chunk(&self, slot: u32) -> &[u32] {
        match self.index[slot as usize] {
            UNALLOCATED => &ZERO_CHUNK,
            chunk => {
                let start = (chunk * CHUNK_ROWS) as usize;
                &self.chunks[start..start + CHUNK_ROWS as usize]
            }
        }
    }
}

impl PartialEq for RowDisturbance {
    /// Equal when both cover the same rows with the same per-row values,
    /// whatever their chunk layout or peak.
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && (0..self.index.len() as u32).all(|slot| self.chunk(slot) == other.chunk(slot))
    }
}

impl Eq for RowDisturbance {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rows_start_zeroed_and_clear() {
        let mut s = RowDisturbance::new(8);
        assert_eq!(s.rows(), 8);
        assert_eq!(s.disturbance_of(3), 0);
        assert_eq!(s.slots.len(), 0);
        assert_eq!(s.add_disturbance(4), 1);
        assert_eq!(s.add_disturbance(4), 2);
        assert_eq!(s.slots.len(), 1);
        s.clear();
        assert_eq!(s.disturbance_of(4), 0);
        assert_eq!(s.slots.len(), 0);
        assert_eq!(s.peak_chunks(), 1);
    }

    #[test]
    fn out_of_range_probes_read_zero() {
        let mut s = RowDisturbance::new(96);
        assert_eq!(s.disturbance_of(99), 0);
        // Row 95 shares its chunk slot with the out-of-range rows 96..128.
        s.add_disturbance(95);
        assert_eq!(s.disturbance_of(96), 0);
        assert_eq!(s.disturbance_of(u32::MAX), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn disturbing_an_out_of_range_row_panics() {
        RowDisturbance::new(96).add_disturbance(96);
    }

    #[test]
    fn clear_disturbance_is_targeted() {
        let mut s = RowDisturbance::new(4);
        s.add_disturbance(1);
        s.add_disturbance(2);
        s.clear_disturbance(1);
        assert_eq!(s.disturbance_of(1), 0);
        assert_eq!(s.disturbance_of(2), 1);
    }

    #[test]
    fn clearing_an_untouched_row_allocates_nothing() {
        let mut s = RowDisturbance::new(256);
        s.clear_disturbance(200);
        assert_eq!(s.slots.len(), 0);
        assert_eq!(s, RowDisturbance::new(256));
    }

    #[test]
    fn disturbance_saturates_instead_of_wrapping() {
        let mut s = RowDisturbance::new(2);
        s.add_disturbance(1);
        s.chunks[1] = u32::MAX - 1;
        assert_eq!(s.add_disturbance(1), u32::MAX);
        assert_eq!(s.add_disturbance(1), u32::MAX);
    }

    #[test]
    fn only_touched_slots_hold_chunks() {
        let mut s = RowDisturbance::new(32_768);
        for row in [0, 63, 64, 32_767] {
            s.add_disturbance(row);
        }
        assert_eq!(s.slots.len(), 3);
        assert_eq!(s.chunks.len(), 3 * CHUNK_ROWS as usize);
        let copy = s.clone();
        assert_eq!(copy.chunks.len(), 3 * CHUNK_ROWS as usize);
        assert_eq!(copy, s);
    }

    #[test]
    fn equality_ignores_allocation_order_and_empty_chunks() {
        let (mut a, mut b) = (RowDisturbance::new(200), RowDisturbance::new(200));
        for row in [5, 130, 70] {
            a.add_disturbance(row);
        }
        for row in [70, 5, 130, 199] {
            b.add_disturbance(row);
        }
        assert_ne!(a, b);
        b.clear_disturbance(199);
        assert_eq!(a, b);
        assert_ne!(a.slots, b.slots);
        assert_ne!(RowDisturbance::new(64), RowDisturbance::new(65));
    }

    #[test]
    fn restore_keeps_the_larger_peak() {
        let mut s = RowDisturbance::new(256);
        let empty = s.clone();
        for row in [0, 64, 128] {
            s.add_disturbance(row);
        }
        s.restore_from(&empty);
        assert_eq!(s, empty);
        assert_eq!(s.slots.len(), 0);
        assert_eq!(s.peak_chunks(), 3);
    }

    /// One step of the twin test.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Add(u32),
        Clear(u32),
        /// Sets a row to `u32::MAX - 1` on both twins (saturating by
        /// increments alone would take billions of steps).
        NearSaturate(u32),
        Rollover,
        Checkpoint,
        Restore,
        /// Reads the row this far past the bank's end.
        ReadPast(u32),
    }

    /// Bank sizes the twin covers. 96 is the pattern synthesizer's bank, a
    /// row count that is not a multiple of the chunk size; 1 and 64 are the
    /// smallest one-chunk banks; 65 has a one-row last chunk.
    const TWIN_ROWS: [u32; 6] = [96, 1, 64, 65, 200, 1000];

    /// Decodes one random word into a step on a bank of `rows` rows. Rows
    /// are drawn from the chunk edges, row 0, row `rows - 1` and the whole
    /// bank.
    fn decode(word: u64, rows: u32) -> Op {
        let pick = word >> 8;
        let slots = u64::from(rows.div_ceil(CHUNK_ROWS));
        let first = (pick >> 4) % slots * u64::from(CHUNK_ROWS);
        let row = match pick % 8 {
            0..=2 if pick & 8 == 0 => first as u32,
            0..=2 => (first + u64::from(CHUNK_ROWS) - 1).min(u64::from(rows) - 1) as u32,
            3 => 0,
            4 => rows - 1,
            _ => ((pick >> 3) % u64::from(rows)) as u32,
        };
        match word % 22 {
            0..=11 => Op::Add(row),
            12..=14 => Op::Clear(row),
            15 => Op::NearSaturate(row),
            16 => Op::Rollover,
            17 | 18 => Op::Checkpoint,
            19 | 20 => Op::Restore,
            _ => Op::ReadPast((pick % 64) as u32),
        }
    }

    /// Overwrites `row`'s counter, allocating its chunk first.
    fn set(state: &mut RowDisturbance, row: u32, value: u32) {
        state.add_disturbance(row);
        let chunk = state.index[(row / CHUNK_ROWS) as usize];
        state.chunks[(chunk * CHUNK_ROWS + row % CHUNK_ROWS) as usize] = value;
    }

    /// The same per-row values as `dense`, with chunks allocated from the
    /// last row to the first.
    fn rebuilt_in_reverse(dense: &[u32]) -> RowDisturbance {
        let mut state = RowDisturbance::new(dense.len() as u32);
        for (row, &d) in dense.iter().enumerate().rev() {
            if d > 0 {
                set(&mut state, row as u32, d);
            }
        }
        state
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 64 } else { 256 }
        ))]

        // The chunked state against a dense per-row reference: every read
        // and every returned total agree after any sequence of disturbance,
        // targeted refresh, rollover, checkpoint and restore, and equality
        // does not depend on the order chunks were allocated in.
        #[test]
        fn chunked_state_matches_a_dense_reference(
            size in 0usize..TWIN_ROWS.len() + 1,
            random_rows in 1u32..300,
            words in prop::collection::vec(any::<u64>(), 1..300),
        ) {
            let rows = TWIN_ROWS.get(size).copied().unwrap_or(random_rows);
            let mut state = RowDisturbance::new(rows);
            let mut dense = vec![0u32; rows as usize];
            let mut saved = (state.clone(), dense.clone());
            for word in words {
                match decode(word, rows) {
                    Op::Add(row) => {
                        let d = &mut dense[row as usize];
                        *d = d.saturating_add(1);
                        prop_assert_eq!(state.add_disturbance(row), *d);
                    }
                    Op::Clear(row) => {
                        let allocated = state.slots.len();
                        dense[row as usize] = 0;
                        state.clear_disturbance(row);
                        prop_assert_eq!(state.slots.len(), allocated);
                    }
                    Op::NearSaturate(row) => {
                        dense[row as usize] = u32::MAX - 1;
                        set(&mut state, row, u32::MAX - 1);
                    }
                    Op::Rollover => {
                        dense.fill(0);
                        state.clear();
                        prop_assert_eq!(state.slots.len(), 0);
                    }
                    Op::Checkpoint => saved = (state.clone(), dense.clone()),
                    Op::Restore => {
                        state.restore_from(&saved.0);
                        dense.clone_from(&saved.1);
                    }
                    Op::ReadPast(past) => {
                        prop_assert_eq!(state.disturbance_of(rows.saturating_add(past)), 0);
                    }
                }
                for (row, &d) in dense.iter().enumerate() {
                    prop_assert!(
                        state.disturbance_of(row as u32) == d,
                        "row {row}: {} against the reference's {d}",
                        state.disturbance_of(row as u32)
                    );
                }
                prop_assert!(state.slots.len() as u32 <= state.peak_chunks());
                prop_assert!(
                    rebuilt_in_reverse(&dense) == state,
                    "equality depends on chunk order"
                );
            }
        }
    }
}
