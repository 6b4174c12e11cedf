//! Per-bank DRAM state: row buffer, TRR sampler and disturbance
//! accumulation within refresh windows.

use serde::Serialize;

use pthammer_types::{Cycles, DetHashSet};

use crate::{
    row_buffer::{RowBuffer, RowBufferOutcome, RowBufferPolicy},
    rows::RowDisturbance,
    timing::DramTimings,
    trr::{TrrConfig, TrrSampler},
    vulnerability::{FlipModel, WeakCell},
};

/// Result of a single access to a bank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankAccessResult {
    /// Row-buffer outcome for the access.
    pub outcome: RowBufferOutcome,
    /// Weak cells that crossed their disturbance threshold because of this
    /// access: `(victim_row, cell, disturbance_at_flip)`.
    pub flips: Vec<(u32, WeakCell, u32)>,
    /// Whether a refresh-window rollover happened before this access.
    pub window_rolled: bool,
    /// Whether TRR issued a targeted refresh because of this access.
    pub trr_fired: bool,
}

/// State of one (channel, rank, bank) unit.
///
/// A bank tracks, per refresh window, how much *disturbance* (adjacent-row
/// activations) each potential victim row has accumulated. When a weak
/// cell's threshold is crossed, the bank reports a flip. Activations are
/// counted per module ([`crate::DramStats::activations`]) and, for the rows
/// it tracks, by the TRR sampler.
#[derive(Debug, Clone, Serialize)]
pub struct Bank {
    unit_id: u32,
    rows: u32,
    row_buffer: RowBuffer,
    window_start: Cycles,
    /// Per-row disturbance this window, kept in fixed-size row chunks that
    /// exist only for the slots the window disturbed. Two row-state probes
    /// run per activation on the hammer loop's hot path: a chunk-index load
    /// and a counter in a chunk, no hashing.
    row_state: RowDisturbance,
    /// Weak cells that already fired this window (avoid duplicate events).
    /// Only consulted once a victim crosses the profile's minimum threshold,
    /// so a (fast-hashed) set is fine here.
    emitted: DetHashSet<(u32, u32)>,
    #[serde(skip)]
    trr_sampler: TrrSampler,
}

/// A restorable snapshot of a bank's hammer-relevant state: row buffer,
/// refresh-window bookkeeping, the per-row disturbance (only its allocated
/// chunks are copied), the emitted-flip set and the TRR sampler. Taken at
/// schedule boundaries by the pattern synthesizer's incremental scorer, so
/// a mutated schedule can resume evaluation from a shared prefix instead of
/// replaying it. Equality compares per-row disturbance values, not how
/// their chunks are laid out.
#[derive(Debug, Clone, PartialEq)]
pub struct BankCheckpoint {
    row_buffer: RowBuffer,
    window_start: Cycles,
    row_state: RowDisturbance,
    emitted: DetHashSet<(u32, u32)>,
    trr_sampler: TrrSampler,
}

impl Bank {
    /// Creates a bank with `rows` rows, identified by `unit_id`.
    pub fn new(unit_id: u32, rows: u32) -> Self {
        Self {
            unit_id,
            rows,
            row_buffer: RowBuffer::new(),
            window_start: Cycles::ZERO,
            row_state: RowDisturbance::new(rows),
            emitted: DetHashSet::default(),
            trr_sampler: TrrSampler::default(),
        }
    }

    /// The flat (channel, rank, bank) identifier of this bank.
    pub fn unit_id(&self) -> u32 {
        self.unit_id
    }

    /// Current disturbance accumulated by `row` in this refresh window.
    pub fn disturbance_of(&self, row: u32) -> u32 {
        self.row_state.disturbance_of(row)
    }

    /// The most disturbance chunks this bank has held at once: its
    /// row-state memory high-water mark, in chunks of 64 rows.
    pub fn row_chunks_peak(&self) -> u32 {
        self.row_state.peak_chunks()
    }

    /// Start of the current refresh window: the bank rolls into the next
    /// window on its first access at or after `window_start + refresh_window`.
    pub fn window_start(&self) -> Cycles {
        self.window_start
    }

    /// The lowest threshold among the weak cells of `row` that have not
    /// flipped yet in this refresh window and sit at a byte `in_scope`
    /// accepts (by byte offset in the row), or `None` when none is left: the
    /// disturbance at which one of those bytes flips next.
    pub fn next_flip_threshold(
        &self,
        row: u32,
        flip_model: &FlipModel,
        in_scope: impl Fn(u32) -> bool,
    ) -> Option<u32> {
        flip_model
            .weak_cells(self.unit_id, row)
            .iter()
            .enumerate()
            .filter(|(idx, cell)| {
                in_scope(cell.byte_in_row) && !self.emitted.contains(&(row, *idx as u32))
            })
            .map(|(_, cell)| cell.threshold)
            .min()
    }

    /// The currently open row of this bank's row buffer, if any.
    pub fn open_row(&self) -> Option<u32> {
        self.row_buffer.open_row()
    }

    /// The TRR sampler's tracked `(row, activation count)` entries in
    /// recency order (front = coldest). Read-only introspection for the
    /// synthesizer's incremental scorer, which keys its round-boundary
    /// checkpoints on `(open_row, sampler state)` — under the open-page
    /// policy these two fully determine a bank's future activation and
    /// targeted-refresh behaviour within a refresh window.
    pub fn trr_tracked(&self) -> &[(u32, u32)] {
        self.trr_sampler.tracked()
    }

    /// Snapshots the bank's hammer-relevant state. Restoring the checkpoint
    /// with [`Bank::restore`] resumes the simulation bit-identically from
    /// the snapshot point.
    pub fn checkpoint(&self) -> BankCheckpoint {
        BankCheckpoint {
            row_buffer: self.row_buffer.clone(),
            window_start: self.window_start,
            row_state: self.row_state.clone(),
            emitted: self.emitted.clone(),
            trr_sampler: self.trr_sampler.clone(),
        }
    }

    /// Restores state previously captured by [`Bank::checkpoint`].
    pub fn restore(&mut self, checkpoint: &BankCheckpoint) {
        self.row_buffer = checkpoint.row_buffer.clone();
        self.window_start = checkpoint.window_start;
        self.row_state.restore_from(&checkpoint.row_state);
        self.emitted = checkpoint.emitted.clone();
        self.trr_sampler = checkpoint.trr_sampler.clone();
    }

    /// Handles a refresh-window rollover if `now` is past the window end.
    /// Returns the number of windows that elapsed.
    fn roll_window(&mut self, now: Cycles, timings: &DramTimings) -> u64 {
        let window = timings.refresh_window;
        let elapsed = now.saturating_sub(self.window_start).as_u64();
        if elapsed < window {
            return 0;
        }
        let windows = elapsed / window;
        self.window_start = Cycles::new(self.window_start.as_u64() + windows * window);
        self.row_state.clear();
        self.emitted.clear();
        self.trr_sampler.reset();
        // A refresh closes any open row.
        self.row_buffer.close();
        windows
    }

    /// Performs an access to `row` at time `now`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn access(
        &mut self,
        row: u32,
        now: Cycles,
        timings: &DramTimings,
        policy: RowBufferPolicy,
        flip_model: &FlipModel,
        trr: &TrrConfig,
    ) -> BankAccessResult {
        let window_rolled = self.roll_window(now, timings) > 0;
        let outcome = self.row_buffer.access(row, now, policy);
        let mut flips = Vec::new();
        let mut trr_fired = false;

        if outcome.activated() {
            if let Some(aggressor) = self.trr_sampler.record(row, trr) {
                trr_fired = true;
                // Targeted refresh of the aggressor's neighbours clears their
                // accumulated disturbance.
                if aggressor > 0 {
                    self.row_state.clear_disturbance(aggressor - 1);
                }
                if aggressor + 1 < self.rows {
                    self.row_state.clear_disturbance(aggressor + 1);
                }
            }

            for victim in neighbours(row, self.rows) {
                let disturbance = self.row_state.add_disturbance(victim);
                // No weak cell's threshold is below the profile minimum, so
                // the (comparatively expensive) weak-cell derivation can be
                // skipped until the victim's disturbance reaches it.
                if disturbance < flip_model.profile().min_threshold {
                    continue;
                }
                for (idx, cell) in flip_model
                    .weak_cells(self.unit_id, victim)
                    .iter()
                    .enumerate()
                {
                    if disturbance >= cell.threshold && self.emitted.insert((victim, idx as u32)) {
                        flips.push((victim, *cell, disturbance));
                    }
                }
            }
        }

        BankAccessResult {
            outcome,
            flips,
            window_rolled,
            trr_fired,
        }
    }
}

/// Rows adjacent to `row` within a bank of `rows` rows.
fn neighbours(row: u32, rows: u32) -> impl Iterator<Item = u32> {
    let below = row.checked_sub(1);
    let above = if row + 1 < rows { Some(row + 1) } else { None };
    below.into_iter().chain(above)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vulnerability::FlipModelProfile;

    fn fast_model() -> FlipModel {
        FlipModel::new(FlipModelProfile::ci(), 99, 8192)
    }

    fn timings() -> DramTimings {
        DramTimings::fast_test()
    }

    /// Finds a row whose neighbour `victim = row + 1` is weak, so hammering
    /// `row` and `row + 2` disturbs it (double-sided).
    fn find_weak_victim(model: &FlipModel, bank: u32) -> (u32, u32) {
        for victim in 1..1000u32 {
            if model.row_is_weak(bank, victim) {
                return (victim - 1, victim);
            }
        }
        panic!("ci profile should contain a weak row in the first 1000 rows");
    }

    #[test]
    fn neighbours_respects_bounds() {
        assert_eq!(neighbours(0, 10).collect::<Vec<_>>(), vec![1]);
        assert_eq!(neighbours(5, 10).collect::<Vec<_>>(), vec![4, 6]);
        assert_eq!(neighbours(9, 10).collect::<Vec<_>>(), vec![8]);
        assert_eq!(neighbours(0, 1).collect::<Vec<_>>(), Vec::<u32>::new());
    }

    #[test]
    fn double_sided_hammering_flips_weak_cell() {
        let model = fast_model();
        let mut bank = Bank::new(0, 1024);
        let (aggr_low, victim) = find_weak_victim(&model, 0);
        let aggr_high = victim + 1;
        let trr = TrrConfig::disabled();
        let mut flips = Vec::new();
        let mut now = Cycles::ZERO;
        for _ in 0..1000 {
            for row in [aggr_low, aggr_high] {
                let res = bank.access(
                    row,
                    now,
                    &timings(),
                    RowBufferPolicy::OpenPage,
                    &model,
                    &trr,
                );
                flips.extend(res.flips);
                now += Cycles::new(300);
            }
        }
        assert!(
            flips.iter().any(|(row, _, _)| *row == victim),
            "expected a flip in victim row {victim}"
        );
        // Every reported flip is in a row adjacent to one of the aggressors.
        for (row, _, disturbance) in &flips {
            assert!(
                row.abs_diff(aggr_low) <= 1 || row.abs_diff(aggr_high) <= 1,
                "unexpected victim row {row}"
            );
            assert!(*disturbance >= FlipModelProfile::ci().min_threshold);
        }
    }

    #[test]
    fn hammering_below_threshold_never_flips() {
        let model = fast_model();
        let mut bank = Bank::new(0, 1024);
        let (aggr_low, victim) = find_weak_victim(&model, 0);
        let trr = TrrConfig::disabled();
        let min_threshold = FlipModelProfile::ci().min_threshold;
        let mut now = Cycles::ZERO;
        let mut flips = 0;
        // Fewer activations than any threshold: no flips possible.
        for _ in 0..(min_threshold / 2) {
            let res = bank.access(
                aggr_low,
                now,
                &timings(),
                RowBufferPolicy::OpenPage,
                &model,
                &trr,
            );
            flips += res.flips.len();
            now += Cycles::new(10);
        }
        assert_eq!(flips, 0);
        assert!(bank.disturbance_of(victim) < min_threshold);
    }

    #[test]
    fn refresh_window_clears_disturbance() {
        let model = fast_model();
        let mut bank = Bank::new(0, 1024);
        let trr = TrrConfig::disabled();
        let t = timings();
        for i in 0..50u64 {
            bank.access(
                10,
                Cycles::new(i * 100),
                &t,
                RowBufferPolicy::OpenPage,
                &model,
                &trr,
            );
        }
        assert!(bank.disturbance_of(11) > 0);
        // Jump past the refresh window.
        let res = bank.access(
            500,
            Cycles::new(t.refresh_window + 10_000),
            &t,
            RowBufferPolicy::OpenPage,
            &model,
            &trr,
        );
        assert!(res.window_rolled);
        assert!(res.outcome.activated());
        assert_eq!(bank.disturbance_of(11), 0);
        assert_eq!(bank.disturbance_of(501), 1);
        // Row 10's first activation of the new window counts from zero.
        let res = bank.access(
            10,
            Cycles::new(t.refresh_window + 20_000),
            &t,
            RowBufferPolicy::OpenPage,
            &model,
            &trr,
        );
        assert!(!res.window_rolled);
        assert!(res.outcome.activated());
        assert_eq!(bank.disturbance_of(11), 1);
    }

    #[test]
    fn row_buffer_hit_does_not_activate() {
        let model = fast_model();
        let mut bank = Bank::new(0, 1024);
        let trr = TrrConfig::disabled();
        let t = timings();
        let first = bank.access(
            7,
            Cycles::new(0),
            &t,
            RowBufferPolicy::OpenPage,
            &model,
            &trr,
        );
        assert!(first.outcome.activated());
        // Repeated access to the same open row: row-buffer hits, no new activations.
        for i in 1..100u64 {
            let res = bank.access(
                7,
                Cycles::new(i * 10),
                &t,
                RowBufferPolicy::OpenPage,
                &model,
                &trr,
            );
            assert_eq!(res.outcome, RowBufferOutcome::Hit);
            assert!(!res.outcome.activated());
        }
        // Only the first access disturbed the neighbours.
        assert_eq!(bank.disturbance_of(6), 1);
        assert_eq!(bank.disturbance_of(8), 1);
    }

    #[test]
    fn trr_suppresses_flips_from_simple_double_sided_hammering() {
        let model = fast_model();
        let (aggr_low, victim) = find_weak_victim(&model, 0);
        let aggr_high = victim + 1;
        let t = timings();

        // Aggressive TRR: fires every 64 activations with a roomy sampler.
        let trr = TrrConfig::enabled(64, 16);
        let mut bank = Bank::new(0, 1024);
        let mut flips = 0;
        let mut now = Cycles::ZERO;
        for _ in 0..1500 {
            for row in [aggr_low, aggr_high] {
                let res = bank.access(row, now, &t, RowBufferPolicy::OpenPage, &model, &trr);
                flips += res.flips.iter().filter(|(r, _, _)| *r == victim).count();
                now += Cycles::new(300);
            }
        }
        assert_eq!(flips, 0, "TRR should protect the victim row");
    }

    #[test]
    fn weak_cell_fires_once_per_window() {
        let model = fast_model();
        let (aggr_low, victim) = find_weak_victim(&model, 0);
        let aggr_high = victim + 1;
        let t = timings();
        let trr = TrrConfig::disabled();
        let mut bank = Bank::new(0, 1024);
        let mut victim_flips = 0;
        let mut now = Cycles::ZERO;
        for _ in 0..1200 {
            for row in [aggr_low, aggr_high] {
                let res = bank.access(row, now, &t, RowBufferPolicy::OpenPage, &model, &trr);
                victim_flips += res.flips.iter().filter(|(r, _, _)| *r == victim).count();
                now += Cycles::new(100);
            }
        }
        let cells_in_victim = model.weak_cells(0, victim).len();
        assert!(
            victim_flips <= cells_in_victim,
            "each cell fires at most once per window"
        );
    }
}
