//! Per-bank row-buffer state and close policies.

use serde::Serialize;

use pthammer_types::Cycles;

/// Outcome of an access with respect to the bank's row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum RowBufferOutcome {
    /// The requested row was already open.
    Hit,
    /// No row was open; the requested row had to be activated.
    Miss,
    /// A different row was open; it had to be precharged first (row-buffer
    /// conflict). This is the slow case the attack's same-bank detection
    /// measures (Section IV-D of the paper).
    Conflict,
}

impl RowBufferOutcome {
    /// True when the access required activating the row (miss or conflict).
    pub const fn activated(self) -> bool {
        !matches!(self, RowBufferOutcome::Hit)
    }
}

/// Row-buffer management policy of the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Default)]
pub enum RowBufferPolicy {
    /// Keep the row open until a conflicting access closes it (open-page).
    #[default]
    OpenPage,
    /// Close the row if the bank has been idle for the given number of
    /// cycles. This models the "sophisticated" preemptive-close behaviour
    /// that one-location hammering (Gruss et al.) exploits.
    TimerClose {
        /// Idle cycles after which the open row is preemptively closed.
        idle_close_cycles: u64,
    },
}

/// Row-buffer state of a single bank.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct RowBuffer {
    open_row: Option<u32>,
    last_access: Cycles,
}

impl RowBuffer {
    /// Creates an empty (closed) row buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The currently open row, if any.
    pub fn open_row(&self) -> Option<u32> {
        self.open_row
    }

    /// Records an access to `row` at time `now` and returns the row-buffer outcome.
    pub fn access(&mut self, row: u32, now: Cycles, policy: RowBufferPolicy) -> RowBufferOutcome {
        if let RowBufferPolicy::TimerClose { idle_close_cycles } = policy {
            if self.open_row.is_some()
                && now.saturating_sub(self.last_access).as_u64() > idle_close_cycles
            {
                self.open_row = None;
            }
        }
        let outcome = match self.open_row {
            Some(open) if open == row => RowBufferOutcome::Hit,
            Some(_) => RowBufferOutcome::Conflict,
            None => RowBufferOutcome::Miss,
        };
        self.open_row = Some(row);
        self.last_access = now;
        outcome
    }

    /// Forces the row buffer closed (e.g. on refresh).
    pub fn close(&mut self) {
        self.open_row = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_conflict_sequence() {
        let mut rb = RowBuffer::new();
        let p = RowBufferPolicy::OpenPage;
        assert_eq!(rb.access(5, Cycles::new(0), p), RowBufferOutcome::Miss);
        assert_eq!(rb.access(5, Cycles::new(10), p), RowBufferOutcome::Hit);
        assert_eq!(rb.access(9, Cycles::new(20), p), RowBufferOutcome::Conflict);
        assert_eq!(rb.open_row(), Some(9));
    }

    #[test]
    fn close_resets_state() {
        let mut rb = RowBuffer::new();
        rb.access(1, Cycles::new(0), RowBufferPolicy::OpenPage);
        rb.close();
        assert_eq!(rb.open_row(), None);
        assert_eq!(
            rb.access(1, Cycles::new(5), RowBufferPolicy::OpenPage),
            RowBufferOutcome::Miss
        );
    }

    #[test]
    fn timer_close_policy_preemptively_closes() {
        let mut rb = RowBuffer::new();
        let p = RowBufferPolicy::TimerClose {
            idle_close_cycles: 100,
        };
        assert_eq!(rb.access(3, Cycles::new(0), p), RowBufferOutcome::Miss);
        // Within the idle window: still open.
        assert_eq!(rb.access(3, Cycles::new(50), p), RowBufferOutcome::Hit);
        // After a long idle period the controller closed the row: a re-access
        // is a miss (fresh activation), which is what one-location hammering
        // relies on.
        assert_eq!(rb.access(3, Cycles::new(500), p), RowBufferOutcome::Miss);
    }

    #[test]
    fn activated_predicate() {
        assert!(!RowBufferOutcome::Hit.activated());
        assert!(RowBufferOutcome::Miss.activated());
        assert!(RowBufferOutcome::Conflict.activated());
    }
}
