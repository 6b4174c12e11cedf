//! Per-bank open-page row-buffer state.

use serde::Serialize;

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

/// Row-buffer state of a single bank under the open-page policy: a row
/// stays open until a conflicting access or a refresh closes it.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct RowBuffer {
    open_row: Option<u32>,
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

    /// Records an access to `row` and returns the row-buffer outcome.
    pub fn access(&mut self, row: u32) -> RowBufferOutcome {
        let outcome = match self.open_row {
            Some(open) if open == row => RowBufferOutcome::Hit,
            Some(_) => RowBufferOutcome::Conflict,
            None => RowBufferOutcome::Miss,
        };
        self.open_row = Some(row);
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
        assert_eq!(rb.access(5), RowBufferOutcome::Miss);
        assert_eq!(rb.access(5), RowBufferOutcome::Hit);
        assert_eq!(rb.access(9), RowBufferOutcome::Conflict);
        assert_eq!(rb.open_row(), Some(9));
    }

    #[test]
    fn close_resets_state() {
        let mut rb = RowBuffer::new();
        rb.access(1);
        rb.close();
        assert_eq!(rb.open_row(), None);
        assert_eq!(rb.access(1), RowBufferOutcome::Miss);
    }

    #[test]
    fn activated_predicate() {
        assert!(!RowBufferOutcome::Hit.activated());
        assert!(RowBufferOutcome::Miss.activated());
        assert!(RowBufferOutcome::Conflict.activated());
    }
}
