//! Hammer-round footprints: the part of the machine a repeating access
//! stream can reach, and the limits a replay of that stream's DRAM
//! accesses must stop before.
//!
//! A [`Footprint`] is derived once from a fixed set of virtual addresses
//! (a compiled hammer trace's). It lists every L1/L2/LLC set, TLB set and
//! paging-structure cache the addresses and their page-walk loads map to,
//! the page-table entries those walks read, and the DRAM banks and rows
//! all of those lines sit in. [`Machine::read_footprint`] reads that state
//! as [`Lanes`](pthammer_types::Lanes), and [`Machine::write_footprint`]
//! writes such a snapshot back, grown by whole periods of a measured
//! per-period delta.
//!
//! A fast round replays only a recorded round's DRAM accesses
//! ([`DramRecord`]) through the unchanged bank model. A
//! [`FastRoundGuard`] tells when that is exact: the round must end before
//! any of its banks rolls into the next refresh window, and no weak cell in
//! a page-table entry the walks read may reach its flip threshold.

use pthammer_types::PhysAddr;

use pthammer_cache::CacheFootprint;
use pthammer_dram::{DramModule, RowBufferOutcome};
use pthammer_mmu::TlbFootprint;

use crate::machine::Machine;

/// One DRAM access of a recorded round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramRecord {
    /// The accessed physical address.
    pub addr: PhysAddr,
    /// Cycles from the round's start to the access.
    pub offset: u64,
    /// Row-buffer outcome of the access.
    pub outcome: RowBufferOutcome,
}

/// The state a repeating access stream over a fixed set of virtual
/// addresses can reach. Built by [`Machine::footprint`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footprint {
    pub(crate) caches: CacheFootprint,
    pub(crate) tlbs: TlbFootprint,
    /// Page-table entries the addresses' walks read, with their value when
    /// the footprint was derived.
    pub(crate) walk_entries: Vec<(PhysAddr, u64)>,
    /// Bank units of every line in the footprint; their open rows are lanes.
    pub(crate) banks: Vec<u32>,
    /// `(bank unit, row, column)` of every walk entry: its eight bytes sit
    /// in that row from that column on (the column is the address's low
    /// bits), and are the DRAM cells whose contents the stream reads.
    pub(crate) read_entries: Vec<(u32, u32, u32)>,
    /// False when an address did not translate to installed DRAM, so its
    /// walk, and the footprint, are not fully known.
    pub(crate) complete: bool,
}

impl Footprint {
    /// True when every address translated at derivation time and every
    /// page-table entry the walks read still holds the value it was derived
    /// from, so the listed sets and rows are still the ones the stream
    /// reaches.
    pub fn is_current(&self, machine: &Machine) -> bool {
        self.complete
            && self
                .walk_entries
                .iter()
                .all(|&(entry, value)| machine.phys_read_u64(entry) == value)
    }
}

/// The limits fast rounds replaying recorded rounds must stay within.
/// Built by [`Machine::fast_round_guard`] when a run of fast rounds starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastRoundGuard {
    /// The earliest refresh-window end among the banks the rounds access.
    deadline: u64,
    /// Rows the rounds' activations disturb that hold a byte the rounds
    /// read with a weak cell left to flip.
    watch: Vec<RowWatch>,
}

/// A row holding bytes the rounds read, which the rounds disturb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RowWatch {
    unit: u32,
    row: u32,
    /// Activations of the row's neighbours over all the rounds: at least
    /// the most its disturbance can grow in one of them.
    adjacent_activations: u32,
    /// The disturbance at which a byte the rounds read flips next.
    threshold: u32,
}

impl FastRoundGuard {
    pub(crate) fn new<'a>(
        dram: &DramModule,
        footprint: &Footprint,
        records: impl IntoIterator<Item = &'a DramRecord>,
    ) -> Self {
        let mut deadline = u64::MAX;
        let mut activated = Vec::new();
        for record in records {
            let location = dram.locate(record.addr);
            let unit = dram.bank_unit(&location);
            deadline = deadline.min(dram.window_end(unit).as_u64());
            if record.outcome.activated() {
                activated.push((unit, location.row));
            }
        }
        let mut watch = Vec::new();
        for read in footprint
            .read_entries
            .chunk_by(|a, b| (a.0, a.1) == (b.0, b.1))
        {
            let (unit, row, _) = read[0];
            let adjacent_activations = activated
                .iter()
                .filter(|&&(u, r)| u == unit && r.abs_diff(row) == 1)
                .count() as u32;
            if adjacent_activations == 0 {
                continue;
            }
            let read_cell = |col: u32| read.iter().any(|&(_, _, c)| (c..c + 8).contains(&col));
            if let Some(threshold) = dram.next_flip_threshold(unit, row, read_cell) {
                watch.push(RowWatch {
                    unit,
                    row,
                    adjacent_activations,
                    threshold,
                });
            }
        }
        Self { deadline, watch }
    }

    /// True when a fast round whose last DRAM access comes at cycle
    /// `last_access` is exact: that access comes before every accessed
    /// bank's refresh-window end, and no byte the round reads can flip
    /// during it.
    pub fn admits(&self, dram: &DramModule, last_access: u64) -> bool {
        last_access < self.deadline
            && self.watch.iter().all(|w| {
                dram.banks()[w.unit as usize]
                    .disturbance_of(w.row)
                    .saturating_add(w.adjacent_activations)
                    < w.threshold
            })
    }
}
