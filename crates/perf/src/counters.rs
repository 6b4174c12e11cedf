//! Deterministic simulator counters: capture, deltas and canonical naming.

use std::collections::BTreeMap;

use pthammer_cache::CachePmc;
use pthammer_dram::DramStats;
use pthammer_machine::Machine;
use pthammer_mmu::TlbPmc;
use serde::Serialize;

/// One snapshot of every deterministic hardware counter the simulator
/// maintains. Snapshots are cheap (`Copy`) and subtractable, so workloads
/// bracket their hot region with two captures and report the delta.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct MachineCounters {
    /// Cache-hierarchy performance counters.
    pub cache: CachePmc,
    /// TLB performance counters.
    pub tlb: TlbPmc,
    /// DRAM statistics.
    pub dram: DramStats,
}

impl MachineCounters {
    /// Captures the counters of a machine.
    pub fn capture(machine: &Machine) -> Self {
        Self {
            cache: machine.cache_pmc(),
            tlb: machine.tlb_pmc(),
            dram: machine.dram_stats(),
        }
    }

    /// Difference of two snapshots (`self - earlier`), saturating at zero.
    pub fn since(&self, earlier: &MachineCounters) -> MachineCounters {
        MachineCounters {
            cache: self.cache.since(&earlier.cache),
            tlb: self.tlb.since(&earlier.tlb),
            dram: DramStats {
                accesses: self.dram.accesses.saturating_sub(earlier.dram.accesses),
                row_hits: self.dram.row_hits.saturating_sub(earlier.dram.row_hits),
                row_misses: self.dram.row_misses.saturating_sub(earlier.dram.row_misses),
                row_conflicts: self
                    .dram
                    .row_conflicts
                    .saturating_sub(earlier.dram.row_conflicts),
                activations: self
                    .dram
                    .activations
                    .saturating_sub(earlier.dram.activations),
                refresh_windows: self
                    .dram
                    .refresh_windows
                    .saturating_sub(earlier.dram.refresh_windows),
                trr_refreshes: self
                    .dram
                    .trr_refreshes
                    .saturating_sub(earlier.dram.trr_refreshes),
                flips: self.dram.flips.saturating_sub(earlier.dram.flips),
            },
        }
    }

    /// Sums another snapshot into this one (aggregating over campaign cells).
    pub fn absorb(&mut self, other: &MachineCounters) {
        self.cache.l1_accesses += other.cache.l1_accesses;
        self.cache.l1_misses += other.cache.l1_misses;
        self.cache.l2_misses += other.cache.l2_misses;
        self.cache.llc_accesses += other.cache.llc_accesses;
        self.cache.llc_misses += other.cache.llc_misses;
        self.tlb.lookups += other.tlb.lookups;
        self.tlb.l1_misses += other.tlb.l1_misses;
        self.tlb.walks += other.tlb.walks;
        self.dram.accesses += other.dram.accesses;
        self.dram.row_hits += other.dram.row_hits;
        self.dram.row_misses += other.dram.row_misses;
        self.dram.row_conflicts += other.dram.row_conflicts;
        self.dram.activations += other.dram.activations;
        self.dram.refresh_windows += other.dram.refresh_windows;
        self.dram.trr_refreshes += other.dram.trr_refreshes;
        self.dram.flips += other.dram.flips;
    }

    /// Flattens the snapshot into canonical `BENCH_perf.json` counter names.
    ///
    /// Per-level *hit* counters are derived here — and only here — so every
    /// report derives them the same way:
    /// `l1_hits = l1_accesses - l1_misses`, `l2_hits = l1_misses - l2_misses`,
    /// `llc_hits = llc_accesses - llc_misses`.
    pub fn named(&self) -> BTreeMap<String, u64> {
        let mut map = BTreeMap::new();
        let c = &self.cache;
        map.insert("accesses".to_string(), c.l1_accesses);
        map.insert("l1_hits".to_string(), c.l1_accesses - c.l1_misses);
        map.insert("l2_hits".to_string(), c.l1_misses - c.l2_misses);
        map.insert("llc_hits".to_string(), c.llc_accesses - c.llc_misses);
        map.insert("llc_misses".to_string(), c.llc_misses);
        map.insert("dram_accesses".to_string(), self.dram.accesses);
        map.insert("dram_activations".to_string(), self.dram.activations);
        map.insert("dram_row_hits".to_string(), self.dram.row_hits);
        map.insert("dram_row_misses".to_string(), self.dram.row_misses);
        map.insert("dram_row_conflicts".to_string(), self.dram.row_conflicts);
        map.insert(
            "dram_refresh_windows".to_string(),
            self.dram.refresh_windows,
        );
        map.insert("dram_flips".to_string(), self.dram.flips);
        map.insert("trr_refreshes".to_string(), self.dram.trr_refreshes);
        map.insert("tlb_lookups".to_string(), self.tlb.lookups);
        map.insert("tlb_l1_misses".to_string(), self.tlb.l1_misses);
        map.insert("walks".to_string(), self.tlb.walks);
        map
    }
}

/// Hammer-throughput accounting — the single place iteration counts and
/// per-iteration costs are derived from, so `repro_*` binaries, the campaign
/// harness and `perf_report` can never disagree on what an "iteration" is.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct HammerAccounting {
    /// Double-sided hammer iterations actually performed (measured, not
    /// derived from configuration).
    pub iterations: u64,
    /// Total simulated cycles those iterations took.
    pub sim_cycles: u64,
    /// Nominal clock of the simulated machine in Hz.
    pub clock_hz: f64,
}

impl HammerAccounting {
    /// Creates the accounting record.
    pub fn new(iterations: u64, sim_cycles: u64, clock_hz: f64) -> Self {
        Self {
            iterations,
            sim_cycles,
            clock_hz,
        }
    }

    /// Simulated cycles per iteration (0 when no iterations ran).
    pub fn cycles_per_iteration(&self) -> u64 {
        self.sim_cycles.checked_div(self.iterations).unwrap_or(0)
    }

    /// Simulated seconds the iterations took.
    pub fn sim_seconds(&self) -> f64 {
        self.sim_cycles as f64 / self.clock_hz
    }

    /// Simulated iterations per simulated second (the paper's hammer rate).
    pub fn sim_iterations_per_second(&self) -> f64 {
        let s = self.sim_seconds();
        if s == 0.0 {
            0.0
        } else {
            self.iterations as f64 / s
        }
    }

    /// Host-side throughput: simulated iterations per host second, given the
    /// measured wall time. This is the number the ≥2× hot-path target is
    /// stated against.
    pub fn host_iterations_per_second(&self, wall_ns: u64) -> f64 {
        if wall_ns == 0 {
            0.0
        } else {
            self.iterations as f64 * 1e9 / wall_ns as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_counters_derive_hits() {
        let snap = MachineCounters {
            cache: CachePmc {
                l1_accesses: 100,
                l1_misses: 40,
                l2_misses: 25,
                llc_accesses: 25,
                llc_misses: 10,
            },
            tlb: TlbPmc {
                lookups: 60,
                l1_misses: 20,
                walks: 12,
            },
            dram: DramStats {
                accesses: 10,
                row_hits: 4,
                row_misses: 2,
                row_conflicts: 4,
                refresh_windows: 1,
                ..DramStats::default()
            },
        };
        let named = snap.named();
        assert_eq!(named["dram_row_misses"], 2);
        assert_eq!(named["dram_row_conflicts"], 4);
        assert_eq!(named["dram_refresh_windows"], 1);
        assert_eq!(named["l1_hits"], 60);
        assert_eq!(named["l2_hits"], 15);
        assert_eq!(named["llc_hits"], 15);
        assert_eq!(named["walks"], 12);
        assert_eq!(named["dram_accesses"], 10);
    }

    #[test]
    fn since_and_absorb_are_inverse_ish() {
        let mut a = MachineCounters::default();
        let b = MachineCounters {
            cache: CachePmc {
                l1_accesses: 5,
                ..CachePmc::default()
            },
            tlb: TlbPmc {
                walks: 3,
                ..TlbPmc::default()
            },
            dram: DramStats {
                activations: 7,
                ..DramStats::default()
            },
        };
        a.absorb(&b);
        assert_eq!(a.since(&b), MachineCounters::default());
        assert_eq!(a, b);
    }

    #[test]
    fn hammer_accounting_rates() {
        let acc = HammerAccounting::new(1_000, 2_000_000, 2.0e9);
        assert_eq!(acc.cycles_per_iteration(), 2_000);
        assert!((acc.sim_seconds() - 1e-3).abs() < 1e-12);
        assert!((acc.sim_iterations_per_second() - 1e6).abs() < 1e-6);
        assert!((acc.host_iterations_per_second(1_000_000_000) - 1_000.0).abs() < 1e-9);
        let empty = HammerAccounting::new(0, 0, 2.0e9);
        assert_eq!(empty.cycles_per_iteration(), 0);
        assert_eq!(empty.sim_iterations_per_second(), 0.0);
        assert_eq!(empty.host_iterations_per_second(0), 0.0);
    }
}
