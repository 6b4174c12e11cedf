//! Explicit-hammer baselines (Section II-B of the paper).
//!
//! These are the conventional rowhammer techniques that require the attacker
//! to *own* memory in the aggressor rows: `clflush`-based double-sided and
//! single-sided hammering, eviction-based hammering, and one-location
//! hammering. They serve three purposes in the reproduction: as the
//! comparison baseline for the implicit hammer, as the calibration tool for
//! Figure 5 (time-to-first-flip as a function of the per-iteration cost,
//! obtained by padding the loop with NOPs), and as the workload that the
//! ANVIL-style detector *can* see.

use rand::rngs::StdRng;
use rand::Rng;
use serde::Serialize;

use pthammer_kernel::{MmapOptions, Pid, System, VmaBacking};
use pthammer_types::{VirtAddr, PAGE_SIZE};

use crate::error::AttackError;

/// The hammering technique used by the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ExplicitMode {
    /// Two aggressor rows around a victim, flushed with `clflush`.
    ClflushDoubleSided,
    /// Several random addresses hammered together (Seaborn-style).
    ClflushSingleSided {
        /// Number of simultaneously hammered addresses.
        addresses: usize,
    },
    /// A single address; relies on the memory controller's preemptive
    /// row-buffer close policy.
    OneLocation,
}

/// Configuration of one explicit-hammer run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ExplicitHammerConfig {
    /// Hammering technique.
    pub mode: ExplicitMode,
    /// Extra cycles of computation added to every iteration (the NOP padding
    /// used for the Figure 5 sweep).
    pub nop_padding_cycles: u64,
    /// Iterations per aggressor set before moving to the next one.
    pub rounds_per_target: u64,
    /// Maximum simulated cycles to spend before giving up.
    pub max_total_cycles: u64,
    /// Seed for aggressor selection.
    pub seed: u64,
}

/// Result of hammering until the first flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct FirstFlip {
    /// Simulated cycles from the start of the run until the flip was found.
    pub cycles_until_flip: u64,
    /// Virtual address whose content changed.
    pub vaddr: VirtAddr,
    /// Value read after the flip (the buffer was filled with a known pattern).
    pub observed: u64,
}

/// An explicit-hammer workspace: a large buffer owned by the attacker, filled
/// with a known pattern so flips are visible by scanning.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ExplicitHammer {
    buffer: VirtAddr,
    buffer_len: u64,
    pattern: u64,
    row_span: u64,
}

impl ExplicitHammer {
    /// Allocates and populates the hammer buffer. The all-ones pattern makes
    /// true-cell (1→0) flips visible; callers interested in anti-cell flips
    /// can choose a different pattern.
    pub fn setup(
        sys: &mut System,
        pid: Pid,
        buffer_len: u64,
        pattern: u64,
    ) -> Result<Self, AttackError> {
        let buffer = sys.mmap(
            pid,
            buffer_len,
            MmapOptions {
                populate: true,
                backing: VmaBacking::Anonymous {
                    fill_pattern: pattern,
                },
                ..MmapOptions::default()
            },
        )?;
        let row_span = sys.machine().config().dram.geometry.row_span_bytes();
        Ok(Self {
            buffer,
            buffer_len,
            pattern,
            row_span,
        })
    }

    /// The buffer base address.
    pub fn buffer(&self) -> VirtAddr {
        self.buffer
    }

    /// The fill pattern.
    pub fn pattern(&self) -> u64 {
        self.pattern
    }

    /// Picks the aggressor addresses for one hammering target according to
    /// the mode. For double-sided, the two aggressors are one row span apart
    /// on each side of a victim row inside the buffer.
    fn pick_aggressors(&self, mode: ExplicitMode, rng: &mut StdRng) -> Vec<VirtAddr> {
        let rows_in_buffer = self.buffer_len / self.row_span;
        match mode {
            ExplicitMode::ClflushDoubleSided => {
                let victim_row = rng.gen_range(1..rows_in_buffer.saturating_sub(1).max(2));
                let offset = rng.gen_range(0..self.row_span / PAGE_SIZE) * PAGE_SIZE;
                vec![
                    self.buffer + (victim_row - 1) * self.row_span + offset,
                    self.buffer + (victim_row + 1) * self.row_span + offset,
                ]
            }
            ExplicitMode::ClflushSingleSided { addresses } => (0..addresses)
                .map(|_| {
                    let row = rng.gen_range(0..rows_in_buffer);
                    let offset = rng.gen_range(0..self.row_span / 64) * 64;
                    self.buffer + row * self.row_span + offset
                })
                .collect(),
            ExplicitMode::OneLocation => {
                let row = rng.gen_range(0..rows_in_buffer);
                vec![self.buffer + row * self.row_span]
            }
        }
    }

    /// Performs one hammering iteration over the aggressor set: access each
    /// address, flush it with `clflush`, then burn the configured NOP padding.
    pub fn hammer_iteration(
        &self,
        sys: &mut System,
        pid: Pid,
        aggressors: &[VirtAddr],
        nop_padding_cycles: u64,
    ) -> Result<u64, AttackError> {
        let start = sys.rdtsc();
        for &addr in aggressors {
            sys.access(pid, addr)?;
        }
        for &addr in aggressors {
            sys.clflush(pid, addr)?;
        }
        if nop_padding_cycles > 0 {
            sys.advance_cycles(nop_padding_cycles);
        }
        Ok(sys.rdtsc() - start)
    }

    /// Scans the buffer (one read per cache line) for deviations from the
    /// fill pattern.
    pub fn scan_for_flips(
        &self,
        sys: &mut System,
        pid: Pid,
    ) -> Result<Vec<(VirtAddr, u64)>, AttackError> {
        let mut flips = Vec::new();
        let mut offset = 0;
        while offset < self.buffer_len {
            let addr = self.buffer + offset;
            let value = sys.read_u64(pid, addr)?.value;
            if value != self.pattern {
                flips.push((addr, value));
            }
            offset += 64;
        }
        Ok(flips)
    }

    /// Hammers aggressor sets (rotating over targets) until the first bit
    /// flip is observed in the buffer or the cycle budget is exhausted —
    /// the measurement behind Figure 5.
    pub fn run_until_first_flip(
        &self,
        sys: &mut System,
        pid: Pid,
        config: &ExplicitHammerConfig,
    ) -> Result<Option<FirstFlip>, AttackError> {
        let mut rng = rand::SeedableRng::seed_from_u64(config.seed);
        let start = sys.rdtsc();
        loop {
            let aggressors = self.pick_aggressors(config.mode, &mut rng);
            for _ in 0..config.rounds_per_target {
                self.hammer_iteration(sys, pid, &aggressors, config.nop_padding_cycles)?;
            }
            // Scan only the rows adjacent to the aggressors for speed.
            for &aggr in &aggressors {
                for neighbour_row in [-1i64, 1] {
                    let aggr_offset = aggr - self.buffer;
                    let row = (aggr_offset / self.row_span) as i64 + neighbour_row;
                    if row < 0 || (row as u64 + 1) * self.row_span > self.buffer_len {
                        continue;
                    }
                    let row_base = self.buffer + row as u64 * self.row_span;
                    let mut offset = 0;
                    while offset < self.row_span {
                        let addr = row_base + offset;
                        let value = sys.read_u64(pid, addr)?.value;
                        if value != self.pattern {
                            return Ok(Some(FirstFlip {
                                cycles_until_flip: sys.rdtsc() - start,
                                vaddr: addr,
                                observed: value,
                            }));
                        }
                        offset += 64;
                    }
                }
            }
            if sys.rdtsc() - start > config.max_total_cycles {
                return Ok(None);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pthammer_dram::{DramTimings, FlipModelProfile};
    use pthammer_machine::MachineConfig;

    fn vulnerable_system() -> (System, Pid) {
        let mut cfg = MachineConfig::test_small(FlipModelProfile::ci(), 33);
        // Short refresh window so window-based thresholds are reachable fast.
        cfg.dram.timings = DramTimings::fast_test();
        let mut sys = System::undefended(cfg);
        let pid = sys.spawn_process(1000).unwrap();
        (sys, pid)
    }

    fn base_config(nop: u64) -> ExplicitHammerConfig {
        ExplicitHammerConfig {
            mode: ExplicitMode::ClflushDoubleSided,
            nop_padding_cycles: nop,
            rounds_per_target: 800,
            max_total_cycles: 40_000_000,
            seed: 9,
        }
    }

    #[test]
    fn double_sided_clflush_hammering_finds_a_flip() {
        let (mut sys, pid) = vulnerable_system();
        let hammer = ExplicitHammer::setup(&mut sys, pid, 8 << 20, u64::MAX).unwrap();
        let result = hammer
            .run_until_first_flip(&mut sys, pid, &base_config(0))
            .unwrap();
        let flip = result.expect("ci-profile DRAM should flip quickly");
        assert_ne!(flip.observed, u64::MAX);
        assert!(flip.cycles_until_flip > 0);
        assert!(!hammer.scan_for_flips(&mut sys, pid).unwrap().is_empty());
    }

    #[test]
    fn heavy_nop_padding_prevents_flips() {
        // Mirrors the Figure 5 cutoff: when each iteration takes too long,
        // too few activations accumulate within a refresh window.
        let (mut sys, pid) = vulnerable_system();
        let hammer = ExplicitHammer::setup(&mut sys, pid, 8 << 20, u64::MAX).unwrap();
        let mut config = base_config(50_000);
        config.max_total_cycles = 30_000_000;
        let result = hammer.run_until_first_flip(&mut sys, pid, &config).unwrap();
        assert!(
            result.is_none(),
            "padded hammering should not flip within the budget"
        );
    }

    #[test]
    fn one_location_hammering_needs_closed_page_policy() {
        // With the default open-page policy, re-accessing a single address
        // hits the row buffer and never re-activates the row, so no flips.
        let (mut sys, pid) = vulnerable_system();
        let hammer = ExplicitHammer::setup(&mut sys, pid, 4 << 20, u64::MAX).unwrap();
        let config = ExplicitHammerConfig {
            mode: ExplicitMode::OneLocation,
            ..base_config(0)
        };
        let mut cfg = config;
        cfg.max_total_cycles = 10_000_000;
        let result = hammer.run_until_first_flip(&mut sys, pid, &cfg).unwrap();
        assert!(result.is_none());
    }

    #[test]
    fn iteration_cost_grows_with_padding() {
        let (mut sys, pid) = vulnerable_system();
        let hammer = ExplicitHammer::setup(&mut sys, pid, 1 << 20, u64::MAX).unwrap();
        let aggressors = vec![hammer.buffer(), hammer.buffer() + hammer.row_span * 2];
        // Warm up translations and caches first so the comparison measures
        // the steady-state iteration cost rather than cold misses.
        hammer
            .hammer_iteration(&mut sys, pid, &aggressors, 0)
            .unwrap();
        let plain = hammer
            .hammer_iteration(&mut sys, pid, &aggressors, 0)
            .unwrap();
        let padded = hammer
            .hammer_iteration(&mut sys, pid, &aggressors, 1_000)
            .unwrap();
        assert!(padded >= plain + 1_000, "plain {plain}, padded {padded}");
    }
}
