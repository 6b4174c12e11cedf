//! Per-attempt compiled hammer traces — the one runtime hammer executor.
//!
//! A strategy describes one hammer iteration as a [`RoundOp`] schedule.
//! Nothing that schedule resolves against can change while a pair stays
//! armed — the eviction sets and aggressor addresses are fixed for the whole
//! attempt — so the schedule is compiled **once per attempt** into a
//! [`CompiledTrace`]: a flat, pre-translated address pool plus a dense step
//! list that replays through the lean batch paths
//! ([`System::access_batch_passes`] / [`System::touch`]) with no per-round
//! matching, re-lookup, or allocation. [`CompiledTrace::hammer`] is the one
//! round loop every caller shares: the hammer phase (including its Figure 6
//! samples), the figure and ANVIL scenarios and the microbenchmarks.
//!
//! # Compile / invalidate lifecycle
//!
//! A trace is compiled from an [`ArmedPair`] and its strategy's
//! [`RoundOp`] schedule right after pair selection. The only simulated state
//! a compiled trace can go stale against is the kernel's page-table
//! population: a demand fault handled mid-attempt allocates page tables and
//! changes which physical lines back the sprayed mappings. The trace
//! therefore records the kernel's `faults_handled` counter at compile time;
//! [`CompiledTrace::is_stale`] is a single integer compare per round, and
//! the round loop recompiles only when it trips. Compilation is pure (it
//! reads the armed state, never the machine), so invalidation cannot perturb
//! the simulation.
//!
//! # Reference oracle
//!
//! Test builds keep a direct `RoundOp` interpreter (`ArmedPair::hammer_round`,
//! below) that re-resolves every op each round through the eviction-set
//! traversal helpers. A proptest pins replay to it round for round and
//! counter for counter, across every strategy's op vocabulary rearranged
//! into random schedules.

use pthammer_kernel::{Pid, System};
use pthammer_types::VirtAddr;

use crate::error::AttackError;
use crate::eviction::llc::LLC_EVICTION_PASSES;
use crate::hammer::implicit::HammerStats;
use crate::hammer::strategy::{ArmedPair, RoundOp, RoundOutcome, Target};

/// Which pair member an implicit touch reports its DRAM outcome as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TouchKind {
    Low,
    High,
    Aggressor,
}

/// One pre-resolved replay step. Eviction runs index into the trace's flat
/// address pool so replay streams contiguous memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceStep {
    /// A pipelined batch over `addrs[start..start + len]`, `passes` times —
    /// one step per eviction op, preserving the op-by-op batch-call
    /// boundaries (and therefore the fault-handling order).
    Batch { start: u32, len: u32, passes: u32 },
    /// An implicit (page-walk) touch of a pre-resolved target address.
    Touch { addr: VirtAddr, kind: TouchKind },
    /// A plain data access (explicit hammering).
    Access { addr: VirtAddr },
    /// A `clflush` of the target's line (explicit hammering).
    Clflush { addr: VirtAddr },
}

/// A strategy's per-round schedule with every target resolved to flat,
/// pre-translated addresses. Built once per attempt by
/// [`CompiledTrace::compile`] and driven by [`CompiledTrace::hammer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledTrace {
    /// Flat pool of eviction-run addresses, in op order.
    addrs: Vec<VirtAddr>,
    /// Dense replay program over `addrs`.
    steps: Vec<TraceStep>,
    /// Kernel `faults_handled` at compile time — the invalidation signal.
    faults_handled_at_compile: u64,
}

impl CompiledTrace {
    /// Compiles `ops` against `armed`. Pure with respect to the simulation:
    /// only the armed state and the kernel's fault counter are read.
    ///
    /// # Errors
    ///
    /// Fails when an op addresses a target the strategy never armed.
    pub fn compile(armed: &ArmedPair, ops: &[RoundOp], sys: &System) -> Result<Self, AttackError> {
        let mut addrs = Vec::new();
        let mut steps = Vec::with_capacity(ops.len());
        let run = |addrs: &mut Vec<VirtAddr>, lines: &[VirtAddr], passes: usize| {
            let start = addrs.len() as u32;
            addrs.extend_from_slice(lines);
            TraceStep::Batch {
                start,
                len: lines.len() as u32,
                passes: passes as u32,
            }
        };
        for op in ops {
            steps.push(match op {
                RoundOp::EvictTlb(t) => {
                    let (tlb, _) = armed.sets_for(*t)?;
                    run(&mut addrs, tlb.addresses(), 1)
                }
                RoundOp::EvictLlc(t) => {
                    let (_, llc) = armed.sets_for(*t)?;
                    run(&mut addrs, &llc.lines, LLC_EVICTION_PASSES)
                }
                RoundOp::TouchImplicit(t) => TraceStep::Touch {
                    addr: armed.addr(*t)?,
                    kind: match t {
                        Target::Low => TouchKind::Low,
                        Target::High => TouchKind::High,
                        Target::Aggressor(_) => TouchKind::Aggressor,
                    },
                },
                RoundOp::AccessData(t) => TraceStep::Access {
                    addr: armed.addr(*t)?,
                },
                RoundOp::Clflush(t) => TraceStep::Clflush {
                    addr: armed.addr(*t)?,
                },
            });
        }
        Ok(Self {
            addrs,
            steps,
            faults_handled_at_compile: sys.stats().faults_handled,
        })
    }

    /// True when the kernel's page-table state changed since compile time
    /// (a demand fault was handled) and the trace should be recompiled. One
    /// integer compare — cheap enough for a per-round check.
    pub fn is_stale(&self, sys: &System) -> bool {
        sys.stats().faults_handled != self.faults_handled_at_compile
    }

    /// Replay steps per round.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when the trace replays no operations.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Executes one hammer iteration by replaying the dense trace.
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable faults from the underlying accesses.
    pub fn replay(&self, sys: &mut System, pid: Pid) -> Result<RoundOutcome, AttackError> {
        let start = sys.rdtsc();
        let mut low_dram = false;
        let mut high_dram = false;
        let mut aggressor_dram_hits = 0u64;
        for step in &self.steps {
            match step {
                TraceStep::Batch { start, len, passes } => {
                    let run = &self.addrs[*start as usize..(*start + *len) as usize];
                    sys.access_batch_passes(pid, run, *passes as usize)?;
                }
                TraceStep::Touch { addr, kind } => {
                    let acc = sys.touch(pid, *addr)?;
                    match kind {
                        TouchKind::Low => low_dram = acc.l1pte_from_dram,
                        TouchKind::High => high_dram = acc.l1pte_from_dram,
                        TouchKind::Aggressor => {
                            aggressor_dram_hits += u64::from(acc.l1pte_from_dram);
                        }
                    }
                }
                TraceStep::Access { addr } => {
                    sys.access(pid, *addr)?;
                }
                TraceStep::Clflush { addr } => {
                    sys.clflush(pid, *addr)?;
                }
            }
        }
        Ok(RoundOutcome {
            cycles: sys.rdtsc() - start,
            low_dram,
            high_dram,
            aggressor_dram_hits,
        })
    }

    /// Hammers `rounds` iterations: before each one, recompiles `ops`
    /// against `armed` if the trace went stale, then replays it and folds
    /// the outcome into the returned [`HammerStats`]. `on_round` sees every
    /// iteration's outcome (the Figure 6 cycle samples).
    ///
    /// `armed` and `ops` must be what the trace was compiled from.
    ///
    /// # Errors
    ///
    /// Propagates recompilation and replay errors.
    pub fn hammer(
        &mut self,
        armed: &ArmedPair,
        ops: &[RoundOp],
        sys: &mut System,
        pid: Pid,
        rounds: u64,
        mut on_round: impl FnMut(RoundOutcome),
    ) -> Result<HammerStats, AttackError> {
        let mut stats = HammerStats {
            min_round_cycles: u64::MAX,
            ..HammerStats::default()
        };
        for _ in 0..rounds {
            if self.is_stale(sys) {
                *self = Self::compile(armed, ops, sys)?;
            }
            let round = self.replay(sys, pid)?;
            stats.rounds += 1;
            stats.total_cycles += round.cycles;
            stats.min_round_cycles = stats.min_round_cycles.min(round.cycles);
            stats.max_round_cycles = stats.max_round_cycles.max(round.cycles);
            stats.low_dram_hits += u64::from(round.low_dram);
            stats.high_dram_hits += u64::from(round.high_dram);
            stats.aggressor_dram_hits += round.aggressor_dram_hits;
            on_round(round);
        }
        if stats.rounds == 0 {
            stats.min_round_cycles = 0;
        }
        Ok(stats)
    }
}

#[cfg(test)]
impl ArmedPair {
    /// The reference `RoundOp` interpreter: runs `ops` in order, resolving
    /// every op's target and eviction set afresh through the eviction-set
    /// traversal helpers, and reports the iteration's cycle cost plus which
    /// implicit loads reached DRAM. [`CompiledTrace::replay`] must match it
    /// exactly.
    pub(crate) fn hammer_round(
        &self,
        sys: &mut System,
        pid: Pid,
        ops: &[RoundOp],
    ) -> Result<RoundOutcome, AttackError> {
        let start = sys.rdtsc();
        let mut low_dram = false;
        let mut high_dram = false;
        let mut aggressor_dram_hits = 0u64;
        for op in ops {
            match op {
                RoundOp::EvictTlb(t) => {
                    let (tlb, _) = self.sets_for(*t)?;
                    tlb.evict(sys, pid)?;
                }
                RoundOp::EvictLlc(t) => {
                    let (_, llc) = self.sets_for(*t)?;
                    llc.evict(sys, pid)?;
                }
                RoundOp::TouchImplicit(t) => {
                    let acc = sys.touch(pid, self.addr(*t)?)?;
                    match t {
                        Target::Low => low_dram = acc.l1pte_from_dram,
                        Target::High => high_dram = acc.l1pte_from_dram,
                        Target::Aggressor(_) => {
                            aggressor_dram_hits += u64::from(acc.l1pte_from_dram);
                        }
                    }
                }
                RoundOp::AccessData(t) => {
                    sys.access(pid, self.addr(*t)?)?;
                }
                RoundOp::Clflush(t) => {
                    sys.clflush(pid, self.addr(*t)?)?;
                }
            }
        }
        Ok(RoundOutcome {
            cycles: sys.rdtsc() - start,
            low_dram,
            high_dram,
            aggressor_dram_hits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AttackConfig;
    use crate::hammer::strategy::tests::{armed_for, tiny_config, tiny_system};
    use crate::hammer::strategy::HammerMode;
    use proptest::prelude::*;
    use pthammer_dram::FlipModelProfile;
    use pthammer_kernel::{DefaultPolicy, KernelConfig};
    use pthammer_machine::MachineConfig;

    /// Compiles `ops` for `armed` and hammers `rounds` iterations through
    /// the shared round loop, collecting every iteration's cycle cost.
    fn hammer(
        armed: &ArmedPair,
        ops: &[RoundOp],
        sys: &mut System,
        pid: Pid,
        rounds: u64,
    ) -> (HammerStats, Vec<u64>) {
        let mut trace = CompiledTrace::compile(armed, ops, sys).unwrap();
        let mut samples = Vec::new();
        let stats = trace
            .hammer(armed, ops, sys, pid, rounds, |round| {
                samples.push(round.cycles)
            })
            .unwrap();
        (stats, samples)
    }

    #[test]
    fn compiled_rounds_reach_dram_for_both_l1ptes() {
        let (mut sys, pid) = tiny_system(21);
        // Single-sided arming takes the first candidate pair unverified.
        let (strategy, armed) = armed_for(
            HammerMode::ImplicitSingleSided,
            &mut sys,
            pid,
            &tiny_config(3),
        );
        let (stats, samples) = hammer(&armed, strategy.round_ops(), &mut sys, pid, 40);
        assert_eq!(stats.rounds, 40);
        assert_eq!(samples.len(), 40);
        assert_eq!(stats.total_cycles, samples.iter().sum::<u64>());
        assert!(
            stats.low_dram_rate() > 0.8,
            "low L1PTE should usually come from DRAM, rate {}",
            stats.low_dram_rate()
        );
        assert!(
            stats.high_dram_rate() > 0.8,
            "high L1PTE should usually come from DRAM, rate {}",
            stats.high_dram_rate()
        );
        // Iteration cost is bounded: well below the no-flip threshold of
        // Figure 5 (1500-1600 cycles) and above the cost of a pure cache hit.
        let avg = stats.avg_round_cycles();
        assert!(avg > 200.0, "avg {avg}");
        assert!(avg < 3_500.0, "avg {avg}");
        assert!(stats.min_round_cycles <= stats.max_round_cycles);
    }

    #[test]
    fn round_cycles_have_low_variance_after_warmup() {
        let (mut sys, pid) = tiny_system(21);
        let (strategy, armed) = armed_for(
            HammerMode::ImplicitSingleSided,
            &mut sys,
            pid,
            &tiny_config(5),
        );
        // Warm up, then sample (mirrors the 50-round measurement of Fig. 6).
        hammer(&armed, strategy.round_ops(), &mut sys, pid, 10);
        let (_, samples) = hammer(&armed, strategy.round_ops(), &mut sys, pid, 50);
        assert_eq!(samples.len(), 50);
        let min = *samples.iter().min().unwrap();
        let max = *samples.iter().max().unwrap();
        assert!(
            max < 4 * min,
            "cycle samples too spread: min {min}, max {max}"
        );
    }

    /// Boots a TestSmall system, prepares the attack and arms the first
    /// armable candidate pair for `mode`. Fully deterministic in `(mode,
    /// seed)`, so calling it twice yields two systems in bit-identical
    /// states.
    fn armed_system(mode: HammerMode, seed: u64) -> (System, Pid, ArmedPair) {
        let mut sys = System::new(
            MachineConfig::test_small(FlipModelProfile::ci(), seed),
            KernelConfig::default_config(),
            Box::new(DefaultPolicy::new()),
        );
        let pid = sys.spawn_process(1000).expect("spawn");
        let config = AttackConfig {
            spray_bytes: 512 << 20,
            llc_profile_trials: 6,
            ..AttackConfig::quick_test(seed, false)
        };
        let (_, armed) = armed_for(mode, &mut sys, pid, &config);
        (sys, pid, armed)
    }

    /// Full machine-counter snapshot used for the final equivalence check.
    fn counters(sys: &System) -> impl PartialEq + std::fmt::Debug {
        (
            sys.machine().cache_pmc(),
            sys.machine().tlb_pmc(),
            sys.machine().dram_stats(),
            sys.rdtsc(),
            sys.stats().faults_handled,
        )
    }

    proptest! {
        // The armed-system setup dominates a case; debug builds (overflow
        // checks on) keep enough cases to cross every strategy while release
        // sweeps more seeds.
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 3 } else { 10 }
        ))]

        // Replaying a compiled trace must be call-for-call identical to the
        // interpreter on a twin system (booted and armed identically; the
        // whole stack is deterministic in the seed): same per-round outcomes
        // (cycles, DRAM-served flags) and the same final cache/TLB/DRAM
        // counters, for every strategy's op vocabulary rearranged into
        // randomized schedules.
        #[test]
        fn compiled_replay_matches_the_interpreter(
            mode in prop::sample::select(HammerMode::all()),
            seed in 0u64..6,
            schedules in prop::collection::vec(
                prop::collection::vec(any::<usize>(), 1..24),
                1..4,
            ),
            rounds in 1u64..4,
        ) {
            let (mut interpreted, pid_i, armed_i) = armed_system(mode, seed);
            let (mut compiled, pid_c, armed_c) = armed_system(mode, seed);
            prop_assert_eq!(pid_i, pid_c);
            prop_assert_eq!(counters(&interpreted), counters(&compiled));

            let strategy = mode.strategy();
            let vocabulary = strategy.round_ops();
            // The strategy's own schedule first, then randomized
            // rearrangements (with repetition) of its op vocabulary — every
            // op stays valid for the armed state while order and intensity
            // vary freely.
            let mut runs: Vec<Vec<RoundOp>> = vec![vocabulary.to_vec()];
            runs.extend(schedules.iter().map(|indices| {
                indices.iter().map(|&i| vocabulary[i % vocabulary.len()]).collect()
            }));

            for ops in &runs {
                let trace = CompiledTrace::compile(&armed_c, ops, &compiled)
                    .expect("compile");
                prop_assert_eq!(trace.len(), ops.len());
                prop_assert!(!trace.is_stale(&compiled));
                for _ in 0..rounds {
                    let reference = armed_i
                        .hammer_round(&mut interpreted, pid_i, ops)
                        .expect("interpret");
                    let replayed = trace.replay(&mut compiled, pid_c).expect("replay");
                    prop_assert_eq!(replayed, reference);
                }
                prop_assert_eq!(counters(&interpreted), counters(&compiled));
            }
        }
    }
}
