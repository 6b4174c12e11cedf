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
//! samples), the figure and ANVIL scenarios and the microbenchmarks. The
//! explicit `clflush` baseline of Figure 5, the ANVIL contrast and the TRR
//! ablation is a strategy schedule like any other: an
//! [`ArmedPair::explicit`] pair hammered with the explicit double-sided ops,
//! padded by a [`RoundOp::Compute`] step.
//!
//! # Lifecycle: compile → step → fast rounds → step
//!
//! A trace is compiled from an [`ArmedPair`] and its strategy's
//! [`RoundOp`] schedule right after pair selection. Compilation is pure (it
//! reads the armed state and the page tables, never the timed machine), so
//! it cannot perturb the simulation. Besides the replay program it derives
//! the trace's [`Footprint`]: every cache, TLB and paging-structure-cache
//! set its addresses and their page walks map to, the page-table entries
//! those walks read, and the DRAM banks and rows of all those lines.
//!
//! The only simulated state a compiled trace can go stale against is the
//! kernel's page-table population: a demand fault handled mid-attempt
//! allocates page tables and changes which physical lines back the sprayed
//! mappings. The trace records the kernel's `faults_handled` counter at
//! compile time; [`CompiledTrace::is_stale`] is a single integer compare
//! per round, and the round loop recompiles only when it trips.
//!
//! [`CompiledTrace::hammer`] *steps* rounds — runs them in full through
//! the TLBs, walker, caches and DRAM — while recording each round's DRAM
//! accesses. Once a round repeats a recent one (same DRAM accesses at the
//! same cycle offsets with the same row-buffer outcomes, same
//! [`RoundOutcome`]), the loop snapshots the footprint as
//! [`Lanes`]: *discrete* lanes (tags, valid bits, SRRIP/NRU state, TLB
//! entries, page-table entries, open rows) and *counter* lanes (ticks, LRU
//! stamps, performance counters). It then fingerprints the footprint after
//! every round until the discrete lanes come back, `p` rounds later.
//! Eviction runs rotate the ways of NRU TLB sets and LRU cache sets, so `p`
//! is often larger than the period of the rounds' outcomes. When the next
//! `p` rounds repeat the first `p`, leave the same discrete lanes and grow
//! every counter lane by the same amount (LRU stamps either stay put or
//! follow their tick, so their order repeats too), the period is locked
//! and every further round runs as a *fast round*: only its recorded DRAM
//! accesses are replayed, through the unchanged bank model, so row
//! buffers, row counters, TRR, flips and `DramStats` evolve exactly as
//! stepped rounds would drive them. Everything above DRAM is written once,
//! when the run of fast rounds ends: the footprint at the phase the run
//! reached, grown by the whole periods it crossed; the clock advances by
//! the rounds' cycles.
//!
//! A fast round is stepped instead when
//!
//! * the round budget is spent,
//! * its last DRAM access would reach a refresh-window boundary of a bank
//!   the period accesses (a rollover closes row buffers),
//! * the trace went stale, or
//! * a weak cell in a page-table entry the walks read could flip during it
//!   (its row's disturbance plus the period's activations of its
//!   neighbours reaches the cell's threshold).
//!
//! The loop never rolls back: it stops before each of these boundaries,
//! steps across it and resumes fast at the next phase. A stepped round that
//! does not repeat its phase's round must bring the footprint to that
//! phase's fingerprint, or detection starts over. A fast round whose
//! replayed DRAM access disagrees with the recorded one is a bug and
//! panics. `on_round` still sees every round's outcome, so [`HammerStats`]
//! and the Figure 6 samples do not depend on which rounds ran fast.
//!
//! # Reference oracles
//!
//! Test builds keep a direct `RoundOp` interpreter (`ArmedPair::hammer_round`,
//! below) that re-resolves every op each round through the eviction-set
//! traversal helpers. A proptest pins replay to it round for round and
//! counter for counter, across every strategy's op vocabulary rearranged
//! into random schedules. Test builds also keep a round loop that never
//! fast-forwards (`CompiledTrace::hammer_stepped`); twin tests pin the
//! fast-forwarding loop to it, state for state.

use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use pthammer_dram::RowBufferPolicy;
use pthammer_kernel::{KernelError, Pid, System};
use pthammer_machine::{DramRecord, Footprint, Machine};
use pthammer_types::{DetHasher, Lanes, LanesDiff, VirtAddr};

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
    /// Computation that touches no memory (padding).
    Compute { cycles: u64 },
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
    /// The state a round of this trace can reach.
    footprint: Footprint,
    /// Steady-state detection, carried from one [`CompiledTrace::hammer`]
    /// call to the next while its period stays locked.
    steady: SteadyState,
}

impl CompiledTrace {
    /// Compiles `ops` against `armed` for process `pid`. Pure with respect
    /// to the simulation: only the armed state, the kernel's fault counter
    /// and (for the footprint) the process's page tables are read.
    ///
    /// # Errors
    ///
    /// Fails when an op addresses a target the strategy never armed, or
    /// `pid` names no process.
    pub fn compile(
        armed: &ArmedPair,
        ops: &[RoundOp],
        sys: &System,
        pid: Pid,
    ) -> Result<Self, AttackError> {
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
                RoundOp::Compute(cycles) => TraceStep::Compute { cycles: *cycles },
            });
        }
        let mut trace = Self {
            addrs,
            steps,
            faults_handled_at_compile: sys.stats().faults_handled,
            footprint: Footprint::default(),
            steady: SteadyState::default(),
        };
        trace.footprint = trace.derive_footprint(sys, pid)?;
        Ok(trace)
    }

    /// The footprint of every address the trace touches, from the current
    /// page tables of `pid`.
    fn derive_footprint(&self, sys: &System, pid: Pid) -> Result<Footprint, AttackError> {
        let cr3 = sys.process(pid).ok_or(KernelError::NoSuchProcess(pid))?.cr3;
        let mut vaddrs = self.addrs.clone();
        vaddrs.extend(self.steps.iter().filter_map(|step| match *step {
            TraceStep::Batch { .. } | TraceStep::Compute { .. } => None,
            TraceStep::Touch { addr, .. }
            | TraceStep::Access { addr }
            | TraceStep::Clflush { addr } => Some(addr),
        }));
        Ok(sys.machine().footprint(cr3, &vaddrs))
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
                TraceStep::Compute { cycles } => sys.advance_cycles(*cycles),
            }
        }
        Ok(RoundOutcome {
            cycles: sys.rdtsc() - start,
            low_dram,
            high_dram,
            aggressor_dram_hits,
        })
    }

    /// Hammers `rounds` iterations and folds their outcomes into the
    /// returned [`HammerStats`]; `on_round` sees every iteration's outcome
    /// (the Figure 6 cycle samples). Before each iteration the trace is
    /// recompiled if it went stale. Iterations are stepped until the loop
    /// reaches a steady state and then run as fast rounds until a stop rule
    /// holds (see the module documentation); the simulated state and every
    /// outcome are the same as stepping every iteration.
    ///
    /// `armed` and `ops` must be what the trace was compiled from.
    ///
    /// # Errors
    ///
    /// Propagates recompilation and replay errors.
    ///
    /// # Panics
    ///
    /// Panics if a fast round's DRAM access disagrees with the recorded
    /// round it replays, or an extrapolated counter overflows `u64`.
    pub fn hammer(
        &mut self,
        armed: &ArmedPair,
        ops: &[RoundOp],
        sys: &mut System,
        pid: Pid,
        rounds: u64,
        mut on_round: impl FnMut(RoundOutcome),
    ) -> Result<HammerStats, AttackError> {
        self.hammer_observed(armed, ops, sys, pid, rounds, |round, _| on_round(round))
    }

    /// [`CompiledTrace::hammer`], also telling `on_round` whether each
    /// round ran fast.
    fn hammer_observed(
        &mut self,
        armed: &ArmedPair,
        ops: &[RoundOp],
        sys: &mut System,
        pid: Pid,
        rounds: u64,
        mut on_round: impl FnMut(RoundOutcome, bool),
    ) -> Result<HammerStats, AttackError> {
        let mut stats = HammerStats {
            min_round_cycles: u64::MAX,
            ..HammerStats::default()
        };
        // Replayed DRAM accesses only reproduce their row-buffer outcomes
        // when those depend on the access order alone, not on idle time.
        let detect = sys.machine().config().dram.row_buffer_policy == RowBufferPolicy::OpenPage;
        let mut steady = std::mem::take(&mut self.steady).resumed(sys.machine(), &self.footprint);
        while stats.rounds < rounds {
            if self.is_stale(sys) {
                *self = Self::compile(armed, ops, sys, pid)?;
                steady = SteadyState::default();
            }
            if let Some(period) = steady.ready() {
                if !self.footprint.is_current(sys.machine()) {
                    // A flip rewrote a page-table entry the walks read: the
                    // footprint may have moved with it.
                    self.footprint = self.derive_footprint(sys, pid)?;
                    steady = SteadyState::default();
                    continue;
                }
                let fast = self.fast_forward(sys, period, rounds - stats.rounds, |round| {
                    stats.record(round);
                    on_round(round, true);
                });
                if fast > 0 {
                    stats.fast_forwarded_rounds += fast;
                    stats.fast_forward_entries += 1;
                    continue;
                }
            }
            let start = sys.rdtsc();
            let windows = sys.machine().dram_stats().refresh_windows;
            sys.machine_mut().record_dram();
            let round = self.replay(sys, pid);
            let dram = sys.machine_mut().take_dram_record(start);
            let round = round?;
            stats.record(round);
            on_round(round, false);
            if detect {
                let rolled = sys.machine().dram_stats().refresh_windows != windows;
                steady.observe(dram, round, rolled, sys.machine(), &self.footprint);
            }
        }
        if stats.rounds == 0 {
            stats.min_round_cycles = 0;
        }
        self.steady = steady;
        Ok(stats)
    }

    /// Runs fast rounds of `period` from its current phase until at most
    /// `budget` rounds are spent or a stop rule holds, handing each round's
    /// outcome to `each`, then writes the footprint at the phase the rounds
    /// reached and advances the clock. Returns how many rounds ran.
    fn fast_forward(
        &self,
        sys: &mut System,
        period: &mut Period,
        budget: u64,
        mut each: impl FnMut(RoundOutcome),
    ) -> u64 {
        let guard = sys.machine().fast_round_guard(
            &self.footprint,
            period.rounds.iter().flat_map(|round| round.dram.iter()),
        );
        let start = sys.rdtsc();
        let (mut clock, mut ran) = (start, 0u64);
        while ran < budget && !self.is_stale(sys) {
            let round = &period.rounds[period.phase];
            let last = round.dram.last().map_or(0, |record| record.offset);
            let last = clock
                .checked_add(last)
                .expect("fast-round clock overflows u64");
            if !guard.admits(sys.machine().dram(), last) {
                break;
            }
            sys.machine_mut().replay_dram_round(&round.dram, clock);
            each(round.outcome);
            clock = clock
                .checked_add(round.outcome.cycles)
                .expect("fast-round clock overflows u64");
            period.advance();
            ran += 1;
        }
        if ran > 0 {
            sys.machine_mut().write_footprint(
                &self.footprint,
                &period.footprint_at_phase(),
                &period.delta,
                period.periods,
            );
            sys.advance_cycles(clock - start);
        }
        ran
    }

    /// The original round loop, stepping every iteration in full: the
    /// oracle the fast-forwarding [`CompiledTrace::hammer`] is pinned to.
    #[cfg(test)]
    pub(crate) fn hammer_stepped(
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
                *self = Self::compile(armed, ops, sys, pid)?;
            }
            let round = self.replay(sys, pid)?;
            stats.record(round);
            on_round(round);
        }
        if stats.rounds == 0 {
            stats.min_round_cycles = 0;
        }
        Ok(stats)
    }
}

/// The longest period, in rounds, the steady-state detector looks for.
/// Rounds repeat their DRAM accesses and outcomes long before the footprint
/// does: an eviction run over an NRU TLB set or an LRU cache set rotates
/// the ways it fills, so the footprint repeats only once every rotation in
/// every set completes (every 24 rounds for the TestSmall double-sided
/// trace, up to a few hundred for many-sided patterns).
const MAX_PERIOD: usize = 512;

/// The most distinct DRAM records the detector shares between rounds.
const MAX_RECORDS: usize = 64;

/// A stepped round, as the detector remembers it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Stepped {
    /// A hash of `dram` and `outcome`, compared before them.
    key: u64,
    /// The round's DRAM accesses, timed from its start; repeats share one
    /// copy.
    dram: Rc<[DramRecord]>,
    outcome: RoundOutcome,
    /// Whether a bank rolled into a new refresh window during the round:
    /// the rollover closed its open row, so the round's row-buffer outcomes
    /// and timing are not the steady ones, while the caches stay on course.
    rolled: bool,
}

impl Stepped {
    /// The round, its DRAM accesses shared with an equal record in
    /// `records` (which keeps every distinct record seen, up to
    /// [`MAX_RECORDS`]).
    fn new(
        dram: Vec<DramRecord>,
        outcome: RoundOutcome,
        rolled: bool,
        records: &mut Vec<Rc<[DramRecord]>>,
    ) -> Self {
        let mut hasher = DetHasher::default();
        outcome.hash(&mut hasher);
        dram.hash(&mut hasher);
        let key = hasher.finish();
        let dram = match records.iter().find(|record| ***record == *dram) {
            Some(record) => Rc::clone(record),
            None => {
                let record: Rc<[DramRecord]> = dram.into();
                if records.len() < MAX_RECORDS {
                    records.push(Rc::clone(&record));
                }
                record
            }
        };
        Self {
            key,
            dram,
            outcome,
            rolled,
        }
    }

    /// True when `self` repeats `other` exactly.
    fn repeats(&self, other: &Stepped) -> bool {
        self.key == other.key && self.outcome == other.outcome && self.dram == other.dram
    }

    /// True when `self` repeats `other` up to the row-buffer outcomes and
    /// timing a refresh rollover in either round changed.
    fn matches(&self, other: &Stepped) -> bool {
        if !self.rolled && !other.rolled {
            return self.repeats(other);
        }
        let flags = |r: &RoundOutcome| (r.low_dram, r.high_dram, r.aggressor_dram_hits);
        flags(&self.outcome) == flags(&other.outcome)
            && self.dram.len() == other.dram.len()
            && self
                .dram
                .iter()
                .zip(other.dram.iter())
                .all(|(a, b)| a.addr == b.addr)
    }
}

/// A candidate period: the rounds stepped since the footprint snapshot
/// `start`, while waiting for the footprint to come back to it and then
/// for a second period to repeat the first.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Candidate {
    start: Lanes,
    start_print: u64,
    /// Rounds of the first period, in order.
    rounds: Vec<Stepped>,
    /// The second period, once the footprint came back to `start`.
    second: Option<Second>,
}

/// The second period of a candidate, verified round by round.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Second {
    /// The footprint where the first period ended: phase 0.
    anchor: Lanes,
    /// The counter growth over the first period.
    delta: Vec<u64>,
    /// The footprint after the last verified round, once one was.
    last: Option<Lanes>,
    /// The footprint's fingerprint at each phase reached so far.
    prints: Vec<u64>,
    /// Diffs turning the footprint at phase `j` into phase `j + 1`.
    steps: Vec<LanesDiff>,
}

/// What a candidate does with a stepped round.
enum Verdict {
    /// Keep stepping.
    Pending,
    /// Two periods repeated: lock this one.
    Locked(Period),
    /// The candidate failed: start over from the footprint now.
    Restart,
}

impl Candidate {
    fn new(start: Lanes) -> Self {
        Self {
            start_print: start.fingerprint(),
            start,
            rounds: Vec::new(),
            second: None,
        }
    }

    /// Takes in the next stepped round; `machine` and `fp` read the
    /// footprint after it (its fingerprint during the first period, all of
    /// it during the second).
    fn step(&mut self, round: Stepped, machine: &Machine, fp: &Footprint) -> Verdict {
        let Some(second) = &mut self.second else {
            self.rounds.push(round);
            if machine.footprint_fingerprint(fp) == self.start_print {
                let lanes = machine.read_footprint(fp);
                if let Some(delta) = lanes.delta_since(&self.start) {
                    self.start = Lanes::new();
                    self.second = Some(Second {
                        anchor: lanes,
                        delta,
                        last: None,
                        prints: vec![self.start_print],
                        steps: Vec::new(),
                    });
                    return Verdict::Pending;
                }
            }
            return if self.rounds.len() < MAX_PERIOD {
                Verdict::Pending
            } else {
                Verdict::Restart
            };
        };
        let phase = second.prints.len() - 1;
        let earlier = &mut self.rounds[phase];
        if !round.matches(earlier) || (round.rolled && earlier.rolled) {
            return Verdict::Restart;
        }
        if earlier.rolled {
            // Keep the steady version of the round for replay.
            *earlier = round;
        }
        let lanes = machine.read_footprint(fp);
        let Some(step) = lanes.diff_from(second.last.as_ref().unwrap_or(&second.anchor)) else {
            return Verdict::Restart;
        };
        second.steps.push(step);
        if phase + 1 < self.rounds.len() {
            second.prints.push(lanes.fingerprint());
            second.last = Some(lanes);
            return Verdict::Pending;
        }
        if lanes.delta_since(&second.anchor).as_ref() != Some(&second.delta) {
            return Verdict::Restart;
        }
        let second = self.second.take().expect("verified second period");
        Verdict::Locked(Period {
            rounds: std::mem::take(&mut self.rounds),
            prints: second.prints,
            delta: second.delta,
            anchor: second.anchor,
            steps: second.steps,
            phase: 0,
            periods: 1,
        })
    }
}

/// A steady period: the rounds every run of fast rounds replays, from the
/// phase the loop stands at.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Period {
    /// The period's rounds, in order.
    rounds: Vec<Stepped>,
    /// The footprint's fingerprint at each phase: `prints[j]` before round
    /// `j`.
    prints: Vec<u64>,
    /// The footprint's counter growth over one period.
    delta: Vec<u64>,
    /// The footprint at phase 0 of the verified period.
    anchor: Lanes,
    /// Diffs turning the verified period's footprint at phase `j` into
    /// phase `j + 1`, so a run of fast rounds may stop at any phase.
    steps: Vec<LanesDiff>,
    /// The round the loop stands before.
    phase: usize,
    /// Whole periods the loop stands past the verified one.
    periods: u64,
}

impl Period {
    /// Moves the loop one round on.
    fn advance(&mut self) {
        self.phase += 1;
        if self.phase == self.rounds.len() {
            self.phase = 0;
            self.periods += 1;
        }
    }

    /// The footprint at the current phase of the verified period.
    fn footprint_at_phase(&self) -> Lanes {
        let mut lanes = self.anchor.clone();
        self.steps[..self.phase]
            .iter()
            .for_each(|step| lanes.apply(step));
        lanes
    }
}

/// Steady-state detection over stepped rounds.
///
/// Rounds are stepped until one repeats a round among the last
/// [`MAX_PERIOD`], the cheap sign that the loop is settling. The detector
/// then snapshots the footprint and keeps stepping, fingerprinting the
/// footprint after each round, until it comes back to the snapshot's
/// discrete lanes after `p` rounds. The next `p` rounds must repeat the
/// first `p`, and leave the same discrete lanes and the same counter growth
/// again: then the period is locked. Rounds that crossed a refresh
/// rollover only need to repeat up to their row-buffer outcomes and timing,
/// and the period keeps the other period's copy. At most three snapshots
/// are held at a time.
///
/// Once locked, the loop runs fast rounds from whichever phase it stands
/// at, and may stop after any of them. A round stepped in between (across a stop rule) that does not
/// repeat its phase's round exactly must bring the footprint to its phase's
/// fingerprint, or detection starts over.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct SteadyState {
    /// Keys of the last [`MAX_PERIOD`] stepped rounds, while no candidate
    /// runs.
    recent: VecDeque<u64>,
    /// The distinct DRAM records of the stepped rounds, which repeats share.
    records: Vec<Rc<[DramRecord]>>,
    candidate: Option<Candidate>,
    locked: Option<Period>,
}

impl SteadyState {
    /// Takes in a stepped round; `machine` and `fp` read the footprint
    /// after it.
    fn observe(
        &mut self,
        dram: Vec<DramRecord>,
        outcome: RoundOutcome,
        rolled: bool,
        machine: &Machine,
        fp: &Footprint,
    ) {
        let round = Stepped::new(dram, outcome, rolled, &mut self.records);
        if let Some(period) = &mut self.locked {
            // A round that repeats its phase's round exactly leaves the
            // footprint where the period does; any other must be checked.
            let repeated = round.repeats(&period.rounds[period.phase]);
            period.advance();
            if !repeated && machine.footprint_fingerprint(fp) != period.prints[period.phase] {
                *self = Self::default();
            }
            return;
        }
        let Some(candidate) = &mut self.candidate else {
            if self.recent.contains(&round.key) {
                self.candidate = Some(Candidate::new(machine.read_footprint(fp)));
                self.recent.clear();
            } else {
                self.recent.push_back(round.key);
                if self.recent.len() > MAX_PERIOD {
                    self.recent.pop_front();
                }
            }
            return;
        };
        match candidate.step(round, machine, fp) {
            Verdict::Pending => {}
            Verdict::Locked(period) => {
                self.locked = Some(period);
                self.candidate = None;
            }
            Verdict::Restart => self.candidate = Some(Candidate::new(machine.read_footprint(fp))),
        }
    }

    /// The locked period.
    fn ready(&mut self) -> Option<&mut Period> {
        self.locked.as_mut()
    }

    /// The detector for a new hammer call on the same trace: only a locked
    /// period carries over, and only if the footprint still stands exactly
    /// where the period left it (the caller may have run anything since).
    fn resumed(self, machine: &Machine, fp: &Footprint) -> Self {
        let Some(period) = self.locked else {
            return Self::default();
        };
        let grown = machine
            .read_footprint(fp)
            .delta_since(&period.footprint_at_phase());
        let stands = grown.is_some_and(|grown| {
            grown
                .iter()
                .zip(&period.delta)
                .all(|(&grown, &delta)| delta.checked_mul(period.periods) == Some(grown))
        });
        Self {
            locked: stands.then_some(period),
            ..Self::default()
        }
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
                RoundOp::Compute(cycles) => sys.advance_cycles(*cycles),
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
    use crate::hammer::strategy::{ExplicitDoubleSided, HammerMode, HammerStrategy};
    use crate::pairs::HammerPair;
    use proptest::prelude::*;
    use pthammer_dram::FlipModelProfile;
    use pthammer_kernel::{DefaultPolicy, KernelConfig, MmapOptions, VmaBacking};
    use pthammer_machine::MachineConfig;
    use pthammer_types::PAGE_SIZE;

    /// Maps a populated `len`-byte buffer of ones for `pid` and arms the
    /// first explicit pair in it whose two pages sit two rows apart in one
    /// DRAM bank, so the row between them is hammered double-sided.
    pub(super) fn explicit_buffer_pair(sys: &mut System, pid: Pid, len: u64) -> ArmedPair {
        let options = MmapOptions {
            populate: true,
            backing: VmaBacking::Anonymous {
                fill_pattern: u64::MAX,
            },
            ..MmapOptions::default()
        };
        let base = sys.mmap(pid, len, options).expect("map");
        let row_span = sys.machine().config().dram.geometry.row_span_bytes();
        let dram = sys.machine().dram();
        let locate = |vaddr| {
            let location = dram.locate(sys.oracle_translate(pid, vaddr).expect("populated"));
            (dram.bank_unit(&location), location.row)
        };
        let pair = (0..(len - 2 * row_span) / PAGE_SIZE)
            .map(|page| base + page * PAGE_SIZE)
            .map(|low| HammerPair {
                low,
                high: low + 2 * row_span,
            })
            .find(|pair| {
                let ((low_bank, low_row), (high_bank, high_row)) =
                    (locate(pair.low), locate(pair.high));
                low_bank == high_bank && low_row + 2 == high_row
            })
            .expect("a same-bank pair two rows apart");
        ArmedPair::explicit(pair)
    }

    /// Compiles `ops` for `armed` and hammers `rounds` iterations through
    /// the shared round loop, collecting every iteration's cycle cost.
    fn hammer(
        armed: &ArmedPair,
        ops: &[RoundOp],
        sys: &mut System,
        pid: Pid,
        rounds: u64,
    ) -> (HammerStats, Vec<u64>) {
        let mut trace = CompiledTrace::compile(armed, ops, sys, pid).unwrap();
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

    /// A `Compute` step costs its cycles on top of a warm explicit round.
    #[test]
    fn iteration_cost_grows_with_padding() {
        let (mut sys, pid) = tiny_system(33);
        let armed = explicit_buffer_pair(&mut sys, pid, 1 << 20);
        let plain = ExplicitDoubleSided.round_ops().to_vec();
        let mut padded = plain.clone();
        padded.push(RoundOp::Compute(1_000));
        // Warm up translations and caches first so the comparison measures
        // the steady-state round rather than cold misses.
        let (_, warm) = hammer(&armed, &plain, &mut sys, pid, 2);
        let (_, padded) = hammer(&armed, &padded, &mut sys, pid, 1);
        assert!(
            padded[0] >= warm[1] + 1_000,
            "plain {}, padded {}",
            warm[1],
            padded[0]
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
            let mut vocabulary = strategy.round_ops().to_vec();
            // The strategy's own schedule first, then randomized
            // rearrangements (with repetition) of its op vocabulary plus a
            // padding step — every op stays valid for the armed state while
            // order and intensity vary freely.
            let mut runs: Vec<Vec<RoundOp>> = vec![vocabulary.clone()];
            vocabulary.push(RoundOp::Compute(700));
            runs.extend(schedules.iter().map(|indices| {
                indices.iter().map(|&i| vocabulary[i % vocabulary.len()]).collect()
            }));

            for ops in &runs {
                let trace = CompiledTrace::compile(&armed_c, ops, &compiled, pid_c)
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

/// Twin tests of the fast-forwarding round loop: every test boots two
/// identical systems, hammers one with [`CompiledTrace::hammer`] and the
/// other with the step-only oracle [`CompiledTrace::hammer_stepped`], and
/// compares every round's outcome and the whole simulated state.
#[cfg(test)]
mod fast_forward_tests {
    use super::*;
    use crate::config::AttackConfig;
    use crate::hammer::strategy::tests::armed_for;
    use crate::hammer::strategy::{ExplicitDoubleSided, HammerMode, HammerStrategy};
    use proptest::prelude::*;
    use pthammer_dram::FlipModelProfile;
    use pthammer_kernel::{DefaultPolicy, KernelConfig, MmapOptions};
    use pthammer_machine::MachineConfig;

    /// The CI-scale machines the twins run on.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Board {
        CiSmall,
        CiSmallTrr,
    }

    impl Board {
        fn config(self, seed: u64) -> MachineConfig {
            match self {
                Board::CiSmall => MachineConfig::ci_small(FlipModelProfile::ci(), seed),
                Board::CiSmallTrr => MachineConfig::ci_small_trr(FlipModelProfile::ci(), seed),
            }
        }
    }

    fn attack_config(seed: u64) -> AttackConfig {
        AttackConfig {
            spray_bytes: 512 << 20,
            llc_profile_trials: 6,
            ..AttackConfig::quick_test(seed, false)
        }
    }

    fn boot(board: Board, seed: u64) -> (System, Pid) {
        let mut sys = System::new(
            board.config(seed),
            KernelConfig::default_config(),
            Box::new(DefaultPolicy::new()),
        );
        let pid = sys.spawn_process(1000).expect("spawn");
        (sys, pid)
    }

    /// One of two identically booted and armed systems.
    struct Twin {
        sys: System,
        pid: Pid,
        ops: Vec<RoundOp>,
        armed: ArmedPair,
        trace: CompiledTrace,
    }

    impl Twin {
        fn new(board: Board, mode: HammerMode, seed: u64) -> Self {
            let (mut sys, pid) = boot(board, seed);
            let (strategy, armed) = armed_for(mode, &mut sys, pid, &attack_config(seed));
            Self::armed(sys, pid, strategy.round_ops().to_vec(), armed)
        }

        fn armed(sys: System, pid: Pid, ops: Vec<RoundOp>, armed: ArmedPair) -> Self {
            let trace = CompiledTrace::compile(&armed, &ops, &sys, pid).expect("compile");
            Self {
                sys,
                pid,
                ops,
                armed,
                trace,
            }
        }

        /// Hammers `rounds` rounds, fast-forwarding or stepping only, and
        /// returns every round's outcome and whether it ran fast.
        #[allow(clippy::type_complexity)]
        fn hammer(
            &mut self,
            rounds: u64,
            fast: bool,
        ) -> Result<(HammerStats, Vec<(RoundOutcome, bool)>), AttackError> {
            let mut outcomes = Vec::new();
            let (armed, ops, sys, pid) = (&self.armed, &self.ops, &mut self.sys, self.pid);
            let stats = if fast {
                self.trace
                    .hammer_observed(armed, ops, sys, pid, rounds, |round, fast| {
                        outcomes.push((round, fast))
                    })
            } else {
                self.trace
                    .hammer_stepped(armed, ops, sys, pid, rounds, |round| {
                        outcomes.push((round, false))
                    })
            }?;
            Ok((stats, outcomes))
        }

        fn dram(&self) -> pthammer_dram::DramStats {
            self.sys.machine().dram_stats()
        }
    }

    /// A pair of twins: `fast` fast-forwards, `stepped` is the oracle.
    struct Twins {
        fast: Twin,
        stepped: Twin,
    }

    impl Twins {
        fn new(board: Board, mode: HammerMode, seed: u64) -> Self {
            let twins = Self {
                fast: Twin::new(board, mode, seed),
                stepped: Twin::new(board, mode, seed),
            };
            twins.assert_same_state();
            twins
        }

        /// Hammers both twins for `rounds` rounds and checks that they
        /// agree on every outcome, the statistics and the whole state.
        /// Returns the fast twin's statistics.
        fn hammer(&mut self, rounds: u64) -> HammerStats {
            self.hammer_observed(rounds).0
        }

        /// [`Twins::hammer`], also returning which rounds ran fast.
        fn hammer_observed(&mut self, rounds: u64) -> (HammerStats, Vec<bool>) {
            let fast = self.fast.hammer(rounds, true);
            let stepped = self.stepped.hammer(rounds, false);
            let without_telemetry = |stats: &HammerStats| HammerStats {
                fast_forwarded_rounds: 0,
                fast_forward_entries: 0,
                ..*stats
            };
            let observed = match (&fast, &stepped) {
                (Ok((fast_stats, fast_rounds)), Ok((stepped_stats, stepped_rounds))) => {
                    let outcomes = |rounds: &[(RoundOutcome, bool)]| {
                        rounds.iter().map(|&(round, _)| round).collect::<Vec<_>>()
                    };
                    assert_eq!(
                        outcomes(fast_rounds),
                        outcomes(stepped_rounds),
                        "round outcomes differ"
                    );
                    assert_eq!(
                        without_telemetry(fast_stats),
                        without_telemetry(stepped_stats)
                    );
                    let ran_fast: Vec<bool> = fast_rounds.iter().map(|&(_, fast)| fast).collect();
                    assert_eq!(
                        ran_fast.iter().filter(|&&fast| fast).count() as u64,
                        fast_stats.fast_forwarded_rounds
                    );
                    (*fast_stats, ran_fast)
                }
                _ => {
                    assert_eq!(fast.as_ref().err(), stepped.as_ref().err());
                    (HammerStats::default(), Vec::new())
                }
            };
            self.assert_same_state();
            observed
        }

        fn assert_same_state(&self) {
            let (a, b) = (self.fast.sys.machine(), self.stepped.sys.machine());
            assert_eq!(a.cache_pmc(), b.cache_pmc());
            assert_eq!(a.tlb_pmc(), b.tlb_pmc());
            assert_eq!(a.dram_stats(), b.dram_stats());
            assert_eq!(a.rdtsc(), b.rdtsc());
            assert_eq!(
                self.fast.sys.stats().faults_handled,
                self.stepped.sys.stats().faults_handled
            );
            assert_eq!(a.applied_flips(), b.applied_flips());
            for (x, y) in a.dram().banks().iter().zip(b.dram().banks()) {
                assert!(
                    x.checkpoint() == y.checkpoint(),
                    "bank {} differs",
                    x.unit_id()
                );
            }
            assert!(a.caches() == b.caches(), "cache sets differ");
            assert!(
                a.mmu() == b.mmu(),
                "TLB or paging-structure cache sets differ"
            );
        }
    }

    /// Rounds that span at least one refresh window of the CI machines for
    /// `mode` (an explicit round is about a tenth of an implicit one).
    fn rounds_spanning_a_window(mode: HammerMode, base: u64) -> u64 {
        if mode == HammerMode::ExplicitDoubleSided {
            8 * base
        } else {
            base
        }
    }

    proptest! {
        // Arming two systems dominates a case; debug builds (overflow
        // checks on) run fewer cases than release.
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 3 } else { 10 }
        ))]

        // Fast-forwarding is invisible: on twin systems, the fast loop and
        // the step-only oracle report the same outcome for every round and
        // leave the same counters, clock, flips, banks and cache, TLB and
        // paging-structure-cache sets, across every mode, both CI machines
        // and round counts that cross refresh-window rollovers.
        #[test]
        fn fast_forwarding_matches_stepping(
            mode in prop::sample::select(HammerMode::all()),
            board in prop::sample::select(vec![Board::CiSmall, Board::CiSmallTrr]),
            seed in 0u64..6,
            base in 1_000u64..1_600,
        ) {
            let mut twins = Twins::new(board, mode, seed);
            let windows = twins.fast.dram().refresh_windows;
            let stats = twins.hammer(rounds_spanning_a_window(mode, base));
            prop_assert!(twins.fast.dram().refresh_windows > windows);
            prop_assert!(stats.fast_forwarded_rounds > 0, "no fast rounds ran: {stats:?}");
        }
    }

    /// Every mode on both CI machines at one seed, so each combination is
    /// covered whatever the proptest draws.
    #[test]
    fn every_mode_fast_forwards_exactly_on_both_machines() {
        for board in [Board::CiSmall, Board::CiSmallTrr] {
            for mode in HammerMode::all() {
                let mut twins = Twins::new(board, mode, 3);
                let stats = twins.hammer(rounds_spanning_a_window(mode, 1_200));
                assert!(
                    stats.fast_forwarded_rounds > 0,
                    "{board:?} {mode:?}: {stats:?}"
                );
            }
        }
    }

    /// The Figure 5 round — an explicit pair on a buffer of ones, padded by
    /// `Compute` — fast-forwards exactly: fast rounds skip the padding with
    /// the rest of the non-DRAM work, across refresh rollovers and the
    /// victim row's flips.
    #[test]
    fn padded_explicit_rounds_fast_forward_exactly() {
        let twin = || {
            let (mut sys, pid) = boot(Board::CiSmall, 7);
            let armed = super::tests::explicit_buffer_pair(&mut sys, pid, 1 << 20);
            let mut ops = ExplicitDoubleSided.round_ops().to_vec();
            ops.push(RoundOp::Compute(1_000));
            Twin::armed(sys, pid, ops, armed)
        };
        let mut twins = Twins {
            fast: twin(),
            stepped: twin(),
        };
        twins.assert_same_state();
        let before = twins.fast.dram();
        let stats = twins.hammer(3_000);
        let after = twins.fast.dram();
        assert!(after.refresh_windows > before.refresh_windows);
        assert!(after.flips > before.flips, "no flip applied");
        assert!(stats.fast_forwarded_rounds > 0, "{stats:?}");
        assert!(stats.min_round_cycles > 1_000, "{stats:?}");
    }

    /// The budget runs out while the loop is fast-forwarding: the fast twin
    /// stops exactly at the budget, mid-run, and the next call on the trace
    /// carries on fast from a state identical to the oracle's — unless the
    /// caller touched the footprint in between.
    #[test]
    fn a_budget_ending_mid_run_stops_exactly() {
        let mut twins = Twins::new(Board::CiSmall, HammerMode::ImplicitDoubleSided, 1);
        let stats = twins.hammer(277);
        assert!(stats.fast_forwarded_rounds > 0);
        for rounds in [1, 10, 95] {
            let stats = twins.hammer(rounds);
            assert_eq!(stats.fast_forwarded_rounds, rounds, "the lock carried over");
        }
        for twin in [&mut twins.fast, &mut twins.stepped] {
            let low = twin.armed.pair.low;
            twin.sys.access(twin.pid, low).expect("touch");
        }
        let stats = twins.hammer(333);
        assert!(stats.fast_forwarded_rounds > 0);
        assert!(
            stats.fast_forwarded_rounds < 333,
            "the touch unlocked the period"
        );
    }

    /// A run long enough to cross several refresh-window boundaries: fast
    /// runs stop before each, the crossing is stepped, and fast rounds
    /// resume after it.
    #[test]
    fn runs_stop_before_refresh_boundaries_and_resume_after() {
        let mut twins = Twins::new(Board::CiSmall, HammerMode::ImplicitDoubleSided, 2);
        let windows = twins.fast.dram().refresh_windows;
        let stats = twins.hammer(3_000);
        assert!(twins.fast.dram().refresh_windows >= windows + 3);
        assert!(stats.fast_forward_entries >= 3, "{stats:?}");
        assert!(2 * stats.fast_forwarded_rounds > stats.rounds, "{stats:?}");
    }

    /// Rounds of the oracle in which `counter` moved, stepping one round at
    /// a time.
    fn rounds_moving(twin: &mut Twin, rounds: u64, counter: impl Fn(&System) -> u64) -> Vec<u64> {
        let mut moved = Vec::new();
        for round in 0..rounds {
            let before = counter(&twin.sys);
            twin.hammer(1, false).expect("hammer");
            if counter(&twin.sys) != before {
                moved.push(round);
            }
        }
        moved
    }

    /// How many of the rounds in `rounds` ran fast.
    fn fast_among(ran_fast: &[bool], rounds: &[u64]) -> usize {
        rounds
            .iter()
            .filter(|&&round| ran_fast[round as usize])
            .count()
    }

    /// On the TRR machine, targeted refreshes fire inside fast rounds.
    #[test]
    fn trr_refreshes_fire_inside_fast_rounds() {
        let (board, mode, seed, rounds) =
            (Board::CiSmallTrr, HammerMode::ImplicitDoubleSided, 4, 1_500);
        let mut twins = Twins::new(board, mode, seed);
        let (_, ran_fast) = twins.hammer_observed(rounds);
        let mut oracle = Twin::new(board, mode, seed);
        let firing = rounds_moving(&mut oracle, rounds, |sys| {
            sys.machine().dram_stats().trr_refreshes
        });
        assert!(!firing.is_empty());
        assert!(
            fast_among(&ran_fast, &firing) > 0,
            "TRR fired only in stepped rounds"
        );
    }

    /// With the `ci` profile, victims flip inside fast rounds, and the
    /// flips are applied in the order stepping applies them (the twins'
    /// `applied_flips` are compared entry for entry).
    #[test]
    fn flips_inside_fast_rounds_apply_in_stepped_order() {
        let (board, mode, seed, rounds) =
            (Board::CiSmall, HammerMode::ImplicitDoubleSided, 5, 2_000);
        let mut twins = Twins::new(board, mode, seed);
        let (_, ran_fast) = twins.hammer_observed(rounds);
        let mut oracle = Twin::new(board, mode, seed);
        let flipping = rounds_moving(&mut oracle, rounds, |sys| {
            sys.machine().applied_flips().len() as u64
        });
        assert!(!flipping.is_empty());
        assert!(
            fast_among(&ran_fast, &flipping) > 0,
            "flips came only in stepped rounds"
        );
    }

    /// A demand fault between two hammer calls makes the trace stale: the
    /// second call recompiles it (and its footprint) before hammering, and
    /// fast-forwards again.
    #[test]
    fn a_demand_fault_makes_the_trace_stale() {
        let mut twins = Twins::new(Board::CiSmallTrr, HammerMode::ImplicitOneLocation, 2);
        twins.hammer(500);
        for twin in [&mut twins.fast, &mut twins.stepped] {
            let region = twin
                .sys
                .mmap(twin.pid, 1 << 21, MmapOptions::default())
                .expect("mmap");
            twin.sys.access(twin.pid, region).expect("demand fault");
            assert!(twin.trace.is_stale(&twin.sys));
        }
        twins.assert_same_state();
        let stats = twins.hammer(500);
        assert!(!twins.fast.trace.is_stale(&twins.fast.sys));
        assert!(stats.fast_forwarded_rounds > 0);
    }

    /// Boots `board`, prepares the attack and arms single-sided a pair
    /// whose Level-1 page tables sit in adjacent rows of one bank (half the
    /// double-sided stride), so each target's row disturbs the other's
    /// every round, choosing the low target so its own Level-1 PTE holds a
    /// weak cell. Returns the armed twin and that PTE's address.
    fn read_entry_at_risk(board: Board, seed: u64) -> Option<(Twin, pthammer_types::PhysAddr)> {
        use crate::hammer::strategy::ImplicitSingleSided;
        use crate::pairs::{conflict_threshold, pair_stride, HammerPair};
        use pthammer_types::{CellOrientation, PhysAddr, HUGE_PAGE_SIZE, PAGE_SIZE};

        let (mut sys, pid) = boot(board, seed);
        let config = attack_config(seed);
        let prepared = crate::pipeline::prepare_attack(&mut sys, pid, &config).expect("prepare");
        let row_span = sys.machine().config().dram.geometry.row_span_bytes();
        let half_stride = pair_stride(row_span) / 2;
        let dram = sys.machine().dram();
        let cell_of = |paddr: PhysAddr| {
            let location = dram.locate(paddr);
            (dram.bank_unit(&location), location.row, location.col)
        };
        let (low, entry) = prepared.spray.chunk_bases().find_map(|chunk| {
            let high = chunk + half_stride + PAGE_SIZE;
            if !prepared.spray.contains(high + HUGE_PAGE_SIZE) {
                return None;
            }
            let table = PhysAddr::new(sys.oracle_l1pte_paddr(pid, chunk + PAGE_SIZE)?.as_u64() - 8);
            let (unit, row, _) = cell_of(table);
            let (high_unit, high_row, _) = cell_of(sys.oracle_l1pte_paddr(pid, high)?);
            if (high_unit, high_row.abs_diff(row)) != (unit, 1) {
                return None;
            }
            let cells = dram.flip_model().weak_cells(unit, row);
            (1..512u64).find_map(|index| {
                let entry = table + index * 8;
                // A weak cell of the entry that can flip its stored bit.
                let weak = (0..8).any(|byte| {
                    let (u, r, col) = cell_of(entry + byte);
                    let value = sys.machine().phys_read_bytes(entry + byte, 1)[0];
                    (u, r) == (unit, row)
                        && cells.iter().any(|cell| {
                            let set = value >> cell.bit & 1 == 1;
                            cell.byte_in_row == col
                                && set == (cell.orientation == CellOrientation::TrueCell)
                        })
                });
                weak.then_some((chunk + index * PAGE_SIZE, entry))
            })
        })?;
        let pair = HammerPair {
            low,
            high: low + half_stride,
        };
        let threshold = conflict_threshold(&sys);
        let armed = ImplicitSingleSided
            .arm(&mut sys, pid, pair, &prepared, &config, threshold)
            .expect("arm")
            .armed
            .expect("single-sided arming accepts every pair");
        Some((
            Twin::armed(sys, pid, ImplicitSingleSided.round_ops().to_vec(), armed),
            entry,
        ))
    }

    /// A weak cell in a page-table entry the walks read reaches its
    /// threshold: the round that can flip it is stepped, never fast, even
    /// though fast rounds ran before it, and the twins agree after the flip
    /// rewrote the walk.
    #[test]
    fn a_possible_flip_in_a_read_entry_forces_stepped_rounds() {
        let (board, seed) = (Board::CiSmall, 11);
        let (mut oracle, entry) = read_entry_at_risk(board, seed).expect("a pair at risk");
        let in_entry = |sys: &System| {
            sys.machine()
                .applied_flips()
                .iter()
                .filter(|flip| (entry..entry + 8).contains(&flip.paddr))
                .count() as u64
        };
        let mut flip_round = None;
        for round in 0..2_000u64 {
            let before = in_entry(&oracle.sys);
            if oracle.hammer(1, false).is_err() {
                break;
            }
            if in_entry(&oracle.sys) != before {
                flip_round = Some(round);
                break;
            }
        }
        let flip_round = flip_round.expect("the read entry flips");
        let (fast, _) = read_entry_at_risk(board, seed).expect("a pair at risk");
        let (stepped, _) = read_entry_at_risk(board, seed).expect("a pair at risk");
        let mut twins = Twins { fast, stepped };
        twins.assert_same_state();
        let (_, ran_fast) = twins.hammer_observed(flip_round + 1);
        assert!(
            !ran_fast[flip_round as usize],
            "the flipping round ran fast"
        );
        assert!(
            ran_fast[..flip_round as usize].iter().any(|&fast| fast),
            "no fast rounds ran before the flip"
        );
        assert_eq!(in_entry(&twins.fast.sys), 1);
    }

    /// A paper-scale attempt — `AttackConfig::paper`'s 120 000 rounds on one
    /// pair of the CI machine — in a build with overflow checks on (the
    /// debug tier): the `u32` row and TRR counters, the fast-forward
    /// extrapolation and the clock survive the horizon, and the DRAM
    /// counters stay consistent with each other.
    #[test]
    fn a_paper_scale_attempt_survives_overflow_checks() {
        let rounds = AttackConfig::paper(9, false).hammer_rounds_per_attempt;
        assert_eq!(rounds, 120_000);
        let mut twin = Twin::new(Board::CiSmall, HammerMode::ImplicitDoubleSided, 9);
        let (clock, dram) = (twin.sys.rdtsc(), twin.dram());
        let (stats, outcomes) = twin.hammer(rounds, true).expect("hammer");
        assert_eq!(stats.rounds, rounds);
        assert_eq!(outcomes.len() as u64, rounds);
        assert_eq!(twin.sys.rdtsc() - clock, stats.total_cycles);
        assert!(
            10 * stats.fast_forwarded_rounds > 9 * stats.rounds,
            "{stats:?}"
        );
        let now = twin.dram();
        assert_eq!(
            now.accesses - dram.accesses,
            (now.row_hits + now.row_misses + now.row_conflicts)
                - (dram.row_hits + dram.row_misses + dram.row_conflicts)
        );
        assert_eq!(
            now.activations - dram.activations,
            (now.row_misses + now.row_conflicts) - (dram.row_misses + dram.row_conflicts)
        );
        assert!(now.refresh_windows - dram.refresh_windows > 100);
        assert!(now.flips > dram.flips);
    }
}
