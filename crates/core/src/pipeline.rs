//! The attack's phase pipeline.
//!
//! [`AttackPipeline`] replaces the old monolithic `PtHammer::run` loop with
//! an explicit `Prepare → PairSelect → Hammer → Detect → Exploit` pipeline
//! over a shared [`AttackCtx`]: the per-attempt state, the attacker's RNG
//! and all timing accounting live here instead of in ad-hoc locals. Each
//! phase announces itself on the typed event bus ([`crate::events`]); the
//! built-in [`PipelineAccounting`] subscriber derives the stage timings and
//! headline counts, and external subscribers (the campaign harness, the
//! perf accounting) observe the same stream.
//!
//! For the paper's default mode
//! ([`HammerMode::ImplicitDoubleSided`](crate::HammerMode)) the pipeline
//! performs exactly the simulated-operation sequence of the historical
//! driver, so the golden campaign snapshot remains byte-identical.

use rand::rngs::StdRng;
use rand::SeedableRng;

use pthammer_kernel::{Pid, System};

use crate::config::AttackConfig;
use crate::detect::scan_for_corrupted_mappings;
use crate::error::AttackError;
use crate::events::{AttackEvent, AttackPhase, EventBus, EventSink, PipelineAccounting};
use crate::eviction::llc::LlcEvictionPool;
use crate::eviction::tlb::TlbEvictionPool;
use crate::hammer::strategy::{ArmedPair, HammerStrategy};
use crate::pairs::{candidate_pairs, conflict_threshold};
use crate::report::{AttackOutcome, PageSetting};
use crate::spray::spray_page_tables;
use crate::trace::CompiledTrace;
use crate::victim::{ExploitCtx, FlipProfile, PteTakeover, Victim, VictimOutcome};

/// The prepared one-off state (pools + spray), exposed so that the benchmark
/// harness can time and reuse the stages individually.
#[derive(Debug, Clone)]
pub struct PreparedAttack {
    /// TLB eviction pool.
    pub tlb_pool: TlbEvictionPool,
    /// LLC eviction pool.
    pub llc_pool: LlcEvictionPool,
    /// The page-table spray region.
    pub spray: crate::spray::SprayRegion,
}

/// Number of pages in the TLB eviction sets the attack uses: the paper's
/// 12 on the Table I machines (`L1 ways + 2 × L2 ways`).
pub fn tlb_eviction_pages(sys: &System) -> usize {
    let mmu = &sys.machine().config().mmu;
    (mmu.l1_dtlb.ways + 2 * mmu.l2_stlb.ways) as usize
}

/// Number of lines in the LLC eviction sets: one more than the LLC
/// associativity (13 on the Lenovo machines, 17 on the Dell).
pub fn llc_eviction_lines(sys: &System) -> usize {
    sys.machine().config().cache.llc.ways as usize + 1
}

/// Runs the one-off preparation: TLB pool, LLC pool and the spray.
pub fn prepare_attack(
    sys: &mut System,
    pid: Pid,
    config: &AttackConfig,
) -> Result<PreparedAttack, AttackError> {
    let tlb_pool = TlbEvictionPool::build(sys, pid, config, tlb_eviction_pages(sys))?;
    let llc_pool = LlcEvictionPool::build(sys, pid, config, llc_eviction_lines(sys))?;
    let spray = spray_page_tables(sys, pid, config)?;
    Ok(PreparedAttack {
        tlb_pool,
        llc_pool,
        spray,
    })
}

/// The shared, typed context every pipeline phase operates on.
///
/// Everything the old driver kept in loop-local variables lives here: the
/// attacker's RNG stream, machine-derived constants, the accounting
/// subscriber and the attempt-spanning result state. What `Prepare` builds
/// (the pools, the spray and the victim's flip profile) is returned by that
/// phase and borrowed by the attempt loop instead.
#[derive(Debug)]
pub struct AttackCtx {
    /// The process running the attack.
    pub pid: Pid,
    /// `rdtsc` at the start of the attack.
    pub attack_start: u64,
    /// Attacker uid before the attack.
    pub uid_before: u32,
    /// DRAM row span of the machine under attack (bytes).
    pub row_span: u64,
    /// Row-buffer-conflict latency threshold for pair verification.
    pub conflict_threshold: u64,
    /// The attacker's pseudo-random stream (pair selection).
    pub rng: StdRng,
    /// Event-derived timing and count accounting.
    pub accounting: PipelineAccounting,
    /// Per-iteration cycle samples (the Figure 6 measurement).
    pub hammer_cycle_samples: Vec<u64>,
    /// The victim the `Exploit` phase dispatches through (`profile →
    /// evaluate → attack`); [`PteTakeover`] unless one was injected.
    pub victim: Box<dyn Victim>,
    /// The successful victim outcome, once the `Exploit` phase produced one.
    pub victory: Option<VictimOutcome>,
    /// Effective uid of the escalated process (== `uid_before` until then).
    pub escalated_uid: u32,
}

/// What the driver does after a phase group completes.
enum Flow {
    /// Move on to the next candidate pair.
    NextPair,
    /// Stop the attempt loop (escalated or budget reached).
    Finish,
}

/// The staged attack pipeline: a hammer strategy plus an event bus, driven
/// over an [`AttackCtx`].
pub struct AttackPipeline<'a, 'b> {
    config: &'a AttackConfig,
    strategy: Box<dyn HammerStrategy>,
    victim: Box<dyn Victim>,
    bus: EventBus<'b>,
}

impl std::fmt::Debug for AttackPipeline<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AttackPipeline")
            .field("strategy", &self.strategy)
            .field("victim", &self.victim)
            .field("bus", &self.bus)
            .finish_non_exhaustive()
    }
}

impl<'a, 'b> AttackPipeline<'a, 'b> {
    /// Creates the pipeline with its strategy and victim injected: the hooks
    /// through which externally defined strategies (e.g.
    /// `pthammer-patterns`' synthesized many-sided patterns) and other
    /// [`Victim`]s (the campaign's `victims` axis) run on the same phase
    /// pipeline, touch path and event bus as the built-in modes.
    pub fn new(
        config: &'a AttackConfig,
        strategy: Box<dyn HammerStrategy>,
        victim: Box<dyn Victim>,
    ) -> Self {
        Self {
            config,
            strategy,
            victim,
            bus: EventBus::new(),
        }
    }

    /// Registers an external event subscriber.
    pub fn subscribe(&mut self, sink: &'b mut dyn EventSink) {
        self.bus.subscribe(sink);
    }

    /// Emits an event to the built-in accounting and every subscriber.
    fn emit(&mut self, ctx: &mut AttackCtx, event: AttackEvent) {
        ctx.accounting.on_event(&event);
        self.bus.emit(&event);
    }

    fn enter(&mut self, ctx: &mut AttackCtx, sys: &System, phase: AttackPhase) {
        self.emit(
            ctx,
            AttackEvent::PhaseEntered {
                phase,
                at_cycles: sys.rdtsc(),
            },
        );
    }

    fn exit(&mut self, ctx: &mut AttackCtx, sys: &System, phase: AttackPhase) {
        self.emit(
            ctx,
            AttackEvent::PhaseExited {
                phase,
                at_cycles: sys.rdtsc(),
            },
        );
    }

    /// Runs the full pipeline to an [`AttackOutcome`].
    pub fn run(mut self, sys: &mut System, pid: Pid) -> Result<AttackOutcome, AttackError> {
        let attack_start = sys.rdtsc();
        let uid_before = sys.getuid(pid)?;
        let machine = sys.machine().config().name.clone();
        let clock_hz = sys.machine().clock_hz();
        let defense = sys.policy_kind();
        let page_setting = PageSetting::from_superpages(self.config.superpages);

        let mut ctx = AttackCtx {
            pid,
            attack_start,
            uid_before,
            row_span: sys.machine().config().dram.geometry.row_span_bytes(),
            conflict_threshold: conflict_threshold(sys),
            rng: StdRng::seed_from_u64(self.config.seed),
            accounting: PipelineAccounting::new(attack_start),
            hammer_cycle_samples: Vec::new(),
            victim: std::mem::replace(&mut self.victim, Box::new(PteTakeover)),
            victory: None,
            escalated_uid: uid_before,
        };

        let (prepared, profile) = self.phase_prepare(&mut ctx, sys)?;
        self.drive_attempts(&mut ctx, sys, &prepared, &profile)?;

        let timings = ctx.accounting.stage_timings();
        Ok(AttackOutcome {
            machine,
            clock_hz,
            page_setting,
            defense,
            hammer_mode: self.strategy.mode(),
            escalated: ctx.victory.is_some_and(|v| v.escalated_pid().is_some()),
            victim_outcome: ctx.victory,
            attempts: ctx.accounting.attempts,
            hammer_iterations: ctx.accounting.hammer_iterations,
            hammer_cycles_total: ctx.accounting.hammer_cycles_total,
            flips_observed: ctx.accounting.flips_observed,
            exploitable_flips: ctx.accounting.exploitable_flips,
            uid_before: ctx.uid_before,
            uid_after: ctx.escalated_uid,
            timings,
            hammer_cycle_samples: ctx.hammer_cycle_samples,
            implicit_dram_rate: ctx.accounting.implicit_dram_rate(),
        })
    }

    /// `Prepare`: builds the TLB/LLC eviction pools and the page-table
    /// spray, once, then runs the victim's `profile` stage.
    fn phase_prepare(
        &mut self,
        ctx: &mut AttackCtx,
        sys: &mut System,
    ) -> Result<(PreparedAttack, FlipProfile), AttackError> {
        self.enter(ctx, sys, AttackPhase::Prepare);
        let prepared = prepare_attack(sys, ctx.pid, self.config)?;
        self.emit(
            ctx,
            AttackEvent::PoolsPrepared {
                tlb_pool_cycles: prepared.tlb_pool.prep_cycles(),
                llc_pool_cycles: prepared.llc_pool.prep_cycles(),
                l1pt_count: prepared.spray.l1pt_count(),
            },
        );
        // Victim profiling takes `&System`: it cannot perform simulated
        // memory operations, so the phases downstream stay byte-identical
        // regardless of which victim is attached.
        let profile = ctx.victim.profile(sys, ctx.pid)?;
        self.emit(
            ctx,
            AttackEvent::VictimProfiled {
                victim: ctx.victim.name(),
                targets: profile.targets.len(),
                at_cycles: sys.rdtsc(),
            },
        );
        self.exit(ctx, sys, AttackPhase::Prepare);
        Ok((prepared, profile))
    }

    /// The attempt loop: candidate batches from the RNG, then the
    /// `PairSelect → Hammer → Detect → Exploit` phases per candidate.
    fn drive_attempts(
        &mut self,
        ctx: &mut AttackCtx,
        sys: &mut System,
        prepared: &PreparedAttack,
        profile: &FlipProfile,
    ) -> Result<(), AttackError> {
        while ctx.accounting.attempts < self.config.max_attempts
            && ctx.accounting.flips_observed < self.config.max_flips
        {
            let pairs = candidate_pairs(
                &prepared.spray,
                ctx.row_span,
                self.config.pair_candidates_per_round,
                &mut ctx.rng,
            );
            if pairs.is_empty() {
                return Err(AttackError::NoHammerPairs);
            }
            for pair in pairs {
                if ctx.accounting.attempts >= self.config.max_attempts {
                    return Ok(());
                }
                self.emit(
                    ctx,
                    AttackEvent::AttemptStarted {
                        attempt: ctx.accounting.attempts + 1,
                        pair,
                        at_cycles: sys.rdtsc(),
                    },
                );
                match self.run_attempt(ctx, sys, prepared, profile, pair)? {
                    Flow::NextPair => {}
                    Flow::Finish => return Ok(()),
                }
            }
        }
        Ok(())
    }

    /// One attempt: select/verify, hammer, detect, exploit.
    fn run_attempt(
        &mut self,
        ctx: &mut AttackCtx,
        sys: &mut System,
        prepared: &PreparedAttack,
        profile: &FlipProfile,
        pair: crate::pairs::HammerPair,
    ) -> Result<Flow, AttackError> {
        let Some(armed) = self.phase_pair_select(ctx, sys, prepared, pair)? else {
            return Ok(Flow::NextPair);
        };
        self.phase_hammer(ctx, sys, &armed)?;
        let findings = self.phase_detect(ctx, sys, prepared, &armed)?;
        self.phase_exploit(ctx, sys, prepared, profile, &findings)
    }

    /// `PairSelect`: eviction-set selection plus the strategy's acceptance
    /// gate (same-bank verification for the paper's strategy).
    fn phase_pair_select(
        &mut self,
        ctx: &mut AttackCtx,
        sys: &mut System,
        prepared: &PreparedAttack,
        pair: crate::pairs::HammerPair,
    ) -> Result<Option<ArmedPair>, AttackError> {
        self.enter(ctx, sys, AttackPhase::PairSelect);
        let arm = self.strategy.arm(
            sys,
            ctx.pid,
            pair,
            prepared,
            self.config,
            ctx.conflict_threshold,
        )?;
        self.emit(
            ctx,
            AttackEvent::EvictionSetsSelected {
                tlb_cycles: arm.tlb_selection_cycles,
                llc_cycles: arm.llc_selection_cycles,
            },
        );
        self.emit(
            ctx,
            AttackEvent::PairVerified {
                verification: arm.verification,
                accepted: arm.armed.is_some(),
            },
        );
        self.exit(ctx, sys, AttackPhase::PairSelect);
        Ok(arm.armed)
    }

    /// `Hammer`: the strategy's per-round op pattern compiled once into a
    /// [`CompiledTrace`] and hammered `hammer_rounds_per_attempt` times,
    /// plus the Figure 6 cycle samples while fewer than 50 were taken — both
    /// through the trace's round loop, which recompiles whenever a handled
    /// demand fault (kernel page-table allocation mid-attempt) made the
    /// trace stale.
    fn phase_hammer(
        &mut self,
        ctx: &mut AttackCtx,
        sys: &mut System,
        armed: &ArmedPair,
    ) -> Result<(), AttackError> {
        self.enter(ctx, sys, AttackPhase::Hammer);
        let ops = self.strategy.round_ops();
        let mut trace = CompiledTrace::compile(armed, ops, sys, ctx.pid)?;
        let rounds = self.config.hammer_rounds_per_attempt;
        let stats = trace.hammer(armed, ops, sys, ctx.pid, rounds, |_| {})?;
        self.emit(
            ctx,
            AttackEvent::HammerFinished {
                stats,
                implicit_touches_per_round: self.strategy.implicit_touches_per_round(),
            },
        );
        if ctx.hammer_cycle_samples.len() < 50 {
            let samples = &mut ctx.hammer_cycle_samples;
            trace.hammer(
                armed,
                self.strategy.round_ops(),
                sys,
                ctx.pid,
                10,
                |round| samples.push(round.cycles),
            )?;
        }
        self.exit(ctx, sys, AttackPhase::Hammer);
        Ok(())
    }

    /// `Detect`: scan the victim range of the hammered pair for corrupted
    /// sprayed mappings.
    fn phase_detect(
        &mut self,
        ctx: &mut AttackCtx,
        sys: &mut System,
        prepared: &PreparedAttack,
        armed: &ArmedPair,
    ) -> Result<Vec<crate::detect::FlipFinding>, AttackError> {
        self.enter(ctx, sys, AttackPhase::Detect);
        let (findings, check_cycles) =
            scan_for_corrupted_mappings(sys, ctx.pid, &prepared.spray, &armed.pair, ctx.row_span)?;
        let at_cycles = sys.rdtsc();
        for finding in &findings {
            self.emit(
                ctx,
                AttackEvent::FlipObserved {
                    finding: *finding,
                    at_cycles,
                },
            );
        }
        self.emit(
            ctx,
            AttackEvent::ChecksCompleted {
                findings: findings.len(),
                exploitable: findings.iter().filter(|f| f.is_exploitable()).count(),
                check_cycles,
                at_cycles,
            },
        );
        self.exit(ctx, sys, AttackPhase::Detect);
        Ok(findings)
    }

    /// `Exploit`: dispatch every finding through the victim trait object —
    /// `evaluate` gates which findings are attacked, `attack` performs the
    /// exploitation.
    fn phase_exploit(
        &mut self,
        ctx: &mut AttackCtx,
        sys: &mut System,
        prepared: &PreparedAttack,
        profile: &FlipProfile,
        findings: &[crate::detect::FlipFinding],
    ) -> Result<Flow, AttackError> {
        self.enter(ctx, sys, AttackPhase::Exploit);
        for finding in findings {
            if !ctx.victim.evaluate(profile, finding).is_usable() {
                continue;
            }
            let exploit = ExploitCtx {
                tlb_pool: &prepared.tlb_pool,
                spray: &prepared.spray,
                attacker_uid: ctx.uid_before,
                hammer_iterations: ctx.accounting.hammer_iterations,
            };
            let mut outcome = ctx.victim.attack(sys, ctx.pid, &exploit, finding)?;
            if outcome.success {
                outcome.time_to_exploit_iterations = Some(ctx.accounting.hammer_iterations);
            }
            self.emit(
                ctx,
                AttackEvent::VictimAttacked {
                    outcome,
                    at_cycles: sys.rdtsc(),
                },
            );
            if outcome.success {
                if let Some(escalated_pid) = outcome.escalated_pid() {
                    ctx.escalated_uid = sys.getuid(escalated_pid)?;
                }
                ctx.victory = Some(outcome);
                self.exit(ctx, sys, AttackPhase::Exploit);
                return Ok(Flow::Finish);
            }
        }
        self.exit(ctx, sys, AttackPhase::Exploit);
        Ok(Flow::NextPair)
    }
}
