//! The attack's typed event layer.
//!
//! The phase pipeline ([`crate::pipeline`]) does not keep ad-hoc timing
//! locals; it *announces* what happens — phases entered and exited, attempts
//! started, pairs verified, flips observed, escalation — as [`AttackEvent`]s
//! on a crate-private event bus. The stage timings and headline counts of
//! [`AttackOutcome`](crate::AttackOutcome) are derived by a built-in
//! accounting subscriber, and the [`EventSink`]s a run is given through
//! [`RunOptions::observed_by`](crate::RunOptions::observed_by) (the campaign
//! harness's instrumented runners, the `pthammer-perf` accounting, the
//! examples) observe the same stream instead of re-deriving counts from
//! outcomes.
//!
//! Events are emitted *after* the simulated work they describe, so sinks can
//! never perturb the simulation: a run with zero subscribers is
//! byte-identical to a run with many.

use crate::detect::FlipFinding;
use crate::hammer::HammerStats;
use crate::pairs::{HammerPair, PairVerification};
use crate::report::StageTimings;
use crate::victim::VictimOutcome;

/// The five stages of the attack pipeline, in execution order.
///
/// `Prepare` runs once; the remaining four run per hammer attempt (with
/// `Hammer`/`Detect`/`Exploit` skipped for pairs the strategy rejects).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackPhase {
    /// One-off preparation: TLB pool, LLC pool, page-table spray.
    Prepare,
    /// Candidate-pair selection: eviction sets and (strategy-dependent)
    /// same-bank verification.
    PairSelect,
    /// The hammer loop itself.
    Hammer,
    /// Scanning sprayed mappings for corruption.
    Detect,
    /// Turning exploitable findings into privilege escalation.
    Exploit,
}

impl AttackPhase {
    /// Canonical lowercase phase name.
    pub fn name(&self) -> &'static str {
        match self {
            AttackPhase::Prepare => "prepare",
            AttackPhase::PairSelect => "pair-select",
            AttackPhase::Hammer => "hammer",
            AttackPhase::Detect => "detect",
            AttackPhase::Exploit => "exploit",
        }
    }
}

/// One event on the attack's event bus.
///
/// `at_cycles` fields carry the simulated clock (`rdtsc`) at emission time;
/// reading the clock is side-effect free, so timestamps never perturb the
/// simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum AttackEvent {
    /// A pipeline phase began.
    PhaseEntered {
        /// The phase that began.
        phase: AttackPhase,
        /// Simulated cycles at entry.
        at_cycles: u64,
    },
    /// A pipeline phase finished.
    PhaseExited {
        /// The phase that finished.
        phase: AttackPhase,
        /// Simulated cycles at exit.
        at_cycles: u64,
    },
    /// The one-off preparation finished (emitted inside the `Prepare` phase).
    PoolsPrepared {
        /// Simulated cycles spent building the TLB eviction pool.
        tlb_pool_cycles: u64,
        /// Simulated cycles spent building the LLC eviction pool.
        llc_pool_cycles: u64,
        /// Number of Level-1 page tables the spray created.
        l1pt_count: u64,
    },
    /// A hammer attempt (one candidate pair) began.
    AttemptStarted {
        /// 1-based attempt number.
        attempt: usize,
        /// The candidate pair of this attempt.
        pair: HammerPair,
        /// Simulated cycles at the start of the attempt.
        at_cycles: u64,
    },
    /// Eviction-set selection for the attempt's pair finished.
    EvictionSetsSelected {
        /// Simulated cycles drawing TLB eviction sets from the pool.
        tlb_cycles: u64,
        /// Simulated cycles of LLC eviction-set selection (Algorithm 2).
        llc_cycles: u64,
    },
    /// The pair passed (or failed) the strategy's acceptance check.
    PairVerified {
        /// Timing-based same-bank verification, for strategies that perform
        /// it (`None` for strategies that accept every candidate).
        verification: Option<PairVerification>,
        /// Whether the pipeline proceeds to hammer this pair.
        accepted: bool,
    },
    /// The hammer loop for one attempt finished.
    HammerFinished {
        /// Per-attempt hammer statistics (iterations, cycles, DRAM hits).
        stats: HammerStats,
        /// How many implicit (page-walk) target touches one iteration of the
        /// active strategy performs — the denominator of the implicit DRAM
        /// rate (2 for double-sided, 1 for one-location, 0 for explicit).
        implicit_touches_per_round: u64,
    },
    /// The post-hammer scan found one corrupted sprayed mapping.
    FlipObserved {
        /// The corrupted mapping.
        finding: FlipFinding,
        /// Simulated cycles when the scan completed.
        at_cycles: u64,
    },
    /// The post-hammer scan of one attempt completed.
    ChecksCompleted {
        /// Corrupted mappings found (including unexploitable ones).
        findings: usize,
        /// Findings that are exploitable.
        exploitable: usize,
        /// Simulated cycles the scan itself took.
        check_cycles: u64,
        /// Simulated cycles when the scan completed.
        at_cycles: u64,
    },
    /// The victim's `profile` stage completed (inside the `Prepare` phase).
    VictimProfiled {
        /// Canonical name of the profiled victim.
        victim: &'static str,
        /// Number of weak cells the flip profile templated.
        targets: usize,
        /// Simulated cycles when profiling completed.
        at_cycles: u64,
    },
    /// The victim's `attack` stage ran against one usable finding.
    VictimAttacked {
        /// The typed result of the attack (success or failure).
        outcome: VictimOutcome,
        /// Simulated cycles when the attack completed.
        at_cycles: u64,
    },
}

/// A subscriber on the attack event bus.
pub trait EventSink {
    /// Called for every emitted event, in emission order.
    fn on_event(&mut self, event: &AttackEvent);
}

/// A minimal synchronous event bus: subscribers in registration order, no
/// buffering, no filtering. Emission is infallible — sinks observe, they do
/// not steer.
pub(crate) struct EventBus<'a> {
    sinks: Vec<&'a mut dyn EventSink>,
}

impl<'a> EventBus<'a> {
    /// Creates an empty bus.
    pub fn new() -> Self {
        Self { sinks: Vec::new() }
    }

    /// Registers a subscriber; it receives every subsequent event.
    pub fn subscribe(&mut self, sink: &'a mut dyn EventSink) {
        self.sinks.push(sink);
    }

    /// Delivers one event to every subscriber, in registration order.
    pub fn emit(&mut self, event: &AttackEvent) {
        for sink in &mut self.sinks {
            sink.on_event(event);
        }
    }
}

/// The pipeline's built-in accounting subscriber.
///
/// Replaces the hand-rolled `StageTimings` accumulation of the old
/// monolithic driver: every number in
/// [`AttackOutcome`](crate::AttackOutcome) that used to live in an ad-hoc
/// local is now derived from the event stream, through exactly the same
/// arithmetic (integer-divided per-attempt averages, first-flip timestamps,
/// DRAM-rate ratios), so the default attack remains byte-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PipelineAccounting {
    /// `rdtsc` at the start of the attack; first-flip / escalation times are
    /// relative to it.
    attack_start: u64,
    /// Hammer attempts started.
    pub attempts: usize,
    /// Hammer iterations performed across all attempts.
    pub hammer_iterations: u64,
    /// Total simulated cycles of those iterations.
    pub hammer_cycles_total: u64,
    /// Corrupted mappings observed across all attempts.
    pub flips_observed: usize,
    /// Exploitable findings across all attempts.
    pub exploitable_flips: usize,
    /// Implicit target touches that were served from DRAM.
    pub dram_hits: u64,
    /// Implicit target touches performed.
    pub dram_rounds: u64,
    /// Victim `attack` invocations (successful or not).
    pub victim_attacks: u64,
    /// The successful victim outcome, once the `Exploit` phase produced one.
    pub victim_outcome: Option<VictimOutcome>,
    tlb_pool_prep_cycles: u64,
    llc_pool_prep_cycles: u64,
    tlb_selection_cycles_total: u64,
    llc_selection_cycles_total: u64,
    check_cycles_total: u64,
    time_to_first_flip_cycles: Option<u64>,
    time_to_escalation_cycles: Option<u64>,
}

impl PipelineAccounting {
    /// Creates the accounting sink for an attack that started at
    /// `attack_start` simulated cycles.
    pub fn new(attack_start: u64) -> Self {
        Self {
            attack_start,
            attempts: 0,
            hammer_iterations: 0,
            hammer_cycles_total: 0,
            flips_observed: 0,
            exploitable_flips: 0,
            dram_hits: 0,
            dram_rounds: 0,
            victim_attacks: 0,
            victim_outcome: None,
            tlb_pool_prep_cycles: 0,
            llc_pool_prep_cycles: 0,
            tlb_selection_cycles_total: 0,
            llc_selection_cycles_total: 0,
            check_cycles_total: 0,
            time_to_first_flip_cycles: None,
            time_to_escalation_cycles: None,
        }
    }

    /// Fraction of implicit target touches that reached DRAM (0 when the
    /// strategy performs no implicit touches).
    pub fn implicit_dram_rate(&self) -> f64 {
        if self.dram_rounds == 0 {
            0.0
        } else {
            self.dram_hits as f64 / self.dram_rounds as f64
        }
    }

    /// The Table II stage timings: pool preparation, per-attempt averages
    /// (integer division over all started attempts, matching the historical
    /// accumulation), and the first-flip / escalation timestamps.
    pub fn stage_timings(&self) -> StageTimings {
        let attempts = self.attempts.max(1) as u64;
        StageTimings {
            tlb_pool_prep_cycles: self.tlb_pool_prep_cycles,
            llc_pool_prep_cycles: self.llc_pool_prep_cycles,
            tlb_selection_cycles: self.tlb_selection_cycles_total / attempts,
            llc_selection_cycles: self.llc_selection_cycles_total / attempts,
            hammer_cycles_per_attempt: self.hammer_cycles_total / attempts,
            check_cycles_per_attempt: self.check_cycles_total / attempts,
            time_to_first_flip_cycles: self.time_to_first_flip_cycles,
            time_to_escalation_cycles: self.time_to_escalation_cycles,
        }
    }
}

impl EventSink for PipelineAccounting {
    fn on_event(&mut self, event: &AttackEvent) {
        match event {
            AttackEvent::PoolsPrepared {
                tlb_pool_cycles,
                llc_pool_cycles,
                ..
            } => {
                self.tlb_pool_prep_cycles = *tlb_pool_cycles;
                self.llc_pool_prep_cycles = *llc_pool_cycles;
            }
            AttackEvent::AttemptStarted { .. } => self.attempts += 1,
            AttackEvent::EvictionSetsSelected {
                tlb_cycles,
                llc_cycles,
            } => {
                self.tlb_selection_cycles_total += tlb_cycles;
                self.llc_selection_cycles_total += llc_cycles;
            }
            AttackEvent::HammerFinished {
                stats,
                implicit_touches_per_round,
            } => {
                self.hammer_iterations += stats.rounds;
                self.hammer_cycles_total += stats.total_cycles;
                self.dram_hits +=
                    stats.low_dram_hits + stats.high_dram_hits + stats.aggressor_dram_hits;
                self.dram_rounds += implicit_touches_per_round * stats.rounds;
            }
            AttackEvent::FlipObserved { finding, at_cycles } => {
                self.flips_observed += 1;
                self.exploitable_flips += usize::from(finding.is_exploitable());
                if self.time_to_first_flip_cycles.is_none() {
                    self.time_to_first_flip_cycles = Some(at_cycles - self.attack_start);
                }
            }
            AttackEvent::ChecksCompleted { check_cycles, .. } => {
                self.check_cycles_total += check_cycles;
            }
            AttackEvent::VictimAttacked { outcome, at_cycles } => {
                self.victim_attacks += 1;
                if outcome.success && self.victim_outcome.is_none() {
                    self.victim_outcome = Some(*outcome);
                    self.time_to_escalation_cycles = Some(at_cycles - self.attack_start);
                }
            }
            AttackEvent::PhaseEntered { .. }
            | AttackEvent::PhaseExited { .. }
            | AttackEvent::PairVerified { .. }
            | AttackEvent::VictimProfiled { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::CapturedPageKind;
    use pthammer_types::VirtAddr;

    fn finding(exploitable: bool) -> FlipFinding {
        FlipFinding {
            vaddr: VirtAddr::new(0x1000),
            observed: 7,
            kind: if exploitable {
                CapturedPageKind::CredPage
            } else {
                CapturedPageKind::Unknown
            },
        }
    }

    #[test]
    fn bus_delivers_in_registration_order() {
        #[derive(Default)]
        struct Recorder(Vec<String>);
        impl EventSink for Recorder {
            fn on_event(&mut self, event: &AttackEvent) {
                if let AttackEvent::PhaseEntered { phase, .. } = event {
                    self.0.push(phase.name().to_string());
                }
            }
        }
        let mut a = Recorder::default();
        let mut b = Recorder::default();
        let mut bus = EventBus::new();
        bus.subscribe(&mut a);
        bus.subscribe(&mut b);
        bus.emit(&AttackEvent::PhaseEntered {
            phase: AttackPhase::Prepare,
            at_cycles: 1,
        });
        bus.emit(&AttackEvent::PhaseEntered {
            phase: AttackPhase::Hammer,
            at_cycles: 2,
        });
        drop(bus);
        assert_eq!(a.0, vec!["prepare", "hammer"]);
        assert_eq!(a.0, b.0);
    }

    #[test]
    fn accounting_replicates_the_historical_arithmetic() {
        let mut acc = PipelineAccounting::new(100);
        acc.on_event(&AttackEvent::PoolsPrepared {
            tlb_pool_cycles: 11,
            llc_pool_cycles: 22,
            l1pt_count: 5,
        });
        for i in 0..2 {
            acc.on_event(&AttackEvent::AttemptStarted {
                attempt: i + 1,
                pair: HammerPair {
                    low: VirtAddr::new(0x1000),
                    high: VirtAddr::new(0x2000),
                },
                at_cycles: 100,
            });
            acc.on_event(&AttackEvent::EvictionSetsSelected {
                tlb_cycles: 3,
                llc_cycles: 7,
            });
            acc.on_event(&AttackEvent::HammerFinished {
                stats: HammerStats {
                    rounds: 10,
                    total_cycles: 1_000,
                    min_round_cycles: 90,
                    max_round_cycles: 110,
                    low_dram_hits: 9,
                    high_dram_hits: 8,
                    aggressor_dram_hits: 0,
                    ..HammerStats::default()
                },
                implicit_touches_per_round: 2,
            });
            acc.on_event(&AttackEvent::ChecksCompleted {
                findings: 1,
                exploitable: 0,
                check_cycles: 40,
                at_cycles: 500,
            });
        }
        acc.on_event(&AttackEvent::FlipObserved {
            finding: finding(false),
            at_cycles: 600,
        });
        acc.on_event(&AttackEvent::FlipObserved {
            finding: finding(true),
            at_cycles: 700,
        });
        acc.on_event(&AttackEvent::VictimAttacked {
            outcome: VictimOutcome::failure("cred-corruption", "CredCorruption"),
            at_cycles: 850,
        });
        acc.on_event(&AttackEvent::VictimAttacked {
            outcome: VictimOutcome::escalation("cred-corruption", "CredCorruption", 3),
            at_cycles: 900,
        });

        assert_eq!(acc.attempts, 2);
        assert_eq!(acc.victim_attacks, 2);
        assert_eq!(
            acc.victim_outcome.and_then(|o| o.escalated_pid()),
            Some(3),
            "only the successful attack is recorded"
        );
        assert_eq!(acc.hammer_iterations, 20);
        assert_eq!(acc.flips_observed, 2);
        assert_eq!(acc.exploitable_flips, 1);
        assert!((acc.implicit_dram_rate() - 34.0 / 40.0).abs() < 1e-12);
        let t = acc.stage_timings();
        assert_eq!(t.tlb_pool_prep_cycles, 11);
        assert_eq!(t.llc_pool_prep_cycles, 22);
        assert_eq!(t.tlb_selection_cycles, 3);
        assert_eq!(t.llc_selection_cycles, 7);
        assert_eq!(t.hammer_cycles_per_attempt, 1_000);
        assert_eq!(t.check_cycles_per_attempt, 40);
        assert_eq!(t.time_to_first_flip_cycles, Some(500));
        assert_eq!(t.time_to_escalation_cycles, Some(800));
    }

    #[test]
    fn zero_attempts_divide_safely() {
        let acc = PipelineAccounting::new(0);
        let t = acc.stage_timings();
        assert_eq!(t.hammer_cycles_per_attempt, 0);
        assert_eq!(acc.implicit_dram_rate(), 0.0);
    }

    #[test]
    fn phase_names_are_distinct() {
        let names: std::collections::HashSet<&str> = [
            AttackPhase::Prepare,
            AttackPhase::PairSelect,
            AttackPhase::Hammer,
            AttackPhase::Detect,
            AttackPhase::Exploit,
        ]
        .iter()
        .map(|p| p.name())
        .collect();
        assert_eq!(names.len(), 5);
    }
}
