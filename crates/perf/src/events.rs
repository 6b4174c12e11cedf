//! Perf accounting as an attack-event subscriber.
//!
//! The attack pipeline announces everything it does on a typed event bus
//! ([`pthammer::events`]); this module is the perf subsystem's ear on that
//! bus. Instead of re-deriving iteration counts from outcomes or
//! configuration, perf consumers subscribe a [`HammerEventTally`] and read
//! the measured numbers straight from the stream the hammer loop emitted.

use pthammer::{AttackEvent, EventSink};

use crate::counters::HammerAccounting;

/// Event-subscribing hammer tally: accumulates measured iterations and
/// their simulated cycle cost across every `HammerFinished` event of a run
/// (or of many runs, when reused across cells).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HammerEventTally {
    /// Hammer iterations observed on the bus.
    pub iterations: u64,
    /// Total simulated cycles of those iterations.
    pub sim_cycles: u64,
    /// Hammer attempts observed on the bus.
    pub attempts: u64,
    /// `VictimProfiled` events observed (one per run: the `Prepare` phase
    /// profiles the attached victim exactly once).
    pub victim_profiles: u64,
    /// `VictimAttacked` events observed (one per usable flip the `Exploit`
    /// phase drove through the victim, successful or not).
    pub victim_attacks: u64,
    /// `VictimAttacked` events whose outcome succeeded.
    pub victim_successes: u64,
}

impl HammerEventTally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Converts the tally into the canonical [`HammerAccounting`] record for
    /// a machine running at `clock_hz`.
    pub fn accounting(&self, clock_hz: f64) -> HammerAccounting {
        HammerAccounting::new(self.iterations, self.sim_cycles, clock_hz)
    }
}

impl EventSink for HammerEventTally {
    fn on_event(&mut self, event: &AttackEvent) {
        match event {
            AttackEvent::HammerFinished { stats, .. } => {
                self.iterations += stats.rounds;
                self.sim_cycles += stats.total_cycles;
            }
            AttackEvent::AttemptStarted { .. } => self.attempts += 1,
            AttackEvent::VictimProfiled { .. } => self.victim_profiles += 1,
            AttackEvent::VictimAttacked { outcome, .. } => {
                self.victim_attacks += 1;
                self.victim_successes += u64::from(outcome.success);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pthammer::{HammerPair, HammerStats};
    use pthammer_types::VirtAddr;

    #[test]
    fn tally_accumulates_hammer_events() {
        let mut tally = HammerEventTally::new();
        tally.on_event(&AttackEvent::AttemptStarted {
            attempt: 1,
            pair: HammerPair {
                low: VirtAddr::new(0x1000),
                high: VirtAddr::new(0x2000),
            },
            at_cycles: 0,
        });
        for _ in 0..2 {
            tally.on_event(&AttackEvent::HammerFinished {
                stats: HammerStats {
                    rounds: 100,
                    total_cycles: 70_000,
                    min_round_cycles: 600,
                    max_round_cycles: 800,
                    low_dram_hits: 99,
                    high_dram_hits: 98,
                    aggressor_dram_hits: 0,
                    ..HammerStats::default()
                },
                implicit_touches_per_round: 2,
            });
        }
        assert_eq!(tally.attempts, 1);
        assert_eq!(tally.iterations, 200);
        assert_eq!(tally.sim_cycles, 140_000);
        let acc = tally.accounting(2.0e9);
        assert_eq!(acc.iterations, 200);
        assert_eq!(acc.cycles_per_iteration(), 700);
    }

    #[test]
    fn tally_counts_victim_lifecycle_events() {
        use pthammer::VictimOutcome;
        let mut tally = HammerEventTally::new();
        tally.on_event(&AttackEvent::VictimProfiled {
            victim: "pte-takeover",
            targets: 0,
            at_cycles: 10,
        });
        tally.on_event(&AttackEvent::VictimAttacked {
            outcome: VictimOutcome::failure("pte-takeover", "PageTableTakeover"),
            at_cycles: 20,
        });
        tally.on_event(&AttackEvent::VictimAttacked {
            outcome: VictimOutcome::escalation("pte-takeover", "PageTableTakeover", 1),
            at_cycles: 30,
        });
        assert_eq!(tally.victim_profiles, 1);
        assert_eq!(tally.victim_attacks, 2);
        assert_eq!(tally.victim_successes, 1);
    }
}
