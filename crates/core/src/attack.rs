//! End-to-end PThammer orchestration.
//!
//! [`PtHammer::run_with`] executes the complete attack of the paper against
//! a booted [`System`] by driving the staged pipeline of [`crate::pipeline`]:
//! `Prepare → PairSelect → Hammer → Detect → Exploit`. [`RunOptions`] is the
//! single configuration surface for everything that can be injected into a
//! run — event sinks, an explicit [`HammerStrategy`] and the [`Victim`]
//! the `Exploit` phase dispatches through; defaults come from
//! [`AttackConfig::hammer_mode`] and the paper's [`PteTakeover`] victim.
//! The returned
//! [`AttackOutcome`] carries the per-stage timings that Table II reports —
//! derived from the pipeline's event stream.

use pthammer_kernel::{Pid, System};

use crate::config::AttackConfig;
use crate::error::AttackError;
use crate::events::EventSink;
use crate::hammer::strategy::HammerStrategy;
use crate::pipeline::{self, AttackPipeline};
use crate::report::AttackOutcome;
use crate::victim::{PteTakeover, Victim};

pub use crate::pipeline::PreparedAttack;

/// Builder of everything injectable into one attack run: event sinks, the
/// hammer strategy and the victim.
///
/// An empty `RunOptions::new()` reproduces the historical default run
/// byte-for-byte: the strategy named by [`AttackConfig::hammer_mode`], the
/// [`PteTakeover`] victim and no subscribers.
///
/// # Examples
///
/// ```no_run
/// # use pthammer::{AttackConfig, PtHammer, RunOptions};
/// # use pthammer::victim::VictimChoice;
/// # fn run(sys: &mut pthammer_kernel::System, pid: pthammer_kernel::Pid)
/// # -> Result<(), pthammer::AttackError> {
/// let attack = PtHammer::new(AttackConfig::quick_test(42, false))?;
/// let outcome = attack.run_with(
///     sys,
///     pid,
///     RunOptions::new().victim(VictimChoice::CredCorruption.build()),
/// )?;
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct RunOptions<'s> {
    strategy: Option<Box<dyn HammerStrategy>>,
    victim: Option<Box<dyn Victim>>,
    sinks: Vec<&'s mut dyn EventSink>,
}

impl<'s> RunOptions<'s> {
    /// The default run: config-derived strategy, [`PteTakeover`] victim, no
    /// subscribers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Injects an explicit hammer strategy instead of the one
    /// `config.hammer_mode` names — the entry point pattern-synthesis
    /// strategies (crate `pthammer-patterns`) execute through.
    pub fn strategy(mut self, strategy: Box<dyn HammerStrategy>) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Injects the victim the `Exploit` phase dispatches through.
    pub fn victim(mut self, victim: Box<dyn Victim>) -> Self {
        self.victim = Some(victim);
        self
    }

    /// Attaches an external event subscriber. Sinks only observe — a run
    /// with subscribers is byte-identical to one without.
    pub fn observed_by(mut self, sink: &'s mut dyn EventSink) -> Self {
        self.sinks.push(sink);
        self
    }
}

impl std::fmt::Debug for RunOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOptions")
            .field("strategy", &self.strategy)
            .field("victim", &self.victim)
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

/// The PThammer attack, parameterised by an [`AttackConfig`].
#[derive(Debug, Clone)]
pub struct PtHammer {
    config: AttackConfig,
}

impl PtHammer {
    /// Creates the attack.
    ///
    /// # Errors
    ///
    /// Fails if the configuration is invalid.
    pub fn new(config: AttackConfig) -> Result<Self, AttackError> {
        config.validate().map_err(AttackError::InvalidConfig)?;
        Ok(Self { config })
    }

    /// The configuration in use.
    pub fn config(&self) -> &AttackConfig {
        &self.config
    }

    /// Number of pages in the TLB eviction sets the attack uses: the paper's
    /// 12 on the Table I machines (`L1 ways + 2 × L2 ways`).
    pub fn tlb_eviction_pages(sys: &System) -> usize {
        pipeline::tlb_eviction_pages(sys)
    }

    /// Number of lines in the LLC eviction sets: one more than the LLC
    /// associativity (13 on the Lenovo machines, 17 on the Dell).
    pub fn llc_eviction_lines(sys: &System) -> usize {
        pipeline::llc_eviction_lines(sys)
    }

    /// Runs the one-off preparation: TLB pool, LLC pool and the spray.
    pub fn prepare(&self, sys: &mut System, pid: Pid) -> Result<PreparedAttack, AttackError> {
        pipeline::prepare_attack(sys, pid, &self.config)
    }

    /// Runs the full attack with everything [`RunOptions`] injects: event
    /// sinks, an explicit hammer strategy and the victim the `Exploit`
    /// phase dispatches through.
    ///
    /// This is the single entry point; `RunOptions::new()` reproduces the
    /// historical default run byte-for-byte.
    pub fn run_with(
        &self,
        sys: &mut System,
        pid: Pid,
        options: RunOptions<'_>,
    ) -> Result<AttackOutcome, AttackError> {
        let strategy = options
            .strategy
            .unwrap_or_else(|| self.config.hammer_mode.strategy());
        let victim = options.victim.unwrap_or_else(|| Box::new(PteTakeover));
        let mut pipeline = AttackPipeline::with_parts(&self.config, strategy, victim);
        for sink in options.sinks {
            pipeline.subscribe(sink);
        }
        pipeline.run(sys, pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{AttackEvent, AttackPhase};
    use crate::hammer::strategy::HammerMode;
    use pthammer_cache::{CacheHierarchyConfig, LlcConfig, ReplacementPolicy};
    use pthammer_dram::FlipModelProfile;
    use pthammer_kernel::DefenseKind;
    use pthammer_machine::MachineConfig;

    /// A vulnerable machine small enough for an end-to-end attack in a test.
    pub(crate) fn vulnerable_test_machine(seed: u64) -> MachineConfig {
        let mut cfg = MachineConfig::test_small(FlipModelProfile::ci(), seed);
        cfg.cache = CacheHierarchyConfig {
            llc: LlcConfig {
                slices: 2,
                sets_per_slice: 256,
                ways: 8,
                latency: 18,
                replacement: ReplacementPolicy::Srrip,
            },
            ..CacheHierarchyConfig::test_small()
        };
        cfg
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut config = AttackConfig::quick_test(1, false);
        config.spray_bytes = 0;
        assert!(matches!(
            PtHammer::new(config),
            Err(AttackError::InvalidConfig(_))
        ));
    }

    #[test]
    fn eviction_set_sizes_follow_the_machine() {
        let sys = System::undefended(vulnerable_test_machine(3));
        assert_eq!(PtHammer::tlb_eviction_pages(&sys), 12);
        assert_eq!(PtHammer::llc_eviction_lines(&sys), 9);
    }

    #[test]
    fn end_to_end_attack_escalates_on_vulnerable_machine() {
        let mut sys = System::undefended(vulnerable_test_machine(7));
        let pid = sys.spawn_process(1000).unwrap();
        let config = AttackConfig {
            spray_bytes: 640 << 20,
            hammer_rounds_per_attempt: 1_500,
            max_attempts: 20,
            llc_profile_trials: 6,
            ..AttackConfig::quick_test(7, false)
        };
        let attack = PtHammer::new(config).unwrap();
        let outcome = attack.run_with(&mut sys, pid, RunOptions::new()).unwrap();

        assert_eq!(outcome.uid_before, 1000);
        assert_eq!(outcome.defense, DefenseKind::Undefended);
        assert_eq!(outcome.hammer_mode, HammerMode::ImplicitDoubleSided);
        assert!(outcome.attempts >= 1);
        assert!(
            outcome.flips_observed >= 1,
            "ci-profile DRAM should produce flips: {outcome:?}"
        );
        assert!(outcome.timings.time_to_first_flip_cycles.is_some());
        assert!(outcome.implicit_dram_rate > 0.5);
        assert!(!outcome.hammer_cycle_samples.is_empty());
        // Escalation is probabilistic (the captured frame must be useful) but
        // with the ci profile and this budget it should normally succeed; if
        // it did, uid dropped to 0.
        if outcome.escalated {
            assert_eq!(outcome.uid_after, 0);
            assert!(outcome.timings.time_to_escalation_cycles.is_some());
        }
    }

    /// An event recorder asserting the pipeline's phase protocol: balanced
    /// enter/exit pairs, `Prepare` exactly once, and subscriber-derived
    /// counts matching the outcome.
    #[derive(Default)]
    struct Protocol {
        entered: Vec<AttackPhase>,
        exited: Vec<AttackPhase>,
        attempts: usize,
        iterations: u64,
        flips: usize,
    }

    impl EventSink for Protocol {
        fn on_event(&mut self, event: &AttackEvent) {
            match event {
                AttackEvent::PhaseEntered { phase, .. } => self.entered.push(*phase),
                AttackEvent::PhaseExited { phase, .. } => self.exited.push(*phase),
                AttackEvent::AttemptStarted { .. } => self.attempts += 1,
                AttackEvent::HammerFinished { stats, .. } => self.iterations += stats.rounds,
                AttackEvent::FlipObserved { .. } => self.flips += 1,
                _ => {}
            }
        }
    }

    #[test]
    fn observed_run_streams_consistent_events_and_identical_outcome() {
        let config = AttackConfig {
            spray_bytes: 640 << 20,
            hammer_rounds_per_attempt: 800,
            max_attempts: 4,
            llc_profile_trials: 6,
            ..AttackConfig::quick_test(11, false)
        };
        let attack = PtHammer::new(config).unwrap();

        let mut sys = System::undefended(vulnerable_test_machine(11));
        let pid = sys.spawn_process(1000).unwrap();
        let plain = attack.run_with(&mut sys, pid, RunOptions::new()).unwrap();

        let mut sys = System::undefended(vulnerable_test_machine(11));
        let pid = sys.spawn_process(1000).unwrap();
        let mut protocol = Protocol::default();
        let observed = attack
            .run_with(&mut sys, pid, RunOptions::new().observed_by(&mut protocol))
            .unwrap();

        // Subscribers only observe: the outcome is identical either way.
        assert_eq!(plain, observed);
        // Balanced phase protocol, Prepare exactly once and first.
        assert_eq!(protocol.entered, protocol.exited);
        assert_eq!(protocol.entered[0], AttackPhase::Prepare);
        assert_eq!(
            protocol
                .entered
                .iter()
                .filter(|p| **p == AttackPhase::Prepare)
                .count(),
            1
        );
        // The event stream carries the same headline numbers the outcome
        // reports — no re-derivation needed.
        assert_eq!(protocol.attempts, observed.attempts);
        assert_eq!(protocol.iterations, observed.hammer_iterations);
        assert_eq!(protocol.flips, observed.flips_observed);
    }
}
