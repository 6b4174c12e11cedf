//! Pluggable hammer strategies.
//!
//! PThammer is one point in a family of cross-boundary hammering techniques
//! (TeleHammer generalises the pattern; "Another Flip in the Wall" shows
//! one-location hammering defeats pair-based defenses). The attack pipeline
//! therefore does not hardcode implicit double-sided hammering: a
//! [`HammerStrategy`] decides, per candidate pair, how eviction state is
//! built ([`HammerStrategy::arm`]), whether the pair is accepted, and which
//! exact per-iteration touch pattern ([`HammerStrategy::round_ops`]) the
//! hammer phase executes.
//!
//! Four strategies are provided, selected by [`HammerMode`]:
//!
//! * [`HammerMode::ImplicitDoubleSided`] — the paper's attack: same-bank
//!   verified pairs, both targets' TLB entries and L1PTE lines evicted, both
//!   targets touched. Byte-identical to the pre-pipeline driver.
//! * [`HammerMode::ExplicitDoubleSided`] — the conventional baseline: the
//!   attacker accesses and `clflush`es the pair targets itself. Its DRAM
//!   traffic lands in the attacker's own (aliased) data frame, never in the
//!   kernel's page-table rows — the contrast motivating the paper.
//! * [`HammerMode::ImplicitSingleSided`] — Seaborn-style: every candidate
//!   pair is hammered without same-bank verification; the two targets act as
//!   independent single-sided aggressors.
//! * [`HammerMode::ImplicitOneLocation`] — a single implicit aggressor: only
//!   the low target is armed and touched each iteration.

use std::fmt;
use std::str::FromStr;

use pthammer_kernel::{Pid, System};
use pthammer_types::VirtAddr;

use crate::config::AttackConfig;
use crate::error::AttackError;
use crate::eviction::llc::SelectedEvictionSet;
use crate::eviction::tlb::TlbEvictionSet;
use crate::hammer::implicit::ImplicitHammer;
use crate::pairs::{verify_same_bank, HammerPair, PairVerification};
use crate::pipeline::PreparedAttack;

/// Which hammer strategy the attack pipeline runs.
///
/// Flows end-to-end: `AttackConfig` → the campaign matrix axis → cell
/// reports and attack outcomes → the repro binaries and perf workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HammerMode {
    /// Paper-faithful implicit double-sided hammering (the default).
    #[default]
    ImplicitDoubleSided,
    /// Explicit `clflush`-based double-sided baseline.
    ExplicitDoubleSided,
    /// Implicit single-sided hammering (unverified aggressor pairs).
    ImplicitSingleSided,
    /// Implicit one-location hammering (a single aggressor).
    ImplicitOneLocation,
}

impl HammerMode {
    /// Every mode, default first (matrix-axis order).
    pub fn all() -> Vec<HammerMode> {
        vec![
            HammerMode::ImplicitDoubleSided,
            HammerMode::ExplicitDoubleSided,
            HammerMode::ImplicitSingleSided,
            HammerMode::ImplicitOneLocation,
        ]
    }

    /// Canonical kebab-case name (used in reports and tables).
    pub fn name(&self) -> &'static str {
        match self {
            HammerMode::ImplicitDoubleSided => "implicit-double-sided",
            HammerMode::ExplicitDoubleSided => "explicit-double-sided",
            HammerMode::ImplicitSingleSided => "implicit-single-sided",
            HammerMode::ImplicitOneLocation => "implicit-one-location",
        }
    }

    /// True for the paper's default mode — the one the golden campaign
    /// snapshot pins byte-for-byte.
    pub fn is_default(&self) -> bool {
        *self == HammerMode::ImplicitDoubleSided
    }

    /// Instantiates the strategy implementing this mode.
    pub fn strategy(&self) -> Box<dyn HammerStrategy> {
        match self {
            HammerMode::ImplicitDoubleSided => Box::new(ImplicitDoubleSided),
            HammerMode::ExplicitDoubleSided => Box::new(ExplicitDoubleSided),
            HammerMode::ImplicitSingleSided => Box::new(ImplicitSingleSided),
            HammerMode::ImplicitOneLocation => Box::new(ImplicitOneLocation),
        }
    }
}

impl fmt::Display for HammerMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for HammerMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        HammerMode::all()
            .into_iter()
            .find(|m| m.name() == s)
            .ok_or_else(|| format!("unknown hammer mode `{s}`"))
    }
}

// Every serialization site — the campaign matrix axis, cell/summary rows,
// attack configs and outcomes — uses the one kebab-case spelling that
// `FromStr` accepts and the `--mode` CLI uses.
serde::string_enum!(HammerMode);

/// One member of a hammer pair — or, for many-sided patterns, an indexed
/// aggressor of the armed aggressor set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// The lower virtual address of the pair.
    Low,
    /// The upper virtual address of the pair.
    High,
    /// The `i`-th aggressor of a many-sided armed set (pattern strategies;
    /// index 0 is the base pair's low target, 1 its high target).
    Aggressor(u8),
}

/// One operation of a hammer iteration. A strategy's per-round touch pattern
/// is a sequence of these, compiled by [`crate::trace::CompiledTrace`] — and
/// assertable verbatim in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundOp {
    /// Evict the target's TLB entry (Algorithm 1 eviction set).
    EvictTlb(Target),
    /// Evict the target's Level-1 PTE from the LLC (Algorithm 2 set).
    EvictLlc(Target),
    /// Touch the target, triggering a page-table walk whose L1PTE load is
    /// the implicit DRAM access.
    TouchImplicit(Target),
    /// Plain data access to the target (explicit hammering).
    AccessData(Target),
    /// `clflush` the target's own cache line (explicit hammering).
    Clflush(Target),
    /// Burn this many cycles without touching memory (the NOP padding of
    /// the Figure 5 sweep).
    Compute(u64),
}

/// Per-pair eviction state built by [`HammerStrategy::arm`].
#[derive(Debug, Clone, PartialEq)]
pub struct ArmedPair {
    /// The pair being hammered.
    pub pair: HammerPair,
    /// Strategy-specific eviction state.
    state: ArmedState,
}

/// What an armed pair carries, by strategy family.
#[derive(Debug, Clone, PartialEq)]
enum ArmedState {
    /// Both targets fully armed (double-/single-sided implicit hammering).
    Implicit(ImplicitHammer),
    /// Only the low target armed (one-location hammering).
    ImplicitLow {
        /// TLB eviction set for the low target.
        tlb: TlbEvictionSet,
        /// LLC eviction set for the low target's L1PTE.
        llc: SelectedEvictionSet,
    },
    /// No eviction state (explicit hammering).
    Explicit,
    /// An n-sided aggressor set, each aggressor fully armed (pattern
    /// hammering). Aggressor 0 is the base pair's low target, aggressor 1
    /// its high target.
    Multi {
        /// Virtual address of every aggressor, in pattern index order.
        aggressors: Vec<VirtAddr>,
        /// Per-aggressor `(TLB set, LLC set)` eviction state, parallel to
        /// `aggressors`.
        sets: Vec<(TlbEvictionSet, SelectedEvictionSet)>,
    },
}

/// Result of arming one candidate pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmResult {
    /// The armed pair, or `None` when the strategy rejected the candidate
    /// (e.g. the same-bank verification failed).
    pub armed: Option<ArmedPair>,
    /// Simulated cycles spent drawing TLB eviction sets.
    pub tlb_selection_cycles: u64,
    /// Simulated cycles spent on LLC eviction-set selection (Algorithm 2).
    pub llc_selection_cycles: u64,
    /// The timing-based verification, for strategies that perform one.
    pub verification: Option<PairVerification>,
}

/// Outcome of executing one hammer iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RoundOutcome {
    /// Simulated cycles the iteration took.
    pub cycles: u64,
    /// Whether the low target's implicit L1PTE load reached DRAM.
    pub low_dram: bool,
    /// Whether the high target's implicit L1PTE load reached DRAM.
    pub high_dram: bool,
    /// Implicit [`Target::Aggressor`] touches of this iteration whose L1PTE
    /// load reached DRAM (0 for the pair-addressed strategies).
    pub aggressor_dram_hits: u64,
}

impl ArmedPair {
    /// Arms `pair` for explicit hammering: no eviction state, so only
    /// [`RoundOp::AccessData`], [`RoundOp::Clflush`] and [`RoundOp::Compute`]
    /// resolve against it.
    pub fn explicit(pair: HammerPair) -> Self {
        Self {
            pair,
            state: ArmedState::Explicit,
        }
    }

    /// Arms an n-sided aggressor set for pattern hammering: `aggressors[i]`
    /// is addressed by [`Target::Aggressor`]`(i)` and hammered with
    /// `sets[i]`. Aggressor 0 must be `pair.low` and aggressor 1 `pair.high`
    /// (the timing-verified base pair the detection phase scans around).
    ///
    /// # Panics
    ///
    /// Panics if `aggressors` and `sets` differ in length, fewer than two
    /// aggressors are supplied, or the first two aggressors are not the base
    /// pair.
    pub fn multi(
        pair: HammerPair,
        aggressors: Vec<VirtAddr>,
        sets: Vec<(TlbEvictionSet, SelectedEvictionSet)>,
    ) -> Self {
        assert_eq!(
            aggressors.len(),
            sets.len(),
            "one eviction-set pair per aggressor"
        );
        assert!(aggressors.len() >= 2, "a pattern needs the base pair");
        assert_eq!(aggressors[0], pair.low, "aggressor 0 is the base low");
        assert_eq!(aggressors[1], pair.high, "aggressor 1 is the base high");
        Self {
            pair,
            state: ArmedState::Multi { aggressors, sets },
        }
    }

    fn low_sets(&self) -> Result<(&TlbEvictionSet, &SelectedEvictionSet), AttackError> {
        match &self.state {
            ArmedState::Implicit(h) => Ok((&h.tlb_low, &h.llc_low)),
            ArmedState::ImplicitLow { tlb, llc } => Ok((tlb, llc)),
            ArmedState::Multi { sets, .. } => Ok((&sets[0].0, &sets[0].1)),
            ArmedState::Explicit => Err(AttackError::EvictionSetUnavailable(
                "explicit strategy has no eviction sets".to_string(),
            )),
        }
    }

    fn high_sets(&self) -> Result<(&TlbEvictionSet, &SelectedEvictionSet), AttackError> {
        match &self.state {
            ArmedState::Implicit(h) => Ok((&h.tlb_high, &h.llc_high)),
            ArmedState::Multi { sets, .. } => Ok((&sets[1].0, &sets[1].1)),
            ArmedState::ImplicitLow { .. } | ArmedState::Explicit => {
                Err(AttackError::EvictionSetUnavailable(
                    "strategy did not arm the high target".to_string(),
                ))
            }
        }
    }

    fn aggressor_sets(
        &self,
        index: u8,
    ) -> Result<(&TlbEvictionSet, &SelectedEvictionSet), AttackError> {
        match &self.state {
            ArmedState::Multi { sets, .. } => sets
                .get(usize::from(index))
                .map(|(tlb, llc)| (tlb, llc))
                .ok_or_else(|| {
                    AttackError::EvictionSetUnavailable(format!(
                        "pattern armed {} aggressors, op addresses index {index}",
                        sets.len()
                    ))
                }),
            _ => Err(AttackError::EvictionSetUnavailable(
                "strategy did not arm an aggressor set".to_string(),
            )),
        }
    }

    /// The armed `(TLB, LLC)` eviction sets for `target` — the resolution
    /// the trace compiler ([`crate::trace::CompiledTrace`]) hoists out of
    /// the per-round loop.
    pub(crate) fn sets_for(
        &self,
        target: Target,
    ) -> Result<(&TlbEvictionSet, &SelectedEvictionSet), AttackError> {
        match target {
            Target::Low => self.low_sets(),
            Target::High => self.high_sets(),
            Target::Aggressor(i) => self.aggressor_sets(i),
        }
    }

    /// The virtual address `target` resolves to, likewise hoisted to
    /// compile time by the trace compiler.
    pub(crate) fn addr(&self, target: Target) -> Result<VirtAddr, AttackError> {
        match target {
            Target::Low => Ok(self.pair.low),
            Target::High => Ok(self.pair.high),
            Target::Aggressor(i) => match &self.state {
                ArmedState::Multi { aggressors, .. } => {
                    aggressors.get(usize::from(i)).copied().ok_or_else(|| {
                        AttackError::EvictionSetUnavailable(format!(
                            "pattern armed {} aggressors, op addresses index {i}",
                            aggressors.len()
                        ))
                    })
                }
                _ => Err(AttackError::EvictionSetUnavailable(
                    "strategy did not arm an aggressor set".to_string(),
                )),
            },
        }
    }
}

/// A hammer strategy: how one candidate pair is armed, gated and hammered.
///
/// Strategies are pure policy — they run simulated work only through the
/// unprivileged syscall surface and report what they did; events are emitted
/// by the pipeline that drives them.
pub trait HammerStrategy: fmt::Debug + Send {
    /// The mode this strategy implements.
    fn mode(&self) -> HammerMode;

    /// The exact per-iteration operation pattern the hammer phase executes.
    /// Borrowed from the strategy so synthesized (non-`'static`) patterns
    /// work like the built-in modes. The hammer phase compiles this schedule
    /// once per attempt into a [`crate::trace::CompiledTrace`] and replays
    /// the dense trace.
    fn round_ops(&self) -> &[RoundOp];

    /// Number of implicit (page-walk) target touches per iteration — the
    /// denominator of the implicit DRAM rate. Counted over
    /// [`round_ops`](Self::round_ops).
    fn implicit_touches_per_round(&self) -> u64 {
        self.round_ops()
            .iter()
            .filter(|op| matches!(op, RoundOp::TouchImplicit(_)))
            .count() as u64
    }

    /// Builds the per-pair eviction state and decides whether the candidate
    /// is hammered at all.
    fn arm(
        &self,
        sys: &mut System,
        pid: Pid,
        pair: HammerPair,
        prepared: &PreparedAttack,
        config: &AttackConfig,
        conflict_threshold: u64,
    ) -> Result<ArmResult, AttackError>;
}

/// Times the (pool-local, side-effect-free) TLB eviction-set draws for both
/// targets, mirroring the historical driver's selection bookkeeping.
fn timed_tlb_draw(
    sys: &System,
    prepared: &PreparedAttack,
    pair: HammerPair,
    both: bool,
) -> (u64, TlbEvictionSet, Option<TlbEvictionSet>) {
    let start = sys.rdtsc();
    let low = prepared.tlb_pool.minimal_eviction_set_for(pair.low);
    let high = both.then(|| prepared.tlb_pool.minimal_eviction_set_for(pair.high));
    (sys.rdtsc() - start, low, high)
}

/// The paper's implicit double-sided strategy (the default mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ImplicitDoubleSided;

/// Per-round pattern of the implicit double-sided strategy: evict both
/// targets' TLB entries, then both L1PTE lines, then touch both targets.
const IMPLICIT_DOUBLE_SIDED_OPS: [RoundOp; 6] = [
    RoundOp::EvictTlb(Target::Low),
    RoundOp::EvictTlb(Target::High),
    RoundOp::EvictLlc(Target::Low),
    RoundOp::EvictLlc(Target::High),
    RoundOp::TouchImplicit(Target::Low),
    RoundOp::TouchImplicit(Target::High),
];

impl HammerStrategy for ImplicitDoubleSided {
    fn mode(&self) -> HammerMode {
        HammerMode::ImplicitDoubleSided
    }

    fn round_ops(&self) -> &[RoundOp] {
        &IMPLICIT_DOUBLE_SIDED_OPS
    }

    fn arm(
        &self,
        sys: &mut System,
        pid: Pid,
        pair: HammerPair,
        prepared: &PreparedAttack,
        config: &AttackConfig,
        conflict_threshold: u64,
    ) -> Result<ArmResult, AttackError> {
        let (tlb_selection_cycles, _, _) = timed_tlb_draw(sys, prepared, pair, true);
        let hammer = ImplicitHammer::prepare(
            sys,
            pid,
            pair,
            &prepared.tlb_pool,
            &prepared.llc_pool,
            config.llc_profile_trials,
        )?;
        let llc_selection_cycles = hammer.selection_cycles();
        let verification = verify_same_bank(
            sys,
            pid,
            pair,
            &hammer.tlb_low,
            &hammer.tlb_high,
            &hammer.llc_low,
            &hammer.llc_high,
            conflict_threshold,
            5,
        )?;
        let armed = verification.same_bank.then_some(ArmedPair {
            pair,
            state: ArmedState::Implicit(hammer),
        });
        Ok(ArmResult {
            armed,
            tlb_selection_cycles,
            llc_selection_cycles,
            verification: Some(verification),
        })
    }
}

/// The explicit `clflush`-based double-sided baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExplicitDoubleSided;

const EXPLICIT_DOUBLE_SIDED_OPS: [RoundOp; 4] = [
    RoundOp::AccessData(Target::Low),
    RoundOp::AccessData(Target::High),
    RoundOp::Clflush(Target::Low),
    RoundOp::Clflush(Target::High),
];

impl HammerStrategy for ExplicitDoubleSided {
    fn mode(&self) -> HammerMode {
        HammerMode::ExplicitDoubleSided
    }

    fn round_ops(&self) -> &[RoundOp] {
        &EXPLICIT_DOUBLE_SIDED_OPS
    }

    fn arm(
        &self,
        _sys: &mut System,
        _pid: Pid,
        pair: HammerPair,
        _prepared: &PreparedAttack,
        _config: &AttackConfig,
        _conflict_threshold: u64,
    ) -> Result<ArmResult, AttackError> {
        // No eviction sets and no same-bank gate: the attacker flushes its
        // own lines, which is all an explicit hammer can do.
        Ok(ArmResult {
            armed: Some(ArmedPair::explicit(pair)),
            tlb_selection_cycles: 0,
            llc_selection_cycles: 0,
            verification: None,
        })
    }
}

/// Implicit single-sided hammering: every candidate pair is armed like the
/// double-sided strategy but hammered without same-bank verification — the
/// two targets act as independent aggressors (Seaborn-style random pairs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ImplicitSingleSided;

impl HammerStrategy for ImplicitSingleSided {
    fn mode(&self) -> HammerMode {
        HammerMode::ImplicitSingleSided
    }

    fn round_ops(&self) -> &[RoundOp] {
        &IMPLICIT_DOUBLE_SIDED_OPS
    }

    fn arm(
        &self,
        sys: &mut System,
        pid: Pid,
        pair: HammerPair,
        prepared: &PreparedAttack,
        config: &AttackConfig,
        _conflict_threshold: u64,
    ) -> Result<ArmResult, AttackError> {
        let (tlb_selection_cycles, _, _) = timed_tlb_draw(sys, prepared, pair, true);
        let hammer = ImplicitHammer::prepare(
            sys,
            pid,
            pair,
            &prepared.tlb_pool,
            &prepared.llc_pool,
            config.llc_profile_trials,
        )?;
        let llc_selection_cycles = hammer.selection_cycles();
        Ok(ArmResult {
            armed: Some(ArmedPair {
                pair,
                state: ArmedState::Implicit(hammer),
            }),
            tlb_selection_cycles,
            llc_selection_cycles,
            verification: None,
        })
    }
}

/// Implicit one-location hammering: a single aggressor, armed and touched
/// alone. Defeats defenses that assume double-sided aggressor pairs
/// ("Another Flip in the Wall").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ImplicitOneLocation;

const IMPLICIT_ONE_LOCATION_OPS: [RoundOp; 3] = [
    RoundOp::EvictTlb(Target::Low),
    RoundOp::EvictLlc(Target::Low),
    RoundOp::TouchImplicit(Target::Low),
];

impl HammerStrategy for ImplicitOneLocation {
    fn mode(&self) -> HammerMode {
        HammerMode::ImplicitOneLocation
    }

    fn round_ops(&self) -> &[RoundOp] {
        &IMPLICIT_ONE_LOCATION_OPS
    }

    fn arm(
        &self,
        sys: &mut System,
        pid: Pid,
        pair: HammerPair,
        prepared: &PreparedAttack,
        config: &AttackConfig,
        _conflict_threshold: u64,
    ) -> Result<ArmResult, AttackError> {
        let (tlb_selection_cycles, tlb_low, _) = timed_tlb_draw(sys, prepared, pair, false);
        if tlb_low.is_empty() {
            return Err(AttackError::EvictionSetUnavailable(
                "TLB eviction pool has no pages for the target's sets".to_string(),
            ));
        }
        let llc = prepared.llc_pool.select_for_l1pte(
            sys,
            pid,
            pair.low,
            &tlb_low,
            config.llc_profile_trials,
        )?;
        let llc_selection_cycles = llc.selection_cycles;
        Ok(ArmResult {
            armed: Some(ArmedPair {
                pair,
                state: ArmedState::ImplicitLow { tlb: tlb_low, llc },
            }),
            tlb_selection_cycles,
            llc_selection_cycles,
            verification: None,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::pipeline::prepare_attack;
    use crate::trace::CompiledTrace;
    use pthammer_cache::{CacheHierarchyConfig, LlcConfig, ReplacementPolicy};
    use pthammer_dram::FlipModelProfile;
    use pthammer_machine::MachineConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Small machine with a small LLC so pool construction stays fast, but a
    /// realistic TLB and DRAM mapping.
    pub(crate) fn tiny_system(seed: u64) -> (System, Pid) {
        let mut cfg = MachineConfig::test_small(FlipModelProfile::invulnerable(), seed);
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
        let mut sys = System::undefended(cfg);
        let pid = sys.spawn_process(1000).unwrap();
        (sys, pid)
    }

    pub(crate) fn tiny_config(seed: u64) -> AttackConfig {
        AttackConfig {
            spray_bytes: 512 << 20,
            llc_profile_trials: 6,
            ..AttackConfig::quick_test(seed, false)
        }
    }

    /// Prepares the attack and arms the first candidate pair `mode`'s
    /// strategy accepts, drawing candidates from an RNG seeded with
    /// `config.seed`.
    pub(crate) fn armed_for(
        mode: HammerMode,
        sys: &mut System,
        pid: Pid,
        config: &AttackConfig,
    ) -> (Box<dyn HammerStrategy>, ArmedPair) {
        let prepared = prepare_attack(sys, pid, config).unwrap();
        let row_span = sys.machine().config().dram.geometry.row_span_bytes();
        let threshold = crate::pairs::conflict_threshold(sys);
        let strategy = mode.strategy();
        let mut rng = StdRng::seed_from_u64(config.seed);
        for _ in 0..16 {
            for pair in candidate_pairs(&prepared.spray, row_span, 4, &mut rng) {
                let arm = strategy
                    .arm(sys, pid, pair, &prepared, config, threshold)
                    .unwrap();
                if let Some(armed) = arm.armed {
                    return (strategy, armed);
                }
            }
        }
        panic!("no armable pair for {mode:?}");
    }

    use crate::pairs::candidate_pairs;

    #[test]
    fn mode_names_round_trip_and_default_is_the_paper_mode() {
        assert_eq!(HammerMode::all().len(), 4);
        for mode in HammerMode::all() {
            assert_eq!(mode.name().parse::<HammerMode>().unwrap(), mode);
            assert_eq!(mode.to_string(), mode.name());
            assert_eq!(mode.strategy().mode(), mode);
        }
        assert!(HammerMode::default().is_default());
        assert!(!HammerMode::ImplicitOneLocation.is_default());
        assert!("seventeen-sided".parse::<HammerMode>().is_err());
    }

    /// The exact per-iteration touch pattern of every strategy, asserted
    /// verbatim. The default pattern is the paper's loop operation for
    /// operation — the byte-identity of the pipeline's default path rests on
    /// it.
    #[test]
    fn round_op_patterns_are_exact() {
        use RoundOp::*;
        use Target::*;
        assert_eq!(
            ImplicitDoubleSided.round_ops(),
            [
                EvictTlb(Low),
                EvictTlb(High),
                EvictLlc(Low),
                EvictLlc(High),
                TouchImplicit(Low),
                TouchImplicit(High),
            ]
        );
        assert_eq!(
            ImplicitSingleSided.round_ops(),
            ImplicitDoubleSided.round_ops(),
            "single-sided hammers the same unverified touch pattern"
        );
        assert_eq!(
            ImplicitOneLocation.round_ops(),
            [EvictTlb(Low), EvictLlc(Low), TouchImplicit(Low)]
        );
        assert_eq!(
            ExplicitDoubleSided.round_ops(),
            [
                AccessData(Low),
                AccessData(High),
                Clflush(Low),
                Clflush(High),
            ]
        );
        assert_eq!(ImplicitDoubleSided.implicit_touches_per_round(), 2);
        assert_eq!(ImplicitSingleSided.implicit_touches_per_round(), 2);
        assert_eq!(ImplicitOneLocation.implicit_touches_per_round(), 1);
        assert_eq!(ExplicitDoubleSided.implicit_touches_per_round(), 0);
    }

    #[test]
    fn one_location_strategy_touches_only_the_low_target() {
        let config = tiny_config(31);
        let (mut sys, pid) = tiny_system(31);
        let (strategy, armed) = armed_for(HammerMode::ImplicitOneLocation, &mut sys, pid, &config);
        let round = CompiledTrace::compile(&armed, strategy.round_ops(), &sys, pid)
            .unwrap()
            .replay(&mut sys, pid)
            .unwrap();
        assert!(round.low_dram, "the single implicit load must reach DRAM");
        assert!(!round.high_dram, "the high target is never touched");
        // The armed pair has no high-target sets: compiling the double-sided
        // pattern against it is a usage error, not silent misbehavior.
        assert!(
            CompiledTrace::compile(&armed, ImplicitDoubleSided.round_ops(), &sys, pid).is_err()
        );
    }

    #[test]
    fn explicit_strategy_performs_no_implicit_loads() {
        let config = tiny_config(37);
        let (mut sys, pid) = tiny_system(37);
        let (strategy, armed) = armed_for(HammerMode::ExplicitDoubleSided, &mut sys, pid, &config);
        let trace = CompiledTrace::compile(&armed, strategy.round_ops(), &sys, pid).unwrap();
        let walks_before = sys.machine().tlb_pmc().walks;
        // Warm the pair's translations once, then measure steady state.
        trace.replay(&mut sys, pid).unwrap();
        let walks_warm = sys.machine().tlb_pmc().walks;
        let round = trace.replay(&mut sys, pid).unwrap();
        assert!(!round.low_dram && !round.high_dram);
        assert!(round.cycles > 0);
        assert!(walks_warm >= walks_before);
        assert_eq!(
            sys.machine().tlb_pmc().walks,
            walks_warm,
            "steady-state explicit rounds never trigger page-table walks"
        );
    }

    #[test]
    fn single_sided_accepts_pairs_the_verifier_would_reject() {
        let config = tiny_config(41);
        let (mut sys, pid) = tiny_system(41);
        let prepared = prepare_attack(&mut sys, pid, &config).unwrap();
        let row_span = sys.machine().config().dram.geometry.row_span_bytes();
        let threshold = crate::pairs::conflict_threshold(&sys);
        let mut rng = StdRng::seed_from_u64(41);
        let pairs = candidate_pairs(&prepared.spray, row_span, 8, &mut rng);
        let mut ds_accepted = 0;
        let mut ss_accepted = 0;
        for pair in pairs {
            let ds = ImplicitDoubleSided
                .arm(&mut sys, pid, pair, &prepared, &config, threshold)
                .unwrap();
            assert!(ds.verification.is_some());
            ds_accepted += usize::from(ds.armed.is_some());
            let ss = ImplicitSingleSided
                .arm(&mut sys, pid, pair, &prepared, &config, threshold)
                .unwrap();
            assert!(ss.verification.is_none());
            ss_accepted += usize::from(ss.armed.is_some());
        }
        assert_eq!(ss_accepted, 8, "single-sided accepts every candidate");
        assert!(
            ds_accepted <= ss_accepted,
            "double-sided gates on the row-buffer conflict"
        );
    }
}
