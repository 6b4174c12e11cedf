//! Pluggable hammer strategies.
//!
//! PThammer is one point in a family of cross-boundary hammering techniques
//! (TeleHammer generalises the pattern; "Another Flip in the Wall" shows
//! one-location hammering defeats pair-based defenses). The attack pipeline
//! therefore does not hardcode implicit double-sided hammering: a
//! [`HammerStrategy`] decides, per candidate pair, how eviction state is
//! built ([`HammerStrategy::arm`]), whether the pair is accepted, and which
//! exact per-iteration touch pattern ([`HammerStrategy::round_ops`]) the
//! hammer phase executes. Every implicit strategy arms through
//! [`arm_implicit`], which gives each aggressor an [`ArmedAggressor`].
//!
//! [`HammerMode`] is the built-in strategy; its implementation is one table
//! row per mode:
//!
//! * [`HammerMode::ImplicitDoubleSided`] — the paper's attack: same-bank
//!   verified pairs, both targets' TLB entries and L1PTE lines evicted, both
//!   targets touched.
//! * [`HammerMode::ExplicitDoubleSided`] — the conventional baseline: the
//!   attacker accesses and `clflush`es the pair targets itself. Its DRAM
//!   traffic lands in the attacker's own (aliased) data frame, never in the
//!   kernel's page-table rows — the contrast motivating the paper.
//! * [`HammerMode::ImplicitSingleSided`] — Seaborn-style: every candidate
//!   pair is hammered without same-bank verification; the two targets act as
//!   independent single-sided aggressors.
//! * [`HammerMode::ImplicitOneLocation`] — a single implicit aggressor: only
//!   the low target is armed and touched each iteration.
//!
//! The only other implementor is the synthesized many-sided pattern of
//! crate `pthammer-patterns`.

use std::fmt;
use std::str::FromStr;

use pthammer_kernel::{Pid, System};
use pthammer_types::VirtAddr;

use crate::config::AttackConfig;
use crate::error::AttackError;
use crate::eviction::llc::SelectedEvictionSet;
use crate::eviction::tlb::TlbEvictionSet;
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
    /// The armed aggressors in [`Target`] index order: none for explicit
    /// hammering, `[low]` for one-location, `[low, high]` for the double-
    /// and single-sided strategies and one per aggressor for patterns.
    aggressors: Vec<ArmedAggressor>,
}

/// One implicit aggressor as the paper arms it (Sections III-B and III-C):
/// the Algorithm 1 TLB eviction set of its page and the Algorithm 2 LLC
/// eviction set of its Level-1 PTE.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmedAggressor {
    /// The address whose touch makes the page walk load the L1PTE.
    pub va: VirtAddr,
    /// TLB eviction set for `va` (Algorithm 1).
    pub tlb: TlbEvictionSet,
    /// LLC eviction set for `va`'s L1PTE (Algorithm 2).
    pub llc: SelectedEvictionSet,
}

/// Result of arming one candidate pair. The default is a candidate rejected
/// before any selection ran.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ArmResult {
    /// The armed pair, or `None` when the strategy rejected the candidate
    /// (e.g. the same-bank verification failed).
    pub armed: Option<ArmedPair>,
    /// Simulated cycles spent drawing TLB eviction sets. Reads 0 in this
    /// model: a draw is pool-local and makes no simulated access, which is
    /// why Table II's `TLBsel(us)` column is 0.00.
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
            aggressors: Vec::new(),
        }
    }

    /// The armed aggressor `target` names: entry 0 for [`Target::Low`], 1
    /// for [`Target::High`] and `i` for [`Target::Aggressor`]`(i)`. The
    /// trace compiler ([`crate::trace::CompiledTrace`]) hoists this lookup
    /// out of the per-round loop.
    pub(crate) fn aggressor(&self, target: Target) -> Result<&ArmedAggressor, AttackError> {
        let index = match target {
            Target::Low => 0,
            Target::High => 1,
            Target::Aggressor(i) => usize::from(i),
        };
        self.aggressors.get(index).ok_or_else(|| {
            AttackError::EvictionSetUnavailable(format!(
                "{target:?} is not armed: the strategy armed {} aggressors",
                self.aggressors.len()
            ))
        })
    }

    /// The address a data access or `clflush` of `target` goes to: the pair
    /// members for [`Target::Low`] and [`Target::High`], which explicit
    /// pairs hammer without arming them.
    pub(crate) fn data_addr(&self, target: Target) -> Result<VirtAddr, AttackError> {
        match target {
            Target::Low => Ok(self.pair.low),
            Target::High => Ok(self.pair.high),
            Target::Aggressor(_) => self.aggressor(target).map(|a| a.va),
        }
    }
}

/// Arms `aggressors` for implicit hammering; every implicit strategy arms
/// through this. Aggressor 0 must be `pair.low` and aggressor 1, if given,
/// `pair.high`.
///
/// It draws every aggressor's TLB eviction set first (pool-local, no
/// simulated access), so an empty draw fails before any simulated work.
/// Then it runs Algorithm 2 for each aggressor's L1PTE in index order. With
/// a `conflict_threshold`, every aggressor after the first is probed
/// against aggressor 0 for a row-buffer conflict (same bank) as soon as it
/// is armed. The first failed probe rejects the candidate and is reported;
/// otherwise the base pair's probe is.
///
/// # Panics
///
/// Panics if the first aggressors are not the pair's targets.
pub fn arm_implicit(
    sys: &mut System,
    pid: Pid,
    pair: HammerPair,
    aggressors: &[VirtAddr],
    prepared: &PreparedAttack,
    config: &AttackConfig,
    conflict_threshold: Option<u64>,
) -> Result<ArmResult, AttackError> {
    assert!(
        aggressors.first() == Some(&pair.low) && aggressors.get(1).is_none_or(|&v| v == pair.high),
        "aggressors 0 and 1 are the pair's low and high targets"
    );
    let start = sys.rdtsc();
    let tlb_sets: Vec<TlbEvictionSet> = aggressors
        .iter()
        .map(|&va| prepared.tlb_pool.minimal_eviction_set_for(va))
        .collect();
    let mut result = ArmResult {
        tlb_selection_cycles: sys.rdtsc() - start,
        ..ArmResult::default()
    };
    if tlb_sets.iter().any(TlbEvictionSet::is_empty) {
        return Err(AttackError::EvictionSetUnavailable(
            "TLB eviction pool has no pages for an aggressor's sets".to_string(),
        ));
    }
    let mut armed = Vec::with_capacity(aggressors.len());
    for (&va, tlb) in aggressors.iter().zip(tlb_sets) {
        let llc =
            prepared
                .llc_pool
                .select_for_l1pte(sys, pid, va, &tlb, config.llc_profile_trials)?;
        result.llc_selection_cycles += llc.selection_cycles;
        armed.push(ArmedAggressor { va, tlb, llc });
        if let (Some(threshold), [base, .., newest]) = (conflict_threshold, armed.as_slice()) {
            let (low, high) = if base.va <= newest.va {
                (base, newest)
            } else {
                (newest, base)
            };
            let probe = verify_same_bank(sys, pid, low, high, threshold)?;
            if !probe.same_bank {
                result.verification = Some(probe);
                return Ok(result);
            }
            result.verification.get_or_insert(probe);
        }
    }
    result.armed = Some(ArmedPair {
        pair,
        aggressors: armed,
    });
    Ok(result)
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

/// Per-round pattern of the implicit double- and single-sided modes: evict
/// both targets' TLB entries, then both L1PTE lines, then touch both targets.
const IMPLICIT_DOUBLE_SIDED_OPS: [RoundOp; 6] = [
    RoundOp::EvictTlb(Target::Low),
    RoundOp::EvictTlb(Target::High),
    RoundOp::EvictLlc(Target::Low),
    RoundOp::EvictLlc(Target::High),
    RoundOp::TouchImplicit(Target::Low),
    RoundOp::TouchImplicit(Target::High),
];

/// Per-round pattern of the explicit `clflush` baseline.
const EXPLICIT_DOUBLE_SIDED_OPS: [RoundOp; 4] = [
    RoundOp::AccessData(Target::Low),
    RoundOp::AccessData(Target::High),
    RoundOp::Clflush(Target::Low),
    RoundOp::Clflush(Target::High),
];

/// Per-round pattern of one-location hammering: the low target alone.
const IMPLICIT_ONE_LOCATION_OPS: [RoundOp; 3] = [
    RoundOp::EvictTlb(Target::Low),
    RoundOp::EvictLlc(Target::Low),
    RoundOp::TouchImplicit(Target::Low),
];

/// The built-in strategies: one row of the mode table each.
impl HammerStrategy for HammerMode {
    fn mode(&self) -> HammerMode {
        *self
    }

    fn round_ops(&self) -> &[RoundOp] {
        match self {
            HammerMode::ImplicitDoubleSided | HammerMode::ImplicitSingleSided => {
                &IMPLICIT_DOUBLE_SIDED_OPS
            }
            HammerMode::ExplicitDoubleSided => &EXPLICIT_DOUBLE_SIDED_OPS,
            HammerMode::ImplicitOneLocation => &IMPLICIT_ONE_LOCATION_OPS,
        }
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
        let both = [pair.low, pair.high];
        let (aggressors, gate) = match self {
            HammerMode::ImplicitDoubleSided => (&both[..], Some(conflict_threshold)),
            HammerMode::ImplicitSingleSided => (&both[..], None),
            HammerMode::ImplicitOneLocation => (&both[..1], None),
            // No eviction sets and no same-bank gate: the attacker flushes
            // its own lines, which is all an explicit hammer can do.
            HammerMode::ExplicitDoubleSided => {
                return Ok(ArmResult {
                    armed: Some(ArmedPair::explicit(pair)),
                    ..ArmResult::default()
                })
            }
        };
        arm_implicit(sys, pid, pair, aggressors, prepared, config, gate)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::pipeline::prepare_attack;
    use crate::trace::CompiledTrace;
    use pthammer_dram::FlipModelProfile;
    use pthammer_machine::MachineConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The CI-scale machine on invulnerable DRAM: a small LLC so pool
    /// construction stays fast, but a realistic TLB and DRAM mapping.
    pub(crate) fn tiny_system(seed: u64) -> (System, Pid) {
        let cfg = MachineConfig::ci_small(FlipModelProfile::invulnerable(), seed);
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

    /// Prepares the attack and arms the first candidate pair `mode`
    /// accepts, drawing candidates from an RNG seeded with `config.seed`.
    pub(crate) fn armed_for(
        mode: HammerMode,
        sys: &mut System,
        pid: Pid,
        config: &AttackConfig,
    ) -> ArmedPair {
        let prepared = prepare_attack(sys, pid, config).unwrap();
        let row_span = sys.machine().config().dram.geometry.row_span_bytes();
        let threshold = crate::pairs::conflict_threshold(sys);
        let mut rng = StdRng::seed_from_u64(config.seed);
        for _ in 0..16 {
            for pair in candidate_pairs(&prepared.spray, row_span, 4, &mut rng) {
                let arm = mode
                    .arm(sys, pid, pair, &prepared, config, threshold)
                    .unwrap();
                if let Some(armed) = arm.armed {
                    return armed;
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
            assert_eq!(mode.mode(), mode);
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
        use HammerMode::*;
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
        let mode = HammerMode::ImplicitOneLocation;
        let armed = armed_for(mode, &mut sys, pid, &config);
        let round = CompiledTrace::compile(&armed, mode.round_ops(), &sys, pid)
            .unwrap()
            .replay(&mut sys, pid)
            .unwrap();
        assert!(round.low_dram, "the single implicit load must reach DRAM");
        assert!(!round.high_dram, "the high target is never touched");
        // Addressing a target the strategy never armed is a usage error, not
        // silent misbehavior: the double-sided pattern's high target, any
        // eviction op on an explicit pair, and the aggressor one past the
        // armed count.
        let explicit = ArmedPair::explicit(armed.pair);
        for (pair, ops) in [
            (&armed, HammerMode::ImplicitDoubleSided.round_ops()),
            (&explicit, &[RoundOp::EvictTlb(Target::Low)][..]),
            (&armed, &[RoundOp::EvictLlc(Target::Aggressor(1))][..]),
        ] {
            assert!(
                matches!(
                    CompiledTrace::compile(pair, ops, &sys, pid),
                    Err(AttackError::EvictionSetUnavailable(_))
                ),
                "{ops:?}"
            );
        }
    }

    #[test]
    fn explicit_strategy_performs_no_implicit_loads() {
        let config = tiny_config(37);
        let (mut sys, pid) = tiny_system(37);
        let mode = HammerMode::ExplicitDoubleSided;
        let armed = armed_for(mode, &mut sys, pid, &config);
        let trace = CompiledTrace::compile(&armed, mode.round_ops(), &sys, pid).unwrap();
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
            let ds = HammerMode::ImplicitDoubleSided
                .arm(&mut sys, pid, pair, &prepared, &config, threshold)
                .unwrap();
            assert!(ds.verification.is_some());
            ds_accepted += usize::from(ds.armed.is_some());
            let ss = HammerMode::ImplicitSingleSided
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
