//! Experiment implementations for every table and figure of the paper.

use pthammer::victim::KeyRecovery;
use pthammer::{
    detect::scan_for_corrupted_mappings,
    eviction::{calibrate_llc_eviction, calibrate_tlb_eviction},
    hammer::{strategy::ExplicitDoubleSided, ArmedPair, HammerStats, RoundOp},
    pairs::{candidate_pairs, conflict_threshold, pair_stride},
    pipeline::prepare_attack,
    spray::spray_page_tables,
    AttackConfig, AttackOutcome, CompiledTrace, HammerMode, HammerPair, HammerStrategy, PtHammer,
    RunOptions,
};
use pthammer_defenses::{AnvilDetector, AnvilMode};
use pthammer_dram::{FlipModelProfile, TrrConfig};
use pthammer_harness::{
    run_campaign, run_cell, CampaignConfig, CampaignReport, CellCoord, CellReport, ProfileChoice,
    ScenarioMatrix, VictimChoice,
};
use pthammer_kernel::{
    DefaultPolicy, KernelConfig, MmapOptions, Pid, PlacementPolicy, System, VmaBacking,
};
use pthammer_mmu::Pte;
use pthammer_patterns::{synthesize, PatternChoice, SynthesisResult};
use pthammer_perf::{HammerAccounting, MachineCounters, Stopwatch};
use pthammer_types::{PhysAddr, VirtAddr, HUGE_PAGE_SIZE, PAGE_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

pub use pthammer_defenses::DefenseChoice;
pub use pthammer_machine::MachineChoice;

/// Experiment scale: scaled (default, CI/laptop friendly) or full
/// (paper-calibrated weak-cell profile and spray size).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentScale {
    /// Whether the full paper-calibrated profile is used.
    pub full: bool,
}

impl ExperimentScale {
    /// Reads the scale from the `PTHAMMER_FULL` environment variable.
    pub fn from_env() -> Self {
        Self {
            full: std::env::var("PTHAMMER_FULL")
                .map(|v| v == "1")
                .unwrap_or(false),
        }
    }

    /// Forced scaled mode (used by tests).
    pub fn scaled() -> Self {
        Self { full: false }
    }

    /// The weak-cell profile for this scale.
    pub fn flip_profile(&self) -> FlipModelProfile {
        self.profile_choice().profile()
    }

    /// The named profile axis value for this scale (campaign harness axis).
    pub fn profile_choice(&self) -> ProfileChoice {
        if self.full {
            ProfileChoice::Paper
        } else {
            ProfileChoice::Fast
        }
    }

    /// The campaign-harness configuration for this scale.
    pub fn campaign_config(&self, base_seed: u64) -> CampaignConfig {
        if self.full {
            CampaignConfig::full(base_seed)
        } else {
            CampaignConfig::scaled(base_seed)
        }
    }

    /// The attack configuration for this scale: the campaign preset's
    /// attack, so bench scenarios and campaigns share one set of knobs.
    pub fn attack_config(&self, seed: u64, superpages: bool) -> AttackConfig {
        AttackConfig {
            seed,
            superpages,
            ..self.campaign_config(seed).attack
        }
    }

    /// Human-readable description of the scale.
    pub fn describe(&self) -> &'static str {
        if self.full {
            "full (paper-calibrated weak-cell profile)"
        } else {
            "scaled (fast weak-cell profile; set PTHAMMER_FULL=1 for the paper profile)"
        }
    }
}

/// Boots a system on the chosen machine with the given defense policy.
pub fn boot(
    machine: MachineChoice,
    scale: ExperimentScale,
    superpages: bool,
    policy: Box<dyn PlacementPolicy>,
    seed: u64,
) -> System {
    let config = machine.config(scale.flip_profile(), seed);
    let kernel = if superpages {
        KernelConfig::with_superpages()
    } else {
        KernelConfig::default_config()
    };
    System::new(config, kernel, policy)
}

// ---------------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------------

/// One row of Table I (system configurations).
pub fn table1_rows() -> Vec<[String; 5]> {
    MachineChoice::all()
        .into_iter()
        .map(|m| {
            let cfg = m.config(FlipModelProfile::paper(), 1);
            [
                cfg.name.clone(),
                format!(
                    "{}-way L1d, {}-way L2s",
                    cfg.mmu.l1_dtlb.ways, cfg.mmu.l2_stlb.ways
                ),
                format!(
                    "{}-way, {} MiB",
                    cfg.cache.llc.ways,
                    cfg.cache.llc.capacity_bytes() >> 20
                ),
                format!("{} GiB DDR3", cfg.dram.geometry.capacity_bytes() >> 30),
                format!("{:.1} GHz", cfg.clock_hz / 1e9),
            ]
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 3 / Figure 4: eviction-set size sweeps
// ---------------------------------------------------------------------------

/// TLB miss rate as a function of the eviction-set size (Figure 3).
pub fn fig3_tlb_sweep(
    machine: MachineChoice,
    scale: ExperimentScale,
    seed: u64,
) -> Vec<(usize, f64)> {
    let mut sys = boot(machine, scale, false, Box::new(DefaultPolicy::new()), seed);
    let pid = sys.spawn_process(1000).expect("spawn");
    let config = scale.attack_config(seed, false);
    calibrate_tlb_eviction(&mut sys, pid, &config)
        .expect("TLB calibration")
        .miss_rates
}

/// LLC miss rate as a function of the eviction-set size (Figure 4).
pub fn fig4_llc_sweep(
    machine: MachineChoice,
    scale: ExperimentScale,
    seed: u64,
) -> Vec<(usize, f64)> {
    let mut sys = boot(machine, scale, false, Box::new(DefaultPolicy::new()), seed);
    let pid = sys.spawn_process(1000).expect("spawn");
    let config = scale.attack_config(seed, false);
    calibrate_llc_eviction(&mut sys, pid, &config)
        .expect("LLC calibration")
        .miss_rates
}

// ---------------------------------------------------------------------------
// Figure 5: time to first flip vs. cycles per hammering iteration
// ---------------------------------------------------------------------------

/// One point of the Figure 5 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig5Point {
    /// NOP padding added per iteration.
    pub padding_cycles: u64,
    /// Measured cycles per hammering iteration (including the padding).
    pub cycles_per_iteration: u64,
    /// Simulated seconds until the first flip, `None` if none occurred within
    /// the budget.
    pub seconds_to_first_flip: Option<f64>,
}

/// An attacker-owned buffer filled with ones, so true-cell (1→0) flips show
/// as changed lines: what the explicit `clflush` hammer of Section II-B
/// hammers in Figure 5, the ANVIL contrast and the TRR ablation.
struct OnesBuffer {
    base: VirtAddr,
    len: u64,
    row_span: u64,
}

impl OnesBuffer {
    /// Maps and populates a `len`-byte buffer.
    fn map(sys: &mut System, pid: Pid, len: u64) -> Self {
        let options = MmapOptions {
            populate: true,
            backing: VmaBacking::Anonymous {
                fill_pattern: u64::MAX,
            },
            ..MmapOptions::default()
        };
        Self {
            base: sys.mmap(pid, len, options).expect("map the hammer buffer"),
            len,
            row_span: sys.machine().config().dram.geometry.row_span_bytes(),
        }
    }

    /// Rows of the buffer.
    fn rows(&self) -> u64 {
        self.len / self.row_span
    }

    /// The aggressors one row below and one row above `victim_row`, each
    /// `offset` bytes into its row.
    fn pair(&self, victim_row: u64, offset: u64) -> HammerPair {
        let low = self.base + (victim_row - 1) * self.row_span + offset;
        HammerPair {
            low,
            high: low + 2 * self.row_span,
        }
    }

    /// Hammers `pair` explicitly for `rounds` rounds, each padded by
    /// `padding` cycles of computation.
    fn hammer(
        &self,
        sys: &mut System,
        pid: Pid,
        pair: HammerPair,
        padding: u64,
        rounds: u64,
    ) -> HammerStats {
        let mut ops = ExplicitDoubleSided.round_ops().to_vec();
        if padding > 0 {
            ops.push(RoundOp::Compute(padding));
        }
        let armed = ArmedPair::explicit(pair);
        CompiledTrace::compile(&armed, &ops, sys, pid)
            .and_then(|mut trace| trace.hammer(&armed, &ops, sys, pid, rounds, |_| {}))
            .expect("explicit hammer")
    }

    /// The lines of `rows` (clipped to the buffer) that no longer hold
    /// ones, reading one word per line in address order as they are pulled.
    fn changed_lines<'a>(
        &'a self,
        sys: &'a mut System,
        pid: Pid,
        rows: Range<u64>,
    ) -> impl Iterator<Item = VirtAddr> + 'a {
        let end = (rows.end * self.row_span).min(self.len);
        (rows.start * self.row_span..end)
            .step_by(64)
            .map(move |offset| self.base + offset)
            .filter(move |&line| sys.read_u64(pid, line).expect("scan").value != u64::MAX)
    }
}

/// Runs the explicit double-sided hammer with increasing NOP padding and
/// records the simulated time to the first flip (Figure 5).
///
/// Each padding measures one round on the pair around row 1 after a
/// warm-up round, then hammers seeded random targets in turn until a row
/// next to an aggressor shows a changed line or the cycle budget is spent.
pub fn fig5_padding_sweep(
    machine: MachineChoice,
    scale: ExperimentScale,
    paddings: &[u64],
    seed: u64,
) -> Vec<Fig5Point> {
    let (len, rounds_per_target, budget) = if scale.full {
        (256 << 20, 200_000, 2_600_000_000_000)
    } else {
        (64 << 20, 1_500, 400_000_000)
    };
    paddings
        .iter()
        .map(|&padding| {
            let mut sys = boot(machine, scale, false, Box::new(DefaultPolicy::new()), seed);
            let clock_hz = sys.machine().clock_hz();
            let pid = sys.spawn_process(1000).expect("spawn");
            let buffer = OnesBuffer::map(&mut sys, pid, len);
            buffer.hammer(&mut sys, pid, buffer.pair(1, 0), padding, 1);
            let cycles_per_iteration = buffer
                .hammer(&mut sys, pid, buffer.pair(1, 0), padding, 1)
                .total_cycles;
            let mut rng = StdRng::seed_from_u64(seed);
            let start = sys.rdtsc();
            let flip_cycles = loop {
                let victim_row = rng.gen_range(1..buffer.rows().saturating_sub(1).max(2));
                let offset = rng.gen_range(0..buffer.row_span / PAGE_SIZE) * PAGE_SIZE;
                let pair = buffer.pair(victim_row, offset);
                buffer.hammer(&mut sys, pid, pair, padding, rounds_per_target);
                // Scan only the rows next to each aggressor, low first.
                let mut neighbours = [pair.low, pair.high].into_iter().flat_map(|aggressor| {
                    let row = (aggressor - buffer.base) / buffer.row_span;
                    [row.checked_sub(1), Some(row + 1)].into_iter().flatten()
                });
                if neighbours.any(|row| {
                    buffer
                        .changed_lines(&mut sys, pid, row..row + 1)
                        .next()
                        .is_some()
                }) {
                    break Some(sys.rdtsc() - start);
                }
                if sys.rdtsc() - start > budget {
                    break None;
                }
            };
            Fig5Point {
                padding_cycles: padding,
                cycles_per_iteration,
                seconds_to_first_flip: flip_cycles.map(|cycles| cycles as f64 / clock_hz),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 6: cycles per double-sided implicit hammer iteration
// ---------------------------------------------------------------------------

/// Boots `machine` (undefended), prepares the attack and arms the first
/// candidate pair `mode`'s strategy accepts — the setup the hammer
/// microbenchmark, Figure 6 and the ANVIL window share. Returns the system,
/// the attacker's pid, the strategy and its armed pair.
fn arm_first_pair(
    machine: MachineChoice,
    scale: ExperimentScale,
    superpages: bool,
    mode: HammerMode,
    seed: u64,
) -> (System, Pid, Box<dyn HammerStrategy>, ArmedPair) {
    let mut sys = boot(
        machine,
        scale,
        superpages,
        Box::new(DefaultPolicy::new()),
        seed,
    );
    let pid = sys.spawn_process(1000).expect("spawn");
    let mut config = scale.attack_config(seed, superpages);
    config.hammer_mode = mode;
    let prepared = prepare_attack(&mut sys, pid, &config).expect("prepare");
    let row_span = sys.machine().config().dram.geometry.row_span_bytes();
    let threshold = conflict_threshold(&sys);
    let strategy = mode.strategy();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..16 {
        for pair in candidate_pairs(&prepared.spray, row_span, 4, &mut rng) {
            let arm = strategy
                .arm(&mut sys, pid, pair, &prepared, &config, threshold)
                .expect("arm");
            if let Some(armed) = arm.armed {
                return (sys, pid, strategy, armed);
            }
        }
    }
    panic!("no armable candidate pair for {mode:?}");
}

/// Collects 50 per-iteration cycle samples of the implicit double-sided
/// hammer (Figure 6a: regular pages, Figure 6b: superpages).
///
/// The figure samples the first candidate pair the spray yields, unverified,
/// so the pair is armed by the single-sided strategy, whose round is the
/// double-sided loop.
pub fn fig6_hammer_samples(
    machine: MachineChoice,
    superpages: bool,
    scale: ExperimentScale,
    seed: u64,
) -> Vec<u64> {
    let (mut sys, pid, strategy, armed) = arm_first_pair(
        machine,
        scale,
        superpages,
        HammerMode::ImplicitSingleSided,
        seed,
    );
    let ops = strategy.round_ops();
    let mut trace = CompiledTrace::compile(&armed, ops, &sys, pid).expect("compile");
    trace
        .hammer(&armed, ops, &mut sys, pid, 10, |_| {})
        .expect("warm up");
    let mut samples = Vec::with_capacity(50);
    trace
        .hammer(&armed, ops, &mut sys, pid, 50, |round| {
            samples.push(round.cycles)
        })
        .expect("samples");
    samples
}

// ---------------------------------------------------------------------------
// Hammer microbenchmark (perf-counter routed)
// ---------------------------------------------------------------------------

/// Measured result of the pinned hammer microbenchmark.
///
/// Every number is routed through `pthammer-perf`: iteration counts and
/// per-iteration costs come from [`HammerAccounting`], hardware events from
/// [`MachineCounters`] deltas. `repro table1 --measured` and `perf_report`
/// consume this struct instead of re-deriving timings ad hoc.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HammerMicrobench {
    /// Iteration count and simulated cycle cost of the measured loop.
    pub accounting: HammerAccounting,
    /// Simulated hardware events of the measured loop (counter deltas).
    pub counters: MachineCounters,
    /// Fraction of implicit touches whose L1PTE loads reached DRAM.
    pub implicit_dram_rate: f64,
    /// Host wall-clock time of the measured loop.
    pub wall_ns: u64,
    /// Iterations of the measured loop that ran as fast rounds (host
    /// telemetry; the simulated work does not depend on it).
    pub fast_forwarded_rounds: u64,
    /// Runs of fast rounds the measured loop entered.
    pub fast_forward_entries: u64,
}

/// Runs the pinned hammer microbenchmark for `mode`: prepares the attack,
/// arms the first candidate pair the strategy accepts, compiles its round
/// ops into a [`CompiledTrace`], warms up, then hammers `rounds` iterations
/// — exactly the hammer phase's loop — with perf counters bracketing it.
///
/// Superpages are used on the Table I machines so the one-off LLC pool
/// preparation stays cheap (the measured loop is identical in both
/// settings); the small test machine builds its pool quickly either way.
pub fn hammer_microbench(
    machine: MachineChoice,
    scale: ExperimentScale,
    mode: HammerMode,
    rounds: u64,
    seed: u64,
) -> HammerMicrobench {
    let superpages = machine != MachineChoice::TestSmall;
    let (mut sys, pid, strategy, armed) = arm_first_pair(machine, scale, superpages, mode, seed);
    let clock_hz = sys.machine().clock_hz();
    let ops = strategy.round_ops();
    let mut trace = CompiledTrace::compile(&armed, ops, &sys, pid).expect("compile");
    trace
        .hammer(&armed, ops, &mut sys, pid, 10, |_| {})
        .expect("warm up");

    let before = MachineCounters::capture(sys.machine());
    let watch = Stopwatch::start();
    let stats = trace
        .hammer(&armed, ops, &mut sys, pid, rounds, |_| {})
        .expect("hammer");
    let wall_ns = watch.elapsed_ns();
    let counters = MachineCounters::capture(sys.machine()).since(&before);
    let implicit_touches = strategy.implicit_touches_per_round() * rounds;
    let dram_hits = stats.low_dram_hits + stats.high_dram_hits + stats.aggressor_dram_hits;
    HammerMicrobench {
        accounting: HammerAccounting::new(stats.rounds, stats.total_cycles, clock_hz),
        counters,
        implicit_dram_rate: if implicit_touches == 0 {
            0.0
        } else {
            dram_hits as f64 / implicit_touches as f64
        },
        wall_ns,
        fast_forwarded_rounds: stats.fast_forwarded_rounds,
        fast_forward_entries: stats.fast_forward_entries,
    }
}

// ---------------------------------------------------------------------------
// Detect-scan microbenchmark (perf-counter routed)
// ---------------------------------------------------------------------------

/// Measured result of the pinned detect-scan microbenchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectScanMicrobench {
    /// Simulated hardware events of the measured scans (counter deltas).
    pub counters: MachineCounters,
    /// Simulated cycles of the measured scans.
    pub sim_cycles: u64,
    /// Scans run.
    pub scans: u64,
    /// Pages the scans read.
    pub pages: u64,
    /// Corrupted mappings the scans found.
    pub findings: u64,
    /// Pages served without a walker call (host telemetry; the simulated
    /// work does not depend on it).
    pub batched_pages: u64,
    /// Host wall-clock time of the measured scans.
    pub wall_ns: u64,
}

/// Runs the pinned detect-scan microbenchmark: sprays `machine`'s page
/// tables (undefended, regular pages), then for each of `scans` pairs 128
/// MiB of VA apart redirects one sprayed L1PTE of its victim range at
/// another Level-1 page table, clears the present bit of another, touches
/// the pair's low address (so a TLB holds it, as after hammering) and runs
/// Detect's scan of the pair — the pipeline's check step, with perf
/// counters bracketing the scans.
pub fn detect_scan_microbench(
    machine: MachineChoice,
    scale: ExperimentScale,
    scans: u64,
    seed: u64,
) -> DetectScanMicrobench {
    let mut sys = boot(machine, scale, false, Box::new(DefaultPolicy::new()), seed);
    let pid = sys.spawn_process(1000).expect("spawn");
    let config = scale.attack_config(seed, false);
    let spray = spray_page_tables(&mut sys, pid, &config).expect("spray");
    let row_span = sys.machine().config().dram.geometry.row_span_bytes();
    let pairs: Vec<HammerPair> = (0..scans)
        .map(|k| {
            let low = spray.base + k * (128 << 20) + 5 * PAGE_SIZE;
            HammerPair {
                low,
                high: low + pair_stride(row_span),
            }
        })
        .collect();
    for (k, pair) in pairs.iter().enumerate() {
        let (victims, _) = pair.victim_va_range(row_span);
        let redirected = victims + (1000 + 37 * k as u64) * PAGE_SIZE;
        let captured = victims + 3 * HUGE_PAGE_SIZE;
        let table = sys.oracle_l1pte_paddr(pid, captured).expect("sprayed");
        let entry = sys.oracle_l1pte_paddr(pid, redirected).expect("sprayed");
        let raw = sys.machine().phys_read_u64(entry);
        let flags = Pte::from_raw(raw).flags();
        let pte = Pte::page(PhysAddr::new(table.as_u64() & !(PAGE_SIZE - 1)), flags);
        sys.machine_mut().phys_write_u64(entry, pte.raw());
        let unmapped = victims + (5000 + 11 * k as u64) * PAGE_SIZE;
        let entry = sys.oracle_l1pte_paddr(pid, unmapped).expect("sprayed");
        let raw = sys.machine().phys_read_u64(entry);
        sys.machine_mut().phys_write_u64(entry, raw & !1);
    }

    let before = MachineCounters::capture(sys.machine());
    let batched_before = sys.machine().batched_run_pages();
    let (mut sim_cycles, mut pages, mut findings) = (0, 0, 0);
    let watch = Stopwatch::start();
    for pair in &pairs {
        sys.read_u64(pid, pair.low).expect("touch the pair");
        let (found, cycles) =
            scan_for_corrupted_mappings(&mut sys, pid, &spray, pair, row_span).expect("scan");
        sim_cycles += cycles;
        findings += found.len() as u64;
        let (start, end) = pair.victim_va_range(row_span);
        pages += (end.as_u64().min(spray.end().as_u64()) - start.as_u64()) / PAGE_SIZE;
    }
    let wall_ns = watch.elapsed_ns();
    DetectScanMicrobench {
        counters: MachineCounters::capture(sys.machine()).since(&before),
        sim_cycles,
        scans,
        pages,
        findings,
        batched_pages: sys.machine().batched_run_pages() - batched_before,
        wall_ns,
    }
}

// ---------------------------------------------------------------------------
// Table II: end-to-end attack timings
// ---------------------------------------------------------------------------

/// Runs the full attack on one machine/setting with the hammer strategy
/// `mode` (Table II's stage timings and time to the first flip).
pub fn table2_run(
    machine: MachineChoice,
    superpages: bool,
    scale: ExperimentScale,
    mode: HammerMode,
    seed: u64,
) -> AttackOutcome {
    let mut sys = boot(
        machine,
        scale,
        superpages,
        Box::new(DefaultPolicy::new()),
        seed,
    );
    let pid = sys.spawn_process(1000).expect("spawn");
    let mut config = scale.attack_config(seed, superpages);
    config.hammer_mode = mode;
    let attack = PtHammer::new(config).expect("config");
    attack
        .run_with(&mut sys, pid, RunOptions::new())
        .expect("attack run")
}

// ---------------------------------------------------------------------------
// Section IV-C / IV-D accuracy experiments
// ---------------------------------------------------------------------------

/// Measures the false-positive rate of Algorithm 2's LLC eviction-set
/// selection against the oracle (Section IV-C; paper: ≤ 6%).
pub fn selection_accuracy(
    machine: MachineChoice,
    scale: ExperimentScale,
    samples: usize,
    seed: u64,
) -> f64 {
    // Superpage setting so the pool builds quickly; the selection algorithm
    // itself is identical in both settings.
    let mut sys = boot(machine, scale, true, Box::new(DefaultPolicy::new()), seed);
    let pid = sys.spawn_process(1000).expect("spawn");
    let config = scale.attack_config(seed, true);
    let prepared = prepare_attack(&mut sys, pid, &config).expect("prepare");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC);
    let row_span = sys.machine().config().dram.geometry.row_span_bytes();
    let pairs = candidate_pairs(&prepared.spray, row_span, samples, &mut rng);

    let mut false_positives = 0usize;
    let mut total = 0usize;
    for pair in pairs.iter().take(samples) {
        for &target in &[pair.low, pair.high] {
            let tlb_set = prepared.tlb_pool.minimal_eviction_set_for(target);
            // More profiling trials than the hammer loop uses: selection is a
            // one-off per pair, so the attacker can afford the precision.
            let selected = prepared
                .llc_pool
                .select_for_l1pte(
                    &mut sys,
                    pid,
                    target,
                    &tlb_set,
                    config.llc_profile_trials.max(12),
                )
                .expect("selection");
            let l1pte_pa = sys.oracle_l1pte_paddr(pid, target).expect("l1pte");
            let expected = pthammer_machine::llc_location(sys.machine(), l1pte_pa);
            let line_pa = sys
                .oracle_translate(pid, selected.lines[0])
                .expect("line mapped");
            let got = pthammer_machine::llc_location(sys.machine(), line_pa);
            total += 1;
            if got != expected {
                false_positives += 1;
            }
        }
    }
    false_positives as f64 / total.max(1) as f64
}

/// Result of the pair-selection accuracy experiment (Section IV-D).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairSelectionAccuracy {
    /// Fraction of pairs flagged slow (same-bank by timing).
    pub flagged_fraction: f64,
    /// Of the flagged pairs, fraction whose L1PTEs really share a bank
    /// (paper: > 95%).
    pub same_bank_fraction: f64,
    /// Of the same-bank pairs, fraction whose L1PTEs are exactly two rows
    /// apart (paper: ~90%).
    pub two_rows_apart_fraction: f64,
}

/// Verifies candidate pairs by row-buffer-conflict timing and checks the
/// flagged ones against the oracle (Section IV-D).
pub fn pair_selection_accuracy(
    machine: MachineChoice,
    scale: ExperimentScale,
    pair_count: usize,
    seed: u64,
) -> PairSelectionAccuracy {
    let mut sys = boot(machine, scale, true, Box::new(DefaultPolicy::new()), seed);
    let pid = sys.spawn_process(1000).expect("spawn");
    let config = scale.attack_config(seed, true);
    let prepared = prepare_attack(&mut sys, pid, &config).expect("prepare");
    let row_span = sys.machine().config().dram.geometry.row_span_bytes();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD);
    let pairs = candidate_pairs(&prepared.spray, row_span, pair_count, &mut rng);
    let threshold = conflict_threshold(&sys);
    let strategy = HammerMode::ImplicitDoubleSided.strategy();

    let mut flagged = 0usize;
    let mut same_bank = 0usize;
    let mut two_rows = 0usize;
    for &pair in &pairs {
        let verification = strategy
            .arm(&mut sys, pid, pair, &prepared, &config, threshold)
            .expect("arm")
            .verification
            .expect("double-sided arming verifies the pair");
        if !verification.same_bank {
            continue;
        }
        flagged += 1;
        let low_pa = sys.oracle_l1pte_paddr(pid, pair.low).expect("low l1pte");
        let high_pa = sys.oracle_l1pte_paddr(pid, pair.high).expect("high l1pte");
        let low_loc = pthammer_machine::dram_location(sys.machine(), low_pa);
        let high_loc = pthammer_machine::dram_location(sys.machine(), high_pa);
        if low_loc.same_bank(&high_loc) {
            same_bank += 1;
            if high_loc.row.abs_diff(low_loc.row) == 2 {
                two_rows += 1;
            }
        }
    }
    PairSelectionAccuracy {
        flagged_fraction: flagged as f64 / pairs.len().max(1) as f64,
        same_bank_fraction: same_bank as f64 / flagged.max(1) as f64,
        two_rows_apart_fraction: two_rows as f64 / same_bank.max(1) as f64,
    }
}

// ---------------------------------------------------------------------------
// Section IV-G: software-only defenses
// ---------------------------------------------------------------------------

/// Runs the full Section IV-G defense sweep (every [`DefenseChoice`]) as one
/// parallel campaign on the chosen machine and returns the aggregated
/// report, including per-defense escalation rates and deltas against the
/// undefended baseline.
pub fn defense_campaign(
    machine: MachineChoice,
    scale: ExperimentScale,
    repetitions: u32,
    base_seed: u64,
) -> CampaignReport {
    let matrix = ScenarioMatrix::new(
        vec![machine],
        DefenseChoice::all(),
        vec![scale.profile_choice()],
        repetitions,
    );
    run_campaign(&matrix, &scale.campaign_config(base_seed))
}

// ---------------------------------------------------------------------------
// ANVIL detection and ablations
// ---------------------------------------------------------------------------

/// Detection rates of an ANVIL-style detector against explicit and implicit
/// hammering (Section V discussion).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnvilEvaluation {
    /// Detection rate of unmodified ANVIL against explicit clflush hammering.
    pub explicit_detected: bool,
    /// Detection rate of unmodified ANVIL against PThammer.
    pub implicit_detected_naive: bool,
    /// Detection rate of the extended detector (implicit accesses attributed)
    /// against PThammer.
    pub implicit_detected_extended: bool,
    /// DRAM activation rate (per Mcycle) the unmodified detector attributes
    /// to the explicit hammer.
    pub explicit_rate: f64,
    /// Implicit (page-walk) DRAM activation rate (per Mcycle) of PThammer.
    pub implicit_rate: f64,
}

/// Runs both hammer kinds for a fixed window and feeds the observable DRAM
/// access counts to the ANVIL detector variants.
pub fn anvil_eval(machine: MachineChoice, scale: ExperimentScale, seed: u64) -> AnvilEvaluation {
    let threshold = 400.0;
    // Explicit hammering window.
    let explicit_rates = {
        let mut sys = boot(machine, scale, false, Box::new(DefaultPolicy::new()), seed);
        let pid = sys.spawn_process(1000).expect("spawn");
        let buffer = OnesBuffer::map(&mut sys, pid, 16 << 20);
        let start_cycles = sys.rdtsc();
        let start = sys.machine().dram_stats().accesses;
        buffer.hammer(&mut sys, pid, buffer.pair(1, 0), 0, 2_000);
        let window = sys.rdtsc() - start_cycles;
        let dram_accesses = sys.machine().dram_stats().accesses - start;
        // All of an explicit hammer's DRAM traffic comes from its own loads.
        (window, dram_accesses, 0u64)
    };
    // Implicit (PThammer) hammering window (superpage setting: the detection
    // argument is independent of the page size and the eviction pools are
    // built much faster).
    let implicit_rates = {
        let (mut sys, pid, strategy, armed) =
            arm_first_pair(machine, scale, true, HammerMode::ImplicitSingleSided, seed);
        let ops = strategy.round_ops();
        let mut trace = CompiledTrace::compile(&armed, ops, &sys, pid).expect("compile");
        let start_cycles = sys.rdtsc();
        let start = sys.machine().dram_stats().accesses;
        let stats = trace
            .hammer(&armed, ops, &mut sys, pid, 2_000, |_| {})
            .expect("hammer");
        let window = sys.rdtsc() - start_cycles;
        let dram_accesses = sys.machine().dram_stats().accesses - start;
        // The aggressor-row activations are the implicit L1PTE loads; the
        // attacker's own (explicit) loads are the remainder.
        let implicit = stats.low_dram_hits + stats.high_dram_hits;
        (window, dram_accesses.saturating_sub(implicit), implicit)
    };

    let mut naive_explicit = AnvilDetector::new(AnvilMode::ExplicitLoadsOnly, threshold);
    let mut naive_implicit = AnvilDetector::new(AnvilMode::ExplicitLoadsOnly, threshold);
    let mut extended_implicit = AnvilDetector::new(AnvilMode::IncludeImplicitAccesses, threshold);

    let explicit_verdict =
        naive_explicit.observe_window(explicit_rates.0, explicit_rates.1, explicit_rates.2);
    let naive_verdict = naive_implicit.observe_window(implicit_rates.0, 0, implicit_rates.2);
    let extended_verdict = extended_implicit.observe_window(implicit_rates.0, 0, implicit_rates.2);
    AnvilEvaluation {
        explicit_detected: explicit_verdict.detected,
        implicit_detected_naive: naive_verdict.detected,
        implicit_detected_extended: extended_verdict.detected,
        explicit_rate: explicit_verdict.observed_activation_rate,
        implicit_rate: extended_verdict.observed_activation_rate,
    }
}

/// TRR ablation: flips observed with and without Target Row Refresh under the
/// same hammering workload.
pub fn ablation_trr(machine: MachineChoice, scale: ExperimentScale, seed: u64) -> (usize, usize) {
    let run = |trr: TrrConfig| -> usize {
        let mut machine_cfg = machine.config(scale.flip_profile(), seed);
        machine_cfg.dram.trr = trr;
        let mut sys = System::new(
            machine_cfg,
            KernelConfig::default_config(),
            Box::new(DefaultPolicy::new()),
        );
        let pid = sys.spawn_process(1000).expect("spawn");
        let buffer = OnesBuffer::map(&mut sys, pid, 32 << 20);
        let rounds = if scale.full { 150_000 } else { 4_000 };
        buffer.hammer(&mut sys, pid, buffer.pair(1, 0), 0, rounds);
        buffer
            .changed_lines(&mut sys, pid, 0..buffer.rows())
            .count()
    };
    let without = run(TrrConfig::disabled());
    let with_trr = run(TrrConfig::enabled(1_000, 16));
    (without, with_trr)
}

// ---------------------------------------------------------------------------
// TRR-era contrast and the Section V victim sweep (TestSmall CI cells)
// ---------------------------------------------------------------------------

/// The TRR-era contrast: the paper's stock implicit double-sided attack
/// without and with an in-DRAM TRR sampler, and a synthesized many-sided
/// pattern on the TRR machine.
#[derive(Debug)]
pub struct TrrContrast {
    /// The TRR machine the synthesizer preview searched.
    pub trr_machine: String,
    /// Its TRR sampler's capacity.
    pub sampler_capacity: usize,
    /// What the synthesizer finds there at the base seed (each cell
    /// re-derives its pattern from its own seed).
    pub preview: SynthesisResult,
    /// Stock double-sided on the DDR3-era machine (no TRR).
    pub ddr3_double_sided: CellReport,
    /// Stock double-sided on the TRR machine.
    pub trr_double_sided: CellReport,
    /// The synthesized pattern on the TRR machine.
    pub trr_synthesized: CellReport,
}

/// Runs the TRR-era contrast at `base_seed` on `TestSmall` and
/// `TestSmallTrr`.
pub fn trr_contrast(base_seed: u64) -> TrrContrast {
    let config = CampaignConfig::trr_ci(base_seed);
    let machine = MachineChoice::TestSmallTrr.config(ProfileChoice::Ci.profile(), base_seed);
    let cell = |machine, pattern| {
        let coord = CellCoord::new(machine, DefenseChoice::None, ProfileChoice::Ci, 0);
        run_cell(&CellCoord { pattern, ..coord }, &config)
    };
    TrrContrast {
        preview: synthesize(&config.synthesis_config(&machine), base_seed),
        sampler_capacity: machine.dram.trr.sampler_capacity,
        trr_machine: machine.name,
        ddr3_double_sided: cell(MachineChoice::TestSmall, None),
        trr_double_sided: cell(MachineChoice::TestSmallTrr, None),
        trr_synthesized: cell(
            MachineChoice::TestSmallTrr,
            Some(PatternChoice::Synthesized),
        ),
    }
}

/// One victim of the Section V sweep, attacked without and with CTA.
#[derive(Debug)]
pub struct VictimRow {
    /// The victim.
    pub victim: VictimChoice,
    /// Its cell on the undefended machine.
    pub undefended: CellReport,
    /// Its cell on the CTA-defended machine.
    pub cta: CellReport,
}

/// The Section V victim sweep: every shipped victim against an undefended
/// and a CTA-defended `TestSmall`.
#[derive(Debug)]
pub struct VictimSweep {
    /// The machine the sweep runs on.
    pub machine: String,
    /// Weak cells the key-recovery victim templates on it.
    pub template_targets: usize,
    /// One row per victim, in [`VictimChoice::all`] order.
    pub rows: Vec<VictimRow>,
    /// Undefended cells whose exploit succeeded.
    pub undefended_successes: usize,
}

/// Runs the victim sweep at `base_seed`.
pub fn victim_sweep(base_seed: u64) -> VictimSweep {
    let config = CampaignConfig::ci(base_seed);
    let machine = MachineChoice::TestSmall.config(ProfileChoice::Ci.profile(), base_seed);
    let cell = |defense, victim| {
        let coord = CellCoord::new(MachineChoice::TestSmall, defense, ProfileChoice::Ci, 0);
        let victim = Some(victim);
        run_cell(&CellCoord { victim, ..coord }, &config)
    };
    let rows: Vec<VictimRow> = VictimChoice::all()
        .into_iter()
        .map(|victim| VictimRow {
            victim,
            undefended: cell(DefenseChoice::None, victim),
            cta: cell(DefenseChoice::Cta, victim),
        })
        .collect();
    VictimSweep {
        template_targets: KeyRecovery::template_profile(&machine).targets.len(),
        machine: machine.name,
        undefended_successes: rows
            .iter()
            .filter(|row| row.undefended.exploit_succeeded())
            .count(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_scales_keep_their_attack_configs() {
        let scaled = AttackConfig {
            seed: 9,
            hammer_mode: HammerMode::default(),
            superpages: true,
            spray_bytes: 1 << 30,
            tlb_profile_trials: 20,
            llc_profile_trials: 6,
            hammer_rounds_per_attempt: 2_500,
            max_attempts: 12,
            max_flips: 16,
            pair_candidates_per_round: 4,
        };
        assert_eq!(ExperimentScale::scaled().attack_config(9, true), scaled);
        let full = AttackConfig {
            seed: 9,
            hammer_mode: HammerMode::default(),
            superpages: true,
            spray_bytes: 4 << 30,
            tlb_profile_trials: 50,
            llc_profile_trials: 16,
            hammer_rounds_per_attempt: 120_000,
            max_attempts: 512,
            max_flips: 32,
            pair_candidates_per_round: 8,
        };
        assert_eq!(ExperimentScale { full: true }.attack_config(9, true), full);
    }

    #[test]
    fn scale_from_env_defaults_to_scaled() {
        let scale = ExperimentScale::scaled();
        assert!(!scale.full);
        assert!(scale.describe().contains("scaled"));
        assert!(scale.attack_config(1, false).validate().is_ok());
        assert!(ExperimentScale { full: true }
            .attack_config(1, true)
            .validate()
            .is_ok());
    }

    #[test]
    fn defense_choices_build_policies() {
        let machine = MachineChoice::LenovoT420.config(FlipModelProfile::fast(), 3);
        for defense in DefenseChoice::all() {
            let policy = defense.policy(&machine);
            assert!(!policy.name().is_empty());
        }
        assert_eq!(DefenseChoice::Cta.name(), "CTA");
    }

    #[test]
    fn machine_choice_selection_and_names() {
        assert_eq!(MachineChoice::all().len(), 3);
        assert!(!MachineChoice::selected().is_empty());
        assert_eq!(MachineChoice::LenovoT420.name(), "Lenovo T420");
        let cfg = MachineChoice::DellE6420.config(FlipModelProfile::fast(), 1);
        assert_eq!(cfg.cache.llc.ways, 16);
    }

    /// Figure 6 and the ANVIL window on TestSmall, pinned to the values the
    /// paper's implicit loop has always produced: a change to strategy
    /// arming or the compiled-trace round loop must not move a sample.
    #[test]
    fn fig6_and_anvil_outputs_are_pinned() {
        assert_eq!(
            fig6_hammer_samples(
                MachineChoice::TestSmall,
                false,
                ExperimentScale::scaled(),
                42
            ),
            vec![4748; 50]
        );
        assert_eq!(
            anvil_eval(MachineChoice::TestSmall, ExperimentScale::scaled(), 42),
            AnvilEvaluation {
                explicit_detected: true,
                implicit_detected_naive: false,
                implicit_detected_extended: true,
                explicit_rate: 5555.771343594979,
                implicit_rate: 604.7819504036466,
            }
        );
    }
}
