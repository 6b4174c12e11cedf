//! The campaign runner: fan cells out over worker threads, aggregate rows.

use pthammer::{pairs::pair_stride, AttackConfig, EventSink, HammerMode, PtHammer, RunOptions};
use pthammer_defenses::DefenseChoice;
use pthammer_kernel::{KernelConfig, System};
use pthammer_machine::MachineConfig;
use pthammer_patterns::{PatternHammer, SynthesisConfig};
use pthammer_perf::{HammerEventTally, MachineCounters};
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;
use serde::Serialize;

use crate::matrix::{CellCoord, ScenarioMatrix};
use crate::report::{CampaignReport, CellReport, ExploitOutcome, REPORT_SCHEMA_VERSION};
use crate::seeding::cell_seed;

/// Campaign-wide knobs: base seed, parallelism, and the attack scale applied
/// to every cell.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CampaignConfig {
    /// Base seed every cell seed is derived from.
    pub base_seed: u64,
    /// Worker threads (0 = one per available core). Thread count never
    /// affects results, only wall-clock time.
    pub threads: usize,
    /// Run the attack in the superpage setting.
    pub superpages: bool,
    /// Virtual-address span of the page-table spray per cell.
    pub spray_bytes: u64,
    /// Double-sided hammer iterations per attempt.
    pub hammer_rounds_per_attempt: u64,
    /// Maximum hammer attempts per cell.
    pub max_attempts: usize,
    /// Profiling trials for LLC eviction-set selection.
    pub llc_profile_trials: usize,
    /// Candidate pairs verified per attempt batch.
    pub pair_candidates_per_round: usize,
    /// Profiling trials for TLB eviction-set selection.
    pub tlb_profile_trials: usize,
    /// Maximum observed flips before a cell gives up on escalation.
    pub max_flips: usize,
    /// LLC eviction buffer size as a multiple of LLC capacity.
    pub eviction_buffer_factor: f64,
    /// `struct cred` spray (sibling processes) for CTA cells, matching the
    /// paper's Section IV-G bypass.
    pub cta_cred_spray: usize,
    /// Attempt cap against ZebRAM (bounded wasted effort; the paper expects
    /// ZebRAM to stop the attack).
    pub zebram_attempt_cap: usize,
    /// Tolerated TLB eviction-set miss-rate drop while trimming
    /// (Algorithm 1).
    pub tlb_trim_tolerance: f64,
}

impl CampaignConfig {
    /// CI-scale configuration: small sprays and few attempts so a ≥24-cell
    /// matrix finishes in CI. Pair with [`ScenarioMatrix::ci_default`].
    pub fn ci(base_seed: u64) -> Self {
        Self {
            base_seed,
            threads: 0,
            superpages: false,
            spray_bytes: 640 << 20,
            hammer_rounds_per_attempt: 1_200,
            max_attempts: 4,
            llc_profile_trials: 6,
            pair_candidates_per_round: 4,
            tlb_profile_trials: 20,
            max_flips: 16,
            eviction_buffer_factor: 2.0,
            cta_cred_spray: 256,
            zebram_attempt_cap: 3,
            tlb_trim_tolerance: 0.05,
        }
    }

    /// CI-scale configuration for the TRR-era matrix
    /// ([`ScenarioMatrix::trr_pattern_ci`]): like [`ci`](Self::ci) but with
    /// a full 1 GiB page-table spray — eight pair strides on the small test
    /// machines, enough room for many-sided aggressor sets larger than the
    /// TRR sampler — and a bigger attempt budget: wide aggressor windows are
    /// rejected (or occasionally false-arm and waste an attempt) whenever a
    /// mid-spray kernel page-table allocation splits their rows across two
    /// banks, so pattern cells need several candidates to land a clean,
    /// fully verified window over a weak victim.
    pub fn trr_ci(base_seed: u64) -> Self {
        Self {
            spray_bytes: 1 << 30,
            max_attempts: 10,
            ..Self::ci(base_seed)
        }
    }

    /// Scaled configuration matching the bench scenarios' default mode
    /// (Table I machines with the `fast` profile).
    pub fn scaled(base_seed: u64) -> Self {
        Self {
            base_seed,
            threads: 0,
            superpages: false,
            spray_bytes: 1 << 30,
            hammer_rounds_per_attempt: 2_500,
            max_attempts: 12,
            llc_profile_trials: 6,
            pair_candidates_per_round: 4,
            tlb_profile_trials: 20,
            max_flips: 16,
            eviction_buffer_factor: 2.0,
            cta_cred_spray: 2_000,
            zebram_attempt_cap: 6,
            tlb_trim_tolerance: 0.05,
        }
    }

    /// Full paper-calibrated configuration (substantial host runtime):
    /// derived field-for-field from [`AttackConfig::paper`] — the single
    /// source of the paper-scale knobs — plus the paper's 32 000-process
    /// cred spray for CTA.
    pub fn full(base_seed: u64) -> Self {
        let paper = AttackConfig::paper(0, false);
        Self {
            base_seed,
            threads: 0,
            superpages: false,
            spray_bytes: paper.spray_bytes,
            hammer_rounds_per_attempt: paper.hammer_rounds_per_attempt,
            max_attempts: paper.max_attempts,
            llc_profile_trials: paper.llc_profile_trials,
            pair_candidates_per_round: paper.pair_candidates_per_round,
            tlb_profile_trials: paper.tlb_profile_trials,
            max_flips: paper.max_flips,
            eviction_buffer_factor: paper.eviction_buffer_factor,
            cta_cred_spray: 32_000,
            zebram_attempt_cap: 6,
            tlb_trim_tolerance: paper.tlb_trim_tolerance,
        }
    }

    /// The synthesis configuration pattern cells search with: the machine's
    /// TRR sampler, timings and flip thresholds, plus how many pair strides
    /// this campaign's spray actually offers (wide aggressor sets must fit
    /// it to arm).
    pub fn synthesis_config(&self, machine: &MachineConfig) -> SynthesisConfig {
        let stride = pair_stride(machine.dram.geometry.row_span_bytes());
        SynthesisConfig {
            spray_strides: u32::try_from(self.spray_bytes / stride)
                .unwrap_or(u32::MAX)
                .max(1),
            ..SynthesisConfig::for_machine(machine)
        }
    }

    /// The attack configuration for one cell.
    pub fn attack_config(
        &self,
        seed: u64,
        defense: DefenseChoice,
        hammer_mode: HammerMode,
    ) -> AttackConfig {
        let max_attempts = if defense == DefenseChoice::Zebram {
            self.max_attempts.min(self.zebram_attempt_cap)
        } else {
            self.max_attempts
        };
        AttackConfig {
            hammer_mode,
            spray_bytes: self.spray_bytes,
            hammer_rounds_per_attempt: self.hammer_rounds_per_attempt,
            max_attempts,
            llc_profile_trials: self.llc_profile_trials,
            pair_candidates_per_round: self.pair_candidates_per_round,
            tlb_profile_trials: self.tlb_profile_trials,
            max_flips: self.max_flips,
            eviction_buffer_factor: self.eviction_buffer_factor,
            tlb_trim_tolerance: self.tlb_trim_tolerance,
            ..AttackConfig::quick_test(seed, self.superpages)
        }
    }
}

/// Deterministic perf accounting of one campaign cell (or, after
/// [`CellPerf::absorb`], of a whole campaign): the simulated-hardware
/// counters plus the measured hammer-iteration count.
///
/// The iteration count comes from
/// [`AttackOutcome::hammer_iterations`](pthammer::AttackOutcome) — the
/// hammer loop's own tally — so every consumer (perf reports, repro
/// binaries, this harness) reports the same number instead of re-deriving
/// it from configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct CellPerf {
    /// Simulated hardware counters accumulated by the cell's machine.
    pub counters: MachineCounters,
    /// Double-sided hammer iterations the attack actually performed.
    pub hammer_iterations: u64,
    /// Total simulated cycles the cell consumed.
    pub sim_cycles: u64,
}

impl CellPerf {
    /// Sums another cell's accounting into this one (campaign aggregation).
    pub fn absorb(&mut self, other: &CellPerf) {
        self.counters.absorb(&other.counters);
        self.hammer_iterations += other.hammer_iterations;
        self.sim_cycles += other.sim_cycles;
    }
}

/// Runs a single campaign cell to completion.
///
/// The cell is fully self-contained: it boots its own defended system from
/// the coordinate-derived seed, so calling this directly (e.g. to reproduce
/// one golden-snapshot row) gives exactly the result the full matrix run
/// records.
pub fn run_cell(coord: &CellCoord, config: &CampaignConfig) -> CellReport {
    run_cell_instrumented(coord, config).0
}

/// Like [`run_cell`], additionally returning the cell's deterministic perf
/// accounting ([`CellPerf`]). The [`CellReport`] is byte-identical to the
/// uninstrumented run — the perf numbers come from a [`HammerEventTally`]
/// subscribed to the attack pipeline's event bus (subscribers only observe)
/// plus counters the simulated machine maintains anyway.
pub fn run_cell_instrumented(coord: &CellCoord, config: &CampaignConfig) -> (CellReport, CellPerf) {
    let (report, perf, ()) = run_cell_inspected(coord, config, |_| ());
    (report, perf)
}

/// Like [`run_cell_instrumented`], additionally handing the cell's system,
/// as the attack left it, to `inspect` and returning what it returns: for
/// host-side measurements of a cell (such as how much DRAM row state it
/// allocated) that belong in no report.
pub fn run_cell_inspected<T>(
    coord: &CellCoord,
    config: &CampaignConfig,
    inspect: impl FnOnce(&System) -> T,
) -> (CellReport, CellPerf, T) {
    let seed = cell_seed(config.base_seed, coord);
    let mut report = CellReport {
        coord: *coord,
        cell_seed: seed,
        escalated: false,
        attempts: 0,
        flips_observed: 0,
        exploitable_flips: 0,
        trr_refreshes: 0,
        implicit_dram_rate: 0.0,
        seconds_to_first_flip: None,
        seconds_to_escalation: None,
        exploit: coord.victim.map(|_| ExploitOutcome::default()),
        route: None,
        error: None,
    };

    let machine_cfg = coord.machine.config(coord.profile.profile(), seed);
    let synthesis_cfg = config.synthesis_config(&machine_cfg);
    let kernel_cfg = if config.superpages {
        KernelConfig::with_superpages()
    } else {
        KernelConfig::default_config()
    };
    let mut sys = coord.defense.build_system(machine_cfg, kernel_cfg);

    // The harness's iteration accounting is an event subscriber: it counts
    // what the hammer loop announces instead of re-deriving it from the
    // outcome afterwards (and it keeps counting through attacks that abort).
    let mut tally = HammerEventTally::new();
    let outcome = (|tally: &mut HammerEventTally| {
        let pid = sys.spawn_process(1000).map_err(|e| e.to_string())?;
        if coord.defense == DefenseChoice::Cta && config.cta_cred_spray > 0 {
            // Spray struct cred objects via sibling processes (the paper's
            // CTA bypass); slab density in kernel memory is what matters.
            sys.spawn_processes(config.cta_cred_spray, 1000)
                .map_err(|e| e.to_string())?;
        }
        let attack = PtHammer::new(config.attack_config(seed, coord.defense, coord.hammer_mode))
            .map_err(|e| e.to_string())?;
        let mut options = RunOptions::new().observed_by(tally as &mut dyn EventSink);
        // Pattern cells resolve their pattern deterministically from the
        // cell seed (synthesized cells run the search) and execute it
        // through the injected `PatternHammer` strategy — same pipeline,
        // same event stream.
        if let Some(choice) = coord.pattern {
            let pattern = choice.resolve(&synthesis_cfg, seed);
            let strategy = Box::new(PatternHammer::new(pattern).map_err(|e| e.to_string())?);
            options = options.strategy(strategy);
        }
        // Victim cells drive the chosen victim through the `Exploit` phase;
        // default cells rely on `RunOptions`' PTE-takeover default.
        if let Some(choice) = coord.victim {
            options = options.victim(choice.build());
        }
        attack
            .run_with(&mut sys, pid, options)
            .map_err(|e| e.to_string())
    })(&mut tally);

    match outcome {
        Ok(outcome) => {
            debug_assert_eq!(
                tally.iterations, outcome.hammer_iterations,
                "event tally and outcome must agree on iteration counts"
            );
            report.escalated = outcome.escalated;
            report.attempts = outcome.attempts;
            report.flips_observed = outcome.flips_observed;
            report.exploitable_flips = outcome.exploitable_flips;
            report.implicit_dram_rate = outcome.implicit_dram_rate;
            report.seconds_to_first_flip = outcome.seconds_to_first_flip();
            report.seconds_to_escalation = outcome.seconds_to_escalation();
            report.route = outcome.victim_outcome.map(|v| v.route_label());
            if let Some(exploit) = &mut report.exploit {
                exploit.exploit_succeeded = Some(outcome.victim_outcome.is_some_and(|v| v.success));
                exploit.time_to_exploit = outcome
                    .victim_outcome
                    .and_then(|v| v.time_to_exploit_iterations);
            }
        }
        Err(err) => report.error = Some(err),
    }
    let perf = CellPerf {
        counters: MachineCounters::capture(sys.machine()),
        hammer_iterations: tally.iterations,
        sim_cycles: sys.rdtsc(),
    };
    // Mitigation interventions are part of the result row: campaigns on
    // TRR-era machines report how often the sampler fired against the cell
    // (0 — and no JSON key — on the paper's TRR-free DDR3 machines).
    report.trr_refreshes = perf.counters.dram.trr_refreshes;
    let inspected = inspect(&sys);
    (report, perf, inspected)
}

/// Runs every cell of `matrix` on a worker pool and aggregates the results.
///
/// Cells are independent and seeded from their coordinates, and rows are
/// collected in canonical matrix order, so the returned report — and its
/// [`canonical JSON`](CampaignReport::to_canonical_json) — is identical for
/// any `config.threads`.
///
/// # Panics
///
/// Panics if the matrix fails [`ScenarioMatrix::validate`].
pub fn run_campaign(matrix: &ScenarioMatrix, config: &CampaignConfig) -> CampaignReport {
    run_campaign_instrumented(matrix, config).0
}

/// Like [`run_campaign`], additionally returning the campaign's aggregated
/// perf accounting: every cell's [`CellPerf`] summed in canonical matrix
/// order. The aggregate is deterministic for a given matrix and config (cell
/// counters are seed-derived, and summation is order-independent), so perf
/// reports can gate on it.
pub fn run_campaign_instrumented(
    matrix: &ScenarioMatrix,
    config: &CampaignConfig,
) -> (CampaignReport, CellPerf) {
    matrix
        .validate()
        .unwrap_or_else(|e| panic!("invalid scenario matrix: {e}"));
    let results = run_cells_parallel(&matrix.cells(), config, |_, row, perf| (row, perf));
    let mut rows = Vec::with_capacity(results.len());
    let mut perf = CellPerf::default();
    for (row, cell_perf) in results {
        rows.push(row);
        perf.absorb(&cell_perf);
    }
    (assemble_report(matrix, config, rows), perf)
}

/// Runs [`run_cell_instrumented`] for every cell on a `config.threads`
/// worker pool, the only one a campaign builds. `finish` sees each cell's
/// results on the worker that computed it; its outputs come back in `cells`
/// order, whatever the thread count.
pub(crate) fn run_cells_parallel<R: Send>(
    cells: &[CellCoord],
    config: &CampaignConfig,
    finish: impl Fn(&CellCoord, CellReport, CellPerf) -> R + Sync,
) -> Vec<R> {
    let pool = ThreadPoolBuilder::new()
        .num_threads(config.threads)
        .build()
        .expect("worker pool");
    pool.install(|| {
        cells
            .par_iter()
            .map(|coord| {
                let (report, perf) = run_cell_instrumented(coord, config);
                finish(coord, report, perf)
            })
            .collect()
    })
}

/// Assembles the canonical [`CampaignReport`] from per-cell rows (already in
/// canonical matrix order): recomputes summaries and stamps the campaign
/// inputs. Shared by the direct runner and the store-backed resume/merge
/// paths, so every way of obtaining the rows emits identical bytes.
pub(crate) fn assemble_report(
    matrix: &ScenarioMatrix,
    config: &CampaignConfig,
    rows: Vec<CellReport>,
) -> CampaignReport {
    let summaries = CampaignReport::summarize(matrix, &rows);
    CampaignReport {
        schema_version: REPORT_SCHEMA_VERSION,
        base_seed: config.base_seed,
        matrix: matrix.clone(),
        superpages: config.superpages,
        cells: rows,
        summaries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::ProfileChoice;
    use pthammer_machine::MachineChoice;

    #[test]
    fn attack_config_caps_zebram_attempts() {
        let config = CampaignConfig::ci(1);
        let zebram = config.attack_config(9, DefenseChoice::Zebram, HammerMode::default());
        let none = config.attack_config(9, DefenseChoice::None, HammerMode::default());
        assert!(zebram.max_attempts <= config.zebram_attempt_cap);
        assert_eq!(none.max_attempts, config.max_attempts);
        assert!(zebram.validate().is_ok());
        assert!(none.validate().is_ok());
    }

    #[test]
    fn attack_config_threads_the_hammer_mode_through() {
        let config = CampaignConfig::ci(1);
        let cfg = config.attack_config(9, DefenseChoice::None, HammerMode::ImplicitOneLocation);
        assert_eq!(cfg.hammer_mode, HammerMode::ImplicitOneLocation);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn single_cell_runs_and_reports_coordinates() {
        let config = CampaignConfig::ci(11);
        let coord = CellCoord::new(
            MachineChoice::TestSmall,
            DefenseChoice::None,
            ProfileChoice::Invulnerable,
            0,
        );
        let row = run_cell(&coord, &config);
        assert_eq!(row.coord, coord);
        assert_eq!(row.flips_observed, 0, "invulnerable DRAM cannot flip");
        assert!(!row.escalated);
        assert!(row.error.is_none(), "{:?}", row.error);
        assert_eq!(row.cell_seed, cell_seed(11, &coord));
    }

    #[test]
    #[should_panic(expected = "invalid scenario matrix")]
    fn empty_matrix_panics() {
        let matrix = ScenarioMatrix::new(vec![], vec![], vec![], 0);
        let _ = run_campaign(&matrix, &CampaignConfig::ci(1));
    }

    #[test]
    fn two_and_eight_worker_threads_emit_identical_json() {
        // Small matrix (4 invulnerable cells) so this stays cheap; the full
        // 30-cell check lives in tests/campaign_matrix.rs.
        let matrix = ScenarioMatrix::new(
            vec![MachineChoice::TestSmall],
            vec![DefenseChoice::None, DefenseChoice::Zebram],
            vec![ProfileChoice::Invulnerable],
            2,
        );
        let mut config = CampaignConfig::ci(77);
        config.max_attempts = 2;
        config.threads = 2;
        let two = run_campaign(&matrix, &config).to_canonical_json();
        config.threads = 8;
        let eight = run_campaign(&matrix, &config).to_canonical_json();
        assert_eq!(two, eight, "thread count leaked into campaign JSON");
    }
}
