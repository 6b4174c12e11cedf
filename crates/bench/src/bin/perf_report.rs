//! Emits and gates the canonical `BENCH_perf.json` perf report.
//!
//! Runs a pinned workload set — the TestSmall hammer microbenchmark under
//! every hammer strategy, one Table I attack cell, the 30-cell golden
//! campaign matrix, the kernel allocator's work under every placement
//! defense, Detect's scan and the LLC eviction pool of a 12-way and a 16-way
//! Table I machine — and records every deterministic simulator counter plus
//! host wall time per workload.
//!
//! Modes:
//!
//! * `perf_report` / `perf_report --update` — run the workloads and write
//!   `BENCH_perf.json` at the repository root (the committed baseline).
//! * `perf_report --check` — run the workloads and compare against the
//!   committed baseline, ignoring wall time. Exits non-zero if any counter
//!   deviates; this is what the `perf-smoke` CI job runs.
//! * `perf_report --list` — print the pinned workload names (one per line)
//!   and exit without running anything; PERF.md's workload table is checked
//!   against this.
//! * `perf_report --only <name>` (repeatable) — restrict the run to the
//!   named workloads. With `--check` the subset is compared against the
//!   matching baseline entries. With `--update` the named workloads' entries
//!   of the baseline are replaced and every other byte of it is left as it
//!   is. With neither, the results are printed and the baseline is left
//!   untouched. Unknown names fail fast, listing the known workloads.
//!
//! See `PERF.md` for the schema and the refresh workflow.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use pthammer::eviction::{LlcEvictionPool, TlbEvictionPool};
use pthammer::{HammerMode, PtHammer};
use pthammer_bench::scenarios::{detect_scan_microbench, hammer_microbench};
use pthammer_bench::{ExperimentScale, MachineChoice};
use pthammer_dram::FlipModelProfile;
use pthammer_harness::{
    cell_seed, run_campaign_instrumented, run_campaign_resumable_instrumented, run_cell_inspected,
    store_manifest, CampaignConfig, CellCoord, CellPerf, CellStore, DefenseChoice, ProfileChoice,
    ScenarioMatrix,
};
use pthammer_kernel::KernelConfig;
use pthammer_machine::MachineConfig;
use pthammer_patterns::{synthesize, synthesize_with_telemetry, SynthesisConfig};
use pthammer_perf::{MachineCounters, PerfReport, Stopwatch, WorkloadPerf};

/// Base seed of every pinned workload; the campaign seed matches the golden
/// snapshot so this report and `tests/golden/campaign_ci_matrix.json` pin the
/// same simulated behavior.
const GOLDEN_BASE_SEED: u64 = 0x7453_4861_4d21;
const MICROBENCH_SEED: u64 = 42;
const MICROBENCH_ROUNDS: u64 = 600;
/// Counter of the DRAM row state a workload allocated: the sum over banks
/// of the most 64-row disturbance chunks each bank held at once.
const DRAM_ROW_CHUNKS_PEAK: &str = "dram_row_chunks_peak";

fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("BENCH_perf.json")
}

/// The hammer-loop workload name of `mode`: `hammer_loop_test_small` for
/// the default mode, suffixed with the mode's name for every other one.
fn hammer_loop_name(mode: HammerMode) -> String {
    if mode.is_default() {
        "hammer_loop_test_small".to_string()
    } else {
        format!("hammer_loop_test_small_{}", mode.name().replace('-', "_"))
    }
}

/// The TestSmall hammer loop under `mode` — the simulator's hottest path,
/// measured in isolation: the strategy arms a pair and its compiled trace
/// is hammered exactly as the pipeline's hammer phase runs it.
fn hammer_loop_workload(mode: HammerMode) -> WorkloadPerf {
    let bench = hammer_microbench(
        MachineChoice::TestSmall,
        ExperimentScale::scaled(),
        mode,
        MICROBENCH_ROUNDS,
        MICROBENCH_SEED,
    );
    let mut counters = bench.counters.named();
    counters.insert("hammer_iterations".to_string(), bench.accounting.iterations);
    counters.insert(
        "cycles_per_iteration".to_string(),
        bench.accounting.cycles_per_iteration(),
    );
    counters.insert("sim_cycles".to_string(), bench.accounting.sim_cycles);
    counters.insert(
        "fast_forwarded_rounds".to_string(),
        bench.fast_forwarded_rounds,
    );
    counters.insert(
        "fast_forward_entries".to_string(),
        bench.fast_forward_entries,
    );
    let name = hammer_loop_name(mode);
    println!(
        "{name}: {} iters, {} cyc/iter, dram rate {:.3}, fast share {:.3} over {} runs, {:.0} host iters/s",
        bench.accounting.iterations,
        bench.accounting.cycles_per_iteration(),
        bench.implicit_dram_rate,
        bench.fast_forwarded_rounds as f64 / bench.accounting.iterations.max(1) as f64,
        bench.fast_forward_entries,
        bench.accounting.host_iterations_per_second(bench.wall_ns),
    );
    WorkloadPerf::new(&name, counters, bench.wall_ns)
}

/// Scans of the detect-scan workload.
const DETECT_SCANS: u64 = 4;

/// Workload: Detect's scan of the victim range of `DETECT_SCANS` pairs on
/// the TestSmall machine, with a corrupted mapping and an unmapped page in
/// each. Pins the scan's simulated work and `scan_batched_pages`, the pages
/// the page runs served without a walker call.
fn detect_scan_workload() -> WorkloadPerf {
    let bench = detect_scan_microbench(
        MachineChoice::TestSmall,
        ExperimentScale::scaled(),
        DETECT_SCANS,
        MICROBENCH_SEED,
    );
    let mut counters = bench.counters.named();
    counters.insert("sim_cycles".to_string(), bench.sim_cycles);
    counters.insert("scans".to_string(), bench.scans);
    counters.insert("scan_pages".to_string(), bench.pages);
    counters.insert("scan_findings".to_string(), bench.findings);
    counters.insert("scan_batched_pages".to_string(), bench.batched_pages);
    println!(
        "detect_scan_test_small: {} scans of {} pages, {} findings, batched share {:.3}, {:.1} host ns/page",
        bench.scans,
        bench.pages,
        bench.findings,
        bench.batched_pages as f64 / bench.pages.max(1) as f64,
        bench.wall_ns as f64 / bench.pages.max(1) as f64,
    );
    WorkloadPerf::new("detect_scan_test_small", counters, bench.wall_ns)
}

/// The synthesis configuration both pattern workloads pin: the TRR test
/// machine's search, exactly as a synthesized campaign cell runs it.
fn pinned_synthesis_config() -> SynthesisConfig {
    let machine = MachineConfig::ci_small_trr(FlipModelProfile::ci(), MICROBENCH_SEED);
    CampaignConfig::trr_ci(GOLDEN_BASE_SEED).synthesis_config(&machine)
}

/// Workload: the deterministic pattern-synthesis loop against the TRR test
/// machine — the search `pthammer-patterns` runs for every synthesized
/// campaign cell. Counters are the search's own deterministic accounting
/// (evaluations, winner shape, delivered disturbance); wall time tracks the
/// cost of the loop itself.
fn pattern_synthesis_workload() -> WorkloadPerf {
    let config = pinned_synthesis_config();
    let watch = Stopwatch::start();
    let result = synthesize(&config, MICROBENCH_SEED);
    let wall_ns = watch.elapsed_ns();
    let mut counters = BTreeMap::new();
    counters.insert("evaluations".to_string(), u64::from(result.evaluations));
    counters.insert("generations".to_string(), u64::from(result.generations));
    counters.insert("best_sides".to_string(), result.best.sides() as u64);
    counters.insert(
        "best_touches_per_round".to_string(),
        result.best.touches_per_round() as u64,
    );
    counters.insert(
        "best_span_strides".to_string(),
        result.best.span().unsigned_abs() as u64,
    );
    counters.insert(
        "peak_victim_disturbance".to_string(),
        u64::from(result.score.peak_victim_disturbance),
    );
    counters.insert(
        "expected_disturbance".to_string(),
        u64::from(result.score.expected_disturbance),
    );
    counters.insert("trr_fired".to_string(), u64::from(result.score.trr_fired));
    println!(
        "pattern_synthesis_test_small_trr: best {} after {} evaluations (peak {})",
        result.best, result.evaluations, result.score.peak_victim_disturbance
    );
    WorkloadPerf::new("pattern_synthesis_test_small_trr", counters, wall_ns)
}

/// Workload: the same pinned synthesis run, measured through the incremental
/// scorer's work telemetry. The pinned counters are the scorer's exact op
/// accounting — `speedup_x100` is the reference-loop-to-simulated-op ratio
/// ×100, so the committed baseline itself gates the ROADMAP's ≥5×
/// candidates/sec target (`speedup_x100 >= 500`). The candidates/sec line
/// is host-wall derived and therefore reported, never gated (see
/// EXPERIMENTS.md).
fn synth_throughput_workload() -> WorkloadPerf {
    let config = pinned_synthesis_config();
    let watch = Stopwatch::start();
    let (result, telemetry) = synthesize_with_telemetry(&config, MICROBENCH_SEED);
    let wall_ns = watch.elapsed_ns();
    assert!(
        telemetry.speedup_x100() >= 500,
        "incremental scoring must be at least 5x over the reference loop: {telemetry:?}"
    );
    let mut counters = BTreeMap::new();
    counters.insert("evaluations".to_string(), u64::from(result.evaluations));
    counters.insert("ops_total".to_string(), telemetry.ops_total);
    counters.insert("ops_stepped".to_string(), telemetry.ops_stepped);
    counters.insert("ops_reused".to_string(), telemetry.ops_reused);
    counters.insert("fast_forwards".to_string(), telemetry.fast_forwards);
    counters.insert("fallbacks".to_string(), telemetry.fallbacks);
    counters.insert("speedup_x100".to_string(), telemetry.speedup_x100());
    let candidates_per_sec = result.evaluations as f64 / (wall_ns.max(1) as f64 / 1e9);
    println!(
        "synth_throughput_test_small_trr: {candidates_per_sec:.0} candidates/sec \
         ({} evaluations, {}/{} ops simulated, {:.2}x effective speedup)",
        result.evaluations,
        telemetry.ops_stepped,
        telemetry.ops_total,
        telemetry.speedup_x100() as f64 / 100.0,
    );
    WorkloadPerf::new("synth_throughput_test_small_trr", counters, wall_ns)
}

fn cell_counters(perf: &CellPerf) -> BTreeMap<String, u64> {
    let mut counters = perf.counters.named();
    counters.insert("hammer_iterations".to_string(), perf.hammer_iterations);
    counters.insert("sim_cycles".to_string(), perf.sim_cycles);
    counters
}

/// Workload 2: one Table I attack cell (Lenovo T420, undefended, fast
/// profile) at CI scale, via the campaign harness.
fn table1_cell_workload() -> WorkloadPerf {
    let coord = CellCoord::new(
        MachineChoice::LenovoT420,
        DefenseChoice::None,
        ProfileChoice::Fast,
        0,
    );
    let config = CampaignConfig::ci(GOLDEN_BASE_SEED);
    let watch = Stopwatch::start();
    let (report, perf, row_chunks_peak) = run_cell_inspected(&coord, &config, |sys| {
        sys.machine().dram().row_chunks_peak()
    });
    let wall_ns = watch.elapsed_ns();
    assert!(
        report.error.is_none(),
        "table1 cell aborted: {:?}",
        report.error
    );
    println!(
        "table1_cell_lenovo_t420: {} attempts, {} hammer iterations, {} flips, \
         {row_chunks_peak} peak DRAM row chunks",
        report.attempts, perf.hammer_iterations, report.flips_observed
    );
    let mut counters = cell_counters(&perf);
    counters.insert(DRAM_ROW_CHUNKS_PEAK.to_string(), row_chunks_peak);
    WorkloadPerf::new("table1_cell_lenovo_t420", counters, wall_ns)
}

/// Workload: Algorithm 2's LLC eviction pool alone, built by timing on
/// regular pages in a freshly booted, undefended Table I system with the
/// `table1_cell` attack configuration. One workload per LLC width: 12 ways
/// on the T420, 16 on the Dell.
fn llc_pool_workload(name: &str, machine: MachineChoice) -> WorkloadPerf {
    let coord = CellCoord::new(machine, DefenseChoice::None, ProfileChoice::Fast, 0);
    let config = CampaignConfig::ci(GOLDEN_BASE_SEED);
    let seed = cell_seed(config.base_seed, &coord);
    let machine_cfg = machine.config(coord.profile.profile(), seed);
    let mut sys = coord
        .defense
        .build_system(machine_cfg, KernelConfig::default_config());
    let pid = sys.spawn_process(1000).expect("spawn the attacker");
    let attack = config.attack_config(seed, coord.defense, coord.hammer_mode);
    let lines = PtHammer::llc_eviction_lines(&sys);
    let watch = Stopwatch::start();
    let pool = LlcEvictionPool::build(&mut sys, pid, &attack, lines).expect("LLC eviction pool");
    let wall_ns = watch.elapsed_ns();
    let mut counters = MachineCounters::capture(sys.machine()).named();
    counters.insert("sim_cycles".to_string(), sys.rdtsc());
    counters.insert("pool_groups".to_string(), pool.groups().len() as u64);
    counters.insert("pool_prep_cycles".to_string(), pool.prep_cycles());
    counters.insert(
        DRAM_ROW_CHUNKS_PEAK.to_string(),
        sys.machine().dram().row_chunks_peak(),
    );
    println!(
        "{name}: {} groups of {lines}-line sets, {} accesses, {:.1} host ns/access, \
         {} peak DRAM row chunks",
        pool.groups().len(),
        counters["accesses"],
        wall_ns as f64 / counters["accesses"].max(1) as f64,
        counters[DRAM_ROW_CHUNKS_PEAK],
    );
    WorkloadPerf::new(name, counters, wall_ns)
}

/// Workload 3: the full 30-cell golden campaign matrix (the same matrix,
/// seed and scale the golden snapshot pins), aggregated over all cells.
fn campaign_workload() -> WorkloadPerf {
    let matrix = ScenarioMatrix::ci_default();
    let config = CampaignConfig {
        threads: 2,
        ..CampaignConfig::ci(GOLDEN_BASE_SEED)
    };
    let watch = Stopwatch::start();
    let (report, perf) = run_campaign_instrumented(&matrix, &config);
    let wall_ns = watch.elapsed_ns();
    let mut counters = cell_counters(&perf);
    counters.insert("cells".to_string(), report.cells.len() as u64);
    counters.insert(
        "attempts".to_string(),
        report.cells.iter().map(|c| c.attempts as u64).sum(),
    );
    counters.insert(
        "flips_observed".to_string(),
        report.cells.iter().map(|c| c.flips_observed as u64).sum(),
    );
    counters.insert(
        "escalations".to_string(),
        report.cells.iter().filter(|c| c.escalated).count() as u64,
    );
    println!(
        "campaign_ci_matrix: {} cells, {} hammer iterations",
        report.cells.len(),
        perf.hammer_iterations
    );
    WorkloadPerf::new("campaign_ci_matrix", counters, wall_ns)
}

/// Final workload: the golden campaign through the content-addressed cell store
/// — a cold pass (every cell computed and written through) followed by a
/// warm pass (every cell served from cache). The store counters pin the
/// cache-hit accounting; the simulator counters come from the cold pass
/// only, since a warm pass performs no simulation at all — which is exactly
/// the property worth gating.
fn campaign_resume_workload() -> WorkloadPerf {
    let matrix = ScenarioMatrix::ci_default();
    let config = CampaignConfig {
        threads: 2,
        ..CampaignConfig::ci(GOLDEN_BASE_SEED)
    };
    let root =
        std::env::temp_dir().join(format!("pthammer-perf-resume-store-{}", std::process::id()));
    CellStore::wipe(&root).expect("wipe perf store");
    let store = CellStore::open(&root, &store_manifest(&config)).expect("open perf store");
    let watch = Stopwatch::start();
    let (cold_report, perf, cold) =
        run_campaign_resumable_instrumented(&matrix, &config, &store).expect("cold store pass");
    let (warm_report, warm_perf, warm) =
        run_campaign_resumable_instrumented(&matrix, &config, &store).expect("warm store pass");
    let wall_ns = watch.elapsed_ns();
    CellStore::wipe(&root).expect("clean up perf store");
    assert_eq!(
        cold_report.to_canonical_json(),
        warm_report.to_canonical_json(),
        "a warm store pass must reproduce the cold report byte-for-byte"
    );
    assert_eq!(
        warm_perf,
        CellPerf::default(),
        "cache hits must not simulate"
    );
    let mut counters = cell_counters(&perf);
    counters.insert("cells".to_string(), matrix.len() as u64);
    counters.insert(
        "store_cold_cells_computed".to_string(),
        cold.computed as u64,
    );
    counters.insert("store_cold_cache_hits".to_string(), cold.cache_hits as u64);
    counters.insert("store_warm_cache_hits".to_string(), warm.cache_hits as u64);
    counters.insert(
        "store_warm_cells_computed".to_string(),
        warm.computed as u64,
    );
    println!(
        "campaign_resume_ci_matrix: cold {} computed / {} hits, warm {} computed / {} hits",
        cold.computed, cold.cache_hits, warm.computed, warm.cache_hits
    );
    WorkloadPerf::new("campaign_resume_ci_matrix", counters, wall_ns)
}

/// Workload: the kernel allocator under every placement defense. Boots the
/// TestSmall machine once per `DefenseChoice`, spawns the attacker and
/// builds its TLB eviction pool — the allocation-heaviest step of Prepare —
/// and pins the buddy allocator's exact work: allocations served and free
/// blocks examined to serve them.
fn kernel_alloc_workload() -> WorkloadPerf {
    let config = CampaignConfig::ci(GOLDEN_BASE_SEED);
    let mut counters = BTreeMap::new();
    let watch = Stopwatch::start();
    for defense in DefenseChoice::all() {
        let machine = MachineChoice::TestSmall.config(FlipModelProfile::ci(), MICROBENCH_SEED);
        let mut sys = defense.build_system(machine, KernelConfig::default_config());
        let pid = sys.spawn_process(1000).expect("spawn the attacker");
        let attack = config.attack_config(MICROBENCH_SEED, defense, HammerMode::default());
        let pages = PtHammer::tlb_eviction_pages(&sys);
        TlbEvictionPool::build(&mut sys, pid, &attack, pages).expect("TLB eviction pool");
        let stats = sys.stats();
        let key = defense.name().to_lowercase().replace('-', "_");
        counters.insert(format!("{key}_frame_allocs"), stats.frame_allocs);
        counters.insert(format!("{key}_blocks_examined"), stats.free_blocks_examined);
        println!(
            "kernel_alloc_test_small: {}: {} allocations, {} free blocks examined",
            defense.name(),
            stats.frame_allocs,
            stats.free_blocks_examined
        );
    }
    WorkloadPerf::new("kernel_alloc_test_small", counters, watch.elapsed_ns())
}

/// One pinned workload: its name and the function that runs it.
type WorkloadEntry = (String, Box<dyn Fn() -> WorkloadPerf>);

/// The pinned workload registry, in report order — the single list `--list`
/// prints, `--only` filters and `main` executes, so none of them can drift.
/// One hammer-loop workload per [`HammerMode`] comes first.
fn workload_registry() -> Vec<WorkloadEntry> {
    fn entry(name: impl Into<String>, run: impl Fn() -> WorkloadPerf + 'static) -> WorkloadEntry {
        (name.into(), Box::new(run))
    }
    let mut registry: Vec<WorkloadEntry> = HammerMode::all()
        .into_iter()
        .map(|mode| entry(hammer_loop_name(mode), move || hammer_loop_workload(mode)))
        .collect();
    registry.extend([
        entry("table1_cell_lenovo_t420", table1_cell_workload),
        entry("campaign_ci_matrix", campaign_workload),
        entry("campaign_resume_ci_matrix", campaign_resume_workload),
        entry(
            "pattern_synthesis_test_small_trr",
            pattern_synthesis_workload,
        ),
        entry("synth_throughput_test_small_trr", synth_throughput_workload),
        entry("kernel_alloc_test_small", kernel_alloc_workload),
        entry("detect_scan_test_small", detect_scan_workload),
    ]);
    registry.extend(
        [
            ("llc_pool_lenovo_t420", MachineChoice::LenovoT420),
            ("llc_pool_dell_e6420", MachineChoice::DellE6420),
        ]
        .map(|(name, machine)| entry(name, move || llc_pool_workload(name, machine))),
    );
    registry
}

/// The pinned workload names, in report order.
fn workload_names() -> Vec<String> {
    workload_registry().into_iter().map(|(n, _)| n).collect()
}

/// Decodes a committed `BENCH_perf.json` text.
fn parse_baseline(committed: &str) -> Result<PerfReport, String> {
    serde_json::from_str(committed)
        .and_then(serde_json::from_value)
        .map_err(|e| format!("committed baseline is not a perf report: {e}"))
}

/// The workload names of a committed `BENCH_perf.json` text.
fn baseline_workload_names(committed: &str) -> Result<Vec<String>, String> {
    Ok(parse_baseline(committed)?.workload_names())
}

/// Asserts the two-way invariant between the committed baseline and the
/// pinned registry: every workload in `BENCH_perf.json` is a known pinned
/// workload and every pinned workload has a committed baseline entry, in the
/// same order.
fn check_baseline_names(committed: &str) -> Result<(), String> {
    let baseline = baseline_workload_names(committed)?;
    let pinned = workload_names();
    if baseline == pinned {
        return Ok(());
    }
    let missing: Vec<&String> = pinned.iter().filter(|n| !baseline.contains(n)).collect();
    let unknown: Vec<&String> = baseline.iter().filter(|n| !pinned.contains(n)).collect();
    Err(format!(
        "BENCH_perf.json and the pinned workloads disagree \
         (missing from baseline: {missing:?}; unknown in baseline: {unknown:?}; \
         baseline order: {baseline:?}; pinned order: {pinned:?})"
    ))
}

/// Parses repeatable `--only <name>` / `--only=<name>` selections; errors on
/// a dangling `--only`.
fn parse_only(args: &[String]) -> Result<Vec<String>, String> {
    let mut only = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--only" {
            match iter.next() {
                Some(name) => only.push(name.clone()),
                None => return Err("--only needs a workload name".to_string()),
            }
        } else if let Some(name) = arg.strip_prefix("--only=") {
            only.push(name.to_string());
        }
    }
    Ok(only)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for name in workload_names() {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }
    let check = args.iter().any(|a| a == "--check");
    let only = match parse_only(&args) {
        Ok(only) => only,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let registry = workload_registry();
    for name in &only {
        if !registry.iter().any(|(n, _)| n == name) {
            eprintln!("unknown workload `{name}`; known workloads:");
            for (known, _) in &registry {
                eprintln!("  {known}");
            }
            return ExitCode::FAILURE;
        }
    }
    let selected: Vec<&WorkloadEntry> = registry
        .iter()
        .filter(|(n, _)| only.is_empty() || only.contains(n))
        .collect();
    let workloads: Vec<WorkloadPerf> = selected.iter().map(|(_, run)| run()).collect();
    let report = PerfReport::new(workloads);
    // A hard assert (perf_report only ever runs in release): the registry
    // names must be exactly what just executed.
    assert_eq!(
        report.workload_names(),
        selected.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(),
        "the registry and the executed workloads must agree"
    );
    let path = baseline_path();

    if check {
        let committed = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!(
                    "missing committed baseline {} ({e}); run `perf_report --update` and commit it",
                    path.display()
                );
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = check_baseline_names(&committed) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        let verdict = if only.is_empty() {
            report.check_against(&committed)
        } else {
            check_subset_against(&report, &committed)
        };
        match verdict {
            Ok(()) => {
                println!("perf counters match the committed baseline (wall time not gated)");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                eprintln!(
                    "If the behavior change is intentional, refresh with \
                     `cargo run --release -p pthammer-bench --bin perf_report -- --update` \
                     and commit BENCH_perf.json."
                );
                ExitCode::FAILURE
            }
        }
    } else if only.is_empty() {
        std::fs::write(&path, report.to_canonical_json()).expect("write BENCH_perf.json");
        println!("wrote {}", path.display());
        ExitCode::SUCCESS
    } else if args.iter().any(|a| a == "--update") {
        let spliced = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))
            .and_then(|committed| splice_into(&report, &committed));
        match spliced {
            Ok(text) => {
                std::fs::write(&path, text).expect("write BENCH_perf.json");
                println!(
                    "replaced {} of {} workloads in {}",
                    selected.len(),
                    registry.len(),
                    path.display()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        }
    } else {
        println!(
            "subset run ({} of {} workloads): BENCH_perf.json left untouched; \
             `--update` replaces these workloads' entries",
            selected.len(),
            registry.len(),
        );
        ExitCode::SUCCESS
    }
}

/// The committed baseline with the entries of `report`'s workloads replaced
/// and every other byte kept. The baseline must be canonical (as a full
/// `--update` writes it), so that re-emitting it moves only those entries.
fn splice_into(report: &PerfReport, committed: &str) -> Result<String, String> {
    check_baseline_names(committed)?;
    let mut baseline = parse_baseline(committed)?;
    if baseline.to_canonical_json() != committed {
        return Err(
            "BENCH_perf.json is not canonical; a full `--update` run rewrites it".to_string(),
        );
    }
    for workload in &report.workloads {
        if let Some(entry) = baseline
            .workloads
            .iter_mut()
            .find(|w| w.name == workload.name)
        {
            *entry = workload.clone();
        }
    }
    Ok(baseline.to_canonical_json())
}

/// Compares a subset report's counters against the matching workloads of the
/// committed baseline.
fn check_subset_against(report: &PerfReport, committed: &str) -> Result<(), String> {
    let baseline = parse_baseline(committed)?;
    for workload in &report.workloads {
        let baseline_counters = &baseline
            .workloads
            .iter()
            .find(|w| w.name == workload.name)
            .ok_or_else(|| format!("baseline has no workload `{}`", workload.name))?
            .counters;
        if *baseline_counters != workload.counters {
            let diverging: Vec<String> = workload
                .counters
                .iter()
                .filter(|(k, v)| baseline_counters.get(*k) != Some(v))
                .map(|(k, v)| {
                    format!(
                        "{k}: baseline {:?} vs current {v}",
                        baseline_counters.get(k)
                    )
                })
                .chain(
                    baseline_counters
                        .keys()
                        .filter(|k| !workload.counters.contains_key(*k))
                        .map(|k| format!("{k}: missing from current run")),
                )
                .collect();
            return Err(format!(
                "perf counters of `{}` deviate from the committed baseline: {}",
                workload.name,
                diverging.join("; ")
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline(wall_ns: u64) -> PerfReport {
        PerfReport::new(
            workload_names()
                .iter()
                .map(|name| WorkloadPerf::new(name, BTreeMap::from([("walks".into(), 7)]), wall_ns))
                .collect(),
        )
    }

    #[test]
    fn a_subset_update_replaces_only_its_entries() {
        let committed = baseline(1).to_canonical_json();
        let name = &workload_names()[1];
        let fresh = PerfReport::new(vec![WorkloadPerf::new(
            name,
            BTreeMap::from([("walks".into(), 7)]),
            2,
        )]);
        let spliced = splice_into(&fresh, &committed).unwrap();
        let changed: Vec<(&str, &str)> = committed
            .lines()
            .zip(spliced.lines())
            .filter(|(a, b)| a != b)
            .collect();
        assert_eq!(committed.lines().count(), spliced.lines().count());
        assert_eq!(changed, [("      \"wall_ns\": 1", "      \"wall_ns\": 2")]);
        let position = spliced.find("\"wall_ns\": 2").unwrap();
        assert!(spliced[..position].contains(name.as_str()));
        assert!(!spliced[..position].contains(workload_names()[2].as_str()));
        // A hand-edited (non-canonical) baseline is refused, not rewritten.
        assert!(splice_into(&fresh, &committed.replace("\n  ", "\n ")).is_err());
    }
}
