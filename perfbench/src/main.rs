//! Campaign benchmark of the PThammer simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload defense_sweep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload's campaign matrix in whole passes on two worker
//! threads as a closed loop, checks every cell's output, and prints one
//! JSON line of metrics last on stdout. With `--trace 0` the metrics are the
//! end-to-end ones, measured untraced. With `--trace 1` an untraced section
//! is followed by a traced section over the same passes; the metrics are the
//! per-layer ones, and the spans are written as Chrome trace-event JSON to
//! `perfbench/out/trace-<workload>.json`. A breakdown goes to stderr.

mod pool;
mod stats;
mod traced;
mod workload;

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pthammer_harness::{run_cell_instrumented, CellPerf, CellReport, ScenarioMatrix};

use pool::{closed_loop, LoopRun, Stop};
use stats::{median, percentile};
use traced::CellTrace;
use workload::{assemble_report, cell_label, check_row, Workload};

/// Worker threads of the closed loop: the campaign harness's setting on the
/// two-CPU hosts the benchmark is calibrated on.
const WORKERS: usize = 2;
/// Extra set-ups measured per run, so `setup_s` is a median.
const SETUP_PROBES: usize = 99;
/// Share of a traced run's time given to its untraced section; the traced
/// section then repeats the same passes.
const UNTRACED_SHARE: f64 = 1.0 / 3.0;
/// The counters `BENCH_perf.json` gates for the defense-sweep matrix.
const BENCH_PERF: &str = include_str!("../../BENCH_perf.json");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <u64> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "workload {} seed {} seconds {} trace {} workers {} (available parallelism {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        WORKERS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let result = if args.trace {
        traced_run(&args)
    } else {
        untraced_run(&args)
    };
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}

/// One metric value with its unit.
enum Value {
    Float(f64),
    Count(u64),
}

struct BenchResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, Value, &'static str)>,
}

impl BenchResult {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = match value {
                    Value::Float(v) if v.is_finite() => format!("{v}"),
                    Value::Float(_) => "0".to_string(),
                    Value::Count(n) => n.to_string(),
                };
                format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#)
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Untraced cells of one loop.
type Untraced = LoopRun<(CellReport, CellPerf)>;

/// Sets the workload up and runs its cells untraced through the harness's
/// public `run_cell` entry point (the instrumented form, which is what
/// `run_campaign` maps over).
fn run_untraced(w: Workload, seed: u64, stop: Stop) -> (ScenarioMatrix, Untraced) {
    let origin = Instant::now();
    let matrix = w.matrix();
    matrix.validate().expect("workload matrices are valid");
    let cells = matrix.cells();
    let run = closed_loop(origin, WORKERS, cells.len(), stop, |pass, cell, _| {
        run_cell_instrumented(&cells[cell], &w.config(w.pass_seed(seed, pass), WORKERS))
    });
    (matrix, run)
}

/// The set-up of [`run_untraced`] alone: everything up to handing out the
/// first cell.
fn setup_probe(w: Workload) -> Duration {
    let origin = Instant::now();
    let matrix = w.matrix();
    matrix.validate().expect("workload matrices are valid");
    let cells = matrix.cells();
    closed_loop(origin, WORKERS, cells.len(), Stop::Passes(0), |_, _, _| ()).setup
}

/// Failed cells, keyed by (pass, cell), with the reason.
type Failures = BTreeMap<(usize, usize), String>;

/// Output checks of an untraced loop: each row at any seed, and the pinned
/// pass's whole report byte for byte.
fn check_untraced(w: Workload, matrix: &ScenarioMatrix, run: &Untraced, failures: &mut Failures) {
    let coords = matrix.cells();
    for c in &run.cells {
        if let Err(e) = check_row(&coords[c.cell], &c.out.0) {
            failures.insert((c.pass, c.cell), e);
        }
    }
    let pinned: Vec<CellReport> = run
        .cells
        .iter()
        .filter(|c| c.pass == 0)
        .map(|c| c.out.0.clone())
        .collect();
    let config = w.config(w.pass_seed(0, 0), WORKERS);
    let json = assemble_report(matrix, &config, pinned).to_canonical_json();
    if let Err(e) = w.check_pinned_report(&json) {
        for cell in 0..coords.len() {
            failures
                .entry((0, cell))
                .or_insert_with(|| format!("pinned report: {e}"));
        }
    }
}

fn report_failures(failures: &Failures) {
    for ((pass, cell), reason) in failures {
        eprintln!("FAILED pass {pass} cell {cell}: {reason}");
    }
}

fn untraced_run(args: &Args) -> BenchResult {
    let w = args.workload;
    let mut setups: Vec<f64> = (0..SETUP_PROBES)
        .map(|_| setup_probe(w).as_secs_f64())
        .collect();
    let (matrix, run) = run_untraced(w, args.seed, Stop::After(secs(args.seconds)));
    setups.push(run.setup.as_secs_f64());

    let mut failures = Failures::new();
    check_untraced(w, &matrix, &run, &mut failures);
    report_failures(&failures);

    let durations: Vec<f64> = run
        .cells
        .iter()
        .map(|c| c.span.len().as_secs_f64())
        .collect();
    let cells_per_s = run.cells.len() as f64 / run.wall.as_secs_f64();
    eprintln!(
        "{} passes, {} cells in {:.3} s: {:.3} cells/s, cell p50 {:.4} s, p90 {:.4} s, max {:.4} s",
        run.passes,
        run.cells.len(),
        run.wall.as_secs_f64(),
        cells_per_s,
        percentile(&durations, 0.5),
        percentile(&durations, 0.9),
        percentile(&durations, 1.0),
    );
    BenchResult {
        correct: failures.is_empty(),
        attempted: run.cells.len(),
        failed: failures.len(),
        metrics: vec![
            ("cells_per_s", Value::Float(cells_per_s), "1/s"),
            ("cell_p50_s", Value::Float(percentile(&durations, 0.5)), "s"),
            ("cell_p90_s", Value::Float(percentile(&durations, 0.9)), "s"),
            ("setup_s", Value::Float(median(&setups)), "s"),
            ("peak_rss_mib", Value::Float(peak_rss_mib()), "MiB"),
        ],
    }
}

fn traced_run(args: &Args) -> BenchResult {
    let w = args.workload;
    let (matrix, untraced) = run_untraced(
        w,
        args.seed,
        Stop::After(secs(args.seconds * UNTRACED_SHARE)),
    );
    let mut failures = Failures::new();
    check_untraced(w, &matrix, &untraced, &mut failures);

    let coords = matrix.cells();
    let origin = Instant::now();
    let traced = closed_loop(
        origin,
        WORKERS,
        coords.len(),
        Stop::Passes(untraced.passes),
        |pass, cell, _| {
            traced::run_cell(
                &coords[cell],
                &w.config(w.pass_seed(args.seed, pass), WORKERS),
                origin,
            )
        },
    );

    // The traced cell must reproduce the untraced one exactly.
    for (t, u) in traced.cells.iter().zip(&untraced.cells) {
        debug_assert_eq!((t.pass, t.cell), (u.pass, u.cell));
        let (row, perf) = &u.out;
        let mismatch = match &t.out.outcome {
            Ok(o)
                if o.attempts != row.attempts
                    || o.flips_observed != row.flips_observed
                    || o.escalated != row.escalated
                    || o.hammer_iterations != perf.hammer_iterations =>
            {
                Some(format!(
                    "traced outcome {o:?} differs from the untraced row"
                ))
            }
            Ok(_) if t.out.perf != *perf => {
                Some("traced counters differ from the untraced cell's".to_string())
            }
            Err(e) if row.error.as_deref() != Some(e.as_str()) => {
                Some(format!("traced cell failed: {e}"))
            }
            _ => t.out.twin_mismatch.clone(),
        };
        if let Some(reason) = mismatch {
            failures.entry((t.pass, t.cell)).or_insert(reason);
        }
    }

    let pinned: Vec<&CellTrace> = traced
        .cells
        .iter()
        .filter(|c| c.pass == 0)
        .map(|c| &c.out)
        .collect();
    if w == Workload::DefenseSweep {
        if let Err(e) = check_bench_perf(&pinned) {
            for cell in 0..coords.len() {
                failures
                    .entry((0, cell))
                    .or_insert_with(|| format!("counter cross-check: {e}"));
            }
        }
    }
    report_failures(&failures);

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.json", w.name()));
    let chrome = traced::chrome_trace(
        WORKERS,
        traced.cells.iter().map(|c| {
            (
                c.worker,
                format!("{} p{}", cell_label(&coords[c.cell]), c.pass),
                &c.out,
            )
        }),
    );
    match std::fs::create_dir_all(path.parent().expect("trace path has a parent"))
        .and_then(|()| std::fs::write(&path, chrome))
    {
        Ok(()) => eprintln!("trace written to {}", path.display()),
        Err(e) => eprintln!("could not write the trace to {}: {e}", path.display()),
    }

    let metrics = layer_metrics(&untraced, &traced, &pinned);
    BenchResult {
        correct: failures.is_empty(),
        attempted: untraced.cells.len() + traced.cells.len(),
        failed: failures.len(),
        metrics,
    }
}

/// The per-layer metrics of a traced run. Host times are summed over the
/// cells of a pass (averaged over the traced passes); counts are exact, from
/// the pinned pass.
fn layer_metrics(
    untraced: &Untraced,
    traced: &LoopRun<CellTrace>,
    pinned: &[&CellTrace],
) -> Vec<(&'static str, Value, &'static str)> {
    let traces: Vec<&CellTrace> = traced.cells.iter().map(|c| &c.out).collect();
    let passes = traced.passes.max(1) as f64;
    let self_times = traced::layer_self_times(traces.iter().copied());
    let per_pass =
        |name: &str| -> f64 { self_times.get(name).map_or(0.0, Duration::as_secs_f64) / passes };
    let cell_s = traced::inclusive_time(traces.iter().copied(), "cell").as_secs_f64();

    let busy: f64 = untraced
        .cells
        .iter()
        .map(|c| c.span.len().as_secs_f64())
        .sum();
    let idle_frac = 1.0 - busy / (WORKERS as f64 * untraced.wall.as_secs_f64());
    let untraced_cps = untraced.cells.len() as f64 / untraced.wall.as_secs_f64();
    let traced_cps = traced.cells.len() as f64 / traced.wall.as_secs_f64();

    let all = sum_perf(traces.iter().map(|t| &t.perf));
    let hammer_s = self_times
        .get("core.hammer")
        .map_or(0.0, Duration::as_secs_f64);
    let verified: u64 = traces.iter().map(|t| t.pairs_verified).sum();
    let accepted: u64 = traces.iter().map(|t| t.pairs_accepted).sum();

    let exact = sum_perf(pinned.iter().map(|t| &t.perf));
    let kernel = |f: fn(&pthammer_kernel::KernelStats) -> u64| -> Value {
        Value::Count(pinned.iter().map(|t| f(&t.kernel)).sum())
    };
    let attempts: u64 = pinned
        .iter()
        .filter_map(|t| t.outcome.as_ref().ok())
        .map(|o| o.attempts as u64)
        .sum();

    let metrics = vec![
        ("harness.idle_frac", Value::Float(idle_frac), "frac"),
        ("harness.cell_s", Value::Float(cell_s / passes), "s"),
        (
            "defenses.boot_s",
            Value::Float(per_pass("defenses.boot")),
            "s",
        ),
        (
            "kernel.spawn_s",
            Value::Float(per_pass("kernel.spawn")),
            "s",
        ),
        (
            "kernel.frames_allocated",
            kernel(|k| k.page_table_frames + k.user_frames + k.kernel_data_frames),
            "count",
        ),
        (
            "kernel.page_table_frames",
            kernel(|k| k.page_table_frames),
            "count",
        ),
        (
            "kernel.faults_handled",
            kernel(|k| k.faults_handled),
            "count",
        ),
        (
            "core.prepare_s",
            Value::Float(per_pass("core.prepare")),
            "s",
        ),
        (
            "core.prepare.tlb_pool_s",
            Value::Float(per_pass("core.prepare.tlb_pool")),
            "s",
        ),
        (
            "core.prepare.llc_pool_s",
            Value::Float(per_pass("core.prepare.llc_pool")),
            "s",
        ),
        (
            "core.prepare.spray_s",
            Value::Float(per_pass("core.prepare.spray")),
            "s",
        ),
        (
            "core.prepare.victim_profile_s",
            Value::Float(per_pass("core.prepare.victim_profile")),
            "s",
        ),
        (
            "core.pair_select_s",
            Value::Float(per_pass("core.pair_select")),
            "s",
        ),
        ("core.hammer_s", Value::Float(per_pass("core.hammer")), "s"),
        ("core.detect_s", Value::Float(per_pass("core.detect")), "s"),
        (
            "core.exploit_s",
            Value::Float(per_pass("core.exploit")),
            "s",
        ),
        ("core.attempts", Value::Count(attempts), "count"),
        (
            "core.pairs_accepted_frac",
            Value::Float(ratio(accepted as f64, verified as f64)),
            "frac",
        ),
        (
            "core.hammer_iterations",
            Value::Count(exact.hammer_iterations),
            "count",
        ),
        (
            "core.hammer_ns_per_iter",
            Value::Float(ratio(hammer_s * 1e9, all.hammer_iterations as f64)),
            "ns",
        ),
        (
            "patterns.synthesis_s",
            Value::Float(per_pass("patterns.synthesis")),
            "s",
        ),
        ("mmu.walks", Value::Count(exact.counters.tlb.walks), "count"),
        (
            "mmu.tlb_lookups",
            Value::Count(exact.counters.tlb.lookups),
            "count",
        ),
        (
            "cache.accesses",
            Value::Count(exact.counters.cache.l1_accesses),
            "count",
        ),
        (
            "cache.llc_misses",
            Value::Count(exact.counters.cache.llc_misses),
            "count",
        ),
        (
            "dram.activations",
            Value::Count(exact.counters.dram.activations),
            "count",
        ),
        (
            "dram.trr_refreshes",
            Value::Count(exact.counters.dram.trr_refreshes),
            "count",
        ),
        ("sim_cycles", Value::Count(exact.sim_cycles), "count"),
        (
            "machine.host_ns_per_access",
            Value::Float(ratio(cell_s * 1e9, all.counters.cache.l1_accesses as f64)),
            "ns",
        ),
        (
            "bench.trace_overhead_frac",
            Value::Float(ratio(untraced_cps, traced_cps) - 1.0),
            "frac",
        ),
    ];

    eprintln!(
        "untraced: {} passes, {:.3} cells/s; traced: {:.3} cells/s",
        untraced.passes, untraced_cps, traced_cps
    );
    eprintln!("per pass: summed cell time {:.3} s", cell_s / passes);
    for (name, value, unit) in &metrics {
        match (value, *unit) {
            (Value::Float(v), "s") => eprintln!(
                "  {name:<32} {v:>12.4} s  {:>5.1}% of cell time",
                100.0 * ratio(*v, cell_s / passes)
            ),
            (Value::Float(v), _) => eprintln!("  {name:<32} {v:>12.4} {unit}"),
            (Value::Count(n), _) => eprintln!("  {name:<32} {n:>12} {unit}"),
        }
    }
    metrics
}

fn sum_perf<'a>(perfs: impl Iterator<Item = &'a CellPerf>) -> CellPerf {
    let mut total = CellPerf::default();
    for perf in perfs {
        total.absorb(perf);
    }
    total
}

/// Compares the pinned defense-sweep pass's exact counts with the
/// `campaign_ci_matrix` workload of `BENCH_perf.json`.
fn check_bench_perf(pinned: &[&CellTrace]) -> Result<(), String> {
    let perf = sum_perf(pinned.iter().map(|t| &t.perf));
    let outcomes: Vec<_> = pinned
        .iter()
        .filter_map(|t| t.outcome.as_ref().ok())
        .collect();
    let mut ours = perf.counters.named();
    ours.insert("hammer_iterations".into(), perf.hammer_iterations);
    ours.insert("sim_cycles".into(), perf.sim_cycles);
    ours.insert("cells".into(), pinned.len() as u64);
    ours.insert(
        "attempts".into(),
        outcomes.iter().map(|o| o.attempts as u64).sum(),
    );
    ours.insert(
        "flips_observed".into(),
        outcomes.iter().map(|o| o.flips_observed as u64).sum(),
    );
    ours.insert(
        "escalations".into(),
        outcomes.iter().filter(|o| o.escalated).count() as u64,
    );

    let baseline = serde_json::from_str(BENCH_PERF).map_err(|e| format!("{e:?}"))?;
    let counters = baseline
        .get("workloads")
        .and_then(|ws| ws.as_array())
        .and_then(|ws| {
            ws.iter()
                .find(|w| w.get("name").and_then(|n| n.as_str()) == Some("campaign_ci_matrix"))
        })
        .and_then(|w| w.get("counters"))
        .and_then(|c| c.as_object())
        .ok_or("BENCH_perf.json has no campaign_ci_matrix counters")?;
    let mut differ = BTreeSet::new();
    for (name, value) in counters {
        if ours.get(name).copied() != value.as_u64() {
            differ.insert(format!(
                "{name}: ours {:?}, gated {:?}",
                ours.get(name),
                value.as_u64()
            ));
        }
    }
    if differ.is_empty() {
        Ok(())
    } else {
        Err(differ.into_iter().collect::<Vec<_>>().join("; "))
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// Peak resident memory of this process so far, from `/proc/self/status`.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
