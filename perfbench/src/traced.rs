//! The traced cell driver: one campaign cell, booted and attacked exactly as
//! `pthammer_harness::run_cell` does, with a host-clock span around every
//! call into a layer and an event sink on the attack pipeline's bus.
//!
//! The pipeline announces Prepare as one phase, so the split into TLB pool,
//! LLC pool and spray is timed on a twin: a second system booted from the
//! same cell seed, on which the benchmark calls the three builders itself.
//! The twin's simulated cycles must equal the cell's `PoolsPrepared` event,
//! which shows the twin repeats the pipeline's own work.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use pthammer::eviction::{LlcEvictionPool, TlbEvictionPool};
use pthammer::spray::spray_page_tables;
use pthammer::{AttackEvent, AttackOutcome, AttackPhase, EventSink, PtHammer, RunOptions};
use pthammer_defenses::DefenseChoice;
use pthammer_harness::{cell_seed, CampaignConfig, CellCoord, CellPerf};
use pthammer_kernel::{KernelConfig, KernelStats, Pid, System};
use pthammer_machine::MachineConfig;
use pthammer_patterns::PatternHammer;
use pthammer_perf::{HammerEventTally, MachineCounters};

use crate::stats::{self_time, Interval};

/// One recorded span. Index 0 of a cell's spans is the cell itself.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (the metric it feeds).
    pub name: &'static str,
    /// Host interval.
    pub span: Interval,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// The headline outcome of a traced attack, compared with the untraced row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Hammer attempts.
    pub attempts: usize,
    /// Corrupted mappings observed.
    pub flips_observed: usize,
    /// Hammer iterations counted on the event bus.
    pub hammer_iterations: u64,
    /// Whether the attack escalated.
    pub escalated: bool,
}

/// Everything one traced cell recorded.
#[derive(Debug)]
pub struct CellTrace {
    /// Spans of the cell and of its Prepare twin.
    pub spans: Vec<Span>,
    /// The attack's outcome, or the error that stopped it.
    pub outcome: Result<Outcome, String>,
    /// The cell's exact simulated-hardware accounting.
    pub perf: CellPerf,
    /// The cell's kernel allocation counters.
    pub kernel: KernelStats,
    /// Candidate pairs the strategy checked.
    pub pairs_verified: u64,
    /// Candidate pairs it accepted for hammering.
    pub pairs_accepted: u64,
    /// Why the twin's Prepare differed from the cell's, if it did.
    pub twin_mismatch: Option<String>,
}

/// Layer name of each pipeline phase.
fn phase_layer(phase: AttackPhase) -> &'static str {
    match phase {
        AttackPhase::Prepare => "core.prepare",
        AttackPhase::PairSelect => "core.pair_select",
        AttackPhase::Hammer => "core.hammer",
        AttackPhase::Detect => "core.detect",
        AttackPhase::Exploit => "core.exploit",
    }
}

/// Event sink turning the pipeline's phase events into host-clock spans.
struct PhaseRecorder {
    origin: Instant,
    open: Option<(AttackPhase, Duration)>,
    phases: Vec<(AttackPhase, Interval)>,
    /// Host time and payload (TLB cycles, LLC cycles, L1PT count) of
    /// `PoolsPrepared`.
    pools: Option<(Duration, [u64; 3])>,
    profiled_at: Option<Duration>,
    verified: u64,
    accepted: u64,
}

impl PhaseRecorder {
    fn new(origin: Instant) -> Self {
        Self {
            origin,
            open: None,
            phases: Vec::new(),
            pools: None,
            profiled_at: None,
            verified: 0,
            accepted: 0,
        }
    }
}

impl EventSink for PhaseRecorder {
    fn on_event(&mut self, event: &AttackEvent) {
        let now = self.origin.elapsed();
        match event {
            AttackEvent::PhaseEntered { phase, .. } => self.open = Some((*phase, now)),
            AttackEvent::PhaseExited { .. } => {
                if let Some((phase, start)) = self.open.take() {
                    self.phases.push((phase, Interval { start, end: now }));
                }
            }
            AttackEvent::PoolsPrepared {
                tlb_pool_cycles,
                llc_pool_cycles,
                l1pt_count,
            } => self.pools = Some((now, [*tlb_pool_cycles, *llc_pool_cycles, *l1pt_count])),
            AttackEvent::VictimProfiled { .. } => self.profiled_at = Some(now),
            AttackEvent::PairVerified { accepted, .. } => {
                self.verified += 1;
                self.accepted += u64::from(*accepted);
            }
            _ => {}
        }
    }
}

/// Runs `f` inside a span named `name` under `parent`.
fn timed<T>(
    spans: &mut Vec<Span>,
    origin: Instant,
    name: &'static str,
    parent: usize,
    f: impl FnOnce() -> T,
) -> T {
    let start = origin.elapsed();
    let out = f();
    spans.push(Span {
        name,
        span: Interval {
            start,
            end: origin.elapsed(),
        },
        parent: Some(parent),
    });
    out
}

fn kernel_config(config: &CampaignConfig) -> KernelConfig {
    if config.superpages {
        KernelConfig::with_superpages()
    } else {
        KernelConfig::default_config()
    }
}

/// Spawns the attacker and, on CTA cells, the `struct cred` spray — the
/// steps `run_cell` takes between boot and the attack.
fn spawn(sys: &mut System, coord: &CellCoord, config: &CampaignConfig) -> Result<Pid, String> {
    let pid = sys.spawn_process(1000).map_err(|e| e.to_string())?;
    if coord.defense == DefenseChoice::Cta && config.cta_cred_spray > 0 {
        sys.spawn_processes(config.cta_cred_spray, 1000)
            .map_err(|e| e.to_string())?;
    }
    Ok(pid)
}

/// Runs one cell with tracing; span times are offsets from `origin`.
pub fn run_cell(coord: &CellCoord, config: &CampaignConfig, origin: Instant) -> CellTrace {
    let cell_start = origin.elapsed();
    let mut spans = vec![Span {
        name: "cell",
        span: Interval {
            start: cell_start,
            end: cell_start,
        },
        parent: None,
    }];
    let seed = cell_seed(config.base_seed, coord);
    let machine_cfg = coord.machine.config(coord.profile.profile(), seed);
    let mut sys = timed(&mut spans, origin, "defenses.boot", 0, || {
        coord
            .defense
            .build_system(machine_cfg.clone(), kernel_config(config))
    });

    let mut tally = HammerEventTally::new();
    let mut recorder = PhaseRecorder::new(origin);
    let attack = attack_cell(
        &mut sys,
        coord,
        config,
        seed,
        &machine_cfg,
        origin,
        &mut spans,
        &mut tally,
        &mut recorder,
    );
    let cell_end = origin.elapsed();
    spans[0].span.end = cell_end;

    let perf = CellPerf {
        counters: MachineCounters::capture(sys.machine()),
        hammer_iterations: tally.iterations,
        sim_cycles: sys.rdtsc(),
    };
    let kernel = sys.stats();
    drop(sys);

    let mut prepare_index = None;
    for (phase, span) in &recorder.phases {
        if *phase == AttackPhase::Prepare {
            prepare_index = Some(spans.len());
        }
        spans.push(Span {
            name: phase_layer(*phase),
            span: *span,
            parent: Some(0),
        });
    }
    // A phase an error interrupted never exited; it ended with the cell.
    if let Some((phase, start)) = recorder.open.take() {
        spans.push(Span {
            name: phase_layer(phase),
            span: Interval {
                start,
                end: cell_end,
            },
            parent: Some(0),
        });
    }
    if let (Some(prepare), Some((pools_at, _)), Some(profiled_at)) =
        (prepare_index, recorder.pools, recorder.profiled_at)
    {
        spans.push(Span {
            name: "core.prepare.victim_profile",
            span: Interval {
                start: pools_at,
                end: profiled_at,
            },
            parent: Some(prepare),
        });
    }

    let twin = twin_prepare(coord, config, seed, machine_cfg, origin, &mut spans);
    let twin_mismatch = match (recorder.pools, twin) {
        (Some((_, pipeline)), Ok(twin)) if pipeline != twin => Some(format!(
            "twin Prepare (tlb cycles, llc cycles, L1PTs) = {twin:?}, pipeline reported {pipeline:?}"
        )),
        (Some(_), Err(e)) => Some(format!("twin Prepare failed where the pipeline's did not: {e}")),
        _ => None,
    };

    CellTrace {
        spans,
        outcome: attack.map(|o| Outcome {
            attempts: o.attempts,
            flips_observed: o.flips_observed,
            hammer_iterations: tally.iterations,
            escalated: o.escalated,
        }),
        perf,
        kernel,
        pairs_verified: recorder.verified,
        pairs_accepted: recorder.accepted,
        twin_mismatch,
    }
}

/// The part of `run_cell` after boot: spawn, pattern, victim, attack.
#[allow(clippy::too_many_arguments)]
fn attack_cell(
    sys: &mut System,
    coord: &CellCoord,
    config: &CampaignConfig,
    seed: u64,
    machine_cfg: &MachineConfig,
    origin: Instant,
    spans: &mut Vec<Span>,
    tally: &mut HammerEventTally,
    recorder: &mut PhaseRecorder,
) -> Result<AttackOutcome, String> {
    let pid = timed(spans, origin, "kernel.spawn", 0, || {
        spawn(sys, coord, config)
    })?;
    let attack = PtHammer::new(config.attack_config(seed, coord.defense, coord.hammer_mode))
        .map_err(|e| e.to_string())?;
    let strategy = timed(spans, origin, "patterns.synthesis", 0, || {
        let synthesis_cfg = config.synthesis_config(machine_cfg);
        coord
            .pattern
            .map(|choice| PatternHammer::new(choice.resolve(&synthesis_cfg, seed)))
            .transpose()
    })?;
    let mut options = RunOptions::new()
        .observed_by(tally as &mut dyn EventSink)
        .observed_by(recorder as &mut dyn EventSink);
    if let Some(strategy) = strategy {
        options = options.strategy(Box::new(strategy));
    }
    if let Some(choice) = coord.victim {
        options = options.victim(choice.build());
    }
    attack
        .run_with(sys, pid, options)
        .map_err(|e| e.to_string())
}

/// Boots the twin and builds the TLB pool, the LLC pool and the spray one
/// call at a time, returning what `PoolsPrepared` reports for them.
fn twin_prepare(
    coord: &CellCoord,
    config: &CampaignConfig,
    seed: u64,
    machine_cfg: MachineConfig,
    origin: Instant,
    spans: &mut Vec<Span>,
) -> Result<[u64; 3], String> {
    let twin = spans.len();
    let start = origin.elapsed();
    spans.push(Span {
        name: "twin",
        span: Interval { start, end: start },
        parent: None,
    });
    let result = (|| {
        let (mut sys, pid) = timed(spans, origin, "twin.boot", twin, || {
            let mut sys = coord
                .defense
                .build_system(machine_cfg, kernel_config(config));
            spawn(&mut sys, coord, config).map(|pid| (sys, pid))
        })?;
        let attack = config.attack_config(seed, coord.defense, coord.hammer_mode);
        let tlb = timed(spans, origin, "core.prepare.tlb_pool", twin, || {
            let pages = PtHammer::tlb_eviction_pages(&sys);
            TlbEvictionPool::build(&mut sys, pid, &attack, pages)
        })
        .map_err(|e| e.to_string())?;
        let llc = timed(spans, origin, "core.prepare.llc_pool", twin, || {
            let lines = PtHammer::llc_eviction_lines(&sys);
            LlcEvictionPool::build(&mut sys, pid, &attack, lines)
        })
        .map_err(|e| e.to_string())?;
        let spray = timed(spans, origin, "core.prepare.spray", twin, || {
            spray_page_tables(&mut sys, pid, &attack)
        })
        .map_err(|e| e.to_string())?;
        Ok([tlb.prep_cycles(), llc.prep_cycles(), spray.l1pt_count()])
    })();
    spans[twin].span.end = origin.elapsed();
    result
}

/// Host self time per layer, summed over `traces`.
pub fn layer_self_times<'a>(
    traces: impl IntoIterator<Item = &'a CellTrace>,
) -> BTreeMap<&'static str, Duration> {
    let mut totals = BTreeMap::new();
    for trace in traces {
        for (i, span) in trace.spans.iter().enumerate() {
            let children: Vec<Interval> = trace
                .spans
                .iter()
                .filter(|s| s.parent == Some(i))
                .map(|s| s.span)
                .collect();
            *totals.entry(span.name).or_insert(Duration::ZERO) += self_time(span.span, &children);
        }
    }
    totals
}

/// Total (inclusive) host time of the spans named `name`, over `traces`.
pub fn inclusive_time<'a>(traces: impl IntoIterator<Item = &'a CellTrace>, name: &str) -> Duration {
    traces
        .into_iter()
        .flat_map(|t| t.spans.iter())
        .filter(|s| s.name == name)
        .map(|s| s.span.len())
        .sum()
}

/// Chrome trace-event JSON of traced cells: one track per worker thread,
/// cell and twin spans with their phases and Prepare sub-steps nested
/// inside. Opens in Perfetto and `chrome://tracing`.
pub fn chrome_trace<'a>(
    workers: usize,
    cells: impl IntoIterator<Item = (usize, String, &'a CellTrace)>,
) -> String {
    let mut events: Vec<String> = (0..workers)
        .map(|w| {
            format!(
                r#"{{"name":"thread_name","ph":"M","pid":1,"tid":{w},"args":{{"name":"worker {w}"}}}}"#
            )
        })
        .collect();
    for (worker, label, trace) in cells {
        for span in &trace.spans {
            let name = if span.parent.is_none() {
                format!("{} {}", span.name, label)
            } else {
                span.name.to_string()
            };
            events.push(format!(
                r#"{{"name":"{}","cat":"{}","ph":"X","pid":1,"tid":{},"ts":{:.3},"dur":{:.3}}}"#,
                json_escape(&name),
                span.name.split('.').next().unwrap_or(span.name),
                worker,
                span.span.start.as_secs_f64() * 1e6,
                span.span.len().as_secs_f64() * 1e6,
            ));
        }
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ms: u64, end_ms: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            span: Interval {
                start: Duration::from_millis(start_ms),
                end: Duration::from_millis(end_ms),
            },
            parent,
        }
    }

    fn trace(spans: Vec<Span>) -> CellTrace {
        CellTrace {
            spans,
            outcome: Err("test".into()),
            perf: CellPerf::default(),
            kernel: KernelStats::default(),
            pairs_verified: 0,
            pairs_accepted: 0,
            twin_mismatch: None,
        }
    }

    #[test]
    fn layer_self_times_subtract_each_span_children_only() {
        let t = trace(vec![
            span("cell", 0, 100, None),
            span("defenses.boot", 0, 10, Some(0)),
            span("core.prepare", 10, 60, Some(0)),
            span("core.prepare.victim_profile", 50, 60, Some(2)),
            span("core.hammer", 60, 90, Some(0)),
            span("twin", 100, 150, None),
            span("core.prepare.tlb_pool", 105, 140, Some(5)),
        ]);
        let times = layer_self_times([&t, &t]);
        let ms = |name| times[name].as_millis();
        assert_eq!(ms("cell"), 2 * 10);
        assert_eq!(ms("defenses.boot"), 2 * 10);
        assert_eq!(ms("core.prepare"), 2 * 40);
        assert_eq!(ms("core.prepare.victim_profile"), 2 * 10);
        assert_eq!(ms("core.hammer"), 2 * 30);
        assert_eq!(ms("twin"), 2 * 15);
        assert_eq!(ms("core.prepare.tlb_pool"), 2 * 35);
        assert_eq!(inclusive_time([&t], "cell").as_millis(), 100);
    }

    #[test]
    fn chrome_trace_names_top_level_spans_after_their_cell() {
        let t = trace(vec![
            span("cell", 0, 2, None),
            span("core.hammer", 0, 1, Some(0)),
        ]);
        let json = chrome_trace(2, [(1, "Test Small/\"x\"#0".to_string(), &t)]);
        assert!(json.contains(r##""name":"cell Test Small/\"x\"#0","cat":"cell""##));
        assert!(json.contains(r#""name":"core.hammer","cat":"core","ph":"X","pid":1,"tid":1,"ts":0.000,"dur":1000.000"#));
        assert!(json.contains(r#""tid":1,"args":{"name":"worker 1"}"#));
        assert!(serde_json::from_str(&json).is_ok());
    }
}
