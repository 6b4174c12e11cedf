//! Reproduces Table I: system configurations of the modelled machines.
//!
//! With `--measured`, additionally runs the pinned hammer microbenchmark on
//! every machine (and every hammer strategy on the TestSmall machine) and
//! prints measured per-iteration costs. Those numbers are routed through the
//! `pthammer-perf` accounting (the same source `perf_report` and the
//! campaign harness report from), never re-derived from configuration.
use pthammer::HammerMode;
use pthammer_bench::scenarios::HammerMicrobench;
use pthammer_bench::{scenarios, table, ExperimentScale, MachineChoice};

/// Prints one measured-microbench table: `label_header` names the first
/// column, `rows` pairs each label with its measurement.
fn measured_table(title: &str, label_header: &str, rows: &[(String, HammerMicrobench)]) {
    let widths = [24, 10, 12, 12, 14, 12];
    table::header(
        title,
        &[
            label_header,
            "Iters",
            "Cyc/iter",
            "DRAMrate",
            "SimIters/s",
            "HostIt/s",
        ],
        &widths,
    );
    for (label, bench) in rows {
        table::row(
            &[
                label.clone(),
                bench.accounting.iterations.to_string(),
                bench.accounting.cycles_per_iteration().to_string(),
                table::fmt_f64(bench.implicit_dram_rate, 3),
                table::fmt_f64(bench.accounting.sim_iterations_per_second(), 0),
                table::fmt_f64(
                    bench.accounting.host_iterations_per_second(bench.wall_ns),
                    0,
                ),
            ],
            &widths,
        );
    }
}

fn main() {
    let widths = [14, 24, 16, 14, 10];
    table::header(
        "Table I: System Configurations",
        &["Machine", "TLB", "LLC", "DRAM", "Clock"],
        &widths,
    );
    for row in pthammer_bench::scenarios::table1_rows() {
        table::row(row.as_ref(), &widths);
    }

    if !std::env::args().any(|a| a == "--measured") {
        return;
    }
    let scale = ExperimentScale::from_env();
    println!("\nscale: {}", scale.describe());

    let per_machine: Vec<(String, HammerMicrobench)> = MachineChoice::selected()
        .into_iter()
        .map(|machine| {
            (
                machine.name().to_string(),
                scenarios::hammer_microbench(machine, scale, HammerMode::default(), 300, 42),
            )
        })
        .collect();
    measured_table(
        "Measured: double-sided implicit hammer (pthammer-perf accounting)",
        "Machine",
        &per_machine,
    );

    let per_mode: Vec<(String, HammerMicrobench)> = HammerMode::all()
        .into_iter()
        .map(|mode| {
            (
                mode.name().to_string(),
                scenarios::hammer_microbench(MachineChoice::TestSmall, scale, mode, 300, 42),
            )
        })
        .collect();
    measured_table(
        "Measured: per-strategy hammer loop on TestSmall",
        "Mode",
        &per_mode,
    );
}
