//! Reproduces Section IV-G: PThammer against the software-only defenses
//! (CATT, RIP-RH, CTA bypassed; ZebRAM stops the attack).
//!
//! The sweep runs as one parallel campaign through `pthammer-harness`; set
//! `PTHAMMER_CAMPAIGN_JSON=1` to dump the canonical campaign report instead
//! of the table.
use pthammer_bench::{table, ExperimentScale, MachineChoice};

fn main() {
    let scale = ExperimentScale::from_env();
    eprintln!("scale: {}", scale.describe());
    let machine = MachineChoice::selected()[0];
    let report = pthammer_bench::scenarios::defense_campaign(machine, scale, 1, 42);

    if std::env::var("PTHAMMER_CAMPAIGN_JSON")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        // Only the canonical JSON goes to stdout, so the output pipes
        // cleanly into jq / diff.
        print!("{}", report.to_canonical_json());
        return;
    }

    let widths = [12, 10, 8, 12, 10, 34];
    table::header(
        "Section IV-G: software-only defenses vs. PThammer",
        &[
            "Defense",
            "Escalated",
            "Flips",
            "Exploitable",
            "Attempts",
            "Route",
        ],
        &widths,
    );
    for cell in &report.cells {
        table::row(
            &[
                cell.coord.defense.name().to_string(),
                cell.escalated.to_string(),
                cell.flips_observed.to_string(),
                cell.exploitable_flips.to_string(),
                cell.attempts.to_string(),
                cell.route
                    .clone()
                    .or(cell.error.clone())
                    .unwrap_or_else(|| "-".to_string()),
            ],
            &widths,
        );
    }
    let widths = [12, 18, 22];
    table::header(
        "Per-defense escalation rates",
        &["Defense", "Escalation rate", "Delta vs undefended"],
        &widths,
    );
    for summary in &report.summaries {
        table::row(
            &[
                summary.group.defense.name().to_string(),
                format!("{:.2}", summary.escalation_rate),
                summary
                    .escalation_rate_delta_vs_undefended
                    .map(|d| format!("{d:+.2}"))
                    .unwrap_or_else(|| "-".to_string()),
            ],
            &widths,
        );
    }
    println!("\nExpected shape: the undefended baseline, CATT, RIP-RH and CTA fall to the attack");
    println!("(CTA via credential corruption rather than page-table takeover); ZebRAM does not.");
}
