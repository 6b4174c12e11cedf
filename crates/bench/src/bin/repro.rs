//! `repro <artifact>`: prints one table, figure or section result of the
//! paper (`repro all` prints every one). Run without arguments for the list.
//!
//! `PTHAMMER_FULL=1` selects the paper scale, `PTHAMMER_ALL_MACHINES=1` every
//! Table I machine, and `PTHAMMER_CAMPAIGN_JSON=1` makes `defenses` print the
//! canonical campaign JSON instead of its tables.
use pthammer_bench::repro;
use pthammer_bench::{ExperimentScale, MachineChoice};

fn main() {
    let (artifacts, mut flags) = repro::parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("repro: {e}\n\n{}", repro::usage());
        std::process::exit(2);
    });
    flags.campaign_json = std::env::var("PTHAMMER_CAMPAIGN_JSON").is_ok_and(|v| v == "1");
    let scale = ExperimentScale::from_env();
    let machines = MachineChoice::selected();
    let mut out = std::io::stdout().lock();
    for artifact in artifacts {
        repro::render(artifact, scale, &machines, &flags, &mut out)
            .unwrap_or_else(|e| panic!("writing `repro {}` to stdout: {e}", artifact.name()));
    }
}
