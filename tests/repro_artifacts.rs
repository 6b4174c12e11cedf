//! Byte-for-byte goldens of the paper artifacts, and the shape of the two
//! sweeps.
//!
//! Each golden `tests/golden/repro/<artifact>.txt` is what `repro <artifact>`
//! prints at the default scale on the default machine (the Lenovo T420),
//! rendered here in process. The slow artifacts are ignored in a debug
//! `cargo test`; CI runs them in release:
//!
//! ```text
//! cargo test --release --test repro_artifacts -- --include-ignored
//! ```
//!
//! After an intentional output change, refresh with `PTHAMMER_UPDATE_GOLDEN=1`
//! and the same command, commit the goldens and explain the drift.

mod common;

use pthammer_bench::repro::Artifact::{self, Defenses, Escalation, Fig6, Table2};
use pthammer_bench::repro::{render, Flags};
use pthammer_bench::{scenarios, ExperimentScale, MachineChoice};

/// The artifacts that take ~35 s together in debug. Figure 5 is not among
/// them: its explicit hammer fast-forwards, so the debug tier (overflow
/// checks on) runs the padded fast path on every change.
const SLOW: [Artifact; 4] = [Fig6, Table2, Escalation, Defenses];

fn matches_golden(artifact: Artifact) {
    let mut out = Vec::new();
    let (scale, machines) = (ExperimentScale::scaled(), [MachineChoice::LenovoT420]);
    render(artifact, scale, &machines, &Flags::default(), &mut out).expect("render to memory");
    let text = String::from_utf8(out).expect("utf-8 output");
    common::compare_with_golden(&format!("repro/{}.txt", artifact.name()), &text);
}

#[test]
fn fast_artifacts_match_their_goldens() {
    Artifact::all()
        .into_iter()
        .filter(|a| !SLOW.contains(a))
        .for_each(matches_golden);
}

#[test]
#[ignore = "slow in debug; CI runs it in release"]
fn slow_artifacts_match_their_goldens() {
    SLOW.into_iter().for_each(matches_golden);
}

/// TRR stops stock double-sided hammering on the TRR machine, and the
/// synthesized many-sided pattern still flips there.
#[test]
fn trr_contrast_has_its_shape() {
    let contrast = scenarios::trr_contrast(Artifact::Trr.seed());
    assert_eq!(contrast.trr_double_sided.flips_observed, 0);
    assert!(contrast.trr_synthesized.flips_observed > 0);
}

/// At least one victim is exploited on the undefended machine.
#[test]
fn victim_sweep_has_its_shape() {
    let sweep = scenarios::victim_sweep(Artifact::Victims.seed());
    assert_eq!(sweep.rows.len(), 3, "one row per shipped victim");
    assert!(sweep.undefended_successes >= 1);
}
