//! Reproduction harness for every table and figure of the PThammer paper.
//!
//! The experiment logic lives in [`scenarios`]. [`repro`] names the paper's
//! twelve artifacts, the TRR-era contrast and the Section V victim sweep,
//! and prints each one; the `repro <artifact>` binary only parses its
//! arguments and calls it. `repro_campaign` and `perf_report` are binaries
//! of their own.
//!
//! Scale knobs: by default the scenarios run in a *scaled* mode (the Table I
//! machine models with the `fast` weak-cell profile and a reduced spray) so a
//! full reproduction finishes in minutes of host time; set the environment
//! variable `PTHAMMER_FULL=1` to use the paper-calibrated profile and spray
//! sizes, and `PTHAMMER_ALL_MACHINES=1` to run every Table I machine instead
//! of only the Lenovo T420. EXPERIMENTS.md lists the expected shapes the
//! scaled run does not show.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod repro;
pub mod scenarios;

pub use scenarios::{DefenseChoice, ExperimentScale, MachineChoice};
