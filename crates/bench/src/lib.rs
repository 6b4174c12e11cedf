//! Reproduction harness for every table and figure of the PThammer paper.
//!
//! The experiment logic lives in [`scenarios`]; each `repro_*` binary is a
//! thin wrapper that runs one scenario and prints the corresponding table or
//! figure series.
//!
//! Scale knobs: by default the scenarios run in a *scaled* mode (the Table I
//! machine models with the `fast` weak-cell profile and a reduced spray) so a
//! full reproduction finishes in minutes of host time; set the environment
//! variable `PTHAMMER_FULL=1` to use the paper-calibrated profile and spray
//! sizes, and `PTHAMMER_ALL_MACHINES=1` to run every Table I machine instead
//! of only the Lenovo T420. The shapes reported in EXPERIMENTS.md hold in
//! either mode.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scenarios;
pub mod table;

pub use scenarios::{DefenseChoice, ExperimentScale, MachineChoice};
