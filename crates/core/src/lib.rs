//! # PThammer: cross user–kernel boundary rowhammer through implicit accesses
//!
//! This crate is the reproduction of the paper's primary contribution: an
//! *implicit hammer* attack in which an unprivileged process never touches
//! the memory it hammers. Instead it arranges — purely through its own
//! virtual-memory accesses — for the processor's page-table walker to load a
//! chosen Level-1 page-table entry from DRAM on every iteration, activating
//! kernel-owned aggressor rows until a neighbouring row holding other
//! Level-1 page tables (or `struct cred` objects) flips a bit, and then
//! turns that flip into kernel privilege escalation.
//!
//! The attack runs against the simulated machines and kernel substrate of the
//! companion crates (`pthammer-machine`, `pthammer-kernel`,
//! `pthammer-defenses`); it interacts with them exclusively through the
//! unprivileged system-call surface (`mmap`, memory accesses, `clflush`,
//! `rdtsc`, `getuid`), exactly as the real attack interacts with Linux.
//! Privileged performance counters and physical-address oracles are used
//! only for offline calibration and for evaluation, as in the paper.
//!
//! ## Structure
//!
//! * [`eviction`] — TLB eviction sets (Algorithm 1) and the LLC eviction-set
//!   pool plus Algorithm 2 selection.
//! * [`spray`] — page-table spraying.
//! * [`pairs`] — double-sided pair selection and row-buffer-conflict
//!   verification.
//! * [`hammer`] — the pluggable [`HammerStrategy`] layer. [`HammerMode`] is
//!   the built-in strategy, one table row per mode, the explicit `clflush`
//!   baseline among them. Every implicit mode arms its aggressors through
//!   one helper into one per-aggressor eviction-set list.
//! * [`trace`] — [`CompiledTrace`], the one executor every hammer loop runs
//!   through, and the [`HammerStats`] it accumulates.
//! * [`detect`] / [`exploit`] — finding corrupted mappings and the
//!   exploitation primitives behind the victims.
//! * [`victim`] — the victim & exploitation layer: the [`Victim`] trait's
//!   `profile → evaluate → attack` lifecycle and the shipped victims
//!   ([`victim::PteTakeover`], [`victim::CredCorruption`],
//!   [`victim::KeyRecovery`]), selectable by [`VictimChoice`].
//! * [`pipeline`] — the staged `Prepare → PairSelect → Hammer → Detect →
//!   Exploit` pipeline (crate-private) and its public one-off preparation,
//!   [`pipeline::prepare_attack`].
//! * [`events`] — the typed events the pipeline narrates itself on; all
//!   timing accounting is an event subscriber, and so is every
//!   [`EventSink`] a run is given.
//! * [`attack`] — [`PtHammer::run_with`], the one driver of the pipeline,
//!   with its [`RunOptions`] builder.
//!
//! ## Example
//!
//! ```no_run
//! use pthammer::{AttackConfig, PtHammer, RunOptions};
//! use pthammer_dram::FlipModelProfile;
//! use pthammer_kernel::System;
//! use pthammer_machine::MachineConfig;
//!
//! # fn main() -> Result<(), pthammer::AttackError> {
//! let machine = MachineConfig::lenovo_t420(FlipModelProfile::fast(), 42);
//! let mut system = System::undefended(machine);
//! let pid = system.spawn_process(1000).map_err(pthammer::AttackError::from)?;
//!
//! let attack = PtHammer::new(AttackConfig::quick_test(42, false))?;
//! let outcome = attack.run_with(&mut system, pid, RunOptions::new())?;
//! println!(
//!     "escalated: {} after {} attempts ({} flips observed)",
//!     outcome.escalated, outcome.attempts, outcome.flips_observed
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod config;
pub mod detect;
pub mod error;
pub mod events;
pub mod eviction;
pub mod exploit;
pub mod hammer;
pub mod pairs;
pub mod pipeline;
pub mod report;
pub mod spray;
pub mod trace;
pub mod victim;

pub use attack::{PreparedAttack, PtHammer, RunOptions};
pub use config::AttackConfig;
pub use detect::{CapturedPageKind, FlipFinding};
pub use error::AttackError;
pub use events::{AttackEvent, AttackPhase, EventSink};
pub use eviction::{
    LlcCalibration, LlcEvictionPool, SelectedEvictionSet, TlbCalibration, TlbEvictionPool,
    TlbEvictionSet, TlbMapping, LLC_EVICTION_PASSES,
};
pub use hammer::{HammerMode, HammerStats, HammerStrategy, RoundOp, Target};
pub use pairs::{HammerPair, PairVerification};
pub use report::{AttackOutcome, PageSetting, StageTimings};
pub use spray::{SprayRegion, SPRAY_PATTERN};
pub use trace::CompiledTrace;
pub use victim::{FlipProfile, FlipTarget, Victim, VictimChoice, VictimOutcome, VictimVerdict};
