//! Parallel scenario-matrix campaign harness for the PThammer reproduction.
//!
//! The paper's central claims (Tables I–II, Figures 3–6, Section IV-G) are
//! sweeps over *machines × defenses × DRAM flip profiles*; this crate makes
//! that sweep a first-class, declarative object:
//!
//! * [`ScenarioMatrix`] — the cross product of [`MachineChoice`],
//!   [`DefenseChoice`], [`ProfileChoice`], optional pattern and
//!   [`VictimChoice`] axes, and per-cell seed repetitions. A cell's typed
//!   coordinates are one [`CellCoord`]; a summary row's are one
//!   [`SummaryGroup`]. One axis table in `matrix.rs` drives every encoding
//!   of them: report rows, store keys, labels and seeds.
//! * [`CampaignConfig`] — attack scale, worker count, and the campaign base
//!   seed.
//! * [`run_campaign`] — fans the cells out across worker threads and
//!   aggregates every [`AttackOutcome`](pthammer::AttackOutcome) into a
//!   [`CampaignReport`] with per-defense summaries and deltas against the
//!   undefended baseline.
//! * [`run_campaign_resumable`] / [`run_campaign_shard`] / [`merge_stores`]
//!   — the same cells through the content-addressed
//!   [`CellStore`], making campaigns killable,
//!   resumable, and shardable across invocations with byte-identical
//!   reports (see [`resume`]).
//!
//! # Determinism
//!
//! Every cell derives its seed as a hash of the campaign base seed and the
//! cell's *coordinates* (machine, profile, repetition index — deliberately
//! not the defense, so defense rows attack identical weak-cell maps) — never
//! of its position in the matrix or the thread that happens to run it. Cells
//! never share mutable state, and results are collected in matrix order, so
//! the same base seed produces **byte-identical canonical JSON** regardless
//! of worker count or scheduling. The committed golden snapshots under
//! `tests/golden/` pin this property in CI.
//!
//! # Example
//!
//! ```no_run
//! use pthammer_harness::{CampaignConfig, ProfileChoice, ScenarioMatrix};
//! use pthammer_defenses::DefenseChoice;
//! use pthammer_machine::MachineChoice;
//!
//! let matrix = ScenarioMatrix::new(
//!     vec![MachineChoice::TestSmall],
//!     DefenseChoice::all(),
//!     vec![ProfileChoice::Ci],
//!     3,
//! );
//! let report = pthammer_harness::run_campaign(&matrix, &CampaignConfig::ci(42));
//! println!("{}", report.to_canonical_json());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod matrix;
mod report;
pub mod resume;
mod seeding;

pub use campaign::{
    run_campaign, run_campaign_instrumented, run_cell, run_cell_inspected, run_cell_instrumented,
    CampaignConfig, CellPerf,
};
pub use matrix::{CellCoord, ProfileChoice, ScenarioMatrix, SummaryGroup};
pub use report::{CampaignReport, CellReport, DefenseSummary, ExploitOutcome, ExploitSummary};
pub use resume::{
    cell_store_key, merge_stores, run_campaign_resumable, run_campaign_resumable_instrumented,
    run_campaign_shard, store_manifest, MergeStats, ResumeStats,
};
pub use seeding::{cell_seed, CELL_SEED_SCHEMA_VERSION};

pub use pthammer::{HammerMode, VictimChoice};
pub use pthammer_defenses::DefenseChoice;
pub use pthammer_kernel::DefenseKind;
pub use pthammer_machine::MachineChoice;
pub use pthammer_store::{CellKey, CellLookup, CellStore, ShardSpec, StoreError, StoreManifest};
