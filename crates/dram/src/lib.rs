//! Simulated DRAM substrate for the PThammer reproduction.
//!
//! The PThammer paper hammers physical DDR3 DIMMs; this crate provides the
//! software stand-in: DRAM geometry, physical-address-to-DRAM-location
//! mapping (both a simple sequential mapping and a DRAMA-style XOR bank
//! function), per-bank row buffers with open-page timing, refresh windows, a
//! deterministic weak-cell model that emits rowhammer bit flips when adjacent
//! rows are activated often enough within a refresh window, and an optional
//! Target Row Refresh (TRR) mitigation.
//!
//! The module never stores data: it reports [`FlipEvent`]s and the machine
//! layer applies them to its sparse physical memory, honouring each cell's
//! [`CellOrientation`](pthammer_types::CellOrientation).
//!
//! # Examples
//!
//! ```
//! use pthammer_dram::{DramConfig, DramModule, FlipModelProfile};
//! use pthammer_types::{Cycles, PhysAddr};
//!
//! let config = DramConfig::ddr3_8gib(FlipModelProfile::fast(), 1);
//! let mut dram = DramModule::new(config);
//! let outcome = dram.access(PhysAddr::new(0x1234_5678), Cycles::new(1000));
//! assert!(outcome.latency.as_u64() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod bank;
mod config;
mod flip_event;
mod geometry;
mod module;
mod row_buffer;
mod rows;
mod stats;
mod timing;
mod trr;
mod vulnerability;

pub use address::{AddressMapping, DramAddress, MappingKind};
pub use bank::{Bank, BankCheckpoint};
pub use config::DramConfig;
pub use flip_event::FlipEvent;
pub use geometry::DramGeometry;
pub use module::{DramAccessOutcome, DramModule};
pub use row_buffer::{RowBuffer, RowBufferOutcome, RowBufferPolicy};
pub use rows::RowDisturbance;
pub use stats::DramStats;
pub use timing::DramTimings;
pub use trr::TrrConfig;
pub use vulnerability::{FlipModel, FlipModelProfile, WeakCell};
