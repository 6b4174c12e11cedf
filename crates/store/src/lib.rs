//! Content-addressed on-disk cell store for resumable, shardable campaigns.
//!
//! A `ScenarioMatrix` campaign is a pure function from cell coordinates to
//! cell reports, which makes its results cacheable by coordinate: this crate
//! stores each completed cell under a [`CellKey`] — the 128-bit FNV-1a hash
//! of the cell's canonical coordinate string (machine, defense, profile,
//! hammer mode, repetition, seed-schema version) — with the cell's canonical
//! JSON as the value. On top of that, three properties make campaigns
//! restartable and distributable:
//!
//! * **Atomicity** — [`CellStore::put`] writes to a temp file and renames it
//!   into place, so a killed campaign never leaves a half-written cell; a
//!   resumed run picks up exactly the completed prefix for free.
//! * **Integrity** — every cell file carries a header with the content hash
//!   of its body; [`CellStore::get`] re-hashes on read and reports a
//!   truncated or corrupted file as [`CellLookup::Corrupt`] (recompute), not
//!   as bad data and never as a crash.
//! * **Compatibility** — a store is bound to one campaign shape by its
//!   [`StoreManifest`] (store schema, seed schema, base seed, superpage
//!   setting, config fingerprint). [`CellStore::open`] refuses a store whose
//!   manifest does not match byte-for-byte, so a seed-schema bump or a
//!   config change invalidates stale entries loudly instead of serving them.
//!
//! [`ShardSpec`] partitions the key space deterministically (`key mod n`),
//! so `n` disjoint invocations — different processes, hosts, or CI jobs —
//! cover disjoint cells of the same matrix and their stores merge into one
//! report (see `pthammer_harness::merge_stores`).
//!
//! This crate is deliberately coordinate-agnostic: it stores `(key, JSON)`
//! pairs, and [`CellStore::lookup`] decodes a verified body into any
//! `Deserialize` type. The harness owns the canonical coordinate string and
//! the report type.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hash;
mod key;
mod manifest;
mod shard;
mod store;

pub use hash::fnv1a_128;
pub use key::CellKey;
pub use manifest::{StoreManifest, STORE_SCHEMA_VERSION};
pub use shard::ShardSpec;
pub use store::{CellLookup, CellStore, StoreError, StoreStatus};
