//! Simulated CPU cache hierarchy for the PThammer reproduction.
//!
//! Models the structures that PThammer's LLC eviction sets interact with: a
//! small L1 data cache, a unified L2, and a physically-indexed, sliced,
//! inclusive last-level cache (LLC) with per-level replacement policies and
//! Intel-style complex slice addressing. Inclusive LLC evictions
//! back-invalidate the inner levels, which is what makes eviction-based
//! rowhammer possible on the modelled Sandy Bridge / Ivy Bridge machines.
//!
//! The hierarchy tracks only presence and timing — data contents live in the
//! machine layer's sparse physical memory.
//!
//! # Examples
//!
//! ```
//! use pthammer_cache::{CacheHierarchy, CacheHierarchyConfig};
//! use pthammer_types::PhysAddr;
//!
//! let mut caches = CacheHierarchy::new(CacheHierarchyConfig::sandy_bridge_3mib());
//! let a = PhysAddr::new(0x4_0000);
//! assert!(caches.access(a).hit_level.is_none()); // cold miss, filled on the way
//! assert!(caches.access(a).hit_level.is_some()); // now cached
//! ```

// The set kernel's line compare (`kernel::TagLine::mask`) is the one
// `unsafe` block: SSE2 intrinsics, for which stable Rust has no safe form.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod hierarchy;
mod kernel;
mod pmc;
mod replacement;
mod slice;

pub use cache::SetAssociativeCache;
pub use config::{CacheHierarchyConfig, CacheLevelConfig, LlcConfig};
pub use hierarchy::{CacheFootprint, CacheHierarchy, HierarchyAccess};
pub use kernel::{Assoc, Probe, SetStore, EMPTY_TAG, MAX_WAYS};
pub use pmc::CachePmc;
pub use replacement::{ReplacementPolicy, ReplacementState};
pub use slice::SliceHasher;
