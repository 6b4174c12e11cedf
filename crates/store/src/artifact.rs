//! Typed, content-addressed caches of deterministic artifacts.
//!
//! An [`Artifact`] names a pure computation (pattern synthesis, a victim's
//! flip-profile templating); an [`ArtifactCache`] stores its outputs in a
//! [`CellStore`] keyed by the artifact's name, schema version and canonical
//! input. A hit is hash-verified and decoded, so it equals a fresh
//! computation; a corrupt or undecodable entry is recomputed.

use std::marker::PhantomData;
use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use crate::hash::fnv1a_128;
use crate::key::CellKey;
use crate::manifest::{StoreManifest, STORE_SCHEMA_VERSION};
use crate::store::{CellLookup, CellStore, StoreError};

/// A deterministic computation whose outputs an [`ArtifactCache`] stores.
pub trait Artifact {
    /// What the output is computed from.
    type Input: ?Sized;
    /// The cached result.
    type Output: Serialize + Deserialize;

    /// Key prefix naming the artifact.
    const NAME: &'static str;
    /// Label whose hash is the cache manifest's config fingerprint.
    const LABEL: &'static str;
    /// Version of the computation and its encoding. It is part of every key
    /// and of the manifest; bump it on any behavioural change so stale
    /// outputs are invalidated instead of resurrected.
    const SCHEMA: u32;

    /// The canonical string of everything the output depends on.
    fn canonical_input(input: &Self::Input) -> String;

    /// Computes the output.
    fn compute(input: &Self::Input) -> Self::Output;
}

/// How an [`ArtifactCache::get_or_compute`] request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactSource {
    /// Served from the store (hash-verified, byte-identical to a fresh
    /// computation).
    Cached,
    /// Computed by this invocation and written through.
    Computed,
    /// Computed because a store entry existed but failed verification or
    /// decoding.
    Recomputed,
}

/// A content-addressed, on-disk cache of one [`Artifact`]'s outputs.
#[derive(Debug)]
pub struct ArtifactCache<A> {
    store: CellStore,
    artifact: PhantomData<fn() -> A>,
}

impl<A: Artifact> ArtifactCache<A> {
    /// The manifest binding a cache directory to the artifact's schema (the
    /// inputs live in the keys, so one cache serves every input).
    pub fn manifest() -> StoreManifest {
        StoreManifest {
            store_schema: STORE_SCHEMA_VERSION,
            seed_schema: A::SCHEMA,
            base_seed: 0,
            superpages: false,
            config_fingerprint: format!("{:032x}", fnv1a_128(A::LABEL.as_bytes())),
        }
    }

    /// The content address of the output for `input`.
    pub fn key(input: &A::Input) -> CellKey {
        CellKey::from_canonical(&format!(
            "{}|s{}|{}",
            A::NAME,
            A::SCHEMA,
            A::canonical_input(input)
        ))
    }

    /// Opens (or initializes) the cache at `root`.
    ///
    /// # Errors
    ///
    /// Propagates [`CellStore::open`] errors, including a manifest mismatch
    /// for directories created under another schema.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        Ok(Self {
            store: CellStore::open(root, &Self::manifest())?,
            artifact: PhantomData,
        })
    }

    /// Returns the cached output, or computes it and writes it through.
    ///
    /// # Errors
    ///
    /// Returns store errors from the write-through; lookups never fail
    /// (corruption means recompute).
    pub fn get_or_compute(
        &self,
        input: &A::Input,
    ) -> Result<(A::Output, ArtifactSource), StoreError> {
        let key = Self::key(input);
        let source = match self.store.lookup(&key) {
            CellLookup::Hit(output) => return Ok((output, ArtifactSource::Cached)),
            CellLookup::Miss => ArtifactSource::Computed,
            CellLookup::Corrupt => ArtifactSource::Recomputed,
        };
        let output = A::compute(input);
        let body = serde_json::to_string(&output).expect("artifact serializes");
        self.store.put(&key, &body)?;
        Ok((output, source))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Squares its input.
    struct Square;

    impl Artifact for Square {
        type Input = u64;
        type Output = Vec<u64>;
        const NAME: &'static str = "square";
        const LABEL: &'static str = "square cache";
        const SCHEMA: u32 = 3;

        fn canonical_input(input: &u64) -> String {
            format!("n={input}")
        }

        fn compute(input: &u64) -> Vec<u64> {
            vec![*input, input * input]
        }
    }

    #[test]
    fn computes_once_then_hits_and_recomputes_bad_entries() {
        assert_eq!(
            ArtifactCache::<Square>::key(&7),
            CellKey::from_canonical("square|s3|n=7")
        );
        let root = std::env::temp_dir().join(format!("pthammer-artifact-{}", std::process::id()));
        let _ = CellStore::wipe(&root);
        let cache = ArtifactCache::<Square>::open(&root).unwrap();
        let computed = (vec![7, 49], ArtifactSource::Computed);
        assert_eq!(cache.get_or_compute(&7).unwrap(), computed);
        let cached = (vec![7, 49], ArtifactSource::Cached);
        assert_eq!(cache.get_or_compute(&7).unwrap(), cached);

        let key = ArtifactCache::<Square>::key(&7);
        let path = root.join("cells").join(format!("{}.json", key.hex()));
        std::fs::write(&path, "garbage").unwrap();
        let recomputed = (vec![7, 49], ArtifactSource::Recomputed);
        assert_eq!(cache.get_or_compute(&7).unwrap(), recomputed);
        // A hash-valid body of the wrong shape is as corrupt as a bad hash.
        cache.store.put(&key, "{\"not\":\"a list\"}").unwrap();
        assert_eq!(cache.get_or_compute(&7).unwrap(), recomputed);
        CellStore::wipe(&root).unwrap();
    }
}
