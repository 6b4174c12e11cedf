//! Content-addressed caching of synthesis results.
//!
//! Synthesis is deterministic, so [`Synthesis`] is an [`Artifact`] whose key
//! hashes the synthesis schema version, the full [`SynthesisConfig`]
//! fingerprint and the seed. Tools that re-search the same machine (e.g.
//! `repro_trr --synth-cache`) go through an
//! `ArtifactCache<Synthesis>`; store-backed campaigns cache whole pattern
//! cells instead, so resumed campaigns never re-search either way.

use pthammer_store::Artifact;

use crate::synth::{synthesize, SynthesisConfig, SynthesisResult};

/// Version of the synthesis scheme (the evaluator, the search loop, and the
/// result encoding). Bump on any behavioral change so stale cached patterns
/// are invalidated instead of resurrected.
pub const SYNTH_SCHEMA_VERSION: u32 = 1;

/// Pattern synthesis as a cacheable artifact: the input is a
/// (configuration, seed) request, the output its [`SynthesisResult`].
#[derive(Debug)]
pub struct Synthesis;

impl Artifact for Synthesis {
    type Input = (SynthesisConfig, u64);
    type Output = SynthesisResult;

    const NAME: &'static str = "pthammer-synth";
    const LABEL: &'static str = "pthammer-patterns synthesis cache";
    const SCHEMA: u32 = SYNTH_SCHEMA_VERSION;

    fn canonical_input((config, seed): &(SynthesisConfig, u64)) -> String {
        format!("{}|seed={seed}", config.canonical_string())
    }

    fn compute((config, seed): &(SynthesisConfig, u64)) -> SynthesisResult {
        synthesize(config, *seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pthammer_dram::{DramTimings, TrrConfig};
    use pthammer_store::{ArtifactCache, ArtifactSource, CellStore};

    fn config() -> SynthesisConfig {
        SynthesisConfig {
            trr: TrrConfig::enabled(40, 4),
            timings: DramTimings::fast_test(),
            min_flip_threshold: 100,
            eval_op_budget: 2_048,
            background_rows_per_round: 2,
            spray_strides: 8,
            generations: 4,
            population: 8,
            elites: 2,
        }
    }

    fn key(config: SynthesisConfig, seed: u64) -> pthammer_store::CellKey {
        ArtifactCache::<Synthesis>::key(&(config, seed))
    }

    #[test]
    fn keys_separate_config_and_seed() {
        let a = key(config(), 1);
        assert_eq!(a, key(config(), 1));
        assert_ne!(a, key(config(), 2));
        let mut other = config();
        other.trr.sampler_capacity += 1;
        assert_ne!(a, key(other, 1));
    }

    #[test]
    fn keys_and_manifest_match_caches_written_by_earlier_releases() {
        // Pinned from the dedicated synthesis cache this artifact replaced:
        // directories it wrote must keep hitting.
        assert_eq!(key(config(), 11).hex(), "61fa16fc030aa6c41dadc20b736794ba");
        assert_eq!(
            ArtifactCache::<Synthesis>::manifest().canonical_json(),
            "{\n  \"store_schema\": 1,\n  \"seed_schema\": 1,\n  \"base_seed\": 0,\n  \
             \"superpages\": false,\n  \"config_fingerprint\": \
             \"8aee9f231f7a87c91ad17e9e77b325a5\"\n}\n"
        );
    }

    #[test]
    fn computes_through_the_cache_and_refuses_invalid_patterns() {
        let root =
            std::env::temp_dir().join(format!("pthammer-synth-cache-{}", std::process::id()));
        let _ = CellStore::wipe(&root);
        let cache = ArtifactCache::<Synthesis>::open(&root).unwrap();
        let request = (config(), 3);
        let (fresh, source) = cache.get_or_compute(&request).unwrap();
        assert_eq!(
            (&fresh, source),
            (&synthesize(&config(), 3), ArtifactSource::Computed)
        );
        let cached = (fresh.clone(), ArtifactSource::Cached);
        assert_eq!(cache.get_or_compute(&request).unwrap(), cached);

        // A hash-valid entry whose pattern breaks the invariants is refused:
        // decoding re-validates every pattern.
        let invalid = serde_json::to_string(&fresh).unwrap().replacen(
            "\"offsets\":[0,1",
            "\"offsets\":[1,0",
            1,
        );
        CellStore::open(&root, &ArtifactCache::<Synthesis>::manifest())
            .unwrap()
            .put(&key(config(), 3), &invalid)
            .unwrap();
        let (recovered, source) = cache.get_or_compute(&request).unwrap();
        assert_eq!((recovered, source), (fresh, ArtifactSource::Recomputed));
        CellStore::wipe(&root).unwrap();
    }
}
