//! Content-addressed caching of victim flip profiles.
//!
//! The [`KeyRecovery`] victim's `profile` stage is a pure function of the
//! machine *configuration* (weak-cell model, DRAM seed, geometry) — never of
//! simulated memory state — so [`KeyRecoveryProfile`] is an [`Artifact`]
//! whose key hashes everything the template depends on.
//! `repro_victims --profile-cache DIR` goes through an
//! `ArtifactCache<KeyRecoveryProfile>`, so repeat sweeps of the same machine
//! skip re-templating.

use pthammer::victim::KeyRecovery;
use pthammer::FlipProfile;
use pthammer_machine::MachineConfig;
use pthammer_store::Artifact;

/// Version of the flip-profile templating scheme (the weak-cell walk in
/// [`KeyRecovery::template_profile`] and the profile encoding). Bump on any
/// behavioral change so stale cached profiles are invalidated instead of
/// resurrected.
pub const VICTIM_PROFILE_SCHEMA_VERSION: u32 = 1;

/// The key-recovery victim's flip-profile templating as a cacheable
/// artifact: the input is a machine configuration, the output its
/// [`FlipProfile`].
#[derive(Debug)]
pub struct KeyRecoveryProfile;

impl Artifact for KeyRecoveryProfile {
    type Input = MachineConfig;
    type Output = FlipProfile;

    const NAME: &'static str = "pthammer-victim-profile";
    const LABEL: &'static str = "pthammer-harness victim profile cache";
    const SCHEMA: u32 = VICTIM_PROFILE_SCHEMA_VERSION;

    /// Covers every input of [`KeyRecovery::template_profile`]: the flip
    /// model parameters and seed, and the geometry the weak-cell walk spans.
    fn canonical_input(config: &MachineConfig) -> String {
        let flip = &config.dram.flip_profile;
        format!(
            "victim={}|machine={}|flip_seed={}|density={}|max_cells={}|threshold={}..{}|\
             true_fraction={}|row_bytes={}|banks={}",
            KeyRecovery::NAME,
            config.name,
            config.dram.flip_seed,
            flip.weak_row_density,
            flip.max_weak_cells_per_row,
            flip.min_threshold,
            flip.max_threshold,
            flip.true_cell_fraction,
            config.dram.geometry.row_bytes,
            config.dram.geometry.total_banks(),
        )
    }

    fn compute(config: &MachineConfig) -> FlipProfile {
        KeyRecovery::template_profile(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pthammer_dram::FlipModelProfile;
    use pthammer_store::{ArtifactCache, ArtifactSource, CellKey, CellStore};

    type ProfileCache = ArtifactCache<KeyRecoveryProfile>;

    fn machine(seed: u64) -> MachineConfig {
        MachineConfig::test_small(FlipModelProfile::ci(), seed)
    }

    fn key(config: &MachineConfig) -> CellKey {
        ProfileCache::key(config)
    }

    #[test]
    fn keys_separate_machine_seed_and_flip_model() {
        let a = key(&machine(1));
        assert_eq!(a, key(&machine(1)));
        assert_ne!(a, key(&machine(2)));
        let invulnerable = MachineConfig::test_small(FlipModelProfile::invulnerable(), 1);
        assert_ne!(a, key(&invulnerable));
    }

    #[test]
    fn keys_and_manifest_match_caches_written_by_earlier_releases() {
        // Pinned from the dedicated profile cache this artifact replaced:
        // directories it wrote must keep hitting.
        assert_eq!(key(&machine(11)).hex(), "37bd7f200e08d7c0672e596a4e0821b2");
        assert_eq!(
            ProfileCache::manifest().canonical_json(),
            "{\n  \"store_schema\": 1,\n  \"seed_schema\": 1,\n  \"base_seed\": 0,\n  \
             \"superpages\": false,\n  \"config_fingerprint\": \
             \"e5c757e6574017ca7e0fb9f55e3db74d\"\n}\n"
        );
    }

    #[test]
    fn computes_through_the_cache_then_hits() {
        let root =
            std::env::temp_dir().join(format!("pthammer-victim-cache-{}", std::process::id()));
        let _ = CellStore::wipe(&root);
        let cache = ProfileCache::open(&root).unwrap();
        let cfg = machine(11);
        let (cold, source) = cache.get_or_compute(&cfg).unwrap();
        assert!(!cold.is_empty(), "ci profile must template targets");
        assert_eq!(
            (&cold, source),
            (
                &KeyRecovery::template_profile(&cfg),
                ArtifactSource::Computed
            )
        );
        let (warm, source) = cache.get_or_compute(&cfg).unwrap();
        assert_eq!((warm, source), (cold, ArtifactSource::Cached));
        CellStore::wipe(&root).unwrap();
    }
}
