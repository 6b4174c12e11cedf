//! The manifest binding a store to one campaign shape.

use serde::Serialize;

/// Version of the store's on-disk layout (manifest shape, cell-file header,
/// directory structure). Bump when the layout changes so old stores are
/// rejected instead of misread.
pub const STORE_SCHEMA_VERSION: u32 = 1;

/// Identifies the campaign a store caches cells for.
///
/// A cached cell is only valid for the exact campaign inputs that produced
/// it; the manifest pins every input that is not already part of the cell
/// key: the seeding rules (`seed_schema`), the campaign base seed, the
/// superpage setting, and a fingerprint of the full attack-scale
/// configuration. [`CellStore::open`](crate::CellStore::open) compares the
/// stored manifest against the expected one **byte-for-byte** (canonical
/// JSON), so any drift — a seed-schema bump after a behavior change, a
/// different base seed, a retuned config — invalidates the store loudly.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct StoreManifest {
    /// On-disk layout version ([`STORE_SCHEMA_VERSION`]).
    pub store_schema: u32,
    /// Version of the cell-seeding scheme the cached results were computed
    /// under (the harness's `CELL_SEED_SCHEMA_VERSION`).
    pub seed_schema: u32,
    /// Campaign base seed.
    pub base_seed: u64,
    /// Whether the campaign runs in the superpage setting.
    pub superpages: bool,
    /// Fingerprint (hex hash) of the campaign's attack-scale configuration,
    /// excluding knobs that cannot affect results (worker-thread count).
    pub config_fingerprint: String,
}

impl StoreManifest {
    /// The canonical byte form stored in `manifest.json` and compared on
    /// open.
    pub fn canonical_json(&self) -> String {
        let mut json = serde_json::to_string_pretty(self).expect("manifest serializes");
        json.push('\n');
        json
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> StoreManifest {
        StoreManifest {
            store_schema: STORE_SCHEMA_VERSION,
            seed_schema: 1,
            base_seed: 42,
            superpages: false,
            config_fingerprint: "abc123".into(),
        }
    }

    #[test]
    fn canonical_json_is_stable_and_field_sensitive() {
        assert_eq!(manifest().canonical_json(), manifest().canonical_json());
        assert!(manifest().canonical_json().ends_with('\n'));
        let mut bumped = manifest();
        bumped.seed_schema = 2;
        assert_ne!(manifest().canonical_json(), bumped.canonical_json());
        let mut reseeded = manifest();
        reseeded.base_seed = 43;
        assert_ne!(manifest().canonical_json(), reseeded.canonical_json());
    }
}
