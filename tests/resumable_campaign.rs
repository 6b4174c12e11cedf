//! Store-backed campaign tier: kill-resume, shard-merge, and corruption
//! semantics against the committed golden snapshot.
//!
//! The claim under test is strong: however the pinned 30-cell matrix is
//! executed — straight through, killed after 10 cells and resumed, split
//! across shards, served from cache, recovered from a corrupted entry — the
//! resulting `CampaignReport` JSON is **byte-for-byte** the committed
//! `tests/golden/campaign_ci_matrix.json`. That pins the whole persistence
//! layer (content-addressed keys, atomic writes, hash-verified reads, the
//! JSON decode round trip, merge ordering) as one regression oracle next to
//! the simulator itself.
//!
//! A full 30-cell run is expensive in debug builds, so every golden-bytes
//! test here (`resumable_golden_*`) shares one lazily-computed fixture: a
//! single kill-then-resume run through a store, whose verified cell bodies
//! the other tests redistribute with cheap store writes instead of
//! recomputing. CI runs these in release in the `resumable-store` job and
//! skips them in the debug test job.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;

mod common;
use common::{first_diff, golden_snapshot};

use pthammer_harness::{
    cell_store_key, merge_stores, run_campaign, run_campaign_resumable, run_campaign_shard,
    store_manifest, CampaignConfig, CellKey, CellStore, ProfileChoice, ResumeStats, ScenarioMatrix,
    ShardSpec, StoreError,
};

/// Base seed of the pinned campaign (matches `tests/campaign_matrix.rs`).
const GOLDEN_BASE_SEED: u64 = 0x7453_4861_4d21;

/// Cells the simulated kill completes before the fixture "dies".
const KILLED_AFTER: usize = 10;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn golden_matrix() -> ScenarioMatrix {
    ScenarioMatrix::ci_default()
}

fn golden_config() -> CampaignConfig {
    CampaignConfig {
        threads: 2,
        ..CampaignConfig::ci(GOLDEN_BASE_SEED)
    }
}

/// A fresh, empty store for the golden campaign under a unique temp root.
fn temp_store(tag: &str) -> (CellStore, PathBuf) {
    let root = std::env::temp_dir().join(format!(
        "pthammer-resumable-test-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    CellStore::wipe(&root).expect("wipe temp store");
    let store = CellStore::open(&root, &store_manifest(&golden_config())).expect("open store");
    (store, root)
}

/// The shared expensive fixture: one kill-then-resume execution of the
/// pinned matrix through a store. Computed once per test binary.
struct Fixture {
    /// The committed golden snapshot bytes.
    golden: String,
    /// Canonical JSON of the resumed campaign's report.
    resumed_json: String,
    /// Stats of the killed (budgeted) first invocation.
    kill_stats: ResumeStats,
    /// Stats of the resuming invocation.
    resume_stats: ResumeStats,
    /// Every cell's `(key, verified stored body)` in canonical matrix order;
    /// other tests redistribute these across stores without recomputing.
    bodies: Vec<(CellKey, String)>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let matrix = golden_matrix();
        let config = golden_config();
        let (store, root) = temp_store("fixture");

        // First invocation: dies (deterministically) after 10 computed cells.
        let kill_stats = run_campaign_shard(
            &matrix,
            &config,
            &store,
            &ShardSpec::full(),
            Some(KILLED_AFTER),
        )
        .expect("killed run");

        // Second invocation: resumes against the same store and completes.
        let (report, resume_stats) =
            run_campaign_resumable(&matrix, &config, &store).expect("resumed run");

        let bodies = matrix
            .cells()
            .iter()
            .map(|coord| {
                let key = cell_store_key(coord);
                match store.get(&key) {
                    pthammer_harness::CellLookup::Hit(body) => (key, body),
                    other => panic!("cell {coord:?} not stored after resume: {other:?}"),
                }
            })
            .collect();
        CellStore::wipe(&root).expect("clean fixture store");
        Fixture {
            golden: golden_snapshot("campaign_ci_matrix.json"),
            resumed_json: report.to_canonical_json(),
            kill_stats,
            resume_stats,
            bodies,
        }
    })
}

/// Builds a store holding exactly the fixture cells selected by `owned`.
fn store_with(tag: &str, owned: impl Fn(usize, &CellKey) -> bool) -> (CellStore, PathBuf) {
    let (store, root) = temp_store(tag);
    for (i, (key, body)) in fixture().bodies.iter().enumerate() {
        if owned(i, key) {
            store.put(key, body).expect("seed store");
        }
    }
    (store, root)
}

/// Acceptance criterion: a campaign killed after 10 cells and resumed in a
/// separate invocation reproduces the golden snapshot byte-for-byte, with
/// the resumed invocation serving the killed run's cells from cache.
#[test]
fn resumable_golden_kill_resume_matches_snapshot() {
    let f = fixture();
    assert_eq!(f.kill_stats.computed, KILLED_AFTER);
    assert!(f.kill_stats.incomplete(), "{:?}", f.kill_stats);
    assert_eq!(
        f.resume_stats.cache_hits, KILLED_AFTER,
        "{:?}",
        f.resume_stats
    );
    assert_eq!(
        f.resume_stats.computed,
        golden_matrix().len() - KILLED_AFTER
    );
    assert!(f.resume_stats.cache_hits >= 1, "resume must hit the cache");
    assert!(
        f.resumed_json == f.golden,
        "resumed campaign drifted from the golden snapshot; first diverging line: {}",
        first_diff(&f.golden, &f.resumed_json)
    );
}

/// Acceptance criterion: the true 3-shard partition of the matrix, merged
/// from three disjoint stores, reproduces the golden snapshot byte-for-byte.
#[test]
fn resumable_golden_three_shard_merge_matches_snapshot() {
    let f = fixture();
    let shards: Vec<ShardSpec> = (0..3).map(|i| ShardSpec::new(i, 3).unwrap()).collect();
    let stores: Vec<(CellStore, PathBuf)> = shards
        .iter()
        .map(|shard| store_with(&format!("shard{}", shard.index), |_, key| shard.owns(key)))
        .collect();
    let refs: Vec<&CellStore> = stores.iter().map(|(s, _)| s).collect();
    let (merged, stats) = merge_stores(&golden_matrix(), &golden_config(), &refs).unwrap();
    let json = merged.to_canonical_json();
    assert_eq!(stats.per_store.iter().sum::<usize>(), golden_matrix().len());
    assert!(
        stats.per_store.iter().all(|&n| n > 0),
        "every shard must own cells: {:?}",
        stats.per_store
    );
    assert_eq!(stats.corrupt_skipped, 0);
    assert!(
        json == f.golden,
        "3-shard merge drifted from the golden snapshot; first diverging line: {}",
        first_diff(&f.golden, &json)
    );
    for (_, root) in &stores {
        CellStore::wipe(root).unwrap();
    }
}

/// A corrupted cell file is detected by its content hash, recomputed, and
/// the campaign still reproduces the golden snapshot.
#[test]
fn resumable_golden_corrupt_cell_is_recomputed() {
    let f = fixture();
    let (store, root) = store_with("corrupt", |_, _| true);
    // Vandalize one stored cell on disk: flip a byte in the body so the
    // header's content hash no longer matches.
    let victim = &f.bodies[0].0;
    let path = root.join("cells").join(format!("{}.json", victim.hex()));
    let text = std::fs::read_to_string(&path).expect("read victim cell");
    std::fs::write(
        &path,
        text.replace("\"cell_seed\":", "\"cell_seed\": 1,\"x\":"),
    )
    .expect("corrupt victim cell");

    let (report, stats) =
        run_campaign_resumable(&golden_matrix(), &golden_config(), &store).expect("recovering run");
    assert_eq!(stats.corrupt_recomputed, 1, "{stats:?}");
    assert_eq!(stats.computed, 1);
    assert_eq!(stats.cache_hits, golden_matrix().len() - 1);
    let json = report.to_canonical_json();
    assert!(
        json == f.golden,
        "corruption recovery drifted from the golden snapshot; first diverging line: {}",
        first_diff(&f.golden, &json)
    );
    // The recompute also repaired the store entry.
    assert!(store.contains(victim));
    CellStore::wipe(&root).unwrap();
}

/// Any change to the campaign shape — here the attack scale — refuses the
/// store instead of silently mixing results computed under different
/// configurations. (Seed-schema bumps flow through the same manifest field.)
#[test]
fn incompatible_campaign_refuses_the_store() {
    let (_, root) = temp_store("manifest");
    let mut retuned = golden_config();
    retuned.hammer_rounds_per_attempt += 1;
    match CellStore::open(&root, &store_manifest(&retuned)) {
        Err(StoreError::ManifestMismatch { .. }) => {}
        other => panic!("expected ManifestMismatch, got {other:?}"),
    }
    CellStore::wipe(&root).unwrap();
}

/// Real sharded *execution* on a cheap matrix: two shard invocations compute
/// disjoint cell sets into separate stores and their merge is byte-identical
/// to the single-process run. (The golden-matrix variant above redistributes
/// precomputed bodies; this one actually runs per shard.)
#[test]
fn sharded_execution_is_disjoint_and_merges_identically() {
    let matrix = ScenarioMatrix::new(
        vec![pthammer_harness::MachineChoice::TestSmall],
        pthammer_harness::DefenseChoice::all(),
        vec![ProfileChoice::Invulnerable],
        1,
    );
    let mut config = CampaignConfig::ci(99);
    config.max_attempts = 2;
    config.threads = 2;
    let manifest = store_manifest(&config);
    let mut stores = Vec::new();
    let mut computed = 0;
    for i in 0..2 {
        let root = std::env::temp_dir().join(format!(
            "pthammer-resumable-test-exec{i}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        CellStore::wipe(&root).unwrap();
        let store = CellStore::open(&root, &manifest).unwrap();
        let shard = ShardSpec::new(i, 2).unwrap();
        let stats = run_campaign_shard(&matrix, &config, &store, &shard, None).unwrap();
        assert_eq!(stats.computed + stats.skipped_other_shard, matrix.len());
        assert!(!stats.incomplete());
        computed += stats.computed;
        stores.push((store, root));
    }
    assert_eq!(
        computed,
        matrix.len(),
        "shards must cover the matrix exactly"
    );
    let refs: Vec<&CellStore> = stores.iter().map(|(s, _)| s).collect();
    let (merged, _) = merge_stores(&matrix, &config, &refs).unwrap();
    assert_eq!(
        merged.to_canonical_json(),
        run_campaign(&matrix, &config).to_canonical_json()
    );
    for (_, root) in &stores {
        CellStore::wipe(root).unwrap();
    }
}

/// One assignment entry per matrix cell, however large the pinned matrix is.
fn assignment_len() -> std::ops::Range<usize> {
    let cells = golden_matrix().len();
    cells..cells + 1
}

// Any partition of the pinned 30-cell matrix into up to four shard stores —
// including empty shards and arbitrary assignments that no `ShardSpec` would
// produce — merges to the byte-identical golden report. Merge determinism
// depends only on store *contents* covering the matrix, never on how cells
// were distributed.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn resumable_golden_any_partition_merges_identically(
        store_count in 1usize..4,
        assignment in prop::collection::vec(0usize..4, assignment_len()),
    ) {
        let f = fixture();
        prop_assert_eq!(assignment.len(), f.bodies.len());
        let stores: Vec<(CellStore, PathBuf)> = (0..store_count)
            .map(|s| store_with(&format!("part{s}"), |i, _| assignment[i] % store_count == s))
            .collect();
        let refs: Vec<&CellStore> = stores.iter().map(|(st, _)| st).collect();
        let (merged, stats) = merge_stores(&golden_matrix(), &golden_config(), &refs)
            .map_err(TestCaseError)?;
        prop_assert_eq!(stats.per_store.iter().sum::<usize>(), golden_matrix().len());
        let json = merged.to_canonical_json();
        prop_assert_eq!(&json, &f.golden);
        for (_, root) in &stores {
            CellStore::wipe(root).unwrap();
        }
    }
}
