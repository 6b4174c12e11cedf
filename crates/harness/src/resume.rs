//! Resumable, shardable campaign execution over the content-addressed cell
//! store.
//!
//! [`run_campaign`](crate::run_campaign) is all-or-nothing: kill it and every
//! cell recomputes. The entry points here thread the same cells through a
//! [`CellStore`] instead:
//!
//! * [`run_campaign_resumable`] consults the store before computing a cell
//!   and writes each completed cell through atomically, so a killed campaign
//!   resumes from its completed prefix for free — and a finished store turns
//!   re-runs into pure cache reads. The report is byte-identical to
//!   [`run_campaign`](crate::run_campaign)'s.
//! * [`run_campaign_shard`] computes only the cells a [`ShardSpec`] owns
//!   (plus an optional compute budget), so one matrix splits across
//!   processes, hosts, or CI jobs without coordination.
//! * [`merge_stores`] combines any set of compatible stores — shards, partial
//!   runs, interrupted runs — into the complete [`CampaignReport`], again
//!   byte-identical to the single-process run regardless of shard count or
//!   interleaving.
//!
//! Cache correctness rests on the store key and manifest: the key hashes the
//! cell's canonical coordinates plus [`CELL_SEED_SCHEMA_VERSION`], and
//! [`store_manifest`] fingerprints every campaign input that is not in the
//! key (base seed, superpage setting, attack scale — but never the worker
//! count, which cannot affect results). Anything that could change a cell's
//! bytes therefore either changes its key or refuses the store.

use rayon::prelude::*;
use rayon::ThreadPoolBuilder;
use serde::Serialize;

use pthammer_store::{
    fnv1a_128, CellKey, CellLookup, CellStore, ShardSpec, StoreManifest, STORE_SCHEMA_VERSION,
};

use crate::campaign::{assemble_report, run_cell_instrumented, CampaignConfig, CellPerf};
use crate::matrix::{CellCoord, ScenarioMatrix};
use crate::report::{CampaignReport, CellReport};
use crate::seeding::CELL_SEED_SCHEMA_VERSION;

/// Derives the content-address key for one campaign cell.
///
/// The canonical string mirrors the seeding rule: coordinate *values* only,
/// never matrix positions — plus the seed-schema version, so behavior
/// changes (which bump [`CELL_SEED_SCHEMA_VERSION`]) move every cell to a
/// fresh key instead of resurrecting stale cached results. Unlike the seed,
/// the key includes every axis: cells that share attacker randomness still
/// have distinct results, and each gets its own store entry.
pub fn cell_store_key(coord: &CellCoord) -> CellKey {
    CellKey::from_canonical(&format!(
        "pthammer-cell|s{CELL_SEED_SCHEMA_VERSION}|{}",
        coord.store_label()
    ))
}

/// Builds the [`StoreManifest`] binding a store to `config`'s campaign.
///
/// The config fingerprint hashes the canonical JSON of `config` with the
/// worker-thread count zeroed: thread count never affects results, so a
/// store computed at `--threads 8` must resume cleanly at `--threads 2`.
/// Every other knob (spray size, attempt caps, profiling trials, ...) does
/// affect results and therefore invalidates the store when it changes.
pub fn store_manifest(config: &CampaignConfig) -> StoreManifest {
    let mut thread_free = config.clone();
    thread_free.threads = 0;
    let canonical = serde_json::to_string(&thread_free).expect("config serializes");
    StoreManifest {
        store_schema: STORE_SCHEMA_VERSION,
        seed_schema: CELL_SEED_SCHEMA_VERSION,
        base_seed: config.base_seed,
        superpages: config.superpages,
        config_fingerprint: format!("{:032x}", fnv1a_128(canonical.as_bytes())),
    }
}

/// Accounting of one store-backed invocation: how each matrix cell was
/// satisfied. `pthammer-perf` reports these as the store's cache-hit
/// counters, and the CI resume/shard jobs assert on them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ResumeStats {
    /// Cells in the matrix.
    pub cells_total: usize,
    /// Cells served from the store (hash-verified hits).
    pub cache_hits: usize,
    /// Cells computed (and written through) by this invocation.
    pub computed: usize,
    /// Computed cells whose store entry existed but failed verification or
    /// decoding (subset of [`computed`](Self::computed)).
    pub corrupt_recomputed: usize,
    /// Cells owned by other shards, untouched by this invocation.
    pub skipped_other_shard: usize,
    /// Owned, uncached cells left uncomputed because the compute budget ran
    /// out (the invocation is incomplete; resume to continue).
    pub budget_skipped: usize,
}

impl ResumeStats {
    /// Whether this invocation left owned cells uncomputed.
    pub fn incomplete(&self) -> bool {
        self.budget_skipped > 0
    }
}

/// Accounting of a [`merge_stores`] call.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct MergeStats {
    /// Cells in the merged report.
    pub cells: usize,
    /// Cells taken from each store, in argument order (a cell cached in
    /// several stores counts for the first).
    pub per_store: Vec<usize>,
    /// Store entries skipped because they failed verification or decoding
    /// (the cell was then taken from a later store).
    pub corrupt_skipped: usize,
}

/// How one cell was satisfied during [`run_store_backed`].
enum CellSource {
    Cached(Box<CellReport>),
    Compute,
    SkippedShard,
    SkippedBudget,
}

/// Core store-backed runner: resolves every matrix cell against the store,
/// computes what is missing (in parallel, canonical collection order), and
/// writes completed cells through. Rows are `None` only for skipped cells.
fn run_store_backed(
    matrix: &ScenarioMatrix,
    config: &CampaignConfig,
    store: &CellStore,
    shard: &ShardSpec,
    compute_budget: Option<usize>,
) -> Result<(Vec<Option<CellReport>>, CellPerf, ResumeStats), String> {
    matrix
        .validate()
        .unwrap_or_else(|e| panic!("invalid scenario matrix: {e}"));
    let cells = matrix.cells();
    let mut stats = ResumeStats {
        cells_total: cells.len(),
        ..ResumeStats::default()
    };

    // Phase 1 (serial, cheap): classify every cell against the store.
    let mut sources: Vec<CellSource> = Vec::with_capacity(cells.len());
    let mut budget = compute_budget.unwrap_or(usize::MAX);
    for coord in &cells {
        let key = cell_store_key(coord);
        if !shard.owns(&key) {
            stats.skipped_other_shard += 1;
            sources.push(CellSource::SkippedShard);
            continue;
        }
        // A verified body that no longer decodes predates a report-schema
        // change; the typed lookup reports it as corrupt, and it recomputes.
        let corrupt = match store.lookup(&key) {
            CellLookup::Hit(report) => {
                stats.cache_hits += 1;
                sources.push(CellSource::Cached(Box::new(report)));
                continue;
            }
            CellLookup::Corrupt => true,
            CellLookup::Miss => false,
        };
        if budget == 0 {
            stats.budget_skipped += 1;
            sources.push(CellSource::SkippedBudget);
            continue;
        }
        budget -= 1;
        stats.computed += 1;
        stats.corrupt_recomputed += usize::from(corrupt);
        sources.push(CellSource::Compute);
    }

    // Phase 2 (parallel): compute the missing cells, write each through
    // atomically as it completes — a kill from here on loses at most the
    // in-flight cells.
    let to_compute: Vec<(usize, CellCoord)> = sources
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s, CellSource::Compute))
        .map(|(i, _)| (i, cells[i]))
        .collect();
    let pool = ThreadPoolBuilder::new()
        .num_threads(config.threads)
        .build()
        .expect("worker pool");
    let computed: Vec<(usize, CellReport, CellPerf, Result<(), String>)> = pool.install(|| {
        to_compute
            .into_par_iter()
            .map(|(i, coord)| {
                let (report, perf) = run_cell_instrumented(&coord, config);
                let put = store
                    .put(
                        &cell_store_key(&coord),
                        &serde_json::to_string(&report).unwrap(),
                    )
                    .map_err(|e| e.to_string());
                (i, report, perf, put)
            })
            .collect()
    });

    // Phase 3: assemble rows in canonical order, aggregate perf over the
    // cells this invocation actually computed.
    let mut rows: Vec<Option<CellReport>> = sources
        .into_iter()
        .map(|s| match s {
            CellSource::Cached(report) => Some(*report),
            _ => None,
        })
        .collect();
    let mut perf = CellPerf::default();
    for (i, report, cell_perf, put) in computed {
        put.map_err(|e| format!("failed to persist cell {i}: {e}"))?;
        perf.absorb(&cell_perf);
        rows[i] = Some(report);
    }
    Ok((rows, perf, stats))
}

/// Runs the whole campaign through the store: cached cells are served from
/// disk (hash-verified), missing cells are computed in parallel and written
/// through atomically.
///
/// The report is **byte-identical** to [`run_campaign`](crate::run_campaign)
/// on the same matrix and config — whether the store started empty, full, or
/// anywhere in between (e.g. after a kill). `stats` says how the cells were
/// satisfied.
///
/// # Errors
///
/// Returns a description if the store cannot be written or a computed cell
/// cannot be persisted. (Matrix validation panics, as in
/// [`run_campaign`](crate::run_campaign).)
///
/// # Panics
///
/// Panics if the matrix fails [`ScenarioMatrix::validate`].
pub fn run_campaign_resumable(
    matrix: &ScenarioMatrix,
    config: &CampaignConfig,
    store: &CellStore,
) -> Result<(CampaignReport, ResumeStats), String> {
    let (report, _, stats) = run_campaign_resumable_instrumented(matrix, config, store)?;
    Ok((report, stats))
}

/// Like [`run_campaign_resumable`], additionally returning the deterministic
/// perf accounting aggregated over the cells **this invocation computed**
/// (cache hits perform no simulation, so a fully-warm run reports zero
/// counters — that asymmetry is the point of the cache).
///
/// # Errors
///
/// As [`run_campaign_resumable`].
pub fn run_campaign_resumable_instrumented(
    matrix: &ScenarioMatrix,
    config: &CampaignConfig,
    store: &CellStore,
) -> Result<(CampaignReport, CellPerf, ResumeStats), String> {
    let (rows, perf, stats) = run_store_backed(matrix, config, store, &ShardSpec::full(), None)?;
    let rows: Vec<CellReport> = rows
        .into_iter()
        .map(|r| r.expect("full-shard unbudgeted run resolves every cell"))
        .collect();
    Ok((assemble_report(matrix, config, rows), perf, stats))
}

/// Computes (only) the owned, uncached cells of one shard into the store.
///
/// `compute_budget` caps how many cells this invocation computes — the
/// deterministic stand-in for being killed partway: the first `budget`
/// missing cells (canonical order) complete and persist, the rest stay
/// missing, and [`ResumeStats::incomplete`] reports that a resume is needed.
/// No report is produced; once every shard's store is complete,
/// [`merge_stores`] builds it.
///
/// # Errors
///
/// As [`run_campaign_resumable`].
///
/// # Panics
///
/// Panics if the matrix fails [`ScenarioMatrix::validate`].
pub fn run_campaign_shard(
    matrix: &ScenarioMatrix,
    config: &CampaignConfig,
    store: &CellStore,
    shard: &ShardSpec,
    compute_budget: Option<usize>,
) -> Result<ResumeStats, String> {
    let (_, _, stats) = run_store_backed(matrix, config, store, shard, compute_budget)?;
    Ok(stats)
}

/// Merges any set of compatible stores into the complete campaign report.
///
/// Every matrix cell is looked up across `stores` in argument order; the
/// first verified, decodable entry wins. Nothing is computed and no store is
/// written. Because rows are assembled in canonical matrix order and cell
/// bodies round-trip exactly, the report is **byte-identical** to the
/// single-process [`run_campaign`](crate::run_campaign) output regardless of
/// how the cells were distributed across stores, shards, or invocations.
///
/// Callers are responsible for having opened every store against the same
/// [`store_manifest`] (which [`CellStore::open`] enforces per store).
///
/// # Errors
///
/// Lists the first cell no store can supply — a shard is incomplete or
/// missing.
///
/// # Panics
///
/// Panics if the matrix fails [`ScenarioMatrix::validate`].
pub fn merge_stores(
    matrix: &ScenarioMatrix,
    config: &CampaignConfig,
    stores: &[&CellStore],
) -> Result<(CampaignReport, MergeStats), String> {
    matrix
        .validate()
        .unwrap_or_else(|e| panic!("invalid scenario matrix: {e}"));
    if stores.is_empty() {
        return Err("merge needs at least one store".to_string());
    }
    let cells = matrix.cells();
    let mut stats = MergeStats {
        cells: cells.len(),
        per_store: vec![0; stores.len()],
        corrupt_skipped: 0,
    };
    let mut rows = Vec::with_capacity(cells.len());
    'cells: for coord in &cells {
        let key = cell_store_key(coord);
        for (i, store) in stores.iter().enumerate() {
            match store.lookup(&key) {
                CellLookup::Hit(report) => {
                    stats.per_store[i] += 1;
                    rows.push(report);
                    continue 'cells;
                }
                CellLookup::Corrupt => stats.corrupt_skipped += 1,
                CellLookup::Miss => {}
            }
        }
        return Err(format!(
            "no store holds cell {coord} (key {}); the campaign or a shard is incomplete",
            key.hex(),
        ));
    }
    Ok((assemble_report(matrix, config, rows), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use crate::matrix::ProfileChoice;
    use pthammer_defenses::DefenseChoice;
    use pthammer_machine::MachineChoice;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn temp_store(config: &CampaignConfig, tag: &str) -> (CellStore, std::path::PathBuf) {
        let root = std::env::temp_dir().join(format!(
            "pthammer-harness-resume-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = CellStore::wipe(&root);
        (
            CellStore::open(&root, &store_manifest(config)).unwrap(),
            root,
        )
    }

    fn small_matrix() -> ScenarioMatrix {
        ScenarioMatrix::new(
            vec![MachineChoice::TestSmall],
            vec![DefenseChoice::None, DefenseChoice::Zebram],
            vec![ProfileChoice::Invulnerable],
            2,
        )
    }

    fn small_config() -> CampaignConfig {
        let mut config = CampaignConfig::ci(2026);
        config.max_attempts = 2;
        config.threads = 2;
        config
    }

    #[test]
    fn manifest_ignores_threads_but_not_scale() {
        let config = small_config();
        let mut other_threads = config.clone();
        other_threads.threads = 8;
        assert_eq!(store_manifest(&config), store_manifest(&other_threads));
        let mut other_scale = config.clone();
        other_scale.hammer_rounds_per_attempt += 1;
        assert_ne!(store_manifest(&config), store_manifest(&other_scale));
        let mut other_seed = config.clone();
        other_seed.base_seed += 1;
        assert_ne!(store_manifest(&config), store_manifest(&other_seed));
    }

    #[test]
    fn cold_then_warm_runs_are_byte_identical_to_the_plain_campaign() {
        let matrix = small_matrix();
        let config = small_config();
        let plain = run_campaign(&matrix, &config).to_canonical_json();
        let (store, root) = temp_store(&config, "coldwarm");

        let (cold, stats) = run_campaign_resumable(&matrix, &config, &store).unwrap();
        assert_eq!(cold.to_canonical_json(), plain);
        assert_eq!(stats.computed, matrix.len());
        assert_eq!(stats.cache_hits, 0);

        let (warm, stats) = run_campaign_resumable(&matrix, &config, &store).unwrap();
        assert_eq!(warm.to_canonical_json(), plain);
        assert_eq!(stats.cache_hits, matrix.len());
        assert_eq!(stats.computed, 0);
        CellStore::wipe(&root).unwrap();
    }

    #[test]
    fn budgeted_shard_run_is_resumable() {
        let matrix = small_matrix();
        let config = small_config();
        let (store, root) = temp_store(&config, "budget");
        let shard = ShardSpec::full();

        let stats = run_campaign_shard(&matrix, &config, &store, &shard, Some(1)).unwrap();
        assert_eq!(stats.computed, 1);
        assert_eq!(stats.budget_skipped, matrix.len() - 1);
        assert!(stats.incomplete());

        let stats = run_campaign_shard(&matrix, &config, &store, &shard, None).unwrap();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.computed, matrix.len() - 1);
        assert!(!stats.incomplete());

        let (merged, merge_stats) = merge_stores(&matrix, &config, &[&store]).unwrap();
        assert_eq!(
            merged.to_canonical_json(),
            run_campaign(&matrix, &config).to_canonical_json()
        );
        assert_eq!(merge_stats.per_store, vec![matrix.len()]);
        CellStore::wipe(&root).unwrap();
    }

    #[test]
    fn merge_reports_the_missing_cell() {
        let matrix = small_matrix();
        let config = small_config();
        let (store, root) = temp_store(&config, "missing");
        let err = merge_stores(&matrix, &config, &[&store]).unwrap_err();
        assert!(err.contains("no store holds cell"), "{err}");
        assert!(err.contains("machine=Test Small"), "{err}");
        CellStore::wipe(&root).unwrap();
    }

    #[test]
    fn hash_valid_but_deeply_nested_body_is_recomputed() {
        let matrix = small_matrix();
        let config = small_config();
        let (store, root) = temp_store(&config, "nested");
        let (cold, _) = run_campaign_resumable(&matrix, &config, &store).unwrap();

        // The header hash is valid, but the body nests far past anything a
        // cell decodes: the lookup must report it corrupt, not overflow the
        // stack.
        let key = cell_store_key(&matrix.cells()[1]);
        store.put(&key, &"[".repeat(200_000)).unwrap();
        assert!(store.contains(&key), "the entry itself verifies");

        let (warm, stats) = run_campaign_resumable(&matrix, &config, &store).unwrap();
        assert_eq!(stats.corrupt_recomputed, 1);
        assert_eq!(stats.computed, 1);
        assert_eq!(stats.cache_hits, matrix.len() - 1);
        assert_eq!(warm.to_canonical_json(), cold.to_canonical_json());
        CellStore::wipe(&root).unwrap();
    }

    #[test]
    fn merge_names_every_coordinate_of_a_missing_victim_cell() {
        // A complete victim-sweep store, minus one cell. Merge decodes each
        // entry but never checks it against its key, so one synthetic row
        // stands in for every cell.
        let matrix = ScenarioMatrix::victim_sweep_ci();
        let config = small_config();
        let cells = matrix.cells();
        let row = r#"{"machine":"Test Small","defense":"CTA","profile":"ci","repetition":0,"cell_seed":0,
            "escalated":false,"attempts":0,"flips_observed":0,"exploitable_flips":0,
            "implicit_dram_rate":0.0}"#;
        let missing_message = |missing: usize| {
            let (store, root) = temp_store(&config, "victim-missing");
            for (i, coord) in cells.iter().enumerate() {
                if i != missing {
                    store.put(&cell_store_key(coord), row).unwrap();
                }
            }
            let err = merge_stores(&matrix, &config, &[&store]).unwrap_err();
            CellStore::wipe(&root).unwrap();
            err
        };
        // Two cells that differ only in their victim.
        let a = cells.len() - 1;
        let b = cells
            .iter()
            .position(|c| {
                c.victim != cells[a].victim
                    && CellCoord {
                        victim: cells[a].victim,
                        ..*c
                    } == cells[a]
            })
            .unwrap();
        let (err_a, err_b) = (missing_message(a), missing_message(b));
        for (err, coord) in [(&err_a, &cells[a]), (&err_b, &cells[b])] {
            assert!(
                err.contains(&format!("no store holds cell {coord} ")),
                "{err}"
            );
            let victim = coord.victim.unwrap().name();
            assert!(
                err.contains(&format!("pattern=none victim={victim}")),
                "{err}"
            );
        }
        assert_ne!(
            err_a, err_b,
            "distinct missing cells print distinct coordinates"
        );
    }
}
