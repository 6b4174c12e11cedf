//! The on-disk store: atomic puts, verified gets, status walks.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::hash::fnv1a_128;
use crate::key::CellKey;
use crate::manifest::{StoreManifest, STORE_SCHEMA_VERSION};

/// Monotonic discriminator for temp-file names, so concurrent workers in
/// one process never collide before their atomic renames.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Errors opening or writing a store.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure, with the path involved.
    Io {
        /// What the store was doing.
        action: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// The store on disk was created for a different campaign (different
    /// schema version, base seed, superpage setting, or config fingerprint).
    /// Its entries are invalid for this campaign; wipe the store or point at
    /// a fresh directory.
    ManifestMismatch {
        /// The store's root directory.
        root: PathBuf,
        /// Canonical manifest the caller expected.
        expected: String,
        /// Manifest found on disk (lossy UTF-8: a manifest that is not
        /// text is as foreign as any other).
        found: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io {
                action,
                path,
                source,
            } => write!(f, "{action} {}: {source}", path.display()),
            StoreError::ManifestMismatch { root, .. } => write!(
                f,
                "store at {} belongs to a different campaign (schema, seed, or config \
                 changed); wipe it or use a fresh directory",
                root.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// Result of probing the store for a cell: the verified body from
/// [`CellStore::get`], or the decoded value from [`CellStore::lookup`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellLookup<T = String> {
    /// The cell is cached: the exact canonical JSON that was stored
    /// (hash-verified on read), or its decoded value.
    Hit(T),
    /// The cell has not been computed.
    Miss,
    /// A file exists for the cell but is truncated or corrupted (header
    /// unparseable, wrong key, length or content hash mismatch), or, for a
    /// typed lookup, its verified body does not decode. The caller should
    /// recompute and overwrite.
    Corrupt,
}

/// Counts from a full verification walk of the store.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct StoreStatus {
    /// Valid, hash-verified cell entries.
    pub entries: usize,
    /// Files in the cell directory that fail verification.
    pub corrupt: usize,
}

/// Per-cell header line: the first line of every cell file, followed by the
/// body bytes it describes.
#[derive(Debug, Serialize, Deserialize)]
struct CellHeader {
    store_schema: u32,
    key: String,
    content_fnv: String,
    bytes: usize,
}

/// A content-addressed store of campaign cells under one root directory.
///
/// Layout:
///
/// ```text
/// <root>/manifest.json      # canonical StoreManifest, byte-compared on open
/// <root>/cells/<key>.json   # header line + canonical cell JSON body
/// <root>/tmp/               # staging for atomic write-then-rename
/// ```
#[derive(Debug)]
pub struct CellStore {
    root: PathBuf,
}

impl CellStore {
    /// Opens (creating if absent) the store at `root` for the campaign
    /// described by `manifest`.
    ///
    /// Stale staging files under `<root>/tmp` — left by invocations that
    /// were killed mid-write — are deleted on open, so kill/resume cycles
    /// never accumulate orphans. A staging file whose writer is still
    /// running (its name carries the writer's pid, checked under `/proc` on
    /// Linux) is kept, so a second process opening the store cannot pull a
    /// put out from under the first; where liveness cannot be checked, every
    /// pid-named staging file is kept. Concurrent readers are always fine.
    ///
    /// # Errors
    ///
    /// [`StoreError::ManifestMismatch`] if `root` already holds a store for
    /// a different campaign; [`StoreError::Io`] on filesystem failure.
    pub fn open(root: impl Into<PathBuf>, manifest: &StoreManifest) -> Result<Self, StoreError> {
        let root = root.into();
        let expected = manifest.canonical_json();
        let manifest_path = root.join("manifest.json");
        for dir in [root.clone(), root.join("cells"), root.join("tmp")] {
            fs::create_dir_all(&dir).map_err(|source| StoreError::Io {
                action: "create store directory",
                path: dir.clone(),
                source,
            })?;
        }
        let tmp_dir = root.join("tmp");
        if let Ok(entries) = fs::read_dir(&tmp_dir) {
            for entry in entries.flatten() {
                // Best-effort: a leftover temp file of a dead writer is
                // garbage by definition (a completed write renames it away).
                if !staged_by_running_writer(&entry.file_name().to_string_lossy()) {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        match fs::read(&manifest_path) {
            Ok(found) => {
                if found != expected.as_bytes() {
                    return Err(StoreError::ManifestMismatch {
                        root,
                        expected,
                        found: String::from_utf8_lossy(&found).into_owned(),
                    });
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                write_atomic(&root, &manifest_path, expected.as_bytes())?;
            }
            Err(source) => {
                return Err(StoreError::Io {
                    action: "read store manifest",
                    path: manifest_path,
                    source,
                })
            }
        }
        Ok(Self { root })
    }

    /// Deletes the store directory and everything in it (no error if it does
    /// not exist). The recovery path after a [`StoreError::ManifestMismatch`]
    /// — e.g. after a seed-schema bump alongside a golden-snapshot refresh.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures other than the directory being absent.
    pub fn wipe(root: impl AsRef<Path>) -> io::Result<()> {
        match fs::remove_dir_all(root.as_ref()) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn cell_path(&self, key: &CellKey) -> PathBuf {
        self.root.join("cells").join(format!("{}.json", key.hex()))
    }

    /// Looks the cell up, verifying the stored content hash.
    ///
    /// Never fails: unreadable, truncated, or corrupted entries come back as
    /// [`CellLookup::Corrupt`] so the caller recomputes instead of crashing
    /// or trusting bad bytes.
    pub fn get(&self, key: &CellKey) -> CellLookup {
        let text = match fs::read_to_string(self.cell_path(key)) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return CellLookup::Miss,
            Err(_) => return CellLookup::Corrupt,
        };
        match decode_cell_file(&text, key) {
            Some(body) => CellLookup::Hit(body),
            None => CellLookup::Corrupt,
        }
    }

    /// Looks the cell up and decodes its verified body as a `T`.
    ///
    /// A body that passes the hash check but does not decode — it predates
    /// a schema change, or is valid JSON of the wrong shape — is
    /// [`CellLookup::Corrupt`], like a failed hash: the caller recomputes.
    pub fn lookup<T: Deserialize>(&self, key: &CellKey) -> CellLookup<T> {
        match self.get(key) {
            CellLookup::Hit(body) => {
                match serde_json::from_str(&body).and_then(serde_json::from_value) {
                    Ok(value) => CellLookup::Hit(value),
                    Err(_) => CellLookup::Corrupt,
                }
            }
            CellLookup::Miss => CellLookup::Miss,
            CellLookup::Corrupt => CellLookup::Corrupt,
        }
    }

    /// Stores `body` (the cell's canonical JSON) under `key`, atomically:
    /// the bytes land in a temp file first and are renamed into place, so
    /// concurrent readers and killed writers only ever see absent or
    /// complete entries. Overwrites any existing entry.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    pub fn put(&self, key: &CellKey, body: &str) -> Result<(), StoreError> {
        let header = CellHeader {
            store_schema: STORE_SCHEMA_VERSION,
            key: key.hex(),
            content_fnv: format!("{:032x}", fnv1a_128(body.as_bytes())),
            bytes: body.len(),
        };
        let mut file = serde_json::to_string(&header).expect("header serializes");
        file.push('\n');
        file.push_str(body);
        write_atomic(&self.root, &self.cell_path(key), file.as_bytes())
    }

    /// Whether a *valid* entry exists for `key`.
    pub fn contains(&self, key: &CellKey) -> bool {
        matches!(self.get(key), CellLookup::Hit(_))
    }

    /// Walks the cell directory, verifying every entry.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the cell directory cannot be listed.
    pub fn status(&self) -> Result<StoreStatus, StoreError> {
        let mut status = StoreStatus {
            entries: 0,
            corrupt: 0,
        };
        for key in self.walk()? {
            match key {
                Some(key) if self.contains(&key) => status.entries += 1,
                _ => status.corrupt += 1,
            }
        }
        Ok(status)
    }

    /// The keys of every valid entry, sorted (deterministic across hosts).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the cell directory cannot be listed.
    pub fn keys(&self) -> Result<Vec<CellKey>, StoreError> {
        let mut keys: Vec<CellKey> = self
            .walk()?
            .into_iter()
            .flatten()
            .filter(|k| self.contains(k))
            .collect();
        keys.sort();
        Ok(keys)
    }

    /// Lists the cell directory as parsed keys (`None` for files whose name
    /// is not a well-formed key).
    fn walk(&self) -> Result<Vec<Option<CellKey>>, StoreError> {
        let dir = self.root.join("cells");
        let entries = fs::read_dir(&dir).map_err(|source| StoreError::Io {
            action: "list store cells",
            path: dir.clone(),
            source,
        })?;
        let mut keys = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|source| StoreError::Io {
                action: "list store cells",
                path: dir.clone(),
                source,
            })?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            keys.push(name.strip_suffix(".json").and_then(CellKey::from_hex));
        }
        Ok(keys)
    }
}

/// Validates a cell file's header against its body and the key it is filed
/// under, returning the verified body.
fn decode_cell_file(text: &str, expect_key: &CellKey) -> Option<String> {
    let (header_line, body) = text.split_once('\n')?;
    let header: CellHeader = serde_json::from_str(header_line)
        .and_then(serde_json::from_value)
        .ok()?;
    let key = CellKey::from_hex(&header.key)?;
    let valid = header.store_schema == STORE_SCHEMA_VERSION
        && key == *expect_key
        && header.bytes == body.len()
        && header.content_fnv == format!("{:032x}", fnv1a_128(body.as_bytes()));
    valid.then(|| body.to_string())
}

/// Whether the staging file `name` (`<target>.<pid>.<seq>.tmp`, see
/// [`write_atomic`]) may belong to a put still in flight: its writer's pid
/// names a running process. Names of any other shape belong to no writer.
fn staged_by_running_writer(name: &str) -> bool {
    name.strip_suffix(".tmp")
        .and_then(|stem| stem.rsplit('.').nth(1))
        .and_then(|pid| pid.parse::<u32>().ok())
        .is_some_and(process_may_be_running)
}

/// Whether process `pid` is running.
#[cfg(target_os = "linux")]
fn process_may_be_running(pid: u32) -> bool {
    Path::new("/proc").join(pid.to_string()).exists()
}

/// Whether process `pid` may be running: without `/proc` this cannot be
/// told, so every pid counts as running.
#[cfg(not(target_os = "linux"))]
fn process_may_be_running(_pid: u32) -> bool {
    true
}

/// Writes `bytes` to `path` atomically: temp file in `<store root>/tmp` (or
/// the target's directory while the store is being created), then rename.
fn write_atomic(root: &Path, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp_dir = root.join("tmp");
    let tmp_dir = if tmp_dir.is_dir() {
        tmp_dir
    } else {
        path.parent().unwrap_or(root).to_path_buf()
    };
    let tmp = tmp_dir.join(format!(
        "{}.{}.{}.tmp",
        path.file_name()
            .map(|n| n.to_string_lossy())
            .unwrap_or_default(),
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    fs::write(&tmp, bytes).map_err(|source| StoreError::Io {
        action: "write store temp file",
        path: tmp.clone(),
        source,
    })?;
    fs::rename(&tmp, path).map_err(|source| StoreError::Io {
        action: "publish store file",
        path: path.to_path_buf(),
        source,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> StoreManifest {
        StoreManifest {
            store_schema: STORE_SCHEMA_VERSION,
            seed_schema: 1,
            base_seed: 7,
            superpages: false,
            config_fingerprint: "f00d".into(),
        }
    }

    fn temp_root(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!(
            "pthammer-store-test-{tag}-{}-{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = CellStore::wipe(&root);
        root
    }

    #[test]
    fn put_get_round_trips_exact_bytes() {
        let root = temp_root("roundtrip");
        let store = CellStore::open(&root, &manifest()).unwrap();
        let key = CellKey::from_canonical("cell-a");
        assert_eq!(store.get(&key), CellLookup::Miss);
        let body = "{\"escalated\":true,\"rate\":0.125,\"s\":\"a\\\"b\\n\"}";
        store.put(&key, body).unwrap();
        assert_eq!(store.get(&key), CellLookup::Hit(body.to_string()));
        assert!(store.contains(&key));
        let status = store.status().unwrap();
        assert_eq!(
            status,
            StoreStatus {
                entries: 1,
                corrupt: 0
            }
        );
        assert_eq!(store.keys().unwrap(), vec![key]);
        CellStore::wipe(&root).unwrap();
    }

    #[test]
    fn reopen_with_same_manifest_sees_entries() {
        let root = temp_root("reopen");
        let key = CellKey::from_canonical("cell-b");
        {
            let store = CellStore::open(&root, &manifest()).unwrap();
            store.put(&key, "{}").unwrap();
        }
        let store = CellStore::open(&root, &manifest()).unwrap();
        assert_eq!(store.get(&key), CellLookup::Hit("{}".to_string()));
        CellStore::wipe(&root).unwrap();
    }

    #[test]
    fn manifest_drift_invalidates_the_store() {
        let root = temp_root("drift");
        {
            let store = CellStore::open(&root, &manifest()).unwrap();
            store.put(&CellKey::from_canonical("cell-c"), "{}").unwrap();
        }
        // A seed-schema bump (or any campaign-shape change) must refuse the
        // old entries rather than serve them.
        let mut bumped = manifest();
        bumped.seed_schema = 2;
        match CellStore::open(&root, &bumped) {
            Err(StoreError::ManifestMismatch {
                expected, found, ..
            }) => {
                assert_eq!(expected, bumped.canonical_json());
                assert_eq!(found, manifest().canonical_json());
            }
            other => panic!("expected ManifestMismatch, got {other:?}"),
        }
        // Wiping recovers: a fresh store under the new manifest is empty.
        CellStore::wipe(&root).unwrap();
        let store = CellStore::open(&root, &bumped).unwrap();
        assert_eq!(
            store.get(&CellKey::from_canonical("cell-c")),
            CellLookup::Miss
        );
        CellStore::wipe(&root).unwrap();
    }

    #[test]
    fn mutated_manifests_are_refused_with_an_error() {
        let canonical = manifest().canonical_json();
        let fields: Vec<&str> = canonical
            .trim_start_matches('{')
            .trim_end_matches('}')
            .split(',')
            .collect();
        assert!(fields.len() > 1, "{canonical}");
        let reordered = format!(
            "{{{}}}",
            fields.iter().rev().copied().collect::<Vec<_>>().join(",")
        );
        let truncated = &canonical.as_bytes()[..canonical.len() / 2];
        let mut not_utf8 = canonical.as_bytes().to_vec();
        not_utf8[canonical.len() / 2] = 0xff;
        for (tag, bytes) in [
            ("truncated", truncated),
            ("not-utf8", &not_utf8[..]),
            ("reordered", reordered.as_bytes()),
        ] {
            let root = temp_root(tag);
            fs::create_dir_all(&root).unwrap();
            fs::write(root.join("manifest.json"), bytes).unwrap();
            match CellStore::open(&root, &manifest()) {
                Err(StoreError::ManifestMismatch { found, .. }) => {
                    assert_eq!(found, String::from_utf8_lossy(bytes));
                }
                other => panic!("a {tag} manifest gave {other:?}, not a mismatch"),
            }
            // The refused manifest is left as it was found.
            assert_eq!(fs::read(root.join("manifest.json")).unwrap(), bytes);
            CellStore::wipe(&root).unwrap();
        }
    }

    #[test]
    fn corruption_is_detected_not_trusted() {
        let root = temp_root("corrupt");
        let store = CellStore::open(&root, &manifest()).unwrap();
        let key = CellKey::from_canonical("cell-d");
        store.put(&key, "{\"flips\":3}").unwrap();
        let path = store.cell_path(&key);

        // Flipped body byte: content hash mismatch.
        let original = fs::read_to_string(&path).unwrap();
        fs::write(&path, original.replace("\"flips\":3", "\"flips\":9")).unwrap();
        assert_eq!(store.get(&key), CellLookup::Corrupt);

        // Truncated file: length mismatch (or unparseable header).
        fs::write(&path, &original[..original.len() - 4]).unwrap();
        assert_eq!(store.get(&key), CellLookup::Corrupt);

        // Garbage: no header line.
        fs::write(&path, "not a store file").unwrap();
        assert_eq!(store.get(&key), CellLookup::Corrupt);
        let status = store.status().unwrap();
        assert_eq!(
            status,
            StoreStatus {
                entries: 0,
                corrupt: 1
            }
        );

        // Overwriting with a fresh put repairs the entry.
        store.put(&key, "{\"flips\":3}").unwrap();
        assert_eq!(
            store.get(&key),
            CellLookup::Hit("{\"flips\":3}".to_string())
        );
        CellStore::wipe(&root).unwrap();
    }

    #[test]
    fn entry_filed_under_the_wrong_key_is_corrupt() {
        let root = temp_root("wrongkey");
        let store = CellStore::open(&root, &manifest()).unwrap();
        let a = CellKey::from_canonical("cell-a");
        let b = CellKey::from_canonical("cell-b");
        store.put(&a, "{}").unwrap();
        // Simulate a mis-filed entry (e.g. a bad manual copy between
        // stores): body verifies against its header, but the header's key is
        // not the one it is filed under.
        fs::rename(store.cell_path(&a), store.cell_path(&b)).unwrap();
        assert_eq!(store.get(&b), CellLookup::Corrupt);
        CellStore::wipe(&root).unwrap();
    }

    #[test]
    fn open_clears_stale_temp_files() {
        let root = temp_root("staletmp");
        let key = CellKey::from_canonical("cell-t");
        {
            let store = CellStore::open(&root, &manifest()).unwrap();
            store.put(&key, "{}").unwrap();
        }
        // Simulate a writer killed mid-write: a half-written staging file
        // named for a pid no process can have (Linux pids stay below 2^22).
        fs::write(
            root.join("tmp").join("orphan.4294967295.7.tmp"),
            "half-writ",
        )
        .unwrap();
        fs::write(root.join("tmp").join("not-a-staging-name"), "junk").unwrap();
        let store = CellStore::open(&root, &manifest()).unwrap();
        assert_eq!(
            fs::read_dir(root.join("tmp")).unwrap().count(),
            usize::from(!cfg!(target_os = "linux")),
            "stale temp files must be cleared on open"
        );
        // Published entries and fresh writes are unaffected.
        assert_eq!(store.get(&key), CellLookup::Hit("{}".to_string()));
        store.put(&key, "{\"v\":2}").unwrap();
        assert_eq!(store.get(&key), CellLookup::Hit("{\"v\":2}".to_string()));
        CellStore::wipe(&root).unwrap();
    }

    #[test]
    fn open_keeps_a_running_writers_staged_put() {
        let root = temp_root("livetmp");
        let key = CellKey::from_canonical("cell-l");
        let store = CellStore::open(&root, &manifest()).unwrap();
        // A put staged by a running process (this one) and not yet renamed,
        // next to one staged by a dead writer.
        let live =
            root.join("tmp")
                .join(format!("{}.json.{}.3.tmp", key.hex(), std::process::id()));
        let dead = root
            .join("tmp")
            .join(format!("{}.json.4294967295.3.tmp", key.hex()));
        fs::write(&live, "staged").unwrap();
        fs::write(&dead, "staged").unwrap();
        // A second invocation opens the same store meanwhile.
        let second = CellStore::open(&root, &manifest()).unwrap();
        assert!(
            fs::read_to_string(&live).is_ok(),
            "a running writer's put must survive"
        );
        // Without `/proc` a pid cannot be told dead, so the file stays.
        assert_eq!(
            dead.exists(),
            !cfg!(target_os = "linux"),
            "a dead writer's put must be removed"
        );
        fs::remove_file(&live).unwrap();
        store.put(&key, "{}").unwrap();
        assert_eq!(second.get(&key), CellLookup::Hit("{}".to_string()));
        CellStore::wipe(&root).unwrap();
    }

    #[test]
    fn staging_names_parse_their_writers_pid() {
        let own = std::process::id();
        assert!(staged_by_running_writer(&format!("abc.json.{own}.0.tmp")));
        assert!(staged_by_running_writer(&format!(
            "manifest.json.{own}.12.tmp"
        )));
        assert_eq!(
            staged_by_running_writer("abc.json.4294967295.0.tmp"),
            !cfg!(target_os = "linux")
        );
        assert!(!staged_by_running_writer(&format!("abc.json.{own}.0")));
        assert!(!staged_by_running_writer("abc.json.pid.0.tmp"));
        assert!(!staged_by_running_writer("orphan"));
    }

    #[test]
    fn stray_files_count_as_corrupt_in_status() {
        let root = temp_root("stray");
        let store = CellStore::open(&root, &manifest()).unwrap();
        fs::write(root.join("cells").join("notakey.json"), "junk").unwrap();
        let status = store.status().unwrap();
        assert_eq!(
            status,
            StoreStatus {
                entries: 0,
                corrupt: 1
            }
        );
        assert!(store.keys().unwrap().is_empty());
        CellStore::wipe(&root).unwrap();
    }
}
