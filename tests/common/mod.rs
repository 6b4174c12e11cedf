//! Helpers shared by the golden-comparison integration tests.

#![allow(dead_code)] // each test crate uses a subset

use std::path::PathBuf;

/// Path of the committed snapshot `tests/golden/<name>`.
pub fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

/// The committed snapshot `tests/golden/<name>`.
pub fn golden_snapshot(name: &str) -> String {
    let path = golden_path(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with PTHAMMER_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    })
}

/// Compares canonical campaign JSON against the committed snapshot `name`,
/// or rewrites the snapshot when `PTHAMMER_UPDATE_GOLDEN=1`.
pub fn compare_with_golden(name: &str, json: &str) {
    let path = golden_path(name);
    if std::env::var("PTHAMMER_UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, json).expect("write golden snapshot");
        eprintln!("updated golden snapshot at {}", path.display());
        return;
    }
    let golden = golden_snapshot(name);
    assert!(
        golden == json,
        "campaign report drifted from the golden snapshot {}.\n\
         If the change is intentional, refresh with PTHAMMER_UPDATE_GOLDEN=1 and commit.\n\
         First diverging line: {}",
        path.display(),
        first_diff(&golden, json)
    );
}

/// Human-readable pointer at the first differing line of two texts.
pub fn first_diff(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("line {}: golden `{la}` vs new `{lb}`", i + 1);
        }
    }
    format!(
        "texts share {} lines, lengths differ ({} vs {} bytes)",
        a.lines().count().min(b.lines().count()),
        a.len(),
        b.len()
    )
}
