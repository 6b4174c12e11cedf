//! Deterministic per-cell seed derivation.
//!
//! Cell seeds are a pure function of the campaign base seed and the cell's
//! coordinate *values* — never of matrix position, worker id, or time — so
//! campaigns are reproducible cell-by-cell: running a single cell in
//! isolation uses the same seed it gets inside a full matrix, and reordering
//! or extending the matrix never changes existing cells' results.

use crate::matrix::CellCoord;

/// Version of the cell-seeding scheme (the [`cell_seed`] hash recipe and
/// everything upstream of it that determines a cell's result for given
/// coordinates). It is part of every cell's store key and of the store
/// manifest: bump it whenever simulator behavior changes intentionally —
/// alongside the `PTHAMMER_UPDATE_GOLDEN=1` golden refresh — so cached cell
/// reports computed under the old behavior are invalidated instead of being
/// merged into new campaigns.
pub const CELL_SEED_SCHEMA_VERSION: u32 = 1;

/// FNV-1a over a byte string, used to fold coordinate names into the seed.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// SplitMix64 finalizer: diffuses the folded coordinates into a
/// well-distributed 64-bit seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the deterministic seed for one campaign cell.
///
/// The hash input is the base seed and the values of the seeded axes (see
/// the axis table in `matrix.rs`): cells that differ only on the other axes
/// share a seed, so they attack the *same* DRAM weak-cell map with the same
/// attacker randomness, and the deltas between them isolate those axes (the
/// paper's Section IV-G methodology). Identical coordinates always map to
/// an identical seed regardless of matrix position.
pub fn cell_seed(base_seed: u64, coord: &CellCoord) -> u64 {
    mix(base_seed ^ fnv1a(coord.seed_label().as_bytes()))
}
