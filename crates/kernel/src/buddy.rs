//! A buddy-style physical frame allocator.
//!
//! The attack depends on one well-known behaviour of the Linux buddy
//! allocator: consecutive allocations tend to return physically consecutive
//! frames, which is what makes the 256 MiB virtual-address stride of the
//! paper's pair selection land Level-1 page tables two DRAM rows apart. This
//! allocator reproduces that behaviour by always splitting the lowest-address
//! (or, on request, highest-address) free block.
//!
//! Placement-policy defenses do not take "any frame": they ask for the
//! lowest (or highest) free frame inside a [`FrameConstraint`] — a frame
//! range, optionally narrowed by a per-DRAM-row allow mask. Because the
//! free lists are address-ordered, the allocator answers such a request by
//! range queries over the blocks that intersect the constraint instead of
//! testing every free frame.

use std::collections::BTreeSet;
use std::ops::Range;

use serde::Serialize;

/// Maximum block order (2^10 frames = 4 MiB blocks).
pub const MAX_ORDER: u32 = 10;

/// Which frames a constrained allocation may return: a frame range,
/// optionally narrowed to the DRAM rows a per-row mask allows, searched from
/// the bottom (lowest frame first) or from the top.
///
/// Every software placement defense is expressible this way, since each of
/// them decides by `row = frame / frames_per_row` alone: CATT and RIP-RH
/// use row ranges, ZebRAM a mask of even rows, CTA a region plus a mask of
/// true-cell rows.
///
/// # Examples
///
/// ```
/// use pthammer_kernel::{BuddyAllocator, FrameConstraint};
/// let mut buddy = BuddyAllocator::new(0, 1024);
/// // Rows of 64 frames; only odd rows, taken from the top.
/// let odd_rows: Vec<bool> = (0..16).map(|row| row % 2 == 1).collect();
/// let c = FrameConstraint::frames(0..1024)
///     .with_row_mask(&odd_rows, 64)
///     .from_top();
/// assert_eq!(buddy.alloc_frame_constrained(&c), Some(1023));
/// assert_eq!(buddy.alloc_frame_constrained(&FrameConstraint::frames(100..200)), Some(100));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameConstraint<'a> {
    start: u64,
    end: u64,
    rows: Option<RowMask<'a>>,
    from_top: bool,
}

/// A per-row allow mask: row `r` spans frames `r * frames_per_row ..
/// (r + 1) * frames_per_row` and is allowed iff `allowed[r]`; rows past the
/// end of the mask are not allowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RowMask<'a> {
    frames_per_row: u64,
    allowed: &'a [bool],
}

impl<'a> FrameConstraint<'a> {
    /// Any frame in `range`, lowest first. An empty range admits nothing.
    pub fn frames(range: Range<u64>) -> Self {
        Self {
            start: range.start,
            end: range.end,
            rows: None,
            from_top: false,
        }
    }

    /// Narrows the constraint to rows whose `allowed` entry is true.
    ///
    /// # Panics
    ///
    /// Panics if `frames_per_row` is zero.
    pub fn with_row_mask(self, allowed: &'a [bool], frames_per_row: u64) -> Self {
        assert!(frames_per_row > 0, "rows must span at least one frame");
        Self {
            rows: Some(RowMask {
                frames_per_row,
                allowed,
            }),
            ..self
        }
    }

    /// Searches from the top: the highest admitted free frame wins.
    pub fn from_top(self) -> Self {
        Self {
            from_top: true,
            ..self
        }
    }

    fn row_allows(&self, frame: u64) -> bool {
        self.rows.is_none_or(|mask| {
            let row = frame / mask.frames_per_row;
            usize::try_from(row)
                .ok()
                .and_then(|row| mask.allowed.get(row))
                .copied()
                .unwrap_or(false)
        })
    }

    /// Lowest admitted frame of `lo..hi` (a span already inside the range).
    fn lowest_in(&self, lo: u64, hi: u64) -> Option<u64> {
        let Some(mask) = self.rows else {
            return (lo < hi).then_some(lo);
        };
        let mut frame = lo;
        while frame < hi {
            if self.row_allows(frame) {
                return Some(frame);
            }
            // Jump to the first frame of the next row.
            frame = (frame / mask.frames_per_row + 1) * mask.frames_per_row;
        }
        None
    }

    /// Highest admitted frame of `lo..hi` (a span already inside the range).
    fn highest_in(&self, lo: u64, hi: u64) -> Option<u64> {
        let Some(mask) = self.rows else {
            return (lo < hi).then(|| hi - 1);
        };
        let mut frame = hi;
        while frame > lo {
            let last = frame - 1;
            if self.row_allows(last) {
                return Some(last);
            }
            // Jump to the last frame of the previous row.
            frame = last - last % mask.frames_per_row;
        }
        None
    }
}

/// A buddy allocator over physical frame numbers.
///
/// # Examples
///
/// ```
/// use pthammer_kernel::BuddyAllocator;
/// let mut buddy = BuddyAllocator::new(0, 1024);
/// let a = buddy.alloc_frame().unwrap();
/// let b = buddy.alloc_frame().unwrap();
/// assert_eq!(b, a + 1, "consecutive allocations are physically consecutive");
/// buddy.free_frame(a);
/// buddy.free_frame(b);
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct BuddyAllocator {
    /// Free blocks per order, keyed by their first frame number.
    free_lists: Vec<BTreeSet<u64>>,
    start_frame: u64,
    end_frame: u64,
    free_frames: u64,
    /// Successful `alloc_order` and constrained allocations.
    frame_allocs: u64,
    /// Free blocks those allocations looked at while choosing.
    blocks_examined: u64,
}

impl BuddyAllocator {
    /// Creates an allocator managing frames `start_frame..end_frame`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn new(start_frame: u64, end_frame: u64) -> Self {
        assert!(end_frame > start_frame, "empty frame range");
        let mut this = Self {
            free_lists: vec![BTreeSet::new(); (MAX_ORDER + 1) as usize],
            start_frame,
            end_frame,
            free_frames: 0,
            frame_allocs: 0,
            blocks_examined: 0,
        };
        // Seed the free lists greedily with the largest aligned blocks.
        let mut frame = start_frame;
        while frame < end_frame {
            let mut order = MAX_ORDER;
            loop {
                let size = 1u64 << order;
                if frame.is_multiple_of(size) && frame + size <= end_frame {
                    break;
                }
                order -= 1;
            }
            this.free_lists[order as usize].insert(frame);
            this.free_frames += 1 << order;
            frame += 1 << order;
        }
        this
    }

    /// Number of currently free frames.
    pub fn free_frames(&self) -> u64 {
        self.free_frames
    }

    /// Total number of managed frames.
    pub fn total_frames(&self) -> u64 {
        self.end_frame - self.start_frame
    }

    /// The managed frame range.
    pub fn range(&self) -> (u64, u64) {
        (self.start_frame, self.end_frame)
    }

    /// Successful allocations so far (`alloc_order` and its wrappers, plus
    /// [`alloc_frame_constrained`](Self::alloc_frame_constrained)).
    pub fn frame_allocs(&self) -> u64 {
        self.frame_allocs
    }

    /// Free blocks examined by those allocations — the allocator's exact
    /// work counter.
    pub fn blocks_examined(&self) -> u64 {
        self.blocks_examined
    }

    /// Every free block as `(first frame, order)`, grouped by order and
    /// address-ordered within an order.
    pub fn free_blocks(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.free_lists
            .iter()
            .zip(0u32..)
            .flat_map(|(list, order)| list.iter().map(move |&block| (block, order)))
    }

    /// Allocates a block of `2^order` frames, preferring the lowest address
    /// (or the highest when `from_top` is true). Returns the first frame.
    pub fn alloc_order(&mut self, order: u32, from_top: bool) -> Option<u64> {
        assert!(order <= MAX_ORDER, "order {order} exceeds MAX_ORDER");
        // Choose the lowest-address (or highest-address) block among every
        // order that can satisfy the request; this keeps plain frame
        // allocations physically consecutive even when the free lists are
        // fragmented across orders.
        // (order, block start, comparison key): the key is the block start
        // for bottom-up allocation and the block's last frame for top-down.
        let mut found: Option<(u32, u64, u64)> = None;
        for o in order..=MAX_ORDER {
            let list = &self.free_lists[o as usize];
            let candidate = if from_top {
                list.iter().next_back().copied()
            } else {
                list.iter().next().copied()
            };
            if let Some(start) = candidate {
                self.blocks_examined += 1;
                let key = if from_top {
                    start + (1u64 << o) - 1
                } else {
                    start
                };
                let better = match found {
                    None => true,
                    Some((_, _, best_key)) => {
                        if from_top {
                            key > best_key
                        } else {
                            key < best_key
                        }
                    }
                };
                if better {
                    found = Some((o, start, key));
                }
            }
        }
        let (mut o, frame, _) = found?;
        self.free_lists[o as usize].remove(&frame);
        // Split down to the requested order, freeing the buddy halves.
        let mut base = frame;
        while o > order {
            o -= 1;
            let half = 1u64 << o;
            if from_top {
                // Keep the upper half, free the lower half.
                self.free_lists[o as usize].insert(base);
                base += half;
            } else {
                // Keep the lower half, free the upper half.
                self.free_lists[o as usize].insert(base + half);
            }
        }
        self.free_frames -= 1 << order;
        self.frame_allocs += 1;
        Some(base)
    }

    /// Allocates a single frame (order 0), lowest address first.
    pub fn alloc_frame(&mut self) -> Option<u64> {
        self.alloc_order(0, false)
    }

    /// Allocates a single frame from the top of memory (highest address).
    pub fn alloc_frame_from_top(&mut self) -> Option<u64> {
        self.alloc_order(0, true)
    }

    /// Allocates the lowest (or, with [`FrameConstraint::from_top`], the
    /// highest) free frame the constraint admits.
    ///
    /// Used by placement-policy defenses that constrain where page tables or
    /// user data may live (e.g. CATT's kernel/user partitions or CTA's
    /// true-cell region). Each order's free list is range-queried for the
    /// blocks that intersect the constraint, nearest edge first; an order
    /// stops being walked at its first admitted frame, or as soon as its
    /// blocks lie beyond the best frame found in a previous order.
    pub fn alloc_frame_constrained(&mut self, constraint: &FrameConstraint<'_>) -> Option<u64> {
        let lo = constraint.start.max(self.start_frame);
        let hi = constraint.end.min(self.end_frame);
        if lo >= hi {
            return None;
        }
        // (block start, order, chosen frame)
        let mut best: Option<(u64, u32, u64)> = None;
        for (list, order) in self.free_lists.iter().zip(0u32..) {
            let size = 1u64 << order;
            if constraint.from_top {
                // Only frames above the best so far can win.
                let floor = best.map_or(lo, |(_, _, frame)| frame + 1);
                for &block in list.range(floor & !(size - 1)..hi).rev() {
                    self.blocks_examined += 1;
                    let span = (block.max(floor), (block + size).min(hi));
                    if let Some(frame) = constraint.highest_in(span.0, span.1) {
                        best = Some((block, order, frame));
                        break;
                    }
                }
            } else {
                // Only frames below the best so far can win.
                let ceiling = best.map_or(hi, |(_, _, frame)| frame);
                for &block in list.range(lo & !(size - 1)..ceiling) {
                    self.blocks_examined += 1;
                    let span = (block.max(lo), (block + size).min(ceiling));
                    if let Some(frame) = constraint.lowest_in(span.0, span.1) {
                        best = Some((block, order, frame));
                        break;
                    }
                }
            }
        }
        let (block, order, frame) = best?;
        self.carve_frame(block, order, frame);
        self.frame_allocs += 1;
        Some(frame)
    }

    /// The scan `alloc_frame_constrained` replaced, kept as its oracle:
    /// sorts every free block by address and tests `pred` frame by frame.
    #[cfg(test)]
    fn alloc_frame_filtered<F: Fn(u64) -> bool>(&mut self, pred: F, from_top: bool) -> Option<u64> {
        let mut blocks: Vec<(u64, u32)> = self.free_blocks().collect();
        blocks.sort_unstable();
        let iter: Box<dyn Iterator<Item = &(u64, u32)>> = if from_top {
            Box::new(blocks.iter().rev())
        } else {
            Box::new(blocks.iter())
        };
        for &(block, order) in iter {
            let size = 1u64 << order;
            let frames: Box<dyn Iterator<Item = u64>> = if from_top {
                Box::new((block..block + size).rev())
            } else {
                Box::new(block..block + size)
            };
            for frame in frames {
                if pred(frame) {
                    self.carve_frame(block, order, frame);
                    return Some(frame);
                }
            }
        }
        None
    }

    /// Removes `frame` from the free block `(block, order)`, returning the
    /// remainder to the free lists.
    fn carve_frame(&mut self, block: u64, order: u32, frame: u64) {
        self.free_lists[order as usize].remove(&block);
        // Re-insert every other frame of the block as order-0 blocks and then
        // let free_frame's coalescing rebuild larger blocks lazily. Simpler:
        // split recursively, keeping only the half containing `frame`.
        let mut base = block;
        let mut o = order;
        while o > 0 {
            o -= 1;
            let half = 1u64 << o;
            if frame < base + half {
                self.free_lists[o as usize].insert(base + half);
            } else {
                self.free_lists[o as usize].insert(base);
                base += half;
            }
        }
        self.free_frames -= 1;
    }

    /// Frees a single frame, coalescing buddies where possible.
    ///
    /// # Panics
    ///
    /// Panics if the frame is outside the managed range.
    pub fn free_frame(&mut self, frame: u64) {
        self.free_block(frame, 0);
    }

    /// Frees a block of `2^order` frames.
    pub fn free_block(&mut self, frame: u64, order: u32) {
        assert!(
            frame >= self.start_frame && frame + (1 << order) <= self.end_frame,
            "frame {frame} outside managed range"
        );
        let freed = 1u64 << order;
        let mut frame = frame;
        let mut order = order;
        while order < MAX_ORDER {
            let buddy = frame ^ (1u64 << order);
            if self.free_lists[order as usize].remove(&buddy) {
                frame = frame.min(buddy);
                order += 1;
            } else {
                break;
            }
        }
        self.free_lists[order as usize].insert(frame);
        self.free_frames += freed;
    }

    /// Exhausts all free blocks smaller than `min_order`, returning the
    /// allocated frames. This models the allocator-massaging technique of
    /// Cheng et al. (used in the paper's CATT evaluation) that forces later
    /// page-table allocations into large, physically contiguous runs.
    pub fn exhaust_small_blocks(&mut self, min_order: u32) -> Vec<u64> {
        let mut taken = Vec::new();
        for order in 0..min_order.min(MAX_ORDER + 1) {
            let frames: Vec<u64> = self.free_lists[order as usize].iter().copied().collect();
            for frame in frames {
                self.free_lists[order as usize].remove(&frame);
                let count = 1u64 << order;
                self.free_frames -= count;
                taken.extend(frame..frame + count);
            }
        }
        taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn consecutive_allocations_are_consecutive_frames() {
        let mut b = BuddyAllocator::new(0, 4096);
        let frames: Vec<u64> = (0..64).map(|_| b.alloc_frame().unwrap()).collect();
        for w in frames.windows(2) {
            assert_eq!(w[1], w[0] + 1);
        }
    }

    #[test]
    fn allocation_and_free_preserve_counts() {
        let mut b = BuddyAllocator::new(0, 2048);
        assert_eq!(b.free_frames(), 2048);
        let f = b.alloc_frame().unwrap();
        assert_eq!(b.free_frames(), 2047);
        b.free_frame(f);
        assert_eq!(b.free_frames(), 2048);
    }

    #[test]
    fn order_allocation_is_aligned() {
        let mut b = BuddyAllocator::new(0, 4096);
        for order in [0u32, 1, 3, 7, 10] {
            let f = b.alloc_order(order, false).unwrap();
            assert_eq!(f % (1 << order), 0, "order {order} block misaligned");
        }
    }

    #[test]
    fn from_top_allocates_highest_frames() {
        let mut b = BuddyAllocator::new(0, 1024);
        let top = b.alloc_frame_from_top().unwrap();
        assert_eq!(top, 1023);
        let next = b.alloc_frame_from_top().unwrap();
        assert_eq!(next, 1022);
        let low = b.alloc_frame().unwrap();
        assert_eq!(low, 0);
    }

    #[test]
    fn constrained_allocation_respects_row_mask() {
        let mut b = BuddyAllocator::new(0, 1024);
        // Only frames in "odd row spans" (every other group of 64 frames).
        let odd: Vec<bool> = (0..16).map(|row| row % 2 == 1).collect();
        let c = FrameConstraint::frames(0..1024).with_row_mask(&odd, 64);
        for i in 0..10 {
            assert_eq!(b.alloc_frame_constrained(&c), Some(64 + i));
        }
        // An unsatisfiable constraint returns None without corrupting state.
        let none = [false; 16];
        let c = FrameConstraint::frames(0..1024).with_row_mask(&none, 64);
        assert!(b.alloc_frame_constrained(&c).is_none());
        assert!(b
            .alloc_frame_constrained(&FrameConstraint::frames(9..9))
            .is_none());
        assert!(b
            .alloc_frame_constrained(&FrameConstraint::frames(5000..6000))
            .is_none());
        let before = b.free_frames();
        let f = b.alloc_frame().unwrap();
        b.free_frame(f);
        assert_eq!(b.free_frames(), before);
        assert_eq!(b.frame_allocs(), 11);
    }

    #[test]
    fn constrained_from_top_picks_highest_admitted() {
        let mut b = BuddyAllocator::new(0, 1024);
        let c = FrameConstraint::frames(0..500).from_top();
        assert_eq!(b.alloc_frame_constrained(&c), Some(499));
        assert_eq!(b.alloc_frame_constrained(&c), Some(498));
        // Rows past the end of the mask are never admitted.
        let short = [true, false];
        let c = FrameConstraint::frames(0..1024)
            .with_row_mask(&short, 64)
            .from_top();
        assert_eq!(b.alloc_frame_constrained(&c), Some(63));
    }

    #[test]
    fn constrained_allocation_examines_only_intersecting_blocks() {
        let mut b = BuddyAllocator::new(0, 1 << 16);
        // Fragment the bottom of memory into many small free blocks.
        let held: Vec<u64> = (0..4096).map(|_| b.alloc_frame().unwrap()).collect();
        for f in held.iter().step_by(2) {
            b.free_frame(*f);
        }
        let before = b.blocks_examined();
        let c = FrameConstraint::frames(60_000..61_000);
        assert_eq!(b.alloc_frame_constrained(&c), Some(60_000));
        let examined = b.blocks_examined() - before;
        assert!(
            examined <= u64::from(MAX_ORDER) + 1,
            "one block per order at most, got {examined}"
        );
    }

    #[test]
    fn coalescing_restores_large_blocks() {
        let mut b = BuddyAllocator::new(0, 1024);
        let frames: Vec<u64> = (0..1024).map(|_| b.alloc_frame().unwrap()).collect();
        assert_eq!(b.free_frames(), 0);
        assert!(b.alloc_frame().is_none());
        for f in frames {
            b.free_frame(f);
        }
        assert_eq!(b.free_frames(), 1024);
        // A max-order allocation should succeed again after coalescing.
        assert!(b.alloc_order(MAX_ORDER, false).is_some());
    }

    #[test]
    fn exhaust_small_blocks_removes_fragments() {
        let mut b = BuddyAllocator::new(0, 1024);
        // Create fragmentation: allocate some frames and free every other one.
        let frames: Vec<u64> = (0..32).map(|_| b.alloc_frame().unwrap()).collect();
        for f in frames.iter().step_by(2) {
            b.free_frame(*f);
        }
        let taken = b.exhaust_small_blocks(5);
        assert!(!taken.is_empty());
        // After exhaustion, the next allocations come from large blocks and
        // are therefore consecutive.
        let a = b.alloc_frame().unwrap();
        let c = b.alloc_frame().unwrap();
        assert_eq!(c, a + 1);
    }

    #[test]
    fn nonzero_start_range() {
        let mut b = BuddyAllocator::new(256, 512);
        let f = b.alloc_frame().unwrap();
        assert_eq!(f, 256);
        assert_eq!(b.total_frames(), 256);
    }

    #[test]
    #[should_panic(expected = "outside managed range")]
    fn freeing_foreign_frame_panics() {
        let mut b = BuddyAllocator::new(0, 128);
        b.free_frame(500);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_alloc_free_never_loses_frames(ops in prop::collection::vec(0u8..3, 1..200)) {
            let mut b = BuddyAllocator::new(0, 512);
            let mut held = Vec::new();
            for op in ops {
                match op {
                    0 | 1 => {
                        if let Some(f) = b.alloc_frame() {
                            prop_assert!(f < 512);
                            prop_assert!(!held.contains(&f), "double allocation of frame {}", f);
                            held.push(f);
                        }
                    }
                    _ => {
                        if let Some(f) = held.pop() {
                            b.free_frame(f);
                        }
                    }
                }
                prop_assert_eq!(b.free_frames() as usize + held.len(), 512);
            }
        }

        #[test]
        fn prop_constrained_matches_scan_and_keeps_invariants(
            words in prop::collection::vec(any::<u64>(), 1..300)
        ) {
            check_random_workload(&words)?;
        }
    }

    /// Frames per row in the random workloads (one row = 64 frames).
    const ROW: u64 = 64;
    /// Managed range of the random workloads: an unaligned start, so the
    /// boot-time free lists hold blocks of many orders.
    const RANGE: (u64, u64) = (16, 4096);

    /// Drives twin allocators through the operation stream `words` decodes
    /// to — plain, order and constrained allocations plus frees — with the
    /// constrained search on one twin and the old scan on the other, and
    /// checks the allocator invariants after every step.
    fn check_random_workload(words: &[u64]) -> Result<(), TestCaseError> {
        let (lo, hi) = RANGE;
        let mut fast = BuddyAllocator::new(lo, hi);
        let mut scan = fast.clone();
        let boot_shape: Vec<(u64, u32)> = fast.free_blocks().collect();
        // Held blocks as (first frame, order), and every held frame.
        let mut held: Vec<(u64, u32)> = Vec::new();
        let mut held_frames = BTreeSet::new();
        for &w in words {
            let arg = w >> 8;
            let from_top = (w >> 7) & 1 == 1;
            let got = match w % 8 {
                0 | 1 => {
                    let f = fast.alloc_frame();
                    prop_assert_eq!(f, scan.alloc_frame());
                    f.map(|f| (f, 0))
                }
                2 => {
                    let order = (arg % 4) as u32;
                    let f = fast.alloc_order(order, from_top);
                    prop_assert_eq!(f, scan.alloc_order(order, from_top));
                    f.map(|f| (f, order))
                }
                3 | 4 => {
                    let start = arg % 4200;
                    let end = start + (arg >> 16) % 4200;
                    let mask: Option<Vec<bool>> = match (arg >> 32) % 3 {
                        0 => None,
                        1 => Some((0..hi / ROW).map(|row| row % 2 == 0).collect()),
                        _ => Some(
                            (0..hi / ROW)
                                .map(|row| (arg >> (40 + row % 16)) & 1 == 1)
                                .collect(),
                        ),
                    };
                    let mut c = FrameConstraint::frames(start..end);
                    if let Some(mask) = &mask {
                        c = c.with_row_mask(mask, ROW);
                    }
                    if from_top {
                        c = c.from_top();
                    }
                    let f = fast.alloc_frame_constrained(&c);
                    let oracle = scan.alloc_frame_filtered(
                        |f| {
                            f >= start
                                && f < end
                                && mask.as_ref().is_none_or(|m| m[(f / ROW) as usize])
                        },
                        from_top,
                    );
                    prop_assert_eq!(f, oracle);
                    f.map(|f| (f, 0))
                }
                _ => {
                    if !held.is_empty() {
                        let (f, order) = held.swap_remove((arg % held.len() as u64) as usize);
                        for frame in f..f + (1 << order) {
                            held_frames.remove(&frame);
                        }
                        fast.free_block(f, order);
                        scan.free_block(f, order);
                    }
                    None
                }
            };
            if let Some((f, order)) = got {
                prop_assert!(
                    f % (1 << order) == 0,
                    "misaligned block {} of order {}",
                    f,
                    order
                );
                for frame in f..f + (1 << order) {
                    prop_assert!(
                        held_frames.insert(frame),
                        "frame {} handed out twice",
                        frame
                    );
                }
                held.push((f, order));
            }
            // Free lists are identical and well-formed; frames are conserved.
            let blocks: Vec<(u64, u32)> = fast.free_blocks().collect();
            prop_assert_eq!(&blocks, &scan.free_blocks().collect::<Vec<_>>());
            prop_assert_eq!(fast.free_frames() + held_frames.len() as u64, hi - lo);
            let mut sorted = blocks.clone();
            sorted.sort_unstable();
            let mut prev_end = lo;
            for (block, order) in sorted {
                prop_assert!(block % (1 << order) == 0, "free block {} misaligned", block);
                prop_assert!(
                    block >= prev_end,
                    "free block {} overlaps its neighbour",
                    block
                );
                prev_end = block + (1 << order);
                prop_assert!(prev_end <= hi, "free block {} outside the range", block);
            }
        }
        for (f, order) in held {
            fast.free_block(f, order);
        }
        prop_assert_eq!(fast.free_blocks().collect::<Vec<_>>(), boot_shape);
        Ok(())
    }
}
