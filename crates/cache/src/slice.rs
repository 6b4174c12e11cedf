//! Intel-style complex slice addressing for the last-level cache.

use serde::Serialize;

use pthammer_types::PhysAddr;

/// Computes the LLC slice of a physical address using XOR hash functions of
/// the high address bits, in the style of the reverse-engineered Intel
/// complex-addressing functions (Maurice et al., RAID 2015; Irazoqui et al.).
///
/// The number of slices must be a power of two; `log2(slices)` hash functions
/// are applied, each an XOR-reduction of the physical address masked with a
/// per-bit mask.
///
/// # Examples
///
/// ```
/// use pthammer_cache::SliceHasher;
/// use pthammer_types::PhysAddr;
///
/// let hasher = SliceHasher::intel_like(2);
/// let slice = hasher.slice_of(PhysAddr::new(0x1234_5678));
/// assert!(slice < 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SliceHasher {
    slices: u32,
    masks: Vec<u64>,
}

/// Published 2-slice hash mask (bit 0 of the slice id).
const INTEL_H0: u64 = 0x1B5F575440;
/// Published second hash mask used for 4-slice parts (bit 1 of the slice id).
const INTEL_H1: u64 = 0x6EB5FAA880;

impl SliceHasher {
    /// Creates a hasher with Intel-like XOR masks for 1, 2 or 4 slices.
    ///
    /// # Panics
    ///
    /// Panics if `slices` is not 1, 2 or 4.
    pub fn intel_like(slices: u32) -> Self {
        let masks = match slices {
            1 => vec![],
            2 => vec![INTEL_H0],
            4 => vec![INTEL_H0, INTEL_H1],
            _ => panic!("intel_like slice hasher supports 1, 2 or 4 slices, got {slices}"),
        };
        Self { slices, masks }
    }

    /// Creates a hasher with custom XOR masks (one per slice-id bit).
    ///
    /// # Panics
    ///
    /// Panics if `slices` is not a power of two or the mask count does not
    /// equal `log2(slices)`.
    pub fn with_masks(slices: u32, masks: Vec<u64>) -> Self {
        assert!(
            slices.is_power_of_two(),
            "slice count must be a power of two"
        );
        assert_eq!(
            masks.len() as u32,
            slices.trailing_zeros(),
            "need log2(slices) masks"
        );
        Self { slices, masks }
    }

    /// The number of slices.
    pub fn slices(&self) -> u32 {
        self.slices
    }

    /// Computes the slice index of a physical address.
    pub fn slice_of(&self, paddr: PhysAddr) -> u32 {
        let mut slice = 0u32;
        for (bit, mask) in self.masks.iter().enumerate() {
            let parity = (paddr.as_u64() & mask).count_ones() & 1;
            slice |= parity << bit;
        }
        slice
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_slice_is_always_zero() {
        let h = SliceHasher::intel_like(1);
        for raw in [0u64, 64, 4096, 0xdead_beef] {
            assert_eq!(h.slice_of(PhysAddr::new(raw)), 0);
        }
    }

    #[test]
    fn two_slices_balanced_over_many_lines() {
        let h = SliceHasher::intel_like(2);
        let mut counts = [0usize; 2];
        for i in 0..4096u64 {
            counts[h.slice_of(PhysAddr::new(i * 64)) as usize] += 1;
        }
        // The hash should split lines roughly evenly.
        assert!(counts[0] > 1500 && counts[1] > 1500, "counts = {counts:?}");
    }

    #[test]
    fn four_slices_all_reachable() {
        let h = SliceHasher::intel_like(4);
        let mut seen = std::collections::HashSet::new();
        for i in 0..65_536u64 {
            seen.insert(h.slice_of(PhysAddr::new(i * 64)));
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn same_line_same_slice() {
        let h = SliceHasher::intel_like(2);
        // Bits below 6 never participate in the hash masks used here, so all
        // bytes of a line map to one slice.
        for base in [0x10000u64, 0x123440, 0xfff000] {
            let s = h.slice_of(PhysAddr::new(base));
            for off in 0..64 {
                assert_eq!(h.slice_of(PhysAddr::new(base + off)), s);
            }
        }
    }

    #[test]
    #[should_panic(expected = "supports 1, 2 or 4")]
    fn unsupported_slice_count_panics() {
        let _ = SliceHasher::intel_like(3);
    }

    #[test]
    fn custom_masks_accepted() {
        let h = SliceHasher::with_masks(2, vec![1 << 17]);
        assert_eq!(h.slice_of(PhysAddr::new(0)), 0);
        assert_eq!(h.slice_of(PhysAddr::new(1 << 17)), 1);
    }

    #[test]
    #[should_panic(expected = "log2(slices)")]
    fn wrong_mask_count_panics() {
        let _ = SliceHasher::with_masks(4, vec![1 << 17]);
    }

    proptest! {
        #[test]
        fn prop_slice_in_range(raw in 0u64..(8u64 << 30), slices in prop::sample::select(vec![1u32, 2, 4])) {
            let h = SliceHasher::intel_like(slices);
            prop_assert!(h.slice_of(PhysAddr::new(raw)) < slices);
        }
    }
}
