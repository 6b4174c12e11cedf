//! Physical and virtual address newtypes.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

use serde::Serialize;

use crate::{CACHE_LINE_SIZE, HUGE_PAGE_SIZE, PAGE_SIZE, PTE_SIZE};

/// A physical memory address in the simulated machine.
///
/// Physical addresses index the simulated DRAM and the physically-indexed
/// caches. They are never visible to the simulated unprivileged attacker
/// (mirroring the paper's threat model, which assumes no access to
/// `/proc/<pid>/pagemap`).
///
/// # Examples
///
/// ```
/// use pthammer_types::PhysAddr;
/// let a = PhysAddr::new(0x4_2040);
/// assert_eq!(a.frame_number(), 0x42);
/// assert_eq!(a.page_offset(), 0x40);
/// assert_eq!(a.cache_line_offset(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct PhysAddr(u64);

impl PhysAddr {
    /// Creates a physical address from a raw value.
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Creates a physical address from a frame number and an offset within the frame.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= 4096`.
    pub fn from_frame(frame: u64, offset: u64) -> Self {
        assert!(offset < PAGE_SIZE, "offset {offset} exceeds a 4 KiB frame");
        Self(frame * PAGE_SIZE + offset)
    }

    /// Returns the raw address value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the 4 KiB frame number containing this address.
    pub const fn frame_number(self) -> u64 {
        self.0 / PAGE_SIZE
    }

    /// Returns the offset of this address within its 4 KiB frame.
    pub const fn page_offset(self) -> u64 {
        self.0 % PAGE_SIZE
    }

    /// Returns the address of the first byte of the containing 4 KiB frame.
    pub const fn frame_base(self) -> Self {
        Self(self.0 & !(PAGE_SIZE - 1))
    }

    /// Returns the address of the first byte of the containing cache line.
    pub const fn cache_line_base(self) -> Self {
        Self(self.0 & !(CACHE_LINE_SIZE - 1))
    }

    /// Returns the offset of this address within its cache line.
    pub const fn cache_line_offset(self) -> u64 {
        self.0 % CACHE_LINE_SIZE
    }

    /// Returns the global cache-line index (address divided by the line size).
    pub const fn cache_line_index(self) -> u64 {
        self.0 / CACHE_LINE_SIZE
    }

    /// Returns true if the address is aligned to an 8-byte (PTE-sized) boundary.
    pub const fn is_pte_aligned(self) -> bool {
        self.0.is_multiple_of(PTE_SIZE)
    }

    /// Returns a new address offset by `delta` bytes.
    pub const fn offset(self, delta: u64) -> Self {
        Self(self.0 + delta)
    }

    /// Extracts the bit at position `bit` (0 = least significant).
    pub const fn bit(self, bit: u32) -> u64 {
        (self.0 >> bit) & 1
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PA:{:#014x}", self.0)
    }
}

impl fmt::LowerHex for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for PhysAddr {
    fn from(raw: u64) -> Self {
        Self(raw)
    }
}

impl From<PhysAddr> for u64 {
    fn from(addr: PhysAddr) -> Self {
        addr.0
    }
}

impl Add<u64> for PhysAddr {
    type Output = Self;
    fn add(self, rhs: u64) -> Self {
        Self(self.0 + rhs)
    }
}

impl AddAssign<u64> for PhysAddr {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<PhysAddr> for PhysAddr {
    type Output = u64;
    fn sub(self, rhs: PhysAddr) -> u64 {
        self.0 - rhs.0
    }
}

/// A virtual address in a simulated process address space.
///
/// Virtual addresses are what the simulated attacker manipulates: it selects
/// hammer targets, eviction-set members and sprayed mappings purely in terms of
/// virtual addresses, exactly as the paper's unprivileged attacker does.
///
/// # Examples
///
/// ```
/// use pthammer_types::VirtAddr;
/// let v = VirtAddr::new(0x0000_7fff_8000_1000);
/// // 4-level page-table indices (9 bits each).
/// assert_eq!(v.pt_index(4), (0x7fff_8000_1000u64 >> 39) & 0x1ff);
/// assert_eq!(v.pt_index(1), (0x7fff_8000_1000u64 >> 12) & 0x1ff);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct VirtAddr(u64);

impl VirtAddr {
    /// Creates a virtual address from a raw value.
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Returns the raw address value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the 4 KiB virtual page number containing this address.
    pub const fn page_number(self) -> u64 {
        self.0 / PAGE_SIZE
    }

    /// Returns the offset of this address within its 4 KiB page.
    pub const fn page_offset(self) -> u64 {
        self.0 % PAGE_SIZE
    }

    /// Returns the address of the first byte of the containing 4 KiB page.
    pub const fn page_base(self) -> Self {
        Self(self.0 & !(PAGE_SIZE - 1))
    }

    /// Returns the address of the first byte of the containing 2 MiB superpage.
    pub const fn huge_page_base(self) -> Self {
        Self(self.0 & !(HUGE_PAGE_SIZE - 1))
    }

    /// Returns the offset of this address within its 2 MiB superpage.
    pub const fn huge_page_offset(self) -> u64 {
        self.0 % HUGE_PAGE_SIZE
    }

    /// Returns the 9-bit page-table index for `level` (1 = PT, 2 = PD, 3 = PDPT, 4 = PML4).
    ///
    /// # Panics
    ///
    /// Panics if `level` is not in `1..=4`.
    pub const fn pt_index(self, level: u8) -> u64 {
        assert!(level >= 1 && level <= 4, "page-table level must be 1..=4");
        let shift = 12 + 9 * (level as u64 - 1);
        (self.0 >> shift) & 0x1ff
    }

    /// Returns a new address offset by `delta` bytes.
    pub const fn offset(self, delta: u64) -> Self {
        Self(self.0 + delta)
    }

    /// Returns true when the address is 4 KiB aligned.
    pub const fn is_page_aligned(self) -> bool {
        self.0.is_multiple_of(PAGE_SIZE)
    }

    /// Returns true when the address is 2 MiB aligned.
    pub const fn is_huge_page_aligned(self) -> bool {
        self.0.is_multiple_of(HUGE_PAGE_SIZE)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VA:{:#014x}", self.0)
    }
}

impl fmt::LowerHex for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for VirtAddr {
    fn from(raw: u64) -> Self {
        Self(raw)
    }
}

impl From<VirtAddr> for u64 {
    fn from(addr: VirtAddr) -> Self {
        addr.0
    }
}

impl Add<u64> for VirtAddr {
    type Output = Self;
    fn add(self, rhs: u64) -> Self {
        Self(self.0 + rhs)
    }
}

impl AddAssign<u64> for VirtAddr {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<VirtAddr> for VirtAddr {
    type Output = u64;
    fn sub(self, rhs: VirtAddr) -> u64 {
        self.0 - rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn phys_addr_decomposition() {
        let a = PhysAddr::new(0x12345);
        assert_eq!(a.frame_number(), 0x12);
        assert_eq!(a.page_offset(), 0x345);
        assert_eq!(a.frame_base(), PhysAddr::new(0x12000));
        assert_eq!(a.cache_line_base(), PhysAddr::new(0x12340));
        assert_eq!(a.cache_line_offset(), 5);
    }

    #[test]
    fn phys_addr_from_frame_roundtrip() {
        let a = PhysAddr::from_frame(7, 0x123);
        assert_eq!(a.as_u64(), 7 * 4096 + 0x123);
        assert_eq!(a.frame_number(), 7);
        assert_eq!(a.page_offset(), 0x123);
    }

    #[test]
    #[should_panic(expected = "exceeds a 4 KiB frame")]
    fn phys_addr_from_frame_rejects_large_offset() {
        let _ = PhysAddr::from_frame(1, 4096);
    }

    #[test]
    fn virt_addr_pt_indices_cover_distinct_bits() {
        // A VA with index i at level i for easy checking.
        let raw = (4u64 << 39) | (3 << 30) | (2 << 21) | (1 << 12) | 0x7;
        let v = VirtAddr::new(raw);
        assert_eq!(v.pt_index(4), 4);
        assert_eq!(v.pt_index(3), 3);
        assert_eq!(v.pt_index(2), 2);
        assert_eq!(v.pt_index(1), 1);
        assert_eq!(v.page_offset(), 7);
    }

    #[test]
    fn virt_addr_alignment_helpers() {
        let v = VirtAddr::new(0x40000000);
        assert!(v.is_page_aligned());
        assert!(v.is_huge_page_aligned());
        let w = VirtAddr::new(0x40001000);
        assert!(w.is_page_aligned());
        assert!(!w.is_huge_page_aligned());
        assert_eq!(w.huge_page_base(), v);
        assert_eq!(w.huge_page_offset(), 0x1000);
    }

    #[test]
    fn arithmetic_ops() {
        let a = PhysAddr::new(100);
        assert_eq!((a + 28).as_u64(), 128);
        assert_eq!(PhysAddr::new(128) - a, 28);
        let v = VirtAddr::new(100);
        assert_eq!((v + 28).as_u64(), 128);
        assert_eq!(VirtAddr::new(128) - v, 28);
    }

    #[test]
    fn display_formats_are_informative() {
        assert!(format!("{}", PhysAddr::new(0x1000)).contains("PA:"));
        assert!(format!("{}", VirtAddr::new(0x1000)).contains("VA:"));
    }

    proptest! {
        #[test]
        fn prop_phys_decomposition_recombines(raw in 0u64..(1 << 46)) {
            let a = PhysAddr::new(raw);
            prop_assert_eq!(a.frame_number() * 4096 + a.page_offset(), raw);
            prop_assert_eq!(a.cache_line_index() * 64 + a.cache_line_offset(), raw);
        }

        #[test]
        fn prop_virt_pt_indices_recombine(raw in 0u64..(1 << 47)) {
            let v = VirtAddr::new(raw);
            let rebuilt = (v.pt_index(4) << 39)
                | (v.pt_index(3) << 30)
                | (v.pt_index(2) << 21)
                | (v.pt_index(1) << 12)
                | v.page_offset();
            prop_assert_eq!(rebuilt, raw);
        }
    }
}
