//! Page-table entry encoding (x86-64 long mode subset).

use core::fmt;

use serde::Serialize;

use pthammer_types::PhysAddr;

/// Architectural flag bits of a page-table entry.
///
/// Only the bits relevant to the reproduction are modelled: present,
/// writable, user-accessible, the page-size bit (for 2 MiB mappings at the
/// PDE level), and no-execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct PteFlags {
    /// Entry is present.
    pub present: bool,
    /// Writable.
    pub writable: bool,
    /// Accessible from user mode.
    pub user: bool,
    /// Page-size bit: at the PDE level this marks a 2 MiB mapping.
    pub huge: bool,
    /// No-execute bit.
    pub nx: bool,
}

impl PteFlags {
    /// Flags for a user-mode read/write data page.
    pub const fn user_rw() -> Self {
        Self {
            present: true,
            writable: true,
            user: true,
            huge: false,
            nx: true,
        }
    }

    /// Flags for a kernel-owned page-table node (present, writable, not user).
    pub const fn kernel_table() -> Self {
        Self {
            present: true,
            writable: true,
            user: true, // intermediate entries are user-accessible so user pages below can be reached
            huge: false,
            nx: false,
        }
    }

    /// Flags for a user-mode read/write 2 MiB superpage (set at the PDE level).
    pub const fn user_rw_huge() -> Self {
        Self {
            present: true,
            writable: true,
            user: true,
            huge: true,
            nx: true,
        }
    }

    /// A non-present entry.
    pub const fn not_present() -> Self {
        Self {
            present: false,
            writable: false,
            user: false,
            huge: false,
            nx: false,
        }
    }
}

const BIT_PRESENT: u64 = 1 << 0;
const BIT_WRITABLE: u64 = 1 << 1;
const BIT_USER: u64 = 1 << 2;
const BIT_HUGE: u64 = 1 << 7;
const BIT_NX: u64 = 1 << 63;
/// Physical-frame field: bits 12..48.
const FRAME_MASK: u64 = 0x0000_FFFF_FFFF_F000;

/// A single 64-bit page-table entry.
///
/// The raw encoding matters for this reproduction: rowhammer flips single
/// bits of these words in DRAM, and the attack succeeds precisely when a flip
/// inside the frame field redirects a Level-1 PTE to a different frame
/// (Figure 7 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize)]
pub struct Pte(u64);

impl Pte {
    /// Creates a PTE from its raw 64-bit encoding.
    pub const fn from_raw(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw 64-bit encoding.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// An all-zero, non-present entry.
    pub const fn empty() -> Self {
        Self(0)
    }

    /// Creates an entry pointing at the next-level table at `table`.
    ///
    /// # Panics
    ///
    /// Panics if `table` is not 4 KiB aligned.
    pub fn table(table: PhysAddr) -> Self {
        assert_eq!(table.page_offset(), 0, "table frames must be page aligned");
        Self::compose(table, PteFlags::kernel_table())
    }

    /// Creates a leaf entry mapping `frame` with `flags`.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not aligned to the mapping size implied by
    /// `flags.huge`.
    pub fn page(frame: PhysAddr, flags: PteFlags) -> Self {
        if flags.huge {
            assert_eq!(
                frame.as_u64() % (2 * 1024 * 1024),
                0,
                "huge mappings must be 2 MiB aligned"
            );
        } else {
            assert_eq!(frame.page_offset(), 0, "mapped frames must be page aligned");
        }
        Self::compose(frame, flags)
    }

    fn compose(frame: PhysAddr, flags: PteFlags) -> Self {
        let mut raw = frame.as_u64() & FRAME_MASK;
        if flags.present {
            raw |= BIT_PRESENT;
        }
        if flags.writable {
            raw |= BIT_WRITABLE;
        }
        if flags.user {
            raw |= BIT_USER;
        }
        if flags.huge {
            raw |= BIT_HUGE;
        }
        if flags.nx {
            raw |= BIT_NX;
        }
        Self(raw)
    }

    /// Whether the entry is present.
    pub const fn present(self) -> bool {
        self.0 & BIT_PRESENT != 0
    }

    /// Whether the entry is writable.
    pub const fn writable(self) -> bool {
        self.0 & BIT_WRITABLE != 0
    }

    /// Whether the entry is user-accessible.
    pub const fn user(self) -> bool {
        self.0 & BIT_USER != 0
    }

    /// Whether the page-size bit is set (2 MiB mapping at the PDE level).
    pub const fn huge(self) -> bool {
        self.0 & BIT_HUGE != 0
    }

    /// Whether the no-execute bit is set.
    pub const fn nx(self) -> bool {
        self.0 & BIT_NX != 0
    }

    /// Physical address of the referenced frame or next-level table.
    pub const fn frame(self) -> PhysAddr {
        PhysAddr::new(self.0 & FRAME_MASK)
    }

    /// The decoded flags.
    pub const fn flags(self) -> PteFlags {
        PteFlags {
            present: self.present(),
            writable: self.writable(),
            user: self.user(),
            huge: self.huge(),
            nx: self.nx(),
        }
    }
}

impl fmt::Display for Pte {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PTE[{:#x} frame={} P={} W={} U={} PS={}]",
            self.0,
            self.frame(),
            self.present() as u8,
            self.writable() as u8,
            self.user() as u8,
            self.huge() as u8
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn table_entry_roundtrip() {
        let pte = Pte::table(PhysAddr::new(0x1234_5000));
        assert!(pte.present());
        assert!(pte.writable());
        assert!(pte.user());
        assert!(!pte.huge());
        assert_eq!(pte.frame(), PhysAddr::new(0x1234_5000));
    }

    #[test]
    fn page_entry_flags() {
        let pte = Pte::page(PhysAddr::new(0x7000), PteFlags::user_rw());
        assert!(pte.present() && pte.user() && pte.writable() && pte.nx());
        assert!(!pte.huge());
        assert_eq!(pte.frame(), PhysAddr::new(0x7000));
    }

    #[test]
    fn huge_page_entry() {
        let pte = Pte::page(PhysAddr::new(0x40_0000), PteFlags::user_rw_huge());
        assert!(pte.huge());
        assert_eq!(pte.frame(), PhysAddr::new(0x40_0000));
    }

    #[test]
    #[should_panic(expected = "2 MiB aligned")]
    fn misaligned_huge_page_rejected() {
        let _ = Pte::page(PhysAddr::new(0x1000), PteFlags::user_rw_huge());
    }

    #[test]
    #[should_panic(expected = "page aligned")]
    fn misaligned_table_rejected() {
        let _ = Pte::table(PhysAddr::new(0x1234));
    }

    #[test]
    fn empty_entry_is_not_present() {
        assert!(!Pte::empty().present());
        assert!(!Pte::from_raw(0).present());
    }

    #[test]
    fn single_bit_flip_in_frame_field_changes_frame() {
        // The core exploit mechanism: flipping one bit of the frame field
        // makes the PTE point somewhere else while staying present.
        let original = Pte::page(PhysAddr::new(0x0123_4000), PteFlags::user_rw());
        let flipped = Pte::from_raw(original.raw() ^ (1 << 20));
        assert!(flipped.present());
        assert_ne!(flipped.frame(), original.frame());
        assert_eq!(
            flipped.frame().as_u64() ^ original.frame().as_u64(),
            1 << 20
        );
    }

    #[test]
    fn display_contains_frame() {
        let pte = Pte::page(PhysAddr::new(0x9000), PteFlags::user_rw());
        assert!(pte.to_string().contains("frame=PA:"));
    }

    proptest! {
        #[test]
        fn prop_flags_roundtrip(frame in 0u64..(1u64 << 34), present in any::<bool>(), writable in any::<bool>(), user in any::<bool>(), nx in any::<bool>()) {
            let frame = PhysAddr::new(frame * 4096 % (1u64 << 46));
            let flags = PteFlags { present, writable, user, huge: false, nx };
            let pte = Pte::compose(frame, flags);
            prop_assert_eq!(pte.flags(), flags);
            prop_assert_eq!(pte.frame(), frame);
        }
    }
}
