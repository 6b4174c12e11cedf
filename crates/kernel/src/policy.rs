//! Frame-placement policies.
//!
//! The kernel substrate asks its placement policy for every physical frame it
//! allocates, tagging the request with the frame's purpose. The default
//! policy models an undefended Linux kernel; the `pthammer-defenses` crate
//! implements CATT, RIP-RH and CTA as alternative policies.

use std::fmt;
use std::str::FromStr;

use serde::Serialize;

use crate::buddy::BuddyAllocator;

/// Which evaluated defense a placement policy implements.
///
/// This is the *typed identity* of a policy — reports carry it instead of a
/// free-form name string, so every layer (attack outcomes, campaign cells,
/// summaries) agrees on the canonical spelling. The canonical JSON form is
/// the display name (`"undefended"`, `"CATT"`, ...), pinned by the golden
/// campaign snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefenseKind {
    /// No defense: the stock-kernel baseline.
    Undefended,
    /// CATT kernel/user physical partitioning.
    Catt,
    /// RIP-RH per-process physical partitioning.
    RipRh,
    /// CTA true-cell page-table region.
    Cta,
    /// ZebRAM guard rows.
    Zebram,
}

impl DefenseKind {
    /// Every defense kind, in evaluation order.
    pub fn all() -> Vec<DefenseKind> {
        vec![
            DefenseKind::Undefended,
            DefenseKind::Catt,
            DefenseKind::RipRh,
            DefenseKind::Cta,
            DefenseKind::Zebram,
        ]
    }

    /// Canonical display name (also the canonical JSON serialization, pinned
    /// by the golden campaign snapshots).
    pub fn name(&self) -> &'static str {
        match self {
            DefenseKind::Undefended => "undefended",
            DefenseKind::Catt => "CATT",
            DefenseKind::RipRh => "RIP-RH",
            DefenseKind::Cta => "CTA",
            DefenseKind::Zebram => "ZebRAM",
        }
    }
}

impl fmt::Display for DefenseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for DefenseKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DefenseKind::all()
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| format!("unknown defense kind `{s}`"))
    }
}

serde::string_enum!(DefenseKind);

/// Why the kernel is allocating a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum FramePurpose {
    /// A page-table node at the given level (4 = PML4 … 1 = L1 page table).
    PageTable {
        /// Page-table level of the node being allocated.
        level: u8,
        /// Process that owns the address space.
        pid: u32,
    },
    /// An anonymous user data page.
    UserPage {
        /// Owning process.
        pid: u32,
    },
    /// Kernel data such as `struct cred` slabs.
    KernelData,
}

impl FramePurpose {
    /// True for Level-1 page-table allocations — the frames PThammer hammers
    /// and corrupts.
    pub fn is_l1_page_table(&self) -> bool {
        matches!(self, FramePurpose::PageTable { level: 1, .. })
    }

    /// True for any page-table allocation.
    pub fn is_page_table(&self) -> bool {
        matches!(self, FramePurpose::PageTable { .. })
    }
}

/// A frame-placement policy.
///
/// Policies receive every allocation request together with its purpose and
/// decide where in physical memory (and therefore where in DRAM) the frame
/// lands. Software-only rowhammer defenses are exactly such policies.
pub trait PlacementPolicy: fmt::Debug + Send {
    /// Human-readable policy name (used in experiment reports).
    fn name(&self) -> &str;

    /// Typed identity of the defense this policy implements; attack
    /// outcomes and campaign reports carry this instead of the free-form
    /// [`name`](PlacementPolicy::name).
    fn kind(&self) -> DefenseKind;

    /// Allocates a frame for `purpose` from `buddy`, or `None` when the
    /// policy cannot satisfy the request.
    fn allocate(&mut self, purpose: FramePurpose, buddy: &mut BuddyAllocator) -> Option<u64>;

    /// Releases a frame previously returned by [`PlacementPolicy::allocate`].
    fn free(&mut self, frame: u64, buddy: &mut BuddyAllocator) {
        buddy.free_frame(frame);
    }
}

/// The undefended baseline: every allocation takes the lowest free frame,
/// regardless of purpose — page tables, user data and kernel data freely
/// intermingle in DRAM, exactly the situation PThammer exploits on a stock
/// kernel.
#[derive(Debug, Clone, Default, Serialize)]
pub struct DefaultPolicy;

impl DefaultPolicy {
    /// Creates the default policy.
    pub fn new() -> Self {
        Self
    }
}

impl PlacementPolicy for DefaultPolicy {
    fn name(&self) -> &str {
        "default (undefended)"
    }

    fn kind(&self) -> DefenseKind {
        DefenseKind::Undefended
    }

    fn allocate(&mut self, _purpose: FramePurpose, buddy: &mut BuddyAllocator) -> Option<u64> {
        buddy.alloc_frame()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn purpose_predicates() {
        assert!(FramePurpose::PageTable { level: 1, pid: 3 }.is_l1_page_table());
        assert!(!FramePurpose::PageTable { level: 2, pid: 3 }.is_l1_page_table());
        assert!(FramePurpose::PageTable { level: 4, pid: 3 }.is_page_table());
        assert!(!FramePurpose::UserPage { pid: 3 }.is_page_table());
        assert!(!FramePurpose::KernelData.is_page_table());
    }

    #[test]
    fn default_policy_allocates_ascending() {
        let mut buddy = BuddyAllocator::new(0, 256);
        let mut policy = DefaultPolicy::new();
        let a = policy
            .allocate(FramePurpose::KernelData, &mut buddy)
            .unwrap();
        let b = policy
            .allocate(FramePurpose::UserPage { pid: 1 }, &mut buddy)
            .unwrap();
        let c = policy
            .allocate(FramePurpose::PageTable { level: 1, pid: 1 }, &mut buddy)
            .unwrap();
        assert_eq!((a, b, c), (0, 1, 2));
        policy.free(b, &mut buddy);
        assert_eq!(buddy.free_frames(), 254);
    }

    #[test]
    fn default_policy_name() {
        assert!(DefaultPolicy::new().name().contains("undefended"));
        assert_eq!(DefaultPolicy::new().kind(), DefenseKind::Undefended);
    }

    #[test]
    fn defense_kind_names_round_trip() {
        for kind in DefenseKind::all() {
            assert_eq!(kind.name().parse::<DefenseKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        assert!("no-such-defense".parse::<DefenseKind>().is_err());
    }

    #[test]
    fn defense_kind_serializes_as_display_name() {
        let mut w = serde::ser::JsonWriter::new(false);
        serde::Serialize::serialize(&DefenseKind::RipRh, &mut w);
        assert_eq!(w.into_string(), "\"RIP-RH\"");
    }
}
