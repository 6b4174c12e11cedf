//! Privileged evaluation oracle.
//!
//! The paper uses a small kernel module to verify the attack's internal steps
//! (reading performance counters, obtaining the physical address of Level-1
//! PTEs, checking eviction-set congruence). This module provides the same
//! ground truth for the simulation. **The simulated attacker never calls
//! these functions while attacking** — they are used by the evaluation
//! harness and tests only.

use serde::Serialize;

use pthammer_dram::DramAddress;
use pthammer_mmu::Pte;
use pthammer_types::{PhysAddr, VirtAddr, PTE_SIZE};

use crate::machine::Machine;

/// Result of a software page-table walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SoftwareWalk {
    /// Final translated physical address.
    pub paddr: PhysAddr,
    /// Physical address of the leaf entry (the Level-1 PTE for 4 KiB pages,
    /// the PDE for 2 MiB pages).
    pub leaf_entry_paddr: PhysAddr,
    /// Level at which the walk terminated (1 for 4 KiB pages, 2 for 2 MiB).
    pub level: u8,
    /// The leaf entry value.
    pub leaf_entry: Pte,
}

/// Walks the page tables in software (no caches, no timing, no TLB effects).
/// Returns `None` if any level is non-present or its table lies past
/// installed DRAM.
pub fn software_walk(machine: &Machine, cr3: PhysAddr, vaddr: VirtAddr) -> Option<SoftwareWalk> {
    software_walk_reading(machine, cr3, vaddr, |_, _| {})
}

/// [`software_walk`], passing the address and raw value of every entry it
/// reads to `read`, in walk order (a non-present entry included).
pub(crate) fn software_walk_reading(
    machine: &Machine,
    cr3: PhysAddr,
    vaddr: VirtAddr,
    mut read: impl FnMut(PhysAddr, u64),
) -> Option<SoftwareWalk> {
    let capacity = machine.config().dram.geometry.capacity_bytes();
    let mut table = cr3;
    for level in (1..=4u8).rev() {
        let entry_paddr = table + vaddr.pt_index(level) * PTE_SIZE;
        if entry_paddr.as_u64() + PTE_SIZE > capacity {
            return None;
        }
        let raw = machine.phys_read_u64(entry_paddr);
        read(entry_paddr, raw);
        let entry = Pte::from_raw(raw);
        if !entry.present() {
            return None;
        }
        if level == 2 && entry.huge() {
            return Some(SoftwareWalk {
                paddr: entry.frame() + vaddr.huge_page_offset(),
                leaf_entry_paddr: entry_paddr,
                level: 2,
                leaf_entry: entry,
            });
        }
        if level == 1 {
            return Some(SoftwareWalk {
                paddr: entry.frame() + vaddr.page_offset(),
                leaf_entry_paddr: entry_paddr,
                level: 1,
                leaf_entry: entry,
            });
        }
        table = entry.frame();
    }
    unreachable!("loop always returns at level 1")
}

/// Physical address of the Level-1 PTE that maps `vaddr` (the quantity the
/// paper's kernel module exposes to verify Algorithm 2's eviction-set
/// selection and the double-sided pair selection).
pub fn l1pte_paddr(machine: &Machine, cr3: PhysAddr, vaddr: VirtAddr) -> Option<PhysAddr> {
    let walk = software_walk(machine, cr3, vaddr)?;
    (walk.level == 1).then_some(walk.leaf_entry_paddr)
}

/// LLC (slice, set) of a physical address — ground truth for eviction-set
/// congruence checks (Section IV-C of the paper).
pub fn llc_location(machine: &Machine, paddr: PhysAddr) -> (u32, u32) {
    machine.caches().llc_slice_and_set(paddr)
}

/// DRAM location of a physical address — ground truth for the double-sided
/// pair-selection evaluation (Section IV-D of the paper).
pub fn dram_location(machine: &Machine, paddr: PhysAddr) -> DramAddress {
    machine.dram().locate(paddr)
}

/// True when the two physical addresses are in the same DRAM bank.
pub fn same_bank(machine: &Machine, a: PhysAddr, b: PhysAddr) -> bool {
    machine.dram().same_bank(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use pthammer_dram::FlipModelProfile;
    use pthammer_mmu::PteFlags;

    fn machine() -> (Machine, PhysAddr) {
        let mut m = Machine::new(MachineConfig::test_small(
            FlipModelProfile::invulnerable(),
            3,
        ));
        let cr3 = PhysAddr::new(0x40_0000);
        let va = VirtAddr::new(0x1234_5000);
        let pdpt = 0x40_1000u64;
        let pd = 0x40_2000u64;
        let pt = 0x40_3000u64;
        m.phys_write_u64(
            cr3 + va.pt_index(4) * 8,
            Pte::table(PhysAddr::new(pdpt)).raw(),
        );
        m.phys_write_u64(
            PhysAddr::new(pdpt) + va.pt_index(3) * 8,
            Pte::table(PhysAddr::new(pd)).raw(),
        );
        m.phys_write_u64(
            PhysAddr::new(pd) + va.pt_index(2) * 8,
            Pte::table(PhysAddr::new(pt)).raw(),
        );
        m.phys_write_u64(
            PhysAddr::new(pt) + va.pt_index(1) * 8,
            Pte::page(PhysAddr::new(0xa000), PteFlags::user_rw()).raw(),
        );
        (m, cr3)
    }

    #[test]
    fn software_walk_resolves_mapping() {
        let (m, cr3) = machine();
        let walk = software_walk(&m, cr3, VirtAddr::new(0x1234_5678)).unwrap();
        assert_eq!(walk.paddr, PhysAddr::new(0xa678));
        assert_eq!(walk.level, 1);
        assert_eq!(
            walk.leaf_entry_paddr,
            PhysAddr::new(0x40_3000) + VirtAddr::new(0x1234_5678).pt_index(1) * 8
        );
    }

    #[test]
    fn software_walk_returns_none_for_unmapped() {
        let (m, cr3) = machine();
        assert!(software_walk(&m, cr3, VirtAddr::new(0xdead_0000_0000)).is_none());
    }

    #[test]
    fn l1pte_paddr_matches_walk() {
        let (m, cr3) = machine();
        let va = VirtAddr::new(0x1234_5000);
        let pte_pa = l1pte_paddr(&m, cr3, va).unwrap();
        assert_eq!(pte_pa, software_walk(&m, cr3, va).unwrap().leaf_entry_paddr);
    }

    #[test]
    fn llc_and_dram_oracles_are_consistent_with_components() {
        let (m, _) = machine();
        let pa = PhysAddr::new(0x12_3440);
        assert_eq!(llc_location(&m, pa), m.caches().llc_slice_and_set(pa));
        assert_eq!(dram_location(&m, pa), m.dram().locate(pa));
        assert!(same_bank(&m, pa, pa));
    }
}
