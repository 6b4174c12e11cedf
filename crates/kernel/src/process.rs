//! Simulated processes.

use serde::Serialize;

use pthammer_types::{PhysAddr, VirtAddr};

use crate::vma::Vma;

/// Process identifier.
pub type Pid = u32;

/// A simulated process: an address space root, credentials and mappings.
#[derive(Debug, Clone, Serialize)]
pub struct Process {
    /// Process id.
    pub pid: Pid,
    /// User id the process was created with.
    pub uid: u32,
    /// Physical address of the PML4 (the CR3 value while this process runs).
    pub cr3: PhysAddr,
    /// Physical address of the process's serialized `struct cred`.
    pub cred_paddr: PhysAddr,
    /// Virtual memory areas, ordered by start address.
    pub vmas: Vec<Vma>,
    /// Next mmap base address.
    pub next_mmap: u64,
    /// Level-1 page-table frames allocated for this process (bookkeeping for
    /// experiment reports; the attacker has no access to this).
    pub l1pt_frames: Vec<u64>,
}

impl Process {
    /// Finds the VMA containing `vaddr`.
    pub fn find_vma(&self, vaddr: VirtAddr) -> Option<&Vma> {
        self.vmas.iter().find(|vma| vma.contains(vaddr))
    }

    /// Total bytes of Level-1 page tables allocated for this process.
    pub fn l1pt_bytes(&self) -> u64 {
        self.l1pt_frames.len() as u64 * 4096
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vma::VmaBacking;
    use pthammer_types::PageSize;

    #[test]
    fn find_vma_locates_containing_area() {
        let proc = Process {
            pid: 1,
            uid: 1000,
            cr3: PhysAddr::new(0x1000),
            cred_paddr: PhysAddr::new(0x2000),
            vmas: vec![
                Vma {
                    start: VirtAddr::new(0x10_0000),
                    length: 0x1000,
                    page_size: PageSize::Base4K,
                    backing: VmaBacking::Anonymous { fill_pattern: 1 },
                },
                Vma {
                    start: VirtAddr::new(0x20_0000),
                    length: 0x2000,
                    page_size: PageSize::Base4K,
                    backing: VmaBacking::Anonymous { fill_pattern: 2 },
                },
            ],
            next_mmap: 0x30_0000,
            l1pt_frames: vec![5, 6],
        };
        assert!(proc.find_vma(VirtAddr::new(0x10_0800)).is_some());
        assert!(proc.find_vma(VirtAddr::new(0x20_1fff)).is_some());
        assert!(proc.find_vma(VirtAddr::new(0x15_0000)).is_none());
        assert_eq!(proc.l1pt_bytes(), 8192);
    }
}
