//! Virtual memory areas (simplified `vm_area_struct`).

use serde::Serialize;

use pthammer_types::{PageSize, VirtAddr};

/// What backs a virtual memory area.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum VmaBacking {
    /// Anonymous memory; freshly populated pages are filled with the given
    /// repeated 64-bit pattern (so the attacker can later recognise them).
    Anonymous {
        /// Fill pattern written to each populated frame.
        fill_pattern: u64,
    },
    /// Every page of the area maps the same set of shared physical frames,
    /// cycling through them — the `mmap` aliasing trick the paper uses to
    /// turn a handful of user frames into gigabytes of Level-1 page tables.
    SharedFrames {
        /// The shared frames, reused round-robin across the area's pages.
        frames: Vec<u64>,
    },
}

/// A contiguous virtual mapping of one process.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Vma {
    /// First virtual address of the area (page aligned).
    pub start: VirtAddr,
    /// Length in bytes (multiple of the page size).
    pub length: u64,
    /// Page size used for mappings in this area.
    pub page_size: PageSize,
    /// Backing of the area.
    pub backing: VmaBacking,
}

impl Vma {
    /// One-past-the-end virtual address.
    pub fn end(&self) -> VirtAddr {
        self.start + self.length
    }

    /// True when `vaddr` falls inside the area.
    pub fn contains(&self, vaddr: VirtAddr) -> bool {
        vaddr >= self.start && vaddr < self.end()
    }

    /// Number of pages in the area.
    pub fn page_count(&self) -> u64 {
        self.length / self.page_size.bytes()
    }

    /// Index of the page containing `vaddr` within the area.
    ///
    /// # Panics
    ///
    /// Panics if `vaddr` is outside the area.
    pub fn page_index(&self, vaddr: VirtAddr) -> u64 {
        assert!(self.contains(vaddr), "{vaddr} outside VMA");
        (vaddr - self.start) / self.page_size.bytes()
    }

    /// The shared frame backing the page at `page_index`, if this is a
    /// shared-frames area.
    pub fn shared_frame_for(&self, page_index: u64) -> Option<u64> {
        match &self.backing {
            VmaBacking::SharedFrames { frames } if !frames.is_empty() => {
                Some(frames[(page_index % frames.len() as u64) as usize])
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vma() -> Vma {
        Vma {
            start: VirtAddr::new(0x10_0000),
            length: 0x8000,
            page_size: PageSize::Base4K,
            backing: VmaBacking::Anonymous { fill_pattern: 0xAA },
        }
    }

    #[test]
    fn bounds_and_containment() {
        let v = vma();
        assert_eq!(v.end(), VirtAddr::new(0x10_8000));
        assert!(v.contains(VirtAddr::new(0x10_0000)));
        assert!(v.contains(VirtAddr::new(0x10_7fff)));
        assert!(!v.contains(VirtAddr::new(0x10_8000)));
        assert!(!v.contains(VirtAddr::new(0xf_ffff)));
        assert_eq!(v.page_count(), 8);
    }

    #[test]
    fn page_index_computation() {
        let v = vma();
        assert_eq!(v.page_index(VirtAddr::new(0x10_0000)), 0);
        assert_eq!(v.page_index(VirtAddr::new(0x10_1fff)), 1);
        assert_eq!(v.page_index(VirtAddr::new(0x10_7000)), 7);
    }

    #[test]
    #[should_panic(expected = "outside VMA")]
    fn page_index_out_of_range_panics() {
        let v = vma();
        v.page_index(VirtAddr::new(0x20_0000));
    }

    #[test]
    fn shared_frames_cycle() {
        let v = Vma {
            start: VirtAddr::new(0),
            length: 0x10_0000,
            page_size: PageSize::Base4K,
            backing: VmaBacking::SharedFrames {
                frames: vec![10, 20, 30],
            },
        };
        assert_eq!(v.shared_frame_for(0), Some(10));
        assert_eq!(v.shared_frame_for(1), Some(20));
        assert_eq!(v.shared_frame_for(2), Some(30));
        assert_eq!(v.shared_frame_for(3), Some(10));
        assert_eq!(vma().shared_frame_for(0), None);
    }

    #[test]
    fn huge_page_vma_page_count() {
        let v = Vma {
            start: VirtAddr::new(0x4000_0000),
            length: 8 * 2 * 1024 * 1024,
            page_size: PageSize::Huge2M,
            backing: VmaBacking::Anonymous { fill_pattern: 0 },
        };
        assert_eq!(v.page_count(), 8);
    }
}
