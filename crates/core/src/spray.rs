//! Page-table spraying (Section III-B, "Finding Exploitable Target Addresses").
//!
//! The attacker cannot choose where the kernel puts Level-1 page tables, so it
//! makes many of them instead: it maps a single user page at a huge number
//! of virtual addresses. The user data costs one frame; the page tables
//! needed to describe all those mappings cost one frame per 2 MiB of virtual
//! address space ([`SprayRegion::l1pt_count`]). That is a small share of
//! DRAM: the paper's 4 GiB spray ([`AttackConfig::paper`]) makes 2048
//! Level-1 page tables (8 MiB, 0.1% of an 8 GiB machine), and
//! [`AttackConfig::quick_test`]'s 768 MiB makes 384 (1.5 MiB). Every entry
//! of those tables maps the one user page, so a flip that redirects any of
//! them shows up as a sprayed address that stops reading [`SPRAY_PATTERN`].

use serde::Serialize;

use pthammer_kernel::{MmapOptions, Pid, System, VmaBacking};
use pthammer_types::{VirtAddr, HUGE_PAGE_SIZE, PAGE_SIZE};

use crate::config::AttackConfig;
use crate::error::AttackError;

/// The recognisable pattern written to the sprayed user page. Every sprayed
/// virtual address reads this value back, so any address that stops doing so
/// after hammering sits behind a corrupted Level-1 PTE.
pub const SPRAY_PATTERN: u64 = 0x5054_4841_4d5f_5350; // "PTHAM_SP"

/// A populated page-table spray region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SprayRegion {
    /// First sprayed virtual address (2 MiB aligned).
    pub base: VirtAddr,
    /// Length of the sprayed virtual range in bytes.
    pub len: u64,
    /// The pattern every sprayed page reads back.
    pub pattern: u64,
    /// Virtual address of the single real user page all mappings alias.
    pub user_page: VirtAddr,
}

impl SprayRegion {
    /// Number of Level-1 page tables the spray forced the kernel to create.
    pub fn l1pt_count(&self) -> u64 {
        self.len / HUGE_PAGE_SIZE
    }

    /// One-past-the-end virtual address.
    pub fn end(&self) -> VirtAddr {
        self.base + self.len
    }

    /// True when `vaddr` lies inside the sprayed range.
    pub fn contains(&self, vaddr: VirtAddr) -> bool {
        vaddr >= self.base && vaddr < self.end()
    }

    /// Iterator over the base addresses of the sprayed 2 MiB chunks (each
    /// chunk is described by exactly one Level-1 page table).
    pub fn chunk_bases(&self) -> impl Iterator<Item = VirtAddr> + '_ {
        let base = self.base;
        (0..self.l1pt_count()).map(move |i| base + i * HUGE_PAGE_SIZE)
    }
}

/// Performs the spray: allocates one user page filled with
/// [`SPRAY_PATTERN`] and aliases it across `config.spray_bytes` of virtual
/// address space, eagerly populating the page tables.
pub fn spray_page_tables(
    sys: &mut System,
    pid: Pid,
    config: &AttackConfig,
) -> Result<SprayRegion, AttackError> {
    let user_page = sys.mmap(
        pid,
        PAGE_SIZE,
        MmapOptions {
            populate: true,
            backing: VmaBacking::Anonymous {
                fill_pattern: SPRAY_PATTERN,
            },
            ..MmapOptions::default()
        },
    )?;
    // Touch it so its contents and mapping exist before aliasing.
    sys.access(pid, user_page)?;
    let frames = sys.frames_of_mapping(pid, user_page)?;
    if frames.len() != 1 {
        return Err(AttackError::SprayExhausted {
            expected_frames: 1,
            found_frames: frames.len(),
        });
    }

    let len = config.spray_bytes.next_multiple_of(HUGE_PAGE_SIZE);
    let base = sys.mmap(
        pid,
        len,
        MmapOptions {
            populate: true,
            backing: VmaBacking::SharedFrames { frames },
            ..MmapOptions::default()
        },
    )?;
    Ok(SprayRegion {
        base,
        len,
        pattern: SPRAY_PATTERN,
        user_page,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pthammer_dram::FlipModelProfile;
    use pthammer_machine::MachineConfig;

    fn quick_system() -> (System, Pid) {
        let mut sys = System::undefended(MachineConfig::test_small(
            FlipModelProfile::invulnerable(),
            5,
        ));
        let pid = sys.spawn_process(1000).unwrap();
        (sys, pid)
    }

    #[test]
    fn spray_creates_l1pts_and_reads_pattern_everywhere() {
        let (mut sys, pid) = quick_system();
        let config = AttackConfig {
            spray_bytes: 512 << 20,
            ..AttackConfig::quick_test(1, false)
        };
        let spray = spray_page_tables(&mut sys, pid, &config).unwrap();
        assert_eq!(spray.l1pt_count(), 256);
        assert!(sys.stats().l1pt_frames >= 256);
        // Sampled sprayed addresses all read the pattern and alias one frame.
        let user_frame = sys
            .oracle_translate(pid, spray.user_page)
            .unwrap()
            .frame_number();
        for chunk in spray.chunk_bases().step_by(37) {
            let acc = sys.read_u64(pid, chunk + 5 * PAGE_SIZE).unwrap();
            assert_eq!(acc.value, SPRAY_PATTERN);
            assert_eq!(
                sys.oracle_translate(pid, chunk).unwrap().frame_number(),
                user_frame
            );
        }
        assert!(spray.contains(spray.base));
        assert!(spray.contains(VirtAddr::new(spray.end().as_u64() - 1)));
        assert!(!spray.contains(spray.end()));
    }

    #[test]
    fn sprayed_l1pt_frames_are_mostly_consecutive() {
        let (mut sys, pid) = quick_system();
        let config = AttackConfig {
            spray_bytes: 512 << 20,
            ..AttackConfig::quick_test(1, false)
        };
        let spray = spray_page_tables(&mut sys, pid, &config).unwrap();
        // Consecutive sprayed chunks should have consecutive L1PT frames —
        // the property the 256 MiB pair stride depends on.
        let mut consecutive = 0;
        let mut total = 0;
        let mut prev: Option<u64> = None;
        for chunk in spray.chunk_bases() {
            let l1pt = sys
                .oracle_l1pte_paddr(pid, chunk)
                .expect("sprayed chunk must have an L1PTE")
                .frame_number();
            if let Some(p) = prev {
                total += 1;
                if l1pt == p + 1 {
                    consecutive += 1;
                }
            }
            prev = Some(l1pt);
        }
        assert!(
            consecutive * 10 >= total * 8,
            "only {consecutive}/{total} consecutive L1PT frames"
        );
    }

    #[test]
    fn the_documented_spray_sizes_hold() {
        let tables = |config: AttackConfig| {
            SprayRegion {
                base: VirtAddr::new(0x4000_0000),
                len: config.spray_bytes,
                pattern: SPRAY_PATTERN,
                user_page: VirtAddr::new(0x1000),
            }
            .l1pt_count()
        };
        let paper = tables(AttackConfig::paper(1, false));
        assert_eq!(paper, 2048);
        assert_eq!(paper * PAGE_SIZE, 8 << 20);
        // 8 MiB of an 8 GiB machine: 0.1%.
        assert_eq!((8u64 << 30) / (paper * PAGE_SIZE), 1024);
        let quick = tables(AttackConfig::quick_test(1, false));
        assert_eq!(quick, 384);
        assert_eq!(quick * PAGE_SIZE, 3 << 19);
    }

    #[test]
    fn chunk_bases_cover_the_region() {
        let spray = SprayRegion {
            base: VirtAddr::new(0x4000_0000),
            len: 8 * HUGE_PAGE_SIZE,
            pattern: SPRAY_PATTERN,
            user_page: VirtAddr::new(0x1000),
        };
        let chunks: Vec<VirtAddr> = spray.chunk_bases().collect();
        assert_eq!(chunks.len(), 8);
        assert_eq!(chunks[0], spray.base);
        assert_eq!(chunks[7], spray.base + 7 * HUGE_PAGE_SIZE);
    }
}
