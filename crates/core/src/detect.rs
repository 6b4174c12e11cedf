//! Detecting exploitable bit flips (Section IV-F of the paper).
//!
//! After hammering a pair, the attacker re-reads the sprayed virtual
//! addresses whose Level-1 PTEs lie in the victim row. Every sprayed address
//! normally reads the spray pattern back; an address that suddenly reads
//! something else (or faults) sits behind a corrupted L1PTE that now points
//! at a different physical frame. The captured frame is then classified: a
//! page full of identical PTE-looking words is another Level-1 page table
//! (the Figure 7 jackpot); a page containing `struct cred` magic values is a
//! credential slab (the CTA bypass route); anything else is unexploitable.

use serde::Serialize;

use pthammer_kernel::{KernelError, Pid, System, CRED_MAGIC, CRED_SIZE};
use pthammer_types::{VirtAddr, PAGE_SIZE};

use crate::error::AttackError;
use crate::pairs::HammerPair;
use crate::spray::SprayRegion;

/// What kind of physical frame a corrupted mapping now points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CapturedPageKind {
    /// The frame looks like a sprayed Level-1 page table: repeated identical
    /// present PTEs. Write access to it yields arbitrary physical memory
    /// access (Figure 7).
    L1PageTable {
        /// The repeated PTE value observed in the captured page.
        pte_value: u64,
    },
    /// The frame contains `struct cred` objects (the CTA bypass target).
    CredPage,
    /// The mapping now faults (the flip cleared the present bit or pointed
    /// outside installed DRAM).
    Unmapped,
    /// The frame contents are not recognisably exploitable.
    Unknown,
}

/// One corrupted sprayed mapping discovered by the post-hammer scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct FlipFinding {
    /// Sprayed virtual address whose mapping changed.
    pub vaddr: VirtAddr,
    /// First word read through the corrupted mapping (0 when unmapped).
    pub observed: u64,
    /// Classification of the captured frame.
    pub kind: CapturedPageKind,
}

impl FlipFinding {
    /// True when the finding can be turned into privilege escalation.
    pub fn is_exploitable(&self) -> bool {
        matches!(
            self.kind,
            CapturedPageKind::L1PageTable { .. } | CapturedPageKind::CredPage
        )
    }
}

/// Flag bits (low 12 bits) of the leaf PTEs the spray creates; used to
/// recognise captured Level-1 page tables.
const SPRAY_PTE_FLAG_MASK: u64 = 0xFFF;
const SPRAY_PTE_FLAGS: u64 = 0x27; // present | writable | user | (accessed-style bits unused)

/// Classifies the frame behind a (corrupted) sprayed mapping by reading a few
/// words through it — exactly what an unprivileged attacker can do.
pub fn classify_captured_page(
    sys: &mut System,
    pid: Pid,
    vaddr: VirtAddr,
) -> Result<CapturedPageKind, AttackError> {
    let base = vaddr.page_base();
    // Credential pages are checked first: their magic markers are
    // unambiguous, whereas the PTE-pattern heuristic below could be fooled by
    // any page full of identical flag-like words.
    let mut slot = 0;
    while slot < PAGE_SIZE / CRED_SIZE {
        match sys.read_u64(pid, base + slot * CRED_SIZE) {
            Ok(acc) if acc.value == CRED_MAGIC => return Ok(CapturedPageKind::CredPage),
            Ok(_) => {}
            Err(KernelError::BadAddress(_)) => return Ok(CapturedPageKind::Unmapped),
            Err(e) => return Err(e.into()),
        }
        slot += 1;
    }

    // Sample a handful of qwords spread over the page: a captured Level-1
    // page table reads as repeated identical present PTEs.
    let mut samples = Vec::with_capacity(8);
    for i in 0..8u64 {
        match sys.read_u64(pid, base + i * 8 * 64 + 8) {
            Ok(acc) => samples.push(acc.value),
            Err(KernelError::BadAddress(_)) => return Ok(CapturedPageKind::Unmapped),
            Err(e) => return Err(e.into()),
        }
    }
    let first = samples[0];
    let all_equal = samples.iter().all(|&v| v == first);
    let looks_like_pte =
        first & 1 == 1 && (first & SPRAY_PTE_FLAG_MASK) & 0x7 == SPRAY_PTE_FLAGS & 0x7;
    if all_equal && looks_like_pte {
        return Ok(CapturedPageKind::L1PageTable { pte_value: first });
    }
    Ok(CapturedPageKind::Unknown)
}

/// Scans the victim virtual-address range of a hammered pair for mappings
/// that no longer read the spray pattern. Returns the simulated cycles spent
/// scanning together with the findings (the Table II "Check Time").
pub fn scan_for_corrupted_mappings(
    sys: &mut System,
    pid: Pid,
    spray: &SprayRegion,
    pair: &HammerPair,
    row_span_bytes: u64,
) -> Result<(Vec<FlipFinding>, u64), AttackError> {
    let start_cycles = sys.rdtsc();
    let (scan_start, scan_end) = pair.victim_va_range(row_span_bytes);
    let scan_start = scan_start.as_u64().max(spray.base.as_u64());
    let scan_end = scan_end.as_u64().min(spray.end().as_u64());

    let mut findings = Vec::new();
    let mut va = scan_start;
    while va < scan_end {
        let addr = VirtAddr::new(va);
        match sys.read_u64(pid, addr) {
            Ok(acc) if acc.value == spray.pattern => {}
            Ok(acc) => {
                let kind = classify_captured_page(sys, pid, addr)?;
                findings.push(FlipFinding {
                    vaddr: addr,
                    observed: acc.value,
                    kind,
                });
            }
            Err(KernelError::BadAddress(_)) => {
                findings.push(FlipFinding {
                    vaddr: addr,
                    observed: 0,
                    kind: CapturedPageKind::Unmapped,
                });
            }
            Err(e) => return Err(e.into()),
        }
        va += PAGE_SIZE;
    }
    Ok((findings, sys.rdtsc() - start_cycles))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AttackConfig;
    use crate::spray::{spray_page_tables, SPRAY_PATTERN};
    use pthammer_dram::FlipModelProfile;
    use pthammer_machine::MachineConfig;
    use pthammer_mmu::Pte;

    fn sprayed_system() -> (System, Pid, SprayRegion) {
        let mut sys = System::undefended(MachineConfig::test_small(
            FlipModelProfile::invulnerable(),
            17,
        ));
        let pid = sys.spawn_process(1000).unwrap();
        let config = AttackConfig {
            spray_bytes: 512 << 20,
            ..AttackConfig::quick_test(1, false)
        };
        let spray = spray_page_tables(&mut sys, pid, &config).unwrap();
        (sys, pid, spray)
    }

    fn pair_in(spray: &SprayRegion, row_span: u64) -> HammerPair {
        let low = spray.base + 3 * PAGE_SIZE;
        HammerPair {
            low,
            high: low + crate::pairs::pair_stride(row_span),
        }
    }

    #[test]
    fn clean_scan_finds_nothing() {
        let (mut sys, pid, spray) = sprayed_system();
        let row_span = sys.machine().config().dram.geometry.row_span_bytes();
        let pair = pair_in(&spray, row_span);
        let (findings, cycles) =
            scan_for_corrupted_mappings(&mut sys, pid, &spray, &pair, row_span).unwrap();
        assert!(findings.is_empty());
        assert!(cycles > 0);
    }

    /// Simulates the effect of a rowhammer flip by directly corrupting one
    /// sprayed L1PTE in physical memory (evaluation-only shortcut), then
    /// checks that the unprivileged scan finds and classifies it.
    #[test]
    fn scan_detects_an_injected_l1pte_corruption() {
        let (mut sys, pid, spray) = sprayed_system();
        let row_span = sys.machine().config().dram.geometry.row_span_bytes();
        let pair = pair_in(&spray, row_span);
        let (scan_start, _) = pair.victim_va_range(row_span);
        // Pick a victim sprayed address inside the scan window and corrupt
        // its L1PTE so it points at another sprayed L1PT frame (the Figure 7
        // situation).
        let victim_va = VirtAddr::new(scan_start.as_u64() + 7 * PAGE_SIZE);
        let victim_l1pte_pa = sys.oracle_l1pte_paddr(pid, victim_va).unwrap();
        let another_chunk = spray.base + 11 * (2 << 20);
        let captured_l1pt_frame = sys
            .oracle_l1pte_paddr(pid, another_chunk)
            .unwrap()
            .frame_number();
        let original = Pte::from_raw(sys.machine().phys_read_u64(victim_l1pte_pa));
        let corrupted = Pte::page(
            pthammer_types::PhysAddr::from_frame(captured_l1pt_frame, 0),
            original.flags(),
        );
        sys.machine_mut()
            .phys_write_u64(victim_l1pte_pa, corrupted.raw());

        let (findings, _) =
            scan_for_corrupted_mappings(&mut sys, pid, &spray, &pair, row_span).unwrap();
        assert_eq!(findings.len(), 1);
        let finding = findings[0];
        assert_eq!(finding.vaddr, victim_va.page_base());
        assert!(finding.is_exploitable());
        match finding.kind {
            CapturedPageKind::L1PageTable { pte_value } => {
                // The captured page is full of PTEs pointing at the shared
                // user frame.
                let user_frame = sys
                    .oracle_translate(pid, spray.user_page)
                    .unwrap()
                    .frame_number();
                assert_eq!(pte_value >> 12 & 0xF_FFFF_FFFF, user_frame);
            }
            other => panic!("expected L1PageTable, got {other:?}"),
        }
    }

    #[test]
    fn scan_reports_unmapped_when_present_bit_cleared() {
        let (mut sys, pid, spray) = sprayed_system();
        let row_span = sys.machine().config().dram.geometry.row_span_bytes();
        let pair = pair_in(&spray, row_span);
        let (scan_start, _) = pair.victim_va_range(row_span);
        let victim_va = VirtAddr::new(scan_start.as_u64() + 3 * PAGE_SIZE);
        let victim_l1pte_pa = sys.oracle_l1pte_paddr(pid, victim_va).unwrap();
        let original = sys.machine().phys_read_u64(victim_l1pte_pa);
        sys.machine_mut()
            .phys_write_u64(victim_l1pte_pa, original & !1);
        let (findings, _) =
            scan_for_corrupted_mappings(&mut sys, pid, &spray, &pair, row_span).unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, CapturedPageKind::Unmapped);
        assert!(!findings[0].is_exploitable());
        assert_eq!(findings[0].vaddr, victim_va.page_base());
    }

    #[test]
    fn classify_recognises_cred_pages() {
        let (mut sys, pid, spray) = sprayed_system();
        // Spawn some extra processes so cred slabs exist, then corrupt a
        // sprayed PTE to point at the cred slab frame.
        sys.spawn_processes(64, 1000).unwrap();
        let victim_va = spray.base + 9 * PAGE_SIZE;
        let cred_paddr = sys.process(pid).unwrap().cred_paddr;
        let victim_l1pte_pa = sys.oracle_l1pte_paddr(pid, victim_va).unwrap();
        let original = Pte::from_raw(sys.machine().phys_read_u64(victim_l1pte_pa));
        let corrupted = Pte::page(
            pthammer_types::PhysAddr::from_frame(cred_paddr.frame_number(), 0),
            original.flags(),
        );
        sys.machine_mut()
            .phys_write_u64(victim_l1pte_pa, corrupted.raw());
        let kind = classify_captured_page(&mut sys, pid, victim_va).unwrap();
        assert_eq!(kind, CapturedPageKind::CredPage);
        // An untouched sprayed page still looks like an L1PT... no: it reads
        // the spray pattern (user data), which is neither a PTE nor a cred.
        let kind = classify_captured_page(&mut sys, pid, spray.base).unwrap();
        assert_eq!(kind, CapturedPageKind::Unknown);
        assert_eq!(
            SPRAY_PATTERN & 1,
            0,
            "spray pattern must not look like a present PTE"
        );
    }
}
