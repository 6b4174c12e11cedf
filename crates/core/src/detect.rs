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
///
/// The range is read as page runs ([`System::read_run`]): each run stops at
/// the next page that reads something other than the pattern, which is
/// classified, and the next run starts after it. The state it leaves is
/// that of one [`System::read_u64`] per page.
pub fn scan_for_corrupted_mappings(
    sys: &mut System,
    pid: Pid,
    spray: &SprayRegion,
    pair: &HammerPair,
    row_span_bytes: u64,
) -> Result<(Vec<FlipFinding>, u64), AttackError> {
    let start_cycles = sys.rdtsc();
    let (start, end) = scan_range(spray, pair, row_span_bytes);
    let findings = scan_pages(sys, pid, start, end, spray.pattern)?;
    Ok((findings, sys.rdtsc() - start_cycles))
}

/// Reads one qword of every page from `start` up to `end` and reports each
/// page that faults or reads something other than `pattern`.
fn scan_pages(
    sys: &mut System,
    pid: Pid,
    start: VirtAddr,
    end: VirtAddr,
    pattern: u64,
) -> Result<Vec<FlipFinding>, AttackError> {
    let mut findings = Vec::new();
    let mut va = start;
    while va < end {
        let finding = match sys.read_run(pid, va, end, pattern) {
            Ok(None) => break,
            Ok(Some(acc)) => FlipFinding {
                vaddr: acc.vaddr,
                observed: acc.value,
                kind: classify_captured_page(sys, pid, acc.vaddr)?,
            },
            Err(KernelError::BadAddress(vaddr)) => FlipFinding {
                vaddr,
                observed: 0,
                kind: CapturedPageKind::Unmapped,
            },
            Err(e) => return Err(e.into()),
        };
        findings.push(finding);
        va = finding.vaddr + PAGE_SIZE;
    }
    Ok(findings)
}

/// The part of the pair's victim range inside the spray, `[start, end)`.
fn scan_range(spray: &SprayRegion, pair: &HammerPair, row_span_bytes: u64) -> (VirtAddr, VirtAddr) {
    let (scan_start, scan_end) = pair.victim_va_range(row_span_bytes);
    (
        VirtAddr::new(scan_start.as_u64().max(spray.base.as_u64())),
        VirtAddr::new(scan_end.as_u64().min(spray.end().as_u64())),
    )
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

/// The page-run scan against the per-page scan it replaced, on twin
/// systems.
#[cfg(test)]
mod page_run_tests {
    use super::*;
    use crate::config::AttackConfig;
    use crate::spray::spray_page_tables;
    use proptest::prelude::*;
    use pthammer_dram::FlipModelProfile;
    use pthammer_kernel::{DefaultPolicy, KernelConfig, MmapOptions, VmaBacking};
    use pthammer_machine::MachineConfig;
    use pthammer_mmu::{Pte, PteFlags};
    use pthammer_types::{PageSize, PhysAddr, HUGE_PAGE_SIZE};

    /// The per-page scan [`scan_pages`] replaced: one [`System::read_u64`]
    /// per page, the oracle of the twin tests.
    fn reference_scan_pages(
        sys: &mut System,
        pid: Pid,
        start: VirtAddr,
        end: VirtAddr,
        pattern: u64,
    ) -> Result<Vec<FlipFinding>, AttackError> {
        let mut findings = Vec::new();
        let mut va = start.as_u64();
        while va < end.as_u64() {
            let addr = VirtAddr::new(va);
            match sys.read_u64(pid, addr) {
                Ok(acc) if acc.value == pattern => {}
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
        Ok(findings)
    }

    /// The machines the twins run on: both CI machines and a Table I one
    /// (NRU TLBs, SRRIP LLC).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Board {
        CiSmall,
        CiSmallTrr,
        LenovoT420,
    }

    impl Board {
        fn config(self, seed: u64) -> MachineConfig {
            let profile = FlipModelProfile::invulnerable();
            match self {
                Board::CiSmall => MachineConfig::ci_small(profile, seed),
                Board::CiSmallTrr => MachineConfig::ci_small_trr(profile, seed),
                Board::LenovoT420 => MachineConfig::lenovo_t420(profile, seed),
            }
        }
    }

    /// One way to corrupt a sprayed page's L1PTE (or, for `HugeLeaf`, its
    /// region's PDE), as a rowhammer flip or a defense might.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Corruption {
        /// Clears the present bit.
        NotPresent,
        /// Points the PTE at another sprayed Level-1 page table.
        OtherL1pt,
        /// Points the PTE at the attacker's cred page.
        CredPage,
        /// Points the PTE past installed DRAM.
        PastDram,
        /// Flips a flag bit: the PTE still maps the same frame, but its
        /// page table is no longer uniform.
        FlagBit,
        /// Makes the region's PDE a 2 MiB leaf over a frame range that
        /// reads the pattern, and drops the region's cached translations.
        HugeLeaf,
    }

    const CORRUPTIONS: [Corruption; 6] = [
        Corruption::NotPresent,
        Corruption::OtherL1pt,
        Corruption::CredPage,
        Corruption::PastDram,
        Corruption::FlagBit,
        Corruption::HugeLeaf,
    ];

    /// One of two identically booted, sprayed and corrupted systems.
    struct Twin {
        sys: System,
        pid: Pid,
        spray: SprayRegion,
        /// A 2 MiB frame range of the attacker's that reads the pattern.
        huge_frame: PhysAddr,
    }

    impl Twin {
        fn new(board: Board, seed: u64) -> Self {
            let mut sys = System::new(
                board.config(seed),
                KernelConfig::with_superpages(),
                Box::new(DefaultPolicy::new()),
            );
            let pid = sys.spawn_process(1000).expect("spawn");
            let config = AttackConfig {
                spray_bytes: 64 << 20,
                ..AttackConfig::quick_test(seed, false)
            };
            let spray = spray_page_tables(&mut sys, pid, &config).expect("spray");
            let huge_page = sys
                .mmap(
                    pid,
                    HUGE_PAGE_SIZE,
                    MmapOptions {
                        page_size: PageSize::Huge2M,
                        populate: true,
                        backing: VmaBacking::Anonymous {
                            fill_pattern: spray.pattern,
                        },
                    },
                )
                .expect("huge page");
            let huge_frame = sys.oracle_translate(pid, huge_page).expect("populated");
            Self {
                sys,
                pid,
                spray,
                huge_frame,
            }
        }

        fn page(&self, index: u64) -> VirtAddr {
            self.spray.base + index % (self.spray.len / PAGE_SIZE) * PAGE_SIZE
        }

        /// Reads `pages` so that they (or the last of them) sit in the
        /// L1 dTLB or only the sTLB when the scan starts.
        fn warm(&mut self, pages: &[u64]) {
            for &page in pages {
                let _ = self.sys.read_u64(self.pid, self.page(page));
            }
        }

        fn corrupt(&mut self, corruption: Corruption, page: u64) {
            let va = self.page(page);
            let capacity = self.sys.machine().config().dram.geometry.capacity_bytes();
            let pte_paddr = self.sys.oracle_l1pte_paddr(self.pid, va).expect("sprayed");
            let original = Pte::from_raw(self.sys.machine().phys_read_u64(pte_paddr));
            let redirect = |frame: PhysAddr| Pte::page(frame, original.flags()).raw();
            let (paddr, raw) = match corruption {
                Corruption::NotPresent => (pte_paddr, original.raw() & !1),
                Corruption::OtherL1pt => {
                    let other = va + 5 * HUGE_PAGE_SIZE;
                    let other = self.spray.base + (other - self.spray.base) % self.spray.len;
                    let table = self
                        .sys
                        .oracle_l1pte_paddr(self.pid, other)
                        .expect("sprayed");
                    (
                        pte_paddr,
                        redirect(PhysAddr::new(table.as_u64() & !(PAGE_SIZE - 1))),
                    )
                }
                Corruption::CredPage => {
                    let cred = self.sys.process(self.pid).expect("attacker").cred_paddr;
                    (
                        pte_paddr,
                        redirect(PhysAddr::new(cred.as_u64() & !(PAGE_SIZE - 1))),
                    )
                }
                Corruption::PastDram => (pte_paddr, redirect(PhysAddr::new(capacity + 0x5000))),
                Corruption::FlagBit => (pte_paddr, original.raw() ^ (1 << 9)),
                Corruption::HugeLeaf => {
                    self.sys.machine_mut().invalidate_page(va);
                    let leaf = Pte::page(self.huge_frame, PteFlags::user_rw_huge());
                    (self.pde_paddr(va), leaf.raw())
                }
            };
            self.sys.machine_mut().phys_write_u64(paddr, raw);
        }

        /// Applies `corruptions`, then reads the `warm` pages.
        fn prepare(&mut self, corruptions: &[(Corruption, u64)], warm: &[u64]) {
            for &(corruption, page) in corruptions {
                self.corrupt(corruption, page);
            }
            self.warm(warm);
        }

        /// The physical address of the PDE mapping `va`'s region.
        fn pde_paddr(&self, va: VirtAddr) -> PhysAddr {
            let mut table = self.sys.process(self.pid).expect("attacker").cr3;
            for level in [4u8, 3] {
                let entry = table + va.pt_index(level) * 8;
                table = Pte::from_raw(self.sys.machine().phys_read_u64(entry)).frame();
            }
            table + va.pt_index(2) * 8
        }
    }

    /// Asserts that the twins hold the same clock, counters, flips, banks,
    /// cache sets and MMU.
    fn assert_same_state(a: &System, b: &System) {
        assert_eq!(a.stats().faults_handled, b.stats().faults_handled);
        let (a, b) = (a.machine(), b.machine());
        assert_eq!(a.rdtsc(), b.rdtsc());
        assert_eq!(a.tlb_pmc(), b.tlb_pmc());
        assert_eq!(a.cache_pmc(), b.cache_pmc());
        assert_eq!(a.dram_stats(), b.dram_stats());
        assert_eq!(a.applied_flips(), b.applied_flips());
        for (x, y) in a.dram().banks().iter().zip(b.dram().banks()) {
            assert!(
                x.checkpoint() == y.checkpoint(),
                "bank {} differs",
                x.unit_id()
            );
        }
        assert!(a.caches() == b.caches(), "cache sets differ");
        assert!(
            a.mmu() == b.mmu(),
            "TLB or paging-structure cache sets differ"
        );
    }

    /// Prepares identical twins the same way, scans `pages` pages from
    /// `first` on both (page runs on one, per-page reads on the other),
    /// checks that they agree on the findings and the whole state, and
    /// returns the findings and the pages served without a walker call.
    fn scan_twins(
        board: Board,
        seed: u64,
        prepare: impl Fn(&mut Twin),
        first: u64,
        pages: u64,
    ) -> (Vec<FlipFinding>, u64) {
        let mut runs = Twin::new(board, seed);
        let mut oracle = Twin::new(board, seed);
        prepare(&mut runs);
        prepare(&mut oracle);
        assert_same_state(&runs.sys, &oracle.sys);
        let start = runs.page(first);
        let end = VirtAddr::new(
            (start + pages * PAGE_SIZE)
                .as_u64()
                .min(runs.spray.end().as_u64()),
        );
        let pattern = runs.spray.pattern;
        let batched = runs.sys.machine().batched_run_pages();
        let got = scan_pages(&mut runs.sys, runs.pid, start, end, pattern);
        let want = reference_scan_pages(&mut oracle.sys, oracle.pid, start, end, pattern);
        assert_eq!(got, want);
        assert_same_state(&runs.sys, &oracle.sys);
        let findings = got.expect("the scan reads only the attacker's pages");
        (findings, runs.sys.machine().batched_run_pages() - batched)
    }

    proptest! {
        // Booting and spraying two systems dominates a case; debug builds
        // (overflow checks on) run fewer cases than release.
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 4 } else { 16 }
        ))]

        // The page-run scan is invisible: over a range that may start
        // mid-line and cross 2 MiB regions, with pages held by the TLBs at
        // the start and corrupted PTEs and PDEs of every kind, it finds
        // what the per-page scan finds and leaves the same clock, counters,
        // banks and cache, TLB and paging-structure-cache sets.
        #[test]
        fn page_runs_match_per_page_reads(
            board in prop::sample::select(vec![Board::CiSmall, Board::CiSmallTrr, Board::LenovoT420]),
            seed in 0u64..8,
            kinds in prop::collection::vec(prop::sample::select(CORRUPTIONS.to_vec()), 0..4),
            at in prop::collection::vec(0u64..3000, 4..5),
            warm in prop::collection::vec(0u64..3000, 0..100),
            first in 0u64..600,
            pages in 0u64..2600,
        ) {
            let corruptions: Vec<(Corruption, u64)> = kinds.into_iter().zip(at).collect();
            scan_twins(board, seed, |twin| twin.prepare(&corruptions, &warm), first, pages);
        }
    }

    /// Every corruption kind on each machine, at pages inside one scanned
    /// range that starts mid-line, with the first pages of the range held
    /// by the L1 dTLB and sTLB: the findings are the ones each corruption
    /// makes, and most pages are batched.
    #[test]
    fn every_corruption_matches_on_every_machine() {
        for board in [Board::CiSmall, Board::CiSmallTrr, Board::LenovoT420] {
            let corruptions: Vec<(Corruption, u64)> = CORRUPTIONS
                .iter()
                .enumerate()
                .map(|(i, &c)| (c, 3 + 700 * i as u64))
                .collect();
            let warm: Vec<u64> = (0..700).step_by(3).collect();
            let prepare = |twin: &mut Twin| twin.prepare(&corruptions, &warm);
            let (findings, batched) = scan_twins(board, 1, prepare, 3, 4500);
            let kinds: Vec<CapturedPageKind> = findings.iter().map(|f| f.kind).collect();
            assert!(
                kinds.contains(&CapturedPageKind::Unmapped),
                "{board:?}: {kinds:?}"
            );
            assert!(
                kinds.contains(&CapturedPageKind::CredPage),
                "{board:?}: {kinds:?}"
            );
            assert!(
                kinds
                    .iter()
                    .any(|k| matches!(k, CapturedPageKind::L1PageTable { .. })),
                "{board:?}: {kinds:?}"
            );
            assert!(batched > 3000, "{board:?}: only {batched} pages batched");
        }
    }

    /// A page some TLB held at the run's start, evicted by the run's
    /// refills before the run reaches it, walks to a 2 MiB leaf (its 4 KiB
    /// entry went stale when the PDE changed): the new entry holds the rest
    /// of the region, so the run restarts there, as page-by-page reads
    /// hit it.
    #[test]
    fn a_held_page_walking_to_a_huge_leaf_restarts_the_run() {
        let region = 1536;
        let prepare = |twin: &mut Twin| {
            twin.warm(&[region]);
            twin.corrupt(Corruption::HugeLeaf, region + 5);
        };
        let (findings, _) = scan_twins(Board::CiSmall, 4, prepare, region - 1200, 1800);
        assert!(findings.is_empty(), "{findings:?}");
    }

    /// A whole pair's scan through [`scan_for_corrupted_mappings`] agrees
    /// with the per-page scan, cycles included.
    #[test]
    fn a_pair_scan_matches_the_per_page_scan() {
        let mut runs = Twin::new(Board::CiSmall, 2);
        let mut oracle = Twin::new(Board::CiSmall, 2);
        for twin in [&mut runs, &mut oracle] {
            twin.corrupt(Corruption::OtherL1pt, 40);
            twin.corrupt(Corruption::NotPresent, 41);
        }
        let row_span = runs.sys.machine().config().dram.geometry.row_span_bytes();
        let low = runs.spray.base + 3 * PAGE_SIZE;
        let pair = HammerPair {
            low,
            high: low + crate::pairs::pair_stride(row_span),
        };
        let got =
            scan_for_corrupted_mappings(&mut runs.sys, runs.pid, &runs.spray, &pair, row_span)
                .unwrap();
        let start_cycles = oracle.sys.rdtsc();
        let (start, end) = scan_range(&oracle.spray, &pair, row_span);
        let pattern = oracle.spray.pattern;
        let want = reference_scan_pages(&mut oracle.sys, oracle.pid, start, end, pattern).unwrap();
        assert_eq!(got, (want, oracle.sys.rdtsc() - start_cycles));
        assert_eq!(got.0.len(), 2);
        assert_same_state(&runs.sys, &oracle.sys);
    }
}
