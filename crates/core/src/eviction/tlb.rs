//! TLB eviction sets (Section III-C of the paper, Algorithm 1).
//!
//! The attacker cannot execute `invlpg`, so it evicts the target's TLB entry
//! by accessing pages that are congruent with it in the L1 dTLB and L2 sTLB
//! sets, using the reverse-engineered set mappings of Gras et al. Because the
//! TLB replacement is not true LRU, the minimal reliable eviction set is
//! larger than the combined associativity; Algorithm 1 determines that size
//! empirically with the help of the (offline, privileged) TLB-miss
//! performance counter.

use serde::Serialize;

use pthammer_kernel::{MmapOptions, Pid, System, VmaBacking};
use pthammer_types::{VirtAddr, PAGE_SIZE};

use crate::config::AttackConfig;
use crate::error::AttackError;

/// Attacker-side knowledge of the TLB set mappings (public microarchitectural
/// information reverse engineered by Gras et al.): both levels index sets
/// linearly, `page number mod sets`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TlbMapping {
    /// Number of L1 dTLB sets.
    pub l1_sets: u32,
    /// Number of L2 sTLB sets.
    pub l2_sets: u32,
}

impl TlbMapping {
    /// Reads the mapping for the machine under attack (equivalent to looking
    /// up the published mapping for the CPU model).
    pub fn for_system(sys: &System) -> Self {
        let mmu = &sys.machine().config().mmu;
        Self {
            l1_sets: mmu.l1_dtlb.sets,
            l2_sets: mmu.l2_stlb.sets,
        }
    }

    /// L1 dTLB set of a virtual address.
    pub fn l1_set(&self, vaddr: VirtAddr) -> u32 {
        (vaddr.page_number() % u64::from(self.l1_sets)) as u32
    }

    /// L2 sTLB set of a virtual address.
    pub fn l2_set(&self, vaddr: VirtAddr) -> u32 {
        (vaddr.page_number() % u64::from(self.l2_sets)) as u32
    }
}

/// A concrete TLB eviction set for one target address.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TlbEvictionSet {
    pages: Vec<VirtAddr>,
}

impl TlbEvictionSet {
    /// The eviction pages.
    pub fn addresses(&self) -> &[VirtAddr] {
        &self.pages
    }

    /// Number of pages in the set.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Accesses every page of the set, evicting the target's TLB entries.
    pub fn evict(&self, sys: &mut System, pid: Pid) -> Result<(), AttackError> {
        sys.access_batch(pid, &self.pages)?;
        Ok(())
    }
}

/// A pool of pages bucketed by TLB set, from which eviction sets for any
/// target address can be drawn.
#[derive(Debug, Clone, Serialize)]
pub struct TlbEvictionPool {
    mapping: TlbMapping,
    by_l1_set: Vec<Vec<VirtAddr>>,
    by_l2_set: Vec<Vec<VirtAddr>>,
    minimal_size: usize,
    /// Simulated cycles spent preparing the pool.
    prep_cycles: u64,
}

impl TlbEvictionPool {
    /// Builds the pool: allocates eight times as many pages as TLB entries
    /// (as in the paper), touches each once so it is mapped, and buckets the
    /// pages by their L1 and L2 set indices.
    pub fn build(
        sys: &mut System,
        pid: Pid,
        config: &AttackConfig,
        minimal_size: usize,
    ) -> Result<Self, AttackError> {
        let mapping = TlbMapping::for_system(sys);
        let mmu = &sys.machine().config().mmu;
        let total_entries =
            mmu.l1_dtlb.sets * mmu.l1_dtlb.ways + mmu.l2_stlb.sets * mmu.l2_stlb.ways;
        let page_count = (total_entries as u64) * 8;

        let start = sys.rdtsc();
        let base = sys.mmap(
            pid,
            page_count * PAGE_SIZE,
            MmapOptions {
                populate: true,
                backing: VmaBacking::Anonymous {
                    fill_pattern: 0x7468_616d_6d65_7200,
                },
                ..MmapOptions::default()
            },
        )?;

        let mut by_l1_set = vec![Vec::new(); mapping.l1_sets as usize];
        let mut by_l2_set = vec![Vec::new(); mapping.l2_sets as usize];
        for i in 0..page_count {
            let page = base + i * PAGE_SIZE;
            // Touch the page so the address translation exists (paper: the
            // selected pages must be populated to be useful for eviction).
            sys.access(pid, page)?;
            by_l1_set[mapping.l1_set(page) as usize].push(page);
            by_l2_set[mapping.l2_set(page) as usize].push(page);
        }
        let prep_cycles = sys.rdtsc() - start;
        let _ = config;

        Ok(Self {
            mapping,
            by_l1_set,
            by_l2_set,
            minimal_size,
            prep_cycles,
        })
    }

    /// The reverse-engineered mapping used by the pool.
    pub fn mapping(&self) -> &TlbMapping {
        &self.mapping
    }

    /// The minimal eviction-set size the pool was built for.
    pub fn minimal_size(&self) -> usize {
        self.minimal_size
    }

    /// Simulated cycles spent preparing the pool (Table II, "Preparation TLB").
    pub fn prep_cycles(&self) -> u64 {
        self.prep_cycles
    }

    /// Builds an eviction set of `size` pages for `target`: half of the pages
    /// congruent with the target's L1 dTLB set, half with its L2 sTLB set.
    pub fn eviction_set_for(&self, target: VirtAddr, size: usize) -> TlbEvictionSet {
        let l1_count = size.div_ceil(2);
        let l2_count = size - l1_count;
        let l1_bucket = &self.by_l1_set[self.mapping.l1_set(target) as usize];
        let l2_bucket = &self.by_l2_set[self.mapping.l2_set(target) as usize];
        let mut pages: Vec<VirtAddr> = l1_bucket
            .iter()
            .copied()
            .filter(|p| p.page_number() != target.page_number())
            .take(l1_count)
            .collect();
        let l2_pages: Vec<VirtAddr> = l2_bucket
            .iter()
            .copied()
            .filter(|p| p.page_number() != target.page_number() && !pages.contains(p))
            .take(l2_count)
            .collect();
        pages.extend(l2_pages);
        TlbEvictionSet { pages }
    }

    /// Builds the minimal-size eviction set for `target`.
    pub fn minimal_eviction_set_for(&self, target: VirtAddr) -> TlbEvictionSet {
        self.eviction_set_for(target, self.minimal_size)
    }
}

/// Result of the offline Algorithm 1 calibration.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TlbCalibration {
    /// Minimal eviction-set size that keeps the miss rate at the threshold.
    pub minimal_size: usize,
    /// TLB miss rate for each eviction-set size (the Figure 3 sweep).
    pub miss_rates: Vec<(usize, f64)>,
}

/// Measures the TLB miss probability that accessing `set_pages` induces on a
/// subsequent access to `target` (the `profile_tlb_set` function of
/// Algorithm 1). Uses the privileged walk counter, exactly like the paper's
/// evaluation kernel module.
pub fn profile_tlb_set(
    sys: &mut System,
    pid: Pid,
    target: VirtAddr,
    set_pages: &[VirtAddr],
    trials: usize,
) -> Result<f64, AttackError> {
    let mut misses = 0usize;
    for _ in 0..trials {
        // Make sure the target's translation is cached.
        sys.access(pid, target)?;
        // Access every page of the candidate eviction set.
        sys.access_batch(pid, set_pages)?;
        // Did the next access to the target cause a page-table walk?
        let before = sys.machine().tlb_pmc().walks;
        sys.access(pid, target)?;
        let after = sys.machine().tlb_pmc().walks;
        if after > before {
            misses += 1;
        }
    }
    Ok(misses as f64 / trials as f64)
}

/// Runs Algorithm 1: finds the minimal TLB eviction-set size and records the
/// miss-rate curve reproduced in Figure 3 of the paper.
pub fn calibrate_tlb_eviction(
    sys: &mut System,
    pid: Pid,
    config: &AttackConfig,
) -> Result<TlbCalibration, AttackError> {
    let mapping = TlbMapping::for_system(sys);
    let mmu = sys.machine().config().mmu;
    let assoc_total = (mmu.l1_dtlb.ways + mmu.l2_stlb.ways) as usize;
    let initial_size = assoc_total * 2;

    // A target page plus a buffer large enough to find congruent pages.
    let target = sys.mmap(
        pid,
        PAGE_SIZE,
        MmapOptions {
            populate: true,
            ..MmapOptions::default()
        },
    )?;
    let buf_pages = (mapping.l2_sets as u64) * 32;
    let buf = sys.mmap(
        pid,
        buf_pages * PAGE_SIZE,
        MmapOptions {
            populate: true,
            ..MmapOptions::default()
        },
    )?;

    // Collect pages congruent with the target in L1 and (separately) L2.
    let mut l1_congruent = Vec::new();
    let mut l2_congruent = Vec::new();
    for i in 0..buf_pages {
        let page = buf + i * PAGE_SIZE;
        if mapping.l1_set(page) == mapping.l1_set(target) && l1_congruent.len() < initial_size {
            l1_congruent.push(page);
        } else if mapping.l2_set(page) == mapping.l2_set(target)
            && l2_congruent.len() < initial_size
        {
            l2_congruent.push(page);
        }
        // Touching the pages populates their translations.
        sys.access(pid, page)?;
    }

    let build_set = |size: usize| -> Vec<VirtAddr> {
        let l1_count = size.div_ceil(2).min(l1_congruent.len());
        let l2_count = (size - l1_count).min(l2_congruent.len());
        let mut set: Vec<VirtAddr> = l1_congruent[..l1_count].to_vec();
        set.extend_from_slice(&l2_congruent[..l2_count]);
        set
    };

    // Threshold from the initial (oversized) eviction set.
    let mut current = build_set(initial_size);
    let threshold = profile_tlb_set(sys, pid, target, &current, config.tlb_profile_trials)?;

    // Trim pages one at a time while the miss rate stays at the threshold.
    loop {
        if current.len() <= 1 {
            break;
        }
        let removed = current.remove(0);
        let rate = profile_tlb_set(sys, pid, target, &current, config.tlb_profile_trials)?;
        if rate + config.tlb_trim_tolerance < threshold {
            current.insert(0, removed);
            break;
        }
    }
    let minimal_size = current.len().max(1);

    // Figure 3 sweep: miss rate across eviction-set sizes (the paper sweeps
    // 11..16; we extend the sweep downwards so the knee is visible).
    let mut miss_rates = Vec::new();
    for size in 3..=initial_size {
        let set = build_set(size);
        let rate = profile_tlb_set(sys, pid, target, &set, config.tlb_profile_trials)?;
        miss_rates.push((size, rate));
    }

    Ok(TlbCalibration {
        minimal_size,
        miss_rates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pthammer_dram::FlipModelProfile;
    use pthammer_machine::MachineConfig;

    fn test_system() -> (System, Pid) {
        let mut sys = System::undefended(MachineConfig::test_small(
            FlipModelProfile::invulnerable(),
            7,
        ));
        let pid = sys.spawn_process(1000).unwrap();
        (sys, pid)
    }

    #[test]
    fn mapping_matches_machine_configuration() {
        let (sys, _) = test_system();
        let mapping = TlbMapping::for_system(&sys);
        assert_eq!(mapping.l1_sets, 16);
        assert_eq!(mapping.l2_sets, 128);
        let va = VirtAddr::new(0x1234_5000);
        assert!(mapping.l1_set(va) < 16);
        assert!(mapping.l2_set(va) < 128);
    }

    #[test]
    fn pool_buckets_cover_all_sets() {
        let (mut sys, pid) = test_system();
        let config = AttackConfig::quick_test(1, false);
        let pool = TlbEvictionPool::build(&mut sys, pid, &config, 12).unwrap();
        for set in 0..pool.mapping().l1_sets {
            assert!(
                pool.by_l1_set[set as usize].len() >= 8,
                "L1 set {set} underpopulated"
            );
        }
        for set in 0..pool.mapping().l2_sets {
            assert!(
                pool.by_l2_set[set as usize].len() >= 8,
                "L2 set {set} underpopulated"
            );
        }
        assert!(pool.prep_cycles() > 0);
        assert_eq!(pool.minimal_size(), 12);
    }

    #[test]
    fn eviction_set_pages_are_congruent_with_target() {
        let (mut sys, pid) = test_system();
        let config = AttackConfig::quick_test(1, false);
        let pool = TlbEvictionPool::build(&mut sys, pid, &config, 12).unwrap();
        let target = VirtAddr::new(0x4000_5000);
        let set = pool.eviction_set_for(target, 12);
        assert_eq!(set.len(), 12);
        let mapping = pool.mapping();
        let l1_matches = set
            .addresses()
            .iter()
            .filter(|&&p| mapping.l1_set(p) == mapping.l1_set(target))
            .count();
        let l2_matches = set
            .addresses()
            .iter()
            .filter(|&&p| mapping.l2_set(p) == mapping.l2_set(target))
            .count();
        assert!(l1_matches >= 6);
        assert!(l2_matches >= 6);
        // The target itself is never part of its own eviction set.
        assert!(set
            .addresses()
            .iter()
            .all(|&p| p.page_number() != target.page_number()));
    }

    #[test]
    fn minimal_eviction_set_evicts_the_target_translation() {
        let (mut sys, pid) = test_system();
        let config = AttackConfig::quick_test(1, false);
        let pool = TlbEvictionPool::build(&mut sys, pid, &config, 12).unwrap();
        // A separate mapped target page.
        let target = sys
            .mmap(
                pid,
                PAGE_SIZE,
                MmapOptions {
                    populate: true,
                    ..MmapOptions::default()
                },
            )
            .unwrap();
        let set = pool.minimal_eviction_set_for(target);
        let mut evictions = 0;
        let trials = 20;
        for _ in 0..trials {
            sys.access(pid, target).unwrap();
            set.evict(&mut sys, pid).unwrap();
            let before = sys.machine().tlb_pmc().walks;
            sys.access(pid, target).unwrap();
            if sys.machine().tlb_pmc().walks > before {
                evictions += 1;
            }
        }
        assert!(
            evictions as f64 / trials as f64 > 0.9,
            "minimal eviction set should evict reliably, got {evictions}/{trials}"
        );
    }

    #[test]
    fn calibration_finds_a_size_above_single_level_associativity() {
        let (mut sys, pid) = test_system();
        let config = AttackConfig::quick_test(1, false);
        let cal = calibrate_tlb_eviction(&mut sys, pid, &config).unwrap();
        // The minimal set must at least cover one level's associativity. (On
        // real hardware the paper measures 12; our simulator has no
        // background TLB activity, so Algorithm 1 as written converges to a
        // smaller value — the attack still uses the paper's conservative 12,
        // see `AttackConfig` / EXPERIMENTS.md.)
        assert!(cal.minimal_size >= 4, "minimal size {}", cal.minimal_size);
        assert!(cal.minimal_size <= 16);
        // The Figure 3 curve is non-trivial and ends at a high miss rate.
        assert!(!cal.miss_rates.is_empty());
        let (_, last_rate) = *cal.miss_rates.last().unwrap();
        assert!(
            last_rate > 0.8,
            "16-page set should evict reliably, got {last_rate}"
        );
        // Miss rate at the largest size is at least the rate at the smallest.
        let (_, first_rate) = cal.miss_rates[0];
        assert!(last_rate >= first_rate - 0.1);
    }
}
