//! LLC eviction sets (Section III-D of the paper, Algorithm 2).
//!
//! The attacker needs to evict a *kernel* cache line — the Level-1 PTE of its
//! target address — from the last-level cache without knowing its physical
//! address. It therefore prepares a one-off pool of eviction sets covering
//! every LLC (set, slice) and later selects the right one for a given L1PTE
//! by latency profiling (Algorithm 2), relying on the property that pages
//! whose first lines are congruent are congruent at every page offset
//! (Oren et al.).

use serde::Serialize;

use pthammer_kernel::{MmapOptions, Pid, System, VmaBacking};
use pthammer_types::{PageSize, VirtAddr, CACHE_LINE_SIZE, PAGE_SIZE, PTE_SIZE};

use crate::config::AttackConfig;
use crate::error::AttackError;
use crate::eviction::tlb::TlbEvictionSet;

/// A group of pages that are mutually congruent in the LLC (same set-index
/// high bits and same slice). Accessing the first `minimal_lines` pages at
/// any given page offset evicts every line at that offset that is congruent
/// with the group.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct LlcPageGroup {
    /// Page-aligned virtual addresses of the group members.
    pub pages: Vec<VirtAddr>,
}

/// The complete pool of LLC eviction sets.
#[derive(Debug, Clone, Serialize)]
pub struct LlcEvictionPool {
    groups: Vec<LlcPageGroup>,
    minimal_lines: usize,
    prep_cycles: u64,
    latency_threshold: u64,
}

/// The eviction set Algorithm 2 selected for a concrete Level-1 PTE.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SelectedEvictionSet {
    /// Cache-line addresses to access in order to evict the target L1PTE.
    pub lines: Vec<VirtAddr>,
    /// Index of the pool group the set was drawn from.
    pub group_index: usize,
    /// Median access latency of the target observed while profiling this
    /// group (the maximum over groups identifies the congruent one).
    pub median_latency: u64,
    /// Simulated cycles spent selecting the set.
    pub selection_cycles: u64,
}

impl SelectedEvictionSet {
    /// Accesses every line of the set (twice, to defeat the scan-resistant
    /// LLC replacement), evicting the congruent L1PTE.
    pub fn evict(&self, sys: &mut System, pid: Pid) -> Result<(), AttackError> {
        traverse_eviction_lines(sys, pid, &self.lines)
    }
}

/// Sequential passes one LLC eviction traversal makes by default. A single
/// pass is not reliable against the scan-resistant (SRRIP-style) replacement
/// of the modelled LLC — repeated traversal is needed to age a recently
/// re-referenced victim out of a 12/16-way set.
pub const LLC_EVICTION_PASSES: usize = 3;

/// Traverses an LLC eviction set with the access pattern the attack uses:
/// [`LLC_EVICTION_PASSES`] sequential passes, to age a recently
/// re-referenced victim (here: the L1PTE, which every hammer iteration
/// re-references) out of the set. This mirrors the repeated-traversal
/// eviction strategies of Gruss et al.
pub fn traverse_eviction_lines(
    sys: &mut System,
    pid: Pid,
    lines: &[VirtAddr],
) -> Result<(), AttackError> {
    sys.access_batch_passes(pid, lines, LLC_EVICTION_PASSES)?;
    Ok(())
}

/// Calibrates the cached-vs-DRAM latency threshold the attacker uses to judge
/// evictions, by timing an access before and after `clflush` on its own
/// memory.
pub fn calibrate_latency_threshold(
    sys: &mut System,
    pid: Pid,
    probe: VirtAddr,
) -> Result<u64, AttackError> {
    let mut cached = u64::MAX;
    let mut uncached = 0u64;
    for _ in 0..8 {
        sys.access(pid, probe)?;
        let hit = sys.access(pid, probe)?.latency.as_u64();
        cached = cached.min(hit);
        sys.clflush(pid, probe)?;
        let miss = sys.access(pid, probe)?.latency.as_u64();
        uncached = uncached.max(miss);
    }
    Ok((cached + uncached) / 2)
}

/// Tests whether accessing `lines` evicts `target_line` from the cache
/// hierarchy, judged purely by access latency (no oracle).
///
/// Before the timed access we touch a *different* cache line of the same
/// page so that the page's translation (TLB entry and cached PTE) is warm;
/// otherwise page-walk latency would be indistinguishable from the data
/// coming from DRAM. Real eviction-set construction code does the same.
fn evicts_once(
    sys: &mut System,
    pid: Pid,
    target_line: VirtAddr,
    lines: &[VirtAddr],
    threshold: u64,
) -> Result<bool, AttackError> {
    // Bring the target into the cache.
    sys.access(pid, target_line)?;
    // Traverse the candidate eviction set. Pool construction uses one more
    // pass than the attack's hot path so that the outcome is a sharp
    // function of how many truly congruent lines the candidate set contains.
    sys.access_batch(pid, lines)?;
    traverse_eviction_lines(sys, pid, lines)?;
    // Warm the translation of the target's page without touching its line.
    let warm = if target_line.page_offset() >= CACHE_LINE_SIZE {
        target_line.page_base()
    } else {
        target_line + CACHE_LINE_SIZE
    };
    sys.access(pid, warm)?;
    // Time the target again.
    let latency = sys.access(pid, target_line)?.latency.as_u64();
    Ok(latency > threshold)
}

/// Majority vote over three single-trial eviction tests. Scan-resistant LLC
/// replacement makes individual trials probabilistic, so both the pool
/// partitioning and the page classification vote over repeated measurements
/// (as practical eviction-set tooling does).
fn evicts(
    sys: &mut System,
    pid: Pid,
    target_line: VirtAddr,
    lines: &[VirtAddr],
    threshold: u64,
) -> Result<bool, AttackError> {
    let mut hits = 0;
    for trial in 0..3 {
        if evicts_once(sys, pid, target_line, lines, threshold)? {
            hits += 1;
        }
        if hits >= 2 || hits + (2 - trial.min(2)) < 2 {
            break;
        }
    }
    Ok(hits >= 2)
}

impl LlcEvictionPool {
    /// The page-congruence groups.
    pub fn groups(&self) -> &[LlcPageGroup] {
        &self.groups
    }

    /// The minimal eviction-set size (lines per set).
    pub fn minimal_lines(&self) -> usize {
        self.minimal_lines
    }

    /// Simulated cycles spent preparing the pool (Table II, "Preparation LLC").
    pub fn prep_cycles(&self) -> u64 {
        self.prep_cycles
    }

    /// The latency threshold separating cached from DRAM-served accesses.
    pub fn latency_threshold(&self) -> u64 {
        self.latency_threshold
    }

    /// Builds the eviction lines of group `group_index` at byte offset
    /// `offset_in_page` (must be line-aligned).
    pub fn lines_at_offset(&self, group_index: usize, offset_in_page: u64) -> Vec<VirtAddr> {
        debug_assert_eq!(offset_in_page % CACHE_LINE_SIZE, 0);
        self.groups[group_index]
            .pages
            .iter()
            .take(self.minimal_lines)
            .map(|&p| p + offset_in_page)
            .collect()
    }

    /// Prepares the complete pool of LLC eviction sets (one-off cost).
    ///
    /// With superpages enabled the attacker knows physical-address bits 0–20
    /// of its buffer, so pages can be grouped by their known partial set
    /// index and only the slice must be resolved by conflict testing; with
    /// regular 4 KiB pages the whole partition is discovered by conflict
    /// testing, which is far slower — reproducing the Table II difference.
    pub fn build(
        sys: &mut System,
        pid: Pid,
        config: &AttackConfig,
        minimal_lines: usize,
    ) -> Result<Self, AttackError> {
        let llc = sys.machine().config().cache.llc;
        let buffer_bytes = ((llc.capacity_bytes() as f64) * config.eviction_buffer_factor) as u64;
        let buffer_pages = buffer_bytes / PAGE_SIZE;
        // Page classes distinguished by physical bits 12.. above the page
        // offset within the set index.
        let page_classes = (llc.sets_per_slice as u64 * CACHE_LINE_SIZE / PAGE_SIZE).max(1);
        let expected_groups = (page_classes * llc.slices as u64) as usize;

        let start = sys.rdtsc();
        let (base, page_size) = if config.superpages {
            let va = sys.mmap(
                pid,
                buffer_bytes.next_multiple_of(PageSize::Huge2M.bytes()),
                MmapOptions {
                    page_size: PageSize::Huge2M,
                    populate: true,
                    backing: VmaBacking::Anonymous {
                        fill_pattern: 0x4c4c_4320_6275_6600,
                    },
                },
            )?;
            (va, PageSize::Huge2M)
        } else {
            let va = sys.mmap(
                pid,
                buffer_pages * PAGE_SIZE,
                MmapOptions {
                    populate: true,
                    backing: VmaBacking::Anonymous {
                        fill_pattern: 0x4c4c_4320_6275_6600,
                    },
                    ..MmapOptions::default()
                },
            )?;
            (va, PageSize::Base4K)
        };

        let pages: Vec<VirtAddr> = (0..buffer_pages).map(|i| base + i * PAGE_SIZE).collect();
        let probe = pages[0];
        let latency_threshold = calibrate_latency_threshold(sys, pid, probe)?;

        let groups = if page_size.is_huge() {
            // Known partial set index: group by VA bits 12.. (== PA bits).
            let mut by_class: Vec<Vec<VirtAddr>> = vec![Vec::new(); page_classes as usize];
            for &page in &pages {
                let class = (page.as_u64() / PAGE_SIZE) % page_classes;
                by_class[class as usize].push(page);
            }
            let mut groups = Vec::new();
            for class_pages in by_class {
                let mut found = partition_by_conflict(
                    sys,
                    pid,
                    &class_pages,
                    minimal_lines,
                    llc.slices as usize,
                    latency_threshold,
                )?;
                groups.append(&mut found);
            }
            groups
        } else {
            partition_by_conflict(
                sys,
                pid,
                &pages,
                minimal_lines,
                expected_groups,
                latency_threshold,
            )?
        };

        if groups.len() < expected_groups / 2 {
            return Err(AttackError::EvictionSetUnavailable(format!(
                "only {} of ~{} LLC eviction groups found",
                groups.len(),
                expected_groups
            )));
        }
        let prep_cycles = sys.rdtsc() - start;

        Ok(Self {
            groups,
            minimal_lines,
            prep_cycles,
            latency_threshold,
        })
    }

    /// Algorithm 2: selects the eviction set for the Level-1 PTE of
    /// `target_addr` by profiling every candidate group and keeping the one
    /// that maximises the target's access latency.
    pub fn select_for_l1pte(
        &self,
        sys: &mut System,
        pid: Pid,
        target_addr: VirtAddr,
        tlb_set: &TlbEvictionSet,
        trials: usize,
    ) -> Result<SelectedEvictionSet, AttackError> {
        let start = sys.rdtsc();
        // Byte offset of the target's L1PTE within its page table page.
        let l1pte_offset = target_addr.pt_index(1) * PTE_SIZE;
        let line_offset = l1pte_offset & !(CACHE_LINE_SIZE - 1);

        let mut best: Option<(usize, u64)> = None;
        for group_index in 0..self.groups.len() {
            let lines = self.lines_at_offset(group_index, line_offset);
            let mut latencies = Vec::with_capacity(trials);
            for _ in 0..trials {
                // Flush the candidate congruent lines over the L1PTE...
                traverse_eviction_lines(sys, pid, &lines)?;
                // ...flush the target's TLB entry so the next access walks...
                tlb_set.evict(sys, pid)?;
                // ...and time the target access (slow iff the L1PTE came from DRAM).
                latencies.push(sys.access(pid, target_addr)?.latency.as_u64());
            }
            latencies.sort_unstable();
            let median = latencies[latencies.len() / 2];
            if best.map(|(_, b)| median > b).unwrap_or(true) {
                best = Some((group_index, median));
            }
        }
        let (group_index, median_latency) =
            best.ok_or_else(|| AttackError::EvictionSetUnavailable("empty pool".to_string()))?;
        let selection_cycles = sys.rdtsc() - start;
        Ok(SelectedEvictionSet {
            lines: self.lines_at_offset(group_index, line_offset),
            group_index,
            median_latency,
            selection_cycles,
        })
    }
}

/// Partitions `pages` into congruence groups by latency-based conflict
/// testing (Liu et al. style): repeatedly build a minimal eviction set for
/// the first unclassified page, then sweep the remaining pages to collect
/// every page congruent with it.
fn partition_by_conflict(
    sys: &mut System,
    pid: Pid,
    pages: &[VirtAddr],
    minimal_lines: usize,
    max_groups: usize,
    threshold: u64,
) -> Result<Vec<LlcPageGroup>, AttackError> {
    let mut remaining: Vec<VirtAddr> = pages.to_vec();
    let mut groups = Vec::new();

    while groups.len() < max_groups && remaining.len() > minimal_lines {
        let target = remaining[0];
        let candidates: Vec<VirtAddr> = remaining[1..].to_vec();
        // The full candidate set must evict the target, otherwise there are
        // not enough congruent pages left to form another group.
        if !evicts(sys, pid, target, &candidates, threshold)? {
            break;
        }
        let minimal = reduce_to_minimal(sys, pid, target, candidates, minimal_lines, threshold)?;
        // Classify every remaining page against the minimal set. The group is
        // ordered so that its first members are the target and the essential
        // (reduction-surviving) pages: eviction sets drawn from the group
        // later take its first `minimal_lines` pages, so they come from the
        // verified-congruent prefix even if classification has stragglers.
        let mut members = vec![target];
        members.extend(minimal.iter().copied());
        let mut rest = Vec::new();
        for &page in &remaining[1..] {
            if minimal.contains(&page) {
                continue;
            }
            if evicts(sys, pid, page, &minimal, threshold)? {
                members.push(page);
            } else {
                rest.push(page);
            }
        }
        groups.push(LlcPageGroup { pages: members });
        remaining = rest;
    }
    Ok(groups)
}

/// Reduces `candidates` to a minimal set that still evicts `target`, removing
/// chunks of pages at a time (group-testing refinement of the quadratic
/// one-at-a-time reduction; the end result is the same minimal set).
fn reduce_to_minimal(
    sys: &mut System,
    pid: Pid,
    target: VirtAddr,
    mut candidates: Vec<VirtAddr>,
    minimal_lines: usize,
    threshold: u64,
) -> Result<Vec<VirtAddr>, AttackError> {
    let mut chunk = (candidates.len() / 8).max(1);
    while candidates.len() > minimal_lines {
        let mut progress = false;
        let mut index = 0;
        while index < candidates.len() && candidates.len() > minimal_lines {
            let take = chunk
                .min(candidates.len() - index)
                .min(candidates.len() - minimal_lines);
            if take == 0 {
                break;
            }
            let mut trial: Vec<VirtAddr> = candidates.clone();
            trial.drain(index..index + take);
            if evicts(sys, pid, target, &trial, threshold)? {
                candidates = trial;
                progress = true;
            } else {
                index += take;
            }
        }
        if chunk == 1 && !progress {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
    Ok(candidates)
}

/// Result of the offline minimal-eviction-set-size calibration for the LLC
/// (the Figure 4 sweep).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LlcCalibration {
    /// Chosen eviction-set size (one above the associativity, as in the paper).
    pub minimal_size: usize,
    /// Miss rate of the target line for each eviction-set size.
    pub miss_rates: Vec<(usize, f64)>,
}

/// Offline calibration of the minimal LLC eviction-set size, using the LLC
/// miss counter (`longest_lat_cache.miss`) like the paper's kernel module.
/// Congruent lines are identified with the evaluation oracle, which is
/// legitimate here because this phase runs offline on a machine the attacker
/// controls.
pub fn calibrate_llc_eviction(
    sys: &mut System,
    pid: Pid,
    config: &AttackConfig,
) -> Result<LlcCalibration, AttackError> {
    let llc = sys.machine().config().cache.llc;
    let ways = llc.ways as usize;
    let max_size = ways * 2 + 8;

    // Allocate a buffer and find lines congruent with a chosen target line.
    let buffer_pages = (llc.capacity_bytes() * 4) / PAGE_SIZE;
    let base = sys.mmap(
        pid,
        buffer_pages * PAGE_SIZE,
        MmapOptions {
            populate: true,
            ..MmapOptions::default()
        },
    )?;
    let target = base;
    let target_pa = sys
        .oracle_translate(pid, target)
        .ok_or_else(|| AttackError::EvictionSetUnavailable("target unmapped".to_string()))?;
    let (t_slice, t_set) = pthammer_machine::llc_location(sys.machine(), target_pa);

    let mut congruent = Vec::new();
    for i in 1..buffer_pages {
        let line = base + i * PAGE_SIZE;
        let pa = sys
            .oracle_translate(pid, line)
            .ok_or_else(|| AttackError::EvictionSetUnavailable("buffer unmapped".to_string()))?;
        if pthammer_machine::llc_location(sys.machine(), pa) == (t_slice, t_set) {
            congruent.push(line);
            if congruent.len() >= max_size {
                break;
            }
        }
    }
    if congruent.len() < ways + 1 {
        return Err(AttackError::EvictionSetUnavailable(format!(
            "found only {} congruent lines",
            congruent.len()
        )));
    }

    let mut miss_rates = Vec::new();
    let sweep_max = congruent.len();
    for size in (ways.saturating_sub(4).max(2))..=sweep_max {
        let set = &congruent[..size];
        let mut misses = 0;
        for _ in 0..config.llc_profile_trials {
            sys.access(pid, target)?;
            traverse_eviction_lines(sys, pid, set)?;
            let before = sys.machine().cache_pmc().llc_misses;
            sys.access(pid, target)?;
            if sys.machine().cache_pmc().llc_misses > before {
                misses += 1;
            }
        }
        miss_rates.push((size, misses as f64 / config.llc_profile_trials as f64));
    }

    // The paper chooses one more line than the associativity.
    let minimal_size = ways + 1;
    Ok(LlcCalibration {
        minimal_size,
        miss_rates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eviction::tlb::TlbEvictionPool;
    use pthammer_cache::{CacheHierarchyConfig, LlcConfig, ReplacementPolicy};
    use pthammer_dram::FlipModelProfile;
    use pthammer_kernel::KernelConfig;
    use pthammer_machine::MachineConfig;

    /// A machine with a deliberately tiny LLC so pool construction is fast.
    fn tiny_llc_machine(superpages: bool) -> (System, Pid) {
        let mut cfg = MachineConfig::test_small(FlipModelProfile::invulnerable(), 9);
        cfg.cache = CacheHierarchyConfig {
            llc: LlcConfig {
                slices: 2,
                sets_per_slice: 256,
                ways: 8,
                latency: 18,
                replacement: ReplacementPolicy::Srrip,
            },
            ..CacheHierarchyConfig::test_small()
        };
        let kernel_config = if superpages {
            KernelConfig::with_superpages()
        } else {
            KernelConfig::default_config()
        };
        let mut sys = System::new(
            cfg,
            kernel_config,
            Box::new(pthammer_kernel::DefaultPolicy::new()),
        );
        let pid = sys.spawn_process(1000).unwrap();
        (sys, pid)
    }

    fn quick_config(superpages: bool) -> AttackConfig {
        AttackConfig {
            llc_profile_trials: 4,
            ..AttackConfig::quick_test(3, superpages)
        }
    }

    #[test]
    fn latency_threshold_separates_cache_from_dram() {
        let (mut sys, pid) = tiny_llc_machine(false);
        let probe = sys
            .mmap(
                pid,
                PAGE_SIZE,
                MmapOptions {
                    populate: true,
                    ..MmapOptions::default()
                },
            )
            .unwrap();
        let threshold = calibrate_latency_threshold(&mut sys, pid, probe).unwrap();
        sys.access(pid, probe).unwrap();
        let hit = sys.access(pid, probe).unwrap().latency.as_u64();
        sys.clflush(pid, probe).unwrap();
        let miss = sys.access(pid, probe).unwrap().latency.as_u64();
        assert!(hit < threshold, "hit {hit} vs threshold {threshold}");
        assert!(miss > threshold, "miss {miss} vs threshold {threshold}");
    }

    #[test]
    fn pool_groups_are_truly_congruent_regular_pages() {
        let (mut sys, pid) = tiny_llc_machine(false);
        let config = quick_config(false);
        let pool = LlcEvictionPool::build(&mut sys, pid, &config, 9).unwrap();
        assert!(pool.prep_cycles() > 0);
        // What matters for the attack is the prefix each eviction set is
        // drawn from: the first `minimal_lines` pages of a group should be
        // dominated by pages congruent with the group's first page. Verify
        // with the oracle that, on average, at least `minimal - 1` of the
        // prefix pages are congruent and that most groups are usable.
        let minimal = pool.minimal_lines();
        let mut usable_groups = 0;
        let mut prefix_purity_sum = 0usize;
        for group in pool.groups() {
            let locations: Vec<_> = group
                .pages
                .iter()
                .take(minimal)
                .filter_map(|&p| sys.oracle_translate(pid, p))
                .map(|pa| pthammer_machine::llc_location(sys.machine(), pa))
                .collect();
            let first = locations[0];
            let congruent = locations.iter().filter(|&&l| l == first).count();
            prefix_purity_sum += congruent;
            if congruent >= minimal - 1 {
                usable_groups += 1;
            }
        }
        let groups = pool.groups().len();
        let avg_purity = prefix_purity_sum as f64 / groups as f64;
        println!("avg prefix purity {avg_purity:.2}/{minimal}, usable {usable_groups}/{groups}");
        assert!(
            avg_purity >= (minimal - 1) as f64,
            "average prefix purity {avg_purity:.2} of {minimal}"
        );
        assert!(
            usable_groups * 10 >= groups * 7,
            "{usable_groups}/{groups} groups have a usable prefix"
        );
        // Groups are large enough to draw an eviction set from.
        assert!(pool.groups().iter().any(|g| g.pages.len() >= 9));
    }

    #[test]
    fn pool_build_is_much_faster_with_superpages() {
        let (mut sys_sp, pid_sp) = tiny_llc_machine(true);
        let config_sp = quick_config(true);
        let pool_sp = LlcEvictionPool::build(&mut sys_sp, pid_sp, &config_sp, 9).unwrap();

        let (mut sys_rp, pid_rp) = tiny_llc_machine(false);
        let config_rp = quick_config(false);
        let pool_rp = LlcEvictionPool::build(&mut sys_rp, pid_rp, &config_rp, 9).unwrap();

        assert!(
            pool_sp.prep_cycles() * 2 < pool_rp.prep_cycles(),
            "superpage prep {} should be well below regular-page prep {}",
            pool_sp.prep_cycles(),
            pool_rp.prep_cycles()
        );
    }

    #[test]
    fn selection_finds_the_group_congruent_with_the_l1pte() {
        let (mut sys, pid) = tiny_llc_machine(false);
        let config = quick_config(false);
        let tlb_pool = TlbEvictionPool::build(&mut sys, pid, &config, 12).unwrap();
        let pool = LlcEvictionPool::build(&mut sys, pid, &config, 9).unwrap();

        // A target page whose L1PTE we want to evict; choose one whose L1
        // index is non-zero so the eviction lines do not collide with the
        // target's own data line.
        let region = sys
            .mmap(
                pid,
                64 * PAGE_SIZE,
                MmapOptions {
                    populate: true,
                    ..MmapOptions::default()
                },
            )
            .unwrap();
        let target = region + 5 * PAGE_SIZE;
        sys.access(pid, target).unwrap();

        let tlb_set = tlb_pool.minimal_eviction_set_for(target);
        let selected = pool
            .select_for_l1pte(&mut sys, pid, target, &tlb_set, config.llc_profile_trials)
            .unwrap();
        assert_eq!(selected.lines.len(), pool.minimal_lines());
        assert!(selected.selection_cycles > 0);

        // Oracle check (Section IV-C): the selected group must be congruent
        // with the physical address of the target's L1PTE.
        let l1pte_pa = sys.oracle_l1pte_paddr(pid, target).unwrap();
        let expected = pthammer_machine::llc_location(sys.machine(), l1pte_pa);
        let line_pa = sys.oracle_translate(pid, selected.lines[0]).unwrap();
        let got = pthammer_machine::llc_location(sys.machine(), line_pa);
        assert_eq!(
            got, expected,
            "selected eviction set is not congruent with the L1PTE"
        );

        // Using the selected set + TLB eviction forces the next access of the
        // target to load its L1PTE from DRAM.
        selected.evict(&mut sys, pid).unwrap();
        tlb_set.evict(&mut sys, pid).unwrap();
        let acc = sys.access(pid, target).unwrap();
        assert!(acc.l1pte_from_dram, "L1PTE should have been served by DRAM");
    }

    #[test]
    fn calibration_produces_figure4_shaped_curve() {
        let (mut sys, pid) = tiny_llc_machine(false);
        let config = quick_config(false);
        let cal = calibrate_llc_eviction(&mut sys, pid, &config).unwrap();
        assert_eq!(cal.minimal_size, 9, "ways + 1");
        assert!(!cal.miss_rates.is_empty());
        // Sets larger than the associativity evict reliably; much smaller
        // sets do not.
        let big: Vec<f64> = cal
            .miss_rates
            .iter()
            .filter(|(s, _)| *s >= 9)
            .map(|(_, r)| *r)
            .collect();
        let small: Vec<f64> = cal
            .miss_rates
            .iter()
            .filter(|(s, _)| *s <= 6)
            .map(|(_, r)| *r)
            .collect();
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(avg(&big) > 0.85, "large sets evict: {:?}", cal.miss_rates);
        assert!(avg(&small) < avg(&big), "small sets evict less reliably");
    }
}
