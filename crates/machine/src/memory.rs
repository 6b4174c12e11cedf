//! The memory subsystem: cache hierarchy + DRAM + physical contents.

use serde::Serialize;

use pthammer_cache::CacheHierarchy;
use pthammer_dram::{DramAccessOutcome, DramModule, RowBufferOutcome};
use pthammer_types::{Cycles, MemAccessOutcome, MemoryLevel, PhysAddr, PhysicalMemoryAccess};

use crate::footprint::DramRecord;
use crate::phys_mem::{AppliedFlip, PhysicalMemory};

/// Caches, DRAM and physical contents glued together.
///
/// Every line access consults the cache hierarchy, which fills a line that
/// missed every level; such a miss then accesses the DRAM model (which may
/// emit rowhammer flips — these are applied to the physical contents
/// immediately). The subsystem
/// implements [`PhysicalMemoryAccess`], so the MMU's page-table walker issues
/// its implicit PTE loads through exactly the same path as ordinary data.
#[derive(Debug, Clone, Serialize)]
pub struct MemorySubsystem {
    caches: CacheHierarchy,
    dram: DramModule,
    phys: PhysicalMemory,
    /// Current simulated time, provided by the machine before each operation.
    now: Cycles,
    /// When true, DRAM-served accesses are charged the overlapped latency.
    batch_mode: bool,
    dram_overlap_latency: Cycles,
    applied_flips: Vec<AppliedFlip>,
    /// DRAM accesses `(address, time, outcome)` recorded since
    /// [`MemorySubsystem::record_dram`], if recording.
    #[serde(skip)]
    dram_log: Option<Vec<(PhysAddr, Cycles, RowBufferOutcome)>>,
}

impl MemorySubsystem {
    /// Creates the subsystem.
    pub fn new(
        caches: CacheHierarchy,
        dram: DramModule,
        phys: PhysicalMemory,
        dram_overlap_latency: u32,
    ) -> Self {
        Self {
            caches,
            dram,
            phys,
            now: Cycles::ZERO,
            batch_mode: false,
            dram_overlap_latency: Cycles::new(u64::from(dram_overlap_latency)),
            applied_flips: Vec::new(),
            dram_log: None,
        }
    }

    /// Read access to the cache hierarchy (for oracles and statistics).
    pub fn caches(&self) -> &CacheHierarchy {
        &self.caches
    }

    /// Mutable access to the cache hierarchy (used for clflush and by tests).
    pub fn caches_mut(&mut self) -> &mut CacheHierarchy {
        &mut self.caches
    }

    /// Read access to the DRAM module.
    pub fn dram(&self) -> &DramModule {
        &self.dram
    }

    /// Read access to the physical contents.
    pub fn phys(&self) -> &PhysicalMemory {
        &self.phys
    }

    /// Mutable access to the physical contents (privileged / kernel writes
    /// that bypass the timing model).
    pub fn phys_mut(&mut self) -> &mut PhysicalMemory {
        &mut self.phys
    }

    /// Updates the subsystem's notion of the current time.
    pub fn set_now(&mut self, now: Cycles) {
        self.now = now;
    }

    /// Enables or disables batch (pipelined) charging of DRAM latencies.
    pub fn set_batch_mode(&mut self, batch: bool) {
        self.batch_mode = batch;
    }

    /// All bit flips applied to physical memory so far.
    pub fn applied_flips(&self) -> &[AppliedFlip] {
        &self.applied_flips
    }

    /// Performs a timed access to the cache line containing `paddr`.
    ///
    /// In batch (pipelined) mode the charged latency models an out-of-order
    /// core overlapping independent accesses: cache hits are charged roughly
    /// a third of their serialized latency and DRAM accesses the configured
    /// overlap cost.
    #[inline]
    pub fn access_line(&mut self, paddr: PhysAddr) -> MemAccessOutcome {
        let lookup = self.caches.access(paddr);
        if let Some(level) = lookup.hit_level {
            let latency = if self.batch_mode {
                Cycles::new(lookup.latency.as_u64().div_ceil(3))
            } else {
                lookup.latency
            };
            return MemAccessOutcome {
                paddr,
                served_by: level,
                latency,
                row_buffer_hit: false,
            };
        }
        // The lookup above missed every level and already filled the line:
        // the DRAM access never touches cache state, so filling first is
        // exact.
        let dram_access = self.dram_access(paddr, self.now);
        let dram_latency = if self.batch_mode {
            self.dram_overlap_latency
        } else {
            dram_access.latency
        };
        MemAccessOutcome {
            paddr,
            served_by: MemoryLevel::Dram,
            latency: lookup.latency + dram_latency,
            row_buffer_hit: dram_access.row_buffer == pthammer_dram::RowBufferOutcome::Hit,
        }
    }

    /// The DRAM half of a line access: the DRAM access at `now`, then the
    /// flips it emitted, applied to the physical contents in emission
    /// order (and the access recorded, while recording). Both
    /// [`MemorySubsystem::access_line`] and [`MemorySubsystem::replay_dram`]
    /// run through it, so a replayed access drives DRAM exactly as the
    /// original did.
    #[inline]
    fn dram_access(&mut self, paddr: PhysAddr, now: Cycles) -> DramAccessOutcome {
        let dram_access = self.dram.access(paddr, now);
        for flip in &dram_access.flips {
            if let Some(applied) = self.phys.apply_flip(flip) {
                self.applied_flips.push(applied);
            }
        }
        if let Some(log) = &mut self.dram_log {
            log.push((paddr, now, dram_access.row_buffer));
        }
        dram_access
    }

    /// Replays one DRAM access at `now`, bypassing the caches: the DRAM
    /// access and its flips exactly as [`MemorySubsystem::access_line`]
    /// performs them on a full miss. Returns the row-buffer outcome.
    pub(crate) fn replay_dram(&mut self, paddr: PhysAddr, now: Cycles) -> RowBufferOutcome {
        self.dram_access(paddr, now).row_buffer
    }

    /// Starts recording every DRAM access, discarding any earlier record.
    pub(crate) fn record_dram(&mut self) {
        self.dram_log = Some(Vec::new());
    }

    /// Stops recording and returns the accesses recorded since
    /// [`MemorySubsystem::record_dram`], timed from `start`.
    ///
    /// # Panics
    ///
    /// Panics if an access was recorded before `start`.
    pub(crate) fn take_dram_record(&mut self, start: Cycles) -> Vec<DramRecord> {
        self.dram_log
            .take()
            .unwrap_or_default()
            .into_iter()
            .map(|(addr, at, outcome)| DramRecord {
                addr,
                offset: at
                    .as_u64()
                    .checked_sub(start.as_u64())
                    .expect("DRAM access recorded before the round started"),
                outcome,
            })
            .collect()
    }

    /// Flushes the line containing `paddr` from every cache level.
    pub fn clflush_line(&mut self, paddr: PhysAddr) {
        self.caches.clflush(paddr);
    }
}

impl PhysicalMemoryAccess for MemorySubsystem {
    fn load_qword(&mut self, paddr: PhysAddr) -> (u64, MemAccessOutcome) {
        let outcome = self.access_line(paddr);
        let aligned = PhysAddr::new(paddr.as_u64() & !7);
        (self.phys.read_u64(aligned), outcome)
    }

    fn store_qword(&mut self, paddr: PhysAddr, value: u64) -> MemAccessOutcome {
        let outcome = self.access_line(paddr);
        let aligned = PhysAddr::new(paddr.as_u64() & !7);
        self.phys.write_u64(aligned, value);
        outcome
    }

    #[inline]
    fn is_installed(&self, paddr: PhysAddr) -> bool {
        paddr.as_u64() + 8 <= self.phys.capacity_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pthammer_cache::CacheHierarchyConfig;
    use pthammer_dram::{DramConfig, FlipModelProfile};

    fn subsystem() -> MemorySubsystem {
        let caches = CacheHierarchy::new(CacheHierarchyConfig::test_small());
        let dram = DramModule::new(DramConfig::test_small(FlipModelProfile::invulnerable(), 1));
        let phys = PhysicalMemory::new(32 << 20);
        MemorySubsystem::new(caches, dram, phys, 60)
    }

    #[test]
    fn miss_then_hit_latency() {
        let mut m = subsystem();
        let a = PhysAddr::new(0x10_000);
        let miss = m.access_line(a);
        assert_eq!(miss.served_by, MemoryLevel::Dram);
        let hit = m.access_line(a);
        assert_eq!(hit.served_by, MemoryLevel::L1);
        assert!(hit.latency < miss.latency);
    }

    #[test]
    fn batch_mode_charges_overlap_latency() {
        let mut serial = subsystem();
        let full = serial.access_line(PhysAddr::new(0x20_000)).latency;

        let mut batched = subsystem();
        batched.set_batch_mode(true);
        let overlapped = batched.access_line(PhysAddr::new(0x20_000)).latency;
        assert!(overlapped < full);
    }

    #[test]
    fn load_and_store_qword_roundtrip() {
        let mut m = subsystem();
        let addr = PhysAddr::new(0x30_008);
        m.store_qword(addr, 0xfeed_face_dead_beef);
        let (value, outcome) = m.load_qword(addr);
        assert_eq!(value, 0xfeed_face_dead_beef);
        assert_eq!(outcome.served_by, MemoryLevel::L1, "line was just filled");
    }

    #[test]
    fn load_qword_is_qword_granular_within_line() {
        let mut m = subsystem();
        m.phys_mut().write_u64(PhysAddr::new(0x40), 11);
        m.phys_mut().write_u64(PhysAddr::new(0x48), 22);
        assert_eq!(m.load_qword(PhysAddr::new(0x40)).0, 11);
        assert_eq!(m.load_qword(PhysAddr::new(0x48)).0, 22);
    }

    #[test]
    fn clflush_forces_next_access_to_dram() {
        let mut m = subsystem();
        let a = PhysAddr::new(0x50_000);
        m.access_line(a);
        assert_eq!(m.access_line(a).served_by, MemoryLevel::L1);
        m.clflush_line(a);
        assert_eq!(m.access_line(a).served_by, MemoryLevel::Dram);
    }

    #[test]
    fn flips_are_applied_to_physical_memory() {
        // Use a vulnerable profile and hammer two rows adjacent to a weak row.
        let caches = CacheHierarchy::new(CacheHierarchyConfig::test_small());
        let dram = DramModule::new(DramConfig::test_small(FlipModelProfile::ci(), 5));
        let geometry = dram.config().geometry;
        let model = dram.flip_model().clone();
        let mapping = *dram.mapping();
        let base_unit = mapping.to_dram(PhysAddr::new(0)).bank_unit(&geometry);
        let victim_row = (1..geometry.rows_per_bank - 1)
            .find(|&r| model.row_is_weak(base_unit, r))
            .expect("weak row exists");
        let phys = PhysicalMemory::new(geometry.capacity_bytes());
        let mut m = MemorySubsystem::new(caches, dram, phys, 60);

        // Fill the victim row's frames with all-ones so true-cell flips apply.
        let row_span = geometry.row_span_bytes();
        let victim_base = u64::from(victim_row) * row_span;
        for frame in (victim_base / 4096)..((victim_base + row_span) / 4096) {
            m.phys_mut().write_frame_uniform(frame, u64::MAX);
        }

        let low = PhysAddr::new(victim_base - row_span);
        let high = PhysAddr::new(victim_base + row_span);
        let mut now = 0u64;
        for _ in 0..1500 {
            for addr in [low, high] {
                m.set_now(Cycles::new(now));
                m.access_line(addr);
                m.clflush_line(addr);
                now += 300;
            }
        }
        assert!(
            !m.applied_flips().is_empty(),
            "hammering adjacent rows should flip bits in the weak victim row"
        );
        for flip in m.applied_flips() {
            assert_ne!(flip.old, flip.new);
        }
    }
}
