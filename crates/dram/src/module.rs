//! The complete DRAM module: banks, mapping and statistics.

use serde::Serialize;

use pthammer_types::{Cycles, PhysAddr};

use crate::{
    address::{AddressMapping, DramAddress},
    bank::Bank,
    config::DramConfig,
    flip_event::FlipEvent,
    row_buffer::RowBufferOutcome,
    stats::DramStats,
    vulnerability::FlipModel,
};

/// Outcome of a single DRAM access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramAccessOutcome {
    /// Decoded DRAM location that was accessed.
    pub location: DramAddress,
    /// Row-buffer behaviour of the access.
    pub row_buffer: RowBufferOutcome,
    /// Modelled latency of the access.
    pub latency: Cycles,
    /// Bit flips induced (in *neighbouring* rows) by this access.
    pub flips: Vec<FlipEvent>,
}

/// A simulated DRAM module.
///
/// # Examples
///
/// ```
/// use pthammer_dram::{DramConfig, DramModule, FlipModelProfile, RowBufferOutcome};
/// use pthammer_types::{Cycles, PhysAddr};
///
/// let mut dram = DramModule::new(DramConfig::test_small(FlipModelProfile::ci(), 7));
/// let first = dram.access(PhysAddr::new(0x2000), Cycles::new(0));
/// assert_eq!(first.row_buffer, RowBufferOutcome::Miss);
/// let second = dram.access(PhysAddr::new(0x2000), Cycles::new(500));
/// assert_eq!(second.row_buffer, RowBufferOutcome::Hit);
/// assert!(second.latency < first.latency);
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct DramModule {
    config: DramConfig,
    mapping: AddressMapping,
    flip_model: FlipModel,
    banks: Vec<Bank>,
    stats: DramStats,
}

impl DramModule {
    /// Creates a DRAM module from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: DramConfig) -> Self {
        config.validate().expect("invalid DRAM configuration");
        let mapping = AddressMapping::new(config.geometry, config.mapping);
        let flip_model = FlipModel::new(
            config.flip_profile,
            config.flip_seed,
            config.geometry.row_bytes,
        );
        let banks = (0..config.geometry.total_banks())
            .map(|unit| Bank::new(unit, config.geometry.rows_per_bank))
            .collect();
        Self {
            config,
            mapping,
            flip_model,
            banks,
            stats: DramStats::default(),
        }
    }

    /// The configuration this module was built from.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// The physical-address mapping in use.
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    /// The weak-cell model in use (exposed for evaluation oracles and tests;
    /// the simulated attacker never consults it).
    pub fn flip_model(&self) -> &FlipModel {
        &self.flip_model
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Resets the statistics counters.
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }

    /// Performs an access to the cache line containing `paddr` at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `paddr` is beyond the module capacity.
    #[inline]
    pub fn access(&mut self, paddr: PhysAddr, now: Cycles) -> DramAccessOutcome {
        assert!(
            paddr.as_u64() < self.config.geometry.capacity_bytes(),
            "physical address {paddr} beyond DRAM capacity"
        );
        let location = self.mapping.to_dram(paddr);
        let unit = location.bank_unit(&self.config.geometry) as usize;
        let result = self.banks[unit].access(
            location.row,
            now,
            &self.config.timings,
            self.config.row_buffer_policy,
            &self.flip_model,
            &self.config.trr,
        );

        let latency = match result.outcome {
            RowBufferOutcome::Hit => self.config.timings.row_hit_latency(),
            RowBufferOutcome::Miss => self.config.timings.row_miss_latency(),
            RowBufferOutcome::Conflict => self.config.timings.row_conflict_latency(),
        };

        self.stats.accesses += 1;
        match result.outcome {
            RowBufferOutcome::Hit => self.stats.row_hits += 1,
            RowBufferOutcome::Miss => self.stats.row_misses += 1,
            RowBufferOutcome::Conflict => self.stats.row_conflicts += 1,
        }
        if result.outcome.activated() {
            self.stats.activations += 1;
        }
        if result.window_rolled {
            self.stats.refresh_windows += 1;
        }
        if result.trr_fired {
            self.stats.trr_refreshes += 1;
        }

        let flips: Vec<FlipEvent> = result
            .flips
            .into_iter()
            .map(|(victim_row, cell, disturbance)| {
                let victim_location = DramAddress {
                    row: victim_row,
                    col: cell.byte_in_row,
                    ..location
                };
                FlipEvent {
                    paddr: self.mapping.to_phys(victim_location),
                    location: victim_location,
                    bit: cell.bit,
                    orientation: cell.orientation,
                    disturbance,
                }
            })
            .collect();
        self.stats.flips += flips.len() as u64;

        DramAccessOutcome {
            location,
            row_buffer: result.outcome,
            latency,
            flips,
        }
    }

    /// The sum over banks of the most disturbance chunks each bank has held
    /// at once ([`Bank::row_chunks_peak`]): how much row state the run made
    /// the module allocate.
    pub fn row_chunks_peak(&self) -> u64 {
        self.banks
            .iter()
            .map(|bank| u64::from(bank.row_chunks_peak()))
            .sum()
    }

    /// Every bank, indexed by flat (channel, rank, bank) unit.
    pub fn banks(&self) -> &[Bank] {
        &self.banks
    }

    /// The flat bank unit of a location (the index into [`DramModule::banks`]).
    pub fn bank_unit(&self, location: &DramAddress) -> u32 {
        location.bank_unit(&self.config.geometry)
    }

    /// The cycle at which bank `unit` rolls into its next refresh window:
    /// an access before it cannot roll the window.
    pub fn window_end(&self, unit: u32) -> Cycles {
        self.banks[unit as usize].window_start() + Cycles::new(self.config.timings.refresh_window)
    }

    /// The disturbance at which a byte of `row` of bank `unit` that
    /// `in_scope` accepts (by byte offset in the row) flips next, if one
    /// of its weak cells is left to flip in this refresh window.
    pub fn next_flip_threshold(
        &self,
        unit: u32,
        row: u32,
        in_scope: impl Fn(u32) -> bool,
    ) -> Option<u32> {
        self.banks[unit as usize].next_flip_threshold(row, &self.flip_model, in_scope)
    }

    /// Decodes a physical address without performing an access.
    pub fn locate(&self, paddr: PhysAddr) -> DramAddress {
        self.mapping.to_dram(paddr)
    }

    /// Returns true when the two addresses map to the same (channel, rank, bank).
    pub fn same_bank(&self, a: PhysAddr, b: PhysAddr) -> bool {
        self.mapping.same_bank(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vulnerability::FlipModelProfile;

    fn module() -> DramModule {
        DramModule::new(DramConfig::test_small(FlipModelProfile::ci(), 3))
    }

    #[test]
    fn hit_miss_conflict_latencies() {
        let mut dram = module();
        let row_span = dram.config().geometry.row_span_bytes();
        let a = PhysAddr::new(0);
        let conflicting = PhysAddr::new(4 * row_span); // same bank, different row

        let miss = dram.access(a, Cycles::new(0));
        assert_eq!(miss.row_buffer, RowBufferOutcome::Miss);
        let hit = dram.access(a, Cycles::new(1000));
        assert_eq!(hit.row_buffer, RowBufferOutcome::Hit);
        let conflict = dram.access(conflicting, Cycles::new(2000));
        assert_eq!(conflict.row_buffer, RowBufferOutcome::Conflict);
        assert!(hit.latency < miss.latency);
        assert!(miss.latency < conflict.latency);

        let stats = dram.stats();
        assert_eq!(stats.accesses, 3);
        assert_eq!(stats.row_hits, 1);
        assert_eq!(stats.row_misses, 1);
        assert_eq!(stats.row_conflicts, 1);
        assert_eq!(stats.activations, 2);
        // Rows 0 and 4 disturb rows 1, 3 and 5: one chunk of one bank.
        assert_eq!(dram.row_chunks_peak(), 1);
    }

    #[test]
    fn row_buffer_hits_do_not_count_activations() {
        let mut dram = module();
        for i in 0..100u64 {
            dram.access(PhysAddr::new(0x40), Cycles::new(i * 10));
        }
        assert_eq!(dram.stats().activations, 1);
        assert_eq!(dram.stats().row_hits, 99);
    }

    #[test]
    fn different_banks_do_not_conflict() {
        let mut dram = module();
        let row_bytes = dram.config().geometry.row_bytes as u64;
        let a = PhysAddr::new(0);
        let b = PhysAddr::new(row_bytes); // next bank, same row index
        assert!(!dram.same_bank(a, b));
        dram.access(a, Cycles::new(0));
        let out = dram.access(b, Cycles::new(100));
        assert_eq!(out.row_buffer, RowBufferOutcome::Miss);
    }

    #[test]
    fn flip_events_land_in_adjacent_row_and_roundtrip_addresses() {
        let mut dram = module();
        let geometry = dram.config().geometry;
        let row_span = geometry.row_span_bytes();

        // Find a weak victim row in bank unit of address 0's bank by scanning.
        let model = dram.flip_model().clone();
        let base_loc = dram.locate(PhysAddr::new(0));
        let victim = (1..geometry.rows_per_bank - 1)
            .find(|&r| model.row_is_weak(base_loc.bank_unit(&geometry), r))
            .expect("ci profile has weak rows");

        // Hammer the two neighbours of the victim row (double-sided) using
        // physical addresses reconstructed through the mapping.
        let mapping = *dram.mapping();
        let low = mapping.to_phys(DramAddress {
            row: victim - 1,
            ..base_loc
        });
        let high = mapping.to_phys(DramAddress {
            row: victim + 1,
            ..base_loc
        });
        assert_eq!(high - low, 2 * row_span);

        let mut all_flips = Vec::new();
        let mut now = Cycles::ZERO;
        for _ in 0..1000 {
            for addr in [low, high] {
                let out = dram.access(addr, now);
                all_flips.extend(out.flips);
                now += Cycles::new(300);
            }
        }
        assert!(!all_flips.is_empty(), "expected flips with the ci profile");
        for flip in &all_flips {
            // Flips are in rows adjacent to an aggressor; at least one must be
            // in the victim row itself.
            assert!(flip.location.row.abs_diff(victim) <= 2);
            // The flip's physical address decodes back to its DRAM location.
            assert_eq!(dram.locate(flip.paddr), flip.location);
        }
        assert!(all_flips.iter().any(|f| f.location.row == victim));
        assert_eq!(dram.stats().flips, all_flips.len() as u64);
    }

    #[test]
    #[should_panic(expected = "beyond DRAM capacity")]
    fn out_of_range_access_panics() {
        let mut dram = module();
        let cap = dram.config().geometry.capacity_bytes();
        dram.access(PhysAddr::new(cap), Cycles::new(0));
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut dram = module();
        dram.access(PhysAddr::new(0), Cycles::new(0));
        assert_eq!(dram.stats().accesses, 1);
        dram.reset_stats();
        assert_eq!(dram.stats().accesses, 0);
    }

    #[test]
    fn full_size_module_constructs() {
        let dram = DramModule::new(DramConfig::ddr3_8gib(FlipModelProfile::paper(), 1));
        assert_eq!(dram.config().geometry.capacity_bytes(), 8 << 30);
        assert_eq!(dram.config().geometry.total_banks() as usize, 32usize);
        assert_eq!(dram.row_chunks_peak(), 0);
    }
}
