//! Mapping between physical addresses and DRAM locations.

use core::fmt;

use serde::Serialize;

use pthammer_types::PhysAddr;

use crate::geometry::DramGeometry;

/// A fully decoded DRAM location.
///
/// `col` is the byte offset within the (bank, row) — i.e. within one 8 KiB
/// bank-row for the default geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct DramAddress {
    /// Channel index.
    pub channel: u32,
    /// Rank index within the channel.
    pub rank: u32,
    /// Bank index within the rank.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u32,
    /// Byte offset within the bank-row.
    pub col: u32,
}

impl DramAddress {
    /// A flat identifier of the (channel, rank, bank) unit, used to index bank state.
    pub fn bank_unit(&self, geometry: &DramGeometry) -> u32 {
        (self.channel * geometry.ranks_per_channel + self.rank) * geometry.banks_per_rank
            + self.bank
    }

    /// Returns true if `other` refers to the same (channel, rank, bank).
    pub fn same_bank(&self, other: &DramAddress) -> bool {
        self.channel == other.channel && self.rank == other.rank && self.bank == other.bank
    }
}

impl fmt::Display for DramAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ch{} rk{} bk{} row{} col{:#x}",
            self.channel, self.rank, self.bank, self.row, self.col
        )
    }
}

/// Translates physical addresses to DRAM locations and back.
///
/// The mapping is a plain bit-field split, laid out as
/// `| row | rank | bank | channel | column |` (low to high bits: column,
/// channel, bank, rank, row). Two addresses that differ by exactly two row
/// spans land in the same bank two rows apart — the property the paper's
/// 256 MiB-stride pair selection exploits.
///
/// # Examples
///
/// ```
/// use pthammer_dram::{AddressMapping, DramGeometry};
/// use pthammer_types::PhysAddr;
///
/// let mapping = AddressMapping::new(DramGeometry::ddr3_8gib());
/// let pa = PhysAddr::new(0x1234_5678);
/// let loc = mapping.to_dram(pa);
/// assert_eq!(mapping.to_phys(loc), pa);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct AddressMapping {
    geometry: DramGeometry,
}

impl AddressMapping {
    /// Creates a mapping for the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (non-power-of-two fields).
    pub fn new(geometry: DramGeometry) -> Self {
        geometry
            .validate()
            .expect("address mapping requires a valid geometry");
        Self { geometry }
    }

    /// The geometry this mapping was built for.
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// Decodes a physical address into its DRAM location.
    ///
    /// Addresses beyond the module capacity wrap around (the high bits are
    /// masked off); the machine layer is responsible for never issuing such
    /// addresses.
    pub fn to_dram(&self, paddr: PhysAddr) -> DramAddress {
        let g = &self.geometry;
        let mut addr = paddr.as_u64();

        let col = (addr & mask(g.column_bits())) as u32;
        addr >>= g.column_bits();
        let channel = (addr & mask(g.channel_bits())) as u32;
        addr >>= g.channel_bits();
        let bank = (addr & mask(g.bank_bits())) as u32;
        addr >>= g.bank_bits();
        let rank = (addr & mask(g.rank_bits())) as u32;
        addr >>= g.rank_bits();
        let row = (addr & mask(g.row_bits())) as u32;

        DramAddress {
            channel,
            rank,
            bank,
            row,
            col,
        }
    }

    /// Encodes a DRAM location back into a physical address (inverse of
    /// [`AddressMapping::to_dram`]).
    pub fn to_phys(&self, addr: DramAddress) -> PhysAddr {
        let g = &self.geometry;
        let mut raw = addr.row as u64 & mask(g.row_bits());
        raw = (raw << g.rank_bits()) | (addr.rank as u64 & mask(g.rank_bits()));
        raw = (raw << g.bank_bits()) | (addr.bank as u64 & mask(g.bank_bits()));
        raw = (raw << g.channel_bits()) | (addr.channel as u64 & mask(g.channel_bits()));
        raw = (raw << g.column_bits()) | (addr.col as u64 & mask(g.column_bits()));
        PhysAddr::new(raw)
    }

    /// Returns the row index (`paddr >> row_shift`) — the granularity the
    /// paper calls a "row index" spanning [`DramGeometry::row_span_bytes`].
    pub fn row_index(&self, paddr: PhysAddr) -> u32 {
        self.to_dram(paddr).row
    }

    /// Returns true if the two physical addresses fall in the same
    /// (channel, rank, bank).
    pub fn same_bank(&self, a: PhysAddr, b: PhysAddr) -> bool {
        self.to_dram(a).same_bank(&self.to_dram(b))
    }
}

fn mask(bits: u32) -> u64 {
    if bits == 0 {
        0
    } else {
        (1u64 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mappings() -> Vec<AddressMapping> {
        vec![
            AddressMapping::new(DramGeometry::ddr3_8gib()),
            AddressMapping::new(DramGeometry::tiny_32mib()),
            AddressMapping::new(DramGeometry::small_1gib()),
        ]
    }

    #[test]
    fn roundtrip_selected_addresses() {
        for m in mappings() {
            for raw in [0u64, 64, 4096, 0x1234_5678, 0x7fff_ffc0] {
                let raw = raw % m.geometry().capacity_bytes();
                let pa = PhysAddr::new(raw);
                assert_eq!(m.to_phys(m.to_dram(pa)), pa, "mapping {:?}", m.geometry());
            }
        }
    }

    #[test]
    fn consecutive_row_spans_differ_only_in_row() {
        let m = AddressMapping::new(DramGeometry::ddr3_8gib());
        let span = m.geometry().row_span_bytes();
        let a = m.to_dram(PhysAddr::new(0x100));
        let b = m.to_dram(PhysAddr::new(0x100 + 2 * span));
        assert!(a.same_bank(&b));
        assert_eq!(b.row, a.row + 2);
        assert_eq!(a.col, b.col);
        assert_eq!(a.channel, b.channel);
    }

    #[test]
    fn bank_unit_is_dense_and_unique() {
        let g = DramGeometry::ddr3_8gib();
        let m = AddressMapping::new(g);
        let mut seen = std::collections::HashSet::new();
        // Walk one byte in each bank unit of row 0.
        for chunk in 0..g.total_banks() {
            let pa = PhysAddr::new(chunk as u64 * g.row_bytes as u64);
            let unit = m.to_dram(pa).bank_unit(&g);
            assert!(unit < g.total_banks());
            seen.insert(unit);
        }
        assert_eq!(seen.len(), g.total_banks() as usize);
    }

    #[test]
    fn row_index_matches_row_span_division() {
        let m = AddressMapping::new(DramGeometry::ddr3_8gib());
        let span = m.geometry().row_span_bytes();
        for raw in [0, span - 1, span, 5 * span + 123] {
            assert_eq!(m.row_index(PhysAddr::new(raw)) as u64, raw / span);
        }
    }

    #[test]
    fn same_bank_is_reflexive() {
        for m in mappings() {
            let pa = PhysAddr::new(0x00be_efc0 % m.geometry().capacity_bytes());
            assert!(m.same_bank(pa, pa));
        }
    }

    #[test]
    #[should_panic(expected = "valid geometry")]
    fn invalid_geometry_panics() {
        let mut g = DramGeometry::ddr3_8gib();
        g.channels = 3;
        let _ = AddressMapping::new(g);
    }

    proptest! {
        #[test]
        fn prop_roundtrip_sequential(raw in 0u64..(8u64 << 30)) {
            let m = AddressMapping::new(DramGeometry::ddr3_8gib());
            let pa = PhysAddr::new(raw);
            prop_assert_eq!(m.to_phys(m.to_dram(pa)), pa);
        }

        #[test]
        fn prop_fields_in_range(raw in 0u64..(8u64 << 30)) {
            let g = DramGeometry::ddr3_8gib();
            let m = AddressMapping::new(g);
            let d = m.to_dram(PhysAddr::new(raw));
            prop_assert!(d.channel < g.channels);
            prop_assert!(d.rank < g.ranks_per_channel);
            prop_assert!(d.bank < g.banks_per_rank);
            prop_assert!(d.row < g.rows_per_bank);
            prop_assert!(d.col < g.row_bytes);
            prop_assert!(d.bank_unit(&g) < g.total_banks());
        }
    }
}
