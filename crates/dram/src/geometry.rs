//! DRAM geometry: channels, ranks, banks, rows, and row size.

use serde::Serialize;

/// The physical organisation of the simulated DRAM.
///
/// All dimensions must be powers of two so that physical addresses decompose
/// into bit fields. The default 8 GiB DDR3 geometry mirrors the test machines
/// of Table I: two channels, two ranks per channel, eight banks per rank,
/// 32 768 rows per bank and 8 KiB per bank-row. One *row index* therefore
/// spans `8 KiB × 8 banks × 2 ranks × 2 channels = 256 KiB` of contiguous
/// physical address space, matching the `RowSize = 256 KiB` the paper uses
/// when selecting double-sided hammer pairs.
///
/// # Examples
///
/// ```
/// use pthammer_dram::DramGeometry;
/// let g = DramGeometry::ddr3_8gib();
/// assert_eq!(g.capacity_bytes(), 8 * 1024 * 1024 * 1024);
/// assert_eq!(g.row_span_bytes(), 256 * 1024);
/// assert_eq!(g.total_banks(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct DramGeometry {
    /// Number of memory channels.
    pub channels: u32,
    /// Number of ranks per channel.
    pub ranks_per_channel: u32,
    /// Number of banks per rank.
    pub banks_per_rank: u32,
    /// Number of rows per bank.
    pub rows_per_bank: u32,
    /// Bytes stored in one row of one bank.
    pub row_bytes: u32,
}

impl DramGeometry {
    /// The 8 GiB DDR3 geometry used by the Table I machines.
    pub const fn ddr3_8gib() -> Self {
        Self {
            channels: 2,
            ranks_per_channel: 2,
            banks_per_rank: 8,
            rows_per_bank: 32_768,
            row_bytes: 8_192,
        }
    }

    /// A deliberately tiny geometry (32 MiB) for fast unit tests.
    pub const fn tiny_32mib() -> Self {
        Self {
            channels: 1,
            ranks_per_channel: 1,
            banks_per_rank: 4,
            rows_per_bank: 1_024,
            row_bytes: 8_192,
        }
    }

    /// A small 1 GiB geometry useful for integration tests that still want a
    /// realistic bank count.
    pub const fn small_1gib() -> Self {
        Self {
            channels: 2,
            ranks_per_channel: 1,
            banks_per_rank: 8,
            rows_per_bank: 8_192,
            row_bytes: 8_192,
        }
    }

    /// Validates that every dimension is a non-zero power of two.
    ///
    /// # Errors
    ///
    /// Returns a description of the first offending field.
    pub fn validate(&self) -> Result<(), String> {
        let fields = [
            ("channels", self.channels),
            ("ranks_per_channel", self.ranks_per_channel),
            ("banks_per_rank", self.banks_per_rank),
            ("rows_per_bank", self.rows_per_bank),
            ("row_bytes", self.row_bytes),
        ];
        for (name, value) in fields {
            if value == 0 || !value.is_power_of_two() {
                return Err(format!(
                    "DRAM geometry field `{name}` must be a non-zero power of two, got {value}"
                ));
            }
        }
        Ok(())
    }

    /// Total number of (channel, rank, bank) units.
    pub const fn total_banks(&self) -> u32 {
        self.channels * self.ranks_per_channel * self.banks_per_rank
    }

    /// Total capacity in bytes.
    pub const fn capacity_bytes(&self) -> u64 {
        self.total_banks() as u64 * self.rows_per_bank as u64 * self.row_bytes as u64
    }

    /// Bytes of contiguous physical address space covered by one row index
    /// across all banks (`row_bytes × total_banks`).
    pub const fn row_span_bytes(&self) -> u64 {
        self.row_bytes as u64 * self.total_banks() as u64
    }

    /// Number of 4 KiB frames in the module.
    pub const fn total_frames(&self) -> u64 {
        self.capacity_bytes() / 4096
    }

    /// log2 of the per-bank row size in bytes (the column field width).
    pub fn column_bits(&self) -> u32 {
        self.row_bytes.trailing_zeros()
    }

    /// log2 of the channel count.
    pub fn channel_bits(&self) -> u32 {
        self.channels.trailing_zeros()
    }

    /// log2 of the banks-per-rank count.
    pub fn bank_bits(&self) -> u32 {
        self.banks_per_rank.trailing_zeros()
    }

    /// log2 of the ranks-per-channel count.
    pub fn rank_bits(&self) -> u32 {
        self.ranks_per_channel.trailing_zeros()
    }

    /// log2 of the rows-per-bank count.
    pub fn row_bits(&self) -> u32 {
        self.rows_per_bank.trailing_zeros()
    }

    /// Number of address bits consumed below the row field
    /// (column + channel + bank + rank).
    pub fn row_shift(&self) -> u32 {
        self.column_bits() + self.channel_bits() + self.bank_bits() + self.rank_bits()
    }
}

impl Default for DramGeometry {
    fn default() -> Self {
        Self::ddr3_8gib()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr3_8gib_capacity() {
        let g = DramGeometry::ddr3_8gib();
        assert!(g.validate().is_ok());
        assert_eq!(g.capacity_bytes(), 8 << 30);
        assert_eq!(g.total_banks(), 32);
        assert_eq!(g.row_span_bytes(), 256 * 1024);
        assert_eq!(g.total_frames(), (8 << 30) / 4096);
    }

    #[test]
    fn tiny_geometry_is_valid() {
        let g = DramGeometry::tiny_32mib();
        assert!(g.validate().is_ok());
        assert_eq!(g.capacity_bytes(), 32 << 20);
    }

    #[test]
    fn small_geometry_is_valid() {
        let g = DramGeometry::small_1gib();
        assert!(g.validate().is_ok());
        assert_eq!(g.capacity_bytes(), 1 << 30);
    }

    #[test]
    fn bit_field_widths() {
        let g = DramGeometry::ddr3_8gib();
        assert_eq!(g.column_bits(), 13);
        assert_eq!(g.channel_bits(), 1);
        assert_eq!(g.bank_bits(), 3);
        assert_eq!(g.rank_bits(), 1);
        assert_eq!(g.row_bits(), 15);
        assert_eq!(g.row_shift(), 18);
        // Row span granularity equals 2^row_shift.
        assert_eq!(g.row_span_bytes(), 1 << g.row_shift());
    }

    #[test]
    fn validate_rejects_non_power_of_two() {
        let mut g = DramGeometry::ddr3_8gib();
        g.banks_per_rank = 6;
        let err = g.validate().unwrap_err();
        assert!(err.contains("banks_per_rank"));
        g.banks_per_rank = 0;
        assert!(g.validate().is_err());
    }

    #[test]
    fn default_is_8gib() {
        assert_eq!(DramGeometry::default(), DramGeometry::ddr3_8gib());
    }
}
