//! Bit-flip events emitted by the DRAM model.

use core::fmt;

use serde::Serialize;

use pthammer_types::{CellOrientation, FlipDirection, PhysAddr};

use crate::address::DramAddress;

/// A rowhammer-induced bit flip observed by the DRAM model.
///
/// The DRAM model does not store data, so a flip event only identifies *where*
/// the disturbance landed and in which direction the bit can move; the machine
/// layer applies the event to its physical-memory contents (a flip whose
/// direction does not match the currently stored bit is a no-op, exactly as
/// in real hardware where a discharged cell cannot discharge further).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct FlipEvent {
    /// Physical address of the byte containing the flipped cell.
    pub paddr: PhysAddr,
    /// DRAM location of the victim cell.
    pub location: DramAddress,
    /// Bit position within the byte (0–7).
    pub bit: u8,
    /// Cell orientation (determines the flip direction).
    pub orientation: CellOrientation,
    /// Disturbance count (adjacent activations within the refresh window)
    /// observed when the flip fired.
    pub disturbance: u32,
}

impl FlipEvent {
    /// The direction in which this flip changes the stored bit.
    pub fn direction(&self) -> FlipDirection {
        self.orientation.flip_direction()
    }
}

impl fmt::Display for FlipEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "flip {} bit {} at {} ({}) after {} activations",
            self.direction(),
            self.bit,
            self.paddr,
            self.location,
            self.disturbance
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FlipEvent {
        FlipEvent {
            paddr: PhysAddr::new(0x1000),
            location: DramAddress {
                channel: 0,
                rank: 1,
                bank: 2,
                row: 3,
                col: 4,
            },
            bit: 5,
            orientation: CellOrientation::TrueCell,
            disturbance: 1234,
        }
    }

    #[test]
    fn direction_follows_orientation() {
        let mut e = sample();
        assert_eq!(e.direction(), FlipDirection::OneToZero);
        e.orientation = CellOrientation::AntiCell;
        assert_eq!(e.direction(), FlipDirection::ZeroToOne);
    }

    #[test]
    fn display_mentions_location() {
        let s = sample().to_string();
        assert!(s.contains("bit 5"));
        assert!(s.contains("row3"));
        assert!(s.contains("1234"));
    }
}
