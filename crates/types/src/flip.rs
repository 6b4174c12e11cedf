//! Bit-flip related primitive types shared between the DRAM model and the
//! machine that applies flips to physical memory.

use core::fmt;

use serde::Serialize;

/// The electrical orientation of a DRAM cell.
///
/// Rowhammer disturbance can only discharge a cell, so the observable flip
/// direction depends on whether the cell stores the logical value directly
/// (*true cell*: `1 → 0`) or inverted (*anti cell*: `0 → 1`). The CTA defense
/// (Wu et al., ASPLOS 2019) relies on placing Level-1 page tables exclusively
/// in rows of true cells so that a flip can only lower the physical address a
/// PTE points to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum CellOrientation {
    /// A flip in this cell changes a stored `1` to `0`.
    TrueCell,
    /// A flip in this cell changes a stored `0` to `1`.
    AntiCell,
}

impl CellOrientation {
    /// The flip direction this cell can exhibit.
    pub const fn flip_direction(self) -> FlipDirection {
        match self {
            CellOrientation::TrueCell => FlipDirection::OneToZero,
            CellOrientation::AntiCell => FlipDirection::ZeroToOne,
        }
    }
}

impl fmt::Display for CellOrientation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellOrientation::TrueCell => write!(f, "true-cell"),
            CellOrientation::AntiCell => write!(f, "anti-cell"),
        }
    }
}

/// The direction of an observable rowhammer bit flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum FlipDirection {
    /// A stored `1` became `0`.
    OneToZero,
    /// A stored `0` became `1`.
    ZeroToOne,
}

impl FlipDirection {
    /// Applies the flip to `byte` at bit position `bit`, returning the new
    /// byte value, or `None` if the current bit value cannot flip in this
    /// direction (e.g. the bit is already `0` for a `1 → 0` flip).
    pub fn apply(self, byte: u8, bit: u8) -> Option<u8> {
        let mask = 1u8 << bit;
        let is_set = byte & mask != 0;
        match self {
            FlipDirection::OneToZero if is_set => Some(byte & !mask),
            FlipDirection::ZeroToOne if !is_set => Some(byte | mask),
            _ => None,
        }
    }
}

impl fmt::Display for FlipDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlipDirection::OneToZero => write!(f, "1→0"),
            FlipDirection::ZeroToOne => write!(f, "0→1"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orientation_maps_to_direction() {
        assert_eq!(
            CellOrientation::TrueCell.flip_direction(),
            FlipDirection::OneToZero
        );
        assert_eq!(
            CellOrientation::AntiCell.flip_direction(),
            FlipDirection::ZeroToOne
        );
    }

    #[test]
    fn apply_one_to_zero() {
        assert_eq!(FlipDirection::OneToZero.apply(0b1010, 1), Some(0b1000));
        assert_eq!(FlipDirection::OneToZero.apply(0b1000, 1), None);
    }

    #[test]
    fn apply_zero_to_one() {
        assert_eq!(FlipDirection::ZeroToOne.apply(0b1000, 1), Some(0b1010));
        assert_eq!(FlipDirection::ZeroToOne.apply(0b1010, 1), None);
    }

    #[test]
    fn apply_is_idempotent_per_direction() {
        let b = 0b0100u8;
        let flipped = FlipDirection::OneToZero.apply(b, 2).unwrap();
        assert_eq!(FlipDirection::OneToZero.apply(flipped, 2), None);
    }

    #[test]
    fn display() {
        assert_eq!(FlipDirection::OneToZero.to_string(), "1→0");
        assert_eq!(CellOrientation::TrueCell.to_string(), "true-cell");
    }
}
