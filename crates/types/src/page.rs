//! Page sizes supported by the simulated MMU.

use core::fmt;

use serde::Serialize;

use crate::{HUGE_PAGE_SIZE, PAGE_SIZE};

/// The page size backing a virtual mapping.
///
/// The paper evaluates PThammer in two system settings: the default 4 KiB page
/// configuration and a configuration with 2 MiB superpages enabled (which
/// leaks physical address bits 0–20 to the attacker and speeds up LLC
/// eviction-pool preparation, cf. Table II).
///
/// # Examples
///
/// ```
/// use pthammer_types::PageSize;
/// assert_eq!(PageSize::Base4K.bytes(), 4096);
/// assert_eq!(PageSize::Huge2M.bytes(), 2 * 1024 * 1024);
/// assert_eq!(PageSize::Huge2M.known_physical_bits(), 21);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize)]
pub enum PageSize {
    /// Regular 4 KiB page.
    #[default]
    Base4K,
    /// 2 MiB superpage (huge page).
    Huge2M,
}

impl PageSize {
    /// Returns the page size in bytes.
    pub const fn bytes(self) -> u64 {
        match self {
            PageSize::Base4K => PAGE_SIZE,
            PageSize::Huge2M => HUGE_PAGE_SIZE,
        }
    }

    /// Number of low physical-address bits shared with the virtual address
    /// for a mapping of this size (12 for 4 KiB pages, 21 for superpages).
    pub const fn known_physical_bits(self) -> u32 {
        match self {
            PageSize::Base4K => 12,
            PageSize::Huge2M => 21,
        }
    }

    /// Returns true when this is a superpage mapping.
    pub const fn is_huge(self) -> bool {
        matches!(self, PageSize::Huge2M)
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageSize::Base4K => write!(f, "4 KiB"),
            PageSize::Huge2M => write!(f, "2 MiB"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_bits() {
        assert_eq!(PageSize::Base4K.bytes(), 4096);
        assert_eq!(PageSize::Huge2M.bytes(), 2 * 1024 * 1024);
        assert_eq!(PageSize::Base4K.known_physical_bits(), 12);
        assert_eq!(PageSize::Huge2M.known_physical_bits(), 21);
        assert!(!PageSize::Base4K.is_huge());
        assert!(PageSize::Huge2M.is_huge());
    }

    #[test]
    fn default_is_base_page() {
        assert_eq!(PageSize::default(), PageSize::Base4K);
    }

    #[test]
    fn display() {
        assert_eq!(PageSize::Base4K.to_string(), "4 KiB");
        assert_eq!(PageSize::Huge2M.to_string(), "2 MiB");
    }
}
