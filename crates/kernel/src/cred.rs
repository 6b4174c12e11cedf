//! In-memory process credentials (`struct cred`).
//!
//! Credentials are written into kernel data frames with a recognisable
//! layout, mirroring how Linux slab-allocates `struct cred`. The CTA bypass
//! of Section IV-G3 sprays thousands of processes so that a corrupted L1PTE
//! has a fair chance of landing write access on a page full of credentials;
//! the attacker then recognises its own uid/gid in the page and overwrites
//! them with zero.

use serde::Serialize;

use pthammer_types::PhysAddr;

/// Magic value marking the start of a serialized credential.
pub const CRED_MAGIC: u64 = 0x4352_4544_5F4D_4147; // "CRED_MAG"
/// Size of one serialized credential in bytes.
pub const CRED_SIZE: u64 = 64;
/// Number of credentials per 4 KiB kernel frame.
pub const CREDS_PER_FRAME: u64 = 4096 / CRED_SIZE;

/// A process credential.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Cred {
    /// Real user id.
    pub uid: u32,
    /// Real group id.
    pub gid: u32,
    /// Effective user id.
    pub euid: u32,
    /// Effective group id.
    pub egid: u32,
    /// Owning process id (for bookkeeping, also stored in memory).
    pub pid: u32,
}

impl Cred {
    /// Creates a credential for an unprivileged user.
    pub fn user(pid: u32, uid: u32) -> Self {
        Self {
            uid,
            gid: uid,
            euid: uid,
            egid: uid,
            pid,
        }
    }

    /// True when the credential grants root.
    pub fn is_root(&self) -> bool {
        self.euid == 0
    }

    /// Serializes the credential to its in-memory layout:
    /// `magic (8) | uid (4) | gid (4) | euid (4) | egid (4) | pid (4) | pad`.
    pub fn to_bytes(&self) -> [u8; CRED_SIZE as usize] {
        let mut bytes = [0u8; CRED_SIZE as usize];
        bytes[0..8].copy_from_slice(&CRED_MAGIC.to_le_bytes());
        bytes[8..12].copy_from_slice(&self.uid.to_le_bytes());
        bytes[12..16].copy_from_slice(&self.gid.to_le_bytes());
        bytes[16..20].copy_from_slice(&self.euid.to_le_bytes());
        bytes[20..24].copy_from_slice(&self.egid.to_le_bytes());
        bytes[24..28].copy_from_slice(&self.pid.to_le_bytes());
        bytes
    }

    /// Parses a credential from its in-memory layout. Returns `None` when the
    /// magic value does not match.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < CRED_SIZE as usize {
            return None;
        }
        let magic = u64::from_le_bytes(bytes[0..8].try_into().ok()?);
        if magic != CRED_MAGIC {
            return None;
        }
        Some(Self {
            uid: u32::from_le_bytes(bytes[8..12].try_into().ok()?),
            gid: u32::from_le_bytes(bytes[12..16].try_into().ok()?),
            euid: u32::from_le_bytes(bytes[16..20].try_into().ok()?),
            egid: u32::from_le_bytes(bytes[20..24].try_into().ok()?),
            pid: u32::from_le_bytes(bytes[24..28].try_into().ok()?),
        })
    }

    /// Byte offset of the uid field within the serialized layout.
    pub const fn uid_offset() -> u64 {
        8
    }

    /// Byte offset of the euid field within the serialized layout.
    pub const fn euid_offset() -> u64 {
        16
    }
}

/// Physical location of a credential slot within the cred arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CredSlot {
    /// Physical address of the serialized credential.
    pub paddr: PhysAddr,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let cred = Cred {
            uid: 1000,
            gid: 1000,
            euid: 1000,
            egid: 100,
            pid: 4242,
        };
        let bytes = cred.to_bytes();
        assert_eq!(Cred::from_bytes(&bytes), Some(cred));
    }

    #[test]
    fn wrong_magic_rejected() {
        let cred = Cred::user(1, 1000);
        let mut bytes = cred.to_bytes();
        bytes[0] ^= 0xff;
        assert_eq!(Cred::from_bytes(&bytes), None);
    }

    #[test]
    fn short_buffer_rejected() {
        assert_eq!(Cred::from_bytes(&[0u8; 16]), None);
    }

    #[test]
    fn root_detection() {
        assert!(!Cred::user(1, 1000).is_root());
        let mut c = Cred::user(1, 1000);
        c.euid = 0;
        assert!(c.is_root());
    }

    #[test]
    fn layout_constants_consistent() {
        assert_eq!(CRED_SIZE * CREDS_PER_FRAME, 4096);
        let cred = Cred::user(7, 1234);
        let bytes = cred.to_bytes();
        let uid = u32::from_le_bytes(
            bytes[Cred::uid_offset() as usize..Cred::uid_offset() as usize + 4]
                .try_into()
                .unwrap(),
        );
        assert_eq!(uid, 1234);
        let euid = u32::from_le_bytes(
            bytes[Cred::euid_offset() as usize..Cred::euid_offset() as usize + 4]
                .try_into()
                .unwrap(),
        );
        assert_eq!(euid, 1234);
    }
}
