//! Sparse physical-memory contents.

use serde::Serialize;

use pthammer_dram::FlipEvent;
use pthammer_types::{DetHashMap, FlipDirection, PhysAddr, PAGE_SIZE};

/// Contents of one 4 KiB physical frame.
///
/// Frames whose 512 qwords are all equal (zeroed frames, freshly sprayed
/// Level-1 page tables) are stored as a single value; they are upgraded to a
/// full byte array on the first non-uniform write. This keeps multi-gigabyte
/// page-table sprays cheap in host memory.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
enum FrameContents {
    /// Every aligned 64-bit word of the frame holds this value.
    Uniform(u64),
    /// Fully materialised frame contents.
    Bytes(Box<[u8]>),
}

impl FrameContents {
    fn materialise(&mut self) -> &mut [u8] {
        if let FrameContents::Uniform(value) = *self {
            let mut bytes = vec![0u8; PAGE_SIZE as usize];
            for chunk in bytes.chunks_exact_mut(8) {
                chunk.copy_from_slice(&value.to_le_bytes());
            }
            *self = FrameContents::Bytes(bytes.into_boxed_slice());
        }
        match self {
            FrameContents::Bytes(b) => b,
            FrameContents::Uniform(_) => unreachable!("just materialised"),
        }
    }
}

/// A bit flip that was actually applied to physical memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct AppliedFlip {
    /// Physical address of the affected byte.
    pub paddr: PhysAddr,
    /// Bit index within the byte.
    pub bit: u8,
    /// Byte value before the flip.
    pub old: u8,
    /// Byte value after the flip.
    pub new: u8,
}

/// Sparse physical memory: only frames that were ever written are stored.
///
/// Reads of untouched frames return zero, mirroring zero-initialised DRAM in
/// the simulation (real DRAM content would be arbitrary; zero keeps the
/// experiments deterministic). The frame map is the single hottest map in
/// the simulator (every data value and page-table entry read goes through
/// it), so it uses the deterministic fast hasher; hash order is never
/// observable — the map is only ever probed by key, and serialization sorts
/// entries.
#[derive(Debug, Clone, Default, Serialize)]
pub struct PhysicalMemory {
    frames: DetHashMap<u64, FrameContents>,
    capacity_bytes: u64,
}

impl PhysicalMemory {
    /// Creates a physical memory of the given capacity.
    pub fn new(capacity_bytes: u64) -> Self {
        Self {
            frames: DetHashMap::default(),
            capacity_bytes,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Number of frames with materialised or uniform contents.
    pub fn resident_frames(&self) -> usize {
        self.frames.len()
    }

    fn check(&self, paddr: PhysAddr, len: u64) {
        assert!(
            paddr.as_u64() + len <= self.capacity_bytes,
            "physical access at {paddr} (+{len}) beyond capacity {:#x}",
            self.capacity_bytes
        );
    }

    /// Reads the naturally-aligned u64 at `paddr`.
    ///
    /// # Panics
    ///
    /// Panics if the address is unaligned or out of range.
    #[inline]
    pub fn read_u64(&self, paddr: PhysAddr) -> u64 {
        self.check(paddr, 8);
        assert!(paddr.is_pte_aligned(), "read_u64 requires 8-byte alignment");
        match self.frames.get(&paddr.frame_number()) {
            None => 0,
            Some(FrameContents::Uniform(v)) => *v,
            Some(FrameContents::Bytes(bytes)) => {
                let off = paddr.page_offset() as usize;
                u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"))
            }
        }
    }

    /// Writes the naturally-aligned u64 at `paddr`.
    ///
    /// # Panics
    ///
    /// Panics if the address is unaligned or out of range.
    pub fn write_u64(&mut self, paddr: PhysAddr, value: u64) {
        self.check(paddr, 8);
        assert!(
            paddr.is_pte_aligned(),
            "write_u64 requires 8-byte alignment"
        );
        let frame = paddr.frame_number();
        let entry = self
            .frames
            .entry(frame)
            .or_insert(FrameContents::Uniform(0));
        if let FrameContents::Uniform(current) = entry {
            if *current == value {
                return; // already uniform with this value
            }
        }
        let bytes = entry.materialise();
        let off = paddr.page_offset() as usize;
        bytes[off..off + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads a single byte.
    pub fn read_u8(&self, paddr: PhysAddr) -> u8 {
        self.check(paddr, 1);
        match self.frames.get(&paddr.frame_number()) {
            None => 0,
            Some(FrameContents::Uniform(v)) => v.to_le_bytes()[(paddr.as_u64() % 8) as usize],
            Some(FrameContents::Bytes(bytes)) => bytes[paddr.page_offset() as usize],
        }
    }

    /// Writes a single byte.
    pub fn write_u8(&mut self, paddr: PhysAddr, value: u8) {
        self.check(paddr, 1);
        let frame = paddr.frame_number();
        let entry = self
            .frames
            .entry(frame)
            .or_insert(FrameContents::Uniform(0));
        let bytes = entry.materialise();
        bytes[paddr.page_offset() as usize] = value;
    }

    /// Fills the whole frame containing `paddr` with a repeated u64 value in
    /// O(1) space (used when the kernel populates uniform page tables or
    /// zeroes a frame).
    pub fn write_frame_uniform(&mut self, frame: u64, value: u64) {
        assert!(
            (frame + 1) * PAGE_SIZE <= self.capacity_bytes,
            "frame {frame} beyond capacity"
        );
        self.frames.insert(frame, FrameContents::Uniform(value));
    }

    /// Copies `data` into memory starting at `paddr`.
    pub fn write_bytes(&mut self, paddr: PhysAddr, data: &[u8]) {
        for (i, &b) in data.iter().enumerate() {
            self.write_u8(paddr + i as u64, b);
        }
    }

    /// Reads `len` bytes starting at `paddr`.
    pub fn read_bytes(&self, paddr: PhysAddr, len: usize) -> Vec<u8> {
        (0..len).map(|i| self.read_u8(paddr + i as u64)).collect()
    }

    /// Applies a DRAM flip event to the stored contents, honouring the cell
    /// orientation. Returns the applied change, or `None` when the current
    /// bit value cannot flip in the event's direction.
    pub fn apply_flip(&mut self, event: &FlipEvent) -> Option<AppliedFlip> {
        let old = self.read_u8(event.paddr);
        let new = match event.direction() {
            FlipDirection::OneToZero => FlipDirection::OneToZero.apply(old, event.bit)?,
            FlipDirection::ZeroToOne => FlipDirection::ZeroToOne.apply(old, event.bit)?,
        };
        self.write_u8(event.paddr, new);
        Some(AppliedFlip {
            paddr: event.paddr,
            bit: event.bit,
            old,
            new,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pthammer_dram::DramAddress;
    use pthammer_types::CellOrientation;

    fn mem() -> PhysicalMemory {
        PhysicalMemory::new(1 << 20)
    }

    #[test]
    fn zero_initialised_reads() {
        let m = mem();
        assert_eq!(m.read_u64(PhysAddr::new(0x1000)), 0);
        assert_eq!(m.read_u8(PhysAddr::new(0xfff)), 0);
        assert_eq!(m.resident_frames(), 0);
    }

    #[test]
    fn u64_roundtrip() {
        let mut m = mem();
        m.write_u64(PhysAddr::new(0x2008), 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_u64(PhysAddr::new(0x2008)), 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_u64(PhysAddr::new(0x2000)), 0);
        assert_eq!(m.read_u8(PhysAddr::new(0x2008)), 0x0d);
    }

    #[test]
    fn uniform_frames_stay_compact_until_heterogeneous_write() {
        let mut m = mem();
        m.write_frame_uniform(5, 0x1111_2222_3333_4444);
        assert_eq!(
            m.read_u64(PhysAddr::from_frame(5, 8)),
            0x1111_2222_3333_4444
        );
        assert_eq!(m.read_u8(PhysAddr::from_frame(5, 0)), 0x44);
        // Writing the same value keeps the compact representation.
        m.write_u64(PhysAddr::from_frame(5, 16), 0x1111_2222_3333_4444);
        // A different value materialises the frame.
        m.write_u64(PhysAddr::from_frame(5, 24), 7);
        assert_eq!(m.read_u64(PhysAddr::from_frame(5, 24)), 7);
        assert_eq!(
            m.read_u64(PhysAddr::from_frame(5, 32)),
            0x1111_2222_3333_4444
        );
    }

    #[test]
    fn byte_and_bytes_helpers() {
        let mut m = mem();
        m.write_bytes(PhysAddr::new(0x3000), b"CRED");
        assert_eq!(m.read_bytes(PhysAddr::new(0x3000), 4), b"CRED");
        m.write_u8(PhysAddr::new(0x3004), 0xff);
        assert_eq!(m.read_u8(PhysAddr::new(0x3004)), 0xff);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn out_of_range_write_panics() {
        let mut m = mem();
        m.write_u64(PhysAddr::new(1 << 20), 1);
    }

    #[test]
    #[should_panic(expected = "alignment")]
    fn unaligned_u64_panics() {
        let m = mem();
        let _ = m.read_u64(PhysAddr::new(0x1001));
    }

    fn flip_event(paddr: u64, bit: u8, orientation: CellOrientation) -> FlipEvent {
        FlipEvent {
            paddr: PhysAddr::new(paddr),
            location: DramAddress {
                channel: 0,
                rank: 0,
                bank: 0,
                row: 1,
                col: 0,
            },
            bit,
            orientation,
            disturbance: 1000,
        }
    }

    #[test]
    fn apply_flip_true_cell_only_clears_set_bits() {
        let mut m = mem();
        m.write_u8(PhysAddr::new(0x100), 0b0000_0100);
        let applied = m
            .apply_flip(&flip_event(0x100, 2, CellOrientation::TrueCell))
            .expect("bit is set, can flip to zero");
        assert_eq!(applied.old, 0b0000_0100);
        assert_eq!(applied.new, 0);
        assert_eq!(m.read_u8(PhysAddr::new(0x100)), 0);
        // Flipping again has no effect: the cell is already discharged.
        assert!(m
            .apply_flip(&flip_event(0x100, 2, CellOrientation::TrueCell))
            .is_none());
    }

    #[test]
    fn apply_flip_anti_cell_only_sets_cleared_bits() {
        let mut m = mem();
        let applied = m
            .apply_flip(&flip_event(0x208, 5, CellOrientation::AntiCell))
            .expect("bit is clear, can flip to one");
        assert_eq!(applied.new, 1 << 5);
        assert!(m
            .apply_flip(&flip_event(0x208, 5, CellOrientation::AntiCell))
            .is_none());
    }

    #[test]
    fn apply_flip_on_uniform_frame_materialises_it() {
        let mut m = mem();
        let pte = 0x0000_0000_0700_0027u64; // some PTE-looking value; byte 3 is 0x07
        m.write_frame_uniform(8, pte);
        let target = PhysAddr::from_frame(8, 2 * 8 + 3); // byte 3 of entry 2
        let applied = m
            .apply_flip(&flip_event(target.as_u64(), 0, CellOrientation::TrueCell))
            .expect("bit 24 of the PTE is set");
        assert_eq!(applied.old & 1, 1);
        // Only the targeted entry changed; its neighbours still hold the PTE.
        assert_eq!(m.read_u64(PhysAddr::from_frame(8, 8)), pte);
        assert_ne!(m.read_u64(PhysAddr::from_frame(8, 16)), pte);
    }
}
