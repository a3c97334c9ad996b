//! Slot and footer layout of the RDMA channel's circular queue.
//!
//! ```text
//! slot k (size m):
//! +--------------------------+-----------------+----------------+
//! | padding (m-16-len bytes) | payload (len B) | footer (16 B)  |
//! +--------------------------+-----------------+----------------+
//!                                               ^ len | seq | flags | gen
//! ```
//!
//! The footer sits at the *end* of the slot and the payload is
//! right-aligned against it, so one contiguous `RDMA WRITE` of
//! `len + 16` bytes moves both. The consumer polls the last footer byte
//! (`gen`); because WRITEs land low-to-high, observing the expected
//! generation implies the payload is complete (paper §6.3, "message
//! layout").

#![deny(clippy::cast_possible_truncation)]

/// Footer size in bytes.
pub const FOOTER_SIZE: usize = 16;

/// Message kind / control flags carried in the footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgFlags(pub u16);

impl MsgFlags {
    /// Ordinary data buffer.
    pub const DATA: MsgFlags = MsgFlags(1);
    /// End of stream: the producer will send nothing further.
    pub const EOS: MsgFlags = MsgFlags(1 << 1);
    /// Epoch synchronization token (paper §7.2.2). The payload carries the
    /// epoch number and the sender's low watermark.
    pub const EPOCH: MsgFlags = MsgFlags(1 << 2);
    /// Watermark-only progress message.
    pub const WATERMARK: MsgFlags = MsgFlags(1 << 3);
    /// State-delta chunk (SSB coherence traffic).
    pub const STATE_DELTA: MsgFlags = MsgFlags(1 << 4);

    /// Whether all bits of `other` are set in `self`.
    #[inline]
    pub fn contains(self, other: MsgFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union of two flag sets.
    #[inline]
    pub fn union(self, other: MsgFlags) -> MsgFlags {
        MsgFlags(self.0 | other.0)
    }
}

/// Decoded footer of a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footer {
    /// Payload length in bytes.
    pub len: u32,
    /// Low 32 bits of the message sequence number (debugging/assertions).
    pub seq32: u32,
    /// Message flags.
    pub flags: MsgFlags,
    /// Wrap generation; the poll byte.
    pub gen: u8,
}

impl Footer {
    /// Encode into a 16-byte array.
    pub fn encode(&self) -> [u8; FOOTER_SIZE] {
        let mut f = [0u8; FOOTER_SIZE];
        f[0..4].copy_from_slice(&self.len.to_le_bytes());
        f[4..8].copy_from_slice(&self.seq32.to_le_bytes());
        f[8..10].copy_from_slice(&self.flags.0.to_le_bytes());
        // f[10..15] reserved.
        f[15] = self.gen;
        f
    }

    /// Decode from a 16-byte slice.
    pub fn decode(bytes: &[u8]) -> Footer {
        debug_assert_eq!(bytes.len(), FOOTER_SIZE);
        Footer {
            len: u32::from_le_bytes(le_bytes(bytes, 0)),
            seq32: u32::from_le_bytes(le_bytes(bytes, 4)),
            flags: MsgFlags(u16::from_le_bytes(le_bytes(bytes, 8))),
            gen: bytes.get(15).copied().unwrap_or(0),
        }
    }
}

/// Copy `N` little-endian bytes starting at `at`, zero-filling past the end
/// of `bytes` so footer decoding is total (the slot layout guarantees 16
/// bytes; short reads only happen on corrupt input).
fn le_bytes<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    let mut out = [0u8; N];
    for (i, dst) in out.iter_mut().enumerate() {
        if let Some(b) = bytes.get(at + i) {
            *dst = *b;
        }
    }
    out
}

/// The generation (poll byte) for sequence number `seq` on a queue of `c`
/// slots. Nonzero so a freshly zeroed queue never looks ready, and cycling
/// with period 255 so a slot's previous content can never alias the next
/// expected generation.
#[inline]
pub fn generation(seq: u64, credits: usize) -> u8 {
    // `% 255` bounds the value to 0..=254, so +1 fits u8 exactly.
    ((seq / credits as u64) % 255) as u8 + 1
}

/// Byte offset of slot `k`'s start within the ring region.
#[inline]
pub fn slot_offset(slot: usize, buf_size: usize) -> usize {
    slot * buf_size
}

/// Byte offset of slot `k`'s footer within the ring region.
#[inline]
pub fn footer_offset(slot: usize, buf_size: usize) -> usize {
    slot_offset(slot, buf_size) + buf_size - FOOTER_SIZE
}

/// Maximum payload a slot of `buf_size` bytes can carry.
#[inline]
pub fn payload_capacity(buf_size: usize) -> usize {
    buf_size - FOOTER_SIZE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footer_roundtrip() {
        let f = Footer {
            len: 4096,
            seq32: 0xDEAD_BEEF,
            flags: MsgFlags::DATA.union(MsgFlags::EPOCH),
            gen: 7,
        };
        let enc = f.encode();
        assert_eq!(Footer::decode(&enc), f);
        assert_eq!(enc[15], 7, "poll byte must be the final byte");
    }

    #[test]
    fn flags_ops() {
        let f = MsgFlags::DATA.union(MsgFlags::EOS);
        assert!(f.contains(MsgFlags::DATA));
        assert!(f.contains(MsgFlags::EOS));
        assert!(!f.contains(MsgFlags::EPOCH));
    }

    #[test]
    fn generation_cycles_and_is_nonzero() {
        let c = 8;
        // First wrap uses generation 1.
        for seq in 0..8u64 {
            assert_eq!(generation(seq, c), 1);
        }
        for seq in 8..16u64 {
            assert_eq!(generation(seq, c), 2);
        }
        // Never zero, even after many wraps.
        for wrap in 0..1000u64 {
            let g = generation(wrap * c as u64, c);
            assert!(g >= 1);
        }
        // Adjacent wraps always differ.
        for wrap in 0..1000u64 {
            let g1 = generation(wrap * c as u64, c);
            let g2 = generation((wrap + 1) * c as u64, c);
            assert_ne!(g1, g2);
        }
    }

    #[test]
    fn offsets() {
        let m = 1024;
        assert_eq!(slot_offset(0, m), 0);
        assert_eq!(slot_offset(3, m), 3072);
        assert_eq!(footer_offset(0, m), 1008);
        assert_eq!(payload_capacity(m), 1008);
    }
}
