//! Slot and footer layout of the RDMA channel's circular queue.
//!
//! ```text
//! slot k (size m):
//! +--------------------------+-----------------+----------------+
//! | padding (m-16-len bytes) | payload (len B) | footer (16 B)  |
//! +--------------------------+-----------------+----------------+
//!                                   ^ len | seq | flags | sent µs | gen
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
pub(crate) const FOOTER_SIZE: usize = 16;

/// Message kind / control flags carried in the footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgFlags(pub u16);

impl MsgFlags {
    /// Ordinary data buffer.
    pub const DATA: MsgFlags = MsgFlags(1);
    /// End of stream: the producer will send nothing further.
    pub const EOS: MsgFlags = MsgFlags(1 << 1);
    /// State-delta chunk (SSB coherence traffic).
    pub const STATE_DELTA: MsgFlags = MsgFlags(1 << 4);

    /// Whether all bits of `other` are set in `self`.
    #[inline]
    pub fn contains(self, other: MsgFlags) -> bool {
        self.0 & other.0 == other.0
    }
}

/// Decoded footer of a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Footer {
    /// Payload length in bytes.
    pub len: u32,
    /// Low 32 bits of the message sequence number (the FIFO check).
    pub seq32: u32,
    /// Message flags.
    pub flags: MsgFlags,
    /// Send time in µs, 40 bits, for the buffer residence latency; 0 where
    /// the endpoints share no clock.
    pub sent_us: u64,
    /// Wrap generation; the poll byte.
    pub gen: u8,
}

impl Footer {
    /// Encode as the slot's last two little-endian words; the poll byte
    /// is the second word's top byte.
    pub(crate) fn encode(&self) -> [u64; 2] {
        let lo = u64::from(self.len) | u64::from(self.seq32) << 32;
        let sent = (self.sent_us & 0xFF_FFFF_FFFF) << 16;
        let hi = u64::from(self.flags.0) | sent | u64::from(self.gen) << 56;
        [lo, hi]
    }

    /// Decode from the slot's last two words.
    pub(crate) fn decode([lo, hi]: [u64; 2]) -> Footer {
        let (lo, hi) = (lo.to_le_bytes(), hi.to_le_bytes());
        Footer {
            len: u32::from_le_bytes([lo[0], lo[1], lo[2], lo[3]]),
            seq32: u32::from_le_bytes([lo[4], lo[5], lo[6], lo[7]]),
            flags: MsgFlags(u16::from_le_bytes([hi[0], hi[1]])),
            sent_us: u64::from_le_bytes([hi[2], hi[3], hi[4], hi[5], hi[6], 0, 0, 0]),
            gen: hi[7],
        }
    }
}

/// The generation (poll byte) for sequence number `seq` on a queue of `c`
/// slots. Nonzero so a freshly zeroed queue never looks ready, and cycling
/// with period 255 so a slot's previous content can never alias the next
/// expected generation.
#[inline]
pub(crate) fn generation(seq: u64, credits: usize) -> u8 {
    // `% 255` bounds the value to 0..=254, so +1 fits u8 exactly.
    ((seq / credits as u64) % 255) as u8 + 1
}

/// Byte offset of slot `k`'s footer within the ring region.
#[inline]
pub(crate) fn footer_offset(slot: usize, buf_size: usize) -> usize {
    (slot + 1) * buf_size - FOOTER_SIZE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footer_roundtrip() {
        let f = Footer {
            len: 4096,
            seq32: 0xDEAD_BEEF,
            flags: MsgFlags(MsgFlags::DATA.0 | MsgFlags::EOS.0),
            sent_us: (1 << 40) - 1,
            gen: 7,
        };
        let enc = f.encode();
        assert_eq!(Footer::decode(enc), f);
        assert_eq!(
            enc[1].to_le_bytes()[7],
            7,
            "poll byte must be the final byte"
        );
    }

    #[test]
    fn flags_ops() {
        let f = MsgFlags(MsgFlags::DATA.0 | MsgFlags::EOS.0);
        assert!(f.contains(MsgFlags::DATA));
        assert!(f.contains(MsgFlags::EOS));
        assert!(!f.contains(MsgFlags::STATE_DELTA));
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
        assert_eq!(footer_offset(3, m), 4080);
        assert_eq!(footer_offset(0, m), 1008);
    }
}
