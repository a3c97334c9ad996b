//! Log entry layout.
//!
//! Entries are stored densely in the log-structured storage:
//!
//! ```text
//! +----------+----------+---------+--------+----------+-----------+-------------------+
//! | key 16 B | prev 8 B | len 4 B | kind 1 | stride 1 | count 2 B | value (len, 8-al) |
//! +----------+----------+---------+--------+----------+-----------+-------------------+
//! ```
//!
//! `prev` chains the appended entries of one key (holistic state); fixed
//! entries set it to [`NO_PREV`]. `len` is the value's space, so every
//! entry spans [`stored_size`]`(len)` and a log scan steps from entry to
//! entry as it always did. An appended entry is a **run**: `len` bytes
//! reserved for elements `stride` bytes wide, the first `count` of them in
//! use, so later elements of the key fill it in place. `stride` 0 marks an
//! entry whose whole value is one element — an element no run can hold
//! (empty, or wider than the `u8` stride field). Fixed entries carry zeros
//! in `stride` and `count`, so their bytes are those of a header with 3 pad
//! bytes. The top bit of `kind` (`0x80`) marks an entry the log has
//! retired; decoding strips it, so the header reads as it was written.
//! The layout is position-independent so a raw byte-range of
//! entries can be shipped to a leader and replayed there (the coherence
//! protocol's delta transfer).

use crate::hash::StateKey;

/// Header size in bytes.
pub const HEADER_SIZE: usize = 32;

/// Sentinel for "no previous entry in this key's chain".
pub const NO_PREV: u64 = u64::MAX;

/// The `kind` byte's flag for an entry marked dead ([`crate::log::Lss::note_dead`]).
pub(crate) const DEAD: u8 = 0x80;

/// Entry kind tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// In-place updatable fixed-size value.
    Fixed,
    /// One run of appended elements of a holistic value.
    Appended,
}

impl EntryKind {
    fn to_u8(self) -> u8 {
        match self {
            EntryKind::Fixed => 0,
            EntryKind::Appended => 1,
        }
    }

    /// Decode a kind byte; `None` for anything but the two valid tags.
    pub fn try_from_u8(v: u8) -> Option<EntryKind> {
        match v {
            0 => Some(EntryKind::Fixed),
            1 => Some(EntryKind::Appended),
            _ => None,
        }
    }
}

/// Copy `N` little-endian bytes starting at `at` — the crate's one field
/// reader, shared by the log and the delta wire format. A full field is one
/// slice copy; past the end of `bytes` it zero-fills, which only corrupt
/// input reaches (the log reserves a whole [`HEADER_SIZE`], chunk framing is
/// validated first) and which keeps decoding total without a panic site.
#[inline]
pub(crate) fn le_bytes<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    let mut out = [0u8; N];
    match bytes.get(at..at + N) {
        Some(field) => out.copy_from_slice(field),
        None => {
            for (dst, b) in out.iter_mut().zip(bytes.iter().skip(at)) {
                *dst = *b;
            }
        }
    }
    out
}

/// Decoded entry header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryHeader {
    /// State key.
    pub key: StateKey,
    /// Previous entry of this key's chain, or [`NO_PREV`].
    pub prev: u64,
    /// Value space in bytes: the value itself, or a run's reserved space.
    pub len: u32,
    /// Entry kind.
    pub kind: EntryKind,
    /// Element width of a run; 0 for fixed entries and one-element entries.
    pub stride: u8,
    /// Elements of a run in use; 0 when `stride` is.
    pub count: u16,
}

impl EntryHeader {
    /// Encode into the first [`HEADER_SIZE`] bytes of `out`.
    #[inline]
    pub fn encode(&self, out: &mut [u8]) {
        out[0..16].copy_from_slice(&self.key.to_le_bytes());
        out[16..24].copy_from_slice(&self.prev.to_le_bytes());
        out[24..28].copy_from_slice(&self.len.to_le_bytes());
        out[28] = self.kind.to_u8();
        out[29] = self.stride;
        out[30..32].copy_from_slice(&self.count.to_le_bytes());
    }

    /// Decode from the first [`HEADER_SIZE`] bytes of `bytes`. Total: a
    /// corrupt kind byte trips a debug assertion and decodes as `Fixed`
    /// (the conservative choice — fixed entries never chain).
    #[inline]
    pub fn decode(bytes: &[u8]) -> EntryHeader {
        // One copy of the whole header; the fields sit at fixed offsets.
        let h: [u8; HEADER_SIZE] = le_bytes(bytes, 0);
        let kind_byte = h[28] & !DEAD;
        debug_assert!(
            EntryKind::try_from_u8(kind_byte).is_some(),
            "corrupt log: unknown entry kind {kind_byte}"
        );
        EntryHeader {
            key: key_at(&h, 0),
            prev: prev_at(&h, 0),
            len: len_at(&h, 0) as u32,
            kind: EntryKind::try_from_u8(kind_byte).unwrap_or(EntryKind::Fixed),
            stride: h[29],
            count: u16::from_le_bytes([h[30], h[31]]),
        }
    }

    /// Bytes of the value in use: all of it, or a run's `count` elements.
    #[inline]
    pub fn used(&self) -> usize {
        used(self.len as usize, self.stride.into(), self.count.into())
    }
}

/// The key of the header at `bytes[at..]`: one 16-byte load, not a decode.
#[inline]
pub(crate) fn key_at(bytes: &[u8], at: usize) -> StateKey {
    StateKey::from_le_bytes(le_bytes(bytes, at))
}

/// The `prev` field of the header at `bytes[at..]`.
#[inline]
pub(crate) fn prev_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(le_bytes(bytes, at + 16))
}

/// The `len` field of the header at `bytes[at..]`.
#[inline]
pub(crate) fn len_at(bytes: &[u8], at: usize) -> usize {
    u32::from_le_bytes(le_bytes(bytes, at + 24)) as usize
}

/// The `len`, `stride` and `count` fields of the header at `bytes[at..]`,
/// read as one 8-byte word.
#[inline]
pub(crate) fn shape_at(bytes: &[u8], at: usize) -> (usize, usize, usize) {
    let w = u64::from_le_bytes(le_bytes(bytes, at + 24));
    (
        w as u32 as usize,
        (w >> 40) as u8 as usize,
        (w >> 48) as usize,
    )
}

/// Value bytes in use of an entry with space `len`: all of them at stride
/// 0, else `count` elements.
#[inline]
pub(crate) fn used(len: usize, stride: usize, count: usize) -> usize {
    match stride {
        0 => len,
        s => count * s,
    }
}

/// Total stored size (header + value padded to 8 bytes).
#[inline]
pub fn stored_size(value_len: usize) -> usize {
    HEADER_SIZE + value_len.div_ceil(8) * 8
}

/// Call `f` on each element of an entry's value: the whole value for
/// stride 0, else its `stride`-wide elements in order.
#[inline]
pub fn for_each_elem(stride: usize, value: &[u8], mut f: impl FnMut(&[u8])) {
    if stride == 0 {
        f(value);
    } else {
        value.chunks_exact(stride).for_each(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = EntryHeader {
            key: 0xfeed_face_dead_beef_u128 << 32,
            prev: 12345,
            len: 77,
            kind: EntryKind::Appended,
            stride: 7,
            count: 3,
        };
        let mut buf = [0u8; HEADER_SIZE];
        h.encode(&mut buf);
        assert_eq!(EntryHeader::decode(&buf), h);
        assert_eq!(h.used(), 21, "three 7-byte elements of 77 bytes' space");
    }

    /// A fixed entry's zero stride and count leave its bytes those of the
    /// 3-pad-byte header, and its whole value in use.
    #[test]
    fn fixed_headers_keep_their_pad_bytes() {
        let h = EntryHeader {
            key: 5,
            prev: NO_PREV,
            len: 12,
            kind: EntryKind::Fixed,
            stride: 0,
            count: 0,
        };
        let mut buf = [0xAAu8; HEADER_SIZE];
        h.encode(&mut buf);
        assert_eq!(buf[28..], [0, 0, 0, 0]);
        assert_eq!(h.used(), 12);
    }

    #[test]
    fn stored_size_is_padded() {
        assert_eq!(stored_size(0), 32);
        assert_eq!(stored_size(1), 40);
        assert_eq!(stored_size(8), 40);
        assert_eq!(stored_size(9), 48);
        assert_eq!(stored_size(16), 48);
    }

    #[test]
    fn unknown_kind_is_rejected() {
        assert_eq!(EntryKind::try_from_u8(0), Some(EntryKind::Fixed));
        assert_eq!(EntryKind::try_from_u8(1), Some(EntryKind::Appended));
        assert_eq!(EntryKind::try_from_u8(9), None);
    }

    /// In debug builds a corrupt kind byte trips the decode assertion; in
    /// release builds it decodes as `Fixed` (total decoding, no panic site).
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "corrupt log")]
    fn corrupt_kind_asserts_in_debug() {
        let mut buf = [0u8; HEADER_SIZE];
        EntryHeader {
            key: 0,
            prev: 0,
            len: 0,
            kind: EntryKind::Fixed,
            stride: 0,
            count: 0,
        }
        .encode(&mut buf);
        buf[28] = 9;
        EntryHeader::decode(&buf);
    }
}
