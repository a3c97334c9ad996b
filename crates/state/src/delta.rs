//! Wire format of state-delta chunks (§7.2.2 step ③).
//!
//! A closed epoch's delta is shipped to its leader as a sequence of chunks,
//! each fitting one RDMA channel buffer. Chunks of one epoch are FIFO on
//! the channel; the last carries `fin = 1` together with the helper's
//! watermark, which is the piggybacked vector-clock update.
//!
//! ```text
//! chunk := header | entry*
//! header (32 B) := partition u32 | n_entries u32 | epoch u64 |
//!                  watermark u64 | fin u8 | sent_us u40 | pad[2]
//! entry := key u128 | len u32 | kind u8 | stride u8 | pad[2] | value[len]
//! ```
//!
//! An entry is one log entry's content: a fixed value (stride 0), or a run
//! of appended elements `stride` bytes wide — `len / stride` of them — or,
//! at stride 0, one appended element whatever its length. A closed epoch
//! ships one entry per run; a run too long for the room left in a chunk is
//! split at an element boundary and continues in the next one.
//!
//! `sent_us` is the virtual time (microseconds, 40 bits — same stamp
//! format as the channel footer) at which the helper closed the epoch; the
//! leader uses it to measure epoch-merge latency end to end.

use crate::entry::{le_bytes, EntryKind};
use crate::hash::StateKey;

/// Chunk header size.
pub const DELTA_HEADER_SIZE: usize = 32;
/// Per-entry wire overhead.
pub const ENTRY_OVERHEAD: usize = 24;

/// Decoded chunk header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaHeader {
    /// Target partition.
    pub partition: u32,
    /// Entries in this chunk.
    pub n_entries: u32,
    /// Epoch being shipped.
    pub epoch: u64,
    /// Sender's low watermark at epoch close.
    pub watermark: u64,
    /// Whether this is the epoch's final chunk.
    pub fin: bool,
    /// Virtual epoch-close time in microseconds (40-bit stamp; 0 when the
    /// producer has no clock, e.g. snapshot chunks).
    pub sent_us: u64,
}

impl DeltaHeader {
    /// Append the encoded header to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.partition.to_le_bytes());
        out.extend_from_slice(&self.n_entries.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.watermark.to_le_bytes());
        out.push(u8::from(self.fin));
        out.extend_from_slice(&self.sent_us.to_le_bytes()[..5]);
        out.extend_from_slice(&[0u8; 2]);
    }

    /// Decode from the first [`DELTA_HEADER_SIZE`] bytes.
    pub fn decode(bytes: &[u8]) -> DeltaHeader {
        let mut us = [0u8; 8];
        us[..5].copy_from_slice(&le_bytes::<5>(bytes, 25));
        DeltaHeader {
            partition: u32::from_le_bytes(le_bytes(bytes, 0)),
            n_entries: u32::from_le_bytes(le_bytes(bytes, 4)),
            epoch: u64::from_le_bytes(le_bytes(bytes, 8)),
            watermark: u64::from_le_bytes(le_bytes(bytes, 16)),
            fin: bytes.get(24).copied().unwrap_or(0) != 0,
            sent_us: u64::from_le_bytes(us),
        }
    }

    /// Patch the `n_entries` and `fin` fields of a header already written
    /// at `offset` in `buf` (chunks are built incrementally).
    pub fn patch(buf: &mut [u8], offset: usize, n_entries: u32, fin: bool) {
        buf[offset + 4..offset + 8].copy_from_slice(&n_entries.to_le_bytes());
        buf[offset + 24] = u8::from(fin);
    }
}

/// Append one entry to a chunk under construction.
fn push_entry(out: &mut Vec<u8>, key: StateKey, kind: EntryKind, stride: u8, value: &[u8]) {
    // Entries are bounded by the chunk capacity (see `ChunkBuilder::push`),
    // which is far below 4 GiB, so the conversion never saturates.
    debug_assert!(u32::try_from(value.len()).is_ok(), "entry value too large");
    let len = u32::try_from(value.len()).unwrap_or(u32::MAX);
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&len.to_le_bytes());
    out.push(match kind {
        EntryKind::Fixed => 0,
        EntryKind::Appended => 1,
    });
    out.extend_from_slice(&[stride, 0, 0]);
    out.extend_from_slice(value);
}

/// Wire size of an entry with a `len`-byte value.
#[inline]
pub fn entry_wire_size(len: usize) -> usize {
    ENTRY_OVERHEAD + len
}

/// Why a delta chunk failed strict validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaDecodeError {
    /// The chunk is shorter than its own framing claims.
    Truncated {
        /// Byte offset the decoder needed to reach.
        need: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// An entry carried an unknown kind byte.
    BadKind(u8),
    /// An entry's value is no whole number of its stride's elements, or a
    /// fixed entry claims a stride.
    BadRun {
        /// Value length.
        len: usize,
        /// Stride byte.
        stride: u8,
    },
    /// Bytes remained after the declared entries.
    TrailingBytes {
        /// Offset where decoding stopped.
        at: usize,
        /// Total payload length.
        len: usize,
    },
}

impl std::fmt::Display for DeltaDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaDecodeError::Truncated { need, have } => {
                write!(f, "delta chunk truncated: need {need} bytes, have {have}")
            }
            DeltaDecodeError::BadKind(k) => write!(f, "delta entry has unknown kind byte {k}"),
            DeltaDecodeError::BadRun { len, stride } => {
                write!(f, "delta entry of {len} bytes is no run of stride {stride}")
            }
            DeltaDecodeError::TrailingBytes { at, len } => {
                write!(
                    f,
                    "delta chunk has trailing bytes: entries end at {at}, payload is {len}"
                )
            }
        }
    }
}

/// Strictly parse a chunk: validates framing before touching entry bytes,
/// returning the header and calling `f(key, kind, stride, value)` per
/// entry — per run, for appended state. Entries decoded before an error is
/// detected will already have been passed to `f`.
pub fn try_parse_runs(
    payload: &[u8],
    mut f: impl FnMut(StateKey, EntryKind, u8, &[u8]),
) -> Result<DeltaHeader, DeltaDecodeError> {
    if payload.len() < DELTA_HEADER_SIZE {
        return Err(DeltaDecodeError::Truncated {
            need: DELTA_HEADER_SIZE,
            have: payload.len(),
        });
    }
    let header = DeltaHeader::decode(payload);
    let mut off = DELTA_HEADER_SIZE;
    for _ in 0..header.n_entries {
        let key = StateKey::from_le_bytes(le_bytes(payload, off));
        let len = u32::from_le_bytes(le_bytes(payload, off + 16)) as usize;
        let [kind_byte, stride] = le_bytes(payload, off + 20);
        let kind = match kind_byte {
            0 => EntryKind::Fixed,
            1 => EntryKind::Appended,
            other => return Err(DeltaDecodeError::BadKind(other)),
        };
        if stride != 0 {
            check_run(kind, len, stride)?;
        }
        off += ENTRY_OVERHEAD;
        let value = payload
            .get(off..off + len)
            .ok_or(DeltaDecodeError::Truncated {
                need: off + len,
                have: payload.len(),
            })?;
        f(key, kind, stride, value);
        off += len;
    }
    if off != payload.len() {
        return Err(DeltaDecodeError::TrailingBytes {
            at: off,
            len: payload.len(),
        });
    }
    Ok(header)
}

/// A strided entry must be an appended run of whole elements.
#[cold]
fn check_run(kind: EntryKind, len: usize, stride: u8) -> Result<(), DeltaDecodeError> {
    match kind {
        EntryKind::Appended if len.is_multiple_of(usize::from(stride)) => Ok(()),
        _ => Err(DeltaDecodeError::BadRun { len, stride }),
    }
}

/// [`try_parse_runs`] with runs taken apart: `f(key, kind, value)` sees
/// every fixed value and every appended element on its own.
pub fn try_parse_chunk(
    payload: &[u8],
    mut f: impl FnMut(StateKey, EntryKind, &[u8]),
) -> Result<DeltaHeader, DeltaDecodeError> {
    try_parse_runs(payload, |key, kind, stride, value| match stride {
        0 => f(key, kind, value),
        s => value
            .chunks_exact(usize::from(s))
            .for_each(|e| f(key, kind, e)),
    })
}

/// Parse a chunk: returns the header and calls `f` per entry, as
/// [`try_parse_runs`] does.
///
/// Total variant for inputs already known to be well-formed (e.g.
/// snapshot chunks produced locally): a corrupt chunk trips a debug
/// assertion and yields the header with whatever entries decoded cleanly.
pub fn parse_runs(payload: &[u8], f: impl FnMut(StateKey, EntryKind, u8, &[u8])) -> DeltaHeader {
    match try_parse_runs(payload, f) {
        Ok(header) => header,
        Err(e) => {
            debug_assert!(false, "corrupt delta chunk: {e}");
            DeltaHeader::decode(payload)
        }
    }
}

/// Incrementally build delta chunks no larger than `max_chunk` bytes.
pub struct ChunkBuilder {
    partition: u32,
    epoch: u64,
    watermark: u64,
    sent_us: u64,
    max_chunk: usize,
    current: Vec<u8>,
    n_entries: u32,
    chunks: Vec<Vec<u8>>,
}

impl ChunkBuilder {
    /// Start building chunks for one closed epoch. `sent_us` is the
    /// virtual close time in microseconds (0 when not applicable).
    pub fn new(partition: u32, epoch: u64, watermark: u64, sent_us: u64, max_chunk: usize) -> Self {
        assert!(
            max_chunk >= DELTA_HEADER_SIZE + ENTRY_OVERHEAD + 8,
            "chunk size too small for even one entry"
        );
        let mut b = ChunkBuilder {
            partition,
            epoch,
            watermark,
            sent_us,
            max_chunk,
            current: Vec::with_capacity(max_chunk),
            n_entries: 0,
            chunks: Vec::new(),
        };
        b.begin_chunk();
        b
    }

    fn begin_chunk(&mut self) {
        self.current.clear();
        DeltaHeader {
            partition: self.partition,
            n_entries: 0,
            epoch: self.epoch,
            watermark: self.watermark,
            fin: false,
            sent_us: self.sent_us,
        }
        .encode_into(&mut self.current);
        self.n_entries = 0;
    }

    /// Add one entry of stride 0 — a fixed value, or one appended element.
    pub fn push(&mut self, key: StateKey, kind: EntryKind, value: &[u8]) {
        self.push_run(key, kind, 0, value);
    }

    /// Add one log entry's content: at stride 0 one value, sealing the
    /// current chunk first if it would overflow; otherwise a run of
    /// `stride`-wide elements, which fills the current chunk's room with
    /// as many whole elements as fit and goes on in the next chunk.
    pub fn push_run(&mut self, key: StateKey, kind: EntryKind, stride: u8, value: &[u8]) {
        // The widest piece that must go whole: the value, or one element.
        let unit = match stride {
            0 => value.len(),
            s => usize::from(s),
        };
        assert!(
            DELTA_HEADER_SIZE + entry_wire_size(unit) <= self.max_chunk,
            "single entry of {} bytes exceeds chunk capacity {}",
            entry_wire_size(unit),
            self.max_chunk
        );
        if stride == 0 {
            if self.current.len() + entry_wire_size(unit) > self.max_chunk {
                self.seal(false);
            }
            push_entry(&mut self.current, key, kind, 0, value);
            self.n_entries += 1;
            return;
        }
        let mut rest = value;
        while !rest.is_empty() {
            let room = (self.max_chunk - self.current.len()).saturating_sub(ENTRY_OVERHEAD);
            if room < unit {
                self.seal(false);
                continue;
            }
            let (piece, tail) = rest.split_at(rest.len().min(room - room % unit));
            push_entry(&mut self.current, key, kind, stride, piece);
            self.n_entries += 1;
            rest = tail;
        }
    }

    fn seal(&mut self, fin: bool) {
        DeltaHeader::patch(&mut self.current, 0, self.n_entries, fin);
        self.chunks.push(std::mem::take(&mut self.current));
        if !fin {
            self.begin_chunk();
        }
    }

    /// Seal the final chunk (sent even when empty: it carries the
    /// watermark the leader needs for its vector clock).
    pub fn finish(mut self) -> Vec<Vec<u8>> {
        self.seal(true);
        self.chunks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = DeltaHeader {
            partition: 3,
            n_entries: 17,
            epoch: 42,
            watermark: 123_456_789,
            fin: true,
            sent_us: (1u64 << 40) - 7, // full 40-bit stamp survives
        };
        let mut buf = Vec::new();
        h.encode_into(&mut buf);
        assert_eq!(buf.len(), DELTA_HEADER_SIZE);
        assert_eq!(DeltaHeader::decode(&buf), h);
    }

    #[test]
    fn single_chunk_roundtrip() {
        let mut b = ChunkBuilder::new(1, 5, 999, 1234, 4096);
        b.push(100, EntryKind::Fixed, &7u64.to_le_bytes());
        b.push(200, EntryKind::Appended, b"elem");
        let chunks = b.finish();
        assert_eq!(chunks.len(), 1);
        let mut got = Vec::new();
        let h = parse_runs(&chunks[0], |k, kind, _, v| got.push((k, kind, v.to_vec())));
        assert_eq!(h.partition, 1);
        assert_eq!(h.epoch, 5);
        assert_eq!(h.watermark, 999);
        assert_eq!(h.sent_us, 1234);
        assert!(h.fin);
        assert_eq!(h.n_entries, 2);
        assert_eq!(got[0], (100, EntryKind::Fixed, 7u64.to_le_bytes().to_vec()));
        assert_eq!(got[1], (200, EntryKind::Appended, b"elem".to_vec()));
    }

    #[test]
    fn large_deltas_split_into_chunks_with_single_fin() {
        let max = 256;
        let mut b = ChunkBuilder::new(0, 1, 10, 0, max);
        for k in 0..100u128 {
            b.push(k, EntryKind::Fixed, &(k as u64).to_le_bytes());
        }
        let chunks = b.finish();
        assert!(chunks.len() > 1);
        let mut total = 0;
        let mut fins = 0;
        for (i, c) in chunks.iter().enumerate() {
            assert!(c.len() <= max, "chunk {i} too big: {}", c.len());
            let h = parse_runs(c, |_, _, _, _| total += 1);
            if h.fin {
                fins += 1;
                assert_eq!(i, chunks.len() - 1, "fin must be last");
            }
        }
        assert_eq!(total, 100);
        assert_eq!(fins, 1);
    }

    #[test]
    fn empty_epoch_still_produces_a_fin_chunk() {
        let chunks = ChunkBuilder::new(2, 9, 555, 0, 1024).finish();
        assert_eq!(chunks.len(), 1);
        let h = parse_runs(&chunks[0], |_, _, _, _| panic!("no entries"));
        assert!(h.fin);
        assert_eq!(h.n_entries, 0);
        assert_eq!(h.watermark, 555);
    }

    #[test]
    fn strict_parse_rejects_corruption() {
        let mut b = ChunkBuilder::new(0, 1, 10, 0, 4096);
        b.push(7, EntryKind::Fixed, &1u64.to_le_bytes());
        let chunks = b.finish();
        let good = &chunks[0];
        assert!(try_parse_chunk(good, |_, _, _| {}).is_ok());

        // Truncated: chop the value bytes off.
        let truncated = &good[..good.len() - 4];
        assert!(matches!(
            try_parse_chunk(truncated, |_, _, _| {}),
            Err(DeltaDecodeError::Truncated { .. })
        ));

        // Bad kind byte on the first entry.
        let mut bad_kind = good.clone();
        bad_kind[DELTA_HEADER_SIZE + 20] = 9;
        assert!(matches!(
            try_parse_chunk(&bad_kind, |_, _, _| {}),
            Err(DeltaDecodeError::BadKind(9))
        ));

        // Trailing garbage after the declared entries.
        let mut trailing = good.clone();
        trailing.push(0xFF);
        assert!(matches!(
            try_parse_chunk(&trailing, |_, _, _| {}),
            Err(DeltaDecodeError::TrailingBytes { .. })
        ));

        // Too short for even a header.
        assert!(matches!(
            try_parse_chunk(&[0u8; 4], |_, _, _| {}),
            Err(DeltaDecodeError::Truncated { need: 32, have: 4 })
        ));

        // A fixed entry claiming a stride.
        let mut strided = good.clone();
        strided[DELTA_HEADER_SIZE + 21] = 4;
        assert_eq!(
            try_parse_chunk(&strided, |_, _, _| {}),
            Err(DeltaDecodeError::BadRun { len: 8, stride: 4 })
        );
    }

    /// A run too long for the room left in a chunk is split at an element
    /// boundary: the first piece fills the chunk, the rest opens the next,
    /// and the elements come back whole and in order.
    #[test]
    fn a_run_splits_at_an_element_boundary_across_chunks() {
        // 32 header + 24 + 8 leaves 64 bytes: room for 40 of 5-byte
        // elements after the 24-byte entry overhead.
        let mut b = ChunkBuilder::new(0, 1, 10, 0, 128);
        b.push(1, EntryKind::Fixed, &[9u8; 8]);
        let run: Vec<u8> = (0..60u8).collect();
        b.push_run(2, EntryKind::Appended, 5, &run);
        let chunks = b.finish();
        assert_eq!(chunks.len(), 2);
        let mut pieces = Vec::new();
        for c in &chunks {
            assert!(c.len() <= 128);
            parse_runs(c, |k, kind, stride, v| {
                pieces.push((k, kind, stride, v.to_vec()))
            });
        }
        assert_eq!(pieces.len(), 3, "the fixed entry and the run in two pieces");
        assert_eq!(pieces[1], (2, EntryKind::Appended, 5, run[..40].to_vec()));
        assert_eq!(pieces[2], (2, EntryKind::Appended, 5, run[40..].to_vec()));
        // The per-element view sees twelve 5-byte elements of key 2.
        let mut elems = Vec::new();
        for c in &chunks {
            try_parse_chunk(c, |k, _, e| elems.push((k, e.to_vec()))).unwrap();
        }
        let want: Vec<(u128, Vec<u8>)> = run.chunks(5).map(|e| (2, e.to_vec())).collect();
        assert_eq!(elems[1..], want[..]);
        // A value whose length is not a whole number of elements is refused.
        let mut torn = chunks[1].clone();
        torn[DELTA_HEADER_SIZE + 21] = 7;
        assert_eq!(
            try_parse_runs(&torn, |_, _, _, _| {}),
            Err(DeltaDecodeError::BadRun { len: 20, stride: 7 })
        );
    }
}
