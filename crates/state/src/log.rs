//! Log-structured storage (LSS) — the value store of the SSB (§7.2.1).
//!
//! A hybrid log in FASTER's sense: entries are appended at the tail and the
//! *mutable region* (everything at or above the epoch-begin address) allows
//! in-place updates; entries below it are read-only (they have been, or are
//! being, shipped to a leader). Storage is a chain of fixed-size segments
//! with a monotone logical address space; each segment owns `seg_size`
//! of address space even when padding seals it early, and `seg_size` is a
//! power of two, so address→segment arithmetic is one shift and one mask —
//! every state access resolves an address, none may pay a division.
//!
//! Segments are reclaimed when every entry in them is dead (shipped and
//! invalidated on helpers; triggered and garbage-collected on leaders),
//! which realizes the paper's "adaptively resizing circular buffer":
//! capacity grows on demand and shrinks back when epochs or windows retire.
//! A sealed segment's *memory* goes the moment its last entry dies, even
//! behind a live segment — windows retire in window order, not log order,
//! so a leader's log has dead stretches in its middle; its *slot* in the
//! address space goes when it reaches the head ([`Lss::reclaim`]).

use std::collections::VecDeque;

#[cfg(test)]
use crate::entry::NO_PREV;
use crate::entry::{
    key_at, len_at, prev_at, shape_at, stored_size, used, EntryHeader, EntryKind, HEADER_SIZE,
};
use crate::hash::StateKey;

/// Default segment size: 256 KiB — large enough that NEXMark's ~300-byte
/// records never straddle, small enough to reclaim promptly.
pub const DEFAULT_SEGMENT_SIZE: usize = 256 * 1024;

struct Segment {
    data: Box<[u8]>,
    /// Bytes of valid entries; parsing stops here.
    used: usize,
    /// Entries not yet marked dead.
    live: u32,
    /// Sealed segments accept no more appends.
    sealed: bool,
}

impl Segment {
    fn new(size: usize) -> Self {
        Segment {
            data: vec![0u8; size].into_boxed_slice(),
            used: 0,
            live: 0,
            sealed: false,
        }
    }
}

/// A log address resolved to its segment and the offset in it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Slot {
    seg: usize,
    off: usize,
}

/// Segmented log-structured storage.
pub struct Lss {
    segments: VecDeque<Segment>,
    seg_size: usize,
    /// `log2(seg_size)`.
    seg_shift: u32,
    /// Logical address of `segments[0]`'s first byte.
    first_start: u64,
    /// Logical tail: where the next entry will be written.
    tail: u64,
    /// Total live entries (diagnostics).
    live_entries: u64,
    /// Cumulative appended bytes (stats).
    appended_bytes: u64,
}

impl Lss {
    /// Create an empty log with the default segment size.
    pub fn new() -> Self {
        Self::with_segment_size(DEFAULT_SEGMENT_SIZE)
    }

    /// Create an empty log with a custom segment size (tests use small
    /// segments to exercise sealing and reclamation). The size must be a
    /// power of two: addresses resolve by shift and mask.
    pub fn with_segment_size(seg_size: usize) -> Self {
        assert!(seg_size >= HEADER_SIZE + 8, "segment too small");
        assert!(
            seg_size.is_power_of_two(),
            "segment size {seg_size} is not a power of two"
        );
        Lss {
            segments: VecDeque::new(),
            seg_size,
            seg_shift: seg_size.trailing_zeros(),
            first_start: 0,
            tail: 0,
            live_entries: 0,
            appended_bytes: 0,
        }
    }

    /// Logical tail address (== address of the next append).
    pub fn tail(&self) -> u64 {
        self.tail
    }

    /// Logical address below which no entries exist anymore.
    pub fn head(&self) -> u64 {
        self.first_start
    }

    /// Number of live (not-yet-dead) entries.
    pub fn live_entries(&self) -> u64 {
        self.live_entries
    }

    /// Bytes of address space the log spans, head to tail — the working-set
    /// figure the cost model's cache model reads. Segment memory actually
    /// held can be lower: fully dead sealed segments behind the head have
    /// already released theirs (see [`Self::note_dead`]).
    pub fn resident_bytes(&self) -> usize {
        self.segments.len() * self.seg_size
    }

    /// Cumulative bytes appended over the log's lifetime.
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }

    #[inline]
    fn seg_of(&self, addr: u64) -> (usize, usize) {
        debug_assert!(addr >= self.first_start, "address below head");
        let rel = (addr - self.first_start) as usize;
        (rel >> self.seg_shift, rel & (self.seg_size - 1))
    }

    /// The bytes of the segment holding `addr`, and `addr`'s offset in them.
    #[inline]
    fn locate(&self, addr: u64) -> (&[u8], usize) {
        let (si, off) = self.seg_of(addr);
        (&self.segments[si].data, off)
    }

    /// Append an entry; returns its logical address.
    pub fn append(&mut self, key: StateKey, prev: u64, kind: EntryKind, value: &[u8]) -> u64 {
        self.append_with(key, prev, kind, value.len(), |dst| {
            dst.copy_from_slice(value)
        })
    }

    /// Append an entry whose `len`-byte value `fill` writes in place — it
    /// sees the zeroed bytes of a never-used stretch of segment — and
    /// return the entry's logical address: a fresh key's first RMW
    /// initialises and updates its value through it.
    pub fn append_with(
        &mut self,
        key: StateKey,
        prev: u64,
        kind: EntryKind,
        len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) -> u64 {
        let header = EntryHeader {
            key,
            prev,
            len: len as u32,
            kind,
            stride: 0,
            count: 0,
        };
        self.push(header, fill)
    }

    /// Append a run with room for `cap` elements `stride` bytes wide,
    /// holding `elems`; later elements of the key fill the rest in place
    /// ([`Self::fill_run`]). Returns its logical address.
    pub fn append_run(
        &mut self,
        key: StateKey,
        prev: u64,
        stride: u8,
        cap: usize,
        elems: &[u8],
    ) -> u64 {
        let stride_bytes = usize::from(stride);
        debug_assert!(stride > 0 && elems.len().is_multiple_of(stride_bytes));
        debug_assert!(elems.len() <= cap * stride_bytes, "run overfilled");
        let header = EntryHeader {
            key,
            prev,
            len: (cap * stride_bytes) as u32,
            kind: EntryKind::Appended,
            stride,
            count: (elems.len() / stride_bytes) as u16,
        };
        self.push(header, |dst| dst.copy_from_slice(elems))
    }

    /// The one append body: reserve the header and `len` bytes of value
    /// space at the tail, write the header and let `fill` write the value
    /// bytes in use.
    #[inline]
    fn push(&mut self, header: EntryHeader, fill: impl FnOnce(&mut [u8])) -> u64 {
        let need = stored_size(header.len as usize);
        assert!(
            need <= self.seg_size,
            "entry of {need} bytes exceeds segment size {}",
            self.seg_size
        );
        // Open a new segment if the tail left the last one (an entry ended
        // exactly on its boundary) or the entry does not fit what is left.
        let (mut si, mut off) = self.seg_of(self.tail);
        if si + 1 != self.segments.len() || self.seg_size - off < need {
            if let Some(last) = self.segments.back_mut() {
                last.sealed = true;
            }
            // Jump the tail to the next segment boundary.
            (si, off) = (self.segments.len(), 0);
            self.tail = self.first_start + ((si as u64) << self.seg_shift);
            self.segments.push_back(Segment::new(self.seg_size));
        }
        let addr = self.tail;
        let seg = &mut self.segments[si];
        let (head, value) = seg.data[off..off + need].split_at_mut(HEADER_SIZE);
        header.encode(head);
        fill(&mut value[..header.used()]);
        seg.used = off + need;
        seg.live += 1;
        self.live_entries += 1;
        self.appended_bytes += need as u64;
        self.tail += need as u64;
        addr
    }

    /// Copy as many whole elements of `elems` as the run at `slot` has
    /// room for behind its last one, if its elements are `stride` wide;
    /// returns the bytes taken (0 for any other entry). Callers only fill
    /// runs inside the mutable region — the partition reaches them through
    /// its index, which holds nothing below the epoch boundary.
    #[inline]
    pub fn fill_run(&mut self, slot: Slot, stride: usize, elems: &[u8]) -> usize {
        let data = &mut self.segments[slot.seg].data;
        let (len, run_stride, count) = shape_at(data, slot.off);
        if stride == 0 || run_stride != stride {
            return 0;
        }
        let used = count * stride;
        let take = elems.len().min(len.saturating_sub(used));
        let take = take - take % stride;
        if take > 0 {
            let at = slot.off + HEADER_SIZE + used;
            data[at..at + take].copy_from_slice(&elems[..take]);
            let count = (count + take / stride) as u16;
            data[slot.off + 30..slot.off + 32].copy_from_slice(&count.to_le_bytes());
        }
        take
    }

    /// The element capacity of the run at `slot` (0 for an entry that is
    /// not a run).
    #[inline]
    pub fn run_capacity(&self, slot: Slot) -> usize {
        let (len, stride, _) = shape_at(&self.segments[slot.seg].data, slot.off);
        len.checked_div(stride).unwrap_or(0)
    }

    /// Resolve `addr` once, for a caller that reads the key and then
    /// writes the value of the same entry ([`Self::key_in`],
    /// [`Self::value_mut_in`]).
    #[inline]
    pub fn slot(&self, addr: u64) -> Slot {
        let (seg, off) = self.seg_of(addr);
        Slot { seg, off }
    }

    /// The key stored at `addr` (index verification path): one 16-byte
    /// load, not a header decode.
    #[inline]
    pub fn key_at(&self, addr: u64) -> StateKey {
        self.key_in(self.slot(addr))
    }

    /// [`Self::key_at`] of a resolved address.
    #[inline]
    pub fn key_in(&self, slot: Slot) -> StateKey {
        key_at(&self.segments[slot.seg].data, slot.off)
    }

    /// Immutable view of the value at `addr`.
    #[inline]
    pub fn value(&self, addr: u64) -> &[u8] {
        self.link(addr).2
    }

    /// The entry at `addr` as a chain link: its `prev` address, stride and
    /// the value bytes in use — one run of a holistic key's chain.
    #[inline]
    pub fn link(&self, addr: u64) -> (u64, usize, &[u8]) {
        let (data, off) = self.locate(addr);
        let (len, stride, count) = shape_at(data, off);
        let value = off + HEADER_SIZE;
        let elems = &data[value..value + used(len, stride, count)];
        (prev_at(data, off), stride, elems)
    }

    /// Mutable view of the value at `addr` (in-place RMW; callers must only
    /// do this inside the mutable region — the partition enforces it).
    #[inline]
    pub fn value_mut(&mut self, addr: u64) -> &mut [u8] {
        self.value_mut_in(self.slot(addr))
    }

    /// [`Self::value_mut`] of a resolved address: the whole value of a
    /// fixed entry.
    #[inline]
    pub fn value_mut_in(&mut self, slot: Slot) -> &mut [u8] {
        let data = &mut self.segments[slot.seg].data;
        let value = slot.off + HEADER_SIZE;
        let len = len_at(data, slot.off);
        &mut data[value..value + len]
    }

    /// Visit every entry with address in `[from, to)` in log order.
    pub fn for_each_in(&self, from: u64, to: u64, mut f: impl FnMut(u64, &EntryHeader, &[u8])) {
        let mut addr = from.max(self.first_start);
        let to = to.min(self.tail);
        while addr < to {
            let (si, off) = self.seg_of(addr);
            let seg = &self.segments[si];
            if off >= seg.used {
                // Padding at segment end: skip to the next boundary.
                addr = self.first_start + ((si as u64 + 1) << self.seg_shift);
                continue;
            }
            let h = EntryHeader::decode(&seg.data[off..off + HEADER_SIZE]);
            let val = &seg.data[off + HEADER_SIZE..off + HEADER_SIZE + h.used()];
            f(addr, &h, val);
            addr += stored_size(h.len as usize) as u64;
        }
    }

    /// Mark the entry at `addr` dead. A sealed segment releases its memory
    /// as soon as every entry in it is dead.
    pub fn note_dead(&mut self, addr: u64) {
        let (si, _) = self.seg_of(addr);
        let seg = &mut self.segments[si];
        assert!(seg.live > 0, "double free at {addr}");
        seg.live -= 1;
        self.live_entries -= 1;
        if seg.live == 0 && seg.sealed {
            // Nothing reads a fully dead sealed segment again: hand its
            // memory back now, wherever it sits. The slot (and its share
            // of the address space) stays until `reclaim` pops it from
            // the head, so address arithmetic is unaffected.
            seg.data = Box::default();
            seg.used = 0;
        }
    }

    /// Mark *all* entries currently in the log dead (helper fragments after
    /// a full delta ship).
    pub fn kill_all(&mut self) {
        for seg in &mut self.segments {
            self.live_entries -= seg.live as u64;
            seg.live = 0;
        }
    }

    /// Free fully-dead sealed segments from the head; returns how many
    /// segments were reclaimed.
    pub fn reclaim(&mut self) -> usize {
        let mut n = 0;
        while let Some(front) = self.segments.front() {
            if front.live == 0 && front.sealed {
                self.segments.pop_front();
                self.first_start += self.seg_size as u64;
                n += 1;
            } else {
                break;
            }
        }
        n
    }
}

impl Default for Lss {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Lss {
        Lss::with_segment_size(128) // 4 minimal entries per segment
    }

    #[test]
    fn append_and_read_back() {
        let mut l = Lss::new();
        let a0 = l.append(7, NO_PREV, EntryKind::Fixed, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let a1 = l.append(9, a0, EntryKind::Appended, b"hello");
        assert_eq!(l.value(a0), &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(l.value(a1), b"hello");
        let mut h1 = None;
        l.for_each_in(a1, l.tail(), |_, h, _| h1 = Some(*h));
        let h1 = h1.unwrap();
        assert_eq!(h1.key, 9);
        assert_eq!(h1.prev, a0);
        assert_eq!(h1.kind, EntryKind::Appended);
        assert_eq!(l.key_at(a0), 7);
        assert_eq!(l.live_entries(), 2);
    }

    #[test]
    fn in_place_update() {
        let mut l = Lss::new();
        let a = l.append(1, NO_PREV, EntryKind::Fixed, &0u64.to_le_bytes());
        l.value_mut(a).copy_from_slice(&42u64.to_le_bytes());
        assert_eq!(l.value(a), &42u64.to_le_bytes());
    }

    #[test]
    fn segments_seal_and_addresses_skip_padding() {
        let mut l = small();
        // 40-byte entries: 3 fit in a 128-byte segment (120), 8 bytes pad.
        let addrs: Vec<u64> = (0..7)
            .map(|i| l.append(i, NO_PREV, EntryKind::Fixed, &[0u8; 8]))
            .collect();
        assert_eq!(addrs[0], 0);
        assert_eq!(addrs[1], 40);
        assert_eq!(addrs[2], 80);
        assert_eq!(addrs[3], 128, "skips the 8-byte pad");
        assert_eq!(addrs[6], 256, "first entry of the third segment");
        for (i, &a) in addrs.iter().enumerate() {
            assert_eq!(l.key_at(a), i as u128);
        }
    }

    #[test]
    fn for_each_in_visits_ranges_in_order() {
        let mut l = small();
        let addrs: Vec<u64> = (0..10u64)
            .map(|i| l.append(i as u128, NO_PREV, EntryKind::Fixed, &i.to_le_bytes()))
            .collect();
        let mut seen = Vec::new();
        l.for_each_in(0, l.tail(), |addr, h, v| {
            seen.push((addr, h.key, u64::from_le_bytes(v.try_into().unwrap())));
        });
        assert_eq!(seen.len(), 10);
        for (i, (addr, key, val)) in seen.iter().enumerate() {
            assert_eq!(*addr, addrs[i]);
            assert_eq!(*key, i as u128);
            assert_eq!(*val, i as u64);
        }
        // Partial range starting at a valid entry boundary.
        let mut partial = Vec::new();
        l.for_each_in(addrs[4], l.tail(), |_, h, _| partial.push(h.key));
        assert_eq!(partial, (4u128..10).collect::<Vec<_>>());
    }

    #[test]
    fn reclaim_frees_dead_sealed_segments() {
        let mut l = small();
        let addrs: Vec<u64> = (0..9)
            .map(|i| l.append(i, NO_PREV, EntryKind::Fixed, &[0u8; 8]))
            .collect();
        assert_eq!(l.resident_bytes(), 3 * 128);
        // Kill the first segment's entries only.
        for &a in &addrs[0..3] {
            l.note_dead(a);
        }
        assert_eq!(l.reclaim(), 1);
        assert_eq!(l.head(), 128);
        assert_eq!(l.resident_bytes(), 2 * 128);
        // Remaining entries still readable.
        assert_eq!(l.key_at(addrs[3]), 3);
        // Killing out of order does not reclaim until the head is dead.
        for &a in &addrs[6..9] {
            l.note_dead(a);
        }
        assert_eq!(l.reclaim(), 0);
        for &a in &addrs[3..6] {
            l.note_dead(a);
        }
        // Tail segment is unsealed, so only the sealed middle one frees.
        assert_eq!(l.reclaim(), 1);
        assert_eq!(l.live_entries(), 0);
    }

    #[test]
    fn dead_segment_behind_a_live_one_releases_its_memory_at_once() {
        let held = |l: &Lss| l.segments.iter().map(|s| s.data.len()).sum::<usize>();
        let mut l = small();
        let addrs: Vec<u64> = (0..9u64)
            .map(|i| l.append(i as u128, NO_PREV, EntryKind::Fixed, &i.to_le_bytes()))
            .collect();
        assert_eq!(held(&l), 3 * 128);
        // The middle segment dies while the head is still live.
        for &a in &addrs[3..6] {
            l.note_dead(a);
        }
        assert_eq!(l.reclaim(), 0, "the head is live: no slot is popped");
        assert_eq!(held(&l), 2 * 128, "but the dead segment's memory is gone");
        assert_eq!(l.resident_bytes(), 3 * 128, "the address span is unchanged");
        // Addresses on both sides still resolve, and scans skip the hole.
        assert_eq!(l.key_at(addrs[0]), 0);
        assert_eq!(l.key_at(addrs[8]), 8);
        let mut seen = Vec::new();
        l.for_each_in(0, l.tail(), |_, h, _| seen.push(h.key));
        assert_eq!(seen, vec![0, 1, 2, 6, 7, 8]);
        // Once the head dies too, both slots go.
        for &a in &addrs[0..3] {
            l.note_dead(a);
        }
        assert_eq!(l.reclaim(), 2);
        assert_eq!(l.head(), 256);
    }

    #[test]
    fn kill_all_then_reclaim_keeps_only_tail_segment() {
        let mut l = small();
        for i in 0..9u64 {
            l.append(i as u128, NO_PREV, EntryKind::Fixed, &[0u8; 8]);
        }
        let tail = l.tail();
        l.kill_all();
        l.reclaim();
        assert_eq!(l.resident_bytes(), 128, "only the open tail segment");
        assert_eq!(l.tail(), tail, "tail address is never rewound");
        // Appends continue seamlessly.
        let a = l.append(99, NO_PREV, EntryKind::Fixed, &[0u8; 8]);
        assert_eq!(l.key_at(a), 99);
    }

    #[test]
    fn stats_accumulate() {
        let mut l = Lss::new();
        l.append(1, NO_PREV, EntryKind::Fixed, &[0u8; 8]);
        l.append(2, NO_PREV, EntryKind::Fixed, &[0u8; 16]);
        assert_eq!(l.appended_bytes(), 40 + 48);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn segment_sizes_are_powers_of_two() {
        Lss::with_segment_size(384);
    }

    #[test]
    fn append_with_fills_the_value_in_place() {
        let mut l = small();
        let a = l.append_with(5, NO_PREV, EntryKind::Fixed, 8, |v| {
            assert_eq!(v, [0u8; 8], "a never-used stretch of segment is zero");
            v.copy_from_slice(&9u64.to_le_bytes());
        });
        let b = l.append(6, a, EntryKind::Appended, b"abc");
        assert_eq!(l.value(a), &9u64.to_le_bytes());
        assert_eq!(l.link(b), (a, 0, &b"abc"[..]));
        assert_eq!((l.key_at(a), l.key_at(b)), (5, 6));
    }

    /// A run reserves its whole space up front, fills it in place, and
    /// a scan steps over the unused rest to the next entry.
    #[test]
    fn runs_fill_in_place_and_scans_step_over_their_space() {
        let mut l = Lss::new();
        let run = l.append_run(3, NO_PREV, 4, 4, b"abcd");
        let next = l.append(4, NO_PREV, EntryKind::Fixed, &[1u8; 8]);
        assert_eq!(next - run, 48, "header plus space for four elements");
        let slot = l.slot(run);
        assert_eq!(l.run_capacity(slot), 4);
        assert_eq!(
            l.fill_run(slot, 3, b"xyz"),
            0,
            "another stride does not fit"
        );
        assert_eq!(
            l.fill_run(slot, 4, b"efghijklmnop"),
            12,
            "three more fill it"
        );
        assert_eq!(l.fill_run(slot, 4, b"qrst"), 0, "full");
        assert_eq!(l.link(run), (NO_PREV, 4, &b"abcdefghijklmnop"[..]));
        let mut seen = Vec::new();
        l.for_each_in(0, l.tail(), |addr, h, v| {
            seen.push((addr, h.key, h.stride, v.len()))
        });
        assert_eq!(seen, vec![(run, 3, 4, 16), (next, 4, 0, 8)]);
        assert_eq!(
            l.fill_run(l.slot(next), 8, &[0; 8]),
            0,
            "a fixed entry is no run"
        );
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_is_a_bug() {
        let mut l = Lss::new();
        let a = l.append(1, NO_PREV, EntryKind::Fixed, &[0u8; 8]);
        l.note_dead(a);
        l.note_dead(a);
    }
}
