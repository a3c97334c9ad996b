//! FASTER-style hash index (§7.2.1).
//!
//! The index maps key *hashes* to log addresses and stores no keys: each
//! 64-bit slot packs a 16-bit tag (high hash bits, with the top bit forced
//! so occupied slots are never zero) and a 48-bit log address. Because tags
//! can collide, lookups verify candidates against the key stored in the log
//! entry — callers supply a `verify(addr) -> bool` closure backed by
//! [`crate::log::Lss::key_at`].
//!
//! Buckets hold seven entries plus an overflow link, mirroring FASTER's
//! cache-line-sized buckets. The index grows by doubling; rehashing reads
//! keys back from the log through a caller-provided closure, exactly like
//! FASTER's index growth.
//!
//! Every operation walks a key's bucket chain **once**. The walk returns a
//! [`Probe`] — the slot holding the key, or the first free slot it passed —
//! and [`HashIndex::put`] installs an address through that handle, so a
//! caller that just proved a key absent (or present) never pays a second
//! walk to insert (or move) it. The walk scans a bucket for the tag alone
//! (an empty slot's tag is 0, never a key's) and looks for a free slot only
//! in buckets without a match, until it has one.

/// Slots per bucket (cache-line sized: 7 entries + overflow link).
const BUCKET_SLOTS: usize = 7;
/// Sentinel for "no overflow bucket".
const NO_OVERFLOW: u32 = u32::MAX;
/// Maximum addressable log offset (48-bit packed addresses).
pub const MAX_ADDR: u64 = (1 << 48) - 1;

#[derive(Clone)]
struct Bucket {
    slots: [u64; BUCKET_SLOTS],
    overflow: u32,
}

impl Bucket {
    fn empty() -> Self {
        Bucket {
            slots: [0; BUCKET_SLOTS],
            overflow: NO_OVERFLOW,
        }
    }
}

#[inline]
fn pack(tag: u16, addr: u64) -> u64 {
    debug_assert!(addr <= MAX_ADDR);
    ((tag as u64) << 48) | addr
}

#[inline]
fn slot_tag(slot: u64) -> u16 {
    (slot >> 48) as u16
}

#[inline]
fn slot_addr(slot: u64) -> u64 {
    slot & MAX_ADDR
}

#[inline]
fn tag_of(hash: u64) -> u16 {
    ((hash >> 48) as u16) | 0x8000
}

/// A slot position: `bucket` indexes the overflow array when `spill`, the
/// root array otherwise. `slot == BUCKET_SLOTS` names no slot but the end
/// of a full chain's last bucket — where a new overflow bucket hangs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pos {
    bucket: u32,
    slot: u8,
    spill: bool,
}

/// What one walk of a key's bucket chain found: the key's slot and the
/// address in it, or — the key being absent — the first free slot the walk
/// passed. Hand it to [`HashIndex::put`] to install an address without
/// walking again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    addr: Option<u64>,
    pos: Pos,
    /// [`HashIndex::moves`] at walk time; a mismatch means slots moved or
    /// freed since and `pos` must be found again.
    moves: u32,
    /// [`HashIndex::fills`] at walk time; a mismatch means another key may
    /// have taken the free slot at `pos` since.
    fills: u32,
}

impl Probe {
    /// The address the index holds for the key, `None` if it is absent.
    #[inline]
    pub fn addr(&self) -> Option<u64> {
        self.addr
    }
}

/// Hash index from key hashes to log addresses.
pub struct HashIndex {
    buckets: Vec<Bucket>,
    overflow: Vec<Bucket>,
    mask: u64,
    count: usize,
    /// Bumped whenever a slot is freed or the table is rebuilt — the events
    /// that invalidate an outstanding [`Probe`]'s position.
    moves: u32,
    /// Bumped by every insert of a new key — the event that may take the
    /// free slot an outstanding absent-key [`Probe`] holds.
    fills: u32,
}

impl HashIndex {
    /// Create an index with capacity for roughly `capacity` keys before the
    /// first resize.
    pub fn with_capacity(capacity: usize) -> Self {
        let buckets = (capacity / BUCKET_SLOTS + 1).next_power_of_two().max(2);
        HashIndex {
            buckets: vec![Bucket::empty(); buckets],
            overflow: Vec::new(),
            mask: buckets as u64 - 1,
            count: 0,
            moves: 0,
            fills: 0,
        }
    }

    /// Create a small index.
    pub fn new() -> Self {
        Self::with_capacity(64)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    #[inline]
    fn root(&self, hash: u64) -> Pos {
        Pos {
            bucket: (hash & self.mask) as u32,
            slot: 0,
            spill: false,
        }
    }

    #[inline]
    fn bucket(&self, at: Pos) -> &Bucket {
        if at.spill {
            &self.overflow[at.bucket as usize]
        } else {
            &self.buckets[at.bucket as usize]
        }
    }

    #[inline]
    fn bucket_mut(&mut self, at: Pos) -> &mut Bucket {
        if at.spill {
            &mut self.overflow[at.bucket as usize]
        } else {
            &mut self.buckets[at.bucket as usize]
        }
    }

    /// The one chain walk: scan `from`'s bucket and the chain after it for a
    /// slot tagged `tag` whose address `is_key` accepts. Returns that slot,
    /// or the first free slot passed, or the end of the chain's last bucket
    /// when it is full.
    ///
    /// A bucket is scanned for the tag first, leaving on a match, so a hit
    /// stays on the predicted path; an empty slot never matches, since
    /// tags carry the top bit. Only a bucket without a match, passed before
    /// any free slot was found, is looked at again for one: a branch-free
    /// mask of its empty slots, whose lowest set bit names the slot.
    #[inline]
    fn walk(&self, tag: u16, from: Pos, mut is_key: impl FnMut(u64) -> bool) -> Probe {
        let mut at = from;
        let mut free: Option<Pos> = None;
        loop {
            let bucket = self.bucket(at);
            for (si, &slot) in bucket.slots.iter().enumerate() {
                if slot_tag(slot) == tag && is_key(slot_addr(slot)) {
                    return Probe {
                        addr: Some(slot_addr(slot)),
                        pos: Pos {
                            slot: si as u8,
                            ..at
                        },
                        moves: self.moves,
                        fills: self.fills,
                    };
                }
            }
            if free.is_none() {
                let empty = (bucket.slots.iter().enumerate())
                    .fold(0u32, |m, (si, &slot)| m | (u32::from(slot == 0) << si));
                if empty != 0 {
                    free = Some(Pos {
                        slot: empty.trailing_zeros() as u8,
                        ..at
                    });
                }
            }
            if bucket.overflow == NO_OVERFLOW {
                let end = Pos {
                    slot: BUCKET_SLOTS as u8,
                    ..at
                };
                return Probe {
                    addr: None,
                    pos: free.unwrap_or(end),
                    moves: self.moves,
                    fills: self.fills,
                };
            }
            at = Pos {
                bucket: bucket.overflow,
                slot: 0,
                spill: true,
            };
        }
    }

    /// Walk `hash`'s chain once: where the key verified by `verify` sits,
    /// or where it would go.
    #[inline]
    pub fn probe(&self, hash: u64, verify: impl FnMut(u64) -> bool) -> Probe {
        self.walk(tag_of(hash), self.root(hash), verify)
    }

    /// Resolve a batch of pre-hashed probes in one pass, in batch order:
    /// `out[i]` receives the [`Probe`] for `hashes[i]`. One slice-based
    /// `verify(probe_index, addr)` closure serves the whole batch, instead
    /// of one capture-by-clone closure per record.
    pub fn probe_batch(
        &self,
        hashes: &[u64],
        out: &mut Vec<Probe>,
        mut verify: impl FnMut(usize, u64) -> bool,
    ) {
        out.clear();
        out.extend(
            (hashes.iter().enumerate()).map(|(i, &hash)| self.probe(hash, |a| verify(i, a))),
        );
    }

    /// Install `addr` for the key `probe` located: overwrite the key's slot
    /// if it was found, else take the first free slot of its chain (or
    /// chain a fresh overflow bucket).
    ///
    /// `probe` must come from a walk of `hash`'s chain for a key no `put`
    /// has inserted since. Its slot is trusted while its stamps hold: a
    /// present key's until any slot moves (removal, growth, `clear`), an
    /// absent key's free slot until any other key is inserted as well. A
    /// handle older than other keys' inserts resumes the scan at its bucket
    /// — the chain up to the free slot was full then and still is; once a
    /// slot has moved the handle is re-located — a present key by its old
    /// address, an absent one by the first free slot — without going back
    /// to the log. An install into a full table doubles it first, hit or
    /// miss; `rehash(addr) -> hash` serves that growth.
    pub fn put(&mut self, hash: u64, probe: Probe, addr: u64, rehash: impl Fn(u64) -> u64) {
        debug_assert!(addr <= MAX_ADDR, "log address exceeds 48 bits");
        if self.count + 1 > self.buckets.len() * BUCKET_SLOTS {
            self.grow(&rehash);
        }
        let tag = tag_of(hash);
        let pos = if probe.moves != self.moves {
            self.walk(tag, self.root(hash), |a| Some(a) == probe.addr)
                .pos
        } else if probe.addr.is_some() || probe.fills == self.fills {
            probe.pos
        } else {
            self.walk(tag, probe.pos, |_| false).pos
        };
        self.install(pos, pack(tag, addr));
        if probe.addr.is_none() {
            self.count += 1;
            self.fills = self.fills.wrapping_add(1);
        }
    }

    /// Write `slot` at `pos`, chaining a fresh overflow bucket first when
    /// `pos` is the end of a full chain.
    fn install(&mut self, pos: Pos, slot: u64) {
        if (pos.slot as usize) < BUCKET_SLOTS {
            self.bucket_mut(pos).slots[pos.slot as usize] = slot;
            return;
        }
        let mut spill = Bucket::empty();
        spill.slots[0] = slot;
        self.bucket_mut(pos).overflow = self.overflow.len() as u32;
        self.overflow.push(spill);
    }

    /// Remove the entry for `hash` where `verify` confirms the key; returns
    /// its address.
    pub fn remove(&mut self, hash: u64, verify: impl FnMut(u64) -> bool) -> Option<u64> {
        let found = self.probe(hash, verify);
        if found.addr.is_some() {
            self.bucket_mut(found.pos).slots[found.pos.slot as usize] = 0;
            self.count -= 1;
            self.moves = self.moves.wrapping_add(1);
        }
        found.addr
    }

    /// Visit the address of every entry.
    pub fn for_each(&self, mut f: impl FnMut(u64)) {
        for bucket in self.buckets.iter().chain(self.overflow.iter()) {
            for &slot in &bucket.slots {
                if slot != 0 {
                    f(slot_addr(slot));
                }
            }
        }
    }

    /// Remove every entry.
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            *b = Bucket::empty();
        }
        self.overflow.clear();
        self.count = 0;
        self.moves = self.moves.wrapping_add(1);
    }

    fn grow(&mut self, rehash: &dyn Fn(u64) -> u64) {
        let mut addrs = Vec::with_capacity(self.count);
        self.for_each(|a| addrs.push(a));
        // Read every key back from the log in one tight pass, before any
        // reinsert: the reads are independent random loads and overlap
        // here, where one between every two reinserts would stall each.
        let hashes: Vec<u64> = addrs.iter().map(|&addr| rehash(addr)).collect();
        let new_buckets = self.buckets.len() * 2;
        self.buckets = vec![Bucket::empty(); new_buckets];
        self.overflow.clear();
        self.mask = new_buckets as u64 - 1;
        self.moves = self.moves.wrapping_add(1);
        for (addr, h) in addrs.into_iter().zip(hashes) {
            // During rebuild every live entry has a distinct key, so
            // verification can reject everything: nothing is an update.
            let tag = tag_of(h);
            let free = self.walk(tag, self.root(h), |_| false).pos;
            self.install(free, pack(tag, addr));
        }
    }
}

impl Default for HashIndex {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash_u64;
    use slash_desim::DetRng;
    use std::collections::HashMap;

    /// Test double: a "log" that is just addr -> key, so verify closures
    /// can compare keys like the partition does against the LSS.
    struct FakeLog {
        keys: HashMap<u64, u64>, // addr -> key
        next: u64,
    }

    impl FakeLog {
        fn new() -> Self {
            FakeLog {
                keys: HashMap::new(),
                next: 0,
            }
        }
        fn put(&mut self, key: u64) -> u64 {
            let addr = self.next;
            self.next += 8;
            self.keys.insert(addr, key);
            addr
        }
        /// Verifier for `key`: "does the entry at `addr` hold `key`?" —
        /// the closure the partition builds against the real LSS.
        fn verify(&self, key: u64) -> impl FnMut(u64) -> bool + 'static {
            let keys = self.keys.clone();
            move |addr| keys[&addr] == key
        }
        /// Growth rehash: read the key back from the log and rehash it.
        fn rehash(&self) -> impl Fn(u64) -> u64 + 'static {
            let keys = self.keys.clone();
            move |addr| hash_u64(keys[&addr])
        }
    }

    /// Probe, then install through the handle — the composition every
    /// partition path uses.
    fn upsert(
        idx: &mut HashIndex,
        hash: u64,
        addr: u64,
        verify: impl FnMut(u64) -> bool,
        rehash: impl Fn(u64) -> u64,
    ) -> Option<u64> {
        let probe = idx.probe(hash, verify);
        idx.put(hash, probe, addr, rehash);
        probe.addr()
    }

    /// Every slot of the table, in `for_each` order, holes included.
    fn layout(idx: &HashIndex) -> Vec<u64> {
        let all = idx.buckets.iter().chain(idx.overflow.iter());
        all.flat_map(|b| b.slots).collect()
    }

    #[test]
    fn insert_find_remove() {
        let mut log = FakeLog::new();
        let mut idx = HashIndex::new();
        let a1 = log.put(101);
        let a2 = log.put(202);

        assert_eq!(
            upsert(
                &mut idx,
                hash_u64(101),
                a1,
                log.verify(101),
                |_| unreachable!()
            ),
            None
        );
        assert_eq!(
            upsert(
                &mut idx,
                hash_u64(202),
                a2,
                log.verify(202),
                |_| unreachable!()
            ),
            None
        );
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.probe(hash_u64(101), log.verify(101)).addr(), Some(a1));
        assert_eq!(idx.probe(hash_u64(202), log.verify(202)).addr(), Some(a2));
        assert_eq!(idx.probe(hash_u64(303), log.verify(303)).addr(), None);

        assert_eq!(idx.remove(hash_u64(101), log.verify(101)), Some(a1));
        assert_eq!(idx.probe(hash_u64(101), log.verify(101)).addr(), None);
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn upsert_replaces_in_place() {
        let mut log = FakeLog::new();
        let mut idx = HashIndex::new();
        let a1 = log.put(7);
        let a2 = log.put(7); // same key relocated (copy-on-update)
        assert_eq!(
            upsert(&mut idx, hash_u64(7), a1, log.verify(7), |_| 0),
            None
        );
        assert_eq!(
            upsert(&mut idx, hash_u64(7), a2, log.verify(7), |_| 0),
            Some(a1)
        );
        assert_eq!(idx.len(), 1, "update must not duplicate");
        assert_eq!(idx.probe(hash_u64(7), log.verify(7)).addr(), Some(a2));
    }

    #[test]
    fn many_keys_with_growth_and_overflow() {
        let mut log = FakeLog::new();
        let mut idx = HashIndex::with_capacity(8);
        let n = 10_000u64;
        let mut addr_of = HashMap::new();
        for k in 0..n {
            let a = log.put(k);
            addr_of.insert(k, a);
            upsert(&mut idx, hash_u64(k), a, log.verify(k), log.rehash());
        }
        assert_eq!(idx.len(), n as usize);
        for k in 0..n {
            assert_eq!(
                idx.probe(hash_u64(k), log.verify(k)).addr(),
                Some(addr_of[&k]),
                "key {k} lost"
            );
        }
    }

    #[test]
    fn clear_empties_everything() {
        let mut log = FakeLog::new();
        let mut idx = HashIndex::with_capacity(4);
        for k in 0..500u64 {
            let a = log.put(k);
            upsert(&mut idx, hash_u64(k), a, log.verify(k), log.rehash());
        }
        idx.clear();
        assert!(idx.is_empty());
        assert_eq!(idx.probe(hash_u64(3), log.verify(3)).addr(), None);
    }

    #[test]
    fn tag_collisions_are_disambiguated_by_verification() {
        // Force two different keys into colliding tag+bucket by brute
        // force: with a tiny index, bucket collisions are guaranteed; tag
        // collisions are what verification must catch.
        let mut log = FakeLog::new();
        let mut idx = HashIndex::with_capacity(2);
        let keys: Vec<u64> = (0..64).collect();
        for &k in &keys {
            let a = log.put(k);
            upsert(&mut idx, hash_u64(k), a, log.verify(k), log.rehash());
        }
        // Every key resolves to an address holding exactly that key.
        for &k in &keys {
            let addr = idx.probe(hash_u64(k), log.verify(k)).addr().unwrap();
            assert_eq!(log.keys[&addr], k);
        }
    }

    #[test]
    fn batched_probes_match_single_probes_under_collisions() {
        // A deliberately tiny index: 2 root buckets for 96 keys forces
        // deep overflow chains and plenty of same-bucket (and occasional
        // same-tag) collisions — exactly what the batched walk must
        // disambiguate through the shared verify closure.
        let mut log = FakeLog::new();
        let mut idx = HashIndex::with_capacity(2);
        let present: Vec<u64> = (0..96).collect();
        for &k in &present {
            let a = log.put(k);
            upsert(&mut idx, hash_u64(k), a, log.verify(k), log.rehash());
        }
        assert!(
            !idx.overflow.is_empty(),
            "test must exercise overflow buckets"
        );

        // Probe a mix of present and absent keys, unsorted.
        let probe_keys: Vec<u64> = (0..128).rev().collect();
        let hashes: Vec<u64> = probe_keys.iter().map(|&k| hash_u64(k)).collect();
        let mut out = Vec::new();
        let keys = log.keys.clone();
        idx.probe_batch(&hashes, &mut out, |i, addr| keys[&addr] == probe_keys[i]);

        assert_eq!(out.len(), probe_keys.len());
        for (i, &k) in probe_keys.iter().enumerate() {
            assert_eq!(
                out[i],
                idx.probe(hash_u64(k), log.verify(k)),
                "batched probe for key {k} diverged from the single probe"
            );
            assert_eq!(out[i].addr().is_some(), k < 96);
        }

        // The memoized-hash contract: probing with the combiner's
        // MSB-forced hash resolves identically (bucket uses low bits, the
        // tag already forces the same top bit).
        let forced: Vec<u64> = hashes.iter().map(|h| h | (1 << 63)).collect();
        let mut out_forced = Vec::new();
        let keys = log.keys.clone();
        idx.probe_batch(&forced, &mut out_forced, |i, addr| {
            keys[&addr] == probe_keys[i]
        });
        assert_eq!(out, out_forced);
    }

    /// Handles taken in one batch and installed one by one — past each
    /// other's inserts, table growth and a removal — leave the table slot
    /// for slot where per-key probe + put leaves it: a stale handle is
    /// re-located, never trusted.
    #[test]
    fn stale_handles_install_where_a_fresh_walk_would() {
        for (capacity, removal) in [(2usize, false), (2, true), (4096, false)] {
            let mut log = FakeLog::new();
            let mut batched = HashIndex::with_capacity(capacity);
            let mut serial = HashIndex::with_capacity(capacity);
            // A resident population; key 3 may leave again below.
            for k in 0..40u64 {
                let a = log.put(k);
                upsert(&mut batched, hash_u64(k), a, log.verify(k), log.rehash());
                upsert(&mut serial, hash_u64(k), a, log.verify(k), log.rehash());
            }
            // The batch: moves of resident keys interleaved with new keys.
            let batch: Vec<u64> = (20..120).collect();
            let hashes: Vec<u64> = batch.iter().map(|&k| hash_u64(k)).collect();
            let mut probes = Vec::new();
            let keys = log.keys.clone();
            batched.probe_batch(&hashes, &mut probes, |i, addr| keys[&addr] == batch[i]);
            if removal {
                assert_eq!(batched.remove(hash_u64(3), log.verify(3)), Some(24));
                assert_eq!(serial.remove(hash_u64(3), log.verify(3)), Some(24));
            }
            let buckets_before = batched.buckets.len();
            for (i, &k) in batch.iter().enumerate() {
                let a = log.put(k);
                batched.put(hashes[i], probes[i], a, log.rehash());
                let old = upsert(&mut serial, hashes[i], a, log.verify(k), log.rehash());
                assert_eq!(probes[i].addr(), old, "key {k}");
            }
            assert_eq!(batched.buckets.len() > buckets_before, capacity == 2);
            assert_eq!(batched.len(), 120 - usize::from(removal));
            assert_eq!(layout(&batched), layout(&serial));
        }
    }

    /// The case `fills` exists for: two absent keys whose probes found the
    /// same last free slot of a chain, installed in turn. The first takes
    /// the slot; the second must chain an overflow bucket, not overwrite.
    #[test]
    fn two_absent_keys_probed_to_one_last_free_slot_both_land() {
        let mut log = FakeLog::new();
        let mut idx = HashIndex::with_capacity(2);
        let mask = idx.mask;
        let mut root0 = (0..).filter(|&k| hash_u64(k) & mask == 0);
        for k in root0.by_ref().take(BUCKET_SLOTS - 1) {
            let a = log.put(k);
            upsert(&mut idx, hash_u64(k), a, log.verify(k), |_| unreachable!());
        }
        let (ka, kb) = (root0.next().unwrap(), root0.next().unwrap());
        let pa = idx.probe(hash_u64(ka), log.verify(ka));
        let pb = idx.probe(hash_u64(kb), log.verify(kb));
        assert_eq!((pa.addr(), pb.addr()), (None, None));
        assert_eq!(pa.pos, pb.pos);
        assert_eq!(pa.pos.slot as usize, BUCKET_SLOTS - 1, "the last free slot");

        let (aa, ab) = (log.put(ka), log.put(kb));
        idx.put(hash_u64(ka), pa, aa, |_| unreachable!());
        idx.put(hash_u64(kb), pb, ab, |_| unreachable!());
        assert_eq!(idx.len(), BUCKET_SLOTS + 1);
        assert_eq!(idx.overflow.len(), 1, "the second key chains");
        assert_eq!(idx.probe(hash_u64(ka), log.verify(ka)).addr(), Some(aa));
        assert_eq!(idx.probe(hash_u64(kb), log.verify(kb)).addr(), Some(ab));
    }

    /// The walk and `put` this index had before the tag-first scan, kept as
    /// the oracle: the walk notes the first free slot slot by slot, and
    /// `put` re-walks an absent key's chain from its handle's bucket every
    /// time. It drives a `HashIndex`'s own table, so layouts compare as is.
    struct Reference(HashIndex);

    impl Reference {
        fn walk(&self, tag: u16, from: Pos, mut is_key: impl FnMut(u64) -> bool) -> Probe {
            let mut at = from;
            let mut free: Option<Pos> = None;
            loop {
                let bucket = self.0.bucket(at);
                for (si, &slot) in bucket.slots.iter().enumerate() {
                    let here = Pos {
                        slot: si as u8,
                        ..at
                    };
                    if slot == 0 {
                        free = free.or(Some(here));
                    } else if slot_tag(slot) == tag && is_key(slot_addr(slot)) {
                        return Probe {
                            addr: Some(slot_addr(slot)),
                            pos: here,
                            moves: self.0.moves,
                            fills: 0,
                        };
                    }
                }
                if bucket.overflow == NO_OVERFLOW {
                    let end = Pos {
                        slot: BUCKET_SLOTS as u8,
                        ..at
                    };
                    return Probe {
                        addr: None,
                        pos: free.unwrap_or(end),
                        moves: self.0.moves,
                        fills: 0,
                    };
                }
                at = Pos {
                    bucket: bucket.overflow,
                    slot: 0,
                    spill: true,
                };
            }
        }

        fn probe(&self, hash: u64, verify: impl FnMut(u64) -> bool) -> Probe {
            self.walk(tag_of(hash), self.0.root(hash), verify)
        }

        fn put(&mut self, hash: u64, probe: Probe, addr: u64, rehash: impl Fn(u64) -> u64) {
            if self.0.count + 1 > self.0.buckets.len() * BUCKET_SLOTS {
                self.grow(&rehash);
            }
            let tag = tag_of(hash);
            let fresh = probe.moves == self.0.moves;
            let from = if fresh { probe.pos } else { self.0.root(hash) };
            let pos = match probe.addr {
                Some(_) if fresh => from,
                Some(old) => self.walk(tag, from, |a| a == old).pos,
                None => self.walk(tag, from, |_| false).pos,
            };
            self.0.install(pos, pack(tag, addr));
            if probe.addr.is_none() {
                self.0.count += 1;
            }
        }

        fn grow(&mut self, rehash: &dyn Fn(u64) -> u64) {
            let mut entries = Vec::new();
            self.0.for_each(|addr| entries.push((addr, rehash(addr))));
            let new_buckets = self.0.buckets.len() * 2;
            self.0.buckets = vec![Bucket::empty(); new_buckets];
            self.0.overflow.clear();
            self.0.mask = new_buckets as u64 - 1;
            self.0.moves = self.0.moves.wrapping_add(1);
            for (addr, h) in entries {
                let free = self.walk(tag_of(h), self.0.root(h), |_| false).pos;
                self.0.install(free, pack(tag_of(h), addr));
            }
        }

        fn remove(&mut self, hash: u64, verify: impl FnMut(u64) -> bool) -> Option<u64> {
            let found = self.probe(hash, verify);
            if found.addr.is_some() {
                self.0.bucket_mut(found.pos).slots[found.pos.slot as usize] = 0;
                self.0.count -= 1;
                self.0.moves = self.0.moves.wrapping_add(1);
            }
            found.addr
        }
    }

    /// The index and the reference side by side over one "log": a `Vec`
    /// of keys indexed by address.
    struct Twins {
        fast: HashIndex,
        oracle: Reference,
        log: Vec<u64>,
        /// Root buckets at the start.
        start: usize,
        /// Operations checked so far, and whether the table grew and
        /// chained overflow buckets on the way.
        ops: usize,
        grew: bool,
        chained: bool,
    }

    impl Twins {
        fn new(buckets: usize) -> Self {
            let make = || HashIndex::with_capacity((buckets - 1) * BUCKET_SLOTS);
            let twins = Twins {
                fast: make(),
                oracle: Reference(make()),
                log: Vec::new(),
                start: buckets,
                ops: 0,
                grew: false,
                chained: false,
            };
            assert_eq!(twins.fast.buckets.len(), buckets);
            twins
        }

        /// Both probes of `key`, checked equal.
        fn probe(&self, key: u64) -> (Probe, Probe) {
            let (h, log) = (hash_u64(key), &self.log);
            let fast = self.fast.probe(h, |a| log[a as usize] == key);
            let oracle = self.oracle.probe(h, |a| log[a as usize] == key);
            assert_eq!(fast.addr(), oracle.addr(), "probe of key {key}");
            (fast, oracle)
        }

        /// Append a fresh entry of `key` and install it through both handles.
        fn install(&mut self, key: u64, (fast, oracle): (Probe, Probe)) {
            self.log.push(key);
            let (addr, log) = (self.log.len() as u64 - 1, &self.log);
            let rehash = |a: u64| hash_u64(log[a as usize]);
            self.fast.put(hash_u64(key), fast, addr, rehash);
            self.oracle.put(hash_u64(key), oracle, addr, rehash);
            self.check();
        }

        fn upsert(&mut self, key: u64) {
            let probes = self.probe(key);
            self.install(key, probes);
        }

        fn remove(&mut self, key: u64) {
            let (h, log) = (hash_u64(key), &self.log);
            let fast = self.fast.remove(h, |a| log[a as usize] == key);
            let oracle = self.oracle.remove(h, |a| log[a as usize] == key);
            assert_eq!(fast, oracle, "removal of key {key}");
            self.check();
        }

        fn clear(&mut self) {
            self.fast.clear();
            self.oracle.0.clear();
            self.check();
        }

        /// One operation done: both tables hold the same slot layout, bucket
        /// for bucket, overflow links included. (`layout` equality, without
        /// building two vectors of the whole table per operation.)
        fn check(&mut self) {
            let (a, b) = (&self.fast, &self.oracle.0);
            let same = |x: &[Bucket], y: &[Bucket]| {
                x.len() == y.len()
                    && (x.iter().zip(y))
                        .all(|(p, q)| p.slots == q.slots && p.overflow == q.overflow)
            };
            assert_eq!(a.len(), b.len(), "op {}", self.ops);
            let same_layout = same(&a.buckets, &b.buckets) && same(&a.overflow, &b.overflow);
            assert!(same_layout, "slot layouts differ after op {}", self.ops);
            self.ops += 1;
            self.grew |= a.buckets.len() > self.start;
            self.chained |= !a.overflow.is_empty();
        }
    }

    /// Seeded operations over `keys` until `ops` have been checked against
    /// the reference; the twins are returned for the coverage flags.
    fn run_against_reference(buckets: usize, keys: &[u64], seed: u64, ops: usize) -> Twins {
        let mut rng = DetRng::new(seed);
        let pick = |rng: &mut DetRng| keys[rng.next_below(keys.len() as u64) as usize];
        let mut t = Twins::new(buckets);
        while t.ops < ops {
            match rng.next_below(1000) {
                0 => t.clear(),
                1..=549 => t.upsert(pick(&mut rng)),
                550..=599 => {
                    // A batch of distinct keys, probed at once and installed
                    // in shuffled order past other keys' inserts and removals.
                    let mut batch: Vec<u64> = Vec::new();
                    let n = 1 + rng.next_below(32) as usize;
                    while batch.len() < n {
                        let key = pick(&mut rng);
                        if !batch.contains(&key) {
                            batch.push(key);
                        }
                    }
                    let hashes: Vec<u64> = batch.iter().map(|&k| hash_u64(k)).collect();
                    let mut handles = Vec::new();
                    let log = &t.log;
                    t.fast
                        .probe_batch(&hashes, &mut handles, |i, a| log[a as usize] == batch[i]);
                    let mut pairs = Vec::new();
                    for (&key, &fast) in batch.iter().zip(&handles) {
                        let (single, oracle) = t.probe(key);
                        assert_eq!(fast, single, "batched probe of key {key}");
                        pairs.push((key, (fast, oracle)));
                    }
                    for i in (1..n).rev() {
                        pairs.swap(i, rng.next_below(i as u64 + 1) as usize);
                    }
                    for (key, probes) in pairs {
                        let other = pick(&mut rng);
                        if rng.next_below(3) == 0 && !batch.contains(&other) {
                            if rng.next_below(4) == 0 {
                                t.remove(other);
                            } else {
                                t.upsert(other);
                            }
                        }
                        t.install(key, probes);
                    }
                }
                600..=849 => t.remove(pick(&mut rng)),
                _ => {
                    t.probe(pick(&mut rng));
                    t.check();
                }
            }
        }
        t
    }

    /// The tag-first walk, the `fills` shortcut and batch-order probes
    /// against the reference index, op for op: equal probe results and an
    /// equal table after every operation, over a 2-bucket table (growth,
    /// deep chains) and a 4,096-bucket one whose keys crowd eight root
    /// buckets (long overflow chains in a large table).
    #[test]
    fn walk_and_put_match_the_reference_index() {
        let uniform: Vec<u64> = (0..3000).collect();
        let crowded: Vec<u64> = (0..)
            .filter(|&k| hash_u64(k) & 4095 < 8)
            .take(512)
            .chain(1 << 40..(1 << 40) + 2048)
            .collect();
        for seed in 1..=4 {
            let small = run_against_reference(2, &uniform, seed, 10_000);
            assert!(small.grew && small.chained, "seed {seed}: 2 buckets");
            let large = run_against_reference(4096, &crowded, seed, 10_000);
            assert!(large.chained, "seed {seed}: crowded keys must chain");
        }
    }
}
