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

/// Hash index from key hashes to log addresses.
pub struct HashIndex {
    buckets: Vec<Bucket>,
    overflow: Vec<Bucket>,
    /// Free list of overflow bucket slots (indices into `overflow`).
    free_overflow: Vec<u32>,
    mask: u64,
    count: usize,
}

impl HashIndex {
    /// Create an index with capacity for roughly `capacity` keys before the
    /// first resize.
    pub fn with_capacity(capacity: usize) -> Self {
        let buckets = (capacity / BUCKET_SLOTS + 1).next_power_of_two().max(2);
        HashIndex {
            buckets: vec![Bucket::empty(); buckets],
            overflow: Vec::new(),
            free_overflow: Vec::new(),
            mask: buckets as u64 - 1,
            count: 0,
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

    /// Find the address for `hash` where `verify(addr)` confirms the key.
    pub fn find(&self, hash: u64, mut verify: impl FnMut(u64) -> bool) -> Option<u64> {
        let tag = tag_of(hash);
        let mut bucket = &self.buckets[(hash & self.mask) as usize];
        loop {
            for &slot in &bucket.slots {
                if slot != 0 && slot_tag(slot) == tag && verify(slot_addr(slot)) {
                    return Some(slot_addr(slot));
                }
            }
            if bucket.overflow == NO_OVERFLOW {
                return None;
            }
            bucket = &self.overflow[bucket.overflow as usize];
        }
    }

    /// Resolve a batch of pre-hashed probes in one pass. Probes are walked
    /// in ascending root-bucket order so a batch touches the bucket array
    /// near-sequentially instead of hopping per record; `out[i]` receives
    /// the address found for `hashes[i]` (or `None`). One slice-based
    /// `verify(probe_index, addr)` closure serves the whole batch, instead
    /// of one capture-by-clone closure per record.
    pub fn find_batch(
        &self,
        hashes: &[u64],
        out: &mut Vec<Option<u64>>,
        mut verify: impl FnMut(usize, u64) -> bool,
    ) {
        out.clear();
        out.resize(hashes.len(), None);
        let mut order: Vec<u32> = (0..hashes.len() as u32).collect();
        order.sort_unstable_by_key(|&i| hashes[i as usize] & self.mask);
        for i in order {
            let i = i as usize;
            out[i] = self.find(hashes[i], |addr| verify(i, addr));
        }
    }

    /// Insert or update: if a slot for this key exists (same tag and
    /// `verify` accepts its current address), overwrite it with `addr` and
    /// return the previous address; otherwise insert a new slot.
    ///
    /// `rehash(addr) -> hash` is used if the insertion triggers growth.
    pub fn upsert(
        &mut self,
        hash: u64,
        addr: u64,
        mut verify: impl FnMut(u64) -> bool,
        rehash: impl Fn(u64) -> u64,
    ) -> Option<u64> {
        // Grow ahead of the insert so the non-generic worker never needs to
        // recurse (recursive generic instantiation would not terminate).
        if self.count + 1 > self.buckets.len() * BUCKET_SLOTS {
            self.grow(&rehash);
        }
        self.upsert_no_grow(hash, addr, &mut verify)
    }

    fn upsert_no_grow(
        &mut self,
        hash: u64,
        addr: u64,
        verify: &mut dyn FnMut(u64) -> bool,
    ) -> Option<u64> {
        debug_assert!(addr <= MAX_ADDR, "log address exceeds 48 bits");
        let tag = tag_of(hash);
        let root = (hash & self.mask) as usize;

        // Pass 1: look for the existing key, remembering the first free slot.
        let mut free: Option<(usize, usize, bool)> = None; // (bucket idx, slot, is_overflow)
        {
            let mut bi = root;
            let mut in_overflow = false;
            loop {
                let bucket = if in_overflow {
                    &self.overflow[bi]
                } else {
                    &self.buckets[bi]
                };
                for (si, &slot) in bucket.slots.iter().enumerate() {
                    if slot == 0 {
                        if free.is_none() {
                            free = Some((bi, si, in_overflow));
                        }
                    } else if slot_tag(slot) == tag && verify(slot_addr(slot)) {
                        let old = slot_addr(slot);
                        let b = if in_overflow {
                            &mut self.overflow[bi]
                        } else {
                            &mut self.buckets[bi]
                        };
                        b.slots[si] = pack(tag, addr);
                        return Some(old);
                    }
                }
                if bucket.overflow == NO_OVERFLOW {
                    break;
                }
                bi = bucket.overflow as usize;
                in_overflow = true;
            }
        }

        // Pass 2: insert.
        match free {
            Some((bi, si, true)) => self.overflow[bi].slots[si] = pack(tag, addr),
            Some((bi, si, false)) => self.buckets[bi].slots[si] = pack(tag, addr),
            None => {
                // Chain a fresh overflow bucket onto the tail.
                let new_idx = self.alloc_overflow();
                self.overflow[new_idx as usize].slots[0] = pack(tag, addr);
                // Find the tail of the chain again (it had no free slot).
                let mut bi = root;
                let mut in_overflow = false;
                loop {
                    let ovf = if in_overflow {
                        self.overflow[bi].overflow
                    } else {
                        self.buckets[bi].overflow
                    };
                    if ovf == NO_OVERFLOW {
                        if in_overflow {
                            self.overflow[bi].overflow = new_idx;
                        } else {
                            self.buckets[bi].overflow = new_idx;
                        }
                        break;
                    }
                    bi = ovf as usize;
                    in_overflow = true;
                }
            }
        }
        self.count += 1;
        None
    }

    fn alloc_overflow(&mut self) -> u32 {
        if let Some(i) = self.free_overflow.pop() {
            self.overflow[i as usize] = Bucket::empty();
            i
        } else {
            self.overflow.push(Bucket::empty());
            (self.overflow.len() - 1) as u32
        }
    }

    /// Remove the entry for `hash` where `verify` confirms the key; returns
    /// its address.
    pub fn remove(&mut self, hash: u64, mut verify: impl FnMut(u64) -> bool) -> Option<u64> {
        let tag = tag_of(hash);
        let mut bi = (hash & self.mask) as usize;
        let mut in_overflow = false;
        loop {
            let bucket = if in_overflow {
                &self.overflow[bi]
            } else {
                &self.buckets[bi]
            };
            let mut hit = None;
            for (si, &slot) in bucket.slots.iter().enumerate() {
                if slot != 0 && slot_tag(slot) == tag && verify(slot_addr(slot)) {
                    hit = Some((si, slot_addr(slot)));
                    break;
                }
            }
            if let Some((si, addr)) = hit {
                let b = if in_overflow {
                    &mut self.overflow[bi]
                } else {
                    &mut self.buckets[bi]
                };
                b.slots[si] = 0;
                self.count -= 1;
                return Some(addr);
            }
            let ovf = bucket.overflow;
            if ovf == NO_OVERFLOW {
                return None;
            }
            bi = ovf as usize;
            in_overflow = true;
        }
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

    /// Keep only entries whose address satisfies `keep`; returns how many
    /// were removed. (Epoch invalidation removes everything below the new
    /// read-only boundary.)
    pub fn retain(&mut self, mut keep: impl FnMut(u64) -> bool) -> usize {
        let mut removed = 0;
        for bucket in self.buckets.iter_mut().chain(self.overflow.iter_mut()) {
            for slot in &mut bucket.slots {
                if *slot != 0 && !keep(slot_addr(*slot)) {
                    *slot = 0;
                    removed += 1;
                }
            }
        }
        self.count -= removed;
        removed
    }

    /// Remove every entry.
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            *b = Bucket::empty();
        }
        self.overflow.clear();
        self.free_overflow.clear();
        self.count = 0;
    }

    fn grow(&mut self, rehash: &dyn Fn(u64) -> u64) {
        let mut addrs = Vec::with_capacity(self.count);
        self.for_each(|a| addrs.push(a));
        let new_buckets = self.buckets.len() * 2;
        self.buckets = vec![Bucket::empty(); new_buckets];
        self.overflow.clear();
        self.free_overflow.clear();
        self.mask = new_buckets as u64 - 1;
        self.count = 0;
        for addr in addrs {
            let h = rehash(addr);
            // During rebuild every live entry has a distinct key, so
            // verification can reject everything: nothing is an update.
            self.upsert_no_grow(h, addr, &mut |_| false);
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

    #[test]
    fn insert_find_remove() {
        let mut log = FakeLog::new();
        let mut idx = HashIndex::new();
        let a1 = log.put(101);
        let a2 = log.put(202);

        assert_eq!(
            idx.upsert(hash_u64(101), a1, log.verify(101), |_| unreachable!()),
            None
        );
        assert_eq!(
            idx.upsert(hash_u64(202), a2, log.verify(202), |_| unreachable!()),
            None
        );
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.find(hash_u64(101), log.verify(101)), Some(a1));
        assert_eq!(idx.find(hash_u64(202), log.verify(202)), Some(a2));
        assert_eq!(idx.find(hash_u64(303), log.verify(303)), None);

        assert_eq!(idx.remove(hash_u64(101), log.verify(101)), Some(a1));
        assert_eq!(idx.find(hash_u64(101), log.verify(101)), None);
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn upsert_replaces_in_place() {
        let mut log = FakeLog::new();
        let mut idx = HashIndex::new();
        let a1 = log.put(7);
        let a2 = log.put(7); // same key relocated (copy-on-update)
        assert_eq!(idx.upsert(hash_u64(7), a1, log.verify(7), |_| 0), None);
        assert_eq!(idx.upsert(hash_u64(7), a2, log.verify(7), |_| 0), Some(a1));
        assert_eq!(idx.len(), 1, "update must not duplicate");
        assert_eq!(idx.find(hash_u64(7), log.verify(7)), Some(a2));
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
            idx.upsert(hash_u64(k), a, log.verify(k), log.rehash());
        }
        assert_eq!(idx.len(), n as usize);
        for k in 0..n {
            assert_eq!(
                idx.find(hash_u64(k), log.verify(k)),
                Some(addr_of[&k]),
                "key {k} lost"
            );
        }
    }

    #[test]
    fn retain_drops_invalidated_addresses() {
        let mut log = FakeLog::new();
        let mut idx = HashIndex::new();
        for k in 0..100u64 {
            let a = log.put(k);
            idx.upsert(hash_u64(k), a, log.verify(k), |_| 0);
        }
        // Addresses are 0,8,..; invalidate everything below 400.
        let removed = idx.retain(|addr| addr >= 400);
        assert_eq!(removed, 50);
        assert_eq!(idx.len(), 50);
        let mut seen = 0;
        idx.for_each(|addr| {
            assert!(addr >= 400);
            seen += 1;
        });
        assert_eq!(seen, 50);
    }

    #[test]
    fn clear_empties_everything() {
        let mut log = FakeLog::new();
        let mut idx = HashIndex::with_capacity(4);
        for k in 0..500u64 {
            let a = log.put(k);
            idx.upsert(hash_u64(k), a, log.verify(k), log.rehash());
        }
        idx.clear();
        assert!(idx.is_empty());
        assert_eq!(idx.find(hash_u64(3), log.verify(3)), None);
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
            idx.upsert(hash_u64(k), a, log.verify(k), log.rehash());
        }
        // Every key resolves to an address holding exactly that key.
        for &k in &keys {
            let addr = idx.find(hash_u64(k), log.verify(k)).unwrap();
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
            idx.upsert(hash_u64(k), a, log.verify(k), log.rehash());
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
        idx.find_batch(&hashes, &mut out, |i, addr| keys[&addr] == probe_keys[i]);

        assert_eq!(out.len(), probe_keys.len());
        for (i, &k) in probe_keys.iter().enumerate() {
            assert_eq!(
                out[i],
                idx.find(hash_u64(k), log.verify(k)),
                "batched probe for key {k} diverged from the single probe"
            );
            assert_eq!(out[i].is_some(), k < 96);
        }

        // The memoized-hash contract: probing with the combiner's
        // MSB-forced hash resolves identically (bucket uses low bits, the
        // tag already forces the same top bit).
        let forced: Vec<u64> = hashes.iter().map(|h| h | (1 << 63)).collect();
        let mut out_forced = Vec::new();
        let keys = log.keys.clone();
        idx.find_batch(&forced, &mut out_forced, |i, addr| {
            keys[&addr] == probe_keys[i]
        });
        assert_eq!(out, out_forced);
    }
}
