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
//! Every operation walks a key's bucket chain **once**. A read
//! ([`HashIndex::find`]) gets the key's address. A write
//! ([`HashIndex::entry`]) gets an [`Entry`] — the slot holding the key, or
//! the first free slot the walk passed — that borrows the index mutably
//! until [`Entry::put`] installs an address through it, so no other write
//! can move a slot while the handle is outstanding. The one re-walk left is
//! growth inside the install. The walk scans a bucket for the tag alone (an
//! empty slot's tag is 0, never a key's) and looks for a free slot only in
//! buckets without a match, until it has one.

/// Slots per bucket (cache-line sized: 7 entries + overflow link).
const BUCKET_SLOTS: usize = 7;
/// Sentinel for "no overflow bucket".
const NO_OVERFLOW: u32 = u32::MAX;
/// Maximum addressable log offset (48-bit packed addresses).
const MAX_ADDR: u64 = (1 << 48) - 1;

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
/// passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Found {
    addr: Option<u64>,
    pos: Pos,
}

/// A write handle: one walk's result for `hash`, holding the index until
/// [`Entry::put`] installs an address in the slot the walk found (or the
/// handle is dropped, installing nothing).
pub(crate) struct Entry<'a> {
    index: &'a mut HashIndex,
    hash: u64,
    found: Found,
}

impl Entry<'_> {
    /// The address the index holds for the key, `None` if it is absent.
    #[inline]
    pub(crate) fn addr(&self) -> Option<u64> {
        self.found.addr
    }

    /// Install `addr` for the key: overwrite its slot if it was found, else
    /// take the free slot the walk found (or chain a fresh overflow
    /// bucket). An install into a full table doubles it first, hit or miss,
    /// with `rehash(addr) -> hash` reading each key back; the doubled table
    /// is walked once more — a hit re-found by its old address, a miss
    /// taking the first free slot.
    #[inline]
    pub(crate) fn put(self, addr: u64, rehash: impl Fn(u64) -> u64) {
        debug_assert!(addr <= MAX_ADDR, "log address exceeds 48 bits");
        let Entry { index, hash, found } = self;
        let tag = tag_of(hash);
        let mut pos = found.pos;
        if index.count + 1 > index.buckets.len() * BUCKET_SLOTS {
            index.grow(&rehash);
            pos = (index.walk(tag, index.root(hash), |a| Some(a) == found.addr)).pos;
        }
        index.install(pos, pack(tag, addr));
        if found.addr.is_none() {
            index.count += 1;
        }
    }
}

/// Hash index from key hashes to log addresses.
pub(crate) struct HashIndex {
    buckets: Vec<Bucket>,
    overflow: Vec<Bucket>,
    mask: u64,
    count: usize,
}

impl HashIndex {
    /// Create an index with capacity for roughly `capacity` keys before the
    /// first resize.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let buckets = (capacity / BUCKET_SLOTS + 1).next_power_of_two().max(2);
        HashIndex {
            buckets: vec![Bucket::empty(); buckets],
            overflow: Vec::new(),
            mask: buckets as u64 - 1,
            count: 0,
        }
    }

    /// Create a small index.
    pub(crate) fn new() -> Self {
        Self::with_capacity(64)
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// Whether the index is empty.
    pub(crate) fn is_empty(&self) -> bool {
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
    fn walk(&self, tag: u16, from: Pos, mut is_key: impl FnMut(u64) -> bool) -> Found {
        let mut at = from;
        let mut free: Option<Pos> = None;
        loop {
            let bucket = self.bucket(at);
            for (si, &slot) in bucket.slots.iter().enumerate() {
                if slot_tag(slot) == tag && is_key(slot_addr(slot)) {
                    return Found {
                        addr: Some(slot_addr(slot)),
                        pos: Pos {
                            slot: si as u8,
                            ..at
                        },
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
                return Found {
                    addr: None,
                    pos: free.unwrap_or(end),
                };
            }
            at = Pos {
                bucket: bucket.overflow,
                slot: 0,
                spill: true,
            };
        }
    }

    /// The address of the key `verify` confirms in `hash`'s chain.
    #[inline]
    pub(crate) fn find(&self, hash: u64, verify: impl FnMut(u64) -> bool) -> Option<u64> {
        self.walk(tag_of(hash), self.root(hash), verify).addr
    }

    /// Walk `hash`'s chain once for a write: where the key verified by
    /// `verify` sits, or where it would go.
    #[inline]
    pub(crate) fn entry(&mut self, hash: u64, verify: impl FnMut(u64) -> bool) -> Entry<'_> {
        let found = self.walk(tag_of(hash), self.root(hash), verify);
        Entry {
            index: self,
            hash,
            found,
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
    pub(crate) fn remove(&mut self, hash: u64, verify: impl FnMut(u64) -> bool) -> Option<u64> {
        let found = self.walk(tag_of(hash), self.root(hash), verify);
        if found.addr.is_some() {
            self.bucket_mut(found.pos).slots[found.pos.slot as usize] = 0;
            self.count -= 1;
        }
        found.addr
    }

    /// Visit the address of every entry.
    pub(crate) fn for_each(&self, mut f: impl FnMut(u64)) {
        for bucket in self.buckets.iter().chain(self.overflow.iter()) {
            for &slot in &bucket.slots {
                if slot != 0 {
                    f(slot_addr(slot));
                }
            }
        }
    }

    /// Remove every entry.
    pub(crate) fn clear(&mut self) {
        for b in &mut self.buckets {
            *b = Bucket::empty();
        }
        self.overflow.clear();
        self.count = 0;
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
        for (addr, h) in addrs.into_iter().zip(hashes) {
            // During rebuild every live entry has a distinct key, so
            // verification can reject everything: nothing is an update.
            let tag = tag_of(h);
            let free = self.walk(tag, self.root(h), |_| false).pos;
            self.install(free, pack(tag, addr));
        }
    }
}

#[cfg(test)]
impl HashIndex {
    /// Entries the table holds before it next doubles.
    pub(crate) fn capacity(&self) -> usize {
        self.buckets.len() * BUCKET_SLOTS
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

    /// Walk, then install through the handle — the composition every
    /// partition write uses.
    fn upsert(
        idx: &mut HashIndex,
        hash: u64,
        addr: u64,
        verify: impl FnMut(u64) -> bool,
        rehash: impl Fn(u64) -> u64,
    ) -> Option<u64> {
        let entry = idx.entry(hash, verify);
        let old = entry.addr();
        entry.put(addr, rehash);
        old
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
        assert_eq!(
            upsert(&mut idx, hash_u64(7), a1, log.verify(7), |_| 0),
            None
        );
        assert_eq!(
            upsert(&mut idx, hash_u64(7), a2, log.verify(7), |_| 0),
            Some(a1)
        );
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
            upsert(&mut idx, hash_u64(k), a, log.verify(k), log.rehash());
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
    fn clear_empties_everything() {
        let mut log = FakeLog::new();
        let mut idx = HashIndex::with_capacity(4);
        for k in 0..500u64 {
            let a = log.put(k);
            upsert(&mut idx, hash_u64(k), a, log.verify(k), log.rehash());
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
            upsert(&mut idx, hash_u64(k), a, log.verify(k), log.rehash());
        }
        // Every key resolves to an address holding exactly that key.
        for &k in &keys {
            let addr = idx.find(hash_u64(k), log.verify(k)).unwrap();
            assert_eq!(log.keys[&addr], k);
        }
    }

    #[test]
    fn memoized_hashes_probe_like_fresh_ones_under_collisions() {
        // A deliberately tiny index: 2 root buckets for 96 keys forces
        // deep overflow chains and plenty of same-bucket (and occasional
        // same-tag) collisions — exactly what verification must
        // disambiguate.
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

        // The memoized-hash contract: walking for a mix of present and
        // absent keys with the combiner's MSB-forced hash finds the same
        // slot (bucket uses low bits, the tag already forces the same top
        // bit).
        let walk = |h: u64, k: u64| idx.walk(tag_of(h), idx.root(h), log.verify(k));
        for k in (0..128).rev() {
            let plain = walk(hash_u64(k), k);
            assert_eq!(plain.addr.is_some(), k < 96);
            assert_eq!(walk(hash_u64(k) | (1 << 63), k), plain, "key {k}");
        }
    }

    /// The walk and install this index had before the tag-first scan, kept
    /// as the oracle: the walk notes the first free slot slot by slot, and
    /// an install re-walks an absent key's chain from its handle's bucket
    /// every time. It drives a `HashIndex`'s own table, so layouts compare
    /// as is.
    struct Reference(HashIndex);

    impl Reference {
        fn walk(&self, tag: u16, from: Pos, mut is_key: impl FnMut(u64) -> bool) -> Found {
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
                        return Found {
                            addr: Some(slot_addr(slot)),
                            pos: here,
                        };
                    }
                }
                if bucket.overflow == NO_OVERFLOW {
                    let end = Pos {
                        slot: BUCKET_SLOTS as u8,
                        ..at
                    };
                    return Found {
                        addr: None,
                        pos: free.unwrap_or(end),
                    };
                }
                at = Pos {
                    bucket: bucket.overflow,
                    slot: 0,
                    spill: true,
                };
            }
        }

        fn probe(&self, hash: u64, verify: impl FnMut(u64) -> bool) -> Found {
            self.walk(tag_of(hash), self.0.root(hash), verify)
        }

        fn put(&mut self, hash: u64, found: Found, addr: u64, rehash: impl Fn(u64) -> u64) {
            let grew = self.0.count + 1 > self.0.buckets.len() * BUCKET_SLOTS;
            if grew {
                self.grow(&rehash);
            }
            let tag = tag_of(hash);
            let from = if grew { self.0.root(hash) } else { found.pos };
            let pos = match found.addr {
                Some(_) if !grew => from,
                Some(old) => self.walk(tag, from, |a| a == old).pos,
                None => self.walk(tag, from, |_| false).pos,
            };
            self.0.install(pos, pack(tag, addr));
            if found.addr.is_none() {
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

        /// Both lookups of `key`, checked equal.
        fn find(&mut self, key: u64) {
            let (h, log) = (hash_u64(key), &self.log);
            let fast = self.fast.find(h, |a| log[a as usize] == key);
            let oracle = self.oracle.probe(h, |a| log[a as usize] == key);
            assert_eq!(fast, oracle.addr, "lookup of key {key}");
            self.check();
        }

        /// Append a fresh entry of `key` and install it through both
        /// indexes' handles, checked to agree on the old address.
        fn upsert(&mut self, key: u64) {
            let h = hash_u64(key);
            let oracle = self.oracle.probe(h, |a| self.log[a as usize] == key);
            self.log.push(key);
            let (addr, log) = (self.log.len() as u64 - 1, &self.log);
            let rehash = |a: u64| hash_u64(log[a as usize]);
            let fast = self.fast.entry(h, |a| log[a as usize] == key);
            assert_eq!(fast.addr(), oracle.addr, "probe of key {key}");
            fast.put(addr, rehash);
            self.oracle.put(h, oracle, addr, rehash);
            self.check();
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
        /// for bucket, overflow links included.
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
                1..=599 => t.upsert(pick(&mut rng)),
                600..=849 => t.remove(pick(&mut rng)),
                _ => t.find(pick(&mut rng)),
            }
        }
        t
    }

    /// The tag-first walk and the handle's install against the reference
    /// index, op for op: equal lookups and an equal table after every
    /// operation, over a 2-bucket table (growth, deep chains) and a
    /// 4,096-bucket one whose keys crowd eight root buckets (long overflow
    /// chains in a large table).
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
