//! Per-worker write-combining pre-aggregation (the worker-local half of
//! the Slash thesis: eager partial aggregation, lazy CRDT merge).
//!
//! A [`WriteCombiner`] is a small open-addressing hash table, sized to
//! stay L1-resident, keyed on the packed `(window, key)` state key. A
//! worker folds every surviving record into its table with the operator's
//! update function ([`crate::backend::SsbNode::fold`]); the node owns the
//! tables and flushes the *distinct* partials through
//! [`crate::backend::SsbNode::rmw_batch`]'s merge when a table is full and
//! when the epoch closes — never per batch. N per-record index probes
//! collapse into one probe per distinct key per epoch.
//!
//! This regroups updates as `merge(state, fold(records of the epoch))`
//! instead of `fold(state, records)` — semantics-preserving exactly when
//! the CRDT's update/merge pair is associative over the regrouping (see
//! [`crate::descriptor::StateDescriptor::combinable`]; float-summing
//! CRDTs opt out to keep combiner-on/off runs bit-identical).
//!
//! The table memoizes each key's [`crate::hash::hash_key`] with the MSB
//! forced on as the occupancy marker (a stored hash of 0 means "empty
//! slot"). The forced bit is harmless downstream: the index derives the
//! bucket from the *low* bits and its tag already ORs in the same top
//! bit, so the memoized hash probes identically to the raw one.

use crate::descriptor::StateDescriptor;
use crate::hash::{hash_key, StateKey};

/// Occupancy marker: stored hashes always carry the MSB, raw zero = empty.
const OCCUPIED: u64 = 1 << 63;

/// Fill beyond this fraction forces a flush before the next insert, keeping
/// probe chains short (the table never grows — it is sized once, for L1).
const MAX_FILL_NUM: usize = 3;
/// Denominator of the max-fill fraction.
const MAX_FILL_DEN: usize = 4;

/// Folds a reuse verdict needs: the one-shot cold-stream probe looks at
/// the first this many, a flush is judged once this many accumulated
/// since the last verdict. Caps what a reuse-free stream pays the table
/// for the whole run.
pub const VERDICT_FOLDS: u64 = 1024;
/// The probe calls a stream reuse-free when distinct keys so far reach 3/4
/// of folds. Lenient on purpose: it reads a prefix of an epoch-long scope,
/// where even `ysb_hot`'s 100 keys and nb7's Pareto head still look wide,
/// while uniform `ysb` sits at ~100% distinct.
const PROBE_NUM: u64 = 3;
const PROBE_DEN: u64 = 4;
/// A judged flush turns the table off when flushed keys reach 1/4 of the
/// folds that fed them — the break-even of the costs measured in situ, in
/// the workloads' own key order: a fold is 9–10 ns per survivor, a flushed
/// key 50–70 ns, the per-record hot RMW it replaces ~25 ns, so the table
/// pays while `10 + 60·keys/folds < 25`. (The ledger's `state.*` probes
/// read about half of each: they cycle `i % KEYS`, which the branch
/// predictor learns.)
const BREAK_EVEN_NUM: u64 = 1;
const BREAK_EVEN_DEN: u64 = 4;

/// A small, fixed-capacity open-addressing map from state key to a
/// worker-local partial CRDT value. See the module docs for the protocol.
pub struct WriteCombiner {
    desc: StateDescriptor,
    size: usize,
    mask: usize,
    /// Memoized `hash_key | OCCUPIED` per slot; 0 = empty.
    hashes: Vec<u64>,
    keys: Vec<StateKey>,
    /// Slot-major value storage, `capacity × size` bytes.
    values: Vec<u8>,
    /// Slots in insertion order — flush order is first-touch order, the
    /// same order the per-record path would first insert each key.
    order: Vec<u32>,
    /// Folds absorbed per slot since its last insert — the per-key weight
    /// the heat sketch observes at flush time.
    counts: Vec<u32>,
    folds: u64,
    inserts: u64,
    /// `(folds, inserts)` at the last reuse verdict.
    judged: (u64, u64),
    cold: bool,
}

impl WriteCombiner {
    /// Build a combiner with at least `slots` capacity (rounded up to a
    /// power of two) for fixed-size state described by `desc`.
    pub fn new(desc: StateDescriptor, slots: usize) -> Self {
        let cap = slots.max(8).next_power_of_two();
        let size = desc.fixed_size().max(1);
        WriteCombiner {
            desc,
            size,
            mask: cap - 1,
            hashes: vec![0; cap],
            keys: vec![0; cap],
            values: vec![0; cap * size],
            order: Vec::with_capacity(cap),
            counts: vec![0; cap],
            folds: 0,
            inserts: 0,
            judged: (0, 0),
            cold: false,
        }
    }

    /// Number of distinct keys currently held.
    #[inline]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when no partials are buffered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Total updates folded since construction (hits + inserts).
    pub fn folds(&self) -> u64 {
        self.folds
    }

    /// Distinct-key insertions since construction (== flushed entries).
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    /// Whether a reuse verdict found the stream not worth combining. The
    /// verdict is final: an owner stops folding into a cold table.
    pub fn is_cold(&self) -> bool {
        self.cold
    }

    /// The one-shot cold-stream probe, run when [`Self::folds`] reaches
    /// [`VERDICT_FOLDS`]: is (almost) every fold so far a new key?
    pub fn probe_reuse(&mut self) -> bool {
        self.cold |= self.inserts * PROBE_DEN >= self.folds * PROBE_NUM;
        self.cold
    }

    /// Reuse verdict at a flush, over everything folded since the last
    /// verdict: did the keys flushed cost more than the folds saved? A
    /// sample under [`VERDICT_FOLDS`] is left to accumulate.
    pub fn judge_flush(&mut self) -> bool {
        let (folds, keys) = (self.folds - self.judged.0, self.inserts - self.judged.1);
        if folds >= VERDICT_FOLDS {
            self.judged = (self.folds, self.inserts);
            self.cold |= keys * BREAK_EVEN_DEN >= folds * BREAK_EVEN_NUM;
        }
        self.cold
    }

    /// Fold one update into the buffered partial for `key`. Returns
    /// `false` — without touching anything — when the table is at its fill
    /// limit and `key` is absent: the caller must flush and retry.
    #[inline]
    pub fn fold(&mut self, key: StateKey, update: impl FnOnce(&mut [u8])) -> bool {
        let hash = hash_key(key) | OCCUPIED;
        let mut slot = (hash as usize) & self.mask;
        loop {
            let stored = self.hashes[slot];
            if stored == 0 {
                if self.order.len() * MAX_FILL_DEN >= (self.mask + 1) * MAX_FILL_NUM {
                    return false;
                }
                self.hashes[slot] = hash;
                self.keys[slot] = key;
                let value = &mut self.values[slot * self.size..(slot + 1) * self.size];
                (self.desc.init)(value);
                update(value);
                self.order.push(slot as u32);
                self.counts[slot] = 1;
                self.folds += 1;
                self.inserts += 1;
                return true;
            }
            if stored == hash && self.keys[slot] == key {
                update(&mut self.values[slot * self.size..(slot + 1) * self.size]);
                self.counts[slot] = self.counts[slot].saturating_add(1);
                self.folds += 1;
                return true;
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// The `i`-th buffered partial in insertion order: `(key, memoized
    /// hash, value)`. `i` must be below [`Self::len`]; out-of-range reads
    /// return the last slot's view of an empty table guard — callers
    /// iterate `0..len()`.
    #[inline]
    pub fn entry(&self, i: usize) -> (StateKey, u64, &[u8]) {
        let slot = self.order.get(i).copied().unwrap_or_default() as usize;
        (
            self.keys[slot],
            self.hashes[slot],
            &self.values[slot * self.size..(slot + 1) * self.size],
        )
    }

    /// Folds absorbed into the `i`-th buffered partial since it was
    /// inserted (at least 1 for a live entry): the weight of that key
    /// since the table was last flushed.
    #[inline]
    pub fn entry_folds(&self, i: usize) -> u64 {
        let slot = self.order.get(i).copied().unwrap_or_default() as usize;
        self.counts[slot] as u64
    }

    /// Drop all buffered partials (after a flush). Only occupied slots are
    /// touched, so clearing a lightly-used table is cheap.
    pub fn clear(&mut self) {
        for &slot in &self.order {
            self.hashes[slot as usize] = 0;
        }
        self.order.clear();
    }
}

impl std::fmt::Debug for WriteCombiner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriteCombiner")
            .field("capacity", &(self.mask + 1))
            .field("len", &self.order.len())
            .field("folds", &self.folds)
            .field("inserts", &self.inserts)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crdts::CounterCrdt;
    use crate::hash::pack_key;

    #[test]
    fn folds_dedupe_within_a_batch() {
        let mut c = WriteCombiner::new(CounterCrdt::descriptor(), 64);
        for i in 0..100u64 {
            assert!(c.fold(pack_key(1, i % 10), |v| CounterCrdt::add(v, 1)));
        }
        assert_eq!(c.len(), 10);
        assert_eq!(c.folds(), 100);
        assert_eq!(c.inserts(), 10);
        for i in 0..c.len() {
            let (_, h, v) = c.entry(i);
            assert_ne!(h, 0);
            assert_eq!(CounterCrdt::get(v), 10);
        }
    }

    #[test]
    fn entry_folds_count_per_key_weights() {
        let mut c = WriteCombiner::new(CounterCrdt::descriptor(), 64);
        // Key i % 3 receives 1 + the number of later multiples: key 0
        // folds 4 times (0,3,6,9), keys 1 and 2 fold 3 times each.
        for i in 0..10u64 {
            assert!(c.fold(pack_key(1, i % 3), |v| CounterCrdt::add(v, 1)));
        }
        let mut folds: Vec<(u64, u64)> = (0..c.len())
            .map(|i| (crate::hash::unpack_key(c.entry(i).0).1, c.entry_folds(i)))
            .collect();
        folds.sort_unstable();
        assert_eq!(folds, vec![(0, 4), (1, 3), (2, 3)]);
        // Clearing resets the weights: re-inserted keys start at one.
        c.clear();
        assert!(c.fold(pack_key(1, 0), |v| CounterCrdt::add(v, 1)));
        assert_eq!(c.entry_folds(0), 1);
    }

    #[test]
    fn insertion_order_is_first_touch_order() {
        let mut c = WriteCombiner::new(CounterCrdt::descriptor(), 64);
        for k in [7u64, 3, 7, 9, 3, 1] {
            assert!(c.fold(pack_key(0, k), |v| CounterCrdt::add(v, 1)));
        }
        let keys: Vec<StateKey> = (0..c.len()).map(|i| c.entry(i).0).collect();
        assert_eq!(
            keys,
            vec![
                pack_key(0, 7),
                pack_key(0, 3),
                pack_key(0, 9),
                pack_key(0, 1)
            ]
        );
    }

    #[test]
    fn full_table_rejects_new_keys_but_takes_hits() {
        let mut c = WriteCombiner::new(CounterCrdt::descriptor(), 8);
        let mut k = 0u64;
        while c.fold(pack_key(0, k), |v| CounterCrdt::add(v, 1)) {
            k += 1;
        }
        // Capacity 8 at a 3/4 fill limit: six distinct keys fit.
        assert_eq!(c.len(), 6);
        // At the fill limit: existing keys still fold, new keys bounce.
        assert!(c.fold(pack_key(0, 0), |v| CounterCrdt::add(v, 1)));
        assert!(!c.fold(pack_key(0, k), |v| CounterCrdt::add(v, 1)));
        let len = c.len();
        c.clear();
        assert_eq!(c.len(), 0);
        assert!(c.is_empty());
        // Cleared table accepts the bounced key again.
        assert!(c.fold(pack_key(0, k), |v| CounterCrdt::add(v, 1)));
        assert_eq!(c.len(), 1);
        assert!(len > 0);
    }

    #[test]
    fn memoized_hash_carries_the_occupancy_bit() {
        let mut c = WriteCombiner::new(CounterCrdt::descriptor(), 8);
        let key = pack_key(4, 2);
        assert!(c.fold(key, |v| CounterCrdt::add(v, 1)));
        let (k, h, _) = c.entry(0);
        assert_eq!(k, key);
        assert_eq!(h, hash_key(key) | OCCUPIED);
    }
}
