//! A partition fragment: hash index + log + epoch boundary.
//!
//! Every node holds one `Partition` object per SSB partition: the one it
//! leads (its *primary* partition, where deltas from helpers are merged and
//! windows trigger) and a *fragment* of every remote partition (where its
//! own eager updates accumulate between epochs).
//!
//! A drainable partition also keeps a **window directory**: the group keys
//! that entered the index, listed under their window id in first-insertion
//! order. The window trigger ([`Partition::drain_ready`]) tests `ready`
//! once per live *window* and touches only the keys of the windows that
//! fire, so a sweep with nothing ready costs O(#windows) and a firing
//! costs O(keys fired) — never O(live keys). Two invariants hold between
//! any two calls:
//!
//! * every live key is listed under its window id (lists never miss one);
//! * lists may hold *stale* entries — a key removed by [`Partition::remove`]
//!   stays listed, and a key removed and re-inserted is listed twice.
//!   Drain resolves both through the index: an entry whose key is no
//!   longer live is skipped, so every live key is emitted exactly once.
//!
//! Holistic (appended) state is a chain of **runs** per key, newest first
//! from the index: log entries of fixed-stride elements back to back, each
//! with a reserved capacity ([`crate::entry`]). An append writes into the
//! key's newest run in place while it has room — no index install, no new
//! header — and chains a new run when it is full, its capacity doubling
//! from `FIRST_RUN_ELEMS` elements up to `MAX_RUN_BYTES`. A merged run
//! fills the newest run's room with one copy and spills the rest into new
//! runs; a trigger walks runs, not elements.

use std::collections::BTreeMap;

use crate::combiner::WriteCombiner;
use crate::descriptor::{StateDescriptor, ValueKind};
use crate::entry::{for_each_elem, EntryHeader, EntryKind, HEADER_SIZE, NO_PREV};
use crate::hash::{hash_key, pack_key, unpack_key, StateKey};
use crate::index::{HashIndex, Probe};
use crate::log::{Lss, Slot};

/// A `(window, key)` state value surfaced by a window trigger. It borrows
/// from the partition — the log for fixed state, the partition's reused
/// [`ElementList`] for holistic state — and is good for the duration of
/// the `emit` call that receives it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriggeredValue<'a> {
    /// Window identifier (high half of the state key).
    pub window_id: u64,
    /// Group key (low half of the state key).
    pub key: u64,
    /// The merged state.
    pub data: TriggeredData<'a>,
}

/// Payload of a triggered value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TriggeredData<'a> {
    /// Fixed-size CRDT state (aggregations).
    Fixed(&'a [u8]),
    /// Holistic element list (joins): a multiset. Its order is the
    /// layout's — today the key's runs newest first, each run's elements
    /// oldest first — and not promised; consumers count or sort.
    Elements(&'a ElementList),
}

#[cfg(test)]
impl TriggeredData<'_> {
    /// The payload copied out, for tests that compare drains after the
    /// loan ended: the elements in list order, fixed state as its one value.
    pub(crate) fn to_owned_elems(self) -> Vec<Vec<u8>> {
        match self {
            TriggeredData::Fixed(v) => vec![v.to_vec()],
            TriggeredData::Elements(list) => list.iter().map(<[u8]>::to_vec).collect(),
        }
    }
}

/// A list of byte-string elements in one allocation: a flat byte arena
/// holding whole runs back to back, plus each run's end offset and element
/// width. The partition fills one per triggered holistic key — one copy
/// per run — and reuses it from key to key, so a drain allocates nothing
/// per key or per element.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ElementList {
    bytes: Vec<u8>,
    /// Per run: where its bytes end, and its elements' width (a run of
    /// width 0 is one empty element).
    runs: Vec<(usize, usize)>,
    len: usize,
}

impl ElementList {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list holds no element.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop every element, keeping the allocations.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.runs.clear();
        self.len = 0;
    }

    /// Append one element.
    pub fn push(&mut self, elem: &[u8]) {
        self.push_run(0, elem);
    }

    /// Append a run: `elems` split into `stride`-wide elements, or one
    /// element at stride 0 — one copy whatever its length.
    pub fn push_run(&mut self, stride: usize, elems: &[u8]) {
        let width = if stride == 0 { elems.len() } else { stride };
        self.bytes.extend_from_slice(elems);
        self.runs.push((self.bytes.len(), width));
        self.len += elems.len().checked_div(width).unwrap_or(1);
    }

    /// The elements, run by run.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        let mut start = 0;
        self.runs.iter().flat_map(move |&(end, width)| {
            let run = &self.bytes[start..end];
            start = end;
            let n = run.len().checked_div(width).unwrap_or(1);
            (0..n).map(move |i| &run[i * width..(i + 1) * width])
        })
    }
}

/// One window's directory list: group keys in first-insertion order, held
/// in chunks of at most [`LIST_CHUNK_KEYS`]. A full chunk is never
/// reallocated, so listing a key never copies or re-faults a large list,
/// whatever the window's size — a single `Vec` of a 200 k-key window would
/// be moved (and its pages touched anew) at every doubling, on the insert
/// path, which measurably slows cold-key ingest.
type KeyList = Vec<Vec<u64>>;

/// Keys per full chunk of a [`KeyList`] (64 KiB of group keys).
const LIST_CHUNK_KEYS: usize = 8192;

/// Elements a holistic key's first run holds. Chosen by measurement
/// (EXPERIMENTS.md, the first-run sweep on `join_thr2`): eight elements
/// of any stride are a whole number of 8-byte units, and a fired NB11
/// group holds about four.
const FIRST_RUN_ELEMS: usize = 8;

/// The largest value space one run reserves: a run that fills its page
/// chains the next one at the same size, so an idle key's slack stays
/// under a page.
const MAX_RUN_BYTES: usize = 4096;

/// Buffers [`Partition::merge_batch`] reuses from call to call, so a
/// steady-state batch allocates nothing.
#[derive(Default)]
struct BatchScratch {
    hashes: Vec<u64>,
    probes: Vec<Probe>,
}

/// Operation counters (feed the micro-architecture proxies of §8.3).
#[derive(Debug, Default, Clone, Copy)]
pub struct PartitionStats {
    /// In-place read-modify-writes served.
    pub rmw_hits: u64,
    /// RMWs that created a fresh key (zero-value insert).
    pub rmw_inserts: u64,
    /// Elements appended to holistic state, merged runs' included.
    pub appends: u64,
    /// Entries merged in from helper deltas.
    pub merged_entries: u64,
    /// Epochs closed on this fragment.
    pub epochs: u64,
    /// Directory entries examined by window drains: the list lengths of
    /// the windows that fired, stale entries included. A sweep in which
    /// no window is ready adds nothing.
    pub drain_visited: u64,
}

/// One partition's local storage on one node.
pub struct Partition {
    /// Partition id within the SSB.
    pub id: usize,
    index: HashIndex,
    log: Lss,
    /// Entries below this address are read-only/invalidated (shipped).
    epoch_begin: u64,
    /// Epoch counter, versioning the fragment's content (§7.2.2 step ①).
    epoch: u64,
    desc: StateDescriptor,
    /// The most value space one run takes, in bytes (a multiple of 8):
    /// `MAX_RUN_BYTES`, or what a small test segment holds.
    run_limit: usize,
    /// The window directory (see the module docs): group keys in
    /// first-insertion order under their window id. `None` on helper
    /// fragments, which ship their content at epoch close and never drain.
    directory: Option<BTreeMap<u64, KeyList>>,
    scratch: BatchScratch,
    /// The element list of the holistic key being triggered ([`Self::take`]).
    elems: ElementList,
    /// Operation counters.
    pub stats: PartitionStats,
}

impl Partition {
    /// Create an empty, drainable partition (a leader's primary, a
    /// baseline's operator state, a restored snapshot).
    pub fn new(id: usize, desc: StateDescriptor) -> Self {
        Self::with_segment_size(id, desc, crate::log::DEFAULT_SEGMENT_SIZE)
    }

    /// Create an empty helper fragment: same storage, no window directory.
    /// Helpers accumulate updates for a remote leader and hand everything
    /// over at [`Self::close_epoch`]; [`Self::drain_ready`] finds nothing
    /// on them.
    pub fn helper(id: usize, desc: StateDescriptor) -> Self {
        Partition {
            directory: None,
            ..Self::new(id, desc)
        }
    }

    /// Test/bench constructor with a custom segment size.
    pub fn with_segment_size(id: usize, desc: StateDescriptor, seg: usize) -> Self {
        Partition {
            id,
            index: HashIndex::new(),
            log: Lss::with_segment_size(seg),
            epoch_begin: 0,
            epoch: 0,
            desc,
            run_limit: MAX_RUN_BYTES.min((seg - HEADER_SIZE) & !7),
            directory: Some(BTreeMap::new()),
            scratch: BatchScratch::default(),
            elems: ElementList::default(),
            stats: PartitionStats::default(),
        }
    }

    /// The state descriptor.
    pub fn descriptor(&self) -> &StateDescriptor {
        &self.desc
    }

    /// Current epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of distinct live keys.
    pub fn key_count(&self) -> usize {
        self.index.len()
    }

    /// Resident log bytes (capacity planning / adaptive sizing stats).
    pub fn resident_bytes(&self) -> usize {
        self.log.resident_bytes()
    }

    /// One walk of `key`'s bucket chain: its newest entry, or where the
    /// index would put it.
    #[inline]
    fn probe(&self, key: StateKey, hash: u64) -> Probe {
        let log = &self.log;
        self.index.probe(hash, |addr| log.key_at(addr) == key)
    }

    #[inline]
    fn find(&self, key: StateKey) -> Option<u64> {
        self.probe(key, hash_key(key)).addr()
    }

    /// Point the index at `addr` through the handle that located the key.
    #[inline]
    fn install(&mut self, hash: u64, probe: Probe, addr: u64) {
        let log = &self.log;
        self.index
            .put(hash, probe, addr, |a| hash_key(log.key_at(a)));
    }

    /// Make fixed-state `key` live — `probe` just proved it absent: list
    /// it, append its entry with the value written in place by `fill`, and
    /// install it in the slot the probe found.
    #[inline]
    fn insert_fresh(
        &mut self,
        key: StateKey,
        hash: u64,
        probe: Probe,
        len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) {
        self.list(key);
        let addr = self
            .log
            .append_with(key, NO_PREV, EntryKind::Fixed, len, fill);
        self.install(hash, probe, addr);
    }

    /// Read-modify-write of fixed-size state: the hot path of every
    /// non-holistic windowed aggregation. `update` sees the current value
    /// (CRDT zero for fresh keys) and mutates it in place — in the log
    /// either way: a fresh key's value is initialised and updated where it
    /// will live, not in a buffer copied there.
    pub fn rmw(&mut self, key: StateKey, update: impl FnOnce(&mut [u8])) {
        debug_assert!(
            matches!(self.desc.kind, ValueKind::Fixed { .. }),
            "rmw on appended state"
        );
        let hash = hash_key(key);
        // The verify that matches has resolved the entry's address; the
        // update reuses it instead of resolving `addr` a second time.
        let (log, mut hit) = (&self.log, Slot::default());
        let probe = self.index.probe(hash, |addr| {
            let slot = log.slot(addr);
            let found = log.key_in(slot) == key;
            if found {
                hit = slot;
            }
            found
        });
        if let Some(addr) = probe.addr() {
            debug_assert!(
                addr >= self.epoch_begin,
                "index points into the invalidated region"
            );
            update(self.log.value_mut_in(hit));
            self.stats.rmw_hits += 1;
        } else {
            let (size, init) = (self.desc.fixed_size(), self.desc.init);
            self.insert_fresh(key, hash, probe, size, |value| {
                init(value);
                update(value);
            });
            self.stats.rmw_inserts += 1;
        }
    }

    /// Record in the window directory that `key` just entered the index.
    /// Called at the one event that makes a key live — never on updates of
    /// a live key — so a list grows by one entry per insertion.
    #[inline]
    fn list(&mut self, key: StateKey) {
        if let Some(dir) = self.directory.as_mut() {
            let (wid, gk) = unpack_key(key);
            let chunks = dir.entry(wid).or_default();
            match chunks.last_mut() {
                Some(chunk) if chunk.len() < LIST_CHUNK_KEYS => chunk.push(gk),
                // A window's first chunk grows from nothing, so a small
                // window stays small; a window that filled one chunk gets
                // the next ones at full size, with no growth copies.
                _ => {
                    let cap = if chunks.is_empty() {
                        0
                    } else {
                        LIST_CHUNK_KEYS
                    };
                    let mut chunk = Vec::with_capacity(cap);
                    chunk.push(gk);
                    chunks.push(chunk);
                }
            }
        }
    }

    /// Append one element to holistic state (hash-join build, §5.2): into
    /// the key's newest run while it has room, else into a new run. An
    /// element no run can hold — empty, or wider than the stride field —
    /// is an entry of its own.
    pub fn append(&mut self, key: StateKey, elem: &[u8]) {
        self.append_run(key, u8::try_from(elem.len()).unwrap_or(0), elem);
    }

    /// Append `elems` — a run of `stride`-wide elements, or one element at
    /// stride 0 — to holistic state with one index probe: as many as fit
    /// go into the key's newest run with one copy, the rest spill into new
    /// runs. The one append body: per-record [`Self::append`], the leader's
    /// merge of a helper's run and snapshot restore all come here.
    pub fn append_run(&mut self, key: StateKey, stride: u8, elems: &[u8]) {
        debug_assert!(self.desc.is_appended(), "append on fixed state");
        let stride = usize::from(stride);
        assert!(
            stride <= self.run_limit,
            "a {stride}-byte element does not fit this log's runs"
        );
        if stride > 0 && elems.is_empty() {
            return;
        }
        self.stats.appends += elems.len().checked_div(stride).unwrap_or(1) as u64;
        let hash = hash_key(key);
        // The verify that matches has resolved the head run's address; the
        // in-place fill reuses it.
        let (log, mut hit) = (&self.log, Slot::default());
        let probe = self.index.probe(hash, |addr| {
            let slot = log.slot(addr);
            let found = log.key_in(slot) == key;
            if found {
                hit = slot;
            }
            found
        });
        let mut rest = elems;
        let (mut head, mut grown) = match probe.addr() {
            Some(addr) => {
                debug_assert!(
                    addr >= self.epoch_begin,
                    "index points into the invalidated region"
                );
                let took = self.log.fill_run(hit, stride, rest);
                if stride > 0 && took == rest.len() {
                    return; // the head run took it all: the index is unchanged
                }
                rest = &rest[took..];
                (addr, self.log.run_capacity(hit))
            }
            None => {
                self.list(key);
                (NO_PREV, 0)
            }
        };
        match self.run_limit.checked_div(stride) {
            // Stride 0: one element, whatever its length.
            None => head = self.log.append(key, head, EntryKind::Appended, rest),
            Some(most) => {
                while !rest.is_empty() {
                    // Double the last run, at least the first-run size and
                    // at least what is left, at most the run limit.
                    let want = (2 * grown).max(FIRST_RUN_ELEMS).max(rest.len() / stride);
                    grown = want.min(most);
                    let (run, tail) = rest.split_at(rest.len().min(grown * stride));
                    head = self.log.append_run(key, head, stride as u8, grown, run);
                    rest = tail;
                }
            }
        }
        self.install(hash, probe, head);
    }

    /// Merge a batch of *distinct-key* partial values — the entries of a
    /// [`WriteCombiner`] selected by `sel` — into fixed-size state in one
    /// pass: a single batched index probe resolves every key, hits merge in
    /// place with the descriptor's CRDT merge, and misses insert the
    /// partial directly (merge with the zero value is the identity) in the
    /// slot their probe found. The combiner's memoized hashes are reused
    /// for both probe and insert, so `hash_key` runs once per distinct key
    /// per batch, not once per record.
    pub fn merge_batch(&mut self, comb: &WriteCombiner, sel: &[u32]) {
        debug_assert!(
            matches!(self.desc.kind, ValueKind::Fixed { .. }),
            "merge_batch on appended state"
        );
        let mut s = std::mem::take(&mut self.scratch);
        s.hashes.clear();
        s.hashes
            .extend(sel.iter().map(|&i| comb.entry(i as usize).1));
        let log = &self.log;
        self.index.probe_batch(&s.hashes, &mut s.probes, |j, addr| {
            log.key_at(addr) == comb.entry(sel[j] as usize).0
        });
        let merge = self.desc.merge;
        for (&i, &probe) in sel.iter().zip(&s.probes) {
            let (key, hash, partial) = comb.entry(i as usize);
            match probe.addr() {
                Some(addr) => {
                    debug_assert!(
                        addr >= self.epoch_begin,
                        "index points into the invalidated region"
                    );
                    merge(self.log.value_mut(addr), partial);
                    self.stats.rmw_hits += 1;
                }
                None => {
                    let fill = |value: &mut [u8]| value.copy_from_slice(partial);
                    self.insert_fresh(key, hash, probe, partial.len(), fill);
                    self.stats.rmw_inserts += 1;
                }
            }
        }
        self.scratch = s;
    }

    /// Append a batch of holistic elements in record order: `keys[i]`'s
    /// element is `elems[i*stride..(i+1)*stride]`. A loop over
    /// [`Self::append`] — gathering a batch by key measured slower than
    /// the in-place fill of each key's newest run (EXPERIMENTS.md).
    pub fn append_batch(&mut self, keys: &[StateKey], elems: &[u8], stride: usize) {
        debug_assert_eq!(keys.len() * stride, elems.len());
        for (&key, elem) in keys.iter().zip(elems.chunks_exact(stride.max(1))) {
            self.append(key, elem);
        }
    }

    /// Merge a value into fixed-size state with the descriptor's CRDT
    /// merge (leader-side delta replay).
    pub fn merge_fixed(&mut self, key: StateKey, src: &[u8]) {
        let merge = self.desc.merge;
        self.rmw(key, |dst| merge(dst, src));
        self.stats.merged_entries += 1;
    }

    /// Read fixed-size state.
    pub fn get(&self, key: StateKey) -> Option<&[u8]> {
        self.find(key).map(|addr| self.log.value(addr))
    }

    /// Visit every run of a holistic key's chain, newest first, as
    /// `(stride, elements)` — stride 0 for an entry that is one element.
    pub fn for_each_run(&self, key: StateKey, mut f: impl FnMut(usize, &[u8])) {
        let Some(mut addr) = self.find(key) else {
            return;
        };
        loop {
            let (prev, stride, run) = self.log.link(addr);
            f(stride, run);
            if prev == NO_PREV || prev < self.epoch_begin {
                break;
            }
            addr = prev;
        }
    }

    /// Visit every element of a holistic key's chain. The order is the
    /// layout's — runs newest first, each run's elements oldest first —
    /// and not promised: callers treat the elements as a multiset.
    pub fn for_each_element(&self, key: StateKey, mut f: impl FnMut(&[u8])) {
        self.for_each_run(key, |stride, run| for_each_elem(stride, run, &mut f));
    }

    /// Number of elements in a holistic key's chain.
    pub fn element_count(&self, key: StateKey) -> usize {
        let mut n = 0;
        self.for_each_element(key, |_| n += 1);
        n
    }

    /// Visit every live key with the address of its newest entry.
    pub fn for_each_key(&self, mut f: impl FnMut(StateKey, u64)) {
        let log = &self.log;
        self.index.for_each(|addr| f(log.key_at(addr), addr));
    }

    /// Close the current epoch (§7.2.2 steps ①–④ minus the wire transfer):
    /// visit every entry written since the previous boundary — the delta —
    /// then invalidate the shipped region so future RMWs restart from the
    /// CRDT zero value, and reclaim its memory. Returns the epoch number
    /// that was closed.
    pub fn close_epoch(&mut self, mut visit: impl FnMut(&EntryHeader, &[u8])) -> u64 {
        let closed = self.epoch;
        self.log
            .for_each_in(self.epoch_begin, self.log.tail(), |_, h, v| visit(h, v));
        // Invalidate: every index entry points into [epoch_begin, tail)
        // (older regions were invalidated by previous epochs), so the whole
        // index goes; all log entries die and sealed segments are freed.
        self.index.clear();
        if let Some(dir) = self.directory.as_mut() {
            dir.clear();
        }
        self.log.kill_all();
        self.log.reclaim();
        self.epoch_begin = self.log.tail();
        self.epoch += 1;
        self.stats.epochs += 1;
        closed
    }

    /// Fast-forward the epoch counter to at least `epoch` (crash recovery).
    ///
    /// A promoted replacement node restarts with fresh fragments but must
    /// not reuse epoch ids its predecessor already shipped: receivers
    /// deduplicate replayed epochs by id, so a reused id would be silently
    /// discarded. Called once after restore, before any new epoch closes.
    pub fn resume_at_epoch(&mut self, epoch: u64) {
        if epoch > self.epoch {
            self.epoch = epoch;
        }
    }

    /// Whether this fragment has accumulated updates in the open epoch.
    pub fn is_dirty(&self) -> bool {
        self.log.tail() > self.epoch_begin
    }

    /// Size in bytes of the open epoch's delta.
    pub fn dirty_bytes(&self) -> u64 {
        self.log.tail() - self.epoch_begin
    }

    /// Unlink `key` from the index and mark its entries dead, showing each
    /// entry (newest first) to `visit` as `(stride, value)` on the way out
    /// — before the entry dies, because the death of a sealed segment's
    /// last entry releases the segment's memory. One index probe, one
    /// dependent load per run; `false` if the key was not live. Freeing
    /// dead head segments' slots ([`Self::reclaim`]) is the caller's, once
    /// per run of unlinks.
    fn unlink(&mut self, key: StateKey, mut visit: impl FnMut(usize, &[u8])) -> bool {
        let log = &self.log;
        let Some(mut addr) = self.index.remove(hash_key(key), |a| log.key_at(a) == key) else {
            return false;
        };
        loop {
            let (prev, stride, value) = self.log.link(addr);
            visit(stride, value);
            self.log.note_dead(addr);
            if prev == NO_PREV || prev < self.epoch_begin {
                break;
            }
            addr = prev;
        }
        true
    }

    /// Pop the log's fully dead head segments. Every drain calls this once
    /// per fired window, not once per key.
    pub(crate) fn reclaim(&mut self) {
        self.log.reclaim();
    }

    /// Remove a key and mark its entries dead. The key's directory entry
    /// goes stale and is skipped by the next drain of its window.
    pub fn remove(&mut self, key: StateKey) -> bool {
        let live = self.unlink(key, |_, _| {});
        self.reclaim();
        live
    }

    /// Remove a key and show its content to `emit` — the fused `get` +
    /// `remove` of the window trigger: one index probe instead of two, and
    /// nothing allocated. Fixed state is lent straight from the log;
    /// a holistic key's runs are gathered into the partition's reused
    /// [`ElementList`], one copy per run. `false`, and no call, if the key
    /// was not live.
    /// Callers [`Self::reclaim`] once they are through with a window.
    pub(crate) fn take(&mut self, key: StateKey, mut emit: impl FnMut(TriggeredData<'_>)) -> bool {
        if !self.desc.is_appended() {
            // A fixed key's chain is its one entry: one call.
            return self.unlink(key, |_, v| emit(TriggeredData::Fixed(v)));
        }
        let mut elems = std::mem::take(&mut self.elems);
        elems.clear();
        let live = self.unlink(key, |stride, run| elems.push_run(stride, run));
        if live {
            emit(TriggeredData::Elements(&elems));
        }
        self.elems = elems;
        live
    }

    /// Detach the directory lists of every window `ready` accepts, in
    /// ascending window order. `ready` is asked once per live window id
    /// and need not be monotone. The lists are in first-insertion order
    /// and may hold stale or repeated keys: resolve each entry with
    /// [`Self::take`], which yields a live key exactly once.
    pub(crate) fn take_ready_windows(
        &mut self,
        ready: impl Fn(u64) -> bool,
    ) -> Vec<(u64, KeyList)> {
        let Some(dir) = self.directory.as_mut() else {
            return Vec::new();
        };
        let windows: Vec<(u64, KeyList)> = dir.extract_if(.., |&wid, _| ready(wid)).collect();
        for chunk in windows.iter().flat_map(|(_, keys)| keys) {
            self.stats.drain_visited += chunk.len() as u64;
        }
        windows
    }

    /// The window trigger: remove every live `(window, key)` whose window
    /// satisfies `ready` and lend it to `emit`, window by window, keys in
    /// first-insertion order. Returns how many keys fired. Work is bounded
    /// by what is ready — see the module docs.
    pub fn drain_ready(
        &mut self,
        ready: impl Fn(u64) -> bool,
        mut emit: impl FnMut(TriggeredValue<'_>),
    ) -> usize {
        let mut fired = 0;
        for (window_id, keys) in self.take_ready_windows(ready) {
            for key in keys.into_iter().flatten() {
                let live = self.take(pack_key(window_id, key), |data| {
                    emit(TriggeredValue {
                        window_id,
                        key,
                        data,
                    })
                });
                fired += usize::from(live);
            }
            self.reclaim();
        }
        fired
    }
}

impl std::fmt::Debug for Partition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Partition")
            .field("id", &self.id)
            .field("epoch", &self.epoch)
            .field("keys", &self.index.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crdts::CounterCrdt;
    use crate::descriptor::appended_descriptor;

    fn counter_part() -> Partition {
        Partition::with_segment_size(0, CounterCrdt::descriptor(), 256)
    }

    #[test]
    fn rmw_creates_then_updates_in_place() {
        let mut p = counter_part();
        p.rmw(5, |v| CounterCrdt::add(v, 3));
        p.rmw(5, |v| CounterCrdt::add(v, 4));
        assert_eq!(p.get(5).map(CounterCrdt::get), Some(7));
        assert_eq!(p.stats.rmw_inserts, 1);
        assert_eq!(p.stats.rmw_hits, 1);
        assert_eq!(p.key_count(), 1);
    }

    #[test]
    fn many_keys_roundtrip() {
        let mut p = counter_part();
        for k in 0..5000u128 {
            p.rmw(k, |v| CounterCrdt::add(v, k as u64));
        }
        for k in (0..5000u128).rev() {
            assert_eq!(p.get(k).map(CounterCrdt::get), Some(k as u64), "key {k}");
        }
        assert_eq!(p.get(5001), None);
    }

    #[test]
    fn close_epoch_ships_delta_and_resets_state() {
        let mut p = counter_part();
        p.rmw(1, |v| CounterCrdt::add(v, 10));
        p.rmw(2, |v| CounterCrdt::add(v, 20));
        assert!(p.is_dirty());

        let mut shipped = Vec::new();
        let closed = p.close_epoch(|h, v| shipped.push((h.key, CounterCrdt::get(v))));
        assert_eq!(closed, 0);
        assert_eq!(p.epoch(), 1);
        shipped.sort();
        assert_eq!(shipped, vec![(1, 10), (2, 20)]);

        // Post-epoch: RMWs restart from the CRDT zero value (paper §7.2.2:
        // "discarding transferred content is safe, as RMW operations
        // restart from a zero value").
        assert!(!p.is_dirty());
        assert_eq!(p.get(1), None);
        p.rmw(1, |v| CounterCrdt::add(v, 5));
        assert_eq!(p.get(1).map(CounterCrdt::get), Some(5));

        let mut shipped2 = Vec::new();
        p.close_epoch(|h, v| shipped2.push((h.key, CounterCrdt::get(v))));
        assert_eq!(shipped2, vec![(1, 5)], "only the new delta ships");
    }

    #[test]
    fn close_epoch_reclaims_memory() {
        let mut p = counter_part();
        for k in 0..1000u128 {
            p.rmw(k, |v| CounterCrdt::add(v, 1));
        }
        let resident_before = p.resident_bytes();
        p.close_epoch(|_, _| {});
        assert!(
            p.resident_bytes() < resident_before / 2,
            "epoch close must free shipped segments: {} -> {}",
            resident_before,
            p.resident_bytes()
        );
    }

    /// The elements of `key` as a sorted multiset.
    fn multiset(p: &Partition, key: StateKey) -> Vec<Vec<u8>> {
        let mut elems = Vec::new();
        p.for_each_element(key, |e| elems.push(e.to_vec()));
        elems.sort();
        elems
    }

    /// `key`'s runs, newest first, as `(stride, element count)`.
    fn runs(p: &Partition, key: StateKey) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        p.for_each_run(key, |stride, run| {
            out.push((stride, run.len().checked_div(stride).unwrap_or(1)))
        });
        out
    }

    #[test]
    fn appends_of_one_width_share_a_run_and_a_new_width_starts_one() {
        let mut p = Partition::with_segment_size(0, appended_descriptor(), 512);
        p.append(9, b"one");
        p.append(9, b"two");
        p.append(9, b"three");
        p.append(8, b"other");
        assert_eq!(
            runs(&p, 9),
            [(5, 1), (3, 2)],
            "a stride change chains a run"
        );
        let mut got = Vec::new();
        p.for_each_element(9, |e| got.push(e.to_vec()));
        assert_eq!(
            got,
            [&b"three"[..], b"one", b"two"],
            "the layout's order: runs newest first, each run oldest first"
        );
        assert_eq!(p.element_count(9), 3);
        assert_eq!(p.element_count(8), 1);
        assert_eq!(p.element_count(7), 0);
    }

    /// A run fills to exactly the first-run size in place, the next one
    /// doubles, and growth stops at the run limit.
    #[test]
    fn runs_fill_to_their_capacity_and_grow_to_the_cap() {
        let mut p = Partition::new(0, appended_descriptor());
        for i in 0..FIRST_RUN_ELEMS as u64 {
            p.append(1, &i.to_le_bytes());
        }
        assert_eq!(runs(&p, 1), [(8, FIRST_RUN_ELEMS)], "full, not chained");
        let tail = p.dirty_bytes();
        p.append(1, &[0xFF; 8]);
        assert_eq!(runs(&p, 1), [(8, 1), (8, FIRST_RUN_ELEMS)]);
        assert_eq!(
            p.dirty_bytes() - tail,
            (HEADER_SIZE + 2 * FIRST_RUN_ELEMS * 8) as u64,
            "the second run reserves twice the first"
        );
        // 8, 16, 32, 64, 128, 256 elements, then 512 (4 KiB) runs.
        let cap = MAX_RUN_BYTES / 8;
        let total = 8 + 16 + 32 + 64 + 128 + 256 + 2 * cap;
        for i in FIRST_RUN_ELEMS + 1..total {
            p.append(1, &(i as u64).to_le_bytes());
        }
        let sizes: Vec<usize> = runs(&p, 1).iter().rev().map(|r| r.1).collect();
        assert_eq!(
            sizes,
            [8, 16, 32, 64, 128, 256, cap, cap],
            "filled to the cap"
        );
        let want: Vec<Vec<u8>> = {
            let mut w: Vec<Vec<u8>> = (0..total as u64)
                .map(|i| i.to_le_bytes().to_vec())
                .collect();
            w[FIRST_RUN_ELEMS] = vec![0xFF; 8];
            w.sort();
            w
        };
        assert_eq!(multiset(&p, 1), want);
        // Under a small segment the cap is what a segment holds.
        let mut small = Partition::with_segment_size(0, appended_descriptor(), 128);
        for i in 0..40u64 {
            small.append(2, &i.to_le_bytes());
        }
        let sizes: Vec<usize> = runs(&small, 2).iter().rev().map(|r| r.1).collect();
        assert_eq!(sizes, [8, 12, 12, 8], "96-byte runs in 128-byte segments");
    }

    /// A merged run larger than the head run's room fills the room with
    /// one copy and spills the rest into one new run, doubled or larger.
    #[test]
    fn a_merged_run_fills_the_head_and_spills_the_rest() {
        let mut p = Partition::new(0, appended_descriptor());
        for i in 0..5u8 {
            p.append(4, &[i; 4]);
        }
        let incoming: Vec<u8> = (10..60u8).flat_map(|i| [i; 4]).collect();
        p.append_run(4, 4, &incoming);
        assert_eq!(runs(&p, 4), [(4, 47), (4, 8)], "3 fill the head, 47 spill");
        assert_eq!(p.stats.appends, 55);
        let mut want: Vec<Vec<u8>> = (0..5u8).chain(10..60).map(|i| vec![i; 4]).collect();
        want.sort();
        assert_eq!(multiset(&p, 4), want);
        // Elements no run can hold stand alone: empty, or wider than the
        // stride field.
        p.append(5, &[]);
        p.append(5, &[1u8; 300]);
        p.append(5, &[2u8; 300]);
        assert_eq!(runs(&p, 5), [(0, 1), (0, 1), (0, 1)]);
        assert_eq!(multiset(&p, 5), [vec![], vec![1u8; 300], vec![2u8; 300]]);
    }

    #[test]
    fn appended_delta_ships_one_entry_per_run() {
        let mut p = Partition::with_segment_size(0, appended_descriptor(), 512);
        p.append(1, b"a");
        p.append(1, b"b");
        p.append(2, b"c");
        let mut shipped = Vec::new();
        p.close_epoch(|h, v| shipped.push((h.key, h.stride, v.to_vec())));
        assert_eq!(shipped, [(1, 1, b"ab".to_vec()), (2, 1, b"c".to_vec())]);
        // Runs restart cleanly after invalidation.
        p.append(1, b"d");
        assert_eq!(p.element_count(1), 1);
    }

    #[test]
    fn merge_fixed_applies_crdt_merge() {
        let mut p = counter_part();
        p.rmw(1, |v| CounterCrdt::add(v, 10));
        p.merge_fixed(1, &32u64.to_le_bytes());
        assert_eq!(p.get(1).map(CounterCrdt::get), Some(42));
        p.merge_fixed(2, &7u64.to_le_bytes());
        assert_eq!(p.get(2).map(CounterCrdt::get), Some(7));
    }

    #[test]
    fn remove_frees_key_and_chain() {
        let mut p = Partition::with_segment_size(0, appended_descriptor(), 256);
        for i in 0..20u64 {
            p.append(1, &i.to_le_bytes());
        }
        p.append(2, b"keep");
        assert!(p.remove(1));
        assert!(!p.remove(1));
        assert_eq!(p.element_count(1), 0);
        assert_eq!(p.element_count(2), 1);
        assert_eq!(p.key_count(), 1);
    }

    #[test]
    fn merge_batch_is_bit_identical_to_per_record_rmw() {
        let mut batched = counter_part();
        let mut serial = counter_part();
        let records: Vec<u128> = (0..400u128).map(|i| i * i % 37).collect();

        // Per-record path.
        for &k in &records {
            serial.rmw(k, |v| CounterCrdt::add(v, 2));
        }
        // Combined path: fold the whole "batch", flush once.
        let mut comb = WriteCombiner::new(CounterCrdt::descriptor(), 64);
        for &k in &records {
            assert!(comb.fold(k, |v| CounterCrdt::add(v, 2)));
        }
        let sel: Vec<u32> = (0..comb.len() as u32).collect();
        batched.merge_batch(&comb, &sel);

        assert_eq!(batched.key_count(), serial.key_count());
        for &k in &records {
            assert_eq!(batched.get(k), serial.get(k), "key {k}");
        }
        // A second flush must hit (in-place merge), not duplicate.
        let mut comb2 = WriteCombiner::new(CounterCrdt::descriptor(), 64);
        for &k in &records {
            assert!(comb2.fold(k, |v| CounterCrdt::add(v, 1)));
        }
        batched.merge_batch(&comb2, &sel);
        for &k in &records {
            serial.rmw(k, |v| CounterCrdt::add(v, 1));
        }
        for &k in &records {
            assert_eq!(batched.get(k), serial.get(k));
        }
        assert_eq!(batched.stats.rmw_inserts, serial.stats.rmw_inserts);
    }

    /// Drain everything `ready` accepts into a sorted `(window, key,
    /// counter)` list plus the returned count.
    fn drain_counters(
        p: &mut Partition,
        ready: impl Fn(u64) -> bool,
    ) -> (Vec<(u64, u64, u64)>, usize) {
        let mut out = Vec::new();
        let fired = p.drain_ready(ready, |tv| match tv.data {
            TriggeredData::Fixed(v) => out.push((tv.window_id, tv.key, CounterCrdt::get(v))),
            TriggeredData::Elements(_) => panic!("counter state is fixed"),
        });
        out.sort_unstable();
        (out, fired)
    }

    /// A lent payload copied out, elements sorted: the comparable form of
    /// a multiset.
    fn sorted(data: TriggeredData<'_>) -> Vec<Vec<u8>> {
        let mut elems = data.to_owned_elems();
        elems.sort();
        elems
    }

    /// `take` with the loan copied out; `None` if the key was not live.
    fn take_owned(p: &mut Partition, key: StateKey) -> Option<Vec<Vec<u8>>> {
        let mut got = None;
        let live = p.take(key, |data| got = Some(data.to_owned_elems()));
        assert_eq!(live, got.is_some(), "emit is called iff the key was live");
        got
    }

    #[test]
    fn take_is_get_plus_remove_in_one_probe() {
        let mut p = counter_part();
        p.rmw(5, |v| CounterCrdt::add(v, 3));
        assert!(p.take(5, |data| {
            assert_eq!(data, TriggeredData::Fixed(&3u64.to_le_bytes()));
        }));
        assert!(!p.take(5, |_| panic!("the key is gone")));
        assert_eq!(p.get(5), None);
        assert_eq!(p.key_count(), 0);

        let mut h = Partition::with_segment_size(0, appended_descriptor(), 256);
        h.append(9, b"one");
        h.append(9, b"two");
        h.append(9, b"three");
        h.append(8, b"other");
        assert!(h.take(9, |data| {
            let TriggeredData::Elements(list) = data else {
                panic!("appended state lends a list");
            };
            assert_eq!(list.len(), 3);
            let mut got: Vec<&[u8]> = list.iter().collect();
            got.sort();
            assert_eq!(got, [&b"one"[..], b"three", b"two"]);
        }));
        assert_eq!(take_owned(&mut h, 9), None);
        assert_eq!(h.element_count(9), 0);
        // The list is reused from key to key, not appended to.
        assert_eq!(take_owned(&mut h, 8), Some(vec![b"other".to_vec()]));
    }

    /// The loan outlives the entries it was read from: a key whose last
    /// entry is also the last live entry of a *sealed* segment releases
    /// that segment's memory while it is being visited
    /// ([`Lss::note_dead`]), and the value handed to `emit` is whole anyway.
    #[test]
    fn a_key_whose_death_frees_its_segment_is_lent_whole() {
        // 128-byte segments hold three 40-byte entries: keys 1..=3 fill the
        // first segment, key 4 seals it.
        let mut p = Partition::with_segment_size(0, CounterCrdt::descriptor(), 128);
        for k in 1..=4u128 {
            p.rmw(k, |v| CounterCrdt::add(v, 10 * k as u64));
        }
        assert_eq!(
            take_owned(&mut p, 1),
            Some(vec![10u64.to_le_bytes().to_vec()])
        );
        assert_eq!(
            take_owned(&mut p, 2),
            Some(vec![20u64.to_le_bytes().to_vec()])
        );
        // Key 3 is the sealed segment's last live entry.
        assert_eq!(
            take_owned(&mut p, 3),
            Some(vec![30u64.to_le_bytes().to_vec()])
        );
        p.reclaim();
        assert_eq!(p.resident_bytes(), 128, "the dead head segment is gone");
        assert_eq!(p.get(4).map(CounterCrdt::get), Some(40));

        // Appended: 30 elements are runs of 8, 12 and 10 elements, one
        // per segment; visiting them newest first kills the sealed ones
        // run by run.
        let mut h = Partition::with_segment_size(0, appended_descriptor(), 128);
        let elems: Vec<Vec<u8>> = (0..30u64).map(|i| i.to_le_bytes().to_vec()).collect();
        for e in &elems {
            h.append(9, e);
        }
        assert_eq!(runs(&h, 9), [(8, 10), (8, 12), (8, 8)]);
        let mut lent = take_owned(&mut h, 9).expect("live");
        lent.sort();
        assert_eq!(lent, elems);
        h.reclaim();
        assert_eq!(h.resident_bytes(), 128, "only the open tail segment");
    }

    #[test]
    fn drain_ready_fires_only_accepted_windows_and_need_not_be_monotone() {
        let mut p = counter_part();
        for wid in 1..=3u64 {
            for gk in 0..4u64 {
                p.rmw(pack_key(wid, gk), |v| CounterCrdt::add(v, wid * 10 + gk));
            }
        }
        let (fired, n) = drain_counters(&mut p, |w| w == 2);
        assert_eq!(n, 4);
        assert_eq!(fired, (0..4).map(|gk| (2, gk, 20 + gk)).collect::<Vec<_>>());
        // Windows 1 and 3 are untouched and still readable.
        assert_eq!(p.key_count(), 8);
        assert_eq!(p.get(pack_key(1, 0)).map(CounterCrdt::get), Some(10));
        // Exactly-once: window 2 is gone; the rest fires on demand.
        assert_eq!(drain_counters(&mut p, |w| w == 2).1, 0);
        assert_eq!(drain_counters(&mut p, |_| true).1, 8);
        assert_eq!(p.key_count(), 0);
    }

    /// Satellite (robustness): a direct `remove` leaves the directory
    /// consistent. Stale entries are skipped at drain; a key removed and
    /// re-inserted — listed twice — is emitted exactly once.
    #[test]
    fn removed_keys_go_stale_and_reinserted_keys_drain_exactly_once() {
        let mut p = counter_part();
        p.rmw(pack_key(1, 5), |v| CounterCrdt::add(v, 100));
        p.rmw(pack_key(1, 6), |v| CounterCrdt::add(v, 200));
        p.rmw(pack_key(1, 7), |v| CounterCrdt::add(v, 300));
        assert!(p.remove(pack_key(1, 5)));
        assert!(p.remove(pack_key(1, 6)));
        // Key 5 comes back with fresh state; key 6 stays gone.
        p.rmw(pack_key(1, 5), |v| CounterCrdt::add(v, 1));
        let (fired, n) = drain_counters(&mut p, |_| true);
        assert_eq!(fired, vec![(1, 5, 1), (1, 7, 300)]);
        assert_eq!(n, 2, "the count is live keys, not list entries");
        assert_eq!(
            p.stats.drain_visited, 4,
            "5, 6, 7 and 5 again were examined"
        );
        assert_eq!(p.key_count(), 0);
        assert_eq!(drain_counters(&mut p, |_| true), (vec![], 0));

        // Holistic state: the re-inserted key carries only its new chain.
        let mut h = Partition::with_segment_size(0, appended_descriptor(), 256);
        h.append(pack_key(1, 9), b"old");
        assert!(h.remove(pack_key(1, 9)));
        h.append(pack_key(1, 9), b"new");
        let mut got = Vec::new();
        let emit =
            |tv: TriggeredValue<'_>| got.push((tv.window_id, tv.key, tv.data.to_owned_elems()));
        assert_eq!(h.drain_ready(|_| true, emit), 1);
        assert_eq!(got, vec![(1, 9, vec![b"new".to_vec()])]);
    }

    /// Satellite (the complexity claim as a count, not a timing): a sweep
    /// with nothing ready examines no key, and a firing examines exactly
    /// the fired window's keys — independent of how many keys are live.
    #[test]
    fn drain_examines_ready_keys_not_live_keys() {
        const WINDOWS: u64 = 10;
        const PER_WINDOW: u64 = 10_000;
        let mut p = Partition::new(0, CounterCrdt::descriptor());
        for gk in 0..PER_WINDOW {
            for wid in 0..WINDOWS {
                p.rmw(pack_key(wid, gk), |v| CounterCrdt::add(v, 1));
            }
        }
        assert_eq!(p.key_count() as u64, WINDOWS * PER_WINDOW);
        for _ in 0..3 {
            assert_eq!(p.drain_ready(|_| false, |_| {}), 0);
        }
        assert_eq!(p.stats.drain_visited, 0, "nothing ready: no key examined");
        assert_eq!(p.drain_ready(|w| w == 4, |_| {}) as u64, PER_WINDOW);
        assert_eq!(
            p.stats.drain_visited, PER_WINDOW,
            "one window's keys, no more"
        );
        assert_eq!(p.key_count() as u64, (WINDOWS - 1) * PER_WINDOW);
    }

    #[test]
    fn close_epoch_clears_the_directory_with_the_index() {
        let mut p = counter_part();
        p.rmw(pack_key(1, 1), |v| CounterCrdt::add(v, 1));
        p.close_epoch(|_, _| {});
        assert_eq!(p.drain_ready(|_| true, |_| {}), 0);
        assert_eq!(p.stats.drain_visited, 0, "shipped keys are not listed");
        p.rmw(pack_key(1, 1), |v| CounterCrdt::add(v, 7));
        assert_eq!(drain_counters(&mut p, |_| true), (vec![(1, 1, 7)], 1));
    }

    #[test]
    fn helper_fragments_keep_no_directory_and_never_drain() {
        let mut h = Partition::helper(0, CounterCrdt::descriptor());
        h.rmw(pack_key(1, 1), |v| CounterCrdt::add(v, 4));
        assert_eq!(h.drain_ready(|_| true, |_| {}), 0);
        assert_eq!(h.get(pack_key(1, 1)).map(CounterCrdt::get), Some(4));
        // Everything a helper holds leaves through the epoch delta.
        let mut shipped = Vec::new();
        h.close_epoch(|hd, v| shipped.push((hd.key, CounterCrdt::get(v))));
        assert_eq!(shipped, vec![(pack_key(1, 1), 4)]);
    }

    /// What the model below expects a key to hold.
    #[derive(Debug, Clone, PartialEq)]
    enum Held {
        Count(u64),
        /// Oldest first.
        Elems(Vec<Vec<u8>>),
    }

    /// A `BTreeMap` oracle with the window directory's listing rule: a key
    /// is listed under its window each time it *becomes* live; a drain
    /// emits, window by window in listing order, every listed key that is
    /// live, once.
    #[derive(Default)]
    struct Oracle {
        live: BTreeMap<StateKey, Held>,
        listed: BTreeMap<u64, Vec<u64>>,
    }

    impl Oracle {
        fn held(&mut self, key: StateKey, zero: Held) -> &mut Held {
            self.live.entry(key).or_insert_with(|| {
                let (wid, gk) = unpack_key(key);
                self.listed.entry(wid).or_default().push(gk);
                zero
            })
        }
        fn add(&mut self, key: StateKey, n: u64) {
            match self.held(key, Held::Count(0)) {
                Held::Count(c) => *c += n,
                Held::Elems(_) => unreachable!("fixed model"),
            }
        }
        fn push(&mut self, key: StateKey, elem: &[u8]) {
            match self.held(key, Held::Elems(Vec::new())) {
                Held::Elems(es) => es.push(elem.to_vec()),
                Held::Count(_) => unreachable!("appended model"),
            }
        }
        /// What a trigger lends for `held`, copied out and sorted — a
        /// holistic key's elements are a multiset ([`sorted`]).
        fn triggered(held: Held) -> Vec<Vec<u8>> {
            match held {
                Held::Count(c) => vec![c.to_le_bytes().to_vec()],
                Held::Elems(mut es) => {
                    es.sort();
                    es
                }
            }
        }
        fn drain(&mut self, ready: impl Fn(u64) -> bool) -> Vec<(u64, u64, Vec<Vec<u8>>)> {
            let mut out = Vec::new();
            for (&window_id, keys) in self.listed.iter().filter(|(&w, _)| ready(w)) {
                for &key in keys {
                    if let Some(held) = self.live.remove(&pack_key(window_id, key)) {
                        out.push((window_id, key, Self::triggered(held)));
                    }
                }
            }
            self.listed.retain(|&w, _| !ready(w));
            out
        }
    }

    /// Compare every key of the domain — live or not — with the oracle:
    /// fixed values exactly, a holistic key's elements as a multiset.
    fn assert_matches(p: &Partition, oracle: &Oracle, domain: &[StateKey], at: &str) {
        assert_eq!(p.key_count(), oracle.live.len(), "{at}: key_count");
        for &key in domain {
            match oracle.live.get(&key) {
                Some(Held::Count(c)) => assert_eq!(p.get(key).map(CounterCrdt::get), Some(*c)),
                Some(Held::Elems(es)) => {
                    let want = Oracle::triggered(Held::Elems(es.clone()));
                    assert_eq!(multiset(p, key), want, "{at}: elements of {key:#x}");
                }
                None => {
                    assert_eq!(p.get(key), None, "{at}: {key:#x} is gone");
                    assert_eq!(p.element_count(key), 0);
                }
            }
        }
    }

    /// Satellite (the new addressing and insert paths under a model): one
    /// seeded operation stream per state kind and segment size — small
    /// segments, so entries keep landing on segment ends, padding and
    /// sealing — through every per-entry operation, against the oracle.
    #[test]
    fn seeded_operations_match_a_btreemap_oracle() {
        use slash_desim::DetRng;
        let domain: Vec<StateKey> = (1..=3u64)
            .flat_map(|w| (0..70u64).map(move |g| pack_key(w, g)))
            .collect();
        let cases = [128, 256, 512].into_iter();
        for (seg, appended) in cases.flat_map(|seg| [(seg, false), (seg, true)]) {
            let desc = if appended {
                appended_descriptor()
            } else {
                CounterCrdt::descriptor()
            };
            let mut rng = DetRng::new(0x19 + seg as u64 + u64::from(appended));
            let mut p = Partition::with_segment_size(0, desc, seg);
            let mut oracle = Oracle::default();
            let mut comb = WriteCombiner::new(desc, 64);
            let pick = |rng: &mut DetRng| domain[rng.next_below(domain.len() as u64) as usize];
            for step in 0..4_000u32 {
                let at = format!("seg {seg} appended {appended} step {step}");
                let key = pick(&mut rng);
                let n = 1 + rng.next_below(9);
                match (rng.next_below(100), appended) {
                    (0..=39, false) => {
                        p.rmw(key, |v| CounterCrdt::add(v, n));
                        oracle.add(key, n);
                    }
                    (40..=54, false) => {
                        p.merge_fixed(key, &n.to_le_bytes());
                        oracle.add(key, n);
                    }
                    (55..=69, false) => {
                        for _ in 0..12 {
                            let key = pick(&mut rng);
                            assert!(comb.fold(key, |v| CounterCrdt::add(v, n)));
                            oracle.add(key, n);
                        }
                        let sel: Vec<u32> = (0..comb.len() as u32).collect();
                        p.merge_batch(&comb, &sel);
                        comb.clear();
                    }
                    (0..=44, true) => {
                        // 1..=24 bytes: stored sizes 40, 48 and 56.
                        let elem = vec![step as u8; 1 + rng.next_below(24) as usize];
                        p.append(key, &elem);
                        oracle.push(key, &elem);
                    }
                    (45..=59, true) => {
                        let keys: Vec<StateKey> = (0..10).map(|_| pick(&mut rng)).collect();
                        let elems: Vec<u8> =
                            (0..keys.len() * 5).map(|b| b as u8 ^ n as u8).collect();
                        p.append_batch(&keys, &elems, 5);
                        for (key, elem) in keys.iter().zip(elems.chunks(5)) {
                            oracle.push(*key, elem);
                        }
                    }
                    (60..=69, true) => {
                        // A helper's run merged in: often more than the
                        // head run's room.
                        let elems: Vec<u8> = (0..5 * (1 + rng.next_below(40)))
                            .map(|b| (b as u8).wrapping_mul(n as u8))
                            .collect();
                        p.append_run(key, 5, &elems);
                        for elem in elems.chunks(5) {
                            oracle.push(key, elem);
                        }
                    }
                    (70..=79, _) => {
                        let want = oracle.live.remove(&key).map(Oracle::triggered);
                        let got = take_owned(&mut p, key).map(|mut es| {
                            es.sort();
                            es
                        });
                        assert_eq!(got, want, "{at}: take");
                    }
                    (80..=89, _) => {
                        assert_eq!(p.remove(key), oracle.live.remove(&key).is_some(), "{at}");
                    }
                    (90..=97, _) => {
                        let w = 1 + rng.next_below(3);
                        let mut got = Vec::new();
                        let fired = p.drain_ready(
                            |x| x == w,
                            |tv| got.push((tv.window_id, tv.key, sorted(tv.data))),
                        );
                        assert_eq!(got, oracle.drain(|x| x == w), "{at}: drain of {w}");
                        assert_eq!(fired, got.len());
                    }
                    _ => {
                        // The delta holds, in log order, every entry written
                        // this epoch, a run per entry; a live key's newest
                        // elements are its state.
                        let mut shipped: BTreeMap<StateKey, Vec<Vec<u8>>> = BTreeMap::new();
                        p.close_epoch(|h, v| {
                            let to = shipped.entry(h.key).or_default();
                            for_each_elem(h.stride.into(), v, |e| to.push(e.to_vec()));
                        });
                        for (key, held) in std::mem::take(&mut oracle.live) {
                            let want = match held {
                                Held::Count(c) => vec![c.to_le_bytes().to_vec()],
                                Held::Elems(es) => es,
                            };
                            let got = &shipped[&key];
                            assert_eq!(got[got.len() - want.len()..], want[..], "{at}: delta");
                        }
                        oracle.listed.clear();
                        assert!(!p.is_dirty());
                    }
                }
                if step % 16 == 0 {
                    assert_matches(&p, &oracle, &domain, &at);
                }
                if step % 256 == 0 {
                    // Snapshot → restore: chunks small enough to split runs.
                    let chunks = crate::snapshot::snapshot_chunks(&p, 0, 256);
                    let (restored, _) = crate::snapshot::restore(0, desc, &chunks);
                    assert_matches(&restored, &oracle, &domain, &format!("{at}: restored"));
                }
            }
            assert!(p.stats.epochs > 10 && p.stats.drain_visited > 0);
        }
    }

    #[test]
    fn for_each_key_visits_live_keys() {
        let mut p = counter_part();
        for k in 0..10u128 {
            p.rmw(k, |v| CounterCrdt::add(v, 1));
        }
        p.remove(3);
        let mut keys = Vec::new();
        p.for_each_key(|k, _| keys.push(k));
        keys.sort();
        let expect: Vec<u128> = (0..10).filter(|&k| k != 3).collect();
        assert_eq!(keys, expect);
    }
}
