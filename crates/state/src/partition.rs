//! A partition fragment: hash index + log + epoch boundary.
//!
//! Every node holds one `Partition` object per SSB partition: the one it
//! leads (its *primary* partition, where deltas from helpers are merged and
//! windows trigger) and a *fragment* of every remote partition (where its
//! own eager updates accumulate between epochs).
//!
//! Every write walks its key's window index once (`probe`), keeping the
//! log slot the matching verify resolved. Fixed state has one write body
//! behind per-record [`Partition::rmw`], the leader's
//! [`Partition::merge_fixed`] and the combiner flush, which merges one
//! partial at a time: a hit is updated in place, a miss appended with its
//! value filled where it will live. Holistic state's one append body is
//! [`Partition::append_run`].
//!
//! The index is **window-scoped**: every open window — the id in a state
//! key's high half — has a `HashIndex` of its own. The window trigger
//! ([`Partition::drain_ready`]) asks `ready` once per open window and
//! retires a window that fires whole: it reads the window's entries —
//! fixed state by one log scan between the window's first and last
//! insert, skipping other windows' entries and dead ones, so keys fire in
//! arrival order; holistic keys by head-run address — lends each to
//! `emit`, marks it dead, and keeps the cleared index for a new window. A
//! sweep with nothing ready costs O(#windows), a firing O(that window).
//!
//! Holistic (appended) state is a chain of **runs** per key, newest first
//! from the index: log entries of fixed-stride elements back to back, each
//! with a reserved capacity ([`crate::entry`]). An append writes into the
//! key's newest run in place while it has room — no index install, no new
//! header — and chains a new run when it is full, its capacity doubling
//! from `FIRST_RUN_ELEMS` elements up to `MAX_RUN_BYTES`. A merged run
//! fills the newest run's room with one copy and spills the rest into new
//! runs; a trigger walks runs, not elements.

use crate::descriptor::StateDescriptor;
use crate::entry::{for_each_elem, EntryHeader, EntryKind, HEADER_SIZE, NO_PREV};
use crate::hash::{hash_key, unpack_key, StateKey};
use crate::index::{Entry, HashIndex};
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
    pub(crate) fn clear(&mut self) {
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

/// Elements a holistic key's first run holds. Chosen by measurement
/// (EXPERIMENTS.md, the first-run sweep on `join_thr2`): eight elements
/// of any stride are a whole number of 8-byte units, and a fired NB11
/// group holds about four.
const FIRST_RUN_ELEMS: usize = 8;

/// The largest value space one run reserves: a run that fills its page
/// chains the next one at the same size, so an idle key's slack stays
/// under a page.
const MAX_RUN_BYTES: usize = 4096;

/// One open window: the index of its live keys, and the log addresses of
/// the first and last fixed entries inserted into it — the range its
/// retirement scans.
struct Window {
    id: u64,
    index: HashIndex,
    first: u64,
    last: u64,
}

impl Window {
    fn new(id: u64, index: HashIndex) -> Self {
        Window {
            id,
            index,
            first: u64::MAX,
            last: 0,
        }
    }
}

/// Keep a retired window's index for the next new window — at most one.
fn keep_spare(spare: &mut Option<HashIndex>, mut index: HashIndex) {
    if spare.is_none() {
        index.clear();
        *spare = Some(index);
    }
}

/// The write walk every entry path shares: `key`'s chain in `index`, once.
/// The verify that matches resolves the entry's [`Slot`], so a hit is read
/// or written through it instead of resolving its address a second time.
#[inline]
fn probe<'a>(index: &'a mut HashIndex, log: &Lss, key: StateKey, hash: u64) -> (Entry<'a>, Slot) {
    let mut hit = Slot::default();
    let entry = index.entry(hash, |addr| {
        let slot = log.slot(addr);
        let found = log.key_in(slot) == key;
        if found {
            hit = slot;
        }
        found
    });
    (entry, hit)
}

/// A partition's open windows: the one last routed to inline — most
/// operations touch it again and reach its index with no extra load — the
/// others ascending by id, and a retired window's cleared index.
#[derive(Default)]
struct Windows {
    hot: Option<Window>,
    rest: Vec<Window>,
    spare: Option<HashIndex>,
}

impl Windows {
    /// Window `wid`, if it is open.
    #[inline]
    fn get(&self, wid: u64) -> Option<&Window> {
        match &self.hot {
            Some(w) if w.id == wid => Some(w),
            _ => self.get_cold(wid),
        }
    }

    #[cold]
    fn get_cold(&self, wid: u64) -> Option<&Window> {
        self.rest.iter().find(|w| w.id == wid)
    }

    /// Window `wid`, made the hot one — opened on the spare index, or a
    /// fresh one, if it is new.
    #[inline]
    fn route(&mut self, wid: u64) -> &mut Window {
        if !matches!(&self.hot, Some(w) if w.id == wid) {
            self.reroute(wid);
        }
        // `reroute` left window `wid` hot; the fallback never runs.
        self.hot
            .get_or_insert_with(|| Window::new(wid, HashIndex::new()))
    }

    #[cold]
    #[inline(never)]
    fn reroute(&mut self, wid: u64) {
        let next = match self.rest.iter().position(|w| w.id == wid) {
            Some(at) => self.rest.remove(at),
            None => Window::new(wid, self.spare.take().unwrap_or_default()),
        };
        if let Some(cold) = self.hot.replace(next) {
            let at = self.rest.partition_point(|w| w.id < cold.id);
            self.rest.insert(at, cold);
        }
    }

    /// Take window `wid` out, if it is open.
    fn close(&mut self, wid: u64) -> Option<Window> {
        if let hot @ Some(_) = self.hot.take_if(|w| w.id == wid) {
            return hot;
        }
        let at = self.rest.iter().position(|w| w.id == wid)?;
        Some(self.rest.remove(at))
    }

    /// The open windows, ascending by id.
    fn iter(&self) -> impl Iterator<Item = &Window> {
        let hot = self.hot.as_ref();
        let split = hot.map_or(0, |h| self.rest.partition_point(|w| w.id < h.id));
        let (before, after) = self.rest.split_at(split);
        before.iter().chain(hot).chain(after)
    }

    /// Empty every window for a new epoch; one that took no key in the
    /// epoch closes.
    fn reset(&mut self) {
        let idle = self.rest.extract_if(.., |w| w.index.is_empty());
        for w in idle.chain(self.hot.take_if(|w| w.index.is_empty())) {
            keep_spare(&mut self.spare, w.index);
        }
        for w in self.rest.iter_mut().chain(&mut self.hot) {
            w.index.clear();
            (w.first, w.last) = (u64::MAX, 0);
        }
    }
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
    /// Epochs closed on this fragment.
    pub epochs: u64,
    /// Keys examined by window drains: the key counts of the windows that
    /// fired. A sweep in which no window is ready adds nothing.
    pub drain_visited: u64,
}

/// One partition's local storage on one node.
pub struct Partition {
    /// Partition id within the SSB.
    pub id: usize,
    /// The open windows, each with its own index.
    windows: Windows,
    log: Lss,
    /// Entries below this address are read-only/invalidated (shipped).
    epoch_begin: u64,
    /// Epoch counter, versioning the fragment's content (§7.2.2 step ①).
    epoch: u64,
    desc: StateDescriptor,
    /// The most value space one run takes, in bytes (a multiple of 8):
    /// `MAX_RUN_BYTES`, or what a small test segment holds.
    run_limit: usize,
    /// The element list of the holistic key being triggered.
    elems: ElementList,
    /// Operation counters.
    pub stats: PartitionStats,
}

impl Partition {
    /// Create an empty partition: a leader's primary, a helper's fragment,
    /// a baseline's operator state, a restored snapshot.
    pub fn new(id: usize, desc: StateDescriptor) -> Self {
        Self::with_segment_size(id, desc, crate::log::DEFAULT_SEGMENT_SIZE)
    }

    /// Test/bench constructor with a custom segment size.
    pub fn with_segment_size(id: usize, desc: StateDescriptor, seg: usize) -> Self {
        Partition {
            id,
            windows: Windows::default(),
            log: Lss::with_segment_size(seg),
            epoch_begin: 0,
            epoch: 0,
            desc,
            run_limit: MAX_RUN_BYTES.min((seg - HEADER_SIZE) & !7),
            elems: ElementList::default(),
            stats: PartitionStats::default(),
        }
    }

    /// The state descriptor.
    pub(crate) fn descriptor(&self) -> &StateDescriptor {
        &self.desc
    }

    /// Current epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of distinct live keys.
    pub fn key_count(&self) -> usize {
        self.windows.iter().map(|w| w.index.len()).sum()
    }

    /// Resident log bytes (capacity planning / adaptive sizing stats).
    pub fn resident_bytes(&self) -> usize {
        self.log.resident_bytes()
    }

    /// The address of `key`'s newest entry, if it is live.
    #[inline]
    fn find(&self, key: StateKey) -> Option<u64> {
        let w = self.windows.get(unpack_key(key).0)?;
        let log = &self.log;
        w.index.find(hash_key(key), |addr| log.key_at(addr) == key)
    }

    /// The one fixed-state write, behind per-record [`Self::rmw`], the
    /// leader's [`Self::merge_fixed`] and the combiner flush
    /// ([`Self::merge_partial`]): one walk of `key`'s window index. A hit's
    /// value goes to `write` in place, through the slot the verify resolved;
    /// a miss appends an entry whose value `write` fills where it will live,
    /// told it is fresh.
    #[inline]
    fn write_fixed(&mut self, key: StateKey, hash: u64, write: impl FnOnce(&mut [u8], bool)) {
        debug_assert!(
            !self.desc.is_appended(),
            "fixed-state write on appended state"
        );
        let w = self.windows.route(unpack_key(key).0);
        let (entry, hit) = probe(&mut w.index, &self.log, key, hash);
        if let Some(addr) = entry.addr() {
            debug_assert!(
                addr >= self.epoch_begin,
                "index points into the invalidated region"
            );
            write(self.log.value_mut_in(hit), false);
            self.stats.rmw_hits += 1;
        } else {
            let size = self.desc.fixed_size();
            let fill = |value: &mut [u8]| write(value, true);
            let addr = self
                .log
                .append_with(key, NO_PREV, EntryKind::Fixed, size, fill);
            let log = &self.log;
            entry.put(addr, |a| hash_key(log.key_at(a)));
            w.first = w.first.min(addr);
            w.last = addr;
            self.stats.rmw_inserts += 1;
        }
    }

    /// Read-modify-write of fixed-size state: the hot path of every
    /// non-holistic windowed aggregation. `update` sees the current value
    /// (CRDT zero for fresh keys) and mutates it in place — in the log
    /// either way: a fresh key's value is initialised and updated where it
    /// will live, not in a buffer copied there.
    pub fn rmw(&mut self, key: StateKey, update: impl FnOnce(&mut [u8])) {
        let init = self.desc.init;
        self.write_fixed(key, hash_key(key), |value, fresh| {
            if fresh {
                init(value);
            }
            update(value);
        });
    }

    /// Merge one write-combiner partial — `key`, its memoized `hash` and
    /// the folded value — into fixed-size state through
    /// [`StateDescriptor::merge_partial`]: the combiner flush, entry by
    /// entry.
    pub(crate) fn merge_partial(&mut self, key: StateKey, hash: u64, partial: &[u8]) {
        let desc = self.desc;
        self.write_fixed(key, hash, |value, fresh| {
            desc.merge_partial(value, fresh, partial)
        });
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
    pub(crate) fn append_run(&mut self, key: StateKey, stride: u8, elems: &[u8]) {
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
        let w = self.windows.route(unpack_key(key).0);
        let (entry, hit) = probe(&mut w.index, &self.log, key, hash_key(key));
        let mut rest = elems;
        let (mut head, mut grown) = match entry.addr() {
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
            None => (NO_PREV, 0),
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
        let log = &self.log;
        entry.put(head, |a| hash_key(log.key_at(a)));
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

    /// Merge a value into fixed-size state by the combiner flush's rule,
    /// with one hash of `key` (leader-side delta replay, snapshot restore).
    pub fn merge_fixed(&mut self, key: StateKey, src: &[u8]) {
        // A closure of its own: sharing the flush's takes the flush's write
        // out of line (measured: `skew_sim4x2` at 0.976x the wall rate on
        // a 2-vCPU VM).
        let desc = self.desc;
        self.write_fixed(key, hash_key(key), |v, fresh| {
            desc.merge_partial(v, fresh, src)
        });
    }

    /// Read fixed-size state.
    pub fn get(&self, key: StateKey) -> Option<&[u8]> {
        self.find(key).map(|addr| self.log.value(addr))
    }

    /// Visit every run of a holistic key's chain, newest first, as
    /// `(stride, elements)` — stride 0 for an entry that is one element.
    pub(crate) fn for_each_run(&self, key: StateKey, mut f: impl FnMut(usize, &[u8])) {
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
    pub(crate) fn for_each_element(&self, key: StateKey, mut f: impl FnMut(&[u8])) {
        self.for_each_run(key, |stride, run| for_each_elem(stride, run, &mut f));
    }

    /// Number of elements in a holistic key's chain.
    #[cfg(test)]
    pub(crate) fn element_count(&self, key: StateKey) -> usize {
        let mut n = 0;
        self.for_each_element(key, |_| n += 1);
        n
    }

    /// Visit every live key with the address of its newest entry: window
    /// by window, each in its index's slot order.
    pub(crate) fn for_each_key(&self, mut f: impl FnMut(StateKey, u64)) {
        let log = &self.log;
        for w in self.windows.iter() {
            w.index.for_each(|addr| f(log.key_at(addr), addr));
        }
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
        // (older regions were invalidated by previous epochs), so every
        // window's index is cleared, keeping its capacity for the window's
        // next epoch; a window that took no key this epoch closes. All log
        // entries die and sealed segments are freed.
        self.windows.reset();
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
    pub(crate) fn resume_at_epoch(&mut self, epoch: u64) {
        if epoch > self.epoch {
            self.epoch = epoch;
        }
    }

    /// Whether this fragment has accumulated updates in the open epoch.
    pub(crate) fn is_dirty(&self) -> bool {
        self.log.tail() > self.epoch_begin
    }

    /// Size in bytes of the open epoch's delta.
    pub fn dirty_bytes(&self) -> u64 {
        self.log.tail() - self.epoch_begin
    }

    /// Unlink `key` from its window's index: one index probe. Returns its
    /// newest entry's address, `None` if the key was not live.
    fn detach(&mut self, key: StateKey) -> Option<u64> {
        let wid = unpack_key(key).0;
        self.windows.get(wid)?;
        let (w, log) = (self.windows.route(wid), &self.log);
        w.index.remove(hash_key(key), |a| log.key_at(a) == key)
    }

    /// Mark dead the chain of entries from `addr` back, showing each entry
    /// (newest first) to `visit` as `(stride, value)` on the way out —
    /// before the entry dies, because the death of a sealed segment's last
    /// entry releases the segment's memory. One dependent load per run.
    /// Freeing dead head segments' slots ([`Lss::reclaim`]) is the
    /// caller's, once per run of kills.
    fn kill_chain(&mut self, mut addr: u64, mut visit: impl FnMut(usize, &[u8])) {
        loop {
            let (prev, stride, value) = self.log.link(addr);
            visit(stride, value);
            self.log.note_dead(addr);
            if prev == NO_PREV || prev < self.epoch_begin {
                break;
            }
            addr = prev;
        }
    }

    /// Kill the holistic key whose newest run is `head` and lend its runs
    /// to `emit`, gathered into the partition's reused [`ElementList`]:
    /// one copy per run, nothing allocated.
    fn lend(&mut self, head: u64, emit: impl FnOnce(TriggeredData<'_>)) {
        let mut elems = std::mem::take(&mut self.elems);
        elems.clear();
        self.kill_chain(head, |stride, run| elems.push_run(stride, run));
        emit(TriggeredData::Elements(&elems));
        self.elems = elems;
    }

    /// Remove a key and mark its entries dead; `false` if it was not live.
    pub fn remove(&mut self, key: StateKey) -> bool {
        let Some(head) = self.detach(key) else {
            return false;
        };
        self.kill_chain(head, |_, _| {});
        self.log.reclaim();
        true
    }

    /// The open windows `ready` accepts, ascending. `ready` is asked once
    /// per open window and need not be monotone.
    pub(crate) fn ready_windows(&self, ready: impl Fn(u64) -> bool) -> Vec<u64> {
        let ids = self.windows.iter().map(|w| w.id);
        ids.filter(|&id| ready(id)).collect()
    }

    /// Retire window `window_id` whole (see the module docs): lend every
    /// live key to `emit` as `(group key, data)` — fixed state in log
    /// order, holistic keys by head-run address — mark its entries dead
    /// and keep the cleared index for a later window. Returns how many
    /// keys fired.
    pub(crate) fn retire(
        &mut self,
        window_id: u64,
        mut emit: impl FnMut(u64, TriggeredData<'_>),
    ) -> usize {
        let Some(Window {
            index, first, last, ..
        }) = self.windows.close(window_id)
        else {
            return 0;
        };
        let fired = index.len();
        self.stats.drain_visited += fired as u64;
        if self.desc.is_appended() {
            let mut heads = Vec::with_capacity(fired);
            index.for_each(|addr| heads.push(addr));
            heads.sort_unstable();
            for head in heads {
                let key = unpack_key(self.log.key_at(head)).1;
                self.lend(head, |data| emit(key, data));
            }
        } else if fired > 0 {
            let mut seen = 0;
            self.log.retire_in(first, last + 1, |key, value| {
                let (wid, gk) = unpack_key(key);
                let ours = wid == window_id;
                if ours {
                    emit(gk, TriggeredData::Fixed(value));
                    seen += 1;
                }
                ours
            });
            debug_assert_eq!(seen, fired, "a window's range holds its live keys");
        }
        self.log.reclaim();
        keep_spare(&mut self.windows.spare, index);
        fired
    }

    /// The window trigger: retire every window `ready` accepts, in
    /// ascending window order, lending each live `(window, key)` to `emit`.
    /// Returns how many keys fired. Work is bounded by what is ready — see
    /// the module docs.
    pub fn drain_ready(
        &mut self,
        ready: impl Fn(u64) -> bool,
        mut emit: impl FnMut(TriggeredValue<'_>),
    ) -> usize {
        let mut fired = 0;
        for window_id in self.ready_windows(ready) {
            fired += self.retire(window_id, |key, data| {
                emit(TriggeredValue {
                    window_id,
                    key,
                    data,
                })
            });
        }
        fired
    }
}

impl std::fmt::Debug for Partition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Partition")
            .field("id", &self.id)
            .field("epoch", &self.epoch)
            .field("keys", &self.key_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combiner::WriteCombiner;
    use crate::crdts::CounterCrdt;
    use crate::descriptor::appended_descriptor;
    use crate::hash::pack_key;
    use std::collections::BTreeMap;

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

    /// The combiner flush of one fragment: every buffered partial through
    /// [`Partition::merge_partial`], in insertion order, then the table
    /// cleared.
    fn flush(p: &mut Partition, comb: &mut WriteCombiner) {
        for (key, hash, partial, _) in comb.entries() {
            p.merge_partial(key, hash, partial);
        }
        comb.clear();
    }

    #[test]
    fn merge_partial_is_bit_identical_to_per_record_rmw() {
        let mut combined = counter_part();
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
        flush(&mut combined, &mut comb);

        assert_eq!(combined.key_count(), serial.key_count());
        for &k in &records {
            assert_eq!(combined.get(k), serial.get(k), "key {k}");
        }
        // A second flush must hit (in-place merge), not duplicate.
        for &k in &records {
            assert!(comb.fold(k, |v| CounterCrdt::add(v, 1)));
        }
        flush(&mut combined, &mut comb);
        for &k in &records {
            serial.rmw(k, |v| CounterCrdt::add(v, 1));
        }
        for &k in &records {
            assert_eq!(combined.get(k), serial.get(k));
        }
        assert_eq!(combined.stats.rmw_inserts, serial.stats.rmw_inserts);
        // First touches insert in the same order: the logs are byte for
        // byte the same.
        let entries = |p: &mut Partition| {
            let mut out = Vec::new();
            p.close_epoch(|h, v| out.push((h.key, v.to_vec())));
            out
        };
        assert_eq!(entries(&mut combined), entries(&mut serial));
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

    /// Remove a key and show its content to `emit` — the per-key form of
    /// the window trigger: one index probe, nothing allocated. `false`, and
    /// no call, if the key was not live.
    fn take(p: &mut Partition, key: StateKey, mut emit: impl FnMut(TriggeredData<'_>)) -> bool {
        let Some(head) = p.detach(key) else {
            return false;
        };
        if p.desc.is_appended() {
            p.lend(head, emit);
        } else {
            p.kill_chain(head, |_, v| emit(TriggeredData::Fixed(v)));
        }
        true
    }

    /// `take` with the loan copied out; `None` if the key was not live.
    fn take_owned(p: &mut Partition, key: StateKey) -> Option<Vec<Vec<u8>>> {
        let mut got = None;
        let live = take(p, key, |data| got = Some(data.to_owned_elems()));
        assert_eq!(live, got.is_some(), "emit is called iff the key was live");
        got
    }

    #[test]
    fn take_is_get_plus_remove_in_one_probe() {
        let mut p = counter_part();
        p.rmw(5, |v| CounterCrdt::add(v, 3));
        assert!(take(&mut p, 5, |data| {
            assert_eq!(data, TriggeredData::Fixed(&3u64.to_le_bytes()));
        }));
        assert!(!take(&mut p, 5, |_| panic!("the key is gone")));
        assert_eq!(p.get(5), None);
        assert_eq!(p.key_count(), 0);

        let mut h = Partition::with_segment_size(0, appended_descriptor(), 256);
        h.append(9, b"one");
        h.append(9, b"two");
        h.append(9, b"three");
        h.append(8, b"other");
        assert!(take(&mut h, 9, |data| {
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
        p.log.reclaim();
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
        h.log.reclaim();
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

    /// A direct `remove` marks the key's entry dead, so the window's scan
    /// skips it: a removed key never drains, and a key removed and
    /// re-inserted — two entries in the window's range, one dead — drains
    /// exactly once, with its new state, where its new entry sits.
    #[test]
    fn removed_keys_never_drain_and_reinserted_keys_drain_once() {
        let mut p = counter_part();
        p.rmw(pack_key(1, 5), |v| CounterCrdt::add(v, 100));
        p.rmw(pack_key(1, 6), |v| CounterCrdt::add(v, 200));
        p.rmw(pack_key(1, 7), |v| CounterCrdt::add(v, 300));
        assert!(p.remove(pack_key(1, 5)));
        assert!(p.remove(pack_key(1, 6)));
        // Key 5 comes back with fresh state; key 6 stays gone.
        p.rmw(pack_key(1, 5), |v| CounterCrdt::add(v, 1));
        let mut fired = Vec::new();
        let n = p.drain_ready(
            |_| true,
            |tv| match tv.data {
                TriggeredData::Fixed(v) => fired.push((tv.key, CounterCrdt::get(v))),
                TriggeredData::Elements(_) => panic!("counter state is fixed"),
            },
        );
        assert_eq!(fired, vec![(7, 300), (5, 1)], "log order");
        assert_eq!(n, 2);
        assert_eq!(p.stats.drain_visited, 2, "the window's live keys");
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
        let live = (WINDOWS - 1) * PER_WINDOW;
        assert_eq!(p.log.live_entries(), live, "the fired entries died");
    }

    /// A retired window's cleared index opens the next new window, so a
    /// second window of the same size fills without growing its index;
    /// without a spare a window starts small and doubles its way up.
    #[test]
    fn a_retired_windows_index_is_reused() {
        const KEYS: u64 = 5_000;
        let mut p = Partition::new(0, CounterCrdt::descriptor());
        let fill = |p: &mut Partition, wid: u64| {
            for gk in 0..KEYS {
                p.rmw(pack_key(wid, gk), |v| CounterCrdt::add(v, gk));
            }
            assert_eq!(p.key_count() as u64, KEYS, "window {wid}");
            p.windows.get(wid).map(|w| w.index.capacity())
        };
        let fresh = HashIndex::new().capacity();
        let grown = fill(&mut p, 1);
        assert!(grown > Some(fresh), "the first window grew its index");
        assert_eq!(p.drain_ready(|_| true, |_| {}) as u64, KEYS);
        let spare = p.windows.spare.as_ref().map(HashIndex::capacity);
        assert_eq!(spare, grown);
        assert_eq!(fill(&mut p, 2), grown, "no growth in the second window");
        assert!(p.windows.spare.is_none(), "the spare went to window 2");
        let (fired, n) = drain_counters(&mut p, |_| true);
        assert_eq!(n as u64, KEYS);
        assert_eq!(fired, (0..KEYS).map(|gk| (2, gk, gk)).collect::<Vec<_>>());
    }

    /// An epoch close clears every window's index: what was shipped is no
    /// longer live, a window that took keys keeps its index for the next
    /// epoch, and a window that took none closes.
    #[test]
    fn close_epoch_clears_every_windows_index() {
        let mut p = counter_part();
        p.rmw(pack_key(1, 1), |v| CounterCrdt::add(v, 1));
        p.close_epoch(|_, _| {});
        assert_eq!(p.windows.iter().count(), 1, "window 1 stays open, empty");
        assert_eq!(p.drain_ready(|w| w == 2, |_| {}), 0);
        p.close_epoch(|_, _| {});
        assert_eq!(p.windows.iter().count(), 0, "an idle window closes");
        assert!(
            p.windows.spare.is_some(),
            "and leaves its index as the spare"
        );
        assert_eq!(p.drain_ready(|_| true, |_| {}), 0);
        assert_eq!(p.stats.drain_visited, 0, "shipped keys are not live");
        p.rmw(pack_key(1, 1), |v| CounterCrdt::add(v, 7));
        assert_eq!(drain_counters(&mut p, |_| true), (vec![(1, 1, 7)], 1));
    }

    /// What the model below expects a key to hold.
    #[derive(Debug, Clone, PartialEq)]
    enum Held {
        Count(u64),
        /// Oldest first.
        Elems(Vec<Vec<u8>>),
    }

    /// A `BTreeMap` oracle that numbers keys in the order they *become*
    /// live — the order their entries enter the log — and drains, window
    /// by window, every live key in that order, once.
    #[derive(Default)]
    struct Oracle {
        /// Each live key's birth number and what it holds.
        live: BTreeMap<StateKey, (u64, Held)>,
        births: u64,
    }

    impl Oracle {
        fn held(&mut self, key: StateKey, zero: Held) -> &mut Held {
            let born = &mut self.births;
            let (_, held) = self.live.entry(key).or_insert_with(|| {
                *born += 1;
                (*born, zero)
            });
            held
        }
        fn remove(&mut self, key: StateKey) -> Option<Held> {
            self.live.remove(&key).map(|(_, held)| held)
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
            let fired = self.live.extract_if(.., |&key, _| ready(unpack_key(key).0));
            let mut rows: Vec<_> = fired
                .map(|(key, (born, held))| (unpack_key(key), born, Self::triggered(held)))
                .collect();
            rows.sort_by_key(|&((window_id, _), born, _)| (window_id, born));
            rows.into_iter().map(|((w, gk), _, v)| (w, gk, v)).collect()
        }
    }

    /// Compare every key of the domain — live or not — with the oracle:
    /// fixed values exactly, a holistic key's elements as a multiset.
    fn assert_matches(p: &Partition, oracle: &Oracle, domain: &[StateKey], at: &str) {
        assert_eq!(p.key_count(), oracle.live.len(), "{at}: key_count");
        for &key in domain {
            match oracle.live.get(&key) {
                Some((_, Held::Count(c))) => {
                    assert_eq!(p.get(key).map(CounterCrdt::get), Some(*c))
                }
                Some((_, Held::Elems(es))) => {
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
                        flush(&mut p, &mut comb);
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
                        let want = oracle.remove(key).map(Oracle::triggered);
                        let got = take_owned(&mut p, key).map(|mut es| {
                            es.sort();
                            es
                        });
                        assert_eq!(got, want, "{at}: take");
                    }
                    (80..=89, _) => {
                        assert_eq!(p.remove(key), oracle.remove(key).is_some(), "{at}");
                    }
                    (90..=97, _) => {
                        // Fixed keys drain in log order; holistic keys fire
                        // by head-run address, compared as a multiset.
                        let w = 1 + rng.next_below(3);
                        let mut got = Vec::new();
                        let fired = p.drain_ready(
                            |x| x == w,
                            |tv| got.push((tv.window_id, tv.key, sorted(tv.data))),
                        );
                        let mut want = oracle.drain(|x| x == w);
                        if appended {
                            got.sort();
                            want.sort();
                        }
                        assert_eq!(got, want, "{at}: drain of {w}");
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
                        for (key, (_, held)) in std::mem::take(&mut oracle.live) {
                            let want = match held {
                                Held::Count(c) => vec![c.to_le_bytes().to_vec()],
                                Held::Elems(es) => es,
                            };
                            let got = &shipped[&key];
                            assert_eq!(got[got.len() - want.len()..], want[..], "{at}: delta");
                        }
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
