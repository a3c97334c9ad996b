//! The per-node SSB facade: routing, epochs, triggering (§7).
//!
//! A node routes every state write to its partition fragment: per record
//! ([`SsbNode::rmw`], [`SsbNode::append`]) or, for exact aggregations,
//! through the workers' write combiners, which the node owns and flushes in
//! one pass over each table — every partial merged into its fragment by
//! the write `rmw` uses — when a table is full and whenever open-epoch
//! local state is read.

use std::collections::BTreeMap;

use slash_desim::{Sim, SimTime};
use slash_net::{create_channel, ChannelConfig, Violation, Violations};
use slash_obs::{HeatSketch, Obs, Stage, HEAT_CAPACITY};
use slash_rdma::{Fabric, NodeId};

use crate::coherence::{DeltaReceiver, DeltaSender, StateError};
use crate::combiner::{RunEnd, WriteCombiner, VERDICT_FOLDS};
use crate::descriptor::StateDescriptor;
use crate::hash::{partition_of, unpack_key, StateKey};
use crate::partition::Partition;
pub use crate::partition::{ElementList, TriggeredData, TriggeredValue};
use crate::split::{SplitLedger, SUB_KEY_TAG};
use crate::vclock::VectorClock;

pub mod recovery;

/// SSB-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct SsbConfig {
    /// Executors (== partitions: one primary per node, §7.2.2 setup).
    pub nodes: usize,
    /// Close an epoch after this many bytes of state updates (the paper
    /// configures "the epoch of SSB to end every 64 MB of data").
    pub epoch_bytes: u64,
    /// RDMA channel configuration for delta shipping.
    pub channel: ChannelConfig,
}

impl SsbConfig {
    /// Paper-default configuration for `nodes` executors.
    pub fn new(nodes: usize) -> Self {
        SsbConfig {
            nodes,
            epoch_bytes: 64 * 1024 * 1024,
            channel: ChannelConfig::default(),
        }
    }
}

/// One executor's view of the distributed state backend.
///
/// Holds the primary partition it leads, a fragment of every remote
/// partition, the delta channels, and the vector clock. Not `Send` (its
/// trace handles are `Rc`-based): a node is built and driven on one
/// thread — the simulator's, or its own node thread under the threaded
/// backend, which moves only the raw channel ends across threads.
pub struct SsbNode {
    node: usize,
    cfg: SsbConfig,
    fragments: Vec<Partition>,
    /// Outbound delta shipping, indexed by partition; `None` at `node`.
    senders: Vec<Option<DeltaSender>>,
    /// Inbound delta merging, indexed by helper; `None` at `node`.
    receivers: Vec<Option<DeltaReceiver>>,
    vclock: VectorClock,
    bytes_since_epoch: u64,
    local_watermark: u64,
    obs: Obs,
    /// Per-key heat sketch (SpaceSaving top-k over group keys). `None`
    /// unless the node is instrumented, so the uninstrumented hot path
    /// pays a single branch and no sketch maintenance.
    heat: Option<HeatSketch>,
    /// State updates routed to each partition since construction
    /// (published as `partition_updates` counters).
    part_updates: Vec<u64>,
    /// State updates applied in the open epoch (published as the
    /// `records_per_epoch` gauge when the epoch closes).
    epoch_updates: u64,
    /// Hot-key split ledger (see [`crate::split`]); `None` unless the
    /// driver enables splitting, so the default drain path is untouched.
    /// Every node carries an identical copy, kept in sync by the split
    /// driver activating keys on all nodes in one simulation step.
    split: Option<SplitLedger>,
    /// The workers' write combiners, in registration order (worker order
    /// under every shipped driver). They live as long as the epoch:
    /// [`Self::fold_batch`] fills them across batches, [`Self::flush_combiners`]
    /// drains them when the epoch closes or anything else reads open-epoch
    /// local state.
    combiners: Vec<WriteCombiner>,
    /// Protocol violations counted by this node's own checks, plus the
    /// counts of every endpoint or node it replaced.
    violations: Violations,
    /// Fault injection (verification only): ship the next closed epoch
    /// with a stale watermark.
    fault_stale_watermark: bool,
}

impl SsbNode {
    /// The executor index this node represents.
    pub fn node(&self) -> usize {
        self.node
    }

    /// The backend's vector clock.
    pub fn vclock(&self) -> &VectorClock {
        &self.vclock
    }

    /// Fault injection (verification only): the next epoch this node
    /// closes ships a stale watermark, 0, so `slash-verify` mutation tests
    /// see the leaders' check fire. Never call this from protocol code.
    #[doc(hidden)]
    pub fn fault_stale_watermark(&mut self) {
        self.fault_stale_watermark = true;
    }

    /// Protocol violations counted on this node: its own checks and every
    /// delta endpoint's (DESIGN §8).
    pub fn violations(&self) -> Violations {
        let mut v = self.violations;
        for s in self.senders.iter().flatten() {
            v.absorb(&s.channel_stats().violations);
        }
        for r in self.receivers.iter().flatten() {
            v.absorb(&r.violations());
        }
        v
    }

    /// Count a violation found outside this node (split-ledger agreement).
    pub fn note_violation(&mut self, kind: Violation, context: impl FnOnce() -> String) {
        self.violations.note(kind, &self.obs, context);
    }

    /// Carry the counts of the node this one replaces.
    pub fn inherit_violations(&mut self, from: &SsbNode) {
        self.violations.absorb(&from.violations());
    }

    /// Advance vector-clock slot `slot` to `wm`, counting a stale one.
    fn advance_clock(&mut self, slot: usize, wm: u64) {
        if !self.vclock.update(slot, wm) {
            let (node, vc) = (self.node, self.vclock.snapshot());
            let context = || format!("node {node}: watermark {wm} after vclock={vc:?}");
            let (v, obs) = (&mut self.violations, &self.obs);
            v.note(Violation::StaleWatermark, obs, context);
        }
    }

    /// Which partition a key routes to.
    fn partition_of(&self, key: StateKey) -> usize {
        partition_of(key, self.cfg.nodes)
    }

    /// Cumulative state updates routed to each partition since
    /// construction — the load signal elastic scale controllers consume.
    /// All zeros unless the node is instrumented (telemetry is free off).
    /// Sampling flushes the write combiners first: per-key weights reach
    /// the telemetry at flush time, and a director that read them up to an
    /// epoch late would steer by stale load.
    pub fn partition_updates(&mut self) -> &[u64] {
        self.flush_combiners();
        &self.part_updates
    }

    /// Account one state update for the heat/partition telemetry. Only
    /// instrumented nodes carry a sketch; the common uninstrumented case
    /// is one branch.
    #[inline]
    fn note_update(&mut self, key: StateKey, p: usize, weight: u64) {
        if let Some(h) = self.heat.as_mut() {
            h.observe(unpack_key(key).1, weight);
            self.part_updates[p] += weight;
            self.epoch_updates += weight;
        }
    }

    /// Epoch volume one fixed-size entry adds to the open delta.
    #[inline]
    fn entry_bytes(&self) -> u64 {
        self.fragments[self.node].descriptor().fixed_size() as u64 + 32
    }

    /// Read-modify-write: the eager per-record update of partial state —
    /// Slash's common-case operation (§7.1.2). Routes to the key's
    /// partition fragment; no re-partitioning, no queueing.
    pub fn rmw(&mut self, key: StateKey, update: impl FnOnce(&mut [u8])) {
        let p = self.partition_of(key);
        self.fragments[p].rmw(key, update);
        self.bytes_since_epoch += self.entry_bytes();
        self.note_update(key, p, 1);
    }

    /// Append an element to holistic state: into the key's newest run in
    /// its partition fragment ([`Partition::append`]).
    pub fn append(&mut self, key: StateKey, elem: &[u8]) {
        let p = self.partition_of(key);
        self.fragments[p].append(key, elem);
        self.bytes_since_epoch += elem.len() as u64 + 32;
        self.note_update(key, p, 1);
    }

    /// Register one worker's write combiner — `slots` wide, for this
    /// node's fixed-size state — and return its id for [`Self::fold_batch`].
    /// The node owns the table from here on.
    pub fn attach_combiner(&mut self, slots: usize) -> usize {
        let desc = *self.fragments[self.node].descriptor();
        self.combiners.push(WriteCombiner::new(desc, slots));
        self.combiners.len() - 1
    }

    /// Worker table `id`, for its owner to read: whether a reuse verdict
    /// turned it off ([`WriteCombiner::is_cold`]), how many updates it
    /// folded and how many keys entered it ([`WriteCombiner::folds`],
    /// [`WriteCombiner::inserts`] — each key entered is one partial merged
    /// at a flush).
    pub fn combiner(&self, id: usize) -> &WriteCombiner {
        &self.combiners[id]
    }

    /// The combined counterpart of per-record [`Self::rmw`], for a batch:
    /// fold the items of `recs`, in order, into worker table `id` — each
    /// into the partial of the key `key_of` gives it, with `update` — where
    /// they wait, across batches, for the flush that closes the epoch. The
    /// loop is the table's batch kernel (`WriteCombiner::fold_run`);
    /// this routine only handles where a run stops. Epoch volume advances
    /// when a key *enters* the table, not per folded record and not at the
    /// flush: the open delta really is one entry per key, and
    /// [`Self::maybe_close_epoch`] has to see it on time.
    ///
    /// Returns when `recs` runs out or when a verdict turns the table off
    /// ([`WriteCombiner::is_cold`]) — the cold-stream probe at
    /// `VERDICT_FOLDS` folds, or the verdict of the flush a full table
    /// forced. The table was then drained, and the caller goes on per
    /// record from the next item of `recs`; every item taken from `recs`
    /// is applied either way.
    #[inline]
    pub fn fold_batch<R>(
        &mut self,
        id: usize,
        recs: &mut impl Iterator<Item = R>,
        mut key_of: impl FnMut(&R) -> StateKey,
        update: impl Fn(&R, &mut [u8]),
    ) {
        let entry_bytes = self.entry_bytes();
        loop {
            let table = &mut self.combiners[id];
            let (folds, entered) = (table.folds(), table.inserts());
            // Up to the probe's fold, then unbounded: the probe fires once,
            // at exactly the fold a per-record loop would fire it at.
            let budget = match folds < VERDICT_FOLDS {
                true => VERDICT_FOLDS - folds,
                false => u64::MAX,
            };
            let end = table.fold_run(recs, budget, &mut key_of, &update);
            self.bytes_since_epoch += entry_bytes * (table.inserts() - entered);
            match end {
                RunEnd::Exhausted => return,
                RunEnd::Budget => {}
                RunEnd::Full(rec, key) => {
                    // At its fill limit: drain the table and retry — the
                    // retry always lands (table now empty).
                    if self.flush_combiner(id) {
                        self.rmw(key, |v| update(&rec, v));
                        return;
                    }
                    self.combiners[id].fold(key, |v| update(&rec, v));
                    self.bytes_since_epoch += entry_bytes;
                }
            }
            if self.combiners[id].folds() == VERDICT_FOLDS && self.combiners[id].probe_reuse() {
                self.flush_combiner(id);
                return;
            }
        }
    }

    /// Drain worker table `id` into the fragments and judge its reuse;
    /// returns whether the verdict turned it off.
    #[cold]
    fn flush_combiner(&mut self, id: usize) -> bool {
        let mut tables = std::mem::take(&mut self.combiners);
        self.merge_partials(&mut tables[id]);
        let cold = tables[id].judge_flush();
        self.combiners = tables;
        cold
    }

    /// Drain every worker table, in registration order. Runs first thing
    /// in [`Self::close_epoch`] and in every other reader of open-epoch
    /// local state, so buffered partials are never missing from a delta,
    /// a checkpoint or a telemetry sample.
    fn flush_combiners(&mut self) {
        for id in 0..self.combiners.len() {
            self.flush_combiner(id);
        }
    }

    /// Flush a caller-held [`WriteCombiner`] — the batched counterpart of
    /// per-record [`Self::rmw`], and the merge the node's own tables go
    /// through (`merge_partials`). Clears the combiner and
    /// returns how many distinct entries flushed. Epoch byte-accounting
    /// advances per flushed entry, not per folded record: the open delta
    /// really is that much smaller — write combining is also coalescing
    /// the coherence traffic.
    pub fn rmw_batch(&mut self, comb: &mut WriteCombiner) -> u64 {
        let n = self.merge_partials(comb);
        self.bytes_since_epoch += self.entry_bytes() * n;
        n
    }

    /// The one flush routine: one pass over `comb`'s partials in insertion
    /// order, each routed to its partition fragment and merged there by the
    /// write [`Self::rmw`] uses ([`Partition::merge_partial`]), its fold
    /// count — the true per-key update weight the table absorbed on the
    /// worker's behalf — going to the heat telemetry. Clears `comb`; volume
    /// accounting is the caller's.
    fn merge_partials(&mut self, comb: &mut WriteCombiner) -> u64 {
        for (key, hash, partial, folds) in comb.entries() {
            let p = self.partition_of(key);
            self.fragments[p].merge_partial(key, hash, partial);
            self.note_update(key, p, folds);
        }
        let n = comb.len();
        comb.clear();
        n as u64
    }

    /// Read fixed state from the local fragment, buffered partials merged
    /// in (diagnostics; consistent reads come from the leader after
    /// merging).
    pub fn local_get(&mut self, key: StateKey) -> Option<&[u8]> {
        self.flush_combiners();
        self.fragments[self.partition_of(key)].get(key)
    }

    /// Advance the executor's low watermark (max event time processed).
    pub fn note_progress(&mut self, watermark: u64) {
        if watermark > self.local_watermark {
            self.local_watermark = watermark;
        }
    }

    /// Close an epoch if enough update volume accumulated. Returns true if
    /// an epoch was closed.
    pub fn maybe_close_epoch(&mut self, sim: &mut Sim) -> Result<Option<u64>, StateError> {
        if self.bytes_since_epoch >= self.cfg.epoch_bytes {
            return self.close_epoch(sim).map(Some);
        }
        Ok(None)
    }

    /// Close the open epoch now (§7.2.2 synchronization phase): ship every
    /// dirty fragment's delta toward its leader and advance our own
    /// vector-clock slot. Also called ahead of schedule on window triggers
    /// ("a Slash instance signals the ahead-of-time termination of an
    /// epoch upon window triggering").
    pub fn close_epoch(&mut self, sim: &mut Sim) -> Result<u64, StateError> {
        self.flush_combiners();
        let wm = self.local_watermark;
        let shipped = match std::mem::take(&mut self.fault_stale_watermark) {
            true => 0,
            false => wm,
        };
        let now = sim.now();
        let mut delta_bytes = 0;
        for p in 0..self.cfg.nodes {
            if p == self.node {
                continue;
            }
            delta_bytes += self.fragments[p].dirty_bytes();
            // `build_cluster` creates a sender for every remote partition;
            // a missing one would be a wiring bug, not a runtime condition.
            let Some(sender) = self.senders[p].as_mut() else {
                debug_assert!(false, "sender exists for every remote partition");
                continue;
            };
            sender.enqueue_epoch(&mut self.fragments[p], shipped, now);
            // A faulted channel (QP in error state) is not a protocol
            // error: the epoch stays queued (and retained, in
            // fault-tolerant runs) until recovery re-establishes the
            // channel. Anything else is a real bug and propagates.
            match sender.pump(sim) {
                Ok(_) | Err(slash_rdma::RdmaError::QpError) => {}
                Err(e) => return Err(e.into()),
            }
        }
        self.advance_clock(self.node, wm);
        self.bytes_since_epoch = 0;
        if self.heat.is_some() {
            self.obs.gauge_set(
                "records_per_epoch",
                &format!("node{}", self.node),
                self.epoch_updates as f64,
            );
            self.epoch_updates = 0;
        }
        Ok(delta_bytes)
    }

    /// Make progress on delta shipping and merging. Returns
    /// `(chunks_sent, entries_merged)`; the engine calls this from its
    /// RDMA coroutines.
    ///
    /// Channels whose QP sits in the error state (fault window, awaiting
    /// recovery) are skipped rather than surfaced: the recovery
    /// orchestrator sees the stalled epoch token and repairs them with
    /// [`recovery::relink`].
    pub fn pump(&mut self, sim: &mut Sim) -> Result<(u64, u64), StateError> {
        let mut sent = 0;
        for s in self.senders.iter_mut().flatten() {
            match s.pump(sim) {
                Ok(n) => sent += n as u64,
                Err(slash_rdma::RdmaError::QpError) => {}
                Err(e) => return Err(StateError::Rdma(e)),
            }
        }
        let mut merged = 0;
        let primary = &mut self.fragments[self.node];
        for r in self.receivers.iter_mut().flatten() {
            match r.pump(sim, primary, &mut self.vclock) {
                Ok(n) => merged += n,
                Err(StateError::Rdma(slash_rdma::RdmaError::QpError)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok((sent, merged))
    }

    /// Whether all shipped deltas left this node (no sender backlog).
    pub fn flushed(&self) -> bool {
        self.senders.iter().flatten().all(|s| s.backlog() == 0)
    }

    /// Whether the open epoch holds updates: in a remote fragment, or
    /// still buffered in a write combiner.
    pub fn dirty(&self) -> bool {
        let shippable = |(p, f): (usize, &Partition)| p != self.node && f.is_dirty();
        self.fragments.iter().enumerate().any(shippable)
            || self.combiners.iter().any(|t| !t.is_empty())
    }

    // ------------------------------------------------------------------
    // Hot-key splitting (see [`crate::split`]).
    // ------------------------------------------------------------------

    /// Install an (empty) split ledger, making this node split-capable,
    /// and enable the heat sketch so the split director has a signal even
    /// on otherwise uninstrumented runs. Idempotent.
    pub fn split_enable(&mut self) {
        if self.split.is_none() {
            self.split = Some(SplitLedger::new(self.cfg.nodes));
        }
        self.heat
            .get_or_insert_with(|| HeatSketch::new(HEAT_CAPACITY));
    }

    /// Activate splitting for group key `gk` on this node's ledger copy.
    /// Rejected (returning `false`) without a ledger, for state that is
    /// not [`StateDescriptor::regroupable`] (the combiner's gate), and for
    /// keys the ledger itself refuses.
    pub fn split_activate(&mut self, gk: u64) -> bool {
        if !self.fragments[self.node].descriptor().regroupable() {
            return false;
        }
        // Partials buffered under the canonical key leave before the salt
        // map diverts its updates.
        self.flush_combiners();
        self.split.as_mut().is_some_and(|l| l.split(gk))
    }

    /// The split ledger's change counter; `0` when splitting is disabled
    /// or no key is split — the hot path's one-compare fast path.
    pub fn split_version(&self) -> u64 {
        self.split.as_ref().map_or(0, |l| l.version())
    }

    /// Active split canonical keys (ascending); empty when disabled.
    pub fn split_keys(&self) -> Vec<u64> {
        self.split
            .as_ref()
            .map_or_else(Vec::new, |l| l.split_keys())
    }

    /// `(canonical, sub)` salt pairs for *this* node's replica — the map
    /// the hot path consults to salt updates of split keys.
    pub fn split_pairs(&self) -> Vec<(u64, u64)> {
        self.split
            .as_ref()
            .map_or_else(Vec::new, |l| l.pairs_for(self.node))
    }

    /// This node's ledger copy ([`SsbNode::restored`] installs a clone in
    /// a replacement, which must fold and label split keys exactly like
    /// its predecessor).
    pub fn split_ledger(&self) -> Option<&SplitLedger> {
        self.split.as_ref()
    }

    /// The live heat sketch, if telemetry is on (instrumented node or
    /// split-enabled node). The split driver merges these per tick;
    /// like [`Self::partition_updates`], sampling flushes the combiners.
    pub fn heat_snapshot(&mut self) -> Option<&HeatSketch> {
        self.flush_combiners();
        self.heat.as_ref()
    }

    /// Drain every `(window, key)` of this node's primary partition whose
    /// window satisfies `ready` — the leader-side window trigger. Values
    /// are removed from the state (windows fire once), and their log
    /// entries are garbage collected. Returns how many live keys left the
    /// state.
    ///
    /// Each window of the primary has its own index
    /// ([`Partition::drain_ready`]): `ready` is asked once per open window
    /// (it need not be monotone), and a window that fires is retired whole
    /// — a call with nothing ready costs O(#windows), a firing O(that
    /// window), never O(live keys). Results come window by window in
    /// ascending window order; fixed state in log order, which is the
    /// order keys first arrived, holistic keys by their newest run's
    /// address.
    ///
    /// When a split ledger is active, the constituents of a split
    /// `(window, key)` — its per-replica sub-keys plus any canonical
    /// entry — are folded into one value with the descriptor's CRDT merge
    /// and emitted once under the canonical key: the reconciliation half
    /// of hot-key splitting. Sub-keys share the canonical key's window id
    /// and leader, so a ready window always drains all its constituents
    /// together.
    pub fn drain_triggered(
        &mut self,
        ready: impl Fn(u64) -> bool,
        mut emit: impl FnMut(TriggeredValue<'_>),
    ) -> usize {
        let primary = &mut self.fragments[self.node];
        // Appended (holistic) state never splits — `split_activate` gates
        // on the descriptor — so only fixed state takes the folding path.
        let ledger = match self.split.as_ref() {
            Some(l) if !l.is_empty() && !primary.descriptor().is_appended() => l,
            _ => return primary.drain_ready(ready, emit),
        };
        let merge = primary.descriptor().merge;
        // Canonical group key → the fold of its split's live constituents.
        let mut groups: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut fired = 0;
        for window_id in primary.ready_windows(ready) {
            fired += primary.retire(window_id, |gk, data| {
                let canon = if gk & SUB_KEY_TAG != 0 {
                    // An orphan sub-key (ledger replaced mid-flight) still
                    // drains — as its own result, never lost.
                    ledger.canonical_of(gk).map(|(canon, _)| canon)
                } else {
                    ledger.is_split(gk).then_some(gk)
                };
                match (canon, data) {
                    // Merge into the zero value is the identity: the first
                    // constituent seeds its group.
                    (Some(canon), TriggeredData::Fixed(value)) => {
                        let group = groups.entry(canon).and_modify(|acc| merge(acc, value));
                        group.or_insert_with(|| value.to_vec());
                    }
                    _ => emit(TriggeredValue {
                        window_id,
                        key: gk,
                        data,
                    }),
                }
            });
            for (canon, acc) in std::mem::take(&mut groups) {
                emit(TriggeredValue {
                    window_id,
                    key: canon,
                    data: TriggeredData::Fixed(&acc),
                });
            }
        }
        fired
    }

    /// Serialize this node's primary partition at the current epoch
    /// boundary (see [`crate::snapshot`]).
    fn snapshot_primary(&self, max_chunk: usize) -> Vec<Vec<u8>> {
        crate::snapshot::snapshot_chunks(
            &self.fragments[self.node],
            self.local_watermark,
            max_chunk,
        )
    }

    /// Replace this node's primary partition with a restored snapshot.
    /// The snapshot's watermark becomes the local one.
    fn restore_primary(&mut self, chunks: &[Vec<u8>]) {
        let desc = *self.fragments[self.node].descriptor();
        let (part, wm) = crate::snapshot::restore(self.node, desc, chunks);
        self.fragments[self.node] = part;
        self.note_progress(wm);
        self.advance_clock(self.node, wm);
    }

    // ------------------------------------------------------------------
    // Construction and the fault-tolerance knobs a driver turns while a
    // node runs. Checkpoint, restore, rejoin and relink — everything that
    // rebuilds or rewires a node — live in [`recovery`].
    // ------------------------------------------------------------------

    /// Build a node around its delta endpoints: `senders[l]` ships this
    /// node's fragment of partition `l` to its leader, `receivers[h]`
    /// merges helper `h`'s deltas into the primary; both rows are indexed
    /// by peer and `None` at `node`. The memory behind an endpoint's
    /// channel (the simulated fabric or a thread-shared ring) is the
    /// endpoint's business. The one constructor: [`build_cluster`], the
    /// threaded executor and [`SsbNode::restored`] all build nodes here.
    pub fn with_endpoints(
        node: usize,
        desc: StateDescriptor,
        cfg: SsbConfig,
        senders: Vec<Option<DeltaSender>>,
        receivers: Vec<Option<DeltaReceiver>>,
    ) -> SsbNode {
        assert_eq!(senders.len(), cfg.nodes, "one sender slot per partition");
        assert_eq!(receivers.len(), cfg.nodes, "one receiver slot per helper");
        SsbNode {
            node,
            cfg,
            fragments: (0..cfg.nodes).map(|p| Partition::new(p, desc)).collect(),
            senders,
            receivers,
            vclock: VectorClock::new(cfg.nodes),
            bytes_since_epoch: 0,
            local_watermark: 0,
            obs: Obs::disabled(),
            heat: None,
            part_updates: vec![0; cfg.nodes],
            epoch_updates: 0,
            split: None,
            combiners: Vec::new(),
            violations: Violations::default(),
            fault_stale_watermark: false,
        }
    }

    /// A node with fragments and vector clock but **no channels**: a
    /// single-node backend, or the blank a [`SsbNode::restored`]
    /// replacement starts from before [`recovery::rejoin`] wires it.
    pub fn detached(node: usize, desc: StateDescriptor, cfg: SsbConfig) -> SsbNode {
        SsbNode::with_endpoints(node, desc, cfg, none_row(cfg.nodes), none_row(cfg.nodes))
    }

    /// Epochs this node has closed so far (all remote fragments advance in
    /// lockstep; single-node clusters close no shippable epochs).
    pub fn epochs_closed(&self) -> u64 {
        self.fragments
            .iter()
            .enumerate()
            .filter(|(p, _)| *p != self.node)
            .map(|(_, f)| f.epoch())
            .max()
            .unwrap_or(0)
    }

    /// Enable epoch retention on every outbound sender (fault-tolerant
    /// runs call this before any epoch closes).
    pub fn set_retention(&mut self, retain: bool) {
        for s in self.senders.iter_mut().flatten() {
            s.set_retention(retain);
        }
    }

    /// Prune retained epochs toward `leader` below `epoch` (covered by the
    /// leader's durable checkpoint).
    pub fn prune_retained(&mut self, leader: usize, epoch: u64) {
        if let Some(s) = self.senders[leader].as_mut() {
            s.prune_retained_below(epoch);
        }
    }

    /// Advance the durability gate for epochs from `helper`.
    pub fn set_durable_epochs(&mut self, helper: usize, durable_epochs: u64) {
        if let Some(r) = self.receivers[helper].as_mut() {
            r.set_durable_epochs(durable_epochs);
        }
    }

    /// Deterministic digest of this node's primary partition content
    /// (keys, values, element multisets — not timing). Two runs that
    /// converge to the same state digest equal; used by the exactness
    /// checks of chaos runs and the golden determinism tests.
    pub fn state_digest(&self) -> u64 {
        let primary = &self.fragments[self.node];
        // Partials still buffered for the primary are part of its content:
        // a `&self` reader cannot flush, so it merges them on the side.
        let desc = primary.descriptor();
        let mut buffered: BTreeMap<StateKey, Vec<u8>> = BTreeMap::new();
        for table in &self.combiners {
            for (key, _, partial, _) in table.entries() {
                if self.partition_of(key) == self.node {
                    let mut fresh = false;
                    let value = buffered.entry(key).or_insert_with(|| {
                        let held = primary.get(key);
                        fresh = held.is_none();
                        held.map_or_else(|| vec![0; partial.len()], <[u8]>::to_vec)
                    });
                    desc.merge_partial(value, fresh, partial);
                }
            }
        }
        let mut keys: Vec<StateKey> = buffered.keys().copied().collect();
        primary.for_each_key(|k, _| {
            if !buffered.contains_key(&k) {
                keys.push(k)
            }
        });
        keys.sort_unstable();
        let mut h: u64 = 0x51A5_4D16_E57A_7E00;
        let mut fold = |v: u64| {
            let mut z = h.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(v);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            h = z ^ (z >> 31);
        };
        let fold_bytes = |fold: &mut dyn FnMut(u64), b: &[u8]| {
            fold(b.len() as u64);
            for chunk in b.chunks(8) {
                let mut w = [0u8; 8];
                w[..chunk.len()].copy_from_slice(chunk);
                fold(u64::from_le_bytes(w));
            }
        };
        let appended = desc.is_appended();
        for key in keys {
            fold(key as u64);
            fold((key >> 64) as u64);
            if appended {
                let mut elems: Vec<Vec<u8>> = Vec::new();
                primary.for_each_element(key, |e| elems.push(e.to_vec()));
                elems.sort();
                fold(elems.len() as u64);
                for e in &elems {
                    fold_bytes(&mut fold, e);
                }
            } else if let Some(v) = buffered.get(&key).map(Vec::as_slice).or(primary.get(key)) {
                fold_bytes(&mut fold, v);
            }
        }
        h
    }

    /// Aggregate operation counters across fragments.
    #[cfg(test)]
    fn stats(&self) -> crate::partition::PartitionStats {
        let mut total = crate::partition::PartitionStats::default();
        for f in &self.fragments {
            total.rmw_hits += f.stats.rmw_hits;
            total.rmw_inserts += f.stats.rmw_inserts;
            total.appends += f.stats.appends;
            total.epochs += f.stats.epochs;
            total.drain_visited += f.stats.drain_visited;
        }
        total
    }

    /// Live keys in this node's primary partition.
    #[cfg(test)]
    fn primary_key_count(&self) -> usize {
        self.fragments[self.node].key_count()
    }

    /// Total resident state bytes on this node (all fragments).
    pub fn resident_bytes(&self) -> usize {
        self.fragments.iter().map(|f| f.resident_bytes()).sum()
    }

    /// Attach a trace handle to this node and every delta endpoint it
    /// owns: channel verb instants, epoch phase spans, and merge-latency
    /// histograms all flow into `obs`. Turns the heat sketch on; a sketch
    /// already running (an earlier call, [`Self::split_enable`]) keeps its
    /// counts, so telemetry reads the same traced and untraced.
    pub fn instrument(&mut self, obs: Obs) {
        let node = self.node as u32;
        for (leader, sender) in self.senders.iter_mut().enumerate() {
            if let Some(s) = sender {
                s.instrument(obs.clone(), node, leader as u32);
            }
        }
        for r in self.receivers.iter_mut().flatten() {
            r.instrument(obs.clone(), node);
        }
        self.obs = obs;
        self.heat
            .get_or_insert_with(|| HeatSketch::new(HEAT_CAPACITY));
    }

    /// Emit the SSB-apply stage span for a worker batch: the worker owns
    /// the interval boundaries (its busy-window segmentation), the backend
    /// owns the emission — the apply stage belongs to the state layer.
    pub fn record_apply_span(&self, tid: u32, start: SimTime, end: SimTime, records: u64) {
        self.obs
            .span_open(Stage::SsbApply, self.node as u32, tid, start);
        self.obs
            .span_close(Stage::SsbApply, self.node as u32, tid, end, records);
    }

    /// Total payload bytes this node's delta senders pushed onto their
    /// links. The threaded executor sums this across nodes as its
    /// substitute for `Fabric::total_tx_bytes` (thread-shared rings bypass
    /// the simulated fabric entirely).
    pub fn tx_payload_bytes(&self) -> u64 {
        self.senders
            .iter()
            .flatten()
            .map(|s| s.channel_stats().payload_bytes)
            .sum()
    }

    /// Publish this node's channel statistics into the obs registry
    /// (buffer counters and residence-latency histograms per channel).
    pub fn publish_obs(&self) {
        for (leader, sender) in self.senders.iter().enumerate() {
            if let Some(s) = sender {
                let label = format!("chan={}->{}", self.node, leader);
                s.channel_stats().publish(&self.obs, &label);
                self.obs
                    .gauge_set("queue_depth_peak", &label, s.peak_backlog() as f64);
            }
        }
        for r in self.receivers.iter().flatten() {
            let label = format!("chan={}->{}", r.helper(), self.node);
            r.channel_stats().publish(&self.obs, &label);
        }
        let node_label = format!("node{}", self.node);
        for (p, &n) in self.part_updates.iter().enumerate() {
            if n > 0 {
                self.obs
                    .counter_add("partition_updates", &format!("{node_label} part={p}"), n);
            }
        }
        if let Some(h) = self.heat.as_ref() {
            if !h.is_empty() {
                self.obs.heat_merge("key_heat", &node_label, h);
            }
        }
    }
}

/// A row of `n` unwired endpoint slots.
fn none_row<T>(n: usize) -> Vec<Option<T>> {
    (0..n).map(|_| None).collect()
}

/// One node's ends of a mesh: outbound ends indexed by leader, inbound
/// ends indexed by helper, `None` on the diagonal — the rows
/// [`SsbNode::with_endpoints`] takes.
pub(crate) type MeshRow<S, R> = (Vec<Option<S>>, Vec<Option<R>>);

/// Wire a full directed mesh over `n` nodes: `link(helper, leader)` makes
/// the two ends of one link, helper-major. Returns each node's row.
pub fn full_mesh<S, R>(
    n: usize,
    mut link: impl FnMut(usize, usize) -> (S, R),
) -> Vec<MeshRow<S, R>> {
    let mut rows: Vec<_> = (0..n).map(|_| (none_row(n), none_row(n))).collect();
    for helper in 0..n {
        for leader in (0..n).filter(|&l| l != helper) {
            let (tx, rx) = link(helper, leader);
            rows[helper].0[leader] = Some(tx);
            rows[leader].1[helper] = Some(rx);
        }
    }
    rows
}

/// Build the SSB for a cluster: one [`SsbNode`] per executor and the
/// `n × (n-1)` delta channels between them (the paper's `n²` channel setup
/// minus the self-loops, which need no wire).
pub fn build_cluster(
    fabric: &Fabric,
    nodes: &[NodeId],
    desc: StateDescriptor,
    cfg: SsbConfig,
) -> Vec<SsbNode> {
    build_cluster_obs(fabric, nodes, desc, cfg, Obs::disabled())
}

/// [`build_cluster`] with tracing: every node and delta endpoint is
/// instrumented against `obs` before any traffic flows.
pub fn build_cluster_obs(
    fabric: &Fabric,
    nodes: &[NodeId],
    desc: StateDescriptor,
    cfg: SsbConfig,
    obs: Obs,
) -> Vec<SsbNode> {
    assert_eq!(nodes.len(), cfg.nodes, "config must match the node list");
    let mesh = full_mesh(cfg.nodes, |helper, leader| {
        let (tx, rx) = create_channel(fabric, nodes[helper], nodes[leader], cfg.channel);
        (DeltaSender::new(tx), DeltaReceiver::new(rx, helper))
    });
    mesh.into_iter()
        .enumerate()
        .map(|(i, (senders, receivers))| {
            let mut node = SsbNode::with_endpoints(i, desc, cfg, senders, receivers);
            if obs.is_enabled() {
                node.instrument(obs.clone());
            }
            node
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crdts::CounterCrdt;
    use crate::hash::pack_key;
    use slash_rdma::FabricConfig;

    fn cluster(n: usize) -> (Sim, Vec<SsbNode>) {
        cluster_of(n, CounterCrdt::descriptor())
    }

    fn cluster_of(n: usize, desc: StateDescriptor) -> (Sim, Vec<SsbNode>) {
        let sim = Sim::new();
        let fabric = Fabric::new(FabricConfig::default());
        let nodes = fabric.add_nodes(n);
        let cfg = SsbConfig {
            nodes: n,
            epoch_bytes: u64::MAX, // manual epochs in tests
            channel: ChannelConfig {
                credits: 8,
                buffer_size: 4096,
                credit_batch: 1,
            },
        };
        let ssb = build_cluster(&fabric, &nodes, desc, cfg);
        (sim, ssb)
    }

    /// Pump all nodes until quiescent.
    fn settle(sim: &mut Sim, ssb: &mut [SsbNode]) {
        for _ in 0..10_000 {
            let mut progress = 0;
            for node in ssb.iter_mut() {
                let (s, m) = node.pump(sim).unwrap();
                progress += s + m;
            }
            sim.run();
            if progress == 0 && ssb.iter().all(|n| n.flushed()) {
                // One extra settle round for late deliveries.
                let mut extra = 0;
                for node in ssb.iter_mut() {
                    let (s, m) = node.pump(sim).unwrap();
                    extra += s + m;
                }
                if extra == 0 {
                    return;
                }
            }
        }
        panic!("cluster did not settle");
    }

    #[test]
    fn concurrent_updates_converge_to_sequential_result() {
        let (mut sim, mut ssb) = cluster(3);
        // Every node updates every key (keys are NOT pre-partitioned —
        // the whole point of omitting re-partitioning).
        for node in ssb.iter_mut() {
            for g in 0..20u64 {
                node.rmw(pack_key(1, g), |v| CounterCrdt::add(v, 1 + g));
            }
            node.note_progress(100);
        }
        for node in ssb.iter_mut() {
            node.close_epoch(&mut sim).unwrap();
        }
        settle(&mut sim, &mut ssb);

        // Every key must live on exactly one leader with the full count.
        for g in 0..20u64 {
            let key = pack_key(1, g);
            let leader = partition_of(key, 3);
            let v = ssb[leader].fragments[leader].get(key).map(CounterCrdt::get);
            assert_eq!(v, Some(3 * (1 + g)), "key {g} on leader {leader}");
            // And on no other node's primary.
            for (other, node) in ssb.iter().enumerate() {
                if other != leader {
                    assert_eq!(node.fragments[other].get(key), None);
                }
            }
        }
    }

    #[test]
    fn rmw_batch_routes_and_converges_like_per_record_rmw() {
        let run = |combined: bool| {
            let (mut sim, mut ssb) = cluster(3);
            for node in ssb.iter_mut() {
                if combined {
                    // Two flushes in one epoch: the second merges into
                    // entries the first inserted.
                    let mut comb = WriteCombiner::new(CounterCrdt::descriptor(), 64);
                    for half in [0..100u64, 100..200] {
                        for rec in half {
                            let key = pack_key(1, rec % 20);
                            assert!(comb.fold(key, |v| CounterCrdt::add(v, 1)));
                        }
                        assert_eq!(node.rmw_batch(&mut comb), 20);
                        assert!(comb.is_empty());
                    }
                } else {
                    for rec in 0..200u64 {
                        node.rmw(pack_key(1, rec % 20), |v| CounterCrdt::add(v, 1));
                    }
                }
                node.note_progress(100);
            }
            for node in ssb.iter_mut() {
                node.close_epoch(&mut sim).unwrap();
            }
            settle(&mut sim, &mut ssb);
            ssb.iter().map(|n| n.state_digest()).collect::<Vec<u64>>()
        };
        assert_eq!(
            run(true),
            run(false),
            "combined and per-record runs must converge bit-identically"
        );
    }

    /// `Partition::append_batch` and per-record appends leave every key
    /// the same element multiset and the node the same state digest.
    #[test]
    fn append_batch_and_per_record_append_leave_equal_multisets_and_digests() {
        use crate::descriptor::appended_descriptor;
        let node = || SsbNode::detached(0, appended_descriptor(), SsbConfig::new(1));
        let (mut a, mut b) = (node(), node());
        let stride = 3usize;
        let keys: Vec<StateKey> = (0..40u64).map(|i| pack_key(1, i * i % 7)).collect();
        let elems: Vec<u8> = (0..keys.len() * stride).map(|b| b as u8).collect();
        a.fragments[0].append_batch(&keys, &elems, stride);
        for (&k, e) in keys.iter().zip(elems.chunks(stride)) {
            b.append(k, e);
        }
        for &key in &keys {
            let multiset = |n: &SsbNode| {
                let mut es = Vec::new();
                n.fragments[0].for_each_element(key, |e| es.push(e.to_vec()));
                es.sort();
                es
            };
            assert_eq!(multiset(&a), multiset(&b), "key {key:#x}");
        }
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(a.fragments[0].stats.appends, 40);
    }

    #[test]
    fn instrumented_node_tracks_heat_and_partition_updates() {
        let (mut sim, mut ssb) = cluster(3);
        let obs = Obs::enabled(256);
        for node in ssb.iter_mut() {
            node.instrument(obs.clone());
        }
        // Skewed single-record stream on node 0: key 7 is hot.
        for rec in 0..100u64 {
            let g = if rec % 4 == 0 { rec % 5 } else { 7 };
            ssb[0].rmw(pack_key(1, g), |v| CounterCrdt::add(v, 1));
        }
        // Batched updates fold into the combiner first; their per-key
        // weights must survive the flush into the sketch.
        let mut comb = WriteCombiner::new(CounterCrdt::descriptor(), 64);
        for _ in 0..50u64 {
            assert!(comb.fold(pack_key(1, 7), |v| CounterCrdt::add(v, 1)));
        }
        ssb[0].rmw_batch(&mut comb);
        let top = ssb[0].heat.as_ref().unwrap().top(1);
        assert_eq!(top[0].key, 7);
        assert_eq!(top[0].count, 75 + 50);
        assert_eq!(top[0].err, 0, "well under capacity: counts are exact");
        assert_eq!(
            ssb[0].part_updates.iter().sum::<u64>(),
            150,
            "every update lands in exactly one partition bucket"
        );
        // Epoch close publishes and resets the per-epoch gauge.
        assert_eq!(ssb[0].epoch_updates, 150);
        ssb[0].note_progress(10);
        ssb[0].close_epoch(&mut sim).unwrap();
        assert_eq!(ssb[0].epoch_updates, 0);
        ssb[0].publish_obs();
        let hot = obs.heat_top("key_heat", "node0", 1);
        assert_eq!(hot[0].key, 7);
        assert_eq!(hot[0].count, 125);
    }

    #[test]
    fn uninstrumented_node_keeps_no_telemetry() {
        let (_sim, mut ssb) = cluster(2);
        ssb[0].rmw(pack_key(1, 3), |v| CounterCrdt::add(v, 1));
        assert!(ssb[0].heat.is_none());
        assert_eq!(ssb[0].part_updates.iter().sum::<u64>(), 0);
        assert_eq!(ssb[0].epoch_updates, 0);
    }

    #[test]
    fn vector_clock_advances_only_after_merge() {
        let (mut sim, mut ssb) = cluster(2);
        ssb[0].rmw(pack_key(1, 1), |v| CounterCrdt::add(v, 1));
        ssb[0].note_progress(500);
        assert_eq!(ssb[1].vclock().get(0), 0);
        ssb[0].close_epoch(&mut sim).unwrap();
        settle(&mut sim, &mut ssb);
        assert_eq!(ssb[1].vclock().get(0), 500);
        assert_eq!(ssb[0].vclock().get(0), 500, "own slot advances locally");
        assert_eq!(ssb[0].vclock().get(1), 0, "node 1 sent nothing yet");
    }

    #[test]
    fn drain_triggered_fires_ready_windows_once() {
        let (mut sim, mut ssb) = cluster(2);
        // Two windows; only window 1 becomes ready.
        for node in ssb.iter_mut() {
            node.rmw(pack_key(1, 7), |v| CounterCrdt::add(v, 5));
            node.rmw(pack_key(2, 7), |v| CounterCrdt::add(v, 9));
            node.note_progress(1000);
        }
        for node in ssb.iter_mut() {
            node.close_epoch(&mut sim).unwrap();
        }
        settle(&mut sim, &mut ssb);

        let mut fired = Vec::new();
        for node in ssb.iter_mut() {
            node.drain_triggered(
                |wid| wid == 1,
                |tv| match tv.data {
                    TriggeredData::Fixed(v) => {
                        fired.push((tv.window_id, tv.key, CounterCrdt::get(v)))
                    }
                    other => panic!("unexpected {other:?}"),
                },
            );
        }
        assert_eq!(fired, [(1, 7, 10)]);
        // Firing again yields nothing (exactly-once trigger).
        let mut again = 0;
        for node in ssb.iter_mut() {
            again += node.drain_triggered(|wid| wid == 1, |_| {});
        }
        assert_eq!(again, 0);
        // Window 2 still intact.
        let key2 = pack_key(2, 7);
        let leader2 = partition_of(key2, 2);
        assert_eq!(
            ssb[leader2].fragments[leader2]
                .get(key2)
                .map(CounterCrdt::get),
            Some(18)
        );
    }

    /// Satellite: sliding windows read *unretired* sibling slices at
    /// trigger time (`SlashWorker::run_triggers` falls back to
    /// `local_get`). Draining an earlier slice must leave the later ones
    /// readable — and open, so they fire in their own turn.
    #[test]
    fn sibling_slices_stay_readable_after_an_earlier_slice_drains() {
        let mut node = SsbNode::detached(0, CounterCrdt::descriptor(), SsbConfig::new(1));
        for slice in 1..=3u64 {
            node.rmw(pack_key(slice, 7), |v| CounterCrdt::add(v, slice));
        }
        let mut fired = Vec::new();
        assert_eq!(
            node.drain_triggered(|w| w <= 1, |tv| fired.push(tv.window_id)),
            1
        );
        assert_eq!(fired, vec![1]);
        assert_eq!(node.local_get(pack_key(1, 7)), None);
        assert_eq!(
            node.local_get(pack_key(2, 7)).map(CounterCrdt::get),
            Some(2)
        );
        assert_eq!(
            node.local_get(pack_key(3, 7)).map(CounterCrdt::get),
            Some(3)
        );
        assert_eq!(
            node.drain_triggered(|w| w <= 3, |tv| fired.push(tv.window_id)),
            2
        );
        assert_eq!(fired, vec![1, 2, 3]);
        assert_eq!(node.stats().drain_visited, 3);
    }

    /// The full-index trigger sweep this crate once used, kept only as the
    /// oracle of `window_retirement_matches_full_index_sweep`: walk every
    /// live key of every window's index, keep those whose window is ready,
    /// then `get` + `remove` each (folding split groups under their
    /// canonical key).
    fn reference_sweep_drain(
        node: &mut SsbNode,
        ready: impl Fn(u64) -> bool,
        mut emit: impl FnMut(Row),
    ) -> usize {
        let primary = &mut node.fragments[node.node];
        let appended = primary.descriptor().is_appended();
        let mut keys = Vec::new();
        primary.for_each_key(|key, _| {
            if ready(unpack_key(key).0) {
                keys.push(key);
            }
        });
        let mut plain: Vec<StateKey> = Vec::new();
        let mut groups: BTreeMap<StateKey, Vec<StateKey>> = BTreeMap::new();
        match node.split.as_ref().filter(|l| !l.is_empty() && !appended) {
            Some(ledger) => {
                for &key in &keys {
                    let (wid, gk) = unpack_key(key);
                    if gk & SUB_KEY_TAG != 0 {
                        match ledger.canonical_of(gk) {
                            Some((canon, _)) => {
                                groups.entry(pack_key(wid, canon)).or_default().push(key)
                            }
                            None => plain.push(key),
                        }
                    } else if ledger.is_split(gk) {
                        groups.entry(key).or_default().push(key);
                    } else {
                        plain.push(key);
                    }
                }
            }
            None => plain = keys.clone(),
        }
        for &key in &plain {
            let (window_id, k) = unpack_key(key);
            let mut elems = Vec::new();
            if appended {
                primary.for_each_element(key, |e| elems.push(e.to_vec()));
            } else {
                elems.push(primary.get(key).expect("indexed key is live").to_vec());
            }
            primary.remove(key);
            emit((window_id, k, elems));
        }
        let desc = *primary.descriptor();
        for (canon_key, members) in &groups {
            let (window_id, canon_gk) = unpack_key(*canon_key);
            let mut acc = vec![0u8; desc.fixed_size()];
            (desc.init)(&mut acc);
            for &member in members {
                (desc.merge)(&mut acc, primary.get(member).expect("indexed key is live"));
                primary.remove(member);
            }
            emit((window_id, canon_gk, vec![acc]));
        }
        keys.len()
    }

    /// One triggered value copied out of its loan: `(window, key, elements
    /// newest first)`, fixed state as its one value.
    type Row = (u64, u64, Vec<Vec<u8>>);

    fn row(tv: TriggeredValue<'_>) -> Row {
        (tv.window_id, tv.key, tv.data.to_owned_elems())
    }

    /// Satellite (the loan at the log's edge): a drain whose visit kills
    /// the last live entry of a *sealed* segment — the log hands that
    /// segment's memory back at once — lends every value whole, row for
    /// row what the sweep's `get` + `remove` copies out. The entries
    /// overrun the first 256 KiB segment: as 7,000 keys (fixed), and as one
    /// key's 40,000 elements in 4 KiB runs (appended).
    #[test]
    fn borrowed_drain_matches_the_sweep_across_a_dying_sealed_segment() {
        for desc in [
            CounterCrdt::descriptor(),
            crate::descriptor::appended_descriptor(),
        ] {
            let n: u64 = if desc.is_appended() { 40_000 } else { 7_000 };
            let fill = |node: &mut SsbNode| {
                for i in 0..n {
                    if desc.is_appended() {
                        node.append(pack_key(1, 9), &i.to_le_bytes());
                    } else {
                        node.rmw(pack_key(1, i), |v| CounterCrdt::add(v, 1 + i));
                    }
                }
                // A later window keeps the log's tail alive.
                if desc.is_appended() {
                    node.append(pack_key(2, 9), b"later");
                } else {
                    node.rmw(pack_key(2, 9), |v| CounterCrdt::add(v, 1));
                }
                let sealed = node.fragments[0].resident_bytes();
                assert!(
                    sealed > crate::log::DEFAULT_SEGMENT_SIZE,
                    "one sealed segment"
                );
            };
            let mut a = SsbNode::detached(0, desc, SsbConfig::new(1));
            let mut b = SsbNode::detached(0, desc, SsbConfig::new(1));
            fill(&mut a);
            fill(&mut b);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let fired = a.drain_triggered(|w| w == 1, |tv| got.push(row(tv)));
            let swept = reference_sweep_drain(&mut b, |w| w == 1, |r| want.push(r));
            got.sort();
            want.sort();
            assert_eq!(got, want);
            assert_eq!(fired, swept);
            assert_eq!(got.iter().map(|r| r.2.len() as u64).sum::<u64>(), n);
            // The sealed segment died during the visit and its slot went
            // with the window; what is left is the open tail.
            assert_eq!(
                a.fragments[0].resident_bytes(),
                crate::log::DEFAULT_SEGMENT_SIZE
            );
            assert_eq!(a.state_digest(), b.state_digest());
        }
    }

    /// One seeded burst of mixed state operations over a small key domain
    /// (so removed keys come back and windows refill after they fired).
    /// Deterministic in `rng`: two worlds fed clones of one generator end
    /// up bit-identical.
    fn mutate(sim: &mut Sim, ssb: &mut [SsbNode], rng: &mut slash_desim::DetRng, fixed: bool) {
        const WINDOWS: u64 = 5;
        const GROUPS: u64 = 24;
        let n = ssb.len();
        let any_key =
            |rng: &mut slash_desim::DetRng| (1 + rng.next_below(WINDOWS), rng.next_below(GROUPS));
        // The hot path salts updates of split keys per replica; model it.
        let salted = |node: &SsbNode, gk: u64| {
            node.split_ledger()
                .and_then(|l| l.sub_for(gk, node.node()))
                .unwrap_or(gk)
        };
        for _ in 0..40 + rng.next_below(200) {
            let i = rng.next_below(n as u64) as usize;
            match (rng.next_below(20), fixed) {
                (0..=6, true) => {
                    let (wid, gk) = any_key(rng);
                    let add = 1 + rng.next_below(9);
                    let gk = salted(&ssb[i], gk);
                    ssb[i].rmw(pack_key(wid, gk), |v| CounterCrdt::add(v, add));
                }
                (0..=6, false) => {
                    let (wid, gk) = any_key(rng);
                    ssb[i].append(pack_key(wid, gk), &rng.next_u64().to_le_bytes()[..5]);
                }
                (7..=9, true) => {
                    // `rmw_batch` → `Partition::merge_partial` per entry.
                    let mut comb = WriteCombiner::new(CounterCrdt::descriptor(), 64);
                    for _ in 0..1 + rng.next_below(8) {
                        let (wid, gk) = any_key(rng);
                        let gk = salted(&ssb[i], gk);
                        assert!(comb.fold(pack_key(wid, gk), |v| CounterCrdt::add(v, 2)));
                    }
                    ssb[i].rmw_batch(&mut comb);
                }
                (7..=9, false) => {
                    // A burst of 3-byte elements: runs filling in place.
                    for _ in 0..1 + rng.next_below(12) {
                        let (wid, gk) = any_key(rng);
                        ssb[i].append(pack_key(wid, gk), &rng.next_u64().to_le_bytes()[..3]);
                    }
                }
                (10..=11, _) => {
                    // A leader-side merge straight into the primary, as a
                    // delta replay or snapshot restore performs it.
                    let (wid, gk) = any_key(rng);
                    let key = pack_key(wid, gk);
                    let leader = partition_of(key, n);
                    if fixed {
                        ssb[leader].fragments[leader].merge_fixed(key, &7u64.to_le_bytes());
                    } else {
                        ssb[leader].fragments[leader].append_run(key, 3, b"merged");
                    }
                }
                (12..=14, _) => {
                    // Direct `remove` of a live primary key (or a miss).
                    let mut live = Vec::new();
                    ssb[i].fragments[i].for_each_key(|k, _| live.push(k));
                    live.sort_unstable();
                    let key = if live.is_empty() || rng.next_below(4) == 0 {
                        pack_key(1 + rng.next_below(WINDOWS), rng.next_below(GROUPS))
                    } else {
                        live[rng.next_below(live.len() as u64) as usize]
                    };
                    ssb[i].fragments[i].remove(key);
                }
                (15..=16, _) => {
                    for node in ssb.iter_mut() {
                        node.note_progress(1);
                        node.close_epoch(sim).unwrap();
                    }
                    settle(sim, ssb);
                }
                (17, _) => {
                    let chunks = ssb[i].snapshot_primary(512);
                    ssb[i].restore_primary(&chunks);
                }
                (_, true) => {
                    let gk = rng.next_below(GROUPS);
                    for node in ssb.iter_mut() {
                        node.split_enable();
                        node.split_activate(gk);
                    }
                }
                (_, false) => {}
            }
        }
    }

    /// Satellite (equivalence against the old sweep): over seeded mixes of
    /// every operation that makes or unmakes a primary key — `rmw`,
    /// `rmw_batch`, `merge_fixed`, `append`, `append_run`, `remove`,
    /// epoch close + leader merge, snapshot → restore, split activation —
    /// retiring the ready windows whole emits the same multiset, returns
    /// the same count and leaves the same state as a sweep over every
    /// window's index, for prefix, single-window, empty and total `ready`
    /// predicates.
    #[test]
    fn window_retirement_matches_full_index_sweep() {
        for seed in 0..12u64 {
            let fixed = seed % 2 == 0;
            let desc = if fixed {
                CounterCrdt::descriptor()
            } else {
                crate::descriptor::appended_descriptor()
            };
            let (mut sim_a, mut a) = cluster_of(3, desc);
            let (mut sim_b, mut b) = cluster_of(3, desc);
            let mut rng = slash_desim::DetRng::new(0xD1EC_7000 + seed);
            let mut total = 0;
            for round in 0..10u64 {
                let mut rng_a = rng.fork(round);
                let mut rng_b = rng_a.clone();
                mutate(&mut sim_a, &mut a, &mut rng_a, fixed);
                mutate(&mut sim_b, &mut b, &mut rng_b, fixed);
                let t = 1 + rng.next_below(5);
                let ready: Box<dyn Fn(u64) -> bool> = match rng.next_below(4) {
                    0 => Box::new(move |w| w <= t),
                    1 => Box::new(move |w| w == t),
                    2 => Box::new(|_| false),
                    _ => Box::new(|_| true),
                };
                for (na, nb) in a.iter_mut().zip(b.iter_mut()) {
                    let (mut got, mut want): (Vec<Row>, Vec<Row>) = (Vec::new(), Vec::new());
                    let fired = na.drain_triggered(&ready, |tv| got.push(row(tv)));
                    let swept = reference_sweep_drain(nb, &ready, |r| want.push(r));
                    let by_key = |x: &Row, y: &Row| (x.0, x.1).cmp(&(y.0, y.1));
                    got.sort_by(by_key);
                    want.sort_by(by_key);
                    assert_eq!(got, want, "seed {seed} round {round}: emitted multiset");
                    assert_eq!(fired, swept, "seed {seed} round {round}: return count");
                    assert_eq!(
                        na.state_digest(),
                        nb.state_digest(),
                        "seed {seed} round {round}: post-drain state"
                    );
                    total += fired;
                }
            }
            assert!(total > 100, "seed {seed} drained only {total} keys");
            // Nothing is ever missed: a total drain empties every primary.
            for node in a.iter_mut() {
                node.drain_triggered(|_| true, |_| {});
                assert_eq!(node.primary_key_count(), 0);
            }
        }
    }

    /// Split/unsplit runs of the same update stream must trigger
    /// identical results: the fold over salted sub-keys is the CRDT merge
    /// the epoch path would have performed anyway.
    #[test]
    fn split_fold_matches_unsplit_drain() {
        let hot = 7u64;
        let run = |split: bool| {
            let (mut sim, mut ssb) = cluster(3);
            if split {
                for node in ssb.iter_mut() {
                    node.split_enable();
                    assert!(node.split_activate(hot));
                }
            }
            for (i, node) in ssb.iter_mut().enumerate() {
                for rec in 0..50u64 {
                    let gk = if rec % 3 == 0 { rec % 5 } else { hot };
                    // The hot path salts split keys per replica; model it.
                    let salted = match gk == hot && split {
                        true => ssb_sub(node, hot, i),
                        false => gk,
                    };
                    node.rmw(pack_key(1, salted), |v| CounterCrdt::add(v, 1 + rec));
                }
                node.note_progress(1000);
            }
            for node in ssb.iter_mut() {
                node.close_epoch(&mut sim).unwrap();
            }
            settle(&mut sim, &mut ssb);
            let mut fired = Vec::new();
            for node in ssb.iter_mut() {
                node.drain_triggered(
                    |wid| wid == 1,
                    |tv| {
                        let TriggeredData::Fixed(v) = tv.data else {
                            panic!("counter state is fixed");
                        };
                        fired.push((tv.window_id, tv.key, CounterCrdt::get(v)));
                    },
                );
            }
            fired.sort_unstable();
            fired
        };
        fn ssb_sub(node: &SsbNode, gk: u64, replica: usize) -> u64 {
            node.split_ledger()
                .and_then(|l| l.sub_for(gk, replica))
                .unwrap()
        }
        let split_run = run(true);
        let plain_run = run(false);
        assert_eq!(split_run, plain_run, "fold must be exact");
        assert!(
            plain_run.iter().any(|&(_, k, _)| k == hot),
            "hot key present under its canonical label"
        );
        assert!(
            split_run.iter().all(|&(_, k, _)| k & SUB_KEY_TAG == 0),
            "no sub-key ever escapes to a result"
        );
    }

    #[test]
    fn split_activate_gates_on_descriptor_and_ledger() {
        use crate::descriptor::appended_descriptor;
        let (_sim, mut ssb) = cluster(2);
        assert!(!ssb[0].split_activate(3), "no ledger installed yet");
        ssb[0].split_enable();
        assert_eq!(ssb[0].split_version(), 0);
        assert!(ssb[0].split_activate(3));
        assert_eq!(ssb[0].split_version(), 1);
        assert_eq!(ssb[0].split_keys(), vec![3]);
        assert_eq!(ssb[0].split_pairs().len(), 1);
        assert!(ssb[0].heat_snapshot().is_some(), "enable turns heat on");

        // Holistic state refuses to split even with a ledger present.
        let mut holo = SsbNode::detached(
            0,
            appended_descriptor(),
            SsbConfig {
                nodes: 2,
                epoch_bytes: u64::MAX,
                channel: ChannelConfig {
                    credits: 8,
                    buffer_size: 4096,
                    credit_batch: 1,
                },
            },
        );
        holo.split_enable();
        assert!(!holo.split_activate(3), "appended state is not splittable");
    }

    /// A replacement node that inherits the ledger folds exactly like the
    /// node it replaced — the promotion-path contract.
    #[test]
    fn ledger_copy_preserves_fold_on_replacement() {
        let (_sim, mut ssb) = cluster(2);
        ssb[0].split_enable();
        assert!(ssb[0].split_activate(9));
        let ledger = ssb[0].split_ledger().unwrap().clone();

        // Build the replacement as the hot key's leader so the fold runs.
        let leader = partition_of(pack_key(1, 9), 2);
        let mut replacement = SsbNode::detached(
            leader,
            CounterCrdt::descriptor(),
            SsbConfig {
                nodes: 2,
                epoch_bytes: u64::MAX,
                channel: ChannelConfig {
                    credits: 8,
                    buffer_size: 4096,
                    credit_batch: 1,
                },
            },
        );
        replacement.split = Some(ledger.clone());
        // Seed sub-key entries directly (as a delta replay would) plus a
        // canonical entry, and check the fold lands under the canonical.
        for r in 0..2usize {
            let sub = ledger.sub_for(9, r).unwrap();
            replacement.rmw(pack_key(1, sub), |v| CounterCrdt::add(v, 10));
        }
        replacement.rmw(pack_key(1, 9), |v| CounterCrdt::add(v, 5));
        let mut fired = Vec::new();
        replacement.drain_triggered(
            |_| true,
            |tv| {
                let TriggeredData::Fixed(v) = tv.data else {
                    panic!("fixed");
                };
                fired.push((tv.key, CounterCrdt::get(v)));
            },
        );
        assert_eq!(fired, vec![(9, 25)]);
    }

    /// A key reported hot then split stops dominating the cluster-merged
    /// heat sketch: after activation every replica's updates land under
    /// its own salted sub-key, so the canonical key's count freezes while
    /// total weight keeps growing, and each sub-key carries only a 1/n
    /// share of the hot mass. Counts stay exact (err = 0) throughout
    /// because the live key set fits the sketch capacity.
    #[test]
    fn split_key_stops_dominating_merged_heat_sketch() {
        const NODES: usize = 4;
        const HOT: u64 = 77;
        const BACKGROUND: u64 = 40;
        const PER_NODE: u64 = 2_000;
        let (_sim, mut ssb) = cluster(NODES);
        for node in ssb.iter_mut() {
            node.split_enable();
        }
        // Phase 1 (unsplit): every other record hits the hot key.
        let drive = |node: &mut SsbNode, i: usize, salt: Option<u64>| {
            for rec in 0..PER_NODE {
                let g = if rec % 2 == 0 {
                    salt.unwrap_or(HOT)
                } else {
                    (rec / 2 + (i as u64) * 13) % BACKGROUND
                };
                node.rmw(pack_key(1, g), |v| CounterCrdt::add(v, 1));
            }
        };
        for (i, node) in ssb.iter_mut().enumerate() {
            drive(node, i, None);
        }
        let merged = |ssb: &mut [SsbNode]| {
            let mut m = HeatSketch::new(HEAT_CAPACITY);
            for node in ssb {
                m.merge(node.heat_snapshot().expect("split_enable turns heat on"));
            }
            m
        };
        let pre = merged(&mut ssb);
        let hot_pre = pre.top(1)[0];
        assert_eq!(hot_pre.key, HOT, "the hot key dominates before the split");
        assert_eq!(hot_pre.err, 0);
        assert!(
            hot_pre.count * 2 >= pre.total(),
            "hot share before split: {}/{}",
            hot_pre.count,
            pre.total()
        );

        // Phase 2 (split): same stream, each replica salting the hot key
        // with its own sub-key — the hot path's routing.
        for node in ssb.iter_mut() {
            assert!(node.split_activate(HOT));
        }
        for (i, node) in ssb.iter_mut().enumerate() {
            let sub = node.split_ledger().unwrap().sub_for(HOT, i).unwrap();
            drive(node, i, Some(sub));
        }
        let post = merged(&mut ssb);
        assert_eq!(post.total(), 2 * pre.total());
        let canon = post
            .top(HEAT_CAPACITY)
            .into_iter()
            .find(|e| e.key == HOT)
            .expect("canonical entry survives");
        assert_eq!(
            canon.count, hot_pre.count,
            "the canonical key's count freezes once updates salt away"
        );
        assert!(
            canon.count * 3 <= post.total(),
            "the canonical key no longer dominates: {}/{}",
            canon.count,
            post.total()
        );
        // Each sub-key carries exactly its replica's hot share, exactly.
        let ledger = ssb[0].split_ledger().unwrap().clone();
        for r in 0..NODES {
            let sub = ledger.sub_for(HOT, r).unwrap();
            let e = post
                .top(HEAT_CAPACITY)
                .into_iter()
                .find(|e| e.key == sub)
                .expect("every sub-key is monitored");
            assert_eq!(e.count, PER_NODE / 2, "replica {r} hot share");
            assert_eq!(e.err, 0, "under capacity: sub-key counts are exact");
        }
    }

    #[test]
    fn leader_crash_recovery_from_snapshot() {
        let (mut sim, mut ssb) = cluster(2);
        // Phase 1: both nodes update; epoch; settle.
        for node in ssb.iter_mut() {
            for g in 0..10u64 {
                node.rmw(pack_key(1, g), |v| CounterCrdt::add(v, 3));
            }
            node.note_progress(50);
            node.close_epoch(&mut sim).unwrap();
        }
        settle(&mut sim, &mut ssb);

        // Take a snapshot of node 0's primary, wipe it, restore.
        let chunks = ssb[0].snapshot_primary(512);
        let before: Vec<_> = {
            let mut keys = Vec::new();
            ssb[0].fragments[0].for_each_key(|k, _| keys.push(k));
            keys.sort();
            keys
        };
        ssb[0].restore_primary(&chunks);
        let after: Vec<_> = {
            let mut keys = Vec::new();
            ssb[0].fragments[0].for_each_key(|k, _| keys.push(k));
            keys.sort();
            keys
        };
        assert_eq!(before, after, "restored key set identical");

        // Phase 2: more updates merge into the restored leader correctly.
        for node in ssb.iter_mut() {
            for g in 0..10u64 {
                node.rmw(pack_key(1, g), |v| CounterCrdt::add(v, 1));
            }
            node.note_progress(100);
            node.close_epoch(&mut sim).unwrap();
        }
        settle(&mut sim, &mut ssb);
        for g in 0..10u64 {
            let key = pack_key(1, g);
            let leader = partition_of(key, 2);
            assert_eq!(
                ssb[leader].local_get(key).map(CounterCrdt::get),
                Some(2 * 3 + 2),
                "key {g}"
            );
        }
    }

    /// Per record or combined, 100 fresh keys of 40 bytes each cross a
    /// 512-byte threshold seven times: a key is counted when it enters a
    /// worker table, not when the table is flushed — there would be no
    /// flush to count it at, the epoch close *is* the flush.
    #[test]
    fn byte_threshold_closes_epochs_automatically() {
        for combined in [false, true] {
            let mut sim = Sim::new();
            let fabric = Fabric::new(FabricConfig::default());
            let nodes = fabric.add_nodes(2);
            let cfg = SsbConfig {
                nodes: 2,
                epoch_bytes: 512,
                channel: ChannelConfig {
                    credits: 8,
                    buffer_size: 4096,
                    credit_batch: 1,
                },
            };
            let mut ssb = build_cluster(&fabric, &nodes, CounterCrdt::descriptor(), cfg);
            let table = ssb[0].attach_combiner(1024);
            let mut closed = 0;
            for g in 0..100u64 {
                if combined {
                    // A second fold of a key the table holds adds nothing.
                    let twice = &mut [pack_key(1, g); 2].into_iter();
                    let add = |_: &StateKey, v: &mut [u8]| CounterCrdt::add(v, 1);
                    ssb[0].fold_batch(table, twice, |&k| k, add);
                    assert!(!ssb[0].combiner(table).is_cold());
                } else {
                    ssb[0].rmw(pack_key(1, g), |v| CounterCrdt::add(v, 2));
                }
                if ssb[0].maybe_close_epoch(&mut sim).unwrap().is_some() {
                    closed += 1;
                    assert!(!ssb[0].dirty(), "the close drained the table");
                }
            }
            assert_eq!(closed, 7, "combined: {combined}");
            assert_eq!(
                (
                    ssb[0].combiner(table).folds(),
                    ssb[0].combiner(table).inserts()
                ),
                (200 * combined as u64, 100 * combined as u64)
            );
        }
    }

    /// Everything that reads open-epoch local state sees the partials the
    /// write combiners still buffer: the digest merges them on the side,
    /// the `&mut` readers flush first.
    #[test]
    fn readers_of_open_epoch_state_see_buffered_partials() {
        let build = || {
            let (sim, mut ssb) = cluster(2);
            for node in ssb.iter_mut() {
                node.instrument(Obs::enabled(64));
                node.split_enable();
            }
            (sim, ssb)
        };
        let (_sim, mut per_record) = build();
        let (_sim, mut combined) = build();
        // Two workers of node 0, 12 keys, both partitions.
        let tables = [
            combined[0].attach_combiner(64),
            combined[0].attach_combiner(64),
        ];
        for i in 0..60u64 {
            let key = pack_key(1, i % 12);
            per_record[0].rmw(key, |v| CounterCrdt::add(v, i));
            let add = |_: &StateKey, v: &mut [u8]| CounterCrdt::add(v, i);
            let table = tables[(i % 2) as usize];
            combined[0].fold_batch(table, &mut std::iter::once(key), |&k| k, add);
            assert!(!combined[0].combiner(table).is_cold());
        }
        let held: Vec<usize> = combined[0]
            .combiners
            .iter()
            .map(WriteCombiner::len)
            .collect();
        assert_eq!(held, [6, 6], "even keys in one table, odd in the other");
        assert!(combined[0].dirty());
        assert_eq!(
            combined[0].stats().rmw_inserts,
            0,
            "nothing reached a fragment"
        );
        assert_eq!(combined[0].state_digest(), per_record[0].state_digest());
        assert_eq!(
            combined[0].stats().rmw_inserts,
            0,
            "the digest does not flush"
        );

        // `local_get` does; so would `checkpoint`, `partition_updates`,
        // `heat_snapshot` and `split_activate`, each tried on a fresh fill.
        type Reader = fn(&mut SsbNode);
        let readers: [Reader; 5] = [
            |n| assert!(n.local_get(pack_key(1, 3)).is_some()),
            |n| assert_eq!(n.checkpoint(512).epochs_closed, 0),
            |n| assert_eq!(n.partition_updates().len(), 2),
            |n| assert!(n.heat_snapshot().is_some()),
            |n| assert!(n.split_activate(3)),
        ];
        for (round, read) in readers.into_iter().enumerate() {
            read(&mut combined[0]);
            assert!(
                combined[0].combiners.iter().all(WriteCombiner::is_empty),
                "reader {round}"
            );
            assert_eq!(
                combined[0].part_updates, per_record[0].part_updates,
                "reader {round}"
            );
            for g in 0..12u64 {
                let key = pack_key(1, g);
                let want = per_record[0].local_get(key).map(CounterCrdt::get);
                assert_eq!(
                    combined[0].local_get(key).map(CounterCrdt::get),
                    want,
                    "key {g}"
                );
                per_record[0].rmw(key, |v| CounterCrdt::add(v, g));
                let add = |_: &StateKey, v: &mut [u8]| CounterCrdt::add(v, g);
                let one = &mut std::iter::once(key);
                combined[0].fold_batch(tables[0], one, |&k| k, add);
                assert!(!combined[0].combiner(tables[0]).is_cold());
            }
        }
    }

    /// The per-record rules the batch kernel replaced, kept as its
    /// reference: one [`WriteCombiner::fold`] per update; a full table
    /// drained, judged and the fold retried; epoch volume per key entered;
    /// the cold-stream probe when the table reaches [`VERDICT_FOLDS`].
    fn fold_per_record(
        node: &mut SsbNode,
        id: usize,
        key: StateKey,
        update: impl Fn(&mut [u8]),
    ) -> bool {
        let entered = node.combiners[id].inserts();
        if !node.combiners[id].fold(key, &update) {
            if node.flush_combiner(id) {
                node.rmw(key, update);
                return false;
            }
            node.combiners[id].fold(key, &update);
        }
        if node.combiners[id].inserts() != entered {
            node.bytes_since_epoch += node.entry_bytes();
        }
        if node.combiners[id].folds() == VERDICT_FOLDS && node.combiners[id].probe_reuse() {
            node.flush_combiner(id);
            return false;
        }
        true
    }

    /// Satellite (the batch kernel under a model): over the update of every
    /// exact aggregation, reuse-free and skewed streams, tables that
    /// bounce (8 and 64 slots) and ones that do not, and random batch cuts
    /// around the probe's 1,024th fold, [`SsbNode::fold_batch`] leaves the
    /// table, the epoch volume and the state exactly where the per-record
    /// rules do, after every batch.
    #[test]
    fn batch_kernel_matches_per_record_folds() {
        use crate::crdts::{MaxCrdt, MinCrdt};
        use crate::crdts_hll::HllCrdt;
        use slash_desim::DetRng;

        type Update = fn(u64, &mut [u8]);
        let aggs: [(&str, StateDescriptor, Update); 5] = [
            ("count", CounterCrdt::descriptor(), |_, v| {
                CounterCrdt::add(v, 1)
            }),
            ("sum", CounterCrdt::descriptor(), |x, v| {
                CounterCrdt::add(v, x)
            }),
            ("max", MaxCrdt::descriptor(), |x, v| MaxCrdt::update(v, x)),
            ("min", MinCrdt::descriptor(), |x, v| MinCrdt::update(v, x)),
            ("distinct", HllCrdt::descriptor(), |x, v| {
                HllCrdt::observe(v, x)
            }),
        ];
        // (what, table slots, key domain; 0 = every key new)
        let streams = [
            ("reuse-free", 4096, 0),
            ("reuse-free, bouncing", 64, 0),
            ("skewed, bouncing", 8, 40),
            ("skewed, bouncing", 64, 300),
            ("skewed", 1024, 100),
        ];
        let mut rng = DetRng::new(0xB47C_4E41);
        // Runs that ended with the table on, and off.
        let mut verdicts = [0; 2];
        for (agg, desc, update) in aggs {
            for (what, slots, domain) in streams {
                for seed in 0..4 {
                    let at = format!("{agg}, {what} over {slots} slots, seed {seed}");
                    let mut a = SsbNode::detached(0, desc, SsbConfig::new(1));
                    let mut b = SsbNode::detached(0, desc, SsbConfig::new(1));
                    let (ta, tb) = (a.attach_combiner(slots), b.attach_combiner(slots));
                    let mut i = 0u64;
                    for batch in 0..24 {
                        let len = rng.next_below(300);
                        let recs: Vec<(StateKey, u64)> = (i..i + len)
                            .map(|i| {
                                let gk = match domain {
                                    0 => i,
                                    d => {
                                        let head = rng.next_below(d) + 1;
                                        rng.next_below(head)
                                    }
                                };
                                (pack_key(i / 2000, gk), rng.next_below(1000))
                            })
                            .collect();
                        i += len;
                        let mut it = recs.iter();
                        if !a.combiner(ta).is_cold() {
                            a.fold_batch(ta, &mut it, |r| r.0, |r, v| update(r.1, v));
                        }
                        for &(key, x) in it {
                            a.rmw(key, |v| update(x, v));
                        }
                        let mut on = !b.combiner(tb).is_cold();
                        for &(key, x) in &recs {
                            match on {
                                true => on = fold_per_record(&mut b, tb, key, |v| update(x, v)),
                                false => b.rmw(key, |v| update(x, v)),
                            }
                        }
                        let (ca, cb) = (a.combiner(ta), b.combiner(tb));
                        let entries = |c: &WriteCombiner| -> Vec<(StateKey, u64, Vec<u8>, u64)> {
                            (c.entries())
                                .map(|(key, hash, value, folds)| (key, hash, value.to_vec(), folds))
                                .collect()
                        };
                        assert_eq!(
                            entries(ca),
                            entries(cb),
                            "{at}: entries after batch {batch}"
                        );
                        let verdict = |c: &WriteCombiner| (c.folds(), c.inserts(), c.is_cold());
                        assert_eq!(verdict(ca), verdict(cb), "{at}: batch {batch}");
                        assert_eq!(
                            a.bytes_since_epoch, b.bytes_since_epoch,
                            "{at}: batch {batch}"
                        );
                        assert_eq!(a.state_digest(), b.state_digest(), "{at}: batch {batch}");
                        // Now and then an epoch close drains and judges both.
                        if rng.next_below(8) == 0 {
                            a.flush_combiners();
                            b.flush_combiners();
                            assert_eq!(a.combiner(ta).is_cold(), b.combiner(tb).is_cold(), "{at}");
                        }
                    }
                    let off = a.combiner(ta).is_cold();
                    assert!(off || domain > 0, "{at}: a reuse-free stream stays on");
                    verdicts[usize::from(off)] += 1;
                }
            }
        }
        // Reuse-free streams turn off at the probe, tables that bounce on
        // skewed keys at a judged flush; the roomy table mostly stays on.
        assert!(verdicts[0] > 0 && verdicts[1] > 0, "{verdicts:?}");
    }
}
