//! Online hot-key splitting: detection, record forwarding, and the
//! director that installs them on the cluster driver (DESIGN.md §20).
//!
//! A zipfian-hot key defeats both of Slash's load balancers: with keyed
//! ingress every record for the key lands on one node, and even with
//! balanced ingress every *delta* funnels into one partition leader. The
//! state-plane half of the fix lives in `slash-state`
//! ([`SplitLedger`](slash_state::SplitLedger)): updates of a split key
//! divert to per-replica sub-keys that the leader folds back at window
//! close. This module adds the control and data planes:
//!
//! * [`HeatSplitDirector`] — decides *which* keys to split, from the
//!   merged per-node [`HeatSketch`] telemetry (the same
//!   SpaceSaving sketch the obs registry publishes as `key_heat`),
//!   mirroring how [`ScaleDirector`](crate::elastic::ScaleDirector)
//!   decides migrations from cluster telemetry.
//! * [`ForwardFabric`] — a record-forwarding plane for skew-balanced
//!   ingest: a node that owns a split key's input stream round-robins the
//!   key's records across the cluster, so the *pipeline* cost spreads too
//!   (the state plane alone only spreads the RMWs, which are already
//!   local). Fault-free runs only; chaos runs split state without
//!   forwarding.
//! * `SplitDriver` — the simulation process that samples heat, ticks
//!   the director, activates splits on every node's ledger copy in one
//!   step, and confirms forwarded-record custody (see below).
//!
//! ## Why forwarding needs a watermark floor
//!
//! Slash's window release rule is `vclock.min()`: a leader fires window
//! `W` once every node advertised a watermark past `W`'s end. That is
//! sound because each node's updates carry timestamps at or below the
//! watermark it advertises *next* — per-source timestamps are monotone.
//! Forwarding breaks the premise: a record can arrive at a node whose
//! advertised watermark already passed the record's window, and the
//! contribution would merge at the leader *after* the window fired —
//! a lost update or a duplicate result.
//!
//! Instead of clamping advertisements (which cannot be retracted), the
//! trigger rule becomes `min(vclock.min(), fabric.floor())`, where the
//! floor tracks a chain of custody for every forwarded record's
//! timestamp:
//!
//! 1. **queued** — enqueued to the destination, not yet processed;
//! 2. **unshipped** — applied to the destination's fragments, not yet
//!    inside a closed epoch;
//! 3. **in flight** — inside a closed epoch whose merge is not yet
//!    confirmed. Confirmation is conservative: an epoch advertised with
//!    watermark `w` by node `i` is merged everywhere once every other
//!    node's vector-clock slot for `i` reaches `w` (slots advance only
//!    after merge, FIFO per channel). The `SplitDriver` prunes these;
//!    pruning late only delays triggers, never unsoundly releases them.
//!
//! The floor is `u64::MAX` exactly when no forwarded timestamp is
//! outstanding anywhere, which is also the completion gate.

use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;

use slash_desim::{ProcId, Process, Sim, SimTime, Step};
use slash_net::Violation;
use slash_obs::{HeatEntry, HeatSketch, HEAT_CAPACITY};
use slash_state::SUB_KEY_TAG;

use crate::driver::{Cluster, Director, Live, Outcome};
use crate::worker::NodeShared;

/// Threshold policy for [`HeatSplitDirector`].
#[derive(Debug, Clone, Copy)]
pub struct HeatPolicy {
    /// Split a key once its *lower-bound* share of all observed updates
    /// (`(count - err) / total`) reaches this many parts per million.
    pub hot_ppm: u64,
    /// Ignore ticks before this many updates have been observed — early
    /// samples are too noisy to act on.
    pub min_total: u64,
    /// At most this many keys ever split in one run (a split is
    /// irreversible for the run; the sketch de-escalates naturally
    /// because a split key's updates re-enter under its sub-keys).
    pub max_splits: usize,
}

impl Default for HeatPolicy {
    fn default() -> Self {
        HeatPolicy {
            // A key carrying >5% of a cluster's updates is pathological
            // for any realistic key domain.
            hot_ppm: 50_000,
            min_total: 10_000,
            max_splits: 8,
        }
    }
}

/// Online detection: splits every key whose SpaceSaving lower bound
/// crosses [`HeatPolicy::hot_ppm`] of the total observed weight. The
/// driver ticks it periodically and applies whatever it returns to every
/// node's ledger copy in the same simulation step.
#[derive(Debug)]
pub struct HeatSplitDirector {
    policy: HeatPolicy,
    requested: BTreeSet<u64>,
}

impl HeatSplitDirector {
    /// A director enforcing `policy`.
    pub fn new(policy: HeatPolicy) -> Self {
        HeatSplitDirector {
            policy,
            requested: BTreeSet::new(),
        }
    }

    /// Keys to activate splitting for at this tick (may be empty), from
    /// the cluster-merged heat sketch, cumulative over the run so far: its
    /// hottest canonical keys `top`, `(count desc, key asc)` — sub-keys,
    /// whose updates re-enter the sketch after a split, filtered out —
    /// and the `total` observed update weight across the cluster.
    pub fn tick(&mut self, top: &[HeatEntry], total: u64) -> Vec<u64> {
        if total < self.policy.min_total {
            return Vec::new();
        }
        let mut out = Vec::new();
        for e in top {
            if self.requested.len() >= self.policy.max_splits {
                break;
            }
            // `count - err` is the guaranteed-true share: a key only
            // splits when it is *provably* hot, so the decision is
            // deterministic and immune to sketch overestimation.
            let floor = e.count.saturating_sub(e.err);
            if floor.saturating_mul(1_000_000) >= total.saturating_mul(self.policy.hot_ppm)
                && !self.requested.contains(&e.key)
            {
                self.requested.insert(e.key);
                out.push(e.key);
            }
        }
        out
    }
}

/// One forwarded record batch: a contiguous run of raw records bound for
/// one destination node, with the batch's minimum timestamp (its floor
/// contribution while queued).
#[derive(Debug)]
pub struct FwdBatch {
    /// Minimum record timestamp in `data`.
    pub min_ts: u64,
    /// Record count in `data`.
    pub records: u64,
    /// Raw record bytes (whole records, schema-aligned).
    pub data: Vec<u8>,
}

#[derive(Debug)]
struct FwdInner {
    queues: Vec<VecDeque<FwdBatch>>,
    /// Per node: min forwarded timestamp applied to its fragments since
    /// its last epoch close (`u64::MAX` = none).
    unshipped: Vec<u64>,
    /// Per node: `(min_ts, epoch_wm)` of closed-but-unconfirmed epochs
    /// carrying forwarded contributions, FIFO in close order.
    inflight: Vec<VecDeque<(u64, u64)>>,
    source_done: Vec<bool>,
    forwarded_records: u64,
    forwarded_bytes: u64,
}

/// The record-forwarding plane: per-destination inboxes plus the
/// watermark floor (see the module docs for the custody chain). One
/// instance is shared by every node of a forwarding run.
#[derive(Debug)]
pub struct ForwardFabric {
    inner: RefCell<FwdInner>,
}

impl ForwardFabric {
    /// A fabric for `nodes` executors.
    pub fn new(nodes: usize) -> Self {
        ForwardFabric {
            inner: RefCell::new(FwdInner {
                queues: (0..nodes).map(|_| VecDeque::new()).collect(),
                unshipped: vec![u64::MAX; nodes],
                inflight: (0..nodes).map(|_| VecDeque::new()).collect(),
                source_done: vec![false; nodes],
                forwarded_records: 0,
                forwarded_bytes: 0,
            }),
        }
    }

    /// Executor count this fabric routes across.
    pub fn nodes(&self) -> usize {
        self.inner.borrow().queues.len()
    }

    /// Enqueue a batch for `dest`. Enqueue is synchronous (same
    /// simulation step), so the batch is floor-covered the moment the
    /// sender's own watermark stops covering it.
    pub fn enqueue(&self, dest: usize, batch: FwdBatch) {
        let mut inner = self.inner.borrow_mut();
        inner.forwarded_records += batch.records;
        inner.forwarded_bytes += batch.data.len() as u64;
        if let Some(q) = inner.queues.get_mut(dest) {
            q.push_back(batch);
        }
    }

    /// Pop the next inbound batch for `node`, if any.
    pub fn pop(&self, node: usize) -> Option<FwdBatch> {
        self.inner.borrow_mut().queues.get_mut(node)?.pop_front()
    }

    /// Whether `node`'s inbox is empty.
    pub fn inbox_empty(&self, node: usize) -> bool {
        self.inner
            .borrow()
            .queues
            .get(node)
            .is_none_or(VecDeque::is_empty)
    }

    /// Custody handoff queued → unshipped: `node` applied a forwarded
    /// batch with minimum timestamp `min_ts` to its fragments.
    pub fn note_processed(&self, node: usize, min_ts: u64) {
        let mut inner = self.inner.borrow_mut();
        if let Some(u) = inner.unshipped.get_mut(node) {
            *u = (*u).min(min_ts);
        }
    }

    /// Custody handoff unshipped → in flight: `node` closed an epoch
    /// advertising watermark `epoch_wm`. The epoch's chunks carry every
    /// unshipped forwarded contribution (they were applied before the
    /// close), so the floor entry now waits on merge confirmation.
    pub fn note_epoch_closed(&self, node: usize, epoch_wm: u64) {
        let mut inner = self.inner.borrow_mut();
        let Some(u) = inner.unshipped.get_mut(node) else {
            return;
        };
        let min_ts = *u;
        *u = u64::MAX;
        if min_ts != u64::MAX {
            if let Some(q) = inner.inflight.get_mut(node) {
                q.push_back((min_ts, epoch_wm));
            }
        }
    }

    /// Release in-flight entries of `node` whose epochs are confirmed
    /// merged everywhere: `min_peer_slot` is the minimum, over all other
    /// nodes, of their vector-clock slot for `node` (slots advance only
    /// after merge, FIFO per channel).
    pub fn confirm(&self, node: usize, min_peer_slot: u64) {
        let mut inner = self.inner.borrow_mut();
        if let Some(q) = inner.inflight.get_mut(node) {
            while q.front().is_some_and(|&(_, wm)| wm <= min_peer_slot) {
                q.pop_front();
            }
        }
    }

    /// Mark `node`'s source exhausted (no further forwards from it).
    pub fn note_source_done(&self, node: usize) {
        let mut inner = self.inner.borrow_mut();
        if let Some(d) = inner.source_done.get_mut(node) {
            *d = true;
        }
    }

    /// Whether every node's source is exhausted.
    pub fn all_sources_done(&self) -> bool {
        self.inner.borrow().source_done.iter().all(|&d| d)
    }

    /// The watermark floor: the minimum timestamp of any forwarded record
    /// not yet confirmed merged at its leader; `u64::MAX` when none is
    /// outstanding. Window triggers use `min(vclock.min(), floor())`.
    pub fn floor(&self) -> u64 {
        let inner = self.inner.borrow();
        let mut floor = u64::MAX;
        for q in &inner.queues {
            for b in q {
                floor = floor.min(b.min_ts);
            }
        }
        for &u in &inner.unshipped {
            floor = floor.min(u);
        }
        for q in &inner.inflight {
            for &(ts, _) in q {
                floor = floor.min(ts);
            }
        }
        floor
    }

    /// `(records, bytes)` forwarded so far.
    pub fn forwarded(&self) -> (u64, u64) {
        let inner = self.inner.borrow();
        (inner.forwarded_records, inner.forwarded_bytes)
    }
}

/// Configuration for [`ClusterBuilder::split`](crate::ClusterBuilder::split).
#[derive(Debug, Clone)]
pub struct SplitRunConfig {
    /// Keys split before the first record (deterministic scenarios and
    /// the fault matrix use this; online detection uses `auto`).
    pub pre_split: Vec<u64>,
    /// Online detection policy; `None` runs only the pre-splits.
    pub auto: Option<HeatPolicy>,
    /// Driver tick period (heat sampling, director, floor confirmation).
    pub sample_every: SimTime,
    /// Forward split-key records round-robin across nodes (requires one
    /// worker per node; fault-free runs only).
    pub forward: bool,
}

impl Default for SplitRunConfig {
    fn default() -> Self {
        SplitRunConfig {
            pre_split: Vec::new(),
            auto: Some(HeatPolicy::default()),
            sample_every: SimTime::from_millis(1),
            forward: false,
        }
    }
}

/// What a split run did beyond the base [`RunReport`](crate::RunReport).
#[derive(Debug, Clone, Default)]
pub struct SplitReport {
    /// Keys split online, with activation (virtual) times; pre-splits are
    /// recorded at time zero.
    pub splits: Vec<(u64, SimTime)>,
    /// Records moved by the forwarding plane.
    pub forwarded_records: u64,
    /// Bytes moved by the forwarding plane.
    pub forwarded_bytes: u64,
}

/// The split control-loop process: samples heat, ticks the director,
/// activates splits on every ledger copy in one step, and confirms
/// forwarded-epoch merges to advance the watermark floor.
struct SplitDriver {
    /// The live placement, not a snapshot of its cells: a promotion or
    /// handoff replaces a node's cell mid-run.
    live: Rc<RefCell<Live>>,
    fwd: Option<Rc<ForwardFabric>>,
    /// The online policy; `None` when the driver only confirms forwarded
    /// epochs.
    director: Option<HeatSplitDirector>,
    sample_every: SimTime,
    report: Rc<RefCell<SplitReport>>,
    /// False until the first full sampling interval has elapsed — the
    /// spawn-time step sees only whatever the workers did at t=0, which
    /// is not a representative sample.
    primed: bool,
}

impl Process for SplitDriver {
    fn step(&mut self, sim: &mut Sim, _me: ProcId) -> Step {
        let live = self.live.borrow();
        let shareds = &live.nodes;
        if shareds.iter().all(|s| s.borrow().finished) {
            return Step::Done;
        }
        if !self.primed {
            self.primed = true;
            return Step::Yield(self.sample_every);
        }
        // Floor confirmation: an epoch of node i advertised at wm is
        // merged everywhere once every peer's slot for i reaches wm.
        if let Some(fwd) = &self.fwd {
            for node in 0..shareds.len() {
                let min_peer_slot = shareds
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != node)
                    .map(|(_, s)| s.borrow().ssb.vclock().get(node))
                    .min()
                    .unwrap_or(u64::MAX);
                fwd.confirm(node, min_peer_slot);
            }
        }
        // Merge per-node sketches fresh each tick (sketches are
        // cumulative; re-merging into a held accumulator would double
        // count).
        let mut merged = HeatSketch::new(HEAT_CAPACITY);
        for s in shareds {
            if let Some(h) = s.borrow_mut().ssb.heat_snapshot() {
                merged.merge(h);
            }
        }
        let mut top = merged.top(HEAT_CAPACITY);
        top.retain(|e| e.key & SUB_KEY_TAG == 0);
        let splits = self
            .director
            .as_mut()
            .map_or_else(Vec::new, |d| d.tick(&top, merged.total()));
        for gk in splits {
            if activate_everywhere(shareds, gk) {
                self.report.borrow_mut().splits.push((gk, sim.now()));
            }
        }
        Step::Yield(self.sample_every)
    }
}

/// Activate split key `gk` on every node's ledger copy, the first alone
/// first: copies are deterministic, so a key it rejects is left alone,
/// and a later copy that refuses what it took is a [`Violation`].
fn activate_everywhere(shareds: &[Rc<RefCell<NodeShared>>], gk: u64) -> bool {
    let Some((first, rest)) = shareds.split_first() else {
        return false;
    };
    if !first.borrow_mut().ssb.split_activate(gk) {
        return false;
    }
    for s in rest {
        let ssb = &mut s.borrow_mut().ssb;
        if !ssb.split_activate(gk) {
            let node = ssb.node();
            ssb.note_violation(Violation::SplitLedger, || {
                format!("key {gk:#x} activated on the first copy, refused on node {node}")
            });
        }
    }
    true
}

/// The hot-key-splitting director: at install it enables the ledger on
/// every node, activates the pre-splits, wires the [`ForwardFabric`] when
/// forwarding is on, and — when there is anything to sample (an online
/// policy or forwarded epochs to confirm) — spawns the `SplitDriver`
/// process. It needs no per-slice tick: the sampler's `sample_every`
/// instants are simulation events of their own.
///
/// Results and final state are bit-exact against the unsplit
/// [`SlashCluster::run`](crate::SlashCluster::run) of the same inputs
/// (the headline invariant; the exactness matrix, `tests/matrix.rs`,
/// holds every split cell to the sequential oracle).
///
/// Restrictions: tumbling windows only (the sliding-window sibling merge
/// peeks canonical keys in live state, which a split would bypass), and
/// forwarding additionally requires one worker per node (the floor
/// custody chain tracks per-node epochs).
pub(crate) struct HotSplitDirector {
    scfg: SplitRunConfig,
    fwd: Option<Rc<ForwardFabric>>,
    report: Rc<RefCell<SplitReport>>,
}

impl HotSplitDirector {
    pub(crate) fn new(scfg: SplitRunConfig) -> Self {
        HotSplitDirector {
            scfg,
            fwd: None,
            report: Rc::default(),
        }
    }
}

impl Director for HotSplitDirector {
    fn install(&mut self, c: &mut Cluster) {
        assert_eq!(
            c.plan.window().slices_per_window(),
            1,
            "hot-key splitting requires tumbling windows"
        );
        if self.scfg.forward {
            assert_eq!(
                c.cfg.workers_per_node, 1,
                "record forwarding requires one worker per node"
            );
            self.fwd = Some(Rc::new(ForwardFabric::new(c.cfg.nodes)));
        }
        for (node, shared) in c.live.borrow().nodes.iter().enumerate() {
            let mut sh = shared.borrow_mut();
            sh.ssb.split_enable();
            for &gk in &self.scfg.pre_split {
                if sh.ssb.split_activate(gk) && node == 0 {
                    self.report.borrow_mut().splits.push((gk, SimTime::ZERO));
                }
            }
            sh.fwd = self.fwd.clone();
        }
        if self.scfg.auto.is_none() && self.fwd.is_none() {
            return; // pre-splits only: nothing to sample or confirm
        }
        c.sim.spawn(SplitDriver {
            live: Rc::clone(&c.live),
            fwd: self.fwd.clone(),
            director: self.scfg.auto.map(HeatSplitDirector::new),
            sample_every: self.scfg.sample_every.max(SimTime::from_nanos(1)),
            report: Rc::clone(&self.report),
            primed: false,
        });
    }

    fn report(&mut self, _c: &Cluster, out: &mut Outcome) {
        let mut report = self.report.borrow().clone();
        if let Some(f) = &self.fwd {
            (report.forwarded_records, report.forwarded_bytes) = f.forwarded();
        }
        out.split = report;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{boot_node, RunConfig};
    use slash_obs::Obs;
    use slash_state::backend::SsbNode;
    use slash_state::CounterCrdt;

    /// The ledger-agreement check runs in every build, `--release`
    /// included: a copy that refuses a key the first copy took is counted.
    #[test]
    fn a_ledger_copy_that_disagrees_is_counted_in_every_build() {
        let cfg = RunConfig::new(2, 1);
        let shareds: Vec<_> = (0..2)
            .map(|n| {
                let ssb = SsbNode::detached(n, CounterCrdt::descriptor(), cfg.ssb_config());
                Rc::new(RefCell::new(boot_node(ssb, n, &cfg, &Obs::disabled())))
            })
            .collect();
        assert!(!activate_everywhere(&shareds, 3), "no ledger anywhere yet");
        shareds[0].borrow_mut().ssb.split_enable();
        assert!(activate_everywhere(&shareds, 3), "node 1 has no ledger");
        let counted = |n: usize| shareds[n].borrow().ssb.violations();
        assert_eq!(counted(0).total(), 0);
        assert_eq!(counted(1).get(Violation::SplitLedger), 1);
        shareds[1].borrow_mut().ssb.split_enable();
        assert!(activate_everywhere(&shareds, 5));
        assert_eq!(counted(1).total(), 1, "copies that agree count nothing");
    }

    #[test]
    fn fabric_floor_follows_the_custody_chain() {
        let f = ForwardFabric::new(3);
        assert_eq!(f.floor(), u64::MAX);
        f.enqueue(
            1,
            FwdBatch {
                min_ts: 500,
                records: 2,
                data: vec![0; 32],
            },
        );
        assert_eq!(f.floor(), 500, "queued batches hold the floor");
        let b = f.pop(1).map(|b| b.min_ts);
        assert_eq!(b, Some(500));
        assert_eq!(f.floor(), u64::MAX, "popped but not yet processed");
        f.note_processed(1, 500);
        assert_eq!(f.floor(), 500, "unshipped contributions hold the floor");
        f.note_epoch_closed(1, 9_000);
        assert_eq!(f.floor(), 500, "in-flight epochs hold the floor");
        f.confirm(1, 8_999);
        assert_eq!(f.floor(), 500, "unconfirmed below the epoch watermark");
        f.confirm(1, 9_000);
        assert_eq!(f.floor(), u64::MAX, "confirmation releases the floor");
        assert_eq!(f.forwarded(), (2, 32));
    }

    #[test]
    fn fabric_close_without_unshipped_is_inert() {
        let f = ForwardFabric::new(2);
        f.note_epoch_closed(0, 100);
        assert_eq!(f.floor(), u64::MAX);
        f.confirm(0, 0);
        assert_eq!(f.floor(), u64::MAX);
    }

    #[test]
    fn fabric_tracks_source_completion() {
        let f = ForwardFabric::new(2);
        assert!(!f.all_sources_done());
        f.note_source_done(0);
        assert!(!f.all_sources_done());
        f.note_source_done(1);
        assert!(f.all_sources_done());
        assert!(f.inbox_empty(0) && f.inbox_empty(1));
    }

    #[test]
    fn heat_director_splits_on_the_lower_bound_only() {
        let mut d = HeatSplitDirector::new(HeatPolicy {
            hot_ppm: 100_000, // 10%
            min_total: 1_000,
            max_splits: 2,
        });
        let heat = |key, count, err| HeatEntry { key, count, err };
        // Below min_total: no action even for a dominating key.
        assert!(d.tick(&[heat(7, 500, 0)], 500).is_empty());
        // Overestimated key: count clears the bar, count-err does not.
        let noisy = [heat(9, 2_000, 1_950)];
        assert!(
            d.tick(&noisy, 10_000).is_empty(),
            "must not split on sketch noise"
        );
        // Provably hot: splits once, never re-requested, cap honoured.
        let hot = [heat(1, 4_000, 0), heat(2, 3_000, 0), heat(3, 2_000, 0)];
        assert_eq!(d.tick(&hot, 10_000), vec![1, 2], "cap at max_splits");
        assert!(d.tick(&hot, 10_000).is_empty(), "no re-requests");
    }
}
