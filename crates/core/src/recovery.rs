//! Fault-tolerant execution: checkpointing, failure detection, and
//! epoch-aligned recovery.
//!
//! The fault-free engine ([`crate::SlashCluster::run`]) assumes a perfect
//! fabric. The fault-tolerance director
//! ([`crate::ClusterBuilder::chaos`]) drops that assumption: it arms a
//! deterministic [`FaultPlan`](crate::chaos::FaultPlan) against the
//! simulated fabric and layers a recovery protocol on top of the epoch
//! coherence machinery:
//!
//! * **Checkpoints.** At every epoch close a node captures its primary
//!   partition snapshot, vector clock, per-channel commit horizons, the
//!   retained (replayable) epochs it has shipped, per-worker source
//!   positions and the sink — everything needed to resurrect the node at
//!   that epoch boundary. The checkpoint is shipped to a buddy node over
//!   the same fabric (paying transfer time) and only counts as *durable*
//!   once it lands.
//! * **Durability gate.** A leader merges epoch `e` from helper `h` only
//!   once `h`'s durable checkpoint covers `e`
//!   ([`slash_state::DeltaReceiver`]'s `durable_epochs` gate). Everything
//!   merged anywhere is therefore replayable verbatim from stable
//!   storage, which is what makes recovery *exact* rather than
//!   best-effort: replayed epochs are deduplicated by epoch id, so even
//!   non-idempotent CRDT merges (counters add!) are applied exactly once.
//! * **Detection.** The driver watches, per node, the progress token its
//!   peers have observed (the remote vector-clock entries). A token that
//!   stalls past `detect_timeout` triggers a diagnosis: dead node →
//!   promotion; link restored after a flap → channel reset + replay;
//!   merely degraded → wait, the run completes on its own.
//! * **Copy placement.** Each checkpoint is shipped to up to
//!   [`FtConfig::ckpt_copies`](crate::chaos::FtConfig::ckpt_copies)
//!   distinct buddy ports (placement diversity), and a copy is usable only
//!   while its holder port answers.
//!   Losing a holder drops the copy, which triggers buddy re-selection and
//!   re-shipping; losing *every* real copy falls back to the epoch-0 seed
//!   copy (reprocess from scratch), which is durable by fiat.
//! * **Promotion.** A crashed node's partition is resurrected on a buddy
//!   host from the newest valid durable copy by the one ownership-transfer
//!   machine ([`crate::transfer`]), entered at `Restore`: re-entrant, and
//!   committed atomically at one virtual instant. A fault after commit is
//!   a fresh failure handled by a new detect → promote cycle; concurrent
//!   promotions (distinct victims) run independently.
//!
//! Exactness is validated against the sequential fold of the input on
//! one fault matrix (`slash-verify`'s catalogue: `tests/chaos.rs`,
//! `slash-race`, `repro -- recovery`) and narrated by
//! `examples/failover.rs`; the full protocol specification, including the
//! fault × phase outcome matrix, is `DESIGN.md` §15.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use slash_desim::SimTime;
use slash_obs::{Cat, Obs};
use slash_rdma::{Fabric, NodeId};
use slash_state::{relink, SsbCheckpoint};

use crate::chaos::{ChaosConfig, FaultKind, Injector};
use crate::driver::{Cluster, Director, Outcome};
use crate::sink::{results_digest, Sink, SinkResult};
use crate::transfer::{self, TransferRow};
use crate::worker::NodeShared;

/// Everything a node needs to be resurrected at an epoch boundary.
#[derive(Debug, Clone)]
pub(crate) struct Checkpoint {
    /// The state backend's half: snapshot, vector clock, commit horizons
    /// and retained epochs, all from the same boundary.
    pub(crate) ssb: SsbCheckpoint,
    /// Per-worker source byte positions at the boundary.
    pub(crate) worker_pos: Vec<usize>,
    /// Per-worker watermarks.
    pub(crate) worker_wm: Vec<u64>,
    /// Source records processed so far.
    pub(crate) records: u64,
    /// Sink contents (already-emitted results survive the crash).
    pub(crate) sink: Sink,
}

impl Checkpoint {
    /// Epoch boundary this checkpoint captures (fragment high-water mark).
    pub(crate) fn epochs_closed(&self) -> u64 {
        self.ssb.epochs_closed
    }

    pub(crate) fn payload_bytes(&self) -> u64 {
        self.ssb.payload_bytes() + 256
    }
}

/// One durable copy of a node's checkpoint, tied to the fabric port it
/// physically lives on: the copy is usable only while that port answers.
/// `holder_port == None` marks the epoch-0 seed copy — it models
/// re-reading the source from scratch and is durable by fiat, so it never
/// becomes invalid.
#[derive(Clone)]
pub(crate) struct DurableCopy {
    pub(crate) holder_port: Option<NodeId>,
    pub(crate) ckpt: Rc<Checkpoint>,
}

impl DurableCopy {
    fn valid(&self, fabric: &Fabric) -> bool {
        self.holder_port.is_none_or(|p| fabric.node_alive(p))
    }
}

/// A checkpoint transfer on the wire toward a buddy port.
struct InFlight {
    arrival: SimTime,
    buddy_port: NodeId,
    ckpt: Rc<Checkpoint>,
}

/// One node's checkpoint lifecycle: the newest captured boundary, the
/// durable copies placed on buddy ports (newest-first; the seed copy is
/// always last), and at most one transfer in flight.
#[derive(Default)]
pub(crate) struct CkptSlot {
    latest: Option<Rc<Checkpoint>>,
    copies: Vec<DurableCopy>,
    in_flight: Option<InFlight>,
    /// Set by a planned handoff: the cutover epoch boundary. Once a
    /// *real* durable copy covering it lands, the eternal epoch-0 seed
    /// copy is released (see [`Self::maybe_release_seed`]) — the §15.3
    /// retention fix, so a migrated partition stops pinning every peer's
    /// retained history at epoch 0 forever.
    handoff_boundary: Option<u64>,
}

impl CkptSlot {
    /// Drop copies whose holder port has died (the seed copy never does).
    fn gc(&mut self, fabric: &Fabric) {
        self.copies.retain(|c| c.valid(fabric));
    }

    /// The newest copy whose holder still answers: what a crash
    /// promotion restores.
    pub(crate) fn restore_candidate(&mut self, fabric: &Fabric) -> Option<DurableCopy> {
        self.gc(fabric);
        self.copies.first().cloned()
    }

    /// A transfer committed `ckpt`: whatever was newer died with the old
    /// leader, so it becomes the newest boundary, a transfer in flight
    /// from the old leader is void and copies whose holders died go.
    pub(crate) fn restart_from(&mut self, ckpt: Rc<Checkpoint>, fabric: &Fabric) {
        self.gc(fabric);
        self.latest = Some(ckpt);
        self.in_flight = None;
    }

    /// Epoch horizon peers may treat as durable: the newest copy's
    /// boundary.
    pub(crate) fn durable_horizon(&self) -> u64 {
        self.copies.first().map_or(0, |c| c.ckpt.epochs_closed())
    }

    /// Highest epoch helper `l` may prune its retained deltas below: the
    /// *oldest* surviving copy's commit horizon from `l`, so whichever
    /// copy promotion falls back to can still be caught up by replay.
    /// While the seed copy exists this floor is 0 — scratch recovery
    /// keeps the whole retained history replayable.
    fn prune_floor(&self, l: usize) -> u64 {
        self.copies
            .iter()
            .map(|c| c.ckpt.ssb.receiver_next.get(l).copied().unwrap_or(0))
            .min()
            .unwrap_or(0)
    }

    /// Record a planned-handoff cutover at `boundary`: the next real
    /// durable copy covering it retires the epoch-0 seed copy.
    pub(crate) fn mark_handoff(&mut self, boundary: u64) {
        self.handoff_boundary = Some(boundary);
    }

    /// Release the eternal seed copy once the post-handoff owner has a
    /// real durable checkpoint covering the cutover boundary. From then
    /// on the recovery floor is the oldest surviving *real* copy — peers
    /// may finally prune retained epochs below its commit horizons
    /// instead of keeping the full history replayable-from-scratch.
    /// Returns whether a seed copy was released by this call.
    pub(crate) fn maybe_release_seed(&mut self) -> bool {
        let Some(boundary) = self.handoff_boundary else {
            return false;
        };
        let covered = self
            .copies
            .iter()
            .any(|c| c.holder_port.is_some() && c.ckpt.epochs_closed() >= boundary);
        if !covered {
            return false;
        }
        self.handoff_boundary = None;
        let before = self.copies.len();
        self.copies.retain(|c| c.holder_port.is_some());
        before != self.copies.len()
    }

    /// Install the epoch-0 seed copy from the freshly captured seed
    /// checkpoint: durable by fiat (`holder_port == None`), it models
    /// re-reading the source from scratch and guarantees recovery always
    /// has a fallback even before the first real copy lands.
    pub(crate) fn seed_from_latest(&mut self) {
        if let Some(seed) = self.latest.clone() {
            self.copies.push(DurableCopy {
                holder_port: None,
                ckpt: seed,
            });
        }
    }

    /// Install a landed copy, newest-first. A buddy keeps one slot per
    /// node (same-port copies are overwritten) and *real* copies are
    /// capped at `cap`; the seed copy rides along uncapped.
    fn insert_copy(&mut self, copy: DurableCopy, cap: usize) {
        if let Some(p) = copy.holder_port {
            self.copies.retain(|c| c.holder_port != Some(p));
        }
        self.copies.insert(0, copy);
        let mut real = 0;
        self.copies.retain(|c| {
            if c.holder_port.is_none() {
                return true;
            }
            real += 1;
            real <= cap
        });
    }
}

pub(crate) type CkptStore = Vec<CkptSlot>;

/// Pick the buddy to ship node `i`'s next checkpoint copy to: the first
/// alive ring peer *not* already holding a current copy (placement
/// diversity), falling back to any alive peer when all of them hold one.
pub(crate) fn select_ship_buddy(
    i: usize,
    n: usize,
    alive: impl Fn(usize) -> bool,
    holds_copy: impl Fn(usize) -> bool,
) -> Option<usize> {
    let ring = || (1..n).map(move |k| (i + k) % n);
    ring()
        .find(|&j| alive(j) && !holds_copy(j))
        .or_else(|| ring().find(|&j| alive(j)))
}

/// Fault-tolerance hook handed to each node's shared state by the
/// [`FtDirector`]; a replacement node inherits its predecessor's.
#[derive(Clone)]
pub(crate) struct FtState {
    pub(crate) store: Rc<RefCell<CkptStore>>,
    pub(crate) node: usize,
    pub(crate) max_chunk: usize,
}

impl FtState {
    /// This node's newest captured boundary (not necessarily durable yet).
    pub(crate) fn latest_ckpt(&self) -> Option<Rc<Checkpoint>> {
        self.store.borrow()[self.node].latest.clone()
    }
}

/// Called by workers right after a successful epoch close: capture a
/// checkpoint of this node at the fresh epoch boundary.
pub(crate) fn on_epoch_closed(sh: &mut NodeShared) {
    let Some(ft) = sh.ft.as_ref() else { return };
    let ckpt = Checkpoint {
        ssb: sh.ssb.checkpoint(ft.max_chunk),
        worker_pos: sh.worker_pos.clone(),
        worker_wm: sh.worker_wm.clone(),
        records: sh.records,
        sink: sh.sink.clone(),
    };
    ft.store.borrow_mut()[ft.node].latest = Some(Rc::new(ckpt));
}

/// What the driver did to bring a stalled node back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryAction {
    /// The node was dead; its partition was promoted onto a live host
    /// from a durable checkpoint copy. The row names the host and the
    /// times a further fault restarted the promotion.
    Promoted(TransferRow),
    /// The node survived a link outage; `channels` errored channel
    /// endpoints were reset and their uncommitted epochs replayed.
    ChannelsReset {
        /// Directed channels that needed a reset.
        channels: usize,
    },
}

/// One detected-and-repaired fault.
#[derive(Debug, Clone)]
pub struct RecoveryEvent {
    /// Kebab-case fault name from the plan (e.g. `node-crash`).
    pub fault: &'static str,
    /// Logical node the fault hit.
    pub node: usize,
    /// When the plan injected the fault.
    pub injected_at: SimTime,
    /// When the driver noticed the stall.
    pub detected_at: SimTime,
    /// When the repair finished (virtual time; processing resumes here).
    pub recovered_at: SimTime,
    /// The repair performed.
    pub action: RecoveryAction,
}

impl RecoveryEvent {
    /// Injection-to-repair latency.
    pub fn time_to_recover(&self) -> SimTime {
        self.recovered_at - self.injected_at
    }
}

/// Recovery-side outcome of a chaos run, alongside the [`RunReport`](crate::RunReport).
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Detected faults and their repairs, in detection order.
    pub events: Vec<RecoveryEvent>,
    /// Checkpoints that became durable during the run.
    pub checkpoints_durable: u64,
    /// Per-node primary-state digests at completion (exactness witness).
    pub state_digests: Vec<u64>,
    /// Order-independent digest of the emitted results.
    pub results_digest: u64,
}

impl RecoveryReport {
    /// Worst-case time-to-recover across all repaired faults.
    pub fn max_time_to_recover(&self) -> Option<SimTime> {
        self.events.iter().map(RecoveryEvent::time_to_recover).max()
    }
}

/// Trace pid used for driver-side recovery events (fault injection uses
/// `chaos/inject.rs`'s `FAULT_TID` on the victim's pid; repairs land on
/// the victim's pid too, under this tid).
pub(crate) const RECOVERY_TID: u32 = 901;

/// The fault-tolerance director: owns the checkpoint store, arms the
/// fault plan, and each slice sweeps dead ports, pumps finished nodes,
/// advances checkpoint shipping and in-flight promotions, and runs the
/// stall detector. With an empty plan it is the fault-tolerant no-fault
/// baseline — the reference for exactness comparisons.
pub(crate) struct FtDirector<'a> {
    chaos: &'a ChaosConfig,
    store: Rc<RefCell<CkptStore>>,
    /// Per node, the progress token last seen by the stall detector.
    last_token: Vec<u64>,
    rec: RecoveryReport,
}

impl<'a> FtDirector<'a> {
    pub(crate) fn new(chaos: &'a ChaosConfig, n: usize) -> Self {
        FtDirector {
            chaos,
            store: Rc::new(RefCell::new((0..n).map(|_| CkptSlot::default()).collect())),
            last_token: vec![0; n],
            rec: RecoveryReport::default(),
        }
    }
}

impl Director for FtDirector<'_> {
    fn install(&mut self, c: &mut Cluster) {
        let n = c.cfg.nodes;
        for (node, shared) in c.live.borrow().nodes.iter().enumerate() {
            let mut sh = shared.borrow_mut();
            sh.ssb.set_retention(true);
            // Gate commits on durability: nothing from helper `h` merges
            // until `h`'s checkpoint covering it has landed on a buddy.
            for h in (0..n).filter(|&h| h != node) {
                sh.ssb.set_durable_epochs(h, 0);
            }
            sh.ft = Some(FtState {
                store: Rc::clone(&self.store),
                node,
                max_chunk: self.chaos.ft.ckpt_max_chunk,
            });
            // Seed checkpoint: an empty epoch-0 boundary, durable by
            // fiat, so even a crash before the first real checkpoint
            // recovers (to a from-scratch reprocess).
            on_epoch_closed(&mut sh);
        }
        self.store
            .borrow_mut()
            .iter_mut()
            .for_each(CkptSlot::seed_from_latest);

        // Arm the fault plan against the fabric, and mirror node crashes
        // into the engine: every partition the dying port hosts *at the
        // fault instant* is flagged, and its workers die at their next
        // step (the crash-victim rule, `crate::driver`).
        Injector::arm(&mut c.sim, &c.fabric, &c.ports, &c.obs, &self.chaos.plan);
        for ev in self.chaos.plan.events() {
            if let FaultKind::NodeCrash { node } = ev.kind {
                if node < n {
                    let live = Rc::clone(&c.live);
                    c.sim
                        .schedule_at(ev.at, move |_| live.borrow().kill_port(node));
                }
            }
        }
    }

    /// A quarter detection timeout, so stalls are noticed promptly
    /// without rescanning the cluster too often.
    fn slice(&self) -> Option<SimTime> {
        let quarter = self.chaos.ft.detect_timeout.as_nanos() / 4;
        Some(SimTime::from_nanos(quarter.max(100_000)))
    }

    fn outstanding(&self, c: &Cluster) -> bool {
        (0..c.cfg.nodes).any(|l| !c.port_alive(l))
    }

    fn tick(&mut self, c: &mut Cluster, now: SimTime) {
        {
            let live = c.live.borrow();
            for (l, shared) in live.nodes.iter().enumerate() {
                let mut sh = shared.borrow_mut();
                if !c.fabric.node_alive(c.ports[live.host[l]]) {
                    // Dead-port sweep: ports that died by any route other
                    // than an armed `NodeCrash` (those flag their victims
                    // at the fault instant).
                    sh.crashed = true;
                } else if sh.finished {
                    // A finished node's port keeps serving state traffic:
                    // a promotion can commit after a survivor's workers
                    // completed, and the replay epochs requeued on it
                    // still have to reach the restored partition. The SSB
                    // is a node service, not a query task — the driver
                    // pumps it once the workers are gone.
                    let _ = sh.ssb.pump(&mut c.sim);
                }
            }
        }
        self.ckpt_tick(c, now);
        // Crash promotions advance before the stall detector runs.
        transfer::advance(c, now, false, |c, row| {
            let (d, detected_at) = (row.partition, row.began_at);
            let action = RecoveryAction::Promoted(row);
            self.push_event(&c.obs, d, detected_at, c.sim.now(), action);
        });
        if c.cfg.nodes >= 2 {
            self.detect(c, now);
        }
    }

    fn report(&mut self, c: &Cluster, out: &mut Outcome) {
        let report = &mut out.run;
        if c.cfg.collect_results {
            // Deduplicate by (window, key) in deterministic order: a
            // window triggered right around a checkpoint boundary may be
            // re-fired by the resurrected leader.
            let mut dedup: BTreeMap<(u64, u64), SinkResult> = BTreeMap::new();
            for r in report.results.drain(..) {
                let k = match r {
                    SinkResult::Agg { window_id, key, .. }
                    | SinkResult::Join { window_id, key, .. } => (window_id, key),
                };
                dedup.entry(k).or_insert(r);
            }
            let mut sink = Sink::collecting();
            dedup.into_values().for_each(|r| sink.push(r));
            report.results = sink.results;
            report.emitted = sink.emitted;
            report.total_pairs = sink.total_pairs;
        }
        let mut rec = std::mem::take(&mut self.rec);
        rec.results_digest = results_digest(&report.results);
        rec.state_digests = report.state_digests.clone();
        out.recovery = rec;
    }
}

impl FtDirector<'_> {
    /// Record a repair, both in the report and as a Perfetto span covering
    /// the detected→repaired window.
    fn push_event(
        &mut self,
        obs: &Obs,
        node: usize,
        detected_at: SimTime,
        recovered_at: SimTime,
        action: RecoveryAction,
    ) {
        let (injected_at, fault) = self
            .chaos
            .plan
            .events()
            .iter()
            .filter(|e| e.kind.node() == node && e.at <= detected_at)
            .map(|e| (e.at, e.kind.name()))
            .next_back()
            .unwrap_or((SimTime::ZERO, "stall"));
        obs.span(
            Cat::Fault,
            "recovery",
            node as u32,
            RECOVERY_TID,
            detected_at,
            recovered_at.max(detected_at + SimTime::from_nanos(1)),
            &[("injected_ns", injected_at.as_nanos())],
        );
        self.rec.events.push(RecoveryEvent {
            fault,
            node,
            injected_at,
            detected_at,
            recovered_at,
            action,
        });
    }

    /// Checkpoint lifecycle: GC copies whose holder port died, complete
    /// in-flight transfers (durability-gate and prune propagation), and
    /// ship the newest boundary toward its next copy holder. Buddy
    /// re-selection is implicit: whenever the current copy set lost a
    /// holder or lags the newest boundary, a fresh buddy is picked
    /// (preferring ports without a current copy) and the checkpoint is
    /// re-shipped.
    fn ckpt_tick(&mut self, c: &Cluster, now: SimTime) {
        let n = c.cfg.nodes;
        let copies = self.chaos.ft.ckpt_copies.max(1);
        let live = c.live.borrow();
        let port = |j: usize| c.ports[live.host[j]];
        let mut st = self.store.borrow_mut();
        for i in 0..n {
            let fab_i = port(i);
            st[i].gc(&c.fabric);
            // Complete an in-flight transfer whose arrival time has passed.
            // One interrupted by a fault is simply dropped; the re-ship
            // below retries once the path heals.
            if let Some(fl) = st[i].in_flight.take_if(|fl| now >= fl.arrival) {
                if c.fabric.node_alive(fab_i) && c.fabric.path_up(fab_i, fl.buddy_port) {
                    st[i].insert_copy(
                        DurableCopy {
                            holder_port: Some(fl.buddy_port),
                            ckpt: Rc::clone(&fl.ckpt),
                        },
                        copies,
                    );
                    self.rec.checkpoints_durable += 1;
                    c.fault_event(
                        RECOVERY_TID,
                        "checkpoint-durable",
                        i,
                        &[
                            ("epochs", fl.ckpt.epochs_closed()),
                            ("holder", fl.buddy_port.0 as u64),
                        ],
                    );
                    if st[i].maybe_release_seed() {
                        // Post-handoff retention fix (§15.3): the new owner's
                        // checkpoint is durable, the from-scratch floor goes.
                        c.fault_event(
                            RECOVERY_TID,
                            "seed-released",
                            i,
                            &[("epochs", fl.ckpt.epochs_closed())],
                        );
                    }
                    let horizon = st[i].durable_horizon();
                    for l in (0..n).filter(|&l| l != i) {
                        let mut sl = live.nodes[l].borrow_mut();
                        // Leaders may now commit i's epochs below the
                        // durable horizon...
                        sl.ssb.set_durable_epochs(i, horizon);
                        // ...and helpers may drop retained epochs every
                        // surviving copy of i has durably merged.
                        sl.ssb.prune_retained(i, st[i].prune_floor(l));
                    }
                }
            }
            // Ship the newest boundary until `ckpt_copies` distinct holders
            // carry it.
            if st[i].in_flight.is_some() {
                continue;
            }
            let Some(latest) = st[i].latest.clone() else {
                continue;
            };
            let current_ports: Vec<NodeId> = st[i]
                .copies
                .iter()
                .filter(|dc| dc.ckpt.epochs_closed() >= latest.epochs_closed())
                .filter_map(|dc| dc.holder_port)
                .collect();
            let wants_copy = latest.epochs_closed() > 0 && current_ports.len() < copies;
            if wants_copy && c.fabric.node_alive(fab_i) && c.fabric.link_up(fab_i) {
                let buddy = select_ship_buddy(
                    i,
                    n,
                    |j| c.fabric.node_alive(port(j)),
                    |j| current_ports.contains(&port(j)),
                );
                if let Some(b) = buddy {
                    st[i].in_flight = Some(InFlight {
                        arrival: now + c.transfer_time(latest.payload_bytes()),
                        buddy_port: port(b),
                        ckpt: latest,
                    });
                }
            }
        }
    }

    /// Stall detection: per node, the most advanced view any peer holds
    /// of its progress. Crashes and outages freeze it; a token frozen
    /// past `detect_timeout` is diagnosed. A partition with a transfer in
    /// flight is that transfer's responsibility.
    fn detect(&mut self, c: &mut Cluster, now: SimTime) {
        let n = c.cfg.nodes;
        for i in 0..n {
            if c.transfers.contains_key(&i) {
                continue; // the transfer answers for this partition
            }
            let token = {
                let live = c.live.borrow();
                (0..n)
                    .filter(|&j| j != i)
                    .map(|j| live.nodes[j].borrow().ssb.vclock().get(i))
                    .max()
                    .unwrap_or(0)
            };
            if token != self.last_token[i] {
                self.last_token[i] = token;
                c.progress_at[i] = now;
                continue;
            }
            if now - c.progress_at[i] < self.chaos.ft.detect_timeout {
                continue;
            }
            c.progress_at[i] = now; // re-arm the timer either way
            let fab_i = c.ports[c.host(i)];
            if !c.fabric.node_alive(fab_i) {
                // Dead port: promote the partition from its newest copy.
                transfer::begin_restore(c, i, now);
            } else if c.fabric.link_up(fab_i) {
                // Alive with a live link: if the outage errored any
                // channel endpoints, re-establish and replay; if the node
                // is merely slow (degraded link, lagging completions),
                // there is nothing to repair.
                let fixed = reset_errored_channels(c, i);
                if fixed > 0 {
                    let action = RecoveryAction::ChannelsReset { channels: fixed };
                    self.push_event(&c.obs, i, now, c.sim.now(), action);
                }
            }
            // else: link still down — wait for it to come back.
        }
    }
}

/// Re-establish every errored channel touching node `i` (both
/// directions), then replay the epochs the receiving side never
/// committed. Returns how many directed channels needed a reset.
fn reset_errored_channels(c: &Cluster, i: usize) -> usize {
    let live = c.live.borrow();
    let mut fixed = 0;
    for s in 0..c.cfg.nodes {
        if s == i || !c.fabric.node_alive(c.ports[live.host[s]]) {
            continue;
        }
        let (mut a, mut b) = (live.nodes[i].borrow_mut(), live.nodes[s].borrow_mut());
        fixed += relink(&mut a.ssb, &mut b.ssb) as usize;
        fixed += relink(&mut b.ssb, &mut a.ssb) as usize;
    }
    fixed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::FaultPlan;
    use crate::testutil::{cfg, chaos, count_plan, gen};
    use crate::{RunReport, SlashCluster};

    fn run(faults: FaultPlan, nodes: usize) -> (RunReport, RecoveryReport) {
        let parts: Vec<Rc<Vec<u8>>> = (0..nodes).map(|_| gen(60_000, 1, 32)).collect();
        let out = SlashCluster::builder(count_plan(4_000), parts, cfg(nodes))
            .chaos(&chaos(faults))
            .run();
        (out.run, out.recovery)
    }

    #[test]
    fn ship_buddy_prefers_ports_without_a_current_copy() {
        // Node 2 already holds the newest copy: diversity picks node 3.
        assert_eq!(select_ship_buddy(1, 4, |_| true, |j| j == 2), Some(3));
        // Every alive peer holds a copy: fall back to ring order.
        assert_eq!(select_ship_buddy(1, 4, |_| true, |_| true), Some(2));
        // No peer alive at all: nowhere to ship.
        assert_eq!(select_ship_buddy(1, 4, |_| false, |_| false), None);
    }

    #[test]
    fn long_degrade_trips_detector_but_never_promotes() {
        // Degradation far longer than the detection timeout: the stall
        // detector fires, finds the node alive with its link up and no
        // errored channels, and has nothing to repair. No promotion, no
        // reset — the run completes on its own.
        let plan = FaultPlan::new().degrade(
            SimTime::from_micros(150),
            1,
            SimTime::from_micros(400),
            SimTime::from_millis(2),
        );
        let (faulted, rec) = run(plan, 2);
        assert!(
            !rec.events
                .iter()
                .any(|e| matches!(e.action, RecoveryAction::Promoted(_))),
            "{:?}",
            rec.events
        );
        assert_eq!(faulted.records, 2 * 60_000);
    }

    fn ckpt_at(epochs: u64) -> Rc<Checkpoint> {
        Rc::new(Checkpoint {
            ssb: SsbCheckpoint {
                epochs_closed: epochs,
                snapshot: vec![],
                digest: 0,
                vclock: vec![],
                receiver_next: vec![],
                retained: vec![],
            },
            worker_pos: vec![],
            worker_wm: vec![],
            records: 0,
            sink: Sink::counting(),
        })
    }

    #[test]
    fn seed_copy_survives_until_handoff_boundary_is_durably_covered() {
        // §15.3: the epoch-0 seed copy pins every peer's prune floor at 0
        // forever. After a planned handoff, the first *real* durable copy
        // covering the cutover boundary retires it.
        let mut slot = CkptSlot {
            latest: Some(ckpt_at(0)),
            ..CkptSlot::default()
        };
        slot.seed_from_latest();
        assert_eq!(slot.copies.len(), 1);

        // No handoff recorded: real copies land, the seed stays (a plain
        // chaos run keeps scratch recovery available forever).
        slot.insert_copy(
            DurableCopy {
                holder_port: Some(NodeId(7)),
                ckpt: ckpt_at(3),
            },
            2,
        );
        assert!(!slot.maybe_release_seed());
        assert_eq!(slot.copies.len(), 2);

        // Handoff cut over at epoch 5: the epoch-3 copy does not cover
        // it, so the seed is still required.
        slot.mark_handoff(5);
        assert!(!slot.maybe_release_seed());
        assert!(slot.copies.iter().any(|c| c.holder_port.is_none()));

        // A real copy at the boundary lands: the seed is released and
        // only real copies remain.
        slot.insert_copy(
            DurableCopy {
                holder_port: Some(NodeId(8)),
                ckpt: ckpt_at(5),
            },
            2,
        );
        assert!(slot.maybe_release_seed());
        assert!(slot.copies.iter().all(|c| c.holder_port.is_some()));
        // Release is one-shot: the boundary is cleared.
        assert!(!slot.maybe_release_seed());
    }

    #[test]
    fn seed_release_lifts_the_prune_floor() {
        // While the seed copy exists the prune floor is 0 (replay must
        // reach back to scratch); after release it rises to the oldest
        // surviving real copy's commit horizon.
        let mut slot = CkptSlot::default();
        let seed = ckpt_at(0);
        slot.latest = Some(seed);
        slot.seed_from_latest();
        let mut real = ckpt_at(6);
        Rc::get_mut(&mut real).unwrap().ssb.receiver_next = vec![4, 9];
        slot.insert_copy(
            DurableCopy {
                holder_port: Some(NodeId(3)),
                ckpt: real,
            },
            2,
        );
        assert_eq!(slot.prune_floor(0), 0, "seed pins the floor");
        slot.mark_handoff(6);
        assert!(slot.maybe_release_seed());
        assert_eq!(slot.prune_floor(0), 4, "floor rises to the real copy");
        assert_eq!(slot.prune_floor(1), 9);
    }
}
