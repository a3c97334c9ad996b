//! The one ownership-transfer machine: how a partition's leadership moves
//! to another host, whether its old host crashed or a director planned the
//! move.
//!
//! A `Transfer` enters one of two ways:
//!
//! * **from a copy** — the partition's host died, the stall detector
//!   ([`crate::recovery`]) found it, and the newest durable checkpoint copy
//!   is restored on the first alive ring peer: `Restore → Reconnect`;
//! * **from the live source** — a [`ScaleDirector`](crate::ScaleDirector)
//!   ordered the move ([`crate::elastic`]): a warm copy ships while the
//!   source keeps serving, then the source halts, captures an
//!   exactly-current boundary and ships the tail: `Warmup → Cutover →
//!   Reconnect`.
//!
//! ```text
//!   copy:  Restore ──► Reconnect ──► commit
//!   live:  Warmup ──(halt + capture)──► Cutover ──► Reconnect ──► commit
//! ```
//!
//! Every phase before the commit mutates nothing but the transfer record
//! (the planned halt aside), so one table (`verdict`) decides what a dead port does to it: restart
//! against a re-selected host and copy, abort, fall back to the source
//! host, or carry on. Both entries commit through `commit`, the one
//! atomic install. The in-flight map is `Cluster::transfers`; a partition
//! has at most one transfer, and the stall detector and the migration
//! planner leave it alone while it does. Full specification: `DESIGN.md`
//! §15.1 and §15.4.

use std::cell::RefCell;
use std::rc::Rc;

use slash_desim::SimTime;
use slash_net::RECONNECT_HANDSHAKE_MSGS;
use slash_obs::Cat;
use slash_rdma::{Fabric, NodeId};
use slash_state::backend::SsbNode;
use slash_state::{chunks_digest, rejoin, Rejoin};

use crate::cluster::{boot_node, spawn_node_workers};
use crate::driver::{Cluster, Plant};
use crate::recovery::{on_epoch_closed, Checkpoint, FtState, RECOVERY_TID};

/// Trace tid for planned-transfer events (crash promotions and every
/// commit use [`RECOVERY_TID`] on the same partition pid).
const RESCALE_TID: u32 = 902;

/// Floor for the cutover tail transfer: control messages and the final
/// epoch's chunks never ship for free.
const MIN_TAIL_BYTES: u64 = 256;

/// Where a transfer's state comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// The partition's leader on this host, still serving until the halt.
    Live(usize),
    /// A durable checkpoint copy on this port (`None`: the epoch-0 seed
    /// copy, re-read from the source).
    Copy(Option<NodeId>),
}

/// Pre-commit phases. The discriminant is the `phase` argument of trace
/// events and the `migration_phase` gauge, except that a crash
/// promotion's `Reconnect` counts 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Copy chunks stream from the holder to the target.
    Restore,
    /// A warm copy streams to the target; the source still serves.
    Warmup,
    /// The source is halted and its exactly-current tail ships.
    Cutover,
    /// Replacement channels to every peer handshake to ready-to-send.
    Reconnect,
}

/// A port a transfer depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lost {
    /// The host the partition moves to.
    Target,
    /// The live source's host.
    Source,
    /// The port holding the copy being restored.
    Holder,
}

/// What a transfer does when one of its ports dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Nothing it still needs was lost.
    Continue,
    /// Start over against a re-selected host and copy.
    Restart,
    /// End here; the partition stays where it was.
    Abort,
    /// Re-commit onto the source host, which holds the capture.
    Fallback,
}

/// The interruption table (DESIGN §15.4): what a transfer that entered
/// `from` does in `phase` when the port `lost` stops answering.
fn verdict(from: Origin, phase: Phase, lost: Lost) -> Verdict {
    use {Lost::*, Verdict::*};
    match (from, phase, lost) {
        // §15.2 rules 1 and 2: the target, or the holder of chunks still
        // streaming, died.
        (Origin::Copy(_), _, Target) | (Origin::Copy(_), Phase::Restore, Holder) => Restart,
        // Restored chunks live on the target; the source was dead already.
        (Origin::Copy(_), _, Holder | Source) => Continue,
        // The plan is void: a dead source is a crash the detector
        // promotes, and before the halt nothing has moved.
        (Origin::Live(_), _, Source) | (Origin::Live(_), Phase::Warmup, Target) => Abort,
        (Origin::Live(_), _, Target) => Fallback,
        // A planned transfer reads no copy holder.
        (Origin::Live(_), _, Holder) => Continue,
    }
}

/// One ownership transfer as it ended, whichever way it entered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferRow {
    /// Partition that moved.
    pub partition: usize,
    /// Host it left.
    pub from_host: usize,
    /// Host it landed on (== `from_host` when a planned transfer aborted
    /// or fell back).
    pub to_host: usize,
    /// When the stall was detected (crash) or the order accepted (planned).
    pub began_at: SimTime,
    /// When the live source was halted; `None` for a crash promotion and
    /// for a plan that ended before its halt.
    pub halted_at: Option<SimTime>,
    /// When the transfer committed or aborted.
    pub committed_at: SimTime,
    /// Times a further fault restarted it before it committed.
    pub restarts: u32,
    /// Whether a planned transfer aborted or fell back.
    pub aborted: bool,
}

impl TransferRow {
    /// The record-path stall a planned transfer caused: halt → commit.
    pub fn stall(&self) -> SimTime {
        self.committed_at - self.halted_at.unwrap_or(self.committed_at)
    }
}

/// A transfer in flight (keyed by partition in `Cluster::transfers`).
pub(crate) struct Transfer {
    from: Origin,
    /// Host the partition moves to (the source host after a fallback).
    to: usize,
    phase: Phase,
    phase_done_at: SimTime,
    /// The checkpoint moving: the copy being restored, or a planned
    /// transfer's warm copy until the halt and its capture after it.
    ckpt: Rc<Checkpoint>,
    began_at: SimTime,
    halted_at: Option<SimTime>,
    restarts: u32,
}

impl Transfer {
    /// Whether a director planned this transfer (it entered from the live
    /// source).
    pub(crate) fn planned(&self) -> bool {
        matches!(self.from, Origin::Live(_))
    }

    fn ordinal(&self) -> u64 {
        match self.phase {
            Phase::Reconnect if !self.planned() => 1,
            phase => phase as u64,
        }
    }

    /// Which port this transfer needs has died, if any: a dead source
    /// first (it voids a plan whatever else died), then the target.
    fn lost(&self, c: &Cluster) -> Option<Lost> {
        let dead = |port: NodeId| !c.fabric.node_alive(port);
        match self.from {
            Origin::Live(h) if dead(c.ports[h]) => Some(Lost::Source),
            _ if dead(c.ports[self.to]) => Some(Lost::Target),
            Origin::Copy(Some(holder)) if dead(holder) => Some(Lost::Holder),
            _ => None,
        }
    }

    /// Select a host and the newest valid durable copy for dead partition
    /// `d` and enter `Restore`. `None` when every peer is dead; the seed
    /// copy guarantees a copy always exists.
    fn restore(
        c: &Cluster,
        d: usize,
        now: SimTime,
        began_at: SimTime,
        restarts: u32,
    ) -> Option<Transfer> {
        // Candidates are judged by their *own* port: committing sets
        // `host[d] = h`, so partition `d` will live on `ports[h]` — a logical
        // node whose port died (and was itself re-homed elsewhere) must never
        // be picked, even though its partition is healthy.
        let h = select_promotion_host(d, c.cfg.nodes, |j| c.fabric.node_alive(c.ports[j]))?;
        let ft = c.node(d).borrow().ft.clone()?;
        let copy = ft.store.borrow_mut()[d].restore_candidate(&c.fabric)?;
        let restore_time = match copy.holder_port {
            // Stream the copy's chunks from its holder to the host.
            Some(_) => c.transfer_time(copy.ckpt.payload_bytes()),
            // Seed copy: the source is re-read locally, control latency only.
            None => c.cfg.fabric.nic.latency,
        };
        Some(Transfer {
            from: Origin::Copy(copy.holder_port),
            to: h,
            phase: Phase::Restore,
            phase_done_at: now + restore_time,
            ckpt: copy.ckpt,
            began_at,
            halted_at: None,
            restarts,
        })
    }

    fn row(&self, c: &Cluster, p: usize, now: SimTime) -> TransferRow {
        let from_host = c.host(p);
        TransferRow {
            partition: p,
            from_host,
            to_host: self.to,
            began_at: self.began_at,
            halted_at: self.halted_at,
            committed_at: now,
            restarts: self.restarts,
            aborted: self.to == from_host,
        }
    }
}

/// Pick the host that resurrects dead logical node `d`: the first peer in
/// ring order whose port is alive. `d` itself is never a candidate (a
/// node cannot host its own recovery), and `None` means every peer is
/// dead — the unrecoverable all-buddies-dead error path, surfaced to the
/// driver rather than panicking.
fn select_promotion_host(d: usize, n: usize, alive: impl Fn(usize) -> bool) -> Option<usize> {
    (1..n).map(|k| (d + k) % n).find(|&j| alive(j))
}

/// Handshake time for replacement channels to reach ready-to-send.
fn reconnect_time(fabric: &Fabric) -> SimTime {
    SimTime::from_nanos(RECONNECT_HANDSHAKE_MSGS * 2 * fabric.ack_latency().as_nanos())
}

/// Enter a crash promotion of dead partition `d` from its newest durable
/// copy. With every peer dead nothing starts; the detector retries after
/// another timeout and the livelock guard bounds a hopeless wait.
pub(crate) fn begin_restore(c: &mut Cluster, d: usize, now: SimTime) {
    if let Some(t) = Transfer::restore(c, d, now, now, 0) {
        let args = [("host", t.to as u64), ("epochs", t.ckpt.epochs_closed())];
        c.fault_event(RECOVERY_TID, "promotion-begin", d, &args);
        c.transfers.insert(d, t);
    }
}

/// Enter a planned transfer of live partition `p` to host `to`, warming
/// the target up with `warm`, the newest checkpoint, so the cutover pays
/// only the delta since that boundary.
pub(crate) fn begin_planned(
    c: &mut Cluster,
    p: usize,
    to: usize,
    warm: Rc<Checkpoint>,
    now: SimTime,
) {
    let from = c.host(p);
    let warm_bytes = warm.payload_bytes();
    let args = [
        ("from", from as u64),
        ("to", to as u64),
        ("warm_bytes", warm_bytes),
    ];
    c.fault_event(RESCALE_TID, "handoff-begin", p, &args);
    let t = Transfer {
        from: Origin::Live(from),
        to,
        phase: Phase::Warmup,
        phase_done_at: now + c.transfer_time(warm_bytes),
        ckpt: warm,
        began_at: now,
        halted_at: None,
        restarts: 0,
    };
    c.publish_owner(p, t.ordinal());
    c.transfers.insert(p, t);
}

/// Advance every in-flight transfer that entered from the live source
/// (`planned`) or from a copy by one driver tick, in partition order;
/// `ended` receives each one's row the moment it commits or aborts.
pub(crate) fn advance(
    c: &mut Cluster,
    now: SimTime,
    planned: bool,
    mut ended: impl FnMut(&Cluster, TransferRow),
) {
    let parts: Vec<usize> = c
        .transfers
        .iter()
        .filter(|(_, t)| t.planned() == planned)
        .map(|(&p, _)| p)
        .collect();
    for p in parts {
        if let Some(row) = step(c, p, now) {
            ended(c, row);
        }
    }
}

/// One tick of partition `p`'s transfer: consult the interruption table,
/// then move on if the phase has run its time. Returns the row once the
/// transfer has ended.
fn step(c: &mut Cluster, p: usize, now: SimTime) -> Option<TransferRow> {
    let mut t = c.transfers.remove(&p)?;
    let lost = t.lost(c);
    match lost.map_or(Verdict::Continue, |l| verdict(t.from, t.phase, l)) {
        Verdict::Continue => {}
        Verdict::Restart => {
            let restarts = t.restarts + 1;
            if let Some(fresh) = Transfer::restore(c, p, now, t.began_at, restarts) {
                let args = [
                    ("restarts", u64::from(restarts)),
                    ("host", fresh.to as u64),
                    ("phase", t.ordinal()),
                ];
                c.fault_event(RECOVERY_TID, "promotion-restart", p, &args);
                t = fresh;
            }
            // No candidate right now: the stale record stays; its dead
            // target keeps this arm retrying every tick.
            c.transfers.insert(p, t);
            return None;
        }
        Verdict::Abort => {
            let reason = match lost {
                Some(Lost::Source) => "reason_source_dead",
                _ => "reason_target_dead",
            };
            let args = [(reason, 1), ("to", t.to as u64), ("phase", t.ordinal())];
            c.fault_event(RESCALE_TID, "handoff-abort", p, &args);
            // Nothing moved: the plan ends where it started.
            t.to = c.host(p);
            c.publish_owner(p, 0);
            return Some(t.row(c, p, now));
        }
        Verdict::Fallback => {
            // The capture already lives on the source; only the reconnect
            // handshake remains.
            t.to = c.host(p);
            t.phase_done_at = now;
            let args = [("to", t.to as u64), ("phase", t.ordinal())];
            c.fault_event(RESCALE_TID, "handoff-fallback", p, &args);
        }
    }
    if now >= t.phase_done_at {
        match t.phase {
            Phase::Warmup => halt(c, p, now, &mut t),
            Phase::Restore | Phase::Cutover => {
                // Integrity gate: the moved copy must match the digest
                // recorded at capture before it may become primary state.
                debug_assert_eq!(
                    chunks_digest(&t.ckpt.ssb.snapshot),
                    t.ckpt.ssb.digest,
                    "durable copy failed its checksum"
                );
                t.phase = Phase::Reconnect;
                t.phase_done_at = now + reconnect_time(&c.fabric);
                if t.planned() {
                    c.publish_owner(p, t.ordinal());
                }
            }
            Phase::Reconnect => {
                let row = t.row(c, p, now);
                commit(c, p, &t);
                if t.planned() {
                    planned_committed(c, &row, &t.ckpt);
                }
                return Some(row);
            }
        }
    }
    c.transfers.insert(p, t);
    None
}

/// The cutover: halt the source leader, close the final epoch driver-side
/// and capture the exactly-current checkpoint. Workers die at their next
/// step having applied whole batches only, so the boundary is exact.
fn halt(c: &mut Cluster, p: usize, now: SimTime, t: &mut Transfer) {
    let node = c.node(p);
    let mut sh = node.borrow_mut();
    sh.halted = true;
    let closed = match c.plant {
        Some(Plant::SkipCutoverClose) => Ok(()),
        _ => sh.ssb.close_epoch(&mut c.sim).map(drop),
    };
    match closed {
        Ok(()) => on_epoch_closed(&mut sh),
        Err(e) => sh
            .obs
            .record_failure("handoff cutover epoch", &format!("{e:?}")),
    }
    // Never absent: the FT director's install seeded one.
    let Some(ckpt) = sh.ft.as_ref().and_then(FtState::latest_ckpt) else {
        return;
    };
    let tail = ckpt
        .payload_bytes()
        .saturating_sub(t.ckpt.payload_bytes())
        .max(MIN_TAIL_BYTES);
    t.halted_at = Some(now);
    t.phase_done_at = now + c.transfer_time(tail);
    let args = [("epochs", ckpt.epochs_closed()), ("tail_bytes", tail)];
    c.fault_event(RESCALE_TID, "handoff-cutover", p, &args);
    t.ckpt = ckpt;
    t.phase = Phase::Cutover;
    c.publish_owner(p, t.ordinal());
}

/// After a planned commit: §15.3's retention fix (once the new owner's
/// own durable checkpoint covers the cutover boundary, the epoch-0 seed
/// copy is released and retained histories may be pruned past 0), and
/// the migration telemetry.
fn planned_committed(c: &Cluster, row: &TransferRow, ckpt: &Checkpoint) {
    let p = row.partition;
    if let Some(ft) = &c.node(p).borrow().ft {
        ft.store.borrow_mut()[p].mark_handoff(ckpt.epochs_closed());
    }
    if c.obs.is_enabled() {
        let stall = row.stall().as_nanos();
        c.obs.span(
            Cat::Fault,
            "handoff",
            p as u32,
            RESCALE_TID,
            row.began_at,
            row.committed_at.max(row.began_at + SimTime::from_nanos(1)),
            &[
                ("from", row.from_host as u64),
                ("to", row.to_host as u64),
                ("stall_ns", stall),
            ],
        );
        c.obs.hist_record("migration_stall_ns", "cluster", stall);
        c.obs.counter_add("migrations", "cluster", 1);
    }
}

/// The one atomic install, for both entries: restore partition `d`'s SSB
/// from the transfer's checkpoint on the target port, re-establish every
/// channel with commit-horizon handshakes, and respawn *all* of the
/// node's workers at their checkpointed source positions. Everything
/// before this point ran against the transfer record only; from the
/// cluster's view the replacement node appears at one virtual instant.
fn commit(c: &mut Cluster, d: usize, t: &Transfer) {
    let n = c.cfg.nodes;
    let ckpt = &t.ckpt;
    let port = c.ports[t.to];
    // The replacement inherits its predecessor's checkpoint hook.
    let Some(ft) = c.node(d).borrow().ft.clone() else {
        c.obs
            .record_failure("promotion commit", "node has no checkpoint hook");
        return;
    };
    // Whatever was newer than the restored boundary died with the node.
    ft.store.borrow_mut()[d].restart_from(Rc::clone(ckpt), &c.fabric);
    let mut live = c.live.borrow_mut();
    live.host[d] = t.to;

    // The split ledger is deterministic replicated control state: every
    // node holds an identical copy, so the replacement adopts any
    // survivor's. (Exactness never depends on the copy — the leader-side
    // fold merges whatever sub-key entries exist — but the replacement
    // must keep *diverting* hot-key updates like its predecessor did.)
    let ledger = live
        .nodes
        .iter()
        .enumerate()
        .filter(|&(s, _)| s != d)
        .find_map(|(_, sh)| sh.borrow().ssb.split_ledger().cloned());
    let mut ssb = SsbNode::restored(
        d,
        c.plan.descriptor(),
        c.cfg.ssb_config(),
        &ckpt.ssb,
        ledger,
    );

    // Re-establish channels with every peer, handshaking commit horizons
    // so replay is exact and nothing is merged twice. A peer whose port is
    // dead (a concurrent crash, its own promotion pending) is rejoined
    // one-sidedly; its commit replaces both directions with live channels.
    {
        let st = ft.store.borrow();
        let mut tampered = (c.plant == Some(Plant::SkipReplay)).then(|| ckpt.ssb.clone());
        for s in (0..n).filter(|&s| s != d) {
            let peer_port = c.ports[live.host[s]];
            let mut survivor = c
                .fabric
                .node_alive(peer_port)
                .then(|| live.nodes[s].borrow_mut());
            if let (Some(t), Some(sv)) = (tampered.as_mut(), survivor.as_ref()) {
                t.receiver_next[s] = (t.receiver_next[s] + 1).min(sv.ssb.epochs_closed());
            }
            let at = Rejoin {
                fabric: &c.fabric,
                port,
                peer: s,
                peer_port,
                durable: ckpt.epochs_closed(),
                peer_durable: st[s].durable_horizon(),
                obs: &c.obs,
            };
            let from = tampered.as_ref().unwrap_or(&ckpt.ssb);
            rejoin(&mut ssb, survivor.as_mut().map(|sv| &mut sv.ssb), from, &at);
        }
    }

    // Fresh shared state seeded from the checkpoint; the old slot's
    // workers are already dead (crashed or halted), replace it, keeping
    // its protocol-violation counts.
    ssb.inherit_violations(&live.nodes[d].borrow().ssb);
    let mut shared = boot_node(ssb, d, &c.cfg, &c.obs);
    shared.sink = ckpt.sink.clone();
    shared.records = ckpt.records;
    shared.worker_wm = ckpt.worker_wm.clone();
    shared.worker_pos = ckpt.worker_pos.clone();
    shared.ft = Some(ft);
    let shared = Rc::new(RefCell::new(shared));
    live.nodes[d] = Rc::clone(&shared);
    drop(live);
    c.rehome(d);
    // Fresh off a commit the restored node's token is still stale; re-arm
    // its stall timer so it gets a full timeout to publish progress
    // before being re-diagnosed.
    c.progress_at[d] = c.sim.now();

    // Respawn every worker of the node at its checkpointed source
    // position: everything past it was lost with the open fragments and
    // is reprocessed; everything before it is in the snapshot or in
    // replayable epochs.
    let w = c.cfg.workers_per_node;
    let parts = &c.partitions[d * w..(d + 1) * w];
    spawn_node_workers(
        &mut c.sim,
        d,
        &shared,
        parts,
        &c.plan,
        &c.cfg,
        Some(&ckpt.worker_pos),
    );
    c.fault_event(
        RECOVERY_TID,
        "promoted",
        d,
        &[
            ("host", t.to as u64),
            ("epochs", ckpt.epochs_closed()),
            ("restarts", u64::from(t.restarts)),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promotion_host_skips_dead_nodes_and_self() {
        // Ring order from d+1; the crashed node is never its own host.
        assert_eq!(select_promotion_host(1, 4, |j| j != 1), Some(2));
        // The designated ring buddy is itself dead: re-select the next.
        assert_eq!(select_promotion_host(1, 4, |j| j != 1 && j != 2), Some(3));
        // Selection wraps around the ring.
        assert_eq!(select_promotion_host(3, 4, |j| j == 0), Some(0));
    }

    #[test]
    fn promotion_with_all_buddies_dead_is_unrecoverable() {
        assert_eq!(select_promotion_host(1, 4, |_| false), None);
        // A single-node cluster has no peer to promote onto.
        assert_eq!(select_promotion_host(0, 1, |_| true), None);
    }

    /// Every cell of the interruption table, against the outcomes DESIGN
    /// §15.4 names: restart on target death in `Restore` and `Reconnect`
    /// and on holder death in `Restore` only; a free abort on target death
    /// in `Warmup`; a fallback to the source host after the halt; the plan
    /// dropped on source death.
    #[test]
    fn interruption_table_matches_the_fault_by_phase_matrix() {
        use {Lost::*, Phase::*, Verdict::*};
        let copy = Origin::Copy(Some(NodeId(1)));
        let live = Origin::Live(0);
        let cells = [
            // (entry, phase, [target dies, source dies, holder dies])
            (copy, Restore, [Restart, Continue, Restart]),
            (copy, Reconnect, [Restart, Continue, Continue]),
            (live, Warmup, [Abort, Abort, Continue]),
            (live, Cutover, [Fallback, Abort, Continue]),
            (live, Reconnect, [Fallback, Abort, Continue]),
        ];
        for (from, phase, want) in cells {
            for (lost, want) in [Target, Source, Holder].into_iter().zip(want) {
                assert_eq!(
                    verdict(from, phase, lost),
                    want,
                    "{from:?} {phase:?} {lost:?}"
                );
            }
        }
    }
}
