//! Elastic rescaling: live partition migration (planned handoff) as a
//! director on the cluster driver ([`crate::ClusterBuilder::elastic`]).
//!
//! The recovery machinery of [`crate::recovery`] resurrects a partition's
//! leadership on a new host *after a crash*. This module generalizes that
//! state machine into **promotion without a crash**: a planned handoff
//! ships the partition's checkpoint to a target host while the source
//! leader keeps serving traffic, halts the source for one bounded cutover
//! window, captures an exactly-current epoch boundary, and then commits
//! through the *same* atomic install path a crash promotion uses
//! ([`crate::recovery`]'s `commit_promotion`): channel re-establishment
//! with commit-horizon handshakes, retained-epoch replay, worker respawn
//! at checkpointed source positions. Exactly-once results are preserved
//! by the existing epoch-id dedup and `(window, key)` result dedup — a
//! handoff is indistinguishable from a very fast, loss-free promotion.
//!
//! Topology: `cfg.nodes` logical partitions run over the same number of
//! *provisioned* fabric ports (physical hosts), but the initial
//! assignment may pack several partitions per host — co-located
//! partitions share one port (loopback delta channels) and one
//! memory-bandwidth link, so spreading them to parked hosts genuinely
//! doubles aggregate memory bandwidth. A [`ScaleDirector`] observes
//! cluster telemetry every driver slice and emits [`MigrationCmd`]s; the
//! load-reactive policy is [`ScaleController`] (`elastic/controller.rs`),
//! the mechanism is the rest of this module.
//!
//! The handoff state machine (full spec: `DESIGN.md` §18):
//!
//! ```text
//!   Warmup ──(warm copy landed)──► halt + capture ──► Cutover ──► Reconnect ──► commit
//!     │ target dies: abort free            │ target dies: fall back to source host
//!     │ source dies: drop plan            │ source dies: drop plan, §15 promotion takes over
//! ```
//!
//! Crash faults may land at any instant (chaos plans are honoured); the
//! fault-tolerance director's §15 machinery runs unchanged alongside, and
//! the two interact only through the cluster's `host[]` map and the
//! per-partition "who owns this node's repair" exclusivity (a partition
//! is owned by at most one machine).

mod controller;

pub use controller::{ControllerConfig, Decision, ScaleController};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use slash_desim::{Link, SimTime};
use slash_obs::Cat;

use crate::driver::{Cluster, Director, Outcome, Plant};
use crate::recovery::{
    commit_promotion, on_epoch_closed, reconnect_time, Checkpoint, FtState, PromoPhase, Promotion,
};

/// Trace tid for driver-side rescale events (promotions use
/// `recovery::RECOVERY_TID` = 901 on the same victim pid).
const RESCALE_TID: u32 = 902;

/// Elastic-run topology.
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// Initial host of each logical partition (`len == cfg.nodes`); hosts
    /// index the same range, so `[0,1,2,3,0,1,2,3]` packs 8 partitions
    /// onto 4 of 8 provisioned hosts, parking the rest.
    pub initial_hosts: Vec<usize>,
}

impl ElasticConfig {
    /// Pack `partitions` logical partitions round-robin onto the first
    /// `hosts` of as many provisioned ports: partition `p` starts on host
    /// `p % hosts`.
    pub fn packed(partitions: usize, hosts: usize) -> Self {
        assert!(hosts >= 1 && hosts <= partitions);
        ElasticConfig {
            initial_hosts: (0..partitions).map(|p| p % hosts).collect(),
        }
    }
}

/// One migration order from the [`ScaleDirector`]: move `partition`'s
/// leadership to `to_host`'s port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationCmd {
    /// Logical partition to move.
    pub partition: usize,
    /// Destination host (port index).
    pub to_host: usize,
}

/// What the director sees each driver slice. All counters are cumulative
/// since run start; the director differentiates them itself.
#[derive(Debug, Clone)]
pub struct ClusterTelemetry {
    /// Current virtual time.
    pub now: SimTime,
    /// Records the pacing curves have released cluster-wide so far
    /// (equals `processed_records` for unpaced runs).
    pub released_records: u64,
    /// Records fully processed cluster-wide.
    pub processed_records: u64,
    /// Total records the run will ever see.
    pub total_records: u64,
    /// Current host of each partition.
    pub host_of: Vec<usize>,
    /// Distinct hosts currently owning at least one partition.
    pub hosts_in_use: usize,
    /// Per-partition state updates applied cluster-wide (the SpaceSaving
    /// heat telemetry; zeros when observability is disabled).
    pub partition_updates: Vec<u64>,
    /// Handoffs currently in flight.
    pub migrations_in_flight: usize,
}

impl ClusterTelemetry {
    /// Released-but-unprocessed records: the backlog the pacing curve has
    /// built up against the cluster's service rate.
    pub fn backlog(&self) -> u64 {
        self.released_records.saturating_sub(self.processed_records)
    }
}

/// A scaling policy: consumes telemetry every driver slice, emits
/// migration plans. The driver validates and executes them; invalid
/// commands (dead hosts, partitions already migrating) are dropped.
pub trait ScaleDirector {
    /// Observe one telemetry sample; return migrations to start now.
    fn tick(&mut self, t: &ClusterTelemetry) -> Vec<MigrationCmd>;
}

/// The do-nothing director: a static cluster with the full elastic
/// machinery loaded (checkpoint gating, handoff plumbing) but no
/// migrations — the baseline for exactness and throughput comparisons.
#[derive(Debug, Default, Clone, Copy)]
pub struct StaticDirector;

impl ScaleDirector for StaticDirector {
    fn tick(&mut self, _t: &ClusterTelemetry) -> Vec<MigrationCmd> {
        Vec::new()
    }
}

/// A director that replays a fixed migration schedule: each command fires
/// at the first telemetry tick at or after its virtual time. Used by
/// tests, chaos scenarios, and examples where the *mechanism* is under
/// study and the policy must be deterministic by construction.
#[derive(Debug, Clone)]
pub struct ScriptedDirector {
    script: Vec<(SimTime, MigrationCmd)>,
    next: usize,
}

impl ScriptedDirector {
    /// A director firing `script` in order (must be sorted by time).
    pub fn new(script: Vec<(SimTime, MigrationCmd)>) -> Self {
        assert!(script.windows(2).all(|w| w[0].0 <= w[1].0), "script sorted");
        ScriptedDirector { script, next: 0 }
    }
}

impl ScaleDirector for ScriptedDirector {
    fn tick(&mut self, t: &ClusterTelemetry) -> Vec<MigrationCmd> {
        let mut out = Vec::new();
        while self.next < self.script.len() && self.script[self.next].0 <= t.now {
            out.push(self.script[self.next].1);
            self.next += 1;
        }
        out
    }
}

/// One completed (or aborted) partition migration.
#[derive(Debug, Clone)]
pub struct MigrationEvent {
    /// Partition that moved.
    pub partition: usize,
    /// Host it left.
    pub from_host: usize,
    /// Host it landed on (== `from_host` when the plan fell back).
    pub to_host: usize,
    /// When the director's command was accepted.
    pub planned_at: SimTime,
    /// When the source leader was halted (cutover start); equals
    /// `committed_at` for plans aborted before the halt.
    pub halted_at: SimTime,
    /// When the new leader committed (cutover end).
    pub committed_at: SimTime,
    /// Whether the plan aborted (target died mid-handoff). An aborted
    /// post-halt plan re-commits on the source host — no records lost.
    pub aborted: bool,
}

impl MigrationEvent {
    /// The record-path stall this migration caused: halt → commit.
    pub fn stall(&self) -> SimTime {
        self.committed_at - self.halted_at
    }
}

/// Rescale-side outcome of an elastic run.
#[derive(Debug, Clone, Default)]
pub struct RescaleReport {
    /// Every migration, in commit/abort order.
    pub migrations: Vec<MigrationEvent>,
    /// Most hosts ever simultaneously owning partitions.
    pub peak_hosts: usize,
    /// Hosts owning partitions at completion.
    pub final_hosts: usize,
}

impl RescaleReport {
    /// Worst cutover stall across completed (non-free-aborted) handoffs.
    pub fn max_stall(&self) -> Option<SimTime> {
        self.migrations.iter().map(MigrationEvent::stall).max()
    }

    /// Migrations that aborted.
    pub fn aborted(&self) -> usize {
        self.migrations.iter().filter(|m| m.aborted).count()
    }
}

/// Pre-commit phases of a planned handoff.
enum HandoffPhase {
    /// Warm checkpoint copy streams to the target; source still serves.
    Warmup,
    /// Source halted, cutover checkpoint (carried here) captured, tail
    /// transfer on the wire.
    Cutover(Rc<Checkpoint>),
    /// Replacement channels handshake to ready.
    Reconnect(Rc<Checkpoint>),
}

impl HandoffPhase {
    /// The `migration_phase` gauge value, also the `phase` argument of
    /// `handoff-abort` / `handoff-fallback` trace events.
    fn ordinal(&self) -> u64 {
        match self {
            HandoffPhase::Warmup => 1,
            HandoffPhase::Cutover(_) => 2,
            HandoffPhase::Reconnect(_) => 3,
        }
    }
}

/// A handoff in flight for one partition (keyed by partition in the
/// director's map).
struct Handoff {
    /// The report row being built: hosts, plan/halt/commit instants
    /// (`halted_at` stays `ZERO` until the source is halted), abort flag.
    ev: MigrationEvent,
    phase: HandoffPhase,
    phase_done_at: SimTime,
    /// Bytes of the warm copy already on the target when the halt lands.
    warm_bytes: u64,
}

/// Floor for the cutover tail transfer: control messages and the final
/// epoch's chunks never ship for free.
const MIN_TAIL_BYTES: u64 = 256;

/// The planned-handoff director: consults a [`ScaleDirector`] every slice
/// and walks accepted migrations through the handoff state machine. The
/// fault-tolerance director must be installed ahead of it — handoffs ship
/// and commit its checkpoints — and the two interact only through the
/// cluster's host map and its per-partition ownership flags.
pub(crate) struct RescaleDirector<'a> {
    director: &'a mut dyn ScaleDirector,
    handoffs: BTreeMap<usize, Handoff>,
    total_records: u64,
    report: RescaleReport,
}

impl<'a> RescaleDirector<'a> {
    pub(crate) fn new(director: &'a mut dyn ScaleDirector) -> Self {
        RescaleDirector {
            director,
            handoffs: BTreeMap::new(),
            total_records: 0,
            report: RescaleReport::default(),
        }
    }
}

impl Director for RescaleDirector<'_> {
    fn install(&mut self, c: &mut Cluster) {
        let n = c.cfg.nodes;
        // One memory-bandwidth link per *host*: co-located partitions
        // contend for it, migrations re-home a partition onto its target
        // host's link.
        let link = || Rc::new(RefCell::new(Link::new(c.cfg.cost.mem_bandwidth)));
        c.host_mem = Some((0..n).map(|_| link()).collect());
        for p in 0..n {
            c.rehome(p);
        }
        let record_size = c.plan.input().schema.size;
        self.total_records = c
            .partitions
            .iter()
            .map(|p| (p.len() / record_size) as u64)
            .sum();
        self.report.peak_hosts = c.live.borrow().hosts_in_use();
    }

    fn outstanding(&self, _c: &Cluster) -> bool {
        !self.handoffs.is_empty()
    }

    fn tick(&mut self, c: &mut Cluster, now: SimTime) {
        self.handoff_tick(c, now);
        let in_use = c.live.borrow().hosts_in_use();
        self.report.peak_hosts = self.report.peak_hosts.max(in_use);
        self.consult(c, now);
    }

    fn report(&mut self, c: &Cluster, out: &mut Outcome) {
        self.report.final_hosts = c.live.borrow().hosts_in_use();
        out.rescale = std::mem::take(&mut self.report);
    }
}

impl RescaleDirector<'_> {
    /// Sample telemetry, consult the director, and start every migration
    /// it orders that is valid right now.
    fn consult(&mut self, c: &mut Cluster, now: SimTime) {
        let n = c.cfg.nodes;
        let telemetry = {
            let live = c.live.borrow();
            let processed: u64 = live.nodes.iter().map(|s| s.borrow().records).sum();
            let released = match c.cfg.pacing {
                Some(curve) => curve
                    .released_records(now)
                    .saturating_mul(c.partitions.len() as u64)
                    .min(self.total_records),
                None => processed,
            };
            let mut updates = vec![0u64; n];
            for sh in &live.nodes {
                for (p, &u) in sh.borrow_mut().ssb.partition_updates().iter().enumerate() {
                    updates[p] += u;
                }
            }
            ClusterTelemetry {
                now,
                released_records: released,
                processed_records: processed,
                total_records: self.total_records,
                host_of: live.host.clone(),
                hosts_in_use: live.hosts_in_use(),
                partition_updates: updates,
                migrations_in_flight: self.handoffs.len(),
            }
        };
        for cmd in self.director.tick(&telemetry) {
            let p = cmd.partition;
            if p >= n || cmd.to_host >= n || cmd.to_host == c.host(p) || c.owned[p] {
                continue;
            }
            if !c.fabric.node_alive(c.ports[cmd.to_host]) || !c.port_alive(p) {
                continue;
            }
            let node = c.node(p);
            let sh = node.borrow();
            if sh.finished || sh.crashed || sh.halted {
                continue;
            }
            // Pre-ship a warm checkpoint copy before halting the source,
            // so the cutover pays only the delta since the last boundary.
            let warm = sh
                .ft
                .as_ref()
                .and_then(FtState::latest_ckpt)
                .map_or(0, |ck| ck.payload_bytes());
            let warm_time = if warm > 0 {
                c.transfer_time(warm)
            } else {
                SimTime::ZERO
            };
            let from_host = c.host(p);
            c.fault_event(
                RESCALE_TID,
                "handoff-begin",
                p,
                &[
                    ("from", from_host as u64),
                    ("to", cmd.to_host as u64),
                    ("warm_bytes", warm),
                ],
            );
            c.publish_owner(p, HandoffPhase::Warmup.ordinal());
            c.owned[p] = true;
            self.handoffs.insert(
                p,
                Handoff {
                    ev: MigrationEvent {
                        partition: p,
                        from_host,
                        to_host: cmd.to_host,
                        planned_at: now,
                        halted_at: SimTime::ZERO,
                        committed_at: SimTime::ZERO,
                        aborted: false,
                    },
                    phase: HandoffPhase::Warmup,
                    phase_done_at: now + warm_time,
                    warm_bytes: warm,
                },
            );
        }
    }

    /// Advance every in-flight handoff one driver tick: honour crash
    /// interactions (source dead → drop the plan, §15 promotion takes
    /// over; target dead → abort free pre-halt, fall back to the source
    /// host post-halt), and walk Warmup → halt+capture → Cutover →
    /// Reconnect → commit. The commit reuses the crash-promotion install
    /// path verbatim.
    fn handoff_tick(&mut self, c: &mut Cluster, now: SimTime) {
        let parts: Vec<usize> = self.handoffs.keys().copied().collect();
        for p in parts {
            let Some(h) = self.handoffs.get_mut(&p) else {
                continue;
            };
            // Source leader died mid-handoff: the plan is void. Pre-halt
            // the partition is simply crashed; post-halt it is halted
            // *and* its port is dead — either way it is flagged crashed
            // and the §15 detect → promote cycle takes over (buddy
            // promotion from durable copies). Target died before the
            // halt: nothing moved — abort free, the source keeps
            // leadership and keeps serving. Either way drop the machine
            // so the detector may own the partition again.
            let source_dead = !c.port_alive(p);
            let target_dead = !c.fabric.node_alive(c.ports[h.ev.to_host]);
            if source_dead || (target_dead && matches!(h.phase, HandoffPhase::Warmup)) {
                let reason = if source_dead {
                    "reason_source_dead"
                } else {
                    "reason_target_dead"
                };
                c.fault_event(
                    RESCALE_TID,
                    "handoff-abort",
                    p,
                    &[
                        (reason, 1),
                        ("to", h.ev.to_host as u64),
                        ("phase", h.phase.ordinal()),
                    ],
                );
                // Nothing moved: the plan ends where it started.
                h.ev.to_host = h.ev.from_host;
                h.ev.aborted = true;
                if h.ev.halted_at == SimTime::ZERO {
                    h.ev.halted_at = now;
                }
                h.ev.committed_at = now;
                self.report.migrations.push(h.ev.clone());
                c.publish_owner(p, 0);
                c.owned[p] = false;
                self.handoffs.remove(&p);
                continue;
            }
            // Target died after the halt: the partition must be
            // re-installed *somewhere*; fall back to the source host (a
            // local re-commit: the checkpoint is already there, only the
            // reconnect handshake remains).
            if target_dead && !h.ev.aborted {
                h.ev.aborted = true;
                h.ev.to_host = c.host(p);
                // The tail transfer (if still running) is void; the
                // checkpoint already lives on the source.
                h.phase_done_at = now;
                let fallback = [("to", h.ev.to_host as u64), ("phase", h.phase.ordinal())];
                c.fault_event(RESCALE_TID, "handoff-fallback", p, &fallback);
            }
            if now < h.phase_done_at {
                continue;
            }
            match &h.phase {
                HandoffPhase::Warmup => {
                    // Cutover: halt the source leader, close the final
                    // epoch driver-side and capture the exactly-current
                    // checkpoint. Workers die at their next step having
                    // applied whole batches only, so the boundary is exact.
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
                    // Never absent: the director's install seeded one.
                    let Some(ckpt) = sh.ft.as_ref().and_then(FtState::latest_ckpt) else {
                        continue;
                    };
                    h.ev.halted_at = now;
                    let tail = ckpt
                        .payload_bytes()
                        .saturating_sub(h.warm_bytes)
                        .max(MIN_TAIL_BYTES);
                    h.phase_done_at = now + c.transfer_time(tail);
                    c.fault_event(
                        RESCALE_TID,
                        "handoff-cutover",
                        p,
                        &[("epochs", ckpt.epochs_closed()), ("tail_bytes", tail)],
                    );
                    h.phase = HandoffPhase::Cutover(ckpt);
                    c.publish_owner(p, h.phase.ordinal());
                }
                HandoffPhase::Cutover(ckpt) => {
                    h.phase_done_at = now + reconnect_time(&c.fabric);
                    h.phase = HandoffPhase::Reconnect(Rc::clone(ckpt));
                    c.publish_owner(p, h.phase.ordinal());
                }
                HandoffPhase::Reconnect(ckpt) => {
                    // Commit through the crash-promotion install path:
                    // same atomic channel re-establishment, retained
                    // replay, and worker respawn — promotion without the
                    // crash.
                    let promo = Promotion {
                        node: p,
                        detected_at: h.ev.planned_at,
                        phase: PromoPhase::Reconnect,
                        phase_done_at: now,
                        host: h.ev.to_host,
                        host_port: c.ports[h.ev.to_host],
                        copy_port: None,
                        ckpt: Rc::clone(ckpt),
                        restarts: 0,
                    };
                    commit_promotion(c, &promo);
                    // §15.3 retention fix: once the new owner's own
                    // durable checkpoint covers the cutover boundary, the
                    // eternal epoch-0 seed copy is released and retained
                    // histories may finally be pruned past 0.
                    if let Some(ft) = &c.node(p).borrow().ft {
                        ft.store.borrow_mut()[p].mark_handoff(promo.ckpt.epochs_closed());
                    }
                    h.ev.committed_at = c.sim.now();
                    let stall = h.ev.stall().as_nanos();
                    if c.obs.is_enabled() {
                        c.obs.span(
                            Cat::Fault,
                            "handoff",
                            p as u32,
                            RESCALE_TID,
                            h.ev.planned_at,
                            h.ev.committed_at
                                .max(h.ev.planned_at + SimTime::from_nanos(1)),
                            &[
                                ("from", h.ev.from_host as u64),
                                ("to", h.ev.to_host as u64),
                                ("stall_ns", stall),
                            ],
                        );
                        c.obs.hist_record("migration_stall_ns", "cluster", stall);
                        c.obs.counter_add("migrations", "cluster", 1);
                    }
                    self.report.migrations.push(h.ev.clone());
                    self.handoffs.remove(&p);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::FaultPlan;
    use crate::testutil::{cfg, chaos, count_plan, gen};
    use crate::SlashCluster;

    #[test]
    fn invalid_commands_are_dropped() {
        // Out-of-range hosts/partitions and a self-move must be ignored,
        // and the run must complete untouched, still packed.
        let cmd = |partition, to_host| {
            (
                SimTime::from_micros(400),
                MigrationCmd { partition, to_host },
            )
        };
        // Partition 1 already lives on host 1 in packed(4, 2).
        let mut director = ScriptedDirector::new(vec![cmd(9, 1), cmd(1, 9), cmd(1, 1)]);
        let parts: Vec<Rc<Vec<u8>>> = (0..4).map(|_| gen(60_000, 1, 32)).collect();
        let out = SlashCluster::builder(count_plan(4_000), parts, cfg(4))
            .chaos(&chaos(FaultPlan::new()))
            .elastic(&ElasticConfig::packed(4, 2), &mut director)
            .run();
        let rescale = &out.rescale;
        assert!(rescale.migrations.is_empty(), "{:?}", rescale.migrations);
        assert_eq!((rescale.peak_hosts, rescale.final_hosts), (2, 2));
        assert_eq!(out.run.records, 4 * 60_000);
    }
}
