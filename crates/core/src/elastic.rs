//! Elastic rescaling: live partition migration (planned handoff) as a
//! director on the cluster driver ([`crate::ClusterBuilder::elastic`]).
//!
//! A planned handoff is the ownership-transfer machine of
//! [`crate::transfer`] entered from the live source: the partition's
//! checkpoint ships to a target host while the source leader keeps
//! serving, the source halts for one bounded cutover window and captures
//! an exactly-current epoch boundary, and the move commits through the
//! same atomic install a crash promotion uses. Exactly-once results are
//! preserved by the existing epoch-id dedup and `(window, key)` result
//! dedup — a handoff is a very fast, loss-free promotion.
//!
//! Topology: `cfg.nodes` logical partitions run over the same number of
//! *provisioned* fabric ports (physical hosts), but the initial
//! assignment may pack several partitions per host — co-located
//! partitions share one port (loopback delta channels) and one
//! memory-bandwidth link, so spreading them to parked hosts genuinely
//! doubles aggregate memory bandwidth. A [`ScaleDirector`] observes
//! cluster telemetry every driver slice and emits [`MigrationCmd`]s; the
//! load-reactive policy is [`ScaleController`] (`elastic/controller.rs`),
//! the mechanism is the rest of this module. Full spec: `DESIGN.md` §18.

mod controller;

pub use controller::{ControllerConfig, Decision, ScaleController};

use std::cell::RefCell;
use std::rc::Rc;

use slash_desim::{Link, SimTime};

use crate::driver::{Cluster, Director, Outcome};
use crate::recovery::FtState;
use crate::transfer::{self, TransferRow};

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

/// Rescale-side outcome of an elastic run.
#[derive(Debug, Clone, Default)]
pub struct RescaleReport {
    /// Every migration, in commit/abort order.
    pub migrations: Vec<TransferRow>,
    /// Most hosts ever simultaneously owning partitions.
    pub peak_hosts: usize,
    /// Hosts owning partitions at completion.
    pub final_hosts: usize,
}

impl RescaleReport {
    /// Worst cutover stall across completed (non-free-aborted) handoffs.
    pub fn max_stall(&self) -> Option<SimTime> {
        self.migrations.iter().map(TransferRow::stall).max()
    }

    /// Migrations that aborted.
    pub fn aborted(&self) -> usize {
        self.migrations.iter().filter(|m| m.aborted).count()
    }
}

/// The planned-handoff director: consults a [`ScaleDirector`] every slice
/// and walks accepted migrations through the transfer machine. The
/// fault-tolerance director must be installed ahead of it — handoffs ship
/// and commit its checkpoints — and the two interact only through the
/// cluster's host map and its in-flight transfers.
pub(crate) struct RescaleDirector<'a> {
    director: &'a mut dyn ScaleDirector,
    total_records: u64,
    report: RescaleReport,
}

impl<'a> RescaleDirector<'a> {
    pub(crate) fn new(director: &'a mut dyn ScaleDirector) -> Self {
        RescaleDirector {
            director,
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

    fn tick(&mut self, c: &mut Cluster, now: SimTime) {
        // Planned transfers advance after the FT director's stall detector.
        let migrations = &mut self.report.migrations;
        transfer::advance(c, now, true, |_, row| migrations.push(row));
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
                migrations_in_flight: c.transfers.values().filter(|t| t.planned()).count(),
            }
        };
        for cmd in self.director.tick(&telemetry) {
            let p = cmd.partition;
            if p >= n
                || cmd.to_host >= n
                || cmd.to_host == c.host(p)
                || c.transfers.contains_key(&p)
            {
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
            // Never absent: the FT director's install seeded one.
            let Some(warm) = sh.ft.as_ref().and_then(FtState::latest_ckpt) else {
                continue;
            };
            drop(sh);
            transfer::begin_planned(c, p, cmd.to_host, warm, now);
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
