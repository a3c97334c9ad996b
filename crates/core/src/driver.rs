//! The one cluster driver: a `Cluster` context, one bootstrap, one
//! drive-until-finished loop, and the `Director` hooks that fault
//! tolerance ([`crate::recovery`]), planned handoff ([`crate::elastic`])
//! and hot-key splitting ([`crate::split`]) plug into it.
//!
//! The paper has one executor shape per node (§5); everything else is a
//! service riding on it. A run is therefore always the same three steps —
//! `Cluster::boot`, install the directors, [`drive`] — and the fault-free
//! run is simply the one with no directors. The loop is public: the
//! partitioned baselines and the Fig. 8–10 harness drive their own
//! simulators through it ([`Driven`]).
//!
//! Two rules are stated here once for every feature:
//!
//! * **Slice.** The loop advances virtual time in slices and ticks the
//!   directors after each: [`SLICE`] with no director asking for less,
//!   else the smallest period a director requests (fault tolerance asks
//!   for a quarter of its detection timeout). `completion_time` is
//!   quantized to the slice.
//! * **Crash victims.** A `NodeCrash` kills every partition the dying
//!   port hosts *at the fault instant*, resolved from the live host map —
//!   including partitions an earlier promotion or handoff re-homed onto
//!   it (`Live::kill_port`). The per-slice dead-port sweep remains for
//!   ports that die by any other route.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use slash_desim::{Link, Sim, SimTime};
use slash_obs::{Cat, Obs};
use slash_rdma::{Fabric, NodeId};
use slash_state::backend::build_cluster_obs;

use crate::chaos::ChaosConfig;
use crate::cluster::{
    assemble_report, boot_node, spawn_node_workers, RunConfig, RunReport, SlashCluster,
};
use crate::elastic::{ElasticConfig, RescaleDirector, RescaleReport, ScaleDirector};
use crate::query::QueryPlan;
use crate::recovery::{FtDirector, RecoveryReport};
use crate::split::{HotSplitDirector, SplitReport, SplitRunConfig};
use crate::transfer::Transfer;
use crate::worker::NodeShared;

/// The live placement. Behind one shared cell because fault closures
/// armed on the simulator resolve crash victims from it at the fault
/// instant, and a promotion or handoff commit *replaces* a node's cell.
pub(crate) struct Live {
    /// `host[p]` = index of the fabric port hosting partition `p`'s
    /// leader (identity until a promotion or handoff relocates one).
    pub(crate) host: Vec<usize>,
    /// Per-partition node state.
    pub(crate) nodes: Vec<Rc<RefCell<NodeShared>>>,
}

impl Live {
    /// Port `port` died: every partition it currently hosts dies with it.
    /// Workers observe the flag at their next step.
    pub(crate) fn kill_port(&self, port: usize) {
        for (p, &h) in self.host.iter().enumerate() {
            if h == port {
                self.nodes[p].borrow_mut().crashed = true;
            }
        }
    }

    /// Distinct hosts currently owning at least one partition.
    pub(crate) fn hosts_in_use(&self) -> usize {
        let mut seen = vec![false; self.host.len()];
        self.host
            .iter()
            .filter(|&&h| !std::mem::replace(&mut seen[h], true))
            .count()
    }
}

/// Everything a run is made of. Directors receive it whole instead of a
/// hand-threaded parameter list.
pub(crate) struct Cluster {
    pub(crate) sim: Sim,
    pub(crate) fabric: Fabric,
    /// One provisioned fabric port per potential host.
    pub(crate) ports: Vec<NodeId>,
    pub(crate) live: Rc<RefCell<Live>>,
    pub(crate) plan: Rc<QueryPlan>,
    /// Input partitions, node-major (`node * workers_per_node + worker`).
    pub(crate) partitions: Vec<Rc<Vec<u8>>>,
    pub(crate) cfg: RunConfig,
    pub(crate) obs: Obs,
    /// Ownership transfers in flight, by partition (at most one each):
    /// the stall detector and the migration planner leave a partition
    /// with one alone.
    pub(crate) transfers: BTreeMap<usize, Transfer>,
    /// When partition `p` last showed progress or was (re)installed — the
    /// stall detector's timer base.
    pub(crate) progress_at: Vec<SimTime>,
    /// One memory-bandwidth link per *host* when partitions may share
    /// hosts (elastic runs); `None` leaves every node its private link.
    pub(crate) host_mem: Option<Vec<Rc<RefCell<Link>>>>,
    /// Bug planted by the verifier ([`ClusterBuilder::fault_plant`]).
    pub(crate) plant: Option<Plant>,
}

/// A protocol bug the verifier can plant inside the shipped transfer
/// machine, to prove its checks fire on it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plant {
    /// The transfer commit rejoins from a checkpoint that claims to hold
    /// one more epoch of each survivor than it does, so every replay
    /// starts one retained epoch late (`core/transfer.rs`).
    SkipReplay,
    /// The handoff cutover captures its checkpoint without closing the
    /// cutover epoch, so the "boundary" lies mid-epoch and the open
    /// fragment is lost (`core/transfer.rs`).
    SkipCutoverClose,
}

impl Cluster {
    /// The one bootstrap, on the caller's simulator: fabric → SSB mesh →
    /// per-node boot → workers, spawned in node order. `hosts` packs
    /// partitions onto ports (`None` = one port each).
    fn boot(
        mut sim: Sim,
        plan: QueryPlan,
        partitions: Vec<Rc<Vec<u8>>>,
        cfg: RunConfig,
        obs: Obs,
        hosts: Option<&[usize]>,
    ) -> Cluster {
        let n = cfg.nodes;
        let w = cfg.workers_per_node;
        assert_eq!(partitions.len(), n * w, "need one partition per worker");
        let fabric = Fabric::new(cfg.fabric);
        let ports = fabric.add_nodes(n);
        let host: Vec<usize> = hosts.map_or_else(|| (0..n).collect(), <[usize]>::to_vec);
        assert_eq!(host.len(), n, "one initial host per partition");
        assert!(
            host.iter().all(|&h| h < n),
            "hosts index the provisioned ports (0..nodes)"
        );
        let mapped: Vec<NodeId> = host.iter().map(|&h| ports[h]).collect();
        let ssb_nodes = build_cluster_obs(
            &fabric,
            &mapped,
            plan.descriptor(),
            cfg.ssb_config(),
            obs.clone(),
        );
        let plan = Rc::new(plan);
        let mut nodes = Vec::with_capacity(n);
        for (node, ssb) in ssb_nodes.into_iter().enumerate() {
            let shared = Rc::new(RefCell::new(boot_node(ssb, node, &cfg, &obs)));
            let parts = &partitions[node * w..(node + 1) * w];
            spawn_node_workers(&mut sim, node, &shared, parts, &plan, &cfg, None);
            nodes.push(shared);
        }
        Cluster {
            sim,
            fabric,
            ports,
            live: Rc::new(RefCell::new(Live { host, nodes })),
            plan,
            partitions,
            cfg,
            obs,
            transfers: BTreeMap::new(),
            progress_at: vec![SimTime::ZERO; n],
            host_mem: None,
            plant: None,
        }
    }

    /// Partition `p`'s node cell.
    pub(crate) fn node(&self, p: usize) -> Rc<RefCell<NodeShared>> {
        Rc::clone(&self.live.borrow().nodes[p])
    }

    /// Index of the port hosting partition `p`.
    pub(crate) fn host(&self, p: usize) -> usize {
        self.live.borrow().host[p]
    }

    /// Whether the port hosting partition `p` still answers.
    pub(crate) fn port_alive(&self, p: usize) -> bool {
        self.fabric.node_alive(self.ports[self.host(p)])
    }

    /// Wire transfer time of `bytes` over one NIC.
    pub(crate) fn transfer_time(&self, bytes: u64) -> SimTime {
        let nic = &self.cfg.fabric.nic;
        nic.latency
            + SimTime::from_nanos(bytes.saturating_mul(1_000_000_000) / nic.bandwidth.max(1))
    }

    /// Publish partition `p`'s placement gauges: its owner host and the
    /// phase of any migration in flight (0 = none).
    pub(crate) fn publish_owner(&self, p: usize, phase: u64) {
        if self.obs.is_enabled() {
            let label = format!("part={p}");
            self.obs
                .gauge_set("partition_owner", &label, self.host(p) as f64);
            self.obs.gauge_set("migration_phase", &label, phase as f64);
        }
    }

    /// On clusters with per-host memory links (elastic runs), point
    /// partition `p` at its current host's link — co-located partitions
    /// share it — and publish its owner gauges. Elsewhere nodes keep their
    /// private link and publish nothing.
    pub(crate) fn rehome(&self, p: usize) {
        if let Some(links) = &self.host_mem {
            self.node(p).borrow_mut().mem = Rc::clone(&links[self.host(p)]);
            self.publish_owner(p, 0);
        }
    }

    /// Trace a driver-side fault-category instant on partition `p`'s lane
    /// at the current virtual time.
    pub(crate) fn fault_event(
        &self,
        tid: u32,
        name: &'static str,
        p: usize,
        args: &[(&'static str, u64)],
    ) {
        self.obs
            .instant(Cat::Fault, name, p as u32, tid, self.sim.now(), args);
    }
}

/// The slice the drive loop advances virtual time by when nothing asks
/// for less.
pub const SLICE: SimTime = SimTime::from_millis(10);

/// A simulated run the drive loop can advance: Slash's cluster with its
/// directors, the partitioned baselines (`slash-baselines`) and the
/// Fig. 8–10 channel harness (`slash-bench`).
pub trait Driven {
    /// The run's simulator.
    fn sim(&mut self) -> &mut Sim;

    /// Whether the run has completed; checked before every slice.
    fn finished(&self) -> bool;

    /// Whether work is pending outside the event queue that needs only
    /// virtual time to pass (suppresses the empty-queue deadlock guard).
    fn outstanding(&self) -> bool {
        false
    }

    /// Called after every slice.
    fn tick(&mut self) {}
}

/// The one drive loop: until `run` has finished, advance its simulator
/// by `slice` and tick it. Panics once virtual time passes `budget`
/// (livelock) or when the event queue empties with nothing outstanding
/// (deadlock). Returns the exit time, quantized to the slice.
pub fn drive(run: &mut impl Driven, slice: SimTime, budget: SimTime) -> SimTime {
    loop {
        if run.finished() {
            break;
        }
        let now = run.sim().now();
        assert!(
            now <= budget,
            "query did not complete within the virtual-time budget \
             (possible protocol livelock)"
        );
        assert!(
            run.sim().pending_events() > 0 || run.outstanding(),
            "simulation quiesced before the query completed (deadlock)"
        );
        run.sim().run_until(now + slice);
        run.tick();
    }
    run.sim().now()
}

/// A cluster and its directors, as the drive loop sees them.
struct Directed<'a, 'd> {
    c: &'a mut Cluster,
    directors: &'a mut [Box<dyn Director + 'd>],
}

impl Driven for Directed<'_, '_> {
    fn sim(&mut self) -> &mut Sim {
        &mut self.c.sim
    }

    fn finished(&self) -> bool {
        let live = self.c.live.borrow();
        live.nodes.iter().all(|s| s.borrow().finished)
    }

    /// A transfer in flight (or a dead partition awaiting detection)
    /// needs only virtual time, which `run_until` advances even on an
    /// empty event queue.
    fn outstanding(&self) -> bool {
        !self.c.transfers.is_empty() || self.directors.iter().any(|d| d.outstanding(self.c))
    }

    /// Directors tick in registration order.
    fn tick(&mut self) {
        let now = self.c.sim.now();
        for d in self.directors.iter_mut() {
            d.tick(self.c, now);
        }
    }
}

/// A service riding on the cluster driver. All hooks but
/// [`Director::install`] default to "nothing to do".
pub(crate) trait Director {
    /// Called once after boot and before the first event fires: configure
    /// node state, arm timers, spawn processes. Workers are already
    /// spawned (in node order) but have not stepped, so whatever this
    /// schedules orders after them at equal instants.
    fn install(&mut self, c: &mut Cluster);

    /// Slice period this director needs (`None` = no preference).
    fn slice(&self) -> Option<SimTime> {
        None
    }

    /// Called after every slice, in registration order.
    fn tick(&mut self, _c: &mut Cluster, _now: SimTime) {}

    /// Whether driver-side work is pending that needs only virtual time
    /// to pass (suppresses the empty-queue deadlock guard).
    fn outstanding(&self, _c: &Cluster) -> bool {
        false
    }

    /// Fold this director's results into the run outcome.
    fn report(&mut self, c: &Cluster, out: &mut Outcome);
}

/// Everything a run produced. Reports of directors that were not
/// installed stay at their defaults.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The engine-level report.
    pub run: RunReport,
    /// Crash repairs and checkpoints (fault tolerance).
    pub recovery: RecoveryReport,
    /// Migrations with per-cutover stalls (planned handoff).
    pub rescale: RescaleReport,
    /// Splits and forwarded volume (hot-key splitting).
    pub split: SplitReport,
}

/// Configures one run: the plan, input and [`RunConfig`] plus whichever
/// services should ride along. Obtain one from [`SlashCluster::builder`].
pub struct ClusterBuilder<'a> {
    plan: QueryPlan,
    partitions: Vec<Rc<Vec<u8>>>,
    cfg: RunConfig,
    obs: Obs,
    chaos: Option<&'a ChaosConfig>,
    elastic: Option<(&'a ElasticConfig, &'a mut dyn ScaleDirector)>,
    split: Option<&'a SplitRunConfig>,
    plant: Option<Plant>,
}

impl SlashCluster {
    /// Start configuring a run of `plan` over pre-generated input
    /// partitions (one per worker, node-major). With nothing else set,
    /// [`ClusterBuilder::run`] is the fault-free [`SlashCluster::run`].
    pub fn builder<'a>(
        plan: QueryPlan,
        partitions: Vec<Rc<Vec<u8>>>,
        cfg: RunConfig,
    ) -> ClusterBuilder<'a> {
        ClusterBuilder {
            plan,
            partitions,
            cfg,
            obs: Obs::disabled(),
            chaos: None,
            elastic: None,
            split: None,
            plant: None,
        }
    }
}

impl<'a> ClusterBuilder<'a> {
    /// Thread an observability handle through every node and director.
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Fault tolerance under a deterministic fault plan: epoch-boundary
    /// checkpoints shipped to buddy nodes, durability-gated delta
    /// commits, stall detection, and epoch-aligned recovery (promotion or
    /// channel reset + replay) — see [`crate::recovery`]. An empty plan is
    /// the fault-tolerant no-fault baseline: same checkpoint and gating
    /// overheads, no faults. Collected results are deduplicated by
    /// `(window, key)` in deterministic order.
    pub fn chaos(mut self, chaos: &'a ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Elastic placement: partitions start packed per
    /// [`ElasticConfig::initial_hosts`] and `director` migrates them
    /// between provisioned hosts mid-run via planned handoffs — see
    /// [`crate::elastic`]. Implies fault tolerance (handoffs commit
    /// through the promotion path); without [`Self::chaos`] the default
    /// [`ChaosConfig`] applies.
    pub fn elastic(mut self, ecfg: &'a ElasticConfig, director: &'a mut dyn ScaleDirector) -> Self {
        self.elastic = Some((ecfg, director));
        self
    }

    /// Hot-key splitting: every node carries a split ledger and a heat
    /// sketch; keys split up front ([`SplitRunConfig::pre_split`]) and/or
    /// online, optionally with record forwarding — see [`crate::split`].
    /// Tumbling windows only; forwarding additionally needs one worker per
    /// node and no fault tolerance.
    pub fn split(mut self, scfg: &'a SplitRunConfig) -> Self {
        self.split = Some(scfg);
        self
    }

    /// Plant a protocol bug in the transfer machine (mutation
    /// testing of the verifier; never set outside it).
    #[doc(hidden)]
    pub fn fault_plant(mut self, plant: Plant) -> Self {
        self.plant = Some(plant);
        self
    }

    /// Boot the cluster, install the configured directors, drive the run
    /// to completion and collect every report.
    pub fn run(self) -> Outcome {
        self.run_on(Sim::new()).0
    }

    /// [`Self::run`] on the caller's simulator, handed back afterwards:
    /// a choice schedule ([`Sim::with_schedule`]) then decides every
    /// same-instant order of the run, and its fingerprint and choice trace
    /// stay readable.
    pub fn run_on(self, sim: Sim) -> (Outcome, Sim) {
        let default_chaos = ChaosConfig::default();
        let chaos = self
            .chaos
            .or(self.elastic.is_some().then_some(&default_chaos));
        let scfg = self.split.cloned();
        assert!(
            !(chaos.is_some() && scfg.as_ref().is_some_and(|s| s.forward)),
            "record forwarding is for fault-free runs only"
        );
        let hosts = self.elastic.as_ref().map(|(e, _)| &e.initial_hosts[..]);
        let mut c = Cluster::boot(sim, self.plan, self.partitions, self.cfg, self.obs, hosts);
        c.plant = self.plant;

        // Registration order is tick order, and install order is the
        // order director-scheduled events take at equal instants.
        let mut directors: Vec<Box<dyn Director + '_>> = Vec::new();
        if let Some(scfg) = scfg {
            directors.push(Box::new(HotSplitDirector::new(scfg)));
        }
        if let Some(chaos) = chaos {
            directors.push(Box::new(FtDirector::new(chaos, c.cfg.nodes)));
        }
        if let Some((_, director)) = self.elastic {
            directors.push(Box::new(RescaleDirector::new(director)));
        }
        for d in &mut directors {
            d.install(&mut c);
        }
        let slice = directors.iter().filter_map(|d| d.slice()).min();
        let budget = c.cfg.max_virtual_time;
        let mut run = Directed {
            c: &mut c,
            directors: &mut directors,
        };
        let completion_time = drive(&mut run, slice.unwrap_or(SLICE), budget);

        let mut out = Outcome {
            run: assemble_report(&c.live.borrow().nodes, &c.fabric, &c.obs, completion_time),
            ..Outcome::default()
        };
        for d in &mut directors {
            d.report(&c, &mut out);
        }
        drop(directors);
        (out, c.sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::FaultPlan;
    use crate::testutil::{cfg, chaos, count_plan, gen};

    /// The crash-victim rule: a partition re-homed onto port `h` by an
    /// earlier promotion or handoff dies at the instant `h` dies — no
    /// director tick (dead-port sweep) has to run first.
    #[test]
    fn rehomed_partition_is_flagged_at_the_fault_instant() {
        let at = SimTime::from_micros(100);
        let faults = chaos(FaultPlan::new().crash(at, 1));
        let parts = (0..3).map(|_| gen(60_000, 1, 32)).collect();
        let mut c = Cluster::boot(
            Sim::new(),
            count_plan(4_000),
            parts,
            cfg(3),
            Obs::disabled(),
            None,
        );
        FtDirector::new(&faults, 3).install(&mut c);
        // As a committed promotion or handoff leaves it: partition 2 now
        // lives on port 1, next to partition 1.
        c.live.borrow_mut().host[2] = 1;

        let crashed = |c: &Cluster| -> Vec<bool> {
            let live = c.live.borrow();
            live.nodes.iter().map(|s| s.borrow().crashed).collect()
        };
        c.sim.run_until(at - SimTime::from_nanos(1));
        assert_eq!(crashed(&c), [false, false, false]);
        c.sim.run_until(at);
        assert!(!c.fabric.node_alive(c.ports[1]), "the port died");
        assert_eq!(crashed(&c), [false, true, true], "both tenants die with it");
    }
}
