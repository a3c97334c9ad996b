//! Run configuration and report, the per-node boot and worker spawn, and
//! the director-less [`SlashCluster::run`] shorthand. The bootstrap and
//! the drive loop themselves live in [`crate::driver`].

use std::cell::RefCell;
use std::rc::Rc;

use slash_desim::{Sim, SimTime};
use slash_net::{ChannelConfig, Violations};
use slash_obs::Obs;
use slash_rdma::{Fabric, FabricConfig};
use slash_state::backend::{SsbConfig, SsbNode};

use crate::cost::CostModel;
use crate::metrics::EngineMetrics;
use crate::query::QueryPlan;
use crate::sink::SinkResult;
use crate::source::MemorySource;
use crate::worker::{NodeShared, SlashWorker};

/// Cluster/run configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Executor nodes.
    pub nodes: usize,
    /// Worker threads per node (the paper uses 10).
    pub workers_per_node: usize,
    /// Cost model.
    pub cost: CostModel,
    /// Fabric (NIC) configuration.
    pub fabric: FabricConfig,
    /// Delta-channel configuration.
    pub channel: ChannelConfig,
    /// Epoch size in state-update bytes (paper default: 64 MiB).
    pub epoch_bytes: u64,
    /// Records per scheduling batch.
    pub batch_records: usize,
    /// Write-combining pre-aggregation for exact CRDTs. Results are
    /// identical either way (the combiner only activates for
    /// exactly-associative states; the exactness matrix runs both); off
    /// reproduces the per-record path.
    pub combine: bool,
    /// Write-combiner capacity in slots (rounded up to a power of two;
    /// 1024 × 8-byte values stays comfortably L1-resident).
    pub combiner_slots: usize,
    /// Retain full results (tests) or just count them (benchmarks).
    pub collect_results: bool,
    /// Per-source arrival-rate curve (records/second of virtual time).
    /// `None` streams the pre-generated dataset at full speed; `Some`
    /// releases records over virtual time — the load model behind the
    /// elastic-rescaling scenarios. Applies to every worker's source,
    /// including respawns after promotion or handoff.
    pub pacing: Option<crate::source::RateCurve>,
    /// Safety valve: abort if virtual time exceeds this.
    pub max_virtual_time: SimTime,
}

impl RunConfig {
    /// Sensible defaults for `nodes × workers` executors.
    pub fn new(nodes: usize, workers_per_node: usize) -> Self {
        RunConfig {
            nodes,
            workers_per_node,
            cost: CostModel::default(),
            fabric: FabricConfig::default(),
            channel: ChannelConfig::default(),
            epoch_bytes: 64 * 1024 * 1024,
            batch_records: 512,
            combine: true,
            combiner_slots: 1024,
            collect_results: false,
            pacing: None,
            max_virtual_time: SimTime::from_secs(3600),
        }
    }

    /// The SSB-layer slice of this configuration.
    pub fn ssb_config(&self) -> SsbConfig {
        SsbConfig {
            nodes: self.nodes,
            epoch_bytes: self.epoch_bytes,
            channel: self.channel,
        }
    }
}

/// Outcome of one end-to-end run.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Source records processed across the cluster.
    pub records: u64,
    /// Virtual time at which the last node finished ingesting.
    pub processing_time: SimTime,
    /// Virtual time at which everything (merge + trigger) completed.
    pub completion_time: SimTime,
    /// Results emitted.
    pub emitted: u64,
    /// Join pairs across all results.
    pub total_pairs: u64,
    /// Collected results (when configured).
    pub results: Vec<SinkResult>,
    /// Aggregated engine counters (the processing role's, on engines that
    /// split partitioning from processing).
    pub metrics: EngineMetrics,
    /// Counters of the partitioning role: the sender threads of the
    /// partitioned baselines (UpPar, Flink). Empty for Slash and
    /// LightSaber, which do not re-partition.
    pub partitioner: EngineMetrics,
    /// Per-node engine counters.
    pub per_node: Vec<EngineMetrics>,
    /// Per-node primary-partition state digests (order-independent fold
    /// over sorted keys) — lets tests compare end state across runs
    /// without draining it.
    pub state_digests: Vec<u64>,
    /// Bytes the fabric moved (all nodes, TX side).
    pub net_tx_bytes: u64,
    /// Protocol violations the shipped checks counted, by kind (zero in a
    /// correct run; `slash_verify::oracle::check` requires it).
    pub protocol_violations: Violations,
}

impl RunReport {
    /// Sustained processing throughput, records/second of virtual time.
    pub fn throughput(&self) -> f64 {
        if self.processing_time == SimTime::ZERO {
            return 0.0;
        }
        self.records as f64 / self.processing_time.as_secs_f64()
    }

    /// Fold one node's final shared state into the report.
    pub fn absorb_node(&mut self, sh: &NodeShared) {
        self.records += sh.records;
        self.processing_time = self.processing_time.max(sh.last_ingest);
        self.emitted += sh.sink.emitted;
        self.total_pairs += sh.sink.total_pairs;
        self.results.extend(sh.sink.results.iter().cloned());
        self.metrics.absorb(&sh.metrics);
        self.per_node.push(sh.metrics.clone());
        self.state_digests.push(sh.ssb.state_digest());
        self.protocol_violations.absorb(&sh.ssb.violations());
        self.metrics.set_records(self.records);
    }

    /// Append `other`'s nodes after this report's: counts add, times take
    /// the maximum (the threaded backend's nodes each run their own clock).
    pub fn merge(&mut self, other: RunReport) {
        self.records += other.records;
        self.processing_time = self.processing_time.max(other.processing_time);
        self.completion_time = self.completion_time.max(other.completion_time);
        self.emitted += other.emitted;
        self.total_pairs += other.total_pairs;
        self.results.extend(other.results);
        self.metrics.absorb(&other.metrics);
        self.per_node.extend(other.per_node);
        self.state_digests.extend(other.state_digests);
        self.net_tx_bytes += other.net_tx_bytes;
        self.protocol_violations.absorb(&other.protocol_violations);
        self.metrics.set_records(self.records);
    }
}

/// The Slash virtual cluster.
pub struct SlashCluster;

impl SlashCluster {
    /// Run `plan` over pre-generated input partitions (one per worker,
    /// node-major order: `partitions[node * workers + worker]`).
    pub fn run(plan: QueryPlan, partitions: Vec<Rc<Vec<u8>>>, cfg: RunConfig) -> RunReport {
        Self::run_with_obs(plan, partitions, cfg, Obs::disabled())
    }

    /// Like [`SlashCluster::run`], threading an observability handle
    /// through every node: workers emit batch spans and record-latency
    /// samples, delta channels trace verbs and epoch phases, and the final
    /// per-node counters are published into the metrics registry.
    ///
    /// This is the director-less shorthand for
    /// [`SlashCluster::builder`]`(..).obs(obs).run().run`.
    pub fn run_with_obs(
        plan: QueryPlan,
        partitions: Vec<Rc<Vec<u8>>>,
        cfg: RunConfig,
        obs: Obs,
    ) -> RunReport {
        Self::builder(plan, partitions, cfg).obs(obs).run().run
    }
}

/// Boot one node's shared state around its SSB instance: counters on the
/// run's clock, instrumented when `obs` is enabled. The one per-node boot
/// — the cluster bootstrap, promotion, and the threaded executor
/// (`slash-exec`) all build their nodes here.
pub fn boot_node(ssb: SsbNode, node: usize, cfg: &RunConfig, obs: &Obs) -> NodeShared {
    let mut sh = NodeShared::new(
        ssb,
        cfg.workers_per_node,
        cfg.cost.mem_bandwidth,
        cfg.collect_results,
    );
    sh.metrics.set_clock_ghz(cfg.cost.clock_ghz);
    if obs.is_enabled() {
        sh.instrument(obs.clone(), node);
    }
    sh
}

/// Spawn (or respawn) every worker of `node` against `parts`, the node's
/// *own* partitions (one per worker). A promoted node resurrects all of
/// its workers through this one path, with `resume_pos` seeking each
/// worker's source to its checkpointed byte position (fresh starts pass
/// `None`). The threaded backend calls it once per node against that
/// node's private `Sim`, so the exact same worker code runs under both
/// schedulers.
pub fn spawn_node_workers(
    sim: &mut Sim,
    node: usize,
    shared: &Rc<RefCell<NodeShared>>,
    parts: &[Rc<Vec<u8>>],
    plan: &Rc<QueryPlan>,
    cfg: &RunConfig,
    resume_pos: Option<&[usize]>,
) {
    assert_eq!(
        parts.len(),
        cfg.workers_per_node,
        "one partition per worker"
    );
    let schema = plan.input().schema;
    for (w, part) in parts.iter().enumerate() {
        let mut source = MemorySource::new(Rc::clone(part), schema, cfg.batch_records);
        if let Some(curve) = cfg.pacing {
            source.set_pacing(curve);
        }
        if let Some(pos) = resume_pos {
            source.seek(pos[w]);
        }
        sim.spawn(SlashWorker::new(
            node,
            w,
            Rc::clone(shared),
            source,
            Rc::clone(plan),
            cfg,
        ));
    }
}

/// Publish one node's final counters into the metrics registry (no-op
/// when `obs` is disabled). Shared by the simulator's report and the
/// threaded executor's per-node reports.
pub fn publish_node_counters(obs: &Obs, node: usize, sh: &NodeShared) {
    if !obs.is_enabled() {
        return;
    }
    let label = format!("node{node}");
    obs.counter_add("records", &label, sh.records);
    obs.counter_add("instructions", &label, sh.metrics.instructions);
    obs.counter_add("mem_bytes", &label, sh.metrics.mem_bytes);
    obs.counter_add("combiner_folds", &label, sh.metrics.combiner_folds);
    obs.counter_add("combiner_flushes", &label, sh.metrics.combiner_flushes);
    obs.counter_add("combiner_off", &label, sh.metrics.combiner_off);
    obs.counter_add("state_updates", &label, sh.metrics.state_updates);
    obs.gauge_set("ipc", &label, sh.metrics.ipc());
    sh.ssb.publish_obs();
}

/// Assemble a [`RunReport`] from the per-node shared state.
pub(crate) fn assemble_report(
    shareds: &[Rc<RefCell<NodeShared>>],
    fabric: &Fabric,
    obs: &Obs,
    completion_time: SimTime,
) -> RunReport {
    let mut report = RunReport {
        completion_time,
        net_tx_bytes: fabric.total_tx_bytes(),
        ..RunReport::default()
    };
    for (node, shared) in shareds.iter().enumerate() {
        let sh = shared.borrow();
        report.absorb_node(&sh);
        publish_node_counters(obs, node, &sh);
    }
    if obs.is_enabled() {
        obs.counter_add("net_tx_bytes", "fabric", report.net_tx_bytes);
    }
    // No cluster-level plant counts a violation, so a debug-build run of
    // any test, example or bench fails here even when it never reads the
    // count; release builds leave the verdict to `oracle::check`.
    let counted = &report.protocol_violations;
    debug_assert_eq!(counted.total(), 0, "protocol violations: {counted}");
    report
}
