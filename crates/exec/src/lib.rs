#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! # slash-exec — scheduler backends for the Slash engine
//!
//! The engine's operator, channel, SSB, and hot-path code is written
//! against cooperative worker steps ([`slash_core::SlashWorker`]) and
//! makes no assumption about *who* drives those steps. This crate makes
//! the driver pluggable behind one [`Scheduler`] trait with two
//! implementations:
//!
//! * [`SimBackend`] — the existing deterministic discrete-event
//!   simulator. One OS thread, one global virtual clock, bit-identical
//!   replay. Everything the verification stack leans on (slash-race,
//!   golden traces, chaos, exhaustive exploration) runs here, unchanged.
//! * [`ThreadBackend`] — a shared-nothing thread-per-core runtime: each
//!   node's worker loop, SSB instance, delta channels, and observability
//!   handle live on one OS thread with a *private* simulator for that
//!   node's virtual-time bookkeeping. Cross-node delta traffic rides
//!   bounded SPSC queues ([`slash_net::spsc`]) that keep the per-channel
//!   FIFO order the RC fence in `rdma/qp.rs` guarantees on the simulated
//!   wire.
//!
//! ## What the threaded backend does and does not promise
//!
//! Final state is backend-independent: CRDT delta merges commute,
//! epochs carry per-channel sequence ids, and window triggers fire on
//! watermarks — so for a given seed and workload, both backends converge
//! to **bit-identical state digests and result multisets** (the
//! exactness matrix, `tests/exactness/mod.rs`, pins this). *Timing* is not shared: the threaded backend's
//! virtual clocks advance per node, its schedules depend on OS thread
//! interleaving, and its spans/flight-recorder output is per-node. Use
//! the simulator for replay and race checking; use threads for wall-clock
//! throughput on real cores.

pub mod threaded;

use std::rc::Rc;
use std::sync::Arc;

use slash_core::{QueryPlan, RunConfig, RunReport, SlashCluster};
use slash_obs::Obs;

pub use threaded::ThreadBackend;

/// Builds one fresh [`QueryPlan`] per call. Plans hold non-[`Send`]
/// filter closures (`Rc<dyn Fn..>`), so the threaded backend cannot ship
/// one plan across threads; instead every node thread materializes its
/// own identical copy through this factory. The factory must be pure:
/// two calls must yield plans with identical semantics, or the backends
/// (and the node threads among themselves) would compute different
/// queries.
pub type PlanFactory = Arc<dyn Fn() -> QueryPlan + Send + Sync>;

/// One schedulable query run: the plan, the pre-generated input, and the
/// cluster configuration. Partitions are owned byte buffers in node-major
/// order (`partitions[node * workers_per_node + worker]`), exactly as
/// [`slash_core::SlashCluster::run`] expects them — owned rather than
/// `Rc` so the threaded backend can move each node's inputs into its
/// thread.
pub struct JobSpec {
    /// Plan factory; see [`PlanFactory`] for the purity contract.
    pub plan: PlanFactory,
    /// One input partition per worker, node-major.
    pub partitions: Vec<Vec<u8>>,
    /// Cluster/run configuration.
    pub cfg: RunConfig,
}

impl JobSpec {
    /// Build a spec from a closure producing the plan.
    pub fn new(
        plan: impl Fn() -> QueryPlan + Send + Sync + 'static,
        partitions: Vec<Vec<u8>>,
        cfg: RunConfig,
    ) -> Self {
        JobSpec {
            plan: Arc::new(plan),
            partitions,
            cfg,
        }
    }
}

/// A query-run driver. Both backends accept the same [`JobSpec`] and
/// produce the same [`RunReport`] shape; the exactness matrix holds
/// them to identical state digests and the sequential oracle's results.
pub trait Scheduler {
    /// Run the job with an observability handle. The threaded backend
    /// gives each node thread a private handle and merges the metric
    /// registries into `obs` when the run completes (per-thread record
    /// paths take no locks); trace rings are per-node and not merged.
    fn run_with_obs(&self, spec: JobSpec, obs: Obs) -> RunReport;

    /// Run the job without observability.
    fn run(&self, spec: JobSpec) -> RunReport {
        self.run_with_obs(spec, Obs::disabled())
    }
}

/// The deterministic discrete-event backend: delegates to
/// [`SlashCluster`], which this crate treats as the reference semantics.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimBackend;

impl Scheduler for SimBackend {
    fn run_with_obs(&self, spec: JobSpec, obs: Obs) -> RunReport {
        let partitions = spec.partitions.into_iter().map(Rc::new).collect();
        SlashCluster::run_with_obs((spec.plan)(), partitions, spec.cfg, obs)
    }
}

/// Order-independent digest of a result multiset, for cross-backend
/// comparison: the single implementation lives in `slash-core`.
pub use slash_core::results_digest as results_fingerprint;

#[cfg(test)]
mod tests {
    use super::*;
    use slash_core::{AggSpec, RecordSchema, StreamDef, WindowAssigner};

    fn count_plan(window: u64) -> QueryPlan {
        QueryPlan::Aggregate {
            input: StreamDef::new(RecordSchema::plain(16)),
            window: WindowAssigner::Tumbling { size: window },
            agg: AggSpec::Count,
        }
    }

    fn gen(n: u64, dt: u64, keys: u64) -> Vec<u8> {
        let mut buf = Vec::with_capacity((n * 16) as usize);
        for i in 0..n {
            buf.extend_from_slice(&(i * dt).to_le_bytes());
            buf.extend_from_slice(&(i % keys).to_le_bytes());
        }
        buf
    }

    #[test]
    fn sim_backend_matches_direct_cluster_run() {
        let mut cfg = RunConfig::new(2, 2);
        cfg.collect_results = true;
        cfg.epoch_bytes = 4096;
        let parts: Vec<Vec<u8>> = (0..4).map(|_| gen(300, 3, 16)).collect();
        let via_trait = SimBackend.run(JobSpec::new(
            || count_plan(100),
            parts.clone(),
            cfg,
        ));
        let direct = SlashCluster::run(
            count_plan(100),
            parts.into_iter().map(Rc::new).collect(),
            cfg,
        );
        assert_eq!(via_trait.records, direct.records);
        assert_eq!(via_trait.emitted, direct.emitted);
        assert_eq!(via_trait.state_digests, direct.state_digests);
        assert_eq!(
            results_fingerprint(&via_trait.results),
            results_fingerprint(&direct.results)
        );
    }
}
