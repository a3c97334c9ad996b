#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! # slash-core — the Slash stateful executor (paper §4–§5)
//!
//! The engine that ties the substrates together: queries are fused operator
//! pipelines applied eagerly to whatever data flows arrive at a node —
//! **no re-partitioning** — with window state routed into the distributed
//! SSB and merged lazily by the epoch protocol. Each simulated worker
//! thread interleaves RDMA work (pumping delta channels) with compute
//! (processing record batches), which is the cooperative coroutine
//! scheduling of §5.3 expressed as one `slash-desim` process per thread.
//!
//! Performance is *simulated but structural*: workers charge per-record CPU
//! costs from a documented [`cost::CostModel`], state accesses charge cache
//! misses from a working-set model, and every node's workers share a
//! memory-bandwidth link — so the bottlenecks the paper measures (Slash
//! memory-bound, partitioning CPU-bound, skew shrinking the working set)
//! emerge from the same causes rather than being painted on.

pub mod agg;
pub mod chaos;
pub mod cluster;
pub mod cost;
pub mod driver;
pub mod elastic;
pub mod hotpath;
pub mod join;
pub mod metrics;
pub mod query;
pub mod record;
pub mod recovery;
pub mod sink;
pub mod source;
pub mod split;
#[cfg(test)]
mod testutil;
pub mod window;
pub mod worker;

pub use agg::AggSpec;
pub use cluster::{
    boot_node, publish_node_counters, spawn_node_workers, RunConfig, RunReport, SlashCluster,
};
pub use cost::{CacheModel, CostModel, TESTBED_CLOCK_GHZ};
#[doc(hidden)]
pub use driver::Plant;
pub use driver::{ClusterBuilder, Outcome};
pub use elastic::{
    ClusterTelemetry, ControllerConfig, Decision, ElasticConfig, MigrationCmd, MigrationEvent,
    RescaleReport, ScaleController, ScaleDirector, ScriptedDirector, StaticDirector,
};
pub use hotpath::{BatchOutcome, HotPath};
pub use metrics::{CostCategory, EngineMetrics};
pub use query::{JoinSide, Predicate, QueryPlan, StreamDef};
pub use record::RecordSchema;
pub use recovery::{RecoveryAction, RecoveryEvent, RecoveryReport};
pub use sink::{results_digest, Sink, SinkResult};
pub use source::MemorySource;
pub use split::{
    ForwardFabric, HeatPolicy, HeatSplitDirector, SplitDirector, SplitReport, SplitRunConfig,
    SplitTelemetry, StaticSplitDirector,
};
pub use window::{WindowAssigner, WindowMemo};
pub use worker::{NodeShared, SlashWorker};
