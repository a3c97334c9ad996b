//! Deterministic fault injection.
//!
//! The paper's epoch-aligned coherence protocol (§7) is the natural hook
//! for fault tolerance: state is replicated as epoch-delta streams, and
//! snapshots align with epoch boundaries. This module supplies the *faults*
//! that recovery machinery is tested against — entirely deterministically.
//!
//! A [`FaultPlan`] is a schedule of fault events on virtual [`SimTime`]:
//! node crashes, NIC link flaps, link degradation, and delayed
//! completions. Plans are built explicitly with the builder methods or
//! generated from a [`slash_desim::DetRng`] seed ([`FaultPlan::seeded`]); either way the
//! plan is pure data, so two runs with the same seed and the same plan
//! execute byte-identically.
//!
//! [`Injector::arm`] schedules the fabric-level side of every event on the
//! simulator (via the `slash-rdma` fault hooks) and emits `Cat::Fault`
//! trace events so a Perfetto trace shows each outage window. Process-level
//! consequences (stopping a crashed node's workers, running recovery) are
//! the fault-tolerance director's job, behind
//! [`ClusterBuilder::chaos`](crate::ClusterBuilder::chaos).

mod inject;
mod plan;

pub use inject::Injector;
pub use plan::{FaultEvent, FaultKind, FaultPlan};

use slash_desim::SimTime;

/// Tunables of the recovery machinery an engine layers over a fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FtConfig {
    /// How long a node's progress token may stall (as seen by its peers)
    /// before the driver diagnoses the node. Bounds detection latency,
    /// and with it time-to-recover.
    pub detect_timeout: SimTime,
    /// Chunk size for checkpoint snapshots (delta-format chunks).
    pub ckpt_max_chunk: usize,
    /// Durable checkpoint copies to maintain per node, each on a distinct
    /// buddy port where the cluster allows it. Recovery survives the loss
    /// of all but one copy holder at a given boundary; losing every real
    /// copy falls back to the epoch-0 seed copy (re-read the source from
    /// scratch), which is always valid.
    pub ckpt_copies: usize,
}

impl Default for FtConfig {
    fn default() -> Self {
        FtConfig {
            detect_timeout: SimTime::from_millis(5),
            ckpt_max_chunk: 32 * 1024,
            ckpt_copies: 2,
        }
    }
}

/// A fault plan plus the recovery tunables to run it against.
#[derive(Debug, Clone, Default)]
pub struct ChaosConfig {
    /// The faults to inject (empty = fault-tolerant no-fault baseline).
    pub plan: FaultPlan,
    /// Recovery tunables.
    pub ft: FtConfig,
}
