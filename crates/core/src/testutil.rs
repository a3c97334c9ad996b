//! Helpers shared by the crate's unit tests.

use std::rc::Rc;

use slash_desim::SimTime;

use crate::agg::AggSpec;
use crate::chaos::{ChaosConfig, FaultPlan, FtConfig};
use crate::cluster::RunConfig;
use crate::query::{QueryPlan, StreamDef};
use crate::record::RecordSchema;
use crate::window::WindowAssigner;

/// `n` 16-byte records of (ts, key): ts increments by `dt` from 0, keys
/// round-robin over `keys`.
pub(crate) fn gen(n: u64, dt: u64, keys: u64) -> Rc<Vec<u8>> {
    let mut buf = Vec::with_capacity((n * 16) as usize);
    for i in 0..n {
        buf.extend_from_slice(&(i * dt).to_le_bytes());
        buf.extend_from_slice(&(i % keys).to_le_bytes());
    }
    Rc::new(buf)
}

/// Tumbling-window count over [`gen`]'s records.
pub(crate) fn count_plan(window: u64) -> QueryPlan {
    QueryPlan::Aggregate {
        input: StreamDef::new(RecordSchema::plain(16)),
        window: WindowAssigner::Tumbling { size: window },
        agg: AggSpec::Count,
    }
}

/// `nodes` × 1 worker, collecting results, small epochs.
pub(crate) fn cfg(nodes: usize) -> RunConfig {
    let mut cfg = RunConfig::new(nodes, 1);
    cfg.collect_results = true;
    cfg.epoch_bytes = 16 * 1024;
    cfg
}

/// `plan` under tight recovery tunables (300 us detection, two copies).
pub(crate) fn chaos(plan: FaultPlan) -> ChaosConfig {
    ChaosConfig {
        plan,
        ft: FtConfig {
            detect_timeout: SimTime::from_micros(300),
            ckpt_max_chunk: 16 * 1024,
            ckpt_copies: 2,
        },
    }
}
