//! Query plans — the public query model.
//!
//! Slash's evaluation queries all share one of two shapes (paper §5.2):
//! a pipeline of stateless stages (filter/projection) terminated by a
//! windowed **aggregation**, or by a windowed **join**. Joined streams are
//! delivered as one unified physical flow whose records carry a side tag
//! (the workload generators interleave the logical streams by timestamp,
//! matching the paper's pre-generated in-memory datasets).

use slash_state::descriptor::appended_descriptor;
use slash_state::StateDescriptor;

use crate::agg::AggSpec;
use crate::record::RecordSchema;
use crate::window::WindowAssigner;

/// Which logical stream a unified join record belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinSide {
    /// Build side (e.g. NEXMark auctions).
    Left,
    /// Probe side (e.g. NEXMark persons/sellers).
    Right,
}

/// A declarative filter over one physical record: keep the records whose
/// little-endian `u64` field at `off` equals `value` (YSB's event-type
/// filter). Declarative so the hot path can evaluate a whole batch into a
/// selection vector ([`Predicate::select`]) instead of branching per
/// record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Predicate {
    /// Byte offset of the compared field.
    off: usize,
    /// The constant the field must equal.
    value: u64,
}

impl Predicate {
    /// Keep records whose `u64` field at `off` equals `value`.
    pub const fn field_eq(off: usize, value: u64) -> Self {
        Predicate { off, value }
    }

    /// Scalar evaluation (true = keep).
    #[inline]
    pub fn eval(&self, schema: &RecordSchema, rec: &[u8]) -> bool {
        schema.field_u64(rec, self.off) == self.value
    }

    /// Evaluate the predicate over every record of `batch`, leaving the
    /// ascending indices of the records it keeps in `sel`. Branch-free:
    /// every record writes its index at the cursor and the cursor advances
    /// by the comparison's result, so a 1/3-selective filter costs no
    /// mispredicted branch per record.
    pub fn select(&self, schema: &RecordSchema, batch: &[u8], sel: &mut Vec<u32>) {
        sel.clear();
        sel.resize(batch.len() / schema.size, 0);
        let mut kept = 0;
        for (i, rec) in batch.chunks_exact(schema.size).enumerate() {
            sel[kept] = i as u32;
            kept += usize::from(self.eval(schema, rec));
        }
        sel.truncate(kept);
    }
}

/// A stream with its stateless pipeline prefix.
#[derive(Debug, Clone)]
pub struct StreamDef {
    /// Physical record layout.
    pub schema: RecordSchema,
    /// Optional filter predicate (fused into the pipeline; YSB's
    /// event-type filter).
    pub filter: Option<Predicate>,
}

impl StreamDef {
    /// A stream with no filter.
    pub fn new(schema: RecordSchema) -> Self {
        StreamDef {
            schema,
            filter: None,
        }
    }

    /// Attach a filter predicate.
    pub fn with_filter(mut self, filter: Predicate) -> Self {
        self.filter = Some(filter);
        self
    }

    /// Apply the filter to one record (true = keep) — the scalar
    /// evaluation the oracle and the baselines call.
    #[inline]
    pub fn keep(&self, rec: &[u8]) -> bool {
        self.filter.is_none_or(|p| p.eval(&self.schema, rec))
    }
}

/// A streaming query.
#[derive(Clone, Debug)]
pub enum QueryPlan {
    /// Stateless prefix + windowed hash aggregation (YSB, NB7, CM, RO).
    Aggregate {
        /// Input stream.
        input: StreamDef,
        /// Window assignment.
        window: WindowAssigner,
        /// Aggregation function.
        agg: AggSpec,
    },
    /// Stateless prefix + windowed hash join (NB8, NB11). Records carry a
    /// side tag at `side_off` (u64: 0 = left, 1 = right); at trigger time
    /// the engine emits per-key pairwise combinations.
    Join {
        /// Unified input stream (both sides interleaved).
        input: StreamDef,
        /// Byte offset of the u64 side tag.
        side_off: usize,
        /// Window assignment.
        window: WindowAssigner,
        /// How many payload bytes of each record to retain in state (the
        /// projection the join carries; affects state size like the
        /// paper's tuple-size discussion for NB8 vs NB11).
        retain_bytes: usize,
    },
}

impl QueryPlan {
    /// The SSB state descriptor this plan needs.
    pub fn descriptor(&self) -> StateDescriptor {
        match self {
            QueryPlan::Aggregate { agg, .. } => agg.descriptor(),
            QueryPlan::Join { .. } => appended_descriptor(),
        }
    }

    /// The window assigner.
    pub fn window(&self) -> WindowAssigner {
        match self {
            QueryPlan::Aggregate { window, .. } | QueryPlan::Join { window, .. } => *window,
        }
    }

    /// The input stream definition.
    pub fn input(&self) -> &StreamDef {
        match self {
            QueryPlan::Aggregate { input, .. } | QueryPlan::Join { input, .. } => input,
        }
    }

    /// Record size of the input stream.
    pub fn record_size(&self) -> usize {
        self.input().schema.size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_defaults_to_keep_all() {
        let s = StreamDef::new(RecordSchema::plain(16));
        assert!(s.keep(&[0u8; 16]));
        let f = StreamDef::new(RecordSchema::plain(16)).with_filter(Predicate::field_eq(8, 4));
        let mut rec = [0u8; 16];
        rec[8..16].copy_from_slice(&3u64.to_le_bytes());
        assert!(!f.keep(&rec));
        rec[8..16].copy_from_slice(&4u64.to_le_bytes());
        assert!(f.keep(&rec));
    }

    #[test]
    fn select_lists_the_records_eval_keeps() {
        let schema = RecordSchema::plain(24);
        let p = Predicate::field_eq(16, 7);
        let events = [7u64, 0, 7, 7, 1, 7];
        let mut batch = vec![0u8; events.len() * schema.size];
        for (rec, ev) in batch.chunks_exact_mut(schema.size).zip(events) {
            rec[16..24].copy_from_slice(&ev.to_le_bytes());
        }
        // A stale, longer selection is overwritten, not appended to.
        let mut sel = vec![9; 10];
        p.select(&schema, &batch, &mut sel);
        assert_eq!(sel, [0, 2, 3, 5]);
        p.select(&schema, &[], &mut sel);
        assert!(sel.is_empty());
    }

    #[test]
    fn plan_accessors() {
        let plan = QueryPlan::Aggregate {
            input: StreamDef::new(RecordSchema::plain(78)),
            window: WindowAssigner::Tumbling { size: 1000 },
            agg: AggSpec::Count,
        };
        assert_eq!(plan.record_size(), 78);
        assert_eq!(plan.window(), WindowAssigner::Tumbling { size: 1000 });
        assert!(!plan.descriptor().is_appended());

        let join = QueryPlan::Join {
            input: StreamDef::new(RecordSchema::plain(32)),
            side_off: 16,
            window: WindowAssigner::Tumbling { size: 1000 },
            retain_bytes: 16,
        };
        assert!(join.descriptor().is_appended());
    }
}
