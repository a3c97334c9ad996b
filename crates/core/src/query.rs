//! Query plans — the public query model.
//!
//! Slash's evaluation queries all share one of two shapes (paper §5.2):
//! a pipeline of stateless stages (filter/projection) terminated by a
//! windowed **aggregation**, or by a windowed **join**. Joined streams are
//! delivered as one unified physical flow whose records carry a side tag
//! (the workload generators interleave the logical streams by timestamp,
//! matching the paper's pre-generated in-memory datasets).

use std::rc::Rc;

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

/// A filter predicate over one physical record (true = keep).
pub type FilterFn = Rc<dyn Fn(&RecordSchema, &[u8]) -> bool>;

/// A stream with its stateless pipeline prefix.
#[derive(Clone)]
pub struct StreamDef {
    /// Physical record layout.
    pub schema: RecordSchema,
    /// Optional filter predicate (fused into the pipeline; YSB's
    /// event-type filter).
    pub filter: Option<FilterFn>,
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
    pub fn with_filter(mut self, f: impl Fn(&RecordSchema, &[u8]) -> bool + 'static) -> Self {
        self.filter = Some(Rc::new(f));
        self
    }

    /// Apply the filter (true = keep).
    #[inline]
    pub fn keep(&self, rec: &[u8]) -> bool {
        match &self.filter {
            Some(f) => f(&self.schema, rec),
            None => true,
        }
    }
}

impl std::fmt::Debug for StreamDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamDef")
            .field("schema", &self.schema)
            .field("filtered", &self.filter.is_some())
            .finish()
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
        let f = StreamDef::new(RecordSchema::plain(16)).with_filter(|sch, r| sch.key(r) % 2 == 0);
        let mut rec = [0u8; 16];
        rec[8..16].copy_from_slice(&3u64.to_le_bytes());
        assert!(!f.keep(&rec));
        rec[8..16].copy_from_slice(&4u64.to_le_bytes());
        assert!(f.keep(&rec));
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
