//! Structured trace events keyed on the desim virtual clock.
//!
//! Events are recorded into a bounded ring buffer: each `record` is O(1)
//! and the memory footprint is fixed at construction, so tracing can stay
//! enabled for multi-million-event runs without distorting the simulation.
//! Every timestamp is a [`SimTime`] — never wall clock — so the same seed
//! produces the same event stream byte for byte.

use slash_desim::SimTime;

/// Maximum key/value argument pairs kept per event (excess are dropped).
pub const MAX_ARGS: usize = 4;

/// Event category: which subsystem emitted the event.
///
/// Categories map 1:1 onto the `cat` field of the Chrome trace-event
/// export, so Perfetto can filter per subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cat {
    /// Operator pipeline work on a worker core (batches, triggers, pumps).
    Operator,
    /// RDMA channel verbs: one-sided writes, polls, credit traffic.
    Verb,
    /// Epoch-coherence phases: propose, merge, install.
    Epoch,
    /// Stage-segmented latency attribution spans (see [`Stage`]).
    Stage,
    /// Invariant failures and decode errors (flight-recorder markers).
    Fault,
}

impl Cat {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Cat::Operator => "operator",
            Cat::Verb => "verb",
            Cat::Epoch => "epoch",
            Cat::Stage => "stage",
            Cat::Fault => "fault",
        }
    }
}

/// Named segment of the end-to-end record-latency budget.
///
/// Stage spans are emitted as open/close pairs (`Obs::span_open` /
/// `Obs::span_close`) and aggregated into the per-stage
/// `stage_latency_ns` registry histogram, so a p99.99 breach points at
/// the guilty segment instead of just the end-to-end number. The
/// taxonomy follows a record's life: source ingest, channel transit,
/// SSB state apply, window close, epoch merge, result emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Source ingest + per-record pipeline work (parse/filter/project).
    Source,
    /// Buffer residence between a channel's sender stamp and its consume.
    /// Recorded on the simulated fabric only: it needs one clock for the
    /// sender's stamp and the consume, and node threads share none, so a
    /// threaded run reads 0 here.
    ChannelTransit,
    /// State updates against the SSB (combiner folds, RMW/append, memory stall).
    SsbApply,
    /// Epoch-close scan and delta encode at the window boundary.
    WindowClose,
    /// Delta shipping and remote-epoch merge on the coherence path.
    EpochMerge,
    /// Trigger sweep and sink emission of window results.
    ResultEmit,
}

impl Stage {
    /// Every stage, in record-lifecycle order.
    pub const ALL: [Stage; 6] = [
        Stage::Source,
        Stage::ChannelTransit,
        Stage::SsbApply,
        Stage::WindowClose,
        Stage::EpochMerge,
        Stage::ResultEmit,
    ];

    /// Stable snake_case name used as the `stage_latency_ns` label and in
    /// `BENCH_latency.json`.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Source => "source",
            Stage::ChannelTransit => "channel_transit",
            Stage::SsbApply => "ssb_apply",
            Stage::WindowClose => "window_close",
            Stage::EpochMerge => "epoch_merge",
            Stage::ResultEmit => "result_emit",
        }
    }

    /// Whether this stage's samples are per-record slices of a worker's
    /// busy window. Record-path stage *means* sum to at most the
    /// end-to-end `record_latency_ns` mean (integer truncation only);
    /// `channel_transit` is per-buffer residence in a different unit and
    /// is excluded from that identity.
    pub fn on_record_path(self) -> bool {
        !matches!(self, Stage::ChannelTransit)
    }
}

/// One trace event. `dur == 0` renders as an instant, otherwise as a
/// complete span of `dur` nanoseconds starting at `ts`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotone sequence number (total order of emission).
    pub seq: u64,
    /// Category of the emitting subsystem.
    pub cat: Cat,
    /// Static event name (e.g. `"batch"`, `"write"`, `"epoch-merge"`).
    pub name: &'static str,
    /// Process lane in the export; Slash uses the node id.
    pub pid: u32,
    /// Thread lane in the export; worker index or peer node.
    pub tid: u32,
    /// Virtual start time.
    pub ts: SimTime,
    /// Span duration in nanoseconds (0 for instants).
    pub dur: u64,
    /// Number of live entries in `args`.
    pub n_args: u8,
    /// Key/value arguments (first `n_args` are live).
    pub args: [(&'static str, u64); MAX_ARGS],
}

impl TraceEvent {
    /// The live argument pairs.
    pub fn args(&self) -> &[(&'static str, u64)] {
        let n = (self.n_args as usize).min(MAX_ARGS);
        &self.args[..n]
    }
}

/// Bounded ring buffer of trace events.
#[derive(Debug)]
pub struct TraceRing {
    buf: Vec<TraceEvent>,
    capacity: usize,
    next_seq: u64,
}

impl TraceRing {
    /// A ring holding at most `capacity` events (rounded up to 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            buf: Vec::with_capacity(capacity.min(1 << 20)),
            capacity,
            next_seq: 0,
        }
    }

    /// Record one event; O(1), overwriting the oldest once full.
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per Chrome-trace event field, packed straight into the ring"
    )]
    pub fn record(
        &mut self,
        cat: Cat,
        name: &'static str,
        pid: u32,
        tid: u32,
        ts: SimTime,
        dur: u64,
        args: &[(&'static str, u64)],
    ) {
        let mut packed = [("", 0u64); MAX_ARGS];
        let n = args.len().min(MAX_ARGS);
        packed[..n].copy_from_slice(&args[..n]);
        let ev = TraceEvent {
            seq: self.next_seq,
            cat,
            name,
            pid,
            tid,
            ts,
            dur,
            n_args: n as u8,
            args: packed,
        };
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            let slot = (self.next_seq % self.capacity as u64) as usize;
            self.buf[slot] = ev;
        }
        self.next_seq += 1;
    }

    /// Total events ever recorded (including any overwritten).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Events currently retained, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        if self.buf.len() < self.capacity {
            return self.buf.clone();
        }
        let head = (self.next_seq % self.capacity as u64) as usize;
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[head..]);
        out.extend_from_slice(&self.buf[..head]);
        out
    }

    /// The last `n` retained events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<TraceEvent> {
        let snap = self.snapshot();
        let skip = snap.len().saturating_sub(n);
        snap[skip..].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ring: &mut TraceRing, i: u64) {
        ring.record(
            Cat::Verb,
            "write",
            0,
            1,
            SimTime::from_nanos(i * 10),
            0,
            &[("seq", i)],
        );
    }

    #[test]
    fn ring_overwrites_oldest() {
        let mut ring = TraceRing::new(4);
        for i in 0..10 {
            ev(&mut ring, i);
        }
        assert_eq!(ring.recorded(), 10);
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 4);
        let seqs: Vec<u64> = snap.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        let tail = ring.tail(2);
        assert_eq!(tail[0].seq, 8);
        assert_eq!(tail[1].seq, 9);
    }

    #[test]
    fn args_are_truncated_not_dropped() {
        let mut ring = TraceRing::new(2);
        let many = [("a", 1), ("b", 2), ("c", 3), ("d", 4), ("e", 5)];
        ring.record(Cat::Epoch, "x", 0, 0, SimTime::ZERO, 5, &many);
        let snap = ring.snapshot();
        assert_eq!(snap[0].args().len(), MAX_ARGS);
        assert_eq!(snap[0].args()[0], ("a", 1));
        assert_eq!(snap[0].dur, 5);
    }
}
