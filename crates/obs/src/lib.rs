//! # slash-obs — deterministic observability for the Slash engine
//!
//! Zero-dependency tracing, metrics, and flight recording, all keyed on
//! the desim virtual clock. The crate provides:
//!
//! * [`trace`] — typed spans/instants for operator pipelines, RDMA channel
//!   verbs, epoch-coherence phases, and [`Stage`]-segmented latency
//!   attribution, in a bounded O(1) ring buffer;
//! * [`hist`] — an HDR-style log-bucketed [`Histogram`] for tail-latency
//!   metrics (p50/p90/p99/p99.9/p99.99) with bounded relative error;
//! * [`heat`] — a SpaceSaving top-k [`HeatSketch`] for per-key load
//!   telemetry (the feed for rescaling / key-splitting controllers);
//! * [`registry`] — a central [`MetricsRegistry`] of counters, gauges,
//!   histograms, and heat sketches labeled by node/operator/channel;
//! * [`export`] — Chrome trace-event JSON (Perfetto) and the `slash-top`
//!   text summary;
//! * [`flight`] — a flight recorder that snapshots the last N events with
//!   schedule-fingerprint, vector-clock context, and a full registry
//!   snapshot on invariant failures.
//!
//! Determinism rules: no wall clock anywhere, timestamps are [`SimTime`]
//! only, registry iteration is `BTreeMap`-ordered, and exports sort by
//! `(virtual time, sequence)` — so the same seed produces byte-identical
//! artifacts.
//!
//! The entry point is the [`Obs`] handle: a cheaply cloneable reference
//! that is either *enabled* (shared ring + registry + dump store) or
//! *disabled* (every call is a no-op and nothing allocates). Engine code
//! takes an `Obs` unconditionally and never branches on configuration.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::dbg_macro,
        clippy::print_stdout,
        clippy::disallowed_methods,
    )
)]

pub mod export;
pub mod flight;
pub mod heat;
pub mod hist;
pub mod registry;
pub mod trace;

pub use flight::{FlightDump, FLIGHT_TAIL};
pub use heat::{HeatEntry, HeatSketch, HEAT_CAPACITY};
pub use hist::Histogram;
pub use registry::MetricsRegistry;
pub use trace::{Cat, Stage, TraceEvent, TraceRing};

use slash_desim::SimTime;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Registry histogram name holding per-stage latency attribution.
pub const STAGE_HIST: &str = "stage_latency_ns";

struct ObsInner {
    ring: RefCell<TraceRing>,
    registry: RefCell<MetricsRegistry>,
    dumps: RefCell<Vec<FlightDump>>,
    /// Stage spans opened but not yet closed, keyed `(stage, pid, tid)`.
    /// BTreeMap keeps drain order deterministic.
    opens: RefCell<BTreeMap<(u8, u32, u32), SimTime>>,
}

/// Shared observability handle threaded through the engine.
///
/// Cloning is O(1) (an `Rc` bump, or nothing when disabled). All methods
/// on a disabled handle are no-ops, so instrumented code pays only a
/// branch when tracing is off.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Rc<ObsInner>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl Obs {
    /// A disabled handle: every call is a no-op.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled handle with a trace ring of `capacity` events.
    pub fn enabled(capacity: usize) -> Self {
        Self {
            inner: Some(Rc::new(ObsInner {
                ring: RefCell::new(TraceRing::new(capacity)),
                registry: RefCell::new(MetricsRegistry::new()),
                dumps: RefCell::new(Vec::new()),
                opens: RefCell::new(BTreeMap::new()),
            })),
        }
    }

    /// Whether tracing is live.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record an instant event at virtual time `at`.
    pub fn instant(
        &self,
        cat: Cat,
        name: &'static str,
        pid: u32,
        tid: u32,
        at: SimTime,
        args: &[(&'static str, u64)],
    ) {
        if let Some(inner) = &self.inner {
            inner
                .ring
                .borrow_mut()
                .record(cat, name, pid, tid, at, 0, args);
        }
    }

    /// Record a complete span from `start` to `end` (clamped non-negative).
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per Chrome-trace event field, as `instant` takes them"
    )]
    pub fn span(
        &self,
        cat: Cat,
        name: &'static str,
        pid: u32,
        tid: u32,
        start: SimTime,
        end: SimTime,
        args: &[(&'static str, u64)],
    ) {
        if let Some(inner) = &self.inner {
            let dur = end.as_nanos().saturating_sub(start.as_nanos()).max(1);
            inner
                .ring
                .borrow_mut()
                .record(cat, name, pid, tid, start, dur, args);
        }
    }

    /// Open a [`Stage`] latency span on lane `(pid, tid)` at virtual time
    /// `at`. Must be matched by a [`span_close`](Self::span_close) with
    /// the same stage and lane; a traced run ends with
    /// [`open_span_count`](Self::open_span_count) zero and no
    /// `span_mismatch` counts (`tests/trace_determinism.rs` checks both).
    /// Re-opening an already-open span moves its start (the earlier open
    /// is dropped).
    pub fn span_open(&self, stage: Stage, pid: u32, tid: u32, at: SimTime) {
        if let Some(inner) = &self.inner {
            inner.opens.borrow_mut().insert((stage as u8, pid, tid), at);
        }
    }

    /// Close the matching open [`Stage`] span at virtual time `at`.
    ///
    /// Emits a `Cat::Stage` trace span and records the duration divided
    /// by `units` (e.g. records in the batch, min 1) into the per-stage
    /// [`STAGE_HIST`] histogram labeled `stage.name()`. A close without a
    /// matching open increments the `span_mismatch` counter instead of
    /// failing: attribution must never take the engine down.
    pub fn span_close(&self, stage: Stage, pid: u32, tid: u32, at: SimTime, units: u64) {
        if let Some(inner) = &self.inner {
            let open = inner.opens.borrow_mut().remove(&(stage as u8, pid, tid));
            match open {
                Some(start) => {
                    let dur = at.as_nanos().saturating_sub(start.as_nanos());
                    inner.ring.borrow_mut().record(
                        Cat::Stage,
                        stage.name(),
                        pid,
                        tid,
                        start,
                        dur.max(1),
                        &[("units", units)],
                    );
                    inner.registry.borrow_mut().hist_record(
                        STAGE_HIST,
                        stage.name(),
                        dur / units.max(1),
                    );
                }
                None => {
                    inner
                        .registry
                        .borrow_mut()
                        .counter_add("span_mismatch", stage.name(), 1);
                }
            }
        }
    }

    /// Number of stage spans currently open (test/diagnostic hook: a
    /// clean run ends with zero).
    pub fn open_span_count(&self) -> usize {
        self.inner
            .as_ref()
            .map(|inner| inner.opens.borrow().len())
            .unwrap_or(0)
    }

    /// Add to a registry counter.
    pub fn counter_add(&self, name: &str, label: &str, v: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.borrow_mut().counter_add(name, label, v);
        }
    }

    /// Set a registry gauge.
    pub fn gauge_set(&self, name: &str, label: &str, v: f64) {
        if let Some(inner) = &self.inner {
            inner.registry.borrow_mut().gauge_set(name, label, v);
        }
    }

    /// Record one value into a registry histogram.
    pub fn hist_record(&self, name: &str, label: &str, v: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.borrow_mut().hist_record(name, label, v);
        }
    }

    /// Merge a histogram into a registry histogram.
    pub fn hist_merge(&self, name: &str, label: &str, h: &Histogram) {
        if let Some(inner) = &self.inner {
            inner.registry.borrow_mut().hist_merge(name, label, h);
        }
    }

    /// Record `weight` observations of key `k` into a registry heat sketch.
    pub fn heat_observe(&self, name: &str, label: &str, k: u64, weight: u64) {
        if let Some(inner) = &self.inner {
            inner
                .registry
                .borrow_mut()
                .heat_observe(name, label, k, weight);
        }
    }

    /// Merge a locally-accumulated heat sketch into the registry.
    pub fn heat_merge(&self, name: &str, label: &str, sketch: &HeatSketch) {
        if let Some(inner) = &self.inner {
            inner.registry.borrow_mut().heat_merge(name, label, sketch);
        }
    }

    /// The hottest `n` entries of a registry heat sketch.
    pub fn heat_top(&self, name: &str, label: &str, n: usize) -> Vec<HeatEntry> {
        self.inner
            .as_ref()
            .map(|inner| inner.registry.borrow().heat_top(name, label, n))
            .unwrap_or_default()
    }

    /// Quantile of a registry histogram, if present.
    pub fn quantile(&self, name: &str, label: &str, q: f64) -> Option<u64> {
        self.inner
            .as_ref()
            .and_then(|inner| inner.registry.borrow().quantile(name, label, q))
    }

    /// Run `f` against the registry (read-only snapshot access).
    pub fn with_registry<R>(&self, f: impl FnOnce(&MetricsRegistry) -> R) -> Option<R> {
        self.inner.as_ref().map(|inner| f(&inner.registry.borrow()))
    }

    /// Clone the registry contents. The threaded executor calls this on a
    /// worker thread's private handle when its node completes, then ships
    /// the (Send) snapshot to the driver for [`Obs::absorb_registry`].
    pub fn registry_snapshot(&self) -> Option<MetricsRegistry> {
        self.with_registry(MetricsRegistry::clone)
    }

    /// Merge a whole registry into this handle's registry (see
    /// [`MetricsRegistry::absorb`]). This is the merge-at-epoch-close
    /// half of the per-thread observability design: record paths touch
    /// only their thread-local registry, and the driver absorbs the
    /// snapshots once per completed node — no locks anywhere.
    pub fn absorb_registry(&self, other: &MetricsRegistry) {
        if let Some(inner) = &self.inner {
            inner.registry.borrow_mut().absorb(other);
        }
    }

    /// Capture a flight-recorder dump: the last [`FLIGHT_TAIL`] events plus
    /// `reason` and `context` (schedule fingerprint, vector clocks). A
    /// `fault` instant is also appended to the trace so the failure is
    /// visible in Perfetto. No-op when disabled.
    pub fn record_failure(&self, reason: &str, context: &str) {
        if let Some(inner) = &self.inner {
            let events = inner.ring.borrow().tail(FLIGHT_TAIL);
            let at = events.last().map(|e| e.ts).unwrap_or(SimTime::ZERO);
            inner
                .ring
                .borrow_mut()
                .record(Cat::Fault, "failure", 0, 0, at, 0, &[]);
            let registry = {
                let reg = inner.registry.borrow();
                if reg.is_empty() {
                    String::new()
                } else {
                    export::top_summary(&reg)
                }
            };
            inner.dumps.borrow_mut().push(FlightDump {
                reason: reason.to_string(),
                context: context.to_string(),
                events,
                registry,
            });
        }
    }

    /// Drain captured flight-recorder dumps.
    pub fn take_failures(&self) -> Vec<FlightDump> {
        match &self.inner {
            Some(inner) => std::mem::take(&mut *inner.dumps.borrow_mut()),
            None => Vec::new(),
        }
    }

    /// Number of captured (undrained) flight-recorder dumps.
    pub fn failure_count(&self) -> usize {
        self.inner
            .as_ref()
            .map(|inner| inner.dumps.borrow().len())
            .unwrap_or(0)
    }

    /// Total trace events recorded so far (including overwritten ones).
    pub fn event_count(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|inner| inner.ring.borrow().recorded())
            .unwrap_or(0)
    }

    /// Snapshot of retained trace events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner
            .as_ref()
            .map(|inner| inner.ring.borrow().snapshot())
            .unwrap_or_default()
    }

    /// Export retained events as Chrome trace-event JSON (Perfetto).
    pub fn chrome_trace_json(&self) -> String {
        export::chrome_trace_json(&self.events())
    }

    /// Render the registry as the `slash-top` text summary.
    pub fn summary(&self) -> String {
        match self.with_registry(export::top_summary) {
            Some(s) => s,
            None => export::top_summary(&MetricsRegistry::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        obs.instant(Cat::Verb, "write", 0, 0, SimTime::ZERO, &[]);
        obs.counter_add("x", "y", 1);
        obs.hist_record("h", "l", 5);
        obs.record_failure("nope", "");
        assert_eq!(obs.event_count(), 0);
        assert_eq!(obs.failure_count(), 0);
        assert!(obs.take_failures().is_empty());
        assert!(obs.chrome_trace_json().contains("traceEvents"));
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::enabled(64);
        let clone = obs.clone();
        clone.instant(
            Cat::Epoch,
            "epoch-propose",
            1,
            0,
            SimTime::from_micros(3),
            &[],
        );
        clone.counter_add("records", "node=1", 7);
        assert_eq!(obs.event_count(), 1);
        assert_eq!(
            obs.with_registry(|r| r.counter("records", "node=1")),
            Some(7)
        );
    }

    #[test]
    fn record_failure_captures_tail_and_marks_trace() {
        let obs = Obs::enabled(128);
        for i in 0..100u64 {
            obs.instant(
                Cat::Verb,
                "write",
                0,
                1,
                SimTime::from_nanos(i * 5),
                &[("seq", i)],
            );
        }
        obs.record_failure("credit window exceeded", "fingerprint=0x1");
        assert_eq!(obs.failure_count(), 1);
        let dumps = obs.take_failures();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].events.len(), FLIGHT_TAIL);
        assert_eq!(dumps[0].events.last().unwrap().args()[0], ("seq", 99));
        assert!(obs.take_failures().is_empty(), "drained");
        assert!(obs
            .events()
            .iter()
            .any(|e| e.cat == Cat::Fault && e.name == "failure"));
    }

    #[test]
    fn stage_span_pairs_record_trace_and_histogram() {
        let obs = Obs::enabled(64);
        obs.span_open(Stage::Source, 0, 1, SimTime::from_nanos(100));
        obs.span_close(Stage::Source, 0, 1, SimTime::from_nanos(1_100), 10);
        assert_eq!(obs.open_span_count(), 0);
        // 1000ns over 10 units = 100ns per record.
        assert_eq!(obs.quantile(STAGE_HIST, "source", 1.0), Some(100));
        let events = obs.events();
        let span = events
            .iter()
            .find(|e| e.cat == Cat::Stage && e.name == "source")
            .expect("stage span recorded");
        assert_eq!(span.ts, SimTime::from_nanos(100));
        assert_eq!(span.dur, 1_000);
        assert_eq!(span.args()[0], ("units", 10));
    }

    #[test]
    fn mismatched_span_close_counts_not_fails() {
        let obs = Obs::enabled(16);
        obs.span_close(Stage::EpochMerge, 3, 0, SimTime::from_nanos(50), 1);
        assert_eq!(
            obs.with_registry(|r| r.counter("span_mismatch", "epoch_merge")),
            Some(1)
        );
        assert!(obs.quantile(STAGE_HIST, "epoch_merge", 0.5).is_none());
        // Lanes are independent: same stage on another (pid, tid) pairs fine.
        obs.span_open(Stage::SsbApply, 0, 0, SimTime::ZERO);
        obs.span_open(Stage::SsbApply, 0, 1, SimTime::from_nanos(5));
        assert_eq!(obs.open_span_count(), 2);
        obs.span_close(Stage::SsbApply, 0, 0, SimTime::from_nanos(10), 1);
        obs.span_close(Stage::SsbApply, 0, 1, SimTime::from_nanos(10), 1);
        assert_eq!(obs.open_span_count(), 0);
        assert_eq!(
            obs.with_registry(|r| r.hist(STAGE_HIST, "ssb_apply").map(|h| h.count())),
            Some(Some(2))
        );
    }

    #[test]
    fn span_durations_clamp_and_export() {
        let obs = Obs::enabled(16);
        obs.span(
            Cat::Operator,
            "batch",
            0,
            2,
            SimTime::from_nanos(10),
            SimTime::from_nanos(10),
            &[],
        );
        let json = obs.chrome_trace_json();
        assert!(
            json.contains("\"dur\":0.001"),
            "zero-length span clamps to 1ns"
        );
    }
}
