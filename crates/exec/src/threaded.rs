//! The shared-nothing thread-per-core backend.
//!
//! One OS thread per node. Each thread owns everything its node touches —
//! worker loop, SSB instance, delta endpoints, observability handle, and
//! a *private* [`Sim`] that provides the node's virtual-time bookkeeping
//! (cost charging, pacing, epoch instants). Nothing is shared between
//! threads except the bounded SPSC queues carrying epoch deltas, so the
//! record path takes no locks and no atomics.
//!
//! ## Why the result still matches the simulator
//!
//! Thread interleaving changes *when* deltas arrive, not *what* they
//! mean: CRDT merges commute, each channel delivers epochs FIFO with
//! consecutive ids (the same guarantee the RC fence gives the simulated
//! wire), and windows trigger on watermarks — event time, not wall or
//! virtual time. The per-node state digests and the result multiset are
//! therefore bit-identical across backends; per-node virtual clocks,
//! span traces, and completion instants are not comparable and are
//! reported as such.
//!
//! ## Wall-clock usage
//!
//! This file is the one non-bench place allowed to read the host clock
//! (see `WALLCLOCK_EXEMPT_FILES` in `slash-verify`): a node waiting on a
//! peer *thread* cannot bound the wait in virtual time, so the hang
//! watchdog must measure real elapsed time. Nothing else in the crate
//! touches the wall clock.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use slash_core::{boot_node, publish_node_counters, spawn_node_workers, RunReport};
use slash_desim::{Sim, SimTime};
use slash_net::spsc::{spsc_channel, SpscReceiver, SpscSender};
use slash_obs::{MetricsRegistry, Obs};
use slash_state::backend::{full_mesh, SsbNode};
use slash_state::{DeltaReceiver, DeltaSender};

use crate::{JobSpec, Scheduler};

/// Per-thread trace-ring capacity (events). Node threads keep private
/// rings; only the metric registries are merged back.
const OBS_RING: usize = 4096;

/// Virtual-time slice a node thread advances per drive iteration before
/// re-checking completion and yielding the core: a few batches of ingest
/// (about a thousand join records), or fifty polls of the end-of-stream
/// loop.
///
/// The slice bounds how far a node runs ahead of its peers when threads
/// outnumber cores. Windows retire on the *minimum* watermark, so every
/// window a node gets ahead is a window of state held live at both
/// leaders. A slice as long as a job would leave the hand-over to the OS
/// timer, and the lead — hence the resident state — would follow the
/// host's time slice and the node's speed: measured on one shared core,
/// a session-join node then runs up to 4 windows ahead of the cluster
/// minimum (14.8 k live keys, 3.8 MB of log per node) and the peak RSS
/// moves by 7 MB from run to run. With this slice the nodes alternate in
/// step: the lead is 0-1 windows, never above 2 (8.7 k keys, 2.8 MB).
/// With a core per node the yield finds nobody waiting and returns at
/// once.
const HORIZON: SimTime = SimTime::from_micros(100);

/// Hang watchdog: a node thread panics (tearing the run down loudly) if
/// its node has made no progress toward completion for this long in real
/// time. Generous — the protocol owes liveness, the watchdog only converts
/// a deadlock into a diagnosable failure instead of a silent hang.
const WATCHDOG: Duration = Duration::from_secs(300);

/// What one node thread sends back when its node completes: the node's
/// own single-node [`RunReport`] and its private metric registry.
/// Everything here is plain data (`Send`); the `Rc`-laden engine
/// structures never leave their thread.
struct NodeReport {
    report: RunReport,
    registry: Option<MetricsRegistry>,
}

/// The thread-per-core scheduler. `cfg.nodes` determines the thread
/// count: one pinned worker loop per node (pinning is delegated to the
/// OS scheduler — with one runnable thread per core and no blocking,
/// threads settle on distinct cores; the workspace builds with no
/// affinity syscall dependency).
#[derive(Debug, Default, Clone, Copy)]
pub struct ThreadBackend;

impl ThreadBackend {
    /// The thread-per-core backend.
    pub fn new() -> Self {
        ThreadBackend
    }
}

impl Scheduler for ThreadBackend {
    fn run_with_obs(&self, spec: JobSpec, obs: Obs) -> RunReport {
        let cfg = spec.cfg;
        assert_eq!(
            spec.partitions.len(),
            cfg.nodes * cfg.workers_per_node,
            "need one partition per worker"
        );
        let n = cfg.nodes;
        let obs_on = obs.is_enabled();

        // Wire the full mesh of directed SPSC links up front; each node
        // thread takes its own ends (outbound by leader, inbound by helper).
        let mesh = full_mesh(n, |_, _| spsc_channel(cfg.channel));

        // Split the node-major partition list into per-node chunks that
        // move into their threads.
        let mut parts = spec.partitions;
        let mut per_node_parts: Vec<Vec<Vec<u8>>> = Vec::with_capacity(n);
        for _ in 0..n {
            let rest = parts.split_off(cfg.workers_per_node.min(parts.len()));
            per_node_parts.push(parts);
            parts = rest;
        }

        let mut handles = Vec::with_capacity(n);
        for (node, (own_parts, (tx_row, rx_row))) in
            per_node_parts.into_iter().zip(mesh).enumerate()
        {
            let factory = spec.plan.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("slash-node{node}"))
                    .spawn(move || {
                        drive_node(node, cfg, factory, own_parts, tx_row, rx_row, obs_on)
                    })
                    .unwrap_or_else(|e| panic!("spawning node thread {node}: {e}")),
            );
        }

        // Fold per-node reports, in node order, into the same `RunReport`
        // shape the simulator produces. Virtual times are per-node maxima
        // (each node has its own clock); byte counts come from the SPSC
        // links instead of the fabric.
        let mut report = RunReport::default();
        for (node, h) in handles.into_iter().enumerate() {
            let r = h
                .join()
                .unwrap_or_else(|_| panic!("node thread {node} panicked"));
            report.merge(r.report);
            if let Some(reg) = &r.registry {
                obs.absorb_registry(reg);
            }
        }
        if obs.is_enabled() {
            obs.counter_add("net_tx_bytes", "fabric", report.net_tx_bytes);
        }
        report
    }
}

/// Body of one node thread: build the node's private engine stack, drive
/// its simulator until the completion protocol fires, ship back a
/// [`NodeReport`].
#[expect(
    clippy::disallowed_methods,
    reason = "the hang watchdog reads host time: a peer thread stalling advances no virtual clock"
)]
fn drive_node(
    node: usize,
    cfg: slash_core::RunConfig,
    factory: crate::PlanFactory,
    own_parts: Vec<Vec<u8>>,
    tx_row: Vec<Option<SpscSender>>,
    rx_row: Vec<Option<SpscReceiver>>,
    obs_on: bool,
) -> NodeReport {
    let plan = Rc::new((factory)());
    let senders = tx_row.into_iter().map(|tx| tx.map(DeltaSender::over_spsc));
    let receivers = rx_row
        .into_iter()
        .enumerate()
        .map(|(helper, rx)| rx.map(|rx| DeltaReceiver::over_spsc(rx, helper)));
    let ssb = SsbNode::with_endpoints(
        node,
        plan.descriptor(),
        cfg.ssb_config(),
        senders.collect(),
        receivers.collect(),
    );

    let obs = if obs_on {
        Obs::enabled(OBS_RING)
    } else {
        Obs::disabled()
    };
    let shared = Rc::new(RefCell::new(boot_node(ssb, node, &cfg, &obs)));
    let own_parts: Vec<Rc<Vec<u8>>> = own_parts.into_iter().map(Rc::new).collect();
    let mut sim = Sim::new();
    spawn_node_workers(&mut sim, node, &shared, &own_parts, &plan, &cfg, None);

    // Drive until the trigger worker observes cluster-wide completion.
    // No virtual-time budget here: a node waiting on a peer *thread*
    // races through virtual time at poll speed, so only the wall clock
    // bounds a genuine hang. Progress resets the watchdog.
    let mut last_progress = Instant::now();
    let mut last_records = 0u64;
    loop {
        {
            let sh = shared.borrow();
            if sh.finished {
                break;
            }
            if sh.records != last_records {
                last_records = sh.records;
                last_progress = Instant::now();
            }
        }
        assert!(
            sim.pending_events() > 0,
            "node {node} quiesced before completing (worker wiring bug)"
        );
        assert!(
            last_progress.elapsed() < WATCHDOG,
            "node {node} made no progress for {WATCHDOG:?} — \
             completion protocol deadlock or a stuck peer thread"
        );
        let horizon = sim.now() + HORIZON;
        sim.run_until(horizon);
        // One runnable thread per core is the design point, but on
        // smaller hosts (and while draining at end-of-stream) ceding the
        // core lets peers flush the epochs this node is waiting for.
        std::thread::yield_now();
    }
    let sh = shared.borrow();
    publish_node_counters(&obs, node, &sh);
    let mut report = RunReport {
        completion_time: sim.now(),
        net_tx_bytes: sh.ssb.tx_payload_bytes(),
        ..RunReport::default()
    };
    report.absorb_node(&sh);
    NodeReport {
        report,
        registry: obs.registry_snapshot(),
    }
}
