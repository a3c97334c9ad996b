//! The Slash worker: one simulated executor thread.
//!
//! Each worker is a `slash-desim` process that cooperatively interleaves
//! (paper §5.3):
//!
//! 1. **RDMA coroutines** — pumping the SSB's delta channels (shipping own
//!    deltas, merging inbound ones);
//! 2. **compute coroutines** — processing one batch of records through the
//!    fused pipeline, updating SSB state eagerly;
//! 3. **trigger duty** (worker 0 of each node) — scanning the primary
//!    partition for windows the vector clock has released.
//!
//! All costs are charged in virtual time from the [`CostModel`]; state
//! accesses additionally consume the node's shared memory-bandwidth link,
//! so a node's aggregate throughput saturates at the memory wall exactly
//! like the paper's Table 1 measures.

use std::cell::RefCell;
use std::rc::Rc;

use slash_desim::{Link, ProcId, Process, Sim, SimTime, Step};
use slash_obs::{Cat, Obs, Stage};
use slash_state::backend::{SsbNode, TriggeredData, TriggeredValue};
use slash_state::pack_key;

use crate::cost::CostModel;
use crate::hotpath::HotPath;
use crate::metrics::{CostCategory, EngineMetrics};
use crate::query::QueryPlan;
use crate::sink::{Sink, SinkResult};
use crate::source::MemorySource;

/// Instruction-count proxies per operation class (anchored to Table 1:
/// Slash ≈ 42 instructions/record ≈ pipeline + RMW; UpPar sender ≈ 166).
pub mod instr {
    /// Parse + filter + project + window-assign.
    pub const PIPELINE: u64 = 18;
    /// Hash-index probe + in-place RMW.
    pub const RMW: u64 = 24;
    /// Write-combiner fold: L1-resident probe + in-place CRDT update.
    /// Much cheaper than [`RMW`] — no full index walk, no key-compare
    /// chain, the table fits in one cache level.
    pub const COMBINE: u64 = 6;
    /// Log append.
    pub const APPEND: u64 = 30;
    /// Hash partitioning, destination select, staging-buffer management
    /// and serialization bookkeeping (UpPar/Flink sender). Dominates the
    /// sender's large code footprint (Table 1: 166 instr/record overall).
    pub const PARTITION: u64 = 300;
    /// Queue handover.
    pub const QUEUE_OP: u64 = 35;
    /// Merging one delta entry.
    pub const MERGE: u64 = 28;
    /// One empty poll iteration.
    pub const POLL: u64 = 4;
}

/// State shared by all workers of one node.
pub struct NodeShared {
    /// The node's SSB instance.
    pub ssb: SsbNode,
    /// Query output.
    pub sink: Sink,
    /// Software performance counters.
    pub metrics: EngineMetrics,
    /// Shared memory-bandwidth link. Behind an `Rc` so co-located
    /// partitions (elastic runs packing several logical nodes onto one
    /// physical host) genuinely contend for one host's bandwidth — and
    /// migrating a partition to its own host genuinely frees it. Private
    /// to the node unless the rescale director installed per-host links.
    pub mem: Rc<RefCell<Link>>,
    /// Per-worker high-water event times (node watermark = min).
    pub worker_wm: Vec<u64>,
    /// Per-worker source read positions (bytes), refreshed after every
    /// batch; checkpoints capture them so a replacement node resumes
    /// ingest exactly at the last epoch boundary.
    pub worker_pos: Vec<usize>,
    /// Set by the trigger worker once the distributed query is complete.
    pub finished: bool,
    /// Set when the port hosting this node dies — at the fault instant by
    /// the fault-tolerance director's armed plan, or by its dead-port
    /// sweep; every worker observes it at its next step and terminates.
    /// Never set on runs without that director.
    pub crashed: bool,
    /// Set by the rescale director at a planned-handoff cutover: workers
    /// stop cleanly at their next step (no batch is half-applied, state
    /// mutations happen synchronously inside a step), so the checkpoint
    /// the director captures right after setting this flag is exact.
    pub halted: bool,
    /// Fault-tolerance hook (checkpoint store), installed by the
    /// fault-tolerance director ([`crate::ClusterBuilder::chaos`]) and
    /// inherited by a replacement node; `None` otherwise, so the
    /// fault-free fast path stays untouched.
    pub(crate) ft: Option<crate::recovery::FtState>,
    /// Virtual time when this node consumed its last source record.
    pub last_ingest: SimTime,
    /// Source records fully processed on this node.
    pub records: u64,
    /// Observability handle (disabled unless the driver instruments it).
    pub obs: Obs,
    /// Metric label for this node (e.g. `node3`).
    pub obs_label: String,
    /// Record-forwarding plane for hot-key splitting, wired by the split
    /// director ([`crate::ClusterBuilder::split`]) when
    /// `SplitRunConfig::forward` is set; `None` otherwise, so the ordinary
    /// ingest path stays untouched.
    pub fwd: Option<Rc<crate::split::ForwardFabric>>,
}

impl NodeShared {
    /// Build the shared state for a node with `workers` threads.
    pub fn new(ssb: SsbNode, workers: usize, mem_bandwidth: u64, collect: bool) -> Self {
        NodeShared {
            ssb,
            sink: if collect {
                Sink::collecting()
            } else {
                Sink::counting()
            },
            metrics: EngineMetrics::default(),
            mem: Rc::new(RefCell::new(Link::new(mem_bandwidth))),
            worker_wm: vec![0; workers],
            worker_pos: vec![0; workers],
            finished: false,
            crashed: false,
            halted: false,
            ft: None,
            last_ingest: SimTime::ZERO,
            records: 0,
            obs: Obs::disabled(),
            obs_label: String::new(),
            fwd: None,
        }
    }

    /// Attach an observability handle; workers then emit batch spans and
    /// record-latency samples, and the SSB node traces its channels.
    pub fn instrument(&mut self, obs: Obs, node: usize) {
        self.obs_label = format!("node{node}");
        self.ssb.instrument(obs.clone());
        self.obs = obs;
    }

    fn node_watermark(&self) -> u64 {
        // Empty only if misconfigured with zero workers; MAX then means
        // "no ingest pending", which is the inert interpretation.
        self.worker_wm.iter().min().copied().unwrap_or(u64::MAX)
    }
}

/// One simulated Slash executor thread.
pub struct SlashWorker {
    node: usize,
    widx: usize,
    shared: Rc<RefCell<NodeShared>>,
    source: MemorySource,
    plan: Rc<QueryPlan>,
    cost: CostModel,
    /// Batch-vectorized record loop (write combining, batched appends).
    hotpath: HotPath,
    source_done: bool,
    is_trigger: bool,
    /// Last window bucket for which an ahead-of-time epoch was signalled.
    last_epoch_bucket: u64,
    /// Split-ledger version the forward key list was built from (the
    /// sender-side twin of the hot path's salt-map cache).
    fwd_version: u64,
    /// Sorted canonical split keys whose records this worker forwards.
    fwd_keys: Vec<u64>,
    /// Round-robin destination cursor for forwarded records.
    fwd_rr: usize,
    /// Whether this worker told the forward fabric its source is done.
    fwd_done_noted: bool,
}

impl SlashWorker {
    /// The node this worker belongs to.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Create a worker. Worker 0 of each node doubles as the trigger task.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        node: usize,
        widx: usize,
        shared: Rc<RefCell<NodeShared>>,
        source: MemorySource,
        plan: Rc<QueryPlan>,
        cost: CostModel,
        combine: bool,
        combiner_slots: usize,
    ) -> Self {
        let hotpath = HotPath::new(Rc::clone(&plan), combine, combiner_slots);
        SlashWorker {
            node,
            widx,
            shared,
            source,
            plan,
            cost,
            hotpath,
            source_done: false,
            is_trigger: widx == 0,
            last_epoch_bucket: 0,
            fwd_version: 0,
            fwd_keys: Vec::new(),
            fwd_rr: 0,
            fwd_done_noted: false,
        }
    }

    /// Process one batch; returns (pipeline_ns, apply_ns, mem_bytes,
    /// records, last_ts). The cpu cost is split into its source-pipeline
    /// and SSB-apply components so the caller can attribute each to its
    /// latency stage.
    fn process_batch(
        &mut self,
        sh: &mut NodeShared,
        range: (usize, usize),
    ) -> (f64, f64, u64, u64, u64) {
        let data = Rc::clone(self.source.data());
        self.process_bytes(sh, &data[range.0..range.1])
    }

    /// The batch body of [`Self::process_batch`], factored over raw bytes
    /// so forwarded record batches (which arrive outside this worker's
    /// source) run the exact same pipeline, costs, and accounting.
    fn process_bytes(&mut self, sh: &mut NodeShared, batch: &[u8]) -> (f64, f64, u64, u64, u64) {
        let cost = &self.cost;
        // Working-set–dependent access cost, computed once per batch.
        let ws = sh.ssb.resident_bytes() as u64;
        let access = cost.cache.random_access(ws);

        // Run the record loop, then convert its outcome into vectorized
        // charges — one `instr`/`charge` call per batch, not per record.
        let out = self.hotpath.process(&mut sh.ssb, batch);
        let n = out.records;
        let pipeline_ns = cost.record_pipeline_ns * n as f64;
        let mut apply_ns = 0.0;
        sh.metrics.instr(instr::PIPELINE * n);
        sh.metrics.add_state_updates(out.survivors);
        let mut mem = batch.len() as u64 + out.value_bytes; // streaming + state writes

        let state_ops = if self.hotpath.combined() {
            // Every survivor folds into the L1-resident combiner; a key
            // entering the table is charged, here, the one index walk its
            // partial costs when the table is flushed.
            apply_ns += cost.combine_hit_ns * out.survivors as f64
                + (cost.rmw_base_ns + access.penalty_ns) * out.flushed as f64;
            sh.metrics
                .instr(instr::COMBINE * out.survivors + instr::RMW * out.flushed);
            sh.metrics.charge(
                CostCategory::Retiring,
                cost.combine_hit_ns * out.survivors as f64,
            );
            sh.metrics.add_combiner_ops(out.survivors, out.flushed);
            out.flushed
        } else {
            match &*self.plan {
                QueryPlan::Aggregate { .. } => {
                    apply_ns += (cost.rmw_base_ns + access.penalty_ns) * out.survivors as f64;
                    sh.metrics.instr(instr::RMW * out.survivors);
                }
                QueryPlan::Join { .. } => {
                    apply_ns += (cost.append_base_ns + access.penalty_ns) * out.survivors as f64;
                    sh.metrics.instr(instr::APPEND * out.survivors);
                }
            }
            out.survivors
        };
        let last_ts = out.last_ts;
        // Cache-miss accounting for the state accesses of this batch.
        sh.metrics.add_cache_misses(
            access.l1_miss * state_ops as f64,
            access.l2_miss * state_ops as f64,
            access.llc_miss * state_ops as f64,
        );
        mem += (access.mem_bytes() * state_ops as f64) as u64;

        sh.metrics
            .charge(CostCategory::Retiring, cost.record_pipeline_ns * n as f64);
        sh.metrics.charge(
            CostCategory::MemoryBound,
            (cost.rmw_base_ns + access.penalty_ns) * state_ops as f64,
        );
        (pipeline_ns, apply_ns, mem, n, last_ts)
    }

    /// Source-batch processing with the forwarding pre-pass: records of
    /// split keys are round-robined across nodes (self-destined ones stay
    /// local), everything else is processed in place. The sender charges
    /// only the cheap handoff ([`CostModel::forward_record_ns`]) per
    /// forwarded record — the receiver runs the full pipeline — and its
    /// watermark still advances over the *original* batch's last
    /// timestamp: custody of the forwarded timestamps is the fabric
    /// floor's job, not the sender watermark's.
    fn process_batch_forwarding(
        &mut self,
        sh: &mut NodeShared,
        range: (usize, usize),
    ) -> (f64, f64, u64, u64, u64) {
        if sh.ssb.split_version() != self.fwd_version {
            self.fwd_version = sh.ssb.split_version();
            self.fwd_keys = sh.ssb.split_keys();
        }
        if self.fwd_keys.is_empty() {
            return self.process_batch(sh, range);
        }
        let data = Rc::clone(self.source.data());
        let batch = &data[range.0..range.1];
        let schema = self.plan.input().schema;
        let nodes = sh.fwd.as_ref().map_or(1, |f| f.nodes());
        let mut kept: Vec<u8> = Vec::with_capacity(batch.len());
        let mut outs: Vec<Vec<u8>> = vec![Vec::new(); nodes];
        let mut outs_min = vec![u64::MAX; nodes];
        let mut outs_n = vec![0u64; nodes];
        let mut last_ts = 0u64;
        for rec in batch.chunks_exact(schema.size) {
            last_ts = schema.ts(rec);
            if self.fwd_keys.binary_search(&schema.key(rec)).is_ok() {
                let dest = self.fwd_rr % nodes;
                self.fwd_rr = (self.fwd_rr + 1) % nodes;
                if dest != self.node {
                    outs[dest].extend_from_slice(rec);
                    outs_min[dest] = outs_min[dest].min(schema.ts(rec));
                    outs_n[dest] += 1;
                    continue;
                }
            }
            kept.extend_from_slice(rec);
        }
        let mut fwd_n = 0u64;
        let mut fwd_bytes = 0u64;
        if let Some(f) = &sh.fwd {
            for dest in 0..nodes {
                if outs_n[dest] == 0 {
                    continue;
                }
                fwd_n += outs_n[dest];
                fwd_bytes += outs[dest].len() as u64;
                f.enqueue(
                    dest,
                    crate::split::FwdBatch {
                        min_ts: outs_min[dest],
                        records: outs_n[dest],
                        data: std::mem::take(&mut outs[dest]),
                    },
                );
            }
        }
        let (mut pipeline_ns, apply_ns, mut mem, mut n, _kept_last) = if kept.is_empty() {
            (0.0, 0.0, 0, 0, 0)
        } else {
            self.process_bytes(sh, &kept)
        };
        let fwd_cost = self.cost.forward_record_ns * fwd_n as f64;
        pipeline_ns += fwd_cost;
        sh.metrics.charge(CostCategory::Retiring, fwd_cost);
        sh.metrics.instr(instr::QUEUE_OP * (fwd_n > 0) as u64);
        mem += fwd_bytes;
        // Forwarded records are counted where they were ingested (here);
        // the receiver charges their processing but not their count.
        n += fwd_n;
        (pipeline_ns, apply_ns, mem, n, last_ts)
    }

    /// Drain forwarded batches from this node's inbox through the normal
    /// hot path, returning `(cpu_pipeline, cpu_apply, mem, records)`.
    /// The window memo's assignment is exact for any timestamp order, so
    /// out-of-order forwarded batches reuse the same machinery.
    fn drain_forwarded(&mut self, sh: &mut NodeShared) -> (f64, f64, u64, u64) {
        const DRAIN_BATCHES: usize = 4;
        let Some(f) = sh.fwd.clone() else {
            return (0.0, 0.0, 0, 0);
        };
        let mut pipeline_ns = 0.0;
        let mut apply_ns = 0.0;
        let mut mem = 0u64;
        let mut records = 0u64;
        for _ in 0..DRAIN_BATCHES {
            let Some(batch) = f.pop(self.node) else {
                break;
            };
            let (p, a, m, n, _last) = self.process_bytes(sh, &batch.data);
            pipeline_ns += p;
            apply_ns += a;
            mem += m;
            records += n;
            // Custody handoff: queued → unshipped (applied to fragments).
            f.note_processed(self.node, batch.min_ts);
        }
        (pipeline_ns, apply_ns, mem, records)
    }

    /// After any successful epoch close on a forwarding run, hand custody
    /// of this node's unshipped forwarded timestamps to the in-flight
    /// stage (the epoch's chunks carry them; see [`crate::split`]).
    fn note_fwd_close(&self, sh: &NodeShared) {
        if let Some(f) = &sh.fwd {
            f.note_epoch_closed(self.node, sh.ssb.vclock().get(self.node));
        }
    }

    /// Account for one epoch-close attempt of `step`: a failure is
    /// flight-recorded; a closed epoch charges its scan of the fragments'
    /// delta regions and the chunk encode (§7.2.2 step ② — mark + read
    /// the log) to `cpu`, `seg_close` and memory-bound time, adds its
    /// delta bytes to `mem_bytes`, and notifies recovery and forwarding.
    fn charge_epoch_close(
        &self,
        sh: &mut NodeShared,
        closed: Result<Option<u64>, slash_state::StateError>,
        cpu: &mut f64,
        seg_close: &mut f64,
        mem_bytes: &mut u64,
    ) {
        let delta = match closed {
            Ok(Some(delta)) => delta,
            Ok(None) => return,
            Err(e) => {
                sh.obs.record_failure("epoch close", &format!("{e:?}"));
                return;
            }
        };
        let close_ns = 800.0 + delta as f64 * 0.05;
        *cpu += close_ns;
        *seg_close += close_ns;
        sh.metrics.charge(CostCategory::MemoryBound, close_ns);
        *mem_bytes += delta;
        crate::recovery::on_epoch_closed(sh);
        self.note_fwd_close(sh);
    }

    /// Trigger-task duty: fire every window the vector clock has released.
    ///
    /// The common call — nothing ready, e.g. every step of the end-of-stream
    /// poll loop — is one `ready` test per live window and allocates
    /// nothing. When windows fire, results stream from the state into the
    /// sink one value at a time, so nothing of a fired window is held
    /// twice; only sliding windows, which stitch sibling slices, buffer
    /// the sweep.
    fn run_triggers(&mut self, sh: &mut NodeShared) -> f64 {
        let plan = Rc::clone(&self.plan);
        let window = plan.window();
        // Forwarding runs release windows on min(vclock, floor): the
        // floor covers forwarded records whose contributions have not yet
        // merged at their leader (see [`crate::split`]).
        let wm = match &sh.fwd {
            Some(f) => sh.ssb.vclock().min().min(f.floor()),
            None => sh.ssb.vclock().min(),
        };
        let ready = |wid| window.ready(wid, wm);
        let merge_ns = self.cost.merge_entry_ns;
        let NodeShared {
            ssb, sink, metrics, ..
        } = sh;
        // Hand one triggered value to the sink; returns its CPU cost.
        let mut finish = |tv: TriggeredValue<'_>| match (&*plan, tv.data) {
            (QueryPlan::Aggregate { agg, .. }, TriggeredData::Fixed(value)) => {
                sink.push(SinkResult::Agg {
                    window_id: tv.window_id,
                    key: tv.key,
                    value: agg.render(value),
                });
                metrics.instr(instr::MERGE);
                merge_ns
            }
            (QueryPlan::Join { .. }, TriggeredData::Elements(elems)) => {
                metrics.instr(instr::MERGE * elems.len() as u64);
                sink.push(SinkResult::Join {
                    window_id: tv.window_id,
                    key: tv.key,
                    pairs: crate::join::pair_count(elems, &window),
                });
                2.0 * elems.len() as f64 // probe per element
            }
            (plan, data) => unreachable!("plan/state mismatch: {plan:?} vs {data:?}"),
        };
        let mut cpu = 0.0;
        let slices = window.slices_per_window();
        let agg = match &*plan {
            QueryPlan::Aggregate { agg, .. } if slices > 1 => agg,
            // Tumbling and session windows fire as they are, and join
            // state is never stitched: results stream straight to the sink.
            _ => {
                ssb.drain_triggered(ready, |tv| cpu += finish(tv));
                return cpu;
            }
        };
        // Sliding windows: a window is its first slice merged with the
        // k-1 following ones. Later slices may retire in the *same*
        // sweep (and are then gone from the state), so the sweep's values
        // are kept — one flat copy, indexed by `(slice, key)` — and a
        // sibling is looked up there first, in live state second.
        let size = agg.descriptor().fixed_size();
        let merge = agg.descriptor().merge;
        let mut values: Vec<u8> = Vec::new();
        let mut drained: Vec<(u64, u64)> = Vec::new();
        ssb.drain_triggered(ready, |tv| {
            if let TriggeredData::Fixed(v) = tv.data {
                values.extend_from_slice(v);
                drained.push((tv.window_id, tv.key));
            }
        });
        let value_of = |i: usize| &values[i * size..(i + 1) * size];
        let at: std::collections::BTreeMap<(u64, u64), usize> =
            drained.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        let mut acc = vec![0u8; size];
        for (i, &(window_id, key)) in drained.iter().enumerate() {
            acc.copy_from_slice(value_of(i));
            for s in 1..slices {
                let sibling = (window_id + s, key);
                if let Some(other) = at
                    .get(&sibling)
                    .map(|&j| value_of(j))
                    .or_else(|| ssb.local_get(pack_key(sibling.0, sibling.1)))
                {
                    merge(&mut acc, other);
                    cpu += merge_ns;
                }
            }
            cpu += finish(TriggeredValue {
                window_id,
                key,
                data: TriggeredData::Fixed(&acc),
            });
        }
        cpu
    }
}

impl Process for SlashWorker {
    fn step(&mut self, sim: &mut Sim, _me: ProcId) -> Step {
        let shared = Rc::clone(&self.shared);
        let mut sh = shared.borrow_mut();
        if sh.finished || sh.crashed || sh.halted {
            return Step::Done;
        }
        let mut cpu = 0.0;
        let mut mem_bytes = 0u64;
        let mut batch_records = 0u64;
        // Named cost segments of this step's busy window, for stage
        // attribution (Stage::Source / SsbApply / WindowClose /
        // EpochMerge / ResultEmit). They sum to `cpu`.
        let mut seg_source = 0.0;
        let mut seg_apply = 0.0;
        let mut seg_close = 0.0;
        let mut seg_merge = 0.0;
        let mut seg_emit = 0.0;

        // (1) RDMA coroutine: ship/merge state deltas.
        let (sent, merged) = match sh.ssb.pump(sim) {
            Ok(v) => v,
            Err(e) => {
                // Faulted channels are already filtered inside the SSB;
                // anything surfacing here is a decode bug. Flight-record
                // it and keep the worker alive so the run stays
                // inspectable instead of tearing down the simulation. A
                // rejected chunk was recorded by the receiver that caught
                // it and is reported again by every later pump: one dump,
                // not one per step.
                if !matches!(e, slash_state::StateError::Decode(_)) {
                    sh.obs
                        .record_failure("delta channel failure", &format!("{e:?}"));
                }
                (0, 0)
            }
        };
        if sent + merged > 0 {
            seg_merge =
                sent as f64 * self.cost.post_wr_ns + merged as f64 * self.cost.merge_entry_ns;
            cpu += seg_merge;
            sh.metrics
                .instr(instr::MERGE * merged + instr::QUEUE_OP * sent);
            sh.metrics.charge(
                CostCategory::MemoryBound,
                merged as f64 * self.cost.merge_entry_ns,
            );
            sh.metrics
                .charge(CostCategory::Retiring, sent as f64 * self.cost.post_wr_ns);
        }

        // (2) Compute coroutine: one input batch. A paced source may
        // withhold records (the curve has not released them yet); the
        // worker then idles until the next release instant.
        let was_combined = self.hotpath.combined();
        let mut paced_wait: Option<SimTime> = None;
        let poll = self.source.poll_range(sim.now());
        if let crate::source::SourcePoll::Batch(range) = poll {
            // Task acquisition (shared-queue contention for engines that
            // configure it; zero for Slash's per-worker queues).
            if self.cost.task_queue_ns > 0.0 {
                cpu += self.cost.task_queue_ns;
                seg_source += self.cost.task_queue_ns;
                sh.metrics
                    .charge(CostCategory::CoreBound, self.cost.task_queue_ns);
                sh.metrics.instr(instr::QUEUE_OP);
            }
            let (pipeline_ns, apply_ns, m, n, last_ts) = if sh.fwd.is_some() {
                self.process_batch_forwarding(&mut sh, range)
            } else {
                self.process_batch(&mut sh, range)
            };
            cpu += pipeline_ns + apply_ns;
            seg_source += pipeline_ns;
            seg_apply += apply_ns;
            mem_bytes += m;
            batch_records = n;
            sh.records += n;
            sh.worker_wm[self.widx] = sh.worker_wm[self.widx].max(last_ts);
            sh.worker_pos[self.widx] = self.source.position();
            let wm = sh.node_watermark();
            sh.ssb.note_progress(wm);
            // Epoch pacing: by update volume, plus ahead-of-time when the
            // node watermark crosses a window boundary (§7.2.2).
            let bucket = self.plan.window().assign(wm);
            let closed = if self.is_trigger && bucket > self.last_epoch_bucket {
                self.last_epoch_bucket = bucket;
                sh.ssb.close_epoch(sim).map(Some)
            } else {
                sh.ssb.maybe_close_epoch(sim)
            };
            self.charge_epoch_close(&mut sh, closed, &mut cpu, &mut seg_close, &mut mem_bytes);
        } else if let crate::source::SourcePoll::NotReady(at) = poll {
            paced_wait = Some(at);
        } else if !self.source_done {
            // On forwarding runs the end-of-stream watermark is deferred:
            // peers may still forward records here until every source is
            // done and this inbox has drained, so advertising MAX now
            // would be a lie the floor could not fully retract.
            let fwd_quiesced = match &sh.fwd {
                None => true,
                Some(f) => {
                    if !self.fwd_done_noted {
                        self.fwd_done_noted = true;
                        f.note_source_done(self.node);
                    }
                    f.all_sources_done() && f.inbox_empty(self.node)
                }
            };
            if fwd_quiesced {
                self.source_done = true;
                sh.worker_wm[self.widx] = u64::MAX;
                let wm = sh.node_watermark();
                sh.ssb.note_progress(wm);
                sh.last_ingest = sim.now();
                if wm == u64::MAX {
                    // Last worker of this node: final epoch releases all
                    // remaining windows.
                    match sh.ssb.close_epoch(sim) {
                        Ok(_) => crate::recovery::on_epoch_closed(&mut sh),
                        Err(e) => sh.obs.record_failure("final epoch", &format!("{e:?}")),
                    }
                    self.note_fwd_close(&sh);
                }
            }
        }

        // (2b) Forwarded-record inbox: drain a few batches through the
        // same hot path (receivers salt split keys to their own replica
        // sub-keys, so contributions still route to the canonical
        // leader). Byte-threshold epochs may come due from the applied
        // updates.
        let mut fwd_records = 0u64;
        if sh.fwd.is_some() {
            let (p, a, m, n) = self.drain_forwarded(&mut sh);
            if n > 0 {
                cpu += p + a;
                seg_source += p;
                seg_apply += a;
                mem_bytes += m;
                batch_records += n;
                fwd_records = n;
                let closed = sh.ssb.maybe_close_epoch(sim);
                self.charge_epoch_close(&mut sh, closed, &mut cpu, &mut seg_close, &mut mem_bytes);
            }
        }

        // The write combiner turning itself off is a run-shaping event:
        // one counter and one trace instant, so nobody has to infer it
        // from fold counts.
        if let (true, Some((survivors, distinct))) = (was_combined, self.hotpath.combiner_off()) {
            sh.metrics.note_combiner_off();
            sh.obs.instant(
                Cat::Operator,
                "combiner_off",
                self.node as u32,
                self.widx as u32,
                sim.now(),
                &[("survivors", survivors), ("distinct", distinct)],
            );
        }

        // (3) Trigger duty.
        if self.is_trigger {
            seg_emit += self.run_triggers(&mut sh);
            // Completion: every executor reached the end-of-stream
            // watermark, all our deltas are out, and (forwarding runs)
            // every forwarded contribution is confirmed merged.
            if sh.ssb.vclock().min() == u64::MAX
                && sh.ssb.flushed()
                && !sh.ssb.dirty()
                && sh.fwd.as_ref().is_none_or(|f| f.floor() == u64::MAX)
            {
                seg_emit += self.run_triggers(&mut sh); // final sweep
                sh.finished = true;
                let (node, widx) = (self.node as u32, self.widx as u32);
                sh.obs
                    .instant(Cat::Operator, "finished", node, widx, sim.now(), &[]);
            }
            cpu += seg_emit;
        }

        if (self.source_done || self.fwd_done_noted) && cpu == 0.0 {
            if sh.finished {
                return Step::Done;
            }
            // End-of-stream drain: waiting for peers' final epochs. Only
            // the poll instructions are charged — this phase is not part
            // of the steady-state execution the paper's breakdown samples.
            sh.metrics
                .charge(CostCategory::CoreBound, self.cost.poll_empty_ns * 16.0);
            sh.metrics.instr(instr::POLL * 16);
            return Step::Yield(SimTime::from_nanos(2_000));
        }
        if cpu == 0.0 {
            if let Some(at) = paced_wait {
                // Rate-limited idle: sleep until the curve releases the
                // next record. Only poll instructions are charged — the
                // worker is genuinely idle, not busy-waiting.
                sh.metrics
                    .charge(CostCategory::CoreBound, self.cost.poll_empty_ns * 4.0);
                sh.metrics.instr(instr::POLL * 4);
                let wait = at.max(sim.now() + SimTime::from_nanos(500)) - sim.now();
                return Step::Yield(wait);
            }
        }

        // Memory-bandwidth pacing: the batch's memory traffic must fit
        // through the node's shared link.
        let now = sim.now();
        let cpu_time = CostModel::to_time(cpu);
        let busy = if mem_bytes > 0 {
            sh.metrics.add_mem_bytes(mem_bytes);
            let (_start, end) = sh.mem.borrow_mut().reserve(now, mem_bytes);
            let mem_time = end - now;
            if mem_time > cpu_time {
                // The extra wait is a memory stall.
                sh.metrics.charge(
                    CostCategory::MemoryBound,
                    (mem_time - cpu_time).as_nanos() as f64,
                );
                mem_time
            } else {
                cpu_time
            }
        } else {
            cpu_time
        };
        if !self.source_done || fwd_records > 0 {
            // Forwarded batches processed after our own source drained
            // are still ingest work: completion-time honesty for the
            // throughput the bench reports.
            sh.last_ingest = now + busy;
        }
        // Trace the batch as an operator-pipeline span and sample the
        // per-record latency it implies (virtual time, so deterministic).
        if batch_records > 0 && sh.obs.is_enabled() {
            let pid = self.node as u32;
            let tid = self.widx as u32;
            sh.obs.span(
                Cat::Operator,
                "batch",
                pid,
                tid,
                now,
                now + busy,
                &[("records", batch_records), ("mem_bytes", mem_bytes)],
            );
            sh.obs.hist_record(
                "record_latency_ns",
                &sh.obs_label,
                busy.as_nanos() / batch_records.max(1),
            );
            // Stage-segmented attribution: partition the busy window into
            // its named cost components, in record-lifecycle order. The
            // memory-stall remainder (busy - cpu) is charged to the SSB
            // apply stage, whose state traffic dominates the link. The
            // segments partition [now, now+busy] exactly, so the sum of
            // the per-record stage values never exceeds the end-to-end
            // record latency (integer truncation only).
            let stall = busy.as_nanos().saturating_sub(cpu_time.as_nanos()) as f64;
            let segs = [
                (Stage::Source, seg_source),
                (Stage::SsbApply, seg_apply + stall),
                (Stage::WindowClose, seg_close),
                (Stage::EpochMerge, seg_merge),
                (Stage::ResultEmit, seg_emit),
            ];
            let mut acc = 0.0;
            let mut start = now;
            let last = segs.len() - 1;
            for (i, (stage, ns)) in segs.iter().enumerate() {
                acc += ns;
                let end = if i == last {
                    now + busy
                } else {
                    (now + CostModel::to_time(acc)).min(now + busy)
                };
                if *stage == Stage::SsbApply {
                    // The SSB apply span belongs to the state layer: the
                    // backend emits it so apply attribution stays next to
                    // the code being attributed.
                    sh.ssb.record_apply_span(tid, start, end, batch_records);
                } else {
                    sh.obs.span_open(*stage, pid, tid, start);
                    sh.obs.span_close(*stage, pid, tid, end, batch_records);
                }
                start = end;
            }
        }
        Step::Yield(busy.max(SimTime::from_nanos(1)))
    }

    fn name(&self) -> &str {
        "slash-worker"
    }
}

/// Records-processed accessor used by the cluster driver.
pub fn node_records(shared: &Rc<RefCell<NodeShared>>) -> u64 {
    shared.borrow().records
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instr_constants_match_table1_anchors() {
        // Slash hot path: pipeline + RMW ≈ 42 instructions (Table 1).
        assert_eq!(instr::PIPELINE + instr::RMW, 42);
        // UpPar sender on YSB: every record runs the pipeline, one third
        // survive the filter and get partitioned; Table 1 reports ~166
        // instructions per record on that path.
        let per_source_record =
            instr::PIPELINE as f64 + (instr::PARTITION + instr::QUEUE_OP) as f64 / 3.0;
        assert!(
            (110.0..=170.0).contains(&per_source_record),
            "{per_source_record}"
        );
    }

    #[test]
    fn count_render_via_counter() {
        use slash_state::CounterCrdt;
        let mut v = vec![0u8; 8];
        CounterCrdt::add(&mut v, 7);
        assert_eq!(CounterCrdt::get(&v), 7);
    }
}
