//! The generic partitioned scale-out engine (UpPar and Flink share it).
//!
//! Classic exchange-based execution (paper §2.2, "scale-out execution"):
//! on every node, half the worker threads run the stateless pipeline
//! prefix and **hash-re-partition** records across the cluster; the other
//! half receive partitioned records, keep *local* co-partitioned window
//! state, and trigger windows on per-lane watermarks. This is exactly the
//! design whose costs the paper dissects: partitioning instructions,
//! queue handovers, data-dependent staging writes, incast at the
//! receivers, and skew-induced load imbalance.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use slash_core::worker::instr;
use slash_core::{CostCategory, CostModel, EngineMetrics, QueryPlan, Sink, SinkResult};
use slash_desim::{Link, ProcId, Process, Sim, SimTime, Step};
use slash_net::{create_channel, socket_pair, ChannelConfig, SocketConfig};
use slash_rdma::{Fabric, FabricConfig, NodeId};
use slash_state::backend::TriggeredData;
use slash_state::hash::hash_u64;
use slash_state::{pack_key, Partition};

use crate::exchange::{ExchangeMsg, RxChan, TxChan};
use crate::sut::CommonReport;

/// Which transport the exchange runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// One-sided RDMA channels — the lightweight integration (UpPar).
    Rdma,
    /// Socket/IPoIB channels — the plug-and-play integration (Flink).
    Socket,
}

/// Configuration of a partitioned-engine run.
#[derive(Debug, Clone, Copy)]
pub struct PartitionedConfig {
    /// Executor nodes.
    pub nodes: usize,
    /// Threads per node; split evenly into senders and receivers (the
    /// paper: "they use half the threads to execute the filter and
    /// projection and the second half for the window operator").
    pub workers_per_node: usize,
    /// Cost model (shared with Slash for apples-to-apples comparison).
    pub cost: CostModel,
    /// Fabric configuration.
    pub fabric: FabricConfig,
    /// RDMA exchange channel configuration.
    pub channel: ChannelConfig,
    /// Socket configuration.
    pub socket: SocketConfig,
    /// Transport selection.
    pub transport: Transport,
    /// Multiplier on every CPU cost (1.0 native; >1 managed runtime).
    pub runtime_factor: f64,
    /// Records per scheduling batch on the senders.
    pub batch_records: usize,
    /// Retain full results.
    pub collect_results: bool,
    /// Virtual-time safety valve.
    pub max_virtual_time: SimTime,
}

impl PartitionedConfig {
    /// Defaults for `nodes × workers`.
    pub fn new(nodes: usize, workers_per_node: usize, transport: Transport) -> Self {
        assert!(workers_per_node >= 2, "need at least 1 sender + 1 receiver");
        PartitionedConfig {
            nodes,
            workers_per_node,
            cost: CostModel::default(),
            fabric: FabricConfig::default(),
            channel: ChannelConfig::default(),
            socket: SocketConfig::default(),
            transport,
            runtime_factor: 1.0,
            batch_records: 512,
            collect_results: false,
            max_virtual_time: SimTime::from_secs(3600),
        }
    }

    fn senders_per_node(&self) -> usize {
        (self.workers_per_node / 2).max(1)
    }

    fn receivers_per_node(&self) -> usize {
        (self.workers_per_node - self.senders_per_node()).max(1)
    }
}

/// Node-shared state.
struct NodeShared {
    sender_metrics: EngineMetrics,
    receiver_metrics: EngineMetrics,
    mem: Link,
    sink: Sink,
    records: u64,
    last_ingest: SimTime,
    receivers_done: usize,
    receivers_total: usize,
}

impl NodeShared {
    fn finished(&self) -> bool {
        self.receivers_done == self.receivers_total
    }
}

// ---------------------------------------------------------------------
// Sender (partitioner) thread.
// ---------------------------------------------------------------------

struct SenderProc {
    lane: u32,
    shared: Rc<RefCell<NodeShared>>,
    tx: Rc<Vec<TxChan>>, // indexed by global consumer
    source: slash_core::MemorySource,
    plan: Rc<QueryPlan>,
    cost: CostModel,
    rf: f64,
    consumers: usize,
    staging: Vec<Vec<u8>>,
    staging_cap: usize,
    pending: VecDeque<(usize, ExchangeMsg)>,
    scratch: Vec<u8>,
    last_bucket: u64,
    done: bool,
}

impl SenderProc {
    fn flush_staging(&mut self, consumer: usize) {
        if self.staging[consumer].is_empty() {
            return;
        }
        let records = std::mem::take(&mut self.staging[consumer]);
        self.pending.push_back((
            consumer,
            ExchangeMsg::Data {
                lane: self.lane,
                records,
            },
        ));
    }

    fn flush_all(&mut self) {
        for c in 0..self.consumers {
            self.flush_staging(c);
        }
    }

    /// Try to push pending messages; returns CPU ns spent and whether the
    /// backlog drained.
    fn drain_pending(&mut self, sim: &mut Sim) -> (f64, bool) {
        let mut cpu = 0.0;
        while let Some((c, msg)) = self.pending.front() {
            let chan = &self.tx[*c];
            if chan.try_send(sim, msg, &mut self.scratch) {
                cpu += self.cost.post_wr_ns * self.rf;
                cpu += chan.take_cpu_cost().as_nanos() as f64;
                self.pending.pop_front();
            } else {
                return (cpu, false);
            }
        }
        (cpu, true)
    }
}

impl Process for SenderProc {
    fn step(&mut self, sim: &mut Sim, _me: ProcId) -> Step {
        if self.done {
            return Step::Done;
        }
        let shared = Rc::clone(&self.shared);
        let mut sh = shared.borrow_mut();
        let mut cpu = 0.0;
        let mut mem_bytes = 0u64;

        // Backpressure: nothing new until the backlog drains.
        let (c, drained) = self.drain_pending(sim);
        cpu += c;
        if !drained {
            // The whole stall is pause-loop waiting (core-bound time in
            // the paper's top-down terms).
            sh.sender_metrics.charge(CostCategory::CoreBound, 1_500.0);
            sh.sender_metrics.instr(instr::POLL * 8);
            return Step::Yield(SimTime::from_nanos(1_500));
        }

        if let Some((a, b)) = self.source.next_range() {
            let data = Rc::clone(self.source.data());
            let batch = &data[a..b];
            let input = self.plan.input().clone();
            let schema = input.schema;
            let window = self.plan.window();
            let rf = self.rf;
            let mut n = 0u64;
            let mut staged_bytes = 0u64;
            let mut last_ts = 0;
            for rec in batch.chunks_exact(schema.size) {
                n += 1;
                let ts = schema.ts(rec);
                last_ts = ts;
                cpu += self.cost.record_pipeline_ns * rf;
                sh.sender_metrics.instr(instr::PIPELINE);
                // Watermark cadence: flush + broadcast on bucket crossing.
                let bucket = window.assign(ts);
                if bucket > self.last_bucket {
                    self.last_bucket = bucket;
                    self.flush_all();
                    let wm = bucket * window.granule();
                    for cc in 0..self.consumers {
                        self.pending.push_back((
                            cc,
                            ExchangeMsg::Watermark {
                                lane: self.lane,
                                wm,
                            },
                        ));
                    }
                }
                if !input.keep(rec) {
                    continue;
                }
                // The partitioning step: hash + destination select.
                let consumer = (hash_u64(schema.key(rec)) % self.consumers as u64) as usize;
                cpu += self.cost.partition_ns * rf;
                sh.sender_metrics.instr(instr::PARTITION);
                // Data-dependent staging write (the scattered writes the
                // paper blames for the sender's back-end stalls).
                self.staging[consumer].extend_from_slice(rec);
                cpu += schema.size as f64 * self.cost.copy_per_byte_ns * rf
                    + self.cost.queue_op_ns * rf;
                sh.sender_metrics.instr(instr::QUEUE_OP);
                staged_bytes += schema.size as u64;
                if self.staging[consumer].len() + schema.size > self.staging_cap {
                    self.flush_staging(consumer);
                }
            }
            let _ = last_ts;
            sh.records += n;
            mem_bytes += (b - a) as u64 + 2 * staged_bytes; // read + copy

            // Top-down attribution per the paper's Fig. 9 discussion:
            // partitioning is front-end-heavy with branch mispredictions.
            let part_ns = self.cost.partition_ns * rf * n as f64;
            sh.sender_metrics
                .charge(CostCategory::FrontEnd, part_ns * 0.6);
            sh.sender_metrics
                .charge(CostCategory::BadSpeculation, part_ns * 0.25);
            sh.sender_metrics.charge(
                CostCategory::Retiring,
                self.cost.record_pipeline_ns * rf * n as f64 + part_ns * 0.15,
            );
            sh.sender_metrics.charge(
                CostCategory::MemoryBound,
                (self.cost.copy_per_byte_ns * rf) * staged_bytes as f64,
            );
            sh.sender_metrics.add_records(n);
            let (c2, _) = self.drain_pending(sim);
            cpu += c2;
        } else {
            // End of stream: flush everything, announce lane completion.
            self.flush_all();
            for cc in 0..self.consumers {
                self.pending
                    .push_back((cc, ExchangeMsg::LaneDone { lane: self.lane }));
            }
            let (c2, drained) = self.drain_pending(sim);
            cpu += c2;
            if drained {
                self.done = true;
                return Step::Done;
            }
        }

        let cpu_time = CostModel::to_time(cpu);
        let busy = if mem_bytes > 0 {
            sh.sender_metrics.add_mem_bytes(mem_bytes);
            let now = sim.now();
            let (_s, end) = sh.mem.reserve(now, mem_bytes);
            let mem_time = end - now;
            if mem_time > cpu_time {
                sh.sender_metrics.charge(
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
        Step::Yield(busy.max(SimTime::from_nanos(1)))
    }

    fn name(&self) -> &str {
        "partitioned-sender"
    }
}

// ---------------------------------------------------------------------
// Receiver (processor) thread.
// ---------------------------------------------------------------------

struct ReceiverProc {
    shared: Rc<RefCell<NodeShared>>,
    rx: Vec<RxChan>,
    plan: Rc<QueryPlan>,
    cost: CostModel,
    rf: f64,
    state: Partition,
    lane_wm: Vec<u64>,
    done_lanes: usize,
    total_lanes: usize,
    done: bool,
}

impl ReceiverProc {
    fn process_records(&mut self, sh: &mut NodeShared, records: &[u8]) -> (f64, u64) {
        let plan = Rc::clone(&self.plan);
        let schema = plan.input().schema;
        let window = plan.window();
        let ws = self.state.resident_bytes() as u64;
        let access = self.cost.cache.random_access(ws);
        let mut cpu = 0.0;
        let mut n = 0u64;
        match &*plan {
            QueryPlan::Aggregate { agg, .. } => {
                for rec in records.chunks_exact(schema.size) {
                    n += 1;
                    let key = pack_key(window.assign(schema.ts(rec)), schema.key(rec));
                    self.state.rmw(key, |v| agg.update(&schema, rec, v));
                    cpu += (self.cost.queue_op_ns + self.cost.rmw_base_ns) * self.rf
                        + access.penalty_ns;
                    sh.receiver_metrics.instr(instr::QUEUE_OP + instr::RMW);
                }
            }
            QueryPlan::Join {
                side_off,
                retain_bytes,
                ..
            } => {
                let mut elem = vec![0u8; 1 + retain_bytes];
                for rec in records.chunks_exact(schema.size) {
                    n += 1;
                    let side = schema.field_u64(rec, *side_off);
                    elem[0] = side as u8;
                    let take = (*retain_bytes).min(schema.size);
                    elem[1..1 + take].copy_from_slice(&rec[..take]);
                    let key = pack_key(window.assign(schema.ts(rec)), schema.key(rec));
                    self.state.append(key, &elem[..1 + take]);
                    cpu += (self.cost.queue_op_ns + self.cost.append_base_ns) * self.rf
                        + access.penalty_ns;
                    sh.receiver_metrics.instr(instr::QUEUE_OP + instr::APPEND);
                }
            }
        }
        sh.receiver_metrics.add_cache_misses(
            access.l1_miss * n as f64,
            access.l2_miss * n as f64,
            access.llc_miss * n as f64,
        );
        sh.receiver_metrics.add_records(n);
        sh.receiver_metrics.charge(
            CostCategory::MemoryBound,
            (self.cost.rmw_base_ns * self.rf + access.penalty_ns) * n as f64,
        );
        sh.receiver_metrics.charge(
            CostCategory::Retiring,
            self.cost.queue_op_ns * self.rf * n as f64,
        );
        let mem = records.len() as u64 + (access.mem_bytes() * n as f64) as u64;
        (cpu, mem)
    }

    fn run_triggers(&mut self, sh: &mut NodeShared) -> f64 {
        let wm = *self.lane_wm.iter().min().expect("lanes > 0");
        let plan = Rc::clone(&self.plan);
        let window = plan.window();
        let (merge_ns, rf) = (self.cost.merge_entry_ns * self.rf, self.rf);
        let mut cpu = 0.0;
        self.state.drain_ready(
            |wid| window.ready(wid, wm),
            |tv| {
                cpu += merge_ns;
                match (&*plan, tv.data) {
                    (QueryPlan::Aggregate { agg, .. }, TriggeredData::Fixed(v)) => {
                        sh.sink.push(SinkResult::Agg {
                            window_id: tv.window_id,
                            key: tv.key,
                            value: agg.render(v),
                        });
                    }
                    (QueryPlan::Join { .. }, TriggeredData::Elements(elems)) => {
                        cpu += 2.0 * rf * elems.len() as f64;
                        sh.sink.push(SinkResult::Join {
                            window_id: tv.window_id,
                            key: tv.key,
                            pairs: slash_core::join::pair_count(elems, &window),
                        });
                    }
                    _ => unreachable!("plan/state mismatch"),
                }
            },
        );
        cpu
    }
}

impl Process for ReceiverProc {
    fn step(&mut self, sim: &mut Sim, _me: ProcId) -> Step {
        if self.done {
            return Step::Done;
        }
        let shared = Rc::clone(&self.shared);
        let mut sh = shared.borrow_mut();
        let mut cpu = 0.0;
        let mut mem_bytes = 0u64;
        let mut got_data = false;
        let mut progress = false;

        // Poll every inbound channel (the multi-channel polling the paper
        // identifies as the receivers' core-bound time). Consumption per
        // step is CPU-budget-bounded: credits only return for what the
        // receiver actually keeps up with, so backpressure — and skewed
        // hot-receiver collapse — propagates to the senders for real.
        const STEP_BUDGET_NS: f64 = 12_000.0;
        'sweep: loop {
            let mut any = false;
            for ch in 0..self.rx.len() {
                if cpu >= STEP_BUDGET_NS {
                    break 'sweep;
                }
                let msg = self.rx[ch].try_recv(sim);
                cpu += self.rx[ch].take_cpu_cost().as_nanos() as f64;
                match msg {
                    Some(ExchangeMsg::Data { records, .. }) => {
                        let (c, m) = self.process_records(&mut sh, &records);
                        cpu += c;
                        mem_bytes += m;
                        got_data = true;
                        progress = true;
                        any = true;
                    }
                    Some(ExchangeMsg::Watermark { lane, wm }) => {
                        let e = &mut self.lane_wm[lane as usize];
                        *e = (*e).max(wm);
                        progress = true;
                        any = true;
                    }
                    Some(ExchangeMsg::LaneDone { lane }) => {
                        if self.lane_wm[lane as usize] != u64::MAX {
                            self.lane_wm[lane as usize] = u64::MAX;
                            self.done_lanes += 1;
                        }
                        progress = true;
                        any = true;
                    }
                    None => {
                        cpu += self.cost.poll_empty_ns;
                        sh.receiver_metrics
                            .charge(CostCategory::CoreBound, self.cost.poll_empty_ns);
                        sh.receiver_metrics.instr(instr::POLL);
                    }
                }
            }
            if !any {
                break;
            }
        }

        cpu += self.run_triggers(&mut sh);

        if got_data {
            sh.last_ingest = sim.now().max(sh.last_ingest);
        }
        if self.done_lanes == self.total_lanes && self.state.key_count() == 0 {
            self.done = true;
            sh.receivers_done += 1;
            return Step::Done;
        }

        let cpu_time = CostModel::to_time(cpu);
        let busy = if mem_bytes > 0 {
            sh.receiver_metrics.add_mem_bytes(mem_bytes);
            let now = sim.now();
            let (_s, end) = sh.mem.reserve(now, mem_bytes);
            (end - now).max(cpu_time)
        } else {
            cpu_time
        };
        if !progress {
            // Idle poll loop: the receiver spins on its channels waiting
            // for the (slower) senders — core-bound time.
            let idle = busy.max(SimTime::from_nanos(1_500));
            sh.receiver_metrics
                .charge(CostCategory::CoreBound, idle.as_nanos() as f64);
            return Step::Yield(idle);
        }
        Step::Yield(busy.max(SimTime::from_nanos(1)))
    }

    fn name(&self) -> &str {
        "partitioned-receiver"
    }
}

// ---------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------

/// Run a query on the partitioned engine. Partitions are node-major per
/// *sender* thread: `partitions[node * senders_per_node + s]`.
pub fn run_partitioned(
    plan: QueryPlan,
    partitions: Vec<Rc<Vec<u8>>>,
    cfg: PartitionedConfig,
) -> CommonReport {
    let senders = cfg.senders_per_node();
    let receivers = cfg.receivers_per_node();
    assert_eq!(
        partitions.len(),
        cfg.nodes * senders,
        "one partition per sender thread"
    );
    let n_consumers = cfg.nodes * receivers;
    let n_lanes = cfg.nodes * senders;

    let mut sim = Sim::new();
    let fabric = Fabric::new(cfg.fabric);
    let node_ids: Vec<NodeId> = fabric.add_nodes(cfg.nodes);
    let plan = Rc::new(plan);
    let desc = plan.descriptor();

    // Channels: one per (source node, global consumer).
    let mut rx_chans: Vec<Vec<RxChan>> = (0..n_consumers).map(|_| Vec::new()).collect();
    let mut tx_chans: Vec<Vec<TxChan>> = (0..cfg.nodes).map(|_| Vec::new()).collect();
    for src in 0..cfg.nodes {
        for (consumer, rx_lanes) in rx_chans.iter_mut().enumerate() {
            let dst = consumer / receivers;
            match cfg.transport {
                Transport::Rdma => {
                    let (tx, rx) =
                        create_channel(&fabric, node_ids[src], node_ids[dst], cfg.channel);
                    tx_chans[src].push(TxChan::Rdma(Rc::new(RefCell::new(tx))));
                    rx_lanes.push(RxChan::Rdma(rx));
                }
                Transport::Socket => {
                    let (tx, rx) = socket_pair(&fabric, node_ids[src], node_ids[dst], cfg.socket);
                    tx_chans[src].push(TxChan::Socket(Rc::new(RefCell::new(tx))));
                    rx_lanes.push(RxChan::Socket(rx));
                }
            }
        }
    }

    let shareds: Vec<Rc<RefCell<NodeShared>>> = (0..cfg.nodes)
        .map(|_| {
            Rc::new(RefCell::new(NodeShared {
                sender_metrics: EngineMetrics::default(),
                receiver_metrics: EngineMetrics::default(),
                mem: Link::new(cfg.cost.mem_bandwidth),
                sink: if cfg.collect_results {
                    Sink::collecting()
                } else {
                    Sink::counting()
                },
                records: 0,
                last_ingest: SimTime::ZERO,
                receivers_done: 0,
                receivers_total: receivers,
            }))
        })
        .collect();

    for (node, txs) in tx_chans.into_iter().enumerate() {
        let txs = Rc::new(txs);
        for s in 0..senders {
            let lane = (node * senders + s) as u32;
            let part = Rc::clone(&partitions[node * senders + s]);
            let source =
                slash_core::MemorySource::new(part, plan.input().schema, cfg.batch_records);
            let staging_cap =
                txs[0].data_capacity().min(64 * 1024) / plan.record_size() * plan.record_size();
            sim.spawn(SenderProc {
                lane,
                shared: Rc::clone(&shareds[node]),
                tx: Rc::clone(&txs),
                source,
                plan: Rc::clone(&plan),
                cost: cfg.cost,
                rf: cfg.runtime_factor,
                consumers: n_consumers,
                staging: (0..n_consumers).map(|_| Vec::new()).collect(),
                staging_cap: staging_cap.max(plan.record_size()),
                pending: VecDeque::new(),
                scratch: Vec::new(),
                last_bucket: 0,
                done: false,
            });
        }
    }
    for (consumer, rx) in rx_chans.into_iter().enumerate() {
        let node = consumer / receivers;
        sim.spawn(ReceiverProc {
            shared: Rc::clone(&shareds[node]),
            rx,
            plan: Rc::clone(&plan),
            cost: cfg.cost,
            rf: cfg.runtime_factor,
            state: Partition::new(consumer, desc),
            lane_wm: vec![0; n_lanes],
            done_lanes: 0,
            total_lanes: n_lanes,
            done: false,
        });
    }

    loop {
        if shareds.iter().all(|s| s.borrow().finished()) {
            break;
        }
        assert!(
            sim.now() <= cfg.max_virtual_time,
            "partitioned run exceeded the virtual-time budget"
        );
        assert!(
            sim.pending_events() > 0,
            "partitioned engine deadlocked (likely exchange backpressure cycle)"
        );
        let horizon = sim.now() + SimTime::from_millis(10);
        sim.run_until(horizon);
    }

    let mut report = CommonReport {
        completion_time: sim.now(),
        net_tx_bytes: fabric.total_tx_bytes(),
        ..Default::default()
    };
    for sh in &shareds {
        let sh = sh.borrow();
        report.records += sh.records;
        report.processing_time = report.processing_time.max(sh.last_ingest);
        report.emitted += sh.sink.emitted;
        report.total_pairs += sh.sink.total_pairs;
        report.results.extend(sh.sink.results.iter().cloned());
        report.sender_metrics.absorb(&sh.sender_metrics);
        report.receiver_metrics.absorb(&sh.receiver_metrics);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use slash_core::{AggSpec, RecordSchema, StreamDef, WindowAssigner};

    fn gen(n: u64, dt: u64, keys: u64) -> Rc<Vec<u8>> {
        let mut buf = Vec::with_capacity((n * 16) as usize);
        for i in 0..n {
            buf.extend_from_slice(&(1 + i * dt).to_le_bytes());
            buf.extend_from_slice(&(i % keys).to_le_bytes());
        }
        Rc::new(buf)
    }

    fn count_plan(window: u64) -> QueryPlan {
        QueryPlan::Aggregate {
            input: StreamDef::new(RecordSchema::plain(16)),
            window: WindowAssigner::Tumbling { size: window },
            agg: AggSpec::Count,
        }
    }

    fn check_counts(report: &CommonReport, expected_total: u64) {
        let total: f64 = report
            .results
            .iter()
            .map(|r| match r {
                SinkResult::Agg { value, .. } => *value,
                _ => 0.0,
            })
            .sum();
        assert_eq!(total as u64, expected_total);
        let mut seen = std::collections::HashSet::new();
        for r in &report.results {
            if let SinkResult::Agg { window_id, key, .. } = r {
                assert!(seen.insert((*window_id, *key)), "duplicate trigger");
            }
        }
    }

    #[test]
    fn uppar_counts_match_sequential_semantics() {
        let mut cfg = PartitionedConfig::new(2, 2, Transport::Rdma);
        cfg.collect_results = true;
        let report = run_partitioned(count_plan(100), vec![gen(1000, 1, 8), gen(1000, 1, 8)], cfg);
        assert_eq!(report.records, 2000);
        check_counts(&report, 2000);
        assert!(
            report.net_tx_bytes > 2000 * 16,
            "records must cross the wire"
        );
    }

    #[test]
    fn flink_counts_match_sequential_semantics() {
        let mut cfg = PartitionedConfig::new(2, 2, Transport::Socket);
        cfg.runtime_factor = 3.5;
        cfg.collect_results = true;
        let report = run_partitioned(count_plan(100), vec![gen(500, 1, 8), gen(500, 1, 8)], cfg);
        assert_eq!(report.records, 1000);
        check_counts(&report, 1000);
    }

    #[test]
    fn flink_is_slower_than_uppar_on_identical_input() {
        let run = |transport, rf| {
            let mut cfg = PartitionedConfig::new(2, 4, transport);
            cfg.runtime_factor = rf;
            run_partitioned(count_plan(1000), vec![gen(3000, 1, 64); 4], cfg).throughput()
        };
        let uppar = run(Transport::Rdma, 1.0);
        let flink = run(Transport::Socket, 3.5);
        assert!(
            uppar > 2.0 * flink,
            "uppar {uppar:.0} rec/s vs flink {flink:.0} rec/s"
        );
    }

    #[test]
    fn join_pairs_on_partitioned_engine() {
        let mk = |n: u64, side: u64| -> Rc<Vec<u8>> {
            let mut buf = Vec::new();
            for i in 0..n {
                buf.extend_from_slice(&(1 + i * 10).to_le_bytes());
                buf.extend_from_slice(&(i % 2).to_le_bytes());
                buf.extend_from_slice(&side.to_le_bytes());
                buf.extend_from_slice(&0u64.to_le_bytes());
            }
            Rc::new(buf)
        };
        let plan = QueryPlan::Join {
            input: StreamDef::new(RecordSchema::plain(32)),
            side_off: 16,
            window: WindowAssigner::Tumbling { size: 1 << 40 },
            retain_bytes: 16,
        };
        let mut cfg = PartitionedConfig::new(2, 2, Transport::Rdma);
        cfg.collect_results = true;
        let report = run_partitioned(plan, vec![mk(10, 0), mk(10, 1)], cfg);
        // Per key: 5 lefts × 5 rights = 25 pairs; 2 keys.
        assert_eq!(report.total_pairs, 50);
    }

    #[test]
    fn deterministic() {
        let run = || {
            let cfg = PartitionedConfig::new(2, 4, Transport::Rdma);
            let r = run_partitioned(count_plan(200), vec![gen(800, 2, 32); 4], cfg);
            (r.records, r.emitted, r.completion_time, r.net_tx_bytes)
        };
        assert_eq!(run(), run());
    }
}
