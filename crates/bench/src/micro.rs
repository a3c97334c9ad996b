//! The drill-down micro-harness (paper §8.3.2): producer instances stream
//! the RO workload to consumer instances over RDMA channels, either
//! **direct** (one producer thread → one consumer thread — Slash's
//! no-partitioning data flow) or **hash-fanout** (every producer thread →
//! every consumer thread by key hash — UpPar's exchange).
//!
//! Modeling note (recorded in EXPERIMENTS.md): the direct consumer folds
//! records into thread-local partial state with sequential, cache-friendly
//! accumulation (cheap per record), whereas the fanout consumer maintains
//! the authoritative co-partitioned hash table for its key range (index
//! probe + RMW per record). This asymmetry is the paper's own explanation
//! of the two designs' receiver costs (§8.3.3–8.3.4) and is what makes
//! UpPar's receivers the skew-sensitive bottleneck.

use std::cell::RefCell;
use std::rc::Rc;

use slash_core::{drive, CostCategory, CostModel, Driven, EngineMetrics, SLICE};
use slash_desim::{DetRng, ProcId, Process, Sim, SimTime, Step};
use slash_net::{create_channel, ChannelConfig, ChannelReceiver, ChannelSender, MsgFlags};
use slash_obs::Histogram;
use slash_rdma::{Fabric, FabricConfig};
use slash_state::hash::hash_u64;
use slash_workloads::{Uniform, Zipf};

/// Record size of the RO benchmark.
pub const RO_RECORD: usize = 16;

/// How producers route records to consumers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteMode {
    /// One producer thread → one consumer thread (Slash).
    Direct,
    /// Hash over all consumer threads (UpPar).
    HashFanout,
}

/// Key distribution of the generated records.
#[derive(Debug, Clone, Copy)]
pub enum KeyDist {
    /// Uniform over `n` keys.
    Uniform(u64),
    /// Zipf over `n` keys with exponent `z`.
    Zipf(u64, f64),
}

/// Micro-benchmark configuration.
#[derive(Debug, Clone, Copy)]
pub struct MicroConfig {
    /// Producer/consumer node pairs (1 pair = the paper's 2-server setup).
    pub pairs: usize,
    /// Threads per producer node (== consumer threads per consumer node).
    pub threads: usize,
    /// Channel buffer size (the Fig. 8a/8b sweep variable).
    pub buffer_size: usize,
    /// Channel credits (paper: c = 8).
    pub credits: usize,
    /// Return credits every `credit_batch` consumed buffers.
    pub credit_batch: usize,
    /// Routing.
    pub mode: RouteMode,
    /// Records each producer thread sends.
    pub records_per_thread: u64,
    /// Key distribution.
    pub keys: KeyDist,
    /// Cost model.
    pub cost: CostModel,
    /// Fabric.
    pub fabric: FabricConfig,
}

impl MicroConfig {
    /// The paper's drill-down defaults: 2 servers, RO records, c = 8.
    pub fn new(mode: RouteMode, threads: usize) -> Self {
        MicroConfig {
            pairs: 1,
            threads,
            buffer_size: 64 * 1024,
            credits: 8,
            credit_batch: 1,
            mode,
            records_per_thread: 200_000,
            keys: KeyDist::Uniform(100_000_000),
            cost: CostModel::default(),
            fabric: FabricConfig::default(),
        }
    }
}

/// Outcome of a micro-benchmark run.
#[derive(Debug)]
pub struct MicroReport {
    /// Payload bytes received by consumers.
    pub payload_bytes: u64,
    /// Records received.
    pub records: u64,
    /// Virtual time when the last consumer finished.
    pub elapsed: SimTime,
    /// Mean producer→consumer buffer latency.
    pub mean_latency: Option<SimTime>,
    /// Full producer→consumer buffer-latency distribution (tail quantiles
    /// via [`Histogram::quantile`]).
    pub latency: Histogram,
    /// Producer-side counters.
    pub sender_metrics: EngineMetrics,
    /// Consumer-side counters.
    pub receiver_metrics: EngineMetrics,
    /// Consumer with the most records (load-imbalance diagnostics).
    pub hottest_consumer_records: u64,
}

impl MicroReport {
    /// Goodput in GB/s of virtual time.
    pub fn throughput_gbs(&self) -> f64 {
        if self.elapsed == SimTime::ZERO {
            return 0.0;
        }
        self.payload_bytes as f64 / self.elapsed.as_secs_f64() / 1e9
    }
}

struct SharedStats {
    sender: EngineMetrics,
    receiver: EngineMetrics,
    consumer_records: Vec<u64>,
    payload_bytes: u64,
    latency: Histogram,
    finished_consumers: usize,
    last_finish: SimTime,
}

/// Per-record consumer cost: thread-local partial accumulation (direct) vs
/// authoritative partitioned hash table (fanout).
fn consumer_ns(cost: &CostModel, mode: RouteMode) -> f64 {
    match mode {
        RouteMode::Direct => 2.0,
        RouteMode::HashFanout => cost.rmw_base_ns,
    }
}

struct Producer {
    stats: Rc<RefCell<SharedStats>>,
    /// Outbound channels (1 for direct; all consumers for fanout).
    txs: Vec<Rc<RefCell<ChannelSender>>>,
    staging: Vec<Vec<u8>>,
    remaining: u64,
    rng: DetRng,
    keys: KeyDist,
    mode: RouteMode,
    cost: CostModel,
    payload_cap: usize,
    eos_pending: Vec<bool>,
}

impl Producer {
    fn sample_key(&mut self) -> u64 {
        match self.keys {
            KeyDist::Uniform(n) => Uniform::new(n).sample(&mut self.rng),
            KeyDist::Zipf(n, z) => Zipf::new(n, z).sample(&mut self.rng),
        }
    }

    /// Try to flush staging buffer `c`; true if flushed or empty.
    fn try_flush(&mut self, sim: &mut Sim, c: usize) -> bool {
        if self.staging[c].is_empty() {
            return true;
        }
        let mut tx = self.txs[c].borrow_mut();
        let buf = &self.staging[c];
        match tx.try_send(sim, MsgFlags::DATA, buf) {
            Ok(true) => {
                self.staging[c].clear();
                true
            }
            Ok(false) => false,
            Err(e) => panic!("channel error: {e}"),
        }
    }
}

impl Process for Producer {
    fn step(&mut self, sim: &mut Sim, _me: ProcId) -> Step {
        let stats = Rc::clone(&self.stats);
        let mut cpu = 0.0;

        if self.remaining == 0 {
            // Flush leftovers, then EOS every channel.
            let mut all_done = true;
            for c in 0..self.txs.len() {
                if !self.try_flush(sim, c) {
                    all_done = false;
                    continue;
                }
                if self.eos_pending[c] {
                    let sent = self.txs[c]
                        .borrow_mut()
                        .try_send_eos(sim)
                        .expect("eos send");
                    if sent {
                        self.eos_pending[c] = false;
                    } else {
                        all_done = false;
                    }
                }
            }
            if all_done {
                return Step::Done;
            }
            stats
                .borrow_mut()
                .sender
                .charge(CostCategory::CoreBound, self.cost.poll_empty_ns * 8.0);
            return Step::Yield(SimTime::from_nanos(1_000));
        }

        // Produce up to one buffer's worth of records.
        let per_batch = (self.payload_cap / RO_RECORD) as u64;
        let n = per_batch.min(self.remaining);
        let mut blocked = false;
        for _ in 0..n {
            let key = self.sample_key();
            let c = match self.mode {
                RouteMode::Direct => 0,
                RouteMode::HashFanout => {
                    // The partitioning step: hash + scattered staging write.
                    cpu += 16.0;
                    (hash_u64(key) % self.txs.len() as u64) as usize
                }
            };
            if self.staging[c].len() + RO_RECORD > self.payload_cap {
                if !self.try_flush(sim, c) {
                    // Head-of-line blocking: in-order partitioning cannot
                    // proceed past a stalled destination.
                    blocked = true;
                    break;
                }
                cpu += self.cost.post_wr_ns;
            }
            let ts = self.remaining; // monotone enough for the I/O bench
            self.staging[c].extend_from_slice(&ts.to_le_bytes());
            self.staging[c].extend_from_slice(&key.to_le_bytes());
            cpu += RO_RECORD as f64 * self.cost.copy_per_byte_ns;
            self.remaining -= 1;
        }
        {
            let mut st = stats.borrow_mut();
            match self.mode {
                RouteMode::Direct => st.sender.charge(CostCategory::MemoryBound, cpu),
                RouteMode::HashFanout => {
                    st.sender.charge(CostCategory::FrontEnd, cpu * 0.5);
                    st.sender.charge(CostCategory::BadSpeculation, cpu * 0.2);
                    st.sender.charge(CostCategory::MemoryBound, cpu * 0.3);
                }
            }
            if blocked {
                st.sender
                    .charge(CostCategory::CoreBound, self.cost.poll_empty_ns * 8.0);
            }
        }
        if self.remaining == 0 {
            for p in &mut self.eos_pending {
                *p = true;
            }
        }
        let busy = CostModel::to_time(cpu).max(SimTime::from_nanos(1));
        if blocked {
            return Step::Yield(busy.saturating_add(SimTime::from_nanos(800)));
        }
        Step::Yield(busy)
    }
}

struct Consumer {
    idx: usize,
    stats: Rc<RefCell<SharedStats>>,
    rxs: Vec<ChannelReceiver>,
    eos_seen: usize,
    mode: RouteMode,
    cost: CostModel,
    done: bool,
}

impl Process for Consumer {
    fn step(&mut self, sim: &mut Sim, _me: ProcId) -> Step {
        if self.done {
            return Step::Done;
        }
        let stats = Rc::clone(&self.stats);
        let mut cpu = 0.0;
        let mut bytes = 0u64;
        let mut recs = 0u64;
        let per_rec = consumer_ns(&self.cost, self.mode);
        // Bounded consumption per step: a buffer's credit only returns
        // once the consumer *takes* it, and the consumer can only take
        // what its CPU budget allows — this is what makes backpressure
        // (and thus skew-induced hot-consumer collapse) real.
        const STEP_BUDGET_NS: f64 = 12_000.0;
        'sweep: loop {
            let mut any = false;
            for rx in &mut self.rxs {
                if cpu >= STEP_BUDGET_NS {
                    break 'sweep;
                }
                let polled = rx
                    .poll_with(sim, |flags, payload| (flags, payload.len()))
                    .expect("channel error");
                match polled {
                    Some((flags, len)) => {
                        if flags.contains(MsgFlags::EOS) {
                            self.eos_seen += 1;
                        }
                        let n = (len / RO_RECORD) as u64;
                        bytes += len as u64;
                        recs += n;
                        cpu += n as f64 * per_rec;
                        any = true;
                    }
                    None => {
                        cpu += self.cost.poll_empty_ns;
                    }
                }
            }
            if !any {
                break;
            }
        }
        {
            let mut st = stats.borrow_mut();
            st.payload_bytes += bytes;
            st.consumer_records[self.idx] += recs;
            st.receiver.add_records(recs);
            st.receiver
                .charge(CostCategory::MemoryBound, recs as f64 * per_rec);
            st.receiver.charge(
                CostCategory::CoreBound,
                self.cost.poll_empty_ns * self.rxs.len() as f64,
            );
            if self.eos_seen == self.rxs.len() {
                // Collect latency stats before retiring.
                for rx in &self.rxs {
                    st.latency.merge(&rx.stats.latency);
                }
                st.finished_consumers += 1;
                st.last_finish = sim.now();
                self.done = true;
            }
        }
        if self.done {
            return Step::Done;
        }
        let busy = CostModel::to_time(cpu).max(SimTime::from_nanos(200));
        Step::Yield(busy)
    }
}

/// The harness as the drive loop sees it: finished once every consumer is.
struct Harness {
    sim: Sim,
    stats: Rc<RefCell<SharedStats>>,
    consumers: usize,
}

impl Driven for Harness {
    fn sim(&mut self) -> &mut Sim {
        &mut self.sim
    }

    fn finished(&self) -> bool {
        self.stats.borrow().finished_consumers == self.consumers
    }
}

/// Run the micro-benchmark.
pub fn run_micro(cfg: MicroConfig) -> MicroReport {
    let mut sim = Sim::new();
    let fabric = Fabric::new(cfg.fabric);
    let chan_cfg = ChannelConfig {
        credits: cfg.credits,
        buffer_size: cfg.buffer_size,
        credit_batch: cfg.credit_batch.min(cfg.credits),
    };
    let n_consumers = cfg.pairs * cfg.threads;
    let stats = Rc::new(RefCell::new(SharedStats {
        sender: EngineMetrics::default(),
        receiver: EngineMetrics::default(),
        consumer_records: vec![0; n_consumers],
        payload_bytes: 0,
        latency: Histogram::new(),
        finished_consumers: 0,
        last_finish: SimTime::ZERO,
    }));

    // Nodes: pair p = (producer node 2p, consumer node 2p+1).
    let nodes = fabric.add_nodes(cfg.pairs * 2);
    // rx_of[consumer global idx] collects that consumer's channels.
    let mut rx_of: Vec<Vec<ChannelReceiver>> = (0..n_consumers).map(|_| Vec::new()).collect();
    let mut producers: Vec<Producer> = Vec::new();
    for p in 0..cfg.pairs {
        for t in 0..cfg.threads {
            let prod_node = nodes[2 * p];
            let mut txs = Vec::new();
            match cfg.mode {
                RouteMode::Direct => {
                    let consumer = p * cfg.threads + t;
                    let cons_node = nodes[2 * p + 1];
                    let (tx, rx) = create_channel(&fabric, prod_node, cons_node, chan_cfg);
                    txs.push(Rc::new(RefCell::new(tx)));
                    rx_of[consumer].push(rx);
                }
                RouteMode::HashFanout => {
                    for consumer in 0..n_consumers {
                        let cons_node = nodes[2 * (consumer / cfg.threads) + 1];
                        let (tx, rx) = create_channel(&fabric, prod_node, cons_node, chan_cfg);
                        txs.push(Rc::new(RefCell::new(tx)));
                        rx_of[consumer].push(rx);
                    }
                }
            }
            let n_tx = txs.len();
            producers.push(Producer {
                stats: Rc::clone(&stats),
                txs,
                staging: (0..n_tx).map(|_| Vec::new()).collect(),
                remaining: cfg.records_per_thread,
                rng: DetRng::new(0xC0FFEE ^ ((p * cfg.threads + t) as u64) << 8),
                keys: cfg.keys,
                mode: cfg.mode,
                cost: cfg.cost,
                payload_cap: chan_cfg.payload_capacity() / RO_RECORD * RO_RECORD,
                eos_pending: vec![false; n_tx],
            });
        }
    }
    for producer in producers {
        sim.spawn(producer);
    }
    for (idx, rxs) in rx_of.into_iter().enumerate() {
        sim.spawn(Consumer {
            idx,
            stats: Rc::clone(&stats),
            rxs,
            eos_seen: 0,
            mode: cfg.mode,
            cost: cfg.cost,
            done: false,
        });
    }

    // No virtual-time budget: the report's `elapsed` is the last
    // consumer's finish, not the loop's exit time.
    let mut harness = Harness {
        sim,
        stats: Rc::clone(&stats),
        consumers: n_consumers,
    };
    drive(&mut harness, SLICE, SimTime::MAX);

    let st = stats.borrow();
    let mut sender = st.sender.clone();
    sender.set_records(st.receiver.records);
    MicroReport {
        payload_bytes: st.payload_bytes,
        records: st.receiver.records,
        elapsed: st.last_finish,
        mean_latency: st.latency.mean().map(SimTime::from_nanos),
        latency: st.latency.clone(),
        sender_metrics: sender,
        receiver_metrics: st.receiver.clone(),
        hottest_consumer_records: st.consumer_records.iter().copied().max().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(mode: RouteMode, threads: usize) -> MicroConfig {
        let mut cfg = MicroConfig::new(mode, threads);
        cfg.records_per_thread = 30_000;
        cfg
    }

    #[test]
    fn direct_mode_approaches_line_rate_with_two_threads() {
        let report = run_micro(small(RouteMode::Direct, 2));
        let gbs = report.throughput_gbs();
        // The paper: 95% of the measured 11.8 GB/s ceiling with 2 threads.
        assert!(gbs > 0.80 * 11.8, "direct 2-thread goodput {gbs:.1} GB/s");
        assert!(gbs <= 11.8 + 0.1);
    }

    #[test]
    fn fanout_mode_is_producer_bound_at_low_parallelism() {
        let direct = run_micro(small(RouteMode::Direct, 2)).throughput_gbs();
        let fanout = run_micro(small(RouteMode::HashFanout, 2)).throughput_gbs();
        assert!(
            fanout < 0.5 * direct,
            "fanout {fanout:.2} vs direct {direct:.2} GB/s"
        );
    }

    #[test]
    fn fanout_catches_up_with_more_threads() {
        let few = run_micro(small(RouteMode::HashFanout, 2)).throughput_gbs();
        let many = run_micro(small(RouteMode::HashFanout, 6)).throughput_gbs();
        assert!(many > 2.0 * few, "{few:.2} -> {many:.2} GB/s");
    }

    #[test]
    fn skew_collapses_fanout_but_not_direct() {
        let mk = |mode, z: Option<f64>| {
            let mut cfg = small(mode, 4);
            if let Some(z) = z {
                cfg.keys = KeyDist::Zipf(100_000_000, z);
            }
            run_micro(cfg)
        };
        let fan_uniform = mk(RouteMode::HashFanout, None);
        let fan_skewed = mk(RouteMode::HashFanout, Some(1.6));
        // Load imbalance is real: the hottest consumer dominates.
        assert!(
            fan_skewed.hottest_consumer_records > fan_skewed.records / 2,
            "hot consumer got {} of {}",
            fan_skewed.hottest_consumer_records,
            fan_skewed.records
        );
        let drop = 1.0 - fan_skewed.throughput_gbs() / fan_uniform.throughput_gbs();
        assert!(drop > 0.2, "fanout skew drop only {:.0}%", drop * 100.0);

        let dir_uniform = mk(RouteMode::Direct, None).throughput_gbs();
        let dir_skewed = mk(RouteMode::Direct, Some(1.6)).throughput_gbs();
        let dir_change = (dir_uniform - dir_skewed).abs() / dir_uniform;
        assert!(
            dir_change < 0.1,
            "direct routing must be skew-agnostic: {:.0}%",
            dir_change * 100.0
        );
    }

    #[test]
    fn latency_grows_with_buffer_size() {
        let lat = |buf: usize| {
            let mut cfg = small(RouteMode::Direct, 2);
            cfg.buffer_size = buf;
            run_micro(cfg).mean_latency.expect("samples").as_nanos()
        };
        let small_buf = lat(16 * 1024);
        let big_buf = lat(1024 * 1024);
        assert!(
            big_buf > 4 * small_buf,
            "latency {small_buf}ns -> {big_buf}ns"
        );
    }

    #[test]
    fn deterministic() {
        let run = || {
            let r = run_micro(small(RouteMode::HashFanout, 3));
            (r.payload_bytes, r.elapsed, r.hottest_consumer_records)
        };
        assert_eq!(run(), run());
    }
}
