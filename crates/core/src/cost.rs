//! The calibrated cost model behind virtual CPU time.
//!
//! The reproduction runs on a one-core VM, so the paper's 16-node × 10-core
//! testbed is simulated: every engine action charges virtual nanoseconds
//! from the constants below. The constants are **not** arbitrary — they are
//! anchored to the paper's own micro-architecture measurements (Table 1:
//! Slash ≈ 53 cycles/record ≈ 22 ns at 2.4 GHz of pure CPU work; RDMA
//! UpPar ≈ 274 cycles/record on the partitioning path) and to textbook
//! x86 cache-miss latencies. EXPERIMENTS.md records the sensitivity of
//! each figure to these constants.
//!
//! CPU cost is only half the model: state accesses also consume **memory
//! bandwidth** (a per-node shared link) according to the cache model, which
//! is what makes Slash memory-bound like the paper measures (70.2 GB/s of
//! aggregate traffic on two nodes, Table 1), and what makes skewed keys
//! *help* Slash (a smaller working set hits cache more often, §8.3.2).

use slash_desim::SimTime;

/// Nominal clock of the paper's testbed CPU (Intel Xeon Gold 5115,
/// 2.4 GHz). The single source of truth for every ns↔cycle conversion;
/// [`crate::metrics::EngineMetrics`] and the perfmodel tables both derive
/// their cycle counts from it.
pub const TESTBED_CLOCK_GHZ: f64 = 2.4;

/// Cache hierarchy model used to derive per-access penalties from the
/// state's working-set size. Sizes follow the paper's Intel Xeon Gold 5115
/// (10 cores, 32 KiB L1d, 1 MiB L2 per core, 13.75 MiB shared LLC).
#[derive(Debug, Clone, Copy)]
pub struct CacheModel {
    /// L1d capacity per core, bytes.
    pub l1_bytes: u64,
    /// L2 capacity per core, bytes.
    pub l2_bytes: u64,
    /// Shared LLC capacity, bytes.
    pub llc_bytes: u64,
    /// Extra latency of an L2 hit over L1, ns.
    pub l2_ns: f64,
    /// Extra latency of an LLC hit over L1, ns.
    pub llc_ns: f64,
    /// Extra latency of a DRAM access, ns.
    pub dram_ns: f64,
}

impl Default for CacheModel {
    fn default() -> Self {
        CacheModel {
            l1_bytes: 32 * 1024,
            l2_bytes: 1024 * 1024,
            llc_bytes: 14 * 1024 * 1024,
            l2_ns: 4.0,
            llc_ns: 14.0,
            dram_ns: 55.0,
        }
    }
}

/// Which level a working set of `bytes` effectively lives in, and the
/// resulting per-access penalty and expected misses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessCost {
    /// Extra nanoseconds per random access into the working set.
    pub penalty_ns: f64,
    /// Probability the access misses L1d.
    pub l1_miss: f64,
    /// Probability the access misses L2.
    pub l2_miss: f64,
    /// Probability the access misses the LLC (goes to DRAM).
    pub llc_miss: f64,
}

impl AccessCost {
    /// Expected bytes of memory-bus traffic for this access (cache-line
    /// transfers from beyond the LLC).
    #[inline]
    pub fn mem_bytes(&self) -> f64 {
        self.llc_miss * 64.0
    }
}

impl CacheModel {
    /// Cost of one random access into a working set of `bytes`.
    ///
    /// A smooth interpolation (fractional hit ratios at level boundaries)
    /// avoids cliff artifacts in the skew sweep.
    pub fn random_access(&self, bytes: u64) -> AccessCost {
        let frac = |cap: u64| -> f64 {
            if bytes <= cap {
                0.0
            } else {
                1.0 - cap as f64 / bytes as f64
            }
        };
        // Probability the access misses each level.
        let m1 = frac(self.l1_bytes);
        let m2 = frac(self.l2_bytes);
        let m3 = frac(self.llc_bytes);
        let penalty_ns = m1 * self.l2_ns
            + m2 * (self.llc_ns - self.l2_ns).max(0.0)
            + m3 * (self.dram_ns - self.llc_ns).max(0.0);
        AccessCost {
            penalty_ns,
            l1_miss: m1,
            l2_miss: m2,
            llc_miss: m3,
        }
    }
}

/// Per-operation virtual CPU costs, in nanoseconds.
///
/// Seven constants have a host-clock probe beside them in `perf-ledger`'s
/// report-only reconciliation table (EXPERIMENTS.md, "The state layer at
/// the cost model's price", has the numbers before and after PR 19). Each
/// field says which kind it is: **reconciled** — the shipped code measures
/// within 1.5x of the constant on the reference box — or a **testbed**
/// constant, which stands for the paper's hardware (Table 1, §8.3) and is
/// not a claim about this host. Retuning any of them moves every virtual
/// figure; none is retuned to chase a probe.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Parse + filter + project + window-assign per record (fused pipeline
    /// stages; Slash's entire stateless prefix). Testbed: with
    /// `rmw_base_ns` it makes Table 1's 53 cycles/record ≈ 22 ns at
    /// 2.4 GHz. No probe isolates it (`core.hotpath_record_ns` times the
    /// prefix, the combiner and the RMW together).
    pub record_pipeline_ns: f64,
    /// Hash-index probe + in-place RMW, before cache penalties.
    /// Reconciled since PR 19: `state.rmw_hot_ns` reads 11.7 ns (0.83x;
    /// 13–15 ns in the shared box's slow spells). It read 33–40 ns,
    /// 2.3–2.8x, while every access paid two divisions and two header
    /// decodes.
    pub rmw_base_ns: f64,
    /// Log append (holistic state), before cache penalties. The model is
    /// the dearer side: `state.lss_append_ns` times the bare `Lss::append`
    /// at 11–13 ns (0.55–0.65x); the constant also stands for the chain
    /// link and index move of a `Partition::append`, which that probe
    /// leaves out. Testbed (Table 1's per-record budget).
    pub append_base_ns: f64,
    /// One write-combiner fold: probe + in-place CRDT update of an
    /// L1-resident table. No cache penalty applies — the table is sized
    /// to stay within L1d, which is the whole point of combining. Charged
    /// per survivor while the combiner is on; the index walk a key's
    /// partial costs at the flush is charged apart from it — one
    /// [`Self::rmw_base_ns`] + cache penalty when the key *enters* the
    /// table, so once per key per epoch, not per batch.
    /// Reconciled against its probe: `state.combiner_fold_ns` reads
    /// 4–6 ns (1.0–1.5x). The probe folds `i % 100`, an order the branch
    /// predictor learns; in a workload's own key order a fold measures
    /// 9–10 ns, so the model is the cheap side here (ROADMAP: "Make the
    /// reconciliation table a ledger check").
    pub combine_hit_ns: f64,
    /// Merging one delta entry on a leader. Testbed (anchored, like the
    /// RMW, to Table 1's 53 cycles/record): `state.epoch_merge_entry_ns`
    /// reads 41–48 ns (2.3–2.7x), but it merges 8,192 distinct keys into a
    /// cold, growing index — mostly the cache misses and inserts the model
    /// charges separately through [`CacheModel`], not this base cost. About
    /// a third of the gap the probe read before the index's tag-first walk
    /// (54–59 ns, 3.0–3.3x) was the walk's own code — a slot-by-slot
    /// free-slot search and a second walk per insert — not misses.
    pub merge_entry_ns: f64,
    /// Hash-partitioning one record (hash + destination select + branch
    /// mispredictions — the front-end-heavy path of Table 1's sender).
    /// Testbed: Table 1's 274 cycles/record for RDMA UpPar. No probe.
    pub partition_ns: f64,
    /// Copying one byte into a staging/exchange buffer (~10 GB/s memcpy).
    /// Testbed. No probe.
    pub copy_per_byte_ns: f64,
    /// Queue handover between threads (scale-out SPE exchange step).
    /// Reconciled: `net.spsc_msg_ns` times a 1 KiB message through the §6
    /// channel on a thread-shared ring, send and copy-out on one thread.
    /// It reads 106–122 ns (2.4–2.7x; median 111 ns on a 2-core host):
    /// the ring moves a message as word stores and loads through a
    /// slot-sized buffer at each end, where the `mpsc` link it replaced
    /// (55–62 ns) moved one `Vec`. Across threads
    /// (`net.spsc_xthread_msg_ns`, ~285 ns) the host pays a wake-up the
    /// testbed's spinning consumers do not.
    pub queue_op_ns: f64,
    /// One empty poll (the `pause` spin of §8.3.3). Testbed; the model is
    /// the dearer side — `net.rdma_chan_empty_poll_ns` reads 4.5–5.5 ns
    /// (0.55–0.7x) because a simulated CQ poll touches no device memory.
    pub poll_empty_ns: f64,
    /// Posting one RDMA work request (doorbell + WQE). Testbed:
    /// `rdma.write_post_poll_ns` reads 128–154 ns (2.1–2.6x), but it
    /// times post *and* completion poll of a verb executed by the
    /// simulated fabric — bookkeeping a NIC does in hardware.
    pub post_wr_ns: f64,
    /// Multiplier a managed runtime pays on every CPU cost (JIT'd
    /// serialization, object headers, GC pressure — the Flink baseline).
    /// Testbed (a baseline's constant; Slash never pays it). No probe.
    pub managed_runtime_factor: f64,
    /// Streaming read of one byte from the in-memory source. Testbed
    /// (sequential read at memory bandwidth). No probe.
    pub source_per_byte_ns: f64,
    /// Per-batch cost of acquiring work from a *shared* task queue.
    /// Zero for Slash (per-worker queues, §5.3); the LightSaber baseline
    /// sets it to model its single shared queue's contention.
    /// Testbed. No probe.
    pub task_queue_ns: f64,
    /// Handing one split-key record to the forward fabric (key lookup in
    /// a tiny sorted list + buffer append). Far below the full pipeline +
    /// RMW the receiver pays — that asymmetry is what makes spreading a
    /// hot key's records pay off — but not free: the sender still
    /// touches every forwarded byte. Testbed. No probe.
    pub forward_record_ns: f64,
    /// Per-node usable memory bandwidth, bytes/second, shared by all
    /// worker threads (Xeon Gold 5115: 6 × DDR4-2400 ≈ 115 GB/s peak;
    /// ~40 GB/s sustainable under random access). Testbed (Table 1's
    /// 70.2 GB/s of aggregate traffic on two nodes).
    pub mem_bandwidth: u64,
    /// Core clock for ns↔cycle accounting, GHz. Defaults to
    /// [`TESTBED_CLOCK_GHZ`]; sensitivity sweeps may override it, and the
    /// cluster driver propagates it into each node's `EngineMetrics`.
    pub clock_ghz: f64,
    /// Cache hierarchy.
    pub cache: CacheModel,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            record_pipeline_ns: 6.0,
            rmw_base_ns: 14.0,
            append_base_ns: 20.0,
            combine_hit_ns: 4.0,
            merge_entry_ns: 18.0,
            partition_ns: 55.0,
            copy_per_byte_ns: 0.1,
            queue_op_ns: 45.0,
            poll_empty_ns: 8.0,
            post_wr_ns: 60.0,
            managed_runtime_factor: 3.5,
            source_per_byte_ns: 0.012,
            task_queue_ns: 0.0,
            forward_record_ns: 4.0,
            mem_bandwidth: 40_000_000_000,
            clock_ghz: TESTBED_CLOCK_GHZ,
            cache: CacheModel::default(),
        }
    }
}

impl CostModel {
    /// Convert fractional nanoseconds accumulated over a batch into a
    /// `SimTime`, rounding up.
    pub fn to_time(ns: f64) -> SimTime {
        SimTime::from_nanos(ns.ceil().max(0.0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_working_sets_are_free() {
        let c = CacheModel::default();
        let a = c.random_access(16 * 1024);
        assert_eq!(a.penalty_ns, 0.0);
        assert_eq!(a.l1_miss, 0.0);
        assert_eq!(a.mem_bytes(), 0.0);
    }

    #[test]
    fn penalties_increase_with_working_set() {
        let c = CacheModel::default();
        let l2 = c.random_access(512 * 1024);
        let llc = c.random_access(8 * 1024 * 1024);
        let dram = c.random_access(1 << 30);
        assert!(l2.penalty_ns > 0.0);
        assert!(llc.penalty_ns > l2.penalty_ns);
        assert!(dram.penalty_ns > llc.penalty_ns);
        // A gigabyte working set is effectively all DRAM.
        assert!(dram.penalty_ns > 0.95 * c.dram_ns);
        assert!(dram.llc_miss > 0.95, "LLC misses: {}", dram.llc_miss);
        assert!(dram.mem_bytes() > 60.0);
    }

    #[test]
    fn monotone_in_bytes() {
        let c = CacheModel::default();
        let mut last = -1.0;
        for shift in 10..32 {
            let a = c.random_access(1u64 << shift);
            assert!(a.penalty_ns >= last, "not monotone at 2^{shift}");
            last = a.penalty_ns;
        }
    }

    #[test]
    fn to_time_rounds_up() {
        assert_eq!(CostModel::to_time(0.2), SimTime::from_nanos(1));
        assert_eq!(CostModel::to_time(5.0), SimTime::from_nanos(5));
        assert_eq!(CostModel::to_time(-3.0), SimTime::ZERO);
    }

    #[test]
    fn defaults_are_anchored_to_the_paper() {
        let m = CostModel::default();
        // Slash's hot path (pipeline + RMW on a cache-resident working
        // set) must land near Table 1's 53 cycles ≈ 22ns/record.
        let hot = m.record_pipeline_ns + m.rmw_base_ns;
        assert!((15.0..30.0).contains(&hot), "slash hot path {hot}ns");
        // UpPar's sender path (pipeline + partition + copy of a 78-byte
        // record) must land near Table 1's 274 cycles ≈ 114ns.
        let uppar =
            m.record_pipeline_ns + m.partition_ns + 78.0 * m.copy_per_byte_ns + m.queue_op_ns;
        assert!(
            (80.0..150.0).contains(&uppar),
            "uppar sender path {uppar}ns"
        );
    }
}
