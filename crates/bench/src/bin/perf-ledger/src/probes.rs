//! Per-layer probes: host-clock time per operation of one layer's public
//! call, single thread (except the cross-thread SPSC probe), measured from
//! outside the engine. Rounds are interleaved across probes so that a slow
//! spell of the machine lands on every probe, not on one.

use std::hint::black_box;
use std::rc::Rc;
use std::sync::{Arc, Barrier};

use slash_core::{HotPath, WindowMemo};
use slash_desim::{ProcId, Process, Sim, SimTime, Step};
use slash_net::{create_channel, spsc_channel, ChannelConfig, MsgFlags};
use slash_obs::{Obs, Stage};
use slash_rdma::{CqHandle, Fabric, FabricConfig, LocalSlice, RemoteSlice, WorkRequest};
use slash_state::backend::{SsbConfig, SsbNode};
use slash_state::delta::{try_parse_chunk, ChunkBuilder};
use slash_state::descriptor::appended_descriptor;
use slash_state::entry::{EntryKind, NO_PREV};
use slash_state::log::Lss;
use slash_state::{pack_key, CounterCrdt, Partition, StateKey, WriteCombiner};

use crate::catalog::{measured, Measured, PER_LAYER};
use crate::spans::Recorder;
use crate::stats::Summary;
use crate::workload::{Backend, Workload};

/// Rounds per probe; the median and MAD are taken over these.
pub const ROUNDS: usize = 30;

/// One probe: each call does its own untimed set-up, times the layer's
/// call through the [`Timer`] it is handed, and returns the time per
/// operation in the metric's unit.
pub struct Probe {
    name: &'static str,
    run: Box<dyn FnMut(&mut Timer) -> f64>,
}

fn probe(name: &'static str, run: impl FnMut(&mut Timer) -> f64 + 'static) -> Probe {
    Probe {
        name,
        run: Box::new(run),
    }
}

/// Times a probe's calls as spans named after the probe.
pub struct Timer<'a> {
    rec: &'a mut Recorder,
    name: &'static str,
}

impl Timer<'_> {
    /// Time `f` in a span; nanoseconds per operation.
    fn per_op(&mut self, ops: u64, f: impl FnOnce()) -> f64 {
        let ((), ns) = self.rec.time(self.name, f);
        ns as f64 / ops as f64
    }
}

/// A fixed pseudo-random walk over `0..n` (n a power of two): probes that
/// want cache-unfriendly key order use it instead of a sequential scan.
fn scramble(i: u64, n: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) & (n - 1)
}

fn counter_partition(keys: u64) -> Partition {
    let mut part = Partition::new(0, CounterCrdt::descriptor());
    for k in 0..keys {
        part.rmw(pack_key(1, k), |v| CounterCrdt::add(v, 1));
    }
    part
}

/// Entries per epoch in the delta encode/decode probes.
const DELTA_ENTRIES: u64 = 8_192;

/// One epoch of [`DELTA_ENTRIES`] counter entries, chunked as a delta
/// sender would for channel buffers of `max_chunk` payload bytes.
fn encode_chunks(max_chunk: usize) -> Vec<Vec<u8>> {
    let mut b = ChunkBuilder::new(0, 1, 100, 0, max_chunk);
    for k in 0..DELTA_ENTRIES {
        b.push(pack_key(1, k), EntryKind::Fixed, &1u64.to_le_bytes());
    }
    b.finish()
}

fn counter_node(keys: u64) -> SsbNode {
    let mut ssb = SsbNode::detached(0, CounterCrdt::descriptor(), SsbConfig::new(1));
    for k in 0..keys {
        ssb.rmw(pack_key(1, k), |v| CounterCrdt::add(v, 1));
    }
    ssb
}

/// A process that yields as many more times as it holds, then finishes.
struct Spinner(u32);

impl Process for Spinner {
    fn step(&mut self, _sim: &mut Sim, _me: ProcId) -> Step {
        if self.0 == 0 {
            return Step::Done;
        }
        self.0 -= 1;
        Step::Yield(SimTime::from_nanos(1))
    }
}

/// Every probe. `partitions` are the workload's generated inputs (the
/// hot-path probe runs over partition 0); `seed` feeds the generator probe.
pub fn all(w: &'static Workload, partitions: Rc<Vec<Vec<u8>>>, seed: u64) -> Vec<Probe> {
    let payload = vec![7u8; 1024];
    let chan = ChannelConfig::default();
    let value = 1u64.to_le_bytes();
    let mut probes = Vec::new();

    // --- desim -------------------------------------------------------
    probes.push(probe("desim.event_dispatch_ns", |t| {
        const N: u64 = 20_000;
        let mut sim = Sim::new();
        t.per_op(N, || {
            for i in 0..N {
                sim.schedule_at(SimTime::from_nanos(1 + scramble(i, 1 << 14)), |_| {});
            }
            sim.run();
        })
    }));
    probes.push(probe("desim.proc_step_ns", |t| {
        const PROCS: u32 = 8;
        const STEPS: u32 = 2_500;
        let mut sim = Sim::new();
        for _ in 0..PROCS {
            sim.spawn(Spinner(STEPS));
        }
        t.per_op(u64::from(PROCS * STEPS), || {
            sim.run();
        })
    }));

    // --- rdma ----------------------------------------------------------
    probes.push(probe("rdma.write_post_poll_ns", |t| {
        const N: u64 = 2_000;
        let mut sim = Sim::new();
        let fabric = Fabric::new(FabricConfig::default());
        let (a, b) = (fabric.add_node(), fabric.add_node());
        let src = fabric.register(a, 4096);
        let dst = fabric.register(b, 4096);
        let send_cq = CqHandle::new();
        let (qp, _peer) = fabric.connect(
            a,
            send_cq.clone(),
            CqHandle::new(),
            b,
            CqHandle::new(),
            CqHandle::new(),
        );
        t.per_op(N, || {
            for wr_id in 0..N {
                qp.post_send(
                    &mut sim,
                    WorkRequest::Write {
                        wr_id,
                        local: LocalSlice::range(&src, 0, 256),
                        remote: RemoteSlice {
                            key: dst.remote_key(),
                            offset: 0,
                        },
                        signaled: true,
                    },
                )
                .expect("healthy fabric accepts a write");
                sim.run();
                let done = send_cq.poll().expect("signaled write completes");
                assert!(done.is_ok() && done.wr_id == wr_id);
            }
        })
    }));

    // --- net -------------------------------------------------------------
    {
        let payload = payload.clone();
        probes.push(probe("net.rdma_chan_msg_ns", move |t| {
            const N: u64 = 512;
            let mut sim = Sim::new();
            let fabric = Fabric::new(FabricConfig::default());
            let (a, b) = (fabric.add_node(), fabric.add_node());
            let (mut tx, mut rx) = create_channel(&fabric, a, b, chan);
            t.per_op(N, || {
                let (mut sent, mut got) = (0, 0);
                while got < N {
                    while sent < N
                        && tx
                            .try_send(&mut sim, MsgFlags::DATA, &payload)
                            .expect("healthy channel")
                    {
                        sent += 1;
                    }
                    sim.run();
                    while rx.try_recv(&mut sim).expect("healthy channel").is_some() {
                        got += 1;
                    }
                    sim.run();
                }
            })
        }));
    }
    probes.push(probe("net.rdma_chan_empty_poll_ns", move |t| {
        const N: u64 = 20_000;
        let mut sim = Sim::new();
        let fabric = Fabric::new(FabricConfig::default());
        let (a, b) = (fabric.add_node(), fabric.add_node());
        let (_tx, mut rx) = create_channel(&fabric, a, b, chan);
        t.per_op(N, || {
            for _ in 0..N {
                assert!(rx.try_recv(&mut sim).expect("healthy channel").is_none());
            }
        })
    }));
    {
        let payload = payload.clone();
        probes.push(probe("net.spsc_msg_ns", move |t| {
            const N: u64 = 10_000;
            let (mut tx, mut rx) = spsc_channel(chan);
            t.per_op(N, || {
                for _ in 0..N {
                    assert!(tx.try_send(MsgFlags::STATE_DELTA, &payload));
                    black_box(rx.try_recv());
                }
            })
        }));
    }
    probes.push(probe("net.spsc_xthread_msg_ns", move |t| {
        const N: u64 = 10_000;
        let (mut tx, mut rx) = spsc_channel(chan);
        let start = Arc::new(Barrier::new(2));
        let producer = {
            let start = Arc::clone(&start);
            let payload = payload.clone();
            std::thread::spawn(move || {
                start.wait();
                for _ in 0..N {
                    while !tx.try_send(MsgFlags::STATE_DELTA, &payload) {
                        std::thread::yield_now();
                    }
                }
            })
        };
        start.wait();
        let ns = t.per_op(N, || {
            let mut got = 0;
            while got < N {
                match rx.try_recv() {
                    Some(msg) => {
                        black_box(msg);
                        got += 1;
                    }
                    None => std::thread::yield_now(),
                }
            }
        });
        producer.join().expect("producer thread exits cleanly");
        ns
    }));

    // --- state: coherence path -------------------------------------------
    probes.push(probe("state.delta_encode_entry_ns", move |t| {
        t.per_op(DELTA_ENTRIES, || {
            black_box(encode_chunks(chan.payload_capacity()));
        })
    }));
    probes.push(probe("state.delta_decode_entry_ns", move |t| {
        let chunks = encode_chunks(chan.payload_capacity());
        t.per_op(DELTA_ENTRIES, || {
            for c in &chunks {
                let header = try_parse_chunk(c, |k, _, v| {
                    black_box((k, v));
                });
                assert!(header.is_ok(), "a chunk this code built parses");
            }
        })
    }));
    probes.push(probe("state.epoch_close_key_ns", |t| {
        const N: u64 = 8_192;
        let mut part = counter_partition(N);
        t.per_op(N, || {
            part.close_epoch(|h, v| {
                black_box((h.key, v));
            });
        })
    }));
    probes.push(probe("state.epoch_merge_entry_ns", move |t| {
        // Two epochs of the same keys into an empty primary: the first
        // inserts every key, the second merges into existing values.
        const N: u64 = 8_192;
        let mut primary = Partition::new(0, CounterCrdt::descriptor());
        t.per_op(2 * N, || {
            for _epoch in 0..2 {
                for k in 0..N {
                    primary.merge_fixed(pack_key(1, k), &value);
                }
            }
        })
    }));
    probes.push(probe("state.crdt_merge_ns", move |t| {
        const N: u64 = 200_000;
        let merge = CounterCrdt::descriptor().merge;
        let mut dst = [0u8; 8];
        t.per_op(N, || {
            for _ in 0..N {
                merge(black_box(&mut dst), black_box(&value));
            }
        })
    }));

    // --- state: cold keys (a working set far beyond the caches) -----------
    {
        const KEYS: u64 = 1 << 19;
        const N: u64 = 50_000;
        let big = counter_partition(KEYS);
        let mut at = 0u64;
        probes.push(probe("state.index_probe_cold_ns", move |t| {
            t.per_op(N, || {
                for _ in 0..N {
                    at += 1;
                    black_box(big.get(pack_key(1, scramble(at, KEYS))));
                }
            })
        }));
        probes.push(probe("state.rmw_cold_ns", |t| {
            // Every key is new: index miss, log append, index insert.
            let mut part = Partition::new(0, CounterCrdt::descriptor());
            t.per_op(N, || {
                for i in 0..N {
                    part.rmw(pack_key(1, scramble(i, 1 << 40)), |v| {
                        CounterCrdt::add(v, 1)
                    });
                }
            })
        }));
    }
    {
        const LIVE: u64 = 50_000;
        let mut ssb = counter_node(LIVE);
        probes.push(probe("state.drain_scan_key_ns", move |t| {
            t.per_op(LIVE, || {
                let fired = ssb.drain_triggered(|_| false, |_| {});
                assert_eq!(fired, 0);
            })
        }));
    }
    probes.push(probe("state.drain_emit_key_ns", |t| {
        const READY: u64 = 20_000;
        let mut ssb = counter_node(READY);
        t.per_op(READY, || {
            let fired = ssb.drain_triggered(
                |_| true,
                |tv| {
                    black_box(tv);
                },
            );
            assert_eq!(fired as u64, READY);
        })
    }));

    // --- state: append path (joins) ---------------------------------------
    probes.push(probe("state.lss_append_ns", |t| {
        const N: u64 = 20_000;
        let elem = [3u8; 17];
        let mut log = Lss::new();
        t.per_op(N, || {
            for i in 0..N {
                black_box(log.append(StateKey::from(i), NO_PREV, EntryKind::Appended, &elem));
            }
        })
    }));
    probes.push(probe("state.append_batch_elem_ns", |t| {
        // nb11's shape: 17-byte elements, 512-record batches, keys drawn
        // from a domain a fiftieth of the partition size.
        const BATCH: usize = 512;
        const BATCHES: u64 = 40;
        const STRIDE: usize = 17;
        let elems = vec![3u8; BATCH * STRIDE];
        let keys: Vec<Vec<StateKey>> = (0..BATCHES)
            .map(|b| {
                (0..BATCH as u64)
                    .map(|i| pack_key(1, scramble(b * BATCH as u64 + i, 1 << 30) % 5_000))
                    .collect()
            })
            .collect();
        let mut part = Partition::new(0, appended_descriptor());
        t.per_op(BATCHES * BATCH as u64, || {
            for batch in &keys {
                black_box(part.append_batch(batch, &elems, STRIDE));
            }
        })
    }));

    // --- state: hot keys and the write combiner ---------------------------
    {
        const KEYS: u64 = 128;
        const N: u64 = 100_000;
        let small = counter_partition(KEYS);
        probes.push(probe("state.index_probe_hot_ns", move |t| {
            t.per_op(N, || {
                for i in 0..N {
                    black_box(small.get(pack_key(1, i % KEYS)));
                }
            })
        }));
        let mut hot = counter_partition(KEYS);
        probes.push(probe("state.rmw_hot_ns", move |t| {
            t.per_op(N, || {
                for i in 0..N {
                    hot.rmw(pack_key(1, i % KEYS), |v| CounterCrdt::add(v, 1));
                }
            })
        }));
        let mut comb = WriteCombiner::new(CounterCrdt::descriptor(), 1024);
        probes.push(probe("state.combiner_fold_ns", move |t| {
            comb.clear();
            t.per_op(N, || {
                for i in 0..N {
                    black_box(comb.fold(pack_key(1, i % 100), |v| CounterCrdt::add(v, 1)));
                }
            })
        }));
    }
    probes.push(probe("state.combiner_flush_key_ns", |t| {
        // ysb_hot's shape: ~100 distinct keys per flush. Refilling the
        // combiner between flushes is outside the timed spans.
        const KEYS: u64 = 100;
        const FLUSHES: u64 = 100;
        let mut ssb = SsbNode::detached(0, CounterCrdt::descriptor(), SsbConfig::new(1));
        let mut comb = WriteCombiner::new(CounterCrdt::descriptor(), 1024);
        let mut total = 0.0;
        for _ in 0..FLUSHES {
            for k in 0..KEYS {
                comb.fold(pack_key(1, k), |v| CounterCrdt::add(v, 1));
            }
            total += t.per_op(1, || {
                assert_eq!(ssb.rmw_batch(&mut comb), KEYS);
            });
        }
        total / (FLUSHES * KEYS) as f64
    }));

    // --- core ---------------------------------------------------------------
    let plan = Rc::new(w.plan());
    {
        let window = plan.window();
        probes.push(probe("core.window_assign_ns", move |t| {
            const N: u64 = 1_000_000;
            let mut memo = WindowMemo::new(window);
            t.per_op(N, || {
                for i in 0..N {
                    black_box(memo.assign(black_box(1 + i * 7)));
                }
            })
        }));
    }
    {
        // The no-coordination floor of this workload: its partition 0
        // through the hot path on a detached one-node SSB, in the batch
        // size the workers use.
        let plan = Rc::clone(&plan);
        let cfg = w.cfg();
        probes.push(probe("core.hotpath_record_ns", move |t| {
            let data = &partitions[0];
            let batch_bytes = cfg.batch_records * plan.record_size();
            let mut hp = HotPath::new(Rc::clone(&plan), cfg.combine, cfg.combiner_slots);
            let mut ssb = SsbNode::detached(0, plan.descriptor(), SsbConfig::new(1));
            let mut records = 0;
            let ns = t.per_op(1, || {
                for chunk in data.chunks(batch_bytes) {
                    records += hp.process(&mut ssb, chunk).records;
                }
            });
            ns / records as f64
        }));
    }

    // --- exec: the fixed cost of a job (one record per partition) -----------
    for (name, backend, nodes, workers) in [
        ("exec.thread_job_fixed_us", Backend::Threads, 2, 1),
        ("exec.sim_job_fixed_us", Backend::Sim, 4, 2),
    ] {
        let tiny = w.generate_sized(seed, nodes * workers, 1);
        let cfg = w.cfg_for(nodes, workers);
        probes.push(probe(name, move |t| {
            const JOBS: u64 = 5;
            t.per_op(JOBS, || {
                for _ in 0..JOBS {
                    let report = w.run(backend, tiny.clone(), cfg, Obs::disabled());
                    assert_eq!(report.map(|r| r.records), Some((nodes * workers) as u64));
                }
            }) / 1e3
        }));
    }

    // --- obs ------------------------------------------------------------------
    {
        let obs = Obs::enabled(4096);
        let o = obs.clone();
        probes.push(probe("obs.hist_record_ns", move |t| {
            const N: u64 = 100_000;
            t.per_op(N, || {
                for i in 0..N {
                    o.hist_record("probe_ns", "probe", i & 0xffff);
                }
            })
        }));
        probes.push(probe("obs.span_ns", move |t| {
            const N: u64 = 50_000;
            t.per_op(N, || {
                for i in 0..N {
                    obs.span_open(Stage::Source, 0, 0, SimTime::from_nanos(i));
                    obs.span_close(Stage::Source, 0, 0, SimTime::from_nanos(i + 100), 1);
                }
            })
        }));
    }

    // --- workloads ----------------------------------------------------------------
    probes.push(probe("workloads.gen_record_ns", move |t| {
        const N: u64 = 20_000;
        t.per_op(N, || {
            black_box(w.generate_sized(seed, 1, N));
        })
    }));

    probes
}

/// Run every probe [`ROUNDS`] times, one round of all probes after the
/// other, and summarise each probe's samples.
pub fn run_rounds(probes: &mut [Probe], rec: &mut Recorder) -> Vec<Measured> {
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(ROUNDS); probes.len()];
    for _ in 0..ROUNDS {
        for (p, s) in probes.iter_mut().zip(&mut samples) {
            let mut timer = Timer {
                rec: &mut *rec,
                name: p.name,
            };
            s.push((p.run)(&mut timer));
        }
    }
    probes
        .iter()
        .zip(&samples)
        .map(|(p, s)| measured(&PER_LAYER, p.name, Summary::of(s)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scramble_stays_in_range_and_spreads() {
        let n = 1 << 10;
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..n {
            let k = scramble(i, n);
            assert!(k < n);
            seen.insert(k);
        }
        assert!(
            seen.len() as u64 > n / 2,
            "walk revisits too few keys: {}",
            seen.len()
        );
    }
}
