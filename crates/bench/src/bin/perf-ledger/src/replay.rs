//! The traced replay: the ledger drives a workload's input itself, on one
//! thread, through the layers' public calls — `HotPath::process`,
//! `note_progress`, `close_epoch`, `pump`, `Sim::run_until`,
//! `drain_triggered` — with a span around each call. The self-time shares
//! say where a job's time goes without a single span inside the engine.
//!
//! It follows `SlashWorker::step`'s order of duties but charges no virtual
//! cost, so its virtual clock is not the engine's; its *output* must be.

use std::collections::BTreeMap;
use std::rc::Rc;

use slash_core::join::pair_count;
use slash_core::{HotPath, QueryPlan, SinkResult, WindowAssigner};
use slash_desim::{Sim, SimTime};
use slash_rdma::Fabric;
use slash_state::backend::{build_cluster, SsbConfig, SsbNode, TriggeredData};

use crate::spans::{self_time_by_name, Recorder};
use crate::workload::{Expected, Workload};

/// Virtual time the simulator advances per round of batches: about the
/// virtual busy time the engine charges for one 512-record batch, so
/// deltas drain from the fabric at the pace they would in a real job.
const QUANTUM: SimTime = SimTime::from_micros(5);

/// Span names of the replayed calls, in the order the shares are reported.
pub const CALLS: [&str; 5] = ["hotpath", "close_epoch", "pump", "sim_run", "drain"];

/// What one replayed job produced, and where its time went.
pub struct Replayed {
    pub job: u32,
    pub wall_s: f64,
    /// Self-time share per span name; `"job"` is the driver's own loop.
    pub shares: BTreeMap<&'static str, f64>,
    /// Why the replay's output is wrong, if it is.
    pub problem: Option<String>,
}

/// Order-independent digest of a result multiset (a wrapping sum of
/// per-row hashes), cheap enough to keep while results stream out.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ResultDigest {
    pub emitted: u64,
    pub pairs: u64,
    sum: u64,
}

impl ResultDigest {
    pub fn push(&mut self, r: &SinkResult) {
        let (tag, w, k, v) = match *r {
            SinkResult::Agg {
                window_id,
                key,
                value,
            } => (0u64, window_id, key, value.to_bits()),
            SinkResult::Join {
                window_id,
                key,
                pairs,
            } => {
                self.pairs += pairs;
                (1u64, window_id, key, pairs)
            }
        };
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for part in [tag, w, k, v] {
            h = (h ^ part).wrapping_mul(0x0000_0100_0000_01B3);
            h ^= h >> 29;
        }
        self.sum = self.sum.wrapping_add(h);
        self.emitted += 1;
    }

    pub fn of(results: &[SinkResult]) -> Self {
        let mut d = ResultDigest::default();
        results.iter().for_each(|r| d.push(r));
        d
    }
}

struct Worker {
    hotpath: HotPath,
    /// Read position in the worker's partition, bytes.
    pos: usize,
    /// Highest event time processed; `u64::MAX` once the source is done.
    watermark: u64,
    done: bool,
}

struct Node {
    ssb: SsbNode,
    workers: Vec<Worker>,
    last_epoch_bucket: u64,
    finished: bool,
}

/// Fire every window the vector clock has released — the worker's rule:
/// `window.ready(wid, vclock.min())`.
fn drain(ssb: &mut SsbNode, plan: &QueryPlan, window: &WindowAssigner, out: &mut ResultDigest) {
    let wm = ssb.vclock().min();
    ssb.drain_triggered(
        |wid| window.ready(wid, wm),
        |tv| {
            let result = match (plan, tv.data) {
                (QueryPlan::Aggregate { agg, .. }, TriggeredData::Fixed(value)) => {
                    SinkResult::Agg {
                        window_id: tv.window_id,
                        key: tv.key,
                        value: agg.render(&value),
                    }
                }
                (QueryPlan::Join { .. }, TriggeredData::Elements(elems)) => SinkResult::Join {
                    window_id: tv.window_id,
                    key: tv.key,
                    pairs: pair_count(&elems, window),
                },
                (plan, data) => unreachable!("plan/state mismatch: {plan:?} vs {data:?}"),
            };
            out.push(&result);
        },
    );
}

/// Replay one job of `w` over `partitions`, recording spans into `rec`.
pub fn replay(
    w: &Workload,
    partitions: &[Vec<u8>],
    expected: &Expected,
    want: &ResultDigest,
    rec: &mut Recorder,
) -> Replayed {
    let cfg = w.cfg();
    let plan = Rc::new(w.plan());
    let window = plan.window();
    let batch_bytes = cfg.batch_records * plan.record_size();
    let mut sim = Sim::new();
    let fabric = Fabric::new(cfg.fabric);
    let ids = fabric.add_nodes(cfg.nodes);
    let ssb_cfg = SsbConfig {
        nodes: cfg.nodes,
        epoch_bytes: cfg.epoch_bytes,
        channel: cfg.channel,
    };
    let mut nodes: Vec<Node> = build_cluster(&fabric, &ids, plan.descriptor(), ssb_cfg)
        .into_iter()
        .map(|ssb| Node {
            ssb,
            workers: (0..cfg.workers_per_node)
                .map(|_| Worker {
                    hotpath: HotPath::new(Rc::clone(&plan), cfg.combine, cfg.combiner_slots),
                    pos: 0,
                    watermark: 0,
                    done: false,
                })
                .collect(),
            last_epoch_bucket: 0,
            finished: false,
        })
        .collect();

    // A protocol bug must end the replay, not hang it: no job needs more
    // rounds than a generous multiple of its batch count.
    let batches: usize = partitions
        .iter()
        .map(|p| p.len().div_ceil(batch_bytes))
        .sum();
    let max_rounds = 100 * batches + 1_000_000;

    let mut out = ResultDigest::default();
    let job = rec.next_job();
    let root = rec.open("job");
    let mut rounds = 0;
    while nodes.iter().any(|n| !n.finished) {
        for (n, node) in nodes.iter_mut().enumerate() {
            if node.finished {
                continue;
            }
            let Node {
                ssb,
                workers,
                last_epoch_bucket,
                finished,
            } = node;
            for wi in 0..workers.len() {
                rec.time("pump", || ssb.pump(&mut sim))
                    .0
                    .expect("fault-free fabric: pump cannot fail");
                let data = &partitions[n * workers.len() + wi];
                let node_wm =
                    |ws: &[Worker]| ws.iter().map(|w| w.watermark).min().unwrap_or(u64::MAX);
                if workers[wi].pos < data.len() {
                    let worker = &mut workers[wi];
                    let end = (worker.pos + batch_bytes).min(data.len());
                    let input = &data[worker.pos..end];
                    let (batch, _) = rec.time("hotpath", || worker.hotpath.process(ssb, input));
                    worker.pos = end;
                    worker.watermark = worker.watermark.max(batch.last_ts);
                    let wm = node_wm(workers);
                    ssb.note_progress(wm);
                    // Epochs close by update volume, and ahead of time when
                    // the node watermark crosses a window boundary.
                    let bucket = window.assign(wm);
                    rec.time("close_epoch", || {
                        if wi == 0 && bucket > *last_epoch_bucket {
                            *last_epoch_bucket = bucket;
                            ssb.close_epoch(&mut sim).map(Some)
                        } else {
                            ssb.maybe_close_epoch(&mut sim)
                        }
                    })
                    .0
                    .expect("fault-free fabric: epoch close cannot fail");
                } else if !workers[wi].done {
                    workers[wi].done = true;
                    workers[wi].watermark = u64::MAX;
                    let wm = node_wm(workers);
                    ssb.note_progress(wm);
                    if wm == u64::MAX {
                        // Last worker of the node: the final epoch releases
                        // every remaining window.
                        rec.time("close_epoch", || ssb.close_epoch(&mut sim))
                            .0
                            .expect("fault-free fabric: epoch close cannot fail");
                    }
                }
                if wi == 0 {
                    rec.time("drain", || drain(ssb, &plan, &window, &mut out));
                    if ssb.vclock().min() == u64::MAX && ssb.flushed() && !ssb.dirty() {
                        rec.time("drain", || drain(ssb, &plan, &window, &mut out));
                        *finished = true;
                    }
                }
            }
        }
        rec.time("sim_run", || sim.run_until(sim.now() + QUANTUM));
        rounds += 1;
        assert!(rounds < max_rounds, "replay of {} did not complete", w.name);
    }
    let wall_ns = rec.close(root);

    let digests: Vec<u64> = nodes.iter().map(|n| n.ssb.state_digest()).collect();
    let problem = if digests != expected.state_digests {
        Some("final state digests differ from the reference".to_string())
    } else if out != *want {
        Some(format!(
            "results differ from the reference: replay {out:?}, reference {want:?}"
        ))
    } else {
        None
    };
    let shares = self_time_by_name(rec.spans(), job)
        .into_iter()
        .map(|(name, ns)| (name, ns as f64 / wall_ns as f64))
        .collect();
    Replayed {
        job,
        wall_s: wall_ns as f64 / 1e9,
        shares,
        problem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn result_digest_ignores_order_but_not_values() {
        let a = SinkResult::Agg {
            window_id: 1,
            key: 2,
            value: 3.0,
        };
        let b = SinkResult::Join {
            window_id: 1,
            key: 2,
            pairs: 9,
        };
        let c = SinkResult::Agg {
            window_id: 1,
            key: 2,
            value: 4.0,
        };
        assert_eq!(
            ResultDigest::of(&[a.clone(), b.clone()]),
            ResultDigest::of(&[b.clone(), a.clone()])
        );
        assert_ne!(
            ResultDigest::of(&[a.clone(), b.clone()]),
            ResultDigest::of(&[c, b.clone()])
        );
        assert_ne!(
            ResultDigest::of(std::slice::from_ref(&a)),
            ResultDigest::of(&[a.clone(), a.clone()])
        );
        assert_eq!(ResultDigest::of(&[b]).pairs, 9);
    }

    /// A small replay of every workload reproduces the engine's output,
    /// and its shares account for the whole job.
    #[test]
    fn small_replays_reproduce_the_reference_and_shares_sum_to_one() {
        for w in &WORKLOADS {
            let small = w.small();
            let parts = small.generate(5);
            let (problems, results) = small.check_results(&parts);
            assert!(problems.is_empty(), "{}: {problems:?}", w.name);
            let reference = small
                .run(
                    crate::workload::Backend::Sim,
                    parts.clone(),
                    small.cfg(),
                    slash_obs::Obs::disabled(),
                )
                .expect("reference job");
            let mut rec = Recorder::new();
            let r = replay(
                &small,
                &parts,
                &Expected::of(&reference),
                &ResultDigest::of(&results),
                &mut rec,
            );
            assert_eq!(r.problem, None, "{}", w.name);
            let total: f64 = r.shares.values().sum();
            assert!(
                (total - 1.0).abs() < 1e-9,
                "{}: shares sum to {total}",
                w.name
            );
            for call in CALLS {
                assert!(r.shares.contains_key(call), "{}: no {call} span", w.name);
            }
        }
    }
}
