//! The concrete benchmark generators.

use std::rc::Rc;

use slash_core::{AggSpec, Predicate, QueryPlan, RecordSchema, StreamDef, WindowAssigner};
use slash_desim::DetRng;
use slash_state::hash::partition_of;
use slash_state::pack_key;

use crate::dist::{Pareto, Uniform, Zipf};
use crate::spec::{GenConfig, Workload};

/// Key-distribution choice for generators that support a skew sweep.
enum KeyDist {
    Uniform(Uniform),
    Zipf(Zipf),
    Pareto(Pareto),
}

impl KeyDist {
    fn sample(&self, rng: &mut DetRng) -> u64 {
        match self {
            KeyDist::Uniform(d) => d.sample(rng),
            KeyDist::Zipf(d) => d.sample(rng),
            KeyDist::Pareto(d) => d.sample(rng),
        }
    }
}

/// Build one partition of fixed-size records: `fill(rng, i, rec)` writes
/// the record body; timestamps are strictly monotone (paper §2.2's data
/// model) with the given step.
fn gen_partition(
    cfg: &GenConfig,
    part: usize,
    size: usize,
    ts_step: u64,
    mut fill: impl FnMut(&mut DetRng, u64, &mut [u8]),
) -> Rc<Vec<u8>> {
    let mut root = DetRng::new(cfg.seed);
    let mut rng = root.fork(part as u64);
    let n = cfg.records_per_partition;
    let mut buf = vec![0u8; (n as usize) * size];
    for i in 0..n {
        let rec = &mut buf[(i as usize) * size..(i as usize + 1) * size];
        let ts = 1 + i * ts_step;
        rec[0..8].copy_from_slice(&ts.to_le_bytes());
        fill(&mut rng, i, rec);
    }
    Rc::new(buf)
}

// ---------------------------------------------------------------------
// YSB — Yahoo! Streaming Benchmark (78-byte ad events).
// ---------------------------------------------------------------------

/// YSB record layout: ts(0) | campaign(8) | event_type(16) | 54 B attrs.
pub const YSB_SCHEMA: RecordSchema = RecordSchema::plain(78);
/// YSB's filter: of the three event types keep "view" (0) — the
/// benchmark's 1/3 selectivity.
const YSB_VIEWS: Predicate = Predicate::field_eq(16, 0);
/// YSB window: 10-minute event-time tumbling count (paper §8.1.2), in ms.
pub const YSB_WINDOW_MS: u64 = 600_000;
/// YSB campaign-key domain (paper: uniform from a 10 M-wide range).
pub const YSB_KEYS: u64 = 10_000_000;

fn ysb_with(cfg: &GenConfig, dist_of: impl Fn() -> KeyDist) -> Workload {
    // Cover ~3 windows so triggers fire mid-run.
    let span = 3 * YSB_WINDOW_MS;
    let ts_step = (span / cfg.records_per_partition).max(1);
    let partitions = (0..cfg.partitions)
        .map(|p| {
            let dist = dist_of();
            gen_partition(cfg, p, YSB_SCHEMA.size, ts_step, |rng, _i, rec| {
                let key = dist.sample(rng);
                rec[8..16].copy_from_slice(&key.to_le_bytes());
                // Three event types; the filter keeps "view" (0): the
                // benchmark's 1/3 selectivity.
                let ev = rng.next_below(3);
                rec[16..24].copy_from_slice(&ev.to_le_bytes());
            })
        })
        .collect();
    Workload {
        name: "ysb",
        plan: QueryPlan::Aggregate {
            input: StreamDef::new(YSB_SCHEMA).with_filter(YSB_VIEWS),
            window: WindowAssigner::Tumbling {
                size: YSB_WINDOW_MS,
            },
            agg: AggSpec::Count,
        },
        partitions,
        records: cfg.total_records(),
    }
}

/// YSB with uniform campaign keys (Fig. 6a).
pub fn ysb(cfg: &GenConfig) -> Workload {
    ysb_with(cfg, || KeyDist::Uniform(Uniform::new(YSB_KEYS)))
}

/// YSB with Zipf(z) campaign keys — the skew sweep of Fig. 8d.
pub fn ysb_zipf(cfg: &GenConfig, z: f64) -> Workload {
    ysb_with(cfg, move || KeyDist::Zipf(Zipf::new(YSB_KEYS, z)))
}

/// Campaign domain of the keyed-ingress skew sweep: small enough that a
/// capacity-64 SpaceSaving sketch provably identifies the head of the
/// distribution, large enough that the tail still spreads over every
/// node.
pub const YSB_ZIPF_KEYS: u64 = 10_000;

/// YSB with Zipf(θ) campaign keys and **keyed ingress**: one global
/// monotone stream whose records are routed to partitions by
/// `partition_of(key)` — the deployment shape where upstream sharding is
/// key-hashed, so a hot key concentrates both pipeline *and* state work
/// on one node. θ = 0 degenerates to uniform. This is the workload the
/// hot-key splitting sweep (`repro split`) runs on; the plain
/// [`ysb_zipf`] keeps the paper's balanced-ingress shape.
///
/// `cfg.partitions` must equal the node count (keyed ingress has one
/// stream per node). Partition sizes are intentionally *uneven* under
/// skew — that imbalance is what splitting exists to fix.
pub fn ysb_zipf_keyed(cfg: &GenConfig, theta: f64) -> Workload {
    let parts = cfg.partitions;
    assert!(parts > 0);
    let total = cfg.total_records();
    let span = 3 * YSB_WINDOW_MS;
    let ts_step = (span / total.max(1)).max(1);
    let dist = if theta > 0.0 {
        KeyDist::Zipf(Zipf::new(YSB_ZIPF_KEYS, theta))
    } else {
        KeyDist::Uniform(Uniform::new(YSB_ZIPF_KEYS))
    };
    let mut root = DetRng::new(cfg.seed);
    let mut rng = root.fork(0);
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); parts];
    let mut rec = [0u8; 78];
    for i in 0..total {
        let ts = 1 + i * ts_step;
        let key = dist.sample(&mut rng);
        let ev = rng.next_below(3);
        rec[0..8].copy_from_slice(&ts.to_le_bytes());
        rec[8..16].copy_from_slice(&key.to_le_bytes());
        rec[16..24].copy_from_slice(&ev.to_le_bytes());
        // Route by the same hash the SSB partitions state with: the
        // node that receives a key's records is also that key's leader.
        let dest = partition_of(pack_key(0, key), parts);
        bufs[dest].extend_from_slice(&rec);
    }
    Workload {
        name: "ysb_zipf_keyed",
        plan: QueryPlan::Aggregate {
            input: StreamDef::new(YSB_SCHEMA).with_filter(YSB_VIEWS),
            window: WindowAssigner::Tumbling {
                size: YSB_WINDOW_MS,
            },
            agg: AggSpec::Count,
        },
        partitions: bufs.into_iter().map(Rc::new).collect(),
        records: total,
    }
}

/// Campaign domain of the classic YSB setup: ~100 active campaigns.
pub const YSB_HOT_KEYS: u64 = 100;

/// YSB with the benchmark's classic ~100-campaign domain (`ysb` above
/// follows the paper's 10 M-wide uniform range). Each batch's updates
/// collapse onto a handful of distinct `(window, campaign)` keys, making
/// this the write combiner's best case — perf-ledger's `hot_thr2` and the
/// combiner verdict test's subject.
pub fn ysb_hot(cfg: &GenConfig) -> Workload {
    let mut w = ysb_with(cfg, || KeyDist::Uniform(Uniform::new(YSB_HOT_KEYS)));
    w.name = "ysb_hot";
    w
}

// ---------------------------------------------------------------------
// NEXMark.
// ---------------------------------------------------------------------

/// NB7 bid record: ts | auction key | price | pad = 32 B (paper: bids are
/// 32 bytes).
pub const NB7_SCHEMA: RecordSchema = RecordSchema::plain(32);
/// NB7 window: 60 s, in ms.
pub const NB7_WINDOW_MS: u64 = 60_000;
/// NB7 key domain.
pub const NB7_KEYS: u64 = 1_000_000;

/// NB7: windowed maximum bid price, Pareto-skewed keys with heavy hitters
/// (Fig. 6c). Small state, RMW update pattern.
pub fn nb7(cfg: &GenConfig) -> Workload {
    let span = 3 * NB7_WINDOW_MS;
    let ts_step = (span / cfg.records_per_partition).max(1);
    let partitions = (0..cfg.partitions)
        .map(|p| {
            let dist = KeyDist::Pareto(Pareto::heavy_hitters(NB7_KEYS));
            gen_partition(cfg, p, NB7_SCHEMA.size, ts_step, |rng, _i, rec| {
                let key = dist.sample(rng);
                rec[8..16].copy_from_slice(&key.to_le_bytes());
                let price = 100 + rng.next_below(10_000);
                rec[16..24].copy_from_slice(&price.to_le_bytes());
            })
        })
        .collect();
    Workload {
        name: "nb7",
        plan: QueryPlan::Aggregate {
            input: StreamDef::new(NB7_SCHEMA),
            window: WindowAssigner::Tumbling {
                size: NB7_WINDOW_MS,
            },
            agg: AggSpec::MaxU64 { off: 16 },
        },
        partitions,
        records: cfg.total_records(),
    }
}

/// NB8 unified record: ts | seller key | side | 248 B payload = 272 B
/// (auctions are 269 B in the paper; the unified stream pads both sides
/// to the larger size).
pub const NB8_SCHEMA: RecordSchema = RecordSchema::plain(272);
/// NB8 window: 12-hour tumbling join, in ms.
pub const NB8_WINDOW_MS: u64 = 12 * 3600 * 1000;

/// NB8: 12 h tumbling join of auctions ⋈ sellers (4:1 ratio, every
/// auction references a valid seller). Large state from the append
/// pattern and large tuples (Fig. 6d).
pub fn nb8(cfg: &GenConfig) -> Workload {
    // The whole run fits one window: state grows until the final trigger.
    let ts_step = (NB8_WINDOW_MS / 2 / cfg.records_per_partition).max(1);
    let sellers = (cfg.records_per_partition / 5).max(16);
    let partitions = (0..cfg.partitions)
        .map(|p| {
            let dist = Uniform::new(sellers);
            gen_partition(cfg, p, NB8_SCHEMA.size, ts_step, |rng, i, rec| {
                // 4 auctions : 1 seller.
                let side = u64::from(i % 5 == 4);
                let key = if side == 1 {
                    i / 5 % sellers // sellers enumerate the domain
                } else {
                    dist.sample(rng)
                };
                rec[8..16].copy_from_slice(&key.to_le_bytes());
                rec[16..24].copy_from_slice(&side.to_le_bytes());
            })
        })
        .collect();
    Workload {
        name: "nb8",
        plan: QueryPlan::Join {
            input: StreamDef::new(NB8_SCHEMA),
            side_off: 16,
            window: WindowAssigner::Tumbling {
                size: NB8_WINDOW_MS,
            },
            retain_bytes: 64,
        },
        partitions,
        records: cfg.total_records(),
    }
}

/// NB11 unified record: ts | seller key | side | pad = 32 B (bids are
/// 32 B; the small-tuple join of Fig. 6e).
pub const NB11_SCHEMA: RecordSchema = RecordSchema::plain(32);
/// NB11 session gap, in ms.
pub const NB11_GAP_MS: u64 = 10_000;

/// NB11: session-window join of bids ⋈ sellers (small tuples).
pub fn nb11(cfg: &GenConfig) -> Workload {
    let span = 6 * NB11_GAP_MS;
    let ts_step = (span / cfg.records_per_partition).max(1);
    let sellers = (cfg.records_per_partition / 50).max(16);
    let partitions = (0..cfg.partitions)
        .map(|p| {
            let dist = Uniform::new(sellers);
            gen_partition(cfg, p, NB11_SCHEMA.size, ts_step, |rng, i, rec| {
                let side = u64::from(i % 5 == 4);
                let key = dist.sample(rng);
                rec[8..16].copy_from_slice(&key.to_le_bytes());
                rec[16..24].copy_from_slice(&side.to_le_bytes());
            })
        })
        .collect();
    Workload {
        name: "nb11",
        plan: QueryPlan::Join {
            input: StreamDef::new(NB11_SCHEMA),
            side_off: 16,
            window: WindowAssigner::Session { gap: NB11_GAP_MS },
            retain_bytes: 16,
        },
        partitions,
        records: cfg.total_records(),
    }
}

// ---------------------------------------------------------------------
// CM — Cluster Monitoring.
// ---------------------------------------------------------------------

/// CM record: ts | job key | cpu f64 | 40 B attrs = 64 B.
pub const CM_SCHEMA: RecordSchema = RecordSchema::plain(64);
/// CM window: 2 s tumbling mean, in ms.
pub const CM_WINDOW_MS: u64 = 2_000;
/// CM job-id domain (the trace has hundreds of thousands of jobs).
pub const CM_JOBS: u64 = 100_000;

/// CM: mean CPU utilization per job over 2 s tumbling windows, on a
/// synthesized Google-trace-shaped stream (Fig. 6b).
pub fn cm(cfg: &GenConfig) -> Workload {
    let span = 10 * CM_WINDOW_MS;
    let ts_step = (span / cfg.records_per_partition).max(1);
    let partitions = (0..cfg.partitions)
        .map(|p| {
            // Job popularity in the trace is itself long-tailed.
            let dist = Zipf::new(CM_JOBS, 0.9);
            gen_partition(cfg, p, CM_SCHEMA.size, ts_step, |rng, _i, rec| {
                let key = dist.sample(rng);
                rec[8..16].copy_from_slice(&key.to_le_bytes());
                let cpu = rng.next_f64();
                rec[16..24].copy_from_slice(&cpu.to_le_bytes());
            })
        })
        .collect();
    Workload {
        name: "cm",
        plan: QueryPlan::Aggregate {
            input: StreamDef::new(CM_SCHEMA),
            window: WindowAssigner::Tumbling { size: CM_WINDOW_MS },
            agg: AggSpec::MeanF64 { off: 16 },
        },
        partitions,
        records: cfg.total_records(),
    }
}

// ---------------------------------------------------------------------
// RO — the drill-down read-only benchmark.
// ---------------------------------------------------------------------

/// RO record: ts | key = 16 B.
pub const RO_SCHEMA: RecordSchema = RecordSchema::plain(16);
/// RO key domain (paper: uniform over a 100 M-wide range).
pub const RO_KEYS: u64 = 100_000_000;

fn ro_with(cfg: &GenConfig, dist_of: impl Fn() -> KeyDist) -> Workload {
    let partitions = (0..cfg.partitions)
        .map(|p| {
            let dist = dist_of();
            gen_partition(cfg, p, RO_SCHEMA.size, 1, |rng, _i, rec| {
                let key = dist.sample(rng);
                rec[8..16].copy_from_slice(&key.to_le_bytes());
            })
        })
        .collect();
    Workload {
        name: "ro",
        plan: QueryPlan::Aggregate {
            input: StreamDef::new(RO_SCHEMA),
            // One unbounded window: pure per-key counting, no triggers
            // during the run.
            window: WindowAssigner::Tumbling { size: u64::MAX / 4 },
            agg: AggSpec::Count,
        },
        partitions,
        records: cfg.total_records(),
    }
}

/// RO with uniform keys (§8.3 drill-down).
pub fn ro(cfg: &GenConfig) -> Workload {
    ro_with(cfg, || KeyDist::Uniform(Uniform::new(RO_KEYS)))
}

/// RO with Zipf(z) keys — the skew sweep of Fig. 8d.
pub fn ro_zipf(cfg: &GenConfig, z: f64) -> Workload {
    ro_with(cfg, move || KeyDist::Zipf(Zipf::new(RO_KEYS, z)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> GenConfig {
        GenConfig::new(2, 1000)
    }

    #[test]
    fn ysb_shape() {
        let w = ysb(&small());
        assert_eq!(w.partitions.len(), 2);
        assert_eq!(w.partitions[0].len(), 1000 * 78);
        // Timestamps strictly monotone, keys in range, event types 0..3.
        let schema = YSB_SCHEMA;
        let mut last = 0;
        let mut views = 0;
        schema.for_each(&w.partitions[0], |r| {
            let ts = schema.ts(r);
            assert!(ts > last);
            last = ts;
            assert!(schema.key(r) < YSB_KEYS);
            let ev = schema.field_u64(r, 16);
            assert!(ev < 3);
            if ev == 0 {
                views += 1;
            }
        });
        // ~1/3 selectivity.
        assert!((250..450).contains(&views), "views = {views}");
        // Spans about 3 windows.
        assert!(last <= 3 * YSB_WINDOW_MS + 1);
        assert!(last > 2 * YSB_WINDOW_MS);
    }

    #[test]
    fn ysb_hot_collapses_the_key_domain() {
        let w = ysb_hot(&small());
        assert_eq!(w.name, "ysb_hot");
        let mut keys = std::collections::HashSet::new();
        YSB_SCHEMA.for_each(&w.partitions[0], |r| {
            keys.insert(YSB_SCHEMA.key(r));
        });
        assert!(keys.len() <= YSB_HOT_KEYS as usize);
        // 1000 draws over 100 campaigns touch most of them.
        assert!(keys.len() > 50, "distinct campaigns: {}", keys.len());
    }

    #[test]
    fn partitions_are_non_disjoint_but_distinct_streams() {
        let w = ro(&GenConfig::new(2, 2000));
        assert_ne!(
            w.partitions[0], w.partitions[1],
            "partitions must be independent streams"
        );
    }

    #[test]
    fn nb7_prices_and_pareto_keys() {
        let w = nb7(&small());
        let schema = NB7_SCHEMA;
        let mut hot = 0;
        schema.for_each(&w.partitions[0], |r| {
            let price = schema.field_u64(r, 16);
            assert!((100..10_100).contains(&price));
            if schema.key(r) < 10 {
                hot += 1;
            }
        });
        assert!(hot > 200, "Pareto heavy hitters expected: {hot}");
    }

    #[test]
    fn nb8_ratio_and_valid_sellers() {
        let cfg = GenConfig::new(1, 5000);
        let w = nb8(&cfg);
        let schema = NB8_SCHEMA;
        let sellers = 5000 / 5;
        let mut n_sellers = 0u64;
        let mut n_auctions = 0u64;
        schema.for_each(&w.partitions[0], |r| {
            let side = schema.field_u64(r, 16);
            assert!(schema.key(r) < sellers);
            if side == 1 {
                n_sellers += 1;
            } else {
                n_auctions += 1;
            }
        });
        assert_eq!(n_auctions, 4 * n_sellers, "4:1 auction:seller ratio");
    }

    #[test]
    fn cm_cpu_in_unit_interval() {
        let w = cm(&small());
        let schema = CM_SCHEMA;
        schema.for_each(&w.partitions[0], |r| {
            let cpu = schema.field_f64(r, 16);
            assert!((0.0..1.0).contains(&cpu));
            assert!(schema.key(r) < CM_JOBS);
        });
    }

    #[test]
    fn generators_are_deterministic() {
        let a = ysb(&small());
        let b = ysb(&small());
        assert_eq!(a.partitions[0], b.partitions[0]);
        assert_eq!(a.partitions[1], b.partitions[1]);
        let mut cfg = small();
        cfg.seed = 99;
        let c = ysb(&cfg);
        assert_ne!(a.partitions[0], c.partitions[0]);
    }

    #[test]
    fn zipf_keyed_routes_by_state_hash_and_stays_monotone() {
        let cfg = GenConfig::new(4, 2000);
        let w = ysb_zipf_keyed(&cfg, 0.9);
        assert_eq!(w.partitions.len(), 4);
        assert_eq!(w.records, 8000);
        let total: usize = w.partitions.iter().map(|p| p.len()).sum();
        assert_eq!(total, 8000 * 78, "keyed routing must not drop records");
        for (p, part) in w.partitions.iter().enumerate() {
            let mut last = 0;
            YSB_SCHEMA.for_each(part, |r| {
                let ts = YSB_SCHEMA.ts(r);
                assert!(ts > last, "subsequence of a monotone stream");
                last = ts;
                let key = YSB_SCHEMA.key(r);
                assert!(key < YSB_ZIPF_KEYS);
                assert_eq!(
                    partition_of(pack_key(0, key), 4),
                    p,
                    "record for key {key} landed off its leader"
                );
            });
        }
    }

    #[test]
    fn zipf_keyed_skew_concentrates_load_on_one_node() {
        let cfg = GenConfig::new(4, 5000);
        let imbalance = |theta: f64| {
            let w = ysb_zipf_keyed(&cfg, theta);
            let sizes: Vec<usize> = w.partitions.iter().map(|p| p.len() / 78).collect();
            let max = *sizes.iter().max().unwrap_or(&0) as f64;
            max / (w.records as f64 / sizes.len() as f64)
        };
        let flat = imbalance(0.0);
        let hot = imbalance(1.5);
        assert!(flat < 1.2, "uniform keyed ingress is balanced: {flat}");
        assert!(
            hot > 1.5,
            "zipf 1.5 must overload the hot key's node: {hot}"
        );
    }

    #[test]
    fn zipf_variant_is_hotter_than_uniform() {
        let cfg = GenConfig::new(1, 5000);
        let distinct = |w: &Workload| {
            let mut set = std::collections::HashSet::new();
            RO_SCHEMA.for_each(&w.partitions[0], |r| {
                set.insert(RO_SCHEMA.key(r));
            });
            set.len()
        };
        let u = distinct(&ro(&cfg));
        let z = distinct(&ro_zipf(&cfg, 1.5));
        assert!(z < u / 4, "zipf 1.5 distinct {z} vs uniform {u}");
    }
}
