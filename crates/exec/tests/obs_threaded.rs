//! Concurrent-observability stress: per-thread registries merged at node
//! completion must lose no counts, and merged histogram quantiles must
//! equal a single-threaded reference recording the same samples. The
//! record path takes no locks — correctness rests entirely on the merge,
//! so the merge is what gets stressed here.

use std::rc::Rc;
use std::sync::mpsc;

use slash_core::RunConfig;
use slash_exec::{JobSpec, Scheduler, ThreadBackend};
use slash_obs::{MetricsRegistry, Obs};
use slash_state::SplitLedger;
use slash_workloads::{ysb_hot, GenConfig};

/// Deterministic per-thread sample stream (splitmix-style), so the
/// threaded recording and the single-threaded reference see the exact
/// same multiset of values.
fn sample(thread: u64, i: u64) -> u64 {
    let mut z = (thread << 32)
        .wrapping_add(i)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % 1_000_000
}

#[test]
fn threaded_registry_merge_loses_no_counts_and_matches_reference_quantiles() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 25_000;

    // Threaded half: each OS thread records into a private Obs (no
    // locks), snapshots its registry, ships the (Send) snapshot back.
    let (tx, rx) = mpsc::channel::<MetricsRegistry>();
    let mut joins = Vec::new();
    for t in 0..THREADS {
        let tx = tx.clone();
        joins.push(std::thread::spawn(move || {
            let obs = Obs::enabled(64);
            for i in 0..PER_THREAD {
                obs.hist_record("stress_ns", "all", sample(t, i));
                obs.counter_add("stress_events", "all", 1);
                obs.hist_record("stress_ns", &format!("thread{t}"), sample(t, i));
            }
            let snap = obs.registry_snapshot().expect("enabled handle");
            tx.send(snap).expect("driver alive");
        }));
    }
    drop(tx);
    let merged = Obs::enabled(64);
    for snap in rx {
        merged.absorb_registry(&snap);
    }
    for j in joins {
        j.join().expect("recorder thread");
    }

    // Reference half: one handle records every sample sequentially.
    let reference = Obs::enabled(64);
    for t in 0..THREADS {
        for i in 0..PER_THREAD {
            reference.hist_record("stress_ns", "all", sample(t, i));
            reference.counter_add("stress_events", "all", 1);
            reference.hist_record("stress_ns", &format!("thread{t}"), sample(t, i));
        }
    }

    merged
        .with_registry(|m| {
            reference.with_registry(|r| {
                assert_eq!(
                    m.counter("stress_events", "all"),
                    THREADS * PER_THREAD,
                    "merge must lose no counter increments"
                );
                let mh = m.hist("stress_ns", "all").expect("merged hist");
                let rh = r.hist("stress_ns", "all").expect("reference hist");
                assert_eq!(mh.count(), rh.count(), "merge must lose no samples");
                assert_eq!(mh.sum(), rh.sum());
                assert_eq!(mh.min(), rh.min());
                assert_eq!(mh.max(), rh.max());
                for q in [0.0, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0] {
                    assert_eq!(
                        mh.quantile(q),
                        rh.quantile(q),
                        "quantile {q} must match the single-threaded reference"
                    );
                }
                // Per-thread series survive the merge individually too.
                for t in 0..THREADS {
                    let label = format!("thread{t}");
                    assert_eq!(
                        m.hist("stress_ns", &label).map(|h| h.count()),
                        Some(PER_THREAD),
                        "{label} series lost samples in the merge"
                    );
                }
            })
        })
        .flatten()
        .expect("both handles enabled");
}

/// SpaceSaving `count - err <= true <= count` must survive the
/// ThreadBackend merge path — per-thread registries recording salted
/// split-key streams, shipped as snapshots and folded with
/// `absorb_registry` — with more live keys than sketch capacity, so
/// evictions charge real error on both sides of the merge.
#[test]
fn heat_bounds_hold_across_absorb_registry_merges() {
    const THREADS: u64 = 6;
    const PER_THREAD: u64 = 30_000;
    const HOT: u64 = 5;
    const BACKGROUND: u64 = 300; // ≫ HEAT_CAPACITY: forces evictions
    let ledger = {
        let mut l = SplitLedger::new(THREADS as usize);
        assert!(l.split(HOT));
        l
    };

    // Each worker thread records its node's salted stream into a private
    // registry — exactly what a ThreadBackend node does before shipping
    // its snapshot to the driver.
    let (tx, rx) = mpsc::channel::<MetricsRegistry>();
    let mut joins = Vec::new();
    for t in 0..THREADS {
        let tx = tx.clone();
        let sub = ledger.sub_for(HOT, t as usize).expect("split active");
        joins.push(std::thread::spawn(move || {
            let obs = Obs::enabled(64);
            for i in 0..PER_THREAD {
                // Every third record is hot and salts to this replica's
                // sub-key; the rest spread over a wide background domain.
                let key = if i % 3 == 0 {
                    sub
                } else {
                    sample(t, i) % BACKGROUND
                };
                obs.heat_observe("key_heat", "all", key, 1);
            }
            let snap = obs.registry_snapshot().expect("enabled handle");
            tx.send(snap).expect("driver alive");
        }));
    }
    drop(tx);
    let merged = Obs::enabled(64);
    for snap in rx {
        merged.absorb_registry(&snap);
    }
    for j in joins {
        j.join().expect("recorder thread");
    }

    // Brute-force truth over the identical deterministic streams.
    let mut truth = std::collections::HashMap::new();
    for t in 0..THREADS {
        let sub = ledger.sub_for(HOT, t as usize).expect("split active");
        for i in 0..PER_THREAD {
            let key = if i % 3 == 0 {
                sub
            } else {
                sample(t, i) % BACKGROUND
            };
            *truth.entry(key).or_insert(0u64) += 1;
        }
    }

    merged
        .with_registry(|reg| {
            let sketch = reg.heat("key_heat", "all").expect("merged sketch");
            assert_eq!(
                sketch.total(),
                THREADS * PER_THREAD,
                "merge must lose no observed weight"
            );
            let top = sketch.top(sketch.capacity());
            let mut saw_error = false;
            for e in &top {
                let t = truth.get(&e.key).copied().unwrap_or(0);
                assert!(e.count >= t, "key {}: count {} < true {t}", e.key, e.count);
                assert!(
                    e.count - e.err <= t,
                    "key {}: lower bound {} > true {t}",
                    e.key,
                    e.count - e.err
                );
                saw_error |= e.err > 0;
            }
            assert!(
                saw_error,
                "domain exceeds capacity: some entry must carry eviction error \
                 or the bound check is vacuous"
            );
            // Every sub-key is provably hot in the merged sketch: its
            // SpaceSaving lower bound clears the uniform background.
            for r in 0..THREADS as usize {
                let sub = ledger.sub_for(HOT, r).expect("split active");
                let e = top
                    .iter()
                    .find(|e| e.key == sub)
                    .expect("sub-key monitored");
                assert!(
                    e.count - e.err >= PER_THREAD / 4,
                    "replica {r} sub-key lower bound too weak: {} - {}",
                    e.count,
                    e.err
                );
            }
        })
        .expect("enabled handle");
}

#[test]
fn threaded_run_publishes_merged_engine_metrics() {
    // End-to-end: a ThreadBackend run with obs enabled must surface the
    // per-node counters and latency histograms through the merged
    // registry, and the counters must agree with the report.
    let mut gc = GenConfig::new(4, 4_000);
    gc.seed = 0x0B5;
    let parts: Vec<Vec<u8>> = ysb_hot(&gc)
        .partitions
        .into_iter()
        .map(|p| Rc::try_unwrap(p).unwrap_or_else(|p| (*p).clone()))
        .collect();
    let mut cfg = RunConfig::new(2, 2);
    cfg.epoch_bytes = 64 * 1024;
    let obs = Obs::enabled(4096);
    let report = ThreadBackend::new().run_with_obs(
        JobSpec::new(|| ysb_hot(&GenConfig::new(1, 1)).plan, parts, cfg),
        obs.clone(),
    );
    let (recorded, latency_samples, tx_bytes) = obs
        .with_registry(|reg| {
            let recorded: u64 = (0..2)
                .map(|n| reg.counter("records", &format!("node{n}")))
                .sum();
            let latency: u64 = (0..2)
                .filter_map(|n| reg.hist("record_latency_ns", &format!("node{n}")))
                .map(|h| h.count())
                .sum();
            (recorded, latency, reg.counter("net_tx_bytes", "fabric"))
        })
        .expect("enabled handle");
    assert_eq!(
        recorded, report.records,
        "merged counters must match the report"
    );
    assert!(latency_samples > 0, "workers must record latency samples");
    assert_eq!(tx_bytes, report.net_tx_bytes);
    assert!(report.net_tx_bytes > 0);
}
