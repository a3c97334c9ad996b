//! Micro-benchmarks of the substrate data structures: the LSS, the
//! FASTER-style hash index, CRDT merges, and window assignment. These
//! measure *host* performance of the real data structures (not simulated
//! time) — the state backend does real work in the reproduction, so its
//! efficiency bounds how fast experiments run. Runs on the self-contained
//! `slash_bench::harness` (fully offline).

use slash_bench::harness::{black_box, Harness, Throughput};
use slash_state::crdts::{CounterCrdt, MeanCrdt};
use slash_state::entry::EntryKind;
use slash_state::hash::{hash_key, pack_key};
use slash_state::index::HashIndex;
use slash_state::log::Lss;
use slash_state::Partition;

fn bench_lss_append(h: &mut Harness) {
    for value_size in [8usize, 64, 256] {
        let value = vec![0xABu8; value_size];
        h.bench_batched(&format!("lss_append/{value_size}"), Lss::new, |mut log| {
            for i in 0..1000u64 {
                log.append(
                    i as u128,
                    slash_state::entry::NO_PREV,
                    EntryKind::Fixed,
                    black_box(&value),
                );
            }
            log
        });
    }
}

fn bench_index_probe(h: &mut Harness) {
    for n in [1_000u64, 100_000] {
        // Build a partition with n keys, then measure lookups.
        let mut part = Partition::new(0, CounterCrdt::descriptor());
        for k in 0..n {
            part.rmw(pack_key(1, k), |v| CounterCrdt::add(v, 1));
        }
        let mut k = 0u64;
        h.bench_throughput(&format!("index_probe/{n}"), Throughput::Elements(1), || {
            k = (k + 7919) % n;
            black_box(part.get(pack_key(1, k)));
        });
    }
}

fn bench_rmw_hot_path(h: &mut Harness) {
    // Slash's per-record hot path: hash + index probe + in-place RMW.
    for keys in [256u64, 65_536] {
        let mut part = Partition::new(0, CounterCrdt::descriptor());
        let mut k = 0u64;
        h.bench_throughput(
            &format!("state_rmw/{keys}"),
            Throughput::Elements(1),
            || {
                k = (k + 31) % keys;
                part.rmw(pack_key(1, k), |v| CounterCrdt::add(v, 1));
            },
        );
    }
}

fn bench_crdt_merge(h: &mut Harness) {
    {
        let d = CounterCrdt::descriptor();
        let mut dst = vec![0u8; 8];
        let src = 42u64.to_le_bytes();
        h.bench_throughput("crdt_merge/counter", Throughput::Elements(1), || {
            (d.merge)(black_box(&mut dst), black_box(&src));
        });
    }
    {
        let d = MeanCrdt::descriptor();
        let mut dst = vec![0u8; 16];
        let mut src = vec![0u8; 16];
        MeanCrdt::observe(&mut src, 1.5);
        h.bench_throughput("crdt_merge/mean", Throughput::Elements(1), || {
            (d.merge)(black_box(&mut dst), black_box(&src));
        });
    }
}

fn bench_hashing(h: &mut Harness) {
    let mut k = 0u128;
    h.bench_throughput("hash/hash_key", Throughput::Elements(1), || {
        k = k.wrapping_add(0x9E37_79B9);
        black_box(hash_key(k));
    });
}

fn bench_index_growth(h: &mut Harness) {
    h.bench_batched(
        "index_insert_100k_with_growth",
        || HashIndex::with_capacity(64),
        |mut idx| {
            // Addresses stand in for log positions; keys are implicit
            // in the verify closure (always-miss: all distinct).
            for a in 0..100_000u64 {
                let hash = slash_state::hash::hash_u64(a);
                let probe = idx.probe(hash, |_| false);
                idx.put(hash, probe, a, slash_state::hash::hash_u64);
            }
            idx
        },
    );
}

fn main() {
    let mut h = Harness::from_args();
    bench_lss_append(&mut h);
    bench_index_probe(&mut h);
    bench_rmw_hot_path(&mut h);
    bench_crdt_merge(&mut h);
    bench_hashing(&mut h);
    bench_index_growth(&mut h);
}
