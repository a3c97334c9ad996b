//! Property-based end-to-end tests: random streams, random window sizes,
//! random cluster shapes — the Slash engine must always match the
//! sequential fold of `slash_verify::oracle` (property P2 at engine level):
//! no window fired twice, no record lost. Cases are drawn from seeded `DetRng`
//! loops so the suite runs fully offline and failures reproduce from
//! their seed.

use std::rc::Rc;

use slash::core::{
    AggSpec, QueryPlan, RecordSchema, RunConfig, SlashCluster, StreamDef, WindowAssigner,
};
use slash::desim::DetRng;
use slash_verify::oracle;

/// A randomly generated partition: (ts, key) records with strictly
/// monotone timestamps.
fn random_partition(rng: &mut DetRng, max_records: usize) -> Vec<(u64, u64)> {
    let n = 1 + rng.next_below(max_records as u64 - 1) as usize;
    let mut ts = 1 + rng.next_below(99);
    (0..n)
        .map(|_| {
            ts += 1 + rng.next_below(49);
            (ts, rng.next_below(12))
        })
        .collect()
}

fn encode(partition: &[(u64, u64)]) -> Rc<Vec<u8>> {
    let mut buf = Vec::with_capacity(partition.len() * 16);
    for (ts, key) in partition {
        buf.extend_from_slice(&ts.to_le_bytes());
        buf.extend_from_slice(&key.to_le_bytes());
    }
    Rc::new(buf)
}

/// Count `parts` in tumbling windows of `window` on `nodes × workers`
/// under `epoch_bytes` epochs; the results must equal the sequential fold.
fn assert_exact(window: u64, parts: Vec<Rc<Vec<u8>>>, nodes: usize, epoch_bytes: u64, seed: u64) {
    let plan = QueryPlan::Aggregate {
        input: StreamDef::new(RecordSchema::plain(16)),
        window: WindowAssigner::Tumbling { size: window },
        agg: AggSpec::Count,
    };
    let mut cfg = RunConfig::new(nodes, parts.len() / nodes);
    cfg.collect_results = true;
    cfg.epoch_bytes = epoch_bytes;
    let expected = oracle::oracle(&plan, &parts);
    let report = SlashCluster::run(plan, parts, cfg);
    let verdict = oracle::check(&expected, &report);
    assert!(verdict.is_ok(), "seed {seed}: {verdict:?}");
}

#[test]
fn random_streams_match_sequential_counts() {
    for seed in 0..24u64 {
        let mut rng = DetRng::new(0xE2E ^ seed.wrapping_mul(0x9E3779B9));
        let n_parts = 2 + rng.next_below(5) as usize;
        let parts: Vec<Vec<(u64, u64)>> = (0..n_parts)
            .map(|_| random_partition(&mut rng, 300))
            .collect();
        let window = 50 + rng.next_below(1950);
        let nodes = 1 + rng.next_below(3) as usize;

        // Shape the partition list to nodes × workers.
        let nodes = nodes.min(parts.len());
        let workers = parts.len() / nodes;
        let parts = parts[..nodes * workers].iter().map(|p| encode(p)).collect();
        assert_exact(window, parts, nodes, 1024, seed); // aggressive epochs
    }
}

/// Straggler resilience: one worker gets a much longer stream than the
/// others. Watermarks must hold results back until the straggler catches
/// up, and nothing may be lost or double-counted.
#[test]
fn stragglers_delay_but_never_corrupt() {
    for seed in 0..16u64 {
        let mut rng = DetRng::new(0x57A6 ^ seed.wrapping_mul(0x9E3779B9));
        let short_len = 10 + rng.next_below(90) as usize;
        let long_factor = 5 + rng.next_below(15) as usize;
        let window = 100 + rng.next_below(900);

        let short: Vec<(u64, u64)> = (0..short_len)
            .map(|i| (1 + i as u64 * 7, i as u64 % 4))
            .collect();
        let long: Vec<(u64, u64)> = (0..short_len * long_factor)
            .map(|i| (1 + i as u64 * 3, i as u64 % 4))
            .collect();
        assert_exact(window, vec![encode(&short), encode(&long)], 2, 512, seed);
    }
}
