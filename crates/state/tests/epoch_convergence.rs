//! Property test of the epoch-based coherence protocol (§7.2.2):
//! distributed instances of the SSB that follow the protocol converge, at
//! the end of each epoch, to the state a sequential execution would have
//! produced — for arbitrary schedules of updates, epoch tokens, and
//! simulation progress. Schedules are drawn from seeded `DetRng` loops so
//! the suite runs fully offline and failures reproduce from their seed.

use std::collections::HashMap;

use slash_desim::{DetRng, Sim};
use slash_net::ChannelConfig;
use slash_rdma::{Fabric, FabricConfig};
use slash_state::backend::{build_cluster, SsbConfig, SsbNode};
use slash_state::hash::{pack_key, partition_of};
use slash_state::CounterCrdt;

#[derive(Debug, Clone)]
enum Op {
    /// Node `who` adds `amount` to key `g`.
    Update { who: usize, g: u64, amount: u64 },
    /// Node `who` closes its epoch.
    Epoch { who: usize },
    /// Pump all nodes and run the simulation to quiescence.
    Settle,
}

/// Draw one schedule step with the proptest version's weights
/// (6 update : 2 epoch : 1 settle) over 4 logical node slots.
fn draw_op(rng: &mut DetRng) -> Op {
    match rng.next_below(9) {
        0..=5 => Op::Update {
            who: rng.next_below(4) as usize,
            g: rng.next_below(16),
            amount: 1 + rng.next_below(99),
        },
        6..=7 => Op::Epoch {
            who: rng.next_below(4) as usize,
        },
        _ => Op::Settle,
    }
}

fn settle(sim: &mut Sim, ssb: &mut [SsbNode]) {
    for _ in 0..10_000 {
        let mut progress = 0;
        for node in ssb.iter_mut() {
            let (s, m) = node.pump(sim).unwrap();
            progress += s + m;
        }
        let in_flight = sim.pending_events() > 0;
        sim.run();
        if progress == 0 && !in_flight && ssb.iter().all(|x| x.flushed()) {
            return;
        }
    }
    panic!("did not settle");
}

#[test]
fn distributed_equals_sequential() {
    for seed in 0..64u64 {
        let mut rng = DetRng::new(0xE90C ^ seed.wrapping_mul(0x9E3779B9));
        let n = 2 + rng.next_below(3) as usize;
        let n_ops = 1 + rng.next_below(149) as usize;

        let mut sim = Sim::new();
        let fabric = Fabric::new(FabricConfig::default());
        let nodes = fabric.add_nodes(n);
        let cfg = SsbConfig {
            nodes: n,
            epoch_bytes: u64::MAX,
            channel: ChannelConfig {
                credits: 4,
                buffer_size: 512,
                credit_batch: 1,
            },
        };
        let mut ssb = build_cluster(&fabric, &nodes, CounterCrdt::descriptor(), cfg);
        let mut expected: HashMap<u64, u64> = HashMap::new();

        for _ in 0..n_ops {
            match draw_op(&mut rng) {
                Op::Update { who, g, amount } => {
                    let who = who % n;
                    ssb[who].rmw(pack_key(1, g), |v| CounterCrdt::add(v, amount));
                    *expected.entry(g).or_default() += amount;
                }
                Op::Epoch { who } => {
                    let who = who % n;
                    ssb[who].close_epoch(&mut sim).unwrap();
                }
                Op::Settle => settle(&mut sim, &mut ssb),
            }
        }
        // Final epoch on every node, then settle: all partials reach their
        // leaders.
        for node in ssb.iter_mut() {
            node.close_epoch(&mut sim).unwrap();
        }
        settle(&mut sim, &mut ssb);

        for (g, want) in &expected {
            let key = pack_key(1, *g);
            let leader = partition_of(key, n);
            let got = ssb[leader].local_get(key).map(CounterCrdt::get);
            assert_eq!(got, Some(*want), "key {g} on leader {leader}, seed {seed}");
        }
    }
}
