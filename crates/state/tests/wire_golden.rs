//! "Wire bytes unchanged" as a test: fixed operation sequences whose
//! epoch-delta chunks, snapshot chunks and [`SsbCheckpoint`]s are compared
//! against literals captured from the commit *before* the state layer's
//! entry paths were rewritten (shift/mask addressing, in-place inserts,
//! single-walk index installs, flat delta staging). The appended-state
//! literals were captured again when holistic state became per-key element
//! runs, which moved its log and wire bytes on purpose; the fixed-state
//! ones never moved. Snapshot chunks list
//! keys in index-slot order and delta chunks list entries in log order, so
//! these literals pin index slot placement (growth instants included) and
//! log layout (padding, sealing, reclamation), not just content.
//!
//! The small case spells its bytes out; the large ones — index growth,
//! overflow chains, several epochs, a window drain, both state kinds —
//! compare [`chunks_digest`]s, which fold every byte and length.

use slash_desim::{DetRng, Sim};
use slash_net::ChannelConfig;
use slash_rdma::{Fabric, FabricConfig};
use slash_state::backend::{build_cluster, SsbConfig, SsbNode};
use slash_state::delta::ChunkBuilder;
use slash_state::descriptor::appended_descriptor;
use slash_state::hash::pack_key;
use slash_state::{
    chunks_digest, snapshot_chunks, CounterCrdt, Partition, SsbCheckpoint, StateDescriptor,
    WriteCombiner,
};

fn hex(chunks: &[Vec<u8>]) -> Vec<String> {
    let byte = |b: &u8| format!("{b:02x}");
    chunks
        .iter()
        .map(|c| c.iter().map(byte).collect())
        .collect()
}

#[test]
fn a_small_partition_ships_the_parents_bytes() {
    // 128-byte segments: three 40-byte entries each, 8 bytes of pad.
    let mut p = Partition::with_segment_size(3, CounterCrdt::descriptor(), 128);
    for (g, n) in [(5, 1), (9, 2), (5, 3), (1, 4), (7, 5)] {
        p.rmw(pack_key(2, g), |v| CounterCrdt::add(v, n));
    }
    p.merge_fixed(pack_key(2, 9), &40u64.to_le_bytes());
    p.merge_fixed(pack_key(3, 1), &7u64.to_le_bytes());
    assert!(p.remove(pack_key(2, 1)));

    let snapshot = snapshot_chunks(&p, 77, 128);
    let mut delta = ChunkBuilder::new(3, p.epoch(), 88, 5, 128);
    p.close_epoch(|h, v| delta.push(h.key, h.kind, v));
    assert_eq!(hex(&snapshot), SMALL_SNAPSHOT);
    assert_eq!(hex(&delta.finish()), SMALL_DELTA);
}

const SMALL_SNAPSHOT: [&str; 2] = [
    "030000000300000000000000000000004d00000000000000000000000000000009000000000000000200000000000000\
     08000000000000002a00000000000000050000000000000002000000000000000800000000000000040000000000\
     00000700000000000000020000000000000008000000000000000500000000000000",
    "030000000100000000000000000000004d00000000000000010000000000000001000000000000000300000000000000\
     08000000000000000700000000000000",
];
const SMALL_DELTA: [&str; 2] = [
    "030000000300000000000000000000005800000000000000000500000000000005000000000000000200000000000000\
     080000000000000004000000000000000900000000000000020000000000000008000000000000002a00000000000000\
     0100000000000000020000000000000008000000000000000400000000000000",
    "030000000200000000000000000000005800000000000000010500000000000007000000000000000200000000000000\
     080000000000000005000000000000000100000000000000030000000000000008000000000000000700000000000000",
];

/// Log layout and index growth instants show outside the partition — as
/// `dirty_bytes` (epoch accounting) and as snapshot key order — so both
/// are pinned where the rewritten paths could most easily drift: an entry
/// that ends exactly on a segment boundary, and an install into a full
/// index that is an update, not an insert.
#[test]
fn segment_ends_and_index_doubling_fall_where_the_parents_did() {
    let mut p = Partition::with_segment_size(0, appended_descriptor(), 128);
    for len in [8, 8, 16, 8] {
        // A 96-byte run takes both 8-byte elements. Each stride change
        // starts a run at the 96-byte limit of a 128-byte segment: the
        // first does not fit the 32 bytes left and opens the next segment,
        // and each ends exactly on its segment's boundary.
        p.append(pack_key(1, 1), &[7u8; 16][..len]);
    }
    assert_eq!(p.dirty_bytes(), 384);

    // 112 keys fill the 16 buckets a partition starts with; the next
    // install — key 5's second run, for its 5-byte element — doubles the
    // table even though its key is already there.
    let mut p = Partition::new(0, appended_descriptor());
    for g in 0..112u64 {
        p.append(pack_key(1, g), &g.to_le_bytes());
    }
    let full = chunks_digest(&snapshot_chunks(&p, 0, 4096));
    p.append(pack_key(1, 5), b"again");
    let doubled = chunks_digest(&snapshot_chunks(&p, 0, 4096));
    assert_eq!((full, doubled), (1691343552341576731, 10701174624782910318));
}

/// A 3-node cluster with retention on, so every closed epoch's chunks stay
/// readable through the node's checkpoint.
fn cluster(desc: StateDescriptor) -> (Sim, Vec<SsbNode>) {
    let fabric = Fabric::new(FabricConfig::default());
    let ports = fabric.add_nodes(3);
    let cfg = SsbConfig {
        nodes: 3,
        epoch_bytes: u64::MAX, // epochs close where the sequence says
        channel: ChannelConfig {
            credits: 8,
            buffer_size: 512,
            credit_batch: 1,
        },
    };
    let mut ssb = build_cluster(&fabric, &ports, desc, cfg);
    for node in &mut ssb {
        node.set_retention(true);
    }
    (Sim::new(), ssb)
}

fn settle(sim: &mut Sim, ssb: &mut [SsbNode]) {
    for _ in 0..10_000 {
        let mut progress = 0;
        for node in ssb.iter_mut() {
            let (sent, merged) = node.pump(sim).unwrap();
            progress += sent + merged;
        }
        let in_flight = sim.pending_events() > 0;
        sim.run();
        if progress == 0 && !in_flight && ssb.iter().all(SsbNode::flushed) {
            return;
        }
    }
    panic!("did not settle");
}

/// Everything a checkpoint would put on the wire, as three numbers.
fn summarize(ckpt: &SsbCheckpoint) -> (u64, u64, u64) {
    let retained: Vec<Vec<u8>> = ckpt
        .retained
        .iter()
        .flatten()
        .flat_map(|epoch| epoch.chunks.iter().cloned())
        .collect();
    assert_eq!(ckpt.digest, chunks_digest(&ckpt.snapshot));
    (ckpt.digest, chunks_digest(&retained), ckpt.payload_bytes())
}

/// Drive `steps` seeded operations through the cluster — `update(node,
/// rng, key)` is the state kind's per-record and batched write mix —
/// closing epochs, settling and draining window 1 along the way, and
/// summarize every node's checkpoint midway (after the drain) and at the
/// end.
fn run(
    desc: StateDescriptor,
    steps: u64,
    mut update: impl FnMut(&mut SsbNode, &mut DetRng),
) -> Vec<(u64, u64, u64)> {
    let (mut sim, mut ssb) = cluster(desc);
    let mut rng = DetRng::new(0x51A5_0019);
    let mut out = Vec::new();
    for step in 1..=steps {
        let who = rng.next_below(3) as usize;
        match rng.next_below(40) {
            0 => {
                ssb[who].note_progress(step);
                ssb[who].close_epoch(&mut sim).unwrap();
            }
            1 => settle(&mut sim, &mut ssb),
            _ => update(&mut ssb[who], &mut rng),
        }
        if step == steps / 2 || step == steps {
            for node in ssb.iter_mut() {
                node.note_progress(step);
                node.close_epoch(&mut sim).unwrap();
            }
            settle(&mut sim, &mut ssb);
            if step != steps {
                for node in ssb.iter_mut() {
                    node.drain_triggered(|w| w == 1, |_| {});
                }
            }
            out.extend(ssb.iter_mut().map(|n| summarize(&n.checkpoint(300))));
        }
    }
    out
}

fn draw_key(rng: &mut DetRng) -> u128 {
    pack_key(1 + rng.next_below(2), rng.next_below(450))
}

#[test]
fn fixed_state_checkpoints_are_the_parents() {
    let desc = CounterCrdt::descriptor();
    let mut comb = WriteCombiner::new(desc, 64);
    let got = run(desc, 4_000, |node, rng| {
        if rng.next_below(4) == 0 {
            for _ in 0..24 {
                let n = 1 + rng.next_below(9);
                assert!(comb.fold(draw_key(rng), |v| CounterCrdt::add(v, n)));
            }
            node.rmw_batch(&mut comb);
        } else {
            let n = 1 + rng.next_below(9);
            node.rmw(draw_key(rng), |v| CounterCrdt::add(v, n));
        }
    });
    assert_eq!(got, FIXED_CHECKPOINTS);
}

const FIXED_CHECKPOINTS: [(u64, u64, u64); 6] = [
    (1136547184197137575, 9643034942184249826, 69152),
    (7730383600576318431, 2626562787738570133, 89440),
    (5561333032959145651, 2204100121544397078, 70464),
    (7538649277406197406, 6186199371100002456, 148896),
    (6104296181740194365, 11559486317909822642, 162432),
    (10795911069784281076, 2935186592635501214, 161920),
];

#[test]
fn appended_state_checkpoints_are_the_parents() {
    let mut keys = Vec::new();
    let mut elems = Vec::new();
    let got = run(appended_descriptor(), 1_500, |node, rng| {
        if rng.next_below(4) == 0 {
            keys.clear();
            elems.clear();
            for _ in 0..16 {
                keys.push(draw_key(rng));
                elems.extend_from_slice(&rng.next_u64().to_le_bytes()[..5]);
            }
            for (&key, elem) in keys.iter().zip(elems.chunks(5)) {
                node.append(key, elem);
            }
        } else {
            let len = rng.next_below(20) as usize;
            let elem = rng.next_u64().to_le_bytes().repeat(3);
            node.append(draw_key(rng), &elem[..len]);
        }
    });
    assert_eq!(got, APPENDED_CHECKPOINTS);
}

const APPENDED_CHECKPOINTS: [(u64, u64, u64); 6] = [
    (5028245167044322115, 8479426337734428111, 32686),
    (11919796890292858325, 5961632608088242642, 31098),
    (9200449906799356549, 2929348128880416743, 32504),
    (809089672672148936, 5835434113020636864, 75808),
    (7342646055466729301, 4417518846448206072, 75969),
    (5367323732332679580, 899356915308039350, 74065),
];
