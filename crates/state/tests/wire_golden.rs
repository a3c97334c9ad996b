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
//! log layout (padding, sealing, reclamation), not just content. When each
//! window got an index of its own, snapshots began to list keys window by
//! window: the two checkpoint cases' snapshot digests (and, as runs split
//! at other chunk edges, the appended case's byte counts) were captured
//! again, while their content digests, the delta chunks and the small and
//! index-doubling cases stayed as they were.
//!
//! The small case spells its bytes out; the large ones — index growth,
//! overflow chains, several epochs, a window drain, both state kinds —
//! compare [`chunks_digest`]s, which fold every byte and length. Each
//! checkpoint's snapshot is also pinned by an order-free content digest —
//! its decoded `(key, kind, element)` rows, sorted — so a change that
//! moves only the order keys are listed in shows as exactly that.

use slash_desim::{DetRng, Sim};
use slash_net::ChannelConfig;
use slash_rdma::{Fabric, FabricConfig};
use slash_state::backend::{build_cluster, SsbConfig, SsbNode};
use slash_state::delta::{try_parse_chunk, ChunkBuilder};
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

/// What a checkpoint's snapshot holds, whatever order it lists it in: the
/// digest of its `(key, kind, element)` rows, sorted.
fn content(ckpt: &SsbCheckpoint) -> u64 {
    let mut rows: Vec<(u128, u8, Vec<u8>)> = Vec::new();
    for chunk in &ckpt.snapshot {
        try_parse_chunk(chunk, |key, kind, elem| {
            rows.push((key, kind as u8, elem.to_vec()))
        })
        .unwrap();
    }
    rows.sort();
    let mut bytes = Vec::new();
    for (key, kind, elem) in rows {
        bytes.extend_from_slice(&key.to_le_bytes());
        bytes.push(kind);
        bytes.extend_from_slice(&(elem.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&elem);
    }
    chunks_digest(&[bytes])
}

/// Drive `steps` seeded operations through the cluster — `update(node,
/// rng, key)` is the state kind's per-record and batched write mix —
/// closing epochs, settling and draining window 1 along the way, and
/// summarize every node's checkpoint midway (after the drain) and at the
/// end: the wire summaries, and the snapshots' content digests.
fn run(
    desc: StateDescriptor,
    steps: u64,
    mut update: impl FnMut(&mut SsbNode, &mut DetRng),
) -> (Vec<(u64, u64, u64)>, Vec<u64>) {
    let (mut sim, mut ssb) = cluster(desc);
    let mut rng = DetRng::new(0x51A5_0019);
    let (mut out, mut contents) = (Vec::new(), Vec::new());
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
            for node in ssb.iter_mut() {
                let ckpt = node.checkpoint(300);
                out.push(summarize(&ckpt));
                contents.push(content(&ckpt));
            }
        }
    }
    (out, contents)
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
    assert_eq!(got.1, FIXED_CONTENTS, "content");
    assert_eq!(got.0, FIXED_CHECKPOINTS, "wire bytes");
}

const FIXED_CHECKPOINTS: [(u64, u64, u64); 6] = [
    (14423633029876862040, 9643034942184249826, 69152),
    (5537921523801394983, 2626562787738570133, 89440),
    (2629482850997171398, 2204100121544397078, 70464),
    (16841580057809708142, 6186199371100002456, 148896),
    (10538543071627506330, 11559486317909822642, 162432),
    (6212915880241139657, 2935186592635501214, 161920),
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
    assert_eq!(got.1, APPENDED_CONTENTS, "content");
    assert_eq!(got.0, APPENDED_CHECKPOINTS, "wire bytes");
}

const APPENDED_CHECKPOINTS: [(u64, u64, u64); 6] = [
    (7103568602088479836, 8479426337734428111, 32614),
    (236172938498139, 5961632608088242642, 31122),
    (4782653887606090529, 2929348128880416743, 32384),
    (10465771022389527713, 5835434113020636864, 75640),
    (13686719243129688462, 4417518846448206072, 76113),
    (2168892778688515003, 899356915308039350, 73993),
];

const FIXED_CONTENTS: [u64; 6] = [
    9074065742186602450,
    5087941096003274183,
    8392988020200957433,
    18346332944264977345,
    8642901640296568804,
    7278200777050156852,
];

const APPENDED_CONTENTS: [u64; 6] = [
    5617848203136068476,
    8616480776159414045,
    10651606319379285232,
    15154469597084947166,
    8640900103023813560,
    4674985263796106766,
];
