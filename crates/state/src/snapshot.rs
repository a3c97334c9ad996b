//! Epoch-aligned state snapshots — the fault-tolerance extension.
//!
//! The paper's epoch protocol is the classic mechanism for consistent
//! checkpoints (§7.2.2 cites epoch-based synchronization for
//! "checkpointing"; the authors' companion system Rhino builds state
//! migration on the same idea). This module adds what the paper leaves
//! as engineering: serializing a partition's content at an epoch boundary
//! and rebuilding it elsewhere.
//!
//! The snapshot format *is* the delta wire format ([`crate::delta`]):
//! a snapshot is simply "the delta from the empty state", so restore is
//! the leader-side merge path — one code path, one set of invariants.

use crate::delta::{parse_runs, ChunkBuilder};
use crate::descriptor::StateDescriptor;
use crate::entry::EntryKind;
use crate::partition::Partition;

/// Serialize a partition's full live content into delta-format chunks of
/// at most `max_chunk` bytes: one entry per fixed key, one per run of a
/// holistic key. The partition is not modified.
pub fn snapshot_chunks(part: &Partition, watermark: u64, max_chunk: usize) -> Vec<Vec<u8>> {
    // Snapshots carry no epoch-close time stamp (`sent_us = 0`): they are
    // produced outside the coherence protocol's clock.
    let mut builder = ChunkBuilder::new(part.id as u32, part.epoch(), watermark, 0, max_chunk);
    let appended = part.descriptor().is_appended();
    part.for_each_key(|key, _| {
        if appended {
            part.for_each_run(key, |stride, run| {
                builder.push_run(key, EntryKind::Appended, stride as u8, run);
            });
        } else if let Some(value) = part.get(key) {
            builder.push(key, EntryKind::Fixed, value);
        } else {
            // `for_each_key` only lists live keys; absence would mean index
            // corruption. Skip rather than panic — the snapshot then simply
            // omits the unreadable key.
            debug_assert!(false, "listed key has a value");
        }
    });
    builder.finish()
}

/// Content digest of a chunk set (SplitMix64 fold over lengths and
/// bytes). A checkpoint records the digest of its snapshot at capture
/// time; recovery verifies the copy it is about to restore against it —
/// the model's stand-in for an end-to-end checksum over the shipped
/// chunks, catching a copy corrupted or truncated by a mid-transfer
/// fault before it is installed as primary state.
pub fn chunks_digest(chunks: &[Vec<u8>]) -> u64 {
    let mut h: u64 = 0x0C4E_C5D1_6E57;
    let mut fold = |v: u64| {
        let mut z = h.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(v);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h = z ^ (z >> 31);
    };
    for chunk in chunks {
        fold(chunk.len() as u64);
        for window in chunk.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..window.len()].copy_from_slice(window);
            fold(u64::from_le_bytes(buf));
        }
    }
    h
}

/// Rebuild a partition from snapshot chunks. Returns the partition and
/// the snapshot's watermark.
pub fn restore(id: usize, desc: StateDescriptor, chunks: &[Vec<u8>]) -> (Partition, u64) {
    let mut part = Partition::new(id, desc);
    let mut watermark = 0;
    for chunk in chunks {
        let header = parse_runs(chunk, |key, kind, stride, value| match kind {
            EntryKind::Fixed => part.merge_fixed(key, value),
            EntryKind::Appended => part.append_run(key, stride, value),
        });
        assert_eq!(header.partition as usize, id, "chunk for wrong partition");
        watermark = watermark.max(header.watermark);
    }
    (part, watermark)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crdts::{CounterCrdt, MeanCrdt};
    use crate::descriptor::appended_descriptor;
    use crate::hash::pack_key;

    #[test]
    fn counter_state_roundtrips() {
        let desc = CounterCrdt::descriptor();
        let mut part = Partition::new(3, desc);
        for k in 0..500u64 {
            part.rmw(pack_key(1, k), |v| CounterCrdt::add(v, k + 1));
        }
        let chunks = snapshot_chunks(&part, 777, 4096);
        assert!(chunks.len() > 1, "should span several chunks");

        let (restored, wm) = restore(3, desc, &chunks);
        assert_eq!(wm, 777);
        assert_eq!(restored.key_count(), 500);
        for k in 0..500u64 {
            assert_eq!(
                restored.get(pack_key(1, k)).map(CounterCrdt::get),
                Some(k + 1)
            );
        }
    }

    #[test]
    fn chunk_digest_is_stable_and_corruption_sensitive() {
        let desc = CounterCrdt::descriptor();
        let mut part = Partition::new(0, desc);
        for k in 0..64u64 {
            part.rmw(pack_key(1, k), |v| CounterCrdt::add(v, k));
        }
        let chunks = snapshot_chunks(&part, 9, 512);
        assert_eq!(chunks_digest(&chunks), chunks_digest(&chunks.clone()));
        let mut flipped = chunks.clone();
        flipped[0][0] ^= 1;
        assert_ne!(chunks_digest(&chunks), chunks_digest(&flipped));
        let truncated = &chunks[..chunks.len() - 1];
        assert_ne!(chunks_digest(&chunks), chunks_digest(truncated));
    }

    #[test]
    fn holistic_state_roundtrips_as_a_multiset() {
        let desc = appended_descriptor();
        let mut part = Partition::new(0, desc);
        for i in 0..50u64 {
            part.append(pack_key(2, i % 5), &i.to_le_bytes());
        }
        let chunks = snapshot_chunks(&part, 1, 1024);
        let (restored, _) = restore(0, desc, &chunks);
        // Same multiset of elements per key (order within a chain is not
        // semantic).
        for key in 0..5u64 {
            let collect = |p: &Partition| {
                let mut v: Vec<Vec<u8>> = Vec::new();
                p.for_each_element(pack_key(2, key), |e| v.push(e.to_vec()));
                v.sort();
                v
            };
            assert_eq!(collect(&part), collect(&restored), "key {key}");
        }
    }

    #[test]
    fn snapshot_of_empty_partition_restores_empty() {
        let desc = MeanCrdt::descriptor();
        let part = Partition::new(1, desc);
        let chunks = snapshot_chunks(&part, 42, 1024);
        assert_eq!(chunks.len(), 1, "just the fin header");
        let (restored, wm) = restore(1, desc, &chunks);
        assert_eq!(restored.key_count(), 0);
        assert_eq!(wm, 42);
    }

    #[test]
    fn snapshot_does_not_perturb_the_source() {
        let desc = CounterCrdt::descriptor();
        let mut part = Partition::new(0, desc);
        part.rmw(pack_key(1, 9), |v| CounterCrdt::add(v, 5));
        let before_epoch = part.epoch();
        let _ = snapshot_chunks(&part, 0, 1024);
        assert_eq!(part.epoch(), before_epoch);
        assert_eq!(part.get(pack_key(1, 9)).map(CounterCrdt::get), Some(5));
        assert!(part.is_dirty(), "snapshot must not close the open epoch");
    }

    #[test]
    fn restored_state_keeps_merging_correctly() {
        // Crash-recovery scenario: restore a leader, then merge a
        // late-arriving helper delta into it.
        let desc = CounterCrdt::descriptor();
        let mut part = Partition::new(0, desc);
        part.rmw(pack_key(1, 1), |v| CounterCrdt::add(v, 10));
        let chunks = snapshot_chunks(&part, 100, 1024);
        let (mut restored, _) = restore(0, desc, &chunks);
        restored.merge_fixed(pack_key(1, 1), &32u64.to_le_bytes());
        assert_eq!(restored.get(pack_key(1, 1)).map(CounterCrdt::get), Some(42));
    }

    #[test]
    #[should_panic(expected = "wrong partition")]
    fn restoring_into_the_wrong_partition_fails() {
        let desc = CounterCrdt::descriptor();
        let mut part = Partition::new(4, desc);
        part.rmw(pack_key(1, 1), |v| CounterCrdt::add(v, 1));
        let chunks = snapshot_chunks(&part, 0, 1024);
        let _ = restore(5, desc, &chunks);
    }
}
