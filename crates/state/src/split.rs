//! Hot-key splitting: per-replica sub-keys folded back at window close.
//!
//! A hot group key turns one partition leader into a serialization point:
//! every node's updates for that key funnel into a single primary entry,
//! and — with keyed ingress — every *record* for that key funnels into a
//! single node. Splitting breaks the key into `n` **sub-keys**, one per
//! replica (logical node), so each node accumulates its share of the
//! updates under its own salted key. Because the states are exact CRDTs
//! (the same [`StateDescriptor::regroupable`] gate the write combiner
//! uses), regrouping updates across sub-keys is lossless: at window close
//! the leader folds every sub-key of a `(window, key)` back into the
//! canonical key with the descriptor's `merge` and emits one result, so
//! exactness falls out of CRDT associativity plus the existing
//! `(window, key)` trigger/dedup machinery.
//!
//! **Salts preserve the leader.** A sub-key is a 63-bit salted group key
//! with the top bit ([`SUB_KEY_TAG`]) set, searched deterministically so
//! that [`partition_of`] maps it to the *same* partition as the canonical
//! key. Sub-key deltas therefore ride the normal epoch-merge path to the
//! normal leader — no new shipping protocol, no new recovery state: a
//! sub-key entry is ordinary partition state that checkpoints, promotes,
//! and replays exactly like any other entry.
//!
//! The ledger is deliberately a plain value (no shared interior
//! mutability): every node carries an identical copy, and the split
//! driver activates a key on all copies in the same simulation step.
//! Exactness never depends on the copies agreeing — the fold merges
//! whatever canonical and sub-key entries exist — only result *labeling*
//! does, and only on the leader that triggers the window.
//!
//! [`StateDescriptor::regroupable`]: crate::descriptor::StateDescriptor::regroupable
//! [`partition_of`]: crate::hash::partition_of

use std::collections::BTreeMap;

use crate::hash::{mix_u64, pack_key, partition_of};

/// Top bit of a group key, reserved for sub-keys. Keys with this bit set
/// cannot be split (the engine's benchmark keys are all far below 2^63).
pub const SUB_KEY_TAG: u64 = 1 << 63;

/// Bounded salt search: with `n` equally likely partitions the expected
/// number of candidates until one lands on the canonical leader is `n`;
/// 64·n misses in a row is astronomically unlikely, and a key that
/// exhausts the budget is simply not split (a performance decision, never
/// a correctness one).
const SALT_SEARCH_BUDGET: u64 = 64;

/// The split ledger: which canonical keys are split, and the two-way
/// mapping between canonical keys and their per-replica sub-keys.
#[derive(Debug, Clone, Default)]
pub struct SplitLedger {
    nodes: usize,
    version: u64,
    /// Canonical group key → sub-key per replica (index = replica).
    canon: BTreeMap<u64, Vec<u64>>,
    /// Sub-key → (canonical group key, replica).
    subs: BTreeMap<u64, (u64, usize)>,
}

impl SplitLedger {
    /// An empty ledger for a cluster of `nodes` replicas.
    pub fn new(nodes: usize) -> Self {
        SplitLedger {
            nodes: nodes.max(1),
            version: 0,
            canon: BTreeMap::new(),
            subs: BTreeMap::new(),
        }
    }

    /// Replica count the sub-keys are derived for.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Monotone change counter: bumps on every activation, so per-batch
    /// caches (the hot path's salt map) can refresh with one compare.
    /// `0` means "never had a split" — the hot path's fast path.
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// Whether no key is split.
    pub(crate) fn is_empty(&self) -> bool {
        self.canon.is_empty()
    }

    /// Whether `gk` is an active split canonical key.
    pub(crate) fn is_split(&self, gk: u64) -> bool {
        self.canon.contains_key(&gk)
    }

    /// The active split canonical keys, ascending.
    pub(crate) fn split_keys(&self) -> Vec<u64> {
        self.canon.keys().copied().collect()
    }

    /// Resolve a sub-key to `(canonical key, replica)`.
    pub(crate) fn canonical_of(&self, sub: u64) -> Option<(u64, usize)> {
        self.subs.get(&sub).copied()
    }

    /// The sub-key replica `replica` writes for canonical `gk`, if split.
    pub fn sub_for(&self, gk: u64, replica: usize) -> Option<u64> {
        self.canon
            .get(&gk)
            .and_then(|subs| subs.get(replica).copied())
    }

    /// `(canonical, sub)` pairs for one replica, ascending by canonical —
    /// the flat map the hot path binary-searches per record.
    pub(crate) fn pairs_for(&self, replica: usize) -> Vec<(u64, u64)> {
        self.canon
            .iter()
            .filter_map(|(&gk, subs)| subs.get(replica).map(|&s| (gk, s)))
            .collect()
    }

    /// Activate splitting for `gk`: derive one leader-preserving sub-key
    /// per replica. Returns `false` (and changes nothing) if the key is
    /// already split, carries the sub-key tag, or the salt search fails
    /// for any replica — splitting is always optional, so rejection is a
    /// no-op rather than an error.
    pub fn split(&mut self, gk: u64) -> bool {
        if gk & SUB_KEY_TAG != 0 || self.canon.contains_key(&gk) {
            return false;
        }
        let leader = partition_of(pack_key(0, gk), self.nodes);
        let mut derived = Vec::with_capacity(self.nodes);
        for replica in 0..self.nodes {
            let mut found = None;
            for salt in 0..SALT_SEARCH_BUDGET * self.nodes as u64 {
                let cand =
                    SUB_KEY_TAG | (mix_u64(mix_u64(replica as u64 + 1, gk), salt) & !SUB_KEY_TAG);
                if partition_of(pack_key(0, cand), self.nodes) == leader
                    && !self.subs.contains_key(&cand)
                    && !derived.contains(&cand)
                {
                    found = Some(cand);
                    break;
                }
            }
            match found {
                Some(sub) => derived.push(sub),
                None => return false,
            }
        }
        for (replica, &sub) in derived.iter().enumerate() {
            self.subs.insert(sub, (gk, replica));
        }
        self.canon.insert(gk, derived);
        self.version += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::unpack_key;

    #[test]
    fn sub_keys_preserve_the_leader_and_are_distinct() {
        for nodes in [2usize, 3, 5, 8, 12] {
            let mut ledger = SplitLedger::new(nodes);
            for gk in [0u64, 7, 12345, 9_999_999] {
                assert!(ledger.split(gk), "split {gk} over {nodes}");
                let leader = partition_of(pack_key(0, gk), nodes);
                let mut seen = std::collections::HashSet::new();
                for r in 0..nodes {
                    let sub = ledger.sub_for(gk, r).unwrap();
                    assert_ne!(sub & SUB_KEY_TAG, 0, "sub-keys carry the tag");
                    assert_eq!(
                        partition_of(pack_key(0, sub), nodes),
                        leader,
                        "sub-key must route to the canonical leader"
                    );
                    assert!(seen.insert(sub), "sub-keys are distinct");
                    assert_eq!(ledger.canonical_of(sub), Some((gk, r)));
                }
            }
        }
    }

    #[test]
    fn all_windows_of_a_sub_key_share_the_canonical_leader() {
        let nodes = 6;
        let mut ledger = SplitLedger::new(nodes);
        assert!(ledger.split(42));
        for r in 0..nodes {
            let sub = ledger.sub_for(42, r).unwrap();
            for w in 0..20u64 {
                assert_eq!(
                    partition_of(pack_key(w, sub), nodes),
                    partition_of(pack_key(w, 42), nodes)
                );
            }
        }
    }

    #[test]
    fn activation_is_deterministic_across_copies() {
        let mk = || {
            let mut l = SplitLedger::new(4);
            l.split(3);
            l.split(1000);
            l.pairs_for(2)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn rejects_tagged_and_duplicate_keys() {
        let mut ledger = SplitLedger::new(3);
        assert!(!ledger.split(SUB_KEY_TAG | 5), "tagged keys can't split");
        assert!(ledger.split(5));
        assert!(!ledger.split(5), "double activation is a no-op");
        assert_eq!(ledger.version(), 1);
        assert_eq!(ledger.split_keys(), vec![5]);
    }

    #[test]
    fn version_bumps_per_activation_and_pairs_sorted() {
        let mut ledger = SplitLedger::new(2);
        assert_eq!(ledger.version(), 0);
        ledger.split(9);
        ledger.split(2);
        assert_eq!(ledger.version(), 2);
        let pairs = ledger.pairs_for(0);
        assert_eq!(pairs.len(), 2);
        assert!(pairs[0].0 < pairs[1].0, "ascending by canonical key");
    }

    #[test]
    fn unpack_of_sub_key_keeps_window_half() {
        let mut ledger = SplitLedger::new(2);
        ledger.split(77);
        let sub = ledger.sub_for(77, 1).unwrap();
        let (wid, gk) = unpack_key(pack_key(12, sub));
        assert_eq!(wid, 12);
        assert_eq!(gk, sub);
    }
}
