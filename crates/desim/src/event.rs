//! The event queue: a binary heap of timestamped, sequence-ordered entries.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::clock::SimTime;
use crate::process::ProcId;
use crate::sim::Sim;

/// Monotone sequence number used to break ties between events scheduled for
/// the same virtual time. First scheduled fires first (FIFO among equals),
/// which is what makes the simulation deterministic.
pub(crate) type EventSeq = u64;

/// Policy for ordering events that share a virtual timestamp.
///
/// Real hardware gives no ordering guarantee between *independent* events
/// that happen "at the same time" (deliveries on different links, polls on
/// different endpoints). The kernel's default FIFO tie-break silently picks
/// one legal order and hides bugs that only surface under another. The race
/// checker in `slash-verify` replays protocol scenarios under many seeded
/// permutations of exactly these ties — a bounded, deterministic
/// exploration of the schedule space (DPOR-lite).
///
/// Every policy is fully deterministic: two runs with the same policy and
/// inputs produce byte-identical schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TieBreak {
    /// First-scheduled fires first (the default; matches historic behavior).
    #[default]
    Fifo,
    /// Last-scheduled fires first (an adversarial stack order).
    Lifo,
    /// Deterministic pseudo-random permutation keyed by the seed: each
    /// distinct seed yields a distinct (but reproducible) interleaving of
    /// same-timestamp events.
    Seeded(u64),
}

impl TieBreak {
    /// Priority key for an event with schedule sequence `seq`; among events
    /// at the same virtual time, the smallest key fires first.
    fn key(self, seq: EventSeq) -> u64 {
        match self {
            TieBreak::Fifo => seq,
            TieBreak::Lifo => !seq,
            TieBreak::Seeded(s) => {
                // SplitMix64 over (seed, seq): a high-quality deterministic
                // permutation of the tie order.
                let mut z = seq
                    .wrapping_add(s.wrapping_mul(0x9E3779B97F4A7C15))
                    .wrapping_add(0x9E3779B97F4A7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            }
        }
    }
}

/// Structural label describing which part of the modelled system an event
/// touches. Labels carry no semantics inside the kernel; they exist so the
/// exhaustive race explorer in `slash-verify` can prove that two
/// same-instant events *commute* (their firing order cannot affect any
/// reachable state) and prune one of the two orders.
///
/// The independence relation is deliberately conservative: only
/// channel-labeled deliveries with disjoint endpoint sets are ever treated
/// as independent. Node-labeled and unlabeled events are dependent with
/// everything, because they may touch shared fabric or oracle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct EventLabel(u64);

impl EventLabel {
    /// No structural information; conservatively dependent with everything.
    pub const NONE: EventLabel = EventLabel(0);

    const KIND_MASK: u64 = 3 << 62;
    const KIND_NODE: u64 = 1 << 62;
    const KIND_CHANNEL: u64 = 2 << 62;

    /// An event local to one node (an actor tick, a local timer). Still
    /// conservatively dependent with everything — the label is for trace
    /// readability, not reduction.
    pub fn node(node: u32) -> Self {
        EventLabel(Self::KIND_NODE | node as u64)
    }

    /// A delivery on the directed channel `src → dst`: the event only reads
    /// or writes endpoint state of those two nodes (QP delivery fences,
    /// rings, completion queues) plus read-only topology. `src` is truncated
    /// to 30 bits to stay clear of the kind tag (node ids are tiny).
    pub fn channel(src: u32, dst: u32) -> Self {
        EventLabel(Self::KIND_CHANNEL | ((src as u64 & 0x3FFF_FFFF) << 32) | dst as u64)
    }

    /// Raw encoding, stable across runs (used in explorer state signatures).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The `(src, dst)` endpoints if this is a channel label.
    pub fn channel_endpoints(self) -> Option<(u32, u32)> {
        if self.0 & Self::KIND_MASK == Self::KIND_CHANNEL {
            Some((((self.0 >> 32) & 0x3FFF_FFFF) as u32, self.0 as u32))
        } else {
            None
        }
    }

    /// Whether two events provably commute: both are channel deliveries and
    /// their endpoint node sets are disjoint. Anything else — node-labeled,
    /// unlabeled, or channels sharing a node — is treated as dependent.
    pub fn independent(self, other: EventLabel) -> bool {
        match (self.channel_endpoints(), other.channel_endpoints()) {
            (Some((a, b)), Some((c, d))) => a != c && a != d && b != c && b != d,
            _ => false,
        }
    }
}

/// What happens when an event fires.
pub(crate) enum EventKind {
    /// Wake a parked or yielded process.
    Wake(ProcId),
    /// Run an arbitrary closure against the simulator. Used by the fabric to
    /// deliver messages, post completions, and so on.
    Closure(Box<dyn FnOnce(&mut Sim)>),
}

pub(crate) struct Scheduled {
    pub at: SimTime,
    pub seq: EventSeq,
    /// Tie-break priority among same-time events (smallest fires first).
    /// Computed once at push from the queue's [`TieBreak`] policy so that
    /// changing the policy mid-run never reorders already-queued events.
    pub key: u64,
    /// Structural label for the explorer's independence relation.
    pub label: EventLabel,
    pub kind: EventKind,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, key, seq)
        // pops first. `seq` remains the final tie so the order stays total
        // and deterministic even when keys collide.
        (other.at, other.key, other.seq).cmp(&(self.at, self.key, self.seq))
    }
}

/// A deterministic min-queue of scheduled events with a pluggable policy
/// for ordering same-timestamp entries.
#[derive(Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    next_seq: EventSeq,
    policy: TieBreak,
}

impl EventQueue {
    pub fn push(&mut self, at: SimTime, kind: EventKind) {
        self.push_labeled(at, EventLabel::NONE, kind);
    }

    pub fn push_labeled(&mut self, at: SimTime, label: EventLabel, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = self.policy.key(seq);
        self.heap.push(Scheduled {
            at,
            seq,
            key,
            label,
            kind,
        });
    }

    /// Re-insert an entry previously popped by [`EventQueue::pop_ties`],
    /// keeping its original sequence number and priority key so the queue
    /// order stays exactly what it was before the tie set was drained.
    pub fn push_back(&mut self, s: Scheduled) {
        self.heap.push(s);
    }

    /// Pop *every* event tied at the earliest virtual time, returned in
    /// schedule (seq) order. This is the enabled-event-set enumeration hook
    /// the exhaustive explorer branches on: among these, any could fire
    /// first on real hardware.
    pub fn pop_ties(&mut self) -> Vec<Scheduled> {
        let Some(t) = self.peek_time() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        while self.heap.peek().map(|s| s.at) == Some(t) {
            out.push(self.heap.pop().expect("peeked entry must pop"));
        }
        out.sort_by_key(|s| s.seq);
        out
    }

    /// Set the tie-break policy for events pushed from now on.
    pub fn set_policy(&mut self, policy: TieBreak) {
        self.policy = policy;
    }

    /// The active tie-break policy.
    pub fn policy(&self) -> TieBreak {
        self.policy
    }

    pub fn pop(&mut self) -> Option<Scheduled> {
        self.heap.pop()
    }

    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wake(at: u64, q: &mut EventQueue) {
        q.push(SimTime(at), EventKind::Wake(ProcId(0)));
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::default();
        wake(30, &mut q);
        wake(10, &mut q);
        wake(20, &mut q);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|s| s.at.0)).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::default();
        for i in 0..16u64 {
            q.push(SimTime(42), EventKind::Wake(ProcId(i as u32)));
        }
        let seqs: Vec<EventSeq> = std::iter::from_fn(|| q.pop().map(|s| s.seq)).collect();
        let sorted = {
            let mut s = seqs.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(seqs, sorted, "same-time events must fire in schedule order");
    }

    #[test]
    fn lifo_reverses_same_time_order() {
        let mut q = EventQueue::default();
        q.set_policy(TieBreak::Lifo);
        for i in 0..8u64 {
            q.push(SimTime(42), EventKind::Wake(ProcId(i as u32)));
        }
        let seqs: Vec<EventSeq> = std::iter::from_fn(|| q.pop().map(|s| s.seq)).collect();
        assert_eq!(seqs, (0..8u64).rev().collect::<Vec<_>>());
    }

    #[test]
    fn seeded_policy_permutes_ties_deterministically() {
        let order_for = |tb: TieBreak| -> Vec<EventSeq> {
            let mut q = EventQueue::default();
            q.set_policy(tb);
            for _ in 0..32u64 {
                q.push(SimTime(7), EventKind::Wake(ProcId(0)));
            }
            std::iter::from_fn(|| q.pop().map(|s| s.seq)).collect()
        };
        let fifo = order_for(TieBreak::Fifo);
        let a1 = order_for(TieBreak::Seeded(1));
        let a2 = order_for(TieBreak::Seeded(1));
        let b = order_for(TieBreak::Seeded(2));
        assert_eq!(a1, a2, "same seed must reproduce the same schedule");
        assert_ne!(a1, fifo, "seeded order should differ from FIFO");
        assert_ne!(a1, b, "different seeds should explore different orders");
        let mut sorted = a1.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, fifo, "a permutation: no event lost or duplicated");
    }

    #[test]
    fn time_order_beats_tie_break_key() {
        let mut q = EventQueue::default();
        q.set_policy(TieBreak::Lifo);
        wake(30, &mut q);
        wake(10, &mut q);
        wake(20, &mut q);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|s| s.at.0)).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn labels_commute_only_on_disjoint_channels() {
        let ab = EventLabel::channel(0, 1);
        let cd = EventLabel::channel(2, 3);
        let bc = EventLabel::channel(1, 2);
        assert!(ab.independent(cd) && cd.independent(ab));
        assert!(!ab.independent(bc), "shared endpoint 1 → dependent");
        assert!(!ab.independent(ab), "an event never commutes with itself");
        assert!(!ab.independent(EventLabel::NONE));
        assert!(!EventLabel::node(7).independent(EventLabel::node(8)));
        assert!(!EventLabel::node(0).independent(cd));
        assert_eq!(ab.channel_endpoints(), Some((0, 1)));
        assert_eq!(EventLabel::node(7).channel_endpoints(), None);
        assert_eq!(EventLabel::NONE.channel_endpoints(), None);
    }

    #[test]
    fn pop_ties_returns_full_tie_set_in_seq_order() {
        let mut q = EventQueue::default();
        q.set_policy(TieBreak::Lifo); // adversarial heap order
        wake(10, &mut q);
        wake(10, &mut q);
        wake(10, &mut q);
        wake(20, &mut q);
        let ties = q.pop_ties();
        assert_eq!(
            ties.iter().map(|s| s.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(q.len(), 1);
        // Push two back; they must still pop before the later event.
        let mut it = ties.into_iter();
        it.next();
        for s in it {
            q.push_back(s);
        }
        let again = q.pop_ties();
        assert_eq!(again.iter().map(|s| s.seq).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(q.pop_ties().len(), 1);
        assert!(q.pop_ties().is_empty());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::default();
        wake(7, &mut q);
        wake(3, &mut q);
        assert_eq!(q.peek_time(), Some(SimTime(3)));
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime(7)));
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }
}
