//! The event queue: a binary heap of timestamped, sequence-ordered entries.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::clock::SimTime;
use crate::process::ProcId;
use crate::sim::Sim;

/// Monotone sequence number used to break ties between events scheduled for
/// the same virtual time. First scheduled fires first (FIFO among equals),
/// which is what makes the simulation deterministic.
pub(crate) type EventSeq = u64;

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
    /// Step a process: its first step, or the next after a yield.
    Wake(ProcId),
    /// Run an arbitrary closure against the simulator. Used by the fabric to
    /// deliver messages, post completions, and so on.
    Closure(Box<dyn FnOnce(&mut Sim)>),
}

pub(crate) struct Scheduled {
    pub at: SimTime,
    pub seq: EventSeq,
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
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first: same-time events fire in schedule order.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A deterministic min-queue of scheduled events, FIFO among equal
/// timestamps.
#[derive(Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    next_seq: EventSeq,
}

impl EventQueue {
    pub fn push(&mut self, at: SimTime, kind: EventKind) {
        self.push_labeled(at, EventLabel::NONE, kind);
    }

    pub fn push_labeled(&mut self, at: SimTime, label: EventLabel, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled {
            at,
            seq,
            label,
            kind,
        });
    }

    /// Re-insert an entry previously popped, keeping its original sequence
    /// number so the queue order stays exactly what it was before.
    pub fn push_back(&mut self, s: Scheduled) {
        self.heap.push(s);
    }

    /// Pop the next event if it fires at exactly `at`. Ties pop in schedule
    /// (seq) order, so draining a tie set yields the enabled events the
    /// exhaustive explorer branches on, in the order it indexes them.
    pub fn pop_at(&mut self, at: SimTime) -> Option<Scheduled> {
        self.heap
            .peek_mut()
            .filter(|s| s.at == at)
            .map(PeekMut::pop)
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
    fn heap_entry_is_time_seq_label_and_kind() {
        // 8 (at) + 8 (seq) + 8 (label) + 16 (a boxed closure, or a wake in
        // its niche).
        assert_eq!(std::mem::size_of::<Scheduled>(), 40);
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
    fn pop_at_drains_one_tie_set_in_seq_order() {
        let mut q = EventQueue::default();
        wake(20, &mut q);
        wake(10, &mut q);
        wake(10, &mut q);
        wake(10, &mut q);
        let at = SimTime(10);
        let ties: Vec<Scheduled> = std::iter::from_fn(|| q.pop_at(at)).collect();
        assert_eq!(
            ties.iter().map(|s| s.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(q.len(), 1);
        // Push two back; they must still pop before the later event.
        let mut it = ties.into_iter();
        it.next();
        for s in it {
            q.push_back(s);
        }
        let again: Vec<EventSeq> = std::iter::from_fn(|| q.pop_at(at).map(|s| s.seq)).collect();
        assert_eq!(again, vec![2, 3]);
        assert!(
            q.pop_at(at).is_none(),
            "the event at 20 is not in the tie set"
        );
        assert_eq!(q.pop().map(|s| s.at), Some(SimTime(20)));
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
