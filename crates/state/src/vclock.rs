//! Vector clocks for distributed progress tracking (paper §5.1).
//!
//! Every executor tracks, per peer, the greatest event-time watermark it
//! has learned from that peer. Watermark updates piggyback on the epoch
//! protocol's delta chunks, so an entry only advances once the state
//! updates preceding that watermark have been merged — which is exactly
//! the condition that makes triggering on `min()` safe (property P1).

/// A vector of per-executor watermarks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorClock {
    entries: Vec<u64>,
}

impl VectorClock {
    /// A clock over `n` executors, all at watermark 0.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n > 0);
        VectorClock {
            entries: vec![0; n],
        }
    }

    /// A clock holding `slots`, one watermark per executor (a
    /// checkpoint's [`VectorClock::snapshot`]).
    pub(crate) fn from_slots(slots: Vec<u64>) -> Self {
        assert!(!slots.is_empty());
        VectorClock { entries: slots }
    }

    /// Number of executors tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the clock tracks no executors. Always false in practice —
    /// `VectorClock::new` rejects `n == 0` — but derived from `len()`
    /// rather than hardcoded so the pair can never fall out of sync.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The watermark of executor `node`.
    pub fn get(&self, node: usize) -> u64 {
        self.entries[node]
    }

    /// Advance executor `node` to `watermark`. Watermarks are monotone: a
    /// stale one (below the slot) leaves the slot as it is and returns
    /// `false`, for the caller to count as a
    /// [`slash_net::Violation::StaleWatermark`].
    #[must_use]
    pub(crate) fn update(&mut self, node: usize, watermark: u64) -> bool {
        let e = &mut self.entries[node];
        let fresh = watermark >= *e;
        if fresh {
            *e = watermark;
        }
        fresh
    }

    /// The global low watermark: every executor has progressed at least
    /// this far, and all state updates below it are merged. An empty clock
    /// (unreachable: `VectorClock::new` rejects `n == 0`) reports 0, the
    /// conservative "no progress" answer.
    pub fn min(&self) -> u64 {
        self.entries.iter().min().copied().unwrap_or(0)
    }

    /// All per-executor watermarks, in slot order (flight-recorder context).
    pub fn snapshot(&self) -> Vec<u64> {
        self.entries.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_over_entries() {
        let mut vc = VectorClock::new(3);
        assert_eq!(vc.min(), 0);
        assert!(vc.update(0, 100) && vc.update(1, 50));
        assert_eq!(vc.min(), 0, "node 2 still at 0");
        assert!(vc.update(2, 70));
        assert_eq!(vc.min(), 50);
        assert_eq!(vc.get(0), 100);
    }

    #[test]
    fn updates_are_monotone() {
        let mut vc = VectorClock::new(1);
        assert!(vc.update(0, 10));
        assert!(!vc.update(0, 5), "a stale watermark is reported");
        assert_eq!(vc.get(0), 10);
        assert!(vc.update(0, 10), "an equal one is not stale");
    }
}
