//! Bandwidth-paced transfer resources.
//!
//! A [`Link`] models one direction of one NIC port: transfers are serialized
//! in FIFO order at a fixed bandwidth. The RDMA fabric composes two links
//! (sender TX, receiver RX) plus a propagation latency into a cut-through
//! transfer model, which is what makes *incast* (many producers hammering
//! one consumer, the structural bottleneck of hash re-partitioning) show up
//! naturally in the simulation.

use crate::clock::{transfer_time, SimTime};

/// One direction of a network port with a fixed serialization bandwidth.
#[derive(Debug, Clone)]
pub struct Link {
    bytes_per_sec: u64,
    busy_until: SimTime,
}

impl Link {
    /// Create a link with the given serialization bandwidth in bytes/second.
    pub fn new(bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "link bandwidth must be positive");
        Link {
            bytes_per_sec,
            busy_until: SimTime::ZERO,
        }
    }

    /// Reserve the link for a `bytes`-long transfer that may start no
    /// earlier than `earliest`. Returns `(start, end)` of the serialization
    /// window and advances the link's busy horizon to `end`.
    pub fn reserve(&mut self, earliest: SimTime, bytes: u64) -> (SimTime, SimTime) {
        let start = earliest.max(self.busy_until);
        let dur = transfer_time(bytes, self.bytes_per_sec);
        let end = start + dur;
        self.busy_until = end;
        (start, end)
    }

    /// The time at which the link next becomes free.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn back_to_back_transfers_serialize() {
        // 1 GB/s -> 1 byte per ns.
        let mut l = Link::new(1_000_000_000);
        let (s1, e1) = l.reserve(SimTime::ZERO, 1000);
        assert_eq!((s1.0, e1.0), (0, 1000));
        // Second transfer requested at t=0 must queue behind the first.
        let (s2, e2) = l.reserve(SimTime::ZERO, 500);
        assert_eq!((s2.0, e2.0), (1000, 1500));
    }

    #[test]
    fn idle_gap_is_not_charged() {
        let mut l = Link::new(1_000_000_000);
        l.reserve(SimTime::ZERO, 100);
        // Next transfer arrives long after the link went idle.
        let (s, e) = l.reserve(SimTime::from_nanos(10_000), 100);
        assert_eq!((s.0, e.0), (10_000, 10_100));
    }

    #[test]
    fn saturated_link_stays_busy_end_to_end() {
        let mut l = Link::new(2_000_000_000);
        for _ in 0..100 {
            l.reserve(SimTime::ZERO, 4096);
        }
        // 100 × 4096 B at 2 B/ns, with no gap between transfers.
        assert_eq!(l.busy_until(), SimTime::from_nanos(204_800));
    }
}
