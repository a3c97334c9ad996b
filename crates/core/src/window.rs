//! Window assignment and triggering (paper §5.2).
//!
//! Slash executes windowed operators as bucket/slice assigners feeding the
//! SSB plus an event-time trigger gated on the vector clock. Window ids are
//! the high half of the SSB state key; leaders trigger a window once the
//! vector clock's minimum passes its end (property P1).

/// Event-time window assigner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowAssigner {
    /// Tumbling windows of `size` event-time units: window `k` covers
    /// `[k·size, (k+1)·size)`.
    Tumbling {
        /// Window size.
        size: u64,
    },
    /// Sliding windows of `size` sliding by `slide` (`size % slide == 0`),
    /// realized by general slicing: records land in slices of `slide`
    /// units and a window is the union of `size / slide` slices.
    Sliding {
        /// Window size.
        size: u64,
        /// Slide interval.
        slide: u64,
    },
    /// NB11's session window, as the engine runs it: a tumbling bucket
    /// `gap` wide, retired one bucket late (`retire_end = (wid + 2)·gap`).
    /// Any two records of one bucket are under `gap` apart, so a bucket is
    /// never split; a session crossing a bucket edge is not merged either
    /// (DESIGN.md §11). It keeps the state access pattern the paper's NB11
    /// experiment measures: append, then a per-key trigger.
    Session {
        /// Inactivity gap.
        gap: u64,
    },
}

impl WindowAssigner {
    /// The slice/bucket granularity records are assigned by.
    #[inline]
    pub fn granule(&self) -> u64 {
        match *self {
            WindowAssigner::Tumbling { size } => size,
            WindowAssigner::Sliding { slide, .. } => slide,
            WindowAssigner::Session { gap } => gap,
        }
    }

    /// The bucket (window or slice) id a timestamp falls into.
    #[inline]
    pub fn assign(&self, ts: u64) -> u64 {
        ts / self.granule()
    }

    /// End timestamp (exclusive) of the *window* that bucket `wid`
    /// completes. For sliding windows a slice is shared by several
    /// windows; the slice is safe to retire once the **last** window that
    /// contains it closes.
    #[inline]
    pub fn retire_end(&self, wid: u64) -> u64 {
        match *self {
            WindowAssigner::Tumbling { size } => (wid + 1) * size,
            // Slice wid covers [wid·slide, (wid+1)·slide); the last window
            // containing it starts at wid·slide and ends size later.
            WindowAssigner::Sliding { size, slide } => wid * slide + size,
            WindowAssigner::Session { gap } => (wid + 2) * gap,
        }
    }

    /// Whether bucket `wid` may trigger under global low watermark `wm`.
    #[inline]
    pub fn ready(&self, wid: u64, wm: u64) -> bool {
        wm >= self.retire_end(wid)
    }

    /// Number of slices per window (1 except for sliding windows).
    pub fn slices_per_window(&self) -> u64 {
        match *self {
            WindowAssigner::Sliding { size, slide } => {
                debug_assert_eq!(size % slide, 0, "size must be a multiple of slide");
                size / slide
            }
            _ => 1,
        }
    }
}

/// Division-free bucket assignment for (mostly) monotone timestamp
/// streams. Caches the last bucket's `[lo, hi)` timestamp range, so
/// consecutive records in the same bucket assign with two compares
/// instead of a 64-bit divide — the common case on the hot path, where
/// thousands of records share a window. Range misses fall back to the
/// divide, so results are exact for *any* input order.
#[derive(Debug, Clone, Copy)]
pub struct WindowMemo {
    granule: u64,
    lo: u64,
    hi: u64,
    id: u64,
}

impl WindowMemo {
    /// Memoized assigner for `w`'s granule. Starts with an empty cached
    /// range, so the first record always takes the divide.
    pub fn new(w: WindowAssigner) -> Self {
        WindowMemo {
            granule: w.granule().max(1),
            lo: 1,
            hi: 0,
            id: 0,
        }
    }

    /// The bucket id `ts` falls into; identical to
    /// [`WindowAssigner::assign`].
    #[inline]
    pub fn assign(&mut self, ts: u64) -> u64 {
        if ts >= self.lo && ts < self.hi {
            return self.id;
        }
        self.reassign(ts)
    }

    /// A range miss: divide, and cache `ts`'s bucket. Out of line, so the
    /// two-compare hit inlines into the hot path's loops.
    #[cold]
    #[inline(never)]
    fn reassign(&mut self, ts: u64) -> u64 {
        let id = ts / self.granule;
        self.lo = id * self.granule;
        // Saturation only matters for buckets ending past u64::MAX
        // (RO's unbounded window); those timestamps just re-divide.
        self.hi = self.lo.saturating_add(self.granule);
        self.id = id;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_matches_assign_for_any_order() {
        for w in [
            WindowAssigner::Tumbling { size: 100 },
            WindowAssigner::Sliding {
                size: 300,
                slide: 100,
            },
            WindowAssigner::Session { gap: 50 },
            WindowAssigner::Tumbling { size: u64::MAX / 4 },
        ] {
            let mut memo = WindowMemo::new(w);
            // Monotone, repeated, and backwards timestamps all agree.
            for ts in [0, 1, 99, 99, 100, 250, 249, 1000, 3, u64::MAX - 1] {
                assert_eq!(memo.assign(ts), w.assign(ts), "{w:?} ts={ts}");
            }
        }
    }

    #[test]
    fn tumbling_assignment_and_trigger() {
        let w = WindowAssigner::Tumbling { size: 100 };
        assert_eq!(w.assign(0), 0);
        assert_eq!(w.assign(99), 0);
        assert_eq!(w.assign(100), 1);
        assert_eq!(w.retire_end(0), 100);
        assert!(!w.ready(0, 99));
        assert!(w.ready(0, 100));
        assert_eq!(w.slices_per_window(), 1);
    }

    #[test]
    fn sliding_slices_retire_with_their_last_window() {
        let w = WindowAssigner::Sliding {
            size: 300,
            slide: 100,
        };
        assert_eq!(w.assign(250), 2);
        assert_eq!(w.slices_per_window(), 3);
        // Slice 2 ([200, 300)) is part of windows [0,300), [100,400),
        // [200,500): it can only retire at 500.
        assert_eq!(w.retire_end(2), 500);
        assert!(!w.ready(2, 499));
        assert!(w.ready(2, 500));
    }

    #[test]
    fn session_buckets_wait_an_extra_gap() {
        let w = WindowAssigner::Session { gap: 50 };
        assert_eq!(w.assign(120), 2);
        // Bucket 2 covers [100,150); a session touching it could extend to
        // just under 200, so it triggers at watermark 200.
        assert_eq!(w.retire_end(2), 200);
        assert!(w.ready(2, 200));
        assert!(!w.ready(2, 199));
    }
}
