//! In-memory stream sources.
//!
//! The evaluation methodology (paper §8.2.1) pre-generates datasets and
//! streams them from main memory, making memory bandwidth the ingestion
//! ceiling. A [`MemorySource`] hands out record batches from a shared
//! buffer; the worker charges the streaming cost against the node's
//! memory link.

use std::rc::Rc;

use slash_desim::SimTime;

use crate::record::RecordSchema;

/// Maximum piecewise-constant segments in a [`RateCurve`]. Fixed so the
/// curve stays `Copy` and can ride inside [`crate::RunConfig`].
pub const MAX_RATE_SEGMENTS: usize = 8;

/// A piecewise-constant arrival-rate curve: from each segment's start
/// instant, records are released at its rate (records per second of
/// virtual time). The last segment extends forever. Used to model load
/// that varies over a run — e.g. the diurnal curve driving elastic
/// rescaling — while staying fully deterministic: release times are pure
/// integer functions of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateCurve {
    /// `(from_ns, records_per_sec)` segments, ascending by start instant.
    segs: [(u64, u64); MAX_RATE_SEGMENTS],
    len: usize,
}

impl RateCurve {
    /// Build a curve from `(start, records_per_sec)` segments. The first
    /// segment must start at time zero, starts must strictly ascend, and
    /// the final rate must be positive (a source trailing off to zero
    /// would never exhaust, deadlocking the run).
    pub fn new(segments: &[(SimTime, u64)]) -> Self {
        assert!(
            !segments.is_empty() && segments.len() <= MAX_RATE_SEGMENTS,
            "1..={MAX_RATE_SEGMENTS} segments"
        );
        assert_eq!(segments[0].0, SimTime::ZERO, "curve must start at t=0");
        assert!(
            segments.windows(2).all(|w| w[0].0 < w[1].0),
            "segment starts must strictly ascend"
        );
        assert!(
            segments[segments.len() - 1].1 > 0,
            "final rate must be positive or the source never drains"
        );
        let mut segs = [(0u64, 0u64); MAX_RATE_SEGMENTS];
        for (i, &(at, rate)) in segments.iter().enumerate() {
            segs[i] = (at.as_nanos(), rate);
        }
        RateCurve {
            segs,
            len: segments.len(),
        }
    }

    /// A flat curve: `rate` records per second from time zero.
    pub fn constant(rate: u64) -> Self {
        Self::new(&[(SimTime::ZERO, rate)])
    }

    /// Records released by instant `now` (cumulative, floored per
    /// segment so it is monotone and overflow-safe).
    pub fn released_records(&self, now: SimTime) -> u64 {
        let now_ns = now.as_nanos();
        let mut total: u64 = 0;
        for i in 0..self.len {
            let (from, rate) = self.segs[i];
            if now_ns <= from {
                break;
            }
            let until = if i + 1 < self.len {
                self.segs[i + 1].0.min(now_ns)
            } else {
                now_ns
            };
            total = total
                .saturating_add(((until - from) as u128 * rate as u128 / 1_000_000_000) as u64);
        }
        total
    }

    /// Earliest instant at which at least `k` records are released
    /// (the inverse of [`Self::released_records`], rounded up).
    pub fn release_time(&self, k: u64) -> SimTime {
        if k == 0 {
            return SimTime::ZERO;
        }
        let mut cum: u64 = 0;
        for i in 0..self.len {
            let (from, rate) = self.segs[i];
            let seg_cap = if i + 1 < self.len {
                if rate == 0 {
                    0
                } else {
                    ((self.segs[i + 1].0 - from) as u128 * rate as u128 / 1_000_000_000) as u64
                }
            } else {
                u64::MAX - cum // last segment extends forever
            };
            if k <= cum + seg_cap && rate > 0 {
                let need = (k - cum) as u128;
                let dt = (need * 1_000_000_000).div_ceil(rate as u128) as u64;
                return SimTime::from_nanos(from + dt);
            }
            cum += seg_cap;
        }
        // Unreachable given the positive-final-rate invariant.
        SimTime::from_nanos(u64::MAX / 2)
    }
}

/// Outcome of polling a (possibly rate-paced) source at an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourcePoll {
    /// A batch is available: byte range within the buffer.
    Batch((usize, usize)),
    /// The pacing curve has not released the next record yet; retry at
    /// the given instant.
    NotReady(SimTime),
    /// The stream is fully consumed.
    Exhausted,
}

/// A pre-generated, in-memory partition of a stream, consumed in batches.
#[derive(Clone)]
pub struct MemorySource {
    data: Rc<Vec<u8>>,
    schema: RecordSchema,
    pos: usize,
    batch_bytes: usize,
    pacing: Option<RateCurve>,
}

impl MemorySource {
    /// Wrap a pre-generated buffer. `batch_records` is the number of
    /// records handed out per call (the unit of cooperative scheduling).
    pub fn new(data: Rc<Vec<u8>>, schema: RecordSchema, batch_records: usize) -> Self {
        assert!(batch_records > 0);
        assert_eq!(
            data.len() % schema.size,
            0,
            "buffer is not a whole number of records"
        );
        MemorySource {
            data,
            schema,
            pos: 0,
            batch_bytes: batch_records * schema.size,
            pacing: None,
        }
    }

    /// Pace this source with an arrival-rate curve: batches become
    /// available only as the curve releases records over virtual time.
    /// Without pacing every record is available immediately (the
    /// pre-generated-dataset methodology of §8.2.1).
    pub fn set_pacing(&mut self, curve: RateCurve) {
        self.pacing = Some(curve);
    }

    /// The record layout.
    pub fn schema(&self) -> &RecordSchema {
        &self.schema
    }

    /// Total records in this partition.
    pub fn total_records(&self) -> usize {
        self.data.len() / self.schema.size
    }

    /// Whether the stream is exhausted.
    pub fn exhausted(&self) -> bool {
        self.pos >= self.data.len()
    }

    /// Current read position in bytes (always a whole number of records).
    /// Checkpoints record this so a replacement worker can resume ingest
    /// exactly where the snapshot left off.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Resume reading at `pos` (a byte offset captured by [`Self::position`]).
    pub fn seek(&mut self, pos: usize) {
        assert_eq!(pos % self.schema.size, 0, "seek must land on a record");
        assert!(pos <= self.data.len(), "seek past end of stream");
        self.pos = pos;
    }

    /// Take the next batch; returns the byte range within [`Self::data`].
    pub fn next_range(&mut self) -> Option<(usize, usize)> {
        if self.exhausted() {
            return None;
        }
        let start = self.pos;
        let end = (start + self.batch_bytes).min(self.data.len());
        self.pos = end;
        Some((start, end))
    }

    /// Poll for the next batch at instant `now`, honouring the pacing
    /// curve: a paced source hands out only records the curve has
    /// released so far (batches may come up short near the release
    /// frontier). Unpaced sources behave exactly like
    /// [`Self::next_range`].
    pub fn poll_range(&mut self, now: SimTime) -> SourcePoll {
        if self.exhausted() {
            return SourcePoll::Exhausted;
        }
        let Some(curve) = self.pacing else {
            return match self.next_range() {
                Some(r) => SourcePoll::Batch(r),
                None => SourcePoll::Exhausted,
            };
        };
        let released = (curve.released_records(now) as usize).min(self.total_records());
        let released_bytes = released * self.schema.size;
        if released_bytes <= self.pos {
            let next_rec = self.pos / self.schema.size + 1;
            return SourcePoll::NotReady(curve.release_time(next_rec as u64));
        }
        let start = self.pos;
        let end = (start + self.batch_bytes).min(released_bytes);
        self.pos = end;
        SourcePoll::Batch((start, end))
    }

    /// The underlying buffer.
    pub fn data(&self) -> &Rc<Vec<u8>> {
        &self.data
    }
}

impl std::fmt::Debug for MemorySource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemorySource")
            .field("records", &self.total_records())
            .field("pos", &self.pos)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(n: usize, size: usize) -> Rc<Vec<u8>> {
        Rc::new(vec![0u8; n * size])
    }

    #[test]
    fn batches_cover_everything_once() {
        let schema = RecordSchema::plain(16);
        let mut s = MemorySource::new(buf(10, 16), schema, 3);
        assert_eq!(s.total_records(), 10);
        let mut seen = 0;
        while let Some((a, b)) = s.next_range() {
            assert_eq!((b - a) % 16, 0);
            seen += (b - a) / 16;
        }
        assert_eq!(seen, 10);
        assert!(s.exhausted());
        assert_eq!(s.next_range(), None);
    }

    #[test]
    fn last_batch_may_be_short() {
        let schema = RecordSchema::plain(8);
        let mut s = MemorySource::new(buf(5, 8), schema, 4);
        assert_eq!(s.next_range(), Some((0, 32)));
        assert_eq!(s.next_range(), Some((32, 40)));
        assert_eq!(s.next_range(), None);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn torn_buffers_are_rejected() {
        MemorySource::new(Rc::new(vec![0u8; 17]), RecordSchema::plain(8), 1);
    }

    #[test]
    fn rate_curve_releases_and_inverts_consistently() {
        // 1000 rec/s for the first millisecond, then 4000 rec/s.
        let c = RateCurve::new(&[(SimTime::ZERO, 1000), (SimTime::from_millis(1), 4000)]);
        assert_eq!(c.released_records(SimTime::ZERO), 0);
        assert_eq!(c.released_records(SimTime::from_millis(1)), 1);
        // 1ms into the fast segment: 1 + 4 records.
        assert_eq!(c.released_records(SimTime::from_millis(2)), 5);
        // release_time is the exact inverse: at its instant the record
        // count is reached, one nanosecond earlier it is not.
        for k in 1..20 {
            let t = c.release_time(k);
            assert!(c.released_records(t) >= k, "k={k}");
            let before = SimTime::from_nanos(t.as_nanos() - 1);
            assert!(c.released_records(before) < k, "k={k}");
        }
    }

    #[test]
    fn paced_source_withholds_then_drains_everything() {
        let schema = RecordSchema::plain(8);
        let mut s = MemorySource::new(buf(10, 8), schema, 4);
        s.set_pacing(RateCurve::constant(1_000_000)); // 1 rec/µs
        assert_eq!(
            s.poll_range(SimTime::ZERO),
            SourcePoll::NotReady(SimTime::from_micros(1))
        );
        // 2µs in: 2 records released, batch comes up short of 4.
        assert_eq!(
            s.poll_range(SimTime::from_micros(2)),
            SourcePoll::Batch((0, 16))
        );
        // Everything released: full batches until exhaustion.
        let mut seen = 16;
        loop {
            match s.poll_range(SimTime::from_secs(1)) {
                SourcePoll::Batch((a, b)) => seen += b - a,
                SourcePoll::Exhausted => break,
                SourcePoll::NotReady(_) => panic!("curve fully released"),
            }
        }
        assert_eq!(seen, 80);
    }

    #[test]
    fn unpaced_poll_matches_next_range() {
        let schema = RecordSchema::plain(8);
        let mut a = MemorySource::new(buf(5, 8), schema, 4);
        let mut b = MemorySource::new(buf(5, 8), schema, 4);
        loop {
            let pa = a.poll_range(SimTime::ZERO);
            match (pa, b.next_range()) {
                (SourcePoll::Batch(x), Some(y)) => assert_eq!(x, y),
                (SourcePoll::Exhausted, None) => break,
                other => panic!("diverged: {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "final rate")]
    fn zero_final_rate_is_rejected() {
        RateCurve::new(&[(SimTime::ZERO, 0)]);
    }
}
