//! SpaceSaving top-k heat sketch for per-key load telemetry.
//!
//! Tracks the hottest keys of an unbounded stream in O(capacity) memory
//! with the classic SpaceSaving guarantee: every reported `count` is an
//! upper bound on the key's true frequency and overestimates it by at
//! most the entry's `err`, so `count - err <= true <= count`. Entries
//! with `err == 0` are *exact* — on skewed (zipfian) streams the hottest
//! keys enter the sketch before any eviction and stay exact, which the
//! DetRng property test in this module verifies against brute-force
//! counts.
//!
//! Everything is integer arithmetic over `BTreeMap`-ordered state, so
//! observation order aside, the sketch is deterministic: ties on
//! eviction break toward the smallest key, and [`HeatSketch::top`]
//! orders by `(count desc, key asc)`. No panics, no wall clock.

use std::collections::BTreeMap;

/// Default monitored-set capacity used by the registry for engine
/// key-heat sketches. 64 slots comfortably covers the top-k any
/// rescaling or key-splitting controller would act on while keeping the
/// O(capacity) eviction scan trivial.
pub const HEAT_CAPACITY: usize = 64;

/// One monitored key with its SpaceSaving count and error bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeatEntry {
    /// The tracked key (Slash uses the packed group key).
    pub key: u64,
    /// Upper bound on the key's true observed weight.
    pub count: u64,
    /// Overestimation bound: `count - err <= true count <= count`.
    pub err: u64,
}

/// SpaceSaving sketch over `u64` keys with saturating `u64` weights.
#[derive(Debug, Clone, Default)]
pub struct HeatSketch {
    cap: usize,
    total: u64,
    slots: BTreeMap<u64, (u64, u64)>,
}

impl HeatSketch {
    /// An empty sketch monitoring at most `capacity` keys (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            cap: capacity.max(1),
            total: 0,
            slots: BTreeMap::new(),
        }
    }

    /// Record `weight` observations of `key`.
    pub fn observe(&mut self, key: u64, weight: u64) {
        self.observe_with_err(key, weight, 0);
    }

    /// Record `weight` observations of `key` carrying `err` of prior
    /// overestimation (used by [`merge`](Self::merge)).
    fn observe_with_err(&mut self, key: u64, weight: u64, err: u64) {
        if weight == 0 {
            return;
        }
        self.total = self.total.saturating_add(weight);
        if let Some((count, e)) = self.slots.get_mut(&key) {
            *count = count.saturating_add(weight);
            *e = e.saturating_add(err);
            return;
        }
        if self.slots.len() < self.cap {
            self.slots.insert(key, (weight, err));
            return;
        }
        // Evict the minimum-count entry (ties break to the smallest key,
        // which BTreeMap iteration order gives us for free) and charge its
        // count to the newcomer as error.
        let victim = self
            .slots
            .iter()
            .min_by_key(|(k, (c, _))| (*c, **k))
            .map(|(k, (c, _))| (*k, *c));
        if let Some((vk, vc)) = victim {
            self.slots.remove(&vk);
            self.slots
                .insert(key, (vc.saturating_add(weight), vc.saturating_add(err)));
        }
    }

    /// Merge another sketch into this one. The union keeps the
    /// SpaceSaving bound: each entry arrives with its own accumulated
    /// error, and evictions charge error as usual.
    pub fn merge(&mut self, other: &HeatSketch) {
        for (&key, &(count, err)) in &other.slots {
            self.observe_with_err(key, count, err);
        }
    }

    /// The hottest `n` entries, ordered by `(count desc, key asc)`.
    pub fn top(&self, n: usize) -> Vec<HeatEntry> {
        let mut all: Vec<HeatEntry> = self
            .slots
            .iter()
            .map(|(&key, &(count, err))| HeatEntry { key, count, err })
            .collect();
        all.sort_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
        all.truncate(n);
        all
    }

    /// Number of keys currently monitored.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no keys are monitored.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Monitored-set capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total observed weight (saturating).
    pub fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slash_desim::DetRng;

    /// Deterministic zipf(s) sampler over keys `0..n` via inverse CDF.
    struct TestZipf {
        cdf: Vec<f64>,
    }

    impl TestZipf {
        fn new(n: usize, s: f64) -> Self {
            let mut cdf = Vec::with_capacity(n);
            let mut acc = 0.0;
            for r in 1..=n {
                acc += 1.0 / (r as f64).powf(s);
                cdf.push(acc);
            }
            let norm = acc;
            for c in &mut cdf {
                *c /= norm;
            }
            Self { cdf }
        }

        fn sample(&self, rng: &mut DetRng) -> u64 {
            let u = rng.next_u64() as f64 / u64::MAX as f64;
            match self
                .cdf
                .binary_search_by(|c| c.partial_cmp(&u).unwrap_or(std::cmp::Ordering::Equal))
            {
                Ok(i) | Err(i) => i.min(self.cdf.len() - 1) as u64,
            }
        }
    }

    /// Acceptance: top-k is exact (keys, order, and counts) on a DetRng
    /// zipfian stream vs. brute-force counts.
    #[test]
    fn zipf_top_k_is_exact_vs_brute_force() {
        const KEYS: usize = 500;
        const SAMPLES: usize = 200_000;
        const K: usize = 8;
        let zipf = TestZipf::new(KEYS, 1.2);
        let mut rng = DetRng::new(0x4EA7);
        let mut sketch = HeatSketch::new(HEAT_CAPACITY);
        let mut brute = vec![0u64; KEYS];
        for _ in 0..SAMPLES {
            let key = zipf.sample(&mut rng);
            sketch.observe(key, 1);
            brute[key as usize] += 1;
        }
        assert_eq!(sketch.total(), SAMPLES as u64);
        assert_eq!(sketch.len(), HEAT_CAPACITY);
        let mut expected: Vec<(u64, u64)> = brute
            .iter()
            .enumerate()
            .map(|(k, &c)| (k as u64, c))
            .collect();
        expected.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let top = sketch.top(K);
        for (i, entry) in top.iter().enumerate() {
            assert_eq!(entry.key, expected[i].0, "rank {i}: wrong key");
            assert_eq!(entry.err, 0, "rank {i}: hot key should be exact");
            assert_eq!(entry.count, expected[i].1, "rank {i}: wrong count");
        }
        // Every monitored entry honours the SpaceSaving bound.
        for e in sketch.top(HEAT_CAPACITY) {
            let truth = brute[e.key as usize];
            assert!(e.count >= truth, "count is an upper bound");
            assert!(e.count - e.err <= truth, "err bounds the overestimate");
        }
    }

    #[test]
    fn eviction_charges_error_and_keeps_capacity() {
        let mut s = HeatSketch::new(2);
        s.observe(1, 10);
        s.observe(2, 5);
        s.observe(3, 1); // evicts key 2 (min count), inherits its count
        assert_eq!(s.len(), 2);
        let top = s.top(2);
        assert_eq!(
            top[0],
            HeatEntry {
                key: 1,
                count: 10,
                err: 0
            }
        );
        assert_eq!(
            top[1],
            HeatEntry {
                key: 3,
                count: 6,
                err: 5
            }
        );
        assert_eq!(s.total(), 16);
    }

    #[test]
    fn ties_break_deterministically_toward_smallest_key() {
        let mut s = HeatSketch::new(2);
        s.observe(7, 3);
        s.observe(4, 3);
        s.observe(9, 1); // tie on count 3: key 4 (smaller) is evicted
        let keys: Vec<u64> = s.top(2).iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![9, 7]); // 9 inherited count 3+1=4
    }

    #[test]
    fn top_counts_are_non_increasing() {
        let mut rng = DetRng::new(0x70C);
        let mut s = HeatSketch::new(16);
        for _ in 0..10_000 {
            s.observe(rng.next_below(100), 1 + rng.next_below(4));
        }
        let top = s.top(16);
        for w in top.windows(2) {
            assert!(w[0].count >= w[1].count, "top-k must be non-increasing");
        }
    }

    #[test]
    fn merge_preserves_bounds_vs_single_stream() {
        let mut rng = DetRng::new(0xE26);
        let mut brute = vec![0u64; 64];
        let mut a = HeatSketch::new(8);
        let mut b = HeatSketch::new(8);
        for i in 0..20_000 {
            let key = rng.next_below(64);
            brute[key as usize] += 1;
            if i % 2 == 0 {
                a.observe(key, 1);
            } else {
                b.observe(key, 1);
            }
        }
        a.merge(&b);
        assert_eq!(a.total(), 20_000);
        for e in a.top(8) {
            let truth = brute[e.key as usize];
            assert!(e.count >= truth, "merged count stays an upper bound");
            assert!(e.count - e.err <= truth, "merged err stays a bound");
        }
    }

    #[test]
    fn empty_and_zero_weight_are_inert() {
        let mut s = HeatSketch::new(4);
        assert!(s.is_empty());
        assert_eq!(s.top(4), Vec::new());
        s.observe(1, 0);
        assert!(s.is_empty());
        assert_eq!(s.total(), 0);
        assert_eq!(s.capacity(), 4);
    }
}
