//! Query output collection.

/// One triggered window result.
#[derive(Debug, Clone, PartialEq)]
pub enum SinkResult {
    /// An aggregation output.
    Agg {
        /// Window (bucket) id.
        window_id: u64,
        /// Group key.
        key: u64,
        /// Rendered aggregate.
        value: f64,
    },
    /// A join output: the number of pairwise combinations for this
    /// `(window, key)` (materializing every pair would dominate memory
    /// without adding information; pair *counts* are what correctness
    /// checks compare).
    Join {
        /// Window (bucket) id.
        window_id: u64,
        /// Join key.
        key: u64,
        /// Matched left × right combinations.
        pairs: u64,
    },
}

/// Collects or counts triggered results per node.
#[derive(Debug, Default, Clone)]
pub struct Sink {
    /// Whether to retain full results (tests) or only count (benchmarks).
    pub collect: bool,
    /// Retained results (when `collect`).
    pub results: Vec<SinkResult>,
    /// Total results emitted.
    pub emitted: u64,
    /// Total join pairs across all results.
    pub total_pairs: u64,
}

impl Sink {
    /// A collecting sink (integration tests).
    pub fn collecting() -> Self {
        Sink {
            collect: true,
            ..Default::default()
        }
    }

    /// A counting sink (benchmarks).
    pub fn counting() -> Self {
        Sink::default()
    }

    /// Emit one result.
    pub fn push(&mut self, r: SinkResult) {
        self.emitted += 1;
        if let SinkResult::Join { pairs, .. } = r {
            self.total_pairs += pairs;
        }
        if self.collect {
            self.results.push(r);
        }
    }
}

/// Order-independent digest of a result multiset — the single
/// implementation every exactness check compares (`slash-exec` re-exports
/// it as `results_fingerprint`). Runs emit results in different orders
/// (per-node sinks drain on independent clocks, promotions re-home
/// leaders), so rows are sorted first; each row is tagged with its kind,
/// and `f64` values compare by bit pattern, which is exact because every
/// run computes them with the same operations in the same per-key order.
pub fn results_digest(results: &[SinkResult]) -> u64 {
    let mut rows: Vec<(u64, u64, u64, u64)> = results
        .iter()
        .map(|r| match *r {
            SinkResult::Agg {
                window_id,
                key,
                value,
            } => (0u64, window_id, key, value.to_bits()),
            SinkResult::Join {
                window_id,
                key,
                pairs,
            } => (1u64, window_id, key, pairs),
        })
        .collect();
    rows.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (tag, w, k, v) in rows {
        for part in [tag, w, k, v] {
            h ^= part;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_independent_but_value_and_kind_sensitive() {
        let a = SinkResult::Agg {
            window_id: 1,
            key: 2,
            value: 3.0,
        };
        let b = SinkResult::Join {
            window_id: 1,
            key: 2,
            pairs: 9,
        };
        assert_eq!(
            results_digest(&[a.clone(), b.clone()]),
            results_digest(&[b.clone(), a.clone()])
        );
        let c = SinkResult::Agg {
            window_id: 1,
            key: 2,
            value: 4.0,
        };
        assert_ne!(
            results_digest(&[a, b.clone()]),
            results_digest(&[c, b.clone()])
        );
        // Same (window, key, bits) under a different kind must differ.
        let as_agg = SinkResult::Agg {
            window_id: 1,
            key: 2,
            value: f64::from_bits(9),
        };
        assert_ne!(results_digest(&[as_agg]), results_digest(&[b]));
    }

    #[test]
    fn counting_sink_does_not_retain() {
        let mut s = Sink::counting();
        s.push(SinkResult::Agg {
            window_id: 1,
            key: 2,
            value: 3.0,
        });
        assert_eq!(s.emitted, 1);
        assert!(s.results.is_empty());
    }

    #[test]
    fn collecting_sink_retains_and_sums_pairs() {
        let mut s = Sink::collecting();
        s.push(SinkResult::Join {
            window_id: 1,
            key: 2,
            pairs: 6,
        });
        s.push(SinkResult::Join {
            window_id: 1,
            key: 3,
            pairs: 4,
        });
        assert_eq!(s.emitted, 2);
        assert_eq!(s.total_pairs, 10);
        assert_eq!(s.results.len(), 2);
    }
}
