//! Order statistics over small sample sets: median, quartiles, MAD, and the
//! rule for which percentile a sample count can support.

/// Median, quartiles and median absolute deviation of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub mad: f64,
}

impl Summary {
    /// A value that was read once (a count, a deterministic virtual time):
    /// no spread to report.
    pub fn single(value: f64) -> Self {
        Summary {
            n: 1,
            median: value,
            q1: value,
            q3: value,
            mad: 0.0,
        }
    }

    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "summary of an empty sample set");
        if samples.len() == 1 {
            return Summary::single(samples[0]);
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median = median_sorted(&sorted);
        let (q1, q3) = quartiles_sorted(&sorted);
        let mut dev: Vec<f64> = sorted.iter().map(|v| (v - median).abs()).collect();
        dev.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            median,
            q1,
            q3,
            mad: median_sorted(&dev),
        }
    }

    /// Inter-quartile range as a share of the median: the spread the
    /// benchmark's bounds are judged against.
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads printed here are the ones the driver computes.
fn quartiles_sorted(sorted: &[f64]) -> (f64, f64) {
    let ld = sorted.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Percentile `p` (0–100) by linear interpolation between closest ranks.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample set");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The percentiles a report may quote, lowest first, in per mille (whole
/// numbers, so that "ten samples beyond" is decided exactly).
const LADDER: [u64; 5] = [500, 900, 950, 990, 999];

/// The highest percentile of [`LADDER`] that still has at least ten
/// samples beyond it; `None` when even the median does not (n < 20).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rfind(|&&pm| n as u64 * (1000 - pm) >= 10 * 1000)
        .map(|&pm| pm as f64 / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (10, 2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 4], n=4) == [0.25, 2.5, 4.75]
        let s = Summary::of(&[1.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.25, 2.5, 4.75));
    }

    #[test]
    fn mad_is_the_median_distance_from_the_median() {
        // median 3; distances 2,1,0,1,97 -> sorted 0,1,1,2,97 -> MAD 1.
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 100.0]);
        assert_eq!((s.median, s.mad), (3.0, 1.0));
        assert_eq!(Summary::single(7.0).mad, 0.0);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let s = Summary::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert!((s.iqr_share() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 6.0);
        assert_eq!(percentile(&v, 90.0), 10.0);
        assert_eq!(percentile(&v, 95.0), 10.5);
    }
}
