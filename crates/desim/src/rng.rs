//! Deterministic random number generation for the simulation.
//!
//! A thin, seedable xoshiro256** implementation. We deliberately do not pull
//! the full `rand` ecosystem into the kernel: determinism across `rand`
//! version bumps is a reproducibility requirement for this repository, and
//! the generator below is ~40 lines. (Workload generators in
//! `slash-workloads` still use `rand` where distribution quality matters.)

/// The SplitMix64 output finalizer: a bijective avalanche of `z`. It
/// expands [`DetRng`] seeds, folds the simulator's schedule fingerprint
/// and the race checker's state digests.
#[inline]
pub fn mix64(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// xoshiro256** — fast, high-quality, seedable PRNG.
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Seed the generator. Any seed (including 0) is valid; the state is
    /// expanded with SplitMix64 as recommended by the xoshiro authors.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            mix64(sm)
        };
        DetRng {
            s: [next_sm(), next_sm(), next_sm(), next_sm()],
        }
    }

    /// Next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)` using Lemire's multiply-shift
    /// rejection method (unbiased).
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fork a statistically independent generator (e.g. one per node).
    pub fn fork(&mut self, stream: u64) -> DetRng {
        DetRng::new(self.next_u64() ^ stream.wrapping_mul(0xA24BAED4963EE407))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_the_splitmix64_finalizer() {
        // SplitMix64's reference first output from state 0.
        assert_eq!(mix64(0x9E3779B97F4A7C15), 0xE220A8397B1DCDAF);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut r = DetRng::new(7);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = r.next_below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn next_f64_in_unit_interval_and_roughly_uniform() {
        let mut r = DetRng::new(99);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn forked_streams_are_independent() {
        let mut root = DetRng::new(5);
        let mut a = root.fork(0);
        let mut b = root.fork(1);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same <= 1);
    }
}
