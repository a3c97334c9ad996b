//! HyperLogLog CRDT — approximate count-distinct window state.
//!
//! An extension beyond the paper's evaluated operators that exercises its
//! CRDT framework (§5.1): HyperLogLog registers form a join-semilattice
//! under element-wise max, so per-node sketches merge in any order and
//! any grouping to the same result — exactly the property the epoch
//! protocol needs. Useful for streaming queries like "distinct users per
//! campaign per window".
//!
//! Layout: 256 one-byte registers (m = 2⁸), giving a standard error of
//! about `1.04 / √256 ≈ 6.5 %`.

use crate::descriptor::{StateDescriptor, ValueKind};

/// Full-avalanche 64-bit finalizer (SplitMix64). HyperLogLog needs every
/// output bit unbiased; the engine's FxHash-style mix is too weak for
/// sequential keys here.
#[inline]
fn hll_hash(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Number of registers.
const M: usize = 256;
/// Register index bits.
const P: u32 = 8;

/// HyperLogLog sketch over `u64` items.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HllCrdt;

impl HllCrdt {
    /// Encoded size: one byte per register.
    pub(crate) const SIZE: usize = M;

    /// Fold one item into the sketch.
    #[inline]
    pub fn observe(value: &mut [u8], item: u64) {
        let h = hll_hash(item);
        // Register index from the top bits (better distributed for the
        // multiply-based hash); rank from the remaining bits.
        let idx = (h >> (64 - P)) as usize;
        let rest = h << P;
        let rank = (rest.leading_zeros() + 1).min(64 - P + 1) as u8;
        if rank > value[idx] {
            value[idx] = rank;
        }
    }

    /// Estimate the number of distinct items folded in.
    pub fn estimate(value: &[u8]) -> f64 {
        debug_assert_eq!(value.len(), M);
        let m = M as f64;
        let mut sum = 0.0;
        let mut zeros = 0u32;
        for &r in value {
            sum += 1.0 / (1u64 << r.min(63)) as f64;
            if r == 0 {
                zeros += 1;
            }
        }
        // Bias-corrected harmonic mean (alpha for m = 256).
        let alpha = 0.7213 / (1.0 + 1.079 / m);
        let raw = alpha * m * m / sum;
        if raw <= 2.5 * m && zeros > 0 {
            // Small-range correction: linear counting.
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }

    fn init(value: &mut [u8]) {
        value[..M].fill(0);
    }

    fn merge(dst: &mut [u8], src: &[u8]) {
        for (d, s) in dst.iter_mut().zip(src.iter()) {
            if *s > *d {
                *d = *s;
            }
        }
    }

    /// Backend descriptor.
    pub fn descriptor() -> StateDescriptor {
        StateDescriptor {
            kind: ValueKind::Exact { size: Self::SIZE },
            init: Self::init,
            merge: Self::merge,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch(items: impl Iterator<Item = u64>) -> Vec<u8> {
        let mut v = vec![0u8; HllCrdt::SIZE];
        for x in items {
            HllCrdt::observe(&mut v, x);
        }
        v
    }

    #[test]
    fn estimates_within_error_bound() {
        for &n in &[100u64, 1_000, 50_000] {
            let v = sketch(0..n);
            let est = HllCrdt::estimate(&v);
            let err = (est - n as f64).abs() / n as f64;
            assert!(err < 0.15, "n={n} est={est:.0} err={err:.2}");
        }
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let once = sketch(0..1000);
        let thrice = sketch((0..1000).chain(0..1000).chain(0..1000));
        assert_eq!(once, thrice, "sketch is duplicate-insensitive");
    }

    #[test]
    fn merge_is_union() {
        let a = sketch(0..500);
        let b = sketch(250..1000);
        let mut merged = a.clone();
        HllCrdt::merge(&mut merged, &b);
        let direct = sketch(0..1000);
        assert_eq!(merged, direct, "merge(a,b) == sketch(a ∪ b)");
    }

    #[test]
    fn semilattice_laws() {
        let a = sketch(0..300);
        let b = sketch(200..600);
        let c = sketch(500..900);
        // Commutative.
        let mut ab = a.clone();
        HllCrdt::merge(&mut ab, &b);
        let mut ba = b.clone();
        HllCrdt::merge(&mut ba, &a);
        assert_eq!(ab, ba);
        // Associative.
        let mut ab_c = ab.clone();
        HllCrdt::merge(&mut ab_c, &c);
        let mut bc = b.clone();
        HllCrdt::merge(&mut bc, &c);
        let mut a_bc = a.clone();
        HllCrdt::merge(&mut a_bc, &bc);
        assert_eq!(ab_c, a_bc);
        // Idempotent (a true join-semilattice, unlike counters).
        let mut aa = a.clone();
        HllCrdt::merge(&mut aa, &a);
        assert_eq!(aa, a);
        // Identity.
        let mut a0 = a.clone();
        let mut zero = vec![0u8; HllCrdt::SIZE];
        (HllCrdt::descriptor().init)(&mut zero);
        HllCrdt::merge(&mut a0, &zero);
        assert_eq!(a0, a);
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        let v = vec![0u8; HllCrdt::SIZE];
        assert_eq!(HllCrdt::estimate(&v), 0.0);
    }
}
