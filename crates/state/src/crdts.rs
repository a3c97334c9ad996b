//! Conflict-free replicated data types for window state (paper §5.1).
//!
//! Slash represents each window's partial state as a CRDT so that eagerly
//! computed per-node partials can be merged lazily in any order and any
//! grouping, and still converge to the sequential result:
//!
//! * non-holistic aggregations rely on a **commutative monoid** (merge is
//!   commutative + associative with an identity);
//! * holistic operators (joins) rely on the **join-semilattice of sets
//!   under union**, realized as appended entry lists (see
//!   [`crate::descriptor::ValueKind::Appended`]).
//!
//! Each CRDT here gives its encoded layout, the update used on the hot
//! path, and a [`StateDescriptor`] for the backend. The algebraic laws are
//! property-tested in `tests/crdt_laws.rs`.

use crate::descriptor::{StateDescriptor, ValueKind};

/// `u64` counter: update = add, merge = add, zero = 0. Used by the RO
/// benchmark (count occurrences) and YSB (count per campaign window).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterCrdt;

impl CounterCrdt {
    /// Encoded size.
    pub const SIZE: usize = 8;

    /// Add `n` to the encoded counter. Short buffers (never produced by
    /// the backend, which sizes values from the descriptor) are left as-is.
    #[inline]
    pub fn add(value: &mut [u8], n: u64) {
        let Some(chunk) = value.first_chunk_mut::<8>() else {
            return;
        };
        *chunk = u64::from_le_bytes(*chunk).wrapping_add(n).to_le_bytes();
    }

    /// Read the counter (the identity, 0, on a short buffer).
    #[inline]
    pub fn get(value: &[u8]) -> u64 {
        value
            .first_chunk::<8>()
            .map_or(0, |c| u64::from_le_bytes(*c))
    }

    fn init(value: &mut [u8]) {
        value[..8].fill(0);
    }

    fn merge(dst: &mut [u8], src: &[u8]) {
        Self::add(dst, Self::get(src));
    }

    /// Backend descriptor.
    pub fn descriptor() -> StateDescriptor {
        StateDescriptor {
            kind: ValueKind::Fixed { size: Self::SIZE },
            init: Self::init,
            merge: Self::merge,
            combinable: true,
        }
    }
}

/// `f64` sum: update = add, merge = add, zero = 0.0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SumF64Crdt;

impl SumF64Crdt {
    /// Encoded size.
    pub const SIZE: usize = 8;

    /// Add `x` to the encoded sum. Short buffers are left as-is.
    #[inline]
    pub fn add(value: &mut [u8], x: f64) {
        let Some(chunk) = value.first_chunk_mut::<8>() else {
            return;
        };
        *chunk = (f64::from_le_bytes(*chunk) + x).to_le_bytes();
    }

    /// Read the sum (the identity, 0.0, on a short buffer).
    #[inline]
    pub fn get(value: &[u8]) -> f64 {
        value
            .first_chunk::<8>()
            .map_or(0.0, |c| f64::from_le_bytes(*c))
    }

    fn init(value: &mut [u8]) {
        value[..8].copy_from_slice(&0f64.to_le_bytes());
    }

    fn merge(dst: &mut [u8], src: &[u8]) {
        Self::add(dst, Self::get(src));
    }

    /// Backend descriptor.
    pub fn descriptor() -> StateDescriptor {
        StateDescriptor {
            kind: ValueKind::Fixed { size: Self::SIZE },
            init: Self::init,
            merge: Self::merge,
            combinable: false,
        }
    }
}

/// `u64` maximum: update = max, merge = max, zero = 0 (prices and counts
/// in NEXMark are non-negative; use [`MinCrdt`]'s convention for the dual).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MaxCrdt;

impl MaxCrdt {
    /// Encoded size.
    pub const SIZE: usize = 8;

    /// Fold `x` into the encoded maximum. Short buffers are left as-is.
    #[inline]
    pub fn update(value: &mut [u8], x: u64) {
        let Some(chunk) = value.first_chunk_mut::<8>() else {
            return;
        };
        if x > u64::from_le_bytes(*chunk) {
            *chunk = x.to_le_bytes();
        }
    }

    /// Read the maximum (the identity, 0, on a short buffer).
    #[inline]
    pub fn get(value: &[u8]) -> u64 {
        value
            .first_chunk::<8>()
            .map_or(0, |c| u64::from_le_bytes(*c))
    }

    fn init(value: &mut [u8]) {
        value[..8].fill(0);
    }

    fn merge(dst: &mut [u8], src: &[u8]) {
        Self::update(dst, Self::get(src));
    }

    /// Backend descriptor.
    pub fn descriptor() -> StateDescriptor {
        StateDescriptor {
            kind: ValueKind::Fixed { size: Self::SIZE },
            init: Self::init,
            merge: Self::merge,
            combinable: true,
        }
    }
}

/// `u64` minimum: update = min, merge = min, zero = `u64::MAX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MinCrdt;

impl MinCrdt {
    /// Encoded size.
    pub const SIZE: usize = 8;

    /// Fold `x` into the encoded minimum. Short buffers are left as-is.
    #[inline]
    pub fn update(value: &mut [u8], x: u64) {
        let Some(chunk) = value.first_chunk_mut::<8>() else {
            return;
        };
        if x < u64::from_le_bytes(*chunk) {
            *chunk = x.to_le_bytes();
        }
    }

    /// Read the minimum (`u64::MAX` when untouched or on a short buffer).
    #[inline]
    pub fn get(value: &[u8]) -> u64 {
        value
            .first_chunk::<8>()
            .map_or(u64::MAX, |c| u64::from_le_bytes(*c))
    }

    fn init(value: &mut [u8]) {
        value[..8].copy_from_slice(&u64::MAX.to_le_bytes());
    }

    fn merge(dst: &mut [u8], src: &[u8]) {
        Self::update(dst, Self::get(src));
    }

    /// Backend descriptor.
    pub fn descriptor() -> StateDescriptor {
        StateDescriptor {
            kind: ValueKind::Fixed { size: Self::SIZE },
            init: Self::init,
            merge: Self::merge,
            combinable: true,
        }
    }
}

/// Mean as a `(sum: f64, count: u64)` pair — the paper's example of a
/// sum-based CRDT: each node keeps partial sums, the final mean is computed
/// at trigger time. Used by the Cluster Monitoring benchmark (mean CPU per
/// job).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MeanCrdt;

impl MeanCrdt {
    /// Encoded size: sum (8) + count (8).
    pub const SIZE: usize = 16;

    /// Fold one observation into the pair. Short buffers are left as-is.
    #[inline]
    pub fn observe(value: &mut [u8], x: f64) {
        let Some((sum, rest)) = value.split_first_chunk_mut::<8>() else {
            return;
        };
        let Some(cnt) = rest.first_chunk_mut::<8>() else {
            return;
        };
        *sum = (f64::from_le_bytes(*sum) + x).to_le_bytes();
        *cnt = u64::from_le_bytes(*cnt).wrapping_add(1).to_le_bytes();
    }

    /// Read `(sum, count)` (the identity, `(0.0, 0)`, on a short buffer).
    #[inline]
    pub fn get(value: &[u8]) -> (f64, u64) {
        let Some((sum, rest)) = value.split_first_chunk::<8>() else {
            return (0.0, 0);
        };
        (
            f64::from_le_bytes(*sum),
            rest.first_chunk::<8>()
                .map_or(0, |c| u64::from_le_bytes(*c)),
        )
    }

    /// The mean, if any observation was folded in.
    pub fn mean(value: &[u8]) -> Option<f64> {
        let (sum, cnt) = Self::get(value);
        (cnt > 0).then(|| sum / cnt as f64)
    }

    fn init(value: &mut [u8]) {
        value[..16].fill(0);
        value[..8].copy_from_slice(&0f64.to_le_bytes());
    }

    fn merge(dst: &mut [u8], src: &[u8]) {
        let (s2, c2) = Self::get(src);
        let (s1, c1) = Self::get(dst);
        dst[..8].copy_from_slice(&(s1 + s2).to_le_bytes());
        dst[8..16].copy_from_slice(&(c1 + c2).to_le_bytes());
    }

    /// Backend descriptor.
    pub fn descriptor() -> StateDescriptor {
        StateDescriptor {
            kind: ValueKind::Fixed { size: Self::SIZE },
            init: Self::init,
            merge: Self::merge,
            combinable: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zeroed(d: &StateDescriptor) -> Vec<u8> {
        let mut v = vec![0u8; d.fixed_size()];
        (d.init)(&mut v);
        v
    }

    #[test]
    fn counter_update_and_merge() {
        let d = CounterCrdt::descriptor();
        let mut a = zeroed(&d);
        let mut b = zeroed(&d);
        CounterCrdt::add(&mut a, 5);
        CounterCrdt::add(&mut b, 7);
        (d.merge)(&mut a, &b);
        assert_eq!(CounterCrdt::get(&a), 12);
    }

    #[test]
    fn sum_f64() {
        let d = SumF64Crdt::descriptor();
        let mut a = zeroed(&d);
        SumF64Crdt::add(&mut a, 1.5);
        SumF64Crdt::add(&mut a, 2.25);
        assert_eq!(SumF64Crdt::get(&a), 3.75);
    }

    #[test]
    fn max_and_min_identities() {
        let dmax = MaxCrdt::descriptor();
        let mut m = zeroed(&dmax);
        assert_eq!(MaxCrdt::get(&m), 0, "max identity");
        MaxCrdt::update(&mut m, 9);
        MaxCrdt::update(&mut m, 3);
        assert_eq!(MaxCrdt::get(&m), 9);

        let dmin = MinCrdt::descriptor();
        let mut n = zeroed(&dmin);
        assert_eq!(MinCrdt::get(&n), u64::MAX, "min identity");
        MinCrdt::update(&mut n, 9);
        MinCrdt::update(&mut n, 3);
        assert_eq!(MinCrdt::get(&n), 3);
    }

    #[test]
    fn mean_pairs_merge_like_partial_sums() {
        let d = MeanCrdt::descriptor();
        let mut a = zeroed(&d);
        let mut b = zeroed(&d);
        MeanCrdt::observe(&mut a, 10.0);
        MeanCrdt::observe(&mut a, 20.0);
        MeanCrdt::observe(&mut b, 30.0);
        (d.merge)(&mut a, &b);
        assert_eq!(MeanCrdt::get(&a), (60.0, 3));
        assert_eq!(MeanCrdt::mean(&a), Some(20.0));
        assert_eq!(MeanCrdt::mean(&zeroed(&d)), None);
    }

    #[test]
    fn idempotent_merges_for_semilattice_crdts() {
        // min/max are join-semilattices: merging a state with itself is a
        // no-op. (Counters/sums are *not* idempotent — they are commutative
        // monoids over disjoint partials, which the epoch protocol
        // guarantees by invalidating shipped deltas.)
        let d = MaxCrdt::descriptor();
        let mut a = vec![0u8; 8];
        (d.init)(&mut a);
        MaxCrdt::update(&mut a, 123);
        let snapshot = a.clone();
        (d.merge)(&mut a, &snapshot);
        assert_eq!(a, snapshot);
    }
}
