//! State keys and fast hashing.
//!
//! Window state is keyed by `(window_id, group_key)` packed into a
//! [`StateKey`] (`u128`). Hashing uses the FxHash multiply-rotate mix — the
//! perf-book-recommended choice for integer keys where HashDoS is not a
//! concern (all keys here are produced by the engine, not by untrusted
//! input).

/// A state key: high 64 bits identify the window, low 64 bits the group.
pub type StateKey = u128;

/// Pack a `(window_id, group_key)` pair into a [`StateKey`].
#[inline]
pub fn pack_key(window_id: u64, group_key: u64) -> StateKey {
    ((window_id as u128) << 64) | group_key as u128
}

/// Unpack a [`StateKey`] into `(window_id, group_key)`.
#[inline]
pub(crate) fn unpack_key(key: StateKey) -> (u64, u64) {
    ((key >> 64) as u64, key as u64)
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style mix of one 64-bit word.
#[inline]
pub(crate) fn mix_u64(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(SEED)
}

/// Hash a 64-bit key.
#[inline]
pub fn hash_u64(v: u64) -> u64 {
    // A single multiply-xor-shift is enough for engine-generated keys but
    // distributes low bits poorly; finish with a xorshift.
    let h = mix_u64(0, v);
    h ^ (h >> 32)
}

/// Hash a full state key.
#[inline]
pub(crate) fn hash_key(key: StateKey) -> u64 {
    let h = mix_u64(mix_u64(0, key as u64), (key >> 64) as u64);
    h ^ (h >> 32)
}

/// The SSB partition a key belongs to, among `n` partitions.
///
/// Partitioning hashes only the *group* half of the state key, so every
/// window of one group key lands on the same leader. This is what lets a
/// leader stitch multi-bucket windows (sliding-window slices, session
/// buckets) without cross-node reads at trigger time.
#[inline]
pub fn partition_of(key: StateKey, n: usize) -> usize {
    debug_assert!(n > 0);
    // Multiply-shift partitioning over the high bits of the group hash.
    ((hash_u64(key as u64) as u128 * n as u128) >> 64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let k = pack_key(0xABCD_EF01, 42);
        assert_eq!(unpack_key(k), (0xABCD_EF01, 42));
        assert_eq!(
            unpack_key(pack_key(u64::MAX, u64::MAX)),
            (u64::MAX, u64::MAX)
        );
    }

    #[test]
    fn hash_spreads_sequential_keys() {
        // Sequential group keys (the common case: dense key spaces in YSB)
        // must land in different buckets.
        let mut low_bits = std::collections::HashSet::new();
        for g in 0..1024u64 {
            low_bits.insert(hash_key(pack_key(1, g)) & 0xFFF);
        }
        assert!(low_bits.len() > 900, "only {} distinct", low_bits.len());
    }

    #[test]
    fn partition_of_is_balanced() {
        let n = 8;
        let mut counts = vec![0usize; n];
        for g in 0..80_000u64 {
            counts[partition_of(pack_key(3, g), n)] += 1;
        }
        for &c in &counts {
            assert!(
                (c as f64 - 10_000.0).abs() < 1_000.0,
                "imbalanced: {counts:?}"
            );
        }
    }

    #[test]
    fn partition_of_is_stable_across_calls() {
        for g in 0..100 {
            let k = pack_key(9, g);
            assert_eq!(partition_of(k, 5), partition_of(k, 5));
        }
    }

    #[test]
    fn all_windows_of_a_key_share_a_leader() {
        for g in 0..200u64 {
            let p0 = partition_of(pack_key(0, g), 7);
            for w in 1..50u64 {
                assert_eq!(partition_of(pack_key(w, g), 7), p0);
            }
        }
    }

    #[test]
    fn single_partition_always_zero() {
        for g in 0..100 {
            assert_eq!(partition_of(pack_key(1, g), 1), 0);
        }
    }
}
