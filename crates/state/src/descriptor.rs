//! State descriptors: how a piece of operator state behaves as a CRDT.

/// A state's value layout and CRDT class. The class says how far updates
/// may be regrouped ("stream programs are monoid homomorphisms with
/// state", PAPERS.md): an exact commutative monoid in any grouping, a
/// mergeable but inexact one only in the order the engine fixes, and the
/// free monoid of appended elements by concatenation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    /// Fixed-size value updated in place whose merge is exactly
    /// associative — integer and lattice CRDTs (Counter, Max, Min, HLL).
    /// Regrouping updates through the merge moves no bit of the result.
    Exact {
        /// Encoded value size in bytes.
        size: usize,
    },
    /// Fixed-size value updated in place whose merge is commutative but
    /// only approximately associative — float sums (Mean): IEEE 754
    /// addition rounds, so its updates stay per-record.
    Inexact {
        /// Encoded value size in bytes.
        size: usize,
    },
    /// Per-key multiset of elements; updates append, merging concatenates
    /// (the join-semilattice of sets under union, paper §5.1).
    Appended,
}

/// Describes one operator state: its value layout and CRDT laws.
///
/// The function pointers keep descriptors `Copy` and dispatch-cheap: they
/// are consulted once per record on the hot path.
#[derive(Clone, Copy)]
pub struct StateDescriptor {
    /// Value layout and CRDT class.
    pub kind: ValueKind,
    /// Write the CRDT zero value (only meaningful for fixed-size state).
    pub init: fn(&mut [u8]),
    /// CRDT merge: fold `src` into `dst`. Must be commutative and
    /// associative with `init` as identity, and `merge(init, x)` must be
    /// `x` bit for bit for every `x` folded from `init` (property-tested
    /// per CRDT).
    pub merge: fn(dst: &mut [u8], src: &[u8]),
}

impl StateDescriptor {
    /// Encoded value size for fixed-size state. Appended state has no
    /// fixed size (entries carry their own lengths) and reports 0, so
    /// byte-accounting callers charge only per-entry overhead for it.
    pub fn fixed_size(&self) -> usize {
        match self.kind {
            ValueKind::Exact { size } | ValueKind::Inexact { size } => size,
            ValueKind::Appended => 0,
        }
    }

    /// Whether this state is holistic (appended).
    pub fn is_appended(&self) -> bool {
        matches!(self.kind, ValueKind::Appended)
    }

    /// Whether updates may be regrouped — folded by the write combiner,
    /// or split into salted sub-keys — without moving a bit of the result:
    /// exact state. The engine's one gate for both.
    pub fn regroupable(&self) -> bool {
        matches!(self.kind, ValueKind::Exact { .. })
    }

    /// The one body by which a partial enters fixed state: copied into a
    /// `fresh` (absent until now) `value`, since a merge into the zero
    /// value is the identity; CRDT-merged into a present one.
    #[inline]
    pub(crate) fn merge_partial(&self, value: &mut [u8], fresh: bool, partial: &[u8]) {
        if fresh {
            value.copy_from_slice(partial);
        } else {
            (self.merge)(value, partial);
        }
    }
}

impl std::fmt::Debug for StateDescriptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateDescriptor")
            .field("kind", &self.kind)
            .finish()
    }
}

fn noop_init(_: &mut [u8]) {}
fn noop_merge(_: &mut [u8], _: &[u8]) {}

/// Descriptor for holistic (appended) state: merging is concatenation,
/// performed structurally by the backend, so the function hooks are no-ops.
pub fn appended_descriptor() -> StateDescriptor {
    StateDescriptor {
        kind: ValueKind::Appended,
        init: noop_init,
        merge: noop_merge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(kind: ValueKind) -> StateDescriptor {
        StateDescriptor {
            kind,
            init: noop_init,
            merge: noop_merge,
        }
    }

    #[test]
    fn fixed_size_accessor() {
        assert_eq!(fixed(ValueKind::Exact { size: 8 }).fixed_size(), 8);
        assert_eq!(fixed(ValueKind::Inexact { size: 16 }).fixed_size(), 16);
        assert!(!fixed(ValueKind::Exact { size: 8 }).is_appended());
        assert!(appended_descriptor().is_appended());
    }

    #[test]
    fn only_exact_state_is_regroupable() {
        assert!(fixed(ValueKind::Exact { size: 8 }).regroupable());
        let inexact = fixed(ValueKind::Inexact { size: 16 });
        assert!(!inexact.regroupable(), "float sums stay per-record");
        assert!(!appended_descriptor().regroupable());
    }

    #[test]
    fn appended_has_no_fixed_size() {
        assert_eq!(appended_descriptor().fixed_size(), 0);
    }
}
