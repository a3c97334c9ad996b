//! State descriptors: how a piece of operator state behaves as a CRDT.

/// Whether values are fixed-size (in-place read-modify-write, non-holistic
/// aggregations) or appended element lists (holistic operators like joins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    /// Fixed-size value updated in place. Merging uses the descriptor's
    /// CRDT merge function.
    Fixed {
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
    /// Value layout.
    pub kind: ValueKind,
    /// Write the CRDT zero value (only meaningful for `Fixed`).
    pub init: fn(&mut [u8]),
    /// CRDT merge: fold `src` into `dst`. Must be commutative and
    /// associative with `init` as identity (property-tested per CRDT).
    pub merge: fn(dst: &mut [u8], src: &[u8]),
    /// Whether batch-local pre-aggregation (write combining) preserves
    /// bit-exact results. True only when regrouping updates through `merge`
    /// is *exactly* associative — integer and lattice CRDTs. Float-summing
    /// CRDTs stay per-record: IEEE 754 addition is not associative, and the
    /// engine promises combiner-on/off runs are bit-identical.
    pub combinable: bool,
}

impl StateDescriptor {
    /// Encoded value size for fixed-kind state. Appended state has no
    /// fixed size (entries carry their own lengths) and reports 0, so
    /// byte-accounting callers charge only per-entry overhead for it.
    pub fn fixed_size(&self) -> usize {
        match self.kind {
            ValueKind::Fixed { size } => size,
            ValueKind::Appended => 0,
        }
    }

    /// Whether this state is holistic (appended).
    pub fn is_appended(&self) -> bool {
        matches!(self.kind, ValueKind::Appended)
    }

    /// Whether updates may be regrouped — folded by the write combiner,
    /// or split into salted sub-keys — without moving a bit of the result:
    /// fixed-size state with an exactly associative merge. The engine's
    /// one gate for both.
    pub fn regroupable(&self) -> bool {
        self.combinable && !self.is_appended()
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
        combinable: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_size_accessor() {
        let d = StateDescriptor {
            kind: ValueKind::Fixed { size: 8 },
            init: noop_init,
            merge: noop_merge,
            combinable: true,
        };
        assert_eq!(d.fixed_size(), 8);
        assert!(!d.is_appended());
        assert!(appended_descriptor().is_appended());
    }

    #[test]
    fn regroupable_needs_combinable_fixed_state() {
        let fixed = |combinable| StateDescriptor {
            kind: ValueKind::Fixed { size: 8 },
            init: noop_init,
            merge: noop_merge,
            combinable,
        };
        assert!(fixed(true).regroupable());
        assert!(!fixed(false).regroupable(), "float sums stay per-record");
        assert!(!appended_descriptor().regroupable());
    }

    #[test]
    fn appended_has_no_fixed_size() {
        assert_eq!(appended_descriptor().fixed_size(), 0);
    }
}
