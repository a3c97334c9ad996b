//! Write-combining must be invisible in every output: on the simulator,
//! every combiner-on and combiner-off cell of a workload, paced or not,
//! emits exactly what the sequential fold emits and ends in the same
//! final per-node state digests — healthy, and across a crash and its
//! recovery. Off, and on state that is not exactly associative (`cm`'s
//! float mean), the combiner folds nothing. These are the exactness
//! matrix's (`exactness/mod.rs`) director-less simulator cells.

mod exactness;

use exactness::{matrix, Slice};

#[test]
fn ysb_combiner_on_off_equivalent() {
    matrix("ysb", &[Slice::Combiner]);
}

/// On the hot key domain the combiner must engage: folds > 0 and
/// flushes < folds on every combiner-on cell.
#[test]
fn ysb_hot_combiner_engages_and_stays_equivalent() {
    matrix("ysb_hot", &[Slice::Combiner]);
}

#[test]
fn cm_combiner_on_off_equivalent() {
    matrix("cm", &[Slice::Combiner]);
}

#[test]
fn nb7_combiner_on_off_equivalent() {
    matrix("nb7", &[Slice::Combiner]);
}

#[test]
fn nb8_combiner_on_off_equivalent() {
    matrix("nb8", &[Slice::Combiner]);
}

#[test]
fn nb11_combiner_on_off_equivalent() {
    matrix("nb11", &[Slice::Combiner]);
}

/// Port 0 crashes with the combiner on and off on the hot-key row, so the
/// combiner engages before and after the fault: both recover the crashed
/// node by promotion and end exact, in the fault-free final state.
#[test]
fn chaos_crash_recovery_is_combiner_invariant() {
    matrix("ysb_hot", &[Slice::Crash]);
}
