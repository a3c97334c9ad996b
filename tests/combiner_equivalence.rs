//! Write-combining must be invisible in every output: on the simulator,
//! every combiner-on and combiner-off cell of a workload, paced or not,
//! emits exactly what the sequential fold emits and ends in the same
//! final per-node state digests — healthy, and across a crash and its
//! recovery. Off, and on state that is not exactly associative (`cm`'s
//! float mean), the combiner folds nothing. These are the exactness
//! matrix's (`exactness/mod.rs`) director-less simulator cells. The
//! combiner's on/off verdicts are pinned on counts, driven raw through
//! `HotPath::process`.

mod exactness;

use std::rc::Rc;

use exactness::{matrix, Slice};
use slash_core::HotPath;
use slash_state::backend::{SsbConfig, SsbNode};
use slash_workloads::{nb7, ysb, ysb_hot, GenConfig, Workload};

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

/// Slots of the write-combiner table the verdict test runs with.
const SLOTS: usize = 1024;

/// What the write combiner did over one workload's first partition,
/// driven raw through `HotPath::process` on a detached SSB in 16 Ki-record
/// batches: (survivors folded, keys that entered the table, whether a
/// reuse verdict turned it off). Counts, so every run reads the same.
fn combiner_counts(w: &Workload) -> (u64, u64, bool) {
    let plan = Rc::new(w.plan.clone());
    let mut hp = HotPath::new(Rc::clone(&plan), true, SLOTS);
    let mut ssb = SsbNode::detached(0, plan.descriptor(), SsbConfig::new(1));
    let (mut folds, mut keys) = (0, 0);
    for batch in w.partitions[0].chunks(16 * 1024 * plan.record_size()) {
        let out = hp.process(&mut ssb, batch);
        if hp.combined() {
            folds += out.survivors;
            keys += out.flushed;
        }
    }
    match hp.combiner_off() {
        Some((folds, keys)) => (folds, keys, true),
        None => (folds, keys, false),
    }
}

/// The combiner is on where it pays and off where it cannot: where keys
/// recur (ysb_hot's 100 campaigns, nb7's Pareto heavy hitters) the table
/// stays on and absorbs at least nine updates in ten; on reuse-free ysb
/// the cold-stream probe turns it off within one table's worth of folds.
#[test]
fn combiner_verdicts_hold_on_counts() {
    let gen = GenConfig::new(1, 200_000);
    for w in [ysb_hot(&gen), nb7(&gen)] {
        let (folds, keys, off) = combiner_counts(&w);
        let hit = 1.0 - keys as f64 / folds as f64;
        assert!(
            !off && folds > 0 && hit >= 0.9,
            "{} must keep combining at hit ratio >= 0.9: {folds} folds, {keys} keys, off {off}",
            w.name
        );
    }
    let (folds, keys, off) = combiner_counts(&ysb(&gen));
    assert!(
        off && folds <= SLOTS as u64,
        "ysb must turn the combiner off within {SLOTS} folds: {folds} folds, {keys} keys, off {off}"
    );
}
