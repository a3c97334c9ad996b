//! The fault matrix under `cargo test`: every row of
//! `slash_verify::catalogue` recovers exactly on the shipped cluster
//! driver. The rows, their faults and their expected repairs are defined
//! in the catalogue and nowhere else; `slash-race` sweeps the same rows
//! far wider, and `repro -- recovery` reports them.
//!
//! Each test probes its case's swept-free run, then runs the swept fault at
//! eight instants strided over that run's own event instants, each under a
//! different tie-break policy. Every run must equal the sequential fold of
//! its input and produce every required repair; the phase-window rows must
//! additionally see a restart (or abort) in every phase of the machine
//! they interrupt.
//!
//! The golden tests at the bottom pin the other half of the contract:
//! fault injection and recovery are exactly as deterministic as the healthy
//! engine — same plan, same bytes.

use slash::desim::{Sim, SimTime};
use slash::obs::Obs;
use slash_verify::catalogue::{case, catalogue};

fn recovers_exactly(name: &str) {
    let c = case(name).expect("catalogue row");
    let probe = c.probe();
    let (sweep, tally) = c.sweep(&probe, 8, None);
    assert!(sweep.clean(), "{}", sweep.render_human());
    assert!(tally.instants.len() >= 4, "{name}: only {:?} swept", tally.instants);
}

macro_rules! fault_matrix {
    ($($test:ident => $name:literal,)*) => {
        $(
            #[test]
            fn $test() {
                recovers_exactly($name);
            }
        )*

        #[test]
        fn every_catalogue_row_has_a_test() {
            let tested = [$($name),*];
            for c in catalogue() {
                assert!(tested.contains(&c.name), "{} is not run by cargo test", c.name);
            }
        }
    };
}

fault_matrix! {
    node_crash => "node-crash",
    link_flap => "link-flap",
    link_degrade => "link-degrade",
    delayed_completions => "delayed-completions",
    seeded_11 => "seeded-11",
    seeded_11_with_crash => "seeded-11+crash",
    seeded_23 => "seeded-23",
    seeded_23_with_crash => "seeded-23+crash",
    seeded_47 => "seeded-47",
    seeded_47_with_crash => "seeded-47+crash",
    concurrent_crash => "concurrent-crash",
    buddy_dead => "buddy-dead",
    crash_during_recovery => "crash-during-recovery",
    multi_worker_crash => "multi-worker-crash",
    cascade_x3 => "cascade-x3",
    reentrant => "reentrant",
    planned_handoff => "planned-handoff",
    target_crash_mid_handoff => "target-crash-mid-handoff",
    source_crash_mid_handoff => "source-crash-mid-handoff",
    handoff_vs_crash => "handoff-vs-crash",
    hot_split_recovery => "hot-split-recovery",
    hot_split_handoff => "hot-split-handoff",
    join_crash => "join-crash",
    recovery_small => "recovery-small",
    rescale_small => "rescale-small",
    hot_split_small => "hot-split-small",
}

/// The write combiners hold partials from batch to batch until the epoch
/// closes, so a crash between two batches of one epoch takes folded,
/// unflushed updates down with the node; the replay from the checkpointed
/// source positions has to bring every one of them back. The two-worker
/// crash row does put its fault there — and stays exact.
#[test]
fn a_crash_row_kills_a_node_whose_partials_span_batches() {
    let c = case("multi-worker-crash").expect("catalogue row");
    let probe = c.probe();
    let metrics = &probe.base.run.metrics;
    assert_eq!(metrics.combiner_folds, metrics.state_updates, "the combiner stays on");
    let (sweep, tally) = c.sweep(&probe, 8, None);
    assert!(sweep.clean(), "{}", sweep.render_human());
    let depth = |&at: &SimTime| probe.batches_in_open_epoch(1, at);
    let deepest = tally.required.iter().map(depth).max();
    assert!(deepest >= Some(2), "no crash landed mid-epoch: {:?}", tally.required);
}

/// Two traced runs of `name` with its swept fault at 200 µs must agree on
/// every observable, down to the bytes of the exported trace.
fn same_plan_is_byte_identical(name: &str) -> String {
    let c = case(name).expect("catalogue row");
    let faults = c.faults(SimTime::from_micros(700), Some(SimTime::from_micros(200)));
    let run = || {
        let obs = Obs::enabled(1 << 17);
        let (out, _) = c.run(&c.input(), &faults, None, obs.clone(), Sim::new());
        let digests = (out.recovery.results_digest, out.recovery.state_digests);
        let counts = (out.run.records, out.run.completion_time, out.recovery.events.len());
        (obs.chrome_trace_json(), digests, counts, out.rescale.max_stall())
    };
    let (a, b) = (run(), run());
    assert_eq!(a.1, b.1, "{name}: digests");
    assert_eq!(a.2, b.2, "{name}: counts");
    assert_eq!(a.3, b.3, "{name}: cutover stall");
    assert_eq!(a.0, b.0, "{name}: trace must be byte-identical");
    a.0
}

#[test]
fn same_seed_same_fault_plan_is_byte_identical() {
    let json = same_plan_is_byte_identical("node-crash");
    // The outage window is visible in the trace: injected fault events and
    // the recovery span both ride the fault category.
    assert!(json.contains("\"cat\":\"fault\""), "fault events traced");
    assert!(json.contains("\"name\":\"recovery\""), "recovery span traced");
}

#[test]
fn compound_fault_plan_same_seed_is_byte_identical() {
    same_plan_is_byte_identical("cascade-x3");
}

#[test]
fn elastic_chaos_runs_are_deterministic() {
    let json = same_plan_is_byte_identical("handoff-vs-crash");
    assert!(json.contains("\"name\":\"handoff-begin\""), "the migration is traced");
}
