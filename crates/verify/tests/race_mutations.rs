//! Mutation tests for the race checker: each injected protocol bug must be
//! caught by exactly the invariant that guards against it. A detector that
//! passes clean runs but cannot see planted bugs proves nothing — these
//! tests are the checker's own test suite.

use slash_desim::TieBreak;
use slash_verify::catalogue::case;
use slash_verify::race::{explore, Exploration, Invariant};
use slash_verify::scenarios::{ChannelScenario, CoherenceScenario, Mutation, Scenario};

/// A small sweep of catalogue row `name` on the shipped driver with `m`
/// planted inside it.
fn driver_sweep(name: &str, m: Mutation) -> Exploration {
    let c = case(name).expect("catalogue row");
    c.sweep(&c.probe(), 8, m.plant()).0
}

/// Each protocol mutation trips exactly the invariant that guards against
/// it, under the plain FIFO schedule.
#[test]
fn each_protocol_mutation_breaks_its_invariant() {
    for (m, expected) in [
        (Mutation::SkipCreditReturn, Invariant::CreditConservation),
        (Mutation::IgnoreCreditWindow, Invariant::NoOverwrite),
        (Mutation::ReorderDelivered, Invariant::Fifo),
        (Mutation::RegressVclock, Invariant::VclockMonotonic),
        (Mutation::DropUpdate, Invariant::EpochConvergence),
    ] {
        let mutation = Some(m);
        let out = match m {
            Mutation::RegressVclock | Mutation::DropUpdate => {
                CoherenceScenario { mutation, ..CoherenceScenario::default() }.run(TieBreak::Fifo)
            }
            _ => ChannelScenario { mutation, ..ChannelScenario::default() }.run(TieBreak::Fifo),
        };
        assert!(
            out.violations.iter().any(|(i, _)| *i == expected),
            "{m:?}: expected {} violation, got {:?}",
            expected.name(),
            out.violations
        );
    }
}

/// The two bugs planted inside the shipped state machines — a promotion
/// commit that replays one epoch too few (`core/recovery.rs`) and a handoff
/// cutover captured mid-epoch (`core/elastic.rs`) — lose updates silently;
/// only the comparison against the sequential fold sees them.
#[test]
fn bugs_planted_in_the_shipped_machines_break_recovery_convergence() {
    for (name, m) in [
        ("node-crash", Mutation::SkipReplay),
        ("planned-handoff", Mutation::SkipReplay),
        ("planned-handoff", Mutation::SkipCutoverClose),
    ] {
        let e = driver_sweep(name, m);
        assert!(
            e.violations.iter().any(|v| v.invariant == Invariant::RecoveryConvergence
                && v.detail.contains("differ from the sequential fold")),
            "{m:?} on {name} not detected: {:?}",
            e.violations
        );
        assert!(!e.dumps.is_empty(), "violation must dump the flight recorder");
        assert!(e.dumps[0].contains("registry snapshot"), "{}", e.dumps[0]);
    }
    // The cutover plant is inert where nothing is handed off.
    assert!(driver_sweep("node-crash", Mutation::SkipCutoverClose).clean());
}

#[test]
fn mutations_are_caught_under_every_explored_schedule() {
    // A planted bug must not be maskable by a lucky interleaving: sweep a
    // handful of schedules and require the violation under each one.
    for (name, expected, run) in [
        (
            "skip-credit-return",
            Invariant::CreditConservation,
            Mutation::SkipCreditReturn,
        ),
        (
            "ignore-credit-window",
            Invariant::NoOverwrite,
            Mutation::IgnoreCreditWindow,
        ),
    ] {
        for policy in [TieBreak::Fifo, TieBreak::Lifo, TieBreak::Seeded(3)] {
            let out = ChannelScenario {
                mutation: Some(run),
                ..ChannelScenario::default()
            }
            .run(policy);
            assert!(
                out.violations.iter().any(|(i, _)| *i == expected),
                "{name} not caught under {policy:?}"
            );
        }
    }
}

#[test]
fn violations_come_with_flight_recorder_dumps() {
    // Every flagged invariant captures a dump: the reason, the schedule
    // fingerprint, and the trailing verb/epoch trace events.
    let out = ChannelScenario {
        mutation: Some(Mutation::IgnoreCreditWindow),
        ..ChannelScenario::default()
    }
    .run(TieBreak::Fifo);
    assert!(!out.violations.is_empty());
    assert_eq!(out.dumps.len(), out.violations.len(), "one dump per violation");
    assert!(out.dumps[0].contains("flight-recorder dump"));
    assert!(out.dumps[0].contains("schedule fingerprint=0x"));
    assert!(out.dumps[0].contains("verb/"), "dump should show channel verb events");

    let out = CoherenceScenario {
        mutation: Some(Mutation::RegressVclock),
        ..CoherenceScenario::default()
    }
    .run(TieBreak::Fifo);
    assert!(!out.violations.is_empty());
    assert!(!out.dumps.is_empty());
    assert!(out.dumps[0].contains("vclock["), "dump should carry vector-clock context");

    // Clean runs dump nothing.
    let clean = ChannelScenario::default().run(TieBreak::Fifo);
    assert!(clean.violations.is_empty() && clean.dumps.is_empty());
}

#[test]
fn clean_scenarios_have_no_violations_under_a_small_sweep() {
    let scenarios: [(&str, Box<dyn Scenario>); 3] = [
        ("channel", Box::new(ChannelScenario::default())),
        ("multi-port", Box::new(ChannelScenario::multi_port())),
        ("coherence", Box::new(CoherenceScenario::default())),
    ];
    for (name, s) in &scenarios {
        let e = explore(name, 8, |p| s.run(p));
        assert!(e.clean(), "{name} violations: {:?}", e.violations);
        assert!(e.distinct_schedules >= 4, "{name}: only {} distinct", e.distinct_schedules);
    }
}

#[test]
fn acceptance_sweep_explores_at_least_100_distinct_schedules() {
    // The acceptance gate, run in-tree: 128 policies must yield at least
    // 100 distinct schedules per protocol scenario, and 128 runs of a
    // driver case at least 100 distinct (instant, schedule) pairs, with
    // all invariants green.
    let chan = explore("channel", 128, |p| ChannelScenario::default().run(p));
    let coh = explore("coherence", 128, |p| CoherenceScenario::default().run(p));
    let crash = case("recovery-small").expect("catalogue row");
    let crash = crash.sweep(&crash.probe(), 128, None).0;
    for e in [chan, coh, crash] {
        assert!(e.clean(), "{}: {:?}", e.scenario, e.violations);
        assert!(
            e.distinct_schedules >= 100,
            "{}: only {} distinct",
            e.scenario,
            e.distinct_schedules
        );
    }
}
