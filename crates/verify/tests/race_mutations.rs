//! Mutation tests for the race checker: each injected protocol bug must be
//! caught by exactly the check that guards against it — the three that
//! break a per-event protocol invariant by the shipped code's own checks
//! (`protocol_violations`), the rest by the checker's outcome judges. A
//! check that passes clean runs but cannot see planted bugs proves
//! nothing — these tests are the checker's own test suite.

use slash_desim::SimTime;
use slash_verify::catalogue::case;
use slash_verify::race::{explore, schedules, Exploration, Invariant};
use slash_verify::scenarios::{ChannelScenario, CoherenceScenario, Mutation, Scenario};

/// A small sweep of catalogue row `name` on the shipped driver with `m`
/// planted inside it.
fn driver_sweep(name: &str, m: Mutation) -> Exploration {
    let c = case(name).expect("catalogue row");
    c.sweep(&c.probe(), 8, m.plant()).0
}

/// Each protocol mutation trips exactly the invariant that guards against
/// it, under the plain FIFO (empty) schedule: the three per-event ones
/// through the count of the kind the shipped check names.
#[test]
fn each_protocol_mutation_breaks_its_invariant() {
    for (m, expected, kind) in [
        (
            Mutation::SkipCreditReturn,
            Invariant::CreditConservation,
            "",
        ),
        (
            Mutation::IgnoreCreditWindow,
            Invariant::Protocol,
            "credit-window=",
        ),
        (Mutation::ReorderDelivered, Invariant::Protocol, "fifo="),
        (
            Mutation::RegressVclock,
            Invariant::Protocol,
            "stale-watermark=",
        ),
        (Mutation::DropUpdate, Invariant::EpochConvergence, ""),
    ] {
        let mutation = Some(m);
        let out = match m {
            Mutation::RegressVclock | Mutation::DropUpdate => {
                CoherenceScenario {
                    mutation,
                    ..CoherenceScenario::default()
                }
                .run_schedule(&[])
                .outcome
            }
            _ => {
                ChannelScenario {
                    mutation,
                    ..ChannelScenario::default()
                }
                .run_schedule(&[])
                .outcome
            }
        };
        assert!(
            out.violations
                .iter()
                .any(|(i, d)| *i == expected && d.contains(kind)),
            "{m:?}: expected {} {kind} violation, got {:?}",
            expected.name(),
            out.violations
        );
        let protocol = out
            .violations
            .iter()
            .any(|(i, _)| *i == Invariant::Protocol);
        assert_eq!(protocol, !kind.is_empty(), "{m:?}: {:?}", out.violations);
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
            e.violations
                .iter()
                .any(|v| v.invariant == Invariant::RecoveryConvergence
                    && v.detail.contains("differ from the sequential fold")),
            "{m:?} on {name} not detected: {:?}",
            e.violations
        );
        assert!(
            !e.dumps.is_empty(),
            "violation must dump the flight recorder"
        );
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
            Invariant::Protocol,
            Mutation::IgnoreCreditWindow,
        ),
        (
            "reorder-delivered",
            Invariant::Protocol,
            Mutation::ReorderDelivered,
        ),
    ] {
        for (i, choices) in schedules(3).enumerate() {
            let out = ChannelScenario {
                mutation: Some(run),
                ..ChannelScenario::default()
            }
            .run_schedule(&choices)
            .outcome;
            assert!(
                out.violations.iter().any(|(i, _)| *i == expected),
                "{name} not caught under sweep schedule {i}"
            );
        }
    }
}

#[test]
fn violations_come_with_flight_recorder_dumps() {
    // The shipped check dumps at its first count, with the trailing
    // verb/epoch trace events; every flagged invariant adds a dump with
    // the schedule fingerprint.
    let out = ChannelScenario {
        mutation: Some(Mutation::IgnoreCreditWindow),
        ..ChannelScenario::default()
    }
    .run_schedule(&[])
    .outcome;
    assert!(!out.violations.is_empty());
    assert_eq!(
        out.dumps.len(),
        out.violations.len() + 1,
        "the check's dump, then one per violation"
    );
    assert!(out.dumps[0].contains("flight-recorder dump"));
    assert!(out.dumps[0].contains("protocol violation: credit-window"));
    assert!(
        out.dumps[0].contains("verb/"),
        "dump should show channel verb events"
    );
    assert!(out.dumps[1].contains("schedule fingerprint=0x"));

    let out = CoherenceScenario {
        mutation: Some(Mutation::RegressVclock),
        ..CoherenceScenario::default()
    }
    .run_schedule(&[])
    .outcome;
    assert!(!out.violations.is_empty());
    assert!(!out.dumps.is_empty());
    assert!(
        out.dumps[0].contains("protocol violation: stale-watermark")
            && out.dumps[0].contains("vclock=["),
        "dump should carry vector-clock context: {}",
        out.dumps[0]
    );

    // Clean runs dump nothing.
    let clean = ChannelScenario::default().run_schedule(&[]).outcome;
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
        let e = explore(name, 8, |_, c| s.run_schedule(c));
        assert!(e.clean(), "{name} violations: {:?}", e.violations);
        assert!(
            e.distinct_schedules >= 4,
            "{name}: only {} distinct",
            e.distinct_schedules
        );
    }
}

#[test]
fn acceptance_sweep_explores_at_least_100_distinct_schedules() {
    // The acceptance gate, run in-tree: 128 schedules must yield at least
    // 100 distinct schedules per protocol scenario, and 128 runs of a
    // driver case at least 100 distinct (instant, schedule) pairs, with
    // all invariants green.
    let chan = explore("channel", 128, |_, c| {
        ChannelScenario::default().run_schedule(c)
    });
    let coh = explore("coherence", 128, |_, c| {
        CoherenceScenario::default().run_schedule(c)
    });
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

/// A sweep violation names the choices its run made; replaying them
/// reproduces the same invariant — for a protocol plant through
/// `run_schedule`, for a driver plant through `Case::replay` at the fault
/// instant the violation reports.
#[test]
fn sweep_violations_replay_from_their_recorded_schedule() {
    let chan = ChannelScenario {
        mutation: Some(Mutation::IgnoreCreditWindow),
        ..ChannelScenario::default()
    };
    let e = explore("ignore-credit-window", 8, |_, c| chan.run_schedule(c));
    assert!(e.violations.iter().any(|v| v.schedule.contains(&1)));
    for v in &e.violations {
        let replay = chan.run_schedule(&v.schedule);
        assert!(
            replay
                .outcome
                .violations
                .iter()
                .any(|(i, _)| *i == v.invariant),
            "schedule {:?} does not reproduce {}",
            v.schedule,
            v.invariant.name()
        );
        let chosen: Vec<u32> = replay.trace.iter().map(|c| c.chosen).collect();
        assert_eq!(chosen, v.schedule, "the replay makes the same choices");
    }

    let c = case("node-crash").expect("catalogue row");
    let probe = c.probe();
    let m = Mutation::SkipReplay;
    let e = c.sweep(&probe, 8, m.plant()).0;
    assert!(!e.violations.is_empty(), "skip-replay must be caught");
    for v in &e.violations {
        let ns = v
            .detail
            .strip_prefix("at ")
            .and_then(|d| d.split_once(" ns"))
            .and_then(|(ns, _)| ns.parse().ok())
            .expect("a driver violation names its fault instant");
        let replay = c.replay(&probe, SimTime::from_nanos(ns), &v.schedule, m.plant());
        assert!(
            replay.violations.iter().any(|(i, _)| *i == v.invariant),
            "{} at {ns} ns under {:?} does not reproduce",
            v.invariant.name(),
            v.schedule
        );
    }
}
