//! Mutation tests for the race checker: each injected protocol bug must be
//! caught by exactly the invariant that guards against it. A detector that
//! passes clean runs but cannot see planted bugs proves nothing — these
//! tests are the checker's own test suite.

use slash_desim::TieBreak;
use slash_verify::race::{explore, Invariant};
use slash_verify::scenarios::{ChannelScenario, Mutation, RecoveryScenario, Scenario};

/// Invariants flagged by the channel scenario under `m`, FIFO schedule.
fn channel_flags(m: Mutation) -> Vec<Invariant> {
    let out = ChannelScenario {
        mutation: Some(m),
        ..ChannelScenario::default()
    }
    .run(TieBreak::Fifo);
    out.violations.into_iter().map(|(i, _)| i).collect()
}

/// Invariants flagged by the coherence scenario under `m`, FIFO schedule.
fn coherence_flags(m: Mutation) -> Vec<Invariant> {
    let out = RecoveryScenario {
        mutation: Some(m),
        ..RecoveryScenario::coherence()
    }
    .run(TieBreak::Fifo);
    out.violations.into_iter().map(|(i, _)| i).collect()
}

#[test]
fn skipping_credit_return_breaks_credit_conservation() {
    let flags = channel_flags(Mutation::SkipCreditReturn);
    assert!(
        flags.contains(&Invariant::CreditConservation),
        "expected credit-conservation violation, got {flags:?}"
    );
}

#[test]
fn ignoring_the_credit_window_breaks_no_overwrite() {
    let flags = channel_flags(Mutation::IgnoreCreditWindow);
    assert!(
        flags.contains(&Invariant::NoOverwrite),
        "expected no-slot-overwrite violation, got {flags:?}"
    );
}

#[test]
fn reordering_delivery_breaks_fifo() {
    let flags = channel_flags(Mutation::ReorderDelivered);
    assert!(
        flags.contains(&Invariant::Fifo),
        "expected fifo-delivery violation, got {flags:?}"
    );
}

#[test]
fn regressing_a_vclock_breaks_monotonicity() {
    let flags = coherence_flags(Mutation::RegressVclock);
    assert!(
        flags.contains(&Invariant::VclockMonotonic),
        "expected vclock-monotonic violation, got {flags:?}"
    );
}

#[test]
fn dropping_an_update_breaks_epoch_convergence() {
    let flags = coherence_flags(Mutation::DropUpdate);
    assert!(
        flags.contains(&Invariant::EpochConvergence),
        "expected epoch-convergence violation, got {flags:?}"
    );
}

#[test]
fn skipping_the_post_crash_replay_breaks_recovery_convergence() {
    let out = RecoveryScenario {
        mutation: Some(Mutation::SkipReplay),
        ..RecoveryScenario::default()
    }
    .run(TieBreak::Fifo);
    let flags: Vec<Invariant> = out.violations.iter().map(|(i, _)| *i).collect();
    assert!(
        flags.contains(&Invariant::RecoveryConvergence),
        "expected recovery-convergence violation, got {flags:?}"
    );
    assert!(!out.dumps.is_empty(), "violation must dump the flight recorder");
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

    let out = RecoveryScenario {
        mutation: Some(Mutation::RegressVclock),
        ..RecoveryScenario::coherence()
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
    let chan = explore("channel", 8, |p| ChannelScenario::default().run(p));
    assert!(chan.clean(), "channel violations: {:?}", chan.violations);
    assert!(chan.distinct_schedules >= 4, "only {} distinct", chan.distinct_schedules);

    let coh = explore("coherence", 8, |p| RecoveryScenario::coherence().run(p));
    assert!(coh.clean(), "coherence violations: {:?}", coh.violations);
    assert!(coh.distinct_schedules >= 4, "only {} distinct", coh.distinct_schedules);
}

#[test]
fn acceptance_sweep_explores_at_least_100_distinct_schedules() {
    // The ISSUE acceptance gate, run in-tree: 128 policies must yield at
    // least 100 distinct schedules per scenario with all invariants green.
    let chan = explore("channel", 128, |p| ChannelScenario::default().run(p));
    assert!(chan.clean(), "channel violations: {:?}", chan.violations);
    assert!(
        chan.distinct_schedules >= 100,
        "channel: only {} distinct schedules",
        chan.distinct_schedules
    );

    let coh = explore("coherence", 128, |p| RecoveryScenario::coherence().run(p));
    assert!(coh.clean(), "coherence violations: {:?}", coh.violations);
    assert!(
        coh.distinct_schedules >= 100,
        "coherence: only {} distinct schedules",
        coh.distinct_schedules
    );
}
