//! Integration tests for the bounded exhaustive model checker: literal
//! full enumeration of the 2-node FIFO/credit scenario and of a 2-node
//! crash on the shipped driver at every fault instant, planted-mutant
//! detection with minimized counterexamples, and honest truncation
//! reporting on spaces that exceed the budget.

use slash_verify::catalogue::{case, Case, Size};
use slash_verify::explorer::Budget;
use slash_verify::race::Invariant;
use slash_verify::scenarios::{ChannelScenario, CoherenceScenario, Mutation, Scenario};

const LITERAL: Budget = Budget {
    max_states: 4096,
    max_schedules: 4096,
    max_depth: 256,
    state_dedup: false,
};

#[test]
fn small_channel_is_literally_fully_enumerated() {
    // Dedup off: the gate claims every distinct schedule was *run*, not
    // merely proven redundant at a converged state.
    let budget = Budget {
        state_dedup: false,
        ..Budget::default()
    };
    let rep = ChannelScenario::small().exhaustive("channel-small", budget, false);
    assert!(rep.clean(), "{}", rep.render_human());
    let c = &rep.coverage;
    assert!(c.complete(), "must drain the frontier: {}", rep.render_human());
    assert!(
        c.literal_full_enumeration(),
        "every distinct schedule must be run exactly once: {}",
        rep.render_human()
    );
    // The space is genuinely explored, not degenerate: the seed run alone
    // would be 1 schedule.
    assert!(
        c.schedules_enumerated > 1,
        "expected a branching space, got {}",
        c.schedules_enumerated
    );
    assert_eq!(c.schedules_enumerated, c.distinct_fingerprints);
}

#[test]
fn small_channel_dedup_prunes_converged_states_soundly() {
    // With the state-digest dedup on, provably-converged prefixes are
    // pruned: fewer runs, same verdict, frontier still drained.
    let with_dedup = ChannelScenario::small().exhaustive("dedup-on", Budget::default(), false);
    let without = ChannelScenario::small().exhaustive(
        "dedup-off",
        Budget {
            state_dedup: false,
            ..Budget::default()
        },
        false,
    );
    assert!(with_dedup.clean() && without.clean());
    assert!(with_dedup.coverage.complete());
    assert!(with_dedup.coverage.pruned_dedup > 0);
    assert!(
        with_dedup.coverage.schedules_enumerated < without.coverage.schedules_enumerated,
        "dedup must save runs: {} vs {}",
        with_dedup.coverage.schedules_enumerated,
        without.coverage.schedules_enumerated
    );
}

#[test]
fn exhaustive_catches_channel_mutants_and_minimizes() {
    for m in [Mutation::SkipCreditReturn, Mutation::ReorderDelivered] {
        let s = ChannelScenario {
            mutation: Some(m),
            ..ChannelScenario::small()
        };
        let rep = s.exhaustive("channel-small (mutated)", Budget::default(), true);
        assert!(!rep.clean(), "planted {m:?} must be caught");
        for ce in &rep.counterexamples {
            assert!(
                ce.minimized.len() < ce.first_schedule.len(),
                "{m:?}: minimized repro {:?} must be shorter than the first \
                 exposing schedule ({} choices)",
                ce.minimized,
                ce.first_schedule.len()
            );
            // The minimized schedule must actually reproduce the violation.
            let (out, _) = s.run_schedule(&ce.minimized);
            assert!(
                out.violations.iter().any(|(i, _)| *i == ce.invariant),
                "{m:?}: minimized schedule {:?} does not reproduce {}",
                ce.minimized,
                ce.invariant.name()
            );
            assert!(!ce.dumps.is_empty(), "flight recorder must dump on the repro");
        }
    }
}

#[test]
fn exhaustive_finds_everything_the_random_sweep_finds() {
    // Every mutant the random 8-policy sweep exposes on the small config
    // must also fall to the exhaustive explorer.
    for m in [Mutation::SkipCreditReturn, Mutation::ReorderDelivered] {
        let s = ChannelScenario {
            mutation: Some(m),
            ..ChannelScenario::small()
        };
        let sweep = slash_verify::race::explore("sweep", 8, |p| s.run(p));
        let ex = s.exhaustive("exhaustive", Budget::default(), false);
        let sweep_invs: std::collections::BTreeSet<&str> =
            sweep.violations.iter().map(|v| v.invariant.name()).collect();
        let ex_invs: std::collections::BTreeSet<&str> = ex
            .counterexamples
            .iter()
            .map(|c| c.invariant.name())
            .collect();
        assert!(
            sweep_invs.is_subset(&ex_invs),
            "{m:?}: sweep found {sweep_invs:?} but exhaustive only {ex_invs:?}"
        );
    }
}

#[test]
fn coherence_completes_via_state_dedup_and_truncates_honestly_without() {
    // Three actors tie on every one of 26 ticks: the literal space is far
    // past any budget, but the state-digest dedup recognizes that the tick
    // interleavings converge and the explorer drains the reduced frontier.
    let s = CoherenceScenario { nodes: 2, mutation: None };
    let rep = s.exhaustive("coherence-small", Budget::default(), false);
    assert!(rep.clean(), "{}", rep.render_human());
    assert!(rep.coverage.complete(), "{}", rep.render_human());
    assert!(rep.coverage.pruned_dedup > 0);
    // Dedup off, tight budget: the truncated frontier must be reported
    // rather than completeness claimed.
    let tight = Budget { max_states: 64, max_schedules: 64, ..LITERAL };
    let rep = s.exhaustive("coherence-small-literal", tight, false);
    assert!(rep.clean(), "{}", rep.render_human());
    assert!(rep.coverage.frontier_truncated, "{}", rep.render_human());
    assert!(!rep.coverage.complete());
}

#[test]
fn a_small_crash_on_the_shipped_driver_is_literally_enumerated_at_every_instant() {
    // `recovery-small` at a fifth of its input (CI enumerates the full row
    // in release): every tie schedule at every event instant of the
    // fault-free run is run — none pruned, none twice, frontier drained.
    let row = case("recovery-small").expect("catalogue row");
    let c = Case { size: Size { records: 80, ..row.size }, ..row };
    let probe = c.probe();
    let (rep, tally) = c.exhaustive(&probe, LITERAL, false, None);
    assert!(rep.clean(), "{}", rep.render_human());
    assert!(rep.coverage.literal_full_enumeration(), "{}", rep.render_human());
    assert_eq!(tally.instants.len(), probe.instants.len(), "every instant visited");
    assert!(
        rep.coverage.schedules_enumerated >= 4 * tally.instants.len(),
        "the crash ties with the event it lands on, both orders run: {}",
        rep.render_human()
    );
    assert!(tally.required.len() * 2 > tally.instants.len());
}

#[test]
fn bugs_planted_in_the_shipped_machines_fall_to_the_explorer_minimized() {
    for (name, m) in [
        ("recovery-small", Mutation::SkipReplay),
        ("rescale-small", Mutation::SkipCutoverClose),
    ] {
        let c = case(name).expect("catalogue row");
        let probe = c.probe();
        let (rep, tally) = c.exhaustive(&probe, LITERAL, true, m.plant());
        assert!(!rep.clean(), "{m:?} on {name} must be caught");
        // The earliest exposing instant: every earlier one was enumerated
        // clean, and the all-FIFO run at this one already fails.
        let at = tally.exposed_at.expect("an exposing instant");
        let first_bad = probe
            .instants
            .iter()
            .find(|&&t| !c.replay(&probe, t, &[], m.plant()).violations.is_empty());
        assert_eq!(Some(&at), first_bad, "{name}: not the earliest exposing instant");
        for ce in &rep.counterexamples {
            assert_eq!(ce.invariant, Invariant::RecoveryConvergence);
            assert!(
                ce.minimized.len() < ce.first_schedule.len(),
                "minimized repro {:?} vs first {} choices",
                ce.minimized,
                ce.first_schedule.len()
            );
            let replay = c.replay(&probe, at, &ce.minimized, m.plant());
            assert!(replay.violations.iter().any(|(i, _)| *i == ce.invariant));
            assert!(ce.dumps.iter().any(|d| d.contains("registry snapshot")), "{:?}", ce.dumps);
        }
    }
}
