//! Integration tests for the bounded exhaustive model checker: literal
//! full enumeration of the 2-node FIFO/credit scenario, planted-mutant
//! detection with minimized counterexamples, and honest truncation
//! reporting on spaces that exceed the budget.

use slash_verify::explorer::Budget;
use slash_verify::scenarios::{ChannelScenario, Mutation, RecoveryScenario, Scenario};

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
fn exhaustive_catches_skipped_credit_ack_and_minimizes() {
    let s = ChannelScenario {
        mutation: Some(Mutation::SkipCreditReturn),
        ..ChannelScenario::small()
    };
    let rep = s.exhaustive("channel-small (skip-credit-return)", Budget::default(), true);
    assert!(!rep.clean(), "planted mutant must be caught");
    for ce in &rep.counterexamples {
        assert!(
            ce.minimized.len() < ce.first_schedule.len(),
            "minimized repro {:?} must be shorter than the first exposing \
             schedule ({} choices)",
            ce.minimized,
            ce.first_schedule.len()
        );
        // The minimized schedule must actually reproduce the violation.
        let (out, _) = s.run_schedule(&ce.minimized);
        assert!(
            out.violations.iter().any(|(i, _)| *i == ce.invariant),
            "minimized schedule {:?} does not reproduce {}",
            ce.minimized,
            ce.invariant.name()
        );
        assert!(!ce.dumps.is_empty(), "flight recorder must dump on the repro");
    }
}

#[test]
fn exhaustive_catches_same_qp_reorder_and_minimizes() {
    let s = ChannelScenario {
        mutation: Some(Mutation::ReorderDelivered),
        ..ChannelScenario::small()
    };
    let rep = s.exhaustive("channel-small (reorder-delivered)", Budget::default(), true);
    assert!(!rep.clean(), "planted same-QP reorder must be caught");
    for ce in &rep.counterexamples {
        assert!(
            ce.minimized.len() < ce.first_schedule.len(),
            "minimized repro {:?} vs first {} choices",
            ce.minimized,
            ce.first_schedule.len()
        );
        let (out, _) = s.run_schedule(&ce.minimized);
        assert!(out.violations.iter().any(|(i, _)| *i == ce.invariant));
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
fn recovery_small_completes_via_state_dedup() {
    // The literal schedule space of the 2-node crash-recovery scenario is
    // ~2^34 (34 binary branch points), far past any budget — but the
    // state-digest dedup recognizes that the tick interleavings converge,
    // and the explorer drains the reduced frontier completely.
    let rep = RecoveryScenario::small().exhaustive("recovery-small", Budget::default(), false);
    assert!(rep.clean(), "{}", rep.render_human());
    assert!(rep.coverage.complete(), "{}", rep.render_human());
    assert!(rep.coverage.pruned_dedup > 0);
}

#[test]
fn recovery_small_truncates_honestly_without_dedup() {
    // Same scenario, dedup off, tight budget: the explorer must report
    // the truncated frontier rather than claim completeness.
    let rep = RecoveryScenario::small().exhaustive(
        "recovery-small-literal",
        Budget {
            max_states: 64,
            max_schedules: 64,
            state_dedup: false,
            ..Budget::default()
        },
        false,
    );
    assert!(rep.clean(), "{}", rep.render_human());
    assert!(
        rep.coverage.frontier_truncated,
        "expected budget truncation, got: {}",
        rep.render_human()
    );
    assert!(!rep.coverage.complete());
}
