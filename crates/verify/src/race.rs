//! Bounded schedule exploration (DPOR-lite) over `slash-desim` tie-breaks.
//!
//! The simulator's physics fix *when* every event happens; the only degree
//! of freedom a real machine would add is the order among events that land
//! on the same nanosecond. [`slash_desim::TieBreak`] makes that order
//! pluggable, and this module sweeps a scenario across many policies —
//! FIFO, LIFO, and a range of seeded pseudo-random permutations — checking
//! the protocol invariants under every explored schedule and counting how
//! many *distinct* schedules (by [`slash_desim::Sim::schedule_fingerprint`])
//! the sweep actually covered.

use std::collections::HashSet;

use slash_desim::TieBreak;

/// The protocol invariants the race checker asserts under every schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// Messages on a channel arrive in send order, exactly once, and the
    /// stream completes (all payloads then EOS).
    Fifo,
    /// Credit accounting: `acked ≤ consumer.next_seq ≤ producer.next_seq`
    /// at every step, and all three converge at quiescence.
    CreditConservation,
    /// The producer never reuses a ring slot before its previous occupant
    /// was consumed and acknowledged (`producer.next_seq - acked ≤ c`),
    /// and no payload is ever observed corrupted.
    NoOverwrite,
    /// Every node's vector clock only ever advances.
    VclockMonotonic,
    /// At quiescence, every leader's merged state equals the sequential
    /// oracle and all vector clocks agree on the final watermark.
    EpochConvergence,
    /// After an injected fault and its recovery (channel reset + replay,
    /// or snapshot restore + replay), the cluster converges to exactly
    /// the no-fault state: same oracle counts, no epoch applied twice.
    RecoveryConvergence,
}

impl Invariant {
    /// Stable kebab-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Invariant::Fifo => "fifo-delivery",
            Invariant::CreditConservation => "credit-conservation",
            Invariant::NoOverwrite => "no-slot-overwrite",
            Invariant::VclockMonotonic => "vclock-monotonic",
            Invariant::EpochConvergence => "epoch-convergence",
            Invariant::RecoveryConvergence => "recovery-convergence",
        }
    }
}

/// One invariant violation observed under a specific schedule policy.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant failed.
    pub invariant: Invariant,
    /// The tie-break policy under which it failed.
    pub policy: TieBreak,
    /// What exactly went wrong.
    pub detail: String,
}

/// The result of one scenario run under one policy.
#[derive(Debug)]
pub struct Outcome {
    /// Schedule fingerprint of the run (see `Sim::schedule_fingerprint`).
    pub fingerprint: u64,
    /// Invariant violations observed during the run.
    pub violations: Vec<(Invariant, String)>,
    /// Rendered flight-recorder dumps (one per violation): the last trace
    /// events leading up to the failure, with schedule-fingerprint and
    /// vector-clock context.
    pub dumps: Vec<String>,
}

/// Aggregated result of sweeping a scenario across policies.
#[derive(Debug)]
pub struct Exploration {
    /// Scenario name.
    pub scenario: &'static str,
    /// Policies run.
    pub schedules_run: usize,
    /// Distinct schedules actually explored (by fingerprint).
    pub distinct_schedules: usize,
    /// All violations across the sweep.
    pub violations: Vec<Violation>,
    /// Flight-recorder dumps collected across the sweep.
    pub dumps: Vec<String>,
}

impl Exploration {
    /// Whether every explored schedule upheld every invariant.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable summary (one line plus any violations).
    pub fn render_human(&self) -> String {
        let mut out = format!(
            "{}: {} schedules run, {} distinct — {}\n",
            self.scenario,
            self.schedules_run,
            self.distinct_schedules,
            if self.clean() {
                "all invariants hold"
            } else {
                "VIOLATIONS"
            }
        );
        for v in self.violations.iter().take(16) {
            out.push_str(&format!(
                "  [{}] under {:?}: {}\n",
                v.invariant.name(),
                v.policy,
                v.detail
            ));
        }
        if self.violations.len() > 16 {
            out.push_str(&format!("  … and {} more\n", self.violations.len() - 16));
        }
        for dump in self.dumps.iter().take(4) {
            out.push_str(dump);
            if !dump.ends_with('\n') {
                out.push('\n');
            }
        }
        if self.dumps.len() > 4 {
            out.push_str(&format!(
                "  … and {} more flight-recorder dump(s) suppressed\n",
                self.dumps.len() - 4
            ));
        }
        out
    }
}

/// The policy sweep for `n` total schedules: FIFO, LIFO, then seeded
/// permutations. FIFO and LIFO are the two deterministic extremes; the
/// seeds fill in the space between them.
pub fn policies(n: u64) -> Vec<TieBreak> {
    let mut v = vec![TieBreak::Fifo, TieBreak::Lifo];
    v.extend((0..n.saturating_sub(2)).map(TieBreak::Seeded));
    v.truncate(n.max(1) as usize);
    v
}

/// Sweep `run` across `policies(n)` and aggregate.
pub fn explore(
    scenario: &'static str,
    n: u64,
    mut run: impl FnMut(TieBreak) -> Outcome,
) -> Exploration {
    let mut fingerprints = HashSet::new();
    let mut violations = Vec::new();
    let mut dumps = Vec::new();
    let ps = policies(n);
    for &policy in &ps {
        let outcome = run(policy);
        fingerprints.insert(outcome.fingerprint);
        for (invariant, detail) in outcome.violations {
            violations.push(Violation {
                invariant,
                policy,
                detail,
            });
        }
        dumps.extend(outcome.dumps);
    }
    Exploration {
        scenario,
        schedules_run: ps.len(),
        distinct_schedules: fingerprints.len(),
        violations,
        dumps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_sweep_has_requested_size_and_extremes() {
        let ps = policies(10);
        assert_eq!(ps.len(), 10);
        assert_eq!(ps[0], TieBreak::Fifo);
        assert_eq!(ps[1], TieBreak::Lifo);
        assert!(ps[2..].iter().all(|p| matches!(p, TieBreak::Seeded(_))));
        assert_eq!(policies(1).len(), 1);
    }

    #[test]
    fn explore_aggregates_fingerprints_and_violations() {
        let e = explore("t", 8, |p| Outcome {
            fingerprint: match p {
                TieBreak::Fifo => 1,
                TieBreak::Lifo => 2,
                TieBreak::Seeded(s) => 3 + (s % 2),
            },
            violations: if p == TieBreak::Lifo {
                vec![(Invariant::Fifo, "x".into())]
            } else {
                vec![]
            },
            dumps: if p == TieBreak::Lifo {
                vec!["dump".into()]
            } else {
                vec![]
            },
        });
        assert_eq!(e.schedules_run, 8);
        assert_eq!(e.distinct_schedules, 4);
        assert_eq!(e.violations.len(), 1);
        assert_eq!(e.dumps.len(), 1);
        assert!(!e.clean());
        assert!(e.render_human().contains("dump"));
    }
}
