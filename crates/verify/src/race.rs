//! The random schedule sweep over `slash-desim` choice vectors.
//!
//! The simulator's physics fix *when* every event happens; the only degree
//! of freedom a real machine would add is the order among events that land
//! on the same nanosecond. [`slash_desim::Sim::with_schedule`] names that
//! order with a choice vector, and this module sweeps a scenario across
//! many of them — FIFO, then seeded uniform vectors — checking the protocol
//! invariants under every explored schedule and counting how many
//! *distinct* schedules (by [`slash_desim::Sim::schedule_fingerprint`]) the
//! sweep actually covered. A violation carries the choices its run made,
//! the same currency the exhaustive explorer and its minimizer use.

use std::collections::HashSet;

use slash_desim::DetRng;

use crate::explorer::ScheduleRun;

/// What the race checker judges under every schedule. The per-event
/// protocol invariants are not among them: the shipped code checks those
/// itself and counts a failure ([`slash_net::Violations`]); the checker
/// requires the count to be zero and judges outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// Every message of a channel arrived by quiescence, then EOS.
    StreamComplete,
    /// Credits converged at quiescence: `acked == consumer.next_seq ==
    /// producer.next_seq`, none held unreturned.
    CreditConservation,
    /// A check in the shipped code counted a protocol violation: FIFO by
    /// footer sequence, the credit window, epoch order and partition id,
    /// monotone watermarks, split-ledger agreement.
    Protocol,
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
            Invariant::StreamComplete => "stream-complete",
            Invariant::CreditConservation => "credit-conservation",
            Invariant::Protocol => "protocol-violation",
            Invariant::EpochConvergence => "epoch-convergence",
            Invariant::RecoveryConvergence => "recovery-convergence",
        }
    }
}

/// One invariant violation observed under a specific schedule.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant failed.
    pub invariant: Invariant,
    /// The choices the failing run made, one per tie point (its recorded
    /// [`slash_desim::ChoicePoint::chosen`] indices, or its input vector
    /// when a panic lost the trace): replayed through `Sim::with_schedule`,
    /// they reproduce the run. Empty for a verdict on a whole sweep rather
    /// than on one run.
    pub schedule: Vec<u32>,
    /// What exactly went wrong.
    pub detail: String,
}

/// The result of one scenario run under one schedule.
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

/// Aggregated result of sweeping a scenario across schedules.
#[derive(Debug)]
pub struct Exploration {
    /// Scenario name.
    pub scenario: &'static str,
    /// Schedules run.
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
                "  [{}] {}\n    replay schedule: {:?}\n",
                v.invariant.name(),
                v.detail,
                v.schedule
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

/// Choices each seeded sweep run draws: 7x the 146 tie points of the
/// longest run `slash-race --seeds 128` meets today (`cascade-x3`).
pub const SWEEP_CHOICES: usize = 1024;

/// The sweep's `n` choice vectors: run 0 is the empty vector (FIFO), run
/// *i* draws [`SWEEP_CHOICES`] uniform choices from `DetRng::new(i)` —
/// taken `% tie-set size` by the simulator, an unbiased random schedule.
pub fn schedules(n: u64) -> impl Iterator<Item = Vec<u32>> {
    (0..n).map(|i| {
        let mut rng = DetRng::new(i);
        let len = if i == 0 { 0 } else { SWEEP_CHOICES };
        (0..len).map(|_| rng.next_u64() as u32).collect()
    })
}

/// Sweep `run` across `schedules(n)` and aggregate; `run` gets the run
/// index and its choice vector. A seeded run that meets more tie points
/// than its vector has choices panics rather than silently finish FIFO.
pub fn explore(
    scenario: &'static str,
    n: u64,
    mut run: impl FnMut(usize, &[u32]) -> ScheduleRun,
) -> Exploration {
    let mut fingerprints = HashSet::new();
    let mut violations = Vec::new();
    let mut dumps = Vec::new();
    for (i, choices) in schedules(n).enumerate() {
        let ScheduleRun { outcome, trace } = run(i, &choices);
        let (ties, len) = (trace.len(), choices.len());
        assert!(
            len == 0 || ties <= len,
            "{scenario}: run {i} met {ties} ties, > {len} choices"
        );
        fingerprints.insert(outcome.fingerprint);
        // A driver panic loses the trace; the input vector replays as well.
        let schedule: Vec<u32> = match trace.is_empty() {
            true => choices.clone(),
            false => trace.iter().map(|c| c.chosen).collect(),
        };
        for (invariant, detail) in outcome.violations {
            violations.push(Violation {
                invariant,
                schedule: schedule.clone(),
                detail,
            });
        }
        dumps.extend(outcome.dumps);
    }
    Exploration {
        scenario,
        schedules_run: n as usize,
        distinct_schedules: fingerprints.len(),
        violations,
        dumps,
    }
}

#[cfg(test)]
mod tests {
    use slash_desim::{ChoicePoint, SimTime};

    use super::*;

    /// A run that met `ties` tie points and chose index 1 at each.
    fn run_with(fingerprint: u64, ties: usize, violated: bool) -> ScheduleRun {
        let point = ChoicePoint {
            at: SimTime::ZERO,
            enabled: Vec::new(),
            chosen: 1,
            digest: 0,
        };
        ScheduleRun {
            outcome: Outcome {
                fingerprint,
                violations: match violated {
                    true => vec![(Invariant::StreamComplete, "x".into())],
                    false => vec![],
                },
                dumps: match violated {
                    true => vec!["dump".into()],
                    false => vec![],
                },
            },
            trace: vec![point; ties],
        }
    }

    #[test]
    fn schedules_start_fifo_then_draw_seeded_vectors() {
        let a: Vec<Vec<u32>> = schedules(10).collect();
        assert_eq!(a.len(), 10);
        assert!(a[0].is_empty(), "run 0 is FIFO");
        assert!(a[1..].iter().all(|v| v.len() == SWEEP_CHOICES));
        assert_ne!(a[1], a[2]);
        assert_eq!(a, schedules(10).collect::<Vec<_>>(), "reproducible");
    }

    #[test]
    fn explore_aggregates_fingerprints_and_violations() {
        let e = explore("t", 8, |i, _| run_with(1 + i as u64 % 4, 3, i == 1));
        assert_eq!(e.schedules_run, 8);
        assert_eq!(e.distinct_schedules, 4);
        assert_eq!(e.violations.len(), 1);
        assert_eq!(e.violations[0].schedule, vec![1, 1, 1]);
        assert_eq!(e.dumps.len(), 1);
        assert!(!e.clean());
        let text = e.render_human();
        assert!(text.contains("replay schedule: [1, 1, 1]") && text.contains("dump"));
    }

    #[test]
    #[should_panic(expected = "met 1025 ties, > 1024 choices")]
    fn a_seeded_run_longer_than_its_vector_fails_loudly() {
        explore("t", 2, |_, _| run_with(0, SWEEP_CHOICES + 1, false));
    }
}
