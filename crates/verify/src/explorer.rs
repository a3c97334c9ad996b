//! Bounded exhaustive schedule exploration: a DFS model checker over the
//! simulator's same-instant choice points.
//!
//! Where [`crate::race`] *samples* the schedule space (FIFO, then seeded
//! choice vectors), this module *enumerates* it. `slash-desim`'s explore mode
//! ([`slash_desim::Sim::with_schedule`]) turns a run into a replayable
//! sequence of branch decisions — at every virtual instant where two or
//! more events tie, the next entry of the choice vector picks which fires.
//! The explorer performs an iterative depth-first search over those choice
//! vectors: each leaf is one complete scenario run, each internal node one
//! branch point, and backtracking is just re-running the scenario with a
//! different prefix (one run per leaf; the simulator is cheap and exactly
//! reproducible, so re-execution replaces state snapshotting).
//!
//! Two reductions bound the tree without losing bugs:
//!
//! - **Sleep sets** (Godefroid): after exploring alternative `a` at a
//!   branch point, sibling subtrees need not re-explore orders that only
//!   differ by commuting `a` across *independent* events. Independence is
//!   the conservative relation of [`EventLabel::independent`]: only
//!   deliveries on channels with disjoint endpoint node sets commute;
//!   anything touching shared state is dependent and always explored both
//!   ways. Sleep sets are reset at instant boundaries (propagating them
//!   further would require labeling every singleton event too); resets
//!   only *weaken* pruning, never soundness.
//! - **State-digest deduplication**: scenarios install a state-digest hook
//!   ([`slash_desim::Sim::set_state_digest`]); a branch point whose
//!   (instant, digest, enabled-label-set) was already expanded under an
//!   equal-or-smaller sleep set is pruned — two converged prefixes have
//!   identical futures. Dedup is only active when the scenario provides a
//!   digest, and the completeness gate (`pruned == 0`) is only claimed on
//!   runs where both reductions stayed idle.
//!
//! On violation the failing choice vector is greedily **minimized** to a
//! shortest reproducing schedule: a one-line repro instead of a seed.

use std::collections::{HashMap, HashSet};

use slash_desim::{ChoicePoint, EventLabel};

use crate::race::{Invariant, Outcome};

/// Result of one complete scenario run under an explicit choice schedule.
pub struct ScheduleRun {
    /// Invariant verdicts and fingerprint of the run.
    pub outcome: Outcome,
    /// The recorded branch-point trace (see [`ChoicePoint`]).
    pub trace: Vec<ChoicePoint>,
}

/// Exploration budget. Exceeding any bound sets
/// [`Coverage::frontier_truncated`] and stops the search; the caller is
/// expected to fall back to the random sweep for the rest of the space.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Maximum distinct branch-point states expanded (DFS frame pushes).
    pub max_states: usize,
    /// Maximum complete schedules run (leaves enumerated).
    pub max_schedules: usize,
    /// Maximum branch depth frames are created at.
    pub max_depth: usize,
    /// Enable state-digest deduplication. On by default; the literal
    /// full-enumeration gate turns it off so every distinct schedule is
    /// actually run rather than pruned at a provably-converged state.
    pub state_dedup: bool,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_states: 4096,
            max_schedules: 4096,
            max_depth: 256,
            state_dedup: true,
        }
    }
}

/// Coverage accounting of one exhaustive exploration.
#[derive(Debug, Clone, Default)]
pub struct Coverage {
    /// Complete schedules enumerated (leaves run, excluding minimization
    /// replays).
    pub schedules_enumerated: usize,
    /// Distinct schedule fingerprints among the enumerated runs. Equal to
    /// `schedules_enumerated` when the DFS did no redundant work.
    pub distinct_fingerprints: usize,
    /// Branch-point states expanded (frames pushed).
    pub states_expanded: usize,
    /// Alternatives skipped by sleep-set reduction.
    pub pruned_sleep: usize,
    /// Branch points skipped because an equal state was already expanded.
    pub pruned_dedup: usize,
    /// Deepest branch point seen.
    pub max_depth_seen: usize,
    /// Extra runs spent minimizing counterexamples.
    pub minimization_runs: usize,
    /// The search stopped on a budget bound before draining the frontier.
    pub frontier_truncated: bool,
}

impl Coverage {
    /// Add another exploration's accounting to this one. The explorations
    /// must cover disjoint spaces (the same case at different fault
    /// instants), so their distinct-fingerprint counts add up too.
    pub fn absorb(&mut self, other: &Coverage) {
        self.schedules_enumerated += other.schedules_enumerated;
        self.distinct_fingerprints += other.distinct_fingerprints;
        self.states_expanded += other.states_expanded;
        self.pruned_sleep += other.pruned_sleep;
        self.pruned_dedup += other.pruned_dedup;
        self.max_depth_seen = self.max_depth_seen.max(other.max_depth_seen);
        self.minimization_runs += other.minimization_runs;
        self.frontier_truncated |= other.frontier_truncated;
    }

    /// Whether every schedule in the space was either enumerated or pruned
    /// by a sound reduction.
    pub fn complete(&self) -> bool {
        !self.frontier_truncated
    }

    /// Whether the enumeration was *literal*: every distinct schedule was
    /// actually run — nothing truncated, nothing pruned, no duplicates.
    /// This is the strongest claim, and the gate the 2-node FIFO scenario
    /// must pass.
    pub fn literal_full_enumeration(&self) -> bool {
        self.complete()
            && self.pruned_sleep == 0
            && self.pruned_dedup == 0
            && self.schedules_enumerated == self.distinct_fingerprints
    }
}

/// A violation found by the explorer, with its reproducing schedules.
#[derive(Debug, Clone)]
pub struct CounterExample {
    /// Which invariant failed.
    pub invariant: Invariant,
    /// What exactly went wrong.
    pub detail: String,
    /// The full choice sequence of the run that first exposed it.
    pub first_schedule: Vec<u32>,
    /// The greedily-minimized reproducing choice sequence (trailing FIFO
    /// defaults stripped; never longer than `first_schedule`).
    pub minimized: Vec<u32>,
    /// Flight-recorder dumps captured on the minimized run (or the first
    /// exposing run if minimization was disabled).
    pub dumps: Vec<String>,
}

/// Aggregated result of one exhaustive exploration.
#[derive(Debug)]
pub struct ExhaustiveReport {
    /// Scenario name.
    pub scenario: &'static str,
    /// Coverage accounting.
    pub coverage: Coverage,
    /// Distinct violations found, each with a minimized repro schedule.
    pub counterexamples: Vec<CounterExample>,
}

impl ExhaustiveReport {
    /// Whether every explored schedule upheld every invariant.
    pub fn clean(&self) -> bool {
        self.counterexamples.is_empty()
    }

    /// Human-readable summary.
    pub fn render_human(&self) -> String {
        let c = &self.coverage;
        let mut out = format!(
            "{}: {} schedules enumerated ({} distinct), {} states expanded, \
             pruned {} sleep / {} dedup, depth ≤ {}{} — {}\n",
            self.scenario,
            c.schedules_enumerated,
            c.distinct_fingerprints,
            c.states_expanded,
            c.pruned_sleep,
            c.pruned_dedup,
            c.max_depth_seen,
            if c.frontier_truncated {
                " [frontier TRUNCATED at budget]"
            } else {
                " [complete]"
            },
            if self.clean() {
                "all invariants hold"
            } else {
                "VIOLATIONS"
            }
        );
        for ce in self.counterexamples.iter().take(8) {
            out.push_str(&format!(
                "  [{}] {}\n    first exposed by {} choices; minimized repro: {:?}\n",
                ce.invariant.name(),
                ce.detail,
                ce.first_schedule.len(),
                ce.minimized,
            ));
        }
        if self.counterexamples.len() > 8 {
            out.push_str(&format!(
                "  … and {} more counterexample(s)\n",
                self.counterexamples.len() - 8
            ));
        }
        out
    }
}

/// A DFS frame: one branch point reached under `prefix`, with the
/// alternatives still to explore. Event identities (`seq`) are stable for a
/// fixed prefix — the simulator is deterministic — so sleep entries recorded
/// from one run remain valid when siblings re-execute the same prefix.
struct Frame {
    prefix: Vec<u32>,
    at_ns: u64,
    enabled: Vec<(u64, EventLabel)>,
    next_alt: usize,
    /// Alternative indices already explored at this frame (first the one
    /// the discovering run chose, then every sibling the DFS finished).
    done: Vec<usize>,
    /// Slept events: exploring them here would only commute already
    /// explored independent events.
    sleep: Vec<(u64, EventLabel)>,
}

/// Sleep set a child inherits after firing `chosen` at a frame with
/// `sleep ∪ done_events`: only entries independent of the fired event
/// survive, and nothing survives an instant boundary.
fn child_sleep(
    sleep: &[(u64, EventLabel)],
    done_events: &[(u64, EventLabel)],
    chosen: EventLabel,
    parent_at: u64,
    child_at: u64,
) -> Vec<(u64, EventLabel)> {
    if child_at != parent_at {
        return Vec::new();
    }
    sleep
        .iter()
        .chain(done_events.iter())
        .filter(|(_, l)| l.independent(chosen))
        .cloned()
        .collect()
}

/// Dedup signature of a branch-point state: virtual instant, scenario
/// digest, and the multiset of enabled labels. Only meaningful when the
/// scenario installed a digest hook (digest ≠ 0).
fn state_key(cp: &ChoicePoint) -> u64 {
    let mut labels: Vec<u64> = cp.enabled.iter().map(|e| e.label.raw()).collect();
    labels.sort_unstable();
    let mut h = crate::scenarios::fold_digest(cp.at.as_nanos(), cp.digest);
    for l in labels {
        h = crate::scenarios::fold_digest(h, l);
    }
    crate::scenarios::fold_digest(h, cp.enabled.len() as u64)
}

/// Sorted label multiset of a sleep set, for the subset check stored dedup
/// entries are compared with.
fn sleep_sig(sleep: &[(u64, EventLabel)]) -> Vec<u64> {
    let mut v: Vec<u64> = sleep.iter().map(|(_, l)| l.raw()).collect();
    v.sort_unstable();
    v
}

/// Multiset inclusion over sorted vectors.
fn subset_of(small: &[u64], big: &[u64]) -> bool {
    let mut i = 0;
    for &x in big {
        if i < small.len() && small[i] == x {
            i += 1;
        }
    }
    i == small.len()
}

fn strip_trailing_zeros(v: &[u32]) -> Vec<u32> {
    let end = v.iter().rposition(|&c| c != 0).map_or(0, |p| p + 1);
    v[..end].to_vec()
}

/// Greedily minimize a violating choice sequence: repeatedly drop the
/// trailing choice and zero individual non-default choices, keeping every
/// shrink that still reproduces (`reproduces` must re-run the scenario and
/// check for the same violation). Terminates at a local minimum; the
/// result is never longer than the stripped input.
pub fn minimize(first: &[u32], mut reproduces: impl FnMut(&[u32]) -> bool) -> Vec<u32> {
    let mut cur = strip_trailing_zeros(first);
    loop {
        let mut changed = false;
        while !cur.is_empty() {
            let cand = strip_trailing_zeros(&cur[..cur.len() - 1]);
            if reproduces(&cand) {
                cur = cand;
                changed = true;
            } else {
                break;
            }
        }
        for i in 0..cur.len() {
            if cur[i] != 0 {
                let mut cand = cur.clone();
                cand[i] = 0;
                let cand = strip_trailing_zeros(&cand);
                if reproduces(&cand) {
                    cur = cand;
                    changed = true;
                    break; // indices shifted; restart the scan
                }
            }
        }
        if !changed {
            return cur;
        }
    }
}

/// Exhaustively explore a scenario's same-instant schedule space.
///
/// `run` executes the scenario under a choice prefix (all decisions past
/// the prefix default to FIFO) and returns the outcome plus the recorded
/// branch trace. The DFS enumerates every reachable choice vector up to
/// `budget`, pruning with sleep sets and (when digests are present) state
/// deduplication. Each distinct violation is minimized to a shortest
/// reproducing schedule when `do_minimize` is set.
pub fn explore_exhaustive(
    scenario: &'static str,
    budget: Budget,
    do_minimize: bool,
    mut run: impl FnMut(&[u32]) -> ScheduleRun,
) -> ExhaustiveReport {
    let mut cov = Coverage::default();
    let mut fps: HashSet<u64> = HashSet::new();
    let mut seen_violations: HashSet<(&'static str, String)> = HashSet::new();
    let mut counterexamples: Vec<CounterExample> = Vec::new();
    // state key → sleep-set signatures it was expanded under.
    let mut expanded: HashMap<u64, Vec<Vec<u64>>> = HashMap::new();
    let mut stack: Vec<Frame> = Vec::new();

    // Process one completed leaf: count it, collect + minimize any new
    // violations. Returns the trace for frame construction.
    let process = |prefix: &[u32],
                   sr: ScheduleRun,
                   cov: &mut Coverage,
                   fps: &mut HashSet<u64>,
                   seen: &mut HashSet<(&'static str, String)>,
                   ces: &mut Vec<CounterExample>,
                   run: &mut dyn FnMut(&[u32]) -> ScheduleRun|
     -> Vec<ChoicePoint> {
        cov.schedules_enumerated += 1;
        fps.insert(sr.outcome.fingerprint);
        cov.max_depth_seen = cov.max_depth_seen.max(sr.trace.len());
        let first_schedule: Vec<u32> = sr.trace.iter().map(|c| c.chosen).collect();
        for (invariant, detail) in &sr.outcome.violations {
            if !seen.insert((invariant.name(), detail.clone())) {
                continue;
            }
            let inv = *invariant;
            let minimized = if do_minimize {
                minimize(&first_schedule, |cand| {
                    cov.minimization_runs += 1;
                    // A shrink counts only if the same invariant fires;
                    // the detail string may legitimately differ (counters
                    // in it depend on the schedule).
                    run(cand).outcome.violations.iter().any(|(i, _)| *i == inv)
                })
            } else {
                strip_trailing_zeros(&first_schedule)
            };
            // Capture dumps from the minimized repro so the flight
            // recorder shows the shortest failing run.
            let dumps = if do_minimize {
                cov.minimization_runs += 1;
                run(&minimized).outcome.dumps
            } else {
                sr.outcome.dumps.clone()
            };
            ces.push(CounterExample {
                invariant: inv,
                detail: detail.clone(),
                first_schedule: first_schedule.clone(),
                minimized,
                dumps,
            });
        }
        // `prefix` is a true prefix of the recorded schedule by
        // construction; nothing else to reconcile.
        debug_assert!(prefix.len() <= sr.trace.len() || sr.trace.is_empty());
        sr.trace
    };

    // Create DFS frames for every branch point of a fresh run at depths
    // > from_depth, threading the sleep set down the path.
    #[expect(
        clippy::too_many_arguments,
        reason = "a helper of the DFS loop taking that loop's locals, which share no struct"
    )]
    fn push_frames(
        stack: &mut Vec<Frame>,
        trace: &[ChoicePoint],
        from_depth: usize,
        mut sleep: Vec<(u64, EventLabel)>,
        mut prev_at: Option<u64>,
        budget: &Budget,
        cov: &mut Coverage,
        expanded: &mut HashMap<u64, Vec<Vec<u64>>>,
    ) {
        for (d, cp) in trace.iter().enumerate().skip(from_depth) {
            let at = cp.at.as_nanos();
            if let Some(p) = prev_at {
                // Entering a new frame along the path: the sleep set was
                // already filtered against the previous frame's chosen
                // event by the caller / previous iteration; an instant
                // change resets it.
                if at != p {
                    sleep.clear();
                }
            }
            let enabled: Vec<(u64, EventLabel)> =
                cp.enabled.iter().map(|e| (e.seq, e.label)).collect();
            let chosen_idx = cp.chosen as usize;
            let (chosen_seq, chosen_label) = enabled[chosen_idx];
            // Dedup: prune the whole frame if this state was already
            // expanded under a sleep set no larger than ours (it explored
            // a superset of what we would).
            let mut deduped = false;
            if budget.state_dedup && cp.digest != 0 {
                let key = state_key(cp);
                let sig = sleep_sig(&sleep);
                let entry = expanded.entry(key).or_default();
                if entry.iter().any(|prev| subset_of(prev, &sig)) {
                    deduped = true;
                    cov.pruned_dedup += 1;
                } else {
                    entry.push(sig);
                }
            }
            if !deduped {
                if d >= budget.max_depth || cov.states_expanded >= budget.max_states {
                    cov.frontier_truncated = true;
                } else {
                    cov.states_expanded += 1;
                    stack.push(Frame {
                        prefix: trace[..d].iter().map(|c| c.chosen).collect(),
                        at_ns: at,
                        enabled: enabled.clone(),
                        next_alt: 0,
                        done: vec![chosen_idx],
                        sleep: sleep.clone(),
                    });
                }
            } else {
                // An equal state already explored a superset of the
                // orderings reachable from here; everything deeper on this
                // path is redundant.
                break;
            }
            if sleep.iter().any(|&(s, _)| s == chosen_seq) {
                // The run's default extension fired a slept event: the
                // rest of this path only commutes independent events of
                // already-explored runs. The frame above still exposes the
                // non-slept alternatives; walk no deeper.
                cov.pruned_sleep += 1;
                break;
            }
            // Propagate the sleep set past this frame's chosen event for
            // the next frame down the path (first exploration here, so no
            // sibling `done` events join it yet).
            sleep.retain(|(_, l)| l.independent(chosen_label));
            prev_at = Some(at);
        }
    }

    // Seed: the all-FIFO run.
    let seed = run(&[]);
    let trace = process(
        &[],
        seed,
        &mut cov,
        &mut fps,
        &mut seen_violations,
        &mut counterexamples,
        &mut run,
    );
    push_frames(
        &mut stack,
        &trace,
        0,
        Vec::new(),
        None,
        &budget,
        &mut cov,
        &mut expanded,
    );

    'dfs: while let Some(top) = stack.last() {
        // Find the next unexplored, unslept alternative of the top frame.
        let mut j = top.next_alt;
        let pick = loop {
            if j >= top.enabled.len() {
                break None;
            }
            if top.done.contains(&j) {
                j += 1;
                continue;
            }
            let seq = top.enabled[j].0;
            if top.sleep.iter().any(|&(s, _)| s == seq) {
                cov.pruned_sleep += 1;
                j += 1;
                continue;
            }
            break Some(j);
        };
        let Some(j) = pick else {
            stack.pop();
            continue;
        };
        {
            let top = stack.last_mut().expect("frame still on stack");
            top.next_alt = j + 1;
        }
        if cov.schedules_enumerated >= budget.max_schedules {
            cov.frontier_truncated = true;
            break 'dfs;
        }
        let (prefix, depth, sleep_for_child, parent_at) = {
            let top = stack.last().expect("frame still on stack");
            let mut prefix = top.prefix.clone();
            prefix.push(j as u32);
            let done_events: Vec<(u64, EventLabel)> =
                top.done.iter().map(|&d| top.enabled[d]).collect();
            let chosen_label = top.enabled[j].1;
            let sleep = child_sleep(&top.sleep, &done_events, chosen_label, top.at_ns, top.at_ns);
            (prefix, top.prefix.len(), sleep, top.at_ns)
        };
        let sr = run(&prefix);
        debug_assert!(
            sr.trace.len() > depth && sr.trace[depth].chosen as usize == j,
            "replayed run must branch where the frame says it does"
        );
        let trace = process(
            &prefix,
            sr,
            &mut cov,
            &mut fps,
            &mut seen_violations,
            &mut counterexamples,
            &mut run,
        );
        {
            let top = stack.last_mut().expect("frame still on stack");
            top.done.push(j);
        }
        push_frames(
            &mut stack,
            &trace,
            depth + 1,
            sleep_for_child,
            Some(parent_at),
            &budget,
            &mut cov,
            &mut expanded,
        );
    }
    if !stack.is_empty() {
        cov.frontier_truncated = true;
    }

    cov.distinct_fingerprints = fps.len();
    ExhaustiveReport {
        scenario,
        coverage: cov,
        counterexamples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    use slash_desim::{Sim, SimTime};

    /// Toy scenario: fire `labels` at one instant, record the order, call
    /// `violates` on it. Exercises the real desim explore mode end to end.
    fn toy(
        labels: &[EventLabel],
        choices: &[u32],
        violates: &dyn Fn(&[usize]) -> bool,
    ) -> ScheduleRun {
        let mut sim = Sim::with_schedule(choices);
        let order: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, &l) in labels.iter().enumerate() {
            let o = Rc::clone(&order);
            sim.schedule_at_labeled(SimTime::from_nanos(10), l, move |_| {
                o.borrow_mut().push(i);
            });
        }
        sim.run();
        let fired = order.borrow().clone();
        let violations = if violates(&fired) {
            vec![(Invariant::StreamComplete, "planted".to_string())]
        } else {
            Vec::new()
        };
        ScheduleRun {
            outcome: Outcome {
                fingerprint: sim.schedule_fingerprint(),
                violations,
                dumps: Vec::new(),
            },
            trace: sim.take_choice_trace(),
        }
    }

    #[test]
    fn dependent_events_enumerate_all_permutations() {
        // Three node-labeled (mutually dependent) events: the full 3! = 6
        // interleavings, each a distinct fingerprint, nothing pruned.
        let labels = [
            EventLabel::node(0),
            EventLabel::node(1),
            EventLabel::node(2),
        ];
        let rep = explore_exhaustive("toy-dep", Budget::default(), false, |c| {
            toy(&labels, c, &|_| false)
        });
        assert_eq!(rep.coverage.schedules_enumerated, 6);
        assert_eq!(rep.coverage.distinct_fingerprints, 6);
        assert_eq!(rep.coverage.pruned_sleep, 0);
        assert_eq!(rep.coverage.pruned_dedup, 0);
        assert!(rep.coverage.literal_full_enumeration());
        assert!(rep.clean());
    }

    #[test]
    fn sleep_sets_prune_commuting_orders() {
        // Three mutually independent channel deliveries (disjoint
        // endpoints): sleep sets skip part of the 6-leaf space.
        let labels = [
            EventLabel::channel(0, 1),
            EventLabel::channel(2, 3),
            EventLabel::channel(4, 5),
        ];
        let rep = explore_exhaustive("toy-indep", Budget::default(), false, |c| {
            toy(&labels, c, &|_| false)
        });
        assert!(rep.coverage.complete());
        assert!(
            rep.coverage.schedules_enumerated < 6,
            "sleep sets must prune some of the 6 interleavings, got {}",
            rep.coverage.schedules_enumerated
        );
        assert!(rep.coverage.pruned_sleep > 0);
        assert!(rep.clean());
    }

    #[test]
    fn mixed_independence_still_finds_order_sensitive_violation() {
        // Two independent deliveries plus one dependent tick; the planted
        // bug fires only when event 1 goes first. Reduction must not lose
        // it, and the repro must minimize below the first exposing trace.
        let labels = [
            EventLabel::channel(0, 1),
            EventLabel::channel(2, 3),
            EventLabel::node(7),
        ];
        let rep = explore_exhaustive("toy-bug", Budget::default(), true, |c| {
            toy(&labels, c, &|order| order.first() == Some(&1))
        });
        assert_eq!(rep.counterexamples.len(), 1);
        let ce = &rep.counterexamples[0];
        assert_eq!(ce.invariant, Invariant::StreamComplete);
        // Replaying the minimized schedule must still reproduce.
        let replay = toy(&labels, &ce.minimized, &|order| order.first() == Some(&1));
        assert!(!replay.outcome.violations.is_empty());
        assert!(
            ce.minimized.len() < ce.first_schedule.len(),
            "minimized {:?} vs first {:?}",
            ce.minimized,
            ce.first_schedule
        );
    }

    #[test]
    fn digest_dedup_prunes_converged_prefixes() {
        // a/b at t=10 both bump a counter (commuting in state), then c/d
        // branch at t=20. Without dedup: 2×2 = 4 leaves. With a state
        // digest, the t=20 branch point after the b-first prefix is
        // recognized as already expanded.
        let run = |choices: &[u32]| -> ScheduleRun {
            let mut sim = Sim::with_schedule(choices);
            let counter = Rc::new(RefCell::new(0u64));
            let digest_src = Rc::clone(&counter);
            sim.set_state_digest(move || *digest_src.borrow() + 1);
            let order: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
            for i in 0..2usize {
                let c = Rc::clone(&counter);
                let o = Rc::clone(&order);
                sim.schedule_at_labeled(
                    SimTime::from_nanos(10),
                    EventLabel::node(i as u32),
                    move |_| {
                        *c.borrow_mut() += 1;
                        o.borrow_mut().push(i);
                    },
                );
            }
            for i in 2..4usize {
                let o = Rc::clone(&order);
                sim.schedule_at_labeled(
                    SimTime::from_nanos(20),
                    EventLabel::node(i as u32),
                    move |_| o.borrow_mut().push(i),
                );
            }
            sim.run();
            ScheduleRun {
                outcome: Outcome {
                    fingerprint: sim.schedule_fingerprint(),
                    violations: Vec::new(),
                    dumps: Vec::new(),
                },
                trace: sim.take_choice_trace(),
            }
        };
        let rep = explore_exhaustive("toy-dedup", Budget::default(), false, run);
        assert!(rep.coverage.complete());
        assert_eq!(rep.coverage.pruned_dedup, 1);
        assert_eq!(
            rep.coverage.schedules_enumerated, 3,
            "4 leaves minus the deduped subtree"
        );
    }

    #[test]
    fn budget_exhaustion_reports_truncation() {
        let labels: Vec<EventLabel> = (0..5).map(EventLabel::node).collect();
        let rep = explore_exhaustive(
            "toy-budget",
            Budget {
                max_schedules: 10,
                ..Budget::default()
            },
            false,
            |c| toy(&labels, c, &|_| false),
        );
        assert!(rep.coverage.frontier_truncated);
        assert!(!rep.coverage.complete());
        assert!(rep.coverage.schedules_enumerated <= 10);
        assert!(rep.render_human().contains("TRUNCATED"));
    }

    #[test]
    fn minimize_shrinks_to_fixpoint() {
        // Reproduces iff a 2 survives anywhere in the schedule.
        let min = minimize(&[0, 3, 0, 2, 0], |c| c.contains(&2));
        assert_eq!(min, vec![0, 0, 0, 2]);
        // Always reproducible → collapses to the empty (all-FIFO) schedule.
        assert_eq!(minimize(&[1, 0, 2], |_| true), Vec::<u32>::new());
        // Never reproducible is degenerate but must terminate unchanged.
        assert_eq!(minimize(&[1, 2], |_| false), vec![1, 2]);
    }
}
