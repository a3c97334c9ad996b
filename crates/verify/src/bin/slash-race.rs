//! `slash-race` — sweep the protocol scenarios across tie-break schedules.
//!
//! ```text
//! slash-race [--seeds N] [--mutation NAME] [--exhaustive]
//!            [--max-states N] [--max-schedules N] [--minimize] [--out PATH]
//! ```
//!
//! **Random sweep (default):** runs the channel, multi-port fabric,
//! coherence, and crash-recovery scenarios — including the compound
//! `concurrent-crash` (two victims on the same tick) and
//! `reentrant-recovery` (the same victim crashes again after its first
//! restore) families, plus the elastic-rescaling `planned-handoff`
//! (cutover promotion without a crash) and `handoff-vs-crash` (a live
//! migration racing a concurrent crash recovery on the same tick)
//! families, plus the hot-key-splitting `hot-split-recovery` and
//! `hot-split-handoff` families (keys split into per-replica salted
//! sub-keys while a crash or cutover interleaves; convergence checks the
//! canonical-plus-sub-keys fold) — under `N` tie-break policies (FIFO,
//! LIFO, and seeded
//! permutations; default 128), printing how many distinct schedules
//! were explored and any invariant violations. On a violation the flight
//! recorder's dump — the last trace events with the schedule fingerprint
//! and vector-clock context — is printed alongside.
//!
//! **Exhaustive mode (`--exhaustive`):** replaces sampling with the
//! bounded DFS model checker ([`slash_verify::explorer`]). The small
//! 2-node FIFO/credit scenario is enumerated *literally* (every distinct
//! same-instant schedule run, dedup off) and must drain its frontier with
//! `schedules == distinct fingerprints`; the single-crash recovery
//! scenario, the 2-node single-handoff `rescale-small` scenario, and the
//! 2-node single-crash-with-one-split-key `hot-split-small` scenario are
//! explored with state-digest dedup and must also drain completely.
//! Coverage floors are hard gates: enumerating fewer
//! schedules than a known-good run is a regression. A scenario that
//! exceeds its budget must *report* the truncated frontier, and the
//! random sweep then runs as a fallback over the unexplored space. The
//! coverage accounting is written as JSON with `--out` (CI publishes
//! `results/race_coverage.json`).
//!
//! `--mutation NAME` injects a known protocol bug (one of
//! `skip-credit-return`, `ignore-credit-window`, `reorder-delivered`,
//! `regress-vclock`, `drop-update`, `skip-replay`) into the owning
//! scenario and *expects* the checks to fire: under the random sweep a
//! violation plus a flight-recorder dump; under `--exhaustive` (with
//! `--minimize`) additionally a minimized reproducing choice schedule
//! strictly shorter than the first exposing one.
//!
//! Exit codes: 0 all gates hold (or, under `--mutation`, the injected bug
//! was caught), 1 otherwise, 2 usage error.

use std::process::ExitCode;

use slash_verify::explorer::{Budget, ExhaustiveReport};
use slash_verify::race::{explore, Exploration};
use slash_verify::scenarios::{ChannelScenario, Mutation, RecoveryScenario, Scenario};

/// Minimum distinct schedules per scenario for a full-size sweep.
const MIN_DISTINCT: usize = 100;

/// Coverage floor for the literal enumeration of the 2-node FIFO/credit
/// scenario: its schedule space today is exactly 8 distinct schedules
/// (3 binary branch points); enumerating fewer is a regression.
const CHAN_SMALL_FLOOR: usize = 8;

/// Coverage floor for the dedup-reduced single-crash recovery scenario
/// (35 schedules today; slack for benign drift, still far above the
/// 1-schedule degenerate case).
const RECOVERY_SMALL_FLOOR: usize = 24;

/// Coverage floor for the dedup-reduced 2-node single-handoff rescale
/// scenario (35 schedules today; same slack policy as
/// [`RECOVERY_SMALL_FLOOR`]).
const HANDOFF_SMALL_FLOOR: usize = 24;

/// Coverage floor for the dedup-reduced 2-node single-crash scenario
/// with one hot-split key (same slack policy as
/// [`RECOVERY_SMALL_FLOOR`]: well below today's count, far above the
/// 1-schedule degenerate case).
const HOT_SPLIT_SMALL_FLOOR: usize = 24;

fn gate(e: &Exploration, seeds: u64) -> bool {
    let needed = if seeds as usize > MIN_DISTINCT + 2 {
        MIN_DISTINCT
    } else {
        // Small sweeps (e.g. smoke runs) still must mostly diverge.
        (seeds as usize / 2).max(1)
    };
    e.clean() && e.distinct_schedules >= needed
}

fn parse_mutation(name: &str) -> Option<Mutation> {
    match name {
        "skip-credit-return" => Some(Mutation::SkipCreditReturn),
        "ignore-credit-window" => Some(Mutation::IgnoreCreditWindow),
        "reorder-delivered" => Some(Mutation::ReorderDelivered),
        "regress-vclock" => Some(Mutation::RegressVclock),
        "drop-update" => Some(Mutation::DropUpdate),
        "skip-replay" => Some(Mutation::SkipReplay),
        _ => None,
    }
}

/// The scenario that owns mutation `m`, with the bug planted: the
/// full-size configuration for the random sweep, the `small` one (where the
/// family has one) for the exhaustive explorer.
fn mutated(m: Mutation, small: bool) -> (&'static str, Box<dyn Scenario>) {
    let mutation = Some(m);
    match m {
        Mutation::SkipCreditReturn | Mutation::IgnoreCreditWindow | Mutation::ReorderDelivered => {
            let (name, base) = match small {
                true => ("channel-small (mutated)", ChannelScenario::small()),
                false => ("channel-protocol (mutated)", ChannelScenario::default()),
            };
            (name, Box::new(ChannelScenario { mutation, ..base }))
        }
        Mutation::SkipReplay => {
            let (name, base) = match small {
                true => ("recovery-small (mutated)", RecoveryScenario::small()),
                false => ("crash-recovery (mutated)", RecoveryScenario::default()),
            };
            (name, Box::new(RecoveryScenario { mutation, ..base }))
        }
        Mutation::RegressVclock | Mutation::DropUpdate => {
            let base = RecoveryScenario::coherence();
            ("epoch-coherence (mutated)", Box::new(RecoveryScenario { mutation, ..base }))
        }
    }
}

/// Run one injected bug under a small sweep and require both a violation
/// and a flight-recorder dump.
fn run_mutation(m: Mutation, seeds: u64) -> ExitCode {
    let (name, s) = mutated(m, false);
    let e = explore(name, seeds, |p| s.run(p));
    print!("{}", e.render_human());
    if !e.clean() && !e.dumps.is_empty() {
        println!("slash-race: mutation {m:?} detected, flight recorder dumped — PASS");
        ExitCode::SUCCESS
    } else {
        println!(
            "slash-race: mutation {m:?} NOT detected (violations={}, dumps={}) — FAIL",
            e.violations.len(),
            e.dumps.len()
        );
        ExitCode::FAILURE
    }
}

/// Run one injected bug under the exhaustive explorer on the small
/// configuration its scenario owns; require detection and (when
/// minimizing) a repro schedule strictly shorter than the first exposing
/// one.
fn run_mutation_exhaustive(m: Mutation, budget: Budget, minimize: bool) -> ExitCode {
    let (name, s) = mutated(m, true);
    let rep = s.exhaustive(name, budget, minimize);
    print!("{}", rep.render_human());
    let minimization_holds = !minimize
        || rep
            .counterexamples
            .iter()
            .all(|c| c.minimized.len() < c.first_schedule.len());
    if !rep.clean() && minimization_holds {
        println!("slash-race: mutation {m:?} detected under exhaustive exploration — PASS");
        ExitCode::SUCCESS
    } else {
        println!(
            "slash-race: mutation {m:?} exhaustive check FAILED \
             (counterexamples={}, minimization_holds={minimization_holds})",
            rep.counterexamples.len()
        );
        ExitCode::FAILURE
    }
}

/// One scenario's contribution to the coverage report.
struct ScenarioCoverage {
    report: ExhaustiveReport,
    /// Scenario-specific gate verdict (coverage floor, literal/complete
    /// requirement), not counting the truncation-fallback gate.
    gate_ok: bool,
    /// Random-sweep fallback result when the frontier truncated.
    fallback: Option<Exploration>,
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn coverage_json(scenarios: &[ScenarioCoverage], pass: bool) -> String {
    let mut out = String::from("{\n  \"scenarios\": [\n");
    for (i, sc) in scenarios.iter().enumerate() {
        let c = &sc.report.coverage;
        out.push_str(&format!(
            "    {{\n      \"name\": \"{}\",\n      \"schedules_enumerated\": {},\n      \
             \"distinct_fingerprints\": {},\n      \"states_expanded\": {},\n      \
             \"pruned_sleep\": {},\n      \"pruned_dedup\": {},\n      \
             \"max_depth_seen\": {},\n      \"minimization_runs\": {},\n      \
             \"frontier_truncated\": {},\n      \"complete\": {},\n      \
             \"literal_full_enumeration\": {},\n      \"counterexamples\": {},\n      \
             \"gate_ok\": {}",
            json_escape(sc.report.scenario),
            c.schedules_enumerated,
            c.distinct_fingerprints,
            c.states_expanded,
            c.pruned_sleep,
            c.pruned_dedup,
            c.max_depth_seen,
            c.minimization_runs,
            c.frontier_truncated,
            c.complete(),
            c.literal_full_enumeration(),
            sc.report.counterexamples.len(),
            sc.gate_ok,
        ));
        if let Some(fb) = &sc.fallback {
            out.push_str(&format!(
                ",\n      \"fallback_sweep\": {{\n        \"schedules_run\": {},\n        \
                 \"distinct_schedules\": {},\n        \"clean\": {}\n      }}",
                fb.schedules_run,
                fb.distinct_schedules,
                fb.clean()
            ));
        }
        out.push_str("\n    }");
        if i + 1 < scenarios.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str(&format!("  ],\n  \"pass\": {pass}\n}}\n"));
    out
}

/// The exhaustive verification pass: literal enumeration of the 2-node
/// FIFO/credit scenario, dedup-reduced enumeration of the single-crash
/// recovery scenario, coverage-floor gates, and the random-sweep fallback
/// on any truncated frontier.
fn run_exhaustive(budget: Budget, minimize: bool, seeds: u64, out: Option<&str>) -> ExitCode {
    let mut scenarios = Vec::new();

    // 2-node FIFO/credit: literal full enumeration, dedup off. The gate
    // is the strongest claim the explorer can make: every distinct
    // same-instant schedule was run, none pruned, frontier drained.
    let chan = ChannelScenario::small();
    let literal_budget = Budget {
        state_dedup: false,
        ..budget
    };
    let rep = chan.exhaustive("channel-small-literal", literal_budget, minimize);
    print!("{}", rep.render_human());
    let gate_ok = rep.clean()
        && rep.coverage.literal_full_enumeration()
        && rep.coverage.schedules_enumerated >= CHAN_SMALL_FLOOR;
    let fallback = fallback_if_truncated(&rep, seeds, |p| chan.run(p));
    scenarios.push(ScenarioCoverage {
        report: rep,
        gate_ok,
        fallback,
    });

    // Same scenario with state-digest dedup on: the reduction must not
    // change the verdict, only save runs.
    let rep = chan.exhaustive("channel-small-dedup", budget, minimize);
    print!("{}", rep.render_human());
    let gate_ok = rep.clean() && rep.coverage.complete();
    let fallback = fallback_if_truncated(&rep, seeds, |p| chan.run(p));
    scenarios.push(ScenarioCoverage {
        report: rep,
        gate_ok,
        fallback,
    });

    // The dedup-reduced SSB scenarios; each must drain completely.
    // * recovery-small — single crash: the literal space is ~2^34, but
    //   state-digest dedup collapses converged tick interleavings.
    // * rescale-small — single planned handoff (the elastic cutover):
    //   structurally the crash scenario with an empty replay range, so
    //   the reconnect-dedup invariant becomes checked-on-all-schedules.
    // * hot-split-small — single crash with one hot-split key: crash
    //   promotion must commute with split/fold on every schedule; salted
    //   sub-key entries checkpoint, replay and merge like any other
    //   state, and the restored node adopts split custody from the
    //   survivor.
    for (name, s, floor) in [
        ("recovery-small", RecoveryScenario::small(), RECOVERY_SMALL_FLOOR),
        ("rescale-small", RecoveryScenario::rescale_small(), HANDOFF_SMALL_FLOOR),
        ("hot-split-small", RecoveryScenario::hot_split_small(), HOT_SPLIT_SMALL_FLOOR),
    ] {
        let rep = s.exhaustive(name, budget, minimize);
        print!("{}", rep.render_human());
        let gate_ok =
            rep.clean() && rep.coverage.complete() && rep.coverage.schedules_enumerated >= floor;
        let fallback = fallback_if_truncated(&rep, seeds, |p| s.run(p));
        scenarios.push(ScenarioCoverage {
            report: rep,
            gate_ok,
            fallback,
        });
    }

    // A truncated frontier is only acceptable when reported AND the
    // random fallback sweep over the same scenario stays clean.
    let pass = scenarios.iter().all(|sc| {
        sc.gate_ok
            && match (&sc.fallback, sc.report.coverage.frontier_truncated) {
                (Some(fb), true) => fb.clean(),
                (None, false) => true,
                // Fallback without truncation or vice versa cannot happen
                // by construction; treat defensively as failure.
                _ => false,
            }
    });

    let json = coverage_json(&scenarios, pass);
    match out {
        Some(path) => {
            if let Some(dir) = std::path::Path::new(path).parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("slash-race: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("slash-race: coverage written to {path}");
        }
        None => print!("{json}"),
    }
    if pass {
        println!("slash-race: exhaustive PASS");
        ExitCode::SUCCESS
    } else {
        println!("slash-race: exhaustive FAIL");
        ExitCode::FAILURE
    }
}

fn fallback_if_truncated(
    rep: &ExhaustiveReport,
    seeds: u64,
    run: impl FnMut(slash_desim::TieBreak) -> slash_verify::race::Outcome,
) -> Option<Exploration> {
    if !rep.coverage.frontier_truncated {
        return None;
    }
    println!(
        "slash-race: {} truncated at budget — falling back to the random sweep",
        rep.scenario
    );
    let fb = explore(rep.scenario, seeds, run);
    print!("{}", fb.render_human());
    Some(fb)
}

fn main() -> ExitCode {
    let mut seeds: u64 = 128;
    let mut mutation: Option<Mutation> = None;
    let mut exhaustive = false;
    let mut minimize = false;
    let mut budget = Budget::default();
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => seeds = n,
                None => {
                    eprintln!("slash-race: --seeds requires a number");
                    return ExitCode::from(2);
                }
            },
            "--mutation" => match args.next().as_deref().and_then(parse_mutation) {
                Some(m) => mutation = Some(m),
                None => {
                    eprintln!(
                        "slash-race: --mutation requires one of skip-credit-return, \
                         ignore-credit-window, reorder-delivered, regress-vclock, \
                         drop-update, skip-replay"
                    );
                    return ExitCode::from(2);
                }
            },
            "--exhaustive" => exhaustive = true,
            "--minimize" => minimize = true,
            "--max-states" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => budget.max_states = n,
                None => {
                    eprintln!("slash-race: --max-states requires a number");
                    return ExitCode::from(2);
                }
            },
            "--max-schedules" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => budget.max_schedules = n,
                None => {
                    eprintln!("slash-race: --max-schedules requires a number");
                    return ExitCode::from(2);
                }
            },
            "--out" => match args.next() {
                Some(p) => out = Some(p),
                None => {
                    eprintln!("slash-race: --out requires a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: slash-race [--seeds N] [--mutation NAME] [--exhaustive] \
                     [--max-states N] [--max-schedules N] [--minimize] [--out PATH]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("slash-race: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    if exhaustive {
        return match mutation {
            Some(m) => run_mutation_exhaustive(m, budget, minimize),
            None => run_exhaustive(budget, minimize, seeds, out.as_deref()),
        };
    }

    if let Some(m) = mutation {
        // A mutated sweep only needs a handful of schedules to prove the
        // checks fire; cap so `--mutation` stays fast by default.
        return run_mutation(m, seeds.min(8));
    }

    let families: [(&str, Box<dyn Scenario>); 10] = [
        ("planned-handoff", Box::new(RecoveryScenario::planned_handoff())),
        ("handoff-vs-crash", Box::new(RecoveryScenario::handoff_vs_crash())),
        ("channel-protocol", Box::new(ChannelScenario::default())),
        ("multiport-fabric", Box::new(ChannelScenario::multi_port())),
        ("epoch-coherence", Box::new(RecoveryScenario::coherence())),
        ("crash-recovery", Box::new(RecoveryScenario::default())),
        ("concurrent-crash", Box::new(RecoveryScenario::concurrent_crash())),
        ("reentrant-recovery", Box::new(RecoveryScenario::reentrant())),
        ("hot-split-recovery", Box::new(RecoveryScenario::hot_split())),
        ("hot-split-handoff", Box::new(RecoveryScenario::hot_split_handoff())),
    ];
    let mut ok = true;
    for (name, s) in &families {
        let e = explore(name, seeds, |p| s.run(p));
        print!("{}", e.render_human());
        ok &= gate(&e, seeds);
    }
    if ok {
        println!("slash-race: PASS");
        ExitCode::SUCCESS
    } else {
        println!("slash-race: FAIL");
        ExitCode::FAILURE
    }
}
