//! `slash-race` — sweep the protocol scenarios and the fault matrix across
//! same-instant schedules and fault instants.
//!
//! ```text
//! slash-race [--seeds N] [--mutation NAME] [--exhaustive]
//!            [--max-states N] [--max-schedules N] [--minimize] [--out PATH]
//! ```
//!
//! **Random sweep (default):** runs the three protocol scenarios (channel,
//! multi-port fabric, epoch coherence) under `N` choice vectors (FIFO, then
//! seeded uniform vectors; default 128), and every case of the fault
//! matrix ([`slash_verify::catalogue`]) on the shipped cluster driver for
//! `N` runs — run *i* at the *i*-th of `N` strided fault instants under
//! the *i*-th vector. A protocol family must yield ≥ 100 distinct
//! schedules; a driver case ≥ 100 distinct (instant, schedule) pairs, every
//! run exact against the sequential oracle, every required repair seen.
//! A violation prints the choices its run made (`replay schedule: […]`,
//! for a driver case beside its fault instant) and the flight recorder's
//! dump.
//!
//! **Exhaustive mode (`--exhaustive`):** the bounded DFS model checker
//! ([`slash_verify::explorer`]). The 2-node FIFO/credit scenario is
//! enumerated *literally* (every distinct same-instant schedule run, dedup
//! off) and once more under state-digest dedup. The 2-node `*-small`
//! driver cases are enumerated literally at **every** event instant of
//! their fault-free run; full-size driver cases take three schedules at
//! each of 48 strided instants. Coverage floors are hard gates: fewer
//! instants or schedules than a known-good run is a regression. A protocol
//! scenario that exceeds its budget must *report* the truncated frontier
//! and falls back to the random sweep. The accounting is written as JSON
//! with `--out` (CI publishes `results/race_coverage.json`).
//!
//! `--mutation NAME` plants a known bug (`skip-credit-return`,
//! `ignore-credit-window`, `reorder-delivered`, `regress-vclock`,
//! `drop-update` in the protocol scenarios; `skip-replay` in
//! `core/recovery.rs` and `skip-cutover-close` in `core/elastic.rs`, run
//! on the driver) and *expects* the checks to fire — for
//! `ignore-credit-window`, `reorder-delivered` and `regress-vclock` the
//! shipped code's own checks, through their protocol-violation count:
//! under the random sweep
//! a violation plus a flight-recorder dump; under `--exhaustive` (with
//! `--minimize`) additionally a minimized reproducing choice schedule
//! strictly shorter than the first exposing one — for the driver plants at
//! the earliest exposing instant.
//!
//! Exit codes: 0 all gates hold (or, under `--mutation`, the injected bug
//! was caught), 1 otherwise, 2 usage error.

use std::process::ExitCode;

use slash_verify::catalogue::{case, catalogue, Case, Tally};
use slash_verify::explorer::{Budget, ExhaustiveReport};
use slash_verify::race::{explore, Exploration};
use slash_verify::scenarios::{ChannelScenario, CoherenceScenario, Mutation, Scenario};

/// Minimum distinct schedules — for a driver case, distinct (instant,
/// schedule) pairs — per full-size sweep.
const MIN_DISTINCT: usize = 100;

/// Coverage floor for the literal enumeration of the 2-node FIFO/credit
/// scenario: its schedule space today is exactly 8 distinct schedules
/// (3 binary branch points); enumerating fewer is a regression.
const CHAN_SMALL_FLOOR: usize = 8;

/// Coverage floors of the literally enumerated driver cases, as
/// `(instants, schedules)`: about nine tenths of today's counts (see
/// `results/race_coverage.json`), so a shrunk input, a lost tie point or a
/// clipped window fails loudly while benign drift does not.
const LITERAL_FLOORS: [(&str, usize, usize); 3] = [
    ("recovery-small", 156, 3_400),
    ("rescale-small", 153, 4_700),
    ("hot-split-small", 162, 3_500),
];

/// Schedules a strided (non-literal) driver case takes per instant under
/// `--exhaustive`.
const STRIDED_SCHEDULES: usize = 3;

fn needed(seeds: u64) -> usize {
    if seeds as usize > MIN_DISTINCT + 2 {
        MIN_DISTINCT
    } else {
        // Small sweeps (e.g. smoke runs) still must mostly diverge.
        (seeds as usize / 2).max(1)
    }
}

/// The protocol scenario that owns mutation `m`, with the bug planted: the
/// full-size configuration for the random sweep, the `small` one (where
/// the family has one) for the exhaustive explorer. `None`: the bug lives
/// in the shipped driver.
fn mutated(m: Mutation, small: bool) -> Option<(&'static str, Box<dyn Scenario>)> {
    let mutation = Some(m);
    match m {
        Mutation::SkipCreditReturn | Mutation::IgnoreCreditWindow | Mutation::ReorderDelivered => {
            let (name, base) = match small {
                true => ("channel-small (mutated)", ChannelScenario::small()),
                false => ("channel-protocol (mutated)", ChannelScenario::default()),
            };
            Some((name, Box::new(ChannelScenario { mutation, ..base })))
        }
        Mutation::RegressVclock | Mutation::DropUpdate => {
            let base = CoherenceScenario::default();
            Some((
                "epoch-coherence (mutated)",
                Box::new(CoherenceScenario { mutation, ..base }),
            ))
        }
        Mutation::SkipReplay | Mutation::SkipCutoverClose => None,
    }
}

/// The catalogue case a driver plant (any mutation [`mutated`] does not
/// own) runs on.
fn planted_case(m: Mutation, small: bool) -> Case {
    let name = match (m, small) {
        (Mutation::SkipCutoverClose, false) => "planned-handoff",
        (Mutation::SkipCutoverClose, true) => "rescale-small",
        (_, false) => "node-crash",
        (_, true) => "recovery-small",
    };
    case(name).expect("catalogue row")
}

/// Run one injected bug under a small sweep and require both a violation
/// and a flight-recorder dump.
fn run_mutation(m: Mutation, seeds: u64) -> ExitCode {
    let e = match mutated(m, false) {
        Some((name, s)) => explore(name, seeds, |_, c| s.run_schedule(c)),
        None => {
            let c = planted_case(m, false);
            c.sweep(&c.probe(), seeds, m.plant()).0
        }
    };
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
/// configuration its owner has; require detection and (when minimizing) a
/// repro schedule strictly shorter than the first exposing one.
fn run_mutation_exhaustive(m: Mutation, budget: Budget, minimize: bool) -> ExitCode {
    let rep = match mutated(m, true) {
        Some((name, s)) => s.exhaustive(name, budget, minimize),
        None => {
            let c = planted_case(m, true);
            let (rep, tally) = c.exhaustive(&c.probe(), literal(budget), minimize, m.plant());
            if let Some(at) = tally.exposed_at {
                println!("{}: earliest exposing instant {} ns", c.name, at.as_nanos());
            }
            rep
        }
    };
    print!("{}", rep.render_human());
    for dump in rep
        .counterexamples
        .iter()
        .flat_map(|c| c.dumps.iter())
        .take(2)
    {
        println!("{}", dump.trim_end());
    }
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

/// Literal enumeration: every distinct schedule is run, none pruned.
fn literal(budget: Budget) -> Budget {
    Budget {
        state_dedup: false,
        ..budget
    }
}

/// One row of the coverage report.
struct ScenarioCoverage {
    report: ExhaustiveReport,
    /// Fault-instant accounting (driver cases only).
    tally: Option<Tally>,
    /// The row's whole gate verdict.
    gate_ok: bool,
    /// Random-sweep fallback result when the frontier truncated.
    fallback: Option<Exploration>,
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
            sc.report.scenario,
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
        if let Some(t) = &sc.tally {
            // Driver rows: schedules are (instant, schedule) pairs.
            out.push_str(&format!(
                ",\n      \"instants\": {},\n      \"instants_requiring_repair\": {},\n      \
                 \"distinct_runs\": {}",
                t.instants.len(),
                t.required.len(),
                t.runs.len()
            ));
        }
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

/// The exhaustive verification pass: the channel scenario (literal and
/// dedup-reduced), then the fault matrix on the shipped driver — literal
/// at every instant for the `*-small` cases, strided for the rest — with
/// coverage floors and the random-sweep fallback on a truncated protocol
/// frontier.
fn run_exhaustive(budget: Budget, minimize: bool, seeds: u64, out: Option<&str>) -> ExitCode {
    let mut scenarios = Vec::new();

    // 2-node FIFO/credit: literal full enumeration, dedup off, then the
    // same scenario with state-digest dedup on — the reduction must not
    // change the verdict, only save runs. A truncated frontier is only
    // acceptable when reported AND the random fallback sweep stays clean.
    let chan = ChannelScenario::small();
    for (name, budget, is_literal) in [
        ("channel-small-literal", literal(budget), true),
        ("channel-small-dedup", budget, false),
    ] {
        let report = chan.exhaustive(name, budget, minimize);
        print!("{}", report.render_human());
        let c = &report.coverage;
        let drained = match is_literal {
            true => c.literal_full_enumeration() && c.schedules_enumerated >= CHAN_SMALL_FLOOR,
            false => c.complete(),
        };
        let fallback = c.frontier_truncated.then(|| {
            println!("slash-race: {name} truncated at budget — falling back to the random sweep");
            let fb = explore(name, seeds, |_, c| chan.run_schedule(c));
            print!("{}", fb.render_human());
            fb
        });
        let gate_ok = report.clean() && drained && fallback.as_ref().is_none_or(Exploration::clean);
        scenarios.push(ScenarioCoverage {
            report,
            tally: None,
            gate_ok,
            fallback,
        });
    }

    // The fault matrix. A literal case runs every tie schedule at every
    // event instant of its fault-free run and must drain each frontier
    // with nothing pruned; a strided one is gated on distinct (instant,
    // schedule) pairs, like the random sweep.
    for c in catalogue() {
        let budget = match c.literal {
            true => literal(budget),
            false => Budget {
                max_schedules: STRIDED_SCHEDULES,
                ..budget
            },
        };
        let (report, tally) = c.exhaustive(&c.probe(), budget, minimize, None);
        print!("{}", report.render_human());
        let cov = &report.coverage;
        let covered = match LITERAL_FLOORS.iter().find(|f| f.0 == c.name) {
            Some(&(_, instants, schedules)) => {
                cov.literal_full_enumeration()
                    && tally.instants.len() >= instants
                    && cov.schedules_enumerated >= schedules
            }
            None => !c.literal && cov.distinct_fingerprints >= MIN_DISTINCT,
        };
        println!("  {tally}");
        scenarios.push(ScenarioCoverage {
            gate_ok: report.clean() && covered,
            report,
            tally: Some(tally),
            fallback: None,
        });
    }

    let pass = scenarios.iter().all(|sc| sc.gate_ok);
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
        for sc in scenarios.iter().filter(|sc| !sc.gate_ok) {
            println!("slash-race: gate failed: {}", sc.report.scenario);
        }
        println!("slash-race: exhaustive FAIL");
        ExitCode::FAILURE
    }
}

/// The random sweep: the protocol families under `seeds` choice vectors,
/// then every catalogue case on the shipped driver.
fn run_sweep(seeds: u64) -> ExitCode {
    let families: [(&str, Box<dyn Scenario>); 3] = [
        ("channel-protocol", Box::new(ChannelScenario::default())),
        ("multiport-fabric", Box::new(ChannelScenario::multi_port())),
        ("epoch-coherence", Box::new(CoherenceScenario::default())),
    ];
    let mut ok = true;
    for (name, s) in &families {
        let e = explore(name, seeds, |_, c| s.run_schedule(c));
        print!("{}", e.render_human());
        ok &= e.clean() && e.distinct_schedules >= needed(seeds);
    }
    for c in catalogue() {
        let (e, tally) = c.sweep(&c.probe(), seeds, None);
        print!("{}", e.render_human());
        println!("  {tally}");
        ok &= e.clean() && e.distinct_schedules >= needed(seeds);
    }
    if ok {
        println!("slash-race: PASS");
        ExitCode::SUCCESS
    } else {
        println!("slash-race: FAIL");
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("slash-race: {msg}");
    ExitCode::from(2)
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
            "--exhaustive" => exhaustive = true,
            "--minimize" => minimize = true,
            "--seeds" | "--max-states" | "--max-schedules" => {
                let Some(n) = args.next().and_then(|v| v.parse::<usize>().ok()) else {
                    return usage(&format!("{a} requires a number"));
                };
                match a.as_str() {
                    "--seeds" => seeds = n as u64,
                    "--max-states" => budget.max_states = n,
                    _ => budget.max_schedules = n,
                }
            }
            "--mutation" => {
                let name = args.next();
                let Some(&(_, m)) = Mutation::ALL
                    .iter()
                    .find(|(n, _)| Some(*n) == name.as_deref())
                else {
                    let names: Vec<&str> = Mutation::ALL.iter().map(|(n, _)| *n).collect();
                    return usage(&format!("--mutation requires one of {}", names.join(", ")));
                };
                mutation = Some(m);
            }
            "--out" => match args.next() {
                Some(p) => out = Some(p),
                None => return usage("--out requires a path"),
            },
            "--help" | "-h" => {
                println!(
                    "usage: slash-race [--seeds N] [--mutation NAME] [--exhaustive] \
                     [--max-states N] [--max-schedules N] [--minimize] [--out PATH]"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    match (exhaustive, mutation) {
        (true, Some(m)) => run_mutation_exhaustive(m, budget, minimize),
        (true, None) => run_exhaustive(budget, minimize, seeds, out.as_deref()),
        // A mutated sweep only needs a handful of schedules to prove the
        // checks fire; cap so `--mutation` stays fast by default.
        (false, Some(m)) => run_mutation(m, seeds.min(8)),
        (false, None) => run_sweep(seeds),
    }
}
