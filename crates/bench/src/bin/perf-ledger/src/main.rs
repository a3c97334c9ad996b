//! `perf-ledger` — one benchmark for Slash: four fixed-size workloads, both
//! clocks, per-layer probes and a traced replay. See README.md beside this
//! package for the load model and for what each number is expected to move.
//!
//! The ledger measures the engine from outside, through `pub` items only,
//! and claims no gain: it is the instrument later changes are judged by.

mod catalog;
mod e2e;
mod json;
mod ledger;
mod pin;
mod probes;
mod replay;
mod report;
mod spans;
mod stats;
mod traced;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::rc::Rc;

use slash_obs::Obs;

use crate::catalog::{layer_value, Measured, PER_LAYER};
use crate::e2e::Tally;
use crate::workload::Workload;

/// Measure window of ledger mode, seconds; `BENCHMARK.json`'s
/// `run_seconds` is the same number.
const DEFAULT_SECONDS: u64 = 20;
/// Seed of ledger mode when none is given.
const DEFAULT_SEED: u64 = 1;
/// Replays per traced run; the one with the median wall time is reported.
const REPLAYS: usize = 3;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    selfcheck: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        selfcheck: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::by_name(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a whole number")?;
                if !(1..=600).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 600".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => args.out = Some(value()?.into()),
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_some() && args.selfcheck {
        return Err("--selfcheck runs every workload; it takes no --workload".into());
    }
    Ok(args)
}

/// The per-layer section of one workload: the traced run, the traced
/// replay, and the probes. Two thirds of `seconds` go to the alternating
/// traced and untraced jobs; replays and probe rounds are fixed counts that
/// take about the remaining third.
fn per_layer(w: &'static Workload, seed: u64, seconds: f64, tally: &mut Tally) -> Vec<Measured> {
    let mut rec = spans::Recorder::new();
    let ref_obs = Obs::enabled(traced::RING);
    let ready = e2e::set_up(w, seed, ref_obs.clone(), tally);

    let window = traced::run(w, &ready, &ref_obs, seconds * 2.0 / 3.0, tally);
    let mut metrics = window.metrics;

    let (problems, results) = w.check_results(&ready.partitions);
    tally.note(
        "output check",
        (!problems.is_empty()).then(|| problems.join("; ")),
    );
    let want = replay::ResultDigest::of(&results);
    drop(results);
    let mut replays: Vec<replay::Replayed> = (0..REPLAYS)
        .map(|_| {
            let r = replay::replay(w, &ready.partitions, &ready.expected, &want, &mut rec);
            tally.note("replayed job", r.problem.clone());
            r
        })
        .collect();
    replays.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let mid = &replays[REPLAYS / 2];
    let share = |name: &str| mid.shares.get(name).copied().unwrap_or(0.0);
    let mut one = |name: &str, v: f64| metrics.push(layer_value(name, v));
    for call in replay::CALLS {
        one(&format!("replay.{call}_share"), share(call));
    }
    one("replay.other_share", share("job"));
    one("replay.coverage", mid.wall_s / window.untraced_job_s);
    one("replay.job_ms", mid.wall_s * 1e3);

    let probes_job = rec.next_job();
    let mut all = probes::all(w, Rc::new(ready.partitions), seed);
    let probed = probes::run_rounds(&mut all, &mut rec);
    report::print_reconciliation(&probed);
    metrics.extend(probed);

    // Spans stay in memory until here. Written out: the reported replay's
    // and the probes'; the other replays only chose the median.
    let keep: Vec<spans::Span> = rec
        .spans()
        .iter()
        .filter(|s| s.job == mid.job || s.job == probes_job)
        .cloned()
        .collect();
    let path = report::artefact_dir().join(format!("spans-{}.json", w.name));
    match report::write_file(&path, &spans::to_json(&keep)) {
        Ok(()) => println!("# {} spans written to {}", keep.len(), path.display()),
        Err(e) => eprintln!("warning: spans not written: {e}"),
    }

    // Report in catalogue order.
    metrics.sort_by_key(|m| PER_LAYER.iter().position(|d| d.name == m.def.name));
    metrics
}

fn run_one(w: &'static Workload, args: &Args) -> Result<(), String> {
    let mut tally = Tally::default();
    let seconds = args.seconds as f64;
    println!("# {}: {}", w.name, w.why);
    let cpu = pin::pin_to_one_cpu()?;
    println!("# pinned to cpu {cpu}: engine threads share one CPU (see README.md)");
    let (title, metrics) = if args.trace {
        ("per-layer", per_layer(w, args.seed, seconds, &mut tally))
    } else {
        ("end-to-end", e2e::run(w, args.seed, seconds, &mut tally))
    };
    report::print_table(&format!("{} {title}, seed {}", w.name, args.seed), &metrics);
    if let Some(bad) = metrics.iter().find(|m| !m.summary.median.is_finite()) {
        return Err(format!("{} could not be measured", bad.def.name));
    }
    if let Some(out) = &args.out {
        let detail = report::detail_json(w.name, args.seed, seconds, args.trace, &tally, &metrics);
        report::write_file(out, &detail)?;
    }
    println!("{}", report::result_line(&tally, &metrics));
    if tally.failed > 0 {
        return Err(format!(
            "{} of {} jobs failed",
            tally.failed, tally.attempted
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf-ledger: {e}\n{}", ledger::usage());
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Some(w) => run_one(w, &args),
        None if args.selfcheck => ledger::selfcheck(args.seed, args.seconds),
        None => {
            let out = args.out.clone().unwrap_or_else(ledger::default_out);
            ledger::run(args.seed, args.seconds, &out)
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perf-ledger: {e}");
            ExitCode::FAILURE
        }
    }
}
