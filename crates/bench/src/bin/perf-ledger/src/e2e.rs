//! The end-to-end section: set-up, the closed-loop measure window of timed
//! jobs, and the checks on every job's output. Tracing is off throughout.

use std::time::Instant;

use slash_core::RunReport;
use slash_obs::Obs;

use crate::catalog::{measured, Measured, END_TO_END};
use crate::stats::{highest_supported_percentile, percentile, Summary};
use crate::workload::{Backend, Expected, Workload};

/// Set-up is repeated and its median reported: the first round in a
/// process pays page faults and allocator growth the later ones do not.
const SETUP_ROUNDS: usize = 5;
/// Untimed jobs on the workload's backend before anything is timed.
const WARMUP_JOBS: usize = 2;

/// Jobs attempted and jobs that panicked or produced wrong output.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one job (or one output check); `problem` is why it failed.
    pub fn note(&mut self, what: &str, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            eprintln!("FAILED {what}: {p}");
        }
    }
}

/// Why a job's report is wrong, if it is.
pub fn verify(report: Option<&RunReport>, want: &Expected) -> Option<String> {
    let Some(r) = report else {
        return Some("job panicked".into());
    };
    let got = Expected::of(r);
    (got != *want).then(|| format!("got {got:?}, reference {want:?}"))
}

/// Inputs, the reference job's report, and how long set-up took.
pub struct Ready {
    pub partitions: Vec<Vec<u8>>,
    pub reference: RunReport,
    pub expected: Expected,
    pub setup_s: f64,
}

/// One set-up: generate the inputs from the seed, run the reference job
/// on the simulator (with `ref_obs`, disabled in the end-to-end section),
/// then the warm-up jobs on the workload's backend.
pub fn set_up(w: &Workload, seed: u64, ref_obs: Obs, tally: &mut Tally) -> Ready {
    let start = Instant::now();
    let partitions = w.generate(seed);
    let reference = w
        .run(Backend::Sim, partitions.clone(), w.cfg(), ref_obs)
        .unwrap_or_else(|| {
            eprintln!("FAILED {}: the reference job panicked", w.name);
            std::process::exit(1);
        });
    let expected = Expected::of(&reference);
    for _ in 0..WARMUP_JOBS {
        let r = w.run(w.backend, partitions.clone(), w.cfg(), Obs::disabled());
        tally.note("warm-up job", verify(r.as_ref(), &expected));
    }
    Ready {
        partitions,
        reference,
        expected,
        setup_s: start.elapsed().as_secs_f64(),
    }
}

/// Timed jobs, back to back, one at a time, until `seconds` have passed.
/// The per-job input clone happens outside the timer. Returns per-job wall
/// seconds.
pub fn measure_window(w: &Workload, ready: &Ready, seconds: f64, tally: &mut Tally) -> Vec<f64> {
    let mut job_s = Vec::new();
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < seconds {
        let input = ready.partitions.clone();
        let start = Instant::now();
        let report = w.run(w.backend, input, w.cfg(), Obs::disabled());
        let dt = start.elapsed().as_secs_f64();
        let problem = verify(report.as_ref(), &ready.expected);
        if problem.is_none() {
            job_s.push(dt);
        }
        tally.note("timed job", problem);
    }
    job_s
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Run the end-to-end section of one workload.
pub fn run(w: &Workload, seed: u64, seconds: f64, tally: &mut Tally) -> Vec<Measured> {
    let mut setups = Vec::with_capacity(SETUP_ROUNDS);
    let mut ready = set_up(w, seed, Obs::disabled(), tally);
    setups.push(ready.setup_s);
    for _ in 1..SETUP_ROUNDS {
        // Release the previous inputs first, so peak memory holds one copy.
        drop(ready);
        ready = set_up(w, seed, Obs::disabled(), tally);
        setups.push(ready.setup_s);
    }

    let job_s = measure_window(w, &ready, seconds, tally);
    // Read before the output check below, whose collected results and
    // ordered map are the ledger's memory, not the engine's.
    let rss = peak_rss_mb();

    let (problems, _) = w.check_results(&ready.partitions);
    tally.note(
        "output check",
        (!problems.is_empty()).then(|| problems.join("; ")),
    );

    if job_s.is_empty() {
        eprintln!("FAILED {}: no timed job verified", w.name);
        std::process::exit(1);
    }
    let records = w.total_records() as f64;
    let rates: Vec<f64> = job_s.iter().map(|s| records / s).collect();
    let job_ms: Vec<f64> = job_s.iter().map(|s| s * 1e3).collect();
    let tail = match highest_supported_percentile(job_ms.len()) {
        Some(p) if p > 50.0 => format!(
            ", p{p} {:.3} (the highest percentile with ten samples beyond it)",
            percentile(&job_ms, p)
        ),
        _ => " (too few jobs for a higher percentile)".to_string(),
    };
    println!(
        "# {}: {} timed jobs of {} records; job wall ms p50 {:.3}{tail}",
        w.name,
        job_ms.len(),
        w.total_records(),
        percentile(&job_ms, 50.0),
    );
    vec![
        measured(&END_TO_END, "wall_records_per_s", Summary::of(&rates)),
        measured(
            &END_TO_END,
            "virt_records_per_s",
            Summary::single(ready.reference.throughput()),
        ),
        measured(&END_TO_END, "peak_rss_mb", Summary::single(rss)),
        measured(&END_TO_END, "setup_s", Summary::of(&setups)),
    ]
}
