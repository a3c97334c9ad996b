//! Minimal offline micro-benchmark harness.
//!
//! A self-contained replacement for the external `criterion` crate: the
//! repository must build and run with zero network access, so benches use
//! this ~100-line harness instead. It keeps the parts the benches need —
//! named benchmarks, throughput annotation, batched setup — and prints one
//! line per benchmark with mean wall-clock time per iteration plus derived
//! throughput.
//!
//! `cargo bench` invokes each bench binary with harness flags such as
//! `--bench`; unrecognized flags are ignored, and a bare string argument
//! filters benchmarks by substring (mirroring criterion's CLI).

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How results are normalized in the report line.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Logical elements processed per iteration.
    Elements(u64),
}

/// Target measurement window per benchmark.
const TARGET: Duration = Duration::from_millis(200);
/// Never run more than this many iterations, however fast the routine is.
const MAX_ITERS: u64 = 1_000_000;

/// A registry of benchmarks; constructed once per bench binary.
pub struct Harness {
    filter: Option<String>,
}

impl Harness {
    /// Build the harness from the process arguments (`cargo bench` passes
    /// `--bench` and friends; a bare argument is a name filter).
    pub fn from_args() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Harness { filter }
    }

    fn skip(&self, name: &str) -> bool {
        self.filter.as_deref().is_some_and(|f| !name.contains(f))
    }

    /// Run one benchmark: call `routine` repeatedly for a fixed wall-clock
    /// window and report the mean time per iteration.
    pub fn bench(&mut self, name: &str, routine: impl FnMut()) {
        self.bench_throughput_opt(name, None, routine);
    }

    /// Like [`Harness::bench`] with a throughput annotation, so the report
    /// line also shows bytes/s or elements/s.
    pub fn bench_throughput(&mut self, name: &str, throughput: Throughput, routine: impl FnMut()) {
        self.bench_throughput_opt(name, Some(throughput), routine);
    }

    /// Run a benchmark whose routine needs a fresh input per iteration;
    /// `setup` is excluded from the measurement.
    pub fn bench_batched<T, R>(
        &mut self,
        name: &str,
        mut setup: impl FnMut() -> T,
        mut routine: impl FnMut(T) -> R,
    ) {
        if self.skip(name) {
            return;
        }
        // Warm-up round (also primes caches/allocator).
        black_box(routine(setup()));
        let mut iters = 0u64;
        let mut busy = Duration::ZERO;
        while busy < TARGET && iters < MAX_ITERS {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            busy += start.elapsed();
            iters += 1;
        }
        report(name, busy, iters, None);
    }

    fn bench_throughput_opt(
        &mut self,
        name: &str,
        throughput: Option<Throughput>,
        mut routine: impl FnMut(),
    ) {
        if self.skip(name) {
            return;
        }
        routine(); // warm-up
        let mut iters = 0u64;
        let start = Instant::now();
        let mut busy = Duration::ZERO;
        while busy < TARGET && iters < MAX_ITERS {
            routine();
            iters += 1;
            busy = start.elapsed();
        }
        report(name, busy, iters, throughput);
    }
}

fn report(name: &str, busy: Duration, iters: u64, throughput: Option<Throughput>) {
    let per_iter = busy.as_secs_f64() / iters as f64;
    let rate = |n: u64| n as f64 / per_iter;
    let extra = match throughput {
        Some(Throughput::Bytes(n)) => format!("  {:>10.1} MB/s", rate(n) / 1e6),
        Some(Throughput::Elements(n)) => format!("  {:>10.0} elem/s", rate(n)),
        None => String::new(),
    };
    println!(
        "bench {name:<44} {:>12.3} µs/iter  ({iters} iters){extra}",
        per_iter * 1e6
    );
}
