//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro all                  # everything (writes CSVs to results/)
//! repro fig6 --query ysb     # one Fig. 6 sub-figure (ysb|cm|nb7|nb8|nb11)
//! repro fig7                 # COST analysis
//! repro fig8a | fig8b | fig8c | fig8d
//! repro fig9 | fig10 | table1
//! repro recovery             # fault-injection recovery latency + exactness
//! repro rescale              # diurnal 4 -> 8 -> 4 rescale gate (BENCH_rescale.json)
//! repro split                # hot-key split sweep gate (>= 1.5x at theta 1.1)
//! repro latency              # per-stage tail latency vs SLO.toml (BENCH_latency.json)
//! ```
//!
//! Scale knobs: `SLASH_WORKERS` (threads/node, default 4) and
//! `SLASH_RECORDS` (records/worker, default 20000); `latency` runs at its
//! own fixed scale. Exit codes: 0 pass, 1 a gate failed or an artifact
//! could not be written, 2 usage or a broken `SLO.toml`.

use std::path::PathBuf;

use slash_bench::report::{format_table, write_csv, Table};
use slash_bench::slo::{self, Slo};
use slash_bench::{ablation, fig6, fig7, fig8, fig9, latency, recovery, rescale, split, Scale};

fn out_dir() -> PathBuf {
    std::env::var("SLASH_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

/// Report an artifact written, or fail the command: a stale file left in
/// place would pass CI's `git diff` check on the checked-in copy.
fn written(path: &str, res: std::io::Result<()>) {
    if let Err(e) = res {
        eprintln!("error: could not write {path}: {e}");
        std::process::exit(1);
    }
    println!("  -> {path}");
}

fn emit(t: &Table, csv_name: &str) {
    print!("{}", format_table(t));
    println!();
    let dir = out_dir();
    written(
        &format!("{}/{csv_name}", dir.display()),
        write_csv(t, &dir, csv_name),
    );
    println!();
}

fn read_slo() -> Slo {
    slo::read("SLO.toml").unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

fn run_fig6(query: &str, scale: Scale) {
    let points = fig6::run(query, scale, &fig6::NODE_COUNTS);
    emit(&fig6::table(query, &points), &format!("fig6_{query}.csv"));
}

fn run_fig7(scale: Scale) {
    let series: Vec<_> = fig7::QUERIES
        .iter()
        .map(|q| fig7::run(q, scale, &[2, 4, 8, 16]))
        .collect();
    emit(&fig7::table(&series), "fig7_cost.csv");
}

fn run_fig8ab(scale: Scale) {
    let points = fig8::run_buffer_sweep(scale, 2);
    emit(&fig8::table_8a(&points), "fig8a_buffer_throughput.csv");
    emit(&fig8::table_8b(&points), "fig8b_buffer_latency.csv");
}

fn run_fig8c(scale: Scale) {
    let threads: Vec<usize> = vec![1, 2, 4, 6, 8, 10];
    let points = fig8::run_parallelism_sweep(scale, &threads);
    emit(&fig8::table_8c(&points), "fig8c_parallelism.csv");
}

fn run_fig8d(scale: Scale) {
    let points = fig8::run_skew_sweep(scale, &fig8::SKEW_Z);
    emit(&fig8::table_8d(&points), "fig8d_skew.csv");
}

fn run_fig9(scale: Scale) {
    let rows = fig9::run_fig9(scale);
    emit(
        &fig9::breakdown_table("Fig. 9: execution breakdown, RO", &rows),
        "fig9_breakdown_ro.csv",
    );
}

fn run_fig10(scale: Scale) {
    let rows = fig9::run_fig10(scale);
    emit(
        &fig9::breakdown_table("Fig. 10: execution breakdown, YSB", &rows),
        "fig10_breakdown_ysb.csv",
    );
}

fn run_table1(scale: Scale) {
    let rows = fig9::run_table1(scale);
    emit(&fig9::table1_table(&rows), "table1_resources.csv");
}

fn run_recovery(scale: Scale) {
    let points = recovery::run(scale);
    emit(&recovery::table(&points), "recovery_latency.csv");
    if points.iter().any(|p| !p.exact || p.records_lost != 0) {
        eprintln!("warning: a fault run diverged from the no-fault baseline");
    }
}

fn run_rescale(scale: Scale) -> bool {
    let budget = read_slo().migration_stall;
    let outcome = rescale::run(scale);
    emit(&rescale::table(&outcome), "rescale.csv");
    written(
        "BENCH_rescale.json",
        rescale::write_json(&outcome, "BENCH_rescale.json"),
    );
    let violations = rescale::gate(&outcome, budget);
    if violations.is_empty() {
        println!("rescale gate: PASS");
        true
    } else {
        eprintln!("rescale gate: FAIL ({} violations)", violations.len());
        for v in &violations {
            eprintln!("VIOLATION: {v}");
        }
        false
    }
}

fn run_latency() -> bool {
    let budgets = read_slo().stage_budgets;
    let runs = latency::run();
    print!("{}", format_table(&latency::table(&runs)));
    if let Err(e) = latency::check(&runs) {
        eprintln!("latency report: FAIL ({e})");
        return false;
    }
    written(
        "BENCH_latency.json",
        latency::write_json(&runs, "BENCH_latency.json"),
    );
    let breaches = latency::gate(&runs, &budgets).unwrap_or_else(|e| {
        eprintln!("error: SLO.toml: {e}");
        std::process::exit(2);
    });
    if breaches.is_empty() {
        println!("SLO gate: PASS ({} budgets from SLO.toml)", budgets.len());
        return true;
    }
    eprintln!("SLO gate: FAIL ({} breaches)", breaches.len());
    for dump in latency::dumps(&runs, &breaches) {
        eprintln!("{dump}");
    }
    for (_, msg) in &breaches {
        eprintln!("BREACH: {msg}");
    }
    false
}

fn run_split() -> bool {
    let points = split::run();
    emit(&split::table(&points), "split_sweep.csv");
    match split::gate(&points) {
        None => {
            println!("split gate: PASS");
            true
        }
        Some(v) => {
            eprintln!("split gate: FAIL ({v})");
            false
        }
    }
}

fn run_ablation(scale: Scale) {
    for (i, t) in ablation::run_all(scale).into_iter().enumerate() {
        emit(&t, &format!("ablation_{i}.csv"));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_env();
    eprintln!(
        "# scale: {} workers/node, {} records/worker (override via SLASH_WORKERS/SLASH_RECORDS)",
        scale.workers, scale.records
    );

    let cmd = args.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "all" => {
            for q in ["ysb", "cm", "nb7", "nb8", "nb11"] {
                run_fig6(q, scale);
            }
            run_fig7(scale);
            run_fig8ab(scale);
            run_fig8c(scale);
            run_fig8d(scale);
            run_fig9(scale);
            run_fig10(scale);
            run_table1(scale);
            run_ablation(scale);
            run_recovery(scale);
            // Every gate runs before any fails the command.
            if !(run_rescale(scale) & run_split() & run_latency()) {
                std::process::exit(1);
            }
        }
        "fig6" => {
            let query = args
                .iter()
                .position(|a| a == "--query")
                .and_then(|i| args.get(i + 1))
                .map(String::as_str)
                .unwrap_or("ysb");
            run_fig6(query, scale);
        }
        "fig7" => run_fig7(scale),
        "fig8a" | "fig8b" => run_fig8ab(scale),
        "fig8c" => run_fig8c(scale),
        "fig8d" => run_fig8d(scale),
        "fig9" => run_fig9(scale),
        "fig10" => run_fig10(scale),
        "table1" => run_table1(scale),
        "ablation" => run_ablation(scale),
        "recovery" => run_recovery(scale),
        "rescale" => {
            if !run_rescale(scale) {
                std::process::exit(1);
            }
        }
        "split" => {
            if !run_split() {
                std::process::exit(1);
            }
        }
        "latency" => {
            if !run_latency() {
                std::process::exit(1);
            }
        }
        _ => {
            eprintln!(
                "usage: repro <all|fig6 [--query ysb|cm|nb7|nb8|nb11]|fig7|fig8a|fig8b|fig8c|fig8d|fig9|fig10|table1|ablation|recovery|rescale|split|latency>"
            );
            std::process::exit(2);
        }
    }
}
