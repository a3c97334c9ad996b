//! `repro`'s exit codes on the failures CI must not pass: an artifact that
//! cannot be written (1, or the stale checked-in copy would pass the
//! `git diff` check) and a broken `SLO.toml` (2, or a budget would go
//! unchecked).

use std::path::{Path, PathBuf};
use std::process::Output;

/// A fresh working directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slash_repro_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn repro(cwd: &Path, args: &[&str], results: &Path) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(cwd)
        .env("SLASH_RESULTS", results)
        .env("SLASH_RECORDS", "500")
        .env("SLASH_WORKERS", "1")
        .output()
        .unwrap()
}

fn checked_in_slo(dir: &Path) {
    std::fs::copy(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../SLO.toml"),
        dir.join("SLO.toml"),
    )
    .unwrap();
}

#[test]
fn a_csv_that_cannot_be_written_fails_the_command() {
    let dir = scratch("csv");
    // A file where the results directory should be.
    let results = dir.join("results");
    std::fs::write(&results, "").unwrap();
    let out = repro(&dir, &["fig7"], &results);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("could not write"), "{stderr}");
}

#[test]
fn a_report_that_cannot_be_written_fails_the_command() {
    let dir = scratch("json");
    checked_in_slo(&dir);
    // A directory where the report should be.
    std::fs::create_dir_all(dir.join("BENCH_latency.json")).unwrap();
    let out = repro(&dir, &["latency"], &dir.join("results"));
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("could not write BENCH_latency.json"),
        "{stderr}"
    );
}

#[test]
fn a_broken_slo_file_exits_2() {
    let dir = scratch("slo");
    let results = dir.join("results");
    for fig in ["latency", "rescale"] {
        // Missing.
        let out = repro(&dir, &[fig], &results);
        assert_eq!(out.status.code(), Some(2), "{fig}: missing SLO.toml");
        // A stall budget TOML accepts but the reader's subset does not.
        std::fs::write(
            dir.join("SLO.toml"),
            "[rescale]\nmigration_stall_ns = 1_000_000\n",
        )
        .unwrap();
        let out = repro(&dir, &[fig], &results);
        assert_eq!(out.status.code(), Some(2), "{fig}: unparsed budget");
        std::fs::remove_file(dir.join("SLO.toml")).unwrap();
    }
    // A stage budget that names no reported stage.
    std::fs::write(
        dir.join("SLO.toml"),
        "[ysb]\nno_such_stage_p50 = 1\n[rescale]\nmigration_stall_ns = 1000000\n",
    )
    .unwrap();
    let out = repro(&dir, &["latency"], &results);
    assert_eq!(out.status.code(), Some(2), "unknown stage");
}
