#!/usr/bin/env bash
# Full verification gate for the workspace. Run from anywhere inside the
# repo; every step is offline and deterministic. Order is cheapest-first
# so failures surface fast.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> [1/15] build (release, all targets)"
cargo build --release --workspace

echo "==> [2/15] tests (unit + integration + fixtures + mutations)"
cargo test --workspace -q

echo "==> [3/15] clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> [4/15] rustdoc (workspace docs, broken intra-doc links are errors)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --workspace --no-deps --quiet

echo "==> [5/15] slash-lint (custom static analysis, burn-down allowlist)"
cargo run --release -p slash-verify --bin slash-lint

echo "==> [6/15] slash-race (schedule exploration smoke: 128 tie-breaks)"
# Sweeps all ten families, including the hot-split-recovery and
# hot-split-handoff families (salted sub-key traffic interleaved with a
# crash or planned cutover; convergence checks the canonical-plus-
# sub-keys fold against the unsalted oracle).
cargo run --release -p slash-verify --bin slash-race -- --seeds 128

echo "==> [7/15] flight recorder (planted bug must be caught and dumped)"
# Each planted-bug dump must carry the registry snapshot (counters,
# gauges, histograms at failure time), not just the event ring.
flight_out="$(cargo run --release -p slash-verify --bin slash-race -- --mutation ignore-credit-window)"
grep -q "registry snapshot" <<<"$flight_out"
flight_out="$(cargo run --release -p slash-verify --bin slash-race -- --mutation regress-vclock)"
grep -q "registry snapshot" <<<"$flight_out"
echo "flight recorder: both planted bugs caught, dumps include registry snapshots"

echo "==> [8/15] traced example (deterministic trace, validated JSON)"
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
SLASH_TRACE_OUT="$trace_dir/a.json" cargo run --release --example ysb_pipeline >/dev/null
SLASH_TRACE_OUT="$trace_dir/b.json" cargo run --release --example ysb_pipeline >/dev/null
cmp "$trace_dir/a.json" "$trace_dir/b.json"
echo "trace: two same-seed runs byte-identical"
cargo run --release -p slash-verify --bin slash-trace-check -- "$trace_dir/a.json"

echo "==> [9/15] chaos suite (every fault type recovers to the no-fault state)"
cargo run --release --bin chaos-suite

echo "==> [10/15] recovery golden trace (failover example, byte-identical + validated)"
SLASH_TRACE_OUT="$trace_dir/f_a.json" cargo run --release --example failover >/dev/null
SLASH_TRACE_OUT="$trace_dir/f_b.json" cargo run --release --example failover >/dev/null
cmp "$trace_dir/f_a.json" "$trace_dir/f_b.json"
echo "recovery trace: two same-seed chaos runs byte-identical"
cargo run --release -p slash-verify --bin slash-trace-check -- "$trace_dir/f_a.json"

echo "==> [11/15] hot-path perf smoke (wall-clock combiner gate + zipf split sweep)"
# Exits non-zero if the combiner-on hot loop is below 1.3x the
# per-record path on ysb_hot, or if any workload's on/off state digests
# diverge. --zipf adds the skew sweep:
# ysb_zipf_keyed over theta in {0, 0.5, 0.9, 1.1, 1.5} with hot-key
# splitting on vs off — split-on must reach 1.5x at theta=1.1 and every
# swept config must be bit-exact (results + state digests) vs unsplit.
# The rows are wall-clock: the fresh run goes to the scratch dir, the
# checked-in BENCH_hotpath.json is refreshed by hand (EXPERIMENTS.md).
cargo run --release -p slash-bench --bin hotpath-bench -- --quick --zipf --out "$trace_dir/hotpath.json"

echo "==> [12/15] exhaustive model checker (bounded DFS over same-instant schedules)"
# Enumerates every distinct same-instant schedule of the 2-node
# FIFO/credit scenario (literal, dedup-free pass must drain the frontier
# with zero pruning) plus the single-crash recovery, single-handoff
# rescale-small, and single-crash-with-split-key hot-split-small
# scenarios (complete under state-digest dedup). The binary encodes the
# coverage floors and fails on any regression or on silent frontier
# truncation; a truncated scenario must fall back to the random sweep and
# still come back clean.
mkdir -p results
cargo run --release -p slash-verify --bin slash-race -- \
    --exhaustive --minimize --out results/race_coverage.json
echo "race coverage report: results/race_coverage.json"
# Planted mutants must fall to the exhaustive explorer with a minimized
# reproducing schedule, not just to the random sweep.
cargo run --release -p slash-verify --bin slash-race -- \
    --exhaustive --minimize --mutation skip-credit-return >/dev/null
cargo run --release -p slash-verify --bin slash-race -- \
    --exhaustive --minimize --mutation reorder-delivered >/dev/null
echo "exhaustive: both planted mutants caught and minimized"

echo "==> [13/15] tail-latency SLO gate (per-stage p99.99 budgets + regression vs baseline)"
# Deterministic latency bench: fixed-seed ysb/nb7 under the simulator,
# per-stage histograms (source, channel_transit, ssb_apply, window_close,
# epoch_merge, result_emit) plus end-to-end. The gate fails on any
# SLO.toml budget breach or on a quantile regressing past
# regression_factor x the checked-in BENCH_latency.json baseline.
cargo run --release -p slash-bench --bin latency-bench -- \
    --out "$trace_dir/latency.json" --slo SLO.toml --baseline BENCH_latency.json
cargo run --release -p slash-verify --bin slash-trace-check -- --latency "$trace_dir/latency.json"
cmp "$trace_dir/latency.json" BENCH_latency.json
echo "latency: fresh run byte-identical to checked-in baseline"
# A planted 10x ssb_apply regression must trip the gate and dump the
# flight recorder (breaching stage breakdown + registry snapshot).
if plant_out="$(cargo run --release -p slash-bench --bin latency-bench -- \
    --out "$trace_dir/latency_plant.json" --slo SLO.toml \
    --baseline BENCH_latency.json --plant ssb_apply=10 2>&1)"; then
    echo "SLO gate FAILED to catch a planted 10x ssb_apply regression" >&2
    exit 1
fi
grep -q "flight-recorder dump" <<<"$plant_out"
grep -q "registry snapshot" <<<"$plant_out"
echo "latency: planted 10x ssb_apply regression caught with flight dump"

echo "==> [14/15] elastic rescale gate (diurnal bench, golden trace)"
# The diurnal 4->8->4 scale-out-and-back bench: zero lost records, results
# and state digests bit-exact vs a static run of the same curve, zero
# aborted migrations, full spread at peak, full pack-in at the end, and
# worst cutover stall within the SLO.toml [rescale] budget. Writes
# BENCH_rescale.json + results/rescale.csv.
cargo run --release -p slash-bench --bin repro -- rescale
# The rescale example is a golden trace: same seed, same curve, same
# migration timeline, byte-identical Chrome trace JSON.
SLASH_TRACE_OUT="$trace_dir/r_a.json" cargo run --release --example rescale >/dev/null
SLASH_TRACE_OUT="$trace_dir/r_b.json" cargo run --release --example rescale >/dev/null
cmp "$trace_dir/r_a.json" "$trace_dir/r_b.json"
echo "rescale trace: two same-seed elastic runs byte-identical"
cargo run --release -p slash-verify --bin slash-trace-check -- "$trace_dir/r_a.json"

echo "==> [15/15] thread-per-core backend (sim-vs-threaded digest smoke)"
# The threaded runtime makes no schedule-determinism promises, but final
# state must be bit-identical to the deterministic simulator for the same
# seed and workload. Release-mode run of the equivalence suite (2 seeds x
# 2 workloads plus threaded self-consistency and the concurrent-obs merge
# stress).
cargo test --release -p slash-exec -q

# Every artifact the gate rewrites in place is deterministic: a green run
# leaves the tree clean, and one that moved fails here, loudly.
git diff --exit-code -- 'BENCH_*.json' results/

echo "ci: all gates green"
