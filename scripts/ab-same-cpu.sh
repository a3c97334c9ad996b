#!/usr/bin/env bash
# Paired A/B sizing aid for the perf ledger: run two built ledgers at the
# same time, on one workload, and print each rep's wall-rate ratio
# (change / parent) and the median ratio.
#
#   scripts/ab-same-cpu.sh PARENT_BIN CHANGE_BIN WORKLOAD [REPS] [SEED]
#
# REPS defaults to 4, SEED to 1. Each run lasts 20 s, the benchmark's run
# length.
# Build each ledger first (`cargo build --release --offline --manifest-path
# crates/bench/src/bin/perf-ledger/Cargo.toml`) and copy the binary aside.
#
# Every ledger pins itself to the highest-numbered CPU it may use, so the
# two processes share that one core and the host's noise hits both alike.
# They time-slice the core: the ratio ranks two builds, but the rates are
# not solo rates, and this does not replace solo runs. It is not a gate
# and not part of scripts/ci.sh.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 5 ]]; then
    echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD [REPS] [SEED]" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 reps=${4:-4} seed=${5:-1}
for bin in "$parent" "$change"; do
    [[ -x $bin ]] || { echo "$0: $bin is not an executable" >&2; exit 2; }
done
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

# The wall rate from a ledger's result line (its last line of output).
wall_rate() {
    tail -n 1 "$1" | sed -n 's/.*"wall_records_per_s": {"value": \([0-9.eE+-]*\).*/\1/p'
}

ratios=()
for rep in $(seq 1 "$reps"); do
    args=(--workload "$workload" --seed "$seed" --seconds 20)
    "$parent" "${args[@]}" >"$out/parent" 2>&1 &
    parent_pid=$!
    "$change" "${args[@]}" >"$out/change" 2>&1 &
    change_pid=$!
    wait "$parent_pid" || { cat "$out/parent" >&2; exit 1; }
    wait "$change_pid" || { cat "$out/change" >&2; exit 1; }
    a="$(wall_rate "$out/parent")" b="$(wall_rate "$out/change")"
    if [[ -z $a || -z $b ]]; then
        echo "$0: rep $rep: no wall_records_per_s in a result line" >&2
        exit 1
    fi
    ratio="$(awk -v a="$a" -v b="$b" 'BEGIN { printf "%.3f", b / a }')"
    ratios+=("$ratio")
    printf '%s seed %s rep %s: parent %.4g  change %.4g  ratio %s\n' \
        "$workload" "$seed" "$rep" "$a" "$b" "$ratio"
done
printf '%s\n' "${ratios[@]}" | sort -g | awk -v w="$workload" -v s="$seed" '
    { r[NR] = $1 }
    END {
        m = (NR % 2) ? r[(NR + 1) / 2] : (r[NR / 2] + r[NR / 2 + 1]) / 2
        printf "%s seed %s: median ratio %.3f over %d reps\n", w, s, m, NR
    }'
