#!/usr/bin/env bash
# Paired A/B runs of the perf ledger, one process at a time: PAIRS pairs of
# solo runs on one workload, parent and change alternating which runs first
# (odd pairs parent first, even pairs change first), so a drift of the host
# or an order effect falls on both sides alike.
#
#   scripts/ab-same-cpu.sh PARENT_BIN CHANGE_BIN WORKLOAD [PAIRS] [SEED]
#
# PAIRS defaults to 10, SEED to 1 (the ledger's own default). Each run lasts
# 20 s, the benchmark's run length. Build each ledger first (`cargo build
# --release --offline --manifest-path
# crates/bench/src/bin/perf-ledger/Cargo.toml`) and copy the binary aside.
# Pass one binary twice for an A/A test: the noise floor of this host.
#
# Prints every run's four end-to-end metrics and each pair's change/parent
# ratio, then, per metric: the pairs the change won (better by the metric's
# own direction), each side's median with its quartiles, the parent's IQR
# as a share of its median, and the median ratio with a sign-test interval
# (order statistics, at least 95 % coverage from 6 pairs on). The
# benchmark's gain rule reads these: better on at least 9 of 10 pairs, and
# in the median by more than the parent's IQR. Not a gate and not part of
# scripts/ci.sh. Every run must report `"failed": 0`.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 5 ]]; then
    echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD [PAIRS] [SEED]" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 pairs=${4:-10} seed=${5:-1}
for bin in "$parent" "$change"; do
    [[ -x $bin ]] || { echo "$0: $bin is not an executable" >&2; exit 2; }
done
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
metrics=(wall_records_per_s virt_records_per_s peak_rss_mb setup_s)

# One solo run of `$2` as side `$1`; appends "side metric value" rows.
run() {
    local side=$1 bin=$2 line
    "$bin" --workload "$workload" --seed "$seed" --seconds 20 >"$out/log" 2>&1 ||
        { cat "$out/log" >&2; exit 1; }
    line="$(tail -n 1 "$out/log")"
    [[ $line == *'"failed": 0,'* ]] || { echo "$0: failed jobs: $line" >&2; exit 1; }
    for m in "${metrics[@]}"; do
        v="$(sed -n "s/.*\"$m\": {\"value\": \([0-9.eE+-]*\).*/\1/p" <<<"$line")"
        [[ -n $v ]] || { echo "$0: no $m in: $line" >&2; exit 1; }
        echo "$side $m $v" >>"$out/rows"
    done
}

for pair in $(seq 1 "$pairs"); do
    if ((pair % 2)); then
        run parent "$parent"; run change "$change"
    else
        run change "$change"; run parent "$parent"
    fi
    awk -v pair="$pair" -v w="$workload" '
        { v[$1, $2] = $3; if (!($2 in seen)) { seen[$2] = 1; order[++n] = $2 } }
        END {
            printf "%s pair %d:", w, pair
            for (i = 1; i <= n; i++)
                printf "  %s %.5g/%.5g = %.4f", order[i], v["change", order[i]],
                    v["parent", order[i]], v["change", order[i]] / v["parent", order[i]]
            printf "\n"
        }' <(tail -n $((2 * ${#metrics[@]})) "$out/rows")
done

awk -v w="$workload" -v pairs="$pairs" '
    function sort(a, n,   i, j, t) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    # Quantile q of the sorted a[1..n], linear between order statistics.
    function quant(a, n, q,   h, l) {
        h = (n - 1) * q + 1; l = int(h)
        return l >= n ? a[n] : a[l] + (h - l) * (a[l + 1] - a[l])
    }
    {
        k = ++cnt[$1, $2]; val[$1, $2, k] = $3
        if (!($2 in seen)) { seen[$2] = 1; order[++nm] = $2 }
    }
    END {
        # Sign-test interval for the median ratio: ranks r and n + 1 - r,
        # r the largest rank with P(Binomial(n, 1/2) < r) <= 0.025.
        r = 0; tail = 0; c = 1
        for (i = 0; i < pairs; i++) {
            tail += c / 2 ^ pairs
            if (tail > 0.025) break
            r = i + 1; c = c * (pairs - i) / (i + 1)
        }
        for (m = 1; m <= nm; m++) {
            name = order[m]; lower = name ~ /rss|setup/
            won = 0
            for (i = 1; i <= pairs; i++) {
                p[i] = val["parent", name, i]; c2[i] = val["change", name, i]
                ratio[i] = c2[i] / p[i]
                won += lower ? c2[i] < p[i] : c2[i] > p[i]
            }
            sort(p, pairs); sort(c2, pairs); sort(ratio, pairs)
            pm = quant(p, pairs, 0.5); cm = quant(c2, pairs, 0.5)
            printf "%s %s: change won %d/%d pairs; parent median %.5g (q1 %.5g, q3 %.5g, IQR %.2f%%); change median %.5g (q1 %.5g, q3 %.5g); median ratio %.4f",
                w, name, won, pairs, pm, quant(p, pairs, 0.25), quant(p, pairs, 0.75),
                100 * (quant(p, pairs, 0.75) - quant(p, pairs, 0.25)) / pm,
                cm, quant(c2, pairs, 0.25), quant(c2, pairs, 0.75), quant(ratio, pairs, 0.5)
            if (r > 0) printf " (sign-test interval %.4f-%.4f)", ratio[r], ratio[pairs + 1 - r]
            printf "\n"
        }
    }' "$out/rows"
