#!/usr/bin/env bash
# Performance + determinism gate for CI.
#
# Regenerates the quick benchmark sweeps and fails if any of:
#   1. the emitted BENCH documents (all registered experiments plus every
#      scenarios/*.toml workload spec) or the `bench simcheck` transcripts
#      listed in SIMCHECKS drift byte-for-byte from the committed baselines
#      in results/baselines/ (determinism regression: the output must be a
#      pure function of experiment, scale, and seeds), or
#   2. the e2/e5 quick sweep wall time regresses more than
#      PERF_GATE_TOLERANCE percent (default 25) against the committed timing
#      baseline, or
#   3. the timer-wheel scheduler loses its throughput edge over the
#      binary-heap baseline on the fan-out microbench (ratio below
#      PERF_GATE_MIN_SPEEDUP, default 1.1).
#
# The E3 one-simulated-second criterion median is printed beside its
# committed baseline for the record; it is not gated.
#
# Wall-clock numbers are recorded in results/TIMING_current.json — kept
# strictly outside the BENCH documents so those stay byte-reproducible.
#
# Usage:
#   scripts/perf_gate.sh                     # run the gate
#   scripts/perf_gate.sh --update-baselines  # re-bless baselines (after an
#                                            # intentional output change)
set -euo pipefail

cd "$(dirname "$0")/.."

TOLERANCE="${PERF_GATE_TOLERANCE:-25}"
MIN_SPEEDUP="${PERF_GATE_MIN_SPEEDUP:-1.1}"
BASELINES=results/baselines
ALL_EXPS="e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 e14 e15"
# File-registered scenario specs ride the same determinism gates: every
# scenarios/<name>.toml sweeps to results/BENCH_scenario_<name>.json and is
# held to the byte-identity bar of the eN experiments.
SCENARIOS=""
SCENARIO_ARGS=()
for f in scenarios/*.toml; do
    [ -e "$f" ] || continue
    name=$(basename "$f" .toml)
    SCENARIOS="$SCENARIOS scenario_$name"
    SCENARIO_ARGS+=(--scenario "$f")
done
# simcheck transcripts held byte-identical: "<name>|<bench simcheck args>"
# writes results/SIMCHECK_<name>.txt.
SIMCHECKS=(
    "seed7|--seed 7 --cases 200"
    "pooled|--seed 11 --cases 25 --pooled 12"
    "stress|--seed 7 --cases 50 --scenario scenarios/stress.toml"
)
UPDATE=0
for arg in "$@"; do
    case "$arg" in
        --update-baselines) UPDATE=1 ;;
        *)
            echo "unknown argument: $arg" >&2
            exit 2
            ;;
    esac
done

run() {
    echo "==> $*"
    "$@"
}

now_ms() {
    echo $(($(date +%s%N) / 1000000))
}

run cargo build --release --offline -q -p metaclass-bench --bin bench
BENCH=target/release/bench
mkdir -p results "$BASELINES"

# --- wall time: best of three e2/e5 runs, to shrug off scheduler noise ------
e2_ms=""
e5_ms=""
for _ in 1 2 3; do
    rm -f results/BENCH_e2.json results/BENCH_e5.json
    t0=$(now_ms)
    "$BENCH" --exp e2 --seeds 4 --quick --json > /dev/null
    t1=$(now_ms)
    "$BENCH" --exp e5 --seeds 4 --quick --json > /dev/null
    t2=$(now_ms)
    d2=$((t1 - t0))
    d5=$((t2 - t1))
    if [ -z "$e2_ms" ] || [ "$d2" -lt "$e2_ms" ]; then e2_ms=$d2; fi
    if [ -z "$e5_ms" ] || [ "$d5" -lt "$e5_ms" ]; then e5_ms=$d5; fi
done
echo "==> sweep wall time: e2=${e2_ms}ms e5=${e5_ms}ms"

# --- fresh quick sweeps (the determinism source of truth) -------------------
bench_files=""
for exp in $ALL_EXPS $SCENARIOS; do
    bench_files="$bench_files results/BENCH_$exp.json"
done
# shellcheck disable=SC2086  # word-splitting the file list is intentional
rm -f $bench_files
run "$BENCH" --exp all --seeds 4 --quick --json > /dev/null
if [ "${#SCENARIO_ARGS[@]}" -gt 0 ]; then
    run "$BENCH" "${SCENARIO_ARGS[@]}" --seeds 4 --quick --json > /dev/null
fi
# shellcheck disable=SC2086
run "$BENCH" --validate $bench_files scenarios/*.toml
simcheck_files=""
for entry in "${SIMCHECKS[@]}"; do
    name=${entry%%|*}
    out="results/SIMCHECK_$name.txt"
    simcheck_files="$simcheck_files $out"
    echo "==> $BENCH simcheck ${entry#*|} > $out"
    # A failing exploration exits non-zero; its transcript then differs from
    # the baseline, which gate 1 reports.
    # shellcheck disable=SC2086
    "$BENCH" simcheck ${entry#*|} > "$out" || true
done

# --- scheduler microbench: wheel must beat the heap baseline ----------------
run cargo bench --offline -p metaclass-netsim --bench sched -- sched_fanout
median_ns() {
    sed -n 's/.*"median_ns": \([0-9.]*\).*/\1/p' "$1"
}
wheel_ns=$(median_ns target/criterion/sched_fanout/wheel/stream_100x100/estimates.json)
heap_ns=$(median_ns target/criterion/sched_fanout/heap/stream_100x100/estimates.json)

# --- E3 macrobench: one simulated second, recorded but not gated -----------
run cargo bench --offline -p metaclass-bench --bench simulation -- e3_one_second
e3_ns=$(median_ns target/criterion/session/e3_one_second/estimates.json)

printf '{\n  "e2_quick_ms": %s,\n  "e5_quick_ms": %s,\n  "e3_one_second_ns": %s\n}\n' \
    "$e2_ms" "$e5_ms" "${e3_ns:-0}" > results/TIMING_current.json

e3_base=$(sed -n 's/.*"e3_one_second_ns": \([0-9.]*\).*/\1/p' "$BASELINES/TIMING_baseline.json")
if [ -n "$e3_ns" ] && [ -n "$e3_base" ] && [ "$e3_base" != 0 ]; then
    awk -v n="$e3_ns" -v b="$e3_base" -v c="$(nproc 2>/dev/null || echo 1)" 'BEGIN {
        printf "==> E3 one simulated second: %.1fms (baseline %.1fms, %+.1f%%, %s cores)\n",
            n / 1e6, b / 1e6, (n - b) * 100 / b, c }'
fi

if [ "$UPDATE" -eq 1 ]; then
    # shellcheck disable=SC2086
    cp $bench_files $simcheck_files "$BASELINES/"
    cp results/TIMING_current.json "$BASELINES/TIMING_baseline.json"
    echo "==> baselines updated in $BASELINES/"
    exit 0
fi

fail=0

# --- gate 1: byte-identical sweep documents ---------------------------------
for exp in $ALL_EXPS $SCENARIOS; do
    if ! cmp -s "$BASELINES/BENCH_$exp.json" "results/BENCH_$exp.json"; then
        echo "FAIL: results/BENCH_$exp.json drifted from $BASELINES/BENCH_$exp.json" >&2
        echo "      (determinism regression, or an intentional change needing" >&2
        echo "       scripts/perf_gate.sh --update-baselines)" >&2
        fail=1
    else
        echo "==> BENCH_$exp.json byte-identical to baseline"
    fi
done
for out in $simcheck_files; do
    base="$BASELINES/$(basename "$out")"
    if ! cmp -s "$base" "$out"; then
        echo "FAIL: $out drifted from $base" >&2
        fail=1
    else
        echo "==> $(basename "$out") byte-identical to baseline"
    fi
done

# --- gate 2: sweep wall time ------------------------------------------------
for exp in e2 e5; do
    cur_var="${exp}_ms"
    cur=${!cur_var}
    base=$(sed -n "s/.*\"${exp}_quick_ms\": \([0-9]*\).*/\1/p" \
        "$BASELINES/TIMING_baseline.json")
    if [ -z "$base" ]; then
        echo "FAIL: no ${exp}_quick_ms in $BASELINES/TIMING_baseline.json" >&2
        fail=1
        continue
    fi
    # Integer-ms floor: under ~40 ms the granularity eats the tolerance.
    limit=$(((base + 40) * (100 + TOLERANCE) / 100))
    if [ "$cur" -gt "$limit" ]; then
        echo "FAIL: $exp quick sweep took ${cur}ms > ${limit}ms" \
            "(baseline ${base}ms + ${TOLERANCE}% tolerance)" >&2
        fail=1
    else
        echo "==> $exp wall time ${cur}ms within ${limit}ms budget"
    fi
done

# --- gate 3: wheel vs heap ratio --------------------------------------------
if [ -z "$wheel_ns" ] || [ -z "$heap_ns" ]; then
    echo "FAIL: missing criterion estimates for the sched_fanout benches" >&2
    fail=1
else
    ratio=$(awk -v h="$heap_ns" -v w="$wheel_ns" 'BEGIN { printf "%.2f", h / w }')
    ok=$(awk -v r="$ratio" -v m="$MIN_SPEEDUP" 'BEGIN { print (r >= m) ? 1 : 0 }')
    if [ "$ok" -ne 1 ]; then
        echo "FAIL: wheel/heap fan-out speedup ${ratio}x < required ${MIN_SPEEDUP}x" >&2
        fail=1
    else
        echo "==> wheel beats heap ${ratio}x on fan-out (>= ${MIN_SPEEDUP}x)"
    fi
fi

if [ "$fail" -ne 0 ]; then
    echo "==> perf gate FAILED" >&2
    exit 1
fi
echo "==> perf gate passed"
