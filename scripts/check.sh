#!/usr/bin/env bash
# One-shot quality gate: formatting, lints, and the full test suite.
# Usage: scripts/check.sh [--offline]
#
# Pass --offline (or set CARGO_NET_OFFLINE=true) to forbid registry access,
# e.g. on air-gapped CI runners with a pre-warmed cargo cache.
set -euo pipefail

cd "$(dirname "$0")/.."

CARGO_FLAGS=()
for arg in "$@"; do
    case "$arg" in
        --offline) CARGO_FLAGS+=(--offline) ;;
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

run cargo fmt --all -- --check
run cargo clippy --workspace --all-targets "${CARGO_FLAGS[@]}" -- -D warnings
run cargo test --workspace -q "${CARGO_FLAGS[@]}"

# Smoke-test the sweep harness end to end: quick 4-seed sweeps of one
# analytic (e5), one simulation-backed (e2), and the flash-crowd overload
# experiment (e15, which self-checks goodput and queue bounds in-module),
# then validate the emitted documents against the schema (unknown/missing
# fields are errors).
run cargo build "${CARGO_FLAGS[@]}" -p metaclass-bench --bin bench
BENCH=target/debug/bench
# Drop stale sweep output first so --validate always sees this run's bytes.
rm -f results/BENCH_e5.json results/BENCH_e2.json results/BENCH_e15.json
run "$BENCH" --exp e5 --seeds 4 --quick --json
run "$BENCH" --exp e2 --seeds 4 --quick --json
run "$BENCH" --exp e15 --seeds 4 --quick --json
run "$BENCH" --validate results/BENCH_e5.json results/BENCH_e2.json \
    results/BENCH_e15.json

# Simcheck smoke: a small seeded exploration of random fault schedules with
# every invariant oracle attached — including the overload oracles
# (queue-bounds, admitted-liveness, shed-ladder-discipline), which every
# scenario's flash-crowd phase engages. Exit code 1 means an oracle fired.
run "$BENCH" simcheck --seed 7 --cases 25

# Scenario-matrix smoke: sweep a canonical file-registered workload spec
# and run the composed-stress spec (scripted faults + flash crowd) through
# the simcheck oracles. The full byte-identity matrix lives in perf_gate.sh
# and the scenario-matrix CI job; this catches a broken expander or spec
# parse early.
rm -f results/BENCH_scenario_lab.json
run "$BENCH" --scenario scenarios/lab.toml --seeds 4 --quick --json
run "$BENCH" --validate results/BENCH_scenario_lab.json scenarios/*.toml
run "$BENCH" simcheck --seed 7 --cases 10 --scenario scenarios/stress.toml

echo "==> all checks passed"
