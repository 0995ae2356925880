#!/usr/bin/env bash
# CI perf gate: compare a BENCH_run.json against the checked-in baseline.
#
# Fails (exit 1) on any simulated miss-count drift, any drift in the
# gated profile counters (Q-set evictions and WCG/TRG edge counts), a
# total wall-time regression beyond the slack, or a per-experiment
# records/sec drop below the throughput floor (a percentage of the
# baseline's records_per_sec metric — refreshing the baseline ratchets
# the floor); exit 2 on missing/malformed inputs. The comparison logic
# lives in `tempo-bench check-regression` — this wrapper only builds the
# binary and forwards arguments.
#
# Usage: scripts/check_bench_regression.sh [current.json] [baseline.json] [slack_pct] [floor_pct]
set -euo pipefail
cd "$(dirname "$0")/.."

CURRENT="${1:-BENCH_run.json}"
BASELINE="${2:-results/bench_baseline.json}"
SLACK="${3:-20}"
FLOOR="${4:-70}"

cargo build --release -p tempo-bench

exec ./target/release/tempo-bench check-regression \
  --current "$CURRENT" --baseline "$BASELINE" \
  --wall-slack "$SLACK" --throughput-floor "$FLOOR"
