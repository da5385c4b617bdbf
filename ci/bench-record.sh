#!/usr/bin/env bash
# Regenerate the perf-trajectory record on this runner. sosbench refuses
# to write the record if the worker-scaling sweep is flat while the record
# claims multiple CPUs, so the write itself re-checks that sharded rounds
# scale; benchguard then re-runs the steady-state regression comparison.
# The record is uploaded as an artifact for cross-runner comparison against
# the committed BENCH_*.json (never committed from CI — runner hardware
# varies run to run).
set -euo pipefail

BASELINE="${BASELINE:-BENCH_PR8.json}"

go run ./cmd/sosbench -fig4 -runs 2 -seed 1 -benchjson /tmp/BENCH_CI.json
cat /tmp/BENCH_CI.json

# benchguard always checks bench output alongside the record; reuse the
# gate's /tmp/bench.txt (same deterministic comparison), regenerating it if
# this script runs standalone.
if [ ! -f /tmp/bench.txt ]; then
  go test -run '^$' -bench '^BenchmarkRound$/^n=1k$' \
    -benchtime 3x -benchmem . > /tmp/bench.txt
fi
go run ./cmd/benchguard -baseline "$BASELINE" -bench /tmp/bench.txt \
  -max-regress 25
