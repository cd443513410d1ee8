#!/usr/bin/env bash
# bench.sh — run the benchmark suite and record a BENCH_<date>.json baseline.
#
# The committed BENCH_*.json files are the perf trajectory of this repo:
# every performance PR runs this script and compares its numbers against the
# latest committed record (same machine class, or at least same metric
# definitions). Custom metrics (candidates, evals/s, figure headlines) are
# machine-independent; ns/op is not.
#
# Usage:
#   scripts/bench.sh                 # full suite, 1 iteration per bench
#   BENCH=Lineitem scripts/bench.sh  # only benchmarks matching a pattern
#   BENCHTIME=3x scripts/bench.sh    # more iterations for stabler numbers
#   BENCH=TrojanPartition BENCHTIME=200x scripts/bench.sh
#                                    # a micro benchmark (ms per op and under):
#                                    # one iteration is a cold start, give it many
#   BENCH='O2PShadow|DurableAppendConcurrent' BENCHTIME=300x scripts/bench.sh
#                                    # the two layers of an /observe: the drift
#                                    # shadow (bonds/query) and the WAL commit
#                                    # (fsyncs/append at 1, 2, 8 appenders)
set -euo pipefail
cd "$(dirname "$0")/.."

pattern="${BENCH:-.}"
benchtime="${BENCHTIME:-1x}"
out="BENCH_$(date -u +%Y-%m-%d).json"
if [ "$pattern" != "." ]; then
  # A filtered run is a spot check, not the day's baseline — don't let it
  # overwrite the full record.
  out="BENCH_$(date -u +%Y-%m-%d)_$(echo "$pattern" | tr -c 'A-Za-z0-9' '-' | sed 's/-*$//').json"
fi
txt="$(mktemp)"
trap 'rm -f "$txt"' EXIT

go test -run '^$' -bench "$pattern" -benchtime "$benchtime" ./... | tee "$txt"
go run ./scripts/benchjson < "$txt" > "$out"
echo "wrote $out"
