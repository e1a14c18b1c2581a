#!/usr/bin/env bash
# Builds the release tree and runs the bench-regression harness, the
# serving sections of bench_search and the probe-set microbench (its
# add-plus-drain sweep), merging all three into
# one machine-readable report (default BENCH_PR10.json in the repo root).
#
#   scripts/run_bench.sh [out.json] [extra bench_regression flags...]
#
# Compare the report against the committed one from the previous PR to
# catch hot-path regressions; docs/performance.md describes the
# bench_regression schema and the micro_intersect section, and
# docs/serving.md the serving sections (serving_cold_start, serving_qps,
# serving_instrumentation, serving_write_path, serving_delta_search,
# serving_sharded, serving_network).
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
out="${1:-$repo/BENCH_PR10.json}"
shift || true

cmake -B "$repo/build" -S "$repo" >/dev/null
cmake --build "$repo/build" --target bench_regression bench_search bench_micro_intersect \
  -j "$(nproc)"

regression="$(mktemp /tmp/bench_regression.XXXXXX.json)"
serving="$(mktemp /tmp/bench_serving.XXXXXX.json)"
intersect="$(mktemp /tmp/bench_intersect.XXXXXX.json)"
"$repo/build/bench/bench_regression" --out "$regression" "$@"
"$repo/build/bench/bench_search" --out "$serving"
"$repo/build/bench/bench_micro_intersect" --out "$intersect"

python3 - "$regression" "$serving" "$intersect" "$out" <<'EOF'
import json, sys
merged = {}
for path in sys.argv[1:4]:
    with open(path) as f:
        merged.update(json.load(f))
with open(sys.argv[4], "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
EOF
rm -f "$regression" "$serving" "$intersect"
echo "report: $out"
