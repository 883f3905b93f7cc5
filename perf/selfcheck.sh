#!/usr/bin/env bash
# Checks the benchmark against itself, from the repo root or anywhere:
#   1. BENCHMARK.json is what the metric table generates (`perf manifest`
#      also validates names, units, counts and every `moves` entry);
#   2. two smoke runs (same n, same ops, tiny op counts) agree on every
#      exact metric;
#   3. so does the committed baseline, perf/baseline.tsv.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --manifest-path perf/Cargo.toml
perf="${CARGO_TARGET_DIR:-perf/target}/release/perf"

"$perf" manifest | diff - BENCHMARK.json
"$perf" run --smoke >/dev/null
mv perf/out/smoke.tsv perf/out/smoke1.tsv
"$perf" run --smoke >/dev/null
"$perf" compare --exact-only perf/out/smoke1.tsv perf/out/smoke.tsv
"$perf" compare --exact-only perf/baseline.tsv perf/out/smoke.tsv
echo "selfcheck: ok"
