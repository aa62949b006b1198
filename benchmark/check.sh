#!/usr/bin/env bash
# Smoke for the benchmark package (scripts/ci.sh does not know about it):
# builds offline, runs every workload once end to end and once traced with
# the shortest budget, and fails on a wrong output or on a metric or
# workload name that BENCHMARK.json and the program do not share.
# About two minutes on a 2-core box.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline --quiet
bin="${CARGO_TARGET_DIR:-target}/release/polyject-benchmark"

# Prints every end-to-end metric; exits non-zero on a failed operation, a
# failed check, or a name mismatch against ../BENCHMARK.json.
"$bin" run --all --quick

for workload in compile_cold tune_search serve_warm serve_batch; do
    result="$("$bin" trace "$workload" --quick 2>/dev/null | tail -n 1)"
    case "$result" in
        '{"correct":true,'*) echo "[check] trace $workload ok" ;;
        *) echo "[check] trace $workload failed: $result" >&2; exit 1 ;;
    esac
    test -s "out/trace_$workload.json"
done
echo "[check] ok"
