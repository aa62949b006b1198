#!/usr/bin/env bash
# Repeatability evidence: the full benchmark twice on one build, every
# end-to-end metric of the second set held against the first within the
# bound BENCHMARK.json declares for it (exact metrics: identical).
# Writes out/repeat.json; exits non-zero on a miss. If serve_batch's
# ops_per_s misses, give the run more seconds (more passes), not a wider
# bound:  ./repeat.sh --seconds 20
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline --quiet
exec "${CARGO_TARGET_DIR:-target}/release/polyject-benchmark" repeat "$@"
