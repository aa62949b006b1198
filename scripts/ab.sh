#!/usr/bin/env bash
# Same-hour A/B of one benchmark workload: a git revision (a) against the
# working tree (b).
#
#   scripts/ab.sh <rev> <workload> [pairs=10]
#
# Checks <rev> out into a temporary `git worktree` under ${TMPDIR:-/tmp}
# (removed on exit), builds the `benchmark` package of both trees offline
# in release, then runs <pairs> alternating pairs (odd pairs a first, even
# pairs b first), each run `--seed 7 --seconds 15`. Prints one JSON line:
# for every end-to-end metric of BENCHMARK.json, each side's median and
# [q1, q3], the median of the paired ratios b/a, and b's wins k/N in the
# metric's `better` direction (a tie is no win). A metric one side does
# not report is listed under "missing", never read as zero. Reads
# BENCHMARK.json; edits no tracked file.
set -euo pipefail
if [ $# -lt 2 ]; then
  echo "usage: $0 <rev> <workload> [pairs=10]" >&2
  exit 2
fi
rev=$1 workload=$2 pairs=${3:-10}
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
cleanup() {
  git -C "$root" worktree remove --force "$tmp/a" 2>/dev/null || true
  git -C "$root" worktree prune
  rm -rf "$tmp"
}
trap cleanup EXIT
git -C "$root" worktree add --quiet --detach "$tmp/a" "$rev"

# Each side builds into a target directory of its own.
build() { cargo build --release --offline --quiet --manifest-path "$1/Cargo.toml" --target-dir "$2"; }
build "$tmp/a/benchmark" "$tmp/target"
build "$root/benchmark" "$root/benchmark/target"
declare -A bin=([a]="$tmp/target/release/polyject-benchmark"
  [b]="$root/benchmark/target/release/polyject-benchmark")

for i in $(seq 1 "$pairs"); do
  order="a b"
  [ $((i % 2)) = 0 ] && order="b a"
  for side in $order; do
    "${bin[$side]}" --workload "$workload" --seed 7 --seconds 15 --trace 0 \
      2>"$tmp/$side.$i.log" | tail -n 1 >"$tmp/$side.$i.json" ||
      { cat "$tmp/$side.$i.log" >&2; exit 1; }
  done
done

python3 - "$root/BENCHMARK.json" "$tmp" "$rev" "$workload" "$pairs" <<'EOF'
import json, statistics, sys
spec, tmp, rev, workload, pairs = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4], int(sys.argv[5])
runs = {s: [json.load(open(f"{tmp}/{s}.{i}.json")) for i in range(1, pairs + 1)] for s in "ab"}
def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return {"median": q[1], "q1": q[0], "q3": q[2]}
out = {"rev": rev, "workload": workload, "pairs": pairs, "missing": [],
       "correct": {s: all(r["correct"] and r["failed"] == 0 for r in runs[s]) for s in "ab"},
       "metrics": {}}
for m in json.load(open(spec))["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    vals = {s: [r["metrics"].get(name, {}).get("value") for r in runs[s]] for s in "ab"}
    if any(v is None for s in "ab" for v in vals[s]):
        out["missing"].append(name)
        continue
    a, b = vals["a"], vals["b"]
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    ratios = [y / x for x, y in zip(a, b) if x != 0]
    out["metrics"][name] = {
        "a": quartiles(a), "b": quartiles(b),
        "ratio_median": statistics.median(ratios) if ratios else None,
        "wins": f"{wins}/{pairs}"}
print(json.dumps(out, separators=(",", ":")))
EOF
