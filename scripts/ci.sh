#!/usr/bin/env bash
# Offline CI gate: formatting, lints, rustdoc with warnings denied, the
# tier-1 verify (build + tests; tests/identity_gates.rs holds Table II's
# exact outputs there: both golden CSVs byte for byte, every solver
# count equal to the checked-in snapshot, overflow escalations at or
# under a fixed ceiling), the
# workspace tests,
# an offline build of the standalone benchmark package and a --quick run
# of its four workloads (outputs correct, no operation failed), a
# seeded fault-injection chaos gate, a
# budget smoke (deadline, ILP nodes, pivots, cancel), a polyjectd daemon smoke test (remote
# replies byte-identical to local; four requests built to crash the daemon
# each answered with an error, the daemon alive after; a tuning that
# polyjectc persists into the daemon's cache directory replayed with zero
# search by a second polyjectc run and applied to the daemon's next
# compile of that kernel), the multi-node router chaos gate
# (>=200 injected faults across a 3-daemon fleet, zero corruption,
# same-seed replays identical), and a 3-node router smoke (cold compile
# through the router, a batched CLI leg with in-batch dedup plus
# fleet-aggregated stats, owner shard killed, warm hit served by its
# replica with zero solver work, the owner's cache directory then serving
# that kernel cached to a restarted daemon and indexing exactly its files),
# and a size gate (crates/serve/src's non-test lines under a ceiling).
# Right after clippy, a public-surface gate (scripts/surface.py) checks
# that every export below serving has a caller outside its crate.
# Only what needs processes, sockets or the benchmark package lives
# here; what a test can check, tier-1 checks. Tuning's session
# amortisation is gated by tests/tune_sessions.rs and a hit's freedom
# from polls by tests/daemon_integration.rs, both run above.
#
# Everything here works without network access; fmt/clippy are skipped
# with a notice if the toolchain components are missing.

set -euo pipefail
cd "$(dirname "$0")/.."

step() { echo; echo "=== $* ==="; }

step "cargo fmt --check"
if cargo fmt --version >/dev/null 2>&1; then
  cargo fmt --all -- --check
else
  echo "rustfmt unavailable; skipping"
fi

step "cargo clippy -D warnings"
if cargo clippy --version >/dev/null 2>&1; then
  cargo clippy --workspace --all-targets --release -- -D warnings
else
  echo "clippy unavailable; skipping"
fi

step "public-surface gate (ROADMAP item 28): every export below serving has an outside caller"
# Every pub item of the ten crates below serving needs a use outside its
# crate in non-test code, or a line with its reason in
# scripts/surface.allow (at most 20 names).
python3 scripts/surface.py

step "cargo doc -D warnings (no dangling intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

step "tier-1 verify: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

step "workspace tests (every crate, incl. serve daemon/cache suites)"
cargo test --workspace -q

step "benchmark package builds against the crates (standalone workspace, offline)"
# benchmark/ is its own workspace, so nothing above compiles it: a
# renamed serve/bench API would otherwise break it unseen until the
# benchmark pipeline runs.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
echo "ok: benchmark/ builds unmodified against the current public APIs"
# The outside judge's output checks, run inside: each workload verifies
# what it produced (every schedule legal, scaled-down twins executed
# against the reference interpreter, passes repeating exactly) and says
# so on its result line. PR 18 passed every gate below and failed these.
for workload in compile_cold tune_search serve_warm serve_batch; do
  result="$("${CARGO_TARGET_DIR:-benchmark/target}/release/polyject-benchmark" \
    --workload "$workload" --quick --trace 0 | tail -n 1)"
  case "$result" in
    '{"correct":true,'*'"failed":0,'*) echo "ok: benchmark $workload --quick: correct, 0 failed" ;;
    *) echo "benchmark $workload --quick: $result" >&2; exit 1 ;;
  esac
done

step "solver identity gate (integer tableau / warm start / FM vs references)"
cargo test --release -q -p polyject-sets --test differential
echo "ok: rewritten solver paths agree with retained rational references"

step "seeded chaos gate (cache I/O + socket-frame fault injection)"
cargo test --release -q -p polyject-serve --test chaos
echo "ok: >=200 injected faults, no hangs, no corruption served, replay byte-identical"

step "budget smoke (deadline, ILP-node and pivot caps, cancel flag)"
cargo test --release -q -p polyject-sets --test budget
cargo test --release -q -p polyject-core --lib budget_degradation
echo "ok: an exhausted deadline, ILP-node or pivot cap degrades down the ladder; cancel leaves no partial state"

step "polyjectd daemon smoke (remote == local, cache hit on repeat)"
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"; kill "${daemon_pid:-0}" "${router_pid:-0}" ${shard_pids[*]:-} ${restart_pid:-} 2>/dev/null || true' EXIT
sock="$scratch/d.sock"
cargo run --release -q -p polyject-serve --bin polyjectd -- \
  --socket "$sock" --cache-dir "$scratch/dcache" >"$scratch/daemon.out" &
daemon_pid=$!
for _ in $(seq 1 100); do [ -S "$sock" ] && break; sleep 0.1; done
[ -S "$sock" ] || { echo "daemon never bound $sock"; exit 1; }
pjc() { cargo run --release -q -p polyject-serve --bin polyjectc -- "$@"; }
src=examples/running_example.pj
pjc "$src" --config infl --emit cuda > "$scratch/local.out"
pjc "$src" --config infl --emit cuda --remote "$sock" > "$scratch/remote1.out"
# The repeat is a reformatted copy (blank lines, doubled spaces, no
# comments): the client sends the canonical text it keyed, so it is the
# same cache hit.
sed -e '/^[[:space:]]*#/d' -e 's/ /  /g' -e 'G' "$src" > "$scratch/reformatted.pj"
if cmp -s "$src" "$scratch/reformatted.pj"; then echo "reformatting changed nothing"; exit 1; fi
pjc "$scratch/reformatted.pj" --config infl --emit cuda --remote "$sock" > "$scratch/remote2.out"
cmp "$scratch/local.out" "$scratch/remote1.out"
cmp "$scratch/remote1.out" "$scratch/remote2.out"
cargo run --release -q -p polyject-serve --bin polyject-cache -- "$scratch/dcache" stats \
  | grep -q '"entries":1'
# Four requests that each used to take the process down (a stack
# overflow in a recursive parser aborts it; a surrogate pair was decoded
# unchecked) or must be refused before any allocation: every one is
# answered `status: error` by a daemon that then still answers, having
# had no panic to recover from.
python3 - "$sock" <<'EOF'
import json, socket, struct, sys
def ask(body, prefix=None):
    s = socket.socket(socket.AF_UNIX)
    s.settimeout(30)
    s.connect(sys.argv[1])
    s.sendall((struct.pack(">I", len(body)) if prefix is None else prefix) + body)
    def read(n):
        buf = b""
        while len(buf) < n:
            chunk = s.recv(n - len(buf))
            assert chunk, "daemon hung up without answering"
            buf += chunk
        return buf
    return json.loads(read(struct.unpack(">I", read(4))[0]))
MAX_FRAME = 64 << 20
head = "kernel k\nparam N = 8\ntensor A[N]: f32\ntensor B[N]: f32\nstmt S for (i in 0..N) B[i] = "
deep = {"op": "compile", "config": "infl", "src": head + "(" * 5000 + "A[i]" + ")" * 5000 + "\n"}
for what, reply in [
    ("a frame of 20000 '['", ask(b"[" * 20000)),
    ("a bad surrogate pair", ask(rb'{"op":"ping","note":"\ud800\u0041"}')),
    ("a length prefix of MAX_FRAME + 1", ask(b"", struct.pack(">I", MAX_FRAME + 1))),
    ("a source nesting 5000 parentheses", ask(json.dumps(deep).encode())),
]:
    assert reply["status"] == "error", (what, reply)
    print(f"   {what}: {reply['message'][:64]}")
assert ask(b'{"op":"ping"}')["pong"] is True
assert ask(b'{"op":"stats"}')["governance"]["panics_recovered"] == 0
EOF
echo "ok: four malformed requests answered with errors; daemon alive, no panic recovered"
# The daemon never tunes; tuning is an explicit step. A tuned-config entry
# that polyjectc persists into the live daemon's directory redirects the
# daemon's next compile of that kernel, which then matches the local
# tuned compile byte for byte.
pjc "$src" --config infl --tune --cache-dir "$scratch/dcache" --emit cuda \
  | sed '/^\[tune\] /d' > "$scratch/tuned-local.out"
# A second tune of the same kernel replays the persisted entry, zero search.
pjc "$src" --config infl --tune --cache-dir "$scratch/dcache" --emit cuda > "$scratch/retune.out"
grep -q '^\[tune\] .* cached=true$' "$scratch/retune.out"
cargo run --release -q -p polyject-serve --bin polyject-cache -- "$scratch/dcache" stats \
  | grep -q 'tuned-config'
pjc "$src" --config infl --emit cuda --remote "$sock" > "$scratch/tuned-remote.out"
cmp "$scratch/tuned-local.out" "$scratch/tuned-remote.out"
kill -TERM "$daemon_pid"
wait "$daemon_pid"
# The final stats report: the repeat is the one hit, and the tuned
# redirect was applied once, compiling under its own key (the second miss).
python3 - "$scratch/daemon.out" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
stats, gov = report["stats"], report["governance"]
assert (stats["hits"], stats["misses"]) == (1, 2), stats
assert gov["tuned_applied"] == 1, gov
EOF
echo "ok: remote replies byte-identical to local, second request cached,"
echo "    a tuning persisted by polyjectc --tune replayed with zero search and applied"
echo "    by the daemon sharing its cache"

step "router chaos gate (3-node fleet: >=200 faults, zero corruption, replay identical)"
cargo test --release -q -p polyject-serve --test router_chaos
echo "ok: hedged/retried/failed-over under multi-node chaos; no corrupt artifact served"

step "3-node router smoke (cold via router, owner killed, warm hit via replica)"
shard_pids=()
for i in 0 1 2; do
  cargo run --release -q -p polyject-serve --bin polyjectd -- \
    --socket "$scratch/shard$i.sock" --cache-dir "$scratch/shard$i-cache" \
    >"$scratch/shard$i.out" &
  shard_pids+=($!)
done
for i in 0 1 2; do
  for _ in $(seq 1 100); do [ -S "$scratch/shard$i.sock" ] && break; sleep 0.1; done
  [ -S "$scratch/shard$i.sock" ] || { echo "shard $i never bound"; exit 1; }
done
# --hot-threshold 1: the first serve of a key immediately replicates it,
# so a single cold compile is enough to survive the owner's death.
cargo run --release -q -p polyject-serve --bin polyject-router -- \
  --socket "$scratch/router.sock" --hot-threshold 1 \
  --shard "$scratch/shard0.sock" --shard "$scratch/shard1.sock" \
  --shard "$scratch/shard2.sock" >"$scratch/router.out" 2>/dev/null &
router_pid=$!
for _ in $(seq 1 100); do [ -S "$scratch/router.sock" ] && break; sleep 0.1; done
[ -S "$scratch/router.sock" ] || { echo "router never bound"; exit 1; }
pjc "$src" --config infl --emit cuda --remote "$scratch/router.sock" > "$scratch/cold.out"
cmp "$scratch/local.out" "$scratch/cold.out"
pjcache() { cargo run --release -q -p polyject-serve --bin polyject-cache -- "$@"; }
# Batched CLI leg through the router: the same kernel three times in one
# batch file — one round trip, all three answered, two items deduped
# in-batch on the owning daemon (the kernel is already cached, so the
# fleet's miss count stays untouched for the owner probe below).
# Comments are stripped so the three copies are textually identical:
# in-batch dedup keys on the submitted source, not the canonical form.
sed '/^[[:space:]]*#/d' "$src" > "$scratch/one.pj"
cat "$scratch/one.pj" "$scratch/one.pj" "$scratch/one.pj" > "$scratch/batch.pj"
pjc --batch "$scratch/batch.pj" --config infl --remote "$scratch/router.sock" \
  > "$scratch/batch.out"
grep -q '3 kernel(s), 3 ok, 0 failed, 1 round trip(s)' "$scratch/batch.out"
# Fleet-wide stats aggregation over a comma-separated endpoint list: the
# totals must show the batch the daemons served.
pjcache stats --remote "$scratch/shard0.sock,$scratch/shard1.sock,$scratch/shard2.sock" \
  > "$scratch/fleet-stats.json"
python3 - "$scratch/fleet-stats.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["status"] == "ok" and doc["reachable"] == 3, doc
t = doc["totals"]["stats"]
assert t["batch_requests"] >= 1, t
assert t["batch_items"] >= 3, t
assert t["batch_dedup_hits"] >= 2, t
assert len(doc["per_shard"]) == 3, doc
print(f"   fleet totals: batch_requests {t['batch_requests']}, "
      f"batch_items {t['batch_items']}, batch_dedup_hits {t['batch_dedup_hits']}")
EOF
echo "ok: polyjectc --batch via router (1 round trip), fleet stats aggregated"
# The owner is the only shard that compiled (sole miss); kill it hard.
# `stats --remote` prints the fleet schema for one endpoint as for three.
shard_stat() { python3 -c '
import json, sys
print(json.load(open(sys.argv[1]))["per_shard"][0]["stats"][sys.argv[2]])' "$@"; }
owner=""
for i in 0 1 2; do
  pjcache stats --remote "$scratch/shard$i.sock" > "$scratch/shard$i-stats.json"
  if [ "$(shard_stat "$scratch/shard$i-stats.json" misses)" = 1 ]; then
    owner=$i
  fi
done
[ -n "$owner" ] || { echo "no shard reported the cold-compile miss"; exit 1; }
kill -KILL "${shard_pids[$owner]}" 2>/dev/null
wait "${shard_pids[$owner]}" 2>/dev/null || true
pjc "$src" --config infl --emit cuda --remote "$scratch/router.sock" > "$scratch/warm.out"
cmp "$scratch/cold.out" "$scratch/warm.out"
# The router must report the failover + the warm hit, and a survivor must
# have served the key from its replica copy with zero solver work.
pjcache stats --remote "$scratch/router.sock" > "$scratch/router-stats.json"
for i in 0 1 2; do
  [ "$i" = "$owner" ] && continue
  pjcache stats --remote "$scratch/shard$i.sock" > "$scratch/shard$i-stats.json"
done
python3 - "$scratch" "$owner" <<'EOF'
import json, sys
scratch, owner = sys.argv[1], sys.argv[2]
fleet = json.load(open(f"{scratch}/router-stats.json"))
assert fleet["status"] == "ok" and fleet["reachable"] == 1, fleet
router = fleet["per_shard"][0]
assert sum(s["failovers"] for s in router["shards"]) >= 1, router
assert sum(s["cache_hits"] for s in router["shards"]) >= 1, router
warm = 0
for i in "012":
    if i == owner:
        continue
    s = json.load(open(f"{scratch}/shard{i}-stats.json"))["per_shard"][0]["stats"]
    if s["hits"] >= 1 and s["misses"] == 0:
        warm += 1
assert warm >= 1, "no survivor served the key warm with zero solver work"
print(f"   owner shard{owner} killed; replica served warm (zero solver work)")
EOF
# The SIGKILLed owner's cache dir must still verify clean (atomic writes).
# Its puts' index rows were appended to index.log and never compacted.
owner_cache="$scratch/shard$owner-cache"
[ -f "$owner_cache/index.log" ] || { echo "killed shard left no index.log"; exit 1; }
pjcache "$owner_cache" verify
# A daemon restarted over that directory serves the kernel compiled before
# the kill from cache, and the reconciled index counts exactly what
# entries/ holds: no row lost to the kill, none invented.
cargo run --release -q -p polyject-serve --bin polyjectd -- \
  --socket "$scratch/restart.sock" --cache-dir "$owner_cache" >"$scratch/restart.out" &
restart_pid=$!
for _ in $(seq 1 100); do [ -S "$scratch/restart.sock" ] && break; sleep 0.1; done
[ -S "$scratch/restart.sock" ] || { echo "restarted shard never bound"; exit 1; }
pjc --batch "$scratch/one.pj" --config infl --remote "$scratch/restart.sock" \
  > "$scratch/restart-batch.out"
grep -q '^\[0\] ok .* cached' "$scratch/restart-batch.out" \
  || { cat "$scratch/restart-batch.out"; echo "restarted shard recompiled"; exit 1; }
kill -TERM "$restart_pid"
wait "$restart_pid"
pjcache "$owner_cache" stats > "$scratch/restart-stats.json"
python3 - "$owner_cache" "$scratch/restart-stats.json" <<'EOF'
import json, os, sys
entries = os.path.join(sys.argv[1], "entries")
stats = json.load(open(sys.argv[2]))
sizes = [os.path.getsize(os.path.join(entries, f)) for f in os.listdir(entries)]
assert (stats["entries"], stats["bytes"]) == (len(sizes), sum(sizes)), (stats, sizes)
print(f"   restarted owner: cached hit; index {len(sizes)} entries, {sum(sizes)} bytes = entries/")
EOF
echo "ok: cold compile via router, owner killed, warm hit via replica; dead shard's cache intact"
echo "    and served cached after a restart, its index equal to entries/"

step "size gate (ROADMAP item 1): crates/serve/src non-test line count"
# The serving tier may shrink, never grow: lower the ceiling with any
# change that deletes serve code. Lines are split per file as in the
# report below: a test module (a `mod` item under `#[cfg(test)]` or
# `#[cfg(all(test, ...))]`) counts as test lines, from its attribute to its
# closing `}` in column 0 (rustfmt's); every other line is non-test, so a
# unit test added in `crates/serve/src` does not count against the ceiling
# and an item placed after a test module does. A `#[cfg(test)]` on a single item, such as
# tableau.rs's test-only pivot cap override, does not split the file. The
# other crates' counts are printed only, then the sums.
serve_ceiling=6809
split_lines() {
  find "$1" -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { t = 0; cfg = 0 }
    !t && cfg && /^(pub(\(crate\))? )?mod / { t = 1; n[0]--; n[1]++ }
    { n[t]++; cfg = /^#\[cfg\((test|all\(test, .*\))\)\]$/ }
    t && /^}/ { t = 0 }
    END { printf "%d %d\n", n[0], n[1] }'
}
code_sum=0
test_sum=0
for dir in crates/*/src; do
  read -r code tests < <(split_lines "$dir")
  echo "$dir: $code non-test lines, $tests test lines"
  code_sum=$((code_sum + code))
  test_sum=$((test_sum + tests))
done
echo "crates/*/src: $code_sum non-test lines, $test_sum test lines"
read -r serve_lines _ < <(split_lines crates/serve/src)
if [ "$serve_lines" -gt "$serve_ceiling" ]; then
  echo "crates/serve/src: $serve_lines non-test lines, above the ceiling of $serve_ceiling" >&2
  exit 1
fi
echo "ok: crates/serve/src: $serve_lines non-test lines (ceiling $serve_ceiling)"
echo
echo "CI gate passed."
