#!/usr/bin/env bash
# Runs the CUDA text polyject ships: `cuda_dump` writes the Table II twins'
# artifacts (isl, novec, infl, and infl tiled where tiling changes the
# text) plus the fixtures under tests/fixtures/, with seeded inputs and
# the reference interpreter's outputs; g++ compiles them under
# scripts/cuda_shim/ with AddressSanitizer and UBSan, many kernels per
# translation unit; the driver runs each kernel with its blocks and
# threads in forward and in reversed order and compares every tensor
# (f32 bit for bit, f16 against the reference rounded to f16).
#
# Usage: scripts/cuda_run.sh [work-dir]   (default: a temp dir, removed after)
set -euo pipefail
cd "$(dirname "$0")/.."
if [ $# -gt 0 ]; then
  work="$1"
  mkdir -p "$work"
else
  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
fi
cargo run --release -q -p polyject-bench --bin cuda_dump -- "$work" tests/fixtures/*.pj
flags=(-std=c++17 -O1 -g0 -fsanitize=address,undefined -fno-sanitize-recover=all
  -Wall -Werror -Wno-unused-variable -Iscripts/cuda_shim -I"$work")
cp scripts/cuda_shim/driver.cpp "$work/"
ls "$work"/tu*.cpp "$work/driver.cpp" \
  | xargs -P 2 -I{} sh -c 'g++ "$@" -c "{}" -o "{}.o"' _ "${flags[@]}"
g++ "${flags[@]}" "$work"/*.o -o "$work/driver"
"$work/driver" "$work"
