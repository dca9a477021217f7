#!/usr/bin/env bash
# Benchmark runner: builds the release-bench preset (Release + LTO) and runs
# the ablation benches, each of which writes its machine-readable
# BENCH_<name>.json registry snapshot into the chosen output directory.
#
#   scripts/bench.sh                 # run every bench_ablation_* binary
#   scripts/bench.sh engine frames   # run only the named ablations
#   BENCH_OUT=docs/bench scripts/bench.sh   # snapshot destination (default .)
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
out="${BENCH_OUT:-.}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

echo "== configure + build (release-bench preset) =="
cmake --preset release-bench >/dev/null
cmake --build --preset release-bench -j "$jobs"

names=("$@")
if [[ ${#names[@]} -eq 0 ]]; then
  names=(engine frames sockets striping convert compression concurrency
         streaming overload smallmsg compression_wan bulk_handler)
fi

repo="$PWD"
for name in "${names[@]}"; do
  bin="$repo/build-bench/bench/bench_ablation_${name}"
  # The shoot-out benches are not ablations; map their names directly.
  # "concurrency" includes the c10k saturation ladder (1k/4k/10k
  # connections against the sharded event server) in full mode.
  if [[ "$name" == "concurrency" || "$name" == "streaming" ||
        "$name" == "overload" || "$name" == "smallmsg" ||
        "$name" == "compression_wan" || "$name" == "bulk_handler" ]]; then
    bin="$repo/build-bench/bench/bench_${name}"
  fi
  if [[ ! -x "$bin" ]]; then
    echo "bench.sh: no such bench: $bin" >&2
    exit 1
  fi
  echo "== bench_ablation_${name} =="
  # Run from the output directory: the harness writes BENCH_*.json into cwd.
  (cd "$out" && "$bin")
done

echo "bench.sh: snapshots in $out/BENCH_*.json"
