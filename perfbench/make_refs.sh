#!/bin/sh
# Regenerate the reference digests in perfbench/refs/, one file per
# workload, for seeds FIRST..LAST (default 0..40). Run from the root of the
# repository, and only when a change alters simulated results on purpose.
#
#   sh perfbench/make_refs.sh [FIRST LAST]
set -eu
first=${1:-0}
last=${2:-40}
build=${CARGO_TARGET_DIR:-.bench_build}
DUNE_CACHE=disabled dune build --root . --profile release --build-dir "$build" \
  ./perfbench/src/main.exe
exe="$build/default/perfbench/src/main.exe"

refs() {
  for s in $(seq "$first" "$last"); do
    "$exe" --workload "$1" --seed "$s" --digests
  done > "perfbench/refs/$1.txt.tmp"
  mv "perfbench/refs/$1.txt.tmp" "perfbench/refs/$1.txt"
}

# Two workloads at a time.
refs paper-8c & a=$!
refs serve-lin & b=$!
wait $a
wait $b
refs scale-256c & a=$!
refs repro-pool & b=$!
wait $a
wait $b
