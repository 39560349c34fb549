#!/usr/bin/env bash
# Tier-1 verification: configure + build + ctest, failing on first error.
# Mirrors the command in ROADMAP.md exactly.
#
# Modes:
#   tools/check.sh           full: configure, build, whole test suite
#   tools/check.sh --quick   fast local iteration: build + the unit-,
#       snapshot-, progressive- and fuzz-labelled tests only (skips the slow
#       golden reproductions and the multi-threaded concurrency tests — run
#       the full suite or the sanitizer modes before shipping)
#   tools/check.sh --tsan    builds with -DSABLOCK_SANITIZE=thread (into
#       build-tsan/) and runs the concurrency- and service-labelled
#       tests — thread pool, sharded execution engine and its merge,
#       feature store, the block pipeline, and the candidate server's
#       concurrent insert/query traffic — under ThreadSanitizer
#   tools/check.sh --asan    builds with -DSABLOCK_SANITIZE=address,undefined
#       (into build-asan/) and runs the full test suite under ASan+UBSan —
#       the memory-safety gate for the arena-backed Dataset, the
#       FeatureStore caches and the stage chains' buffered blocks
#
# ctest's exit status is captured explicitly and re-raised as the script
# status in every mode, so a test failure can never be masked by `cd`,
# `exit 0` tails, or future edits that append steps after the test run.
set -euo pipefail
cd "$(dirname "$0")/.."

# Runs ctest in $1 with the remaining args; propagates its exit status.
run_ctest() {
  local build_dir="$1"
  shift
  local rc=0
  (cd "$build_dir" && ctest --output-on-failure "$@") || rc=$?
  if [[ $rc -ne 0 ]]; then
    echo "check.sh: ctest failed in $build_dir (exit $rc)" >&2
  fi
  return "$rc"
}

mode="${1:-}"

case "$mode" in
  --tsan)
    cmake -B build-tsan -S . -DSABLOCK_SANITIZE=thread
    cmake --build build-tsan -j
    run_ctest build-tsan -L 'concurrency|service'
    ;;
  --asan)
    cmake -B build-asan -S . -DSABLOCK_SANITIZE=address,undefined
    cmake --build build-asan -j
    run_ctest build-asan -j
    ;;
  --quick)
    cmake -B build -S .
    cmake --build build -j
    run_ctest build -L 'unit|snapshot|progressive|fuzz' -j
    ;;
  "")
    cmake -B build -S .
    cmake --build build -j
    run_ctest build -j
    ;;
  *)
    echo "usage: tools/check.sh [--quick|--tsan|--asan]" >&2
    exit 2
    ;;
esac
