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
#       FeatureStore caches and the stage chains' buffered blocks. UBSan
#       is built non-recoverable, so a report fails its test, and the
#       standard library's bounds assertions (_GLIBCXX_ASSERTIONS) are on
#   tools/check.sh --surface  builds the nine shipped binaries (sablock_cli,
#       sablock_serve, sablock_bench, the examples, and e2ebench's
#       sablock_e2e from its own CMakeLists.txt) at -O0 with
#       -ffunction-sections -fdata-sections and -Wl,--gc-sections (into
#       build-surface/), and fails when libsablock.a defines a sablock::
#       function that no binary holds and the allowlist below does not
#       name. -O0 keeps a function inlined into every caller visible.
#       What it cannot see: a function defined in a header puts no
#       symbol into libsablock.a unless a library file calls it, and a
#       `case` or branch no caller can select lives inside a function
#       that every run reaches. Unreached code of either kind needs a
#       reading of its callers.
#
# ctest's exit status is captured explicitly and re-raised as the script
# status in every mode, so a test failure can never be masked by `cd`,
# `exit 0` tails, or future edits that append steps after the test run.
set -euo pipefail
cd "$(dirname "$0")/.."

# One job per CPU for both the build and ctest: a bare `-j` gives make no
# limit (a compiler per ready target at once) and gives ctest nothing.
jobs="$(nproc)"

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

# The library functions that may reach no shipped binary, one per line as
# "name|why it stays". Names are matched with their parameter lists and
# ABI tags cut, so one entry covers a function's overloads.
surface_allowlist='
sablock::NormalizeForMatching|the text definition that tests/reference_text.h compares the text writers against
sablock::NormalizeWhitespace|the whitespace step of NormalizeForMatching, the text definition above
sablock::core::SaLshCollisionProbability|the SA-LSH collision formula of Section 5, checked by collision_test
sablock::core::SemSignature::Jaccard|the semantic Jaccard of Proposition 4.3, checked by semhash_test and property_test
sablock::core::SemSignature::PopCount|the signature bit count, checked by semhash_test and paper_examples_test
sablock::data::Dataset::operator=|special member: copy assignment
sablock::service::CandidateClient::CandidateClient|special member: move constructor
sablock::service::CandidateClient::operator=|special member: move assignment
sablock::obs::SpanRecord::SpanRecord|special member: copy constructor, called by the span ring readers
sablock::service::CandidateService::EmitBlocks|the serving parity contract: a service emits the blocks of the batch twin of its index
sablock::obs::Tracer::Recent|span ring reader; ROADMAP item 2 replaces the ring with nested spans
sablock::obs::Tracer::ForTrace|span ring reader; ROADMAP item 2 replaces the ring with nested spans
sablock::obs::Tracer::dropped|span ring reader; ROADMAP item 2 replaces the ring with nested spans
sablock::report::Json::items|report::Json read accessor
sablock::report::Json::members|report::Json read accessor
sablock::report::Json::size|report::Json read accessor
'

# The global (T) and weak (W) functions nested in namespace sablock that
# the given archives or binaries define, demangled, one per line.
sablock_functions() {
  nm --defined-only "$@" |
    awk '($2 == "T" || $2 == "W") && $3 ~ /^_ZN[rVKRO]*7sablock/ {print $3}' |
    c++filt | LC_ALL=C sort -u
}

# Lists the functions of library $1 that none of binaries $2... holds,
# each with its allowlist reason; fails on any the allowlist lacks.
check_surface() {
  local lib="$1"
  shift
  local unreached names
  unreached="$(LC_ALL=C comm -23 <(sablock_functions "$lib") \
                                   <(sablock_functions "$@"))"
  names="$(sed -E 's/\[abi:[^]]*\]//g; s/\(.*$//' <<<"$unreached" |
           LC_ALL=C sort -u)"
  echo "check.sh: $(grep -c . <<<"$unreached" || true) library functions" \
       "reach none of the $# shipped binaries"
  local failed=0 name reason
  while IFS= read -r name; do
    [[ -z "$name" ]] && continue
    reason="$(awk -F'|' -v n="$name" '$1 == n {print $2}' \
              <<<"$surface_allowlist")"
    if [[ -n "$reason" ]]; then
      echo "  allowlisted: $name — $reason"
    else
      echo "  NOT ALLOWLISTED: $name"
      failed=1
    fi
  done <<<"$names"
  if [[ $failed -ne 0 ]]; then
    echo "check.sh: a library function reaches no shipped binary; delete" \
         "it, or name it in the allowlist with its reason" >&2
  fi
  return "$failed"
}

mode="${1:-}"

case "$mode" in
  --tsan)
    cmake -B build-tsan -S . -DSABLOCK_SANITIZE=thread
    cmake --build build-tsan -j "$jobs"
    run_ctest build-tsan -L 'concurrency|service' -j "$jobs"
    ;;
  --asan)
    cmake -B build-asan -S . -DSABLOCK_SANITIZE=address,undefined \
      -DCMAKE_CXX_FLAGS="-fno-sanitize-recover=undefined -D_GLIBCXX_ASSERTIONS"
    cmake --build build-asan -j "$jobs"
    run_ctest build-asan -j "$jobs"
    ;;
  --quick)
    cmake -B build -S .
    cmake --build build -j "$jobs"
    run_ctest build -L 'unit|snapshot|progressive|fuzz' -j "$jobs"
    ;;
  --surface)
    config=(-DCMAKE_BUILD_TYPE=Debug
            "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -ffunction-sections -fdata-sections"
            -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)
    bins=(sablock_cli sablock_serve sablock_bench)
    for example in examples/*.cc; do bins+=("$(basename "$example" .cc)"); done
    cmake -B build-surface -S . -DBUILD_TESTING=OFF "${config[@]}"
    cmake --build build-surface -j "$jobs" --target "${bins[@]}"
    cmake -B build-surface/e2e -S e2ebench "${config[@]}"
    cmake --build build-surface/e2e -j "$jobs" --target sablock_e2e
    check_surface build-surface/libsablock.a "${bins[@]/#/build-surface/}" \
      build-surface/e2e/sablock_e2e
    ;;
  "")
    cmake -B build -S .
    cmake --build build -j "$jobs"
    run_ctest build -j "$jobs"
    ;;
  *)
    echo "usage: tools/check.sh [--quick|--tsan|--asan|--surface]" >&2
    exit 2
    ;;
esac
