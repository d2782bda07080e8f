#!/usr/bin/env bash
# AddressSanitizer + UndefinedBehaviorSanitizer job: builds a separate
# tree with the sanitizers and libstdc++ assertions on, then runs the
# engine, walk, EXPLAIN ANALYZE, slot-code executor, front-end fuzz,
# storage and harness suites with a 4-worker pool and leak checking on.
# Any report fails the job.
#
# Usage: tools/run_asan.sh [build-dir]   (default: build-asan)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-asan}"
FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined"
FLAGS="$FLAGS -D_GLIBCXX_ASSERTIONS -g -O1"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="$FLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" \
  -DCMAKE_SHARED_LINKER_FLAGS="-fsanitize=address,undefined"
cmake --build "$BUILD_DIR" -j "$(nproc)" --target \
  engine_test walk_test parallel_determinism_test explain_analyze_test \
  eval_test stmt_interp_test frontend_robustness_test \
  integration_incremental_test min_counting_test distributed_test \
  vertex_store_test graph_store_property_test harness_test

export ASAN_OPTIONS="detect_leaks=1 abort_on_error=1 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="print_stacktrace=1 ${UBSAN_OPTIONS:-}"
export ITG_THREADS=4

# Anchored, as in run_tsan.sh: an unanchored "engine" would also select
# alert_engine_test, which this script does not build.
ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R '^(engine|walk|parallel_determinism|explain_analyze|eval|stmt_interp|frontend_robustness|integration_incremental|min_counting|distributed|vertex_store|graph_store_property|harness)_test$'
