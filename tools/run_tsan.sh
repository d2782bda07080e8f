#!/usr/bin/env bash
# ThreadSanitizer job for the parallel walk executor: builds a separate
# tree with -fsanitize=thread and runs the thread-pool, engine (lineage
# included), incremental and parallel-determinism tests with an 8-worker
# pool so the work-stealing and shared-buffer-pool paths actually
# race-test.
#
# Usage: tools/run_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DITG_TSAN=ON -DCMAKE_BUILD_TYPE=Debug
cmake --build "$BUILD_DIR" -j "$(nproc)" --target \
  thread_pool_test parallel_determinism_test engine_test \
  integration_incremental_test

# halt_on_error: fail the job on the first data race.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
export ITG_THREADS=8

# Anchored: an unanchored "engine" would also select alert_engine_test,
# which this script does not build.
ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R '^(thread_pool|parallel_determinism|engine|integration_incremental)_test$'
