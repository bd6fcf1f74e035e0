#!/usr/bin/env bash
# Builds the library + tests under ThreadSanitizer and runs the
# concurrency-sensitive suites. Usage:
#   scripts/tsan.sh [build_dir] [ctest_regex]
# The default regex covers the thread pool, the parallel kernels, the
# cross-thread determinism tests, the Monte-Carlo error transform's
# thread-count cases, the price-serving stress suites (republish-under-load
# RCU swaps), and the networked serving suites (epoll server + concurrent
# TCP clients under live republish); pass '.' to run everything (slow).
set -euo pipefail

BUILD_DIR="${1:-build-tsan}"
FILTER="${2:-ThreadPool|ParallelFor|ParallelConfig|Parallel|EmpiricalTransform|Serving|Snapshot|Net|Catalog|Intern|Cluster}"

cmake -B "$BUILD_DIR" -S "$(dirname "$0")/.." \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DMBP_SANITIZE=thread \
  -DMBP_BUILD_BENCHMARKS=OFF \
  -DMBP_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j "$(nproc)"

# halt_on_error: fail the test at the first race, not at exit.
# tsan.supp: known libstdc++ atomic<shared_ptr> false positive (see file).
SUPP="$(cd "$(dirname "$0")" && pwd)/tsan.supp"
TSAN_OPTIONS="halt_on_error=1 suppressions=$SUPP" \
  ctest --test-dir "$BUILD_DIR" --output-on-failure -R "$FILTER"
