#!/usr/bin/env bash
# Builds the tree under a sanitizer and runs its tests:
#
#   tools/sanitize.sh asan [build-dir]   ASan + UBSan, the whole ctest suite
#   tools/sanitize.sh tsan [build-dir]   TSan, the concurrency suites and a
#                                        four-thread precompute smoke run
#
# Both are Debug builds that stop at the first report. The build directory
# defaults to build-asan / build-tsan under the current directory. Run it
# from the repository root; it exits non-zero when a build, a test or the
# smoke run fails.

set -euo pipefail

# The suites whose code runs on more than one thread: the thread pool, the
# parallel precompute, the sharded buffer pool (the "BufferPool" pattern
# covers its concurrent-Get and flight-retarget races), the atomic and
# mutexed telemetry primitives and a registry snapshot under mutation, the
# thread-local trace context and the slow-frame capture, the concurrent
# file-device reads, the server's multi-session scheduler, the prefetch
# pipeline and its queue, and the walkthrough systems whose resident sets
# the async prefetcher's predicate reads on the frame thread.
readonly TSAN_TESTS="ThreadPool|Precompute|PushOutOfObjects|BufferPool|Counter|Gauge|Histogram|TraceRecorder|MetricsRegistry|FlightRecorder|TraceContext|SlowFrame|ServerTest|Prefetch|FetchQueue|FilePageDeviceTest.ConcurrentRawReads|Walkthrough|SearchPin|ResidentSet"

mode="${1:-}"
case "${mode}" in
  asan) sanitizers=address,undefined ;;
  tsan) sanitizers=thread ;;
  *)
    echo "usage: $0 asan|tsan [build-dir]" >&2
    exit 2
    ;;
esac
dir="${2:-build-${mode}}"
jobs="$(nproc)"

cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=${sanitizers} -fno-sanitize-recover=all" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=${sanitizers}"
cmake --build "${dir}" -j"${jobs}"

if [[ "${mode}" == asan ]]; then
  ctest --test-dir "${dir}" --output-on-failure -j"${jobs}"
else
  ctest --test-dir "${dir}" --output-on-failure -j"${jobs}" -R "${TSAN_TESTS}"
  "${dir}/bench/bench_fig9_scalability" --threads=4
fi
