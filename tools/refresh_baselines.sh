#!/usr/bin/env bash
# Regenerates the committed drift baselines (bench/baselines/) by running
# every report-producing bench at default scale with --json-out. It is
# the only writer of those files; the `baseline` ctests only read them.
# One command, from the repo root:
#
#   tools/refresh_baselines.sh [build-dir]
#
# Run it after any change that intentionally shifts simulated counters or
# figure values, eyeball `git diff bench/baselines/` to confirm the shift
# is the one you meant to make, and commit the result. A report holds
# simulated values only, and bench_compare compares every one of them.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

if [[ ! -d "${BUILD_DIR}/bench" ]]; then
  echo "error: ${BUILD_DIR}/bench not found; build first:" >&2
  echo "  cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j" >&2
  exit 1
fi

BENCHES=(
  bench_table2_storage
  bench_fig7_search_time
  bench_fig8_io
  bench_fig9_scalability
  bench_fig10_frame_time
  bench_fig11_fidelity
  bench_fig12_sessions
  bench_table3_frame_stats
  bench_ablations
)

# Verify every binary exists before writing anything: a partial refresh
# (some baselines from this build, some stale) would slip through the
# baseline tests looking like an intentional shift.
missing=0
for bench in "${BENCHES[@]}"; do
  if [[ ! -x "${BUILD_DIR}/bench/${bench}" ]]; then
    echo "error: ${BUILD_DIR}/bench/${bench} is missing or not executable" >&2
    missing=1
  fi
done
if (( missing )); then
  echo "error: refusing to write a partial baseline set; build everything" >&2
  echo "  cmake --build ${BUILD_DIR} -j" >&2
  exit 1
fi

mkdir -p bench/baselines
for bench in "${BENCHES[@]}"; do
  out="bench/baselines/BENCH_${bench#bench_}.json"
  echo "== ${bench} -> ${out}"
  HDOV_BENCH_SCALE=default "${BUILD_DIR}/bench/${bench}" --json-out="${out}" \
    >/dev/null
done
echo "done; review with: git diff bench/baselines/"
