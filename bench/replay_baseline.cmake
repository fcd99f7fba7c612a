# Replays one committed bench baseline in the current directory (the
# `baseline` ctests in bench/CMakeLists.txt run it):
#
#   cmake -DBENCH=<bench binary> -DCOMPARE=<bench_compare>
#         -DBASELINE=<BENCH_x.json> -DREPORT=<file stem> -P replay_baseline.cmake
#
# Runs BENCH with --json-out=REPORT.json and --flight-out=REPORT.flight
# (its stdout goes to REPORT.stdout.txt), then fails unless bench_compare
# finds REPORT.json equal to BASELINE in every simulated value.

file(REMOVE ${REPORT}.json ${REPORT}.flight ${REPORT}.stdout.txt)
execute_process(
  COMMAND ${BENCH} --json-out=${REPORT}.json --flight-out=${REPORT}.flight
  OUTPUT_FILE ${REPORT}.stdout.txt
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} failed (${status}); see ${REPORT}.stdout.txt")
endif()
execute_process(COMMAND ${COMPARE} ${BASELINE} ${REPORT}.json
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${REPORT}.json differs from ${BASELINE}")
endif()
