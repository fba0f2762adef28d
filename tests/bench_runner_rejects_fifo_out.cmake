# Points bench_runner's --out at a FIFO (-DBENCH_RUNNER=<path>): the JSON
# write must fail, the run must exit non-zero, and the FIFO must stay in
# place. A write that opened the FIFO would block until the test's timeout.
#
#   cmake -DBENCH_RUNNER=build/bench/bench_runner -P tests/bench_runner_rejects_fifo_out.cmake
cmake_minimum_required(VERSION 3.16)

set(dir "${CMAKE_CURRENT_BINARY_DIR}/bench_runner_fifo_out")
file(REMOVE_RECURSE "${dir}")
file(MAKE_DIRECTORY "${dir}")
set(fifo "${dir}/BENCH_fifo.json")
execute_process(COMMAND mkfifo "${fifo}" RESULT_VARIABLE made)
if(NOT made EQUAL 0)
  message(FATAL_ERROR "mkfifo ${fifo} failed: ${made}")
endif()

execute_process(
  COMMAND "${BENCH_RUNNER}" --filter perf_campaign/draw_iid_n4096 --out "${fifo}"
  OUTPUT_VARIABLE output
  ERROR_VARIABLE errors
  RESULT_VARIABLE status)
execute_process(COMMAND test -p "${fifo}" RESULT_VARIABLE still_fifo)
file(REMOVE_RECURSE "${dir}")

if(status EQUAL 0)
  message(FATAL_ERROR "bench_runner exited 0 writing to a FIFO: ${output}")
endif()
if(NOT still_fifo EQUAL 0)
  message(FATAL_ERROR "bench_runner replaced the FIFO at ${fifo}")
endif()
if(output MATCHES "wrote ")
  message(FATAL_ERROR "bench_runner claimed a write it did not make: ${output}")
endif()
message(STATUS "bench_runner refused the FIFO (exit ${status}): ${errors}")
