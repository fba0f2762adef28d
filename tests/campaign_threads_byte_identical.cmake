# Runs the campaign_sim example spec (-DSPEC=<path>) through ftdb_campaign
# (-DCAMPAIGN=<path>) at one and at four threads: the two JSON reports must be
# byte-identical. Blocks of one cell run on different threads, each with its
# own healthy simulator, whose router the stretch audit also borrows.
#
#   cmake -DCAMPAIGN=build/tools/ftdb_campaign -DSPEC=examples/specs/campaign_sim.json \
#         -P tests/campaign_threads_byte_identical.cmake
cmake_minimum_required(VERSION 3.16)

set(reports "")
foreach(threads 1 4)
  set(report "${CMAKE_CURRENT_BINARY_DIR}/campaign_sim_threads${threads}.json")
  file(REMOVE "${report}")
  execute_process(
    COMMAND "${CAMPAIGN}" run --spec "${SPEC}" --threads ${threads} --out "${report}" --quiet
    ERROR_VARIABLE errors
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "ftdb_campaign --threads ${threads} exited ${status}: ${errors}")
  endif()
  list(APPEND reports "${report}")
endforeach()

list(GET reports 0 serial)
list(GET reports 1 threaded)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${serial}" "${threaded}"
  RESULT_VARIABLE differ)
file(READ "${serial}" bytes)
file(REMOVE ${reports})
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "the --threads 1 and --threads 4 reports differ")
endif()
string(LENGTH "${bytes}" size)
if(size EQUAL 0)
  message(FATAL_ERROR "ftdb_campaign wrote an empty report")
endif()
message(STATUS "--threads 1 and --threads 4 reports are byte-identical (${size} bytes)")
