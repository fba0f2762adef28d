# Runs the campaign_sim example spec (-DSPEC=<path>) through ftdb_campaign
# (-DCAMPAIGN=<path>) as one elastic worker at four threads, then merges its
# directory: the merged JSON report must byte-equal a plain run at one
# thread. Each leased cell is one 64-trial block, which the worker's four
# threads measure as trial chunks.
#
#   cmake -DCAMPAIGN=build/tools/ftdb_campaign -DSPEC=examples/specs/campaign_sim.json \
#         -P tests/campaign_elastic_byte_identical.cmake
cmake_minimum_required(VERSION 3.16)

set(dir "${CMAKE_CURRENT_BINARY_DIR}/campaign_sim_elastic")
set(serial "${CMAKE_CURRENT_BINARY_DIR}/campaign_sim_elastic_serial.json")
set(merged "${CMAKE_CURRENT_BINARY_DIR}/campaign_sim_elastic_merged.json")
file(REMOVE_RECURSE "${dir}")
file(REMOVE "${serial}" "${merged}")

function(run_campaign)
  execute_process(
    COMMAND "${CAMPAIGN}" ${ARGN}
    ERROR_VARIABLE errors
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "ftdb_campaign ${ARGN} exited ${status}: ${errors}")
  endif()
endfunction()

run_campaign(run --spec "${SPEC}" --threads 1 --out "${serial}" --quiet)
run_campaign(run --spec "${SPEC}" --elastic "${dir}" --no-fsync --threads 4 --quiet)
run_campaign(merge --elastic "${dir}" --out "${merged}")

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${serial}" "${merged}"
  RESULT_VARIABLE differ)
file(READ "${serial}" bytes)
file(REMOVE_RECURSE "${dir}")
file(REMOVE "${serial}" "${merged}")
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "the elastic --threads 4 report differs from the --threads 1 report")
endif()
string(LENGTH "${bytes}" size)
if(size EQUAL 0)
  message(FATAL_ERROR "ftdb_campaign wrote an empty report")
endif()
message(STATUS "elastic --threads 4 and plain --threads 1 reports are byte-identical (${size} bytes)")
