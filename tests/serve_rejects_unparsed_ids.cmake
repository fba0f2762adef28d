# Pipes commands with missing, malformed and out-of-range node ids into
# ftdb_serve (-DSERVE=<path>): each must answer "error ..." and leave the
# state hash unchanged, while a well-formed fault afterwards does change it.
#
#   cmake -DSERVE=build/tools/ftdb_serve -P tests/serve_rejects_unparsed_ids.cmake
cmake_minimum_required(VERSION 3.16)

set(bad_commands
  "fault"
  "fault x"
  "fault 3abc"
  "fault -1"
  "fault 4294967296"
  "fault link 1"
  "fault bus"
  "repair"
  "repair x"
  "route 3"
  "bare-route 3 y")
list(LENGTH bad_commands bad_count)

set(input "hash\n")
foreach(command IN LISTS bad_commands)
  string(APPEND input "${command}\nhash\n")
endforeach()
string(APPEND input "fault 3\nhash\nquit\n")
set(input_file "${CMAKE_CURRENT_BINARY_DIR}/serve_rejects_unparsed_ids.in")
file(WRITE "${input_file}" "${input}")

execute_process(
  COMMAND "${SERVE}" --digits 4 --spares 2
  INPUT_FILE "${input_file}"
  OUTPUT_VARIABLE output
  ERROR_VARIABLE errors
  RESULT_VARIABLE status)
file(REMOVE "${input_file}")
if(NOT status EQUAL 0)
  message(FATAL_ERROR "ftdb_serve exited ${status}: ${errors}")
endif()

string(REPLACE "\n" ";" lines "${output}")
list(REMOVE_AT lines 0)  # the "serving ..." banner
list(GET lines 0 initial_hash)
if(NOT initial_hash MATCHES "^hash [0-9a-f]+$")
  message(FATAL_ERROR "expected a hash line, got '${initial_hash}'")
endif()
set(index 1)
foreach(command IN LISTS bad_commands)
  list(GET lines ${index} reply)
  math(EXPR index "${index} + 1")
  list(GET lines ${index} hash)
  math(EXPR index "${index} + 1")
  if(NOT reply MATCHES "^error ")
    message(FATAL_ERROR "'${command}' answered '${reply}', expected an error")
  endif()
  if(NOT hash STREQUAL initial_hash)
    message(FATAL_ERROR "'${command}' changed the state: '${hash}' vs '${initial_hash}'")
  endif()
endforeach()
list(GET lines ${index} reply)
math(EXPR index "${index} + 1")
list(GET lines ${index} hash)
if(NOT reply STREQUAL "accepted" OR hash STREQUAL initial_hash)
  message(FATAL_ERROR "'fault 3' answered '${reply}' with hash '${hash}'")
endif()
message(STATUS "${bad_count} malformed commands rejected, state unchanged")
