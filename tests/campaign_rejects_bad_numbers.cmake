# ftdb_campaign run (-DCAMPAIGN=<path>) must refuse one form of bad value
# (-DFORM=negative|non_numeric|trailing_garbage|nan|out_of_range) for each of
# its numeric flags: exit 2 with a message that names the flag, before any
# trial runs or any thread starts. A run that started would write the
# checkpoint or elastic directory before its first 256-trial block was done,
# and its 10^8 trials would take minutes.
#
#   cmake -DCAMPAIGN=build/tools/ftdb_campaign -DFORM=negative \
#         -P tests/campaign_rejects_bad_numbers.cmake
cmake_minimum_required(VERSION 3.16)

# Each case: the flag and its bad value, one per flag.
if(FORM STREQUAL "negative")
  set(cases "--threads|-1" "--checkpoint-every|-1" "--stop-after-blocks|-1" "--lease-ttl|-1")
elseif(FORM STREQUAL "non_numeric")
  set(cases "--threads|abc" "--checkpoint-every|abc" "--stop-after-blocks|abc" "--lease-ttl|abc")
elseif(FORM STREQUAL "trailing_garbage")
  set(cases "--threads|4x" "--checkpoint-every|0.5s" "--stop-after-blocks|2x" "--lease-ttl|30s")
elseif(FORM STREQUAL "nan")
  set(cases "--threads|nan" "--checkpoint-every|nan" "--stop-after-blocks|nan" "--lease-ttl|nan")
elseif(FORM STREQUAL "out_of_range")
  # 4294967295 is what -1 wrapped to; 1025 is one past the thread cap.
  set(cases "--threads|4294967295" "--threads|1025" "--checkpoint-every|1e999"
            "--stop-after-blocks|18446744073709551616" "--lease-ttl|0" "--lease-ttl|31536001")
else()
  message(FATAL_ERROR "unknown FORM \"${FORM}\"")
endif()

set(work "${CMAKE_CURRENT_BINARY_DIR}/campaign_bad_numbers_${FORM}")
file(REMOVE_RECURSE "${work}")
file(MAKE_DIRECTORY "${work}")
set(spec "${work}/spec.json")
file(WRITE "${spec}" [=[
{
  "name": "bad-numbers", "seed": 3, "trials": 100000000,
  "topologies": [{"family": "debruijn", "base": 2, "digits": 4}],
  "spares": [1],
  "fault_models": [{"kind": "iid", "p": 0.01}],
  "metrics": ["mttf"]
}
]=])
set(ckpt "${work}/run.ckpt")
set(dir "${work}/elastic")

foreach(case IN LISTS cases)
  string(REPLACE "|" ";" fields "${case}")
  list(GET fields 0 flag)
  list(GET fields 1 value)
  if(flag STREQUAL "--lease-ttl")
    set(args run --spec "${spec}" --elastic "${dir}" --threads 2 --quiet ${flag} "${value}")
  else()
    set(args run --spec "${spec}" --checkpoint "${ckpt}" --quiet ${flag} "${value}")
  endif()
  execute_process(
    COMMAND "${CAMPAIGN}" ${args}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE errors
    RESULT_VARIABLE status
    TIMEOUT 30)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR "${flag} ${value}: ftdb_campaign exited \"${status}\", expected 2: ${errors}")
  endif()
  string(FIND "${errors}" "${flag} wants" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${flag} ${value}: stderr does not name the flag: ${errors}")
  endif()
  foreach(left IN ITEMS "${ckpt}" "${dir}")
    if(EXISTS "${left}")
      message(FATAL_ERROR "${flag} ${value}: ${left} was written; the run started")
    endif()
  endforeach()
  message(STATUS "${flag} ${value}: refused before the run")
endforeach()
file(REMOVE_RECURSE "${work}")
