# ftdb_campaign run (-DCAMPAIGN=<path>) must refuse an unwritable --out,
# --csv or --md before it runs any trial: exit 1 with the message the final
# write would have given, and leave no checkpoint and no report behind. A run
# that started would write the checkpoint after its first 256-trial block,
# and its 10^8 trials would take minutes.
#
#   cmake -DCAMPAIGN=build/tools/ftdb_campaign -P tests/campaign_rejects_bad_report_paths.cmake
cmake_minimum_required(VERSION 3.16)

set(work "${CMAKE_CURRENT_BINARY_DIR}/campaign_bad_paths")
file(REMOVE_RECURSE "${work}")
file(MAKE_DIRECTORY "${work}")
set(spec "${work}/spec.json")
file(WRITE "${spec}" [=[
{
  "name": "bad-paths", "seed": 3, "trials": 100000000,
  "topologies": [{"family": "debruijn", "base": 2, "digits": 4}],
  "spares": [1],
  "fault_models": [{"kind": "iid", "p": 0.01}],
  "metrics": ["mttf"]
}
]=])
set(ckpt "${work}/run.ckpt")
set(good "${work}/report.json")
set(missing "${work}/no_such_dir")

# Each case: the flag, its bad path, and the message expected on stderr.
set(cases
  "--out|/dev/null|cannot replace /dev/null: not a regular file"
  "--out|${missing}/x.json|cannot open ${missing}/x.json.tmp: No such file or directory"
  "--csv|/dev/null|cannot replace /dev/null: not a regular file"
  "--md|${missing}/x.md|cannot open ${missing}/x.md.tmp: No such file or directory")
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" fields "${case}")
  list(GET fields 0 flag)
  list(GET fields 1 path)
  list(GET fields 2 expected)
  set(args run --spec "${spec}" --threads 2 --checkpoint "${ckpt}" --quiet)
  if(flag STREQUAL "--out")
    list(APPEND args --out "${path}")
  else()
    list(APPEND args --out "${good}" ${flag} "${path}")
  endif()
  execute_process(
    COMMAND "${CAMPAIGN}" ${args}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE errors
    RESULT_VARIABLE status
    TIMEOUT 30)
  if(NOT status EQUAL 1)
    message(FATAL_ERROR "${flag} ${path}: ftdb_campaign exited \"${status}\", expected 1: ${errors}")
  endif()
  string(FIND "${errors}" "${expected}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${flag} ${path}: stderr lacks \"${expected}\": ${errors}")
  endif()
  foreach(left IN ITEMS "${ckpt}" "${good}" "${missing}")
    if(EXISTS "${left}")
      message(FATAL_ERROR "${flag} ${path}: ${left} was written; trials ran")
    endif()
  endforeach()
  message(STATUS "${flag} ${path}: refused before any trial")
endforeach()
file(REMOVE_RECURSE "${work}")
