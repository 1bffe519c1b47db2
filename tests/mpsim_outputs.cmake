# mpsim run's output files. A report's name is sanitised as trace file
# names are, a report or trace that cannot be written makes the run exit 1,
# naming the file on stderr, a trace whose ring filled says how many
# records it lost, on stdout and in the report, and --trace takes only
# csv or off.
#
#   cmake -DMPSIM=<cli> -DSPEC=<spec.toml> -DOUT=<scratch dir>
#         -DCASE=report_name_sanitised|report_unwritable|trace_unwritable|
#               trace_records_lost|trace_jsonl_rejected
#         -P mpsim_outputs.cmake
file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})
file(READ ${SPEC} spec)
string(REGEX MATCH "\nname = \"([^\"]*)\"" _ "${spec}")
set(report BENCH_scenario_${CMAKE_MATCH_1}.json)

if(CASE STREQUAL "report_name_sanitised")
  # The same spec renamed "fig2/odd name": the '/' and the space become
  # '_', as in a trace file name, instead of losing the report.
  string(REPLACE "\nname = \"${CMAKE_MATCH_1}\"" "\nname = \"fig2/odd name\""
                 spec "${spec}")
  file(WRITE ${OUT}/odd.toml "${spec}")
  set(args ${OUT}/odd.toml)
  set(want_rc 0)
  set(want_file ${OUT}/BENCH_scenario_fig2_odd_name.json)
elseif(CASE STREQUAL "report_unwritable")
  # A directory where the report should go: no file can be opened there.
  file(MAKE_DIRECTORY ${OUT}/${report})
  set(args ${SPEC})
  set(want_rc 1)
  set(want_stderr ${report})
elseif(CASE STREQUAL "trace_unwritable")
  set(args --trace=csv --trace-dir=${OUT}/missing ${SPEC})
  set(want_rc 1)
  set(want_stderr ${OUT}/missing/trace_)
elseif(CASE STREQUAL "trace_records_lost")
  # A 64-record ring: the run traces far more, so the file keeps only the
  # last 64 and both stdout and the report count the rest.
  string(REPLACE "\n[output]\n" "\n[output]\ntrace_capacity = 64\n"
                 spec "${spec}")
  file(WRITE ${OUT}/small_ring.toml "${spec}")
  set(args --trace=csv ${OUT}/small_ring.toml)
  set(want_rc 0)
  set(want_lost ON)
elseif(CASE STREQUAL "trace_jsonl_rejected")
  # CSV is the only trace format: --trace names it or turns tracing off.
  set(args --trace=jsonl ${SPEC})
  set(want_rc 1)
  set(want_stderr "csv|off")
else()
  message(FATAL_ERROR "mpsim_outputs.cmake: unknown CASE \"${CASE}\"")
endif()

execute_process(COMMAND ${MPSIM} run ${args}
                WORKING_DIRECTORY ${OUT}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
list(JOIN args " " command)
if(NOT rc EQUAL want_rc)
  message(FATAL_ERROR "mpsim run ${command} exited ${rc}, want ${want_rc}:\n"
                      "${err}")
endif()
if(DEFINED want_file AND NOT EXISTS ${want_file})
  message(FATAL_ERROR "mpsim run did not write ${want_file}:\n${err}")
endif()
if(DEFINED want_stderr)
  string(FIND "${err}" "${want_stderr}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "stderr does not name ${want_stderr}:\n${err}")
  endif()
endif()
if(want_lost)
  set(line "\n  trace = [^\n]*\n  trace_records_lost = ([1-9][0-9]*)\n")
  if(NOT out MATCHES "${line}")
    message(FATAL_ERROR "stdout has no trace_records_lost line under the "
                        "trace line:\n${out}")
  endif()
  set(lost ${CMAKE_MATCH_1})
  file(READ ${OUT}/${report} json)
  string(FIND "${json}" "\"trace_records_lost\": ${lost}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${report} has no \"trace_records_lost\": ${lost}:\n"
                        "${json}")
  endif()
endif()
