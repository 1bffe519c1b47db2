# Runs a spec and compares its CSV trace byte-for-byte against the
# committed golden file.
#
#   cmake -DMPSIM=<cli> -DSPEC=<spec.toml> -DGOLDEN=<golden.csv>
#         -DOUT=<scratch dir> -DRUN_NAME=<run> -P run_golden.cmake
foreach(var MPSIM SPEC GOLDEN OUT RUN_NAME)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_golden.cmake: -D${var}= is required")
  endif()
endforeach()

file(MAKE_DIRECTORY ${OUT})
execute_process(
  COMMAND ${MPSIM} run --trace=csv --trace-dir=${OUT} ${SPEC}
  WORKING_DIRECTORY ${OUT}
  RESULT_VARIABLE run_rc
  OUTPUT_QUIET)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "mpsim run failed (${run_rc}) for ${SPEC}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${OUT}/trace_${RUN_NAME}.csv ${GOLDEN}
  RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  message(FATAL_ERROR
          "trace drifted from golden: diff ${OUT}/trace_${RUN_NAME}.csv "
          "${GOLDEN} (regenerate only if the change is intended; see the "
          "comment in ${SPEC})")
endif()
