# Runs `mpsim run` on a spec in a fresh scratch directory and compares one
# file the run produces, byte for byte, with a committed golden: a CSV
# trace for the golden_trace_* entries, the JSON run report for the
# golden_report_* ones.
#
#   cmake -DMPSIM=<cli> [-DFLAGS="<mpsim run flags>"] -DSPEC=<spec.toml>
#         -DPRODUCES=<file name> -DGOLDEN=<golden file> -DOUT=<scratch dir>
#         -P run_golden.cmake
#
# To re-record a golden after an intended change, copy the produced file
# over it and say so in CHANGES.md.
foreach(var MPSIM SPEC PRODUCES GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_golden.cmake: -D${var}= is required")
  endif()
endforeach()
separate_arguments(flags UNIX_COMMAND "${FLAGS}")

# A file left by an earlier run must not stand in for this run's output.
file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})
execute_process(
  COMMAND ${MPSIM} run ${flags} ${SPEC}
  WORKING_DIRECTORY ${OUT}
  RESULT_VARIABLE run_rc
  OUTPUT_QUIET)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "mpsim run failed (${run_rc}) for ${SPEC}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}/${PRODUCES} ${GOLDEN}
  RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  message(FATAL_ERROR
          "${PRODUCES} drifted from golden: diff ${OUT}/${PRODUCES} "
          "${GOLDEN} (re-record only if the change is intended: copy the "
          "produced file over the golden and say so in CHANGES.md)")
endif()
