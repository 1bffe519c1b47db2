# Scenario smoke: SPEC runs at --scale=SCALE twice, with 1 and with 4
# runner threads, each in its own working directory. The two stdouts, the
# two run reports and every trace file must be byte-identical. With
# TRACED=ON the run must write traces, and with PYTHON given each trace
# must pass tools/check_trace_schema.py.
#
# Both runs pass --trace-dir=traces, a path relative to their own working
# directory, so the trace paths stdout names need no normalising.
#
#   cmake -DMPSIM=<cli> -DSPEC=<spec.toml> -DSCALE=<x> -DOUT=<scratch dir>
#         -DTRACED=<ON|OFF> [-DFLAGS=<more mpsim run flags>]
#         [-DPYTHON=<python3> -DSCHEMA=<check_trace_schema.py>]
#         -P scenario_smoke.cmake
file(REMOVE_RECURSE ${OUT})
separate_arguments(flags UNIX_COMMAND "${FLAGS}")
foreach(threads 1 4)
  set(dir ${OUT}/t${threads})
  file(MAKE_DIRECTORY ${dir}/traces)
  execute_process(
    COMMAND ${MPSIM} run --threads=${threads} --scale=${SCALE}
            --trace-dir=traces ${flags} ${SPEC}
    WORKING_DIRECTORY ${dir}
    RESULT_VARIABLE rc
    OUTPUT_FILE ${dir}/stdout.txt)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "mpsim run --threads=${threads} exited ${rc}")
  endif()
endforeach()

file(GLOB traces RELATIVE ${OUT}/t1 ${OUT}/t1/traces/trace_*)
file(GLOB traces4 RELATIVE ${OUT}/t4 ${OUT}/t4/traces/trace_*)
if(NOT traces STREQUAL traces4)
  message(FATAL_ERROR "1 and 4 threads wrote different trace files:\n"
                      "${traces}\n${traces4}")
endif()
if(TRACED AND NOT traces)
  message(FATAL_ERROR "the run wrote no trace file")
endif()

file(GLOB reports RELATIVE ${OUT}/t1 ${OUT}/t1/BENCH_*.json)
foreach(f stdout.txt ${reports} ${traces})
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${OUT}/t1/${f} ${OUT}/t4/${f}
                  RESULT_VARIABLE differ)
  if(differ)
    message(FATAL_ERROR "${f} differs between 1 and 4 threads")
  endif()
endforeach()

if(PYTHON AND traces)
  execute_process(COMMAND ${PYTHON} ${SCHEMA} ${traces}
                  WORKING_DIRECTORY ${OUT}/t1
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "a trace fails the schema check")
  endif()
endif()
