# A run is a pure function of spec, seed and flags: the environment
# variables that once stood in for mpsim's flags and the spec's [output]
# keys must change nothing. Runs the same spec with them exported and
# with them unset; the stdouts must be byte-identical and neither run may
# write a trace file.
#
#   cmake -DMPSIM=<cli> -DSPEC=<spec.toml> -DOUT=<scratch dir>
#         -P env_ignored.cmake
file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})

# Runs the spec under `cmake -E env <ARGN>` and stores its stdout in
# `out_var`.
function(run_mpsim out_var)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${ARGN}
            ${MPSIM} run --threads=1 --scale=0.01 ${SPEC}
    WORKING_DIRECTORY ${OUT}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "mpsim run failed (${rc}) under env ${ARGN}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# The deleted variables (MPSIM_ + suffix), each set to a value that would
# have changed the run: the scale, the threads, a trace sink and its ring.
foreach(knob BENCH_SCALE=0.5 THREADS=3 TRACE=csv TRACE_CAPACITY=7)
  string(REGEX REPLACE "=.*" "" name ${knob})
  list(APPEND set_knobs MPSIM_${knob})
  list(APPEND unset_knobs --unset=MPSIM_${name})
endforeach()
run_mpsim(with_env ${set_knobs})
run_mpsim(without_env ${unset_knobs})
if(NOT with_env STREQUAL without_env)
  message(FATAL_ERROR "stdout depends on the environment:\n"
                      "--- with ${set_knobs}\n${with_env}\n"
                      "--- without\n${without_env}")
endif()
file(GLOB traces ${OUT}/trace_*)
if(traces)
  message(FATAL_ERROR "a run wrote trace files: ${traces}")
endif()
