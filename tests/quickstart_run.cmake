# Runs examples/quickstart, the README's C++ API walkthrough, end to end:
# it must exit 0 and print both goodput lines.
#
#   cmake -DQUICKSTART=<binary> -P quickstart_run.cmake
execute_process(COMMAND ${QUICKSTART}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "quickstart exited ${rc}:\n${out}")
endif()
foreach(line "plain TCP \\(link 0 only\\): +[0-9.]+ Mb/s"
             "MPTCP \\(links 0 \\+ 1\\): +[0-9.]+ Mb/s")
  if(NOT out MATCHES "${line}")
    message(FATAL_ERROR "quickstart output lacks /${line}/:\n${out}")
  endif()
endforeach()
