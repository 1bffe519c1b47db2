# README's spec-key reference is `mpsim list` output verbatim: the lines
# between `<!-- mpsim list: begin -->` and `<!-- mpsim list: end -->`,
# inside one ```text fence, must equal what the CLI prints.
#   cmake -DMPSIM=<mpsim> -DREADME=<README.md> -P readme_keys.cmake
execute_process(COMMAND ${MPSIM} list
                OUTPUT_VARIABLE listed RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mpsim list exited ${rc}")
endif()
file(READ ${README} readme)
set(open "<!-- mpsim list: begin -->\n```text\n")
set(close "```\n<!-- mpsim list: end -->")
string(FIND "${readme}" "${open}" begin)
string(FIND "${readme}" "${close}" end)
if(begin EQUAL -1 OR end EQUAL -1)
  message(FATAL_ERROR "${README}: no spec-key reference between the "
                      "mpsim list marker lines")
endif()
string(LENGTH "${open}" skip)
math(EXPR begin "${begin} + ${skip}")
math(EXPR length "${end} - ${begin}")
string(SUBSTRING "${readme}" ${begin} ${length} block)
if(NOT block STREQUAL listed)
  message(FATAL_ERROR "${README}'s spec-key reference differs from "
                      "`mpsim list`; paste the command's output between "
                      "the marker lines")
endif()
