# Run one program and require its stdout to equal a recorded text file byte
# for byte; stderr is not compared. Used by ctest:
#
#   cmake -DPROGRAM=<binary> -DARGS="<arg>;<arg>" -DEXPECTED=<file> \
#         [-DFROM=<text>] [-DUNTIL=<text>] -P tools/compare_stdout.cmake
#
# FROM and UNTIL compare one section of a multi-table output: both stdout and
# the file are cut to start at the first FROM and to end before the first
# UNTIL, which must occur in each.
foreach(var PROGRAM EXPECTED)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare_stdout: -D${var}=... is required")
  endif()
endforeach()

function(cut_section name)
  set(text "${${name}}")
  if(DEFINED FROM)
    string(FIND "${text}" "${FROM}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "compare_stdout: '${FROM}' not in ${name}:\n${text}")
    endif()
    string(SUBSTRING "${text}" ${at} -1 text)
  endif()
  if(DEFINED UNTIL)
    string(FIND "${text}" "${UNTIL}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "compare_stdout: '${UNTIL}' not in ${name}:\n${text}")
    endif()
    string(SUBSTRING "${text}" 0 ${at} text)
  endif()
  set(${name} "${text}" PARENT_SCOPE)
endfunction()

execute_process(COMMAND ${PROGRAM} ${ARGS}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "compare_stdout: ${PROGRAM} ${ARGS} exited with ${status}")
endif()
file(READ ${EXPECTED} expected)
cut_section(actual)
cut_section(expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "compare_stdout: stdout of ${PROGRAM} ${ARGS} differs from "
                      "${EXPECTED}\n--- expected\n${expected}--- actual\n${actual}")
endif()
