# Run one program and require its stdout to equal a recorded text file byte
# for byte; stderr is not compared. Used by ctest:
#
#   cmake -DPROGRAM=<binary> -DARGS="<arg>;<arg>" -DEXPECTED=<file> \
#         -P tools/compare_stdout.cmake
foreach(var PROGRAM EXPECTED)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare_stdout: -D${var}=... is required")
  endif()
endforeach()
execute_process(COMMAND ${PROGRAM} ${ARGS}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "compare_stdout: ${PROGRAM} ${ARGS} exited with ${status}")
endif()
file(READ ${EXPECTED} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "compare_stdout: stdout of ${PROGRAM} ${ARGS} differs from "
                      "${EXPECTED}\n--- expected\n${expected}--- actual\n${actual}")
endif()
