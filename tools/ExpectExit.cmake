# Runs a command and fails unless it exits with exactly EXPECT:
#
#   cmake -DEXPECT=<code> -P ExpectExit.cmake -- <command> [args...]
#
# ctest's WILL_FAIL accepts any non-zero exit, so a test that expects
# `closer` to report a deadlock (exit 2) would also pass if `closer` died
# with a usage error (exit 1).

set(Command)
set(AfterDashes FALSE)
math(EXPR Last "${CMAKE_ARGC} - 1")
foreach(I RANGE ${Last})
  if(AfterDashes)
    list(APPEND Command "${CMAKE_ARGV${I}}")
  elseif(CMAKE_ARGV${I} STREQUAL "--")
    set(AfterDashes TRUE)
  endif()
endforeach()

execute_process(COMMAND ${Command} RESULT_VARIABLE Exit)
if(NOT Exit STREQUAL "${EXPECT}")
  message(FATAL_ERROR "exit code ${Exit}, expected ${EXPECT}")
endif()
