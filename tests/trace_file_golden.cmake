# Write an annotated trace file with fscache_tracegen, then
# byte-compare fscache_sim's report on it against a committed golden
# (golden_check.cmake), so the next-use fields go through trace-file
# I/O on the way to OPT. Invoked by ctest, in a scratch working
# directory, via
#   cmake -DTRACEGEN=<tracegen> -DTRACEGEN_ARGS=<semicolon-list>
#         -DSIM=<sim> -DGOLDEN=<file> -DOUT=<file>
#         -DSIM_ARGS=<semicolon-list> -P trace_file_golden.cmake
#
# The trace file's name is relative: the report prints each trace's
# path, and the golden must not hold a build directory.

foreach(var TRACEGEN TRACEGEN_ARGS)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "trace_file_golden: missing -D${var}")
    endif()
endforeach()

execute_process(COMMAND ${TRACEGEN} ${TRACEGEN_ARGS}
                OUTPUT_QUIET
                RESULT_VARIABLE gen_rc)
if(NOT gen_rc EQUAL 0)
    message(FATAL_ERROR
            "trace_file_golden: ${TRACEGEN} exited with ${gen_rc}")
endif()

include(${CMAKE_CURRENT_LIST_DIR}/golden_check.cmake)
