# Run a bench under each malformed FS_BENCH_SCALE value and require
# exit status 1 with a message naming the knob, so a typo never runs
# a bench silently at the wrong scale. Invoked by ctest via
#   cmake -DBENCH=<bench binary> -P bench_scale_check.cmake

if(NOT DEFINED BENCH)
    message(FATAL_ERROR "bench_scale_check: missing -DBENCH")
endif()

foreach(value abc 0.05x 0 -1 nan inf 1e999)
    execute_process(COMMAND ${CMAKE_COMMAND} -E env
                            FS_BENCH_SCALE=${value} ${BENCH}
                    OUTPUT_QUIET
                    ERROR_VARIABLE err
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 1)
        message(FATAL_ERROR
                "FS_BENCH_SCALE=${value}: exit ${rc}, expected 1")
    endif()
    if(NOT err MATCHES "FS_BENCH_SCALE")
        message(FATAL_ERROR
                "FS_BENCH_SCALE=${value}: stderr does not name the "
                "knob:\n${err}")
    endif()
endforeach()
