# Generate annotated traces with fscache_tracegen and compare each
# file's SHA-256 against a committed list, so every benchmark
# profile's generated trace (and its next-use annotation) is pinned
# byte for byte. Invoked by ctest, in a scratch working directory, via
#   cmake -DTRACEGEN=<tracegen> -DGOLDEN=<digest list> -DOUT=<file>
#         -P tracegen_digests.cmake
#
# The list holds one "<sha256>  <file>" line per trace, in the order
# below; OUT receives the list this build produced. Regenerate (only
# for an intentional generator change) by copying OUT over GOLDEN.

foreach(var TRACEGEN GOLDEN OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "tracegen_digests: missing -D${var}")
    endif()
endforeach()

set(profiles mcf omnetpp gromacs h264ref astar cactusadm libquantum lbm)

# Each run is "<file>|<comma-separated tracegen arguments>" (a
# semicolon would split the entry).
set(runs)
foreach(seed 1 2)
    foreach(profile ${profiles})
        list(APPEND runs
             "${profile}_s${seed}.trc|--benchmark,${profile},--seed,${seed},--accesses,50000,--annotate")
    endforeach()
endforeach()
# A shallow custom stack renumbers its stamp axis many times.
list(APPEND runs
     "custom_renumber.trc|--custom,--pnew,0.3,--max-depth,512,--accesses,200000,--seed,1,--annotate")

set(actual "")
foreach(run ${runs})
    string(FIND "${run}" "|" bar)
    string(SUBSTRING "${run}" 0 ${bar} file)
    math(EXPR args_at "${bar} + 1")
    string(SUBSTRING "${run}" ${args_at} -1 args)
    string(REPLACE "," ";" args "${args}")
    execute_process(COMMAND ${TRACEGEN} ${args} --out ${file}
                    OUTPUT_QUIET
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "tracegen_digests: ${TRACEGEN} exited with ${rc} "
                "writing ${file}")
    endif()
    file(SHA256 ${file} digest)
    file(REMOVE ${file})
    string(APPEND actual "${digest}  ${file}\n")
endforeach()
file(WRITE ${OUT} "${actual}")

file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
    message(FATAL_ERROR
            "tracegen_digests: generated traces differ from the "
            "committed digests\n"
            "  golden: ${GOLDEN}\n"
            "  actual: ${OUT}\n"
            "A generator or annotator change altered a trace; if that "
            "is intended, copy the actual list over the golden and "
            "explain the change in the commit message.")
endif()
