#!/bin/sh
# Run every figure/ablation bench and collect the outputs under
# results/.
#
# Usage:
#   scripts/run_all_benches.sh [--preset NAME] [--jobs N]
#                              [build_dir] [out_dir]
#
#   --preset NAME   take binaries from build/NAME (the CMakePresets
#                   layout), e.g. --preset asan-ubsan to smoke-run
#                   the benches under sanitizers — combine with
#                   FS_BENCH_SCALE well below 1 for short cells
#   --jobs N        set FS_JOBS=N for the benches (sweep
#                   parallelism); an FS_JOBS already in the
#                   environment is honored unchanged
#
# FS_BENCH_SCALE scales workload sizes (default 1).
#
# A bench failure fails the whole script with that bench's exit
# status. The bench's stdout is captured to a file and echoed
# afterwards (rather than piped through tee) because plain sh has
# no pipefail: a crashing bench upstream of tee would otherwise
# report tee's success and the script would claim a clean pass.
set -eu

usage() {
    sed -n '2,23p' "$0" | sed 's/^# \{0,1\}//'
}

preset=""
jobs="${FS_JOBS:-}"
while [ $# -gt 0 ]; do
    case "$1" in
        --preset)
            [ $# -ge 2 ] || { usage >&2; exit 2; }
            preset="$2"; shift 2 ;;
        --preset=*)
            preset="${1#--preset=}"; shift ;;
        --jobs)
            [ $# -ge 2 ] || { usage >&2; exit 2; }
            jobs="$2"; shift 2 ;;
        --jobs=*)
            jobs="${1#--jobs=}"; shift ;;
        -h|--help)
            usage; exit 0 ;;
        -*)
            echo "unknown option: $1" >&2; usage >&2; exit 2 ;;
        *)
            break ;;
    esac
done

build_dir="${1:-build}"
out_dir="${2:-results}"
if [ -n "$preset" ]; then
    build_dir="build/$preset"
fi
if [ ! -d "$build_dir/bench" ]; then
    echo "no bench dir under '$build_dir' — build it first" \
         "(cmake --preset ${preset:-release} && cmake --build" \
         "build/${preset:-release} -j)" >&2
    exit 2
fi

if [ -n "$jobs" ]; then
    FS_JOBS="$jobs"
    export FS_JOBS
fi

mkdir -p "$out_dir"

ran=0
for b in "$build_dir"/bench/*; do
    # The build tree drops CMakeFiles/, Makefiles etc. next to the
    # binaries; only run executable regular files.
    if [ ! -f "$b" ] || [ ! -x "$b" ]; then
        continue
    fi
    name=$(basename "$b")
    echo "== $name =="
    status=0
    "$b" >"$out_dir/$name.txt" 2>"$out_dir/$name.err" || status=$?
    cat "$out_dir/$name.txt"
    # A clean fig/ablation bench run writes nothing to stderr. A
    # bench whose cell failed exits 1 and leaves the failed cell's
    # message ("cell <i>: ...") there, so non-empty stderr from a
    # fig/ablation bench is surfaced instead of silently filed away.
    case "$name" in
        fig*|ablation_*)
            if [ -s "$out_dir/$name.err" ]; then
                echo "-- $name stderr ($out_dir/$name.err) --" >&2
                cat "$out_dir/$name.err" >&2
            fi ;;
    esac
    if [ "$status" -ne 0 ]; then
        echo "FAILED: $name exited with status $status" \
             "(stderr in $out_dir/$name.err)" >&2
        exit "$status"
    fi
    ran=$((ran + 1))
done

if [ "$ran" -eq 0 ]; then
    echo "no bench binaries found in $build_dir/bench" >&2
    exit 2
fi
echo "All $ran bench outputs in $out_dir/"
