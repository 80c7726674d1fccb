#!/bin/sh
# Run the fscache static-analysis layer:
#   1. fscache_lint.py --self-test      (the lint's own fixtures)
#   2. fscache_lint.py                  (determinism rules over src/,
#                                        CLI-parsing rules over tools/
#                                        and bench/)
#   3. fscache_analyze.py --self-test   (the semantic analyzer's
#                                        fixtures)
#   4. fscache_analyze.py               (hot-path allocation,
#                                        determinism, lock-discipline
#                                        and layering passes; see
#                                        docs/STATIC_ANALYSIS.md)
#   5. clang-tidy over src/*.cc         (if clang-tidy is installed)
#
# Flags (must come before the build dir):
#   --lint-only      run only the token lint + clang-tidy (1, 2, 5)
#   --analyze-only   run only the semantic analyzer (3, 4)
#
# clang-tidy needs a compile database; pass the build dir as the
# positional argument (default: build/release, falling back to
# build). When clang-tidy or the database is missing the step is
# skipped with a notice, not an error, so the determinism lint still
# gates in minimal environments. The analyzer needs no database.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

run_lint=1
run_analyze=1
while [ "$#" -gt 0 ]; do
    case "$1" in
        --lint-only)
            run_analyze=0
            shift
            ;;
        --analyze-only)
            run_lint=0
            shift
            ;;
        --*)
            echo "run_lint.sh: unknown flag: $1" >&2
            echo "usage: run_lint.sh [--lint-only|--analyze-only]" \
                 "[build_dir]" >&2
            exit 2
            ;;
        *)
            break
            ;;
    esac
done
build_dir="${1:-}"

if [ "$run_lint" -eq 0 ] && [ "$run_analyze" -eq 0 ]; then
    echo "run_lint.sh: --lint-only and --analyze-only are mutually" \
         "exclusive" >&2
    exit 2
fi

if [ "$run_lint" -eq 1 ]; then
    echo "== fscache_lint: self-test =="
    python3 "$repo_root/tools/fscache_lint.py" --self-test

    echo "== fscache_lint: src/ tools/ bench/ =="
    python3 "$repo_root/tools/fscache_lint.py"
fi

if [ "$run_analyze" -eq 1 ]; then
    echo "== fscache_analyze: self-test =="
    python3 "$repo_root/tools/fscache_analyze.py" --self-test

    echo "== fscache_analyze: semantic passes over src/ =="
    # FS_ANALYZE_JSON (optional) names a findings artifact, e.g. for
    # CI upload; the exit code gates either way.
    if [ -n "${FS_ANALYZE_JSON:-}" ]; then
        python3 "$repo_root/tools/fscache_analyze.py" \
            --json "$FS_ANALYZE_JSON"
    else
        python3 "$repo_root/tools/fscache_analyze.py"
    fi
fi

if [ "$run_lint" -eq 0 ]; then
    exit 0
fi

if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "== clang-tidy: not installed, skipping =="
    exit 0
fi

if [ -z "$build_dir" ]; then
    for d in "$repo_root/build/release" "$repo_root/build"; do
        if [ -f "$d/compile_commands.json" ]; then
            build_dir="$d"
            break
        fi
    done
fi
if [ -z "$build_dir" ] || [ ! -f "$build_dir/compile_commands.json" ]; then
    echo "== clang-tidy: no compile_commands.json found =="
    echo "   configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON" \
         "and pass the build dir as \$1" >&2
    exit 1
fi

echo "== clang-tidy ($build_dir) =="
status=0
find "$repo_root/src" -name '*.cc' | sort | while IFS= read -r f; do
    clang-tidy --quiet -p "$build_dir" "$f" || exit 1
done || status=1
if [ "$status" -ne 0 ]; then
    echo "clang-tidy reported findings" >&2
    exit 1
fi
echo "clang-tidy clean"
