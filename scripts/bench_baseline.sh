#!/bin/sh
# Gate the access-engine throughput against the committed baseline.
#
# Usage:
#   scripts/bench_baseline.sh [--capture] [--runs N] [build_dir]
#
#   --capture     re-measure and rewrite bench/BENCH_access_engine.json's
#                 baseline number instead of checking against it
#   --runs N      measurement repetitions (default: runs_per_measurement
#                 from the baseline file); the best run is used, which
#                 damps scheduler noise on shared machines
#   --out FILE    also write measured-summary JSONs (per-run values,
#                 best, baseline, tolerance): FILE for the serial
#                 metric plus FILE with a _replay suffix for the
#                 replay metric — CI uploads both as throughput
#                 artifacts
#   build_dir     directory holding bench/micro_sweep_throughput
#                 (default: build)
#
# Check mode runs bench/micro_sweep_throughput serially (FS_JOBS=1)
# N times and takes the best of each gated metric:
#
#   accesses_per_sec_serial   full cells (generation + replay);
#                             fails > `tolerance` (default 25%)
#                             below the committed baseline
#   accesses_per_sec_replay   replay-only (runUntimed over
#                             pre-generated traces); fails
#                             below baseline*(1-tolerance) OR below
#                             the absolute replay_floor committed
#                             in the baseline file
#
# The tolerance absorbs machine-to-machine variance while still
# catching the order-of-magnitude regressions a hot-path change can
# introduce; bit-identity of outputs is gated separately by the
# golden tests (tests/golden/).
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

baseline_file="bench/BENCH_access_engine.json"
capture=0
runs=""
out=""

while [ $# -gt 0 ]; do
    case "$1" in
      --capture) capture=1; shift ;;
      --runs) runs="$2"; shift 2 ;;
      --out) out="$2"; shift 2 ;;
      -h|--help) sed -n '2,35p' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
      *) break ;;
    esac
done

build_dir="${1:-build}"
bench="$build_dir/bench/micro_sweep_throughput"

if [ ! -x "$bench" ]; then
    echo "bench_baseline: $bench not built" >&2
    echo "  cmake -B $build_dir -S . -DCMAKE_BUILD_TYPE=Release && \\" >&2
    echo "  cmake --build $build_dir --target micro_sweep_throughput" >&2
    exit 2
fi

if [ -z "$runs" ]; then
    runs=$(python3 -c "
import json
print(json.load(open('$baseline_file')).get('runs_per_measurement', 3))")
fi

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

best=""
best_replay=""
values=""
values_replay=""
i=1
while [ "$i" -le "$runs" ]; do
    FS_BENCH_JSON="$tmpdir/run$i.json" FS_JOBS=1 "$bench" \
        > "$tmpdir/run$i.log" 2>&1 || {
        echo "bench_baseline: bench run failed:" >&2
        cat "$tmpdir/run$i.log" >&2
        exit 2
    }
    v=$(python3 -c "
import json
print(json.load(open('$tmpdir/run$i.json'))['accesses_per_sec_serial'])")
    vb=$(python3 -c "
import json
print(json.load(open('$tmpdir/run$i.json'))['accesses_per_sec_replay'])")
    echo "bench_baseline: run $i/$runs: $v serial, $vb replay accesses/sec"
    best=$(python3 -c "print(max($v, ${best:-0}))")
    best_replay=$(python3 -c "print(max($vb, ${best_replay:-0}))")
    values="$values $v"
    values_replay="$values_replay $vb"
    i=$((i + 1))
done
echo "bench_baseline: best of $runs: $best serial, $best_replay replay accesses/sec"

if [ -n "$out" ]; then
    python3 - "$baseline_file" "$out" "$best" $values <<'EOF'
import json, sys
baseline_path, out_path, best = sys.argv[1], sys.argv[2], float(sys.argv[3])
doc = json.load(open(baseline_path))
summary = {
    "bench": doc.get("bench", "micro_sweep_throughput"),
    "metric": "accesses_per_sec_serial",
    "runs": [float(v) for v in sys.argv[4:]],
    "best": best,
    "baseline": doc["baseline"]["accesses_per_sec_serial"],
    "tolerance": doc.get("tolerance", 0.25),
}
with open(out_path, "w") as f:
    json.dump(summary, f, indent=2)
    f.write("\n")
EOF
    out_replay="${out%.json}_replay.json"
    python3 - "$baseline_file" "$out_replay" "$best_replay" \
        $values_replay <<'EOF'
import json, sys
baseline_path, out_path, best = sys.argv[1], sys.argv[2], float(sys.argv[3])
doc = json.load(open(baseline_path))
summary = {
    "bench": doc.get("bench", "micro_sweep_throughput"),
    "metric": "accesses_per_sec_replay",
    "runs": [float(v) for v in sys.argv[4:]],
    "best": best,
    "baseline": doc["baseline"]["accesses_per_sec_replay"],
    "floor": doc["baseline"].get("replay_floor", 0.0),
    "tolerance": doc.get("tolerance", 0.25),
}
with open(out_path, "w") as f:
    json.dump(summary, f, indent=2)
    f.write("\n")
EOF
    echo "bench_baseline: wrote measured summaries to $out and $out_replay"
fi

if [ "$capture" = 1 ]; then
    python3 - "$baseline_file" "$best" "$best_replay" <<'EOF'
import json, sys
path, best, best_replay = sys.argv[1], float(sys.argv[2]), float(sys.argv[3])
with open(path) as f:
    doc = json.load(f)
doc["baseline"]["accesses_per_sec_serial"] = round(best, 1)
doc["baseline"]["accesses_per_sec_replay"] = round(best_replay, 1)
with open(path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
EOF
    echo "bench_baseline: captured baseline into $baseline_file"
    exit 0
fi

python3 - "$baseline_file" "$best" "$best_replay" <<'EOF'
import json, sys
path, best, best_replay = sys.argv[1], float(sys.argv[2]), float(sys.argv[3])
doc = json.load(open(path))
tol = doc.get("tolerance", 0.25)
fail = False

baseline = doc["baseline"]["accesses_per_sec_serial"]
floor = baseline * (1.0 - tol)
print(f"bench_baseline: serial baseline {baseline:.0f}, tolerance "
      f"{tol:.0%}, floor {floor:.0f}")
if best < floor:
    print(f"bench_baseline: FAIL — measured {best:.0f} serial "
          f"accesses/sec is more than {tol:.0%} below the baseline",
          file=sys.stderr)
    fail = True
else:
    print(f"bench_baseline: OK — measured {best:.0f} serial accesses/sec")

b_baseline = doc["baseline"]["accesses_per_sec_replay"]
b_abs = doc["baseline"].get("replay_floor", 0.0)
b_floor = max(b_baseline * (1.0 - tol), b_abs)
print(f"bench_baseline: replay baseline {b_baseline:.0f}, absolute "
      f"floor {b_abs:.0f}, gate {b_floor:.0f}")
if best_replay < b_floor:
    print(f"bench_baseline: FAIL — measured {best_replay:.0f} replay "
          f"accesses/sec is below the gate {b_floor:.0f}",
          file=sys.stderr)
    fail = True
else:
    print(f"bench_baseline: OK — measured {best_replay:.0f} replay "
          f"accesses/sec")

sys.exit(1 if fail else 0)
EOF
