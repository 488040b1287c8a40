#!/usr/bin/env bash
# Rebuild everything, run the test suite, and regenerate every table,
# figure, ablation and extension result into results/.
#
#   scripts/run_all.sh [--jobs N] [--sim-threads N] [--resume]
#
# --jobs N shards the campaign-style benches (figure5_energy,
# figure6_time, robustness_faults, robustness_seeds) across N host
# threads. Their output is byte-identical to a serial run, so N only
# affects wall time.
#
# --sim-threads N drives each individual simulation through the
# conservative PDES engine with N worker threads (docs/PERFORMANCE.md,
# "Parallel simulation (PDES)"). Like --jobs, results are
# byte-identical at any N.
#
# --resume continues an interrupted invocation: partial results/ are
# kept, campaign benches skip the points already recorded in their
# journals under results/.journal/, and the regenerated artifacts are
# byte-identical to an uninterrupted run. Campaign failures no longer
# zero out the sweep: each campaign writes a failure manifest
# (results/<bench>.manifest.json) with one repro command per failed
# point.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=1
SIM_THREADS=1
RESUME=0
while [ $# -gt 0 ]; do
    case "$1" in
        --jobs)   JOBS="$2"; shift 2 ;;
        --jobs=*) JOBS="${1#--jobs=}"; shift ;;
        --sim-threads)   SIM_THREADS="$2"; shift 2 ;;
        --sim-threads=*) SIM_THREADS="${1#--sim-threads=}"; shift ;;
        --resume) RESUME=1; shift ;;
        *)
            echo "usage: $0 [--jobs N] [--sim-threads N] [--resume]" >&2
            exit 2 ;;
    esac
done

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

mkdir -p results results/.journal

# Supervised campaign benches: journaled (resumable), final artifact
# emitted by atomic rename, failure manifest on any failed point.
campaign_args() {
    local name="$1"
    local args="--jobs $JOBS --sim-threads $SIM_THREADS"
    args="$args --journal results/.journal/$name.jsonl"
    args="$args --out results/$name.json"
    args="$args --manifest results/$name.manifest.json"
    [ "$RESUME" = 1 ] && args="$args --resume"
    echo "$args"
}

for b in build/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    name=$(basename "$b")
    echo "== $name"
    case "$name" in
        micro_primitives)
            "$b" --benchmark_min_time=0.1 | tee "results/$name.txt" ;;
        figure5_energy|figure6_time|robustness_faults|robustness_seeds)
            # shellcheck disable=SC2046
            "$b" $(campaign_args "$name") | tee "results/$name.txt" ;;
        *)
            "$b" | tee "results/$name.txt" ;;
    esac
done

echo "All outputs in results/."
