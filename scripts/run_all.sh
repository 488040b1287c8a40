#!/usr/bin/env bash
# Rebuild everything, run the test suite, and regenerate every table,
# figure, ablation and extension result into results/.
#
#   scripts/run_all.sh [--jobs N]
#
# --jobs N shards the campaign-style benches (figure5_energy,
# figure6_time, robustness_faults, robustness_seeds) across N host
# threads. Their output is byte-identical to a serial run, so N only
# affects wall time. A campaign with a failed point exits 1 and prints
# the diagnostic and a rerun command (`--only-point I`) per failed
# point to stderr.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=1
while [ $# -gt 0 ]; do
    case "$1" in
        --jobs)   JOBS="$2"; shift 2 ;;
        --jobs=*) JOBS="${1#--jobs=}"; shift ;;
        *)
            echo "usage: $0 [--jobs N]" >&2
            exit 2 ;;
    esac
done

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

mkdir -p results

# Campaign benches: final artifact emitted by atomic rename, only
# when every point succeeded.
campaign_args() {
    local name="$1"
    echo "--jobs $JOBS --out results/$name.json"
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
