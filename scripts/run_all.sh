#!/usr/bin/env bash
# Rebuild everything, run the test suite, and regenerate every table,
# figure, ablation and extension result into results/.
#
#   scripts/run_all.sh [--jobs N]
#
# --jobs N shards the campaign benches (paper_campaign,
# robustness_faults) across N host threads. Their output is
# byte-identical to a serial run, so N only affects wall time.
# paper_campaign writes Table 2, Figures 5/6, the ablations, the
# scaling study and the seed sweep as results/<name>.txt, one file per
# golden.txt pin; every other bench's stdout goes to
# results/<bench>.txt. A campaign with a failed point exits 1 and
# prints the diagnostic and a rerun command (`--only-point I`) per
# failed point to stderr.
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

# The generator is whatever build/ was first configured with.
cmake -B build -S .
cmake --build build
ctest --test-dir build --output-on-failure

mkdir -p results

# An explicit list, not build/bench/*: a build tree keeps the binaries
# of benches that have since been deleted from bench/.
BENCHES=(
    paper_campaign
    robustness_faults
    table3_sleep_states
    figure3_bit_variability
    extension_tree_barrier
    extension_locks
    extension_mp_barrier
    micro_simcore
    micro_primitives
)

for name in "${BENCHES[@]}"; do
    b="build/bench/$name"
    echo "== $name"
    case "$name" in
        micro_primitives)
            "$b" --benchmark_min_time=0.1 | tee "results/$name.txt" ;;
        paper_campaign)
            "$b" --jobs "$JOBS" --out results/ ;;
        robustness_faults)
            "$b" --jobs "$JOBS" | tee "results/$name.txt" ;;
        *)
            "$b" | tee "results/$name.txt" ;;
    esac
done

echo "All outputs in results/."
