#!/usr/bin/env bash
# PDES determinism matrix (docs/PERFORMANCE.md, "Parallel simulation"):
# two sweeps over --sim-threads 1, 2, 3, 4 and 8, requiring every
# artifact to be byte-identical to the serial (--sim-threads 1)
# reference. 3 threads gives uneven partition ownership (3/3/2 of the
# 8 clusters); each run's wall time is logged so an oversubscribed
# slowdown (8 threads on a smaller host) is visible.
#
# Sweep 1 — serial plan: one representative single simulation
# (thrifty_sim with --trace/--stats-json, which force the serial plan)
# and one full supervised campaign (figure6_time) with observability
# artifacts attached. Compares result JSON, --stats-json, --trace and
# the campaign's TBRESULT1 --out file.
#
# Sweep 2 — partitioned plan: the same binaries WITHOUT trace capture,
# with an explicit --sim-partitions so the machine really decomposes
# into cluster partitions (8 on the 64-node figure6 machine, 4 on the
# 16-node thrifty_sim run). Worker threads drain real engine channels
# here, so this is the sweep that proves the partitioned machine —
# not just the one-partition umbrella — is deterministic. The engine
# picks its executor by worker count (sequential at 1, window rounds
# at 2 or more), so each partitioned run is labelled with it: a
# mismatch between the two executors is then obvious in the log.
#
# This is the per-simulation analogue of the --jobs determinism diffs:
# worker threads inside the engine must never be observable in any
# output.
#
#   BUILD_DIR=build OUT_DIR=pdes_determinism scripts/pdes_determinism.sh
#
# The binaries (tools/thrifty_sim, bench/figure6_time) must already be
# built in $BUILD_DIR. Artifacts stay in $OUT_DIR for upload on
# failure. Exit 0 = all thread counts identical, 1 = divergence.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
OUT_DIR=${OUT_DIR:-pdes_determinism}
THREADS=${THREADS:-1 2 3 4 8}

sim=$BUILD_DIR/tools/thrifty_sim
fig=$BUILD_DIR/bench/figure6_time
for bin in "$sim" "$fig"; do
    if [ ! -x "$bin" ]; then
        echo "pdes_determinism: $bin not built" >&2
        exit 2
    fi
done

rm -rf "$OUT_DIR"
mkdir -p "$OUT_DIR"

# Run a command and log its wall time on stderr (stdout may be
# redirected into an artifact): timed LABEL CMD...
timed() {
    local label=$1
    shift
    local t0 t1
    t0=$(date +%s%N)
    "$@"
    t1=$(date +%s%N)
    echo "  $label: $(( (t1 - t0) / 1000000 )) ms" >&2
}

# Executor a partitioned run at THREADS workers uses: executor THREADS
executor() {
    if [ "$1" -le 1 ]; then echo sequential; else echo window; fi
}

for t in $THREADS; do
    d=$OUT_DIR/t$t
    mkdir -p "$d"
    echo "==== --sim-threads $t (serial plan) ===="
    timed thrifty_sim "$sim" --app Volrend --config T --dim 4 \
        --sim-threads "$t" --json --stats-json "$d/sim_stats.json" \
        --trace "$d/sim_trace.json" > "$d/sim_result.json"
    timed figure6_time "$fig" --sim-threads "$t" --out "$d/figure6.out" \
        --stats-json "$d/figure6_stats.jsonl" \
        --trace "$d/figure6_trace.json" > /dev/null
    echo "==== --sim-threads $t (partitioned plan, $(executor "$t")" \
         "executor) ===="
    timed thrifty_sim "$sim" --app Volrend --config T --dim 4 \
        --sim-partitions 4 --sim-threads "$t" --json \
        > "$d/sim_partitioned.json"
    timed figure6_time "$fig" --sim-threads "$t" --sim-partitions 8 \
        --out "$d/figure6_partitioned.out" > /dev/null
done

ref=$OUT_DIR/t${THREADS%% *}
fail=0
for t in $THREADS; do
    d=$OUT_DIR/t$t
    [ "$d" = "$ref" ] && continue
    for f in sim_result.json sim_stats.json sim_trace.json \
             figure6.out figure6_stats.jsonl figure6_trace.json \
             sim_partitioned.json figure6_partitioned.out; do
        if ! cmp -s "$ref/$f" "$d/$f"; then
            r=${ref#"$OUT_DIR"/t}
            note=
            case $f in
            *partitioned*)
                note=" ($(executor "$r") vs $(executor "$t") executor)" ;;
            esac
            echo "MISMATCH: $f differs between --sim-threads $r" \
                 "and --sim-threads $t$note" >&2
            fail=1
        fi
    done
done

if [ "$fail" -ne 0 ]; then
    echo "pdes_determinism: FAILED — artifacts in $OUT_DIR" >&2
    exit 1
fi
echo "pdes_determinism: all artifacts byte-identical at" \
     "--sim-threads $THREADS (serial and partitioned plans)"
