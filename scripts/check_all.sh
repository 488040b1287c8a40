#!/usr/bin/env bash
# Correctness gauntlet: build and run the full test suite under every
# sanitizer preset and with the protocol invariant checker armed by
# default (TB_CHECK=ON), plus the fault-injection campaign
# (docs/ROBUSTNESS.md). Each configuration builds into its own tree
# under build-check/ so the presets never contaminate each other.
#
#   scripts/check_all.sh             # all presets
#   scripts/check_all.sh address     # just one
#   scripts/check_all.sh faults      # fault campaign only
#   scripts/check_all.sh lint        # tblint static analysis only
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--help" ] || [ "${1:-}" = "-h" ]; then
    cat <<'EOF'
usage: scripts/check_all.sh [preset ...]

Presets (default: all of them, in this order):
  lint         tblint static analysis
  check        Debug + TB_CHECK=ON test suite (docs/CHECKING.md)
  faults       multi-seed fault campaign (docs/ROBUSTNESS.md)
  address      AddressSanitizer test suite
  undefined    UBSanitizer test suite
  thread       ThreadSanitizer test suite
EOF
    exit 0
fi

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
    presets=(lint check faults address undefined thread)
fi

run_preset() {
    local preset=$1
    local dir=build-check/$preset
    local -a flags

    case $preset in
      check|faults)
        # Debug + TB_CHECK=ON: every experiment in the suite runs
        # with the invariant checker attached.
        flags=(-DCMAKE_BUILD_TYPE=Debug -DTB_CHECK=ON)
        ;;
      address|undefined|thread)
        flags=(-DCMAKE_BUILD_TYPE=RelWithDebInfo
               -DTB_SANITIZE=$preset)
        ;;
      lint)
        flags=(-DCMAKE_BUILD_TYPE=RelWithDebInfo)
        ;;
      *)
        echo "unknown preset '$preset'" >&2
        echo "expected: lint, check, faults, address, undefined" \
             "or thread" >&2
        return 1
        ;;
    esac

    echo "==== preset $preset ===="
    if [ "$preset" = lint ]; then
        # Static analysis (docs/CHECKING.md): build tblint and sweep
        # the whole tree; any finding fails the preset.
        cmake -B "$dir" -G Ninja "${flags[@]}"
        cmake --build "$dir" -j --target tblint
        "$dir/tools/tblint/tblint" src tools bench
        return 0
    fi
    cmake -B "$dir" -G Ninja "${flags[@]}"
    cmake --build "$dir" -j
    if [ "$preset" = faults ]; then
        # Multi-seed fault campaign with the liveness watchdogs armed:
        # every barrier must release under every injected fault kind.
        "$dir/bench/robustness_faults" --quick
    else
        ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
    fi
}

for p in "${presets[@]}"; do
    run_preset "$p"
done

echo "All presets clean: ${presets[*]}"
