#!/usr/bin/env python3
"""Compare a micro_simcore campaign-JSON run against a checked-in baseline.

Usage:
    compare_bench.py BASELINE.json CURRENT.json [--threshold 0.25]

Both files hold one JSON object per line in the shared campaign shape
emitted by bench/micro_simcore (``"campaign": "simcore"``; other lines
are ignored), so the output of ``micro_simcore --quick | tee`` can be
fed in directly.

Policy:

* The ``calibration`` benchmark measures raw host arithmetic
  throughput. The ratio current/baseline calibration estimates how much
  faster or slower the current host/runner is than the baseline host,
  and every throughput metric is normalized by it before comparison.
  This keeps the gate meaningful on shared CI runners of varying speed.
* Throughput metrics (unit ending in "/s") fail the comparison when the
  normalized value regresses by more than ``--threshold`` (default 25%).
  Improvements never fail; a large improvement is a hint to refresh the
  baseline (see docs/PERFORMANCE.md).
* Metrics with unit "ticks" or "count" are simulated quantities and
  must be bit-identical per seed: any difference is a determinism
  failure, not a perf regression, and always fails regardless of
  threshold.

Exit status: 0 on pass, 1 on regression/mismatch, 2 on usage errors.
"""

import argparse
import json
import sys


def load_metrics(path):
    """Return {benchmark: (unit, value)} for simcore lines."""
    metrics = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if obj.get("campaign") != "simcore":
                    continue
                metrics[obj["benchmark"]] = (obj["unit"], obj["value"])
    except OSError as e:
        sys.exit(f"compare_bench: cannot read {path}: {e}")
    if not metrics:
        sys.exit(f"compare_bench: no simcore metrics found in {path}")
    return metrics


def main():
    ap = argparse.ArgumentParser(
        description="Gate micro_simcore results against a baseline.")
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="max fractional throughput regression "
                         "(default 0.25)")
    args = ap.parse_args()

    base = load_metrics(args.baseline)
    cur = load_metrics(args.current)

    if "calibration" not in base or "calibration" not in cur:
        sys.exit("compare_bench: both files need a 'calibration' metric")
    calib = cur["calibration"][1] / base["calibration"][1]
    print(f"host calibration ratio (current/baseline): {calib:.3f}")
    print(f"regression threshold: {args.threshold:.0%}\n")

    header = (f"{'benchmark':<28} {'baseline':>12} {'current':>12} "
              f"{'normalized':>12} {'delta':>8}  status")
    print(header)
    print("-" * len(header))

    failures = []
    for name, (unit, base_val) in sorted(base.items()):
        if name == "calibration":
            continue
        if name not in cur:
            failures.append(f"{name}: missing from current run")
            print(f"{name:<28} {base_val:>12.4g} {'--':>12} {'--':>12} "
                  f"{'--':>8}  MISSING")
            continue
        cur_unit, cur_val = cur[name]
        if cur_unit != unit:
            failures.append(
                f"{name}: unit changed {unit} -> {cur_unit}")
            continue
        if unit in ("ticks", "count"):
            ok = cur_val == base_val
            status = "ok (exact)" if ok else "DETERMINISM MISMATCH"
            if not ok:
                failures.append(
                    f"{name}: simulated {unit} changed "
                    f"{base_val:g} -> {cur_val:g} (must be bit-stable)")
            print(f"{name:<28} {base_val:>12.6g} {cur_val:>12.6g} "
                  f"{cur_val:>12.6g} {'--':>8}  {status}")
            continue
        norm = cur_val / calib if calib > 0 else cur_val
        delta = norm / base_val - 1.0
        ok = delta >= -args.threshold
        status = "ok" if ok else "REGRESSION"
        if not ok:
            failures.append(
                f"{name}: {-delta:.1%} below baseline "
                f"(threshold {args.threshold:.0%})")
        print(f"{name:<28} {base_val:>12.4g} {cur_val:>12.4g} "
              f"{norm:>12.4g} {delta:>+7.1%}  {status}")

    for name in sorted(set(cur) - set(base)):
        print(f"{name:<28} {'--':>12} {cur[name][1]:>12.4g} "
              f"{'--':>12} {'--':>8}  new (no baseline)")

    print()
    if failures:
        print("FAIL:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("PASS: no throughput regression beyond threshold; "
          "simulated metrics bit-stable.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
