#!/usr/bin/env python3
"""Paired A/B comparison of two checkouts on the benchmark's end-to-end metrics.

  python3 benchmark/compare.py --base PARENT_DIR --change CHANGE_DIR \
      [--workload NAME ...] [--pairs 10] [--seed 1]

Each pair runs `python3 benchmark/run.py --trace 0` once in each checkout,
alternating which side goes first, for BENCHMARK.json's run_seconds. Both
checkouts must hold the same benchmark/ files and BENCHMARK.json. For
every (workload, metric), with tolerance = max(bound x base median,
ABS_FLOOR of the metric):

  gain        the change wins at least 9 of 10 pairs (ties count for
              neither side) and the medians differ by more than the
              base's interquartile range; needs at least 10 pairs
  regression  the change's median is worse than the base's by more than
              the tolerance
  unresolved  a side's interquartile range exceeds the tolerance, unless
              every change run reads better than every base run
  ok          none of the above

It also fails when failed simulations per attempted one rose, reports a
changed simulation digest, and refuses runs whose host lines differ in
nproc or threads. Exit status 1 on a regression or a rise in failures.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

# Absolute tolerance below which a difference is never a regression.
# setup_s is about a millisecond of process creation whose run-to-run
# spread is far above any relative bound; 20 ms is what a user would
# notice. BENCHMARK.json holds only relative bounds.
ABS_FLOOR = {"setup_s": 0.02}


def die(msg):
    print(f"compare.py: {msg}", file=sys.stderr)
    sys.exit(2)


def benchmark_fingerprint(root):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    h = hashlib.sha256((root / "BENCHMARK.json").read_bytes())
    for d in spec["paths"]:
        for f in sorted((root / d).rglob("*")):
            if f.is_file() and "__pycache__" not in f.parts:
                h.update(str(f.relative_to(root)).encode())
                h.update(f.read_bytes())
    return spec, h.hexdigest()


def run_once(root, workload, seed):
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    p = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        die(f"{root}: run.py --workload {workload} exited {p.returncode}")
    lines = [json.loads(x) for x in p.stdout.splitlines() if x]
    host = next(x["host"] for x in lines if "host" in x)
    check = next(x["check"] for x in lines if "check" in x)
    return {"host": (host["nproc"], host["threads"]),
            "digest": check["digest"], "result": lines[-1]}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4))


def verdict(metric, base, change):
    """Classify one (workload, metric) over paired runs."""
    lower = metric["better"] == "lower"
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    mb, mc = statistics.median(base), statistics.median(change)
    bq1, _, bq3 = quartiles(base)
    cq1, _, cq3 = quartiles(change)
    tolerance = max(metric["bound"] * mb, ABS_FLOOR.get(metric["name"], 0.0))
    spread = max(bq3 - bq1, cq3 - cq1)
    wins = sum(better(c, b) for b, c in zip(base, change))
    gain = mb - mc if lower else mc - mb
    row = {"base_median": mb, "base_q1": bq1, "base_q3": bq3,
           "change_median": mc, "change_q1": cq1, "change_q3": cq3,
           "wins": wins, "pairs": len(base), "tolerance": tolerance}
    if len(base) >= 10 and wins >= 0.9 * len(base) and gain > bq3 - bq1:
        row["verdict"] = "gain"
    elif -gain > tolerance:
        row["verdict"] = "regression"
    elif spread > tolerance and not all(
            better(c, b) for c in change for b in base):
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "ok"
    return row


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, type=Path,
                    help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path,
                    help="checkout of the change")
    ap.add_argument("--workload", action="append",
                    help="workload to compare (repeatable; default all)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    base_root, change_root = args.base.resolve(), args.change.resolve()
    spec, base_fp = benchmark_fingerprint(base_root)
    if benchmark_fingerprint(change_root)[1] != base_fp:
        die("the two checkouts hold different benchmark files; measure "
            "both commits with identical benchmark code")
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    if args.pairs < 10:
        print(f"note: {args.pairs} pairs; a gain needs at least 10",
              file=sys.stderr)

    runs = {w: {"base": [], "change": []} for w in workloads}
    hosts = set()
    for i in range(args.pairs):
        for w in workloads:
            order = [("base", base_root), ("change", change_root)]
            for side, root in order if i % 2 == 0 else order[::-1]:
                run = run_once(root, w, args.seed)
                hosts.add(run["host"])
                if len(hosts) != 1:
                    die(f"runs saw different (nproc, threads): "
                        f"{sorted(hosts)}")
                runs[w][side].append(run)
            print(f"pair {i + 1}/{args.pairs} {w} done", file=sys.stderr)

    regressed = False
    report = []
    for w in workloads:
        side = runs[w]
        failed = {}
        for name, rs in side.items():
            attempted = sum(r["result"]["attempted"] for r in rs)
            failed[name] = sum(r["result"]["failed"] for r in rs) / attempted
        digests = {name: sorted({r["digest"] for r in rs})
                   for name, rs in side.items()}
        entry = {"workload": w, "failed_frac": failed,
                 "digest_changed": digests["base"] != digests["change"],
                 "digests": digests, "metrics": {}}
        if failed["change"] > failed["base"]:
            regressed = True
        for m in spec["end_to_end"]:
            values = {name: [r["result"]["metrics"][m["name"]]["value"]
                             for r in rs] for name, rs in side.items()}
            row = verdict(m, values["base"], values["change"])
            regressed |= row["verdict"] == "regression"
            entry["metrics"][m["name"]] = row
            print(f"{w:20s} {m['name']:12s} base {row['base_median']:.6g} "
                  f"[{row['base_q1']:.6g}, {row['base_q3']:.6g}]  change "
                  f"{row['change_median']:.6g} [{row['change_q1']:.6g}, "
                  f"{row['change_q3']:.6g}]  wins {row['wins']}/"
                  f"{row['pairs']}  {row['verdict']}")
        print(f"{w:20s} failed_frac base {failed['base']:.3g} change "
              f"{failed['change']:.3g}"
              + ("  ROSE" if failed["change"] > failed["base"] else ""))
        if entry["digest_changed"]:
            print(f"{w:20s} simulation digest changed: {digests}")
        report.append(entry)
    print(json.dumps({"compare": report}))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
