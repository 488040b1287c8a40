#!/usr/bin/env python3
"""Check benchmark/run.py output: every workload ran and was correct.

    python3 benchmark/run.py --seconds 1 | tee bench.jsonl
    python3 scripts/check_benchmark_smoke.py bench.jsonl

run.py prints, per workload, a "check" line naming the workload and,
last, a result line {"correct", "attempted", "failed", "metrics"}.
"correct" covers the reference check of every simulated point against
benchmark/reference.json, repeatability and failed simulations. Exits 1
unless each workload BENCHMARK.json declares printed a result line with
"correct": true, listing what is missing or wrong.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = [w["name"] for w in spec["workloads"]]
    results = {}
    workload = None
    with open(argv[1]) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "check" in obj:
                workload = obj["check"]["workload"]
            elif "correct" in obj:
                results[workload] = obj
    problems = []
    for name in want:
        r = results.get(name)
        if r is None:
            problems.append(f"{name}: no result line")
        elif r["correct"] is not True:
            problems.append(f"{name}: correct={r['correct']} "
                            f"(failed {r['failed']} of {r['attempted']})")
        else:
            print(f"{name}: correct ({r['attempted']} simulations)")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
