#!/usr/bin/env python3
"""Build tb_bench, run benchmark workloads, check their outputs, print metrics.

Run from the repository root:

  python3 benchmark/run.py                       # every workload, seed 1
  python3 benchmark/run.py --workload paper-suite --seed 1 --seconds 25 --trace 0
  python3 benchmark/run.py --workload barrier-storm --trace 1   # per-layer metrics
  python3 benchmark/run.py --workload single-sim --self-test    # must print correct: false
  python3 benchmark/run.py --write-reference     # regenerate reference.json

Each workload prints, one JSON object per line: a "host" line, a "check"
line, one "metric" line per metric with its unit and sample count, and
last the result {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The process exits 2 without a result when
the tree cannot be built or the build is unfit for timing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
REFERENCE = BENCH_DIR / "reference.json"
REFERENCE_SEEDS = (1, 2)
# Fresh processes timed for setup_s, besides the measured run itself.
SETUP_SPAWNS = 39
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def host_threads():
    return min(4, len(os.sched_getaffinity(0)))


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")


def build():
    """Configure once, then (re)build tb_bench; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"{ROOT} holds no source tree to build")
    BUILD.mkdir(exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release",
                      f"-DCMAKE_PROJECT_INCLUDE={BENCH_DIR / 'hook.cmake'}"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "tb_bench",
                  "-j", str(host_threads())])
    log = BUILD / "build.log"
    with open(log, "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=900).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                die(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                sys.stderr.write(log.read_text()[-4000:])
                die(f"build step {' '.join(cmd[:2])} exited {rc}")
    return BUILD / "benchmark" / "tb_bench"


def tb_bench(exe, args, timeout=RUN_TIMEOUT_S):
    try:
        p = subprocess.run([str(exe), *args], capture_output=True, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        die(f"tb_bench {' '.join(args)} timed out after {timeout} s", 1)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        die(f"tb_bench {' '.join(args)} exited {p.returncode}",
            2 if p.returncode == 2 else 1)
    return [json.loads(line) for line in p.stdout.splitlines() if line]


def only(lines, kind):
    found = [x for x in lines if x["kind"] == kind]
    if len(found) != 1:
        die(f"tb_bench printed {len(found)} '{kind}' lines, expected 1", 1)
    return found[0]


def timed_run(exe, args):
    """Run tb_bench; also return spawn-to-first-simulation seconds."""
    t0 = time.monotonic()
    lines = tb_bench(exe, args)
    return lines, only(lines, "ready")["monotonic_s"] - t0


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return p.stdout.strip() if p.returncode == 0 else "unknown"


# ---------------------------------------------------------------- checks

def default_partitions(nodes):
    """runExperiment's default plan (src/harness/experiment.cc)."""
    return nodes // 8 if nodes >= 16 else 1


def sim_problem(sim, ref, tol):
    """Why one simulation's outputs are wrong, or None."""
    if sim["error"]:
        return "threw: " + sim["error"]
    if not (sim["exec_time_s"] > 0 and sim["energy_j"] > 0):
        return "non-positive execution time or energy"
    if (sim["instances"] != sim["expected_instances"]
            or sim["arrivals"] != sim["threads"] * sim["expected_instances"]):
        return "barrier instances or arrivals differ from the program's"
    if ref is None:
        return None
    want = ref.get(sim["point"])
    if want is None:
        return "no reference entry"
    for key in ("exec_time_s", "energy_j"):
        if abs(sim[key] - want[key]) > tol * abs(want[key]):
            return f"{key} {sim[key]!r} differs from reference {want[key]!r}"
    return None


def check(lines, reference, workload, seed):
    """Check every simulation; returns (check summary, failed count)."""
    ref = reference["seeds"].get(str(seed), {}).get(workload)
    tol = reference["tolerance"]
    sims = [x for x in lines if x["kind"] == "sim"]
    first = {}  # point -> digest of its first untraced simulation
    problems = []
    for sim in sims:
        why = sim_problem(sim, ref, tol)
        if why is None and sim["phase"] != "traced":
            if first.setdefault(sim["point"], sim["digest"]) != sim["digest"]:
                why = "digest differs from this point's first run"
        if why:
            problems.append(f"{sim['phase']} unit {sim['unit']} "
                            f"{sim['point']}: {why}")
    failed = len(problems)
    if ref is not None:
        missing = sorted(set(ref) - set(first))
        problems += [f"{p}: in reference.json but not run" for p in missing]
    units = [x for x in lines if x["kind"] == "unit" and x["phase"] == "plain"]
    traced = [s for s in sims if s["phase"] == "traced"]
    summary = {
        "workload": workload,
        "seed": seed,
        "reference": "absent" if ref is None else
                     ("matched" if not problems else "mismatch"),
        "digest": units[0]["digest"],
        "repeatable": len({u["digest"] for u in units}) == 1,
        "composition_match": all(s.get("digest") == first.get(s["point"])
                                 for s in traced) if traced else None,
        "problems": problems[:10],
    }
    return summary, failed


# ---------------------------------------------------------------- running

def run_workload(exe, spec, args, reference):
    workload, seed = args.workload, args.seed
    common = ["--workload", workload, "--seed", str(seed)]
    setup = [timed_run(exe, common + ["--setup-only"])[1]
             for _ in range(SETUP_SPAWNS)]
    run_args = common + ["--seconds", str(args.seconds)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        run_args += ["--traced", "--trace-out",
                     str(traces / f"{workload}-seed{seed}.json")]
    lines, spawn_to_ready = timed_run(exe, run_args)
    setup.append(spawn_to_ready)

    host = {k: v for k, v in only(lines, "host").items() if k != "kind"}
    host["git_sha"] = git_sha()
    print(json.dumps({"host": host}))
    summary, failed = check(lines, reference, workload, seed)

    if args.trace:
        catalogue = spec["per_layer"]
        measured = only(lines, "layer")["metrics"]
        # tb_bench's traced composition copies runExperiment's default
        # partition plan. This pins the copy; a change of the plan in
        # experiment.cc shows as a digest mismatch wherever it moves a
        # result.
        want = {default_partitions(x["threads"]) for x in lines
                if x["kind"] == "sim" and not x["error"]}
        parts = measured["pdes.partitions"]["value"]
        if want != {parts}:
            summary["problems"].append(
                f"traced pdes.partitions {parts} is not the default plan "
                f"{sorted(want)}")
            summary["composition_match"] = False
        walls = {phase: statistics.median(
                     x["wall_s"] for x in lines
                     if x["kind"] == "unit" and x["phase"] == phase)
                 for phase in ("plain", "traced")}
        measured["trace_overhead_frac"] = {
            "value": walls["traced"] / walls["plain"] - 1.0}
        measured["trace.composition_match"] = {
            "value": 1 if summary["composition_match"] else 0}
    else:
        catalogue = spec["end_to_end"]
        measured = only(lines, "e2e")["metrics"]
        measured["setup_s"] = {"value": statistics.median(setup),
                               "samples": len(setup)}
    print(json.dumps({"check": summary}))

    metrics = {}
    for m in catalogue:
        if m["name"] not in measured:
            die(f"tb_bench did not measure {m['name']}", 1)
        got = measured[m["name"]]
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        line = {"metric": m["name"], "workload": workload,
                "value": got["value"], "unit": m["unit"],
                "samples": got.get("samples", 1)}
        if args.trace:
            line["composition_match"] = summary["composition_match"]
        print(json.dumps(line))
    sims = sum(1 for x in lines if x["kind"] == "sim")
    correct = failed == 0 and not summary["problems"]
    print(json.dumps({"correct": correct, "attempted": sims,
                      "failed": failed, "metrics": metrics}), flush=True)


def write_reference(exe, names):
    seeds = {}
    for seed in REFERENCE_SEEDS:
        per_workload = {}
        for name in names:
            lines = tb_bench(exe, ["--workload", name, "--seed", str(seed),
                                   "--seconds", "0"])
            per_workload[name] = {
                x["point"]: {"exec_time_s": x["exec_time_s"],
                             "energy_j": x["energy_j"]}
                for x in lines if x["kind"] == "sim" and x["phase"] == "plain"}
        seeds[str(seed)] = per_workload
    REFERENCE.write_text(json.dumps({"tolerance": 1e-4, "seeds": seeds},
                                    indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}", file=sys.stderr)


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=names,
                    help="run one workload (default: all, one after another)")
    ap.add_argument("--seed", type=int, default=1,
                    help="workload seed (default 1; seed 2 is held out)")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="host seconds to measure for (default %(default)s)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run printing the per-layer metrics")
    ap.add_argument("--self-test", action="store_true",
                    help="corrupt one reference entry; the run must then "
                         "print correct: false")
    ap.add_argument("--write-reference", action="store_true",
                    help=f"rewrite reference.json for seeds {REFERENCE_SEEDS}")
    args = ap.parse_args()

    exe = build()
    if args.write_reference:
        write_reference(exe, names)
        return
    reference = json.loads(REFERENCE.read_text())
    if args.self_test:
        entries = reference["seeds"].get(str(args.seed), {}).get(
            args.workload or names[0])
        if not entries:
            die("--self-test needs a workload and seed in reference.json")
        victim = entries[sorted(entries)[0]]
        victim["exec_time_s"] *= 1 + 100 * reference["tolerance"]
    for name in [args.workload] if args.workload else names:
        args.workload = name
        run_workload(exe, spec, args, reference)


if __name__ == "__main__":
    main()
