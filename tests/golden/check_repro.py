#!/usr/bin/env python3
"""Check that a failed point's rerun command reruns the same point.

    check_repro.py BENCH_DIR

A failed point's rerun command is `BENCH --only-point I`. For each
check below, runs the whole campaign with --jobs 4, then
`BENCH --only-point I` for a few points, and exits 1 unless every
repro reproduces the campaign's own record of point I:

  out    line I of the campaign's --out artifact equals the stdout of
         the repro (one JSON line per point);
  stats  the campaign's --stats-json line with "point": I equals the
         repro's --stats-json line.
"""

import json
import os
import subprocess
import sys
import tempfile

# (bench, extra flags, reference, points)
CHECKS = [
    ("robustness_faults", ["--quick"], "out", [0, 7, 35]),
    ("paper_campaign", [], "stats", [3]),
]


def run(argv):
    return subprocess.run(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, check=True,
                          text=True).stdout


def stats_line(path, point):
    with open(path) as f:
        for line in f:
            if json.loads(line).get("point") == point:
                return line
    return None


def check(bench, flags, reference, points, scratch):
    campaign = os.path.join(scratch, "campaign")
    if reference == "out":
        run([bench, "--jobs", "4", "--out", campaign] + flags)
        with open(campaign) as f:
            records = f.read().splitlines(keepends=True)
    else:
        run([bench, "--jobs", "4", "--stats-json", campaign] + flags)
    status = 0
    for point in points:
        repro_argv = [bench, "--only-point", str(point)] + flags
        if reference == "out":
            want = records[point]
            got = run(repro_argv)
        else:
            want = stats_line(campaign, point)
            single = os.path.join(scratch, f"point{point}")
            run(repro_argv + ["--stats-json", single])
            got = stats_line(single, point)
        name = f"{os.path.basename(bench)} point {point}"
        if want is None or got != want:
            print(f"{name}: repro differs from the campaign's record\n"
                  f"campaign: {want}\nrepro:    {got}")
            status = 1
        else:
            print(f"{name}: repro matches the campaign's {reference} "
                  f"record")
    return status


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    status = 0
    for bench, flags, reference, points in CHECKS:
        with tempfile.TemporaryDirectory() as scratch:
            status |= check(os.path.join(argv[1], bench), flags,
                            reference, points, scratch)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
