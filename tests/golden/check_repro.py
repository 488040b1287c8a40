#!/usr/bin/env python3
"""Check that a failure manifest's repro command reruns the same point.

    check_repro.py BENCH POINT [FLAG ...]

Runs the campaign BENCH with FLAGs, --jobs 4 and a journal, then
`BENCH --only-point POINT FLAGs`, and exits 1 unless the repro prints
exactly the result the campaign journaled for POINT.
"""

import json
import os
import subprocess
import sys
import tempfile


def main(argv):
    if len(argv) < 3:
        sys.stderr.write(__doc__)
        return 2
    bench, point, flags = argv[1], int(argv[2]), argv[3:]
    with tempfile.TemporaryDirectory() as scratch:
        journal = os.path.join(scratch, "journal.jsonl")
        subprocess.run([bench, "--jobs", "4", "--journal", journal]
                       + flags, stdout=subprocess.DEVNULL, check=True)
        with open(journal) as f:
            records = [json.loads(line) for line in f]
    journaled = {r["point"]: r["result"] for r in records}
    repro = subprocess.run(
        [bench, "--only-point", str(point)] + flags,
        stdout=subprocess.PIPE, check=True, text=True).stdout
    if repro.rstrip("\n") != journaled[point]:
        print(f"point {point} repro differs from its journal record\n"
              f"journal: {journaled[point]}\n"
              f"repro:   {repro.rstrip()}")
        return 1
    print(f"point {point}: repro matches the journal record")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
