#!/usr/bin/env python3
"""Regenerate golden paper artifacts and compare them with golden.txt.

    check_golden.py BENCH_DIR NAME [NAME ...]

Runs each named artifact's command from golden.txt with the binaries
in BENCH_DIR, hashes the output with FNV-1a 64 and exits 1 on the
first mismatch, printing the value it got next to the pinned one.
"""

import os
import subprocess
import sys
import tempfile

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "golden.txt")


def fnv1a64(data):
    h = 0xcbf29ce484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001b3) & 0xffffffffffffffff
    return h


def load_pins():
    pins = {}
    with open(PINS) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, digest, command = line.split(None, 2)
            pins[name] = (int(digest, 16), command.split())
    return pins


def digest_of(bench_dir, command, scratch):
    out = os.path.join(scratch, "artifact")
    argv = [os.path.join(bench_dir, command[0])]
    argv += [out if a == "{out}" else a for a in command[1:]]
    run = subprocess.run(argv, stdout=subprocess.PIPE, check=True)
    if "{out}" in command:
        with open(out, "rb") as f:
            return fnv1a64(f.read())
    return fnv1a64(run.stdout)


def main(argv):
    if len(argv) < 3:
        sys.stderr.write(__doc__)
        return 2
    bench_dir, names = argv[1], argv[2:]
    pins = load_pins()
    status = 0
    for name in names:
        pinned, command = pins[name]
        with tempfile.TemporaryDirectory() as scratch:
            got = digest_of(bench_dir, command, scratch)
        verdict = "ok" if got == pinned else "MISMATCH"
        print(f"{name}: {verdict} (got {got:016x}, pinned "
              f"{pinned:016x}) <- {' '.join(command)}")
        if got != pinned:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
