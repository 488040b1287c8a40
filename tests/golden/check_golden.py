#!/usr/bin/env python3
"""Regenerate golden paper artifacts and compare them with golden.txt.

    check_golden.py [--keep DIR] BENCH_DIR NAME [NAME ...]
    check_golden.py --from DIR NAME [NAME ...]

Runs each distinct command of the named pins from golden.txt once,
with the binaries in BENCH_DIR, hashes each pin's output with FNV-1a
64 and prints one ok/MISMATCH line per pin, the value it got next to
the pinned one. Exits 1 when any pin mismatched.

A pin's output is its command's stdout, or the file {out} names, or,
when the command takes a directory {dir}, the file {dir}/NAME.txt.
--keep DIR uses DIR (emptied first) as {dir} instead of a temporary
directory; --from DIR runs nothing and hashes DIR/NAME.txt of such a
kept run.
"""

import os
import shutil
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


def read(path):
    with open(path, "rb") as f:
        return f.read()


def outputs(bench_dir, command, names, scratch, out_dir):
    """Run @command once; return {name: bytes} for each of @names."""
    out = os.path.join(scratch, "artifact")
    subst = {"{out}": out, "{dir}": out_dir}
    argv = [os.path.join(bench_dir, command[0])]
    argv += [subst.get(a, a) for a in command[1:]]
    run = subprocess.run(argv, stdout=subprocess.PIPE, check=True)
    if "{dir}" in command:
        return {n: read(os.path.join(out_dir, n + ".txt")) for n in names}
    if "{out}" in command:
        return {n: read(out) for n in names}
    return {n: run.stdout for n in names}


def report(name, pinned, data, command):
    got = fnv1a64(data)
    verdict = "ok" if got == pinned else "MISMATCH"
    print(f"{name}: {verdict} (got {got:016x}, pinned "
          f"{pinned:016x}) <- {' '.join(command)}")
    return 0 if got == pinned else 1


def main(argv):
    args = argv[1:]
    mode = dir_arg = None
    if len(args) >= 2 and args[0] in ("--keep", "--from"):
        mode, dir_arg, args = args[0], args[1], args[2:]
    pins = load_pins()
    status = 0
    if mode == "--from" and args:
        for name in args:
            pinned, command = pins[name]
            data = read(os.path.join(dir_arg, name + ".txt"))
            status |= report(name, pinned, data, command)
        return status
    if mode == "--from" or len(args) < 2:
        sys.stderr.write(__doc__)
        return 2

    bench_dir, names = args[0], args[1:]
    keep = dir_arg
    if keep is not None:
        shutil.rmtree(keep, ignore_errors=True)
    by_command = {}
    for name in names:
        by_command.setdefault(tuple(pins[name][1]), []).append(name)
    for command, group in by_command.items():
        with tempfile.TemporaryDirectory() as scratch:
            out_dir = keep or os.path.join(scratch, "dir")
            data = outputs(bench_dir, command, group, scratch, out_dir)
        for name in group:
            status |= report(name, pins[name][0], data[name], command)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
