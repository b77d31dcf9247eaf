#!/usr/bin/env python3
"""Benchmark entry point: build the server and the load generator from
source, run one workload, print its result line.

    python3 perfbench/run.py --workload build|hit|mixed --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones. Every run also appends a full record (quartiles, steal time, load
average, revision) to perfbench/_out/records.jsonl; perfbench/report.py
summarizes those records.
"""

import argparse
import fcntl
import hashlib
import os
import signal
import subprocess
import sys
import time

WORK = os.path.join("perfbench", "_work")
RECORDS = os.path.join("perfbench", "_out", "records.jsonl")
SERVER = os.path.join("_build", "default", "bin", "kregret_serve_cli.exe")
LOADGEN = os.path.join("_build", "default", "perfbench", "loadgen.exe")
# a run must end within 180 s; the load generator gets what a no-op build
# left of that, and never less than 150 s after a real (first) build
DEADLINE_S = 175
MIN_RUN_S = 150


def source_rev():
    """The git revision when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            dirty = subprocess.run(["git", "status", "--porcelain"],
                                   capture_output=True, text=True, timeout=10)
            return out.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("_"))
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", "dune", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["build", "hit", "mixed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project")
            and os.path.isfile(os.path.join("bin", "kregret_serve_cli.ml"))):
        print("perfbench: not the root of a kregret source checkout",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./" + SERVER,
         "./" + LOADGEN],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    # runs share the work directory and socket path: one at a time
    os.makedirs(WORK, exist_ok=True)
    lock = open(os.path.join(WORK, ".lock"), "w")
    fcntl.flock(lock, fcntl.LOCK_EX)

    cmd = [LOADGEN, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", SERVER, "--work", WORK, "--record", RECORDS,
           "--rev", source_rev()]
    # own process group: on a timeout the server child goes down with it
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(
            timeout=max(MIN_RUN_S, DEADLINE_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: timed out", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
