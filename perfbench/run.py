#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload corpus-cold|replay-hits \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the harness (and the verifier
libraries it links, from src/) into .bench_build/, runs one workload, and
relays the harness output, whose last line is the JSON result. Exits
non-zero without a result when the checkout has no verifier sources or the
build fails.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "run")
HARNESS_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def tree_digest():
    """Content digest of the verifier sources and the benchmark, for the
    provenance line when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", os.path.join("bench", "suite")):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def revision():
    # Only this checkout's own history: git would otherwise report the rev
    # of any repository that happens to enclose the checkout.
    if not os.path.exists(".git"):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    log_path = os.path.join(".bench_build", "build.log")
    os.makedirs(".bench_build", exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_harness", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench_harness")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["corpus-cold", "replay-hits"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for need in ("src/CMakeLists.txt", "bench/suite", "perfbench/CMakeLists.txt"):
        if not os.path.exists(need):
            fail("run from the root of a repository checkout (missing %s)" % need)

    harness = build()
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    print("provenance: rev=%s tree=%s build=RelWithDebInfo" % (revision(), tree_digest()))
    sys.stdout.flush()

    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ".", "--work", WORK_DIR]
    # Own process group, so a timeout takes the daemon and solver workers
    # down with the harness.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("harness exceeded %d s" % HARNESS_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
