#!/usr/bin/env python3
"""End-to-end AIM benchmark entry point.

    python3 perfbench/run.py --workload estimate-adult --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the library and
aimd from src/ and tools/) into .bench_build/; later calls rebuild only what
changed. The driver binary prints its result as the last stdout line; this
script passes it through and exits with the driver's code. A build failure
or a timeout exits non-zero without printing a result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("estimate-adult", "scan-msnbc", "serve-jobs")
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver, the self-test and aimd."""
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr, stderr=sys.stderr) != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    targets = ["perfbench_e2e", "perfbench_selftest", "aimd"]
    return subprocess.call(["cmake", "--build", BUILD, "-j", jobs, "--target"]
                           + targets, stdout=sys.stderr, stderr=sys.stderr) == 0


def run(command):
    """Runs the driver in its own process group; returns (code, stdout)."""
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("driver timed out after %d s" % RUN_TIMEOUT_S)
        return 1, ""
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not build():
        log("build failed")
        return 1
    bin_dir = os.path.join(BUILD, "bin")
    if args.selftest:
        code, out = run([os.path.join(bin_dir, "perfbench_selftest")])
        sys.stdout.write(out)
        return code

    work_dir = os.path.join(BUILD, "work", "%s-%d" % (args.workload, os.getpid()))
    code, out = run([os.path.join(bin_dir, "perfbench_e2e"),
                     "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", repr(args.seconds), "--trace", str(args.trace),
                     "--work-dir", work_dir,
                     "--aimd", os.path.join(bin_dir, "aimd")])
    shutil.rmtree(work_dir, ignore_errors=True)
    lines = [line for line in out.splitlines() if line.strip()]
    if code != 0 and not lines:
        log("driver exited with code %d" % code)
        return code
    if lines:
        print(lines[-1], flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
