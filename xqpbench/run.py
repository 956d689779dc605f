#!/usr/bin/env python3
"""Build the xqp benchmark driver from this checkout and run one workload.

    python3 xqpbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a source checkout. The engine under ../src and the
driver in this directory are built (Release) into .bench_build/ at the
checkout root on first use; later runs only re-check the build. Scratch
files (the ingest snapshot) live in a per-run directory under .bench_build/
that is removed afterwards; the traced run's spans are written to
.bench_build/traces/<workload>.jsonl. Build output goes to stderr, so the
last line of stdout is the JSON result.

An untraced run is split into PROCESSES driver processes of equal length,
one after the other, and reports the median of their figures: timings on
a shared machine also vary with where each process's memory lands, which
one long process cannot average out. A traced run is one process.
"""

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROCESSES = 4


def arg_value(argv, flag):
    for i, a in enumerate(argv[:-1]):
        if a == flag:
            return argv[i + 1]
    return None


def with_value(argv, flag, value):
    out = list(argv)
    out[out.index(flag) + 1] = value
    return out


def build():
    cmake_dir = os.path.join(BUILD, "cmake")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(cmake_dir, "xqp_bench")


class Child:
    """Runs one driver process; SIGTERM/SIGINT to run.py stop it."""

    def __init__(self):
        self.proc = None
        signal.signal(signal.SIGTERM, self.stop)
        signal.signal(signal.SIGINT, self.stop)

    def stop(self, signum, frame):
        if self.proc is not None:
            self.proc.terminate()
        raise SystemExit(128 + signum)

    def run(self, cmd, capture):
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE if capture else None, text=True)
        try:
            out, _ = self.proc.communicate()
            return self.proc.returncode, out
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc = None


def combine(results):
    """Median of each metric over the processes; counts are summed."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values),
                         "unit": first["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv):
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        if arg_value(argv, flag) is None:
            sys.stderr.write("run.py: %s is required\n" % flag)
            return 2
    binary = build()
    if binary is None:
        return 1
    workdir = os.path.join(BUILD, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary] + argv + ["--workdir", workdir]
    child = Child()
    sys.stdout.flush()
    try:
        if arg_value(argv, "--trace") == "1":
            traces = os.path.join(BUILD, "traces")
            os.makedirs(traces, exist_ok=True)
            trace_file = os.path.join(
                traces, arg_value(argv, "--workload") + ".jsonl")
            rc, _ = child.run(cmd + ["--trace-file", trace_file], False)
            return rc
        seconds = float(arg_value(argv, "--seconds")) / PROCESSES
        cmd = with_value(cmd, "--seconds", repr(seconds))
        results = []
        for _ in range(PROCESSES):
            rc, out = child.run(cmd, True)
            lines = out.splitlines()
            sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
            try:
                results.append(json.loads(lines[-1]))
            except (IndexError, ValueError):
                return rc or 1
            if rc != 0:
                break
        combined = combine(results)
        print(json.dumps(combined))
        return 0 if combined["correct"] and rc == 0 else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
