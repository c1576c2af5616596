#!/usr/bin/env python3
"""Entry point of the serving-stack benchmark.

    python3 servebench/run.py --workload sign_hot --seed 1 --seconds 10 --trace 0

Builds the benchmark program (servebench/CMakeLists.txt) under $CARGO_TARGET_DIR
(default .bench_build), gives the run a fresh netlist cache directory and
fills it in an untimed prime step, then:

  --trace 0  sets the stack up SETUP_REPS times in separate processes (the
             last one goes on to the timed window) and prints the
             end-to-end metrics, setup_s being the median set-up;
  --trace 1  runs the separate traced replay and prints the per-layer
             metrics; its spans are written under <build dir>/spans/.

Every process gets its own fresh key-state directory. The run directory
is removed at exit. The last line of standard output is one JSON object;
the exit code is nonzero when any output failed its check, and nonzero
without a JSON line when the benchmark could not run at all.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sign_hot", "tenant_churn", "gauss_bulk")
SETUP_REPS = 3
# Budget for the child processes of one run, build excluded: a run that
# builds nothing must end within 180 s.
RUN_BUDGET_S = 165


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_root):
    build_dir = os.path.join(build_root, "servebench")
    cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")) and shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (cmd, ["cmake", "--build", build_dir, "-j", jobs]):
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise RuntimeError("build failed: " + " ".join(step))
    return os.path.join(build_dir, "servebench")


class Runner:
    def __init__(self, binary, args, run_dir):
        self.binary = binary
        self.args = args
        self.run_dir = run_dir
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ)
        self.env["CGS_CACHE_DIR"] = os.path.join(run_dir, "cache")
        # The host compiler's scratch files stay inside the checkout too.
        self.env["TMPDIR"] = os.path.join(run_dir, "tmp")
        for d in (self.env["CGS_CACHE_DIR"], self.env["TMPDIR"]):
            os.makedirs(d)
        self.processes = 0

    def invoke(self, phase, extra=()):
        """Run one benchmark process; return its final JSON line."""
        self.processes += 1
        kv_dir = os.path.join(self.run_dir, "kv-%d" % self.processes)
        cmd = [self.binary, "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--seconds", str(self.args.seconds),
               "--phase", phase, "--cache-dir", self.env["CGS_CACHE_DIR"],
               "--kv-dir", kv_dir, *extra]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError("run budget exhausted before phase " + phase)
        # subprocess.run kills the child on timeout and waits for it.
        proc = subprocess.run(cmd, env=self.env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=remaining)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            raise RuntimeError("phase %s exited %d without a result" % (phase, proc.returncode))
        if proc.returncode != 0 and result.get("correct", True):
            raise RuntimeError("phase %s exited %d" % (phase, proc.returncode))
        return result


def measure(runner, args, spans_path):
    runner.invoke("prime")
    if args.trace:
        return runner.invoke("trace", ["--spans", spans_path])
    setups = [runner.invoke("setup")["setup_s"] for _ in range(SETUP_REPS - 1)]
    result = runner.invoke("run")
    setups.append(result.pop("setup_s"))
    log("setup_s per process: " + ", ".join("%.3f" % s for s in setups))
    result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)  # no-op when absolute
    try:
        binary = build(build_root)
    except RuntimeError as e:
        log("servebench: %s" % e)
        return 1

    run_dir = os.path.join(build_root, "runs", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    spans_dir = os.path.join(build_root, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans_path = os.path.join(spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))
    try:
        result = measure(Runner(binary, args, run_dir), args, spans_path)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        log("servebench: %s" % e)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
