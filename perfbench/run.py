#!/usr/bin/env python3
"""Build and run the repo benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which pulls in the
program's library through the repository's own CMakeLists.txt) into
.bench_build/perfbench; later calls only check the build is current.
The workload then runs with IGCN_THREADS=2, and its output, ending with
the one-line JSON result, is passed through. The exit status is the
workload's: non-zero when the build fails or an output check fails.
--trace 1 also writes the benchmark's spans as a Perfetto trace under
.bench_build/traces/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Two pool threads leave headroom on a shared 4-core host; a live
# session then runs three threads (generator, scheduler, one worker).
THREADS = "2"


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (first time) and build; returns False on failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if cfg.returncode != 0:
            log("configure failed:\n" + cfg.stdout[-4000:])
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    res = subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench",
         "perfbench_selftest"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if res.returncode != 0:
        log("build failed:\n" + res.stdout[-4000:])
        return False
    return True


def run_child(cmd):
    env = dict(os.environ, IGCN_THREADS=THREADS)
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def self_test():
    """The C++ self-test, then BENCHMARK.json against the catalog."""
    if run_child([os.path.join(BUILD, "perfbench_selftest")]) != 0:
        return 1
    out = subprocess.run([os.path.join(BUILD, "perfbench"), "--catalog"],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    cat = json.loads(out)
    bench = benchmark_json()
    failures = []

    def expect(ok, what):
        print(("ok  : " if ok else "FAIL: ") + what)
        if not ok:
            failures.append(what)

    expect([w["name"] for w in bench["workloads"]] == cat["workloads"],
           "BENCHMARK.json workloads are the benchmark's, in order")
    for kind in ("end_to_end", "per_layer"):
        mine = [{k: m[k] for k in m if k in ("name", "unit", "better", "bound")}
                for m in cat[kind]]
        expect(bench[kind] == mine,
               f"BENCHMARK.json {kind} metrics equal the catalog")
    print("python self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    if not build():
        return 1
    if args.self_test:
        return self_test()
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    return run_child(cmd)


if __name__ == "__main__":
    sys.exit(main())
