#!/usr/bin/env python3
"""Build (if needed) and run one perfbench workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a DGAP checkout. The benchmark package in perfbench/
is configured and built with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); the build log goes to stderr.

A run is PARTS sequential processes of the perfbench binary on the same
seeded input, each measuring for S / PARTS seconds; each draws the htap and
kernel phases' insertion orders from the seed and its part index. Two
effects are fixed per process on this kind of host: the latency model
calibrates its pause loop once at start-up (spin_wait_ns(250) measured
210-351 ns from one process to the next), and where the pool and the
kernels' arrays land (CC on one input measured 1.2 ms in some processes,
2.1 ms in others).
Pooling the samples of several processes keeps either from deciding a
run's figures. Each end-to-end metric is the median of the pooled samples;
each per-layer metric is the median of the processes' values. The last
stdout line is the JSON result; with --trace 1 it holds the per-layer
metrics and the traced end-to-end medians go to stderr (their difference
from an untraced run is the tracing overhead).
"""
import argparse
import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

WORKLOADS = ("orkut", "citpatents")
PARTS = 4
# A part measures for S / PARTS seconds; set-up, checks and the traced
# probes take the rest of its time. A part still running after this margin
# is taken to hang (fault F2 in README) and is killed.
PART_MARGIN_S = 30


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    a = p.parse_args()
    if not 1 <= a.seconds <= 100:
        fail("--seconds must be in [1, 100]")
    if a.seed < 0:
        fail("--seed must be >= 0")
    return a


def build(root, build_dir):
    src = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "core", "dgap_store.hpp")):
        fail(f"{root} holds no DGAP source tree (src/ is missing)")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found on PATH")
    os.makedirs(build_dir, exist_ok=True)
    # One builder at a time per build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", src, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", "4"])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                fail(f"build step failed: {' '.join(cmd)}", 3)
    exe = os.path.join(build_dir, "perfbench")
    if not os.access(exe, os.X_OK):
        fail(f"build produced no {exe}", 3)
    return exe


def run_part(exe, a, part, seconds, scratch):
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(seconds), "--trace", a.trace,
           "--scratch", scratch, "--part", str(part)]
    timeout = seconds + PART_MARGIN_S
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True,
                            text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        shutil.rmtree(scratch, ignore_errors=True)
        sys.stderr.write(err)
        phases = [ln for ln in err.splitlines()
                  if ln.startswith("perfbench: phase ")]
        hung = phases[-1].split()[-1] if phases else "start"
        fail(f"a part exceeded {timeout:.0f} s and was killed; failed "
             f"phase: {hung}", 5)
    shutil.rmtree(scratch, ignore_errors=True)
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if not lines:
        fail(f"a part printed no result (exit {proc.returncode})", 6)
    return proc.returncode, json.loads(lines[-1])


def main():
    a = parse_args()
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = build(root, os.path.join(root, target, "perfbench"))

    parts = []
    code = 0
    for i in range(PARTS):
        scratch = os.path.join(root, target, f"run-{os.getpid()}-p{i}")
        rc, res = run_part(exe, a, i, a.seconds / PARTS, scratch)
        parts.append(res)
        code = code or rc

    samples, units = {}, {}
    for res in parts:
        for k, m in res["samples"].items():
            samples.setdefault(k, []).extend(m["values"])
            units[k] = m["unit"]
    e2e = {k: {"value": statistics.median(v), "unit": units[k]}
           for k, v in sorted(samples.items())}
    layer = {}
    for k in sorted({k for res in parts for k in res["layer"]}):
        vals = [res["layer"][k]["value"] for res in parts
                if k in res["layer"]]
        unit = next(res["layer"][k]["unit"] for res in parts
                    if k in res["layer"])
        layer[k] = {"value": statistics.median(vals), "unit": unit}
    result = {
        "correct": all(res["correct"] for res in parts),
        "attempted": sum(res["attempted"] for res in parts),
        "failed": sum(res["failed"] for res in parts),
        "metrics": layer if a.trace == "1" else e2e,
    }
    if a.trace == "1":
        print("perfbench: traced end-to-end " + json.dumps(e2e),
              file=sys.stderr)
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
