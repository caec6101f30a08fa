#!/usr/bin/env python3
"""Steadiness tool: run a perfbench workload N times and report each
metric's median, quartiles and spread ((Q3 - Q1) / median, quartiles as
statistics.quantiles(values, n=4) gives them).

One build:
    python3 perfbench/steady.py --workload citpatents --runs 10
Two builds (each argument is the root of a checkout); the order of the two
alternates from one seed to the next so drift over time hits both sides:
    python3 perfbench/steady.py --workload citpatents --runs 10 \\
        --compare /path/to/parent /path/to/change

Seeds are --seed0, --seed0+1, ...; --trace 1 reports the per-layer
metrics instead. Each end-to-end metric whose spread exceeds a third of its
bound in BENCHMARK.json is marked OVER (setup_s, whose spread the bound
does not cover, never is). --json FILE also writes every run's raw result.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        for line in r.stderr.splitlines():
            if "CHECK FAILED" in line or "threw" in line or "killed" in line:
                sys.stderr.write(line[:2000] + "\n")
        raise SystemExit(f"run failed: {' '.join(cmd)} (exit {r.returncode})")
    return json.loads(lines[-1])


def summarize(results):
    names = sorted({k for res in results for k in res["metrics"]})
    rows = {}
    for n in names:
        vals = [res["metrics"][n]["value"] for res in results
                if n in res["metrics"]]
        unit = next(res["metrics"][n]["unit"] for res in results
                    if n in res["metrics"])
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else float("nan")
        rows[n] = dict(unit=unit, median=med, q1=q1, q3=q3, spread=spread,
                       n=len(vals))
    return rows


def load_bounds():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    try:
        with open(path) as f:
            return {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    except (OSError, KeyError, ValueError):
        return {}


def print_table(title, rows, bounds):
    print(f"\n{title}")
    print("| metric | unit | median | Q1 | Q3 | spread | bound/3 |")
    print("|---|---|---|---|---|---|---|")
    for n, r in rows.items():
        b = bounds.get(n)
        mark = ""
        if b is not None:
            mark = f"{b / 3:.3f}" + (" OVER" if r["spread"] > b / 3 and
                                     n != "setup_s" else "")
        print(f"| {n} | {r['unit']} | {r['median']:.6g} | {r['q1']:.6g} | "
              f"{r['q3']:.6g} | {r['spread']:.4f} | {mark} |")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", nargs=2, metavar=("ROOT_A", "ROOT_B"))
    p.add_argument("--json", help="write raw results here")
    a = p.parse_args()
    seconds = a.seconds
    if seconds is None:
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]
    bounds = load_bounds() if a.trace == 0 else {}
    roots = a.compare or [os.path.dirname(HERE)]
    results = {root: [] for root in roots}
    for i in range(a.runs):
        seed = a.seed0 + i
        order = roots if i % 2 == 0 else list(reversed(roots))
        for root in order:
            res = run_once(root, a.workload, seed, seconds, a.trace)
            results[root].append(res)
            ok = "ok" if res["correct"] else "CHECK FAILED"
            print(f"# {os.path.basename(root) or root} seed={seed} {ok} "
                  f"attempted={res['attempted']} failed={res['failed']}",
                  file=sys.stderr, flush=True)
    summaries = {root: summarize(results[root]) for root in roots}
    for root in roots:
        fails = sum(r["failed"] for r in results[root])
        att = sum(r["attempted"] for r in results[root])
        correct = all(r["correct"] for r in results[root])
        print_table(f"## {a.workload} @ {root}: {a.runs} runs, seeds "
                    f"{a.seed0}..{a.seed0 + a.runs - 1}, --seconds {seconds}, "
                    f"correct={correct}, failed {fails}/{att}",
                    summaries[root], bounds)
    if a.compare:
        sa, sb = (summaries[r] for r in roots)
        print(f"\n## median ratio B/A ({roots[1]} over {roots[0]})")
        print("| metric | A median | B median | B/A |")
        print("|---|---|---|---|")
        for n in sa:
            if n in sb and sa[n]["median"]:
                print(f"| {n} | {sa[n]['median']:.6g} | {sb[n]['median']:.6g}"
                      f" | {sb[n]['median'] / sa[n]['median']:.4f} |")
    if a.json:
        with open(a.json, "w") as f:
            json.dump({r: results[r] for r in roots}, f, indent=1)


if __name__ == "__main__":
    main()
