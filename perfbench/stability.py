#!/usr/bin/env python3
"""Run-to-run stability of the benchmark, and comparison of two run sets.

Run one workload N times, each with another seed, and print the median,
quartiles and spread ((q3 - q1) / median) of every metric:

    python3 perfbench/stability.py run --workload tree-4096 --runs 5 \\
        --out /tmp/tree-a.json [--first-seed 1] [--seconds 35]

Compare two such sets against the bounds in BENCHMARK.json (the second
set's median may not be worse than the first's by more than the bound):

    python3 perfbench/stability.py compare /tmp/tree-a.json /tmp/tree-b.json

Quartiles are Python's statistics.quantiles(values, n=4). Run from the root
of a checkout, like perfbench/run.py.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def bounds():
    """metric -> (better, bound or None) from BENCHMARK.json, if present."""
    try:
        with open("BENCHMARK.json") as f:
            b = json.load(f)
    except OSError:
        return {}
    out = {m["name"]: (m["better"], m.get("bound"))
           for m in b.get("end_to_end", []) + b.get("per_layer", [])}
    return out


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def cmd_run(a):
    results = []
    for i in range(a.runs):
        seed = a.first_seed + i
        t0 = time.monotonic()
        p = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             a.workload, "--seed", str(seed), "--seconds", str(a.seconds),
             "--trace", "0"],
            capture_output=True, text=True)
        if p.returncode != 0:
            sys.exit(f"run with seed {seed} failed:\n{p.stderr[-2000:]}")
        res = json.loads(p.stdout.strip().splitlines()[-1])
        res["seed"] = seed
        res["wall_s"] = time.monotonic() - t0
        res["notes"] = [l for l in p.stdout.splitlines() if l.startswith("#")]
        results.append(res)
        print(f"seed {seed}: correct={res['correct']} "
              f"failed={res['failed']}/{res['attempted']} "
              f"wall={res['wall_s']:.1f}s", file=sys.stderr)
    with open(a.out, "w") as f:
        json.dump({"workload": a.workload, "runs": results}, f, indent=1)
    table(results)


def table(results):
    bnd = bounds()
    names = list(results[0]["metrics"])
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for n in names:
        vals = [r["metrics"][n]["value"] for r in results]
        med, q1, q3, spread = summarize(vals)
        b = bnd.get(n, (None, None))[1]
        mark = "" if b is None else (" ok" if spread <= b / 3 else
                                     " WITHIN" if spread <= b else " OVER")
        print(f"{n:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
              f"{'' if b is None else b:>6}{mark}")
    bad = sum(not r["correct"] for r in results)
    print(f"{len(results)} runs, {bad} not correct")


def cmd_compare(a):
    sets = []
    for path in (a.first, a.second):
        with open(path) as f:
            sets.append(json.load(f)["runs"])
    bnd = bounds()
    worst = 0
    print(f"{'metric':32} {'median A':>12} {'median B':>12} {'worse by':>9} "
          f"{'bound':>6}")
    for n in sets[0][0]["metrics"]:
        ma = statistics.median(r["metrics"][n]["value"] for r in sets[0])
        mb = statistics.median(r["metrics"][n]["value"] for r in sets[1])
        better, b = bnd.get(n, ("lower", None))
        worse = ((mb - ma) if better == "lower" else (ma - mb)) / ma if ma else 0
        flag = "" if b is None else (" ok" if worse <= b else " REGRESSED")
        if b is not None and worse > b:
            worst = 1
        print(f"{n:32} {ma:12.6g} {mb:12.6g} {worse:9.3f} "
              f"{'' if b is None else b:>6}{flag}")
    sys.exit(worst)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--seconds", type=float, default=35)
    r.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    a = ap.parse_args()
    (cmd_run if a.cmd == "run" else cmd_compare)(a)


if __name__ == "__main__":
    main()
