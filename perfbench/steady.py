#!/usr/bin/env python3
"""Check that the benchmark is steady: run two sets of ten runs of the
current tree on every workload in BENCHMARK.json and compare them against
the bounds there.

    python3 perfbench/steady.py [--first-seed 1]

Each run uses its own seed: the first set seeds first .. first+9, the
second first+10 .. first+19.  For every workload and metric it prints
each set's median and quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median, and whether the sets agree: every spread within the
metric's bound, the two medians within the bound of each other (in either
direction), and the same share of failed operations in every run.  Raw
results are appended to .perfbench/steady.jsonl.  Exits 1 when anything
disagrees.
"""

import argparse
import json
from fractions import Fraction
import os
import statistics
import subprocess
import sys

SETS = 2
RUNS = 10


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"steady.py: {' '.join(cmd)} failed with code {done.returncode}")
    return json.loads(lines[-1])


def describe(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--first-seed", type=int, default=1)
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    os.makedirs(".perfbench", exist_ok=True)
    ok = True
    for w in workloads:
        sets = []
        for k in range(SETS):
            results = []
            for i in range(RUNS):
                seed = a.first_seed + k * RUNS + i
                r = run_once(w, seed, seconds)
                with open(".perfbench/steady.jsonl", "a") as f:
                    f.write(json.dumps({"workload": w, "set": k, "seed": seed, "result": r}) + "\n")
                if not r["correct"]:
                    print(f"{w} seed {seed}: outputs incorrect")
                    ok = False
                results.append(r)
            sets.append(results)
        shares = {(r["failed"], r["attempted"]) for s in sets for r in s}
        share_set = {Fraction(f, n) for f, n in shares}
        if len(share_set) != 1:
            print(f"{w}: failed share differs between runs: {sorted(shares)}")
            ok = False
        print(f"\n{w}  (failed/attempted: {sorted(shares)[0][0]}/{sorted(shares)[0][1]})")
        print(f"  {'metric':<30} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>7}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds = []
            for k, s in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in s]
                q1, med, q3, spread = describe(vals)
                meds.append(med)
                if spread > bound:
                    verdict = "SPREAD > bound"
                    ok = False
                elif spread > bound / 3:
                    verdict = "spread > bound/3"
                else:
                    verdict = "steady"
                if k > 0:
                    # positive when the second set reads worse
                    worse = (meds[k] - meds[0]) / meds[0]
                    if m["better"] == "higher":
                        worse = -worse
                    if abs(worse) > bound:
                        verdict += f"; medians differ by {worse:+.1%}"
                        ok = False
                    else:
                        verdict += f"; agrees ({worse:+.1%})"
                print(f"  {name:<30} {k:>3} {q1:>12.6g} {med:>12.6g} {q3:>12.6g} {spread:>7.1%}  {verdict}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
