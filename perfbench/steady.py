#!/usr/bin/env python3
"""Steadiness check for the benchmark defined in BENCHMARK.json.

Runs every workload ten times, on seeds 1-10 (set A), then ten times
more on seeds 1001-1010 (set B, taken after set A has finished), and
prints for each end-to-end
metric the median and quartiles of each set, the quartile spread as a
share of the median, and the set-to-set drift of the median in the
metric's worse direction, each against the metric's bound. It also
compares the share of failed operations between the sets and sums the
host steal ticks each set's timed calls saw, so a drift in wall time can
be told apart from a drift in CPU time.

Usage, from the repository root:

    python3 perfbench/steady.py

Exits 0 when every spread and every drift is within its bound and the
failed shares agree, 1 otherwise. The spread of setup_s is printed but
not gated, as set-up is timed over a fraction of a second and its drift
between sets is what a later change would be judged on.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10
FIRST_SEEDS = (1, 1001)


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {out.returncode}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    steal = 0
    for line in lines[:-1]:
        for field in line.split():
            if field.startswith("steal_ticks="):
                steal += int(field.split("=", 1)[1])
    return result, steal


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    sets = []
    for s, first in enumerate(FIRST_SEEDS):
        per = {}
        for name in names:
            rows = []
            for seed in range(first, first + RUNS):
                result, steal = run_once(bench, name, seed)
                rows.append((result, steal))
                vals = " ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.5g}" for m in metrics
                )
                print(f"set {'AB'[s]} {name} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} "
                      f"steal_ticks={steal} {vals}", flush=True)
            per[name] = rows
        sets.append(per)

    ok = True
    for name in names:
        print(f"\n== {name}")
        shares = []
        for s, per in enumerate(sets):
            rows = per[name]
            att = sum(r["attempted"] for r, _ in rows)
            fail = sum(r["failed"] for r, _ in rows)
            shares.append(fail / att)
            correct = all(r["correct"] for r, _ in rows)
            ok &= correct
            print(f"set {'AB'[s]}: attempted={att} failed={fail} share={fail / att:.6f} "
                  f"correct={correct} steal_ticks={sum(t for _, t in rows)}")
        if shares[0] != shares[1]:
            print("failed share differs between the sets")
            ok = False
        print(f"{'metric':<15}{'unit':<7}{'bound':>7}  "
              + "  ".join(f"{'AB'[s]}: median [q1, q3] spread" for s in range(len(sets)))
              + "  drift")
        for m in metrics:
            cols, meds = [], []
            for s, per in enumerate(sets):
                vals = [r["metrics"][m["name"]]["value"] for r, _ in per[name]]
                med, q1, q3 = summary(vals)
                spread = (q3 - q1) / med
                meds.append(med)
                flag = ""
                if m["name"] != "setup_s" and spread > m["bound"]:
                    flag = " !"
                    ok = False
                elif spread > m["bound"] / 3:
                    flag = " ~"
                cols.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] {spread:.4f}{flag}")
            drift = (meds[1] - meds[0]) / meds[0]
            if m["better"] == "higher":
                drift = -drift
            flag = " !" if drift > m["bound"] else ""
            ok &= drift <= m["bound"]
            print(f"{m['name']:<15}{m['unit']:<7}{m['bound']:>7}  " + "  ".join(cols)
                  + f"  {drift:+.4f}{flag}")
    print("\nsteady" if ok else "\nNOT steady ('!' = beyond its bound, '~' = beyond a third)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
