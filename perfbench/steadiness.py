#!/usr/bin/env python3
"""Runs workloads repeatedly and prints each metric's median and spread.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--workloads a,b] [--trace 0|1]

Run from the root of a checkout.  Run i uses seed first_seed + i; within
each i the workloads take turns, so slow drift of the machine spreads over
all of them.  For every workload and metric it prints the median, the
first and third quartiles (statistics.quantiles(values, n=4)) and the
spread (q3 - q1) / median, next to the metric's bound from BENCHMARK.json
and the bound / 3 target.  It also prints the failed share of operations
per workload, which must be identical in every run.  Exit code 0 when
every run succeeded, was correct and had one failed share per workload.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed, trace):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed,
                                                     out.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            r = run_once(spec, w, args.first_seed + i, args.trace)
            results[w].append(r)
            print("run %d %s: attempted %d failed %d correct %s" %
                  (i, w, r["attempted"], r["failed"], r["correct"]),
                  file=sys.stderr, flush=True)

    ok = True
    print("| workload | metric | unit | median | q1 | q3 | spread | bound/3 |")
    print("|---|---|---|---|---|---|---|---|")
    for w in workloads:
        runs = results[w]
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            print("| %s | %s | %s | %.6g | %.6g | %.6g | %.4f | %s |" % (
                w, m["name"], m["unit"], med, q1, q3, spread,
                "%.4f" % (bound / 3) if bound is not None else "-"))
        shares = sorted({(r["failed"], r["attempted"]) for r in runs},
                        key=lambda fa: fa[0] / fa[1])
        distinct = {fa[0] / fa[1] for fa in shares}
        correct = all(r["correct"] for r in runs)
        ok = ok and correct and len(distinct) == 1
        print("| %s | failed share | - | %s | | | | |" % (
            w, ", ".join("%d/%d" % fa for fa in shares)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
