#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, as the acceptance rule computes it.

    python3 perfbench/spread.py --workload W --seeds 1-10 [--seconds 20]
                                [--trace 0|1] [--json OUT]

Runs perfbench/run.py once per seed (from the checkout root), then
checks that each run printed exactly the metrics BENCHMARK.json names
for the trace mode, and prints for each metric its median over the runs and the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound from BENCHMARK.json.
With --json, the raw results are written for later comparison.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--json")
    a = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = a.seconds or spec["run_seconds"]
    runs = []
    for seed in seeds(a.seeds):
        cmd = spec["command"] + ["--workload", a.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", a.trace]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
        res = json.loads(last)
        runs.append({"seed": seed, "exit": out.returncode, **res})
        print(f"seed {seed}: exit {out.returncode} correct {res.get('correct')} "
              f"attempted {res.get('attempted')} failed {res.get('failed')}", flush=True)
    want = [m["name"] for m in spec["per_layer" if a.trace == "1" else "end_to_end"]]
    for r in runs:
        got = list(r.get("metrics", {}))
        missing = [n for n in want if n not in got]
        extra = [n for n in got if n not in want]
        if missing or extra:
            print(f"seed {r['seed']}: missing {missing} extra {extra}")
            r["correct"] = False
    if a.json:
        json.dump(runs, open(a.json, "w"), indent=1)
    names = []
    for r in runs:
        for n in r.get("metrics", {}):
            if n not in names:
                names.append(n)
    worst = 0.0
    for n in names:
        vals = [r["metrics"][n]["value"] for r in runs if n in r.get("metrics", {})]
        med = statistics.median(vals)
        if len(vals) >= 2 and med != 0:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / abs(med)
        else:
            share = float("nan")
        bound = bounds.get(n)
        flag = ""
        if bound is not None:
            worst = max(worst, share / bound)
            flag = "  OK" if share < bound / 3 else ("  within bound" if share <= bound else "  OVER BOUND")
        print(f"{n:40s} median {med:14.6g}  spread {share:7.4f}"
              + (f"  bound {bound}" if bound is not None else "") + flag)
    ok = all(r["exit"] == 0 and r.get("correct") and r.get("failed") == 0 for r in runs)
    print(f"all runs correct: {ok}; worst spread/bound: {worst:.3f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
