#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

Usage (from the repository root):

    python3 spectrobench/spread.py --workloads serve-poisson,toolflow --runs 10 \
        --seconds 10 [--trace 0] [--out spectrobench/RESULTS.json]

For every workload and metric it reports the median, the first and third
quartiles (Python's statistics.quantiles, n=4) and the spread: the
interquartile distance as a share of the median. Each metric's spread is
compared with its bound from BENCHMARK.json. Host facts from the runs are
recorded beside the figures.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=900,
    )
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    host = next((json.loads(l)["host"] for l in lines if l.startswith('{"host"')), None)
    return host, json.loads(lines[-1])


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(med) if med else 0.0,
        "values": values,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    result = {"host": None, "runs": args.runs, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        per_metric = {}
        for i in range(args.runs):
            host, res = run_once(workload, args.first_seed + i, args.seconds, args.trace)
            result["host"] = host
            ok = ok and res["correct"]
            for name, m in res["metrics"].items():
                per_metric.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
            print(f"{workload} seed {args.first_seed + i} done", file=sys.stderr)
        summary = {}
        for name, m in per_metric.items():
            s = summarise(m["values"])
            s["unit"] = m["unit"]
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and s["spread"] > bound:
                flag, ok = "  OVER BOUND", False
            elif bound is not None and s["spread"] > bound / 3:
                flag = "  over a third of bound"
            print(f"{workload:14} {name:36} median {s['median']:12.5g} {m['unit']:9}"
                  f" spread {s['spread']:.3f}" + (f" (bound {bound})" if bound is not None else "") + flag
                  + "  [" + " ".join(f"{v:.4g}" for v in s["values"]) + "]")
            summary[name] = s
        result["workloads"][workload] = summary
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
