"""Run the benchmark over several seeds and print each metric's quartiles.

    python3 perfbench/report.py [--workloads A,B] [--seeds 1-10] [--trace 0|1]
                                [--seconds S]

Each run is a separate `perfbench/run.py` process, one at a time, from the
root of the checkout.  For every workload and metric it prints the median,
the first and third quartile (`statistics.quantiles(n=4)`) and the spread
(Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json.  The
README's reference figures come from this script.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    for workload in args.workloads.split(","):
        results = []
        for seed in seed_list(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            results.append(result)
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr, flush=True)
        print(f"\n{workload}  ({len(results)} runs, "
              f"failed {sum(r['failed'] for r in results)} of "
              f"{sum(r['attempted'] for r in results)} operations, "
              f"all correct: {all(r['correct'] for r in results)})")
        print(f"  {'metric':28s} {'unit':6s} {'median':>12s} {'Q1':>12s} "
              f"{'Q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, m in results[0]["metrics"].items():
            q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in results])
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print(f"  {name:28s} {m['unit']:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.3f} {'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
