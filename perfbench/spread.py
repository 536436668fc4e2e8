"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 0-9                      # every workload
    python3 perfbench/spread.py --workloads audit --seeds 0-4 --trace 1

Runs perfbench/run.py once per (workload, seed), one run at a time, with the
run length from BENCHMARK.json.  For each workload and metric it prints the
median, the quartiles, and the spread: the distance between the first and
third quartile as a share of the median.  An end-to-end metric whose spread
exceeds its bound is marked OVER, and one above a third of its bound WIDE;
the exit code is 1 if any metric is OVER.  Each run's result
line is saved to perfbench/out/spread-<workload>-trace<k>.json.
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
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> tuple:
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", help="comma-separated; default every workload")
    p.add_argument("--seeds", default="0-9", help="'lo-hi' or a comma-separated list")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)

    over = 0
    for workload in names:
        results = []
        for seed in seeds:
            results.append(run_once(bench, workload, seed, args.trace))
            r = results[-1]
            print(f"{workload} seed={seed} correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}", flush=True)
        path = os.path.join(HERE, "out", f"spread-{workload}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"seeds": seeds, "results": results}, fh, indent=1)
        print(f"\n{workload}: {len(seeds)} runs, "
              f"{sum(r['failed'] for r in results)}/{sum(r['attempted'] for r in results)} failed")
        for name, m in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, s = spread(values) if len(values) > 1 else (values[0], values[0], values[0], 0.0)
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                verdict = "OVER" if s > bound else "WIDE" if s > bound / 3 else "ok"
                flag = f"bound {bound:<5} {verdict}"
                over += s > bound
            print(f"  {name:<34} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"{m['unit']:<13} spread {s:8.4f}  {flag}")
        print(flush=True)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
