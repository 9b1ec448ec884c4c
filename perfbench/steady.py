"""Steadiness check: run workloads repeatedly and print each metric's spread.

    python3 perfbench/steady.py [--workload NAME ...] [--runs N]
        [--seed-base S] [--seconds S] [--trace 0|1]

Runs perfbench/run.py --runs times per workload, one run at a time, with
seeds seed-base, seed-base+1, ...  For every metric it prints the median
and the spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json.  A spread under a third of its bound is
"steady".  Workload-specific metrics have no bound and are printed for
information.  With --trace 1 every run uses seed-base, and each call count
must repeat exactly.

The exit code is 1 when a run fails, when a bounded spread exceeds its
bound, or, with --trace 1, when a call count differs between runs.
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
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    elapsed = ""
    for line in lines[:-1]:
        parts = line.split()
        if parts[0] == "run":
            elapsed = parts[-1]
        if parts[0] == "metric" and parts[1] not in values:
            values[parts[1]] = float(parts[2])
            units[parts[1]] = parts[3]
    return result, values, units, elapsed


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    if med == 0:
        return 0.0 if q1 == q3 else float("inf")
    return (q3 - q1) / med


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    bad = False
    for workload in args.workload or WORKLOADS:
        series: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for i in range(args.runs):
            seed = args.seed_base + (0 if args.trace else i)
            try:
                result, values, unit, elapsed = one_run(
                    workload, seed, args.seconds, args.trace)
            except (RuntimeError, subprocess.TimeoutExpired) as e:
                print(f"{workload}: {e}")
                bad = True
                break
            bad |= not result["correct"]
            units.update(unit)
            for name, value in values.items():
                series.setdefault(name, []).append(value)
            shown = " ".join(f"{k}={v:.4g}" for k, v in values.items()
                             if k in bounds)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"{shown} {elapsed}", flush=True)
        if len(next(iter(series.values()), [])) < 2:
            continue
        print(f"{workload}: {args.runs} runs")
        if args.trace:
            differ = [name for name, vals in series.items()
                      if units[name] == "count" and len(set(vals)) != 1]
            for name in differ:
                print(f"  {name} differs between runs: {series[name]}")
            print(f"  {len(differ)} counts differ between runs")
            bad |= bool(differ)
            continue
        for name, vals in series.items():
            s = spread(vals)
            bound = bounds.get(name)
            if bound is None:
                verdict = "(no bound)"
            elif s < bound / 3:
                verdict = "steady"
            elif s <= bound:
                verdict = "within bound"
            else:
                verdict = "OVER BOUND"
                bad = True
            limit = "" if bound is None else f" bound {bound:.2f}"
            print(f"  {name:<14} median {statistics.median(vals):.6g} "
                  f"{units[name]:<16} spread {s:.3f}{limit} {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
