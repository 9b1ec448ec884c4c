"""The lfgraph benchmark: one workload, run for a fixed time, from a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--size full|smoke]

Workloads (all closed-loop, single-threaded batches):

  verify-deep       `lfgraph verify --deep --format json` on the default
                    matrix: the command users run to reproduce the paper.
  decompose-stream  check_structure + decompose + compose on a seeded stream
                    of about 1300 automorphisms; vertex-action building.
  exact-search      cold exact automorphism counts and whole-graph
                    domination numbers; the search routines.
  build-large       build + lines + components on large graphs, then
                    graph6 / edge-list JSON export and edges.

Each pass runs in a fresh interpreter (perfbench/worker.py), started one at
a time from this process, so every pass pays lfgraph's cold-start costs.
Passes repeat while one more brings the run's length closer to --seconds
(at least two, or one traced pass); setup-only passes then top the set-up
samples up to ten.  Metrics are medians over passes; per-operation
percentiles pool every operation of the run.

This host's speed drifts by up to 1.8x over seconds to minutes, in
lfgraph and in any other pure-Python loop alike, so every pass samples it
(worker.py, Sampler) and the gated setup_s and wall_s are scaled to a
fixed reference speed: each pass's set-up and timed-phase wall times are
divided by the probe's slowdown over that phase, then the median is taken.
The raw times are printed too (setup_raw_s, wall_raw_s, pass_wall_s); the
workload-specific and per-layer metrics are raw.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced pass,
then traced passes, and prints the per-layer metrics of layertrace.py plus
the tracing overhead (scaled traced wall_s minus scaled untraced wall_s).  On verify-deep
the traced passes take the first half of --seconds, and passes that time
each claim alone (worker.py --claims) the second half; the
harness.claim.<ID> metrics come from those.

Every line but the last is a human-readable report: the environment, then
`metric NAME VALUE UNIT` lines.  The last line is one JSON object with the
keys correct, attempted, failed and metrics.  The exit code is 0 when every
check passed, 1 when a check failed, and 2 when a pass could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from layertrace import LAYER_METRICS  # noqa: E402

WORKLOADS = ("verify-deep", "decompose-stream", "exact-search", "build-large")
MIN_PASSES = 2
SETUP_SAMPLES = 10
# every run must end well inside 180 s, whatever --seconds says
RUN_LIMIT_S = 170


class PassFailed(Exception):
    pass


def environment() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"env python={sys.version.split()[0]} "
            f"nproc={len(os.sched_getaffinity(0))} cpu={cpu!r} "
            f"commit={git_commit()}")


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    def __init__(self, args):
        self.args = args
        self.start = time.monotonic()
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src if not old else src + os.pathsep + old

    def spawn(self, trace=False, setup_only=False,
              claims=False) -> tuple[dict, float]:
        """Run one pass in a fresh interpreter; return its result and the
        wall time it took, process start included."""
        a = self.args
        left = RUN_LIMIT_S - (time.monotonic() - self.start)
        if left <= 0:
            raise PassFailed(f"run exceeded {RUN_LIMIT_S} s")
        spawned_at = time.monotonic()
        cmd = [sys.executable, WORKER, "--workload", a.workload,
               "--seed", str(a.seed), "--size", a.size,
               "--spawned-at", repr(spawned_at)]
        if trace:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        if claims:
            cmd.append("--claims")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, text=True,
                                  capture_output=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise PassFailed(f"pass did not finish within {RUN_LIMIT_S} s")
        took = time.monotonic() - spawned_at
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise PassFailed(f"pass exited {proc.returncode}:\n{proc.stderr}")
        return json.loads(lines[-1]), took

    def passes(self, need: int, until: float, **kind) -> list[dict]:
        """At least need passes, then more while one more brings the run's
        length closer to until seconds, that is while it would end less
        than half a pass late."""
        out, took = [], []
        while True:
            res, dt = self.spawn(**kind)
            out.append(res)
            took.append(dt)
            elapsed = time.monotonic() - self.start
            if len(out) >= need and elapsed + statistics.median(took) / 2 > until:
                return out


def wall(res: dict) -> float:
    return sum(sum(v) for v in res["spans"].values())


def scaled_wall(res: dict) -> float:
    return wall(res) / res["slowdown"]


def span_total(res: dict, label: str) -> float:
    return sum(res["spans"].get(label, ()))


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def workload_metrics(name: str, runs: list[dict]) -> list[tuple]:
    """The metrics particular to one workload, as (name, value, unit, note)."""
    med = statistics.median
    if name == "decompose-stream":
        ops = sorted(t for r in runs for t in r["spans"]["perm"])
        n = len(ops)
        beyond = n - math.ceil(0.99 * n)
        note = f"n={n}"
        return [
            ("perms_per_s", med(len(r["spans"]["perm"]) / span_total(r, "perm")
                                for r in runs), "ops/s", ""),
            ("perm_ms_p50", percentile(ops, 50) * 1e3, "ms", note),
            ("perm_ms_p99", percentile(ops, 99) * 1e3, "ms",
             f"{note}, {beyond} beyond"),
        ]
    labels = {"exact-search": ("count", "dominate"),
              "build-large": ("build", "export")}.get(name, ())
    return [(f"{label}_s", med(span_total(r, label) for r in runs), "s", "")
            for label in labels]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Run one lfgraph benchmark workload for a fixed time.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke runs tiny instances, for the benchmark's tests")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "lfgraph")):
        print(f"error: no lfgraph sources under {ROOT}/src", file=sys.stderr)
        return 2
    print(environment())
    runner = Runner(args)
    try:
        claim_runs = []
        if args.trace:
            baseline = [runner.spawn()[0]]
            if args.workload == "verify-deep":
                runs = runner.passes(1, args.seconds / 2, trace=True)
                claim_runs = runner.passes(1, args.seconds, trace=True,
                                           claims=True)
            else:
                runs = runner.passes(1, args.seconds, trace=True)
            setups = []
        else:
            baseline = []
            runs = runner.passes(MIN_PASSES, args.seconds)
            setups = list(runs)
            while len(setups) < SETUP_SAMPLES:
                setups.append(runner.spawn(setup_only=True)[0])
    except PassFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    everything = baseline + runs
    checked = everything + claim_runs
    attempted = sum(r["attempted"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    failures = [f for r in checked for f in r["failures"]]
    # the verify report must be byte-identical across the passes of a run
    shas = [r["extra"]["stdout_sha256"] for r in everything
            if "stdout_sha256" in r["extra"]]
    for sha in shas[1:]:
        attempted += 1
        if sha != shas[0]:
            failed += 1
            failures.append("verify stdout differs between passes")

    med = statistics.median
    print(f"run workload={args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} passes={len(everything)} "
          f"claim_passes={len(claim_runs)} "
          f"setup_samples={len(setups)} "
          f"elapsed_s={time.monotonic() - runner.start:.1f}")
    print("pass_wall_s " + " ".join(f"{wall(r):.4g}" for r in everything))
    if args.trace:
        metrics, absent = layer_metrics(runs, claim_runs)
        overhead = med(scaled_wall(r) for r in runs) - scaled_wall(baseline[0])
        print(f"trace_overhead_s {overhead:.4f} "
              f"(traced wall_s minus untraced wall_s)")
        if absent:
            print("absent " + " ".join(absent))
    else:
        print("pass_slowdown " + " ".join(f"{r['slowdown']:.3g}" for r in runs))
        metrics = {
            "setup_s": {"value": med(r["setup_s"] / r["setup_slowdown"]
                                     for r in setups), "unit": "s"},
            "wall_s": {"value": med(scaled_wall(r) for r in runs),
                       "unit": "s"},
            "peak_rss_mb": {"value": med(r["rss_mb"] for r in runs),
                            "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(f"metric fail_ratio {failed / max(attempted, 1):.6g} failed/attempted "
          f"({failed} of {attempted})")
    if not args.trace:
        print(f"metric setup_raw_s {med(r['setup_s'] for r in setups):.6g} s")
        print(f"metric wall_raw_s {med(wall(r) for r in runs):.6g} s")
        for name, value, unit, note in workload_metrics(args.workload, runs):
            print(f"metric {name} {value:.6g} {unit}" + (f" ({note})" if note else ""))
    for f in failures[:10]:
        print(f"failure {f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def layer_metrics(runs: list[dict], claim_runs: list[dict]) -> tuple[dict, list]:
    """Per-layer metrics over the traced passes, and the traced names that
    are absent.  The harness.claim.<ID> metrics come from claim_runs when
    there are any.  Self times are medians; a call count is the first
    pass's (steady.py --trace checks that it repeats across runs)."""
    absent = sorted({a for r in runs + claim_runs for a in r["absent"]})
    metrics = {}
    for name, _moves in LAYER_METRICS:
        source = (claim_runs if claim_runs and name.startswith("harness.claim.")
                  else runs)
        if name == "harness.claims_evaluated":
            values = [r["extra"].get("claims_evaluated", 0) for r in source]
        else:
            values = [r["layers"].get(name, 0) for r in source]
        if name.endswith("self_s"):
            metrics[name] = {"value": statistics.median(values), "unit": "s"}
        else:
            metrics[name] = {"value": values[0], "unit": "count"}
    return metrics, absent


if __name__ == "__main__":
    sys.exit(main())
