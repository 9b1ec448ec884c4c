"""One pass of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --spawned-at T
        [--size full|smoke] [--trace] [--setup-only | --claims]

run.py starts one of these at a time and reads the single JSON line it
prints.  A pass imports lfgraph, sets up its inputs, and times only calls
into the public functions of gf, linalg, graph, autos and harness.  Every
answer is checked against perfbench/expected.json outside the timed spans.
The pass never reads or clears lfgraph's private caches, so each pass pays
the cold-start costs a user pays.

--spawned-at is the parent's time.monotonic() just before it started this
process; setup_s runs from there to the first timed call.

Every pass also samples the host's speed: every PROBE_INTERVAL_S a
SIGALRM handler times a fixed pure-Python loop that touches nothing of
lfgraph.  The time spent in the probe is taken out of setup_s and of every
span, and the pass reports the harmonic mean of the probe's times over
set-up and over the timed phase, as a multiple of REF_PROBE_S.  run.py
divides set-up and timed-phase wall times by these slowdowns, which
removes most of the host's drift in speed from them (see run.py).  In a
traced pass the probe's time, about 0.5 %, falls into whichever layer
span is open.

--claims (verify-deep, traced) replaces the verify command by one
run_verify per registered claim, instance by instance and claims in
registry order, each in its own harness.claim.<ID> span.  That is the
order in which the full command fills lfgraph's caches, so each claim's
span holds the cache fills the full command pays for it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
from array import array
from itertools import chain

HERE = os.path.dirname(os.path.abspath(__file__))

# decompose-stream: (q, n) and how many automorphisms of it enter the
# stream.  The 16 at (8, 3) are over 1 % of the stream, so the p99
# latency lands on the n >= 3 path at its largest size and p50 on the
# small n = 2 and n = 3 instances.
DECOMPOSE = {
    "full": (((3, 2), 500), ((5, 2), 400), ((2, 4), 150), ((3, 3), 150),
             ((4, 3), 80), ((8, 3), 16)),
    "smoke": (((2, 2), 20), ((3, 2), 20), ((2, 3), 10)),
}

# exact-search: (kind, (q, n), keyword arguments)
SEARCH = {
    "full": (("count", (3, 3), {}), ("count", (2, 4), {}),
             ("count", (5, 2), {}), ("count", (3, 2), {"method": "vertex"}),
             ("components", (5, 2), {}),
             ("dominate", (5, 2), {}), ("dominate", (3, 3), {})),
    "smoke": (("count", (2, 3), {}), ("count", (2, 2), {"method": "vertex"}),
              ("components", (3, 2), {}),
              ("dominate", (2, 2), {}), ("dominate", (2, 3), {})),
}

# build-large: graphs to build, then (format, (q, n)) exports; "edges" is
# the edge list of LfGraph.edges rather than an export format
BUILD = {
    "full": (((2, 9), (3, 6), (4, 5), (16, 3)),
             (("graph6", (2, 9)), ("json", (4, 5)), ("edges", (16, 3)))),
    "smoke": (((2, 3), (2, 4), (3, 3)),
              (("graph6", (2, 3)), ("json", (3, 3)), ("edges", (2, 4)))),
}

# verify-deep: the one instance to verify, or None for lfgraph's default
# matrix
VERIFY = {"full": None, "smoke": (2, 2)}


# the speed probe: one call every PROBE_INTERVAL_S, and REF_PROBE_S is
# about one call's time on a 2-vCPU Intel Xeon virtual machine, so that
# scaled times stay close to seconds on that host
PROBE_INTERVAL_S = 0.01
REF_PROBE_S = 50e-6
_PROBE_TABLE = {k: (k * 40503) & 0xFFFF for k in range(256)}


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) & 0xFFFFF


def _probe(table=_PROBE_TABLE) -> int:
    """Dict lookups, small-int arithmetic and calls, like lfgraph's inner
    loops; it allocates no object the garbage collector tracks."""
    s = 0
    for k in range(256):
        s = _mix(s ^ table[k], k)
    return s


class Sampler:
    """Times _probe on a timer signal, in the pass's own thread, so that
    the samples see the host's speed at the moments lfgraph runs."""

    def __init__(self):
        self.setup: list[float] = []
        self.timed: list[float] = []
        self.phase = self.setup
        self.spent = 0.0
        self.busy = False

    def tick(self, *_signal) -> None:
        if self.busy:   # a signal that lands inside the probe
            return
        self.busy = True
        t0 = time.perf_counter()
        _probe()
        dt = time.perf_counter() - t0
        self.phase.append(dt)
        self.spent += dt
        self.busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def end_setup(self) -> None:
        if not self.setup:
            self.tick()
        self.phase = self.timed

    @staticmethod
    def slowdown(samples: list[float]) -> float:
        return statistics.harmonic_mean(samples) / REF_PROBE_S


class SetupDone(Exception):
    """Raised at the first timed call of a --setup-only pass."""


class Pass:
    """Timed spans and answer checks of one pass."""

    def __init__(self, spawned_at: float, expected: dict, setup_only: bool,
                 sampler: Sampler):
        self.spawned_at = spawned_at
        self.sampler = sampler
        self.setup_only = setup_only
        self.expected = expected
        self.setup_s = None
        self.spans: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.extra: dict[str, object] = {}

    def timed(self, label, fn, *args, **kwargs):
        if self.setup_s is None:
            self.setup_s = (time.monotonic() - self.spawned_at
                            - self.sampler.spent)
            self.sampler.end_setup()
            if self.setup_only:
                raise SetupDone
        p0 = self.sampler.spent
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            took = time.perf_counter() - t0 - (self.sampler.spent - p0)
            self.spans.setdefault(label, []).append(took)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _graphs(gf, graph, shapes):
    fields = {q: gf.field_from_order(q) for q in sorted({q for q, _ in shapes})}
    return {(q, n): graph.build(fields[q], n) for q, n in shapes}


# ---------- workloads ----------

def verify_deep(lf, run: Pass, size: str, seed: int) -> None:
    argv = ["verify", "--deep", "--format", "json", "--seed", str(seed)]
    if VERIFY[size] is not None:
        argv += ["--q", str(VERIFY[size][0]), "--n", str(VERIFY[size][1])]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run.timed("verify", lf.harness.main, argv)
    text = out.getvalue()
    run.extra["stdout_sha256"] = _sha256(text.encode())
    run.check(code == 1, f"verify exited {code}, expected 1")
    try:
        doc = json.loads(text)
    except ValueError:
        run.check(False, "verify printed no JSON report")
        return
    reports = doc if isinstance(doc, list) else [doc]
    want = run.expected[size]
    got = {f"{r['q']},{r['n']}": {c["id"]: [c["verdict"], c["formula"], c["oracle"]]
                                 for c in r["claims"]}
           for r in reports}
    run.check(sorted(got) == sorted(want), f"instances {sorted(got)}")
    # keyed on the recorded claim ids, so claims added later are ignored
    for inst, claims in want.items():
        for cid, triple in claims.items():
            have = got.get(inst, {}).get(cid)
            run.check(have == triple, f"{inst} {cid}: {have} != {triple}")
    run.extra["claims_evaluated"] = sum(
        1 for r in reports for c in r["claims"] if c["verdict"] != "skipped")


def verify_claims(lf, run: Pass, size: str, seed: int, tracer) -> None:
    """One run_verify per recorded claim, each in its own span, checked
    against the recorded result.  The span wraps the untraced run_verify,
    so the claim holds what run_verify itself spends on it."""
    run_verify = tracer.originals.get("harness.run_verify")
    if run_verify is None:
        run.check(False, "harness.run_verify is absent")
        return
    want = run.expected[size]
    instances = ([VERIFY[size]] if VERIFY[size] is not None
                 else lf.harness.DEFAULT_MATRIX)
    for q, n in instances:
        recorded = want[f"{q},{n}"]
        for cid in (c for c in lf.harness.CLAIM_IDS if c in recorded):
            with tracer.span(f"harness.claim.{cid}"), \
                    contextlib.redirect_stderr(io.StringIO()):
                rep = run_verify(q, n, claims=[cid], seed=seed, deep=True)
            res = next(c for c in rep.claims if c.id == cid)
            have = [res.verdict,
                    None if res.formula is None else str(res.formula),
                    None if res.oracle is None else str(res.oracle)]
            run.check(have == recorded[cid],
                      f"{q},{n} {cid} alone: {have} != {recorded[cid]}")


def decompose_stream(lf, run: Pass, size: str, seed: int) -> None:
    autos = lf.autos
    rng = random.Random(seed)
    graphs = _graphs(lf.gf, lf.graph, [shape for shape, _ in DECOMPOSE[size]])
    stream = []
    for shape, count in DECOMPOSE[size]:
        g = graphs[shape]
        stream.extend((g, autos.random_automorphism(g, rng)) for _ in range(count))
    rng.shuffle(stream)

    def op(g, perm):
        verdict = autos.check_structure(g, perm)
        same = autos.compose(g, autos.decompose(g, perm)) == perm
        return verdict.ok() and same

    for g, perm in stream:
        try:
            ok = run.timed("perm", op, g, perm)
        except (autos.DecompositionError, autos.LineActionError) as e:
            run.check(False, f"({g.q},{g.n}): {e!r}")
            continue
        run.check(ok, f"({g.q},{g.n}): compose(decompose(p)) != p")


def exact_search(lf, run: Pass, size: str, seed: int) -> None:
    autos, graph = lf.autos, lf.graph
    graphs = _graphs(lf.gf, graph, [shape for _, shape, _ in SEARCH[size]])
    want = run.expected[size]
    for kind, shape, kwargs in SEARCH[size]:
        g = graphs[shape]
        key = f"{kind} {shape[0]},{shape[1]}" + "".join(
            f" {k}={v}" for k, v in kwargs.items())
        if kind == "count":
            got = run.timed("count", autos.count_automorphisms, g, **kwargs)
        elif kind == "components":
            got = run.timed("count", autos.count_component_isomorphisms, g)
        else:
            got, witness = run.timed("dominate", graph.domination_number, g,
                                     target="all", mode="standard")
            run.check(graph.is_dominating(g, witness, target="all",
                                          mode="standard"),
                      f"{key}: witness does not dominate")
        run.check(got == want[key], f"{key}: {got} != {want[key]}")


def build_large(lf, run: Pass, size: str, seed: int) -> None:
    gf, graph = lf.gf, lf.graph
    shapes, exports = BUILD[size]
    fields = {q: gf.field_from_order(q) for q, _ in shapes}
    want = run.expected[size]
    graphs = {}
    for q, n in shapes:
        g = run.timed("build", graph.build, fields[q], n)
        run.timed("build", g.lines)
        comps = run.timed("build", g.components)
        graphs[q, n] = g
        nv = q ** n - 1
        edges = sum(g.adj[v].bit_count() for v in range(g.nv))
        run.check(g.num_vertices == 2 * nv and g.check_regular()
                  and edges == nv * (q ** (n - 1) - 1) and len(comps) == 1,
                  f"({q},{n}): wrong shape")
    for fmt, (q, n) in exports:
        g = graphs[q, n]
        if fmt == "edges":
            pairs = run.timed("export", g.edges)
            data = array("q", chain.from_iterable(pairs)).tobytes()
        else:
            data = run.timed("export", graph.export, g, fmt)
        key = f"{fmt} {q},{n}"
        run.check(_sha256(data) == want[key], f"{key}: export bytes differ")


WORKLOADS = {
    "verify-deep": verify_deep,
    "decompose-stream": decompose_stream,
    "exact-search": exact_search,
    "build-large": build_large,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--trace", action="store_true")
    only = ap.add_mutually_exclusive_group()
    only.add_argument("--setup-only", action="store_true",
                      help="stop at the first timed call")
    only.add_argument("--claims", action="store_true",
                      help="verify-deep, traced: time each claim alone")
    args = ap.parse_args(argv)
    if args.claims and not (args.trace and args.workload == "verify-deep"):
        ap.error("--claims needs --trace and --workload verify-deep")

    sampler = Sampler()
    sampler.start()
    import lfgraph.autos
    import lfgraph.gf
    import lfgraph.graph
    import lfgraph.harness
    import lfgraph.linalg
    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)[args.workload]

    run = Pass(args.spawned_at, expected, args.setup_only, sampler)
    try:
        if args.claims:
            verify_claims(lfgraph, run, args.size, args.seed, tracer)
        else:
            WORKLOADS[args.workload](lfgraph, run, args.size, args.seed)
    except SetupDone:
        sampler.stop()
        print(json.dumps({"setup_s": run.setup_s,
                          "setup_slowdown": Sampler.slowdown(sampler.setup)}))
        return 0
    result = {
        "setup_s": run.setup_s,
        "spans": run.spans,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "extra": run.extra,
    }
    sampler.stop()
    sampler.end_setup()
    if not sampler.timed:
        sampler.tick()
    result["setup_slowdown"] = Sampler.slowdown(sampler.setup)
    result["slowdown"] = Sampler.slowdown(sampler.timed)
    if tracer is not None:
        result["layers"] = tracer.layer_stats()
        result["absent"] = tracer.absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
