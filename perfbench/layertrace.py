"""Per-layer tracing for the benchmark, installed from outside lfgraph.

The tracer replaces public functions of lfgraph's modules with wrappers.
It patches every lfgraph module namespace that holds the same function
object, so names that `harness` and `autos` re-import are caught too.
Private routines are never hooked.  A name that no longer exists is
reported as absent, not as an error.

Spans are kept in memory as (name, start, end, parent) and reduced to
per-layer self times only when the pass ends.  A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# (module, public name, kind).  "span" times every call; "count" only
# counts calls, for helpers called once per vertex, where a span would
# cost more than the work it measures.  "VertexPerm" counts permutations
# built.
TRACED = (
    ("gf", "field_from_order", "span"),
    ("linalg", "mat_vec", "count"),
    ("linalg", "mat_inv", "count"),
    ("linalg", "span_nonzero", "count"),
    ("linalg", "kernel_basis", "count"),
    ("graph", "build", "span"),
    ("graph", "LfGraph.lines", "span"),
    ("graph", "LfGraph.components", "span"),
    ("graph", "LfGraph.edges", "span"),
    ("graph", "export", "span"),
    ("graph", "domination_number", "span"),
    ("autos", "count_automorphisms", "span"),
    ("autos", "all_automorphisms", "span"),
    ("autos", "quotient_adjacency", "span"),
    ("autos", "count_component_isomorphisms", "span"),
    ("autos", "chi_p", "span"),
    ("autos", "pi_extend", "span"),
    ("autos", "phi_bar", "span"),
    ("autos", "sigma_swap", "span"),
    ("autos", "compose", "span"),
    ("autos", "decompose", "span"),
    ("autos", "VertexPerm", "count"),
    ("autos", "check_structure", "span"),
    ("autos", "automorphism_defect", "span"),
    ("autos", "random_automorphism", "span"),
    ("harness", "run_verify", "span"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.originals: dict[str, object] = {}

    # ---------- recording ----------

    @contextlib.contextmanager
    def span(self, name):
        """Record one span; the benchmark also opens these itself, one per
        claim."""
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1]])
        self.stack.append(sid)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[sid][2] = time.perf_counter()

    def _span_wrapper(self, name, fn):
        span = self.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # ---------- installation ----------

    def install(self, traced=TRACED):
        """Wrap every name in traced; names that are gone become absent."""
        packages = [m for key, m in sorted(sys.modules.items())
                    if key == "lfgraph" or key.startswith("lfgraph.")]
        for modname, path, kind in traced:
            name = f"{modname}.{path}"
            owner = sys.modules.get(f"lfgraph.{modname}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.absent.append(name)
                continue
            self.originals[name] = orig
            if isinstance(orig, type):
                # count instances through the constructor
                init = orig.__init__
                orig.__init__ = self._count_wrapper(name, init)
                continue
            wrap = self._span_wrapper if kind == "span" else self._count_wrapper
            wrapper = wrap(name, orig)
            if outer:
                setattr(owner, attr, wrapper)
                continue
            for mod in packages:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)

    # ---------- reduction ----------

    def layer_stats(self) -> dict[str, float]:
        """name.calls and name.self_s for spans, name.calls for counts."""
        child_time = [0.0] * len(self.spans)
        stats: dict[str, float] = {}
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for sid, (name, start, end, _) in enumerate(self.spans):
            stats[f"{name}.calls"] = stats.get(f"{name}.calls", 0) + 1
            stats[f"{name}.self_s"] = (stats.get(f"{name}.self_s", 0.0)
                                       + (end - start) - child_time[sid])
        for name, count in self.counts.items():
            stats[f"{name}.calls"] = count
        return stats


# The per-layer metrics the benchmark reports, each with the end-to-end
# metric it should move and the workload where that shows.  A "calls"
# metric of a layer that does not run on a workload reads 0 there.
LAYER_METRICS = (
    ("gf.field_from_order.self_s", "setup_s, all workloads"),
    ("linalg.mat_vec.calls", "perm_ms_p50 and perm_ms_p99, decompose-stream"),
    ("linalg.mat_inv.calls", "perm_ms_p50 and perm_ms_p99, decompose-stream"),
    ("linalg.span_nonzero.calls", "build_s, build-large"),
    ("linalg.kernel_basis.calls", "build_s, build-large"),
    ("graph.build.calls", "build_s on build-large, setup_s elsewhere"),
    ("graph.build.self_s", "build_s on build-large, setup_s elsewhere"),
    ("graph.LfGraph.lines.self_s", "build_s on build-large, setup_s elsewhere"),
    ("graph.LfGraph.components.self_s",
     "build_s on build-large, setup_s elsewhere"),
    ("graph.LfGraph.edges.self_s", "export_s, build-large"),
    ("graph.export.self_s", "export_s, build-large"),
    ("graph.domination_number.calls",
     "dominate_s on exact-search, wall_s on verify-deep"),
    ("graph.domination_number.self_s",
     "dominate_s on exact-search, wall_s on verify-deep"),
    ("autos.count_automorphisms.self_s",
     "count_s on exact-search, wall_s on verify-deep"),
    ("autos.all_automorphisms.self_s",
     "count_s on exact-search, wall_s on verify-deep"),
    ("autos.quotient_adjacency.self_s",
     "count_s on exact-search, wall_s on verify-deep"),
    ("autos.count_component_isomorphisms.self_s",
     "count_s on exact-search, wall_s on verify-deep"),
    ("autos.chi_p.calls", "perms_per_s and perm_ms_p50, decompose-stream"),
    ("autos.chi_p.self_s", "perms_per_s and perm_ms_p50, decompose-stream"),
    ("autos.pi_extend.self_s", "perms_per_s and perm_ms_p50, decompose-stream"),
    ("autos.phi_bar.self_s", "perms_per_s and perm_ms_p50, decompose-stream"),
    ("autos.sigma_swap.self_s", "perms_per_s and perm_ms_p50, decompose-stream"),
    ("autos.compose.self_s", "perms_per_s and perm_ms_p50, decompose-stream"),
    ("autos.decompose.self_s", "perms_per_s and perm_ms_p50, decompose-stream"),
    ("autos.VertexPerm.calls", "perms_per_s and perm_ms_p50, decompose-stream"),
    ("autos.check_structure.self_s", "perm_ms_p99, decompose-stream"),
    ("autos.automorphism_defect.calls", "perm_ms_p99, decompose-stream"),
    ("autos.automorphism_defect.self_s", "perm_ms_p99, decompose-stream"),
    ("autos.random_automorphism.self_s", "setup_s, decompose-stream"),
    ("harness.run_verify.self_s", "wall_s, verify-deep"),
) + tuple(
    (f"harness.claim.{cid}.self_s", "wall_s, verify-deep")
    for cid in ("CARD-GEN", "CARD-N2", "CARD-STAB", "COMP-ISO", "CONN",
                "DECOMP", "DOM-SIDE", "DOM-WHOLE-STD", "DOM-WHOLE-TOT", "REG",
                "SIGMA-CARD", "STRUCT-GEN", "STRUCT-N2", "TWIN")
) + (
    # claims not skipped: tells a guard change that runs more claims apart
    # from a slowdown
    ("harness.claims_evaluated", "wall_s, verify-deep"),
)
