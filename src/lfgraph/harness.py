"""Verification harness and command line front end.

Each registered claim is a single checkable statement about the graph;
run_verify evaluates every claim for one (q, n) instance and returns a
report in which each claim appears exactly once.  Counting claims carry a
closed-form value and an independently computed oracle value and end in
match or mismatch; property claims end in property-pass or property-fail;
anything not run is skipped with a reason.  A mismatch is a result, not an
error: the report exists to document exactly where brute force disagrees
with the closed forms.

The size guards live in gf, graph and autos only: a claim whose oracle
one refuses with GuardError is skipped with the guard's message as its
reason and keeps its formula, so a report names the limit that stopped it.

Reports are deterministic: every sweep checks one automorphism set per
graph, sampled, when the group is too large to enumerate, from a generator
seeded with "<seed>:automorphisms", and each check is swept once per
run_verify call, whichever claims read it; and the JSON rendering carries no
timings (the "ms" field is always null; wall-clock notes go to stderr).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from collections import namedtuple
from decimal import Decimal
from functools import cache, partial

from .gf import field_from_order
from .graph import (VEC, GuardError, LfGraph, _bit_list, build,
                    domination_number, export, is_dominating)
from .autos import (DecompositionError, LineActionError, VertexPerm,
                    check_structure, compose, count_automorphisms,
                    count_class_stabilizers, count_component_isomorphisms,
                    decompose, decomposition_to_json, formula_card_general,
                    formula_card_n2, formula_component_isos,
                    formula_twin_stabilizer, iter_automorphisms,
                    line_action, perm_from_json,
                    random_automorphism, _count_with_searches,
                    _intersection_holds)
from .linalg import monic_rep

DEFAULT_SEED = 1729
DEFAULT_MATRIX = ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3))

# property claims sample this many random automorphisms when the group is
# too large to sweep; small groups are swept in full
SAMPLE_COUNT = 100
EXHAUSTIVE_GROUP = 500


ClaimResult = namedtuple("ClaimResult", "id locus formula oracle verdict witness")


class VerificationReport(namedtuple("VerificationReport", "q n seed claims")):
    __slots__ = ()  # claims: a list of ClaimResult

    def passed(self) -> bool:
        return all(c.verdict not in ("mismatch", "property-fail")
                   for c in self.claims)


def _label(g: LfGraph, vid: int) -> list:
    side, coords = g.coords_of(vid)
    return [side, list(coords)]


def _labels(g: LfGraph, vids) -> list:
    return [_label(g, v) for v in sorted(vids)]


def _skip(reason: str, formula: int | None = None):
    return formula, None, "skipped", {"reason": reason}


def _compare(formula: int, oracle: int, witness=None):
    return formula, oracle, "match" if oracle == formula else "mismatch", witness


def _guarded(formula: int, run):
    """run(), or a skip with formula kept and the refusing guard's message."""
    try:
        return run()
    except GuardError as e:
        return _skip(str(e), formula)


def _automorphisms(g: LfGraph, seed) -> tuple[list[VertexPerm], str]:
    """The whole group when it has at most EXHAUSTIVE_GROUP members, else
    SAMPLE_COUNT draws seeded "<seed>:automorphisms"; a graph over
    all_automorphisms' vertex guard is sampled without a search."""
    try:
        if count_automorphisms(g, method="vertex") <= EXHAUSTIVE_GROUP:
            perms = list(iter_automorphisms(g))
            return perms, f"all {len(perms)}"
    except GuardError:
        pass
    rng = random.Random(f"{seed}:automorphisms")
    perms = [random_automorphism(g, rng) for _ in range(SAMPLE_COUNT)]
    return perms, f"sampled {SAMPLE_COUNT}"


def _sweep(g: LfGraph, sample, check):
    """Run check(g, perm) on the automorphisms sample() returns; the first
    one that returns failure fields fails the claim, its fields after the
    method and the index."""
    perms, how = sample()
    for idx, perm in enumerate(perms):
        fields = check(g, perm)
        if fields is not None:
            return None, None, "property-fail", {"method": how, "index": idx,
                                                 **fields}
    return None, None, "property-pass", {"method": how}


def _class_action(g: LfGraph, perm: VertexPerm):
    """A _sweep check: None when line_action reads a class map off perm,
    else the reason and broken edge it raises.  That one class map is all
    the structure claims need: every fact they state holds on each
    permutation that has one (see check_structure)."""
    try:
        line_action(g, perm)
    except LineActionError as e:
        return {"reason": str(e), "witness": _jsonable(e.witness)}
    return None


# ---------- claim runners ----------

def _run_reg(g, sweep):
    """Degrees only: num_vertices is 2(q^n - 1) by its definition."""
    want = g.q ** (g.n - 1) - 1
    for v in range(g.num_vertices):
        if g.degree(v) != want:
            return None, None, "property-fail", {"vertex": _label(g, v),
                                                 "degree": g.degree(v),
                                                 "expected": want}
    return None, None, "property-pass", None


def _run_sigma_card(g, sweep):
    """Vector side only: lines() mirrors each vector class to the other."""
    formula = (g.q ** g.n - 1) // (g.q - 1)
    return _compare(formula, sum(1 for line in g.lines() if line.side == VEC))


def _run_twin(g, sweep):
    """Twin classes against lines(), then each vertex's monic rep against
    its line_index() class: build gives a class of lines() one row, so
    only the second test is independent of lines()."""
    lines = g.lines()
    if sorted(line.members for line in lines) != sorted(g.twin_classes()):
        return None, None, "property-fail", {
            "reason": "twin classes differ from scalar classes"}
    for v, c in enumerate(g.line_index()):
        side, coords = g.coords_of(v)
        rep = monic_rep(g.field, coords)
        if (lines[c].side, lines[c].rep) != (side, rep):
            return None, None, "property-fail", {"vertex": [side, list(coords)],
                                                 "rep": list(rep)}
    return None, None, "property-pass", None


def _run_conn(g, sweep):
    comps = list(g.component_masks())
    if g.n >= 3:
        if len(comps) == 1:
            return None, None, "property-pass", None
        return None, None, "property-fail", {"components": len(comps)}
    if len(comps) != g.q + 1:
        return None, None, "property-fail", {"components": len(comps),
                                             "expected": g.q + 1}
    part, vec_side = g.q - 1, (1 << g.nv) - 1
    for comp in comps:
        vmask, fmask = comp & vec_side, comp & ~vec_side
        members = _bit_list(comp)
        if vmask.bit_count() != part or fmask.bit_count() != part:
            return None, None, "property-fail", {
                "component": _labels(g, members), "expected_part": part}
        # complete bipartite: every vector sees every functional of the
        # component and nothing else; members lists the vectors first
        if [g.adj[v] for v in members] != [fmask] * part + [vmask] * part:
            return None, None, "property-fail", {
                "component": _labels(g, members),
                "reason": "component is not complete bipartite"}
    return None, None, "property-pass", None


def _run_dom_side(g, sweep):
    formula = g.q + 1

    def run():
        size, wset = domination_number(g, target=VEC, mode="standard")
        cons = [g.fun_id((1, a) + (0,) * (g.n - 2))
                for a in g.field.elements()]
        cons.append(g.fun_id((0, 1) + (0,) * (g.n - 2)))
        cons_ok = is_dominating(g, cons, target=VEC, mode="standard")
        witness = {"solver": _labels(g, wset),
                   "construction": _labels(g, cons),
                   "construction_dominates": cons_ok}
        verdict = "match" if size == formula and cons_ok else "mismatch"
        return formula, size, verdict, witness
    return _guarded(formula, run)


def _run_dom_whole(g, sweep, mode):
    formula = 2 * g.q + 2

    def run():
        size, wset = domination_number(g, target="all", mode=mode)
        return _compare(formula, size, {"solver": _labels(g, wset)})
    return _guarded(formula, run)


def _run_comp_iso(g, sweep):
    if g.n != 2:
        return _skip("applies to n = 2 only")
    formula = formula_component_isos(g.q)
    return _guarded(formula, lambda: _compare(
        formula, count_component_isomorphisms(g)))


def _run_struct_gen(g, sweep):
    """The intersection identity once per graph, then the class action of
    every sampled automorphism."""
    holds, witness = _intersection_holds(g)
    if not holds:
        return None, None, "property-fail", {"witness": witness}
    return sweep(_class_action)


def _run_struct_n2(g, sweep):
    """At n = 2 a well-defined class action keeps each component whole;
    STRUCT-GEN's sweep checks it, so a full run sweeps once for both."""
    if g.n != 2:
        return _skip("applies to n = 2 only")
    return sweep(_class_action)


def _run_card_n2(g, sweep):
    if g.n != 2:
        return _skip("applies to n = 2 only")
    formula = formula_card_n2(g.q)
    return _guarded(formula, lambda: _compare(
        formula, count_automorphisms(g, method="quotient")))


def _run_card_gen(g, sweep):
    if g.n < 3:
        return _skip("applies to n >= 3 only")
    formula = formula_card_general(g.q, g.n)
    return _guarded(formula, lambda: _compare(
        formula, count_automorphisms(g, method="quotient")))


def _run_card_stab(g, sweep):
    formula = formula_twin_stabilizer(g.q, g.n)
    return _guarded(formula,
                    lambda: _compare(formula, count_class_stabilizers(g)))


def _decomp_fields(g, perm):
    try:
        d = decompose(g, perm)
    except DecompositionError as e:
        return {"step": e.step, "witness": _jsonable(e.witness)}
    return None if compose(g, d) == perm else {"step": "recompose"}


def _run_decomp(g, sweep):
    return sweep(_decomp_fields)


# (id, the statement the claim checks, its runner); ids and statements are
# kept stable, as report consumers key on them
REGISTRY = (
    ("CARD-GEN", "for n >= 3 the automorphism count equals "
                 "2 M! ((q-1)!)^(2M) with M = (q^n-1)/(q-1)", _run_card_gen),
    ("CARD-N2", "for n = 2 the automorphism count equals "
                "(q+1)! (2((q-1)!)^2)^(q+1)", _run_card_n2),
    ("CARD-STAB", "automorphisms fixing every scalar class setwise "
                  "number ((q-1)!)^(2M)", _run_card_stab),
    ("COMP-ISO", "for n = 2 any two components admit exactly "
                 "2((q-1)!)^2 isomorphisms", _run_comp_iso),
    ("CONN", "the graph is connected for n >= 3 and splits into q+1 "
             "complete bipartite components for n = 2", _run_conn),
    ("DECOMP", "every automorphism factors through the generator chain "
               "and the factors recompose to it", _run_decomp),
    ("DOM-SIDE", "the least functional set dominating the vector side "
                 "has size q+1", _run_dom_side),
    ("DOM-WHOLE-STD", "the standard domination number of the whole graph "
                      "equals 2q+2", partial(_run_dom_whole, mode="standard")),
    ("DOM-WHOLE-TOT", "the total domination number of the whole graph "
                      "equals 2q+2", partial(_run_dom_whole, mode="total")),
    ("REG", "the graph is (q^(n-1)-1)-regular on 2(q^n-1) vertices", _run_reg),
    ("SIGMA-CARD", "each side splits into (q^n-1)/(q-1) scalar classes",
     _run_sigma_card),
    ("STRUCT-GEN", "class actions of automorphisms are well-defined "
                   "bijections that commute with class neighborhoods, and "
                   "the neighborhood intersection identity holds",
     _run_struct_gen),
    ("STRUCT-N2", "for n = 2 every automorphism permutes the components "
                  "with a pure side decision on each", _run_struct_n2),
    ("TWIN", "two same-side vertices are twins exactly when one is a "
             "scalar multiple of the other", _run_twin),
)

CLAIM_IDS = tuple(cid for cid, _, _ in REGISTRY)


def run_verify(q: int, n: int, claims=None, seed: int | None = None,
               deep: bool = False) -> VerificationReport:
    """Evaluate every registered claim for one (q, n) instance.

    claims: optional iterable of claim ids; everything else is reported as
    skipped.  seed: DEFAULT_SEED when None.  deep: accepted and ignored;
    selects nothing.
    """
    seed = DEFAULT_SEED if seed is None else seed
    selected = set(CLAIM_IDS if claims is None else claims)
    if unknown := selected - set(CLAIM_IDS):
        raise ValueError(f"unknown claim ids: {sorted(unknown)}")
    g = build(field_from_order(q), n)

    @cache  # one automorphism set for every sweep, built on first use
    def autos():
        nonlocal t0  # the asking claim's start: its time leaves the build out
        began = time.monotonic()
        perms, how = _automorphisms(g, seed)
        t0 += (took := time.monotonic() - began)
        print(f"# automorphisms q={q} n={n}: {how} [{took:.2f}s]",
              file=sys.stderr)
        return perms, how

    @cache  # one sweep per check: STRUCT-N2 reads STRUCT-GEN's result
    def sweep(check):
        return _sweep(g, autos, check)

    results = []
    for cid, locus, runner in REGISTRY:
        if cid not in selected:
            results.append(ClaimResult(cid, locus, None, None, "skipped",
                                       {"reason": "not selected"}))
            continue
        t0 = time.monotonic()
        formula, oracle, verdict, witness = runner(g, sweep)
        print(f"# {cid} q={q} n={n}: {verdict} "
              f"[{time.monotonic() - t0:.2f}s]", file=sys.stderr)
        results.append(ClaimResult(cid, locus, formula, oracle, verdict,
                                   witness))
    return VerificationReport(q, n, seed, results)


# ---------- report rendering ----------

def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    return repr(obj)


def _digits(n: int | None) -> str | None:
    """n in decimal, whole: Decimal renders past str()'s default limit of
    4300 digits, which formulas such as CARD-STAB's at (16,3) exceed."""
    return None if n is None else str(Decimal(n))


def report_to_dict(report: VerificationReport) -> dict:
    return {
        "q": report.q,
        "n": report.n,
        "seed": report.seed,
        "claims": [
            {
                "id": c.id,
                "paper_locus": c.locus,
                "formula": _digits(c.formula),
                "oracle": _digits(c.oracle),
                "verdict": c.verdict,
                "witness": _jsonable(c.witness),
                "ms": None,
            }
            for c in report.claims
        ],
    }


def reports_to_json(reports) -> str:
    docs = [report_to_dict(r) for r in reports]
    return json.dumps(docs[0] if len(docs) == 1 else docs, indent=2) + "\n"


def report_to_text(report: VerificationReport) -> str:
    out = [f"instance q={report.q} n={report.n} seed={report.seed}"]
    for c in report.claims:
        bits = [f"  {c.id:<14} {c.verdict:<13}"]
        if c.formula is not None:
            bits.append(f"formula={_digits(c.formula)}")
        if c.oracle is not None:
            bits.append(f"oracle={_digits(c.oracle)}")
        if c.verdict == "skipped" and isinstance(c.witness, dict):
            bits.append(f"({c.witness.get('reason', '')})")
        elif c.verdict in ("mismatch", "property-fail") and c.witness is not None:
            bits.append(f"witness={json.dumps(_jsonable(c.witness))}")
        out.append(" ".join(bits))
    out.append("result: " + ("pass" if report.passed() else "FAIL"))
    return "\n".join(out) + "\n"


# ---------- command line ----------

def _parse_claims(raw: str | None):
    if raw is None:
        return None
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("--claims must name at least one claim id")
    return parts


def _cmd_build(args) -> int:
    g = build(field_from_order(args.q), args.n)
    if args.export is None:
        edges = sum(row.bit_count() for row in g.adj[:g.nv])
        print(f"q={g.q} n={g.n} vertices={g.num_vertices} "
              f"edges={edges} degree={g.q ** (g.n - 1) - 1} "
              f"components={len(g.components())}")
        return 0
    data = export(g, args.export)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode("ascii"))
        if not data.endswith(b"\n"):
            sys.stdout.write("\n")
    return 0


def _cmd_invariants(args) -> int:
    g = build(field_from_order(args.q), args.n)
    ok = {cid: run(g, None)[2] in ("match", "property-pass")
          for cid, _, run in REGISTRY
          if cid in ("REG", "SIGMA-CARD", "TWIN", "CONN")}
    # a passing CONN proved the count
    comps = (1 if g.n >= 3 else g.q + 1) if ok["CONN"] else len(g.components())
    print(f"vertices={g.num_vertices} regular={ok['REG']} "
          f"degree={g.q ** (g.n - 1) - 1} classes-per-side={len(g.lines()) // 2} "
          f"components={comps} "
          f"twins-are-scalar-classes={ok['TWIN']}")
    return 0 if all(ok.values()) else 1


def _cmd_lines(args) -> int:
    g = build(field_from_order(args.q), args.n)
    for line in g.lines():
        rep = ",".join(map(str, line.rep))
        members = " ".join(map(str, line.members))
        print(f"{line.side} ({rep}): {members}")
    return 0


def _cmd_autos_count(args) -> int:
    q, n = args.q, args.n
    formula = brute = None
    if args.method in ("formula", "both"):
        formula = formula_card_n2(q) if n == 2 else formula_card_general(q, n)
    if args.method in ("brute", "both"):
        brute, searches = _count_with_searches(
            build(field_from_order(q), n), "quotient")
        print(f"# first-hit searches: {searches}", file=sys.stderr)
    parts = []
    if formula is not None:
        parts.append(f"formula={_digits(formula)}")
    if brute is not None:
        parts.append(f"brute={_digits(brute)}")
    print(" ".join(parts))
    if formula is not None and brute is not None and formula != brute:
        return 1
    return 0


def _cmd_autos_check(args) -> int:
    with open(args.perm, "rb") as fh:
        perm = perm_from_json(fh.read())
    try:
        v = check_structure(perm.g, perm)
    except LineActionError as e:
        print(f"automorphism=no broken-edge={list(e.witness)}")
        return 1
    print(f"automorphism=yes side-behavior={v.side_behavior}")
    return 0


def _cmd_autos_decompose(args) -> int:
    with open(args.perm, "rb") as fh:
        perm = perm_from_json(fh.read())
    g = perm.g
    try:
        d = decompose(g, perm)
    except DecompositionError as e:
        print(f"decomposition failed at step {e.step!r}: "
              f"{json.dumps(_jsonable(e.witness))}", file=sys.stderr)
        return 1
    print(decomposition_to_json(g, d))
    return 0


def _cmd_verify(args) -> int:
    if (args.q is None) != (args.n is None):
        print("verify needs both --q and --n, or neither for the default "
              "matrix", file=sys.stderr)
        return 2
    instances = [(args.q, args.n)] if args.q is not None else list(DEFAULT_MATRIX)
    claims = _parse_claims(args.claims)
    reports = [run_verify(q, n, claims=claims, seed=args.seed)
               for q, n in instances]
    if args.format == "json":
        sys.stdout.write(reports_to_json(reports))
    else:
        for r in reports:
            sys.stdout.write(report_to_text(r))
    return 0 if all(r.passed() for r in reports) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfgraph",
        description="exact computations on the vector/functional "
                    "orthogonality graph over a finite field")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_qn(p, required=True):
        p.add_argument("--q", type=int, required=required,
                       help="field order (prime power)")
        p.add_argument("--n", type=int, required=required,
                       help="dimension (>= 2)")

    p = sub.add_parser("build", help="build a graph and print or export it")
    add_qn(p)
    p.add_argument("--export", choices=("graph6", "json"))
    p.add_argument("--out", help="write the export here instead of stdout")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("invariants", help="print basic structural facts")
    add_qn(p)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("lines", help="print the scalar classes of each side")
    add_qn(p)
    p.set_defaults(func=_cmd_lines)

    p = sub.add_parser("autos", help="automorphism tools")
    asub = p.add_subparsers(dest="subcommand", required=True)

    pc = asub.add_parser("count", help="count automorphisms")
    add_qn(pc)
    pc.add_argument("--method", choices=("formula", "brute", "both"),
                    default="both")
    pc.set_defaults(func=_cmd_autos_count)

    pk = asub.add_parser("check", help="verify a serialized permutation")
    pk.add_argument("--perm", required=True, help="JSON permutation file")
    pk.set_defaults(func=_cmd_autos_check)

    pd = asub.add_parser("decompose",
                         help="factor a serialized automorphism into generators")
    pd.add_argument("--perm", required=True, help="JSON permutation file")
    pd.set_defaults(func=_cmd_autos_decompose)

    p = sub.add_parser("verify", help="run the claim registry and report")
    add_qn(p, required=False)
    p.add_argument("--claims", help="comma-separated claim ids to run")
    p.add_argument("--seed", type=int)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--deep", action="store_true",
                   help="accepted and ignored: selects nothing")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
