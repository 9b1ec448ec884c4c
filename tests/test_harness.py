import hashlib
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from types import SimpleNamespace

import pytest

import lfgraph.harness as harness
from lfgraph import build, field_from_order
from lfgraph.autos import (VertexPerm, formula_card_general, formula_card_n2,
                           formula_component_isos)
from lfgraph.harness import (CLAIM_IDS, DEFAULT_MATRIX, DEFAULT_SEED,
                             REGISTRY, main, report_to_text, reports_to_json,
                             run_verify)


def claims_by_id(report):
    return {c.id: c for c in report.claims}


def test_registry_well_formed():
    ids = [cid for cid, _, _ in REGISTRY]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids)) == 14
    assert all(locus and callable(run) for _, locus, run in REGISTRY)


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3)])
def test_every_claim_appears_once(q, n):
    report = run_verify(q, n)
    assert [c.id for c in report.claims] == list(CLAIM_IDS)


def test_each_claim_alone_matches_the_full_report():
    """A claim run alone reports what it reports in a full run: no claim
    reads state that another claim leaves behind."""
    for q, n in DEFAULT_MATRIX:
        full = claims_by_id(run_verify(q, n))
        for cid in CLAIM_IDS:
            alone = claims_by_id(run_verify(q, n, claims=[cid]))
            assert alone[cid] == full[cid], (q, n, cid)


def test_report_2_2():
    report = run_verify(2, 2)
    by = claims_by_id(report)
    assert by["CARD-N2"].verdict == "match"
    assert by["CARD-N2"].formula == 48 and by["CARD-N2"].oracle == 48
    assert by["REG"].verdict == "property-pass"
    assert by["DOM-SIDE"].verdict == "match"
    # the whole-graph standard number is 3, not 2q+2 = 6
    std = by["DOM-WHOLE-STD"]
    assert std.verdict == "mismatch"
    assert std.formula == 6 and std.oracle == 3
    assert std.witness["solver"]
    assert by["DOM-WHOLE-TOT"].verdict == "match"
    assert by["CARD-GEN"].verdict == "skipped"
    assert not report.passed()


def test_report_2_3():
    report = run_verify(2, 3)
    by = claims_by_id(report)
    gen = by["CARD-GEN"]
    assert gen.verdict == "mismatch"
    assert gen.formula == 10080 and gen.oracle == 336
    assert by["STRUCT-N2"].verdict == "skipped"
    assert by["DOM-WHOLE-STD"].oracle == 4
    assert by["CARD-STAB"].verdict == "match"


def test_report_3_2_all_match():
    report = run_verify(3, 2)
    assert report.passed()
    by = claims_by_id(report)
    assert by["CARD-N2"].oracle == 98304
    assert by["CARD-STAB"].oracle == 256
    assert by["DOM-WHOLE-STD"].verdict == "match"


def test_sampler_choice_on_default_matrix():
    """Groups of at most EXHAUSTIVE_GROUP members are swept in full, larger
    ones sampled; the choice shows in every sampling claim's witness."""
    want = {(2, 2): "all 48", (2, 3): "all 336", (3, 2): "sampled 100",
            (4, 2): "sampled 100", (3, 3): "sampled 100"}
    assert set(want) == set(DEFAULT_MATRIX)
    sampling = ("STRUCT-GEN", "STRUCT-N2", "DECOMP")
    for (q, n), how in want.items():
        by = claims_by_id(run_verify(q, n, claims=sampling))
        for cid in sampling:
            if cid == "STRUCT-N2" and n != 2:
                continue
            assert by[cid].witness == {"method": how}, (q, n, cid)


def test_claim_filter():
    report = run_verify(2, 2, claims=["REG", "TWIN"])
    by = claims_by_id(report)
    assert by["REG"].verdict == "property-pass"
    assert by["TWIN"].verdict == "property-pass"
    skipped = [c for c in report.claims if c.id not in ("REG", "TWIN")]
    assert all(c.verdict == "skipped" for c in skipped)
    assert all(c.witness == {"reason": "not selected"} for c in skipped)
    assert report.passed()
    with pytest.raises(ValueError):
        run_verify(2, 2, claims=["NOPE"])


def test_struct_gen_checks_intersection_once(monkeypatch):
    """STRUCT-GEN checks the intersection identity once per graph, and a
    failure there fails the claim with its witness."""
    import lfgraph.harness as harness
    calls = []
    monkeypatch.setattr(harness, "_intersection_holds",
                        lambda g: calls.append(1) or (False, {"fun_class": 9}))
    by = claims_by_id(run_verify(2, 3, claims=["STRUCT-GEN"]))
    assert by["STRUCT-GEN"].verdict == "property-fail"
    assert by["STRUCT-GEN"].witness == {"witness": {"fun_class": 9}}
    assert len(calls) == 1


GUARD_2660 = "a component of 2660 vertices is over the exact-search guard 2046"


def test_verify_skips_domination_the_guard_refuses():
    """(11,3) is one component of 2660 vertices: each domination claim is
    skipped with the library guard's message and keeps its formula, and
    the report still holds all 14 claims."""
    report = run_verify(11, 3)
    assert [c.id for c in report.claims] == list(CLAIM_IDS)
    by = claims_by_id(report)
    for cid, formula in [("DOM-SIDE", 12), ("DOM-WHOLE-STD", 24),
                         ("DOM-WHOLE-TOT", 24)]:
        c = by[cid]
        assert (c.verdict, c.formula, c.oracle) == ("skipped", formula, None)
        assert c.witness == {"reason": GUARD_2660}
    assert report.passed()


def test_verify_skips_card_n2_over_the_class_guard():
    c = claims_by_id(run_verify(41, 2, claims=["CARD-N2"]))["CARD-N2"]
    assert (c.verdict, c.formula, c.oracle) == (
        "skipped", formula_card_n2(41), None)
    assert c.witness == {"reason": "42 classes per side is over the 40 guard"}


def test_cli_verify_skips_comp_iso_over_the_class_guard(capsys):
    """COMP-ISO's search sits behind the same class guard as CARD-N2's, so
    (41,2) is skipped with the guard's message, keeps its formula, and
    verify exits 0."""
    assert run_cli("verify", "--q", "41", "--n", "2", "--claims", "COMP-ISO",
                   "--format", "json") == 0
    c = json.loads(capsys.readouterr().out)["claims"][
        CLAIM_IDS.index("COMP-ISO")]
    assert (c["verdict"], c["formula"], c["oracle"]) == (
        "skipped", str(formula_component_isos(41)), None)
    assert c["witness"] == {"reason": "42 classes per side is over the 40 guard"}


def test_card_gen_runs_its_oracle_up_to_the_class_guard():
    """CARD-GEN compares the closed form with the quotient count at every
    n >= 3 size the class guard admits: (3,4), 40 classes a side, counts
    2|PGL(4,3)| (2!)^80 and misses the paper's formula.  (2,6), 63 classes
    a side, is skipped with the guard's own message and keeps its formula."""
    c = claims_by_id(run_verify(3, 4, claims=["CARD-GEN"]))["CARD-GEN"]
    pgl = 80 * 78 * 72 * 54 // 2
    assert (c.verdict, c.formula, c.oracle) == (
        "mismatch", formula_card_general(3, 4), 2 * pgl * 2 ** 80)
    c = claims_by_id(run_verify(2, 6, claims=["CARD-GEN"]))["CARD-GEN"]
    assert (c.verdict, c.formula) == ("skipped", formula_card_general(2, 6))
    assert c.witness == {"reason": "63 classes per side is over the 40 guard"}


@pytest.mark.parametrize("q,n", DEFAULT_MATRIX)
def test_deep_selects_nothing(q, n):
    """deep is accepted and ignored: the report is the same with it."""
    assert run_verify(q, n) == run_verify(q, n, deep=True)


def test_sweep_failures_name_the_broken_edge(monkeypatch):
    """A sampled permutation that is no automorphism fails STRUCT-GEN and
    STRUCT-N2 with line_action's broken edge, and DECOMP with decompose's
    step and witness.  Swapping vertex 0 with the first member of class 1
    breaks the edge from vertex 0 to the functional with class 1's rep."""
    def swapped(g, seed):
        img = list(range(g.num_vertices))
        b = g.lines()[1].members[0]
        img[0], img[b] = b, 0
        return [VertexPerm(g, img)], "patched"

    monkeypatch.setattr(harness, "_automorphisms", swapped)
    head = {"method": "patched", "index": 0}
    for q, n, cid, edge in [(2, 3, "STRUCT-GEN", [0, 8]),
                            (3, 2, "STRUCT-GEN", [0, 10]),
                            (3, 2, "STRUCT-N2", [0, 10])]:
        c = claims_by_id(run_verify(q, n, claims=[cid]))[cid]
        assert c.verdict == "property-fail"
        assert c.witness == {**head, "reason": "perm is not an automorphism",
                             "witness": edge}
    for q, n, edge in [(2, 3, [0, 8]), (3, 2, [0, 10])]:
        c = claims_by_id(run_verify(q, n, claims=["DECOMP"]))["DECOMP"]
        assert c.verdict == "property-fail"
        assert c.witness == {**head, "step": "not-automorphism",
                             "witness": {"edge": edge}}


def test_verify_enumerates_each_group_once(monkeypatch):
    """STRUCT-GEN, STRUCT-N2 and DECOMP sweep one enumeration per
    run_verify call: on the default matrix, (2,2) and (2,3) enumerate
    once each, and the sampled instances never."""
    import lfgraph.autos as autos
    calls = []
    enumerate_all = autos.all_automorphisms

    def counted(g):
        calls.append((g.q, g.n))
        return enumerate_all(g)

    monkeypatch.setattr(autos, "all_automorphisms", counted)
    for q, n in harness.DEFAULT_MATRIX:
        run_verify(q, n)
    assert calls == [(2, 2), (2, 3)]


def test_verify_draws_one_sample_set_per_graph(monkeypatch, capsys):
    """STRUCT-GEN, STRUCT-N2 and DECOMP sweep one set of SAMPLE_COUNT
    draws per run_verify call, built on first use and announced once on
    stderr; a run without a sweep draws nothing."""
    draws = []
    draw = harness.random_automorphism

    def counted(g, rng):
        draws.append((g.q, g.n))
        return draw(g, rng)

    monkeypatch.setattr(harness, "random_automorphism", counted)
    for q, n in [(3, 2), (3, 3)]:
        draws.clear()
        capsys.readouterr()
        run_verify(q, n)
        assert draws == [(q, n)] * harness.SAMPLE_COUNT
        notes = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("# automorphisms")]
        assert len(notes) == 1
        assert notes[0].startswith(f"# automorphisms q={q} n={n}: sampled 100 [")
    draws.clear()
    run_verify(3, 2, claims=["REG"])
    assert draws == []
    assert "# automorphisms" not in capsys.readouterr().err


def test_claim_time_leaves_the_set_build_out(monkeypatch, capsys):
    """The set's build time goes on its own stderr line, not on the line of
    the claim that first asked for it."""
    now = [0.0]
    monkeypatch.setattr(harness, "time", SimpleNamespace(monotonic=lambda: now[0]))

    def slow(g, seed):
        now[0] += 5.0
        return [], "all 0"

    monkeypatch.setattr(harness, "_automorphisms", slow)
    run_verify(2, 2, claims=["DECOMP", "STRUCT-GEN"])
    notes = capsys.readouterr().err.splitlines()
    assert notes == ["# automorphisms q=2 n=2: all 0 [5.00s]",
                     "# DECOMP q=2 n=2: property-pass [0.00s]",
                     "# STRUCT-GEN q=2 n=2: property-pass [0.00s]"]


def test_sweeps_share_their_automorphisms(monkeypatch):
    """A sweep run alone checks the same automorphisms as any other: at
    (3,2) DECOMP sees the images STRUCT-N2 sees, in the same order."""
    seen = {}

    def recording(cid, check):
        def wrapped(g, perm):
            seen.setdefault(cid, []).append(perm.image)
            return check(g, perm)
        return wrapped

    monkeypatch.setattr(harness, "_decomp_fields",
                        recording("DECOMP", harness._decomp_fields))
    monkeypatch.setattr(harness, "_class_action",
                        recording("STRUCT-N2", harness._class_action))
    for cid in ("DECOMP", "STRUCT-N2"):
        assert claims_by_id(run_verify(3, 2, claims=[cid]))[cid].verdict == (
            "property-pass")
    assert len(seen["DECOMP"]) == harness.SAMPLE_COUNT
    assert seen["DECOMP"] == seen["STRUCT-N2"]


def test_each_check_is_swept_once(monkeypatch):
    """STRUCT-GEN and STRUCT-N2 run the same check on the same set, so a
    full run_verify at (3,2) sweeps it once: SAMPLE_COUNT calls, not twice
    that.  Both claims still report the sweep."""
    calls = []
    check = harness._class_action

    def counted(g, perm):
        calls.append(perm)
        return check(g, perm)

    monkeypatch.setattr(harness, "_class_action", counted)
    by = claims_by_id(run_verify(3, 2))
    assert len(calls) == harness.SAMPLE_COUNT
    for cid in ("STRUCT-GEN", "STRUCT-N2"):
        assert by[cid].verdict == "property-pass"
        assert by[cid].witness == {"method": "sampled 100"}


def test_sweeps_sample_past_the_enumeration_guard(monkeypatch):
    """verify reads no guard itself: with the library's enumeration guard
    below (2,3)'s 14 vertices, both sweeps sample instead of enumerating."""
    import lfgraph.autos as autos
    monkeypatch.setattr(autos, "MAX_ENUM_VERTICES", 10)
    by = claims_by_id(run_verify(2, 3, claims=["STRUCT-GEN", "DECOMP"]))
    for cid in ("STRUCT-GEN", "DECOMP"):
        assert by[cid].verdict == "property-pass"
        assert by[cid].witness == {"method": "sampled 100"}


def _toggled(q, n, *edges):
    """A freshly built graph with each (vector, functional) edge flipped in
    both rows, so the shared test graphs stay intact."""
    g = build(field_from_order(q), n)
    for v, f in edges:
        g.adj[v] ^= 1 << f
        g.adj[f] ^= 1 << v
    return g


@pytest.mark.parametrize("q,n,f,degree", [(2, 2, 4, 0), (3, 2, 10, 1),
                                          (2, 3, 8, 2), (3, 3, 28, 7)])
def test_reg_fails_on_a_cut_edge(q, n, f, degree):
    """f is vertex 0's first neighbour."""
    g = _toggled(q, n, (0, f))
    assert harness._run_reg(g, None) == (None, None, "property-fail", {
        "vertex": ["vec", [0] * (n - 1) + [1]], "degree": degree,
        "expected": q ** (n - 1) - 1})


@pytest.mark.parametrize("q,n,f", [(2, 2, 4), (3, 2, 10), (3, 3, 28)])
def test_twin_fails_on_a_cut_edge(q, n, f):
    """Cutting an edge at vertex 0 splits its class (q > 2), or at (2,2)
    leaves two isolated vertices with equal empty rows.  At q = 2 and
    n >= 3 every class is one vertex and no cut edge makes twins, so
    (2,3) is not a case."""
    g = _toggled(q, n, (0, f))
    assert harness._run_twin(g, None) == (None, None, "property-fail", {
        "reason": "twin classes differ from scalar classes"})


@pytest.mark.parametrize("q,n,x,y,witness", [
    (3, 2, 0, 2, {"vertex": ["vec", [0, 1]], "rep": [0, 1]}),
    (2, 3, 0, 7, {"vertex": ["vec", [0, 0, 1]], "rep": [0, 0, 1]}),
    (3, 3, 26, 28, {"vertex": ["fun", [0, 0, 1]], "rep": [0, 0, 1]}),
])
def test_twin_fails_on_exchanged_class_entries(q, n, x, y, witness):
    """lines() and the rows stay intact, so only the monic-rep pass sees
    that line_index() puts vertex x in another class ((2,3): its mirror's,
    on the other side)."""
    g = build(field_from_order(q), n)
    lof = list(g.line_index())
    lof[x], lof[y] = lof[y], lof[x]
    g._line_of = tuple(lof)
    assert harness._run_twin(g, None) == (
        None, None, "property-fail", witness)


@pytest.mark.parametrize("q,n", [(3, 2), (2, 3), (4, 3)])
def test_twin_reads_each_vertex_once(q, n):
    """TWIN's work is linear: at most one coords_of call and one adjacency
    row read per vertex."""
    g = build(field_from_order(q), n)
    calls = {"coords_of": 0, "rows": 0}
    coords_of = g.coords_of

    def counted(v):
        calls["coords_of"] += 1
        return coords_of(v)

    class Rows(list):
        def __getitem__(self, i):
            calls["rows"] += 1
            return super().__getitem__(i)

    g.coords_of, g.adj = counted, Rows(g.adj)
    assert harness._run_twin(g, None)[2] == "property-pass"
    assert max(calls.values()) <= g.num_vertices, calls


def test_conn_failures():
    def conn(g):
        return harness._run_conn(g, None)[2:]

    fail = "property-fail"
    # n >= 3: vertex 0 of (2,3) loses its three edges and stands alone
    assert conn(_toggled(2, 3, (0, 8), (0, 10), (0, 12))) == (
        fail, {"components": 2})
    # (2,2): cutting one K_{1,1} leaves four components, not q + 1 = 3
    assert conn(_toggled(2, 2, (0, 4))) == (
        fail, {"components": 4, "expected": 3})
    # moving functional 4 from vector 0 to vector 1 keeps three components,
    # but vector 0 is a component with no functional
    assert conn(_toggled(2, 2, (0, 4), (1, 4))) == (
        fail, {"component": [["vec", [0, 1]]], "expected_part": 1})
    # (3,2): the 4-cycle on vectors 0, 1 and functionals 10, 13 loses one
    # edge and stays connected, with both parts of size q - 1 = 2
    assert conn(_toggled(3, 2, (0, 10))) == (fail, {
        "component": [["vec", [0, 1]], ["vec", [0, 2]],
                      ["fun", [1, 0]], ["fun", [2, 0]]],
        "reason": "component is not complete bipartite"})


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3)])
def test_report_reads_no_clock(q, n, monkeypatch):
    """A report is a function of (q, n, claims, seed): a clock that jumps an
    hour a call changes only the timings on stderr, and neither run_verify
    nor the command line takes a wall-clock budget."""
    want = run_verify(q, n)
    ticks = iter(range(0, 10**9, 3600))
    monkeypatch.setattr(harness.time, "monotonic", lambda: next(ticks))
    assert run_verify(q, n) == want
    with pytest.raises(TypeError):
        run_verify(q, n, budget=0)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q", str(q), "--n", str(n), "--budget", "0"])
    assert exc.value.code == 2


def test_report_passed_only_without_a_failed_claim():
    """passed() is False exactly when some claim mismatches or fails a
    property; a match, a skip and a property pass all keep it True."""
    def report(*verdicts):
        return harness.VerificationReport(2, 2, 0, [
            harness.ClaimResult(f"C{i}", "", None, None, v, None)
            for i, v in enumerate(verdicts)])
    assert report().passed()
    assert report("match", "skipped", "property-pass").passed()
    for bad in ("mismatch", "property-fail"):
        assert not report("match", bad, "skipped").passed()


def test_json_rendering():
    report = run_verify(2, 2, seed=5)
    doc = json.loads(reports_to_json([report]))
    assert doc["q"] == 2 and doc["n"] == 2 and doc["seed"] == 5
    assert len(doc["claims"]) == 14
    for claim in doc["claims"]:
        assert set(claim) == {"id", "paper_locus", "formula", "oracle",
                              "verdict", "witness", "ms"}
        assert claim["ms"] is None
        if claim["formula"] is not None:
            assert isinstance(claim["formula"], str)
    card = next(c for c in doc["claims"] if c["id"] == "CARD-N2")
    assert card["formula"] == "48"


def test_json_deterministic_for_seed():
    a = reports_to_json([run_verify(2, 2, seed=9)])
    b = reports_to_json([run_verify(2, 2, seed=9)])
    assert a == b
    assert report_to_text(run_verify(2, 2, seed=9)) == \
        report_to_text(run_verify(2, 2, seed=9))


def test_text_rendering():
    text = report_to_text(run_verify(2, 2))
    assert text.startswith("instance q=2 n=2")
    assert "DOM-WHOLE-STD" in text
    assert text.rstrip().endswith("result: FAIL")


# ---------- CLI ----------

def run_cli(*argv):
    return main(list(argv))


def test_cli_autos_count(capsys):
    assert run_cli("autos", "count", "--q", "2", "--n", "2",
                   "--method", "both") == 0
    assert capsys.readouterr().out.strip() == "formula=48 brute=48"
    assert run_cli("autos", "count", "--q", "2", "--n", "3",
                   "--method", "both") == 1
    assert capsys.readouterr().out.strip() == "formula=10080 brute=336"
    assert run_cli("autos", "count", "--q", "3", "--n", "2",
                   "--method", "formula") == 0
    assert capsys.readouterr().out.strip() == "formula=98304"
    for method in ("both", "formula", "brute"):
        assert run_cli("autos", "count", "--q", "3", "--n", "1",
                       "--method", method) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: dimension must be >= 2, got 1\n"


def test_cli_autos_count_work_on_stderr(capsys):
    """The brute count reports its first-hit searches on stderr only."""
    assert run_cli("autos", "count", "--q", "2", "--n", "3",
                   "--method", "brute") == 0
    captured = capsys.readouterr()
    assert captured.out == "brute=336\n"
    assert captured.err == "# first-hit searches: 7\n"
    assert run_cli("autos", "count", "--q", "4", "--n", "3",
                   "--method", "both") == 1
    captured = capsys.readouterr()
    assert f"brute={241920 * 6 ** 42}" in captured.out.split()
    assert captured.err.startswith("# first-hit searches: ")


def test_cli_renders_formulas_past_the_int_str_limit(capsys):
    """CARD-STAB's formula at (16,3), (15!)^546, has over 6000 digits,
    more than str() renders by default; every output holds it whole."""
    want = math.factorial(15) ** 546
    assert run_cli("verify", "--q", "16", "--n", "3", "--claims", "CARD-STAB",
                   "--format", "json") == 0
    got = json.loads(capsys.readouterr().out)["claims"][
        CLAIM_IDS.index("CARD-STAB")]["formula"]
    assert len(got) > 6000 and Decimal(got) == want
    assert run_cli("verify", "--q", "16", "--n", "3", "--claims", "CARD-STAB",
                   "--format", "text") == 0
    assert f"formula={got} " in capsys.readouterr().out
    assert run_cli("autos", "count", "--q", "16", "--n", "3",
                   "--method", "formula") == 0
    got = capsys.readouterr().out.strip().removeprefix("formula=")
    assert len(got) > 6000 and Decimal(got) == want * math.factorial(273) * 2


def test_cli_autos_count_formula_guard(capsys):
    """The closed form stops at build's guard: (2,16) exits 2 with build's
    message; (2,15), the largest q = 2 graph build admits, prints its
    count."""
    assert run_cli("autos", "count", "--q", "2", "--n", "16",
                   "--method", "formula") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: graph would have 131070 vertices, "
                            "over the 100000 guard\n")
    assert run_cli("autos", "count", "--q", "2", "--n", "15",
                   "--method", "formula") == 0
    got = capsys.readouterr().out.strip().removeprefix("formula=")
    assert got.isdigit() and len(got) > 100_000


def test_cli_build_guard(capsys):
    assert run_cli("build", "--q", "7", "--n", "9") == 2
    assert run_cli("build", "--q", "6", "--n", "2") == 2
    assert run_cli("build", "--q", "2", "--n", "2") == 0
    assert run_cli("build", "--q", "3", "--n", "3") == 0
    assert capsys.readouterr().out.splitlines() == [
        "q=2 n=2 vertices=6 edges=3 degree=1 components=3",
        "q=3 n=3 vertices=52 edges=208 degree=8 components=1"]


def test_cli_builds_a_field_with_no_listed_modulus(capsys):
    """GF(32)'s modulus is derived from its order, so build reaches it."""
    assert run_cli("build", "--q", "32", "--n", "2") == 0
    assert capsys.readouterr().out.splitlines() == [
        "q=32 n=2 vertices=2046 edges=31713 degree=31 components=33"]


def test_cli_verify_reports_a_refused_instance(capsys):
    """verify skips what a guard refuses instead of exiting 2."""
    assert run_cli("verify", "--q", "11", "--n", "3", "--format", "json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert [c["id"] for c in doc["claims"]] == list(CLAIM_IDS)
    assert doc["claims"][CLAIM_IDS.index("DOM-SIDE")]["witness"] == {
        "reason": GUARD_2660}


def test_cli_build_export(tmp_path, capsys):
    out = tmp_path / "g.g6"
    assert run_cli("build", "--q", "3", "--n", "2", "--export", "graph6",
                   "--out", str(out)) == 0
    from lfgraph.graph import parse_graph6
    n, edges = parse_graph6(out.read_bytes())
    assert n == 16 and len(edges) == 16
    assert run_cli("build", "--q", "2", "--n", "2", "--export", "json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["q"] == 2


def test_cli_invariants_and_lines(capsys):
    assert run_cli("invariants", "--q", "3", "--n", "2") == 0
    assert "classes-per-side=4" in capsys.readouterr().out
    assert run_cli("lines", "--q", "2", "--n", "2") == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 6
    assert out[0].startswith("vec (0,1):")


def test_cli_verify_single_instance(capsys):
    code = run_cli("verify", "--q", "3", "--n", "2", "--format", "json")
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["q"] == 3
    code = run_cli("verify", "--q", "2", "--n", "2", "--format", "text")
    assert code == 1


def test_cli_verify_claims_filter(capsys):
    code = run_cli("verify", "--q", "2", "--n", "3", "--claims", "CARD-GEN",
                   "--format", "json")
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    gen = next(c for c in doc["claims"] if c["id"] == "CARD-GEN")
    assert gen["verdict"] == "mismatch"
    assert gen["formula"] == "10080" and gen["oracle"] == "336"
    rest = [c for c in doc["claims"] if c["id"] != "CARD-GEN"]
    assert all(c["verdict"] == "skipped" for c in rest)


def test_cli_verify_usage_error(capsys):
    assert run_cli("verify", "--q", "2") == 2
    assert run_cli("verify", "--q", "2", "--n", "3",
                   "--claims", "BOGUS") == 2


def test_cli_perm_files(tmp_path, capsys):
    from lfgraph.autos import perm_to_json, sigma_swap
    g = __import__("conftest").graph_for(2, 3)
    good = tmp_path / "sigma.json"
    good.write_text(perm_to_json(sigma_swap(g)))
    assert run_cli("autos", "check", "--perm", str(good)) == 0
    assert "automorphism=yes" in capsys.readouterr().out
    assert run_cli("autos", "decompose", "--perm", str(good)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["swap"] is True
    missing = tmp_path / "missing.json"
    assert run_cli("autos", "check", "--perm", str(missing)) == 2


def test_cli_decompose_refuses_a_non_automorphism(tmp_path, capsys):
    """A well-formed permutation that is no automorphism fails decompose
    at its first step: exit 1, the step named on stderr, nothing on
    stdout."""
    from lfgraph.autos import VertexPerm, perm_to_json
    g = __import__("conftest").graph_for(3, 2)
    swapped = list(range(g.num_vertices))
    swapped[0], swapped[2] = 2, 0  # two vectors of different classes
    path = tmp_path / "perm.json"
    path.write_text(perm_to_json(VertexPerm(g, swapped)))
    assert run_cli("autos", "decompose", "--perm", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "decomposition failed at step 'not-automorphism'")
    assert not captured.out


def test_cli_autos_check_scans_once(tmp_path, capsys, monkeypatch):
    """One class map read per document, and its side behaviour or broken
    edge on one line."""
    import lfgraph.autos as autos
    from lfgraph.autos import VertexPerm, perm_to_json, sigma_swap
    g = __import__("conftest").graph_for(3, 2)
    swapped = list(range(g.num_vertices))
    swapped[0], swapped[2] = 2, 0  # two vectors of different classes
    calls = []
    real = autos.line_action
    monkeypatch.setattr(autos, "line_action",
                        lambda g, perm: calls.append(1) or real(g, perm))
    for perm, code, out in [
            (sigma_swap(g), 0, "automorphism=yes side-behavior=swapped"),
            (VertexPerm(g, swapped), 1,
             "automorphism=no broken-edge=[0, 10]")]:
        path = tmp_path / "perm.json"
        path.write_text(perm_to_json(perm))
        calls.clear()
        assert run_cli("autos", "check", "--perm", str(path)) == code
        assert capsys.readouterr().out == out + "\n"
        assert len(calls) == 1


@pytest.mark.parametrize("doc", [
    {"q": 2, "n": 3, "image": 5},
    {"q": 2, "n": 3, "image": [0.0] + list(range(1, 14))},
    {"q": 2, "n": 3, "image": None},
    {"q": 2.0, "n": 3, "image": list(range(14))},
    {"q": 2, "n": "3", "image": list(range(14))},
    [2, 3],
    5,
    {"q": 2, "n": 2, "image": [True, 0, 2, 3, 4, 5]},
])
def test_cli_malformed_perm_files(tmp_path, capsys, doc):
    """A malformed document is a bad file (exit 2), never a verdict of
    "not an automorphism" (exit 1) and never a traceback."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for cmd in ("check", "decompose"):
        assert run_cli("autos", cmd, "--perm", str(bad)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and not captured.out


def test_cli_byte_identical_runs():
    exe = [sys.executable, "-m", "lfgraph.harness", "verify", "--q", "2",
           "--n", "2", "--seed", "123", "--format", "json"]
    env = dict(os.environ)
    a = subprocess.run(exe, capture_output=True, env=env)
    b = subprocess.run(exe, capture_output=True, env=env)
    assert a.returncode == b.returncode == 1
    assert a.stdout == b.stdout
    assert a.stdout  # non-empty report


@pytest.mark.parametrize("args", [
    ["verify", "--format", "json"],
    ["verify", "--deep", "--format", "json", "--seed", "1729"],
], ids=["default", "deep"])
def test_cli_verify_report_bytes_pinned(args, capsys):
    """The default-matrix report, byte for byte, with or without the
    ignored --deep.  A change that alters the report on purpose updates
    its digest here."""
    assert main(args) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ba30d3338c8c244559518a4dabf109cace43002614ca01870ebb6139cabdabcc")


def test_default_seed_constant():
    report = run_verify(2, 2, claims=["REG"])
    assert report.seed == DEFAULT_SEED == 1729
