"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with -s or -rA) and
enforces its own wall-clock bound.  Shared graphs come from
conftest/graph_for; enumerations search afresh on every call.
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from lfgraph.autos import (all_automorphisms, check_structure, chi_p, compose,
                           count_automorphisms, count_class_stabilizers,
                           decompose, delta_for, formula_card_general,
                           formula_card_n2, formula_twin_stabilizer,
                           is_automorphism, iter_automorphisms, phi_bar,
                           pi_extend, random_automorphism,
                           random_twin_permutation, sigma_swap, VertexPerm,
                           _intersection_holds)
from lfgraph.graph import FUN, VEC, domination_number, is_dominating
from lfgraph.linalg import random_invertible

from conftest import graph_for
from linalg_reference import mat_mul

FULL_MATRIX = [(q, n) for q in (2, 3, 4, 5) for n in (2, 3)]


@contextmanager
def criterion(num, label, limit_s):
    t0 = time.monotonic()
    outcome = {"ok": False}
    try:
        yield outcome
        outcome["ok"] = True
    finally:
        elapsed = time.monotonic() - t0
        status = "PASS" if outcome["ok"] and elapsed < limit_s else "FAIL"
        print(f"criterion {num:02d} [{label}]: {status} ({elapsed:.2f}s)")
    assert elapsed < limit_s, f"criterion {num} exceeded {limit_s}s"


def test_criterion_01_regularity():
    with criterion(1, "regularity", 1.0):
        for q, n in FULL_MATRIX:
            g = graph_for(q, n)
            assert g.num_vertices == 2 * (q ** n - 1)
            want = q ** (n - 1) - 1
            assert all(g.degree(v) == want for v in range(g.num_vertices))


def test_criterion_02_class_count_and_twins():
    with criterion(2, "scalar classes", 1.0):
        for q, n in FULL_MATRIX:
            g = graph_for(q, n)
            lines = g.lines()
            assert len(lines) == 2 * (q ** n - 1) // (q - 1)
            assert sorted(line.members for line in lines) == \
                sorted(g.twin_classes())


def test_criterion_03_connectivity():
    with criterion(3, "connectivity", 1.0):
        for q in (2, 3, 4, 5):
            g = graph_for(q, 2)
            comps = g.components()
            assert len(comps) == q + 1
            for comp in comps:
                vecs = [v for v in comp if g.is_vec(v)]
                funs = [v for v in comp if not g.is_vec(v)]
                assert len(vecs) == len(funs) == q - 1
                fmask = sum(1 << f for f in funs)
                vmask = sum(1 << v for v in vecs)
                assert all(g.adj[v] == fmask for v in vecs)
                assert all(g.adj[f] == vmask for f in funs)
        for q in (2, 3, 4, 5):
            assert len(graph_for(q, 3).components()) == 1


def test_criterion_04_one_sided_domination():
    with criterion(4, "one-sided domination", 30.0):
        for q, n in [(2, 2), (3, 2), (2, 3), (3, 3)]:
            g = graph_for(q, n)
            size, wit = domination_number(g, target=VEC, mode="standard")
            assert size == q + 1
            assert is_dominating(g, wit, target=VEC, mode="standard")
            explicit = [g.fun_id((1, a) + (0,) * (n - 2))
                        for a in g.field.elements()]
            explicit.append(g.fun_id((0, 1) + (0,) * (n - 2)))
            assert is_dominating(g, explicit, target=VEC, mode="standard")


def test_criterion_05_whole_graph_domination():
    with criterion(5, "whole-graph domination", 60.0):
        expected_std = {(2, 2): 3, (3, 2): 8, (2, 3): 4}
        for q, n in [(2, 2), (3, 2), (2, 3)]:
            g = graph_for(q, n)
            std, std_wit = domination_number(g, target="all", mode="standard")
            tot, tot_wit = domination_number(g, target="all", mode="total")
            assert std == expected_std[(q, n)]
            assert is_dominating(g, std_wit, target="all", mode="standard")
            assert is_dominating(g, tot_wit, target="all", mode="total")
            if n == 2:
                assert tot == 2 * q + 2
            if std != 2 * q + 2:
                # a mismatch needs an exhibitable witness set
                assert len(std_wit) == std < 2 * q + 2


def test_criterion_06_counts_n2():
    with criterion(6, "automorphism count n=2", 60.0):
        g22 = graph_for(2, 2)
        assert count_automorphisms(g22, method="vertex") == 48
        assert count_automorphisms(g22, method="quotient") == 48
        assert formula_card_n2(2) == 48
        g32 = graph_for(3, 2)
        assert count_automorphisms(g32, method="vertex") == 98304
        assert count_automorphisms(g32, method="quotient") == 98304
        assert formula_card_n2(3) == 98304


def test_criterion_07_count_2_3_verdict():
    with criterion(7, "automorphism count (2,3)", 120.0):
        g = graph_for(2, 3)
        vertex = count_automorphisms(g, method="vertex")
        quotient = count_automorphisms(g, method="quotient")
        assert vertex == quotient  # independent oracles agree
        verdict = "match" if vertex == formula_card_general(2, 3) else "mismatch"
        assert verdict in ("match", "mismatch")
        # record the definitive outcome: the enumerators settle on 336
        assert vertex == 336 and verdict == "mismatch"


def test_criterion_08_twin_stabilizers():
    with criterion(8, "twin-class stabilizers", 60.0):
        assert count_class_stabilizers(graph_for(3, 2)) == 256
        assert formula_twin_stabilizer(3, 2) == 256


def test_criterion_09_generator_soundness():
    with criterion(9, "generator soundness", 30.0):
        rng = random.Random(20240817)
        counts = dict.fromkeys(
            ("chi", "pi", "sigma", "tau", "phi", "delta", "hom"), 0)
        for q, n in [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3)]:
            g = graph_for(q, n)
            assert is_automorphism(g, sigma_swap(g))
            for _ in range(20):
                P = random_invertible(g.field, n, rng)
                assert is_automorphism(g, chi_p(g, P))
                counts["chi"] += 1
                assert is_automorphism(g, random_twin_permutation(g, rng))
                counts["tau"] += 1
                P2 = random_invertible(g.field, n, rng)
                assert chi_p(g, P).compose(chi_p(g, P2)) == \
                    chi_p(g, mat_mul(g.field, P, P2))
                counts["hom"] += 1
                # sigma against a varying automorphism, not just alone
                both = sigma_swap(g).compose(random_automorphism(g, rng))
                assert is_automorphism(g, both)
                counts["sigma"] += 1
        # pi over random Frobenius exponents on the non-prime fields
        for _ in range(110):
            g = graph_for(*rng.choice([(4, 2), (4, 3), (8, 2), (9, 2)]))
            j = rng.randrange(g.field.k)
            assert is_automorphism(g, pi_extend(g, j))
            counts["pi"] += 1
        for q in (2, 3, 4, 5):
            g = graph_for(q, 2)
            for _ in range(30):
                phi = [0] + rng.sample(range(1, q), q - 1)
                assert is_automorphism(g, phi_bar(g, phi))
                counts["phi"] += 1
                rho = random_automorphism(g, rng)
                d = delta_for(g, rho)
                assert is_automorphism(g, d)
                rest = d.inverse().compose(rho)
                assert all(rest.image[v] < g.nv for v in range(g.nv))
                counts["delta"] += 1
        assert all(v >= 100 for v in counts.values()), counts


def test_criterion_10_structural_properties():
    with criterion(10, "structural properties", 120.0):
        # the intersection identity is a fact about the graph, which every
        # automorphism's class map carries over
        g23 = graph_for(2, 3)
        assert _intersection_holds(g23) == (True, None)
        for perm in iter_automorphisms(g23):
            v = check_structure(g23, perm)
            assert v.side_behavior in ("preserved", "swapped")
        g32 = graph_for(3, 2)
        assert _intersection_holds(g32) == (True, None)
        behaviors = set()
        for img in all_automorphisms(g32):
            perm = VertexPerm(g32, img)
            v = check_structure(g32, perm)  # raises if action ill-defined
            assert v.ok(), v
            behaviors.add(v.side_behavior)
        # mixed side behavior exists at n = 2
        assert behaviors == {"preserved", "swapped", "mixed"}


def test_criterion_11_decomposition():
    with criterion(11, "decomposition round-trip", 120.0):
        g23 = graph_for(2, 3)
        for perm in iter_automorphisms(g23):
            assert compose(g23, decompose(g23, perm)) == perm
        g32 = graph_for(3, 2)
        for img in all_automorphisms(g32):
            perm = VertexPerm(g32, img)
            d = decompose(g32, perm)
            assert d.phi is not None and d.frob is None  # the n = 2 path
            assert compose(g32, d) == perm
        rng = random.Random(11)
        for q in (3, 4):
            g = graph_for(q, 3)
            swaps = 0
            for _ in range(100):
                perm = random_automorphism(g, rng)
                d = decompose(g, perm)
                swaps += d.swap
                assert compose(g, d) == perm
            assert 0 < swaps < 100


def test_criterion_12_determinism():
    with criterion(12, "report determinism", 5.0):
        cmd = [sys.executable, "-m", "lfgraph.harness", "verify", "--q", "2",
               "--n", "2", "--seed", "20240817", "--format", "json"]
        a = subprocess.run(cmd, capture_output=True)
        b = subprocess.run(cmd, capture_output=True)
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode
        assert json.loads(a.stdout)["seed"] == 20240817
