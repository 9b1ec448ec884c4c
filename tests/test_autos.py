import json
import math
import random
from itertools import permutations

import pytest

from lfgraph import Field, GuardError, build, field_from_order
from lfgraph.autos import (MAX_ENUM_VERTICES, MAX_QUOTIENT_CLASSES,
                           Decomposition, DecompositionError, LineActionError,
                           StructureVerdict, VertexPerm, all_automorphisms,
                           automorphism_defect, check_structure, chi_p, compose,
                           count_automorphisms, count_class_stabilizers,
                           count_component_isomorphisms, decompose,
                           decomposition_from_json, decomposition_to_json,
                           delta_for, formula_card_general, formula_card_n2,
                           formula_component_isos, formula_twin_stabilizer,
                           identity_perm, is_automorphism, iter_automorphisms,
                           line_action, perm_from_json, perm_to_json, phi_bar,
                           pi_extend, quotient_adjacency, random_automorphism,
                           random_twin_permutation, sigma_swap,
                           tau_from_table, _chain, _decompose_general,
                           _decompose_n2,
                           _automorphism_search, _count_by_orbits,
                           _count_with_searches, _narrow,
                           _intersection_holds, _lift, _lift_classes,
                           _uncoloured)
from lfgraph.graph import LfGraph, _bit_list, _gather, _map_ids, _semilinear
from lfgraph.linalg import monic_rep, random_invertible

from conftest import graph_for
from linalg_reference import dot, identity, mat_inv, mat_mul, mat_vec, transpose

RNG_SEED = 20240817


def rng():
    return random.Random(RNG_SEED)


# ---------- VertexPerm basics ----------

def test_perm_validation():
    g = graph_for(2, 2)
    with pytest.raises(ValueError):
        VertexPerm(g, [0, 1, 2])
    with pytest.raises(ValueError):
        VertexPerm(g, [0, 0, 1, 2, 3, 4])
    with pytest.raises(ValueError):
        VertexPerm(g, [0, 1, 2, 3, 4, 6])
    with pytest.raises(ValueError):
        VertexPerm(g, [-1, 1, 2, 3, 4, 6])  # distinct, right sum, negative
    with pytest.raises(ValueError):
        VertexPerm(g, [0, 0, 2, 3, 4, 6])  # right sum, repeated id
    # malformed documents: a non-sequence, non-numbers, and a float id that
    # compares equal to an integer
    for bad in (5, None, [0.0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5.0],
                ["0", 1, 2, 3, 4, 5], [[0], 1, 2, 3, 4, 5]):
        with pytest.raises(ValueError):
            VertexPerm(g, bad)


def test_perm_is_read_only():
    """No slot can be reassigned, so what compose and inverse build from a
    permutation unchecked stays a permutation."""
    g = graph_for(2, 2)
    perm = identity_perm(g)
    for name, value in (("image", (0,) * 6), ("g", graph_for(3, 2)), ("x", 1)):
        with pytest.raises(AttributeError, match="read-only"):
            setattr(perm, name, value)
    with pytest.raises(AttributeError, match="read-only"):
        VertexPerm(g, range(6)).image = (0,) * 6
    assert perm.image == tuple(range(6)) and perm.g is g
    assert perm.inverse() == perm == sigma_swap(g).compose(sigma_swap(g))


def test_perm_ids_are_ints():
    """A bool compares equal to 0 or 1 yet is no vertex id: an image of
    them would serialize as JSON true/false, which perm_from_json refuses."""
    g = graph_for(2, 2)
    with pytest.raises(ValueError):
        VertexPerm(g, (True, False, 2, 3, 4, 5))
    for entry in ({0.0: 0}, {0: 0.0}, {True: 1}):
        with pytest.raises(ValueError, match="out of range"):
            tau_from_table(g, entry)


def test_perm_equality_names_its_graph():
    """(2,4) and (4,2) both have 30 vertices, so their identities have equal
    images; they are still different permutations.  A permutation read
    back onto a graph built afresh over an equal field stays equal."""
    a = identity_perm(build(field_from_order(2), 4))
    b = identity_perm(build(field_from_order(4), 2))
    assert a.image == b.image
    assert a != b
    g = graph_for(3, 2)
    perm = random_automorphism(g, rng())
    back = perm_from_json(perm_to_json(perm))
    assert back.g is not g and back == perm and hash(back) == hash(perm)


def test_perm_of_another_graph_is_refused():
    """A permutation of (2,4) has as many ids as one of (4,2), yet every
    reader of a perm on (4,2) refuses it, instead of reading it as a map
    of (4,2)'s vertices: compose and decomposition_to_json for tau and
    delta, VertexPerm.compose for other, and line_action with everything
    built on it.  A (3,2) decomposition written for (3,3) is refused too,
    not read out of range.  A perm read back onto a graph built afresh
    over an equal field is one of g's own."""
    g, h = graph_for(4, 2), graph_for(2, 4)
    own, alien = random_automorphism(g, rng()), identity_perm(h)
    d = decompose(g, own)
    calls = [
        (lambda: compose(g, Decomposition(False, None, d.P, None, d.phi, alien)),
         "tau"),
        (lambda: compose(g, Decomposition(False, alien, d.P, None, d.phi, d.tau)),
         "delta"),
        (lambda: decomposition_to_json(g, decompose(h, alien)), "tau"),
        (lambda: decomposition_to_json(
            g, Decomposition(False, alien, d.P, None, d.phi, d.tau)), "delta"),
        (lambda: decomposition_to_json(graph_for(3, 3), decompose(
            graph_for(3, 2), identity_perm(graph_for(3, 2)))), "tau"),
        (lambda: own.compose(alien), "other"),
        (lambda: alien.compose(own), "other"),
    ] + [(lambda f=f: f(g, alien), "perm")
         for f in (line_action, check_structure, decompose,
                   automorphism_defect, is_automorphism, delta_for)]
    for call, what in calls:
        with pytest.raises(ValueError, match=f"^{what} is a permutation of "
                                             "another graph$"):
            call()
    back = perm_from_json(perm_to_json(own))
    assert back.g is not g
    assert compose(g, decompose(g, back)) == own
    assert line_action(g, back) == line_action(g, own)
    assert own.compose(back.inverse()).is_identity()


@pytest.mark.parametrize("bad", ["image", "list", None])
def test_a_non_perm_is_refused(bad):
    """Where a permutation belongs, an image tuple, a list or None raises
    ValueError naming the argument, before any slot of it is read."""
    g = graph_for(3, 2)
    bad = {"image": tuple(range(g.num_vertices)),
           "list": list(range(g.num_vertices)), None: None}[bad]
    own = random_automorphism(g, rng())
    d = decompose(g, own)
    calls = [
        (lambda: compose(g, Decomposition(False, None, d.P, None, d.phi, bad)),
         "tau"),
        (lambda: decomposition_to_json(
            g, Decomposition(False, None, d.P, None, d.phi, bad)), "tau"),
        (lambda: own.compose(bad), "other"),
    ] + [(lambda f=f: f(g, bad), "perm")
         for f in (line_action, check_structure, decompose,
                   automorphism_defect, is_automorphism, delta_for)]
    if bad is not None:  # None is the n = 2 chain's identity delta
        calls += [
            (lambda: compose(g, Decomposition(False, bad, d.P, None, d.phi, d.tau)),
             "delta"),
            (lambda: decomposition_to_json(
                g, Decomposition(False, bad, d.P, None, d.phi, d.tau)), "delta")]
    for call, what in calls:
        with pytest.raises(ValueError, match=f"^{what} is not a VertexPerm$"):
            call()


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 2), (5, 2), (9, 2),
                                 (2, 3), (3, 3), (4, 3)])
def test_unchecked_builds_pass_the_public_check(q, n):
    """Every permutation autos builds without the public check
    (VertexPerm._of) passes it: VertexPerm(g, p.image) == p, so p.image
    is a tuple holding each of g's vertex ids once."""
    g, r = graph_for(q, n), rng()
    F = g.field
    built = [identity_perm(g), sigma_swap(g)]
    built += [pi_extend(g, j) for j in range(F.k)]
    for _ in range(5):
        built += [chi_p(g, random_invertible(F, n, r)),
                  random_twin_permutation(g, r)]
        rho, other = random_automorphism(g, r), random_automorphism(g, r)
        d = decompose(g, rho)
        built += [rho, d.tau, compose(g, d), rho.compose(other), rho.inverse()]
        if n == 2:
            phi = [0] + r.sample(range(1, q), q - 1)
            built += [d.delta, delta_for(g, rho), phi_bar(g, phi)]
    if g.num_vertices <= MAX_ENUM_VERTICES:
        built += list(iter_automorphisms(g))
    for p in built:
        assert VertexPerm(g, p.image) == p


def test_compose_and_inverse():
    g = graph_for(3, 2)
    r = rng()
    for _ in range(20):
        a = random_automorphism(g, r)
        b = random_automorphism(g, r)
        ab = a.compose(b)
        for v in range(g.num_vertices):
            assert ab.image[v] == a.image[b.image[v]]
        assert a.compose(a.inverse()).is_identity()
        assert a.inverse().compose(a).is_identity()
        assert is_automorphism(g, ab)
        assert is_automorphism(g, a.inverse())


def test_automorphism_defect_reports_broken_edge():
    g = graph_for(2, 2)
    img = list(range(6))
    img[0], img[1] = img[1], img[0]  # (0,1) and (1,0) are not twins
    d = automorphism_defect(g, VertexPerm(g, img))
    assert d is not None
    x, y = d
    assert (g.adj[x] >> y) & 1


def _defect_full_scan(g, perm):
    """Reference: scan every row, both sides, bit by bit."""
    img = perm.image
    for x in range(g.num_vertices):
        row = g.adj[img[x]]
        for y in range(g.num_vertices):
            if (g.adj[x] >> y) & 1 and not (row >> img[y]) & 1:
                return (x, y)
    return None


def _class_respecting_perms(g, r, count):
    """Member-order lifts of seeded class maps, which keep twins together
    so that only the class quotient's adjacency can reject them: random
    class permutations, automorphisms' class maps with two classes of one
    side exchanged, and those class maps unchanged (automorphisms)."""
    m = len(g.lines())
    half = m // 2
    for _ in range(count):
        shuffled = list(range(m))
        r.shuffle(shuffled)
        lmap = line_action(g, random_automorphism(g, r))
        exchanged = list(lmap)
        side = half * r.randrange(2)
        a, b = (side + c for c in r.sample(range(half), 2))
        exchanged[a], exchanged[b] = lmap[b], lmap[a]
        for case in (shuffled, exchanged, lmap):
            yield VertexPerm(g, _lift_classes(g, case))


# per size: transpositions sampled (None: every one), class maps tried
_DEFECT_CASES = {(2, 2): (None, 10), (3, 2): (None, 10), (2, 3): (None, 10),
                 (3, 3): (None, 10), (4, 3): (1000, 10), (8, 3): (20, 2)}


@pytest.mark.parametrize("q,n", list(_DEFECT_CASES))
def test_automorphism_defect_matches_full_scan(q, n):
    """Transpositions, and three class-respecting permutations per class
    map tried, against the full scan."""
    sample, classes = _DEFECT_CASES[(q, n)]
    g = graph_for(q, n)
    r = rng()
    pairs = [(a, b) for a in range(g.num_vertices)
             for b in range(a + 1, g.num_vertices)]
    if sample is not None:
        pairs = r.sample(pairs, sample)
    broken = {"vec": 0, "fun": 0, "cross": 0}
    for a, b in pairs:
        img = list(range(g.num_vertices))
        img[a], img[b] = b, a
        perm = VertexPerm(g, img)
        want = _defect_full_scan(g, perm)
        assert automorphism_defect(g, perm) == want
        if want is not None:
            kind = ("cross" if g.is_vec(a) != g.is_vec(b)
                    else "vec" if g.is_vec(a) else "fun")
            broken[kind] += 1
    assert all(broken.values()), broken
    verdicts = set()
    for perm in _class_respecting_perms(g, r, classes):
        want = _defect_full_scan(g, perm)
        assert automorphism_defect(g, perm) == want
        verdicts.add(want is None)
    assert verdicts == {True, False}


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3),
                                 (4, 3), (2, 4)])
def test_line_action_matches_vertex_scan_on_shuffled_lifts(q, n):
    """Lifts of class maps with every class's members shuffled: random
    class permutations that keep the sides, random ones that may cross
    them, and automorphisms' class maps with two classes swapped.  Each
    keeps every class whole, so only the quotient edge test can reject
    it; acceptance, class map and broken edge match a vertex-level scan."""
    g = graph_for(q, n)
    r = rng()
    lines = g.lines()
    m = len(lines)
    half = m // 2
    verdicts = []
    for _ in range(20):
        kept = r.sample(range(half), half) + r.sample(range(half, m), half)
        swapped = line_action(g, random_automorphism(g, r))
        a, b = r.sample(range(m), 2)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        for lmap in (kept, r.sample(range(m), m), swapped):
            targets = [r.sample(lines[c].members, q - 1) for c in lmap]
            perm = VertexPerm(g, _lift(g, targets))
            want = _defect_full_scan(g, perm)
            try:
                assert (want, line_action(g, perm)) == (None, lmap)
            except LineActionError as e:
                assert e.witness == want is not None
            verdicts.append(want is None)
    assert not all(verdicts)


def test_automorphism_defect_accepts_on_the_quotient(monkeypatch):
    """An automorphism is accepted without reading a vertex adjacency row;
    the row scan runs only to name a non-automorphism's broken edge."""
    import lfgraph.autos as autos

    class Unread(list):
        def __getitem__(self, i):
            raise AssertionError("vertex adjacency row read")

    def unread(rows):
        raise AssertionError("vertex adjacency rows decoded")

    g = graph_for(4, 3)
    g.line_index(), g.line_adjacency()  # warm the class caches
    r = rng()
    perms = [random_automorphism(g, r) for _ in range(10)]
    img = list(range(g.num_vertices))
    img[0], img[g.nv] = g.nv, 0
    monkeypatch.setattr(g, "adj", Unread(g.adj))
    monkeypatch.setattr(autos, "_row_lists", unread)
    for perm in perms:
        assert automorphism_defect(g, perm) is None
    with pytest.raises(AssertionError, match="vertex adjacency"):
        automorphism_defect(g, VertexPerm(g, img))


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_automorphism_defect_is_line_action_witness(q, n):
    """automorphism_defect answers with exactly the broken edge line_action
    raises, on every transposition and on class-respecting permutations."""
    g = graph_for(q, n)

    def raised(perm):
        try:
            line_action(g, perm)
        except LineActionError as e:
            return e.witness
        return None

    perms = []
    for a in range(g.num_vertices):
        for b in range(a + 1, g.num_vertices):
            img = list(range(g.num_vertices))
            img[a], img[b] = b, a
            perms.append(VertexPerm(g, img))
    perms.extend(_class_respecting_perms(g, rng(), 10))
    witnesses = [raised(perm) for perm in perms]
    assert [automorphism_defect(g, perm) for perm in perms] == witnesses
    assert None in witnesses and any(witnesses)


# ---------- generators ----------

def _chi_p_reference(g, P):
    """v -> P v, f_u -> f_{(P^-1)^T u}, one tuple product per vertex."""
    F = g.field
    Pinv_t = transpose(mat_inv(F, P))
    image = [0] * g.num_vertices
    for vid in range(g.nv):
        coords = g.coords_of(vid)[1]
        image[vid] = g.vec_id(mat_vec(F, P, coords))
        image[vid + g.nv] = g.fun_id(mat_vec(F, Pinv_t, coords))
    return image


def _pi_extend_reference(g, j):
    image = [0] * g.num_vertices
    for vid in range(g.nv):
        coords = tuple(g.field.frobenius(c, j) for c in g.coords_of(vid)[1])
        image[vid] = g.vec_id(coords)
        image[vid + g.nv] = g.fun_id(coords)
    return image


def _phi_bar_reference(g, phi):
    F = g.field
    image = list(range(g.num_vertices))
    for vid in range(g.nv):
        c, d = g.coords_of(vid)[1]
        if c != 0:
            image[g.fun_id((c, d))] = g.fun_id((c, F.mul(c, phi[F.div(d, c)])))
        if c != 0 and d != 0:
            t = phi[F.neg(F.div(c, d))]
            image[vid] = g.vec_id((c, F.neg(F.div(c, t))))
    return image


@pytest.mark.parametrize("q,n", [(4, 3), (8, 3), (9, 2), (2, 2), (3, 2),
                                 (4, 2), (5, 2), (7, 2), (8, 2), (2, 4), (16, 2)])
def test_vertex_actions_match_tuple_reference(q, n):
    g = graph_for(q, n)
    r = rng()
    for _ in range(5):
        P = random_invertible(g.field, n, r)
        assert list(chi_p(g, P).image) == _chi_p_reference(g, P)
    for j in range(g.field.k):
        assert list(pi_extend(g, j).image) == _pi_extend_reference(g, j)
    # chi_P after pi_j in one sweep, against the two references composed
    for j in range(1, g.field.k):
        P = random_invertible(g.field, n, r)
        chi, pi = _chi_p_reference(g, P), _pi_extend_reference(g, j)
        assert _semilinear(g, P, j) == [chi[t] for t in pi]
    if n == 2:
        for _ in range(5):
            phi = [0] + r.sample(range(1, q), q - 1)
            assert list(phi_bar(g, phi).image) == _phi_bar_reference(g, phi)
    else:
        # sigma after chi_P . pi_j: each image to its coordinates on the other side
        P, j = random_invertible(g.field, n, r), g.field.k - 1
        chi, pi = _chi_p_reference(g, P), _pi_extend_reference(g, j)
        other = [(g.fun_id if g.is_vec(t) else g.vec_id)(g.coords_of(t)[1])
                 for t in range(g.num_vertices)]
        d = Decomposition(True, None, P, j, None, identity_perm(g))
        assert list(compose(g, d).image) == [other[chi[t]] for t in pi]


def test_decomposition_fields_by_position():
    """A Decomposition takes swap, delta, P, frob, phi and tau by position,
    names each as an attribute, and is a slotted record, not a tuple."""
    g = graph_for(3, 2)
    perm = random_automorphism(g, random.Random(7))
    d = decompose(g, perm)
    fields = (d.swap, d.delta, d.P, d.frob, d.phi, d.tau)
    again = Decomposition(*fields)
    assert (again.swap, again.delta, again.P, again.frob, again.phi,
            again.tau) == fields
    assert compose(g, again) == perm
    assert not isinstance(d, tuple) and not hasattr(d, "__dict__")


def test_chi_p_identity_and_example():
    g = graph_for(2, 2)
    assert chi_p(g, identity(2)).is_identity()
    P = ((0, 1), (1, 0))
    perm = chi_p(g, P)
    assert perm.image[g.vec_id((1, 0))] == g.vec_id((0, 1))
    assert perm.image[g.vec_id((0, 1))] == g.vec_id((1, 0))
    assert perm.image[g.vec_id((1, 1))] == g.vec_id((1, 1))
    assert perm.image[g.fun_id((1, 1))] == g.fun_id((1, 1))


def test_chi_p_rejects_singular():
    g = graph_for(2, 2)
    with pytest.raises(ValueError):
        chi_p(g, ((1, 1), (1, 1)))


@pytest.mark.parametrize("q,n", [(4, 2), (4, 3), (8, 2), (8, 3), (9, 2), (9, 3),
                                 (2, 3), (16, 2)])
def test_semilinear_functionals_match_inverse_transpose(q, n):
    """The functional half, swept from P^T without inverting P, is the
    sweep of (P^-1)^T with the Frobenius digit map, for every j."""
    g = graph_for(q, n)
    F, r = g.field, rng()
    for j in range(F.k):
        frob = [F.frobenius(c, j) for c in F.elements()]
        for _ in range(3):
            P = random_invertible(F, n, r)
            ref = _map_ids(g, transpose(mat_inv(F, P)), frob)
            assert _semilinear(g, P, j)[g.nv:] == [t + g.nv for t in ref]


@pytest.mark.parametrize("q,n,P", [(3, 2, ((1, 1), (2, 2))),
                                   (4, 2, ((0, 2), (0, 3))),
                                   (3, 3, ((1, 0, 1), (0, 1, 1), (1, 1, 2)))])
def test_singular_p_is_refused(q, n, P):
    """chi_p, and compose of a decomposition whose P is singular, both
    raise; a document with such a P is refused when read (see
    test_decomposition_json_rejects_malformed_fields)."""
    g = graph_for(q, n)
    with pytest.raises(ValueError, match="singular"):
        chi_p(g, P)
    d = decompose(g, sigma_swap(g))
    d.P = P
    with pytest.raises(ValueError, match="singular"):
        compose(g, d)


def test_entries_and_exponent_must_be_field_elements():
    """At q = 4, -1 is no code of GF(4) (the tables would read it as 3),
    True is no element (read as 1) and 1.0 none either: chi_p, pi_extend
    and compose of a hand-built decomposition refuse them with ValueError
    before any sweep, as they do an entry of q or more."""
    for q, n in [(4, 2), (4, 3), (3, 3)]:
        g = graph_for(q, n)
        for bad in (-1, True, 1.0, q, None):
            P = ((bad,) + identity(n)[0][1:],) + identity(n)[1:]
            with pytest.raises(ValueError, match="field elements"):
                chi_p(g, P)
            frob, phi = (None, tuple(range(q))) if n == 2 else (0, None)
            d = Decomposition(False, None, P, frob, phi, identity_perm(g))
            with pytest.raises(ValueError, match="field elements"):
                compose(g, d)
        for j in (True, 1.0, -1, g.field.k, "1"):
            with pytest.raises(ValueError, match="Frobenius exponent"):
                pi_extend(g, j)
        if n >= 3:
            d = Decomposition(False, None, identity(n), True, None,
                              identity_perm(g))
            with pytest.raises(ValueError, match="Frobenius exponent"):
                compose(g, d)


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3)])
def test_chi_p_sound(q, n):
    g = graph_for(q, n)
    r = rng()
    for _ in range(25):
        assert is_automorphism(g, chi_p(g, random_invertible(g.field, n, r)))


def test_chi_p_homomorphism():
    r = rng()
    for q, n in [(3, 2), (4, 3), (3, 3)]:
        g = graph_for(q, n)
        for _ in range(35):
            P1 = random_invertible(g.field, n, r)
            P2 = random_invertible(g.field, n, r)
            lhs = chi_p(g, P1).compose(chi_p(g, P2))
            rhs = chi_p(g, mat_mul(g.field, P1, P2))
            assert lhs == rhs


def test_pi_extend():
    g = graph_for(4, 2)
    assert pi_extend(g, 0).is_identity()
    perm = pi_extend(g, 1)
    # squaring in GF(4) exchanges the two non-subfield elements
    assert perm.image[g.vec_id((2, 1))] == g.vec_id((3, 1))
    assert is_automorphism(g, perm)
    with pytest.raises(ValueError):
        pi_extend(g, 2)
    assert pi_extend(graph_for(3, 2), 0).is_identity()


@pytest.mark.parametrize("q,n", [(4, 2), (4, 3), (9, 2), (8, 2)])
def test_pi_extend_sound(q, n):
    g = graph_for(q, n)
    for j in range(g.field.k):
        assert is_automorphism(g, pi_extend(g, j))


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_sigma_swap(q, n):
    g = graph_for(q, n)
    s = sigma_swap(g)
    assert is_automorphism(g, s)
    assert s.compose(s).is_identity()
    for v in range(g.nv):
        assert s.image[v] == v + g.nv
        assert s.image[v + g.nv] == v


def test_tau_validation_and_soundness():
    g = graph_for(3, 2)
    lines = g.lines()
    a, b = lines[0].members
    tau = tau_from_table(g, {a: b, b: a})
    assert is_automorphism(g, tau)
    assert tau.image[a] == b
    c = lines[1].members[0]
    with pytest.raises(ValueError):
        tau_from_table(g, {a: c})  # crosses classes
    with pytest.raises(ValueError, match="crosses twin classes"):
        tau_from_table(g, {a: c, c: a})  # a bijection, but across classes
    with pytest.raises(ValueError):
        tau_from_table(g, {a: b})  # not a bijection on the class
    for entry in ({a: g.num_vertices}, {-1: a}):
        with pytest.raises(ValueError, match="out of range"):
            tau_from_table(g, entry)
    r = rng()
    for q, n in [(3, 2), (4, 2), (3, 3), (5, 2)]:
        h = graph_for(q, n)
        for _ in range(25):
            assert is_automorphism(h, random_twin_permutation(h, r))


def test_tau_trivial_for_q2():
    g = graph_for(2, 3)
    assert random_twin_permutation(g, rng()).is_identity()


def test_phi_bar_validation():
    g3 = graph_for(3, 2)
    with pytest.raises(ValueError):
        phi_bar(graph_for(2, 3), [0, 1])  # n != 2
    with pytest.raises(ValueError):
        phi_bar(g3, [1, 0, 2])  # does not fix 0
    with pytest.raises(ValueError):
        phi_bar(g3, [0, 1, 1])  # not a permutation


@pytest.mark.parametrize("phi", [(0.0, 1, 2), (0, 1.0, 2), (False, True, 2),
                                 (0, True, 2), (0, "a", 1)])
def test_phi_bar_refuses_entries_that_are_not_ints(phi):
    """A float or bool equal to a field element is refused, never used as
    an index or read as 0 or 1."""
    with pytest.raises(ValueError, match="phi must be a permutation"):
        phi_bar(graph_for(3, 2), phi)


def test_phi_bar_identity_and_example():
    g = graph_for(3, 2)
    assert phi_bar(g, [0, 1, 2]).is_identity()
    perm = phi_bar(g, [0, 2, 1])
    assert perm.image[g.fun_id((1, 1))] == g.fun_id((1, 2))
    # vectors with a zero coordinate stay fixed
    assert perm.image[g.vec_id((1, 0))] == g.vec_id((1, 0))
    assert perm.image[g.vec_id((0, 1))] == g.vec_id((0, 1))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_phi_bar_sound(q):
    g = graph_for(q, 2)
    r = rng()
    seen = 0
    while seen < 30:
        phi = [0] + r.sample(range(1, q), q - 1)
        assert is_automorphism(g, phi_bar(g, phi))
        seen += 1


# ---------- delta ----------

@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_delta_fixes_sides(q):
    g = graph_for(q, 2)
    r = rng()
    for _ in range(60):
        rho = random_automorphism(g, r)
        d = delta_for(g, rho)
        assert is_automorphism(g, d)
        assert d.compose(d).is_identity()  # decompose reads delta^-1 as delta
        rest = d.inverse().compose(rho)
        assert all(rest.image[v] < g.nv for v in range(g.nv))


def _delta_reference(g, rho):
    """delta by cases on each orthogonal pair of components (i, j): mirror
    a self-orthogonal crossed class, mirror both classes when both cross,
    and swap the two parts inside the component when only one does."""
    lines = g.lines()
    half = len(lines) // 2
    partner = g.line_partners()
    crossing = [False] * half
    for i in range(half):
        t = rho.image[lines[i].members[0]]
        if t >= g.nv:
            crossing[partner[g.line_index()[t] - half]] = True
    image = list(range(g.num_vertices))

    def mirror(line):
        for u in line.members:
            image[u], image[u + g.nv] = u + g.nv, u

    for i in range(half):
        j = partner[i]
        if j < i:
            continue
        if i == j:
            if crossing[i]:
                mirror(lines[i])
        elif crossing[i] and crossing[j]:
            mirror(lines[i])
            mirror(lines[j])
        elif crossing[i] != crossing[j]:
            a = i if crossing[i] else j
            for u, f in zip(lines[a].members, lines[half + partner[a]].members):
                image[u], image[f] = f, u
    return image


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_vec_partners_follow_orthogonal_rule(q):
    """Vector (c, d) meets the functional line of (d, -c)."""
    g = graph_for(q, 2)
    F, lines = g.field, g.lines()
    half = len(lines) // 2
    partner = g.line_partners()
    assert len(partner) == half == q + 1
    for i, p in enumerate(partner):
        c, d = lines[i].rep
        assert lines[half + p].rep == monic_rep(F, (d, F.neg(c))), (q, i)


@pytest.mark.parametrize("q,self_orthogonal", [(2, True), (3, False), (4, True),
                                               (5, True), (7, False), (9, True)])
def test_delta_matches_case_reference(q, self_orthogonal):
    g = graph_for(q, 2)
    partner = g.line_partners()
    assert any(p == i for i, p in enumerate(partner)) == self_orthogonal
    r = rng()
    for rho in [sigma_swap(g)] + [random_automorphism(g, r) for _ in range(40)]:
        assert list(delta_for(g, rho).image) == _delta_reference(g, rho)


def test_delta_known_cases():
    g = graph_for(3, 2)
    assert delta_for(g, identity_perm(g)).is_identity()
    assert delta_for(g, sigma_swap(g)) == sigma_swap(g)
    with pytest.raises(ValueError):
        delta_for(graph_for(2, 3), identity_perm(graph_for(2, 3)))
    img = list(range(g.num_vertices))
    img[0], img[3] = img[3], img[0]
    with pytest.raises(ValueError):
        delta_for(g, VertexPerm(g, img))


def test_delta_asymmetric_crossing():
    """rho maps one component onto another part-swapped and back plainly;
    delta must side-swap the target component, not the source."""
    g = graph_for(3, 2)
    lines = g.lines()
    half = len(lines) // 2
    partner = g.line_partners()
    v0, f0 = lines[0].members, lines[half + partner[0]].members
    v1, f1 = lines[1].members, lines[half + partner[1]].members
    img = list(range(g.num_vertices))
    for a, b in zip(v0, f1):
        img[a] = b
    for a, b in zip(f0, v1):
        img[a] = b
    for a, b in zip(v1, v0):
        img[a] = b
    for a, b in zip(f1, f0):
        img[a] = b
    rho = VertexPerm(g, img)
    assert is_automorphism(g, rho)
    d = delta_for(g, rho)
    rest = d.inverse().compose(rho)
    assert all(rest.image[v] < g.nv for v in range(g.nv))


def test_delta_exhaustive_2_2():
    g = graph_for(2, 2)
    for rho in iter_automorphisms(g):
        d = delta_for(g, rho)
        rest = d.inverse().compose(rho)
        assert all(rest.image[v] < g.nv for v in range(g.nv))


# ---------- line action and structure ----------

def test_line_action_identity_and_sigma():
    g = graph_for(2, 3)
    m = len(g.lines())
    assert line_action(g, identity_perm(g)) == list(range(m))
    lmap = line_action(g, sigma_swap(g))
    half = m // 2
    assert lmap == [i + half for i in range(half)] + list(range(half))


def test_line_action_stays_on_vec_side_for_chi():
    g = graph_for(3, 3)
    r = rng()
    half = len(g.lines()) // 2
    for _ in range(10):
        lmap = line_action(g, chi_p(g, random_invertible(g.field, 3, r)))
        assert all(t < half for t in lmap[:half])


def test_line_action_rejects_non_automorphism():
    g = graph_for(3, 2)
    img = list(range(g.num_vertices))
    img[0], img[2] = img[2], img[0]
    with pytest.raises(LineActionError):
        line_action(g, VertexPerm(g, img))


def test_line_action_keeps_its_class_map(monkeypatch):
    """A second line_action on one perm gathers nothing: it returns an
    equal list that aliases neither the kept map nor an earlier result.
    A non-automorphism keeps nothing, so every call tests it again and
    names the same broken edge."""
    import lfgraph.autos as autos
    g = graph_for(3, 3)
    perm = random_automorphism(g, rng())
    first = line_action(g, perm)
    kept = list(first)
    gathers = []
    monkeypatch.setattr(autos, "_gather",
                        lambda *args: gathers.append(args) or _gather(*args))
    second = line_action(g, perm)
    assert gathers == [] and second == kept and second is not first
    first[0] = second[1] = -1
    assert line_action(g, perm) == kept and gathers == []
    bad = _exchanged(g, ("vec", (0, 1, 1)), ("vec", (0, 1, 2)))
    witnesses = []
    for _ in range(2):
        gathers.clear()
        with pytest.raises(LineActionError) as exc:
            line_action(g, bad)
        assert gathers
        witnesses.append(exc.value.witness)
    assert witnesses[0] == witnesses[1]


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3)])
def test_structure_full_group(q, n):
    g = graph_for(q, n)
    for perm in iter_automorphisms(g):
        v = check_structure(g, perm)
        assert v.ok(), v
        if n >= 3:
            # mixed side behavior only exists in the disconnected n = 2 case
            assert v.side_behavior in ("preserved", "swapped")


def _structure_reference(g, perm):
    """The structural facts at vertex level, each recomputed from the
    permutation itself, the swapped case through sigma . perm: the side
    behavior, and whether side purity, neighborhood commutation and (when
    the sides are kept or swapped whole) the intersection identity hold."""
    def pmask(p, mask):
        return sum(1 << p.image[v] for v in range(g.num_vertices)
                   if (mask >> v) & 1)

    def intersection(psi):
        lmap = line_action(g, psi)
        full = (1 << g.num_vertices) - 1
        for j in range(half, len(lines)):
            fmask = g.line_mask(lines[j])
            inter = full
            for i in range(half):
                if fmask & ~g.adj[lines[i].members[0]] == 0:
                    inter &= g.adj[lines[lmap[i]].members[0]]
            if inter != pmask(psi, fmask):
                return False
        return True

    lmap = line_action(g, perm)
    lines = g.lines()
    half = len(lines) // 2
    nv = g.nv
    to_fun = sum(1 for v in range(nv) if perm.image[v] >= nv)
    behavior = ("preserved" if to_fun == 0 else
                "swapped" if to_fun == nv else "mixed")
    if g.n >= 3:
        purity = behavior != "mixed"
    else:
        partner = g.line_partners()
        comp = list(range(half)) + partner
        purity = all(comp[lmap[i]] == comp[lmap[half + partner[i]]]
                     for i in range(half))
    n_comm = all(pmask(perm, g.adj[line.members[0]])
                 == g.adj[lines[lmap[idx]].members[0]]
                 for idx, line in enumerate(lines))
    facts = {"side_purity": purity, "n_commutes": n_comm}
    if behavior != "mixed":
        facts["intersection"] = intersection(
            perm if behavior == "preserved" else sigma_swap(g).compose(perm))
    return behavior, facts


def _structure_cases():
    for q, n in [(2, 2), (2, 3)]:
        yield from ((q, n, perm) for perm in iter_automorphisms(graph_for(q, n)))
    r = rng()
    for (q, n), count in [((3, 2), 60), ((5, 2), 40), ((3, 3), 30),
                          ((4, 3), 12), ((8, 3), 3)]:
        g = graph_for(q, n)
        yield from ((q, n, random_automorphism(g, r)) for _ in range(count))


def test_check_structure_matches_vertex_reference():
    behaviors = {}
    for q, n, perm in _structure_cases():
        g = graph_for(q, n)
        got = check_structure(g, perm)
        behavior, facts = _structure_reference(g, perm)
        assert got == StructureVerdict(behavior), (q, n, perm)
        assert all(facts.values()), (q, n, perm, facts)
        behaviors.setdefault((q, n), set()).add(got.side_behavior)
    # the cases reach every side behavior
    assert behaviors[(3, 2)] == {"preserved", "swapped", "mixed"}
    assert behaviors[(3, 3)] == behaviors[(4, 3)] == {"preserved", "swapped"}


@pytest.mark.parametrize("q,n", [(3, 2), (2, 3)])
def test_check_structure_rejects_like_vertex_reference(q, n):
    g = graph_for(q, n)
    for a in range(0, g.num_vertices, 3):
        img = list(range(g.num_vertices))
        b = (a * 7 + 1) % g.num_vertices
        img[a], img[b] = img[b], img[a]
        perm = VertexPerm(g, img)
        if is_automorphism(g, perm):
            continue
        with pytest.raises(LineActionError) as want:
            _structure_reference(g, perm)
        with pytest.raises(LineActionError) as got:
            check_structure(g, perm)
        assert str(got.value) == str(want.value)
        assert got.value.witness == want.value.witness


def _intersection_reference(g, lmap):
    """_intersection_holds on full-width vertex masks: the image class of
    each functional class against the intersection of the neighborhoods
    of the images of the vector classes containing it in theirs."""
    lines = g.lines()
    half = len(lines) // 2
    full = (1 << g.num_vertices) - 1
    for j in range(half, len(lines)):
        fmask = g.line_mask(lines[j])
        inter = full
        for i in range(half):
            if fmask & ~g.adj[lines[i].members[0]] == 0:
                inter &= g.adj[lines[lmap[i]].members[0]]
        if inter != g.line_mask(lines[lmap[j]]):
            return False, {"fun_class": j}
    return True, None


@pytest.mark.parametrize("q,n", [(3, 2), (2, 3), (3, 3), (4, 3), (8, 3),
                                 (2, 6)])
def test_intersection_holds_matches_vertex_reference(q, n):
    """The graph-level identity on the class quotient agrees with the
    vertex-level reference under the identity class map, also past the
    quotient guard: (2,6) has 63 classes a side."""
    g = graph_for(q, n)
    got = _intersection_holds(g)
    assert got == _intersection_reference(g, range(len(g.lines())))
    assert got == (True, None)


@pytest.mark.parametrize("q,n", [(3, 2), (2, 3), (3, 3)])
def test_intersection_holds_rejects_non_quotient_map(q, n, monkeypatch):
    """Two functional rows of the quotient exchanged: the first of them is
    no longer the one class adjacent to every vector class in its row.
    The graph is built fresh, so the patch reaches no shared graph."""
    g = build(field_from_order(q), n)
    assert _intersection_holds(g) == (True, None)
    rows = list(g.line_adjacency())
    half = len(rows) // 2
    rows[half + 1], rows[half + 2] = rows[half + 2], rows[half + 1]
    monkeypatch.setattr(g, "line_adjacency", lambda: tuple(rows))
    assert _intersection_holds(g) == (False, {"fun_class": half + 1})


def test_check_structure_reads_only_line_action(monkeypatch):
    """check_structure reads nothing past line_action's class map: with
    the intersection check and the quotient made to raise, and line_action
    answering from a table, it still accepts every automorphism."""
    import lfgraph.autos as autos
    g = build(field_from_order(4), 3)
    r = rng()
    perms = [random_automorphism(g, r) for _ in range(10)]
    lmaps = {perm: line_action(g, perm) for perm in perms}

    def fail(*args):
        raise AssertionError("check_structure read past line_action")
    monkeypatch.setattr(autos, "_intersection_holds", fail)
    monkeypatch.setattr(autos, "line_action", lambda g, perm: lmaps[perm])
    monkeypatch.setattr(g, "line_adjacency", fail)
    for perm in perms:
        v = check_structure(g, perm)
        assert v.ok(), v
        assert v.side_behavior in ("preserved", "swapped")


def test_structure_sampled_3_3():
    g = graph_for(3, 3)
    r = rng()
    for _ in range(25):
        v = check_structure(g, random_automorphism(g, r))
        assert v.ok(), v
        assert v.side_behavior in ("preserved", "swapped")


# ---------- enumeration and counts ----------

def test_counts_2_2():
    g = graph_for(2, 2)
    assert count_automorphisms(g, method="vertex") == 48
    assert count_automorphisms(g, method="quotient") == 48
    assert formula_card_n2(2) == 48


def test_counts_3_2():
    g = graph_for(3, 2)
    assert count_automorphisms(g, method="vertex") == 98304
    assert count_automorphisms(g, method="quotient") == 98304
    assert formula_card_n2(3) == 98304


def test_counts_2_3_disagree_with_closed_form():
    """Both independent enumerators settle on 336; the closed form says
    10080.  The mismatch is real and the harness reports it."""
    g = graph_for(2, 3)
    brute = count_automorphisms(g, method="vertex")
    assert brute == count_automorphisms(g, method="quotient") == 336
    assert formula_card_general(2, 3) == 10080
    assert brute != 10080


def test_count_4_2_quotient_matches_formula():
    g = graph_for(4, 2)
    assert count_automorphisms(g, method="quotient") == formula_card_n2(4)


def test_formulas_refuse_what_build_refuses(monkeypatch):
    """Each closed form raises build's GuardError, before any factorial,
    where build refuses the graph, and computes at the largest admitted
    size: (2,15) has 65534 vertices, (2,16) 131070; (223,2) has 99456."""
    assert formula_card_general(2, 15) == 2 * math.factorial(32767)
    assert formula_twin_stabilizer(2, 15) == 1
    assert formula_component_isos(223) == 2 * math.factorial(222) ** 2
    assert formula_card_n2(223) % formula_component_isos(223) == 0

    def factorial(_):
        raise AssertionError("factorial ran past the build guard")
    monkeypatch.setattr(math, "factorial", factorial)
    for formula, args, vertices in (
            (formula_card_general, (2, 16), 131070),
            (formula_twin_stabilizer, (2, 17), 262142),
            (formula_card_n2, (227,), 103056),
            (formula_component_isos, (227,), 103056)):
        with pytest.raises(GuardError, match=f"would have {vertices} vertices"):
            formula(*args)


@pytest.mark.parametrize("make", [
    lambda: Field(2.0), lambda: Field(2, 1.5), lambda: Field(2, True),
    lambda: Field(True), lambda: field_from_order(4.0),
    lambda: field_from_order(1e300), lambda: build(field_from_order(3), 2.0),
    lambda: build(field_from_order(3), 1e300), lambda: formula_card_n2(4.0),
    lambda: formula_card_general(2, 3.0), lambda: formula_twin_stabilizer(2.0, 3),
    lambda: formula_component_isos(3.0)], ids=[
    "Field-p-float", "Field-k-float", "Field-k-bool", "Field-p-bool",
    "order-float", "order-huge-float", "build-n-float", "build-n-huge-float",
    "card_n2-float", "card_general-float", "twin_stabilizer-float",
    "component_isos-float"])
def test_sizes_must_be_ints(make):
    """Field's p and k, a field order q, and the q and n of build and the
    closed forms are ints, never floats or bools: each is refused with a
    ValueError, before any guard compares its size."""
    with pytest.raises(ValueError, match="must be (an int|ints)"):
        make()


def test_guards_refuse_before_computing(monkeypatch):
    """Sizes whose q^n has more digits than an int may print: build and
    the closed forms refuse them from q and n alone.  A permutation
    document or a closed form naming a prime order near 10^18 is refused
    before any trial division."""
    for make in (lambda: build(field_from_order(3), 10**5),
                 lambda: formula_card_general(3, 10**5),
                 lambda: formula_twin_stabilizer(2, 10**5)):
        with pytest.raises(GuardError, match="over the 100000 guard"):
            make()
    import lfgraph.autos as autos
    import lfgraph.gf as gf

    def refuse(_):
        raise AssertionError("trial division ran past the order guard")
    monkeypatch.setattr(gf, "is_prime", refuse)
    monkeypatch.setattr(gf, "factor_prime_power", refuse)
    monkeypatch.setattr(autos, "factor_prime_power", refuse)
    big = 10**18 + 3
    for make in (lambda: formula_card_n2(big), lambda: formula_component_isos(big),
                 lambda: formula_card_general(big, 3),
                 lambda: formula_twin_stabilizer(big, 2)):
        with pytest.raises(GuardError, match="over the 100000 guard"):
            make()
    doc = json.dumps({"q": big, "n": 2, "image": []})
    with pytest.raises(GuardError, match="exceeds supported maximum 256"):
        perm_from_json(doc)


def test_enumeration_guards():
    with pytest.raises(ValueError):
        all_automorphisms(graph_for(4, 2))  # 30 vertices
    with pytest.raises(ValueError):
        count_automorphisms(graph_for(4, 2), method="vertex")
    with pytest.raises(ValueError):
        count_class_stabilizers(graph_for(4, 2))
    with pytest.raises(ValueError):
        count_automorphisms(graph_for(2, 2), method="nope")


def test_enumeration_guards_raise_guard_error():
    from lfgraph import GuardError
    g = graph_for(4, 2)  # 30 vertices
    for call in (all_automorphisms, count_class_stabilizers,
                 lambda g: count_automorphisms(g, method="vertex")):
        with pytest.raises(GuardError, match="vertex-level enumeration is "
                                             "limited to 20 vertices"):
            call(g)
    # (2,6) has 63 classes a side
    for call in (quotient_adjacency, count_automorphisms):
        with pytest.raises(GuardError,
                           match="63 classes per side is over the 40 guard"):
            call(graph_for(2, 6))


def test_component_isomorphisms_behind_the_class_guard():
    """(41,2) has 42 classes a side: the component count is refused before
    any search, with the quotient search's message."""
    from lfgraph import GuardError
    with pytest.raises(GuardError,
                       match="42 classes per side is over the 40 guard"):
        count_component_isomorphisms(graph_for(41, 2))


def test_quotient_adjacency_is_projective_incidence():
    # (2, 6) and (8, 3) have 63 and 73 classes a side, over the quotient
    # search's guard, so only line_adjacency reaches them
    for q, n in [(2, 3), (3, 3), (4, 2), (2, 6), (8, 3)]:
        g = graph_for(q, n)
        lines = g.lines()
        half = len(lines) // 2
        qadj = list(g.line_adjacency())
        if half > MAX_QUOTIENT_CLASSES:
            with pytest.raises(ValueError, match="guard"):
                quotient_adjacency(g)
        else:
            assert quotient_adjacency(g) == qadj
        assert len(qadj) == 2 * half == 2 * (q ** n - 1) // (q - 1)
        # every point lies on (q^(n-1) - 1)/(q - 1) hyperplanes and back
        assert all(row.bit_count() == (q ** (n - 1) - 1) // (q - 1)
                   for row in qadj)
        # the definition: classes meet when their reps' dot product is 0
        want = [0] * (2 * half)
        for i in range(half):
            for j in range(half):
                if dot(g.field, lines[half + j].rep, lines[i].rep) == 0:
                    want[i] |= 1 << (half + j)
                    want[half + j] |= 1 << i
        assert qadj == want, (q, n)


def test_group_closure_sample():
    g = graph_for(2, 3)
    autos = all_automorphisms(g)
    r = rng()
    for _ in range(40):
        a = VertexPerm(g, r.choice(autos))
        b = VertexPerm(g, r.choice(autos))
        assert tuple(a.compose(b).image) in set(autos)


def test_class_stabilizers():
    assert count_class_stabilizers(graph_for(2, 2)) == 1
    assert count_class_stabilizers(graph_for(2, 3)) == 1
    assert count_class_stabilizers(graph_for(3, 2)) == 256
    assert formula_twin_stabilizer(3, 2) == 256
    assert formula_twin_stabilizer(2, 3) == 1


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3)])
def test_orbit_counts_match_enumeration(q, n):
    """The orbit-stabilizer counts against the enumerating kernel, the
    independent oracle: the whole group, and its class-fixing maps."""
    g = graph_for(q, n)
    autos = all_automorphisms(g)
    assert count_automorphisms(g, method="vertex") == len(autos)
    lof = g.line_index()
    assert count_class_stabilizers(g) == sum(
        all(lof[t] == lof[v] for v, t in enumerate(img)) for img in autos)


def test_first_hit_honours_pins():
    """Pinning vertices to the images of a known automorphism leaves a
    map, and the first one found is an automorphism meeting every pin."""
    r = rng()
    for q, n in [(3, 2), (2, 3), (3, 3)]:
        g = graph_for(q, n)
        for _ in range(5):
            target = random_automorphism(g, r).image
            pins = _uncoloured(g.adj)
            for v in r.sample(range(g.num_vertices), 3):
                pins[v] = 1 << target[v]
            hit = _automorphism_search(g.adj, pins, range(g.num_vertices))
            assert is_automorphism(g, VertexPerm(g, hit))
            assert all(hit[v] == (m.bit_length() - 1)
                       for v, m in enumerate(pins) if m.bit_count() == 1)


def test_first_hit_unmeetable_pin():
    """A pin no automorphism can meet finds nothing: a neighbour of a
    fixed vertex sent to a non-neighbour, two twins split between
    classes, and a vertex allowed no image at all."""
    g = graph_for(3, 2)
    v = 0
    u = (g.adj[v] & -g.adj[v]).bit_length() - 1
    far = next(w for w in range(g.nv, g.num_vertices)
               if not (g.adj[v] >> w) & 1)
    pins = _uncoloured(g.adj)
    pins[v], pins[u] = 1 << v, 1 << far
    every = range(g.num_vertices)
    assert _automorphism_search(g.adj, pins, every) is None
    a, b = g.lines()[0].members[:2]
    c = g.lines()[1].members[0]
    pins = _uncoloured(g.adj)
    pins[a], pins[b] = 1 << a, 1 << c
    assert _automorphism_search(g.adj, pins, every) is None
    pins = _uncoloured(g.adj)
    pins[5] = 0
    assert _automorphism_search(g.adj, pins, every) is None


def test_count_reach_4_3():
    """(4,3), 21 classes a side: 2.2.|PGL(3,4)|.(3!)^42 by orbit-stabilizer
    on the quotient, where enumerating its group takes minutes."""
    assert count_automorphisms(graph_for(4, 3)) == 241920 * 6 ** 42


@pytest.mark.parametrize("q,n,order,searches,one_cycle", [
    (3, 3, 11232 * 2 ** 26, 9, 105),
    (2, 4, 40320, 16, 129),
    (4, 3, 241920 * 6 ** 42, 10, 261),
    (2, 5, 19998720, 45, 157),
    (3, 4, 24261120 * 2 ** 80, 42, 362)],
    ids=["3-3", "2-4", "4-3", "2-5", "3-4"])
def test_quotient_count_first_hit_searches(q, n, order, searches, one_cycle):
    """The quotient count's work counter, which no host's speed moves.
    one_cycle is what an earlier pin chain needed: at (3,3), (2,4) and
    (4,3) one that added one cycle per map found, at (2,5) and (3,4), 40
    classes a side, one that fixed only the pinned vertices, not the
    vertices left with only themselves as candidates."""
    assert _count_with_searches(graph_for(q, n), "quotient") == (order,
                                                                 searches)
    assert searches < one_cycle


def test_search_outputs_pinned():
    """The search's output, pinned as one digest: every map of (2,2) and
    (2,3) in the order the search finds them, the first hit under seeded
    pins, the vertex-level counts of (5,2) and (3,3), and the quotient
    count of (2,5), each count with its first-hit searches."""
    import hashlib
    digest = hashlib.sha256()

    def put(x):
        digest.update(repr(x).encode() + b"\n")

    for q, n in [(2, 2), (2, 3)]:
        put(all_automorphisms(graph_for(q, n)))
    r = rng()
    for q, n in [(3, 2), (2, 3), (3, 3)]:
        g = graph_for(q, n)
        for pinned in (1, 2, 3):
            target = random_automorphism(g, r).image
            pins = _uncoloured(g.adj)
            for v in r.sample(range(g.num_vertices), pinned):
                pins[v] = 1 << target[v]
            put(_automorphism_search(g.adj, pins, range(g.num_vertices)))
    counts = [_count_by_orbits(g.adj, _uncoloured(g.adj), range(g.num_vertices))
              for g in (graph_for(5, 2), graph_for(3, 3))]
    counts.append(_count_with_searches(graph_for(2, 5), "quotient"))
    assert [searches for _, searches in counts] == [101, 142, 45]
    put(counts)
    assert digest.hexdigest() == (
        "4961fa4e139eacc6a3491ba500b868a536c30b6d3b4a878578f6d6f658070d0e")


@pytest.mark.parametrize("q,n,method,narrows,whole_pins", [
    (3, 3, "quotient", 210, 236),
    (2, 4, "quotient", 303, 356),
    (3, 2, "vertex", 127, 212),
    (5, 2, "vertex", 1153, 2755)],
    ids=["3-3-quotient", "2-4-quotient", "3-2-vertex", "5-2-vertex"])
def test_count_narrows_from_the_settled_state(monkeypatch, q, n, method,
                                              narrows, whole_pins):
    """The counting search's _narrow calls, which no host's speed moves.
    whole_pins is what first-hit searches handed every pin took: one step
    per vertex the pin chain had already fixed.  (5,2), 48 vertices, is
    counted past the vertex guard."""
    import lfgraph.autos as autos
    calls = [0]
    narrow = autos._narrow

    def counted(*args):
        calls[0] += 1
        return narrow(*args)

    monkeypatch.setattr(autos, "_narrow", counted)
    g = graph_for(q, n)
    if method == "vertex":
        _count_by_orbits(g.adj, _uncoloured(g.adj), range(g.num_vertices))
    else:
        _count_with_searches(g, method)
    assert calls[0] == narrows
    assert narrows < whole_pins


def test_search_keeps_vertices_outside_init_fixed():
    """Vertices outside free map to themselves: one component of (3,2)
    searched alone gives automorphisms of the whole graph, and at (2,3) the
    free masks left after fixing vertex 0 give its stabilizer, 336 / 14."""
    g = graph_for(3, 2)
    comp = next(g.component_masks())
    members = _bit_list(comp)
    hit = _automorphism_search(g.adj, [comp] * g.num_vertices, members)
    assert all(hit[v] == v for v in range(g.num_vertices) if v not in members)
    assert is_automorphism(g, VertexPerm(g, hit))
    g = graph_for(2, 3)
    rest = list(range(1, g.num_vertices))
    cands = _narrow(g.adj, _uncoloured(g.adj), rest, 0, 0)
    maps = []
    _automorphism_search(g.adj, cands, rest, maps)
    assert len(maps) == 336 // 14
    assert all(m[0] == 0 and is_automorphism(g, VertexPerm(g, m)) for m in maps)


def test_kernel_leaves_its_inputs_alone():
    """The counting search writes only the level states it owns, and the
    first-hit search only its own free list: each caller's masks and free
    list come back unchanged, and a range gives what a list gives."""
    g = graph_for(3, 2)
    masks = [g.line_mask(g.lines()[c]) for c in g.line_index()]
    free = list(range(g.num_vertices))
    saved = masks.copy(), free.copy()
    first = _automorphism_search(g.adj, masks, free)
    count = _count_by_orbits(g.adj, masks, free)
    assert (masks, free) == saved
    assert count[0] == 256
    every = range(g.num_vertices)
    assert first == _automorphism_search(g.adj, masks, every)
    assert count == _count_by_orbits(g.adj, masks, every)


@pytest.mark.parametrize("q,n", [(4, 2), (5, 2), (2, 4)])
def test_vertex_count_matches_quotient_past_the_guard(monkeypatch, q, n):
    """The vertex-level count equals the quotient count, with the vertex
    guard raised past (4,2)'s and (2,4)'s 30 vertices and (5,2)'s 48."""
    import lfgraph.autos as autos
    monkeypatch.setattr(autos, "MAX_ENUM_VERTICES", 48)
    g = graph_for(q, n)
    assert count_automorphisms(g, "vertex") == count_automorphisms(g)


@pytest.mark.parametrize("q,n", [(4, 2), (3, 3)])
def test_class_stabilizers_past_the_guard(monkeypatch, q, n):
    """The CARD-STAB values verify skips at (4,2) and (3,3) match the
    closed form once the vertex guard admits them."""
    import lfgraph.autos as autos
    monkeypatch.setattr(autos, "MAX_ENUM_VERTICES", 52)
    g = graph_for(q, n)
    assert count_class_stabilizers(g) == formula_twin_stabilizer(q, n)


def _brute_component_isomorphisms(g):
    """Reference count: try every bijection of the first component onto
    the second."""
    src, dst = g.components()[:2]
    return sum(all(((g.adj[src[s]] >> src[t]) & 1)
                   == ((g.adj[pi[s]] >> pi[t]) & 1)
                   for s in range(len(src)) for t in range(s + 1, len(src)))
               for pi in permutations(dst))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_component_isomorphisms(q):
    g = graph_for(q, 2)
    got = count_component_isomorphisms(g)
    assert got == {2: 2, 3: 8, 4: 72, 5: 1152}[q]
    assert got == formula_component_isos(q)
    if q <= 4:
        assert got == _brute_component_isomorphisms(g)


def test_component_isomorphisms_none():
    """Components that are not isomorphic count 0: the (3,2) graph with
    one edge removed inside its second component, which stays connected,
    so the first search finds no map onto it."""
    g = graph_for(3, 2)
    v = g.components()[1][0]
    u = _bit_list(g.adj[v])[0]
    adj = list(g.adj)
    adj[v] &= ~(1 << u)
    adj[u] &= ~(1 << v)
    cut = LfGraph(g.field, g.n, adj)
    assert [len(c) for c in cut.components()] == [4] * 4
    assert count_component_isomorphisms(cut) == 0


def test_formula_values():
    assert formula_card_n2(2) == 48
    assert formula_card_n2(3) == 98304
    assert formula_card_general(2, 3) == 10080
    assert formula_card_general(3, 3) == 2 * 6227020800 * 2 ** 26
    assert formula_component_isos(3) == 8
    with pytest.raises(ValueError):
        formula_card_general(2, 2)
    with pytest.raises(ValueError):
        formula_card_n2(6)


# ---------- decomposition ----------

def test_decompose_identity():
    g = graph_for(3, 3)
    d = decompose(g, identity_perm(g))
    assert d.swap is False
    assert d.P == identity(3)
    assert d.frob == 0
    assert d.tau.is_identity()


@pytest.mark.parametrize("q,n", [(3, 2), (3, 3)])
def test_decompose_reads_one_class_map(q, n, monkeypatch):
    """One decompose call reads line_action once and never
    automorphism_defect; at n = 2 delta is built from that class map
    alone, with no vertex image in reach."""
    import lfgraph.autos as autos
    g = graph_for(q, n)
    r = rng()
    perms = [random_automorphism(g, r) for _ in range(30)]
    calls = []
    real_action, real_delta = autos.line_action, autos._delta_impl

    def action(g, perm):
        calls.append(("line_action", real_action(g, perm)))
        return calls[-1][1]

    def delta(g, lmap):
        assert type(lmap) is list and lmap == calls[-1][1]
        calls.append(("delta", None))
        return real_delta(g, lmap)
    monkeypatch.setattr(autos, "line_action", action)
    monkeypatch.setattr(autos, "_delta_impl", delta)
    monkeypatch.setattr(autos, "automorphism_defect",
                        lambda g, perm: calls.append(("defect", None)))
    for perm in perms:
        calls.clear()
        assert compose(g, decompose(g, perm)) == perm
        kinds = [kind for kind, _ in calls]
        assert kinds == (["line_action"] if n >= 3 else ["line_action", "delta"])


def _exchanged(g, a, b):
    """The identity with the images of vertices a and b, (side, coords)
    pairs, exchanged: never an automorphism."""
    x, y = (g.vec_id(c) if side == "vec" else g.fun_id(c) for side, c in (a, b))
    img = list(range(g.num_vertices))
    img[x], img[y] = y, x
    return VertexPerm(g, img)


# one crafted non-automorphism per recovery step, fed past decompose's
# adjacency check straight to the recovery routines
@pytest.mark.parametrize("q,n,a,b,step,witness", [
    (3, 3, ("vec", (0, 1, 1)), ("vec", (0, 1, 2)), "twin-residual",
     {"vertex": 3, "image": 4}),
    (5, 3, ("vec", (1, 2, 0)), ("vec", (1, 3, 0)), "frobenius",
     {"pi": [0, 1, 3, 2, 4]}),
])
def test_decomposition_error_steps(q, n, a, b, step, witness):
    g = graph_for(q, n)
    recover = _decompose_general if n >= 3 else _decompose_n2
    perm = _exchanged(g, a, b)
    # the class of each class's first member's image, as line_action reads
    # it off an automorphism
    lmap = [g.line_index()[perm.image[line.members[0]]] for line in g.lines()]
    with pytest.raises(DecompositionError) as exc:
        recover(g, perm, lmap)
    assert (exc.value.step, exc.value.witness) == (step, witness)


def test_round_trip_work(monkeypatch):
    """One decompose + compose at n >= 3 builds two permutations (tau and
    the result) from one semilinear chain, which decompose builds and
    compose reuses: 2 _map_ids sweeps, and no call into lfgraph.linalg, as
    P^-1's rows are read off the functional images and the chain sweeps
    P^T.  At n = 2 it also builds delta and chi_P once, and lifts
    phi_bar's class map as a plain list: four permutations from the same
    sweeps, and no linalg call either, as phi is read off the field
    tables.  Each is built unchecked (VertexPerm._of), as autos proved it
    a permutation; none runs the public check.  A second line_action on
    one graph decodes no quotient row."""
    import inspect
    import sys
    import lfgraph.autos as autos
    import lfgraph.linalg as linalg
    cases = [(graph_for(3, 3), 2), (graph_for(3, 2), 4)]
    calls = {"VertexPerm": 0, "_of": 0, "_map_ids": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    class CountedPerm(VertexPerm):
        __slots__ = ()

        def __init__(self, *args):
            calls["VertexPerm"] += 1
            super().__init__(*args)

        @classmethod
        def _of(cls, *args):
            calls["_of"] += 1
            return super()._of(*args)

    import lfgraph.graph as graph
    monkeypatch.setattr(autos, "VertexPerm", CountedPerm)
    # built after the patch: the readers refuse what is no (Counted)VertexPerm
    perms = [random_automorphism(g, rng()) for g, _ in cases]
    monkeypatch.setattr(graph, "_map_ids", counted("_map_ids", graph._map_ids))
    # every function linalg defines, under every name a module binds it to
    modules = [m for key, m in sys.modules.items() if key.startswith("lfgraph")]
    helpers = {fn: f"linalg.{name}" for name, fn in vars(linalg).items()
               if inspect.isfunction(fn) and fn.__module__ == linalg.__name__}
    assert "linalg.random_invertible" in helpers.values()
    for fn, name in helpers.items():
        calls[name] = 0
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, counted(name, fn))
    for (g, built), perm in zip(cases, perms):
        calls.update(dict.fromkeys(calls, 0))
        assert compose(g, decompose(g, perm)).image == perm.image
        assert calls == {"VertexPerm": 0, "_of": built, "_map_ids": 2,
                         **dict.fromkeys(helpers.values(), 0)}
    # a fresh graph, so the first line_action decodes the quotient rows
    g = build(field_from_order(2), 3)
    bit_list = counted("_bit_list", graph._bit_list)
    for mod in (autos, graph):
        monkeypatch.setattr(mod, "_bit_list", bit_list)
    calls["_bit_list"] = 0
    line_action(g, sigma_swap(g))
    assert calls["_bit_list"] == len(g.lines())
    calls["_bit_list"] = 0
    line_action(g, sigma_swap(g))
    assert calls["_bit_list"] == 0


def test_decompose_rejects_non_automorphism():
    """The class test refuses each before any recovery step.  Among them
    are the inputs that, fed past it, would give a dependent basis image,
    a trace off its support at n >= 3 or n = 2, or a phi that is no
    permutation fixing 0, and those that break side purity at n >= 3 and
    a component's side decision at n = 2: facts decompose does not check
    again."""
    for q, n, a, b in [(3, 3, ("vec", (0, 0, 1)), ("vec", (0, 1, 0))),
                       (3, 3, ("vec", (1, 0, 0)), ("fun", (1, 0, 0))),
                       (3, 3, ("vec", (1, 0, 1)), ("vec", (1, 1, 1))),
                       (3, 3, ("vec", (0, 1, 0)), ("vec", (2, 0, 0))),
                       (3, 3, ("vec", (1, 1, 0)), ("vec", (1, 1, 1))),
                       (3, 2, ("fun", (1, 1)), ("vec", (1, 1))),
                       (3, 2, ("fun", (1, 0)), ("fun", (1, 1))),
                       (3, 2, ("fun", (1, 1)), ("fun", (0, 1)))]:
        g = graph_for(q, n)
        with pytest.raises(DecompositionError) as exc:
            decompose(g, _exchanged(g, a, b))
        assert exc.value.step == "not-automorphism"


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3)])
def test_decompose_full_group(q, n):
    g = graph_for(q, n)
    for perm in iter_automorphisms(g):
        d = decompose(g, perm)
        assert compose(g, d) == perm


@pytest.mark.parametrize("q,n", [(3, 3), (4, 3)])
def test_decompose_random_generator_chains(q, n):
    g = graph_for(q, n)
    r = rng()
    swaps = 0
    for _ in range(100):
        perm = random_automorphism(g, r)
        d = decompose(g, perm)
        swaps += d.swap
        assert compose(g, d) == perm
    assert 0 < swaps < 100  # both branches exercised


@pytest.mark.parametrize("q,n,field", [(4, 3, "swap"), (4, 3, "frob"),
                                       (5, 2, "phi"), (5, 2, "delta")])
def test_reassigned_chain_field_is_composed_afresh(q, n, field):
    """compose reuses the chain image decompose kept only while the result
    holds the fields it was built from: with one chain field reassigned,
    compose equals compose of a Decomposition built from the fields."""
    g = graph_for(q, n)
    r = rng()
    for _ in range(10):
        perm = random_automorphism(g, r)
        d = decompose(g, perm)
        new = {"swap": lambda: not d.swap,
               "frob": lambda: (d.frob + 1) % g.field.k,
               # phi with the images of 1 and 2 exchanged: still fixes 0
               "phi": lambda: (0, d.phi[2], d.phi[1]) + d.phi[3:],
               "delta": lambda: sigma_swap(g).compose(d.delta)}[field]()
        setattr(d, field, new)
        fresh = Decomposition(d.swap, d.delta, d.P, d.frob, d.phi, d.tau)
        assert compose(g, d) == compose(g, fresh) != perm


@pytest.mark.parametrize("q,n", [(3, 2), (5, 2), (2, 4), (3, 3), (4, 3)])
def test_rebuilt_decomposition_composes_back(q, n, monkeypatch):
    """decompose builds one chain and compose reuses it; a Decomposition
    rebuilt from the same fields evaluates the chain afresh, and it too
    gives the automorphism back."""
    import lfgraph.autos as autos
    g = graph_for(q, n)
    r = rng()
    chains = []
    monkeypatch.setattr(autos, "_chain",
                        lambda *args: chains.append(args) or _chain(*args))
    for _ in range(20):
        perm = random_automorphism(g, r)
        chains.clear()
        d = decompose(g, perm)
        assert compose(g, d) == perm and len(chains) == 1
        fresh = Decomposition(d.swap, d.delta, d.P, d.frob, d.phi, d.tau)
        assert compose(g, fresh) == perm and len(chains) == 2


def test_decompose_swap_only():
    g = graph_for(2, 3)
    d = decompose(g, sigma_swap(g))
    assert d.swap is True
    assert compose(g, d) == sigma_swap(g)


def test_compose_validates_shape():
    g33 = graph_for(3, 3)
    with pytest.raises(ValueError):
        compose(g33, Decomposition(False, None, identity(3), None, (0, 1, 2),
                                   identity_perm(g33)))
    with pytest.raises(ValueError):  # P of the wrong size
        compose(g33, Decomposition(False, None, identity(2), 0, None,
                                   identity_perm(g33)))
    g32 = graph_for(3, 2)
    with pytest.raises(ValueError):
        compose(g32, Decomposition(True, None, identity(2), 0, None,
                                   identity_perm(g32)))


# ---------- serialization ----------

def test_perm_json_round_trip():
    g = graph_for(3, 2)
    perm = random_automorphism(g, rng())
    text = perm_to_json(perm)
    doc = json.loads(text)
    assert doc["q"] == 3 and doc["n"] == 2
    back = perm_from_json(text, g)
    assert back == perm
    rebuilt = perm_from_json(text)  # builds its own graph
    assert tuple(rebuilt.image) == tuple(perm.image)
    with pytest.raises(ValueError):
        perm_from_json(json.dumps({"q": 3, "n": 2}))
    with pytest.raises(ValueError):
        perm_from_json(text, graph_for(2, 2))


def test_documents_name_their_field():
    """Over GF(8) = F_2[x]/(x^3 + x^2 + 1), not the default cubic, a
    document rebuilds its own field and is refused by the default graph;
    one without p, k and modulus loads as before."""
    g = build(Field(2, 3, (1, 0, 1, 1)), 2)
    perm = random_automorphism(g, rng())
    text = perm_to_json(perm)
    assert {k: v for k, v in json.loads(text).items() if k != "image"} == {
        "q": 8, "n": 2, "p": 2, "k": 3, "modulus": [1, 0, 1, 1]}
    rebuilt = perm_from_json(text)
    assert rebuilt.g.field == g.field and rebuilt.image == perm.image
    d = decompose(g, perm)
    doc = json.loads(decomposition_to_json(g, d))
    assert doc["modulus"] == [1, 0, 1, 1]
    back = decomposition_from_json(json.dumps(doc))
    assert compose(back.tau.g, back).image == perm.image and back.P == d.P
    default = graph_for(8, 2)
    for bad in (lambda: perm_from_json(text, default),
                lambda: decomposition_from_json(json.dumps(doc), default),
                lambda: perm_from_json(json.dumps(dict(json.loads(text), k=1)))):
        with pytest.raises(ValueError, match="does not match"):
            bad()
    for modulus in ("x", [1, "0", 1, 1], [1, 1, 1, 1]):
        with pytest.raises(ValueError):
            perm_from_json(json.dumps(dict(json.loads(text), modulus=modulus)))
    for key, value in (("p", 2.0), ("k", 3.0), ("k", True)):
        with pytest.raises(ValueError, match="integer"):
            perm_from_json(json.dumps({**json.loads(text), key: value}))
    old = {k: v for k, v in json.loads(text).items() if k not in ("p", "k", "modulus")}
    assert perm_from_json(json.dumps(old), default).g is default


def test_documents_over_a_derived_field_round_trip():
    """At q = 32 the field's modulus is derived, not listed anywhere: a
    document names it, and one without p, k and modulus rebuilds the same
    graph."""
    g = graph_for(32, 2)
    perm = random_automorphism(g, rng())
    doc = json.loads(perm_to_json(perm))
    assert (doc["p"], doc["k"], doc["modulus"]) == (2, 5, [1, 0, 1, 0, 0, 1])
    assert perm_from_json(json.dumps(doc)) == perm
    bare = {k: v for k, v in doc.items() if k not in ("p", "k", "modulus")}
    assert perm_from_json(json.dumps(bare)) == perm
    assert perm_from_json(json.dumps(bare), g).g is g


def test_seeded_decompositions_pinned():
    """Seeded decompositions are part of every seeded report, so the
    digest of their documents is pinned: 25 seeded automorphisms at each
    size, over prime and prime-power fields and n = 3, 4."""
    import hashlib
    digest = hashlib.sha256()
    for q, n in [(2, 3), (3, 3), (4, 3), (8, 3), (9, 3), (2, 4)]:
        g, r = graph_for(q, n), random.Random(q * 100 + n)
        for _ in range(25):
            d = decompose(g, random_automorphism(g, r))
            digest.update(decomposition_to_json(g, d).encode() + b"\n")
    assert digest.hexdigest() == (
        "9e2f7c24fbee7e33220e896f8748a7bb30a517c5ae6171e3cb1d890718dec747")


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 2), (5, 2), (7, 2),
                                 (3, 3), (4, 3)])
def test_decomposition_json_round_trip(q, n):
    g = graph_for(q, n)
    r = rng()
    for _ in range(10):
        perm = random_automorphism(g, r)
        d = decompose(g, perm)
        text = decomposition_to_json(g, d)
        back = decomposition_from_json(text, g)
        assert compose(g, back) == perm
        assert back.swap == d.swap and back.frob == d.frob
        assert back.P == d.P and back.phi == d.phi


@pytest.mark.parametrize("delta", [5, [0.0] + list(range(1, 16)), "0123"])
def test_decomposition_json_rejects_malformed_delta(delta):
    g = graph_for(3, 2)
    doc = json.loads(decomposition_to_json(g, decompose(g, sigma_swap(g))))
    assert doc["delta"] is not None
    doc["delta"] = delta
    with pytest.raises(ValueError):
        decomposition_from_json(json.dumps(doc), g)


def test_documents_refuse_boolean_ids():
    """JSON true is no vertex id, though True == 1 passes a compare: a
    permutation image or a delta holding one is refused."""
    with pytest.raises(ValueError, match="bad 'image'"):
        perm_from_json('{"q":2,"n":2,"image":[true,0,2,3,4,5]}')
    g = graph_for(3, 2)
    doc = json.loads(decomposition_to_json(g, decompose(g, sigma_swap(g))))
    assert 1 in doc["delta"]
    doc["delta"] = [True if t == 1 else t for t in doc["delta"]]
    with pytest.raises(ValueError, match="bad 'delta'"):
        decomposition_from_json(json.dumps(doc), g)


def test_decomposition_json_rejects_a_false_delta():
    """delta must be the side swap its own crossing pattern calls for:
    a transposition across the sides, an automorphism that is no side
    swap, or any delta at n >= 3 is refused, where compose used to return
    a non-automorphism for the first.  The round trip test shows every
    genuine delta passes."""
    g = graph_for(3, 2)
    doc = json.loads(decomposition_to_json(g, decompose(g, random_automorphism(g, rng()))))
    cross = list(range(g.num_vertices))
    cross[0], cross[g.nv] = g.nv, 0
    for delta in (cross, list(chi_p(g, ((1, 1), (0, 1))).image)):
        with pytest.raises(ValueError, match="bad 'delta'"):
            decomposition_from_json(json.dumps(dict(doc, delta=delta)), g)
    g3 = graph_for(2, 3)
    doc = json.loads(decomposition_to_json(g3, decompose(g3, sigma_swap(g3))))
    with pytest.raises(ValueError, match="bad 'delta'"):
        decomposition_from_json(json.dumps(dict(doc, delta=list(range(14)))), g3)


@pytest.mark.parametrize("q,n,key,value", [
    (3, 2, "tau", 5),
    (3, 2, "tau", {"vec:0,1": 5}),
    (3, 2, "tau", {"vec:0,1": ["a", "b"]}),
    (3, 2, "P", 5),
    (3, 2, "P", [[1, "a"], [0, 1]]),
    (3, 2, "P", [[1, 3], [0, 1]]),
    (3, 2, "P", [[1, 0]]),
    (3, 2, "phi", 5),
    (3, 2, "phi", [0, 1]),
    (4, 3, "frob", "x"),
    (4, 3, "frob", 2),
    (4, 3, "frob", True),
    (4, 3, "swap", "no"),
    (3, 2, "swap", 0),
    (3, 2, "tau", {"vec:9,9": [0, 1]}),
    # well-formed fields that compose would refuse
    (3, 2, "P", [[1, 1], [1, 1]]),
    (4, 3, "P", [[1, 1, 0], [1, 1, 0], [0, 0, 1]]),
    (4, 3, "frob", None),
    (4, 3, "phi", [0, 1, 2, 3]),
    (3, 2, "phi", None),
    (3, 2, "frob", 0),
    (3, 2, "swap", True),
    (3, 2, "phi", [1, 0, 2]),
])
def test_decomposition_json_rejects_malformed_fields(q, n, key, value):
    """A malformed field is a ValueError, never a TypeError or
    AttributeError and never a nonsense Decomposition."""
    g = graph_for(q, n)
    doc = json.loads(decomposition_to_json(g, decompose(g, sigma_swap(g))))
    doc[key] = value
    with pytest.raises(ValueError):
        decomposition_from_json(json.dumps(doc), g)
