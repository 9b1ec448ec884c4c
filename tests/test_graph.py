import gc
import itertools
import json
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import lfgraph.graph as graph
from lfgraph.autos import VertexPerm, is_automorphism, sigma_swap
from lfgraph.gf import field_from_order
from lfgraph.graph import (FUN, VEC, LfGraph, Line, _bit_list, _min_cover,
                           _orbit, _symmetries, build, domination_number,
                           export, graph6_bytes, is_dominating,
                           parse_edgelist_json, parse_graph6, to_edgelist_json,
                           to_graph6)
from lfgraph.linalg import monic_rep

from conftest import graph_for
from linalg_reference import dot


def test_build_guards():
    with pytest.raises(ValueError):
        build(field_from_order(2), 1)
    with pytest.raises(ValueError):
        build(field_from_order(7), 9)


def test_graph_guards_raise_guard_error():
    """Each size limit in graph raises GuardError, a ValueError, with the
    message a verify report shows as the skip reason."""
    assert issubclass(graph.GuardError, ValueError)
    with pytest.raises(graph.GuardError,
                       match="would have 80707212 vertices, over the 100000"):
        build(field_from_order(7), 9)
    with pytest.raises(graph.GuardError, match="component of 2660 vertices"):
        domination_number(graph_for(11, 3), target="all")


def test_line_compares_and_hashes_by_value():
    """Lines are equal, and hash equal, exactly when side, rep and members
    are, so two builds' lines are interchangeable as set members; a Line
    is a slotted record, not a tuple."""
    a, b = build(field_from_order(3), 2).lines(), build(field_from_order(3), 2).lines()
    assert a == b and a[0] is not b[0] and set(a) == set(b)
    assert len(set(a)) == len(a)
    line = a[0]
    assert hash(line) == hash(Line(line.side, line.rep, line.members))
    for other in (Line(FUN, line.rep, line.members),
                  Line(line.side, (1, 1), line.members),
                  Line(line.side, line.rep, line.members[1:]),
                  (line.side, line.rep, line.members)):
        assert line != other
    assert not isinstance(line, tuple) and not hasattr(line, "__dict__")


def test_smallest_instance_exact():
    """Six vertices, three disjoint edges, each vector paired with the
    functional orthogonal to it."""
    g = graph_for(2, 2)
    assert g.num_vertices == 6
    assert g.vec_id((0, 1)) == 0
    assert g.vec_id((1, 0)) == 1
    assert g.vec_id((1, 1)) == 2
    assert g.fun_id((0, 1)) == 3
    assert g.edges() == [(0, 4), (1, 3), (2, 5)]


def test_vertex_indexing_round_trip():
    g = graph_for(3, 3)
    for vid in range(g.num_vertices):
        side, coords = g.coords_of(vid)
        back = g.vec_id(coords) if side == VEC else g.fun_id(coords)
        assert back == vid
    with pytest.raises(ValueError):
        g.vec_id((0, 0, 0))
    with pytest.raises(ValueError):
        g.coords_of(g.num_vertices)


@pytest.mark.parametrize("bad", [1.5, 1.0, True, "1", None])
def test_id_readers_refuse_what_is_not_an_int(bad):
    """vec_id, fun_id, coords_of and degree read ints in range only: a
    float, str or None raises ValueError, never a TypeError or a float id,
    and a bool is never read as 0 or 1."""
    g = graph_for(3, 2)
    for read in (lambda: g.vec_id((1, bad)), lambda: g.vec_id((bad, 0)),
                 lambda: g.fun_id((bad, 2)), lambda: g.coords_of(bad),
                 lambda: g.degree(bad)):
        with pytest.raises(ValueError):
            read()


@pytest.mark.parametrize("bad", [-3, 16, 10**6, 1.0, True])
def test_is_vec_refuses_what_is_not_a_vertex_id(bad):
    """is_vec reads a vertex id as coords_of and degree do: -3 is not a
    vector, nor 10**6 a functional."""
    g = graph_for(3, 2)
    with pytest.raises(ValueError, match="is not a vertex id"):
        g.is_vec(bad)
    assert [g.is_vec(v) for v in (0, 7, 8, 15)] == [True, True, False, False]


@pytest.mark.parametrize("q,n,coords", [
    (3, 2, (1, 5)),      # would alias (2, 2), id 7
    (3, 2, (1, 3)),      # would alias (2, 0)
    (3, 2, (1, -1)),     # would alias (0, 2)
    (3, 2, (1,)),        # would alias (0, 1), id 0
    (3, 2, (0, 0, 1)),   # leading zero, would alias (0, 1)
    (2, 3, (1, 0)),
])
def test_vertex_id_rejects_bad_coordinates(q, n, coords):
    g = graph_for(q, n)
    for to_id in (g.vec_id, g.fun_id):
        with pytest.raises(ValueError):
            to_id(coords)


def test_adjacency_matches_dot_product():
    for q, n in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (4, 3), (8, 2), (9, 2)]:
        g = graph_for(q, n)
        F = g.field
        for v in range(g.nv):
            _, vc = g.coords_of(v)
            for f in range(g.nv, g.num_vertices):
                _, fc = g.coords_of(f)
                expect = dot(F, fc, vc) == 0
                assert bool((g.adj[v] >> f) & 1) == expect


def kernel_basis(F, u):
    """n-1 independent vectors spanning the kernel of v -> u . v (u != 0)."""
    n = len(u)
    pivot = next(i for i, a in enumerate(u) if a != 0)
    pinv = F.inv(u[pivot])
    basis = []
    for i in range(n):
        if i != pivot:
            vec = [0] * n
            vec[i] = 1
            vec[pivot] = F.neg(F.mul(u[i], pinv))
            basis.append(tuple(vec))
    return tuple(basis)


def span_nonzero(F, basis):
    """Yield every nonzero linear combination of the basis vectors."""
    for coeffs in itertools.product(F.elements(), repeat=len(basis)):
        if any(coeffs):
            acc = [0] * len(basis[0])
            for c, b in zip(coeffs, basis):
                acc = [F.add(x, F.mul(c, y)) for x, y in zip(acc, b)]
            yield tuple(acc)


def _span_reference(g):
    """Adjacency and edge list from the tuple kernels
    span_nonzero(kernel_basis(u))."""
    F = g.field
    adj = [0] * g.num_vertices
    edges = []
    kernels = {}
    for fid in range(g.nv, g.num_vertices):
        rep = monic_rep(F, g.coords_of(fid)[1])
        if rep not in kernels:
            kernels[rep] = [g.vec_id(w) for w in span_nonzero(F, kernel_basis(F, rep))]
        for v in kernels[rep]:
            adj[fid] |= 1 << v
            adj[v] |= 1 << fid
            edges.append((v, fid))
    return adj, sorted(edges)


@pytest.mark.parametrize("q,n", [(2, 5), (8, 3), (16, 3), (25, 2), (27, 2)])
def test_build_matches_span_reference(q, n):
    g = build(field_from_order(q), n)
    adj, edges = _span_reference(g)
    assert g.adj == adj
    assert g.edges() == edges


def test_edge_count_3_2():
    # 8 vectors, each adjacent to the q^(n-1)-1 = 2 functionals killing it
    g = graph_for(3, 2)
    assert g.num_vertices == 16
    assert len(g.edges()) == 16


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [2, 3])
def test_regularity(q, n):
    g = graph_for(q, n)
    assert g.num_vertices == 2 * (q ** n - 1)
    assert g.check_regular()
    want = q ** (n - 1) - 1
    assert all(g.degree(v) == want for v in range(g.num_vertices))


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 2), (5, 2)])
def test_n2_components(q, n):
    g = graph_for(q, n)
    comps = g.components()
    assert len(comps) == q + 1
    for comp in comps:
        vecs = [v for v in comp if g.is_vec(v)]
        funs = [v for v in comp if not g.is_vec(v)]
        assert len(vecs) == len(funs) == q - 1
        for v in vecs:
            assert g.adj[v] == sum(1 << f for f in funs)


def test_bit_list_matches_bits():
    """The byte-table decode lists the same bits, in the same order, as a
    decode of bin(): whole components, single high bits, and random masks
    of every width around a byte boundary."""
    def _bits(mask):
        return [i for i, c in enumerate(reversed(bin(mask))) if c == "1"]

    for q, n in [(2, 2), (5, 2), (3, 3), (16, 3)]:
        for comp in graph_for(q, n).component_masks():
            assert _bit_list(comp) == _bits(comp)
    r = random.Random(31)
    masks = [0, 1, 1 << 7, 1 << 8, (1 << 64) - 1, 1 << 59579]
    masks += [r.getrandbits(w) for w in range(1, 70) for _ in range(3)]
    masks += [r.getrandbits(5000) & r.getrandbits(5000) for _ in range(5)]
    for m in masks:
        assert _bit_list(m) == _bits(m)


@pytest.mark.parametrize("q,n", [(2, 3), (3, 3), (4, 3), (2, 4)])
def test_high_dim_connected(q, n):
    assert len(graph_for(q, n).components()) == 1


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
def test_lines_partition_and_sizes(q, n):
    g = graph_for(q, n)
    lines = g.lines()
    m = (q ** n - 1) // (q - 1)
    assert len(lines) == 2 * m
    assert sum(1 for line in lines if line.side == VEC) == m
    covered = set()
    for line in lines:
        assert len(line.members) == q - 1
        covered.update(line.members)
    assert covered == set(range(g.num_vertices))
    index = g.line_index()
    assert len(index) == g.num_vertices
    for vid in range(g.num_vertices):
        assert vid in lines[index[vid]].members


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
def test_twins_are_scalar_classes(q, n):
    g = graph_for(q, n)
    assert sorted(line.members for line in g.lines()) == sorted(g.twin_classes())


def test_line_neighborhoods_distinct():
    g = graph_for(3, 3)
    lines = g.lines()
    masks = {g.adj[line.members[0]] for line in lines if line.side == VEC}
    assert len(masks) == len(lines) // 2


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_line_adjacency_at_q2_is_adj(n):
    # every class is one vertex, listed in id order, so the quotient is adj
    g = graph.build(field_from_order(2), n)
    from_neighbors = tuple(sum(1 << d for d in ds) for ds in g.line_neighbors())
    assert g.line_adjacency() == tuple(g.adj) == from_neighbors


# ---------- domination ----------

def test_is_dominating_basics():
    g = graph_for(2, 2)
    # each functional covers exactly its orthogonal vector
    assert is_dominating(g, [3, 4, 5], target=VEC, mode="standard")
    assert not is_dominating(g, [3, 4], target=VEC, mode="standard")
    # standard whole-graph: members are exempt, so the three vectors do it
    assert is_dominating(g, [0, 1, 2], target="all", mode="standard")
    # total whole-graph: members need neighbors too
    assert not is_dominating(g, [0, 1, 2], target="all", mode="total")
    assert is_dominating(g, list(range(6)), target="all", mode="total")


def test_is_dominating_refuses_an_unknown_mode():
    """The same refusal as domination_number, never a silent total rule."""
    g = graph_for(2, 2)
    for check in (lambda: is_dominating(g, [3, 4, 5], mode="bogus"),
                  lambda: domination_number(g, mode="bogus")):
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            check()


@pytest.mark.parametrize("extra", [10**9, 12, -1, 1.0, True, "3"])
def test_is_dominating_refuses_what_is_not_a_vertex_id(extra):
    """An id past the graph, a negative id, a float or a bool is refused,
    never dropped or read as a vertex."""
    g = graph_for(2, 2)
    assert is_dominating(g, [3, 4, 5])
    with pytest.raises(ValueError, match="is not a vertex id"):
        is_dominating(g, [3, 4, 5, extra])
    with pytest.raises(ValueError, match="is not a vertex id"):
        is_dominating(g, [extra], target="all", mode="total")


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_one_sided_domination_number(q, n):
    g = graph_for(q, n)
    size, witness = domination_number(g, target=VEC, mode="standard")
    assert size == q + 1
    assert is_dominating(g, witness, target=VEC, mode="standard")
    assert len(witness) == size


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_explicit_one_sided_witness(q, n):
    """q+1 functional classes through e1, e2 cover every vector."""
    g = graph_for(q, n)
    F = g.field
    wit = [g.fun_id((1, a) + (0,) * (n - 2)) for a in F.elements()]
    wit.append(g.fun_id((0, 1) + (0,) * (n - 2)))
    assert is_dominating(g, wit, target=VEC, mode="standard")


def test_whole_graph_domination_small():
    g22 = graph_for(2, 2)
    assert domination_number(g22, target="all", mode="standard")[0] == 3
    assert domination_number(g22, target="all", mode="total")[0] == 6
    g32 = graph_for(3, 2)
    assert domination_number(g32, target="all", mode="standard")[0] == 8
    assert domination_number(g32, target="all", mode="total")[0] == 8
    # the point-line incidence structure at (2,3) beats 2q+2
    g23 = graph_for(2, 3)
    assert domination_number(g23, target="all", mode="standard")[0] == 4
    assert domination_number(g23, target="all", mode="total")[0] == 6


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
def test_whole_graph_standard_domination_n2(q):
    """The n = 2 graph is q+1 disjoint copies of K_{q-1,q-1}, each
    dominated by min(2, q-1) vertices."""
    g = graph_for(q, 2)
    size, witness = domination_number(g, target="all", mode="standard")
    assert size == len(witness) == (q + 1) * min(2, q - 1)
    assert is_dominating(g, witness, target="all", mode="standard")


def test_domination_guard_applies_per_component(monkeypatch):
    # (11,2): 240 vertices in 12 copies of K_{10,10}
    g = build(field_from_order(11), 2)
    size, witness = domination_number(g, target="all", mode="standard")
    assert size == len(witness) == 24
    assert is_dominating(g, witness, target="all", mode="standard")
    # (11,3) is one component of 2660 vertices
    with pytest.raises(ValueError, match="component of 2660 vertices"):
        domination_number(graph_for(11, 3), target="all")
    # (5,2) has components of 8 vertices
    g = graph_for(5, 2)
    monkeypatch.setattr(graph, "MAX_SEARCH_VERTICES", 8)
    assert domination_number(g, target="all")[0] == 12
    monkeypatch.setattr(graph, "MAX_SEARCH_VERTICES", 7)
    with pytest.raises(ValueError, match="component of 8 vertices"):
        domination_number(g, target="all")


def test_domination_guard_decodes_no_component(monkeypatch):
    """The guard reads sizes off the component bitsets and stops at the
    first one over it, without listing the members of every component."""
    def listed(self):
        raise AssertionError("components() was called")

    monkeypatch.setattr(LfGraph, "components", listed)
    with pytest.raises(ValueError, match="component of 2660 vertices"):
        domination_number(graph_for(11, 3), target="all")


def test_domination_guards_refuse_before_the_quotient_is_read(monkeypatch):
    """Every argument check and guard runs before line_adjacency()."""
    def read(self):
        raise AssertionError("line_adjacency() was read")

    monkeypatch.setattr(LfGraph, "line_adjacency", read)
    g = graph_for(11, 3)
    for target in (VEC, FUN, "all"):
        with pytest.raises(graph.GuardError):
            domination_number(g, target=target)
    with pytest.raises(ValueError, match="unknown target 'nope'"):
        domination_number(g, target="nope")


def _min_cover_exhaustive(cover, m):
    """The subset sweep: the first of the smallest index sets, in
    combinations order, whose masks cover all m elements.  The tests'
    oracle for _min_cover, exponential in the candidates."""
    full = (1 << m) - 1
    for k in range(len(cover) + 1):
        for combo in itertools.combinations(range(len(cover)), k):
            acc = 0
            for i in combo:
                acc |= cover[i]
            if acc == full:
                return k, combo
    raise ValueError("instance is infeasible")


def _interleaved_cover(rng):
    """Two or three independent random sub-instances on interleaved
    element bits, their candidates shuffled together."""
    k = rng.choice([2, 3])
    m = k * rng.randint(2, 4)
    cover = []
    for b in range(k):
        elems = range(b, m, k)
        subs = [sum(1 << e for e in elems if rng.random() < 0.4)
                for _ in range(rng.randint(2, 4))]
        subs.append(1 << rng.choice(elems))
        subs = [c for c in subs if c]
        missing = sum(1 << e for e in elems)
        for c in subs:
            missing &= ~c
        cover += subs + ([missing] if missing else [])
    cover.append(0)
    rng.shuffle(cover)
    return cover, m


def test_min_cover_splits_interleaved_blocks():
    rng = random.Random(7)
    for _ in range(60):
        cover, m = _interleaved_cover(rng)
        size, chosen = _min_cover(cover, m)
        assert size == _min_cover_exhaustive(cover, m)[0] == len(chosen)
        assert list(chosen) == sorted(set(chosen))
        acc = 0
        for i in chosen:
            acc |= cover[i]
        assert acc == (1 << m) - 1
    # two blocks, {0,2,4} and {1,3}, candidates alternating between them
    cover = [0b00101, 0b01000, 0b10100, 0b00010, 0b00001, 0b01010]
    assert _min_cover(cover, 5) == (3, (0, 2, 5))
    assert _min_cover_exhaustive(cover, 5)[0] == 3


def _shift_mask(mask, elem):
    return sum(1 << elem[e] for e in _bit_list(mask))


def _symmetric_cover(rng):
    """A random instance closed under the cyclic shift e -> e + 1 of its m
    elements: two copies A and B of the shift orbit of each of a few
    random masks, with the candidate map sending A's i-th shift to B's
    (i+1)-th and B's to A's.  It pairs equal masks across the copies,
    which the search keeps as they are."""
    m = rng.choice([6, 7, 8, 9])
    elem = [(e + 1) % m for e in range(m)]
    cover, cand = [], []
    for _ in range(rng.randint(1, 3)):
        orbit = [sum(1 << e for e in range(m) if rng.random() < 0.35) or 1]
        for _ in range(m - 1):
            orbit.append(_shift_mask(orbit[-1], elem))
        base = len(cover)
        cover += orbit + orbit
        cand += [base + m + (i + 1) % m for i in range(m)]
        cand += [base + (i + 1) % m for i in range(m)]
    return cover, m, (cand, elem)


def test_orbital_search_matches_exhaustive():
    """Under a known symmetry the orbital search finds the exhaustive
    optimum, with a covering witness, on random instances.  Excluding
    orbits of the whole group below a choice, not of its stabilizer,
    misses the optimum on some of them."""
    rng = random.Random(19)
    for _ in range(200):
        cover, m, gen = _symmetric_cover(rng)
        cand, elem = gen
        for i, c in enumerate(cover):
            assert cover[cand[i]] == _shift_mask(c, elem)
        size, chosen = _min_cover(cover, m, [gen])
        # equal masks change no optimum, and the sweep is exponential
        assert size == _min_cover_exhaustive(sorted(set(cover)), m)[0]
        assert size == len(chosen)
        acc = 0
        for i in chosen:
            acc |= cover[i]
        assert acc == (1 << m) - 1
    # two disjoint copies of one instance: the swap of the copies maps no
    # block onto itself, so each block drops it and searches without it
    half = [0b0011, 0b0110, 0b1100, 0b1001, 0b0101]
    cover = half + [c << 4 for c in half]
    swap = list(range(5, 10)) + list(range(5))
    elem = list(range(4, 8)) + list(range(4))
    assert _min_cover(cover, 8, [(swap, elem)])[0] == 4


def test_min_cover_refuses_a_non_symmetry():
    """A pair that is not a symmetry of the instance raises, whether its
    candidate map breaks the masks, its element map does, or either is no
    permutation; it is never used."""
    rng = random.Random(5)
    cover, m, (cand, elem) = _symmetric_cover(rng)
    assert _min_cover(cover, m, [(cand, elem)])
    bad = [(list(range(len(cover))), elem),  # elements move, candidates stay
           (cand, list(range(m))),  # candidates move, elements stay
           (cand[:-1] + cand[:1], elem),  # no permutation
           (cand, elem[:-1] + elem[:1])]
    for gen in bad:
        with pytest.raises(ValueError, match="not a symmetry"):
            _min_cover(cover, m, [gen])
    # greedy takes the middle mask first and needs 3, so the search branches;
    # the shift e -> e + 1 mod 6 maps {0,1,2} to {1,2,3}, no mask
    with pytest.raises(ValueError, match="not a symmetry"):
        _min_cover([0b000111, 0b111000, 0b011110], 6,
                   [([1, 2, 0], [1, 2, 3, 4, 5, 0])])


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3),
                                 (4, 3), (8, 3)])
def test_symmetries_are_automorphisms(q, n):
    """Every generator the search uses is an automorphism, the last is the
    side swap sigma_swap builds, and for n >= 3 they move any vertex to any
    other."""
    g = graph_for(q, n)
    gens = _symmetries(g)
    for image in gens:
        assert is_automorphism(g, VertexPerm(g, image))
    assert gens[-1] == list(sigma_swap(g).image)
    if n >= 3:
        assert len(_orbit(gens, 0)) == g.num_vertices


def test_domination_refuses_a_bad_generator(monkeypatch):
    """domination_number hands every generator's class map to the cover's
    symmetry check, so one that is no symmetry raises instead of pruning.
    q = 2 whole-graph standard domination at (2,4) branches, so the
    generators are built there."""
    g = graph_for(2, 4)
    a, b = g.vec_id((0, 0, 0, 1)), g.vec_id((0, 0, 1, 0))
    bad = list(range(g.num_vertices))
    bad[a], bad[b] = b, a  # two vectors of different classes
    assert not is_automorphism(g, VertexPerm(g, bad))
    monkeypatch.setattr(graph, "_symmetries", lambda g: [bad])
    with pytest.raises(ValueError, match="not a symmetry"):
        domination_number(g, target="all", mode="standard")


def test_domination_builds_generators_only_when_it_branches(monkeypatch):
    """Where the greedy cover meets the root's bound, _symmetries is never
    called; where the search branches, it is called once a search."""
    calls = []
    monkeypatch.setattr(graph, "_symmetries",
                        lambda g: calls.append(g) or _symmetries(g))
    for q, n in [(2, 2), (3, 2), (2, 3), (3, 3), (5, 2)]:
        g = graph_for(q, n)
        for target in (VEC, FUN, "all"):
            for mode in ("standard", "total"):
                domination_number(g, target=target, mode=mode)
    assert calls == []
    g = graph_for(2, 4)
    for k in (1, 2):
        domination_number(g, target="all", mode="standard")
        assert calls == [g] * k


@pytest.mark.parametrize("q,n,size", [(3, 3, 8), (4, 3, 10), (2, 4, 6),
                                      (2, 5, 6), (2, 6, 6), (2, 7, 6),
                                      (2, 8, 6)])
def test_whole_graph_standard_domination_pinned(q, n, size):
    g = graph_for(q, n)
    got, witness = domination_number(g, target="all", mode="standard")
    assert got == len(witness) == size
    assert is_dominating(g, witness, target="all", mode="standard")


@pytest.mark.parametrize("q,n", [(3, 2), (4, 2), (5, 2), (7, 2), (8, 2),
                                 (9, 2), (3, 3), (4, 3), (5, 3), (3, 4)])
def test_whole_graph_standard_equals_total_domination(q, n):
    """For q >= 3 every vertex has a false twin, so gamma = gamma_t and
    domination_number answers target "all" by the total search.  The
    oracle is the direct standard search: _min_cover on the vertex-level
    standard cover instance, where each vertex also covers itself, under
    the automorphisms of _symmetries."""
    g = graph_for(q, n)
    cover = [row | 1 << v for v, row in enumerate(g.adj)]
    direct, chosen = _min_cover(cover, g.num_vertices,
                                [(s, s) for s in graph._symmetries(g)])
    size, witness = domination_number(g, target="all", mode="standard")
    assert size == direct == len(witness) == len(chosen)
    assert is_dominating(g, chosen, target="all", mode="standard")
    assert is_dominating(g, witness, target="all", mode="total")


def _vertex_instance(g, target, mode):
    """The vertex-level cover instance of target and mode, with no lemma
    applied: the candidates' masks, the covered ids and the candidate ids."""
    covered, cands = graph._cover_ids(g.nv, target)
    lo, full = covered.start, (1 << len(covered)) - 1
    cover = [(g.adj[c] >> lo) & full
             | (1 << (c - lo) if mode == "standard" and c in covered else 0)
             for c in cands]
    return cover, covered, cands


def _vertex_cover(g, target, mode):
    """_min_cover on the vertex-level cover instance of target and mode,
    under the automorphisms of _symmetries that keep its candidates; the
    chosen candidates as vertex ids."""
    cover, covered, cands = _vertex_instance(g, target, mode)
    lo = covered.start
    gens = [([s[c] - cands.start for c in cands], [s[v] - lo for v in covered])
            for s in _symmetries(g) if all(s[c] in cands for c in cands)]
    size, chosen = _min_cover(cover, len(covered), gens)
    return size, [cands[i] for i in chosen]


def _vertex_sweep(g, target, mode):
    """The subset sweep on the vertex-level cover instance; the chosen
    candidates as vertex ids."""
    cover, covered, cands = _vertex_instance(g, target, mode)
    size, chosen = _min_cover_exhaustive(cover, len(covered))
    return size, [cands[i] for i in chosen]


@pytest.mark.parametrize("q,n", [(4, 2), (2, 4), (3, 3), (4, 3), (2, 5)])
def test_class_search_matches_vertex_search(q, n):
    """The branch search covers classes by classes.  On every target and
    mode it finds the optimum of the vertex-level instance, and its witness
    holds the first member of distinct classes and dominates."""
    g = graph_for(q, n)
    firsts = {line.members[0] for line in g.lines()}
    for target in (VEC, FUN, "all"):
        for mode in ("standard", "total"):
            size, witness = domination_number(g, target=target, mode=mode)
            vsize, vchosen = _vertex_cover(g, target, mode)
            assert size == vsize == len(witness), (target, mode)
            assert is_dominating(g, vchosen, target=target, mode=mode)
            # first members are one a class, so these are distinct classes
            assert set(witness) <= firsts and len(set(witness)) == len(witness)
            assert is_dominating(g, witness, target=target, mode=mode)


def test_class_search_work(monkeypatch):
    """The branch search hands _min_cover one candidate a class: 2M for
    target "all" and M for one side, not a candidate a vertex."""
    sizes = []

    def counted(cover, m, gens=()):
        sizes.append((len(cover), m))
        return _min_cover(cover, m, gens)

    monkeypatch.setattr(graph, "_min_cover", counted)
    for q, n in [(2, 3), (3, 3), (4, 3), (5, 2)]:
        g = graph_for(q, n)
        m = len(g.lines()) // 2
        sizes.clear()
        for target in (VEC, FUN, "all"):
            domination_number(g, target=target, mode="standard")
        assert sizes == [(m, m), (m, m), (2 * m, 2 * m)]


def test_whole_graph_standard_domination_q2_is_direct():
    """At q = 2 no vertex has a twin and gamma < gamma_t at (2,3), so the
    standard search runs directly and its witness is not total."""
    g = graph_for(2, 3)
    size, witness = domination_number(g, target="all", mode="standard")
    assert size == 4 < domination_number(g, target="all", mode="total")[0] == 6
    assert is_dominating(g, witness, target="all", mode="standard")
    assert not is_dominating(g, witness, target="all", mode="total")


def _q2_standard_instance(g, monkeypatch):
    """The cover instance and generators domination_number hands _min_cover
    for whole-graph standard domination, the generators built as a list."""
    seen = []
    monkeypatch.setattr(graph, "_min_cover",
                        lambda cover, m, gens=(): seen.append((cover, m, gens))
                        or _min_cover(cover, m, gens))
    domination_number(g, target="all", mode="standard")
    monkeypatch.undo()
    cover, m, gens = seen[0]
    return cover, m, gens() if callable(gens) else gens


def _covers(cover, m, chosen):
    acc = 0
    for i in chosen:
        acc |= cover[i]
    return acc == (1 << m) - 1


@pytest.mark.parametrize("q,n", [(2, 4), (2, 5)])
def test_child_groups_keep_the_search_exact(q, n, monkeypatch):
    """q = 2 whole-graph standard domination is the instance where the
    search branches past the greedy witness.  Each child keeps only the
    generators that fix its pick, a subgroup of the pick's stabilizer, and
    still finds the optimum of the search with no generators."""
    cover, m, gens = _q2_standard_instance(graph_for(q, n), monkeypatch)
    assert gens
    size, chosen = _min_cover(cover, m, gens)
    assert size == _min_cover(cover, m)[0] == len(chosen) == 6
    assert _covers(cover, m, chosen)


def test_child_groups_match_exhaustive_q2(monkeypatch):
    cover, m, gens = _q2_standard_instance(graph_for(2, 3), monkeypatch)
    size, chosen = _min_cover(cover, m, gens)
    assert size == _min_cover_exhaustive(cover, m)[0] == len(chosen) == 4
    assert _covers(cover, m, chosen)


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3)])
def test_branch_agrees_with_exhaustive_on_every_target(q, n):
    """On the graphs of at most 20 vertices, the target and mode pairs
    that test_branch_agrees_with_exhaustive leaves out."""
    g = graph_for(q, n)
    for target, mode in [(VEC, "total"), (FUN, "standard"), (FUN, "total")]:
        b, wb = domination_number(g, target=target, mode=mode)
        e, we = _vertex_sweep(g, target, mode)
        assert b == e == len(wb) == len(we), (target, mode)
        assert is_dominating(g, wb, target=target, mode=mode)
        assert is_dominating(g, we, target=target, mode=mode)


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3),
                                 (3, 3)])
def test_total_domination_matches_split_bound(q, n):
    """Total domination separates over sides: no vertex covers its own
    side, so the optimum is the sum of the two one-sided optima."""
    g = graph_for(q, n)
    tot, wit = domination_number(g, target="all", mode="total")
    side_v = domination_number(g, target=VEC, mode="standard")[0]
    side_f = domination_number(g, target=FUN, mode="standard")[0]
    assert tot == side_v + side_f == 2 * q + 2
    assert is_dominating(g, wit, target="all", mode="total")


def test_branch_agrees_with_exhaustive():
    """The class search and the subset sweep on the vertex-level instance
    find one optimum at (2,2), (3,2) and (2,3), and both witnesses
    dominate."""
    for q, n in [(2, 2), (3, 2), (2, 3)]:
        g = graph_for(q, n)
        for target, mode in [(VEC, "standard"), ("all", "standard"),
                             ("all", "total")]:
            b, wb = domination_number(g, target=target, mode=mode)
            e, we = _vertex_sweep(g, target, mode)
            assert b == e == len(we), (q, n, target, mode)
            assert is_dominating(g, wb, target=target, mode=mode)
            assert is_dominating(g, we, target=target, mode=mode)


def test_domination_argument_validation():
    g = graph_for(2, 2)
    with pytest.raises(ValueError):
        domination_number(g, target="nope")
    with pytest.raises(ValueError):
        domination_number(g, mode="nope")
    with pytest.raises(TypeError):
        domination_number(g, method="branch")  # one search, no method knob
    # the target is checked before the guard reads the graph
    with pytest.raises(ValueError, match="unknown target 'nope'"):
        domination_number(graph_for(5, 3), target="nope")


# ---------- serialization ----------

def _nx_from_edges(n, edges):
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(edges)
    return G


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_graph6_against_networkx(q, n):
    g = graph_for(q, n)
    ours = to_graph6(g).decode("ascii").strip()
    theirs = nx.to_graph6_bytes(_nx_from_edges(g.num_vertices, g.edges()),
                                header=False).decode("ascii").strip()
    assert ours == theirs


def test_graph6_long_form():
    # 126 vertices forces the multi-byte vertex-count header
    g = graph_for(4, 3)
    assert g.num_vertices == 126
    data = to_graph6(g)
    assert data[0] == 126
    n, edges = parse_graph6(data)
    assert n == 126
    assert sorted(edges) == g.edges()
    theirs = nx.from_graph6_bytes(data.strip())
    assert set(theirs.edges()) == {tuple(e) for e in g.edges()}


def test_graph6_refuses_the_8_byte_form():
    """The 4-byte header ends at 258047 vertices; past it graph6 starts
    with ~~, a form neither side supports.  Only the refusals run, since
    encoding a graph that size takes gigabytes."""
    with pytest.raises(ValueError, match="vertex count 258048 out of graph6 range"):
        graph6_bytes(258_048, [])
    n = 258_048
    data = b"~~" + bytes(((n >> s) & 63) + 63 for s in range(30, -1, -6))
    with pytest.raises(ValueError, match="8-byte graph6 header"):
        parse_graph6(data)


@pytest.mark.parametrize("data", [b"\x7f" + b"?" * 400,
                                  bytes([200]) + b"?" * 400,
                                  b"~\x7f??", b"~?\x7f?" + b"?" * 10,
                                  b"~??>" + b"?" * 10],
                         ids=["127", "200", "long-127-first", "long-127-second",
                              "long-62-third"])
def test_parse_graph6_refuses_bad_header_bytes(data):
    """A one-byte header lies in 63..125 and each byte after ~ in
    63..126; anything else is refused before the body is read."""
    with pytest.raises(ValueError, match="bad graph6 header"):
        parse_graph6(data)


def test_parse_graph6_round_trip_and_prefix():
    g = graph_for(3, 2)
    data = to_graph6(g)
    n, edges = parse_graph6(data)
    assert n == 16 and sorted(edges) == g.edges()
    n2, edges2 = parse_graph6(b">>graph6<<" + data)
    assert (n2, sorted(edges2)) == (n, sorted(edges))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.data())
def test_graph6_random_round_trip(nverts, data):
    pairs = list(itertools.combinations(range(nverts), 2))
    edges = [p for p in pairs if data.draw(st.booleans())]
    enc = graph6_bytes(nverts, edges)
    dec_n, dec_edges = parse_graph6(enc)
    assert dec_n == nverts
    assert sorted(dec_edges) == sorted(edges)
    assert enc.strip() == nx.to_graph6_bytes(_nx_from_edges(nverts, edges),
                                             header=False).strip()


@pytest.mark.parametrize("data,match", [
    (b"A_????", "body of 5 bytes, expected 1"), (b"A~", "padding bits"),
    (b"A", "body of 0 bytes, expected 1"), (b"D]w?", "body of 3 bytes"),
    (b"~??B?", "3 vertices in a one-byte header"),
    (b"~??}" + b"?" * 10, "62 vertices in a one-byte header"),
    (b"C]\x80}", "bad graph6 byte 128"), (b"C!\x80", "bad graph6 byte 33")])
def test_parse_graph6_refuses_what_the_writer_cannot_produce(data, match):
    """Bytes past the triangle, a set padding bit and the 4-byte header
    below 63 vertices are refused; the first bad byte is named."""
    with pytest.raises(ValueError, match=match):
        parse_graph6(data)


@pytest.mark.parametrize("nverts", [0, 1, 2, 3, 61, 62, 63, 64])
def test_parse_graph6_reads_networkx_at_header_and_padding(nverts):
    rng = random.Random(nverts)
    for density in (0.0, 0.5, 1.0):
        edges = {p for p in itertools.combinations(range(nverts), 2)
                 if rng.random() < density}
        data = nx.to_graph6_bytes(_nx_from_edges(nverts, edges))
        assert parse_graph6(data) == (nverts, edges)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 70), st.data())
def test_parse_graph6_accepts_exactly_the_writers_image(nverts, data):
    """The reader returns what the writer was given, and refuses the
    writer's output with a byte appended, a padding bit set, or, below 63
    vertices, the header in its 4-byte form."""
    pairs = list(itertools.combinations(range(nverts), 2))
    mask = data.draw(st.integers(0, (1 << len(pairs)) - 1))
    edges = {p for k, p in enumerate(pairs) if mask >> k & 1}
    enc = graph6_bytes(nverts, edges)
    assert parse_graph6(enc) == (nverts, edges)
    head = 1 if nverts < 63 else 4
    body = enc[head:]
    bad = [enc + bytes([data.draw(st.integers(63, 126))])]
    if -len(pairs) % 6:  # the last letter's low bits are padding
        bit = data.draw(st.integers(0, -len(pairs) % 6 - 1))
        bad.append(enc[:-1] + bytes([(enc[-1] - 63 | 1 << bit) + 63]))
    if nverts < 63:
        bad.append(b"~??" + enc[:1] + body)
    for mutant in bad:
        with pytest.raises(ValueError):
            parse_graph6(mutant)


def test_edgelist_json_round_trip():
    g = graph_for(3, 2)
    doc = parse_edgelist_json(to_edgelist_json(g))
    assert doc["q"] == 3 and doc["n"] == 2
    assert len(doc["vertices"]) == 16
    assert sorted(map(tuple, doc["edges"])) == g.edges()
    by_id = {v["id"]: v for v in doc["vertices"]}
    assert by_id[0]["side"] == "vec"
    assert by_id[8]["side"] == "fun"
    assert tuple(by_id[g.vec_id((1, 2))]["coords"]) == (1, 2)


@pytest.mark.parametrize("data", [b'"q n vertices edges"',
                                  b'["q","n","vertices","edges"]',
                                  b'5', b'null'])
def test_edgelist_json_rejects_non_object(data):
    with pytest.raises(ValueError, match="not a JSON object"):
        parse_edgelist_json(data)


def _graph6_reference(n, edges):
    """graph6 set bit by bit: edge (i, j), i < j, is bit j(j-1)/2 + i of
    the upper triangle, six bits per byte, high first."""
    head = (bytes([n + 63]) if n <= 62 else
            bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]))
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for i, j in edges:
        i, j = min(i, j), max(i, j)
        k = j * (j - 1) // 2 + i
        body[k // 6] |= 32 >> (k % 6)
    return head + bytes(b + 63 for b in body)


def _edgelist_json_reference(g):
    """The edge-list document built whole and handed to json.dumps."""
    vertices = []
    for vid in range(g.num_vertices):
        side, coords = g.coords_of(vid)
        vertices.append({"id": vid, "side": side, "coords": list(coords)})
    doc = {"q": g.q, "n": g.n, "vertices": vertices,
           "edges": [list(e) for e in g.edges()]}
    return json.dumps(doc, separators=(",", ":")).encode("ascii")


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3), (2, 5), (3, 3),
                                 (4, 3), (2, 6)])
def test_exports_match_references(q, n):
    # (2,5) has 62 vertices, the last size with a one-byte graph6 header
    g = graph_for(q, n)
    assert to_graph6(g) == _graph6_reference(g.num_vertices, g.edges())
    assert to_edgelist_json(g) == _edgelist_json_reference(g)


def test_exports_read_rows_not_edges(monkeypatch):
    g = graph_for(3, 2)
    want = {"graph6": _graph6_reference(g.num_vertices, g.edges()),
            "json": _edgelist_json_reference(g)}

    def unread(self):
        raise AssertionError("export expanded the edge list")

    monkeypatch.setattr(LfGraph, "edges", unread)
    for fmt, data in want.items():
        assert export(g, fmt) == data


def test_edgelist_json_of_an_edgeless_graph():
    g = LfGraph(field_from_order(2), 2, [0] * 6)
    assert json.loads(to_edgelist_json(g))["edges"] == []
    assert to_edgelist_json(g) == _edgelist_json_reference(g)
    assert g.edges() == []


def test_edges_restores_the_collector_state(monkeypatch):
    g = graph_for(2, 3)
    want = [(v, f) for v in range(g.nv) for f in _bit_list(g.adj[v])]
    was = gc.isenabled()
    try:
        gc.enable()
        assert g.edges() == want and gc.isenabled()
        gc.disable()
        assert g.edges() == want and not gc.isenabled()

        def broken(mask):
            raise RuntimeError("decode failed")

        monkeypatch.setattr(graph, "_bit_list", broken)
        for state in (gc.enable, gc.disable):
            state()
            with pytest.raises(RuntimeError, match="decode failed"):
                g.edges()
            assert gc.isenabled() == (state is gc.enable)
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("nverts", [0, 1, 62, 63, 64])
def test_graph6_bytes_against_networkx_at_header_and_padding(nverts):
    rng = random.Random(nverts)
    for density in (0.0, 0.3, 1.0):
        edges = [p for p in itertools.combinations(range(nverts), 2)
                 if rng.random() < density]
        # either orientation of an edge encodes the same
        edges = [(j, i) if rng.random() < 0.5 else (i, j) for i, j in edges]
        enc = graph6_bytes(nverts, edges)
        assert enc == _graph6_reference(nverts, edges)
        assert enc == nx.to_graph6_bytes(_nx_from_edges(nverts, edges),
                                         header=False).strip()


# an id is an int: True would encode as vertex 1, and a float would raise
# TypeError from the bit shift
@pytest.mark.parametrize("edges", [[(0, 1), (2, 2)], [(0, 1), (1, 5)],
                                   [(-1, 3)], [(True, 2)], [(0.0, 1)],
                                   [(0, 1.5)]])
def test_graph6_bytes_rejects_bad_edges(edges):
    i, j = edges[-1]
    with pytest.raises(ValueError, match=rf"bad edge \({i}, {j}\)"):
        graph6_bytes(5, edges)


def test_export_dispatch():
    g = graph_for(2, 2)
    assert export(g, "graph6") == to_graph6(g)
    assert export(g, "json") == to_edgelist_json(g)
    for fmt in ("edge-list-json", "dot"):
        with pytest.raises(ValueError):
            export(g, fmt)
    assert json.loads(export(g, "json"))["q"] == 2
