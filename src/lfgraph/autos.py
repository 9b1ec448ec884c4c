"""Automorphisms of the orthogonality graph: generators, enumeration,
closed-form counts, structure checks, and the constructive decomposition.

A vertex permutation is a tuple image with image[v] = target of vertex v.
Composition is function composition: (a.compose(b))(v) = a(b(v)).

The decomposition factors a verified automorphism into the generator chain
sigma^s . chi_P . pi_j . tau for n >= 3, or delta . chi_P . phi_bar . tau
for n = 2.  decompose tests adjacency on the class quotient first
(not-automorphism); its recovery steps then validate, each with a witness,
only what that test leaves unproved: that the class map is semilinear
(frobenius) and that its chain leaves a shuffle inside each class
(twin-residual).  compose, decompose and random_automorphism share one
chain evaluator, _chain, built on graph._semilinear, so no chain inverts P
and no round trip calls linalg: the rows of P^-1, the traces and phi are
read off the field tables.  Whatever acts on whole scalar classes (delta,
phi_bar, the n = 2 sampler, the twin shuffle tau) is one gather, _lift, of
class members at the graph's member_positions().  Class-level questions
read the graph's cached class readers (line_index(), line_firsts(),
line_neighbors(), line_partners()); autos keeps no state.  line_action is
the one place that reads a class map off a permutation: it checks that
the map is well defined and sends every quotient edge to an edge, and
scans vertex rows only to name a broken edge.  The one structural fact no
class map shows, the neighbourhood intersection identity, is a graph fact
that _intersection_holds checks once per graph.

A permutation is checked once, where outside data enters: the public
VertexPerm(g, image) runs only in tau_from_table, perm_from_json and
decomposition_from_json.  Every other permutation autos builds from maps
it has proved bijective, unchecked, through VertexPerm._of, which says why.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from itertools import chain, islice, repeat

from .gf import _ids_below, factor_prime_power, field_from_order
from .linalg import random_invertible
from .graph import (GuardError, LfGraph, _bit_list, _build_guard, _coords, _gather,
                    _inverse, _matrix, _orbit, _row_lists, _semilinear,
                    _side_swap, build)


class VertexPerm:
    """A permutation of the vertex ids of one graph."""

    __slots__ = ("g", "image")

    def __init__(self, g: LfGraph, image):
        try:
            image = tuple(image)
        except TypeError:
            raise ValueError("image is not a sequence of vertex ids") from None
        n = g.num_vertices
        if len(image) != n:
            raise ValueError(f"image has length {len(image)}, expected {n}")
        if not _ids_below(image, n) or len(set(image)) != n:
            raise ValueError("image is not a permutation of the vertex ids")
        _set_g(self, g)
        _set_image(self, image)

    @classmethod
    def _of(cls, g: LfGraph, image) -> "VertexPerm":
        """The permutation with this image, unchecked: its caller proved it
        a permutation of g's ids.  A _semilinear image is one, as
        _semilinear refuses a non-square or singular P, a bad j and entries
        that are no field elements; so are range(nv) and sigma; so is _lift
        of member lists holding each class's members once (shuffled by
        random_twin_permutation and the n = 2 sampler, or _lift_classes of
        a class permutation: _phi_classes checks phi, _delta_impl swaps
        disjoint pairs); so is a search result; and so is a gather or
        inverse of permutations of g, as _image_on refuses another graph's."""
        perm = cls.__new__(cls)
        _set_g(perm, g)
        _set_image(perm, tuple(image))
        return perm

    def __setattr__(self, name, value):  # read-only: a built perm stays one
        raise AttributeError(f"VertexPerm is read-only; cannot set {name!r}")

    def compose(self, other: "VertexPerm") -> "VertexPerm":
        """self after other: (self.compose(other))(v) = self(other(v))."""
        other_image = _image_on(self.g, other, "other")
        return VertexPerm._of(self.g, _gather(self.image, other_image))

    def inverse(self) -> "VertexPerm":
        return VertexPerm._of(self.g, _inverse(self.image))

    def is_identity(self) -> bool:
        return all(v == t for v, t in enumerate(self.image))

    def __eq__(self, other):
        return (isinstance(other, VertexPerm) and self.image == other.image
                and _same_graph(self.g, other.g))

    def __hash__(self):
        return hash(self.image)

    def __repr__(self):
        return f"VertexPerm({list(self.image)})"


# the slots' own setters, which VertexPerm.__setattr__ does not reach
_set_g, _set_image = VertexPerm.g.__set__, VertexPerm.image.__set__


def _same_graph(g: LfGraph, h: LfGraph) -> bool:
    """g and h are one graph: the same object, or equal field and n."""
    return g is h or (g.field, g.n) == (h.field, h.n)


def _image_on(g: LfGraph, perm: VertexPerm, what: str = "perm") -> tuple:
    """perm's image; a perm of another graph raises ValueError."""
    if not _same_graph(g, perm.g):
        raise ValueError(f"{what} is a permutation of another graph")
    return perm.image


def identity_perm(g: LfGraph) -> VertexPerm:
    return VertexPerm._of(g, range(g.num_vertices))


# ---------- class action and adjacency preservation ----------

class LineActionError(ValueError):
    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


def line_action(g: LfGraph, perm: VertexPerm) -> list[int]:
    """The class map lmap of an automorphism perm: the class of lines()
    that perm sends class c onto is lmap[c].  Otherwise raise
    LineActionError carrying the first broken edge (x, y).

    The test runs on the class quotient.  An automorphism sends twins to
    twins, and between two classes adjacency is all or nothing, so perm is
    one exactly when it sends every class onto a single class, the class
    of its first member's image, and lmap sends each quotient edge (c, d),
    c a vector class, to an edge.  Classes are equal in size, so lmap is
    a bijection; every edge has a vector end, so it sends the finite edge
    set into, hence onto, itself.  Only a failing perm is scanned row by
    row, to name its first broken edge: every edge has one vector endpoint
    x, so only the vector rows are read.  A perm of another graph raises
    ValueError."""
    lof, img = g.line_index(), _image_on(g, perm)
    cls = _gather(lof, img)
    lmap = list(_gather(cls, g.line_firsts()))
    half, nbrs = len(lmap) // 2, g.line_neighbors()
    images = map(map, repeat(lmap.__getitem__), nbrs[:half])  # mapped neighbours
    if _gather(lmap, lof) == cls and all(map(
            frozenset.issuperset, map(nbrs.__getitem__, lmap), images)):
        return lmap
    adj = g.adj
    # the test accepts every automorphism, and a bijection that keeps every
    # edge is one, so some edge breaks
    edge = next((x, y) for x, ys in enumerate(_row_lists(adj[:g.nv]))
                for y in ys if not (adj[img[x]] >> img[y]) & 1)
    raise LineActionError("perm is not an automorphism", edge)


def automorphism_defect(g: LfGraph, perm: VertexPerm):
    """None if perm preserves adjacency, else the broken edge (x, y) that
    line_action names."""
    try:
        line_action(g, perm)
    except LineActionError as e:
        return e.witness
    return None


def is_automorphism(g: LfGraph, perm: VertexPerm) -> bool:
    return automorphism_defect(g, perm) is None


# ---------- generators ----------

def chi_p(g: LfGraph, P) -> VertexPerm:
    """v -> P v on vectors, f_u -> f_{(P^-1)^T u} on functionals."""
    return VertexPerm._of(g, _semilinear(g, P, 0))


def pi_extend(g: LfGraph, j: int) -> VertexPerm:
    """Coordinatewise field automorphism a -> a^(p^j) on both sides."""
    return VertexPerm._of(g, _semilinear(g, _matrix(g.n, {}), j))


def sigma_swap(g: LfGraph) -> VertexPerm:
    """Exchange each vector with the functional of the same coordinates."""
    return VertexPerm._of(g, _side_swap(g))


def _class_escape(g: LfGraph, image) -> int | None:
    """The least vertex that image sends out of its twin class, or None."""
    lof = g.line_index()
    if _gather(lof, image) == lof:
        return None
    return next(v for v, t in enumerate(image) if lof[t] != lof[v])


def tau_from_table(g: LfGraph, table: dict[int, int]) -> VertexPerm:
    """Permute members inside twin classes; unlisted vertices stay fixed.

    Each listed entry must stay inside its class, and the result must be a
    bijection.
    """
    image = list(range(nv := g.num_vertices))
    for src, dst in table.items():
        if not _ids_below((src, dst), nv):
            raise ValueError(f"vertex id out of range in entry {src!r} -> {dst!r}")
        image[src] = dst
    v = _class_escape(g, image)
    if v is not None:
        raise ValueError(f"entry {v} -> {image[v]} crosses twin classes")
    return VertexPerm(g, image)


def _lift(g: LfGraph, targets) -> tuple:
    """The image sending the k-th member of class c to targets[c][k]: one
    gather at member_positions().  With targets[c] the members of class
    lmap[c], it is the member-order lift of lmap, which line_action reads."""
    return _gather(tuple(chain.from_iterable(targets)), g.member_positions())


def _lift_classes(g: LfGraph, lmap) -> tuple:
    """The member-order lift of the class map lmap."""
    return _lift(g, [line.members for line in _gather(g.lines(), lmap)])


def _phi_classes(g: LfGraph, phi) -> list[int]:
    """The class map of phi_bar(phi), after checking phi.  Functional class
    (1, s) goes to (1, phi(s)), so (0, 1) and (1, 0) stay fixed; a vector
    class goes to the partner of its partner's image, as the orthogonal
    pairing forces."""
    if g.n != 2:
        raise ValueError("phi_bar is defined for n = 2 only")
    q = g.q
    phi = tuple(phi)
    if (len(phi) != q or not _ids_below(phi, q) or phi[0] != 0
            or len(set(phi)) != q):
        raise ValueError("phi must be a permutation of the field fixing 0")
    # lines() lists (0, 1), then (1, s) in field order: class 1 + s a side
    fun = [0] + [1 + t for t in phi]
    partner = g.line_partners()
    return [partner[fun[p]] for p in partner] + [q + 1 + c for c in fun]


def phi_bar(g: LfGraph, phi) -> VertexPerm:
    """Extend a zero-fixing permutation phi of GF(q) to the n = 2 graph.

    f_{a e1 + b e2} -> f_{a e1 + a phi(b/a) e2} when a != 0, else fixed;
    c e1 + d e2 -> c e1 - c phi(-c/d)^-1 e2 when c d != 0, else fixed.
    Both keep the first coordinate, which orders the members of every
    class they move, so phi_bar is the member-order lift of _phi_classes.
    """
    return VertexPerm._of(g, _lift_classes(g, _phi_classes(g, phi)))


def _delta_impl(g: LfGraph, lmap) -> VertexPerm:
    half = len(lmap) // 2
    partner = g.line_partners()
    # a component counts as crossed when lmap sends some vector class onto
    # its functional part; the flag lives on the target component, not the
    # source, so that delta(V) = rho(V) as sets
    crossed = {partner[c - half] for c in lmap[:half] if c >= half}
    # a crossed class a trades places with a functional class: its own
    # mirror when the partner component crosses too (or a = partner[a]),
    # else the functional part of its own component; no two trades share
    # a class, so their order does not matter
    swaps = list(range(2 * half))
    for a in crossed:
        b = half + (a if partner[a] in crossed else partner[a])
        swaps[a], swaps[b] = b, a
    # delta(V) = rho(V) needs no check: an automorphism moves each component
    # whole onto one component with one side decision (STRUCT-N2), so rho(V)
    # meets each component in the part crossed records, where swaps sends V
    return VertexPerm._of(g, _lift_classes(g, swaps))


def delta_for(g: LfGraph, rho: VertexPerm) -> VertexPerm:
    """The n = 2 side-swap automorphism matching rho's crossing pattern.

    A component is crossed when rho maps some vector line onto its
    functional part.  delta mirrors both components of an orthogonal pair
    when both are crossed and swaps the two parts inside the component
    when only one is, so delta(V) = rho(V) and delta^-1 . rho maps the
    vector side to itself.  A rho that is no automorphism raises
    line_action's LineActionError, a ValueError.
    """
    if g.n != 2:
        raise ValueError("delta_for applies to n = 2 only")
    return _delta_impl(g, line_action(g, rho))


# ---------- structure checks ----------

class StructureVerdict(namedtuple("StructureVerdict", "side_behavior")):
    __slots__ = ()  # side_behavior: "preserved", "swapped" or "mixed"

    def ok(self) -> bool:
        """True for every verdict check_structure returns, as it raises
        LineActionError on a permutation that is no automorphism."""
        return True


def _intersection_holds(g: LfGraph) -> tuple[bool, object]:
    """The neighbourhood intersection identity, a fact about the graph:
    F_H is the intersection of N(i) over the vector classes i with F_H in
    N(i), so functional class j is the only class adjacent to every vector
    class in row j of line_adjacency().  An automorphism's class map
    preserves line_adjacency() and so carries the identity over."""
    rows = g.line_adjacency()
    for j in range(len(rows) // 2, len(rows)):
        inter = -1
        for i in _bit_list(rows[j]):
            inter &= rows[i]
        if inter != 1 << j:
            return False, {"fun_class": j}
    return True, None


def check_structure(g: LfGraph, perm: VertexPerm) -> StructureVerdict:
    """The side behaviour of an automorphism, read off line_action's class
    map, which raises LineActionError on a non-automorphism.  The other
    structural facts hold on every automorphism it accepts:
    - neighbourhoods commute, as automorphisms map N(x) onto N(perm(x));
    - at n = 2 each component lands whole in one component;
    - an n >= 3 graph is connected, so the sides are kept or swapped whole;
    - the class map (through sigma when swapped) carries the graph's
      intersection identity, which _intersection_holds checks."""
    lmap = line_action(g, perm)
    half = len(lmap) // 2
    crossing = sum(1 for c in lmap[:half] if c >= half)
    return StructureVerdict("preserved" if crossing == 0 else
                            "swapped" if crossing == half else "mixed")


# ---------- enumeration ----------

# vertex-level searches (enumeration, class stabilizers) are guarded at
# this many vertices, and the quotient search and component isomorphisms at
# this many classes per side
MAX_ENUM_VERTICES = 20
MAX_QUOTIENT_CLASSES = 40


def _narrow(adj: list[int], cands: list[int], rest, v: int, c: int):
    """A copy of the candidate masks cands with v mapped to c: each u in
    rest keeps the candidates other than c whose adjacency to c matches
    u's to v.  None when some mask empties.  With c = v and every mask
    holding its own vertex, no mask empties."""
    out = cands.copy()
    out[v] = 1 << c
    av, ac, notc = adj[v], adj[c], ~(1 << c)
    for u in rest:
        cu = out[u] & notc & (ac if (av >> u) & 1 else ~ac)
        if not cu:
            return None
        out[u] = cu
    return out


def _automorphism_search(adj: list[int], cands: list[int], free,
                         collect: list | None = None):
    """Search the adjacency-preserving injections of the vertices in free
    into the graph given as bitset rows.  (cands, free) is the search
    state: cands[v] is the mask of vertices v may map to, free lists the
    vertices still to map in ascending order, and every other vertex maps
    to itself.  With every vertex free these maps are automorphisms; the
    masks colour the search, so only colour-respecting maps are found.
    With some vertices fixed they are the automorphisms fixing them, when
    the free masks already agree with each fixed vertex's adjacency and
    exclude it, as _narrow leaves them.  Return the first complete map as
    an image tuple (None if there is none), or, given a list collect,
    append every map to it.  Plain forward-checking backtracking; no
    structural assumptions."""
    image = list(range(len(adj)))

    def rec(cands: list[int], rest: list[int]):
        if not rest:
            if collect is None:
                return tuple(image)
            collect.append(tuple(image))
            return
        # the first unassigned vertex with the fewest candidates
        i, best = 0, cands[rest[0]].bit_count()
        for j in range(1, len(rest)):
            if best <= 1:
                break
            pc = cands[rest[j]].bit_count()
            if pc < best:
                i, best = j, pc
        v = rest.pop(i)
        # most masks here hold one bit; best == 0 gives no candidate
        for c in [cands[v].bit_length() - 1] if best == 1 else _bit_list(cands[v]):
            ncands = _narrow(adj, cands, rest, v, c)
            if ncands is not None:
                image[v] = c
                hit = rec(ncands, rest)
                if hit is not None:
                    return hit
        rest.insert(i, v)

    return rec(cands, list(free))  # rec pops from its list; a hit skips the insert


def _count_by_orbits(adj: list[int], cands: list[int], free) -> tuple[int, int]:
    """The order of the group G of maps _automorphism_search finds from
    the state (cands, free), each free vertex's mask holding its own
    vertex, and the first-hit searches run.  Orbit-stabilizer: |G| is
    the product of |v_i^(G_i)| over the free vertices v_i, G_i fixing
    v_0 .. v_(i-1) (Seress, Permutation Group Algorithms, ch. 4).  Levels
    are settled deepest first (McKay, Practical graph isomorphism, 1981):
    a map found at level j is in every G_i with i <= j, so v_i's orbit
    starts closed under every map found.  Each other candidate w costs
    one complete search pinning v_i -> w from level i's state: a hit
    joins the maps and closes the orbit again, a miss rules out w's orbit.

    After fixing v_i the chain also fixes every vertex u whose mask is now
    {u}, until none is left: refinement that splits only single-vertex
    cells.  It stays exact.  Every mask holds its vertex's orbit under
    G_i, so a mask {u} means every map in G_i fixes u: fixing u as well
    leaves G_i the same group and narrows the other masks only by facts
    G_i keeps.  u's own level would have orbit {u}, a factor of 1, so it
    gets none.  A map found at level j fixes every vertex fixed before
    level j, so the orbit closing is unchanged."""
    pins, levels, rest = list(cands), [], list(free)
    while rest:  # v_i is the first vertex the chain has not fixed
        v = rest[0]
        levels.append((v, pins, rest))
        rest = rest[1:]
        fix = [v]  # v, then each vertex left with only itself
        for u in fix:  # a map fixing u keeps every vertex's adjacency to u
            pins = _narrow(adj, pins, rest, u, u)
            fix += [w for w in rest if pins[w] == 1 << w]
            rest = [w for w in rest if pins[w] != 1 << w]
    found, order, searches = [], 1, 0
    for v, pins, rest in reversed(levels):
        orbit, ruled_out = _orbit(found, v), set()
        for w in _bit_list(pins[v]):
            if w in orbit or w in ruled_out:
                continue
            pins[v] = 1 << w
            hit = _automorphism_search(adj, pins, rest)
            searches += 1
            if hit is None:
                ruled_out.update(_orbit(found, w))
            else:
                found.append(hit)
                orbit = _orbit(found, v)
        order *= len(orbit)
    return order, searches


def _uncoloured(adj: list[int]) -> list[int]:
    """Every vertex may map to every vertex.  The graph and its class
    quotient are regular, so a degree colouring would be one colour."""
    return [(1 << len(adj)) - 1] * len(adj)


def _check_enum_size(g: LfGraph) -> None:
    if g.num_vertices > MAX_ENUM_VERTICES:
        raise GuardError("vertex-level enumeration is limited to "
                         f"{MAX_ENUM_VERTICES} vertices")


def _check_class_count(g: LfGraph) -> None:
    half = len(g.lines()) // 2
    if half > MAX_QUOTIENT_CLASSES:
        raise GuardError(
            f"{half} classes per side is over the {MAX_QUOTIENT_CLASSES} guard")


def all_automorphisms(g: LfGraph) -> tuple:
    """Every automorphism as an image tuple, via direct vertex search."""
    _check_enum_size(g)
    out: list = []
    _automorphism_search(g.adj, _uncoloured(g.adj), range(len(g.adj)), out)
    return tuple(out)


def iter_automorphisms(g: LfGraph):
    for img in all_automorphisms(g):
        yield VertexPerm._of(g, img)


def quotient_adjacency(g: LfGraph) -> list[int]:
    """Bitset adjacency of the class quotient (classes as single nodes),
    LfGraph.line_adjacency under the quotient search's class guard."""
    _check_class_count(g)
    return list(g.line_adjacency())


def count_automorphisms(g: LfGraph, method: str = "quotient") -> int:
    """Exact automorphism count, by orbit-stabilizer with first-hit
    searches (_count_by_orbits); only all_automorphisms enumerates.

    method "vertex": the group of the graph itself (small graphs).
    method "quotient": the group of the class quotient, multiplied by the
    within-class factor ((q-1)!)^(2M); any quotient automorphism lifts
    because classes are twins of size q-1.
    """
    return _count_with_searches(g, method)[0]


def _count_with_searches(g: LfGraph, method: str) -> tuple[int, int]:
    """count_automorphisms, and the number of first-hit searches it ran."""
    if method == "vertex":
        _check_enum_size(g)
        return _count_by_orbits(g.adj, _uncoloured(g.adj), range(len(g.adj)))
    if method == "quotient":
        qadj = quotient_adjacency(g)
        base, searches = _count_by_orbits(qadj, _uncoloured(qadj), range(len(qadj)))
        m = len(qadj) // 2
        return base * math.factorial(g.q - 1) ** (2 * m), searches
    raise ValueError(f"unknown method {method!r}")


def count_class_stabilizers(g: LfGraph) -> int:
    """Automorphisms that map every twin class to itself, counted by
    orbit-stabilizer with each vertex coloured by its own class."""
    _check_enum_size(g)
    masks = [g.line_mask(line) for line in g.lines()]
    return _count_by_orbits(g.adj, _gather(masks, g.line_index()),
                            range(g.num_vertices))[0]


def count_component_isomorphisms(g: LfGraph) -> int:
    """Adjacency-preserving bijections from the first component onto the
    second (n = 2 only).  They form the coset phi . Aut(C0) of any one of
    them, phi, so the count is [one first-hit search finds phi] times
    |Aut(C0)|, counted by orbit-stabilizer with C0 mapped into itself."""
    if g.n != 2:
        raise ValueError("component isomorphisms are counted for n = 2 only")
    _check_class_count(g)
    src, dst = islice(g.component_masks(), 2)
    n, members = g.num_vertices, _bit_list(src)
    if _automorphism_search(g.adj, [dst] * n, members) is None:
        return 0
    return _count_by_orbits(g.adj, [src] * n, members)[0]


# ---------- closed-form counts ----------

def _classes_a_side(q: int, n: int) -> int:
    """M = (q^n - 1)/(q - 1), once (q, n) passes build's guard and q is a
    prime power; every closed form starts here."""
    nv = _build_guard(q, n)
    factor_prime_power(q)
    return nv // (q - 1)


def formula_card_n2(q: int) -> int:
    """(q+1)! * (2 ((q-1)!)^2)^(q+1)"""
    m = _classes_a_side(q, 2)  # q + 1
    return math.factorial(m) * (2 * math.factorial(q - 1) ** 2) ** m


def formula_card_general(q: int, n: int) -> int:
    """2 * M! * ((q-1)!)^(2M) with M = (q^n - 1)/(q - 1), for n >= 3."""
    m = _classes_a_side(q, n)
    if n < 3:
        raise ValueError("the general count applies to n >= 3")
    return 2 * math.factorial(m) * math.factorial(q - 1) ** (2 * m)


def formula_twin_stabilizer(q: int, n: int) -> int:
    """((q-1)!)^(2M): automorphisms fixing every class setwise."""
    m = _classes_a_side(q, n)
    return math.factorial(q - 1) ** (2 * m)


def formula_component_isos(q: int) -> int:
    """2 ((q-1)!)^2: isomorphisms between two n = 2 components."""
    _classes_a_side(q, 2)
    return 2 * math.factorial(q - 1) ** 2


# ---------- randomized construction helpers ----------

def random_twin_permutation(g: LfGraph, rng) -> VertexPerm:
    """A random member shuffle inside every twin (scalar) class."""
    dst = [list(line.members) for line in g.lines()]
    for members in dst:
        rng.shuffle(members)
    return VertexPerm._of(g, _lift(g, dst))


def random_automorphism(g: LfGraph, rng) -> VertexPerm:
    """A random automorphism built constructively (seeded, reproducible).

    For n >= 3 this samples the generator chain sigma^s.chi_P.pi_j.tau.
    For n = 2 it samples a component permutation with independent part
    bijections, which covers asymmetric side-crossing patterns too.
    """
    F = g.field
    if g.n >= 3:
        # draw order: P, j, tau, then the swap coin
        P = random_invertible(F, g.n, rng)
        j = rng.randrange(F.k)
        tau = random_twin_permutation(g, rng)
        return compose(g, Decomposition(rng.random() < 0.5, None, P, j, None, tau))
    lines = g.lines()
    half = len(lines) // 2
    partner = g.line_partners()
    target = list(range(half))
    rng.shuffle(target)
    dst = [None] * len(lines)
    for i, t in enumerate(target):
        vec_dst = list(lines[t].members)
        fun_dst = list(lines[half + partner[t]].members)
        if rng.random() < 0.5:
            vec_dst, fun_dst = fun_dst, vec_dst
        rng.shuffle(vec_dst)
        rng.shuffle(fun_dst)
        dst[i], dst[half + partner[i]] = vec_dst, fun_dst
    return VertexPerm._of(g, _lift(g, dst))


# ---------- decomposition ----------

class DecompositionError(Exception):
    def __init__(self, step: str, witness):
        super().__init__(f"decomposition failed at step {step!r}")
        self.step = step
        self.witness = witness


class Decomposition:
    """Generator factorization of one automorphism.

    n >= 3: sigma^swap . chi_P . pi_frob . tau     (delta, phi unused)
    n  = 2: delta . chi_P . phi_bar(phi) . tau     (swap, frob unused)
    """
    __slots__ = ("swap", "delta", "P", "frob", "phi", "tau")

    def __init__(self, swap: bool, delta: VertexPerm | None, P: tuple,
                 frob: int | None, phi: tuple | None, tau: VertexPerm):
        self.swap, self.delta, self.P = swap, delta, P
        self.frob, self.phi, self.tau = frob, phi, tau


def _chain(g: LfGraph, swap, delta, P, frob, phi) -> list[int] | tuple:
    """Image of a decomposition's generator part: sigma^swap . chi_P .
    pi_frob for n >= 3, delta . chi_P . phi_bar(phi) for n = 2."""
    if g.n >= 3:
        if frob is None or phi is not None or delta is not None:
            raise ValueError("n >= 3 decompositions use swap/P/frob/tau only")
        image = _semilinear(g, P, frob)
        return _gather(_side_swap(g), image) if swap else image
    if phi is None or frob is not None or swap:
        raise ValueError("n = 2 decompositions use delta/P/phi/tau only")
    image = _gather(chi_p(g, P).image, _lift_classes(g, _phi_classes(g, phi)))
    return image if delta is None else _gather(_image_on(g, delta, "delta"), image)


def compose(g: LfGraph, d: Decomposition) -> VertexPerm:
    """Multiply a decomposition back into a single vertex permutation.
    A tau or delta of another graph raises ValueError."""
    gen = _chain(g, d.swap, d.delta, d.P, d.frob, d.phi)
    return VertexPerm._of(g, _gather(gen, _image_on(g, d.tau, "tau")))


def decompose(g: LfGraph, perm: VertexPerm) -> Decomposition:
    """Factor an automorphism into generators; see Decomposition.

    Raises DecompositionError naming the step and a witness: not-automorphism
    (the broken edge), or frobenius or twin-residual for the facts the class
    test leaves unproved.
    """
    try:
        lmap = line_action(g, perm)
    except LineActionError as e:
        raise DecompositionError("not-automorphism", {"edge": e.witness}) from None
    return (_decompose_general if g.n >= 3 else _decompose_n2)(g, perm, lmap)


def _basis_change(g: LfGraph, rho_p):
    """P, whose columns are the coordinates of rho_p(e_i).  rho_p agrees up to
    the mirror with rho' = sigma^swap . rho (delta . rho at n = 2), which
    keeps the vector side, so P is invertible: were its columns dependent,
    a functional would meet them all, and its preimage under rho' every e_i."""
    # e_i is the packed value q^(n-1-i)
    return tuple(zip(*(_coords(g, rho_p(g.q ** (g.n - 1 - i) - 1))
                       for i in range(g.n))))


def _residual(g: LfGraph, rho: VertexPerm, gen) -> VertexPerm:
    """tau = chain(gen)^-1 . rho, which must fix every twin class."""
    tau = _gather(_inverse(_chain(g, *gen)), rho.image)
    v = _class_escape(g, tau)
    if v is not None:
        raise DecompositionError("twin-residual", {"vertex": v, "image": tau[v]})
    return VertexPerm._of(g, tau)


def _decompose_general(g: LfGraph, rho: VertexPerm, lmap) -> Decomposition:
    F = g.field
    n, q = g.n, g.q
    img = rho.image
    # an n >= 3 graph is connected (CONN), so an automorphism keeps or
    # swaps the sides whole, and the image of one class tells which
    swap = lmap[0] >= len(lmap) // 2
    # rho' = sigma^swap . rho keeps the vector side; a vertex and its mirror
    # share coordinates, so chi_P^-1 . rho' is P^-1 on rho's coordinates
    P = _basis_change(g, img.__getitem__)
    add, mul, inv = F._add, F._mul, F._inv

    def dot(u, w):
        acc = 0
        for a, b in zip(u, w):
            acc = add[acc][mul[a][b]]
        return acc

    # row i of P^-1, read off u = the coordinates of rho(f_{e_i}), as
    # u / (u . P_i) with P_i column i of P.  rho and sigma are
    # automorphisms (line_action), so rho' is one and keeps the sides:
    # f_{e_i} meets every e_k but e_i, so rho'(f_{e_i}) = f_u meets every
    # rho'(e_k), coordinates P_k, but rho'(e_i).  Then u . P_k = 0 for
    # k != i and u . P_i != 0, and u / (u . P_i) times P is e_i^T.
    Pinv = []
    for i, col in enumerate(zip(*P)):
        u = _coords(g, img[g.nv + q ** (n - 1 - i) - 1])
        scale = mul[inv[dot(u, col)]]
        Pinv.append([scale[a] for a in u])

    # chi_P^-1 . rho' fixes e1 and e_axis, so it keeps the functional classes
    # meeting both and the line of the two classes: the image of e1 + a*e_axis
    # is x*e1 + y*e_axis, x != 0 (not in e_axis's class), y != 0 for a != 0
    def trace(axis, a):  # y / x for the image of e1 + a*e_axis
        w = _coords(g, img[q ** (n - 1) + a * q ** (n - 1 - axis) - 1])
        return mul[dot(Pinv[axis], w)][inv[dot(Pinv[0], w)]]

    # the axis-1 table must be a scaled Frobenius power, hence a bijection
    tab = [0] + [trace(1, a) for a in F.units()]
    pi_norm = [mul[t][inv[tab[1]]] for t in tab]
    jstar = next((j for j, row in enumerate(F._frob) if pi_norm == row), None)
    if jstar is None:
        raise DecompositionError("frobenius", {"pi": pi_norm})

    # e1 + e_axis fixes the scale of P's column axis
    diag = [1, tab[1]] + [trace(axis, 1) for axis in range(2, n)]
    gen = (swap, None, tuple(tuple(mul[a][d] for a, d in zip(row, diag))
                             for row in P), jstar, None)
    return Decomposition(*gen, _residual(g, rho, gen))


def _decompose_n2(g: LfGraph, rho: VertexPerm, lmap) -> Decomposition:
    F = g.field
    delta = _delta_impl(g, lmap)
    # rho' = delta^-1 . rho keeps the vector side; delta exchanges vertex
    # pairs, so it is its own inverse
    dimg, img = delta.image, rho.image
    P = _basis_change(g, lambda v: dimg[img[v]])
    # chi_P^-1 . rho' sends f_u to f_{P^T u} for u = rho'(f_{e1 + s e2}).  It
    # fixes the classes of e1 and e2, so their one neighbour classes f_(0,1)
    # and f_(1,0) too, and permutes the other classes f_(1,s): each monic rep
    # is (1, phi(s)), and phi is a bijection fixing 0.  With P = ((a, b),
    # (c, d)) and u = (x, y), P^T u = (ax + cy, bx + dy), so phi(s) is
    # (bx + dy) / (ax + cy), where ax + cy != 0 as f_(0,1)'s class is fixed
    (a, b), (c, d) = P
    q, nv, add, mul, inv = g.q, g.nv, F._add, F._mul, F._inv
    phi = tuple(mul[add[mul[b][x]][mul[d][y]]][inv[add[mul[a][x]][mul[c][y]]]]
                for x, y in (divmod(dimg[img[v]] + 1 - nv, q)
                             for v in range(nv + q - 1, nv + 2 * q - 1)))
    gen = (False, delta, P, None, phi)
    return Decomposition(*gen, _residual(g, rho, gen))


# ---------- serialization ----------

def _header(g: LfGraph) -> dict:
    """q, n and the field's p, k and modulus, as documents name them."""
    F = g.field
    return {"q": g.q, "n": g.n, "p": F.p, "k": F.k,
            "modulus": None if F.modulus is None else list(F.modulus)}


def perm_to_json(perm: VertexPerm) -> str:
    return json.dumps({**_header(perm.g), "image": list(perm.image)},
                      separators=(",", ":"))


def _read_doc(text, what: str, keys, g: LfGraph | None):
    """The parsed document and its graph, built over the document's
    modulus when g is None; a malformed header raises ValueError, never
    TypeError.  p, k and modulus are optional, but must match the field."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"{what} document is not a JSON object")
    for key in ("q", "n") + keys:
        if key not in doc:
            raise ValueError(f"{what} document is missing {key!r}")
    modulus = doc.get("modulus")
    ints = [doc[key] for key in ("q", "n", "p", "k") if key in doc]
    if type(modulus) not in (list, type(None)) or any(
            type(x) is not int for x in ints + (modulus or [])):
        raise ValueError(f"{what} document needs integer q, n, p and k, and "
                         "an integer list or null modulus")
    if g is None:
        g = build(field_from_order(doc["q"], modulus), doc["n"])
    if any(doc.get(key, value) != value for key, value in _header(g).items()):
        raise ValueError(f"{what} document does not match the graph")
    return doc, g


def _ids(value, length, bound, what) -> tuple:
    """value, a list of length ints in [0, bound), as a tuple; no bools."""
    if (not isinstance(value, list) or len(value) != length
            or not _ids_below(value, bound)):
        raise ValueError(f"bad {what} document")
    return tuple(value)


def perm_from_json(text, g: LfGraph | None = None) -> VertexPerm:
    doc, g = _read_doc(text, "permutation", ("image",), g)
    nv = g.num_vertices
    return VertexPerm(g, _ids(doc["image"], nv, nv, "'image' in permutation"))


def _tau_keys(g: LfGraph) -> dict:
    """Each class of lines() under its key in a document's tau tables."""
    return {f"{line.side}:{','.join(map(str, line.rep))}": line
            for line in g.lines()}


def decomposition_to_json(g: LfGraph, d: Decomposition) -> str:
    doc = {**_header(g), "swap": d.swap, "P": [list(row) for row in d.P],
           "frob": d.frob, "phi": None if d.phi is None else list(d.phi),
           "delta": None if d.delta is None else list(d.delta.image),
           "tau": {key: [d.tau.image[m] for m in line.members]
                   for key, line in _tau_keys(g).items()
                   if any(d.tau.image[m] != m for m in line.members)}}
    return json.dumps(doc, separators=(",", ":"))


def decomposition_from_json(text, g: LfGraph | None = None) -> Decomposition:
    doc, g = _read_doc(text, "decomposition",
                       ("swap", "P", "frob", "phi", "delta", "tau"), g)

    if type(doc["swap"]) is not bool:
        raise ValueError("bad 'swap' in decomposition document")
    frob = doc["frob"]
    if frob is not None and not _ids_below((frob,), g.field.k):
        raise ValueError("bad 'frob' in decomposition document")
    phi = (None if doc["phi"] is None
           else _ids(doc["phi"], g.q, g.q, "'phi' in decomposition"))
    if not isinstance(doc["P"], list) or len(doc["P"]) != g.n:
        raise ValueError("bad 'P' in decomposition document")
    P = tuple(_ids(row, g.n, g.q, "'P' row in decomposition") for row in doc["P"])
    if not isinstance(doc["tau"], dict):
        raise ValueError("bad 'tau' in decomposition document")
    by_key = _tau_keys(g)
    table: dict[int, int] = {}
    for key, images in doc["tau"].items():
        line = by_key.get(key)
        if line is None:
            raise ValueError(f"bad tau table for {key!r}")
        images = _ids(images, len(line.members), g.num_vertices,
                      f"tau table for {key!r} in decomposition")
        table.update(zip(line.members, images))
    tau = tau_from_table(g, table)
    nv = g.num_vertices
    delta = (None if doc["delta"] is None
             else VertexPerm(g, _ids(doc["delta"], nv, nv, "'delta' in decomposition")))
    try:  # a genuine delta is the side swap its own crossing pattern calls for
        genuine = delta is None or delta == delta_for(g, delta)
    except ValueError:  # no automorphism, or n >= 3
        genuine = False
    if not genuine:
        raise ValueError("bad 'delta' in decomposition document")
    _chain(g, doc["swap"], delta, P, frob, phi)  # raises where compose would
    return Decomposition(doc["swap"], delta, P, frob, phi, tau)
