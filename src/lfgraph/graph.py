"""The orthogonality graph of nonzero vectors and functionals of GF(q)^n.

One side of the graph holds the q^n - 1 nonzero column vectors, the other
holds the q^n - 1 nonzero functionals (row vectors); functional f_u is
adjacent to vector v exactly when u . v = 0.  Vertex ids are lexicographic:
vectors come first (id = lex rank of coords among nonzero tuples), then
functionals at the same rank offset by q^n - 1.

Adjacency rows are Python ints used as bitsets (bit i = vertex id i), which
keeps set algebra exact and fast at the sizes this package targets.
"""

from __future__ import annotations

import gc
import json
from binascii import a2b_base64, b2a_base64
from functools import cache
from itertools import chain, product, repeat
from math import isqrt
from operator import itemgetter, mul

from .gf import Field, GuardError, _ids_below

VEC = "vec"
FUN = "fun"

# build refuses graphs over this many vertices, and branch-and-bound
# domination any graph with a connected component over this many
MAX_BUILD_VERTICES = 100_000
MAX_SEARCH_VERTICES = 2046


_BYTE_BITS = tuple(tuple(i for i in range(8) if (b >> i) & 1)
                   for b in range(256))


def _bit_list(mask: int) -> list[int]:
    """The set bit positions of mask in increasing order, decoded a byte
    at a time, so the cost is linear in the width of mask."""
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return [8 * i + b for i, byte in enumerate(data) if byte
            for b in _BYTE_BITS[byte]]


def _gather(seq, idx) -> tuple:  # seq[i] for i in idx in C; len(idx) > 1
    return itemgetter(*idx)(seq)


def _inverse(image, start: int = 0) -> list[int]:
    """The list inv with inv[image[i]] = start + i, for image a permutation
    of range(len(image)): image's inverse when start is 0."""
    inv = [0] * len(image)
    for v, t in enumerate(image, start):
        inv[t] = v
    return inv


def _coords(g: LfGraph, vid: int) -> list[int]:
    """The coordinates of vertex vid, either side, with no range check."""
    r, q = vid % g.nv + 1, g.q
    return [r // q ** e % q for e in range(g.n - 1, -1, -1)]


def _row_lists(rows, decode=_bit_list):
    """Yield decode(row) for each row, decoding lazily; equal rows (twins)
    share one decoded list."""
    seen: dict[int, list] = {}
    for r in rows:
        ys = seen.get(r)
        if ys is None:
            ys = seen[r] = decode(r)
        yield ys


class Line:
    """A scalar class: all nonzero multiples of one monic representative,
    members its vertex ids, ascending.  Equal and hashed by value."""
    __slots__ = ("side", "rep", "members")

    def __init__(self, side: str, rep: tuple, members: tuple):
        self.side, self.rep, self.members = side, rep, members

    def __eq__(self, other):
        return isinstance(other, Line) and (self.side, self.rep, self.members) == (
            other.side, other.rep, other.members)

    def __hash__(self):
        return hash((self.side, self.rep, self.members))


class LfGraph:
    """Built by build(); treat instances as immutable once constructed."""

    def __init__(self, field: Field, n: int, adj: list[int]):
        self.field = field
        self.n = n
        self.q = field.q
        self.nv = field.q ** n - 1  # vertices per side
        self.adj = adj
        self._lines = None
        self._line_of = None
        self._pos = self._firsts = self._partners = None
        self._line_adj = None
        self._line_nbrs = None

    # ---------- vertex indexing ----------

    @property
    def num_vertices(self) -> int:
        return 2 * self.nv

    def vec_id(self, coords) -> int:
        q = self.q
        if len(coords) != self.n:
            raise ValueError(f"{len(coords)} coordinates, expected {self.n}")
        r = 0
        for c in coords:
            if not _ids_below((c,), q):
                raise ValueError(f"coordinate {c!r} is outside [0, {q})")
            r = r * q + c
        if r == 0:
            raise ValueError("the zero vector is not a vertex")
        return r - 1

    def fun_id(self, coords) -> int:
        return self.vec_id(coords) + self.nv

    def _vertex(self, vid: int) -> int:
        """vid, once it is a vertex id: the id readers and is_dominating
        refuse anything else here, a bool or a float too."""
        if not _ids_below((vid,), self.num_vertices):
            raise ValueError(f"{vid!r} is not a vertex id")
        return vid

    def is_vec(self, vid: int) -> bool:
        return self._vertex(vid) < self.nv

    def coords_of(self, vid: int) -> tuple[str, tuple]:
        return (VEC if self.is_vec(vid) else FUN), tuple(_coords(self, vid))

    # ---------- basic invariants ----------

    def degree(self, vid: int) -> int:
        return self.adj[self._vertex(vid)].bit_count()

    def check_regular(self) -> bool:
        want = self.q ** (self.n - 1) - 1
        return all(row.bit_count() == want for row in self.adj)

    def edges(self) -> list[tuple[int, int]]:
        """Every (vector, functional) edge, sorted.  The tuples share one id
        list's ints, and gc is paused meanwhile: an int pair is in no cycle."""
        ids, out, was = list(range(self.num_vertices)), [], gc.isenabled()
        gc.disable()
        try:
            for v, fs in enumerate(_row_lists(self.adj[:self.nv], lambda r: [
                    *map(ids.__getitem__, _bit_list(r))])):
                out += zip(repeat(v), fs)
        finally:
            if was:
                gc.enable()
        return out

    def components(self) -> list[list[int]]:
        return [_bit_list(comp) for comp in self.component_masks()]

    def component_masks(self):
        """Yield each connected component as a bitset, in order of its
        least vertex."""
        adj = self.adj
        unseen = (1 << self.num_vertices) - 1
        while unseen:
            comp = 0
            frontier = unseen & -unseen
            while frontier:
                comp |= frontier
                nxt = 0
                # build gives the members of a class one shared row object,
                # so each distinct row is ORed once
                rows = map(adj.__getitem__, _bit_list(frontier))
                for row in {id(r): r for r in rows}.values():
                    nxt |= row
                frontier = nxt & ~comp
            unseen &= ~comp
            yield comp

    # ---------- scalar classes ----------

    def lines(self) -> list[Line]:
        """Scalar classes, vector side first, each side in lex order of rep."""
        if self._lines is None:
            F, q = self.field, self.q
            # monic reps in lex order: leading 1 followed by m free digits
            reps = [(0,) * (self.n - 1 - m) + (1,) + tail
                    for m in range(self.n) for tail in product(range(q), repeat=m)]
            # a member's id is its base-q value - 1; its digits come from the
            # field tables, so vec_id's checks are skipped
            place = [q ** e for e in range(self.n - 1, -1, -1)]
            vec_lines = [Line(VEC, rep, tuple(sorted(
                sum(map(mul, map(F._mul[r].__getitem__, rep), place)) - 1
                for r in F.units()))) for rep in reps]
            self._lines = vec_lines + [
                Line(FUN, ln.rep, tuple(t + self.nv for t in ln.members)) for ln in vec_lines]
        return self._lines

    def line_index(self) -> tuple[int, ...]:
        """Each vertex id's class index; the pass fills member_positions()."""
        if self._line_of is None:
            lof, pos = [0] * self.num_vertices, [0] * self.num_vertices
            for idx, line in enumerate(self.lines()):
                for k, m in enumerate(line.members, idx * (self.q - 1)):
                    lof[m], pos[m] = idx, k
            self._line_of, self._pos = tuple(lof), tuple(pos)
        return self._line_of

    def member_positions(self) -> tuple[int, ...]:
        """Each vertex id's place in lines()' members end to end."""
        self.line_index()
        return self._pos

    def line_firsts(self) -> list[int]:
        """The first member of each class of lines()."""
        if self._firsts is None:
            self._firsts = [ln.members[0] for ln in self.lines()]
        return self._firsts

    def line_adjacency(self) -> tuple[int, ...]:
        """The class quotient: one bitset row per class of lines(), bit d
        of row c set when classes c and d are adjacent."""
        if self._line_adj is None:
            # at q = 2 each class is one vertex, and lines() lists them by id
            self._line_adj = tuple(self.adj) if self.q == 2 else tuple(
                sum(map((1).__lshift__, ds)) for ds in self.line_neighbors())
        return self._line_adj

    def line_neighbors(self) -> tuple[frozenset[int], ...]:
        """Each class's adjacent classes, as a set: adj at its first member,
        masked to the first members, keeps one bit per adjacent class."""
        if self._line_nbrs is None:
            lof, firsts = self.line_index(), self.line_firsts()
            first = sum(map((1).__lshift__, firsts))
            self._line_nbrs = tuple(frozenset(map(
                lof.__getitem__, _bit_list(self.adj[f] & first))) for f in firsts)
        return self._line_nbrs

    def line_partners(self) -> list[int]:
        """n = 2: each vector class's one neighbour class, less half."""
        if self._partners is None:
            half = len(self.lines()) // 2
            self._partners = [min(ds) - half for ds in self.line_neighbors()[:half]]
        return self._partners

    def line_mask(self, line: Line) -> int:
        return sum(map((1).__lshift__, line.members))

    def twin_classes(self) -> list[tuple[int, ...]]:
        """Vertices grouped by identical neighbor bitsets."""
        groups: dict[int, list[int]] = {}
        for v in range(self.num_vertices):
            groups.setdefault(self.adj[v], []).append(v)
        return sorted((tuple(g) for g in groups.values()), key=lambda g: g[0])


def _build_guard(q: int, n: int) -> int:
    """q^n - 1, the vertices a side, once n and 2(q^n - 1) pass build's
    checks; the closed forms call it before anything else."""
    if type(q) is not int or type(n) is not int:
        raise ValueError(f"q and n must be ints, got {q!r} and {n!r}")
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    if (q.bit_length() - 1) * n > 4096:  # q^n >= 2^4096: never computed
        raise GuardError("graph would have over 2^4096 vertices, over the "
                         f"{MAX_BUILD_VERTICES} guard")
    nv = q ** n - 1
    if 2 * nv > MAX_BUILD_VERTICES:
        raise GuardError(f"graph would have {2 * nv} vertices, over the "
                         f"{MAX_BUILD_VERTICES} guard")
    return nv


def build(field: Field, n: int) -> LfGraph:
    """Construct the graph for GF(q)^n, up to MAX_BUILD_VERTICES vertices."""
    nv = _build_guard(field.q, n)
    g = LfGraph(field, n, [0] * (2 * nv))
    adj = g.adj
    lines = g.lines()
    # f_u is adjacent to the kernel of u, and vector v to the functionals of
    # the kernel of f_v, so one mask per class fills both sides
    for line in lines[:len(lines) // 2]:
        kmask = _kernel_mask(field, line.rep)
        vrow = kmask << nv
        for m in line.members:
            adj[m] = vrow
            adj[m + nv] = kmask
    return g


def _kernel_mask(field: Field, u) -> int:
    """Bitset of the vector ids v with u . v = 0.  zs[s] holds the packed
    suffixes whose partial dot with u is s; each coordinate, least
    significant first, is one shift-OR per (digit, nonempty zs[s]), and
    the leading one fills only the s = 0 bucket."""
    q, add, mul, neg = field.q, field._add, field._mul, field._neg
    zs = [1] + [0] * (q - 1)
    weight = 1
    for uk in reversed(u[1:]):
        nxt = [0] * q
        live = [(s, z) for s, z in enumerate(zs) if z]
        for c in range(q):
            to, shift = add[mul[uk][c]], c * weight
            for s, z in live:
                nxt[to[s]] |= z << shift
        zs = nxt
        weight *= q
    kmask = 0
    for c in range(q):
        kmask |= zs[neg[mul[u[0]][c]]] << c * weight
    return kmask >> 1


def _map_ids(g: LfGraph, M, digit) -> list[int]:
    """Vector id of M . digit(v) for every vector v, indexed by vector id.
    digit, a table on the field, maps each coordinate first and must be
    additive, as a Frobenius power is.  At odd p, row k of M is coordinate k
    for every packed id at once, one list sweep per column after the first.
    At p = 2 an element's code is its coefficient bits and q = 2^k, so a
    packed id + 1 is the coordinate codes side by side and vector addition
    is XOR; v -> M . digit(v) is XOR-linear in the bits of v, so the list
    doubles once per bit j (bit j mod k of coordinate n-1 - j//k), XORing in
    its image, digit(2^(j mod k)) times that column of M."""
    q, add, mul = g.q, g.field._add, g.field._mul
    if g.field.p == 2:
        k, n, out = g.field.k, len(M), [0]
        for j in range(n * k):
            col, c, b = n - 1 - j // k, digit[1 << j % k], 0
            for row in M:
                b = b << k | mul[row[col]][c]
            out += [x ^ b for x in out]
    else:
        out = None
        for row in M:
            d = None
            for a in row:
                col = list(map(mul[a].__getitem__, digit))
                d = col if d is None else [
                    to[y] for to in map(add.__getitem__, d) for y in col]
            out = d if out is None else [x * q + y for x, y in zip(out, d)]
    return [x - 1 for x in out[1:]]


def _semilinear(g: LfGraph, P, j: int) -> list[int]:
    """Image list of chi_P . pi_j: v -> P v^(p^j) on vectors and
    f_u -> f_{(P^-1)^T u^(p^j)} on functionals, one _map_ids sweep a side.
    The functional map is the inverse of w -> (P^T w)^(p^(k-j)), swept with
    P^T's entries and the digits raised to p^(k-j), both read off the
    field's Frobenius table, so P is never inverted; a singular P^T sends
    some nonzero w to zero, id -1.  Entries and j must be ints in range:
    the tables would read -1 as q - 1 and True as 1."""
    F = g.field
    if not _ids_below((j,), F.k):
        raise ValueError(f"Frobenius exponent {j!r} out of range [0, {F.k})")
    if len(P) != g.n or any(len(row) != g.n for row in P):
        raise ValueError(f"P must be {g.n}x{g.n}")
    if not _ids_below(chain.from_iterable(P), g.q):
        raise ValueError(f"P's entries must be field elements, ints in [0, {g.q})")
    frob, back = F._frob[j], F._frob[-j % F.k]
    pre = _map_ids(g, [[back[c] for c in col] for col in zip(*P)], back)
    if -1 in pre:
        raise ValueError("matrix is singular")
    return _map_ids(g, P, frob) + _inverse(pre, g.nv)


def _matrix(n: int, cells) -> tuple:
    """The n x n identity matrix with the {(row, col): entry} cells set."""
    return tuple(tuple(cells.get((r, c), int(r == c)) for c in range(n))
                 for r in range(n))


def _side_swap(g: LfGraph) -> list[int]:
    """Image list of sigma: each vertex to its coordinates on the other side."""
    return list(range(g.nv, 2 * g.nv)) + list(range(g.nv))


def _symmetries(g: LfGraph) -> list[list[int]]:
    """Image lists of automorphisms built from the paper's generators:
    chi_P for diag(w, 1, ..., 1), the n-cycle, the e1 <-> e2 transposition
    and E_12(w^i) for i < k, with w primitive and q = p^k, which generate
    GL(n, q); pi_1 when k > 1; and the side swap.  Callers check each one
    before trusting it."""
    F, n, q = g.field, g.n, g.q
    w = next(a for a in F.units()
             if len({F.pow(a, e) for e in range(q - 1)}) == q - 1)
    cycle = {(r, c): int(c == (r + 1) % n) for r in range(n) for c in range(n)}
    swap12 = {(0, 0): 0, (1, 1): 0, (0, 1): 1, (1, 0): 1}
    mats = [_matrix(n, {(0, 0): w}), _matrix(n, cycle), _matrix(n, swap12)] + [
        _matrix(n, {(0, 1): F.pow(w, i)}) for i in range(F.k)]
    gens = [_semilinear(g, P, 0) for P in mats]
    if F.k > 1:
        gens.append(_semilinear(g, _matrix(n, {}), 1))
    gens.append(_side_swap(g))
    return gens


# ---------- domination ----------

def is_dominating(g: LfGraph, dset, target: str = VEC, mode: str = "standard") -> bool:
    """Does dset dominate the chosen target under the chosen rule?

    standard: every target vertex is in dset or has a neighbor in dset.
    total:    every target vertex has a neighbor in dset.
    """
    if mode not in ("standard", "total"):
        raise ValueError(f"unknown mode {mode!r}")
    dmask = 0
    for v in dset:
        dmask |= 1 << g._vertex(v)
    for v in _cover_ids(g.nv, target)[0]:
        hit = g.adj[v] & dmask
        if mode == "standard":
            hit |= dmask & (1 << v)
        if not hit:
            return False
    return True


def _cover_ids(side: int, target: str) -> tuple[range, range]:
    """The ids target covers and the ids its dominators come from, on two
    sides of side ids, vectors first: one-sided domination draws from the
    opposite side."""
    vec, fun, both = range(side), range(side, 2 * side), range(2 * side)
    if target == VEC:
        return vec, fun
    if target == FUN:
        return fun, vec
    if target == "all":
        return both, both
    raise ValueError(f"unknown target {target!r}")


def domination_number(g: LfGraph, target: str = VEC,
                      mode: str = "standard") -> tuple[int, tuple]:
    """Exact minimum size and one minimum witness set, by orbital branch and
    bound on the class quotient; no component over MAX_SEARCH_VERTICES.
    The orbital generators are built from _symmetries only if a block's
    search branches past its greedy witness.

    target: "vec", "fun" (dominators come from the other side) or "all".
    mode:   "standard" or "total".
    The witness holds the first member of each chosen class.  With target
    "all" and q >= 3 it runs the total search, equal by the lemma below,
    so its witness is a total dominating set.
    """
    if mode not in ("standard", "total"):
        raise ValueError(f"unknown mode {mode!r}")
    covered, cands = _cover_ids(len(g.lines()) // 2, target)
    if g.num_vertices > MAX_SEARCH_VERTICES:
        # the search runs block by block, and a block never spans components
        for comp in g.component_masks():
            size = comp.bit_count()
            if size > MAX_SEARCH_VERTICES:
                raise GuardError(f"a component of {size} vertices is over "
                                 f"the exact-search guard {MAX_SEARCH_VERTICES}")
    # Lemma: if no vertex is isolated and each has a false twin (same
    # neighbourhood, not adjacent), gamma = gamma_t.  Proof: let D be a
    # minimum dominating set with the fewest members x with no neighbour
    # in D.  x's twin x' has N(x') = N(x) outside D, so x' is in D.  Trading
    # x' for a neighbour y of x keeps D dominating (y covers x', x covers
    # N(x')) with one such member fewer.  So D is total, and gamma = gamma_t.
    # At q >= 3 each class holds q - 1 >= 2 twins.
    if target == "all" and g.q > 2:
        mode = "total"
    # The search runs on the class quotient.  Twins cover, and are covered
    # by, the same vertices, so a minimum class cover lifts, one member a
    # class, to a minimum cover unless a class covers itself: after the
    # lemma such self-bits (standard, "all") remain only at q = 2, where
    # each class is one vertex.
    # element i of the cover instance is class covered.start + i
    rows, lo, full = g.line_adjacency(), covered.start, (1 << len(covered)) - 1
    cover_masks = [(rows[c] >> lo) & full
                   | (1 << (c - lo) if mode == "standard" and c in covered else 0)
                   for c in cands]
    # the side swap moves a one-sided target's candidates off their side,
    # so it is dropped there; _min_cover checks every other class map
    # against the masks, which hold every class edge, and refuses a bad one
    lof, firsts = g.line_index(), g.line_firsts()

    def gens():
        cmaps = (_gather(lof, _gather(s, firsts)) for s in _symmetries(g))
        return [([m[c] - cands.start for c in cands], [m[v] - lo for v in covered])
                for m in cmaps if all(m[c] in cands for c in cands)]
    size, chosen = _min_cover(cover_masks, len(covered), gens)
    return size, tuple(firsts[cands[i]] for i in chosen)


def _min_cover(cover: list[int], m: int, gens=()) -> tuple[int, tuple]:
    """Exact minimum set cover: candidates whose masks overlap, directly or
    through others, form one block, and each block is solved on its own.

    gens, or gens() when it is a function, holds symmetries of the
    instance, each a pair (candidate image list, element image list) with
    cover[cand[i]] the element image of cover[i].  They are read and
    checked once, when a block's search first branches, and a pair that
    is no symmetry raises ValueError then.  Each block searches under
    those that map its candidates onto themselves.  domination_number
    passes a function; the list form is there for the tests."""
    @cache
    def checked():
        pairs = gens() if callable(gens) else gens
        bits, n = [_bit_list(c) for c in cover], len(cover)
        for cand, elem in pairs:
            if (sorted(cand) != list(range(n)) or sorted(elem) != list(range(m))
                    or any(bits[t] != sorted(map(elem.__getitem__, b))
                           for b, t in zip(bits, cand))):
                raise ValueError("a generator is not a symmetry of the cover instance")
        return pairs

    # disjoint element masks, so sum() is their union; a candidate merges
    # every block it meets
    blocks: list[int] = []
    for c in filter(None, cover):
        blocks = [b for b in blocks if not b & c] + [
            c | sum(b for b in blocks if b & c)]
    if sum(blocks) != (1 << m) - 1:
        raise ValueError("instance is infeasible")
    size, chosen = 0, []
    for elems in blocks:
        idxs = [i for i, c in enumerate(cover) if c & elems]
        pos = {i: k for k, i in enumerate(idxs)}

        def block_gens():
            return [[pos[cand[i]] for i in idxs] for cand, _ in checked()
                    if all(cand[i] in pos for i in idxs)]
        k, sel = _min_cover_block([cover[i] for i in idxs], elems, block_gens)
        size += k
        chosen += (idxs[i] for i in sel)
    return size, tuple(sorted(chosen))


def _min_cover_block(masks: list[int], full: int, root_gens) -> tuple[int, list]:
    """Branch and bound over candidate masks that together cover full, with
    orbital branching (Ostrowski, Linderoth, Rossi & Smriglio, Math. Prog.
    2011) under root_gens(), image lists on the candidates of symmetries of
    the instance.  root_gens is called only when the root branches: where
    the greedy cover meets the root's bound below, it is never called.

    Each node holds generators of a group H of symmetries that keep its
    subproblem (uncovered elements, excluded candidates) fixed setwise.  It
    branches on the uncovered element with the fewest coverers not
    excluded, trying them in index order, and after choosing c excludes
    c's whole H-orbit: a cover meeting that orbit maps under H to one
    holding c, which the child searched.  The child keeps the generators
    that fix c.  They generate a subgroup of Stab_H(c), which fixes the
    child's subproblem setwise, and the argument above holds under any
    such group, so the search stays exact; it only prunes less than under
    the whole stabilizer.  With no generators it is a plain DFS.

    A node needs at least ceil(|uncovered| / top) more candidates, with top
    the most uncovered elements one candidate not excluded covers, since
    no excluded candidate is chosen below it; top = 0 is infeasible."""
    elem_cov = [0] * full.bit_length()
    for idx, mask in enumerate(masks):
        for e in _bit_list(mask):
            elem_cov[e] |= 1 << idx

    # greedy upper bound doubles as the initial witness
    best_sel: list[int] = []
    uncov = full
    while uncov:
        idx = max(range(len(masks)), key=lambda i: (masks[i] & uncov).bit_count())
        best_sel.append(idx)
        uncov &= ~masks[idx]
    best = [len(best_sel), best_sel]
    chosen: list[int] = []

    def dfs(uncovered: int, excluded: int, gens: list | None):
        if not uncovered:
            if len(chosen) < best[0]:
                best[0] = len(chosen)
                best[1] = list(chosen)
            return
        top = max(((m & uncovered).bit_count() for i, m in enumerate(masks)
                   if not (excluded >> i) & 1), default=0)
        if not top or len(chosen) - (-uncovered.bit_count() // top) >= best[0]:
            return
        if gens is None:
            gens = root_gens()
        pick, width = 0, None
        for e in _bit_list(uncovered):
            w = (elem_cov[e] & ~excluded).bit_count()
            if width is None or w < width:
                pick, width = elem_cov[e], w
                if w <= 1:
                    break
        for c in _bit_list(pick & ~excluded):
            if (excluded >> c) & 1:
                continue
            chosen.append(c)
            dfs(uncovered & ~masks[c], excluded, [s for s in gens if s[c] == c])
            chosen.pop()
            for x in _orbit(gens, c):
                excluded |= 1 << x

    dfs(full, 0, None)
    return best[0], best[1]


def _orbit(gens: list, c: int) -> set:
    """The orbit of c under <gens>."""
    orbit, queue = {c}, [c]
    for x in queue:
        for s in gens:
            y = s[x]
            if y not in orbit:
                orbit.add(y)
                queue.append(y)
    return orbit


# ---------- export ----------

_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6_BYTES = bytes(range(63, 127))  # base64 letter k <-> graph6 byte k + 63
_G6, _G6_B64 = bytes.maketrans(_B64, _G6_BYTES), bytes.maketrans(_G6_BYTES, _B64)


def graph6_bytes(n: int, edges) -> bytes:
    """Standard graph6 encoding of an n-vertex graph with the given edges."""
    if not 0 <= n <= 258_047:  # the 4-byte header; past it the 8-byte ~~ form
        raise ValueError(f"vertex count {n} out of graph6 range")
    rows = [0] * n
    for i, j in edges:
        if i == j or not _ids_below((i, j), n):
            raise ValueError(f"bad edge ({i}, {j})")
        rows[max(i, j)] |= 1 << min(i, j)
    return _graph6_rows(rows)


def _graph6_rows(rows) -> bytes:
    """graph6 of the graph whose edges (i, j), i < j, are bits i of rows[j]."""
    n = len(rows)
    head = bytes([n + 63] if n <= 62 else
                 [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    # the upper triangle as one integer, columns j, bits i < j ascending, high
    # first, zero-filled to whole 24-bit groups, which base64 writes as 4 letters
    bits = "".join(format(r & ((1 << j) - 1), f"0{j}b")[::-1]
                   for j, r in enumerate(rows) if j)
    bits += "0" * (-len(bits) % 24)
    body = b2a_base64(int(bits or "0", 2).to_bytes(len(bits) // 8, "big"), newline=False)
    return head + body[:(n * (n - 1) // 2 + 5) // 6].translate(_G6)


def parse_graph6(data: bytes) -> tuple[int, set[tuple[int, int]]]:
    """Decode graph6 bytes back to (vertex count, edge set), accepting only
    what graph6_bytes writes: the one-byte header below 63 vertices, the
    bytes the triangle needs and no more, and zero padding bits."""
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    if not data:
        raise ValueError("empty graph6 data")
    if data[:2] == b"~~":
        raise ValueError("the 8-byte graph6 header (n > 258047) is not supported")
    long_form = data[0] == 126  # so a one-byte header is at most 125
    head, body = (data[1:4], data[4:]) if long_form else (data[:1], data[1:])
    if long_form and len(head) < 3:
        raise ValueError("truncated graph6 header")
    n = 0
    for byte in head:
        if not 63 <= byte <= 126:
            raise ValueError("bad graph6 header")
        n = n << 6 | (byte - 63)
    if long_form and n < 63:
        raise ValueError(f"graph6 writes {n} vertices in a one-byte header")
    bad = body.translate(None, _G6_BYTES)
    if bad:
        raise ValueError(f"bad graph6 byte {bad[0]}")
    need = n * (n - 1) // 2
    if len(body) != (need + 5) // 6:
        raise ValueError(f"graph6 body of {len(body)} bytes, expected {(need + 5) // 6}")
    # the integer _graph6_rows writes, zero letters to whole base64 groups
    raw = a2b_base64(body.translate(_G6_B64) + b"A" * (-len(body) % 4))
    tri, pad = int.from_bytes(raw, "big"), 8 * len(raw) - need
    if tri & ((1 << pad) - 1):
        raise ValueError("graph6 padding bits are not zero")
    edges = set()
    for k in map((need - 1).__sub__, _bit_list(tri >> pad)):  # triangle bit k
        j = (1 + isqrt(8 * k + 1)) // 2  # its column
        edges.add((k - j * (j - 1) // 2, j))
    return n, edges


def to_graph6(g: LfGraph) -> bytes:
    return _graph6_rows(g.adj)


def to_edgelist_json(g: LfGraph) -> bytes:
    """Compact ASCII JSON: q, n, vertices, then the sorted [vec, fun] edges."""
    coords = list(map(list, product(range(g.q), repeat=g.n)))[1:]  # id order
    vertices = [{"id": vid, "side": VEC if vid < g.nv else FUN,
                 "coords": coords[vid % g.nv]} for vid in range(g.num_vertices)]
    doc = json.dumps({"q": g.q, "n": g.n, "vertices": vertices},
                     separators=(",", ":"))
    names = list(map(str, range(g.num_vertices)))
    rows = _row_lists(g.adj[:g.nv], lambda r: [*map(names.__getitem__, _bit_list(r))])
    edges = ",".join(f"[{v}," + f"],[{v},".join(fs) + "]"
                     for v, fs in enumerate(rows) if fs)
    return b"".join([doc[:-1].encode(), b',"edges":[', edges.encode(), b"]}"])


def parse_edgelist_json(data: bytes) -> dict:
    doc = json.loads(data)
    if not isinstance(doc, dict):
        raise ValueError("edge-list document is not a JSON object")
    for key in ("q", "n", "vertices", "edges"):
        if key not in doc:
            raise ValueError(f"edge-list document is missing {key!r}")
    return doc


def export(g: LfGraph, fmt: str) -> bytes:
    if fmt == "graph6":
        return to_graph6(g)
    if fmt == "json":
        return to_edgelist_json(g)
    raise ValueError(f"unsupported export format {fmt!r}")
