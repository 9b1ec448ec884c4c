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

import json
from binascii import b2a_base64
from dataclasses import dataclass
from itertools import chain, combinations, product, repeat

from .gf import Field, GuardError

VEC = "vec"
FUN = "fun"

# build refuses graphs over this many vertices, and branch-and-bound
# domination any graph with a connected component over this many
MAX_BUILD_VERTICES = 100_000
MAX_SEARCH_VERTICES = 200


_BYTE_BITS = tuple(tuple(i for i in range(8) if (b >> i) & 1)
                   for b in range(256))


def _bit_list(mask: int) -> list[int]:
    """The set bit positions of mask in increasing order, decoded a byte
    at a time, so the cost is linear in the width of mask."""
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return [8 * i + b for i, byte in enumerate(data) if byte
            for b in _BYTE_BITS[byte]]


def _row_lists(rows, decode=_bit_list):
    """Yield decode(row) for each row, decoding lazily; equal rows (twins)
    share one decoded list."""
    seen: dict[int, list] = {}
    for r in rows:
        ys = seen.get(r)
        if ys is None:
            ys = seen[r] = decode(r)
        yield ys


@dataclass(frozen=True)
class Line:
    """A scalar class: all nonzero multiples of one monic representative."""
    side: str
    rep: tuple
    members: tuple  # vertex ids, ascending


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
        self._line_adj = None

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
            if not 0 <= c < q:
                raise ValueError(f"coordinate {c} is outside [0, {q})")
            r = r * q + c
        if r == 0:
            raise ValueError("the zero vector is not a vertex")
        return r - 1

    def fun_id(self, coords) -> int:
        return self.vec_id(coords) + self.nv

    def is_vec(self, vid: int) -> bool:
        return vid < self.nv

    def mirror(self, vid: int) -> int:
        """The same coordinates on the other side."""
        return vid - self.nv if vid >= self.nv else vid + self.nv

    def coords_of(self, vid: int) -> tuple[str, tuple]:
        if not 0 <= vid < self.num_vertices:
            raise ValueError(f"vertex id {vid} out of range")
        side = VEC if vid < self.nv else FUN
        r = (vid if vid < self.nv else vid - self.nv) + 1
        coords = []
        for _ in range(self.n):
            r, c = divmod(r, self.q)
            coords.append(c)
        return side, tuple(reversed(coords))

    # ---------- basic invariants ----------

    def degree(self, vid: int) -> int:
        if not 0 <= vid < self.num_vertices:
            raise ValueError(f"vertex id {vid} out of range")
        return self.adj[vid].bit_count()

    def check_regular(self) -> bool:
        want = self.q ** (self.n - 1) - 1
        return all(row.bit_count() == want for row in self.adj)

    def edges(self) -> list[tuple[int, int]]:
        """Every (vector, functional) edge, sorted."""
        out = []
        for v, fs in enumerate(_row_lists(self.adj[:self.nv])):
            out += zip(repeat(v), fs)
        return out

    def components(self) -> list[list[int]]:
        return [_bit_list(comp) for comp in self.component_masks()]

    def component_masks(self):
        """Yield each connected component as a bitset, in order of its
        least vertex."""
        seen = 0
        for s in range(self.num_vertices):
            if (seen >> s) & 1:
                continue
            comp = 0
            frontier = 1 << s
            while frontier:
                comp |= frontier
                nxt = 0
                for v in _bit_list(frontier):
                    nxt |= self.adj[v]
                frontier = nxt & ~comp
            seen |= comp
            yield comp

    # ---------- scalar classes ----------

    def lines(self) -> list[Line]:
        """Scalar classes, vector side first, each side in lex order of rep."""
        if self._lines is None:
            F, q = self.field, self.q
            # monic reps in lex order: leading 1 followed by m free digits
            reps = [(0,) * (self.n - 1 - m) + (1,) + tail
                    for m in range(self.n) for tail in product(range(q), repeat=m)]
            vec_lines = [Line(VEC, rep, tuple(sorted(
                self.vec_id([F._mul[r][c] for c in rep]) for r in F.units()))) for rep in reps]
            self._lines = vec_lines + [
                Line(FUN, ln.rep, tuple(t + self.nv for t in ln.members)) for ln in vec_lines]
        return self._lines

    def line_index(self) -> tuple[int, ...]:
        """The class index of every vertex id, in id order."""
        if self._line_of is None:
            lof = [0] * self.num_vertices
            for idx, line in enumerate(self.lines()):
                for m in line.members:
                    lof[m] = idx
            self._line_of = tuple(lof)
        return self._line_of

    def line_adjacency(self) -> tuple[int, ...]:
        """The class quotient: one bitset row per class of lines(), bit d
        of row c set when classes c and d are adjacent, read off adj at one
        member of each class."""
        if self._line_adj is None:
            reps = [line.members[0] for line in self.lines()]
            self._line_adj = tuple(
                sum(1 << d for d, r in enumerate(reps) if (self.adj[v] >> r) & 1)
                for v in reps)
        return self._line_adj

    def neighbor_set(self, line: Line) -> int:
        """Common adjacency bitset of every member of the class."""
        return self.adj[line.members[0]]

    def line_mask(self, line: Line) -> int:
        mask = 0
        for m in line.members:
            mask |= 1 << m
        return mask

    def twin_classes(self) -> list[tuple[int, ...]]:
        """Vertices grouped by identical neighbor bitsets."""
        groups: dict[int, list[int]] = {}
        for v in range(self.num_vertices):
            groups.setdefault(self.adj[v], []).append(v)
        return sorted((tuple(g) for g in groups.values()), key=lambda g: g[0])


def build(field: Field, n: int) -> LfGraph:
    """Construct the graph for GF(q)^n, up to MAX_BUILD_VERTICES vertices."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    nv = field.q ** n - 1
    if 2 * nv > MAX_BUILD_VERTICES:
        raise GuardError(f"graph would have {2 * nv} vertices, over the "
                         f"{MAX_BUILD_VERTICES} guard")
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


def _map_ids(g: LfGraph, M, digit=None) -> list[int]:
    """Vector id of M . digit(v) for every vector v, indexed by vector id.

    digit maps each coordinate first (None: the identity).  Row k of M is
    coordinate k for every packed id at once, one list sweep per column.
    """
    q, add, mul = g.q, g.field._add, g.field._mul
    digit = range(q) if digit is None else digit
    out = [0] * (g.nv + 1)
    for row in M:
        d = [0]
        for p in row:
            col = [mul[p][c] for c in digit]
            d = [to[y] for to in map(add.__getitem__, d) for y in col]
        out = [x * q + y for x, y in zip(out, d)]
    return [x - 1 for x in out[1:]]


# ---------- domination ----------

def is_dominating(g: LfGraph, dset, target: str = VEC, mode: str = "standard") -> bool:
    """Does dset dominate the chosen target under the chosen rule?

    standard: every target vertex is in dset or has a neighbor in dset.
    total:    every target vertex has a neighbor in dset.
    """
    dmask = 0
    for v in dset:
        dmask |= 1 << v
    for v in _covered_ids(g, target):
        hit = g.adj[v] & dmask
        if mode == "standard":
            hit |= dmask & (1 << v)
        if not hit:
            return False
    return True


def _covered_ids(g: LfGraph, target: str) -> range:
    """The target vertices, always one contiguous run of ids."""
    if target == VEC:
        return range(g.nv)
    if target == FUN:
        return range(g.nv, g.num_vertices)
    if target == "all":
        return range(g.num_vertices)
    raise ValueError(f"unknown target {target!r}")


def _candidate_ids(g: LfGraph, target: str) -> range:
    # one-sided domination draws dominators from the opposite side
    if target == VEC:
        return range(g.nv, g.num_vertices)
    if target == FUN:
        return range(g.nv)
    return range(g.num_vertices)


def domination_number(g: LfGraph, target: str = VEC, mode: str = "standard",
                      method: str = "branch") -> tuple[int, tuple]:
    """Exact minimum size and one minimum witness set.

    target: "vec", "fun" (dominators come from the other side) or "all".
    mode:   "standard" or "total".
    method: "branch" (branch and bound on each independent block of the
            cover instance; no component over MAX_SEARCH_VERTICES
            vertices) or
            "exhaustive" (subset sweep, only for graphs of at most 20
            vertices).
    """
    if mode not in ("standard", "total"):
        raise ValueError(f"unknown mode {mode!r}")
    if method not in ("branch", "exhaustive"):
        raise ValueError(f"unknown method {method!r}")
    if method == "branch" and g.num_vertices > MAX_SEARCH_VERTICES:
        # the search runs block by block, and a block never spans components
        for comp in g.component_masks():
            size = comp.bit_count()
            if size > MAX_SEARCH_VERTICES:
                raise GuardError(f"a component of {size} vertices is over "
                                 f"the exact-search guard {MAX_SEARCH_VERTICES}")
    if method == "exhaustive" and g.num_vertices > 20:
        raise GuardError("exhaustive search is limited to 20 vertices")

    covered = _covered_ids(g, target)
    cands = list(_candidate_ids(g, target))
    # element i of the cover instance is vertex covered.start + i
    lo, full = covered.start, (1 << len(covered)) - 1
    cover_masks = []
    for c in cands:
        mask = (g.adj[c] >> lo) & full
        if mode == "standard" and c in covered:
            mask |= 1 << (c - lo)
        cover_masks.append(mask)
    if method == "exhaustive":
        size, chosen = _min_cover_exhaustive(cover_masks, len(covered))
    else:
        size, chosen = _min_cover(cover_masks, len(covered))
    return size, tuple(sorted(cands[i] for i in chosen))


def _min_cover_exhaustive(cover: list[int], m: int) -> tuple[int, tuple]:
    full = (1 << m) - 1
    idxs = range(len(cover))
    for k in range(len(cover) + 1):
        for combo in combinations(idxs, k):
            acc = 0
            for i in combo:
                acc |= cover[i]
            if acc == full:
                return k, combo
    raise ValueError("instance is infeasible")


def _min_cover(cover: list[int], m: int) -> tuple[int, tuple]:
    """Exact minimum set cover: candidates whose masks overlap, directly or
    through others, form one block, and each block is solved on its own."""
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
        k, sel = _min_cover_block([cover[i] for i in idxs], elems)
        size += k
        chosen += (idxs[i] for i in sel)
    return size, tuple(sorted(chosen))


def _min_cover_block(cover: list[int], full: int) -> tuple[int, list]:
    """Branch and bound over candidate masks that together cover full."""
    # drop dominated candidates (anything covered by a superset peer)
    keep = []
    for i, ci in enumerate(cover):
        dominated = False
        for j, cj in enumerate(cover):
            if i != j and ci & ~cj == 0 and (ci != cj or j < i):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    keep.sort(key=lambda i: -cover[i].bit_count())
    masks = [cover[i] for i in keep]

    elem_cov = [[] for _ in range(full.bit_length())]
    for idx, mask in enumerate(masks):
        for e in _bit_list(mask):
            elem_cov[e].append(idx)

    # greedy upper bound doubles as the initial witness
    best_sel: list[int] = []
    uncov = full
    while uncov:
        idx = max(range(len(masks)), key=lambda i: (masks[i] & uncov).bit_count())
        best_sel.append(idx)
        uncov &= ~masks[idx]
    best = [len(best_sel), best_sel]
    maxc = max(mask.bit_count() for mask in masks)

    def dfs(uncovered: int, chosen: list[int]):
        if not uncovered:
            if len(chosen) < best[0]:
                best[0] = len(chosen)
                best[1] = list(chosen)
            return
        need = -(-uncovered.bit_count() // maxc)
        if len(chosen) + need >= best[0]:
            return
        pick, width = -1, None
        for e in _bit_list(uncovered):
            w = len(elem_cov[e])
            if width is None or w < width:
                pick, width = e, w
                if w <= 1:
                    break
        for idx in elem_cov[pick]:
            chosen.append(idx)
            dfs(uncovered & ~masks[idx], chosen)
            chosen.pop()

    dfs(full, [])
    return best[0], [keep[i] for i in best[1]]


# ---------- export ----------

_G6 = bytes.maketrans(  # base64 letter k -> graph6 byte k + 63
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(63, 127)))


def graph6_bytes(n: int, edges) -> bytes:
    """Standard graph6 encoding of an n-vertex graph with the given edges."""
    if not 0 <= n < (1 << 18):
        raise ValueError(f"vertex count {n} out of graph6 range")
    rows = [0] * n
    for i, j in edges:
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"bad edge ({i}, {j})")
        rows[max(i, j)] |= 1 << min(i, j)
    return _graph6_rows(rows)


def _graph6_rows(rows) -> bytes:
    """graph6 of the graph whose edges (i, j), i < j, are bits i of rows[j]."""
    n = len(rows)
    head = bytes([n + 63] if n <= 62 else
                 [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    # the upper triangle by columns j, bits i < j ascending; base64 writes 24
    # bits as four 6-bit letters, high first; 23 zeros flush the padded tail
    body, bits = bytearray(), ""
    for col in chain((format(r & ((1 << j) - 1), f"0{j}b")[::-1]
                      for j, r in enumerate(rows) if j), ["0" * 23]):
        bits += col
        cut = len(bits) - len(bits) % 24
        body += b2a_base64(int(bits[:cut] or "0", 2).to_bytes(cut // 8, "big"), newline=False)
        bits = bits[cut:]
    return head + body[:(n * (n - 1) // 2 + 5) // 6].translate(_G6)


def parse_graph6(data: bytes) -> tuple[int, set[tuple[int, int]]]:
    """Decode graph6 bytes back to (vertex count, edge set)."""
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    if not data:
        raise ValueError("empty graph6 data")
    if data[0] == 126:
        if len(data) < 4:
            raise ValueError("truncated graph6 header")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    if n < 0:
        raise ValueError("bad graph6 header")
    need = n * (n - 1) // 2
    bits = []
    for byte in body:
        v = byte - 63
        if not 0 <= v < 64:
            raise ValueError(f"bad graph6 byte {byte}")
        bits.extend((v >> s) & 1 for s in range(5, -1, -1))
    if len(bits) < need:
        raise ValueError("graph6 body too short")
    edges = set()
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.add((i, j))
            k += 1
    return n, edges


def to_graph6(g: LfGraph) -> bytes:
    return _graph6_rows(g.adj)


def to_edgelist_json(g: LfGraph) -> bytes:
    """Compact ASCII JSON: q, n, vertices, then the sorted [vec, fun] edges."""
    vertices = []
    for vid in range(g.num_vertices):
        side, coords = g.coords_of(vid)
        vertices.append({"id": vid, "side": side, "coords": list(coords)})
    doc = json.dumps({"q": g.q, "n": g.n, "vertices": vertices},
                     separators=(",", ":"))
    rows = _row_lists(g.adj[:g.nv], lambda r: list(map(str, _bit_list(r))))
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
