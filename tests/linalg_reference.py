"""Reference linear algebra over GF(q) for the tests.

Vectors are tuples of field-element indices and matrices are tuples of row
tuples, as in lfgraph.linalg; every product goes through the Field methods,
one call each, so these stay independent of the table reads the library
does inline.  The tests compare the library's chains, decompositions and
sampler against them.
"""

from __future__ import annotations

from lfgraph.gf import Field


def _same_length(u, v):
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")


def dot(field: Field, u, v) -> int:
    _same_length(u, v)
    acc = 0
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


def mat_shape(P) -> tuple[int, int]:
    rows = len(P)
    if rows == 0:
        raise ValueError("empty matrix")
    cols = len(P[0])
    if any(len(r) != cols for r in P):
        raise ValueError("ragged matrix")
    return rows, cols


def identity(n: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(P) -> tuple:
    mat_shape(P)
    return tuple(zip(*P))


def mat_vec(field: Field, P, v) -> tuple:
    rows, cols = mat_shape(P)
    if cols != len(v):
        raise ValueError(f"dimension mismatch: matrix is {rows}x{cols}, vector has {len(v)}")
    return tuple(dot(field, row, v) for row in P)


def mat_mul(field: Field, A, B) -> tuple:
    ra, ca = mat_shape(A)
    rb, cb = mat_shape(B)
    if ca != rb:
        raise ValueError(f"dimension mismatch: {ra}x{ca} times {rb}x{cb}")
    Bt = transpose(B)
    return tuple(tuple(dot(field, row, col) for col in Bt) for row in A)


def mat_inv(field: Field, P) -> tuple:
    """Inverse by Gauss-Jordan elimination; raises ValueError if singular."""
    rows, cols = mat_shape(P)
    if rows != cols:
        raise ValueError("only square matrices are invertible")
    n = rows
    aug = [list(P[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pinv = field.inv(aug[col][col])
        aug[col] = [field.mul(pinv, x) for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [field.sub(x, field.mul(f, y)) for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def random_invertible(field: Field, n: int, rng) -> tuple:
    """Uniform invertible matrix by rejection sampling, mat_inv the test:
    the draws lfgraph.linalg.random_invertible must repeat exactly."""
    while True:
        P = tuple(tuple(rng.randrange(field.q) for _ in range(n)) for _ in range(n))
        try:
            mat_inv(field, P)
        except ValueError:
            continue
        return P
