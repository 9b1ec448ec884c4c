"""Matrices and vectors over GF(q) outside the graph's sweeps: a vector's
monic representative and the seeded sampler of invertible matrices.

Vectors are tuples of field-element indices and matrices are tuples of row
tuples; the field travels as the first argument of every function.  Nothing
here mutates its inputs, and everything is exact integer arithmetic.
"""

from __future__ import annotations

from .gf import Field


def monic_rep(field: Field, v) -> tuple:
    """Scale v so its first nonzero coordinate becomes 1."""
    lead = next((a for a in v if a != 0), None)
    if lead is None:
        raise ValueError("the zero vector has no monic representative")
    inv = field.inv(lead)
    return tuple(field.mul(inv, a) for a in v)


def random_invertible(field: Field, n: int, rng) -> tuple:
    """Uniform invertible matrix by rejection sampling.  Forward elimination
    on the field tables tests each draw: it is singular exactly when some
    column has no pivot among the rows not yet used."""
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be an int >= 1, got {n!r}")
    add, mul, neg, inv = field._add, field._mul, field._neg, field._inv
    while True:
        P = tuple(tuple(rng.randrange(field.q) for _ in range(n)) for _ in range(n))
        rows = list(P)
        for col in range(n):
            k = next((k for k, row in enumerate(rows) if row[col]), None)
            if k is None:
                break
            pivot = rows.pop(k)
            s = neg[inv[pivot[col]]]
            for i, row in enumerate(rows):
                m = mul[mul[row[col]][s]]
                rows[i] = [add[x][m[y]] for x, y in zip(row, pivot)]
        else:
            return P
