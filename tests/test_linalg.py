import random
from itertools import product

import pytest

from lfgraph.gf import field_from_order
from lfgraph.linalg import monic_rep, random_invertible

from linalg_reference import dot, identity, mat_inv, mat_mul, mat_vec, transpose
from linalg_reference import random_invertible as reference_random_invertible
from test_graph import kernel_basis, span_nonzero

F2 = field_from_order(2)
F3 = field_from_order(3)
F4 = field_from_order(4)
F5 = field_from_order(5)
F9 = field_from_order(9)


def random_nonzero_vector(F, n, rng):
    while True:
        v = tuple(rng.randrange(F.q) for _ in range(n))
        if any(v):
            return v


def test_dot():
    assert dot(F3, (1, 2), (2, 1)) == 1  # 2 + 2 = 4 = 1 mod 3
    assert dot(F2, (1, 1, 1), (1, 1, 0)) == 0
    assert dot(F5, (1, 2, 3), (0, 0, 0)) == 0


def test_identity_and_transpose():
    eye = identity(3)
    assert eye == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert transpose(((1, 2), (0, 1), (2, 2))) == ((1, 0, 2), (2, 1, 2))


def test_mat_vec_mat_mul():
    A = ((1, 2), (0, 1))
    B = ((2, 0), (1, 1))
    assert mat_vec(F3, A, (1, 1)) == (0, 1)
    AB = mat_mul(F3, A, B)
    for v in ((1, 0), (0, 1), (2, 2)):
        assert mat_vec(F3, AB, v) == mat_vec(F3, A, mat_vec(F3, B, v))


def test_mat_inv_round_trip_random():
    rng = random.Random(20240817)
    for F in (F2, F3, F4, F5):
        for n in (2, 3):
            for _ in range(15):
                A = random_invertible(F, n, rng)
                Ainv = mat_inv(F, A)
                assert mat_mul(F, A, Ainv) == identity(n)
                assert mat_mul(F, Ainv, A) == identity(n)


@pytest.mark.parametrize("n", [-1, 0, True, 2.0, "2", None])
def test_random_invertible_refuses_a_bad_size(n):
    """n = -1 drew an empty matrix and n = True a 1x1 one."""
    with pytest.raises(ValueError, match="n must be an int >= 1"):
        random_invertible(F4, n, random.Random(0))


def test_mat_inv_singular():
    for F in (F2, F3, F4, F9):
        a = F.q - 1  # the last nonzero element
        r0, r1 = (1, a, 0), (0, 1, a)
        singular = [
            # no pivot in the first column
            ((0, 1, 0), (0, a, 1), (0, 0, 1)),
            # the second column loses its pivot once the first is cleared
            ((1, a, 0), (0, 0, 1), (a, F.mul(a, a), 1)),
            # the last row is a times the first plus the second
            (r0, r1, tuple(F.add(F.mul(a, x), y) for x, y in zip(r0, r1))),
            ((1, 1), (1, 1)),
        ]
        for P in singular:
            with pytest.raises(ValueError, match="singular"):
                mat_inv(F, P)
        for P in (((1, 1), (0, 1)), (r0, r1, (0, 0, 1))):
            assert mat_mul(F, P, mat_inv(F, P)) == identity(len(P))


@pytest.mark.parametrize("F,n", [(F2, 2), (F2, 3), (F3, 2), (F3, 3), (F4, 3)])
def test_kernel_basis(F, n):
    """The kernel of a nonzero functional spans exactly q^(n-1)-1 nonzero
    vectors, all orthogonal to it.  kernel_basis and span_nonzero are the
    reference that test_build_matches_span_reference checks build against."""
    rng = random.Random(5)
    for _ in range(10):
        u = random_nonzero_vector(F, n, rng)
        basis = kernel_basis(F, u)
        assert len(basis) == n - 1
        # q^(n-1) - 1 distinct nonzero combinations: the basis is independent
        vecs = set(span_nonzero(F, basis))
        assert len(vecs) == F.q ** (n - 1) - 1
        for v in vecs:
            assert dot(F, u, v) == 0


def test_monic_rep():
    assert monic_rep(F3, (2, 1)) == (1, 2)
    assert monic_rep(F3, (0, 2)) == (0, 1)
    assert monic_rep(F5, (3, 1, 0)) == (1, 2, 0)
    with pytest.raises(ValueError):
        monic_rep(F3, (0, 0))
    with pytest.raises(ValueError):  # -1 is not read as 3, the last element
        monic_rep(F4, (1, -1))


def test_monic_rep_idempotent_and_scalar_invariant():
    rng = random.Random(6)
    for F in (F3, F4, F5):
        for _ in range(50):
            v = random_nonzero_vector(F, 3, rng)
            m = monic_rep(F, v)
            assert monic_rep(F, m) == m
            for s in F.units():
                assert monic_rep(F, tuple(F.mul(s, a) for a in v)) == m


def test_random_invertible_is_invertible():
    rng = random.Random(7)
    for _ in range(30):
        A = random_invertible(F4, 3, rng)
        assert mat_mul(F4, A, mat_inv(F4, A)) == identity(3)


def test_random_invertible_draw_order():
    """Seeded draws are part of every seeded report, so they are pinned."""
    rng = random.Random(7)
    assert [random_invertible(F4, 3, rng) for _ in range(5)] == [
        ((0, 0, 3), (3, 0, 1), (0, 3, 0)), ((0, 1, 0), (3, 0, 1), (0, 1, 2)),
        ((2, 1, 1), (1, 0, 2), (3, 2, 3)), ((2, 0, 0), (3, 1, 2), (1, 3, 3)),
        ((0, 0, 2), (2, 2, 3), (3, 0, 0))]
    rng = random.Random(7)
    assert [random_invertible(F9, 2, rng) for _ in range(5)] == [
        ((5, 2), (6, 0)), ((1, 8), (1, 5)), ((0, 8), (3, 0)),
        ((1, 6), (6, 1)), ((3, 1), (8, 6))]


@pytest.mark.parametrize("q,n", [(2, 2), (2, 4), (3, 3), (4, 3), (8, 3)])
def test_random_invertible_draws_match_reference(q, n):
    """The sampler's forward elimination on the field tables draws exactly
    what the rejection loop over the reference mat_inv draws, and leaves
    the generator in the same state."""
    F = field_from_order(q)
    for seed in (1, 7, 1729):
        ours, ref = random.Random(seed), random.Random(seed)
        for _ in range(200):
            assert (random_invertible(F, n, ours)
                    == reference_random_invertible(F, n, ref))
        assert ours.getstate() == ref.getstate()


class _Scripted:
    """A stand-in generator that returns the given values in order."""

    def __init__(self, values):
        self.values = iter(values)

    def randrange(self, stop):
        return next(self.values)


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2), (4, 2), (5, 2)])
def test_random_invertible_accepts_exactly_the_invertible(q, n):
    """Every n x n matrix, drawn first and followed by the identity: the
    sampler returns it exactly when the reference mat_inv inverts it."""
    F = field_from_order(q)
    for entries in product(range(F.q), repeat=n * n):
        M = tuple(zip(*[iter(entries)] * n))
        try:
            mat_inv(F, M)
            invertible = True
        except ValueError:
            invertible = False
        drawn = random_invertible(F, n, _Scripted(entries + sum(identity(n), ())))
        assert drawn == (M if invertible else identity(n)), M
