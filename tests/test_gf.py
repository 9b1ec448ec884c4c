import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from lfgraph import GuardError, gf, graph
from lfgraph.gf import (Field, factor_prime_power, field_automorphisms,
                        field_from_order, is_prime)

SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27]


# ---------- polynomial reference, independent of the field tables ----------

def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_rem(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a modulo b over F_p; b must be monic."""
    r = _poly_trim(list(a))
    while len(r) >= len(b):
        shift, factor = len(r) - len(b), r[-1]
        for i, bi in enumerate(b):
            r[shift + i] = (r[shift + i] - factor * bi) % p
        _poly_trim(r)
    return r


def _is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    k = len(modulus) - 1
    return all(_poly_rem(list(modulus), list(tail) + [1], p)
               for d in range(1, k // 2 + 1)
               for tail in product(range(p), repeat=d))


def _reference_tables(p: int, k: int, modulus):
    """add, mul, neg and inv of F_p[x]/(modulus) by polynomial arithmetic
    on digit tuples, digit i the coefficient of x^i."""
    q = p ** k
    digits = [[(a // p ** i) % p for i in range(k)] for a in range(q)]

    def pack(c):
        return sum(d * p ** i for i, d in enumerate(c))

    add = [[pack((x + y) % p for x, y in zip(da, db)) for db in digits]
           for da in digits]
    neg = [pack(-x % p for x in da) for da in digits]
    mod = list(modulus) if k > 1 else [0, 1]
    polys = [_poly_trim(list(da)) for da in digits]
    mul = [[pack(_poly_rem(_poly_mul(pa, pb, p), mod, p)) for pb in polys]
           for pa in polys]
    inv = [0] + [row.index(1) for row in mul[1:]]
    return add, mul, neg, inv


def _monic_moduli():
    """Every monic modulus with p^k <= 27, and, at (2,7), (2,8) and (3,5),
    the first irreducible and the first reducible of a seeded draw."""
    for p, k in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)):
        for tail in product(range(p), repeat=k):
            yield p, k, tail + (1,)
    for p, k in ((2, 7), (2, 8), (3, 5)):
        rng = random.Random(f"{p},{k}")
        found = {}
        while len(found) < 2:
            m = tuple(rng.randrange(p) for _ in range(k)) + (1,)
            found.setdefault(_is_irreducible(m, p), m)
        for m in found.values():
            yield p, k, m


def test_is_prime():
    primes = [p for p in range(2, 60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                      47, 53, 59]
    assert not is_prime(0)
    assert not is_prime(1)


def test_factor_prime_power():
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(25) == (5, 2)
    assert factor_prime_power(7) == (7, 1)
    with pytest.raises(ValueError):
        factor_prime_power(6)
    with pytest.raises(ValueError):
        factor_prime_power(1)


@pytest.mark.parametrize("q", [7.0, 9.0, True, "9", None])
def test_factor_prime_power_refuses_a_non_int(q):
    """7.0 is not factored to (7.0, 1), nor 9.0 to (3, 2), nor True to 1."""
    with pytest.raises(ValueError, match="must be an int"):
        factor_prime_power(q)


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_field_axioms_exhaustive(q):
    """Commutativity, associativity, distributivity, identities, inverses."""
    F = field_from_order(q)
    els = list(F.elements())
    assert len(els) == q
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a != 0:
            assert F.mul(a, F.inv(a)) == 1
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in els:
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_no_zero_divisors():
    for q in SMALL_ORDERS:
        F = field_from_order(q)
        for a in F.units():
            for b in F.units():
                assert F.mul(a, b) != 0


def test_f4_arithmetic():
    # elements encode as polynomial digit strings: 2 = x, 3 = x + 1
    F = field_from_order(4)
    omega = 2
    assert F.mul(omega, omega) == 3
    assert F.mul(omega, 3) == 1
    assert F.add(omega, omega) == 0


def test_f5_inverse():
    F = field_from_order(5)
    assert F.inv(2) == 3
    assert F.inv(4) == 4
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_f9_frobenius_fixed_field():
    """x -> x^3 fixes exactly the prime subfield of GF(9)."""
    F = field_from_order(9)
    fixed = [a for a in F.elements() if F.frobenius(a, 1) == a]
    assert len(fixed) == 3
    assert 0 in fixed and 1 in fixed


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_frobenius_is_field_automorphism(q):
    F = field_from_order(q)
    for j in field_automorphisms(F):
        for a in F.elements():
            for b in F.elements():
                fa, fb = F.frobenius(a, j), F.frobenius(b, j)
                assert F.frobenius(F.add(a, b), j) == F.add(fa, fb)
                assert F.frobenius(F.mul(a, b), j) == F.mul(fa, fb)
            # the homomorphism checks alone would pass the identity at every j
            assert F.frobenius(a, j) == F.pow(a, F.p ** j)


def test_frobenius_exponent_range():
    F = field_from_order(9)
    with pytest.raises(ValueError):
        F.frobenius(1, 2)
    with pytest.raises(ValueError):
        F.frobenius(1, -1)


def test_pow():
    F = field_from_order(7)
    assert F.pow(3, 0) == 1
    assert F.pow(3, 6) == 1  # Fermat
    assert F.pow(3, -1) == F.inv(3)
    for a in F.units():
        acc = 1
        for e in range(1, 7):
            acc = F.mul(acc, a)
            assert F.pow(a, e) == acc


@pytest.mark.parametrize("name,args", [
    ("add", (-1, 0)), ("add", (0, 4)), ("sub", (1, -1)), ("neg", (-2,)),
    ("inv", (-1,)), ("div", (1, -1)), ("div", (-1, 1)), ("mul", (True, 3)),
    ("mul", (2, 1.0)), ("pow", (5, 2)), ("pow", (2, 1.5)), ("pow", (2, True)),
    ("frobenius", (-1, 1)), ("frobenius", (1.0, 0)), ("frobenius", (1, 1.0)),
    ("decode", (1.5,)), ("decode", (True,)), ("encode", ((1.5, 0),)),
    ("encode", ((0, True),)), ("encode", ((2, 0),)),
], ids=str)
def test_public_arithmetic_refuses_what_is_not_an_element(name, args):
    """Each operand is an int in [0, q), each exponent an int: a negative,
    a bool, a float or an index past q raises ValueError, never a wrapped
    table read, an IndexError or a TypeError."""
    with pytest.raises(ValueError):
        getattr(field_from_order(4), name)(*args)


def test_public_arithmetic_keeps_its_messages():
    F = field_from_order(4)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(ZeroDivisionError):
        F.div(1, 0)
    with pytest.raises(ValueError, match="element index 4 out of range"):
        F.decode(4)
    with pytest.raises(ValueError, match="bad coefficient tuple"):
        F.encode((0, 0, 0))
    with pytest.raises(ValueError, match="Frobenius exponent 2 out of range"):
        F.frobenius(1, 2)
    assert F.pow(2, -1) == F.inv(2) and F.div(3, 2) == F.mul(3, F.inv(2))


def test_encode_decode_roundtrip():
    F = field_from_order(27)
    for a in F.elements():
        assert F.encode(F.decode(a)) == a
    assert F.decode(F.p) == (0, 1, 0)


def test_reducible_modulus_rejected():
    # x^2 + 1 factors over GF(2)
    with pytest.raises(ValueError, match=r"\(1, 0, 1\) is reducible over F_2"):
        Field(2, 2, modulus=(1, 0, 1))
    assert Field(2, 2, modulus=(1, 1, 1)).modulus == (1, 1, 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23])
def test_prime_field_tables_match_reference(p):
    F = Field(p)
    assert (F._add, F._mul, F._neg, F._inv) == _reference_tables(p, 1, None)


@pytest.mark.parametrize("p,k,modulus", list(_monic_moduli()),
                         ids=lambda v: "".join(map(str, v))
                         if isinstance(v, tuple) else str(v))
def test_extension_tables_match_reference(p, k, modulus):
    """A modulus is accepted exactly when trial division finds no factor,
    and then every table equals the polynomial reference's."""
    if not _is_irreducible(modulus, p):
        with pytest.raises(ValueError,
                           match=rf"modulus \({', '.join(map(str, modulus))}\) "
                                 rf"is reducible over F_{p}$"):
            Field(p, k, modulus)
        return
    F = Field(p, k, modulus)
    assert (F._add, F._mul, F._neg, F._inv) == _reference_tables(p, k, modulus)


def test_field_order_guard_raises_guard_error():
    """The field-order limit is a size limit like the graph and search
    guards, and graph exports the same GuardError class."""
    assert graph.GuardError is GuardError
    for make in (lambda: field_from_order(257), lambda: Field(2, 9)):
        with pytest.raises(GuardError, match="exceeds supported maximum 256"):
            make()


def test_field_guards_refuse_before_computing(monkeypatch):
    """An order over the maximum is refused from p and k, or from q, alone:
    no p ** k at k = 10^5, and no trial division of a prime near 10^18."""
    with pytest.raises(GuardError, match="exceeds supported maximum 256"):
        Field(3, 10**5)

    def refuse(_):
        raise AssertionError("trial division ran past the order guard")
    monkeypatch.setattr(gf, "is_prime", refuse)
    monkeypatch.setattr(gf, "factor_prime_power", refuse)
    for make in (lambda: Field(10**18 + 3), lambda: field_from_order(10**18 + 3)):
        with pytest.raises(GuardError, match="exceeds supported maximum 256"):
            make()


def test_modulus_validation():
    with pytest.raises(ValueError):
        Field(4)  # p must be prime
    with pytest.raises(ValueError):
        Field(2, 2, modulus=(1, 1))  # wrong degree
    with pytest.raises(ValueError):
        Field(2, 2, modulus=(1, 1, 2))  # reduces mod 2 to a non-monic poly
    for modulus in ((1, 1.5, 1), (1, "1", 1)):  # no silent int() coercion
        with pytest.raises(ValueError, match="modulus coefficients must be ints"):
            Field(2, 2, modulus)


def test_derived_moduli_keep_the_former_table():
    """The moduli a table once listed for these orders are the first
    irreducible x^k + r(x) in element packing, so seeded reports and
    documents over them are unchanged."""
    former = {4: (1, 1, 1), 8: (1, 1, 0, 1), 9: (1, 0, 1),
              16: (1, 1, 0, 0, 1), 25: (2, 0, 1), 27: (1, 2, 0, 1)}
    assert {q: field_from_order(q).modulus for q in former} == former


PRIME_POWERS = sorted(p ** k for p in range(2, gf.MAX_ORDER + 1)
                      if all(p % d for d in range(2, p))
                      for k in range(1, 9) if p ** k <= gf.MAX_ORDER)


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_every_order_builds_without_a_modulus(q):
    """With no modulus, GF(p^k) is F_p[x]/(x^k + r(x)) for the least r
    (packed as elements are) that trial division finds irreducible, and
    its tables are the ones that modulus, given, builds."""
    F = field_from_order(q)
    assert F.q == q
    if F.k == 1:
        assert F.modulus is None
        return
    r = F.encode(F.modulus[:-1])
    assert F.modulus == F.decode(r) + (1,) and _is_irreducible(F.modulus, F.p)
    assert not any(_is_irreducible(F.decode(s) + (1,), F.p) for s in range(1, r))
    G = Field(F.p, F.k, F.modulus)
    assert (F._add, F._mul, F._inv, F._frob) == (G._add, G._mul, G._inv, G._frob)


def test_field_repr_names_the_derived_modulus():
    assert repr(field_from_order(7)) == "Field(p=7)"
    assert repr(field_from_order(32)) == "Field(p=2, k=5, modulus=(1, 0, 1, 0, 0, 1))"
    assert repr(Field(2, 3, (1, 0, 1, 1))) == "Field(p=2, k=3, modulus=(1, 0, 1, 1))"


def test_field_equality_and_hash():
    a = field_from_order(9)
    b = field_from_order(9)
    assert a == b
    assert hash(a) == hash(b)
    assert a != field_from_order(3)


@given(st.sampled_from(SMALL_ORDERS), st.data())
def test_linearity_of_frobenius(q, data):
    F = field_from_order(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    j = data.draw(st.sampled_from(field_automorphisms(F)))
    assert F.frobenius(F.add(a, b), j) == F.add(F.frobenius(a, j),
                                                F.frobenius(b, j))
