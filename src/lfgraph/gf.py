"""Exact arithmetic in GF(p^k) for small prime powers.

An element is a canonical integer in [0, q): the base-p packing of its
polynomial coordinates, with digit i holding the coefficient of x^i.  For
prime fields (k = 1) this is the usual residue 0..p-1.  All binary
operations go through dense q-by-q lookup tables built once at
construction, so arithmetic is O(1) and reproducible bit for bit.

An extension field is F_p[x]/(m) for a monic irreducible m of degree k,
given as a coefficient tuple (c0, c1, ..., ck) with ck = 1.  Any modulus
is validated by the tables themselves: F_p[x]/(m) is a field exactly when
m is irreducible, so building the inverse table succeeds only for an
irreducible m.  Without a modulus, m is x^k + r(x) for the least r in
1..q-1 (packed as elements are) that passes that test; one exists at every
degree (Lidl & Niederreiter, Finite Fields, Thm. 3.25).
"""

from __future__ import annotations

# tables are dense q*q lists; keep fields deliberately small
MAX_ORDER = 256


class GuardError(ValueError):
    """Raised at every size limit: the input is valid, only too large."""


def _ids_below(values, bound: int) -> bool:
    """Is every value an int in [0, bound)?  Never a bool, float or str:
    an id list or a field table would read True as 1 and 2.0 as 2."""
    return all(type(x) is int and 0 <= x < bound for x in values)


def _least_factor(m: int) -> int:
    """The least divisor d >= 2 of m >= 2, by trial division: m when prime."""
    d = 2
    while d * d <= m:
        if m % d == 0:
            return d
        d += 1
    return m


def is_prime(m: int) -> bool:
    return m >= 2 and _least_factor(m) == m


class Field:
    """GF(p^k) with table-backed add/sub/mul/neg/inv and Frobenius maps.
    A reducible modulus raises ValueError, an order over MAX_ORDER GuardError."""

    def __init__(self, p: int, k: int = 1, modulus=None):
        if type(p) is not int or type(k) is not int:  # no bools or floats
            raise ValueError(f"p and k must be ints, got {p!r} and {k!r}")
        # p^k >= max(p, 2^k): refused before is_prime and before p ** k
        if p > MAX_ORDER or k > MAX_ORDER:
            raise GuardError(f"field order p^k exceeds supported maximum {MAX_ORDER}")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if k < 1:
            raise ValueError(f"extension degree must be >= 1, got {k}")
        q = p ** k
        if q > MAX_ORDER:
            raise GuardError(f"field order {q} exceeds supported maximum {MAX_ORDER}")
        self.p, self.k, self.q = p, k, q
        if modulus is not None:
            if k == 1:
                raise ValueError("a modulus is only meaningful for k > 1")
            modulus = tuple(modulus)
            if any(type(c) is not int for c in modulus):
                raise ValueError(f"modulus coefficients must be ints, not {modulus}")
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != k + 1:
                raise ValueError(f"modulus must have degree {k}")
            if modulus[-1] != 1:
                raise ValueError("modulus must be monic")
        self._build_tables(modulus)

    # ---------- element encoding ----------

    def _element(self, a: int) -> int:
        """a, once it is an element index: the public methods read every
        operand through here, the package's own sweeps the tables."""
        if not _ids_below((a,), self.q):
            raise ValueError(f"element index {a!r} out of range for q = {self.q}")
        return a

    def decode(self, a: int) -> tuple[int, ...]:
        """Coefficient tuple (c0..c_{k-1}) of element index a."""
        self._element(a)
        digits = []
        for _ in range(self.k):
            a, r = divmod(a, self.p)
            digits.append(r)
        return tuple(digits)

    def encode(self, digits) -> int:
        digits = tuple(digits)
        if len(digits) != self.k or not _ids_below(digits, self.p):
            raise ValueError(f"bad coefficient tuple {digits}")
        a = 0
        for d in reversed(digits):
            a = a * self.p + d
        return a

    # ---------- table construction ----------

    def _build_tables(self, modulus):
        """Sweep the digits of b one at a time, least significant fastest,
        as graph._map_ids does at odd p.  A sum row packs (a_i + t) mod p;
        a product row sums b_i (a x^i), where a x^(i+1) is a x^i shifted up
        one digit with its top digit t folded back as t x^k mod the modulus.
        A unit row without 1 means F_p[x]/(m) is not a field: m is reducible.
        With no modulus at k > 1, m = x^k + r(x) for the least r that gives
        a field, each r's product rows stopped at the first without a 1."""
        p, k, q = self.p, self.k, self.q
        self._add = add = []
        for a in range(q):
            row = [0]
            for ai in reversed(self.decode(a)):
                row = [x * p + (ai + t) % p for x in row for t in range(p)]
            add.append(row)
        self._neg = [row.index(0) for row in add]
        # F_p is F_p[x]/(x); each candidate is m's low part m_0 .. m_{k-1}
        if k == 1 or modulus is not None:
            lows = [(modulus or (0, 1))[:k]]
        else:
            lows = map(self.decode, range(1, q))
        for low in lows:
            # fold[t] = t x^k = -t (m_0 + ... + m_{k-1} x^{k-1})
            fold = [self.encode(-t * c % p for c in low) for t in range(p)]
            mul = [[0] * q]
            for a in range(1, q):
                shifts = [a]
                for _ in range(k - 1):
                    hi, lo = divmod(shifts[-1], q // p)
                    shifts.append(add[lo * p][fold[hi]])
                row = [0]
                for s in reversed(shifts):
                    multiples = [0]
                    for _ in range(p - 1):
                        multiples.append(add[multiples[-1]][s])
                    row = [add[x][m] for x in row for m in multiples]
                if 1 not in row:
                    break  # a zero divisor: try the next candidate
                mul.append(row)
            else:
                break  # every unit row holds a 1: a field
        else:
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.modulus = None if k == 1 else low + (1,)
        self._mul = mul
        self._inv = [0] + [row.index(1) for row in mul[1:]]
        # _frob[j][a] = a^(p^j): the identity, then each row's p-th power
        self._frob = [list(range(q))]
        for _ in range(k - 1):
            self._frob.append([self.pow(a, p) for a in self._frob[-1]])

    # ---------- arithmetic ----------

    def add(self, a: int, b: int) -> int:
        return self._add[self._element(a)][self._element(b)]

    def sub(self, a: int, b: int) -> int:
        return self._add[self._element(a)][self._neg[self._element(b)]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[self._element(a)][self._element(b)]

    def neg(self, a: int) -> int:
        return self._neg[self._element(a)]

    def inv(self, a: int) -> int:
        if self._element(a) == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        return self._mul[self._element(a)][self.inv(b)]

    def pow(self, a: int, e: int) -> int:
        if type(e) is not int:
            raise ValueError(f"exponent must be an int, got {e!r}")
        if e < 0:
            return self.pow(self.inv(a), -e)
        acc = 1
        base = self._element(a)
        while e:
            if e & 1:
                acc = self._mul[acc][base]
            base = self._mul[base][base]
            e >>= 1
        return acc

    def frobenius(self, a: int, j: int) -> int:
        """a -> a^(p^j), the j-th power of the absolute Frobenius, read off
        the table _build_tables fills."""
        if not _ids_below((j,), self.k):
            raise ValueError(f"Frobenius exponent {j!r} out of range [0, {self.k})")
        return self._frob[j][self._element(a)]

    # ---------- iteration and identity ----------

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    def __eq__(self, other):
        return (isinstance(other, Field)
                and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus))

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        if self.k == 1:
            return f"Field(p={self.p})"
        return f"Field(p={self.p}, k={self.k}, modulus={self.modulus})"


def field_automorphisms(field: Field) -> list[int]:
    """Frobenius exponents j of all field automorphisms a -> a^(p^j)."""
    return list(range(field.k))


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, k) with q = p^k, or raise if q is not a prime power."""
    if type(q) is not int:
        raise ValueError(f"field order must be an int, got {q!r}")
    if q >= 2:
        p, k = _least_factor(q), 1
        while p ** k < q:
            k += 1
        if p ** k == q:
            return p, k
    raise ValueError(f"{q} is not a prime power")


def field_from_order(q: int, modulus=None) -> Field:
    if type(q) is int and q > MAX_ORDER:  # before trial division to sqrt(q)
        raise GuardError(f"field order {q} exceeds supported maximum {MAX_ORDER}")
    p, k = factor_prime_power(q)
    return Field(p, k, modulus)
