"""Finite field arithmetic GF(p^m) in the polynomial basis.

Elements are encoded as integers in [0, p^m): the code of a polynomial
c_0 + c_1 x + ... + c_{m-1} x^{m-1} is sum(c_i * p^i).  The modulus is the
lexicographically smallest monic irreducible of degree m over GF(p), which
makes every field deterministic.

For orders up to 4096 the addition and multiplication tables (order x order)
and the negation, inversion and conjugation tables are computed with numpy
on first read, so a form refused before enumeration never builds them;
multiplication by a is GF(p)-linear on the digits.  Their main reader is
`polar`, which indexes them with whole arrays of codes to evaluate a form on
every point of a polar space, or to span many subspaces, in a few numpy
operations; the scalar methods below read them too.  Larger fields are
refused: their tables would take more than 2 x 32 MB.
"""

from __future__ import annotations

import itertools
from functools import cache

import numpy as np

from .intarith import int_matmul, is_prime

_TABLE_LIMIT = 4096
_TABLES = ("times", "add_table", "mul_table", "neg_table", "inv_table",
           "conj_table")


def _poly_divides(d, f, p):
    """Does monic d divide f over GF(p)?"""
    f = list(f)
    while len(f) >= len(d):
        if f[-1] == 0:
            f.pop()
            continue
        c = f[-1]
        off = len(f) - len(d)
        for i, x in enumerate(d):
            f[off + i] = (f[off + i] - c * x) % p
        f.pop()
    return all(x == 0 for x in f)


def _is_irreducible(poly, p):
    """Trial division by all monic polynomials of degree <= deg/2."""
    deg = len(poly) - 1
    if deg == 1:
        return True
    if poly[0] == 0:
        return False
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            cand = list(tail) + [1]
            if _poly_divides(cand, poly, p):
                return False
    return True


def smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over GF(p).

    Candidates x^m + c_{m-1}x^{m-1} + ... + c_0 are ordered by the tuple
    (c_0, ..., c_{m-1}).
    """
    for tail in itertools.product(range(p), repeat=m):
        cand = list(tail) + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise RuntimeError("no irreducible polynomial found")  # unreachable


def _refuse_above_table_limit(order: int):
    if order > _TABLE_LIMIT:
        raise ValueError(f"GF({order}) is above the field order "
                         f"{_TABLE_LIMIT} that the tables support")


class FieldSpec:
    """GF(p^m), p^m <= _TABLE_LIMIT, with operation tables built on first
    read."""

    def __init__(self, p: int, m: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.m = m
        self.order = p ** m
        _refuse_above_table_limit(self.order)
        self.modulus = smallest_irreducible(p, m)

    def __getattr__(self, name):
        """Called for a missing attribute only: a table not yet built."""
        if name not in _TABLES:
            raise AttributeError(name)
        self._build_tables()
        return getattr(self, name)

    def _build_tables(self):
        q, p, m = self.order, self.p, self.m
        weights = p ** np.arange(m)
        digits = np.arange(q)[:, None] // weights % p
        # times[a, k] = the digits of a x^k, so times[a] is multiplication
        # by a on digits (times[a, 0] the digits of a); multiplying by x
        # shifts the digits up and folds the top one back through the modulus
        times = [digits]
        for _ in range(1, m):
            up = np.pad(times[-1][:, :-1], ((0, 0), (1, 0)))
            times.append((up - times[-1][:, -1:] * self.modulus[:m]) % p)
        self.times = np.stack(times, axis=1)
        # row by row, so that no temporary is larger than a row
        self.add_table = np.array([((d + digits) % p * weights).sum(1)
                                   for d in digits], dtype=np.int16)
        self.mul_table = np.array([(int_matmul(digits, t) % p * weights).sum(1)
                                   for t in self.times], dtype=np.int16)
        self.neg_table = ((-digits) % p * weights).sum(1)
        self.inv_table = (self.mul_table == 1).argmax(1)
        self.conj_table = None
        if m % 2 == 0:  # x -> x^sqrt(q), by sqrt(q) - 1 multiplications
            self.conj_table = np.arange(q)
            for _ in range(p ** (m // 2) - 1):
                self.conj_table = self.mul_table[self.conj_table, np.arange(q)]

    # field operations on codes

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return int(self.inv_table[a])

    def frobenius(self, x: int) -> int:
        """Conjugation x -> x^(p^(m/2)); requires even extension degree."""
        if self.m % 2:
            raise ValueError("frobenius conjugation needs even degree")
        return int(self.conj_table[x])

    def __repr__(self):
        return f"FieldSpec(GF({self.p}^{self.m}), modulus={self.modulus})"


@cache
def build_field(p: int, m: int) -> FieldSpec:
    return FieldSpec(p, m)


def field_of_order(n: int) -> FieldSpec:
    """GF(n) for a prime power n up to _TABLE_LIMIT; a larger n is refused
    before any search for its prime."""
    _refuse_above_table_limit(n)
    for p in range(2, n + 1):
        if is_prime(p) and n % p == 0:
            m = 0
            x = n
            while x % p == 0:
                x //= p
                m += 1
            if x != 1:
                break
            return build_field(p, m)
    raise ValueError(f"{n} is not a prime power")
