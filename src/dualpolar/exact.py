"""Exact scalars in Q and in the real quadratic field Q(sqrt(b)).

Every spectral quantity in this package lives in Q or in Q(sqrt(b)) where b
is the prime power attached to a form family (the deformation parameter is
q = sqrt(b)).  A scalar is stored as a + c*sqrt(rad) with a, c rational and
rad a nonnegative integer.  Perfect-square radicands collapse eagerly to the
rational form, so fields built over b = 4, 9, ... run in pure rational
arithmetic.  Scalars never touch floating point; the one place the package
does is `intlinalg.int_matmul`, and only where a bound proves the product
exact.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


class MixedRadicandError(ArithmeticError):
    """Raised when combining scalars from distinct quadratic extensions."""


def _fr(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def _collapse_root(rad: int) -> int | None:
    """Return sqrt(rad) if rad is a perfect square (or 0/1), else None."""
    if rad < 0:
        raise ValueError("radicand must be nonnegative")
    r = math.isqrt(rad)
    return r if r * r == rad else None


class ExactScalar:
    """An element a + c*sqrt(rad) of Q(sqrt(rad)), immutable and hashable."""

    __slots__ = ("a", "c", "rad")

    def __init__(self, a=0, c=0, rad: int = 0):
        a = _fr(a)
        c = _fr(c)
        rad = int(rad)
        root = _collapse_root(rad) if (c != 0) else 0
        if c == 0:
            rad = 0
        elif root is not None:
            a += c * root
            c = Fraction(0)
            rad = 0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "rad", rad)

    def __setattr__(self, *_):
        raise AttributeError("ExactScalar is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def rational(cls, x) -> "ExactScalar":
        return cls(_fr(x))

    @classmethod
    def sqrt(cls, b: int) -> "ExactScalar":
        """The scalar sqrt(b); collapses to an integer when b is a square."""
        return cls(0, 1, b)

    # -- predicates ----------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.c == 0

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.c == 0

    def as_fraction(self) -> Fraction:
        if self.c != 0:
            raise ValueError(f"{self} is irrational")
        return self.a

    # -- coercion ------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "ExactScalar":
        if isinstance(x, ExactScalar):
            return x
        return ExactScalar(_fr(x))

    def _join_rad(self, other: "ExactScalar") -> int:
        if self.c == 0:
            return other.rad
        if other.c == 0:
            return self.rad
        if self.rad != other.rad:
            raise MixedRadicandError(
                f"cannot mix sqrt({self.rad}) with sqrt({other.rad})"
            )
        return self.rad

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        rad = self._join_rad(o)
        return ExactScalar(self.a + o.a, self.c + o.c, rad)

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar(-self.a, -self.c, self.rad)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        rad = self._join_rad(o)
        a = self.a * o.a + self.c * o.c * rad
        c = self.a * o.c + self.c * o.a
        return ExactScalar(a, c, rad)

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero scalar")
        nrm = self.a * self.a - self.c * self.c * self.rad
        # nrm = 0 with self != 0 would force sqrt(rad) rational, which the
        # constructor already collapsed; so nrm is nonzero here.
        return ExactScalar(self.a / nrm, -self.c / nrm, self.rad)

    def __truediv__(self, other):
        o = self._coerce(other)
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "ExactScalar":
        if n < 0:
            return self.inverse() ** (-n)
        out = ExactScalar(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison ----------------------------------------------------

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        return (self.a, self.c) == (o.a, o.c) and (
            self.c == 0 or self.rad == o.rad
        )

    def __hash__(self):
        return hash((self.a, self.c, self.rad))

    def sort_key(self):
        return (self.a, self.c, self.rad)

    # -- text ------------------------------------------------------------

    def render(self) -> str:
        """Textual format "p/q" or "p/q + r/s*sqrt(b)"."""
        if self.c == 0:
            return str(self.a)
        return f"{self.a} + {self.c}*sqrt({self.rad})"

    __str__ = render

    def __repr__(self):
        return f"ExactScalar({self.render()!r})"


_SCALAR_RE = re.compile(
    r"^\s*(-?\d+(?:/\d+)?)\s*\+\s*(-?\d+(?:/\d+)?)\*sqrt\((\d+)\)\s*$"
)


def parse_scalar(text: str) -> ExactScalar:
    """Inverse of ExactScalar.render."""
    m = _SCALAR_RE.match(text)
    if m:
        return ExactScalar(Fraction(m.group(1)), Fraction(m.group(2)), int(m.group(3)))
    return ExactScalar(Fraction(text.strip()))


def q_pow(q: ExactScalar, n: int) -> ExactScalar:
    """Exact q**n for a nonzero scalar q (n may be negative).

    For q = sqrt(b) this is b**(n/2) when n is even and
    b**((n-1)/2)*sqrt(b) when n is odd.
    """
    if q.is_zero:
        raise ZeroDivisionError("q must be nonzero")
    if q.is_rational:
        return ExactScalar(q.a ** n)
    if q.a == 0 and q.c == 1:
        b = q.rad
        half, odd = divmod(n, 2)
        if odd == 0:
            return ExactScalar(Fraction(b) ** half)
        return ExactScalar(0, Fraction(b) ** half, b)
    return q ** n


ZERO = ExactScalar(0)
ONE = ExactScalar(1)
