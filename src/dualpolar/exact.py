"""Exact scalars in Q and in the real quadratic field Q(sqrt(b)).

Every spectral quantity in this package lives in Q or in Q(sqrt(b)) where b
is the prime power attached to a form family (the deformation parameter is
q = sqrt(b)).  A scalar is stored as four Python ints (p, r, den, rad)
meaning (p + r*sqrt(rad)) / den, in one canonical form: den > 0,
gcd(p, r, den) = 1, rad is square-free, and rad = 0 exactly when r = 0.
The square part of a radicand moves into r (sqrt(8) is 2*sqrt(2)), and
perfect-square radicands collapse eagerly to the rational form, so fields
built over b = 4, 9, ... run in pure rational arithmetic.  Arithmetic runs
on those ints with one gcd per result and builds no `Fraction`; equal
scalars have equal parts.  Scalars never touch floating point; the one
place the package does is `intarith.int_matmul`, and only where a bound
proves the product exact.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cache

_gcd = math.gcd


class MixedRadicandError(ArithmeticError):
    """Raised when combining scalars from distinct quadratic extensions."""


def join_rads(*rads: int) -> int:
    """The nonzero radicand that rads share, or 0 when there is none; a
    second, different one raises, the first one seen named first.  In
    canonical form (for scalars and matrices alike) rad is 0 exactly when
    the irrational part is, so a rational operand joins any field."""
    out = 0
    for r in rads:
        if r and r != out:
            if out:
                raise MixedRadicandError(
                    f"cannot mix sqrt({out}) with sqrt({r})")
            out = r
    return out


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of an int or a Fraction."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def _ratio_text(n: int, d: int) -> str:
    """n/d in lowest terms, as str(Fraction(n, d)) writes it."""
    g = _gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


class ExactScalar:
    """An element (p + r*sqrt(rad)) / den of Q(sqrt(rad)), immutable and
    hashable.

    The parts are ints in canonical form: den > 0, gcd(p, r, den) = 1, rad
    square-free, and rad = 0 exactly when r = 0 (the square part of a
    radicand is folded into r, and a perfect-square radicand into p), so
    two scalars are equal exactly when their parts are.  The
    constructor takes the rational parts a + c*sqrt(rad) as ints or
    Fractions; the properties `a` and `c` give them back as Fractions.
    """

    __slots__ = ("p", "r", "den", "rad")

    def __new__(cls, a=0, c=0, rad: int = 0):
        an, ad = _ratio(a)
        cn, cd = _ratio(c)
        return cls.from_parts(an * cd, cn * ad, ad * cd, int(rad))

    def __setattr__(self, *_):
        raise AttributeError("ExactScalar is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def sqrt(cls, b: int) -> "ExactScalar":
        """The scalar sqrt(b) = s*sqrt(f) with f square-free; an integer when
        b is a square."""
        return cls(0, 1, b)

    @staticmethod
    def from_parts(p: int, r: int, den: int, rad: int) -> "ExactScalar":
        """(p + r*sqrt(rad)) / den from ints, put in canonical form."""
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            p, r, den = -p, -r, -den
        if r:
            if rad < 0:
                raise ValueError("radicand must be nonnegative")
            root, rad = _square_split(rad)
            if rad == 1:
                p, r = p + r * root, 0
            else:
                r *= root
        return _reduced(p, r, den, rad)

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.den)

    @property
    def c(self) -> Fraction:
        return Fraction(self.r, self.den)

    # -- predicates ----------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.r == 0

    @property
    def is_zero(self) -> bool:
        return self.p == 0 and self.r == 0

    def as_fraction(self) -> Fraction:
        if self.r != 0:
            raise ValueError(f"{self} is irrational")
        return Fraction(self.p, self.den)

    # -- coercion ------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "ExactScalar":
        if isinstance(x, ExactScalar):
            return x
        n, d = _ratio(x)
        return _make(n, 0, d, 0)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        rad = join_rads(self.rad, o.rad)
        d1, d2 = self.den, o.den
        if d1 == d2:
            return _reduced(self.p + o.p, self.r + o.r, d1, rad)
        return _reduced(self.p * d2 + o.p * d1, self.r * d2 + o.r * d1,
                        d1 * d2, rad)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.p, -self.r, self.den, self.rad)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        if not self.r and not o.r:
            p, den = self.p * o.p, self.den * o.den
            g = _gcd(p, den)
            return _make(p // g, 0, den // g, 0)
        rad = join_rads(self.rad, o.rad)
        return _reduced(self.p * o.p + self.r * o.r * rad,
                        self.p * o.r + self.r * o.p, self.den * o.den, rad)

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        """den (p - r sqrt(rad)) / (p^2 - r^2 rad).  The norm is nonzero:
        it vanishes only if sqrt(rad) is rational, and such radicands have
        collapsed."""
        p, r, den = self.p, self.r, self.den
        if not r:
            if not p:
                raise ZeroDivisionError("inverse of zero scalar")
            return _make(den, 0, p, 0) if p > 0 else _make(-den, 0, -p, 0)
        nrm = p * p - r * r * self.rad
        if nrm < 0:
            return _reduced(-den * p, den * r, -nrm, self.rad)
        return _reduced(den * p, -den * r, nrm, self.rad)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "ExactScalar":
        """self**n for an int n, n < 0 for a nonzero self only.  This is the
        package's one power rule.  A rational self, or one c*sqrt(f) such as
        q = sqrt(b), is raised in closed form: (c*sqrt(f))^n is
        (c^2 f)^(n // 2), times c*sqrt(f) when n is odd, with one gcd.  Any
        other scalar is raised by repeated squaring."""
        if n < 0:
            return self.inverse() ** -n
        p, r, den = self.p, self.r, self.den
        if not r:
            return _make(p ** n, 0, den ** n, 0)
        if not p:
            s = (r * r * self.rad) ** (n >> 1)
            if n & 1:
                return _reduced(0, s * r, den ** n, self.rad)
            return _reduced(s, 0, den ** n, 0)
        out = _make(1, 0, 1, 0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, ExactScalar):
            return self.p == other.p and self.r == other.r \
                and self.den == other.den and self.rad == other.rad
        if isinstance(other, (int, Fraction)):
            return self.r == 0 and (self.p, self.den) == _ratio(other)
        return NotImplemented

    def __hash__(self):
        """A rational scalar hashes as the int or Fraction it equals."""
        if self.r:
            return hash((self.p, self.r, self.den, self.rad))
        return hash(self.p) if self.den == 1 else hash(self.as_fraction())

    # -- text ------------------------------------------------------------

    def render(self) -> str:
        """Textual format "p/q" or "p/q + r/s*sqrt(b)"."""
        if self.r == 0:
            return _ratio_text(self.p, self.den)
        return (f"{_ratio_text(self.p, self.den)} + "
                f"{_ratio_text(self.r, self.den)}*sqrt({self.rad})")

    __str__ = render

    def __repr__(self):
        return f"ExactScalar({self.render()!r})"


_new = object.__new__
_set_p = ExactScalar.p.__set__
_set_r = ExactScalar.r.__set__
_set_den = ExactScalar.den.__set__
_set_rad = ExactScalar.rad.__set__


def _make(p: int, r: int, den: int, rad: int) -> ExactScalar:
    """A new scalar from parts already in canonical form."""
    x = _new(ExactScalar)
    _set_p(x, p)
    _set_r(x, r)
    _set_den(x, den)
    _set_rad(x, rad)
    return x


def _reduced(p: int, r: int, den: int, rad: int) -> ExactScalar:
    """A new scalar from parts with den > 0 and rad not a perfect square
    (unless r = 0), divided by gcd(p, r, den)."""
    g = _gcd(p, r, den)
    if g != 1:
        p, r, den = p // g, r // g, den // g
    return _make(p, r, den, rad if r else 0)


_RADICAND_LIMIT = 10 ** 15


@cache
def _square_split(rad: int) -> tuple[int, int]:
    """(s, f) with rad = s^2 f and f square-free, so f = 1 for a square.
    Once the primes up to the cube root of what is left are divided out, at
    most two prime factors remain: the rest is square-free or a square.  A
    radicand above _RADICAND_LIMIT = 10^15 raises ValueError, so a split
    takes at most 10^5 trial divisions (about 0.03 s)."""
    if rad > _RADICAND_LIMIT:
        raise ValueError(f"radicand {rad} is above {_RADICAND_LIMIT}, the "
                         "largest whose square part is split off")
    s, f, rest, p = 1, 1, rad, 2
    while p ** 3 <= rest:
        while rest % (p * p) == 0:
            rest //= p * p
            s *= p
        if rest % p == 0:
            rest //= p
            f *= p
        p += 1
    root = math.isqrt(rest)
    return (s * root, f) if root * root == rest else (s, f * rest)


_RATIO = r"(-?\d+)(?:/(\d+))?"
_SCALAR_RE = re.compile(
    rf"^\s*{_RATIO}(?:\s*\+\s*{_RATIO}\*sqrt\((\d+)\))?\s*$")


def parse_scalar(text: str) -> ExactScalar:
    """Inverse of ExactScalar.render; other text that `Fraction` reads,
    such as "0.25", is read as that rational."""
    m = _SCALAR_RE.match(text)
    if not m:
        return ExactScalar(Fraction(text.strip()))
    an, ad, cn, cd, rad = m.groups()
    ad, cd = int(ad or 1), int(cd or 1)
    return ExactScalar.from_parts(int(an) * cd, int(cn or 0) * ad, ad * cd,
                                  int(rad or 0))


def parse_int(data: dict, name: str) -> int:
    """data[name], which must be a JSON integer: a float such as 3.9 or
    3.0, a string or a bool raises ValueError naming the field."""
    value = data[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name!r} must be an integer, got {value!r}")
    return value


def parse_strings(data: dict, name: str) -> list[str]:
    """data[name], which must be a JSON array of strings: any other value,
    or an array with an item that is no string, raises ValueError naming
    the field."""
    value = data[name]
    if not isinstance(value, list):
        raise ValueError(f"{name!r} must be a list of strings, got {value!r}")
    for i, item in enumerate(value):
        if not isinstance(item, str):
            raise ValueError(f"{name!r} must be a list of strings, item {i} "
                             f"is {item!r}")
    return value


def parse_scalar_field(value, label: str) -> ExactScalar:
    """value, read from the JSON field `label`, which must be a string
    holding a scalar such as "1/2" or "0 + 1*sqrt(3)": a number, a bool or
    any other string raises ValueError naming the field."""
    if isinstance(value, str):
        try:
            return parse_scalar(value)
        except ValueError as exc:
            # text of the a + c*sqrt(f) form fails only on its radicand
            if _SCALAR_RE.match(value):
                raise ValueError(f"{label}: {exc}") from exc
    raise ValueError(f"{label} must be a string holding a scalar, "
                     f"got {value!r}")

