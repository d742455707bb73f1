"""Dense exact linear algebra over Q(sqrt(b)).

An ExactMatrix with radicand r is stored as a pair of integer numpy arrays
(n0, n1) and a common positive denominator: entry (i, j) equals
(n0[i,j] + n1[i,j]*sqrt(r)) / den.  The parts use int64 with an automatic
upgrade to Python-int object arrays before any operation could overflow, so
all arithmetic is exact.

Floating point is used in one place, the integer products of
intlinalg.int_matmul, and only where a bound proves it exact: for a product
with inner dimension k, every partial sum of an entry is an integer of
absolute value at most B = k * max|a| * max|b|, so float32 BLAS is exact for
B < 2^24 and float64 BLAS for B < 2^53.  Larger products run in int64 (below
2^62) or Python ints.

Row reduction, kernels and inverses over Q are delegated to the vectorized
integer engine in intlinalg; matrices with a live irrational part go through
a generic elimination over ExactScalar (only ever needed at small sizes).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import intlinalg
from .exact import ExactScalar, MixedRadicandError
from .intlinalg import _INT64_SAFE, _downcast, _max_abs, _to_object


def _gcd_all(*arrays_and_ints) -> int:
    g = 0
    for x in arrays_and_ints:
        if x is None:
            continue
        if isinstance(x, (int, np.integer)):
            g = math.gcd(g, abs(int(x)))
        elif x.size:
            if x.dtype == object:
                for v in x.flat:
                    g = math.gcd(g, abs(int(v)))
                    if g == 1:
                        return 1
            else:
                g = math.gcd(g, int(np.gcd.reduce(np.abs(x), axis=None)))
        if g == 1:
            return 1
    return g


def _mm(a, b):
    """Exact integer matmul (None means zero); see intlinalg.int_matmul."""
    if a is None or b is None:
        return None
    return intlinalg.int_matmul(a, b)


def _lin(*terms):
    """Exact sum of coeff*array terms (None arrays are zero)."""
    live = [(c, a) for c, a in terms if a is not None and c != 0]
    if not live:
        return None
    # An all-zero array still meets its coefficient in c * a, so every live
    # term counts at least |c|: an int64 array times a |c| >= 2^63 overflows.
    bound = sum(abs(c) * max(_max_abs(a), 1) for c, a in live)
    if bound < _INT64_SAFE and all(a.dtype != object for _, a in live):
        out = live[0][0] * live[0][1]
        for c, a in live[1:]:
            out = out + c * a
        return out
    out = None
    for c, a in live:
        t = c * _to_object(a)
        out = t if out is None else out + t
    return out


class ExactMatrix:
    """Immutable dense matrix over Q(sqrt(rad))."""

    __slots__ = ("rad", "den", "n0", "n1")

    def __init__(self, n0, n1=None, den: int = 1, rad: int = 0, _normalize=True):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den = -den
            n0 = -n0
            n1 = None if n1 is None else -n1
        if n1 is not None and not np.any(n1):
            n1 = None
        if n1 is None:
            rad = 0
        if _normalize:
            g = _gcd_all(n0, n1, den)
            if g >= _INT64_SAFE:
                # g may not fit in int64 (int64 parts sharing it are zero):
                # divide as Python ints; _downcast restores int64 below.
                n0 = _to_object(n0)
                n1 = _to_object(n1)
            if g > 1:
                n0 = n0 // g
                n1 = None if n1 is None else n1 // g
                den //= g
            n0 = _downcast(n0)
            n1 = _downcast(n1)
        object.__setattr__(self, "n0", n0)
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "den", int(den))
        object.__setattr__(self, "rad", int(rad))

    def __setattr__(self, *_):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_int(cls, arr, den: int = 1, rad: int = 0) -> "ExactMatrix":
        return cls(intlinalg.as_int_array(arr), None, den, rad)

    @classmethod
    def from_rows(cls, rows, rad: int | None = None) -> "ExactMatrix":
        """Build from nested sequences of ExactScalar / Fraction / int."""
        scal = [[x if isinstance(x, ExactScalar) else ExactScalar(x) for x in row]
                for row in rows]
        r = 0
        for row in scal:
            for x in row:
                if x.rad:
                    if r and x.rad != r:
                        raise MixedRadicandError("mixed radicands in matrix")
                    r = x.rad
        if rad is None:
            rad = r
        elif r and r != rad:
            raise MixedRadicandError("mixed radicands in matrix")
        den = math.lcm(*(d for row in scal for x in row
                         for d in (x.a.denominator, x.c.denominator)))
        n0 = [[int(x.a * den) for x in row] for row in scal]
        n1 = [[int(x.c * den) for x in row] for row in scal]
        a0 = intlinalg.as_int_array(n0)
        a1 = intlinalg.as_int_array(n1)
        return cls(a0, a1, den, rad)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "ExactMatrix":
        return cls(np.zeros((nrows, ncols), dtype=np.int64))

    @classmethod
    def identity(cls, n: int, scale=1) -> "ExactMatrix":
        return cls.from_int(np.eye(n, dtype=np.int64)).scale(scale)

    @classmethod
    def diag(cls, values) -> "ExactMatrix":
        vals = [v if isinstance(v, ExactScalar) else ExactScalar(v) for v in values]
        n = len(vals)
        rad = 0
        for v in vals:
            if v.c != 0:
                if rad and v.rad != rad:
                    raise MixedRadicandError("mixed radicands in matrix")
                rad = v.rad
        den = math.lcm(*(d for v in vals
                         for d in (v.a.denominator, v.c.denominator)))
        n0 = np.zeros((n, n), dtype=object)
        n1 = np.zeros((n, n), dtype=object)
        for i, v in enumerate(vals):
            n0[i, i] = int(v.a * den)
            n1[i, i] = int(v.c * den)
        return cls(intlinalg.as_int_array(n0), intlinalg.as_int_array(n1), den, rad)

    @classmethod
    def column(cls, values) -> "ExactMatrix":
        return cls.from_rows([[v] for v in values])

    # -- basic queries ---------------------------------------------------

    @property
    def shape(self):
        return self.n0.shape

    @property
    def is_rational(self) -> bool:
        return self.n1 is None

    def is_zero(self) -> bool:
        return not np.any(self.n0) and self.n1 is None

    def entry(self, i: int, j: int) -> ExactScalar:
        a = Fraction(int(self.n0[i, j]), self.den)
        c = Fraction(int(self.n1[i, j]), self.den) if self.n1 is not None else 0
        return ExactScalar(a, c, self.rad)

    def rows(self):
        nr, nc = self.shape
        for i in range(nr):
            yield [self.entry(i, j) for j in range(nc)]

    def to_fractions(self) -> np.ndarray:
        if self.n1 is not None:
            raise ValueError("matrix has an irrational part")
        out = np.empty(self.shape, dtype=object)
        for i in range(self.shape[0]):
            for j in range(self.shape[1]):
                out[i, j] = Fraction(int(self.n0[i, j]), self.den)
        return out

    # -- radicand bookkeeping ---------------------------------------------

    def _join_rad(self, other_rad: int) -> int:
        if self.n1 is None or self.rad == 0:
            return other_rad
        if other_rad == 0:
            return self.rad
        if self.rad != other_rad:
            raise MixedRadicandError(
                f"cannot mix sqrt({self.rad}) with sqrt({other_rad})"
            )
        return self.rad

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        rad = self._join_rad(other.rad if other.n1 is not None else 0)
        g = math.gcd(self.den, other.den)
        sa, sb = other.den // g, self.den // g
        n0 = _lin((sa, self.n0), (sb, other.n0))
        n1 = _lin((sa, self.n1), (sb, other.n1))
        if n0 is None:
            n0 = np.zeros(self.shape, dtype=np.int64)
        return ExactMatrix(n0, n1, self.den * sa, rad)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + (-other)

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(-self.n0, None if self.n1 is None else -self.n1,
                           self.den, self.rad, _normalize=False)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        rad = self._join_rad(other.rad if other.n1 is not None else 0)
        p00 = _mm(self.n0, other.n0)
        p11 = _mm(self.n1, other.n1)
        p01 = _mm(self.n0, other.n1)
        p10 = _mm(self.n1, other.n0)
        n0 = _lin((1, p00), (rad, p11))
        n1 = _lin((1, p01), (1, p10))
        if n0 is None:
            n0 = np.zeros((self.shape[0], other.shape[1]), dtype=np.int64)
        return ExactMatrix(n0, n1, self.den * other.den, rad)

    def scale(self, s) -> "ExactMatrix":
        s = s if isinstance(s, ExactScalar) else ExactScalar(s)
        if s.is_zero:
            return ExactMatrix.zeros(*self.shape)
        rad = self._join_rad(s.rad if s.c != 0 else 0)
        qa = s.a.denominator
        qc = s.c.denominator
        pa = int(s.a * qa * qc)
        pc = int(s.c * qa * qc)
        n0 = _lin((pa, self.n0), (pc * rad, self.n1))
        n1 = _lin((pc, self.n0), (pa, self.n1))
        if n0 is None:
            n0 = np.zeros(self.shape, dtype=np.int64)
        return ExactMatrix(n0, n1, self.den * qa * qc, rad)

    def __mul__(self, s):
        return self.scale(s)

    __rmul__ = __mul__

    def entrywise(self, other: "ExactMatrix") -> "ExactMatrix":
        """Hadamard (entrywise) product."""
        rad = self._join_rad(other.rad if other.n1 is not None else 0)

        def prod(a, b):
            if a is None or b is None:
                return None
            if a.dtype != object and b.dtype != object:
                if _max_abs(a) * _max_abs(b) < _INT64_SAFE:
                    return a * b
            return _to_object(a) * _to_object(b)

        n0 = _lin((1, prod(self.n0, other.n0)), (rad, prod(self.n1, other.n1)))
        n1 = _lin((1, prod(self.n0, other.n1)), (1, prod(self.n1, other.n0)))
        if n0 is None:
            n0 = np.zeros(self.shape, dtype=np.int64)
        return ExactMatrix(n0, n1, self.den * other.den, rad)

    def masked(self, mask: np.ndarray) -> "ExactMatrix":
        """Entrywise product with a 0/1 integer mask."""
        m = mask.astype(self.n0.dtype if self.n0.dtype != object else np.int64)
        n0 = self.n0 * m
        n1 = None if self.n1 is None else self.n1 * m
        return ExactMatrix(n0, n1, self.den, self.rad)

    def row_scale(self, values) -> "ExactMatrix":
        """diag(values) @ self for rational values (rows scaled)."""
        vals = [Fraction(v) for v in values]
        den = math.lcm(*(v.denominator for v in vals))
        nums = intlinalg.as_int_array([[int(v * den)] for v in vals])
        bound = _max_abs(nums) * max(_max_abs(self.n0), _max_abs(self.n1))
        if bound >= _INT64_SAFE or self.n0.dtype == object:
            nums = _to_object(nums)
            n0 = _to_object(self.n0) * nums
            n1 = None if self.n1 is None else _to_object(self.n1) * nums
        else:
            n0 = self.n0 * nums
            n1 = None if self.n1 is None else self.n1 * nums
        return ExactMatrix(n0, n1, self.den * den, self.rad)

    @property
    def T(self) -> "ExactMatrix":
        return ExactMatrix(self.n0.T.copy(),
                           None if self.n1 is None else self.n1.T.copy(),
                           self.den, self.rad, _normalize=False)

    def trace(self) -> ExactScalar:
        a = Fraction(int(np.trace(self.n0)), self.den)
        c = Fraction(int(np.trace(self.n1)), self.den) if self.n1 is not None else 0
        return ExactScalar(a, c, self.rad)

    def sum_all(self) -> ExactScalar:
        a = Fraction(int(self.n0.sum()), self.den)
        c = Fraction(int(self.n1.sum()), self.den) if self.n1 is not None else 0
        return ExactScalar(a, c, self.rad)

    def submatrix(self, row_idx, col_idx) -> "ExactMatrix":
        n0 = self.n0[np.ix_(row_idx, col_idx)]
        n1 = None if self.n1 is None else self.n1[np.ix_(row_idx, col_idx)]
        return ExactMatrix(n0, n1, self.den, self.rad)

    def take_rows(self, row_idx) -> "ExactMatrix":
        n0 = self.n0[row_idx]
        n1 = None if self.n1 is None else self.n1[row_idx]
        return ExactMatrix(n0, n1, self.den, self.rad)

    @classmethod
    def stack_rows(cls, mats) -> "ExactMatrix":
        mats = list(mats)
        rad = 0
        for m in mats:
            rad = m._join_rad(rad)
        den = math.lcm(*(m.den for m in mats))
        parts0, parts1 = [], []
        for m in mats:
            s = den // m.den
            parts0.append(_lin((s, m.n0)))
            if m.n1 is None:
                parts1.append(np.zeros(m.shape, dtype=np.int64))
            else:
                parts1.append(_lin((s, m.n1)))
        n0 = np.concatenate(parts0)
        n1 = np.concatenate(parts1) if any(np.any(p) for p in parts1) else None
        return cls(n0, n1, den, rad)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("ExactMatrix is unhashable")

    def key(self):
        """Hashable canonical form (normalized entries)."""
        t0 = tuple(int(v) for v in self.n0.flat)
        t1 = None if self.n1 is None else tuple(int(v) for v in self.n1.flat)
        return (self.shape, self.den, self.rad, t0, t1)

    def __repr__(self):
        return f"ExactMatrix(shape={self.shape}, den={self.den}, rad={self.rad})"


class Subspace:
    """A subspace of Q(sqrt(b))^n given by a pivot-normalized RREF basis."""

    __slots__ = ("ambient", "basis", "pivots")

    def __init__(self, ambient: int, basis: ExactMatrix, pivots: tuple[int, ...]):
        self.ambient = ambient
        self.basis = basis
        self.pivots = tuple(pivots)

    @property
    def dim(self) -> int:
        return self.basis.shape[0] if self.basis.shape[1] else 0

    def contains_rows(self, m: ExactMatrix) -> bool:
        if self.dim == 0:
            return m.is_zero()
        coords = m.submatrix(range(m.shape[0]), list(self.pivots))
        return (m - coords @ self.basis).is_zero()

    def key(self):
        return (self.ambient, self.pivots, self.basis.key())

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


# ---------------------------------------------------------------------------
# Row reduction


def _leading_one(red: np.ndarray, pivots, ncols: int) -> ExactMatrix:
    """The leading-1 RREF whose rows are the primitive integer rows `red`
    (as int_rref returns them) divided by their pivot entries."""
    if len(pivots) == 0:
        return ExactMatrix.zeros(0, ncols)
    piv = [int(red[i, p]) for i, p in enumerate(pivots)]
    den = math.lcm(*piv)
    scale = np.array([den // p for p in piv], dtype=object)
    return ExactMatrix(_to_object(red) * scale[:, None], None, den)


def _generic_rref(rows: list[list[ExactScalar]]):
    """Gauss-Jordan over ExactScalar; returns (rows, pivots)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, nrows) if not rows[i][c].is_zero), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and not rows[i][c].is_zero:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], tuple(pivots)


def rref(m: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...]]:
    """Leading-1 reduced row echelon form of the row space of m."""
    if m.is_rational:
        red, pivots = intlinalg.int_rref(m.n0)
        return _leading_one(red, pivots, m.shape[1]), pivots
    red, pivots = _generic_rref([list(r) for r in m.rows()])
    if not red:
        return ExactMatrix.zeros(0, m.shape[1]), ()
    return ExactMatrix.from_rows(red, rad=m.rad), pivots


def row_space(m: ExactMatrix) -> Subspace:
    basis, pivots = rref(m)
    return Subspace(m.shape[1], basis, pivots)


def kernel(m: ExactMatrix) -> Subspace:
    """Exact right null space {v : m v = 0} with RREF basis rows."""
    ncols = m.shape[1]
    if m.is_rational:
        basis, pivots = intlinalg.int_kernel(m.n0)
        return Subspace(ncols, _leading_one(basis, pivots, ncols), pivots)
    red, pivots = _generic_rref([list(r) for r in m.rows()])
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    if not free:
        return Subspace(ncols, ExactMatrix.zeros(0, ncols), ())
    from .exact import ZERO, ONE

    rows = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][f]
        rows.append(v)
    red2, piv2 = _generic_rref(rows)
    return Subspace(ncols, ExactMatrix.from_rows(red2, rad=m.rad), piv2)


def intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """Intersection of two subspaces of the same ambient space."""
    if s1.ambient != s2.ambient:
        raise ValueError("ambient dimensions differ")
    if s1.dim == 0 or s2.dim == 0:
        return Subspace(s1.ambient, ExactMatrix.zeros(0, s1.ambient), ())
    stacked = ExactMatrix.stack_rows([s1.basis, -s2.basis])
    k = kernel(stacked.T)
    if k.dim == 0:
        return Subspace(s1.ambient, ExactMatrix.zeros(0, s1.ambient), ())
    coeffs = k.basis.submatrix(range(k.dim), range(s1.dim))
    vecs = coeffs @ s1.basis
    return row_space(vecs)


def inverse(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse of a square nonsingular matrix."""
    n = m.shape[0]
    if m.shape[1] != n:
        raise ValueError("matrix must be square")
    if m.is_rational:
        num, den = intlinalg.int_inverse(m.n0)
        dlcm = math.lcm(*map(int, den))
        scale = np.array([dlcm // int(d) for d in den], dtype=object)
        rows = _to_object(num) * scale[:, None] * m.den
        return ExactMatrix(rows, None, dlcm)
    red, pivots = _generic_rref(
        [list(r) + [ExactScalar(1 if i == j else 0) for j in range(n)]
         for i, r in enumerate(m.rows())]
    )
    if list(pivots) != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    rows = [r[n:] for r in red]
    return ExactMatrix.from_rows(rows, rad=m.rad)


# ---------------------------------------------------------------------------
# Projectors


def spectral_projectors(a: ExactMatrix, eigs) -> list[ExactMatrix]:
    """All primitive idempotents of a diagonalizable matrix.

    eigs must list every eigenvalue of `a`, each exactly once; the identity
    sum(E_i) = I certifies completeness and diagonalizability.
    """
    eigs = [e if isinstance(e, ExactScalar) else ExactScalar(e) for e in eigs]
    for i in range(len(eigs)):
        for j in range(i + 1, len(eigs)):
            if eigs[i] == eigs[j]:
                raise ValueError(f"repeated eigenvalue {eigs[i]}")
    n = a.shape[0]
    ident = ExactMatrix.identity(n)
    projs = []
    for i, ei in enumerate(eigs):
        p = ident
        denom = ExactScalar(1)
        for j, ej in enumerate(eigs):
            if j == i:
                continue
            p = p @ (a - ident.scale(ej))
            denom = denom * (ei - ej)
        p = p.scale(denom.inverse())
        projs.append(p)
    total = projs[0]
    for p in projs[1:]:
        total = total + p
    if total != ident:
        raise ValueError("eigenvalue list does not exhaust the spectrum")
    for ei, p in zip(eigs, projs):
        if p @ p != p:
            raise ValueError("projector is not idempotent")
        if a @ p != p.scale(ei):
            raise ValueError(f"projector fails A E = {ei} E")
    return projs


def orthogonal_projector(s: Subspace) -> ExactMatrix:
    """Orthogonal projector onto s for the standard symmetric bilinear form."""
    if s.dim == 0:
        return ExactMatrix.zeros(s.ambient, s.ambient)
    b = s.basis
    gram = b @ b.T
    try:
        ginv = inverse(gram)
    except ZeroDivisionError:
        raise ZeroDivisionError("degenerate basis: singular Gram matrix")
    return b.T @ ginv @ b
