"""Dense exact linear algebra over Q(sqrt(b)).

An ExactMatrix with radicand r is stored as a pair of integer numpy arrays
(n0, n1) and a common positive denominator: entry (i, j) equals
(n0[i,j] + n1[i,j]*sqrt(r)) / den, the form of an ExactScalar's int parts
(p, r, den), so scalars enter and leave a matrix as ints, never as
Fractions.  The parts use int64 with an automatic upgrade to Python-int
object arrays before any operation could overflow, so all arithmetic is
exact.

Every linear operation is one primitive, `ExactMatrix.combination`: a sum
s_1 M_1 + ... + s_k M_k goes over one common denominator, each part is one
integer combination (intarith.int_lin) and the result is normalized once;
a sum, difference or scaling is a combination of one or two terms.  A
product is one integer product: n0 n0' for two rational matrices, else the
stacked parts [n0; n1] @ [n0' | n1'], whose blocks are the cross terms (a
rational side gives n0 alone).  intarith.int_matmul runs it on float32 or
float64 BLAS, in int64 (also for any product of fewer than _TINY
multiply-adds that fits) or in Python ints, each chosen from a bound that
proves it exact (see its docstring).

Row reduction, kernels and inverses run over Q only, in the vectorized
integer engine of intlinalg, which is loaded on the first elimination: a
call that eliminates nothing (any `leonard` call) never compiles it.  A
matrix with a live irrational part is refused with ValueError.  A
triangular matrix is inverted by back substitution over either field.
"""

from __future__ import annotations

import math

import numpy as np

from . import intarith
from .exact import ExactScalar, join_rads
from .intarith import (_INT64_SAFE, _downcast, _to_object, as_int_array,
                       int_lin, int_mul)


def _gcd_all(*arrays_and_ints) -> int:
    """gcd of the ints and of every entry of the arrays (None is skipped);
    returns as soon as it reaches 1, which the first entry of an array
    often settles before the array is reduced."""
    g = 0
    for x in arrays_and_ints:
        if x is None:
            continue
        if isinstance(x, (int, np.integer)):
            g = math.gcd(g, abs(int(x)))
        elif x.size:
            g = math.gcd(g, abs(int(x.flat[0])))
            if g != 1:
                g = math.gcd(g, int(np.gcd.reduce(np.abs(x), axis=None)))
        if g == 1:
            return 1
    return g


def _mm(a, b):
    """Exact integer matmul; see intarith.int_matmul."""
    return intarith.int_matmul(a, b)


def _scalar(x) -> ExactScalar:
    return x if isinstance(x, ExactScalar) else ExactScalar(x)


_ONE = ExactScalar(1)
_MINUS_ONE = ExactScalar(-1)


class ExactMatrix:
    """Immutable dense matrix over Q(sqrt(rad))."""

    __slots__ = ("rad", "den", "n0", "n1")

    def __init__(self, n0, n1=None, den: int = 1, rad: int = 0,
                 _normalize=True):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den = -den
            n0 = -n0
            n1 = None if n1 is None else -n1
        if n1 is not None and not n1.any():
            n1 = None
        if n1 is None:
            rad = 0
        if _normalize:
            g = _gcd_all(den, n0, n1)  # den = 1 settles g = 1 at once
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
        return cls(as_int_array(arr), None, den, rad)

    @classmethod
    def from_rows(cls, rows) -> "ExactMatrix":
        """Build from nested sequences of ExactScalar / Fraction / int."""
        scal = [[_scalar(x) for x in row] for row in rows]
        flat = [x for row in scal for x in row]
        den = math.lcm(*(x.den for x in flat))
        n0 = [[x.p * (den // x.den) for x in row] for row in scal]
        n1 = [[x.r * (den // x.den) for x in row] for row in scal]
        return cls(as_int_array(n0), as_int_array(n1), den,
                   join_rads(*(x.rad for x in flat)))

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "ExactMatrix":
        return cls(np.zeros((nrows, ncols), dtype=np.int64))

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls.from_int(np.eye(n, dtype=np.int64))

    @classmethod
    def tridiagonal(cls, sub, diag, sup) -> "ExactMatrix":
        """The (d+1) x (d+1) matrix with diagonal `diag` (d + 1 scalars),
        entry (i+1, i) sub[i] and entry (i, i+1) sup[i] (d each), every
        other entry 0: the shape of every small matrix of the paper.  The
        3d + 1 scalars (ExactScalar, Fraction or int) go over one
        denominator."""
        d = len(sub)
        flat = [_scalar(x) for band in (sub, diag, sup) for x in band]
        den = math.lcm(*(x.den for x in flat))
        parts = []
        for v in ([x.p * (den // x.den) for x in flat],
                  [x.r * (den // x.den) for x in flat]):
            v = as_int_array(v)[0]
            parts.append(np.diag(v[:d], -1) + np.diag(v[d:2 * d + 1])
                         + np.diag(v[2 * d + 1:], 1))
        return cls(*parts, den, join_rads(*(x.rad for x in flat)))

    @classmethod
    def diag(cls, values) -> "ExactMatrix":
        zeros = [0] * (len(values) - 1)
        return cls.tridiagonal(zeros, values, zeros)

    @classmethod
    def column(cls, values) -> "ExactMatrix":
        return cls.from_rows([[v] for v in values])

    @classmethod
    def combination(cls, terms) -> "ExactMatrix":
        """sum s M over pairs of a scalar s (ExactScalar, Fraction or int)
        and a matrix M (an ExactMatrix or an integer array), all M of one
        shape; pairs with s = 0 are left out.  The products s M are put
        over their least common denominator, so each part of the sum is one
        integer combination, and the sum is normalized once.  Every live
        irrational scalar and matrix must have the same radicand."""
        terms = list(terms)
        shape = terms[0][1].shape
        live, rads = [], []
        for s, m in terms:
            s = _scalar(s)
            if s.is_zero:
                continue
            if not isinstance(m, ExactMatrix):
                m = cls.from_int(m)  # widened: a uint8 or bool sum could wrap
            rads += (s.rad, m.rad)
            live.append((s, m.den * s.den, m.n0, m.n1))
        rad = join_rads(*rads)
        den = math.lcm(*(d for _, d, *_ in live))
        terms0, terms1 = [], []
        for s, d, n0, n1 in live:
            f = den // d
            # (p + r sqrt rad)(n0 + n1 sqrt rad)
            #     = (p n0 + r rad n1) + (r n0 + p n1) sqrt rad
            terms0 += [(f * s.p, n0), (f * s.r * rad, n1)]
            terms1 += [(f * s.r, n0), (f * s.p, n1)]
        n0 = int_lin(*terms0)
        n1 = int_lin(*terms1)
        if n0 is None:
            n0 = np.zeros(shape, dtype=np.int64)
        return cls(n0, n1, den, rad)

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
        r = int(self.n1[i, j]) if self.n1 is not None else 0
        return ExactScalar.from_parts(int(self.n0[i, j]), r, self.den,
                                      self.rad)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return ExactMatrix.combination(((_ONE, self), (_ONE, other)))

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return ExactMatrix.combination(((_ONE, self), (_MINUS_ONE, other)))

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        rad = join_rads(self.rad, other.rad)
        if self.n1 is None and other.n1 is None:
            return ExactMatrix(_mm(self.n0, other.n0), None,
                               self.den * other.den)
        # One product of the stacked parts: [n0; n1] @ [n0' | n1'] has the
        # blocks n0 n0', n0 n1' (top) and n1 n0', n1 n1' (bottom); a
        # rational side contributes its n0 alone.
        m, n = self.shape[0], other.shape[1]
        a = self.n0 if self.n1 is None else np.concatenate((self.n0, self.n1))
        b = other.n0 if other.n1 is None else np.concatenate(
            (other.n0, other.n1), axis=1)
        p = _mm(a, b)
        if self.n1 is None:
            n0, n1 = p[:, :n], p[:, n:]
        elif other.n1 is None:
            n0, n1 = p[:m], p[m:]
        else:
            n0 = int_lin((1, p[:m, :n]), (rad, p[m:, n:]))
            n1 = int_lin((1, p[:m, n:]), (1, p[m:, :n]))
        return ExactMatrix(n0, n1, self.den * other.den, rad)

    def scale(self, s) -> "ExactMatrix":
        return ExactMatrix.combination(((s, self),))

    def entrywise(self, other: "ExactMatrix") -> "ExactMatrix":
        """Hadamard (entrywise) product."""
        rad = join_rads(self.rad, other.rad)

        def prod(a, b):
            return None if a is None or b is None else int_mul(a, b)

        n0 = int_lin((1, prod(self.n0, other.n0)),
                     (rad, prod(self.n1, other.n1)))
        n1 = int_lin((1, prod(self.n0, other.n1)),
                     (1, prod(self.n1, other.n0)))
        if n0 is None:
            n0 = np.zeros(self.shape, dtype=np.int64)
        return ExactMatrix(n0, n1, self.den * other.den, rad)

    @property
    def T(self) -> "ExactMatrix":
        return ExactMatrix(self.n0.T.copy(),
                           None if self.n1 is None else self.n1.T.copy(),
                           self.den, self.rad, _normalize=False)

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
        rad = join_rads(*(m.rad for m in mats))
        den = math.lcm(*(m.den for m in mats))
        parts0, parts1 = [], []
        for m in mats:
            s = den // m.den
            parts0.append(int_lin((s, m.n0)))
            if m.n1 is None:
                parts1.append(np.zeros(m.shape, dtype=np.int64))
            else:
                parts1.append(int_lin((s, m.n1)))
        n0 = np.concatenate(parts0)
        n1 = np.concatenate(parts1) if any(np.any(p) for p in parts1) else None
        return cls(n0, n1, den, rad)

    def __eq__(self, other):
        """Every matrix is kept in lowest terms (den > 0 coprime to the
        entries, n1 None when zero), so equal matrices have equal parts."""
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        join_rads(self.rad, other.rad)  # mixed radicands raise
        return self.shape == other.shape and self.den == other.den \
            and np.array_equal(self.n0, other.n0) \
            and (self.n1 is None) == (other.n1 is None) \
            and (self.n1 is None or np.array_equal(self.n1, other.n1))

    def __hash__(self):
        raise TypeError("ExactMatrix is unhashable")

    def __repr__(self):
        return f"ExactMatrix(shape={self.shape}, den={self.den}, rad={self.rad})"


# ---------------------------------------------------------------------------
# Row reduction


def _leading_one(red: np.ndarray, pivots, ncols: int) -> ExactMatrix:
    """The leading-1 RREF whose rows are the primitive integer rows `red`
    (as int_rref returns them) divided by their pivot entries, over the lcm
    of the pivots; int64 wherever the scaled rows fit."""
    if len(pivots) == 0:
        return ExactMatrix.zeros(0, ncols)
    piv = red[np.arange(len(pivots)), list(pivots)].tolist()
    den = math.lcm(*piv)
    return ExactMatrix(int_mul(red, as_int_array([den // p for p in piv]).T),
                       None, den)


def _rational(m: ExactMatrix, what: str):
    if not m.is_rational:
        raise ValueError(f"{what} runs over Q only; the matrix has an "
                         f"irrational part in sqrt({m.rad})")


def rref(m: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...]]:
    """Leading-1 reduced row echelon form of the row space of a rational
    matrix m."""
    _rational(m, "rref")
    from . import intlinalg
    red, pivots = intlinalg.int_rref(m.n0)
    return _leading_one(red, pivots, m.shape[1]), pivots


def kernel(m: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...]]:
    """Exact right null space {v : m v = 0} of a rational matrix m: its
    leading-1 RREF basis rows and their pivots, as `rref` returns a row
    space."""
    _rational(m, "kernel")
    from . import intlinalg
    basis, pivots = intlinalg.int_kernel(m.n0)
    return _leading_one(basis, pivots, m.shape[1]), pivots


def _is_upper_triangular(m: ExactMatrix) -> bool:
    return not any(part is not None and np.tril(part, -1).any()
                   for part in (m.n0, m.n1))


def _upper_triangular_inverse(m: ExactMatrix) -> ExactMatrix:
    """Back substitution: row i of the inverse is
    (e_i - sum_(j > i) m_ij row_j) / m_ii, from the last row up."""
    n = m.shape[0]
    ident = ExactMatrix.identity(n)
    rows = [None] * n
    for i in reversed(range(n)):
        piv = m.entry(i, i)
        if piv.is_zero:
            raise ZeroDivisionError("matrix is singular")
        inv = piv.inverse()
        rows[i] = ExactMatrix.combination(
            [(inv, ident.take_rows([i]))]
            + [(-m.entry(i, j) * inv, rows[j]) for j in range(i + 1, n)])
    return ExactMatrix.stack_rows(rows)


def inverse(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse of a square nonsingular matrix.  A triangular matrix
    (the bidiagonal A* - h* of a split basis, say) is inverted by back
    substitution over either field, in O(n^2) row operations when it is
    bidiagonal; any other must be rational, and is inverted by the integer
    engine."""
    n = m.shape[0]
    if m.shape[1] != n:
        raise ValueError("matrix must be square")
    if _is_upper_triangular(m):
        return _upper_triangular_inverse(m)
    if _is_upper_triangular(m.T):
        return _upper_triangular_inverse(m.T).T
    _rational(m, "inverse of a non-triangular matrix")
    from . import intlinalg
    num, den = intlinalg.int_inverse(m.n0)
    dlcm = math.lcm(*map(int, den))
    scale = np.array([dlcm // int(d) for d in den], dtype=object)
    rows = _to_object(num) * scale[:, None] * m.den
    return ExactMatrix(rows, None, dlcm)


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
            p = p @ ExactMatrix.combination(((1, a), (-ej, ident)))
            denom = denom * (ei - ej)
        projs.append(p.scale(denom.inverse()))
    if ExactMatrix.combination((1, p) for p in projs) != ident:
        raise ValueError("eigenvalue list does not exhaust the spectrum")
    for ei, p in zip(eigs, projs):
        if p @ p != p:
            raise ValueError("projector is not idempotent")
        if a @ p != p.scale(ei):
            raise ValueError(f"projector fails A E = {ei} E")
    return projs
