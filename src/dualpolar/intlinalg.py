"""Vectorized exact integer Gaussian elimination.

Row reduction over Q is done on integer matrices (numpy int64, upgraded to
Python-int object arrays when entries threaten to overflow).  Rows are kept
primitive (gcd 1, positive pivot) after every update, which both bounds
coefficient growth and makes the reduced form canonical: dividing each row
by its pivot yields the unique leading-1 RREF of the row space.
"""

from __future__ import annotations

import math

import numpy as np

_INT64_SAFE = 2 ** 62


def as_int_array(rows, dtype=np.int64) -> np.ndarray:
    a = np.array(rows, dtype=object)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    try:
        return a.astype(dtype)
    except OverflowError:
        return a


def _to_object(a):
    """a as a Python-int object array (None stays None)."""
    return a if a is None or a.dtype == object else a.astype(object)


def _downcast(a):
    """a as int64 when every entry fits below 2^62 (None stays None)."""
    if a is None or a.dtype != object:
        return a
    if a.size == 0 or _max_abs(a) < _INT64_SAFE:
        return a.astype(np.int64)
    return a


def _max_abs(a) -> int:
    """max |entry| of an integer array; 0 for None or an empty array."""
    if a is None or a.size == 0:
        return 0
    if a.dtype == object:
        return int(np.abs(a).max())
    # max and min, not np.abs: abs(-2^63) wraps in int64 and bool has no sign
    return max(int(a.max()), -int(a.min()))


# Every integer of absolute value at most 2^24 is a float32 and every one up
# to 2^53 a float64; int64 is used up to 2^62, which leaves a bit to spare.
_F32_EXACT = 2 ** 24
_F64_EXACT = 2 ** 53


def _matmul_dtype(bound: int):
    """Cheapest arithmetic that holds every integer of absolute value at
    most `bound` exactly."""
    if bound < _F32_EXACT:
        return np.float32
    if bound < _F64_EXACT:
        return np.float64
    if bound < _INT64_SAFE:
        return np.int64
    return object


def int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of two 2-d integer (or bool) arrays of any dtype.

    The result is int64 when B = k * max|a| * max|b|, with k = a.shape[1],
    is below 2^62, and an object array of Python ints otherwise.  The
    arithmetic is chosen from B alone: float32 BLAS below 2^24, float64 BLAS
    below 2^53, int64 below 2^62, Python ints above.

    Why a float product is exact: every partial sum that any summation order
    forms for entry (i, l) adds some of the k terms a_ij * b_jl, each an
    integer of absolute value at most max|a| * max|b|, so the partial sum is
    an integer of absolute value at most B.  Below 2^24 (2^53) every such
    integer is a float32 (float64), and so are the operands, as max|a| and
    max|b| are at most B.  Each multiply, add or fused multiply-add then
    yields an exactly representable integer and rounds nothing, whatever
    order or blocking the BLAS uses.  This holds for the classical
    inner-product algorithm that BLAS libraries implement; a Strassen-type
    algorithm forms sums that are not partial sums and is not covered.

    Operands are widened before they meet, so a uint8 or bool product does
    not wrap, and each float copy lives only as long as its product.
    """
    m, n = a.shape[0], b.shape[1]
    ma, mb = _max_abs(a), _max_abs(b)
    if ma == 0 or mb == 0:
        # a zero operand may face entries no float can hold (0 * inf is nan)
        return np.zeros((m, n), dtype=np.int64)
    dtype = _matmul_dtype(a.shape[1] * ma * mb)
    if dtype is object:
        return np.dot(_to_object(a), _to_object(b))
    prod = a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)
    return prod.astype(np.int64, copy=False)


def _gcd_rows(a: np.ndarray) -> np.ndarray:
    """Componentwise gcd along rows; zero rows give gcd 1."""
    if a.dtype != object:
        g = np.gcd.reduce(np.abs(a), axis=1)
        return np.where(g == 0, 1, g)
    out = np.empty(a.shape[0], dtype=object)
    for i in range(a.shape[0]):
        g = 0
        for v in a[i]:
            if v:
                g = math.gcd(g, v if v > 0 else -v)
                if g == 1:
                    break
        out[i] = g if g else 1
    return out


def _int_rref_exact(mat: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Fraction-free Gauss-Jordan row reduction of an integer matrix.

    Uses the one-step fraction-free update
        row_i <- (piv * row_i - col_i * row_piv) / previous_pivot,
    whose divisions are exact and keep every entry a minor of the input, so
    coefficients stay polynomially small without intermediate gcds.

    Returns (R, pivots) where R holds the nonzero rows, each primitive with
    positive leading entry, zeros above and below every pivot.  Row i of the
    rational RREF is R[i] / R[i, pivots[i]].
    """
    a = mat.copy()
    if a.ndim != 2:
        raise ValueError("expected a 2-d array")
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        piv = int(a[r, c])
        col = a[:, c].copy()
        col[r] = 0
        if a.dtype != object:
            bound = abs(piv) * _max_abs(a) + _max_abs(col) * _max_abs(a[r])
            if bound >= _INT64_SAFE:
                a = _to_object(a)
                col = _to_object(col)
        others = np.ones(nrows, dtype=bool)
        others[r] = False
        sub = a[others] * piv - np.outer(col[others], a[r])
        sub //= prev
        a[others] = sub
        prev = piv
        pivots.append(c)
        r += 1
    a = a[:r]
    if r:
        g = _gcd_rows(a)
        a = a // g[:, None]
        for i in range(r):
            if a[i, pivots[i]] < 0:
                a[i] = -a[i]
    a = _downcast(a)
    return a, tuple(pivots)


def int_rank(mat: np.ndarray) -> int:
    return len(int_rref(mat)[1])


def int_kernel(mat: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Canonical basis of the right null space over Q, in int_rref's form:
    (primitive rows, pivots).  The rows divided by their leading entries
    form the RREF basis of {v : mat @ v = 0}.
    """
    red, pivots = int_rref(mat)
    ncols = mat.shape[1]
    free = np.setdiff1d(np.arange(ncols), pivots)
    if free.size == 0:
        return np.zeros((0, ncols), dtype=np.int64), ()
    # with L a common multiple of the pivot entries p_i, free column f gives
    # the integer vector L e_f - sum_i (L / p_i) red[i, f] e_(pivots[i])
    piv = [int(red[i, c]) for i, c in enumerate(pivots)]
    big = math.lcm(*piv)
    dtype = np.int64 if big * _max_abs(red) < _INT64_SAFE else object
    basis = np.zeros((free.size, ncols), dtype=dtype)
    basis[np.arange(free.size), free] = big
    scale = np.array([big // p for p in piv], dtype=dtype)
    basis[:, list(pivots)] = -(red[:, free].astype(dtype) * scale[:, None]).T
    return int_rref(basis)


def int_inverse(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact inverse of a nonsingular integer matrix.

    Returns (num, den_col) with inverse[i, j] = num[i, j] / den_col[i]; the
    scaling is per row of the inverse.
    """
    n = mat.shape[0]
    if mat.shape[1] != n:
        raise ValueError("matrix must be square")
    if mat.dtype == object:
        eye = np.zeros((n, n), dtype=object)
        for i in range(n):
            eye[i, i] = 1
    else:
        eye = np.eye(n, dtype=mat.dtype)
    aug = np.concatenate([mat, eye], axis=1)
    red, pivots = int_rref(aug)
    if list(pivots) != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    num = red[:, n:]
    den = np.array([red[i, i] for i in range(n)], dtype=red.dtype)
    return num, den


# ---------------------------------------------------------------------------
# Modular row reduction with exact certification
#
# For large matrices the canonical RREF is computed modulo word-sized primes,
# lifted by CRT, and the free-column entries recovered by rational
# reconstruction.  The candidate is then certified exactly:
#
#   * the mod-p elimination exhibits a pivot minor that is nonzero mod p,
#     hence nonzero over Z, so rank(M) >= #pivots;
#   * the exact residual check M = M[:, pivots] @ R proves that the row
#     space of M lies inside the candidate row space, so rank(M) <= #pivots.
#
# Together these force equality of the row spaces, and an RREF-shaped basis
# of a space is unique, so the verified candidate IS the canonical RREF.
# On any failure more primes are added, and ultimately the fraction-free
# elimination is used, so the result is always exact.


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_list(count: int = 40) -> list[int]:
    out = []
    p = 2 ** 30 - 35  # largest prime below 2^30
    while len(out) < count:
        if is_prime(p):
            out.append(p)
        p -= 2
    return out


_PRIMES = _prime_list()
_MODULAR_CANDIDATE_TRIES = 40
_MODULAR_MIN_SIZE = 5000


def _mod_rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Plain Gauss-Jordan over GF(p), vectorized."""
    a = (mat % p).astype(np.int64)
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        q = r + int(nz[0])
        if q != r:
            a[[r, q]] = a[[q, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            a[mask] = (a[mask] - np.outer(col[mask], a[r])) % p
        pivots.append(c)
        r += 1
    return a[:r], tuple(pivots)


def _crt_combine(res1: np.ndarray, mod1: int, res2: np.ndarray,
                 mod2: int) -> np.ndarray:
    inv = pow(mod1 % mod2, mod2 - 2, mod2)
    diff = (res2 - (res1 % mod2)) % mod2
    t = (diff * inv) % mod2
    return res1 + t * mod1


def _rat_reconstruct(x: int, modulus: int, bound: int):
    """p/q with x = p/q mod modulus and |p|, q <= bound, or None."""
    r0, r1 = modulus, x % modulus
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    num, den = (r1, s1) if s1 > 0 else (-r1, -s1)
    if math.gcd(abs(num) if num else den, den) != 1:
        g = math.gcd(abs(num), den)
        if g == 0:
            return None
        num //= g
        den //= g
    if (num - den * x) % modulus:
        return None
    return num, den


def _int_rref_modular(mat: np.ndarray):
    """Certified modular RREF; None when reconstruction keeps failing."""
    nrows, ncols = mat.shape
    acc = None  # (pivots, residues (object array), modulus, prime count)
    for p in _PRIMES[:_MODULAR_CANDIDATE_TRIES]:
        red, pivots = _mod_rref(mat, p)
        if acc is not None and pivots != acc[0]:
            # pivot disagreement: restart with the richer structure (more
            # pivots can only mean less rank drop)
            if len(pivots) <= len(acc[0]):
                continue
            acc = None
        if acc is None:
            acc = (pivots, red.astype(object), p, 1)
        else:
            acc = (pivots, _crt_combine(acc[1], acc[2], red.astype(object), p),
                   acc[2] * p, acc[3] + 1)
        pivots, residues, modulus, nprimes = acc
        if nprimes > 4 and nprimes % 4:
            continue  # reconstruction attempts on a sparse schedule
        bound = math.isqrt(modulus // 2)
        k = len(pivots)
        free = [c for c in range(ncols) if c not in set(pivots)]
        rows = np.zeros((k, ncols), dtype=object)
        ok = True
        for i in range(k):
            entries = {}
            for c in free:
                pq = _rat_reconstruct(int(residues[i, c]), modulus, bound)
                if pq is None:
                    ok = False
                    break
                entries[c] = pq
            if not ok:
                break
            den_lcm = math.lcm(*(den for _, den in entries.values()))
            rows[i, pivots[i]] = den_lcm
            for c, (num, den) in entries.items():
                rows[i, c] = num * (den_lcm // den)
        if not ok:
            continue
        if _verify_rref_candidate(mat, rows, pivots):
            return _downcast(rows), pivots
    return None


def _verify_rref_candidate(mat, rows, pivots) -> bool:
    """Exact check that mat's row space lies in the candidate row space."""
    k = len(pivots)
    if k == 0:
        return not np.any(mat)
    dens = np.array([rows[i, pivots[i]] for i in range(k)], dtype=object)
    big = math.lcm(*map(int, dens))
    rhs = int_matmul(mat[:, list(pivots)], (big // dens)[:, None] * rows)
    if _max_abs(mat) * big < _INT64_SAFE:
        lhs = mat.astype(np.int64, copy=False) * big
    else:
        lhs = _to_object(mat) * big
    return bool((lhs == rhs).all())


def int_rref(mat: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Canonical integer-row RREF; modular fast path, exact fallback."""
    if mat.ndim != 2:
        raise ValueError("expected a 2-d array")
    if mat.size >= _MODULAR_MIN_SIZE and mat.shape[0] > 1:
        got = _int_rref_modular(mat)
        if got is not None:
            return got
    return _int_rref_exact(mat)
