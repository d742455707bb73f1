"""The exact integer product and sum, and a deterministic primality test.

int_matmul is the one exact integer product of the package, on float BLAS
where a bound proves it exact and in int64 when it is tiny; int_lin is the
one exact integer combination.  The graph layer (gf, polar, drg) needs
only this product and is_prime, so a `build` call loads this module and
not the eliminations of intlinalg.
"""

from __future__ import annotations

import numpy as np

_INT64_SAFE = 2 ** 62


def _to_object(a):
    """a as a Python-int object array (None stays None)."""
    return a if a is None or a.dtype == object else a.astype(object)


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
# int64 beats the float32 round trip below about 2000 multiply-adds
_TINY = 2048


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

    With ma = max|a| and mb = max|b|, scanned here, the result is int64
    when B = k * ma * mb, with k = a.shape[1], is below 2^62, and an object
    array of Python ints otherwise.  The arithmetic is chosen from B:
    float32 BLAS below 2^24, float64 BLAS below 2^53, int64 below 2^62,
    Python ints above; a product of fewer than _TINY multiply-adds runs in
    int64 for any B below 2^62.

    Why the product is exact: every partial sum that any summation order
    forms for entry (i, l) adds some of the k terms a_ij * b_jl, each an
    integer of absolute value at most ma * mb, so the partial sum is an
    integer of absolute value at most B, and no int64 sum wraps below 2^62.
    Below 2^24 (2^53) every such integer is a float32 (float64), and so are
    the operands, as max|a| and max|b| are at most B.  Each multiply, add or
    fused multiply-add then yields an exactly representable integer and
    rounds nothing, whatever order or blocking the BLAS uses.  This holds
    for the classical inner-product algorithm that BLAS libraries
    implement; a Strassen-type algorithm forms sums that are not partial
    sums and is not covered.

    Operands are widened before they meet, so a uint8 or bool product does
    not wrap, and each float copy lives only as long as its product.
    """
    m, k, n = a.shape[0], a.shape[1], b.shape[1]
    ma, mb = _max_abs(a), _max_abs(b)
    if ma == 0 or mb == 0:
        # a zero operand may face entries no float can hold (0 * inf is nan)
        return np.zeros((m, n), dtype=np.int64)
    dtype = _matmul_dtype(k * ma * mb)
    if dtype is object:
        return np.dot(_to_object(a), _to_object(b))
    if m * k * n < _TINY:
        dtype = np.int64
    prod = a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)
    return prod.astype(np.int64, copy=False)


def int_lin(*terms):
    """Exact sum of the coeff * array terms, (int, integer array) pairs of
    one shape; None for no live term (every array None or coeff 0).  int64
    when a bound on every partial sum proves it fits, else Python ints."""
    live = [(c, a) for c, a in terms if a is not None and c != 0]
    if not live:
        return None
    # An all-zero array still meets its coefficient in c * a, so every live
    # term counts at least |c|: an int64 array times a |c| >= 2^63 overflows.
    if all(a.dtype != object for _, a in live) and sum(
            abs(c) * max(_max_abs(a), 1) for c, a in live) < _INT64_SAFE:
        # a unit coefficient costs no product; the first sum makes a copy
        c, a = live[0]
        out = a if c == 1 and len(live) > 1 else c * a
        for c, a in live[1:]:
            out = out + (a if c == 1 else c * a)
        return out
    out = None
    for c, a in live:
        t = c * _to_object(a)
        out = t if out is None else out + t
    return out


# The first twelve primes: as Miller-Rabin bases they decide primality of
# every n below 318665857834031151167461 (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test for n below _MR_LIMIT."""
    if n >= _MR_LIMIT:
        raise ValueError("is_prime is deterministic only below "
                         f"{_MR_LIMIT}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
