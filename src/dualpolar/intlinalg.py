"""Vectorized exact integer Gaussian elimination: the eliminations only.

Row reduction over Q is done on integer matrices, int64 or Python ints by
the one rule of `intarith`, which owns the representation.  The result is
canonical: its rows are primitive (gcd 1) with a positive pivot, and
dividing each row by its pivot yields the unique leading-1 RREF of the row
space.

int_rref reduces every matrix modulo primes below 2^23, by a blocked
elimination whose panel updates are exact float64 BLAS products, recovers
the rational entries by rational reconstruction run on the whole
free-column block at once, and certifies the candidate exactly.  With one
prime the residues, the reconstruction, the candidate rows and the
certificate stay in int64 wherever a bound shows the entries fit.  It adds
primes until a candidate is certified, and that always happens:

* Pivot i of the RREF of M is the first column at which the leading
  columns of M reach rank i + 1.  Mod p every block of leading columns
  has rank at most its rank over Q (a minor that is nonzero mod p is
  nonzero), so the pivots mod p are at most as many as the true ones, and
  when as many, each is at or right of the true one.
* Let R be the RREF over Q, P its pivots, and S a set of |P| rows with
  D = det M[S, P] nonzero.  Mod a prime p that does not divide D, that
  is mod all but finitely many, the columns P stay independent, so by the
  first point the pivots mod p are P.  Mod any p where the pivots are P
  the columns P are independent, so some such D is nonzero mod p.  Then
  R = M[S, P]^-1 M[S, :] has its denominators prime to p, M = M[:, P] R
  mod p, and R has rank |P| mod p; an RREF over GF(p) is unique, so the
  RREF mod p is R mod p.

So on a disagreement the loop keeps the pivots with more entries, and of
as many the lexicographically smaller tuple.  Once the true pivots are
seen they are never replaced, every later prime that gives them gives
R mod p, and CRT combines those residues.  When their product passes
2 H^2, H the largest numerator or denominator of R, rational
reconstruction returns R, which the certificate accepts.  (The primes
below 2^23 multiply to about e^(2^23): they run out only for an R whose
entries have millions of bits.)

int_kernel reads the canonical null-space basis off a single int_rref of
the column-reversed matrix.  int_rank proves a full rank with one
elimination mod p.  The products run through `intarith.int_matmul` and
`int_mul`, exact by their bounds.  The primes are found on first use, one
at a time, so an import searches for none and a reduction that one prime
certifies searches for one.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .intarith import (_downcast, _to_object, as_int_array, int_matmul,
                       int_mul, is_prime)


def _gcd_rows(a: np.ndarray) -> np.ndarray:
    """Componentwise gcd along rows, int64 or Python ints as a is; zero
    rows give gcd 1."""
    g = np.gcd.reduce(np.abs(a), axis=1)
    return np.where(g == 0, 1, g)


def _free_columns(ncols: int, pivots) -> np.ndarray:
    """The columns of range(ncols) that are not pivots, increasing."""
    free = np.ones(ncols, dtype=bool)
    free[list(pivots)] = False
    return np.flatnonzero(free)


def int_rank(mat: np.ndarray) -> int:
    """Rank over Q.  The rank mod a prime is at most the rank over Q (a
    minor that is nonzero mod p is nonzero), so one `_mod_rref` at
    _prime(0) that reaches min(rows, cols) pivots proves full rank;
    otherwise the rank is read off int_rref."""
    if len(_mod_rref(mat, _prime(0))[1]) == min(mat.shape):
        return min(mat.shape)
    return len(int_rref(mat)[1])


def int_kernel(mat: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Canonical basis of the right null space over Q, in int_rref's form:
    (primitive rows, pivots).  The rows divided by their leading entries
    form the RREF basis of {v : mat @ v = 0}.

    One RREF suffices, taken of the column-reversed matrix.  There a free
    column meets only pivots to its left, so in the original order its
    kernel vector L e_f - sum_i (L / p_i) red[i, f] e_(pivot i) (L a common
    multiple of the pivot entries p_i) is zero left of f and on every other
    free column.  These vectors are therefore already the RREF basis with
    pivots at the free columns; each is made primitive with a positive lead.
    """
    ncols = mat.shape[1]
    red, rpivots = int_rref(mat[:, ::-1])
    # free columns of the reversed matrix, in decreasing order, so that the
    # original columns ncols - 1 - free increase
    free = _free_columns(ncols, rpivots)[::-1]
    if free.size == 0:
        return np.zeros((0, ncols), dtype=np.int64), ()
    piv = [int(red[i, c]) for i, c in enumerate(rpivots)]
    big = math.lcm(*piv)
    # whole rows, so the bound of int_mul covers big at each pivot
    red = int_mul(red, as_int_array([big // p for p in piv]).T)
    basis = np.zeros((free.size, ncols), dtype=red.dtype)
    basis[np.arange(free.size), free] = big
    basis[:, list(rpivots)] = -red[:, free].T
    basis = basis[:, ::-1]
    basis = _downcast(basis // _gcd_rows(basis)[:, None])
    return basis, tuple(int(c) for c in ncols - 1 - free)


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
# The canonical RREF is computed modulo primes below 2^23, lifted by CRT, and
# the free-column entries recovered by rational reconstruction.  The
# candidate is then certified exactly:
#
#   * the mod-p elimination exhibits a pivot minor that is nonzero mod p,
#     hence nonzero over Z, so rank(M) >= #pivots;
#   * the exact residual check M = M[:, pivots] @ R proves that the row
#     space of M lies inside the candidate row space, so rank(M) <= #pivots.
#
# Together these force equality of the row spaces, and an RREF-shaped basis
# of a space is unique, so the verified candidate IS the canonical RREF.
# On any failure int_rref adds a prime, with no cap; the module docstring
# proves that the loop ends.
#
# From one prime to the result nothing leaves int64 unless a bound says it
# must: the residues are int64, a residue within the reconstruction bound
# of 0 or of the modulus is its own small signed numerator over 1 (no
# Euclidean loop), and the candidate rows and their scaled copies in the
# certificate are whole rows scaled by `int_mul`, int64 while its bound
# allows.  A second prime combines the residues by CRT on Python ints.
#
# The first bullet alone certifies a full rank: if the elimination mod p
# finds min(rows, cols) pivots, so does the one over Q (int_rank).


# _mod_rref is exact for primes below _P_LIMIT and panels of at most 128
# columns (see its docstring)
_P_LIMIT = 2 ** 23
_PANEL = 64


# The primes below _P_LIMIT found so far, decreasing from the largest
# (2^23 - 15), without a gap; `_prime` extends the list on first use.
_PRIMES: list[int] = []


def _prime(i: int) -> int:
    """The (i + 1)-th largest prime below _P_LIMIT, searched for only when
    no call has asked for it yet."""
    while len(_PRIMES) <= i:
        p = _PRIMES[-1] - 2 if _PRIMES else _P_LIMIT - 1
        while not is_prime(p):
            p -= 2
        _PRIMES.append(p)
    return _PRIMES[i]


def _mod_rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Gauss-Jordan over GF(p), for a prime p below 2^23: the nonzero rows
    of the reduced row echelon form, entries in [0, p), and the pivots.

    Right-looking and blocked.  The columns are taken w = _PANEL at a time.
    A panel is reduced by the per-pivot loop on its own columns, extended
    by k tracker columns, one per pivot it finds.  They record each row as
    its old row (zero for the panel's k pivot rows) plus C times the k
    pivot rows as they were before the panel.  The trailing columns then
    take the whole panel at once: the pivot rows are zeroed and every row
    gets C @ (old pivot rows), mod p.  A tracked panel is at most 2w
    columns wide, so once at most 2w columns remain they form one last
    panel, which has no trailing block, no tracker and no product.

    Reduction mod p is delayed: per pivot only the pivot column (which
    gives the multipliers) and the pivot row are reduced, and the panel
    once, at its end.  Why the arithmetic is exact:

    * Inside a panel every entry starts in [0, p), and each of its at most
      2w = 128 pivots subtracts a multiplier times a pivot-row entry, both
      in [0, p).  So |entry| < p + 128 (p-1)^2 < 2^23 + 2^7 * 2^46 < 2^54,
      far inside int64; each product of two reduced values, such as the
      pivot row times the inverse of its pivot, is below 2^46.
    * In the trailing product C and the old pivot rows have entries in
      [0, p) and the inner dimension is k <= w.  Every partial sum is an
      integer of absolute value at most k (p-1)^2 < 2^53 for every k <= 128,
      so int_matmul runs it on float64 BLAS, exactly (see its docstring).
      The old rows add less than p.

    The reduced echelon form over GF(p) is unique, so the result is that
    of the plain per-pivot loop.
    """
    if p >= _P_LIMIT:
        raise ValueError(f"_mod_rref is exact only for p < 2^23, got {p}")
    a = (mat % p).astype(np.int64)
    nrows, ncols = a.shape
    pivots = []
    r = 0
    c1 = 0
    while c1 < ncols and r < nrows:
        c0 = c1
        c1 = ncols if ncols - c0 <= 2 * _PANEL else c0 + _PANEL
        w, r0 = c1 - c0, r
        track = 0 if c1 == ncols else min(w, nrows - r0)
        if track:
            panel = np.zeros((nrows, w + track), dtype=np.int64)
            panel[:, :w] = a[:, c0:c1]
        else:
            panel = a[:, c0:]
        perm = np.arange(nrows)  # panel row i holds the old row perm[i]
        for j in range(w):
            if r == nrows:
                break
            col = panel[:, j]
            if r > r0:  # the panel is reduced until its first pivot
                col %= p
            rows = col.nonzero()[0]
            i = rows.searchsorted(r)
            if i == rows.size:
                continue
            q = int(rows[i])
            if q != r:
                panel[[r, q]] = panel[[q, r]]
                perm[[r, q]] = perm[[q, r]]
                rows[i] = r
            if track:
                panel[r, w + r - r0] = 1
            # rows at or below r are exactly zero left of column j, so only
            # columns j.. change; row r is overwritten after the update
            piv = panel[r, j:] % p
            piv *= pow(int(piv[0]), p - 2, p)
            piv %= p
            if rows.size > 1:
                panel[rows, j:] -= col[rows, None] * piv
            panel[r, j:] = piv
            pivots.append(c0 + j)
            r += 1
        panel %= p
        if not track:
            break
        a[:, c0:c1] = panel[:, :w]
        if r > r0:
            # rows r0.. are zero left of c0, so only the trailing columns
            # need the permutation, which moves at most 2 (r - r0) rows
            trail = a[:, c1:]
            src = trail[perm[r0:r]]
            moved = (perm != np.arange(nrows)).nonzero()[0]
            trail[moved] = trail[perm[moved]]
            trail[r0:r] = 0
            coef = panel[:, w:w + r - r0]
            rows = coef.any(axis=1).nonzero()[0]
            trail[rows] = (trail[rows] + int_matmul(coef[rows], src)) % p
    return a[:r], tuple(pivots)


def _crt_combine(res1: np.ndarray, mod1: int, res2: np.ndarray,
                 mod2: int) -> np.ndarray:
    inv = pow(mod1 % mod2, mod2 - 2, mod2)
    diff = (res2 - (res1 % mod2)) % mod2
    t = (diff * inv) % mod2
    return res1 + t * mod1


def _rat_reconstruct_block(x: np.ndarray, modulus: int, bound: int):
    """(num, den) arrays with num = den * x mod modulus, |num| <= bound,
    0 < den <= bound and gcd(num, den) = 1 entrywise, or None if some entry
    has no such fraction; bound >= 1.

    Wang's rational reconstruction: the extended Euclidean algorithm on
    (modulus, x) stopped at the first remainder <= bound.  A residue within
    the bound of 0 or of the modulus is answered directly, as x / 1 or
    (x - modulus) / 1: that is the loop's answer after no step, or after
    one whose quotient is 1 (then x > modulus / 2).  The loop runs on the
    other entries at once.  The arithmetic is int64 while the modulus is
    below 2^31 and Python ints above.
    """
    dtype = np.int64 if modulus < 2 ** 31 else object
    shape = x.shape
    x = (x.astype(dtype) % modulus).ravel()
    num = np.where(x <= bound, x, x - modulus)
    den = np.ones_like(x)
    rest = np.flatnonzero((x > bound) & (x < modulus - bound))
    if rest.size:
        got = _wang(x[rest], modulus, bound)
        if got is None:
            return None
        num[rest], den[rest] = got
    return num.reshape(shape), den.reshape(shape)


def _wang(x: np.ndarray, modulus: int, bound: int):
    """`_rat_reconstruct_block` by the Euclidean loop alone, on a flat array
    of residues in [0, modulus).  Each step updates only the entries still
    above the bound; in int64, |den * x| < 2^16 * 2^31."""
    r0, r1 = np.full_like(x, modulus), x.copy()
    s0, s1 = np.zeros_like(x), np.ones_like(x)
    live = np.flatnonzero(r1 > bound)
    while live.size:
        q = r0[live] // r1[live]
        r0[live], r1[live] = r1[live], r0[live] - q * r1[live]
        s0[live], s1[live] = s1[live], s0[live] - q * s1[live]
        live = live[r1[live] > bound]
    if np.any(s1 == 0) or np.any(abs(s1) > bound):
        return None
    neg = s1 < 0
    num, den = np.where(neg, -r1, r1), np.where(neg, -s1, s1)
    g = np.gcd(num, den)
    num, den = num // g, den // g
    if np.any((num - den * x) % modulus):
        return None
    return num, den


def _candidate_rows(num, den, pivots, free, ncols) -> np.ndarray:
    """Row i of the RREF is num[i] / den[i] on the free columns and 1 at its
    pivot; clear the denominators with one lcm per row.  The whole rows,
    pivots included, go through int_mul, so its bound covers each lcm."""
    k = len(pivots)
    lcm = [1] * k
    for i in np.flatnonzero((den != 1).any(axis=1)):
        lcm[i] = math.lcm(*den[i].tolist())
    nums = np.zeros((k, ncols), dtype=num.dtype)
    dens = np.ones((k, ncols), dtype=den.dtype)
    nums[np.arange(k), list(pivots)] = 1
    nums[:, free], dens[:, free] = num, den
    return int_mul(nums, as_int_array(lcm).T // dens)


def _verify_rref_candidate(mat, rows, pivots) -> bool:
    """Exact check that mat's row space lies in the candidate row space."""
    k = len(pivots)
    if k == 0:
        return not np.any(mat)
    dens = rows[np.arange(k), list(pivots)].tolist()
    big = math.lcm(*dens)
    rhs = int_matmul(mat[:, list(pivots)],
                     int_mul(rows, as_int_array([big // d for d in dens]).T))
    return bool((int_mul(mat, as_int_array([big])) == rhs).all())


def int_rref(mat: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Canonical integer-row RREF: (primitive rows, pivots), the rows int64
    where they fit.  Reduces mat mod _prime(0), _prime(1), ... until a
    reconstructed candidate is certified (see the module docstring)."""
    if mat.ndim != 2:
        raise ValueError("expected a 2-d array")
    ncols = mat.shape[1]
    # (pivots, residues, modulus, prime count): the residues stay int64 for
    # one prime and become Python ints at the first CRT
    acc = None
    for i in itertools.count():
        p = _prime(i)
        red, pivots = _mod_rref(mat, p)
        if acc is not None and pivots != acc[0]:
            # keep the pivots nearer the true ones: more of them, or as many
            # and lexicographically smaller
            if (-len(pivots), pivots) > (-len(acc[0]), acc[0]):
                continue
            acc = None
        if acc is None:
            acc = (pivots, red, p, 1)
        else:
            acc = (pivots, _crt_combine(_to_object(acc[1]), acc[2],
                                        _to_object(red), p),
                   acc[2] * p, acc[3] + 1)
        pivots, residues, modulus, nprimes = acc
        if nprimes > 4 and nprimes % 4:
            continue  # reconstruct after primes 1-4 and every 4th
        free = _free_columns(ncols, pivots)
        got = _rat_reconstruct_block(residues[:, free], modulus,
                                     math.isqrt(modulus // 2))
        if got is None:
            continue
        rows = _candidate_rows(*got, pivots, free, ncols)
        if _verify_rref_candidate(mat, rows, pivots):
            return _downcast(rows), pivots
