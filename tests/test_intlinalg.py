"""Differential tests of the exact integer product against Python ints, of
the modular RREF against the fraction-free one in `dense_oracle`, and of
the vectorized kernels against the scalar and two-pass versions they
replaced."""

import math
import random

import numpy as np
import pytest

from dualpolar import intarith, intlinalg
from dualpolar.intarith import _matmul_dtype, _max_abs, int_matmul, is_prime
from dualpolar.intlinalg import (
    _PANEL,
    _PRIMES,
    _gcd_rows,
    _mod_rref,
    _prime,
    _rat_reconstruct_block,
    int_kernel,
    int_rank,
    int_rref,
)

from dense_oracle import fraction_free_rref

# the largest prime the modular path uses, and the 53rd
_FIRST, _LAST = _prime(0), _prime(52)


def _reference(a, b):
    return np.dot(a.astype(object), b.astype(object))


def _bound_case(rng, k, ma, mb):
    """Signed operands with max|a| = ma, max|b| = mb and inner dimension k,
    whose product has an entry equal to B = k * ma * mb."""
    a = rng.integers(-ma, ma, size=(5, k), endpoint=True).astype(object)
    b = rng.integers(-mb, mb, size=(k, 4), endpoint=True).astype(object)
    a[0, :] = ma
    b[:, 0] = mb
    a[1, :] = -ma
    return a, b


# (B, k, max|a|, max|b|) with B = k * max|a| * max|b| at each tier boundary:
# 2^24 - 1 = 45 * 1547 * 241, 2^24 + 1 = 97 * 257 * 673,
# 2^53 - 1 = 6361 * 69431 * 20394401, 2^53 + 1 = 3 * 107 * 28059810762433,
# 2^62 - 1 = 3 * 715827883 * 2147483647.  An entry of 2^24 + 1 (2^53 + 1) is
# no float32 (float64), so a product taken one tier too cheap would miss it.
BOUNDARIES = [
    (2 ** 24 - 1, 45, 1547, 241),
    (2 ** 24, 16, 2 ** 10, 2 ** 10),
    (2 ** 24 + 1, 97, 257, 673),
    (2 ** 53 - 1, 6361, 69431, 20394401),
    (2 ** 53, 8, 2 ** 25, 2 ** 25),
    (2 ** 53 + 1, 3, 107, 28059810762433),
    (2 ** 62 - 1, 3, 715827883, 2147483647),
    (2 ** 62, 4, 2 ** 30, 2 ** 30),
]


@pytest.mark.parametrize("bound,k,ma,mb", BOUNDARIES)
def test_matches_python_ints_at_tier_boundaries(bound, k, ma, mb):
    assert k * ma * mb == bound
    rng = np.random.default_rng(bound % 1000)
    a, b = _bound_case(rng, k, ma, mb)
    want = _reference(a, b)
    assert want[0, 0] == bound and want[1, 0] == -bound
    # the same operands as int64 arrays and as Python ints
    for x, y in ((a.astype(np.int64), b.astype(np.int64)), (a, b)):
        got = int_matmul(x, y)
        assert (got == want).all()
        assert got.dtype == (np.int64 if bound < 2 ** 62 else object)


def test_tier_choice():
    assert _matmul_dtype(2 ** 24 - 1) is np.float32
    assert _matmul_dtype(2 ** 24) is np.float64
    assert _matmul_dtype(2 ** 53 - 1) is np.float64
    assert _matmul_dtype(2 ** 53) is np.int64
    assert _matmul_dtype(2 ** 62 - 1) is np.int64
    assert _matmul_dtype(2 ** 62) is object


def test_uint8_and_bool_do_not_wrap():
    rng = np.random.default_rng(7)
    ones = np.ones((300, 300), dtype=np.uint8)
    assert (ones @ ones)[0, 0] != 300          # numpy's own product wraps
    assert (int_matmul(ones, ones) == 300).all()
    a = rng.integers(0, 256, size=(40, 70)).astype(np.uint8)
    b = rng.integers(0, 256, size=(70, 30)).astype(np.uint8)
    got = int_matmul(a, b)
    assert got.dtype == np.int64
    assert (got == _reference(a, b)).all()
    p = rng.random((50, 60)) < 0.5
    q = rng.random((60, 20)) < 0.5
    got = int_matmul(p, q)
    assert got.dtype == np.int64
    assert (got == p.astype(np.int64) @ q.astype(np.int64)).all()


def test_empty_shapes_and_zero_operands():
    for m, k, n in ((3, 0, 4), (0, 5, 2), (2, 5, 0), (0, 0, 0)):
        got = int_matmul(np.ones((m, k), dtype=np.int64),
                         np.ones((k, n), dtype=np.int64))
        assert got.shape == (m, n) and got.dtype == np.int64
        assert not got.any()
    zero = np.zeros((3, 4), dtype=np.int64)
    huge = np.full((4, 5), 2 ** 62 + 7, dtype=np.int64)
    huge[1, 2] = -(2 ** 63)
    for x, y in ((zero, huge), (huge.T, zero.T)):
        got = int_matmul(x, y)
        assert got.dtype == np.int64 and not got.any()
    # Python ints beyond any float against a zero operand
    beyond = np.full((4, 5), 2 ** 2000, dtype=object)
    got = int_matmul(zero, beyond)
    assert got.dtype == np.int64 and not got.any()


def test_int64_minimum_counts_in_the_bound():
    a = np.array([[-(2 ** 63)]], dtype=np.int64)
    b = np.array([[1, -1]], dtype=np.int64)
    got = int_matmul(a, b)
    assert got.dtype == object
    assert list(got[0]) == [-(2 ** 63), 2 ** 63]


def _low_rank(rng, nrows, ncols, rank, bits):
    """An nrows x ncols integer matrix of rank `rank` (with high
    probability): a product of random factors with entries below 2^bits,
    as Python ints, so its entries exceed 2^(2 bits - 2) or so."""
    left = rng.integers(-2 ** bits, 2 ** bits, size=(nrows, rank),
                        endpoint=True).astype(object)
    right = rng.integers(-2 ** bits, 2 ** bits, size=(rank, ncols),
                         endpoint=True).astype(object)
    if rank == 0:
        return np.zeros((nrows, ncols), dtype=object)
    return np.dot(left, right)


@pytest.mark.parametrize("bits", [21, 40])
@pytest.mark.parametrize("seed", range(20))
def test_modular_rref_matches_exact(seed, bits):
    """The certified modular RREF returns the canonical rows and pivots of
    the fraction-free elimination."""
    rng = np.random.default_rng([seed, bits])
    nrows, ncols = int(rng.integers(2, 9)), int(rng.integers(2, 11))
    rank = int(rng.integers(0, min(nrows, ncols) + 1))
    mat = _low_rank(rng, nrows, ncols, rank, bits)
    if rank:
        assert _max_abs(mat) > 2 ** 40
    inputs = [mat]
    if _max_abs(mat) < 2 ** 62:
        inputs.append(mat.astype(np.int64))
    for m in inputs:
        rows, pivots = fraction_free_rref(m)
        assert len(pivots) <= rank
        got = int_rref(m)
        assert got[1] == pivots
        assert got[0].shape == rows.shape
        assert (got[0].astype(object) == rows.astype(object)).all()


def _counted_mod_rref(monkeypatch) -> list[int]:
    """The primes of every `_mod_rref` call from now on, in order; past 100
    calls it fails, so a loop that never settles fails instead of hanging."""
    primes = []
    real = intlinalg._mod_rref

    def counted(mat, p):
        primes.append(p)
        assert len(primes) <= 100, "int_rref keeps adding primes"
        return real(mat, p)

    monkeypatch.setattr(intlinalg, "_mod_rref", counted)
    return primes


def test_int_rref_where_the_first_prime_moves_a_pivot_right(monkeypatch):
    """Mod p = _prime(0) the rows [1, 1, 0] and [1, 1 + p, 1] have pivots
    (0, 2): as many as over Q, but the second one column further right.
    Every later prime gives the true (0, 1), which the loop keeps, and
    reconstructs the entries +-1/p once the modulus passes 2 p^2."""
    mat = np.array([[1, 1, 0], [1, 1 + _FIRST, 1]], dtype=np.int64)
    assert _mod_rref(mat, _FIRST)[1] == (0, 2)
    primes = _counted_mod_rref(monkeypatch)
    rows, pivots = int_rref(mat)
    want, want_pivots = fraction_free_rref(mat)
    assert pivots == want_pivots == (0, 1)
    assert rows.shape == want.shape and (rows == want).all()
    assert len(primes) <= 4


def test_int_rref_adds_primes_past_53(monkeypatch):
    """A 6 x 8 product of rank 5 of factors with entries below 2^124: its
    RREF holds ratios of 5 x 5 minors of about 625 bits, so reconstruction
    needs a modulus past 2^1250, more than the 53 largest primes below 2^23
    multiply to (about 2^1219), and the loop keeps adding primes."""
    draw = random.Random(124)

    def factor(nrows, ncols):
        return np.array([[draw.randrange(-2 ** 124, 2 ** 124 + 1)
                          for _ in range(ncols)] for _ in range(nrows)],
                        dtype=object)

    mat = np.dot(factor(6, 5), factor(5, 8))
    primes = _counted_mod_rref(monkeypatch)
    rows, pivots = int_rref(mat)
    want, want_pivots = fraction_free_rref(mat)
    assert len(pivots) == 5 and pivots == want_pivots
    assert rows.shape == want.shape and (rows == want).all()
    assert len(primes) > 53


EDGE_CASES = {
    "one-row": [[0, 3, -6, 9]],
    "one-column": [[0], [4], [-2]],
    "all-zero": [[0, 0, 0], [0, 0, 0]],
    "rank-deficient": [[1, 2, 3], [2, 4, 6], [1, 1, 1], [0, 1, 2]],
    "repeated-row": [[2, -1, 0, 5], [2, -1, 0, 5]],
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_int_rref_edge_cases_match_exact(name):
    mat = np.array(EDGE_CASES[name], dtype=np.int64)
    rows, pivots = fraction_free_rref(mat)
    got_rows, got_pivots = int_rref(mat)
    assert got_pivots == pivots
    assert got_rows.shape == rows.shape
    assert (got_rows == rows).all()


@pytest.mark.parametrize("seed", range(30))
def test_int_rref_small_low_bit_matches_exact(seed):
    """int_rref takes the modular path at every size, so also the small
    matrices with few-bit entries that the fraction-free elimination used
    to reduce on its own; the answer is the same."""
    rng = np.random.default_rng([seed, 3])
    nrows, ncols = int(rng.integers(1, 9)), int(rng.integers(1, 11))
    rank = int(rng.integers(0, min(nrows, ncols) + 1))
    mat = _low_rank(rng, nrows, ncols, rank, 3).astype(np.int64)
    rows, pivots = fraction_free_rref(mat)
    assert len(pivots) <= rank
    got_rows, got_pivots = int_rref(mat)
    assert got_pivots == pivots
    assert got_rows.shape == rows.shape
    assert (got_rows.astype(object) == rows.astype(object)).all()


# ---------------------------------------------------------------------------
# Reference implementations the vectorized kernels replaced


def _two_rref_kernel(mat):
    """The null space basis from int_rref(mat), reduced once more."""
    red, pivots = int_rref(mat)
    ncols = mat.shape[1]
    free = np.setdiff1d(np.arange(ncols), pivots)
    if free.size == 0:
        return np.zeros((0, ncols), dtype=np.int64), ()
    piv = [int(red[i, c]) for i, c in enumerate(pivots)]
    big = math.lcm(*piv)
    basis = np.zeros((free.size, ncols), dtype=object)
    basis[np.arange(free.size), free] = big
    scale = np.array([big // p for p in piv], dtype=object)
    basis[:, list(pivots)] = -(red[:, free].astype(object) * scale[:, None]).T
    return int_rref(basis)


def _scalar_rat_reconstruct(x, modulus, bound):
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
    g = math.gcd(num, den)
    num, den = num // g, den // g
    if (num - den * x) % modulus:
        return None
    return num, den


def _full_row_mod_rref(mat, p):
    """Gauss-Jordan over GF(p) updating whole rows."""
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
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        col = a[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            a[mask] = (a[mask] - np.outer(col[mask], a[r])) % p
        pivots.append(c)
        r += 1
    return a[:r], tuple(pivots)


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _kernel_case(rng, seed):
    """Seeded matrices of every rank from 0 to full, some with zero rows or
    zero columns, some past int64, and some large enough for the modular
    RREF (at least 5000 entries), with small entries and rank at most 24 so
    that a few primes reconstruct them."""
    nrows, ncols = int(rng.integers(1, 12)), int(rng.integers(1, 12))
    rank = int(rng.integers(0, min(nrows, ncols) + 1))
    bits = (3, 21, 40)[seed % 3]
    if seed % 5 == 4:
        nrows, ncols = int(rng.integers(71, 90)), int(rng.integers(71, 90))
        rank, bits = int(rng.integers(0, 25)), 3
    mat = _low_rank(rng, nrows, ncols, rank, bits)
    if seed % 4 == 1:
        mat[:, rng.integers(0, ncols)] = 0
    if seed % 4 == 2:
        mat[rng.integers(0, nrows)] = 0
    return mat


@pytest.mark.parametrize("seed", range(30))
def test_kernel_matches_two_rref_kernel(seed):
    rng = np.random.default_rng(seed)
    mat = _kernel_case(rng, seed)
    inputs = [mat]
    if _max_abs(mat) < 2 ** 62:
        inputs.append(mat.astype(np.int64))
    for m in inputs:
        want, want_piv = _two_rref_kernel(m)
        got, got_piv = int_kernel(m)
        assert got_piv == want_piv
        assert got.shape == want.shape
        assert (got.astype(object) == want.astype(object)).all()
        if got.size:
            assert not int_matmul(m, got.T).any()
            assert (_gcd_rows(got) == 1).all()


def test_gcd_rows_matches_math_gcd():
    """One np.gcd.reduce for int64 and Python-int rows, against math.gcd:
    signs, zero rows, one-entry rows and entries past int64."""
    rows = [[-4, 6, 0], [0, 0, 0], [-9, 0, 0], [7, -7, 14],
            [3 * 2 ** 70, -6 * 2 ** 70, 9 * 2 ** 70], [-(2 ** 80), 0, 0]]
    for a in (np.array(rows[:4], dtype=np.int64),
              np.array(rows, dtype=object), np.array(rows)[:, :1],
              np.zeros((3, 0), dtype=object), np.zeros((0, 3), dtype=object)):
        want = [math.gcd(*map(int, row)) or 1 for row in a]
        got = _gcd_rows(a)
        assert got.dtype == a.dtype and got.tolist() == want


@pytest.mark.parametrize("shape", [(0, 4), (3, 0), (0, 0), (4, 4), (2, 5)])
def test_kernel_of_empty_and_zero_matrices(shape):
    for mat in (np.zeros(shape, dtype=np.int64),
                np.zeros(shape, dtype=object)):
        got, pivots = int_kernel(mat)
        assert pivots == tuple(range(shape[1]))
        assert (got == np.eye(shape[1], dtype=np.int64)).all()


# (rows, cols, rank) of the seeded int_rank cases
RANK_CASES = {
    "square-full": (6, 6, 6), "square-deficient": (6, 6, 3),
    "wide-full": (4, 9, 4), "wide-deficient": (4, 9, 2),
    "tall-full": (9, 4, 4), "tall-deficient": (9, 4, 1),
    "zero": (3, 5, 0), "empty-rows": (0, 4, 0), "empty-cols": (3, 0, 0),
    "empty": (0, 0, 0)}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(RANK_CASES))
def test_int_rank_matches_int_rref(monkeypatch, name, seed):
    """int_rank is the rank of int_rref, in int64 and in Python ints; a
    full rank is proved by one prime, without int_rref."""
    nrows, ncols, rank = RANK_CASES[name]
    rng = np.random.default_rng([seed, nrows, ncols, rank])
    mat = _low_rank(rng, nrows, ncols, rank, 3)
    calls = []
    monkeypatch.setattr(intlinalg, "int_rref",
                        lambda m: calls.append(m.shape) or int_rref(m))
    for m in (mat, mat.astype(np.int64)):
        assert int_rank(m) == len(int_rref(m)[1]) == rank
    full = rank == min(nrows, ncols)
    assert len(calls) == (0 if full else 2)


@pytest.mark.parametrize("rows", [[[1, 0], [0, 1]], [[1, 0], [0, 1], [2, 0]]],
                         ids=["square", "tall"])
def test_int_rank_where_the_rank_drops_mod_p(rows):
    """diag(1, p) with p = _prime(0) has rank 1 mod p and rank 2 over Q;
    so does the same matrix with a third row added."""
    p = _FIRST
    m = np.array(rows, dtype=np.int64)
    m[1, 1] = p
    assert len(_mod_rref(m, p)[1]) == 1
    assert int_rank(m) == len(int_rref(m)[1]) == 2
    assert int_rank(m.astype(object)) == 2


@pytest.mark.parametrize("nprimes", [0, 1, 2, 3, 5])
def test_block_reconstruction_matches_scalar(nprimes):
    """Entries that reconstruct, entries that fail, and moduli of one prime
    (int64 arithmetic) and of several (Python ints).  The composite modulus
    720720 (nprimes = 0) also meets entries whose candidate is rejected by
    the final congruence check.  Residues within the bound of 0 or of the
    modulus are answered without the loop; those at the edges of that range
    and past them are included.  Blocks are given as Python ints, and also
    as int64 where the modulus allows."""
    rng = np.random.default_rng(nprimes)
    modulus = (math.prod(map(_prime, range(nprimes))) if nprimes
               else 720720)
    bound = math.isqrt(modulus // 2)
    # fractions with numerators and denominators around the bound, so some
    # reconstruct and some do not, and arbitrary residues
    small = int(min(bound, 2 ** 60))
    nums = [int(v) for v in rng.integers(-small, small, size=60)]
    dens = [int(v) for v in rng.integers(1, small, size=60)]
    xs = [n * pow(d, -1, modulus) % modulus for n, d in zip(nums, dens)
          if math.gcd(d, modulus) == 1]
    draw = random.Random(nprimes)
    xs += [draw.randrange(modulus) for _ in range(20)]
    xs += [0, 1, modulus - 1] + list(range(2, 300))
    xs += list(range(modulus - 300, modulus - 1))
    xs += [bound, bound + 1, modulus - bound - 1, modulus - bound]
    want = [_scalar_rat_reconstruct(x, modulus, bound) for x in xs]
    assert any(w is None for w in want) and any(w is not None for w in want)
    # entry by entry, and in 3 x 3 blocks, which fail exactly when one of
    # their entries does
    dtypes = [object] + ([np.int64] if modulus < 2 ** 63 else [])
    for dtype in dtypes:
        for x, w in zip(xs, want):
            got = _rat_reconstruct_block(np.array([[x]], dtype=dtype),
                                         modulus, bound)
            assert (got and (int(got[0][0, 0]), int(got[1][0, 0]))) == w
        for lo in range(0, len(xs) - 8, 9):
            block = np.array(xs[lo:lo + 9], dtype=dtype).reshape(3, 3)
            got = _rat_reconstruct_block(block, modulus, bound)
            expect = want[lo:lo + 9]
            if None in expect:
                assert got is None
            else:
                assert got[0].shape == got[1].shape == (3, 3)
                assert list(zip(got[0].ravel().tolist(),
                                got[1].ravel().tolist())) == expect


@pytest.mark.parametrize("seed", range(12))
def test_mod_rref_matches_full_row_update(seed):
    rng = np.random.default_rng(seed)
    nrows, ncols = int(rng.integers(1, 40)), int(rng.integers(1, 40))
    rank = int(rng.integers(0, min(nrows, ncols) + 1))
    mat = _low_rank(rng, nrows, ncols, rank, 21)
    for p in (_FIRST, _LAST, 7):
        got, got_piv = _mod_rref(mat, p)
        want, want_piv = _full_row_mod_rref(mat, p)
        assert got_piv == want_piv
        assert (got == want).all()


def _assert_mod_rref_matches_oracle(mat, p):
    got, got_piv = _mod_rref(mat, p)
    want, want_piv = _full_row_mod_rref(mat, p)
    assert got_piv == want_piv
    assert got.shape == want.shape
    assert (got == want).all()


# (nrows, ncols, rank, zeroed columns) at panel width w: matrices up to 150 x 150
# that reach more than one panel, with zero columns on and across a panel
# boundary, a panel with no pivot, rows that run out within the first panel,
# and degenerate shapes
BLOCKED_CASES = {
    "full-rank": lambda w: (150, 150, 150, None),
    "low-rank": lambda w: (150, 150, 40, None),
    "rank-deficient-wide": lambda w: (90, 150, 70, None),
    "tall": lambda w: (150, 100, 100, None),
    "zero-columns-at-boundary": lambda w: (150, 150, 60, (w - 2, w + 2)),
    "pivot-free-panel": lambda w: (120, 150 + w, 100, (w, 2 * w)),
    "rows-run-out": lambda w: (20, 150, 20, None),
    "all-zero": lambda w: (30, 150, 0, None),
    "one-row": lambda w: (1, 150, 1, None),
    "one-column": lambda w: (150, 1, 1, None),
    "no-rows": lambda w: (0, 150, 0, None),
    "no-columns": lambda w: (150, 0, 0, None),
}


@pytest.mark.parametrize("width", [_PANEL, 8])
@pytest.mark.parametrize("name", sorted(BLOCKED_CASES))
def test_blocked_mod_rref_matches_full_row_update(monkeypatch, name, width):
    """The blocked elimination, at the module's panel width and at a narrow
    one that cuts these matrices into many tracked panels, against the
    plain per-pivot loop."""
    monkeypatch.setattr(intlinalg, "_PANEL", width)
    nrows, ncols, rank, zero = BLOCKED_CASES[name](width)
    rng = np.random.default_rng([nrows, ncols, rank])
    mat = _low_rank(rng, nrows, ncols, rank, 21)
    if zero:
        mat[:, zero[0]:zero[1]] = 0
    for p in (_FIRST, _LAST, 7):
        _assert_mod_rref_matches_oracle(mat, p)


@pytest.mark.parametrize("ncols", [_PANEL - 1, _PANEL, _PANEL + 1,
                                   2 * _PANEL + 1])
def test_mod_rref_worst_case_magnitudes(ncols):
    """Entries of p - 1 and next to it, for the largest listed prime, make
    the multipliers and pivot rows of the delayed reduction as large as
    they can be."""
    p = _FIRST
    rng = np.random.default_rng(ncols)
    top = np.full((ncols, ncols), p - 1, dtype=np.int64)
    cases = [top,                                    # rank 1
             top - np.eye(ncols, dtype=np.int64),    # -(J + I): full rank
             rng.integers(p - 2 ** 10, p, size=(ncols + 3, ncols))]
    for mat in cases:
        _assert_mod_rref_matches_oracle(mat, p)


def test_mod_rref_refuses_primes_past_its_exact_range():
    """The delayed reduction is proven exact only below 2^23."""
    first = next(q for q in range(2 ** 23 + 1, 2 ** 24, 2) if is_prime(q))
    mat = np.eye(3, dtype=np.int64)
    for p in (2 ** 23, first, 2 ** 30 - 35):
        with pytest.raises(ValueError, match="2\\^23"):
            _mod_rref(mat, p)
    assert _mod_rref(mat, _FIRST)[1] == (0, 1, 2)


def test_is_prime_matches_trial_division():
    sieve = [_trial_division(n) for n in range(10 ** 5)]
    assert [is_prime(n) for n in range(10 ** 5)] == sieve
    # 3215031751 = 151 * 751 * 28351 is a strong pseudoprime to the bases
    # 2, 3, 5, 7; 3825123056546413051 to every prime base up to 23
    for n in (3215031751, 3825123056546413051):
        assert not is_prime(n)
    for n in (2 ** 31 - 1, 2 ** 61 - 1, 2 ** 64 - 59):
        assert is_prime(n)
    with pytest.raises(ValueError):
        is_prime(318665857834031151167461)


def test_prime_list_is_unchanged():
    """The primes found on first use are the 53 largest below 2^23, in
    decreasing order, as a trial-division scan down from 2^23 finds them."""
    primes = [_prime(i) for i in range(53)]
    assert len(primes) == 53 and primes[0] == 2 ** 23 - 15
    assert _PRIMES[:53] == primes
    # no prime is skipped between 2^23 and the last
    assert [p for p in range(2 ** 23 - 1, primes[-1] - 1, -2)
            if _trial_division(p)] == primes


# ---------------------------------------------------------------------------
# The tiny int64 branch of int_matmul and its keyword bounds


class _CastSpy(np.ndarray):
    """An array that records the dtypes it is cast to."""

    casts: list = []

    def astype(self, dtype, *args, **kwargs):
        _CastSpy.casts.append(np.dtype(dtype))
        return np.asarray(self).astype(dtype, *args, **kwargs)


def _arithmetic_of(a, b):
    _CastSpy.casts = []
    got = int_matmul(a.view(_CastSpy), b.view(_CastSpy))
    return set(_CastSpy.casts), np.asarray(got)


def test_tiny_products_run_in_int64_and_larger_ones_on_blas():
    rng = np.random.default_rng(3)
    tiny = intarith._TINY
    for m, k, n in ((12, 12, 14), (1, tiny - 1, 1), (1, tiny, 1),
                    (16, 16, 16)):
        a = rng.integers(-9, 9, size=(m, k), endpoint=True)
        b = rng.integers(-9, 9, size=(k, n), endpoint=True)
        casts, got = _arithmetic_of(a, b)
        want = np.int64 if m * k * n < tiny else np.float32
        assert casts == {np.dtype(want)}, (m, k, n)
        assert got.dtype == np.int64 and (got == _reference(a, b)).all()


@pytest.mark.parametrize("bound,k,ma,mb", BOUNDARIES)
def test_blas_tiers_at_boundaries_above_the_tiny_size(bound, k, ma, mb):
    """The tier boundaries again, with enough rows that the product is not
    tiny, so each float tier meets its boundary."""
    rng = np.random.default_rng(bound % 997)
    a, b = _bound_case(rng, k, ma, mb)
    a = np.concatenate([a] * (intarith._TINY // (5 * k * 4) + 1))
    assert a.shape[0] * k * 4 >= intarith._TINY
    want = _reference(a, b)
    got = int_matmul(a, b)
    assert (got == want).all()
    assert got.dtype == (np.int64 if bound < 2 ** 62 else object)


def test_tiny_branch_at_the_int64_limit():
    # B = 2 * (2^30 - 1) * 2^31 just below 2^62 stays int64; one more in a
    # factor reaches 2^62, and the product moves to Python ints
    below = np.array([[2 ** 30 - 1, -(2 ** 30 - 1)]], dtype=np.int64)
    at = np.array([[2 ** 30, 2 ** 30]], dtype=np.int64)
    b = np.array([[2 ** 31], [-(2 ** 31)]], dtype=np.int64)
    for a in (below, at):
        bound = 2 * _max_abs(a) * _max_abs(b)
        casts, got = _arithmetic_of(a, b)
        assert got.dtype == (np.int64 if bound < 2 ** 62 else object)
        assert (got == _reference(a, b)).all()
        if bound < 2 ** 62:
            assert casts == {np.dtype(np.int64)}
    assert 2 * (2 ** 30 - 1) * 2 ** 31 < 2 ** 62 <= 2 * 2 ** 30 * 2 ** 31
    assert int_matmul(at, b)[0, 0] == 0
    assert int_matmul(at, -b)[0, 0] == 0
    assert int_matmul(at.T, b.T)[0, 0] == 2 ** 61


def test_tiny_branch_widens_bool_and_uint8():
    full = np.full((3, 4), 255, dtype=np.uint8)
    got = int_matmul(full, full.T)
    assert got.dtype == np.int64 and (got == 4 * 255 * 255).all()
    p = np.array([[True, False, True], [True, True, True]])
    q = np.array([[True], [True], [False]])
    assert int_matmul(p, q).tolist() == [[1], [2]]
    assert int_matmul(p.astype(np.uint8) * 200, q).tolist() == [[200], [400]]


def test_zero_operand_product():
    b = np.random.default_rng(5).integers(-50, 50, size=(6, 3), endpoint=True)
    zero = np.zeros((4, 6), dtype=np.int64)
    got = int_matmul(zero, b)
    assert got.dtype == np.int64 and got.shape == (4, 3) and not got.any()
