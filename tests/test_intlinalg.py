"""Differential tests of the exact integer product against Python ints."""

import numpy as np
import pytest

from dualpolar.intlinalg import _matmul_dtype, int_matmul


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
