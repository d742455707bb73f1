import random
from fractions import Fraction

import numpy as np
import pytest

from dualpolar.exact import ExactScalar, MixedRadicandError
from dualpolar import intlinalg
from dualpolar.linexact import (
    ExactMatrix,
    inverse,
    kernel,
    rref,
    spectral_projectors,
)


def to_fractions(m: ExactMatrix) -> np.ndarray:
    """The entries of a rational matrix as Fractions, one by one."""
    assert m.n1 is None
    out = np.empty(m.shape, dtype=object)
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            out[i, j] = Fraction(int(m.n0[i, j]), m.den)
    return out


def contains_rows(space: ExactMatrix, m: ExactMatrix) -> bool:
    """Whether every row of m lies in the row space of m's RREF rows
    `space`: a row of that space is its pivot entries times `space`."""
    basis, pivots = rref(space)
    if not pivots:
        return m.is_zero()
    return m == m.submatrix(range(m.shape[0]), list(pivots)) @ basis


def frac_rref_oracle(rows):
    """Plain Fraction Gauss-Jordan, the independent reference."""
    rows = [[Fraction(x) for x in r] for r in rows]
    nr, nc = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(nc):
        p = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def test_int_rref_matches_fraction_oracle():
    rng = random.Random(7)
    for trial in range(40):
        nr = rng.randrange(1, 7)
        nc = rng.randrange(1, 7)
        rows = [[rng.randrange(-6, 7) for _ in range(nc)] for _ in range(nr)]
        red, pivots = intlinalg.int_rref(intlinalg.as_int_array(rows))
        oracle, opiv = frac_rref_oracle(rows)
        assert list(pivots) == opiv
        for i in range(len(oracle)):
            piv = Fraction(int(red[i, pivots[i]]))
            got = [Fraction(int(x)) / piv for x in red[i]]
            assert got == oracle[i]


def test_int_kernel_annihilates():
    rng = random.Random(11)
    for trial in range(30):
        nr = rng.randrange(1, 6)
        nc = rng.randrange(1, 8)
        m = intlinalg.as_int_array(
            [[rng.randrange(-5, 6) for _ in range(nc)] for _ in range(nr)]
        )
        k, pivots = intlinalg.int_kernel(m)
        rank = intlinalg.int_rank(m)
        assert k.shape[0] == nc - rank
        if k.shape[0]:
            assert not np.any(m.astype(object) @ k.astype(object).T)
            red, piv = intlinalg.int_rref(k)  # already canonical
            assert piv == pivots and (red == k).all()


def test_kernel_zero_matrix_full_space():
    basis, pivots = kernel(ExactMatrix.zeros(3, 3))
    assert basis.shape == (3, 3) and pivots == (0, 1, 2)


def test_kernel_identity_trivial():
    basis, pivots = kernel(ExactMatrix.identity(4))
    assert basis.shape == (0, 4) and pivots == ()


def test_kernel_vectors_annihilated_exactly():
    m = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    basis, _ = kernel(m)
    assert basis.shape[0] == 1
    assert (m @ basis.T).is_zero()


def test_kernel_irrational_entries():
    """Elimination runs over Q only: rref and kernel refuse a matrix with
    an irrational part."""
    r2 = ExactScalar.sqrt(2)
    m = ExactMatrix.from_rows([[1, r2], [r2, 2]])
    for fn in (rref, kernel):
        with pytest.raises(ValueError, match="over Q only"):
            fn(m)


def test_matmul_exactness_against_fractions():
    rng = random.Random(3)
    a = ExactMatrix.from_rows(
        [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(4)]
         for _ in range(3)]
    )
    b = ExactMatrix.from_rows(
        [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(5)]
         for _ in range(4)]
    )
    c = a @ b
    af, bf = to_fractions(a), to_fractions(b)
    for i in range(3):
        for j in range(5):
            want = sum(af[i, k] * bf[k, j] for k in range(4))
            assert c.entry(i, j).as_fraction() == want


def test_matmul_with_radical_parts():
    r2 = ExactScalar.sqrt(2)
    a = ExactMatrix.from_rows([[1, r2], [0, 1]])
    b = ExactMatrix.from_rows([[r2, 0], [1, r2]])
    c = a @ b
    assert c.entry(0, 0) == r2 + r2
    assert c.entry(0, 1) == ExactScalar(2)
    assert c.entry(1, 1) == r2


def test_object_fallback_on_big_entries():
    big = 2 ** 40
    a = ExactMatrix.from_int([[big, 0], [0, big]])
    c = a @ a @ a
    assert c.entry(0, 0).as_fraction() == Fraction(big) ** 3


def test_inverse_roundtrip():
    m = ExactMatrix.from_rows([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    assert m @ inverse(m) == ExactMatrix.identity(3)
    # over Q(sqrt 2) only a triangular matrix is inverted
    # (test_triangular_inverse_over_q_sqrt); any other is refused
    r2 = ExactScalar.sqrt(2)
    with pytest.raises(ValueError, match="over Q only"):
        inverse(ExactMatrix.from_rows([[1, r2], [r2, 3]]))


@pytest.mark.parametrize("values", [
    [Fraction(1, 4), 2, Fraction(-3, 8), 0],
    [ExactScalar.sqrt(3), Fraction(1, 3), 1 + ExactScalar.sqrt(3), 0],
    [2 ** 70, Fraction(1, 2 ** 70), -1],
    [],
])
def test_diag_matches_the_dense_matrix(values):
    """diag builds its numerators as one vector: the same normalized
    matrix as the dense rows with the values on the diagonal."""
    n = len(values)
    want = ExactMatrix.from_rows(
        [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]) \
        if n else ExactMatrix.zeros(0, 0)
    got = ExactMatrix.diag(values)
    assert (got.den, got.rad) == (want.den, want.rad)
    assert got.n0.dtype == want.n0.dtype
    assert (got.n0 == want.n0).all()
    assert (got.n1 is None) == (want.n1 is None)
    assert got.n1 is None or (got.n1 == want.n1).all()


def _same_parts(got: ExactMatrix, want: ExactMatrix) -> bool:
    return (got.den, got.rad, got.n0.dtype) == (want.den, want.rad,
                                                want.n0.dtype) \
        and (got.n0 == want.n0).all() and (got.n1 is None) == (
            want.n1 is None) and (got.n1 is None or (got.n1 == want.n1).all())


def test_tridiagonal_of_one_entry():
    got = ExactMatrix.tridiagonal([], [Fraction(-3, 4)], [])
    assert _same_parts(got, ExactMatrix.from_rows([[Fraction(-3, 4)]]))


def test_tridiagonal_puts_irrational_bands_over_one_denominator():
    r2 = ExactScalar.sqrt(2)
    got = ExactMatrix.tridiagonal([Fraction(1, 3), 1], [r2, 2, 0],
                                  [5, r2 / 7])
    assert (got.den, got.rad) == (21, 2)
    assert got.n0.tolist() == [[0, 105, 0], [7, 42, 0], [0, 21, 0]]
    assert got.n1.tolist() == [[21, 0, 0], [0, 0, 3], [0, 0, 0]]


@pytest.mark.parametrize("seed", range(6))
def test_tridiagonal_matches_from_rows(seed):
    rng = random.Random(seed)
    d = rng.randint(1, 6)
    rad = rng.choice([0, 3])

    def scalar():
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        return ExactScalar(a, rng.randint(-2, 2) if rad else 0, rad)

    sub, diag, sup = ([scalar() for _ in range(k)] for k in (d, d + 1, d))
    rows = [[diag[i] if i == j else sub[j] if i == j + 1 else
             sup[i] if j == i + 1 else 0 for j in range(d + 1)]
            for i in range(d + 1)]
    assert _same_parts(ExactMatrix.tridiagonal(sub, diag, sup),
                       ExactMatrix.from_rows(rows))


def _int_inverse_oracle(m: ExactMatrix) -> ExactMatrix:
    """m^-1 from int_inverse's row reduction of [m.n0 | I]."""
    num, den = intlinalg.int_inverse(m.n0)
    return ExactMatrix.from_rows(
        [[Fraction(int(v) * m.den, int(den[i])) for v in num[i]]
         for i in range(num.shape[0])])


@pytest.mark.parametrize("seed", range(12))
def test_triangular_inverse_matches_int_inverse(seed, monkeypatch):
    """Upper and lower triangular, bidiagonal or not, with 33-bit entries
    like those of B* = A* - h* in a split basis: back substitution gives
    int_inverse's answer and reduces no matrix."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 18))
    a = rng.integers(-2 ** 33, 2 ** 33, size=(n, n), endpoint=True)
    a = np.triu(a) if seed % 2 else np.tril(a)
    if seed % 3 == 0:  # bidiagonal
        a = np.triu(np.tril(a, 1), -1)
    np.fill_diagonal(a, np.where(np.diag(a) == 0, 1, np.diag(a)))
    m = ExactMatrix(a, None, int(rng.integers(1, 50)))
    want = _int_inverse_oracle(m)
    calls = []
    real = intlinalg.int_rref
    monkeypatch.setattr(intlinalg, "int_rref",
                        lambda mat: calls.append(mat) or real(mat))
    got = inverse(m)
    assert calls == []
    assert got == want
    assert got @ m == ExactMatrix.identity(n)


def test_triangular_inverse_over_q_sqrt():
    r2 = ExactScalar.sqrt(2)
    m = ExactMatrix.from_rows([[1 + r2, r2, 0], [0, 3, 2 - r2], [0, 0, r2]])
    assert m @ inverse(m) == ExactMatrix.identity(3)
    assert inverse(m.T) == inverse(m).T


@pytest.mark.parametrize("rows", [
    [[1, 2], [0, 0]],                  # upper, zero at the bottom
    [[0, 0], [3, 1]],                  # lower, zero at the top
    [[2, 1, 7], [0, 0, 1], [0, 0, 5]],  # upper, zero in the middle
    [[ExactScalar.sqrt(3), 1], [0, 0]],  # over Q(sqrt 3)
])
def test_triangular_inverse_zero_diagonal_raises(rows):
    with pytest.raises(ZeroDivisionError):
        inverse(ExactMatrix.from_rows(rows))


def test_spectral_projector_diag():
    a = ExactMatrix.diag([2, 5])
    e0 = spectral_projectors(a, [2, 5])[0]
    assert e0 == ExactMatrix.diag([1, 0])


def test_spectral_projector_family_identities():
    a = ExactMatrix.from_rows([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    # eigenvalues 0, +/- sqrt(2)
    r2 = ExactScalar.sqrt(2)
    projs = spectral_projectors(a, [ExactScalar(0), r2, -r2])
    total = projs[0] + projs[1] + projs[2]
    assert total == ExactMatrix.identity(3)
    for i, p in enumerate(projs):
        for j, q in enumerate(projs):
            assert p @ q == (p if i == j else ExactMatrix.zeros(3, 3))


def test_spectral_projector_errors():
    a = ExactMatrix.diag([2, 5])
    with pytest.raises(ValueError):
        spectral_projectors(a, [2, 2])
    with pytest.raises(ValueError):
        spectral_projectors(a, [2, 4])


def test_subspace_membership():
    s = ExactMatrix.from_rows([[1, 0, 2], [0, 1, 3]])
    assert contains_rows(s, ExactMatrix.from_rows([[2, 1, 7]]))
    assert not contains_rows(s, ExactMatrix.from_rows([[0, 0, 1]]))


def test_rref_canonical_under_row_scaling():
    m1 = ExactMatrix.from_rows([[2, 4, 2], [1, 1, 0]])
    m2 = ExactMatrix.from_rows([[1, 1, 0], [6, 12, 6]])
    b1, p1 = rref(m1)
    b2, p2 = rref(m2)
    assert p1 == p2 and b1 == b2


def test_zero_product_with_den_above_int64():
    # The gcd of an all-zero numerator and its denominator 3^82 > 2^63.
    a = ExactMatrix(np.array([[0, 1], [0, 0]]), None, 3 ** 41)
    assert a @ a == ExactMatrix.zeros(2, 2)


def test_add_zero_part_with_coefficient_above_int64():
    # X's zero rational part is scaled by 3^41 > 2^63 in the sum.
    r2 = ExactScalar.sqrt(2)
    tiny = ExactScalar(Fraction(1, 3 ** 41))
    x = ExactMatrix.from_rows([[r2, 0], [0, r2]])
    y = ExactMatrix.from_rows([[tiny, tiny], [0, tiny]])
    s = x + y
    for i in range(2):
        for j in range(2):
            assert s.entry(i, j) == x.entry(i, j) + y.entry(i, j)


def test_gcd_all_int64_object_and_mixed():
    from dualpolar.linexact import _gcd_all

    big = 2 ** 64 * 3  # above 2^63: Python ints only
    i64 = np.array([[6, -12], [0, 18]], dtype=np.int64)
    obj = np.array([[big, -2 * big], [0, 3 * big]], dtype=object)
    assert _gcd_all(i64) == 6
    assert _gcd_all(obj) == big
    assert _gcd_all(None, obj, None) == big
    assert _gcd_all(obj, i64) == 6
    assert _gcd_all(big * 5, obj) == big
    assert _gcd_all(obj, np.array([[2 ** 70 + 1]], dtype=object)) == 1
    assert _gcd_all(np.zeros((2, 2), dtype=np.int64), None) == 0
    assert _gcd_all(np.zeros((0, 3), dtype=object), 10, obj) == 2
    # den = 1 first settles the gcd before any array is read
    assert _gcd_all(1, np.array([["not", "read"]], dtype=object)) == 1


def test_normalization_divides_common_factor_above_2_63():
    big = 2 ** 64 * 3
    m = ExactMatrix(np.array([[big, 2 * big]], dtype=object),
                    np.array([[0, big]], dtype=object), big * 7, 2)
    assert m.den == 7 and m.n0.dtype == np.int64
    assert m.n0.tolist() == [[1, 2]] and m.n1.tolist() == [[0, 1]]
    assert m.entry(0, 1) == ExactScalar(Fraction(2, 7), Fraction(1, 7), 2)


# ---------------------------------------------------------------------------
# The combination primitive, the stacked product and the cached bounds


def _seeded_matrix(rng, shape, rad, den_max=6, top=9):
    """A matrix over Q(sqrt rad) (over Q for rad = 0) with small random
    entries and denominators."""
    rows = [[ExactScalar(Fraction(rng.randint(-top, top),
                                  rng.randint(1, den_max)),
                         Fraction(rng.randint(-top, top),
                                  rng.randint(1, den_max)) if rad else 0,
                         rad)
             for _ in range(shape[1])] for _ in range(shape[0])]
    return ExactMatrix.from_rows(rows)


def _seeded_scalar(rng, rad):
    return ExactScalar(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                       Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                       if rad else 0, rad)


def _chained(terms):
    """The oracle: one scale and one sum per term, each normalized."""
    out = ExactMatrix.zeros(*terms[0][1].shape)
    for s, m in terms:
        out = out + m.scale(s)
    return out


def _entrywise_oracle(terms, shape):
    """Entry (i, j) summed as ExactScalars."""
    terms = [(s if isinstance(s, ExactScalar) else ExactScalar(s), m)
             for s, m in terms]
    return [[sum((s * m.entry(i, j) for s, m in terms),
                 ExactScalar(0)) for j in range(shape[1])]
            for i in range(shape[0])]


def _entries(m: ExactMatrix):
    return [[m.entry(i, j) for j in range(m.shape[1])]
            for i in range(m.shape[0])]


@pytest.mark.parametrize("rad", [0, 2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_combination_matches_chained_oracle(rad, seed):
    rng = random.Random(f"{rad}:{seed}")
    shape = (rng.randint(1, 5), rng.randint(1, 5))
    terms = [(_seeded_scalar(rng, rad), _seeded_matrix(rng, shape, rad))
             for _ in range(rng.randint(1, 5))]
    terms.append((0, _seeded_matrix(rng, shape, rad)))  # a zero coefficient
    terms.append((Fraction(-2, 3), _seeded_matrix(rng, shape, 0)))
    got = ExactMatrix.combination(terms)
    assert got == _chained(terms)
    assert _entries(got) == _entrywise_oracle(terms, shape)
    # lowest terms: the same parts as the chain's normalized result
    want = _chained(terms)
    assert got.den == want.den and got.rad == want.rad


def test_combination_cancels_to_rational_and_to_zero():
    r2 = ExactScalar.sqrt(2)
    m = ExactMatrix.from_rows([[r2 / 3, 1], [ExactScalar(1, 2, 2), 0]])
    n = ExactMatrix.from_rows([[r2 / 3, 0], [ExactScalar(0, 2, 2), 0]])
    diff = ExactMatrix.combination([(1, m), (-1, n)])
    assert diff.n1 is None and diff.rad == 0 and diff.den == 1
    assert diff == ExactMatrix.from_rows([[0, 1], [1, 0]])
    zero = ExactMatrix.combination([(3, m), (-3, m)])
    assert zero.is_zero() and zero.den == 1 and zero.shape == (2, 2)
    # every coefficient zero: the zero matrix of the terms' shape
    assert ExactMatrix.combination([(0, m), (ExactScalar(0), n)]) \
        == ExactMatrix.zeros(2, 2)
    # an irrational scalar times an irrational matrix can be rational
    assert ExactMatrix.combination([(r2, ExactMatrix.identity(2).scale(r2))]) \
        == ExactMatrix.identity(2).scale(2)


def test_combination_of_integer_arrays_and_matrices():
    arr = np.array([[1, -2], [3, 4]], dtype=np.int64)
    m = ExactMatrix.from_rows([[Fraction(1, 2), 0], [0, ExactScalar.sqrt(3)]])
    got = ExactMatrix.combination([(Fraction(1, 3), arr), (2, m)])
    assert got == ExactMatrix.from_int(arr).scale(Fraction(1, 3)) + m.scale(2)


def test_combination_widens_narrow_integer_arrays():
    """uint8 and bool terms are summed as int64, not in their own dtype."""
    for a, b, want in ((np.array([[255]], np.uint8),
                        np.array([[1]], np.uint8), 256),
                       (np.array([[True]]), np.array([[True]]), 2)):
        got = ExactMatrix.combination([(1, a), (1, b)])
        assert got.n0.dtype == np.int64 and got.n0.tolist() == [[want]]


def test_combination_refuses_mixed_radicands():
    r2, r3 = ExactScalar.sqrt(2), ExactScalar.sqrt(3)
    m2 = ExactMatrix.from_rows([[r2, 1]])
    m3 = ExactMatrix.from_rows([[r3, 1]])
    q = ExactMatrix.from_rows([[1, 2]])
    for terms in ([(1, m2), (1, m3)], [(r3, m2)], [(r2, q), (r3, q)],
                  [(1, m2), (r3, q)]):
        with pytest.raises(MixedRadicandError):
            ExactMatrix.combination(terms)
    # a zero coefficient takes its matrix out, radicand and all
    assert ExactMatrix.combination([(1, m2), (0, m3)]) == m2


def _four_product_oracle(x: ExactMatrix, y: ExactMatrix) -> ExactMatrix:
    """x y from the four products of the parts, each by Python ints."""
    def mm(a, b):
        if a is None or b is None:
            return np.zeros((x.shape[0], y.shape[1]), dtype=object)
        return np.dot(a.astype(object), b.astype(object))

    rad = x.rad or y.rad
    n0 = mm(x.n0, y.n0) + rad * mm(x.n1, y.n1)
    n1 = mm(x.n0, y.n1) + mm(x.n1, y.n0)
    return ExactMatrix(n0, n1, x.den * y.den, rad)


@pytest.mark.parametrize("rad_x,rad_y", [(0, 0), (0, 2), (2, 0), (2, 2),
                                         (0, 3), (3, 3)])
@pytest.mark.parametrize("seed", range(4))
def test_stacked_product_matches_four_products(rad_x, rad_y, seed):
    rng = random.Random(f"{rad_x}:{rad_y}:{seed}")
    m, k, n = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
    x = _seeded_matrix(rng, (m, k), rad_x)
    y = _seeded_matrix(rng, (k, n), rad_y)
    assert x @ y == _four_product_oracle(x, y)


def test_stacked_product_with_parts_beyond_int64():
    big = 3 ** 45  # above 2^62: the parts are Python ints
    x = ExactMatrix(np.array([[big, 1], [0, -big]], dtype=object),
                    np.array([[1, big], [2, 0]], dtype=object), 5, 2)
    y = ExactMatrix(np.array([[1, 2], [big, 3]], dtype=object), None, 7)
    for a, b in ((x, y), (y, x), (x, x), (y, y)):
        assert a @ b == _four_product_oracle(a, b)


def test_int64_downcast_after_a_big_entry_cancels():
    big = 2 ** 70
    huge = ExactMatrix(np.array([[big, 1, 0], [0, 1, 0], [0, 0, 1]],
                                dtype=object), None, 3)
    assert huge.n0.dtype == object
    small = huge - ExactMatrix(np.array([[big, 0, 0], [0, 0, 0], [0, 0, 0]],
                                        dtype=object), None, 3)
    assert small.n0.dtype == np.int64
