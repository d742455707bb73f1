import random
from fractions import Fraction

import numpy as np
import pytest

from dualpolar.exact import ExactScalar
from dualpolar import intlinalg
from dualpolar.linexact import (
    ExactMatrix,
    inverse,
    intersect,
    kernel,
    orthogonal_projector,
    row_space,
    rref,
    spectral_projectors,
)


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
    s = kernel(ExactMatrix.zeros(3, 3))
    assert s.dim == 3


def test_kernel_identity_trivial():
    s = kernel(ExactMatrix.identity(4))
    assert s.dim == 0


def test_kernel_vectors_annihilated_exactly():
    m = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    s = kernel(m)
    assert s.dim == 1
    assert (m @ s.basis.T).is_zero()


def test_kernel_irrational_entries():
    r2 = ExactScalar.sqrt(2)
    m = ExactMatrix.from_rows([[1, r2], [r2, 2]])
    s = kernel(m)
    assert s.dim == 1
    assert (m @ s.basis.T).is_zero()


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
    af, bf = a.to_fractions(), b.to_fractions()
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
    r2 = ExactScalar.sqrt(2)
    m2 = ExactMatrix.from_rows([[1, r2], [r2, 3]])
    assert inverse(m2) @ m2 == ExactMatrix.identity(2)


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


def test_orthogonal_projector_trivial():
    s = row_space(ExactMatrix.from_rows([[1, 0]]))
    assert orthogonal_projector(s) == ExactMatrix.diag([1, 0])
    s2 = row_space(ExactMatrix.from_rows([[1, 1]]))
    want = ExactMatrix.from_rows([[Fraction(1, 2)] * 2] * 2)
    assert orthogonal_projector(s2) == want


def test_orthogonal_projector_properties():
    b = ExactMatrix.from_rows([[1, 2, 0, 1], [0, 1, 1, -1]])
    s = row_space(b)
    p = orthogonal_projector(s)
    assert p @ p == p
    assert p.T == p
    assert s.contains_rows(p.T)


def test_intersect():
    s1 = row_space(ExactMatrix.from_rows([[1, 0, 0], [0, 1, 0]]))
    s2 = row_space(ExactMatrix.from_rows([[0, 1, 0], [0, 0, 1]]))
    s = intersect(s1, s2)
    assert s.dim == 1
    assert s.basis.entry(0, 1) == ExactScalar(1)


def test_subspace_membership():
    s = row_space(ExactMatrix.from_rows([[1, 0, 2], [0, 1, 3]]))
    assert s.contains_rows(ExactMatrix.from_rows([[2, 1, 7]]))
    assert not s.contains_rows(ExactMatrix.from_rows([[0, 0, 1]]))


def test_rref_canonical_under_row_scaling():
    m1 = ExactMatrix.from_rows([[2, 4, 2], [1, 1, 0]])
    m2 = ExactMatrix.from_rows([[1, 1, 0], [6, 12, 6]])
    b1, p1 = rref(m1)
    b2, p2 = rref(m2)
    assert p1 == p2 and b1 == b2


def test_zero_product_with_den_above_int64():
    # The gcd of an all-zero numerator and its denominator 3^82 > 2^63.
    a = ExactMatrix.from_int([[0, 1], [0, 0]], den=3 ** 41)
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
