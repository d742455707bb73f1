"""Distance-regular graph analytics over exact scalars.

verify_distance_regular certifies the defining independence of the counts
|G_i(x) ^ G_j(y)| from the vertex pair (it is the brute-force oracle, run on
the actual graph).  spectral_data builds the primitive idempotents from the
closed-form eigenvalue list via the projector product formula; the identity
sum(E_i) = I certifies that the closed form exhausts the spectrum, and all
Krein parameters are solved for and then verified by exact reconstruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import ExactScalar
from .intlinalg import int_matmul
from .linexact import ExactMatrix, spectral_projectors
from .polar import FormSpec, PolarGraph


class NotDistanceRegularError(ValueError):
    def __init__(self, h, i, j, y, z, expected, got):
        self.witness = (h, i, j, y, z)
        super().__init__(
            f"count |G_{i}(x) ^ G_{j}(y)| at distance {h} is not constant: "
            f"pair ({y},{z}) gives {got}, expected {expected}"
        )


@dataclass(frozen=True)
class IntersectionData:
    D: int
    c: tuple[int, ...]
    a: tuple[int, ...]
    b: tuple[int, ...]
    p: np.ndarray  # p[h][i][j]

    @property
    def k(self) -> int:
        return self.b[0]


def distance_matrices(dist: np.ndarray, D: int) -> list[np.ndarray]:
    return [(dist == i).astype(np.uint8) for i in range(D + 1)]


def verify_distance_regular(g) -> IntersectionData:
    """Exhaustive check of distance-regularity; returns the intersection
    numbers, or raises NotDistanceRegularError with a witness."""
    dist = g.dist
    D = int(dist.max())
    mats = distance_matrices(dist, D)
    n = dist.shape[0]
    p = np.zeros((D + 1, D + 1, D + 1), dtype=np.int64)
    for i in range(D + 1):
        for j in range(i, D + 1):
            prod = int_matmul(mats[i], mats[j])
            for h in range(D + 1):
                support = mats[h].astype(bool)
                if h == 0:
                    vals = prod[np.arange(n), np.arange(n)]
                else:
                    vals = prod[support]
                if vals.size == 0:
                    continue
                v0 = int(vals[0])
                if (vals != v0).any():
                    ys, zs = np.nonzero(support & (prod != v0))
                    y, z = int(ys[0]), int(zs[0])
                    raise NotDistanceRegularError(h, i, j, y, z, v0,
                                                  int(prod[y, z]))
                p[h, i, j] = p[h, j, i] = v0
    c = tuple(int(p[i, 1, i - 1]) if i >= 1 else 0 for i in range(D + 1))
    b = tuple(int(p[i, 1, i + 1]) if i < D else 0 for i in range(D + 1))
    a = tuple(int(p[i, 1, i]) for i in range(D + 1))
    k = b[0]
    for i in range(D + 1):
        if c[i] + a[i] + b[i] != k:
            raise NotDistanceRegularError(i, 1, i, -1, -1, k, c[i] + a[i] + b[i])
    return IntersectionData(D, c, a, b, p)


# ---------------------------------------------------------------------------
# Closed forms for dual polar graphs


def b_pow(b: int, expo: Fraction) -> Fraction:
    """Exact b**expo for expo with denominator 1 or 2 (b a square then)."""
    expo = Fraction(expo)
    if expo.denominator == 1:
        return Fraction(b) ** expo.numerator
    if expo.denominator == 2:
        s = math.isqrt(b)
        if s * s != b:
            raise ValueError(f"{b}**{expo} is irrational")
        return Fraction(s) ** expo.numerator
    raise ValueError(f"unsupported exponent {expo}")


def closed_form_intersection(spec: FormSpec) -> tuple[list[int], list[int], list[int]]:
    """c_i, a_i, b_i = (b^i-1)/(b-1), (b^e-1)(b^i-1)/(b-1),
    b^(i+e)(b^(D-i)-1)/(b-1)."""
    b, D, e = spec.b, spec.D, spec.e
    c = [int((b ** i - 1) // (b - 1)) for i in range(D + 1)]
    bb = []
    aa = []
    for i in range(D + 1):
        bi = b_pow(b, i + e) * (b ** (D - i) - 1) / (b - 1)
        ai = (b_pow(b, e) - 1) * (b ** i - 1) / (b - 1)
        assert bi.denominator == 1 and ai.denominator == 1
        bb.append(int(bi))
        aa.append(int(ai))
    return c, aa, bb


def closed_form_eigenvalues(spec: FormSpec) -> list[Fraction]:
    """theta_i = (1 - b^e + b^(D+e-i) - b^i)/(b - 1), decreasing in i."""
    b, D, e = spec.b, spec.D, spec.e
    return [
        (1 - b_pow(b, e) + b_pow(b, D + e - i) - b ** i) / (b - 1)
        for i in range(D + 1)
    ]


def closed_form_multiplicities(spec: FormSpec) -> list[int]:
    b, D, e = spec.b, spec.D, spec.e
    out = []
    for i in range(D + 1):
        m = Fraction(b) ** i
        for j in range(i):
            m *= b ** (D - j) - 1
            m /= b ** (j + 1) - 1
        m *= (1 + b_pow(b, D + e - 2 * i)) / (1 + b_pow(b, D + e - i))
        for j in range(1, i + 1):
            m *= (1 + b_pow(b, D + e - j)) / (1 + b_pow(b, j - e))
        assert m.denominator == 1
        out.append(int(m))
    return out


def dual_eigenvalue_scalars(spec: FormSpec) -> tuple[Fraction, Fraction]:
    """(zeta, xi) with theta*_i = zeta + xi b^(-i)."""
    b, D, e = spec.b, spec.D, spec.e
    zeta = -b * (b_pow(b, D + e - 2) + 1) / (b - 1)
    xi = (
        b * b * (b_pow(b, D + e - 2) + 1) * (b_pow(b, D + e - 1) + 1)
        / ((b - 1) * (b_pow(b, e) + b))
    )
    return zeta, xi


def closed_form_dual_eigenvalues(spec: FormSpec) -> list[Fraction]:
    zeta, xi = dual_eigenvalue_scalars(spec)
    return [zeta + xi * Fraction(1, spec.b ** i) for i in range(spec.D + 1)]


def closed_form_dual_intersection(spec: FormSpec):
    """Graph-level dual intersection numbers (c*_i, a*_i, b*_i)."""
    b, D, e = spec.b, spec.D, spec.e
    zeta, xi = dual_eigenvalue_scalars(spec)
    theta_star0 = zeta + xi
    cs, bs, as_ = [], [], []
    for i in range(D + 1):
        ci = (
            xi * b_pow(b, -i) * (b ** i - 1) * (b_pow(b, e - i) + 1)
            / ((b_pow(b, D + e - 2 * i) + 1) * (b_pow(b, D + e - 2 * i + 1) + 1))
        )
        bi = (
            xi * (1 - b_pow(b, i - D)) * (b_pow(b, -D - e + i) + 1)
            / ((b_pow(b, -D - e + 2 * i) + 1) * (b_pow(b, -D - e + 2 * i + 1) + 1))
        )
        cs.append(ci)
        bs.append(bi)
        as_.append(theta_star0 - ci - bi)
    return cs, as_, bs


@dataclass
class BoseMesnerData:
    theta: list[Fraction]
    E: list[ExactMatrix]
    m: list[int]
    krein: np.ndarray  # Fractions, q[h][i][j]
    theta_star: list[Fraction]
    zeta: Fraction
    xi: Fraction


def krein_parameters(E: list[ExactMatrix], n: int, m: list[int]) -> np.ndarray:
    """Solve E_i o E_j = (1/n) sum_h q^h_ij E_h and verify exactly."""
    D1 = len(E)
    q = np.empty((D1, D1, D1), dtype=object)
    for i in range(D1):
        for j in range(i, D1):
            had = E[i].entrywise(E[j])
            for h in range(D1):
                tr = had.entrywise(E[h]).sum_all()
                val = tr.as_fraction() * n / m[h]
                q[h, i, j] = q[h, j, i] = val
            recon = ExactMatrix.zeros(n, n)
            for h in range(D1):
                recon = recon + E[h].scale(Fraction(q[h, i, j], n))
            if recon != had:
                raise AssertionError(
                    f"Krein reconstruction failed for (i,j)=({i},{j})"
                )
    return q


def check_q_polynomial_pattern(q: np.ndarray) -> None:
    """q^h_ij = 0 when one of h,i,j exceeds the sum of the other two, and
    q^h_ij != 0 when one equals the sum of the other two."""
    D1 = q.shape[0]
    for h in range(D1):
        for i in range(D1):
            for j in range(D1):
                val = q[h, i, j]
                if val < 0:
                    raise AssertionError(f"negative Krein parameter at {(h,i,j)}")
                big, s = max(h, i, j), h + i + j - max(h, i, j)
                if big > s and val != 0:
                    raise AssertionError(f"q^{h}_{i}{j} should vanish")
                if big == s and val == 0:
                    raise AssertionError(f"q^{h}_{i}{j} should not vanish")


def spectral_data(g: PolarGraph, spec: FormSpec | None = None) -> BoseMesnerData:
    spec = spec or g.spec
    n = g.n_vertices
    theta = closed_form_eigenvalues(spec)
    for i in range(len(theta) - 1):
        if not theta[i] > theta[i + 1]:
            raise AssertionError("eigenvalues are not strictly decreasing")
    A = ExactMatrix.from_int(g.adjacency.astype(np.int64))
    E = spectral_projectors(A, theta)
    m = closed_form_multiplicities(spec)
    for i, (Ei, mi) in enumerate(zip(E, m)):
        if Ei.trace() != ExactScalar(mi):
            raise AssertionError(f"rank of idempotent {i} is not {mi}")
    if sum(m) != n:
        raise AssertionError("multiplicities do not sum to |X|")
    J = ExactMatrix.from_int(np.ones((n, n), dtype=np.int64))
    if E[0] != J.scale(Fraction(1, n)):
        raise AssertionError("principal idempotent is not J/|X|")
    q = krein_parameters(E, n, m)
    check_q_polynomial_pattern(q)
    zeta, xi = dual_eigenvalue_scalars(spec)
    theta_star = closed_form_dual_eigenvalues(spec)
    if theta_star[0] != m[1]:
        raise AssertionError("theta*_0 != m_1")
    return BoseMesnerData(theta, E, m, q, theta_star, zeta, xi)


# ---------------------------------------------------------------------------
# Tridiagonal scalars


def td_scalars(spec: FormSpec):
    """(beta, gamma, gamma*, rho, rho*) as exact rationals, verified against
    the defining recurrences on the eigenvalue sequences."""
    b, D, e = spec.b, spec.D, spec.e
    beta = Fraction(b) + Fraction(1, b)
    gamma = (b_pow(b, e) - 1) * (b - 1) / b
    gamma_star = (b - 1) * (b_pow(b, D + e - 2) + 1)
    rho = (b_pow(b, e) - 1) ** 2 / b + b_pow(b, D + e - 2) * (b + 1) ** 2
    rho_star = b * (b_pow(b, D + e - 2) + 1) ** 2
    th = closed_form_eigenvalues(spec)
    ths = closed_form_dual_eigenvalues(spec)
    for i in range(2, D - 1 + 1):
        if i + 1 <= D and i - 2 >= 0:
            assert (th[i - 2] - th[i + 1]) / (th[i - 1] - th[i]) == beta + 1
            assert (ths[i - 2] - ths[i + 1]) / (ths[i - 1] - ths[i]) == beta + 1
    for i in range(1, D):
        assert gamma == th[i - 1] - beta * th[i] + th[i + 1]
        assert gamma_star == ths[i - 1] - beta * ths[i] + ths[i + 1]
    for i in range(1, D + 1):
        assert rho == (th[i - 1] ** 2 - beta * th[i - 1] * th[i] + th[i] ** 2
                       - gamma * (th[i - 1] + th[i]))
        assert rho_star == (ths[i - 1] ** 2 - beta * ths[i - 1] * ths[i]
                            + ths[i] ** 2 - gamma_star * (ths[i - 1] + ths[i]))
    return beta, gamma, gamma_star, rho, rho_star

