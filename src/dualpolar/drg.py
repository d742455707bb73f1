"""Distance-regular graph analytics over exact scalars.

verify_distance_regular certifies distance-regularity by its definition:
for every pair (y, z) at distance l, the numbers c_l, a_l, b_l of
neighbours of z at distance l - 1, l, l + 1 from y are constant.  They are
M_(l-1), M_l, M_(l+1) on those pairs, for the D + 1 products M_h = A_h A,
and the same products grow the distances by breadth-first search: the
graph stores its adjacency only.

The Bose-Mesner algebra is then held by scalars (Brouwer, Cohen, Neumaier,
Distance-Regular Graphs, 1989, sections 4.1 and 9.4): A_h = v_h(A) with
x v_h = b_(h-1) v_(h-1) + a_h v_h + c_(h+1) v_(h+1), P_ih = v_h(theta_i),
Q_hi = m_i v_h(theta_i) / k_h and E_i = (1/n) sum_h Q_hi A_h.  spectral_data
checks the closed forms as scalar identities: the theta_i are the roots of
(x - a_D) v_D - b_(D-1) v_(D-1), theta_0 = k and m_0 = 1 (E_0 = J/n),
PQ = nI (its diagonal is Biggs' formula for m_i), and Q_h1 = theta*_h (the
diagonal of A* is |X| times row x of E_1, at every x).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product, zip_longest

import numpy as np

from .exact import ExactScalar
from .intarith import int_matmul
# imported for perfbench/tracer.py alone, which resolves
# drg.spectral_projectors by name: removing it breaks the benchmark
from .linexact import spectral_projectors  # noqa: F401
from .polar import FormSpec


class NotDistanceRegularError(ValueError):
    def __init__(self, h, i, j, y, z, expected, got):
        self.witness = (h, i, j, y, z)
        super().__init__(
            f"count |G_{i}(x) ^ G_{j}(y)| at distance {h} is not constant: "
            f"pair ({y},{z}) gives {got}, expected {expected}"
        )


class NotConnectedError(ValueError):
    """No path joins the witness pair."""

    def __init__(self, y, z):
        self.witness = (y, z)
        super().__init__(f"no path joins vertices {y} and {z}")


@dataclass(frozen=True)
class IntersectionData:
    D: int
    c: tuple[int, ...]
    a: tuple[int, ...]
    b: tuple[int, ...]

    @property
    def k(self) -> int:
        return self.b[0]


def distance_layers(adj: np.ndarray, x: int, steps: int):
    """The vertices at distance 0, 1, ..., steps from x, each layer sorted,
    by breadth-first search on the rows of the 0/1 adjacency adj, and the
    mask of the vertices in them."""
    seen = np.zeros(len(adj), dtype=bool)
    seen[x] = True
    layers = [np.array([x])]
    for _ in range(steps):
        grown = adj[layers[-1]].any(0) & ~seen
        seen |= grown
        layers.append(np.flatnonzero(grown))
    return layers, seen


def verify_distance_regular(g) -> IntersectionData:
    """The intersection numbers of the graph on g.adjacency; else
    NotDistanceRegularError or NotConnectedError with a witness pair.

    With A_h the pairs at distance h, M_h = A_h A counts the neighbours of
    z at distance h from y.  A neighbour of a vertex at distance h lies at
    h - 1, h or h + 1, so class h + 1 is where M_h > 0, less classes h - 1
    and h, and M_h read on classes h - 1, h, h + 1 is b_(h-1), a_h,
    c_(h+1), each of which must be constant.  The search ends at the first
    empty class, D + 1, after D + 1 products.  The adjacency is symmetric,
    so the graph is connected when the search from vertex 0 reaches every
    vertex; else 0 and a vertex it misses are a pair no path joins."""
    adj = g.adjacency
    n = len(adj)
    near = [np.eye(n, dtype=bool)]  # classes h - 1 (once h > 0) and h
    counts = {}  # (l, h): |G_h(y) ^ G_1(z)| for the pairs at distance l
    for h in range(n):
        prod = int_matmul(near[-1], adj)
        grown = prod > 0
        for mask in near:
            grown &= ~mask
        for l, mask in enumerate((*near, grown), h + 1 - len(near)):
            if mask.any():
                v0 = int(prod.flat[mask.argmax()])
                off = mask & (prod != v0)
                if off.any():
                    y, z = divmod(int(off.argmax()), n)
                    raise NotDistanceRegularError(l, h, 1, y, z, v0,
                                                  int(prod[y, z]))
                counts[l, h] = v0
        del prod, off  # one product alive at a time: they set the peak
        if not grown.any():
            break
        near = [near[-1], grown]
    D = h
    _, seen = distance_layers(adj, 0, D)
    if not seen.all():
        raise NotConnectedError(0, int(seen.argmin()))
    c, a, b = (tuple(counts.get((i, i + s), 0) for i in range(D + 1))
               for s in (-1, 0, 1))
    return IntersectionData(D, c, a, b)


# ---------------------------------------------------------------------------
# Closed forms for dual polar graphs


def b_pow(b: int, expo: Fraction) -> Fraction:
    """Exact b**expo for a half-integer expo, read as sqrt(b)**(2 expo): an
    exponent that is no half-integer, or a power of sqrt(b) that is
    irrational (b not a square, expo not an integer), raises ValueError."""
    twice = 2 * Fraction(expo)
    if twice.denominator != 1:
        raise ValueError(f"unsupported exponent {expo}")
    return (ExactScalar.sqrt(b) ** twice.numerator).as_fraction()


def closed_form_intersection(spec: FormSpec) -> tuple[list[int], list[int], list[int]]:
    """c_i, a_i, b_i = (b^i-1)/(b-1), (b^e-1)(b^i-1)/(b-1),
    b^(i+e)(b^(D-i)-1)/(b-1)."""
    b, D, e = spec.b, spec.D, spec.e
    c = [int((b ** i - 1) // (b - 1)) for i in range(D + 1)]
    # integers: b^e is one for a half-integer e too, as b is a square then
    aa = [int((b_pow(b, e) - 1) * (b ** i - 1) / (b - 1))
          for i in range(D + 1)]
    bb = [int(b_pow(b, i + e) * (b ** (D - i) - 1) / (b - 1))
          for i in range(D + 1)]
    return c, aa, bb


def verify_intersection(spec: FormSpec, data: IntersectionData):
    """(True, None) when (c_i, a_i, b_i) of the graph is the closed form at
    every i, else (False, the first i that differs with both triples, None
    past the end of either)."""
    rows = zip_longest(zip(*closed_form_intersection(spec)),
                       zip(data.c, data.a, data.b))
    for i, (want, got) in enumerate(rows):
        if want != got:
            return False, {"i": i, "closed_form": want and list(want),
                           "graph": got and list(got)}
    return True, None


def closed_form_eigenvalues(spec: FormSpec) -> list[Fraction]:
    """theta_i = (1 - b^e + b^(D+e-i) - b^i)/(b - 1), decreasing in i:
    theta_i - theta_(i+1) = b^(D+e-i-1) + b^i > 0."""
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
        if m.denominator != 1:
            raise AssertionError(f"m_{i} = {m} is not an integer")
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


@dataclass
class BoseMesnerData:
    theta: list[Fraction]
    m: list[int]
    P: list[list[Fraction]]  # P[i][h] = v_h(theta_i), A_h = sum_i P_ih E_i
    Q: list[list[Fraction]]  # Q[h][i], E_i = (1/n) sum_h Q_hi A_h
    krein: np.ndarray  # Fractions, q[h][i][j]
    theta_star: list[Fraction]
    zeta: Fraction
    xi: Fraction


def distance_polynomials(data: IntersectionData, x) -> list[Fraction]:
    """v_0(x), ..., v_D(x), then (x - a_D) v_D(x) - b_(D-1) v_(D-1)(x),
    from x v_h = b_(h-1) v_(h-1) + a_h v_h + c_(h+1) v_(h+1)."""
    v = [Fraction(0), Fraction(1)]  # v_-1, v_0
    for h in range(data.D + 1):
        b_prev = data.b[h - 1] if h else 0
        c_next = data.c[h + 1] if h < data.D else 1
        v.append(((x - data.a[h]) * v[-1] - b_prev * v[-2]) / c_next)
    return v[1:]


def krein_parameters(P, Q, n: int) -> np.ndarray:
    """q^h_ij = n^-1 sum_l Q_li Q_lj P_hl, from E_i o E_j = n^-2 sum_l
    Q_li Q_lj A_l (the A_l are disjoint 0/1) and A_l = sum_h P_hl E_h."""
    D1 = len(P)
    q = np.empty((D1, D1, D1), dtype=object)
    for h, i, j in product(range(D1), repeat=3):
        q[h, i, j] = sum(Q[l][i] * Q[l][j] * P[h][l] for l in range(D1)) / n
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


def spectral_data(spec: FormSpec, n: int,
                  data: IntersectionData) -> BoseMesnerData:
    """The eigenvalues, multiplicities, eigenmatrices and Krein parameters
    of a distance-regular graph on n vertices with the certified
    intersection data, each closed form checked as a scalar identity."""
    D = data.D
    theta = closed_form_eigenvalues(spec)
    m = closed_form_multiplicities(spec)
    if theta[0] != data.k or m[0] != 1:
        raise AssertionError("principal idempotent is not J/|X|")
    # D + 1 distinct roots of a polynomial of degree D + 1: all eigenvalues
    values = [distance_polynomials(data, t) for t in theta]
    if len(theta) != D + 1 or any(v[-1] != 0 for v in values):
        raise AssertionError("theta_i are not the roots of "
                             "(x - a_D) v_D - b_(D-1) v_(D-1)")
    P = [v[:-1] for v in values]
    k = P[0]  # k_h = v_h(theta_0) = v_h(k)
    Q = [[m[i] * P[i][h] / k[h] for i in range(D + 1)] for h in range(D + 1)]
    for i, j in product(range(D + 1), repeat=2):
        # on the diagonal, m_i sum_h v_h(theta_i)^2 / k_h = n: Biggs' formula
        if sum(P[i][h] * Q[h][j] for h in range(D + 1)) != (n if i == j else 0):
            raise AssertionError(f"PQ != nI at ({i}, {j})")
    q = krein_parameters(P, Q, n)
    check_q_polynomial_pattern(q)
    zeta, xi = dual_eigenvalue_scalars(spec)
    theta_star = closed_form_dual_eigenvalues(spec)
    # at h = 0 this is theta*_0 = Q_01 = m_1 v_0(theta_1) / k_0 = m_1
    for h in range(D + 1):
        if Q[h][1] != theta_star[h]:
            raise AssertionError(f"Q_{h}1 != theta*_{h}: the dual adjacency "
                                 "is not |X| times a row of E_1")
    return BoseMesnerData(theta, m, P, Q, q, theta_star, zeta, xi)


# ---------------------------------------------------------------------------
# Tridiagonal scalars


# td_scalars by form (family, D, b): verified once, read by every check
_TD_SCALARS: dict = {}


def td_scalars(spec: FormSpec):
    """(beta, gamma, gamma*, rho, rho*) as exact rationals, verified against
    the defining recurrences on the eigenvalue sequences once per form; a
    failed verification raises and is not kept."""
    key = (spec.family, spec.D, spec.b)
    if key not in _TD_SCALARS:
        _TD_SCALARS[key] = _checked_td_scalars(spec)
    return _TD_SCALARS[key]


def _checked_td_scalars(spec: FormSpec):
    b, D, e = spec.b, spec.D, spec.e
    beta = Fraction(b) + Fraction(1, b)
    gamma = (b_pow(b, e) - 1) * (b - 1) / b
    gamma_star = (b - 1) * (b_pow(b, D + e - 2) + 1)
    rho = (b_pow(b, e) - 1) ** 2 / b + b_pow(b, D + e - 2) * (b + 1) ** 2
    rho_star = b * (b_pow(b, D + e - 2) + 1) ** 2
    th = closed_form_eigenvalues(spec)
    ths = closed_form_dual_eigenvalues(spec)

    def holds(ok, what, i):
        if not ok:
            raise AssertionError(f"{what} fails its recurrence at i = {i}")

    for i in range(2, D):
        holds((th[i - 2] - th[i + 1]) / (th[i - 1] - th[i]) == beta + 1,
              "beta", i)
        holds((ths[i - 2] - ths[i + 1]) / (ths[i - 1] - ths[i]) == beta + 1,
              "beta (dual)", i)
    for i in range(1, D):
        holds(gamma == th[i - 1] - beta * th[i] + th[i + 1], "gamma", i)
        holds(gamma_star == ths[i - 1] - beta * ths[i] + ths[i + 1],
              "gamma*", i)
    for i in range(1, D + 1):
        holds(rho == (th[i - 1] ** 2 - beta * th[i - 1] * th[i] + th[i] ** 2
                      - gamma * (th[i - 1] + th[i])), "rho", i)
        holds(rho_star == (ths[i - 1] ** 2 - beta * ths[i - 1] * ths[i]
                           + ths[i] ** 2 - gamma_star * (ths[i - 1] + ths[i])),
              "rho*", i)
    return beta, gamma, gamma_star, rho, rho_star

