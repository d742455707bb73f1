"""Subconstituent algebra of a dual polar graph at a base vertex.

Everything here is exact.  The context holds the dual idempotents, the dual
adjacency matrix, the lowering/flattening/raising decomposition A = L + F + R
and the diagonal q-exponential K, plus the central elements built from them.

The homogeneous decomposition is computed by a lowering-ladder construction:
the joint lowest-rung spaces ker(L) ^ E*_r V are split by diameter (length of
the raising ladder, read off the action of C2 through LR) and by dual
endpoint (the action of C0 through F), and each component is rebuilt by
raising.  Both central elements act there as scalars, so the split is made
by Lagrange projectors: polynomials in the small matrices of LR and F in the
coordinates of an RREF basis of the lowest rungs.  That costs one exact
kernel per subconstituent and one RREF per component, however many
candidate eigenvalues there are.  Counting the components only
(`decompose(full=False)`, at sampled base vertices) reads the
`distance_partition` and the adjacency, and no n x n matrix.

The construction is certified against the defining joint-kernel
description: every component is verified to lie in the joint kernel of
(C_i - chi_i I), and the dimension count sum dim = |X| pins the kernels
exactly (joint eigenspaces of commuting operators for distinct eigenvalue
triples are independent, so no kernel can be larger).

Each component W(r, t, d) is also certified on its raising ladder (rung j
is the lowest rung raised j times): F acts on rung j as a_j(W), L maps it to
b_(j-1)(W) c_j(W) times rung j - 1, and L kills rung 0, R rung d.  So L, F,
R, K and A* act on W as the (d+1) x (d+1) matrices of `ladder_action`, once
per copy, and the central elements as scalars (T is semisimple; Terwilliger,
The subconstituent algebra of an association scheme I, 1992).  V is the
direct sum of the W, so an identity among these holds on V exactly when it
holds on every small matrix: Upsilon, Psi and Lambda are per-component
scalars, and the center identities are scalar identities.  The Leonard
system of each module is read off the same ladder: E_(t+i) acts on W as a
primitive idempotent of the (d+1) x (d+1) ladder A, and E*_(r+i) as the
projection on rung i, so `extract_module` touches no n-wide vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .drg import (
    BoseMesnerData,
    b_pow,
    closed_form_intersection,
    td_scalars,
)
from .exact import ExactScalar, q_pow
from .intlinalg import int_matmul
from .leonard import _check_axiom_pattern, eigenbasis, tridiagonal_residuals
from .linexact import ExactMatrix, Subspace, kernel, rref
from .polar import PolarGraph
from .uqsl2 import casimir_scalar


@dataclass
class DistancePartition:
    """The subconstituents of the graph at a base vertex x: all that
    `decompose` reads when it only counts the homogeneous components."""

    g: PolarGraph
    bm: BoseMesnerData
    x: int
    q: ExactScalar
    dist_x: np.ndarray
    blocks: list[np.ndarray]  # vertex indices at distance i from x

    @property
    def n(self) -> int:
        return self.g.n_vertices

    @property
    def D(self) -> int:
        return self.g.spec.D

    @property
    def b(self) -> int:
        return self.g.spec.b

    def qexp(self, n) -> ExactScalar:
        """Exact q**n with q = sqrt(b), for an integer n."""
        n = Fraction(n)
        if n.denominator == 1:
            return q_pow(self.q, n.numerator)
        raise ValueError("q exponent must be an integer")

    def two_e(self) -> int:
        return int(2 * self.g.spec.e)


@dataclass
class TerwilligerContext(DistancePartition):
    """The partition with the n x n dual idempotents, A, A*, K, K^-1 and the
    decomposition A = L + F + R."""

    Estar: list[ExactMatrix]
    A: ExactMatrix
    Astar: ExactMatrix
    K: ExactMatrix
    Kinv: ExactMatrix
    L: ExactMatrix
    F: ExactMatrix
    R: ExactMatrix


def distance_partition(g: PolarGraph, bm: BoseMesnerData,
                       x: int = 0) -> DistancePartition:
    """The distance partition at x, with the checks of the dual adjacency
    matrix that need no n x n matrix:
    - adjacent vertices differ by at most 1 in distance from x, so
      A = L + F + R over the partition,
    - theta*_i = zeta + xi b^-i, so A* = zeta I + xi K,
    - |X| E_1[x, y] = theta*_(d(x, y)) for every y: the diagonal of A* is
      |X| times row x of E_1."""
    n, D, b = g.n_vertices, g.spec.D, g.spec.b
    dist_x = g.dist[x].astype(np.int64)
    blocks = [np.nonzero(dist_x == i)[0] for i in range(D + 1)]
    for i in range(D - 1):
        # no edge from class i to a class two or more steps further out
        if g.adjacency[np.ix_(blocks[i], np.concatenate(blocks[i + 2:]))].any():
            raise AssertionError(
                "A does not split as L + F + R over the partition")
    if any(bm.theta_star[i] != bm.zeta + bm.xi * Fraction(1, b ** i)
           for i in range(D + 1)):
        raise AssertionError("theta*_i != zeta + xi b^-i")
    theta_star = ExactMatrix.from_rows([bm.theta_star])
    if bm.E[1].take_rows([x]).scale(n) != theta_star.submatrix([0], dist_x):
        raise AssertionError("dual adjacency disagrees with |X| E_1 row x")
    return DistancePartition(g, bm, x, ExactScalar.sqrt(b), dist_x, blocks)


def build_context(g: PolarGraph, bm: BoseMesnerData, x: int = 0) -> TerwilligerContext:
    part = distance_partition(g, bm, x)
    n, D, dist_x = part.n, part.D, part.dist_x
    estar = [
        ExactMatrix.from_int(np.diag((dist_x == i).astype(np.int64)))
        for i in range(D + 1)
    ]
    adj = g.adjacency.astype(np.int64)
    A = ExactMatrix.from_int(adj)
    # K = sum q^(-2i) E*_i  (rational since q^2 = b)
    kd = [Fraction(1, g.spec.b ** i) for i in range(D + 1)]
    K = ExactMatrix.diag([kd[i] for i in dist_x])
    Kinv = ExactMatrix.diag([1 / kd[i] for i in dist_x])
    Astar = ExactMatrix.diag([bm.zeta + bm.xi * kd[i] for i in dist_x])
    up = (dist_x[:, None] - dist_x[None, :] == 1).astype(np.int64) * adj
    flat = (dist_x[:, None] == dist_x[None, :]).astype(np.int64) * adj
    down = (dist_x[:, None] - dist_x[None, :] == -1).astype(np.int64) * adj
    L = ExactMatrix.from_int(down)   # (y,z)-entry 1 iff y~z, d(x,y) = d(x,z)-1
    F = ExactMatrix.from_int(flat)
    R = ExactMatrix.from_int(up)
    ctx = TerwilligerContext(**vars(part), Estar=estar, A=A, Astar=Astar,
                             K=K, Kinv=Kinv, L=L, F=F, R=R)
    if ctx.L.T != ctx.R or ctx.F.T != ctx.F:
        raise AssertionError("transpose relations L^t = R, F^t = F fail")
    # A* lies in span{I, K}: A* = zeta I + xi K
    if Astar != ExactMatrix.identity(n).scale(bm.zeta) + K.scale(bm.xi):
        raise AssertionError("A* != zeta I + xi K")
    if Astar != sum_scaled(estar, bm.theta_star):
        raise AssertionError("A* != sum theta*_i E*_i")
    return ctx


def sum_scaled(mats, coeffs) -> ExactMatrix:
    out = mats[0].scale(coeffs[0])
    for m, c in zip(mats[1:], coeffs[1:]):
        out = out + m.scale(c)
    return out


def commutes(a: ExactMatrix, b: ExactMatrix) -> bool:
    return (a @ b - b @ a).is_zero()


# ---------------------------------------------------------------------------
# The L, F, R, K relations


LFRK_STATEMENTS = (
    "K L = q^2 L K",
    "K F = F K",
    "K R = q^-2 R K",
    "L F - q^2 F L = (q^2e - 1) L",
    "F R - q^2 R F = (q^2e - 1) R",
    "q^4/(q^2+1) R L^2 - L R L + q^-2/(q^2+1) L^2 R = -q^(2e+2D-2) L",
    "q^4/(q^2+1) R^2 L - R L R + q^-2/(q^2+1) L R^2 = -q^(2e+2D-2) R",
)


def lfrk_relations(ctx: TerwilligerContext) -> list[tuple[str, ExactMatrix]]:
    """The seven generator relations, as (statement, lhs - rhs) pairs in the
    order of LFRK_STATEMENTS."""
    L, F, R, K = ctx.L, ctx.F, ctx.R, ctx.K
    q2 = ExactScalar(ctx.b)
    q2e = ctx.qexp(ctx.two_e())
    qpow = ctx.qexp(ctx.two_e() + 2 * ctx.D - 2)
    one = ExactScalar(1)
    c_hi = q2 * q2 / (q2 + 1)
    c_lo = q2.inverse() / (q2 + 1)
    resids = [
        (K @ L) - (L @ K).scale(q2),
        (K @ F) - (F @ K),
        (K @ R) - (R @ K).scale(q2.inverse()),
        (L @ F) - (F @ L).scale(q2) - L.scale(q2e - one),
        (F @ R) - (R @ F).scale(q2) - R.scale(q2e - one),
        (R @ L @ L).scale(c_hi) - (L @ R @ L) + (L @ L @ R).scale(c_lo)
        + L.scale(qpow),
        (R @ R @ L).scale(c_hi) - (R @ L @ R) + (L @ R @ R).scale(c_lo)
        + R.scale(qpow),
    ]
    return list(zip(LFRK_STATEMENTS, resids))


def verify_lfrk(ctx: TerwilligerContext) -> list[dict]:
    report = []
    for statement, resid in lfrk_relations(ctx):
        ok = resid.is_zero()
        item = {"id": f"lfrk:{statement}", "statement": statement,
                "status": "pass" if ok else "fail"}
        if not ok:
            nz = np.nonzero(resid.n0) if resid.n1 is None else np.nonzero(
                resid.n0 + resid.n1)
            y, z = int(nz[0][0]), int(nz[1][0])
            item["witness"] = {"entry": [y, z], "value": resid.entry(y, z).render()}
        report.append(item)
    return report


def verify_lfrk_recovery(ctx: TerwilligerContext) -> bool:
    """L, F, R are recovered from A and K by conjugation identities."""
    q = ctx.q
    A, K, Kinv = ctx.A, ctx.K, ctx.Kinv
    qi = q.inverse()
    dd = (q - qi) * (q - qi)
    s = (q + qi)
    t1 = (Kinv @ A @ K)
    t2 = (K @ A @ Kinv)
    lrec = (t1.scale(qi) + t2.scale(q) - A.scale(s)).scale((dd * s).inverse())
    frec = (A.scale(q * q + qi * qi) - t1 - t2).scale(dd.inverse())
    rrec = (t1.scale(q) + t2.scale(qi) - A.scale(s)).scale((dd * s).inverse())
    return lrec == ctx.L and frec == ctx.F and rrec == ctx.R


def verify_lrf_commutations(ctx: TerwilligerContext) -> bool:
    """LR, RL, F, K mutually commute."""
    mats = [ctx.L @ ctx.R, ctx.R @ ctx.L, ctx.F, ctx.K]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if not commutes(mats[i], mats[j]):
                return False
    return True


def verify_tridiagonal_relations(ctx: TerwilligerContext) -> bool:
    """Both bracket relations with the five tridiagonal scalars."""
    inner1, inner2 = tridiagonal_residuals(ctx.A, ctx.Astar,
                                           *td_scalars(ctx.g.spec))
    return commutes(ctx.A, inner1) and commutes(ctx.Astar, inner2)


# ---------------------------------------------------------------------------
# Central elements


@dataclass
class CentralElements:
    C0: ExactMatrix
    C1: ExactMatrix
    C2: ExactMatrix
    Omega: ExactMatrix
    G: ExactMatrix
    Gstar: ExactMatrix
    RL: ExactMatrix
    LR: ExactMatrix


def chi0(ctx: TerwilligerContext, r: int, t: int, d: int) -> ExactScalar:
    e2 = ctx.two_e()
    q2 = ExactScalar(ctx.b)
    num = ctx.qexp(e2 + 2 * ctx.D - 2 * d - 2 * r - 2 * t) - ctx.qexp(2 * t - 2 * r)
    return num / (q2 - 1)


def chi1(ctx: TerwilligerContext, r: int, t: int, d: int) -> ExactScalar:
    e2 = ctx.two_e()
    pref = ctx.qexp(e2 + 2 * ctx.D - 1 - d - 2 * r)
    mid = ctx.qexp(d + 1) + ctx.qexp(-d - 1)
    q4 = ExactScalar(ctx.b) * ExactScalar(ctx.b)
    return pref * mid / (q4 - 1)


def chi2(ctx: TerwilligerContext, r: int, t: int, d: int) -> ExactScalar:
    e2 = ctx.two_e()
    q4 = ExactScalar(ctx.b) * ExactScalar(ctx.b)
    return ctx.qexp(e2 + 2 * ctx.D - 2 - 2 * d - 4 * r) / (q4 - 1)


def aw_module_scalars(ctx: TerwilligerContext, r: int, t: int, d: int):
    """(omega, eta, eta*) for a module of type (r, t, d)."""
    spec = ctx.g.spec
    b, D, e = spec.b, spec.D, spec.e
    zeta, xi = ctx.bm.zeta, ctx.bm.xi
    _, gamma, _, rho, _ = td_scalars(spec)
    omega = xi * (Fraction(1, b) - 1) \
        * (b_pow(b, e + D - d - t - r) - b_pow(b, t - r)) - 2 * gamma * zeta
    eta = xi * Fraction(1, b) * (1 - b_pow(b, e)) \
        * (b_pow(b, e + D - d - r - t) - b_pow(b, t - r)) \
        - xi * b_pow(b, e + D - d - r - 2) * (b + 1) * (b ** (d + 1) + 1) \
        - rho * zeta
    eta_star = -gamma * zeta ** 2 - zeta * omega
    return omega, eta, eta_star


def _omega_coeffs(ctx: TerwilligerContext):
    spec = ctx.g.spec
    b, D, e = spec.b, spec.D, spec.e
    denom = b_pow(b, e - 1) + 1
    alpha = {}
    beta = {}
    for i in range(D + 1):
        if i >= 1:
            alpha[i] = (
                (b_pow(b, D + e - 1) + 1) * (b_pow(b, D + e - 2) + 1)
                * (1 - b) * Fraction(1, b ** i) / denom
            )
        beta[i] = (
            (b_pow(b, D + e - 2) + 1) * (b_pow(b, e) - 1)
            * (2 * b_pow(b, e - 1) + 2 - (b_pow(b, D + e - 1) + 1)
               * Fraction(1, b ** i)) / denom
        )
    return alpha, beta


def central_elements(ctx: TerwilligerContext) -> CentralElements:
    L, F, R, K = ctx.L, ctx.F, ctx.R, ctx.K
    n, D = ctx.n, ctx.D
    q2 = ExactScalar(ctx.b)
    q2e = ctx.qexp(ctx.two_e())
    one = ExactScalar(1)
    RL = R @ L
    LR = L @ R
    kvals = [Fraction(1, ctx.b ** int(ctx.dist_x[y])) for y in range(n)]
    k2vals = [v * v for v in kvals]
    KK = K.row_scale(kvals)
    C0 = F.row_scale(kvals) + K.scale((q2e - one) / (q2 - one))
    top = ctx.qexp(ctx.two_e() + 2 * D - 2)
    C1 = RL.row_scale(kvals).scale(q2 / (q2 + 1)) \
        - LR.row_scale(kvals).scale(q2.inverse() / (q2 + 1)) \
        + K.scale(top / (q2 - 1))
    C2 = RL.row_scale(k2vals).scale(one / (q2 + 1)) \
        - LR.row_scale(k2vals).scale(q2.inverse() / (q2 + 1)) \
        + KK.scale(top / (q2 * q2 - 1))
    # Omega from its same-distance entry data
    alpha, beta = _omega_coeffs(ctx)
    same = (ctx.dist_x[:, None] == ctx.dist_x[None, :])
    omega = ExactMatrix.diag([beta[int(ctx.dist_x[y])] for y in range(n)])
    masked = ctx.A.masked(same.astype(np.int64))
    # alpha_s * (E*_s A E*_s) summed over s
    omega = omega + masked.row_scale(
        [alpha.get(int(ctx.dist_x[y]), 0) for y in range(n)])
    # G from the two-step same-distance counts; on distance class i the
    # counts and A carry the coefficients below (down vanishes on class 0,
    # up on class D, and A on class 0 = {x})
    zeta, xi = ctx.bm.zeta, ctx.bm.xi
    spec = ctx.g.spec
    b = spec.b
    _, gamma, _, rho, _ = td_scalars(spec)
    up, down = _two_step_counts(ctx)
    G = _by_distance(ctx, down, lambda i: xi * (1 - b * b) * Fraction(1, b ** i)) \
        + _by_distance(ctx, up, lambda i: xi * (1 - Fraction(1, b * b))
                       * Fraction(1, b ** i)) \
        + _by_distance(ctx, ctx.g.adjacency * same,
                       lambda i: xi * (Fraction(1, b) - 1)
                       * (b_pow(b, spec.e) - 1) * Fraction(1, b ** i)) \
        - ctx.Astar.scale(rho)
    Gstar = ExactMatrix.identity(n).scale(-gamma * zeta ** 2) - omega.scale(zeta)
    cents = CentralElements(C0, C1, C2, omega, G, Gstar, RL, LR)
    _verify_central(ctx, cents)
    return cents


def _two_step_counts(ctx: TerwilligerContext) -> tuple[np.ndarray, np.ndarray]:
    """(up, down): for y, z at one distance s from x, up[y, z] counts their
    common neighbours at distance s + 1 and down[y, z] those at s - 1; both
    vanish on pairs at different distances."""
    n, adj, blocks = ctx.n, ctx.g.adjacency, ctx.blocks
    up = np.zeros((n, n), dtype=np.int64)
    down = np.zeros((n, n), dtype=np.int64)
    for s in range(ctx.D):
        near, far = blocks[s], blocks[s + 1]
        up[np.ix_(near, near)] = int_matmul(adj[np.ix_(near, far)],
                                            adj[np.ix_(far, near)])
        down[np.ix_(far, far)] = int_matmul(adj[np.ix_(far, near)],
                                            adj[np.ix_(near, far)])
    return up, down


def _by_distance(ctx: TerwilligerContext, counts: np.ndarray,
                 coeff) -> ExactMatrix:
    """The integer matrix `counts` with row y scaled by coeff(d(x, y))."""
    return ExactMatrix(counts.astype(np.int64, copy=False)).row_scale(
        [coeff(int(s)) for s in ctx.dist_x])


def commutes_with_distance_diagonal(ctx: TerwilligerContext,
                                    m: ExactMatrix) -> bool:
    """[m, X] = 0 for every diagonal matrix constant on the distance
    classes (in particular A* and K): m must vanish off the blocks."""
    off = (ctx.dist_x[:, None] != ctx.dist_x[None, :]).astype(np.int64)
    return m.masked(off).is_zero()


def _verify_central(ctx: TerwilligerContext, c: CentralElements):
    q2 = ExactScalar(ctx.b)
    q2e = ctx.qexp(ctx.two_e())
    one = ExactScalar(1)
    zeta, xi = ctx.bm.zeta, ctx.bm.xi
    _, gamma, _, rho, _ = td_scalars(ctx.g.spec)
    n = ctx.n
    ident = ExactMatrix.identity(n)
    for name, m in [("C0", c.C0), ("C1", c.C1), ("C2", c.C2),
                    ("Omega", c.Omega), ("G", c.G), ("G*", c.Gstar)]:
        if m.T != m:
            raise AssertionError(f"{name} is not symmetric")
        if not commutes(m, ctx.A):
            raise AssertionError(f"{name} does not commute with A")
        if not commutes_with_distance_diagonal(ctx, m):
            raise AssertionError(f"{name} does not commute with A*")
    kvals = [Fraction(1, ctx.b ** int(ctx.dist_x[y])) for y in range(n)]
    # the generator expressions for Omega, G, G*
    KF = ctx.F.row_scale(kvals)
    lhs = c.Omega
    rhs = KF.scale(-xi * (q2 - 1) * (q2 - 1) / q2) \
        + ctx.K.scale(-xi * (q2 - 1) * (q2e - 1) / q2) \
        + ident.scale(-2 * gamma * zeta)
    if lhs != rhs:
        raise AssertionError("Omega generator expression fails")
    q4 = q2 * q2
    rhs = c.RL.row_scale(kvals).scale(xi * (one - q4)) \
        + c.LR.row_scale(kvals).scale(xi * (one - q4.inverse())) \
        + KF.scale(xi * (q2.inverse() - 1) * (q2e - 1)) \
        + ctx.K.scale(ExactScalar(-rho) * xi) + ident.scale(-rho * zeta)
    if c.G != rhs:
        raise AssertionError("G generator expression fails")
    rhs = KF.scale(zeta * xi * (q2 - 1) * (q2 - 1) / q2) \
        + ctx.K.scale(zeta * xi * (q2 - 1) * (q2e - 1) / q2) \
        + ident.scale(gamma * zeta ** 2)
    if c.Gstar != rhs:
        raise AssertionError("G* generator expression fails")
    # G* = -gamma zeta^2 I - zeta Omega holds by construction; re-check
    if c.Gstar != ident.scale(-gamma * zeta ** 2) - c.Omega.scale(zeta):
        raise AssertionError("G* relation to Omega fails")
    for name, m, (a0, a1, a2) in zip(("Omega", "G", "G*"),
                                     (c.Omega, c.G, c.Gstar),
                                     _central_by_c0_c1(ctx)):
        if m != c.C0.scale(a0) + c.C1.scale(a1) + ident.scale(a2):
            raise AssertionError(f"{name} vs C0, C1 expression fails")


def _central_by_c0_c1(ctx: TerwilligerContext):
    """Omega, G and G* as a0 C0 + a1 C1 + a2 I: their (a0, a1, a2)."""
    q2 = ExactScalar(ctx.b)
    q2e = ctx.qexp(ctx.two_e())
    zeta, xi = ctx.bm.zeta, ctx.bm.xi
    _, gamma, _, rho, _ = td_scalars(ctx.g.spec)
    return ((-xi * (q2 - 1) * (q2 - 1) / q2, 0, -2 * gamma * zeta),
            (xi * (q2.inverse() - 1) * (q2e - 1),
             xi * (q2.inverse() - 1) * (q2 + 1) * (q2 + 1), -rho * zeta),
            (zeta * xi * (q2 - 1) * (q2 - 1) / q2, 0, gamma * zeta ** 2))


def verify_g_entry_table(ctx: TerwilligerContext, G: ExactMatrix) -> bool:
    """Entry table of G over vertex pairs, classified by the two distances
    and the local quad geometry."""
    spec = ctx.g.spec
    b = spec.b
    xi = ctx.bm.xi
    _, _, _, rho, _ = td_scalars(spec)
    cvals, _, bvals = closed_form_intersection(spec)
    theta_star = ctx.bm.theta_star
    dist = ctx.g.dist
    same = ctx.dist_x[:, None] == ctx.dist_x[None, :]
    two = same & (dist == 2)
    up, down = _two_step_counts(ctx)
    # pairs at one distance s from x: the diagonal, adjacent pairs, pairs at
    # distance 2 with a common neighbour at s + 1, and pairs at distance 2
    # without one, weighted by their common neighbours at s - 1; 0 elsewhere
    want = ExactMatrix.diag([
        xi * Fraction(1, b ** (s + 1)) * (1 - b * b)
        * (b * cvals[s] - Fraction(bvals[s], b)) - rho * theta_star[s]
        for s in map(int, ctx.dist_x)])
    want = want + _by_distance(
        ctx, same & (dist == 1), lambda s: xi * Fraction(1, b ** (s + 1))
        * (1 - b) * (b * b + b + b_pow(b, spec.e) - 1))
    want = want + _by_distance(
        ctx, two & (up > 0),
        lambda s: -xi * Fraction(1, b ** (s + 1)) * (b + 1) * (b - 1) ** 2)
    want = want + _by_distance(
        ctx, np.where(two & (up == 0), down, 0),
        lambda s: xi * Fraction(1, b ** s) * (1 - b * b))
    return G == want


def verify_omega_entry_table(ctx: TerwilligerContext, omega: ExactMatrix) -> bool:
    """Same-distance entry table for a central element of the
    sum(alpha E* A E*) + sum(beta E*) shape."""
    alpha, beta = _omega_coeffs(ctx)
    same = ctx.dist_x[:, None] == ctx.dist_x[None, :]
    want = ExactMatrix.diag([beta[int(s)] for s in ctx.dist_x]) + _by_distance(
        ctx, same & (ctx.g.dist == 1), lambda s: alpha.get(s, 0))
    return omega == want


def central_characterization_matrix(ctx: TerwilligerContext, alpha1, beta0,
                                    perturb: bool = False) -> ExactMatrix:
    """C = sum alpha_i E*_i A E*_i + sum beta_i E*_i with
    alpha_i = b^(1-i) alpha_1 and beta_i = beta_0 - a_1 b^(1-i)
    (b^i - 1)/(b-1) alpha_1.  With perturb, alpha_min(2, D) is raised by 1."""
    b = ctx.b
    _, avals, _ = closed_form_intersection(ctx.g.spec)
    a1 = avals[1]
    alpha1 = Fraction(alpha1)
    beta0 = Fraction(beta0)
    alphas = {i: Fraction(b) ** (1 - i) * alpha1 for i in range(1, ctx.D + 1)}
    betas = {
        i: beta0 - a1 * Fraction(b) ** (1 - i)
        * Fraction(b ** i - 1, b - 1) * alpha1
        for i in range(ctx.D + 1)
    }
    if perturb:
        # the raised alpha breaks alpha_2 = alpha_1 / b, or for D = 1 the
        # beta_1 computed from the old alpha_1
        i = min(2, ctx.D)
        alphas[i] = alphas[i] + 1
    same = (ctx.dist_x[:, None] == ctx.dist_x[None, :]).astype(np.int64)
    c = ctx.A.masked(same).row_scale(
        [alphas.get(int(ctx.dist_x[y]), 0) for y in range(ctx.n)])
    c = c + ExactMatrix.diag([betas[int(ctx.dist_x[y])] for y in range(ctx.n)])
    return c


# ---------------------------------------------------------------------------
# Homogeneous decomposition


@dataclass
class HomogeneousComponent:
    r: int
    t: int
    d: int
    mult: int
    rungs: list[ExactMatrix]  # rung j: rung 0 raised j times, on block r+j
    basis: Subspace | None    # full-coordinate RREF basis (full=True only)

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.r, self.t, self.d)

    @property
    def dim(self) -> int:
        return self.mult * (self.d + 1)


@dataclass
class LadderAction:
    """L, F, R, K, K^-1 and A* on one copy v_j = R^j v_0 (0 <= j <= d) of
    the raising ladder of W(r, t, d), as (d+1) x (d+1) matrices M with
    op(v_j) = sum_i M_ij v_i."""

    L: ExactMatrix
    F: ExactMatrix
    R: ExactMatrix
    K: ExactMatrix
    Kinv: ExactMatrix
    Astar: ExactMatrix

    @property
    def A(self) -> ExactMatrix:
        return self.L + self.F + self.R


def ladder_action(ctx: TerwilligerContext, r: int, t: int,
                  d: int) -> LadderAction:
    """R v_j = v_(j+1), F v_j = a_j(W) v_j, L v_j = b_(j-1)(W) c_j(W) v_(j-1)
    with `module_intersection`'s closed forms (decompose certifies these
    three on every rung), and K, A* the scalars of subconstituent r + j on
    rung j."""
    c, a, bb = module_intersection(ctx, r, t, d)
    size = d + 1
    lower = [[0] * size for _ in range(size)]
    for j in range(1, size):
        lower[j - 1][j] = bb[j - 1] * c[j]
    powers = [ctx.b ** (r + j) for j in range(size)]
    return LadderAction(
        ExactMatrix.from_rows(lower), ExactMatrix.diag(a),
        ExactMatrix.from_int(np.eye(size, k=-1, dtype=np.int64)),
        ExactMatrix.diag([Fraction(1, p) for p in powers]),
        ExactMatrix.diag(powers), ExactMatrix.diag(ctx.bm.theta_star[r:r + size]))


def _embed(local: ExactMatrix, shape, index) -> ExactMatrix:
    """The matrix of the given shape holding `local` at `index`, 0 elsewhere."""
    def place(part):
        if part is None:
            return None
        out = np.zeros(shape, dtype=part.dtype)
        out[index] = part
        return out

    return ExactMatrix(place(local.n0), place(local.n1), local.den, local.rad)


def _restrict(low: ExactMatrix, pivots, image: ExactMatrix,
              what: str) -> ExactMatrix:
    """The matrix M with image = M @ low, where `low` holds leading-1 RREF
    rows with the given pivots and row i of `image` is the image of row i
    of `low` under an operator: the operator in the coordinates of `low`.
    A row of the row space equals its pivot entries times `low`, so M is
    `image` at the pivot columns; M @ low = image certifies that the
    operator preserves the row space."""
    m = image.submatrix(range(image.shape[0]), list(pivots))
    if m @ low != image:
        raise AssertionError(f"{what} does not preserve the lowest rungs")
    return m


def _product(factors, size: int) -> ExactMatrix:
    """The product of the size x size factors; the identity if none."""
    out = None
    for f in factors:
        out = f if out is None else out @ f
    return ExactMatrix.identity(size) if out is None else out


def decompose(part: DistancePartition, cents: CentralElements | None = None,
              full: bool = True) -> list[HomogeneousComponent]:
    """Homogeneous components of the standard module.

    On each subconstituent r the lowest rungs ker L ^ E*_r V are split by
    Lagrange projectors in the coordinates of their RREF basis: C2 acts
    there through LR as a scalar that separates the diameters d, and C0
    through F as one that separates the dual endpoints t.  With M_LR and
    M_F the matrices of LR and F in those coordinates, the certificates are
    prod_d (M_LR - mu_d) = 0, M_LR M_F = M_F M_LR and, for each d, P_d
    prod_t (M_F - nu_t) = 0 with P_d = prod_(d' != d) (M_LR - mu_d').  Then
    the lowest rung of W(r, t, d) is the row space of P_d P_t: one RREF.

    With full=True (requires the central elements) every component carries
    its RREF basis, and the whole decomposition is certified:
    - L, F, R act on the raising ladder of each component as
      `ladder_action` says (so each component is A- and A*-invariant),
    - each component lies in the joint kernel of (C_i - chi_i I),
    - the components are pairwise orthogonal,
    - their dimensions sum to |X|, which pins the joint kernels exactly and
      makes V their direct sum.
    With full=False `part` may be the bare `distance_partition`, as no
    n x n matrix is read: only the feasible triples with multiplicities are
    computed (used for base-vertex sampling), and dimensions still must sum
    to |X|.
    """
    if full and cents is None:
        raise ValueError("full decomposition requires the central elements")
    n, D, b = part.n, part.D, part.b
    adj = part.g.adjacency
    q2 = Fraction(b)
    c2_const = chi2(part, 0, 0, 0)  # q^(2e+2D-2)/(q^4-1), the K^2 coefficient
    if not c2_const.is_rational:
        raise AssertionError("central scalar must be rational")
    c2_const = c2_const.as_fraction()
    cst = (b_pow(b, part.g.spec.e) - 1) / (b - 1)
    comps: list[HomogeneousComponent] = []
    for r in range(D + 1):
        block = part.blocks[r]
        kr = len(block)
        if kr == 0:
            continue
        if r == 0:
            low, pivots = ExactMatrix.identity(kr), range(kr)
        else:
            below = part.blocks[r - 1]
            ker = kernel(ExactMatrix.from_int(adj[np.ix_(below, block)]))
            low, pivots = ker.basis, ker.pivots
        size = low.shape[0]
        if size == 0:
            continue
        # raising chains: U[j] maps block r coordinates to block r+j
        U = [np.eye(kr, dtype=np.int64)]
        for j in range(D - r):
            step = adj[np.ix_(part.blocks[r + j + 1], part.blocks[r + j])]
            U.append(int_matmul(step, U[-1]))
        # On ker L the element C2 acts through LR alone, which restricts to
        # the integer matrix U1^t U1 on the block; its eigenvalue separates
        # the module diameter d.  C0 acts through F, whose eigenvalue
        # separates the dual endpoint t:
        #   C0 v = chi0 v  <=>  F|block_r v = (b^r chi0 - cst) v.
        # Both are symmetric, so row y of low @ M is the image of row y.
        if r < D:
            u1 = adj[np.ix_(part.blocks[r + 1], block)]
            lr_local = ExactMatrix(int_matmul(u1.T, u1))
        else:
            lr_local = ExactMatrix.zeros(kr, kr)
        m_lr = _restrict(low, pivots, low @ lr_local, "LR")
        m_f = _restrict(low, pivots, low @ ExactMatrix.from_int(
            adj[np.ix_(block, block)]), "F")
        ident = ExactMatrix.identity(size)
        mu = {}
        for d in range(D - r + 1):
            val = chi2(part, r, 0, d)
            if not val.is_rational:
                raise AssertionError("chi2 must be rational")
            mu[d] = q2 * (q2 + 1) * (c2_const - val.as_fraction() * b ** (2 * r))
        if len(set(mu.values())) != len(mu):
            raise AssertionError("chi2 does not separate diameters")
        lr_shift = {d: m_lr - ident.scale(v) for d, v in mu.items()}
        if not _product(lr_shift.values(), size).is_zero():
            raise AssertionError(
                f"LR on the lowest rungs of block {r} has an eigenvalue "
                "outside the chi2 candidates")
        if m_lr @ m_f != m_f @ m_lr:
            raise AssertionError(
                f"LR and F do not commute on the lowest rungs of block {r}")
        for d in mu:
            p_d = _product((m for e, m in lr_shift.items() if e != d), size)
            if p_d.is_zero():
                continue
            nu = {}
            for t in range(max(0, D - r - d), D - d + 1):
                val = chi0(part, r, t, d)
                if not val.is_rational:
                    raise AssertionError("chi0 must be rational")
                nu[t] = b ** r * val.as_fraction() - cst
            if len(set(nu.values())) != len(nu):
                raise AssertionError("chi0 does not separate dual endpoints")
            f_shift = {t: m_f - ident.scale(v) for t, v in nu.items()}
            if not (p_d @ _product(f_shift.values(), size)).is_zero():
                raise AssertionError(
                    f"F on the diameter-{d} lowest rungs of block {r} has an "
                    "eigenvalue outside the chi0 candidates")
            for t in nu:
                piece = p_d @ _product(
                    (m for u, m in f_shift.items() if u != t), size)
                if piece.is_zero():
                    continue
                coords, _ = rref(piece)
                comps.append(_build_component(part, r, t, d, coords @ low, U,
                                              full))
    if full:
        _certify_decomposition(part, cents, comps)
    else:
        total = sum(c.dim for c in comps)
        if total != n:
            raise AssertionError(f"component dimensions sum to {total}, not {n}")
    return comps


def _build_component(ctx: TerwilligerContext, r: int, t: int, d: int,
                     low_rows: ExactMatrix, U,
                     full: bool = True) -> HomogeneousComponent:
    """The component raised from the lowest-rung rows `low_rows`.

    Rung j, `low_rows @ U[j].T`, lives on block r+j, and the blocks are
    disjoint with sorted vertex indices.  So the rung RREFs, embedded and
    ordered by global pivot column, are the canonical RREF of the component:
    each row is zero on every other row's pivot, within a rung by its RREF
    and across rungs by disjoint support.  Its dimension is mult * (d + 1)
    by the rank check.
    """
    n = ctx.n
    mult = low_rows.shape[0]
    rungs = []
    embedded = []
    global_pivots = []
    for j in range(d + 1):
        rung = low_rows @ ExactMatrix.from_int(U[j]).T
        base, pivots = rref(rung)
        if base.shape[0] != mult:
            raise AssertionError("raising ladder drops rank before the top")
        rungs.append(rung)
        if full:
            block = ctx.blocks[r + j]
            embedded.append(_embed(base, (mult, n), (slice(None), block)))
            global_pivots.extend(block[list(pivots)])
    basis = None
    if full:
        order = np.argsort(global_pivots)
        basis = Subspace(n, ExactMatrix.stack_rows(embedded).take_rows(order),
                         tuple(int(global_pivots[i]) for i in order))
    return HomogeneousComponent(r, t, d, mult, rungs, basis)


def _certify_ladder(ctx: TerwilligerContext, comp: HomogeneousComponent):
    """L, F, R act on the rungs of comp as `ladder_action` says.

    One block-local adjacency product per rung gives the rows of L, F and R
    applied to the rung; A is symmetric, so row y of `rung @ adj[block, :]`
    is the image of rung row y.
    """
    r, t, d = comp.triple
    act = ladder_action(ctx, r, t, d)
    blocks = ctx.blocks
    for j, rung in enumerate(comp.rungs):
        s = r + j
        near = [i for i in (s - 1, s, s + 1) if 0 <= i <= ctx.D]
        image = rung @ ExactMatrix.from_int(ctx.g.adjacency[np.ix_(
            blocks[s], np.concatenate([blocks[i] for i in near]))])
        # the image on blocks s-1, s, s+1: L, F and R of the rung
        want = {s - 1: comp.rungs[j - 1].scale(act.L.entry(j - 1, j))
                if j else None,
                s: rung.scale(act.F.entry(j, j)),
                s + 1: comp.rungs[j + 1] if j < d else None}
        parts = [ExactMatrix.zeros(comp.mult, len(blocks[i]))
                 if want[i] is None else want[i] for i in near]
        if image != ExactMatrix.stack_rows([p.T for p in parts]).T:
            raise AssertionError(
                f"L, F, R do not act on the raising ladder of component "
                f"{comp.triple} by its intersection numbers")


def _certify_decomposition(ctx: TerwilligerContext, cents: CentralElements,
                           comps: list[HomogeneousComponent]):
    n = ctx.n
    total = sum(c.dim for c in comps)
    if total != n:
        raise AssertionError(f"component dimensions sum to {total}, not {n}")
    triples = [c.triple for c in comps]
    if len(set(triples)) != len(triples):
        raise AssertionError("duplicate feasible triple")
    for c in comps:
        r, t, d = c.triple
        if not (0 <= r and 0 <= t and 0 <= d and r + d <= ctx.D
                and t + d <= ctx.D and r + t + d >= ctx.D):
            raise AssertionError(f"triple {c.triple} violates feasibility bounds")
        if c.dim % (d + 1):
            raise AssertionError("multiplicity is not an integer")
        _certify_ladder(ctx, c)
        bt = c.basis.basis.T
        for ci, chif in ((cents.C0, chi0), (cents.C1, chi1), (cents.C2, chi2)):
            val = chif(ctx, r, t, d)
            if not ((ci @ bt) - bt.scale(val)).is_zero():
                raise AssertionError(
                    f"component {c.triple} is not in the joint kernel"
                )
    # pairwise orthogonality; with the dimension count, V is the direct sum
    stacked = ExactMatrix.stack_rows([c.basis.basis for c in comps])
    gram = stacked @ stacked.T
    offsets = np.cumsum([0] + [c.dim for c in comps])
    ga = gram.n0
    for i in range(len(comps)):
        for j in range(len(comps)):
            if i == j:
                continue
            blockv = ga[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]]
            if np.any(blockv):
                raise AssertionError("components are not pairwise orthogonal")


# ---------------------------------------------------------------------------
# The displacement and diameter central elements


@dataclass
class CenterData:
    """The displacement weights Upsilon, Psi and the diameter weight Lambda,
    by the scalar each acts as on the homogeneous component (r, t, d)."""

    Upsilon: dict[tuple[int, int, int], ExactScalar]  # q^(r+t+d-D)
    Psi: dict[tuple[int, int, int], ExactScalar]      # q^(r-t)
    Lam: dict[tuple[int, int, int], ExactScalar]      # Casimir on L(d, 1)


def upsilon_psi_lambda(ctx: TerwilligerContext,
                       comps: list[HomogeneousComponent]) -> CenterData:
    """Upsilon, Psi and Lambda on the components of a full decomposition,
    which certifies V as their direct sum."""
    return CenterData(
        {c.triple: ctx.qexp(c.r + c.t + c.d - ctx.D) for c in comps},
        {c.triple: ctx.qexp(c.r - c.t) for c in comps},
        {c.triple: casimir_scalar(ctx.q, c.d, 1) for c in comps})


def verify_center_identities(ctx: TerwilligerContext,
                             center: CenterData) -> None:
    """The expressions of C0, C1, C2 through the displacement elements, and
    of Omega, G, G* through either family, as one scalar identity per
    component: C_i acts on W(r, t, d) as chi_i (decompose's joint-kernel
    certificate), and Omega, G, G* as their C0, C1 expressions
    (`_verify_central`)."""
    q2 = ExactScalar(ctx.b)
    q4 = q2 * q2
    q2e = ctx.qexp(ctx.two_e())
    one = ExactScalar(1)
    zeta, xi = ctx.bm.zeta, ctx.bm.xi
    _, gamma, _, rho_s, _ = td_scalars(ctx.g.spec)
    by_c0_c1 = _central_by_c0_c1(ctx)
    for triple in sorted(center.Upsilon):
        ups, psi = center.Upsilon[triple], center.Psi[triple]
        c0, c1, c2 = (chif(ctx, *triple) for chif in (chi0, chi1, chi2))
        core = q2e / (ups * ups) - one / (psi * psi)
        if c0 != core / (q2 - 1):
            raise AssertionError("C0 displacement expression fails")
        ups_psi_lam = center.Lam[triple] / (ups * psi)
        pref = ctx.qexp(ctx.two_e() + ctx.D - 3) * (q2 - 1) / (q2 + 1)
        if c1 != pref * ups_psi_lam:
            raise AssertionError("C1 displacement expression fails")
        if c2 != ctx.qexp(ctx.two_e() - 2) / (q4 - 1) \
                / (ups * ups * psi * psi):
            raise AssertionError("C2 displacement expression fails")
        om, eta, eta_star = (a0 * c0 + a1 * c1 + a2
                             for a0, a1, a2 in by_c0_c1)
        # Omega, G, G* through the displacement elements
        if om != core * ExactScalar(xi) * (q2.inverse() - 1) - 2 * gamma * zeta:
            raise AssertionError("Omega displacement expression fails")
        if eta != core * ExactScalar(xi) * q2.inverse() * (one - q2e) \
                - ups_psi_lam * ExactScalar(xi) \
                * ctx.qexp(ctx.D + ctx.two_e() - 5) \
                * (q2 - 1) * (q2 - 1) * (q2 + 1) - rho_s * zeta:
            raise AssertionError("G displacement expression fails")
        if eta_star != core * ExactScalar(zeta * xi) * (1 - q2.inverse()) \
                + gamma * zeta ** 2:
            raise AssertionError("G* displacement expression fails")
        # the action of Omega, G, G* equals the closed module scalars
        if (om, eta, eta_star) != aw_module_scalars(ctx, *triple):
            raise AssertionError(
                f"central action on {triple} disagrees with the closed "
                "module scalar")


def verify_center_commutation(ctx: TerwilligerContext,
                              center: CenterData) -> bool:
    """Upsilon, Psi and Lambda commute with A and A*: each is a scalar on a
    component, where A and A* act by the certified ladder matrices."""
    for triple in sorted(center.Upsilon):
        act = ladder_action(ctx, *triple)
        ident = ExactMatrix.identity(triple[2] + 1)
        for weight in (center.Upsilon, center.Psi, center.Lam):
            w = ident.scale(weight[triple])
            if not commutes(w, act.A) or not commutes(w, act.Astar):
                return False
    return True


# ---------------------------------------------------------------------------
# Irreducible module extraction


@dataclass
class TModuleRecord:
    r: int
    t: int
    d: int
    astar_dual_rep: ExactMatrix   # A* on the dual standard basis
    a_std_rep: ExactMatrix        # A on the standard basis
    c: list[Fraction]
    a: list[Fraction]
    b: list[Fraction]
    cstar: list[Fraction]
    astar: list[Fraction]
    bstar: list[Fraction]


def module_intersection(ctx: TerwilligerContext, r: int, t: int, d: int):
    """Closed forms for c_i(W), a_i(W), b_i(W)."""
    spec = ctx.g.spec
    b, D, e = spec.b, spec.D, spec.e
    c = [Fraction(b ** t) * (b ** i - 1) / (b - 1) for i in range(d + 1)]
    bb = [b_pow(b, D + e - d - t + i) * (b ** (d - i) - 1) / (b - 1)
          for i in range(d + 1)]
    a = [(b_pow(b, D + e - d - t + i) - b_pow(b, e) - b ** (t + i) + 1) / (b - 1)
         for i in range(d + 1)]
    return c, a, bb


def module_dual_intersection(ctx: TerwilligerContext, r: int, t: int, d: int):
    """Closed forms for c*_i(W), a*_i(W), b*_i(W)."""
    spec = ctx.g.spec
    b, D, e = spec.b, spec.D, spec.e
    xi = ctx.bm.xi
    theta_star_r = ctx.bm.theta_star[r]
    cs, bs, as_ = [], [], []
    for i in range(d + 1):
        ci = (
            xi * b_pow(b, -r - i) * (b ** i - 1) * (b_pow(b, D + e - 2 * t - d - i) + 1)
            / ((b_pow(b, D + e - 2 * t - 2 * i) + 1)
               * (b_pow(b, D + e - 2 * t - 2 * i + 1) + 1))
        )
        bi = (
            xi * b_pow(b, -r) * (1 - b_pow(b, i - d)) * (b_pow(b, -D - e + 2 * t + i) + 1)
            / ((b_pow(b, -D - e + 2 * t + 2 * i) + 1)
               * (b_pow(b, -D - e + 2 * t + 2 * i + 1) + 1))
        )
        cs.append(ci)
        bs.append(bi)
        as_.append(theta_star_r - ci - bi)
    return cs, as_, bs


def _check_module_matrix(m: ExactMatrix, row_sum, closed_forms, families,
                         where: str):
    """m is irreducible tridiagonal with every row sum row_sum, and m[i, i-1],
    m[i, i], m[i, i+1] are the closed forms of the named families."""
    _check_axiom_pattern(m, f"entry ({{i}}, {{j}}) of {where}")
    size = m.shape[0]
    if m @ ExactMatrix.column([1] * size) \
            != ExactMatrix.column([row_sum] * size):
        raise AssertionError(f"row sums of {where} differ from "
                             f"{ExactScalar(row_sum).render()}")
    for i in range(size):
        for j, forms, name in zip((i - 1, i, i + 1), closed_forms, families):
            if 0 <= j < size and m.entry(i, j) != ExactScalar(forms[i]):
                raise AssertionError(f"{name}_{i}(W) disagrees with the "
                                     f"closed form, in {where}")


def extract_module(ctx: TerwilligerContext,
                   comp: HomogeneousComponent) -> TModuleRecord:
    """A* on the dual standard basis E_(t+i) v_0 and A on the standard basis
    E*_(r+i) E_t v_0 of one copy of W(r, t, d), read off its raising ladder
    v_j = R^j v_0.

    `decompose` certifies that A acts on every copy as the ladder matrix of
    `ladder_action` and A* as diag theta*_(r+j); so E_(t+i) acts on W as the
    primitive idempotent v_i w_i / (w_i v_i) of that small A, and E*_(r+i)
    as the projection on rung i.  In ladder coordinates v_0 is e_0, and the
    dual standard basis is the columns of V diag(w_i e_0 / w_i v_i), which
    A turns into diag theta_(t+i) by `eigenbasis`' certificate; the
    standard basis is diag(u) with u = E_t e_0, on which A* is diagonal."""
    r, t, d = comp.triple
    act = ladder_action(ctx, r, t, d)
    eig = eigenbasis(act.A, [ExactScalar(ctx.bm.theta[t + i])
                             for i in range(d + 1)], f"A on {comp.triple}")
    w0 = [eig.W.entry(i, 0) for i in range(d + 1)]
    wv = eig.W @ eig.V  # diagonal, so diag(1 / w_i e_0) W inverts `dual`
    dual = eig.V @ ExactMatrix.diag([w / wv.entry(i, i)
                                     for i, w in enumerate(w0)])
    u = [dual.entry(i, 0) for i in range(d + 1)]
    if any(x.is_zero for x in w0 + u):
        raise AssertionError(f"a basis vector of {comp.triple} vanishes")
    astar_rep = ExactMatrix.diag([x.inverse() for x in w0]) \
        @ eig.W @ act.Astar @ dual
    a_rep = ExactMatrix.diag([x.inverse() for x in u]) @ act.A \
        @ ExactMatrix.diag(u)
    dual_forms = module_dual_intersection(ctx, r, t, d)
    _check_module_matrix(astar_rep, ctx.bm.theta_star[r], dual_forms,
                         ("c*", "a*", "b*"),
                         f"A* on the dual standard basis of {comp.triple}")
    forms = module_intersection(ctx, r, t, d)
    _check_module_matrix(a_rep, ctx.bm.theta[t], forms, ("c", "a", "b"),
                         f"A on the standard basis of {comp.triple}")
    return TModuleRecord(r, t, d, astar_rep, a_rep, *forms, *dual_forms)
