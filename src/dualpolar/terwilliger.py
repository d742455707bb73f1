"""Subconstituent algebra of a dual polar graph at a base vertex.

Everything here is exact.  The context holds the dual idempotents, the dual
adjacency matrix, the lowering/flattening/raising decomposition A = L + F + R
and the diagonal q-exponential K, plus the central elements built from them.

The homogeneous decomposition is computed by a lowering-ladder construction:
the joint lowest-rung spaces ker(L) ^ E*_r V are split by diameter (length of
the raising ladder) and by the action of the central element C0, and each
component is rebuilt by raising.  The construction is certified against the
defining joint-kernel description: every component is verified to lie in the
joint kernel of (C_i - chi_i I), and the dimension count sum dim = |X| pins
the kernels exactly (joint eigenspaces of commuting operators for distinct
eigenvalue triples are independent, so no kernel can be larger).
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
from .leonard import tridiagonal_residuals
from .linexact import (
    ExactMatrix,
    Subspace,
    inverse,
    kernel,
    orthogonal_projector,
    rref,
    row_space,
)
from .polar import PolarGraph
from .uqsl2 import casimir_scalar

# Graphs of at most this many vertices get component projectors and what is
# built from them: the displacement and diameter weights, the center
# identities, the module Leonard systems and the U_q(sl2) structures.  Larger
# graphs skip them, avoiding n x n exact projectors and the exact inversion
# of large Gram matrices.
PROJECTOR_MAX_VERTICES = 300


@dataclass
class TerwilligerContext:
    g: PolarGraph
    bm: BoseMesnerData
    x: int
    q: ExactScalar
    dist_x: np.ndarray
    blocks: list[np.ndarray]  # vertex indices at distance i from x
    Estar: list[ExactMatrix]
    A: ExactMatrix
    Astar: ExactMatrix
    K: ExactMatrix
    Kinv: ExactMatrix
    L: ExactMatrix
    F: ExactMatrix
    R: ExactMatrix

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
        """Exact q**n with q = sqrt(b); n may be a Fraction with even 2n."""
        n = Fraction(n)
        if n.denominator == 1:
            return q_pow(self.q, n.numerator)
        raise ValueError("q exponent must be an integer")

    def two_e(self) -> int:
        return int(2 * self.g.spec.e)


def build_context(g: PolarGraph, bm: BoseMesnerData, x: int = 0) -> TerwilligerContext:
    n = g.n_vertices
    D = g.spec.D
    dist_x = g.dist[x].astype(np.int64)
    blocks = [np.nonzero(dist_x == i)[0] for i in range(D + 1)]
    estar = [
        ExactMatrix.from_int(np.diag((dist_x == i).astype(np.int64)))
        for i in range(D + 1)
    ]
    adj = g.adjacency.astype(np.int64)
    A = ExactMatrix.from_int(adj)
    q = ExactScalar.sqrt(g.spec.b)
    # K = sum q^(-2i) E*_i  (rational since q^2 = b)
    kd = [Fraction(1, g.spec.b ** int(dist_x[y])) for y in range(n)]
    K = ExactMatrix.diag(kd)
    Kinv = ExactMatrix.diag([Fraction(1) / v for v in kd])
    Astar = ExactMatrix.diag([bm.zeta + bm.xi * v for v in kd])
    # consistency with the spectral data: A* diag equals |X| * row x of E_1
    row = bm.E[1].take_rows([x])
    for y in range(n):
        if row.entry(0, y) * n != Astar.entry(y, y):
            raise AssertionError("dual adjacency disagrees with |X| E_1 row x")
    up = (dist_x[:, None] - dist_x[None, :] == 1).astype(np.int64) * adj
    flat = (dist_x[:, None] == dist_x[None, :]).astype(np.int64) * adj
    down = (dist_x[:, None] - dist_x[None, :] == -1).astype(np.int64) * adj
    L = ExactMatrix.from_int(down)   # (y,z)-entry 1 iff y~z, d(x,y) = d(x,z)-1
    F = ExactMatrix.from_int(flat)
    R = ExactMatrix.from_int(up)
    if (down + flat + up != adj).any():
        raise AssertionError("A does not split as L + F + R over the partition")
    ctx = TerwilligerContext(g, bm, x, q, dist_x, blocks, estar, A, Astar,
                             K, Kinv, L, F, R)
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
    # Omega relates to C0:  Omega = -xi q^-2 (q^2-1)^2 C0 - 2 gamma zeta I
    if c.Omega != c.C0.scale(-xi * (q2 - 1) * (q2 - 1) / q2) \
            + ident.scale(-2 * gamma * zeta):
        raise AssertionError("Omega vs C0 expression fails")
    rhs = c.C0.scale(xi * (q2.inverse() - 1) * (q2e - 1)) \
        + c.C1.scale(xi * (q2.inverse() - 1) * (q2 + 1) * (q2 + 1)) \
        + ident.scale(-rho * zeta)
    if c.G != rhs:
        raise AssertionError("G vs C0, C1 expression fails")
    rhs = c.C0.scale(zeta * xi * (q2 - 1) * (q2 - 1) / q2) \
        + ident.scale(gamma * zeta ** 2)
    if c.Gstar != rhs:
        raise AssertionError("G* vs C0 expression fails")


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
    (b^i - 1)/(b-1) alpha_1."""
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
        alphas[2] = alphas[2] + 1
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
    rungs: list[ExactMatrix]  # local row bases, rung i in block r+i coordinates
    basis: Subspace           # full-coordinate RREF basis of the component
    projector: ExactMatrix    # orthogonal projector onto the component

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.r, self.t, self.d)

    @property
    def dim(self) -> int:
        return self.mult * (self.d + 1)


def _embed(local: ExactMatrix, shape, index) -> ExactMatrix:
    """The matrix of the given shape holding `local` at `index`, 0 elsewhere."""
    def place(part):
        if part is None:
            return None
        out = np.zeros(shape, dtype=part.dtype)
        out[index] = part
        return out

    return ExactMatrix(place(local.n0), place(local.n1), local.den, local.rad)


def _split_by_operator(vectors: ExactMatrix, op_image: ExactMatrix, eigvals):
    """Split the row space of `vectors` into eigenspaces of an operator,
    given op_image with rows op(v_i); eigvals maps key -> expected value.
    Returns {key: row basis}; raises if the pieces do not fill the space."""
    out = {}
    total = 0
    for key, val in eigvals.items():
        cond = op_image - vectors.scale(val)
        coeff = kernel(cond.T)
        if coeff.dim == 0:
            continue
        rows = coeff.basis @ vectors
        out[key] = rows
        total += coeff.dim
    if total != vectors.shape[0]:
        raise AssertionError(
            "operator spectrum on the subspace is not covered by the "
            "candidate eigenvalues"
        )
    return out


def decompose(ctx: TerwilligerContext, cents: CentralElements | None = None,
              full: bool = True) -> list[HomogeneousComponent]:
    """Homogeneous components of the standard module.

    With full=True (requires the central elements) every component carries
    its RREF basis, and the whole decomposition is certified: joint-kernel
    membership, A/A*-invariance, pairwise orthogonality, and the dimension
    count that pins the joint kernels exactly.  On graphs of at most
    PROJECTOR_MAX_VERTICES vertices each component also carries its
    orthogonal projector, and the projectors are certified to sum to I;
    above it the exact inversion of large Gram matrices is avoided, the
    projector is None, and sum(E) = I follows from orthogonality plus the
    dimension count.  With full=False only the feasible triples with
    multiplicities are computed (used for base-vertex sampling); dimensions
    still must sum to |X|.
    """
    if full and cents is None:
        raise ValueError("full decomposition requires the central elements")
    n, D, b = ctx.n, ctx.D, ctx.b
    spec = ctx.g.spec
    adj = ctx.g.adjacency
    q2 = Fraction(b)
    c2_const = chi2(ctx, 0, 0, 0)  # q^(2e+2D-2)/(q^4-1), the K^2 coefficient
    if not c2_const.is_rational:
        raise AssertionError("central scalar must be rational")
    c2_const = c2_const.as_fraction()
    comps: list[HomogeneousComponent] = []
    for r in range(D + 1):
        block = ctx.blocks[r]
        kr = len(block)
        if kr == 0:
            continue
        if r == 0:
            low = ExactMatrix.identity(kr)
        else:
            below = ctx.blocks[r - 1]
            lmat = ExactMatrix.from_int(adj[np.ix_(below, block)])
            low = kernel(lmat).basis
        if low.shape[0] == 0:
            continue
        # raising chains: U[j] maps block r coordinates to block r+j
        U = [np.eye(kr, dtype=np.int64)]
        for j in range(D - r):
            step = adj[np.ix_(ctx.blocks[r + j + 1], ctx.blocks[r + j])]
            U.append(int_matmul(step, U[-1]))
        # On ker L the element C2 acts through LR alone, which restricts to
        # the integer matrix U1^t U1 on the block; its eigenvalue separates
        # the module diameter d.
        if r < D:
            u1 = adj[np.ix_(ctx.blocks[r + 1], block)]
            lr_local = ExactMatrix(int_matmul(u1.T, u1))
        else:
            lr_local = ExactMatrix.zeros(kr, kr)
        image_lr = low @ lr_local  # symmetric, so no transpose needed
        d_cand = {}
        for d in range(D - r + 1):
            val = chi2(ctx, r, 0, d)
            if not val.is_rational:
                raise AssertionError("chi2 must be rational")
            mu = q2 * (q2 + 1) * (c2_const - val.as_fraction() * b ** (2 * r))
            d_cand[d] = ExactScalar(mu)
        if len(set(v.sort_key() for v in d_cand.values())) != len(d_cand):
            raise AssertionError("chi2 does not separate diameters")
        by_d = _split_by_operator(low, image_lr, d_cand)
        cst = (b_pow(b, spec.e) - 1) / (b - 1)
        frr = ExactMatrix.from_int(adj[np.ix_(block, block)])
        for d, vectors in sorted(by_d.items()):
            # split by dual endpoint via the flattening action:
            # C0 v = chi0 v  <=>  F|block_r v = (b^r chi0 - cst) v
            image = vectors @ frr.T
            cand = {}
            for t in range(max(0, D - r - d), D - d + 1):
                val = chi0(ctx, r, t, d)
                if not val.is_rational:
                    raise AssertionError("chi0 must be rational")
                cand[t] = ExactScalar(b ** r * val.as_fraction() - cst)
            if len(set(v.sort_key() for v in cand.values())) != len(cand):
                raise AssertionError("chi0 does not separate dual endpoints")
            pieces = _split_by_operator(vectors, image, cand)
            for t, rows in pieces.items():
                comps.append(_build_component(ctx, r, t, d, rows, U, full))
    if full:
        _certify_decomposition(ctx, cents, comps)
    else:
        total = sum(c.dim for c in comps)
        if total != n:
            raise AssertionError(f"component dimensions sum to {total}, not {n}")
    return comps


def _build_component(ctx: TerwilligerContext, r: int, t: int, d: int,
                     low_rows: ExactMatrix, U,
                     full: bool = True) -> HomogeneousComponent:
    n = ctx.n
    mult = low_rows.shape[0]
    rungs = []
    embedded = []
    with_projector = full and n <= PROJECTOR_MAX_VERTICES
    proj = ExactMatrix.zeros(n, n) if with_projector else None
    for j in range(d + 1):
        rung = low_rows @ ExactMatrix.from_int(U[j]).T
        base, pivots = rref(rung)
        if base.shape[0] != mult:
            raise AssertionError("raising ladder drops rank before the top")
        rungs.append(base)
        if not full:
            continue
        block = ctx.blocks[r + j]
        embedded.append(_embed(base, (mult, n), (slice(None), block)))
        if with_projector:
            local = orthogonal_projector(Subspace(len(block), base, pivots))
            proj = proj + _embed(local, (n, n), np.ix_(block, block))
    if not full:
        return HomogeneousComponent(r, t, d, mult, rungs, None, None)
    stacked = ExactMatrix.stack_rows(embedded)
    basis = row_space(stacked)
    if basis.dim != mult * (d + 1):
        raise AssertionError("component dimension mismatch")
    return HomogeneousComponent(r, t, d, mult, rungs, basis, proj)


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
        bt = c.basis.basis.T
        for ci, chif in ((cents.C0, chi0), (cents.C1, chi1), (cents.C2, chi2)):
            val = chif(ctx, r, t, d)
            if not ((ci @ bt) - bt.scale(val)).is_zero():
                raise AssertionError(
                    f"component {c.triple} is not in the joint kernel"
                )
        # A- and A*-invariance
        if not c.basis.contains_rows((ctx.A @ bt).T):
            raise AssertionError(f"component {c.triple} is not A-invariant")
        if not c.basis.contains_rows((ctx.Astar @ bt).T):
            raise AssertionError(f"component {c.triple} is not A*-invariant")
        p = c.projector
        if p is not None:
            if p @ p != p or p.T != p:
                raise AssertionError("component projector is not an "
                                     "orthogonal idempotent")
            if not c.basis.contains_rows(p):
                raise AssertionError("projector image is not the component")
            if (p @ bt) != bt:
                raise AssertionError("projector does not fix the component")
    # pairwise orthogonality and completeness
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
    if all(c.projector is not None for c in comps):
        psum = comps[0].projector
        for c in comps[1:]:
            psum = psum + c.projector
        if psum != ExactMatrix.identity(n):
            raise AssertionError("component projectors do not sum to the "
                                 "identity")


# ---------------------------------------------------------------------------
# The displacement and diameter central elements


@dataclass
class CenterData:
    sigma: dict[int, ExactMatrix]  # projectors by first-kind displacement
    psi: dict[int, ExactMatrix]   # projectors by second-kind displacement
    rho: dict[int, ExactMatrix]   # projectors by module diameter
    Upsilon: ExactMatrix
    Upsilon_inv: ExactMatrix
    Psi: ExactMatrix
    Psi_inv: ExactMatrix
    Lam: ExactMatrix


def upsilon_psi_lambda(ctx: TerwilligerContext,
                       comps: list[HomogeneousComponent]) -> CenterData:
    n = ctx.n
    zero = ExactMatrix.zeros(n, n)

    def bucket(keyfn):
        out = {}
        for c in comps:
            k = keyfn(c)
            out[k] = out.get(k, zero) + c.projector
        return out

    sigma = bucket(lambda c: c.r + c.t + c.d - ctx.D)
    psi = bucket(lambda c: c.r - c.t)
    rho = bucket(lambda c: c.d)
    ident = ExactMatrix.identity(n)
    for fam in (sigma, psi, rho):
        tot = zero
        for m in fam.values():
            tot = tot + m
        if tot != ident:
            raise AssertionError("displacement projectors do not sum to I")

    def weighted(fam, weight):
        out = zero
        for k, m in fam.items():
            out = out + m.scale(weight(k))
        return out

    ups = weighted(sigma, lambda mu: ctx.qexp(mu))
    ups_inv = weighted(sigma, lambda mu: ctx.qexp(-mu))
    psi_m = weighted(psi, lambda nu: ctx.qexp(nu))
    psi_inv = weighted(psi, lambda nu: ctx.qexp(-nu))
    lam = weighted(rho, lambda d: casimir_scalar(ctx.q, d, 1))
    if ups @ ups_inv != ident or psi_m @ psi_inv != ident:
        raise AssertionError("displacement weights are not invertible")
    return CenterData(sigma, psi, rho, ups, ups_inv, psi_m, psi_inv, lam)


def assemble_on_components(ctx: TerwilligerContext,
                           comps: list[HomogeneousComponent],
                           coeff) -> ExactMatrix:
    """sum over components of coeff(component) * projector."""
    out = ExactMatrix.zeros(ctx.n, ctx.n)
    for c in comps:
        out = out + c.projector.scale(coeff(c))
    return out


def verify_center_identities(ctx: TerwilligerContext, cents: CentralElements,
                             center: CenterData,
                             comps: list[HomogeneousComponent]) -> None:
    """The expressions of C0, C1, C2 through the displacement elements, and
    of Omega, G, G* through either family, all as exact matrix identities."""
    n = ctx.n
    q2 = ExactScalar(ctx.b)
    q4 = q2 * q2
    q2e = ctx.qexp(ctx.two_e())
    zeta, xi = ctx.bm.zeta, ctx.bm.xi
    _, gamma, _, rho_s, _ = td_scalars(ctx.g.spec)
    ident = ExactMatrix.identity(n)
    ups2_inv = assemble_on_components(
        ctx, comps, lambda c: ctx.qexp(-2 * (c.r + c.t + c.d - ctx.D)))
    psi2_inv = assemble_on_components(
        ctx, comps, lambda c: ctx.qexp(-2 * (c.r - c.t)))
    core = ups2_inv.scale(q2e) - psi2_inv
    if cents.C0 != core.scale((q2 - 1).inverse()):
        raise AssertionError("C0 displacement expression fails")
    ups_psi_lam = assemble_on_components(
        ctx, comps,
        lambda c: ctx.qexp(-(c.r + c.t + c.d - ctx.D) - (c.r - c.t))
        * casimir_scalar(ctx.q, c.d, 1))
    pref = ctx.qexp(ctx.two_e() + ctx.D - 3) * (q2 - 1) / (q2 + 1)
    if cents.C1 != ups_psi_lam.scale(pref):
        raise AssertionError("C1 displacement expression fails")
    ups2psi2_inv = assemble_on_components(
        ctx, comps,
        lambda c: ctx.qexp(-2 * (c.r + c.t + c.d - ctx.D) - 2 * (c.r - c.t)))
    if cents.C2 != ups2psi2_inv.scale(ctx.qexp(ctx.two_e() - 2) / (q4 - 1)):
        raise AssertionError("C2 displacement expression fails")
    # Omega, G, G* through the displacement elements
    if cents.Omega != core.scale(ExactScalar(xi) * (q2.inverse() - 1)) \
            + ident.scale(-2 * gamma * zeta):
        raise AssertionError("Omega displacement expression fails")
    gexpr = core.scale(ExactScalar(xi) * q2.inverse() * (ExactScalar(1) - q2e)) \
        - ups_psi_lam.scale(ExactScalar(xi) * ctx.qexp(ctx.D + ctx.two_e() - 5)
                            * (q2 - 1) * (q2 - 1) * (q2 + 1)) \
        + ident.scale(-rho_s * zeta)
    if cents.G != gexpr:
        raise AssertionError("G displacement expression fails")
    if cents.Gstar != core.scale(ExactScalar(zeta * xi) * (1 - q2.inverse())) \
            + ident.scale(gamma * zeta ** 2):
        raise AssertionError("G* displacement expression fails")
    # per-component action of Omega, G, G* equals the closed module scalars
    for c in comps:
        om, eta, eta_star = aw_module_scalars(ctx, *c.triple)
        bt = c.basis.basis.T
        for mat, val in ((cents.Omega, om), (cents.G, eta),
                         (cents.Gstar, eta_star)):
            if not ((mat @ bt) - bt.scale(ExactScalar(val))).is_zero():
                raise AssertionError(
                    f"central action on {c.triple} disagrees with the "
                    "closed module scalar")


def verify_center_commutation(ctx: TerwilligerContext,
                              center: CenterData) -> bool:
    for m in (center.Upsilon, center.Psi, center.Lam):
        if not commutes(m, ctx.A) or not commutes(m, ctx.Astar):
            return False
    return True


# ---------------------------------------------------------------------------
# Irreducible module extraction


@dataclass
class TModuleRecord:
    r: int
    t: int
    d: int
    seed: ExactMatrix
    dual_basis: ExactMatrix       # rows E_{t+i} seed
    standard_basis: ExactMatrix   # rows E*_{r+i} u
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


def _representation(basis: ExactMatrix, image: ExactMatrix) -> ExactMatrix:
    """M with op(v_j) = sum_i M_ij v_i, from rows v_i and rows op(v_i)."""
    gram = basis @ basis.T
    # (basis op(basis)^t)_{ij} = v_i . op(v_j) = (gram M)_{ij}
    return inverse(gram) @ (basis @ image.T)


def _is_irreducible_tridiagonal(m: ExactMatrix) -> bool:
    k = m.shape[0]
    for i in range(k):
        for j in range(k):
            v = m.entry(i, j)
            if abs(i - j) > 1 and not v.is_zero:
                return False
            if abs(i - j) == 1 and v.is_zero:
                return False
    return True


def extract_module(ctx: TerwilligerContext, comp: HomogeneousComponent,
                   seed: ExactMatrix | None = None) -> TModuleRecord:
    r, t, d = comp.triple
    n = ctx.n
    if seed is None:
        lowest = _embed(comp.rungs[0], (comp.mult, n),
                        (slice(None), ctx.blocks[r]))
        base, _ = rref(lowest)
        seed = base.take_rows([0])
    if seed.shape != (1, n):
        raise ValueError("seed must be a row vector in the standard module")
    if not (ctx.Estar[r] @ seed.T - seed.T).is_zero():
        raise ValueError("seed is not supported at distance r from the base")
    dual_rows = [(ctx.bm.E[t + i] @ seed.T).T for i in range(d + 1)]
    for i, row in enumerate(dual_rows):
        if row.is_zero():
            raise ValueError(f"seed has zero projection on eigenspace {t + i}")
    dual = ExactMatrix.stack_rows(dual_rows)
    astar_rep = _representation(dual, (ctx.Astar @ dual.T).T)
    a_rep_dual = _representation(dual, (ctx.A @ dual.T).T)
    theta = ctx.bm.theta
    if a_rep_dual != ExactMatrix.diag([theta[t + i] for i in range(d + 1)]):
        raise AssertionError("A is not diagonal on the dual standard basis")
    if d >= 1 and not _is_irreducible_tridiagonal(astar_rep):
        raise AssertionError("A* is not irreducible tridiagonal on the dual "
                             "standard basis")
    theta_star_r = ExactScalar(ctx.bm.theta_star[r])
    for i in range(d + 1):
        row_sum = ExactScalar(0)
        for j in range(d + 1):
            row_sum = row_sum + astar_rep.entry(i, j)
        if row_sum != theta_star_r:
            raise AssertionError("A* row sums differ from theta*_r")
    cstar_cf, astar_cf, bstar_cf = module_dual_intersection(ctx, r, t, d)
    for i in range(d + 1):
        if astar_rep.entry(i, i) != ExactScalar(astar_cf[i]):
            raise AssertionError("a*_i(W) disagrees with the closed form")
        if i >= 1 and astar_rep.entry(i, i - 1) != ExactScalar(cstar_cf[i]):
            raise AssertionError("c*_i(W) disagrees with the closed form")
        if i < d and astar_rep.entry(i, i + 1) != ExactScalar(bstar_cf[i]):
            raise AssertionError("b*_i(W) disagrees with the closed form")
    # standard basis from u in E_t W
    u = (ctx.bm.E[t] @ seed.T).T
    std_rows = [(ctx.Estar[r + i] @ u.T).T for i in range(d + 1)]
    for row in std_rows:
        if row.is_zero():
            raise ValueError("standard basis vector vanishes")
    std = ExactMatrix.stack_rows(std_rows)
    a_rep = _representation(std, (ctx.A @ std.T).T)
    astar_rep_std = _representation(std, (ctx.Astar @ std.T).T)
    if astar_rep_std != ExactMatrix.diag(
            [ctx.bm.theta_star[r + i] for i in range(d + 1)]):
        raise AssertionError("A* is not diagonal on the standard basis")
    if d >= 1 and not _is_irreducible_tridiagonal(a_rep):
        raise AssertionError("A is not irreducible tridiagonal on the "
                             "standard basis")
    theta_t = ExactScalar(theta[t])
    for i in range(d + 1):
        row_sum = ExactScalar(0)
        for j in range(d + 1):
            row_sum = row_sum + a_rep.entry(i, j)
        if row_sum != theta_t:
            raise AssertionError("A row sums differ from theta_t")
    c_cf, a_cf, b_cf = module_intersection(ctx, r, t, d)
    for i in range(d + 1):
        if a_rep.entry(i, i) != ExactScalar(a_cf[i]):
            raise AssertionError("a_i(W) disagrees with the closed form")
        if i >= 1 and a_rep.entry(i, i - 1) != ExactScalar(c_cf[i]):
            raise AssertionError("c_i(W) disagrees with the closed form")
        if i < d and a_rep.entry(i, i + 1) != ExactScalar(b_cf[i]):
            raise AssertionError("b_i(W) disagrees with the closed form")
    return TModuleRecord(
        r, t, d, seed, dual, std, astar_rep, a_rep,
        c_cf, a_cf, b_cf, cstar_cf, astar_cf, bstar_cf,
    )
