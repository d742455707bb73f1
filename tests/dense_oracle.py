"""The n x n T-algebra and Bose-Mesner algebra: the dense reference for
`terwilliger`'s checks on the ladders and blocks and `drg`'s coefficient
form.

This is the construction `terwilliger` used before it evaluated T on the
distance partition and then on the ladders of the homogeneous components:
E*_i, A, A*, K, K^-1, L, F, R and the central elements as n x n exact
matrices, and every check as one dense matrix identity.  The tests run both
and compare status and witness.

It also keeps what `drg` did before it held the Bose-Mesner algebra by
scalars: every p^h_ij from the (D+1)(D+2)/2 products A_i A_j, the primitive
idempotents by the projector product formula, and the Krein parameters
solved from the Hadamard products E_i o E_j and verified by reconstruction.
And it keeps a breadth-first search, one dense n x n product per step, and
the codim matrix D - dim(y intersect z) from one product of the vertex x
point incidence: `polar` stores neither, and the tests compare the two, the
paper's "path distance = codim", on every family.

Then the scalar form oracle: the form of a `polar.FormSpec` evaluated one
vector pair at a time, the reference for `polar._totally_isotropic`, and
the form on all pairs of points through the field's tables, the reference
for `polar._PointTable.perp`.

And the scalar oracle: `FractionPairScalar`, the element of Q(sqrt(b))
held as two Fractions, which `exact.ExactScalar` replaced by integer parts.

And the integer oracle: Bareiss' fraction-free elimination, the
reference for the rows and pivots of `intlinalg.int_rref`'s modular loop.

Then closed forms from the paper that `verify` and `leonard` do not
compute but the tests compare with: the graph's dual intersection numbers,
the dual q-Krawtchouk intersection numbers, tridiagonal and Askey-Wilson
scalars and double-down relative, and the normalized-split basis as a
y-eigenbasis of the variant-1 U_q(sl2) structure.

Last, the U_q(sl2) module L(d, eps) in the k/e/f basis or in a normalized
x-, y- or z-eigenbasis, the reference for `uqsl2.UqAction` and
`uqsl2.casimir_scalar`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from dualpolar.drg import (
    NotDistanceRegularError,
    b_pow,
    closed_form_intersection,
    dual_eigenvalue_scalars,
    td_scalars,
)
from dualpolar.exact import ExactScalar, MixedRadicandError
from dualpolar.intarith import _INT64_SAFE, _max_abs, _to_object, int_matmul
from dualpolar.intlinalg import _downcast, _gcd_rows
from dualpolar.leonard import (
    DqkParams,
    LeonardRealization,
    TdAwScalars,
    tridiagonal_residuals,
)
from dualpolar.linexact import (
    ExactMatrix,
    inverse,
    kernel,
    rref,
    spectral_projectors,
)
from dualpolar.polar import (
    FormSpec,
    _codim_of_meets,
    _pairing,
    _sigma,
    _vertex_points,
)
from dualpolar.terwilliger import (
    LFRK_STATEMENTS,
    TerwilligerContext,
    _central_by_c0_c1,
    _omega_coeffs,
    build_context,
    chi0,
    chi1,
    chi2,
    module_intersection,
)
from dualpolar.uqsl2 import UqAction


def bfs_distances(adj: np.ndarray, sources=None) -> np.ndarray:
    """Graph distances from the 0/1 adjacency matrix, -1 where a vertex is
    not reached; row x of the frontier holds the vertices at the current
    distance from x.  With `sources` (vertex indices) only their rows are
    searched and returned, in that order."""
    n = adj.shape[0]
    sources = np.arange(n) if sources is None else np.asarray(sources)
    reached = np.eye(n, dtype=bool)[sources]
    dist = np.where(reached, 0, -1).astype(np.int16)
    frontier = reached.copy()
    step = 0
    while frontier.any():
        step += 1
        newly = (int_matmul(frontier, adj) > 0) & ~reached
        dist[newly] = step
        reached |= newly
        frontier = newly
    return dist


def codim_matrix(spec: FormSpec, verts) -> np.ndarray:
    """D - dim(y intersect z) for all vertex pairs, from one exact product:
    with I the vertex x point incidence, (I I^T)_yz = |y intersect z| is
    (b^d - 1)/(b - 1), d = dim(y intersect z)."""
    pts = _vertex_points(spec, verts)
    inc = np.zeros((len(verts), len(spec.points.vecs)), dtype=np.uint8)
    inc[np.arange(len(verts))[:, None], pts] = 1
    return _codim_of_meets(spec, int_matmul(inc, inc.T))


def base_distances(ctx) -> np.ndarray:
    """d(x, y) for every vertex y, read off the blocks of a context."""
    dist_x = np.empty(ctx.n, dtype=np.int64)
    for i, block in enumerate(ctx.blocks):
        dist_x[block] = i
    return dist_x


def distance_matrices(dist: np.ndarray, D: int) -> list[np.ndarray]:
    return [(dist == i).astype(np.uint8) for i in range(D + 1)]


def intersection_numbers(g) -> np.ndarray:
    """p[h, i, j] = |G_i(y) ^ G_j(z)| for every pair (y, z) at distance h,
    each product A_i A_j checked constant on the pairs at each distance;
    raises NotDistanceRegularError with a witness."""
    dist = bfs_distances(g.adjacency)
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
    return p


def intersection_array(p: np.ndarray):
    """(c, a, b) read off the p^h_1j, with c_0 = b_D = 0."""
    D = p.shape[0] - 1
    c = tuple(int(p[i, 1, i - 1]) if i >= 1 else 0 for i in range(D + 1))
    a = tuple(int(p[i, 1, i]) for i in range(D + 1))
    b = tuple(int(p[i, 1, i + 1]) if i < D else 0 for i in range(D + 1))
    return c, a, b


def idempotents(g, theta) -> list[ExactMatrix]:
    """The primitive idempotents E_i of A as n x n exact matrices, by the
    projector product formula; sum E_i = I certifies the eigenvalues."""
    return spectral_projectors(
        ExactMatrix.from_int(g.adjacency.astype(np.int64)), theta)


def hadamard_krein(E: list[ExactMatrix], m: list[int]) -> np.ndarray:
    """Solve E_i o E_j = (1/n) sum_h q^h_ij E_h and verify exactly."""
    D1, n = len(E), E[0].shape[0]
    q = np.empty((D1, D1, D1), dtype=object)
    for i in range(D1):
        for j in range(i, D1):
            had = E[i].entrywise(E[j])
            for h in range(D1):
                tr = had.entrywise(E[h])  # rational: no radical part
                q[h, i, j] = q[h, j, i] = \
                    Fraction(int(tr.n0.sum()), tr.den) * n / m[h]
            recon = ExactMatrix.zeros(n, n)
            for h in range(D1):
                recon = recon + E[h].scale(Fraction(q[h, i, j], n))
            if recon != had:
                raise AssertionError(
                    f"Krein reconstruction failed for (i,j)=({i},{j})")
    return q


@dataclass
class DenseContext(TerwilligerContext):
    """The partition with the n x n dual idempotents, A, A*, K, K^-1 and the
    decomposition A = L + F + R."""

    dist_x: np.ndarray
    Estar: list
    A: ExactMatrix
    Astar: ExactMatrix
    K: ExactMatrix
    Kinv: ExactMatrix
    L: ExactMatrix
    F: ExactMatrix
    R: ExactMatrix


def embed(local: ExactMatrix, shape, index) -> ExactMatrix:
    """The matrix of the given shape holding `local` at `index`, 0 elsewhere."""
    def place(part):
        if part is None:
            return None
        out = np.zeros(shape, dtype=part.dtype)
        out[index] = part
        return out

    return ExactMatrix(place(local.n0), place(local.n1), local.den, local.rad)


def masked(m: ExactMatrix, mask: np.ndarray) -> ExactMatrix:
    """Entrywise product with a 0/1 integer mask."""
    n1 = None if m.n1 is None else m.n1 * mask
    return ExactMatrix(m.n0 * mask, n1, m.den, m.rad)


def row_scale(m: ExactMatrix, values) -> ExactMatrix:
    """diag(values) @ m."""
    return ExactMatrix.diag(values) @ m


def commutes(a: ExactMatrix, b: ExactMatrix) -> bool:
    return (a @ b - b @ a).is_zero()


def dense_context(g, bm, x: int = 0) -> DenseContext:
    part = build_context(g, bm, x)
    n, D, dist_x = part.n, part.D, base_distances(part)
    estar = [ExactMatrix.from_int(np.diag((dist_x == i).astype(np.int64)))
             for i in range(D + 1)]
    adj = g.adjacency.astype(np.int64)
    kd = [Fraction(1, g.spec.b ** i) for i in range(D + 1)]
    K = ExactMatrix.diag([kd[i] for i in dist_x])
    Kinv = ExactMatrix.diag([1 / kd[i] for i in dist_x])
    Astar = ExactMatrix.diag([bm.zeta + bm.xi * kd[i] for i in dist_x])
    up = (dist_x[:, None] - dist_x[None, :] == 1).astype(np.int64) * adj
    flat = (dist_x[:, None] == dist_x[None, :]).astype(np.int64) * adj
    down = (dist_x[:, None] - dist_x[None, :] == -1).astype(np.int64) * adj
    ctx = DenseContext(g, bm, x, part.q, part.blocks, dist_x, estar,
                       ExactMatrix.from_int(adj), Astar, K, Kinv,
                       ExactMatrix.from_int(down), ExactMatrix.from_int(flat),
                       ExactMatrix.from_int(up))
    if ctx.L.T != ctx.R or ctx.F.T != ctx.F:
        raise AssertionError("transpose relations L^t = R, F^t = F fail")
    if Astar != ExactMatrix.identity(n).scale(bm.zeta) + K.scale(bm.xi):
        raise AssertionError("A* != zeta I + xi K")
    total = estar[0].scale(bm.theta_star[0])
    for m, c in zip(estar[1:], bm.theta_star[1:]):
        total = total + m.scale(c)
    if Astar != total:
        raise AssertionError("A* != sum theta*_i E*_i")
    return ctx


# ---------------------------------------------------------------------------
# The L, F, R, K relations


def lfrk_relations(ctx: DenseContext) -> list[tuple[str, ExactMatrix]]:
    L, F, R, K = ctx.L, ctx.F, ctx.R, ctx.K
    q2 = ExactScalar(ctx.b)
    q2e = ctx.q ** ctx.two_e()
    qpow = ctx.q ** (ctx.two_e() + 2 * ctx.D - 2)
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


def verify_lfrk(ctx: DenseContext) -> dict:
    """(ok, witness) of each relation by statement; a failure names the
    first nonzero entry of the residual in row-major order and its value."""
    report = {}
    for statement, resid in lfrk_relations(ctx):
        witness = None
        if not resid.is_zero():
            live = resid.n0 != 0
            if resid.n1 is not None:
                live |= resid.n1 != 0
            y, z = (int(v) for v in np.argwhere(live)[0])
            witness = {"entry": [y, z], "value": resid.entry(y, z).render()}
        report[statement] = (witness is None, witness)
    return report


def verify_lfrk_recovery(ctx: DenseContext) -> bool:
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


def verify_lrf_commutations(ctx: DenseContext) -> bool:
    mats = [ctx.L @ ctx.R, ctx.R @ ctx.L, ctx.F, ctx.K]
    return all(commutes(mats[i], mats[j])
               for i in range(len(mats)) for j in range(i + 1, len(mats)))


def verify_tridiagonal_relations(ctx: DenseContext) -> bool:
    inner1, inner2 = tridiagonal_residuals(ctx.A, ctx.Astar,
                                           *td_scalars(ctx.g.spec))
    return commutes(ctx.A, inner1) and commutes(ctx.Astar, inner2)


# ---------------------------------------------------------------------------
# Central elements


@dataclass
class DenseCentralElements:
    C0: ExactMatrix
    C1: ExactMatrix
    C2: ExactMatrix
    Omega: ExactMatrix
    G: ExactMatrix
    Gstar: ExactMatrix
    RL: ExactMatrix
    LR: ExactMatrix


def _by_distance(ctx, counts: np.ndarray, coeff) -> ExactMatrix:
    """The integer matrix `counts` with row y scaled by coeff(d(x, y))."""
    return row_scale(ExactMatrix(counts.astype(np.int64, copy=False)),
                     [coeff(int(s)) for s in ctx.dist_x])


def two_step_counts(ctx) -> tuple[np.ndarray, np.ndarray]:
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


def central_elements(ctx: DenseContext) -> DenseCentralElements:
    L, F, R, K = ctx.L, ctx.F, ctx.R, ctx.K
    n, D = ctx.n, ctx.D
    q2 = ExactScalar(ctx.b)
    q2e = ctx.q ** ctx.two_e()
    one = ExactScalar(1)
    RL = R @ L
    LR = L @ R
    kvals = [Fraction(1, ctx.b ** int(ctx.dist_x[y])) for y in range(n)]
    k2vals = [v * v for v in kvals]
    KK = row_scale(K, kvals)
    C0 = row_scale(F, kvals) + K.scale((q2e - one) / (q2 - one))
    top = ctx.q ** (ctx.two_e() + 2 * D - 2)
    C1 = row_scale(RL, kvals).scale(q2 / (q2 + 1)) \
        - row_scale(LR, kvals).scale(q2.inverse() / (q2 + 1)) \
        + K.scale(top / (q2 - 1))
    C2 = row_scale(RL, k2vals).scale(one / (q2 + 1)) \
        - row_scale(LR, k2vals).scale(q2.inverse() / (q2 + 1)) \
        + KK.scale(top / (q2 * q2 - 1))
    alpha, beta = _omega_coeffs(ctx)
    same = (ctx.dist_x[:, None] == ctx.dist_x[None, :])
    omega = ExactMatrix.diag([beta[int(ctx.dist_x[y])] for y in range(n)])
    omega = omega + row_scale(masked(ctx.A, same.astype(np.int64)),
                              [alpha.get(int(ctx.dist_x[y]), 0)
                               for y in range(n)])
    zeta, xi = ctx.bm.zeta, ctx.bm.xi
    spec = ctx.g.spec
    b = spec.b
    _, gamma, _, rho, _ = td_scalars(spec)
    up, down = two_step_counts(ctx)
    G = _by_distance(ctx, down, lambda i: xi * (1 - b * b) * Fraction(1, b ** i)) \
        + _by_distance(ctx, up, lambda i: xi * (1 - Fraction(1, b * b))
                       * Fraction(1, b ** i)) \
        + _by_distance(ctx, ctx.g.adjacency * same,
                       lambda i: xi * (Fraction(1, b) - 1)
                       * (b_pow(b, spec.e) - 1) * Fraction(1, b ** i)) \
        - ctx.Astar.scale(rho)
    Gstar = ExactMatrix.identity(n).scale(-gamma * zeta ** 2) - omega.scale(zeta)
    cents = DenseCentralElements(C0, C1, C2, omega, G, Gstar, RL, LR)
    verify_central(ctx, cents)
    return cents


def verify_central(ctx: DenseContext, c: DenseCentralElements):
    q2 = ExactScalar(ctx.b)
    q2e = ctx.q ** ctx.two_e()
    one = ExactScalar(1)
    zeta, xi = ctx.bm.zeta, ctx.bm.xi
    _, gamma, _, rho, _ = td_scalars(ctx.g.spec)
    n = ctx.n
    ident = ExactMatrix.identity(n)
    off = (ctx.dist_x[:, None] != ctx.dist_x[None, :]).astype(np.int64)
    for name, m in [("C0", c.C0), ("C1", c.C1), ("C2", c.C2),
                    ("Omega", c.Omega), ("G", c.G), ("G*", c.Gstar)]:
        if m.T != m:
            raise AssertionError(f"{name} is not symmetric")
        if not commutes(m, ctx.A):
            raise AssertionError(f"{name} does not commute with A")
        if not masked(m, off).is_zero():
            raise AssertionError(f"{name} does not commute with A*")
    kvals = [Fraction(1, ctx.b ** int(ctx.dist_x[y])) for y in range(n)]
    KF = row_scale(ctx.F, kvals)
    rhs = KF.scale(-xi * (q2 - 1) * (q2 - 1) / q2) \
        + ctx.K.scale(-xi * (q2 - 1) * (q2e - 1) / q2) \
        + ident.scale(-2 * gamma * zeta)
    if c.Omega != rhs:
        raise AssertionError("Omega generator expression fails")
    q4 = q2 * q2
    rhs = row_scale(c.RL, kvals).scale(xi * (one - q4)) \
        + row_scale(c.LR, kvals).scale(xi * (one - q4.inverse())) \
        + KF.scale(xi * (q2.inverse() - 1) * (q2e - 1)) \
        + ctx.K.scale(ExactScalar(-rho) * xi) + ident.scale(-rho * zeta)
    if c.G != rhs:
        raise AssertionError("G generator expression fails")
    rhs = KF.scale(zeta * xi * (q2 - 1) * (q2 - 1) / q2) \
        + ctx.K.scale(zeta * xi * (q2 - 1) * (q2e - 1) / q2) \
        + ident.scale(gamma * zeta ** 2)
    if c.Gstar != rhs:
        raise AssertionError("G* generator expression fails")
    if c.Gstar != ident.scale(-gamma * zeta ** 2) - c.Omega.scale(zeta):
        raise AssertionError("G* relation to Omega fails")
    for name, m, (a0, a1, a2) in zip(("Omega", "G", "G*"),
                                     (c.Omega, c.G, c.Gstar),
                                     _central_by_c0_c1(ctx)):
        if m != c.C0.scale(a0) + c.C1.scale(a1) + ident.scale(a2):
            raise AssertionError(f"{name} vs C0, C1 expression fails")


def verify_g_entry_table(ctx: DenseContext, G: ExactMatrix) -> bool:
    spec = ctx.g.spec
    b = spec.b
    xi = ctx.bm.xi
    _, _, _, rho, _ = td_scalars(spec)
    cvals, _, bvals = closed_form_intersection(spec)
    theta_star = ctx.bm.theta_star
    dist = bfs_distances(ctx.g.adjacency)
    same = ctx.dist_x[:, None] == ctx.dist_x[None, :]
    two = same & (dist == 2)
    up, down = two_step_counts(ctx)
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


def verify_omega_entry_table(ctx: DenseContext, omega: ExactMatrix) -> bool:
    alpha, beta = _omega_coeffs(ctx)
    same = ctx.dist_x[:, None] == ctx.dist_x[None, :]
    want = ExactMatrix.diag([beta[int(s)] for s in ctx.dist_x]) + _by_distance(
        ctx, same & (ctx.g.adjacency == 1), lambda s: alpha.get(s, 0))
    return omega == want


def central_characterization_matrix(ctx: DenseContext, alpha1, beta0,
                                    perturb: bool = False) -> ExactMatrix:
    b = ctx.b
    _, avals, _ = closed_form_intersection(ctx.g.spec)
    a1 = avals[1]
    alpha1 = Fraction(alpha1)
    beta0 = Fraction(beta0)
    alphas = {i: Fraction(b) ** (1 - i) * alpha1 for i in range(1, ctx.D + 1)}
    betas = {i: beta0 - a1 * Fraction(b) ** (1 - i)
             * Fraction(b ** i - 1, b - 1) * alpha1 for i in range(ctx.D + 1)}
    if perturb:
        i = min(2, ctx.D)
        alphas[i] = alphas[i] + 1
    same = (ctx.dist_x[:, None] == ctx.dist_x[None, :]).astype(np.int64)
    c = row_scale(masked(ctx.A, same),
                  [alphas.get(int(ctx.dist_x[y]), 0) for y in range(ctx.n)])
    return c + ExactMatrix.diag([betas[int(ctx.dist_x[y])]
                                 for y in range(ctx.n)])


def characterization(ctx: DenseContext) -> bool:
    """`central:characterization` on the dense matrices."""
    m1 = central_characterization_matrix(ctx, 1, 0)
    m2 = central_characterization_matrix(ctx, 3, 2)
    mp = central_characterization_matrix(ctx, 1, 0, perturb=True)
    ok = commutes(m1, ctx.A) and commutes(m2, ctx.A)
    if ctx.F.is_zero():
        return ok and commutes(mp, ctx.A)
    return ok and not commutes(mp, ctx.A)


# ---------------------------------------------------------------------------
# The decomposition certificate


def top_rung(ctx, t: int) -> ExactMatrix:
    """The oracle's lowest rung of W(D, t, 0) at the base vertex of ctx:
    the RREF basis of the vectors on the top block B_D that L kills and F
    scales by a_0(W), from the kernel of the adjacency blocks
    A[B_(D-1), B_D] and A[B_D, B_D] - a_0(W) I."""
    D, blocks = ctx.D, ctx.blocks
    a0 = module_intersection(ctx, D, t, 0)[1][0]
    adj = ctx.g.adjacency.astype(np.int64)
    lower = ExactMatrix.from_int(adj[np.ix_(blocks[D - 1], blocks[D])])
    flat = ExactMatrix.from_int(adj[np.ix_(blocks[D], blocks[D])]) \
        - ExactMatrix.identity(len(blocks[D])).scale(a0)
    return kernel(ExactMatrix.stack_rows([lower, flat]))[0]


def component_rungs(ctx, comp) -> list[ExactMatrix]:
    """The rungs of a component, each the ExactMatrix of its integer rows.
    A component W(D, t, 0), which `decompose` certifies by traces and which
    holds none, gets the oracle's `top_rung`, whose rank must be its
    multiplicity."""
    if comp.rungs:
        return [ExactMatrix.from_int(rung) for rung in comp.rungs]
    rung = top_rung(ctx, comp.t)
    assert comp.d == 0 and rung.shape[0] == comp.mult, comp.triple
    return [rung]


def component_basis(ctx, comp) -> tuple[ExactMatrix, tuple[int, ...]]:
    """The n-wide RREF basis of a component: its rungs (`component_rungs`)
    embedded in their blocks and row-reduced together."""
    embedded = [embed(rung, (rung.shape[0], ctx.n),
                      (slice(None), ctx.blocks[comp.r + j]))
                for j, rung in enumerate(component_rungs(ctx, comp))]
    return rref(ExactMatrix.stack_rows(embedded))


def certify_joint_kernel(ctx: DenseContext, cents: DenseCentralElements,
                         comps):
    """Each component lies in the joint kernel of (C_i - chi_i I), and the
    components are pairwise orthogonal, on n-wide bases."""
    bases = [component_basis(ctx, c)[0] for c in comps]
    for c, basis in zip(comps, bases):
        bt = basis.T
        for ci, chif in ((cents.C0, chi0), (cents.C1, chi1), (cents.C2, chi2)):
            if not ((ci @ bt) - bt.scale(chif(ctx, *c.triple))).is_zero():
                raise AssertionError(
                    f"component {c.triple} is not in the joint kernel")
    stacked = ExactMatrix.stack_rows(bases)
    gram = (stacked @ stacked.T).n0.copy()
    offsets = np.cumsum([0] + [c.dim for c in comps])
    for i in range(len(comps)):
        gram[offsets[i]:offsets[i + 1], offsets[i]:offsets[i + 1]] = 0
    if np.any(gram):
        raise AssertionError("components are not pairwise orthogonal")


def from_words(ctx, words) -> ExactMatrix:
    """The n x n matrix of an element given by its word coefficients on the
    diagonal blocks, as `terwilliger.central_elements` returns them."""
    def block(s, word):
        mats = {"": np.eye(len(ctx.blocks[s]), dtype=np.int64),
                "F": ctx.adj(s, s), "RL": ctx.two_step(s, s - 1),
                "LR": ctx.two_step(s, s + 1)}
        return ExactMatrix.combination([(c, mats[w]) for w, c in word.items()])
    return dense(ctx, [block(s, word) for s, word in enumerate(words)])


def dense(ctx, x) -> ExactMatrix:
    """The n x n matrix of an element given by its diagonal blocks
    E*_s x E*_s, s = 0..D (every other block 0)."""
    out = ExactMatrix.zeros(ctx.n, ctx.n)
    for s, m in enumerate(x):
        out = out + embed(m, (ctx.n, ctx.n),
                          np.ix_(ctx.blocks[s], ctx.blocks[s]))
    return out


# ---------------------------------------------------------------------------
# The scalar form oracle


def _evaluate(spec, mat, u, v) -> int:
    """sum_ij u_i mat_ij v_j over GF(b)."""
    if len(u) != spec.n or len(v) != spec.n:
        raise ValueError("vector has wrong length")
    f, acc = spec.field, 0
    for i, j in zip(*np.nonzero(mat)):
        acc = f.add(acc, f.mul(f.mul(u[i], int(mat[i, j])), v[j]))
    return acc


def quad_value(spec, u) -> int:
    """Q(u) for the quadratic families."""
    return _evaluate(spec, spec.quad, u, u)


def bilinear(spec, u, v) -> int:
    """The (sesqui)linear pairing of the family.

    For quadratic families this is the polar form Q(u+v) - Q(u) - Q(v).
    """
    if spec.hermitean:
        v = [spec.field.frobenius(x) for x in v]
    return _evaluate(spec, spec.gram, u, v)


def singular_vector(spec, v) -> bool:
    """Is the single vector isotropic (singular, for quadratic types)?"""
    if spec.quadratic:
        return quad_value(spec, v) == 0
    if spec.family == "C":
        return True
    return bilinear(spec, v, v) == 0


def totally_isotropic(spec, rows) -> bool:
    """Does the form vanish completely on the span of the given rows?

    In characteristic 2, Q(x+y) = Q(x) + Q(y) + polar(x, y), so singular
    basis vectors with pairwise-vanishing pairings span a totally
    singular space in every characteristic.
    """
    rows = list(rows)
    for i, u in enumerate(rows):
        if not singular_vector(spec, u):
            return False
        for v in rows[i:] if spec.hermitean else rows[i + 1:]:
            if bilinear(spec, u, v) != 0:
                return False
    return True


def table_perp(spec) -> np.ndarray:
    """The P x P bool B(p, p') = 0 on the point table of `spec`, from the
    field's addition and multiplication tables on every pair: what
    `polar._PointTable.perp` computed before it used exact integer products
    over GF(p)."""
    field, vecs = spec.field, spec.points.vecs
    u = _pairing(field, vecs[:, None], spec.gram.T[None])
    return _pairing(field, u[:, None], _sigma(spec, vecs)[None]) == 0


# ---------------------------------------------------------------------------
# The scalar oracle


def _fr(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def _collapse_root(rad: int) -> int | None:
    """Return sqrt(rad) if rad is a perfect square (or 0/1), else None."""
    if rad < 0:
        raise ValueError("radicand must be nonnegative")
    r = math.isqrt(rad)
    return r if r * r == rad else None


class FractionPairScalar:
    """An element a + c*sqrt(rad) of Q(sqrt(rad)), immutable and hashable:
    the pair-of-Fractions scalar that `exact.ExactScalar` replaced, kept
    as the reference its integer parts are compared with."""

    __slots__ = ("a", "c", "rad")

    def __init__(self, a=0, c=0, rad: int = 0):
        a = _fr(a)
        c = _fr(c)
        rad = int(rad)
        root = _collapse_root(rad) if (c != 0) else 0
        if c == 0:
            rad = 0
        elif root is not None:
            a += c * root
            c = Fraction(0)
            rad = 0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "rad", rad)

    def __setattr__(self, *_):
        raise AttributeError("FractionPairScalar is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def sqrt(cls, b: int) -> "FractionPairScalar":
        """The scalar sqrt(b); collapses to an integer when b is a square."""
        return cls(0, 1, b)

    # -- predicates ----------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.c == 0

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.c == 0

    def as_fraction(self) -> Fraction:
        if self.c != 0:
            raise ValueError(f"{self} is irrational")
        return self.a

    # -- coercion ------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "FractionPairScalar":
        if isinstance(x, FractionPairScalar):
            return x
        return FractionPairScalar(_fr(x))

    def _join_rad(self, other: "FractionPairScalar") -> int:
        if self.c == 0:
            return other.rad
        if other.c == 0:
            return self.rad
        if self.rad != other.rad:
            raise MixedRadicandError(
                f"cannot mix sqrt({self.rad}) with sqrt({other.rad})"
            )
        return self.rad

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        rad = self._join_rad(o)
        return FractionPairScalar(self.a + o.a, self.c + o.c, rad)

    __radd__ = __add__

    def __neg__(self):
        return FractionPairScalar(-self.a, -self.c, self.rad)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        rad = self._join_rad(o)
        a = self.a * o.a + self.c * o.c * rad
        c = self.a * o.c + self.c * o.a
        return FractionPairScalar(a, c, rad)

    __rmul__ = __mul__

    def inverse(self) -> "FractionPairScalar":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero scalar")
        nrm = self.a * self.a - self.c * self.c * self.rad
        # nrm = 0 with self != 0 would force sqrt(rad) rational, which the
        # constructor already collapsed; so nrm is nonzero here.
        return FractionPairScalar(self.a / nrm, -self.c / nrm, self.rad)

    def __truediv__(self, other):
        o = self._coerce(other)
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "FractionPairScalar":
        if n < 0:
            return self.inverse() ** (-n)
        out = FractionPairScalar(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison ----------------------------------------------------

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        return (self.a, self.c) == (o.a, o.c) and (
            self.c == 0 or self.rad == o.rad
        )

    def __hash__(self):
        return hash((self.a, self.c, self.rad))

    # -- text ------------------------------------------------------------

    def render(self) -> str:
        """Textual format "p/q" or "p/q + r/s*sqrt(b)"."""
        if self.c == 0:
            return str(self.a)
        return f"{self.a} + {self.c}*sqrt({self.rad})"

    __str__ = render

    def __repr__(self):
        return f"FractionPairScalar({self.render()!r})"


# ---------------------------------------------------------------------------
# The fraction-free elimination


def fraction_free_rref(
        mat: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Fraction-free Gauss-Jordan row reduction of an integer matrix.

    Uses the one-step fraction-free update
        row_i <- (piv * row_i - col_i * row_piv) / previous_pivot,
    whose divisions are exact and keep every entry a minor of the input, so
    coefficients stay polynomially small without intermediate gcds.

    Returns (R, pivots) where R holds the nonzero rows, each primitive with
    positive leading entry, zeros above and below every pivot.  Row i of the
    rational RREF is R[i] / R[i, pivots[i]].
    """
    a = mat.copy()
    if a.ndim != 2:
        raise ValueError("expected a 2-d array")
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        piv = int(a[r, c])
        col = a[:, c].copy()
        col[r] = 0
        if a.dtype != object:
            bound = abs(piv) * _max_abs(a) + _max_abs(col) * _max_abs(a[r])
            if bound >= _INT64_SAFE:
                a = _to_object(a)
                col = _to_object(col)
        others = np.ones(nrows, dtype=bool)
        others[r] = False
        sub = a[others] * piv - np.outer(col[others], a[r])
        sub //= prev
        a[others] = sub
        prev = piv
        pivots.append(c)
        r += 1
    a = a[:r]
    if r:
        g = _gcd_rows(a)
        a = a // g[:, None]
        for i in range(r):
            if a[i, pivots[i]] < 0:
                a[i] = -a[i]
    a = _downcast(a)
    return a, tuple(pivots)


# ---------------------------------------------------------------------------
# Closed forms of the dual q-Krawtchouk family


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



def dqk_ddown_params(p: DqkParams) -> DqkParams:
    """The double-down-arrow relative swaps kappa and upsilon."""
    return DqkParams(p.q, p.d, p.h, p.h_star, p.upsilon, p.kappa_star, p.kappa)


def dqk_intersection_closed_forms(p: DqkParams):
    """Closed forms of the intersection and dual intersection numbers for a
    dual q-Krawtchouk array."""
    q, d = p.q, p.d
    h, k, ks, u = p.h, p.kappa, p.kappa_star, p.upsilon
    zero = ExactScalar(0)
    b = [k * q ** i * (q ** (d - i) - q ** (i - d))
         if i < d else zero for i in range(d + 1)]
    c = [u * q ** (i - d) * (q ** -i - q ** i)
         if i >= 1 else zero for i in range(d + 1)]
    a = [h + (k + u) * q ** (2 * i - d) for i in range(d + 1)]
    theta_star0 = p.h_star + ks * q ** d
    bs, cs = [zero] * (d + 1), [zero] * (d + 1)
    if d >= 1:
        bs[0] = k * ks * (q ** d - q ** -d) \
            / (k - u * q ** (2 - 2 * d))
        cs[d] = u * ks * q ** (2 * d - 2) * (q ** -d - q ** d) \
            / (k - u * q ** (2 * d - 2))
    for i in range(1, d):
        bs[i] = (k * ks * q ** i * (q ** (d - i) - q ** (i - d))
                 * (k - u * q ** (2 * i - 2 * d))) \
            / ((k - u * q ** (4 * i - 2 * d))
               * (k - u * q ** (4 * i - 2 * d + 2)))
        cs[i] = (u * ks * q ** (5 * i - 3 * d - 2)
                 * (q ** -i - q ** i) * (k - u * q ** (2 * i))) \
            / ((k - u * q ** (4 * i - 2 * d))
               * (k - u * q ** (4 * i - 2 * d - 2)))
    astar = [theta_star0 - bs[i] - cs[i] for i in range(d + 1)]
    return c, a, b, cs, astar, bs


def dqk_td_aw_closed_forms(p: DqkParams) -> TdAwScalars:
    """beta = q^2 + q^-2 and companions for the dual q-Krawtchouk family."""
    q = p.q
    beta = q ** 2 + q ** -2
    two = ExactScalar(2)
    gamma = p.h * (two - beta)
    gamma_star = p.h_star * (two - beta)
    rho = p.h * p.h * (beta - two) - p.kappa * p.upsilon * (beta * beta - 4)
    rho_star = p.h_star * p.h_star * (beta - two)
    omega = (beta - two) * (
        two * p.h * p.h_star - (p.kappa + p.upsilon) * p.kappa_star)
    eta = p.kappa * p.upsilon * p.h_star * (beta * beta - 4) \
        + p.kappa * p.upsilon * p.kappa_star * (q + q.inverse()) \
        * (q - q.inverse()) ** 2 * (q ** (p.d + 1) + q ** (-p.d - 1)) \
        - p.h * (beta - two) * (p.h * p.h_star
                                - (p.kappa + p.upsilon) * p.kappa_star)
    eta_star = p.h_star * (beta - two) * (
        (p.kappa + p.upsilon) * p.kappa_star - p.h * p.h_star)
    return TdAwScalars(beta, gamma, gamma_star, rho, rho_star,
                       omega, eta, eta_star)


def verify_split_basis_is_y_eigenbasis(real: LeonardRealization,
                                       act: UqAction, eps: int) -> bool:
    """On a normalized-split realization, the inverted basis vectors are a
    normalized y-eigenbasis for the variant-1 structure."""
    if real.basis != "normalized-split":
        raise ValueError("needs the normalized-split realization")
    d = real.pa.d
    n = d + 1
    q = act.q
    es = ExactScalar(eps)
    cols = [ExactMatrix.from_rows([[1 if i == d - j else 0]
                                   for i in range(n)]) for j in range(n)]
    for j, u in enumerate(cols):
        if (act.Y @ u).scale(es) != u.scale(q ** (d - 2 * j)):
            return False
        zu = (act.Z @ u).scale(es) - u.scale(q ** (2 * j - d))
        want = (cols[j + 1].scale(q ** -d - q ** (2 * j + 2 - d))
                if j < d else ExactMatrix.zeros(n, 1))
        if zu != want:
            return False
        xu = (act.X @ u).scale(es) - u.scale(q ** (2 * j - d))
        want = (cols[j - 1].scale(q ** d - q ** (2 * j - 2 - d))
                if j > 0 else ExactMatrix.zeros(n, 1))
        if xu != want:
            return False
    return True


# ---------------------------------------------------------------------------
# The U_q(sl2) module L(d, eps)


def bracket(q: ExactScalar, n: int) -> ExactScalar:
    """[n]_q = (q^n - q^-n)/(q - q^-1)."""
    return (q ** n - q ** -n) / (q - q.inverse())


def build_Ld(d: int, eps: int, q: ExactScalar, basis: str = "kef") -> UqAction:
    """The (d+1)-dimensional module L(d, eps) in a chosen basis."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    one = ExactScalar(1)
    for i in range(1, d + 1):
        if q ** (2 * i) == one:
            raise ValueError(f"q^(2i) = 1 at i = {i}; module is reducible")
    n = d + 1
    es = ExactScalar(eps)
    zeros = [0] * d
    # es q^(2i - d), i = 0..d: the diagonal of k^-1, and reversed, of k
    inv_weights = [es * q ** (2 * i - d) for i in range(n)]
    weights = ExactMatrix.diag(inv_weights[::-1])
    if basis == "kef":
        f = ExactMatrix.tridiagonal([bracket(q, i + 1) for i in range(d)],
                                    [0] * n, zeros)
        e = ExactMatrix.tridiagonal(zeros, [0] * n,
                                    [es * bracket(q, d - i) for i in range(d)])
        kinv = ExactMatrix.diag(inv_weights)
        x = ExactMatrix.combination(((1, kinv), (q - q.inverse(), f)))
        y = ExactMatrix.combination(((1, kinv),
                                     (-q * (q - q.inverse()), kinv @ e)))
        act = UqAction(q, x, y, weights, kinv)
        # x and y solve back to f and e: x - z^-1 = (q - q^-1) f, and
        # 1 - z y = q (q - q^-1) e given k kinv = 1, which verify checks
        act.verify()
        return act
    if basis not in ("x-eigen", "y-eigen", "z-eigen"):
        raise ValueError(f"unknown basis {basis!r}")
    raising = ExactMatrix.tridiagonal(
        [es * (q ** -d - q ** (2 * i + 2 - d)) for i in range(d)],
        inv_weights, zeros)
    lowering = ExactMatrix.tridiagonal(
        zeros, inv_weights,
        [es * (q ** d - q ** (2 * i - d)) for i in range(d)])
    if basis == "x-eigen":
        x, y, z = weights, raising, lowering
    elif basis == "y-eigen":
        y, z, x = weights, raising, lowering
    else:
        z, x, y = weights, raising, lowering
    act = UqAction(q, x, y, z, inverse(z))
    act.verify()
    check_sum_vector(act, d, eps, basis)
    return act


def check_sum_vector(act: UqAction, d: int, eps: int, basis: str):
    """u = sum of the eigenbasis vectors satisfies the two companion
    normalizations (e.g. eps y u = q^-d u and eps z u = q^d u for the
    x-eigenbasis)."""
    n = d + 1
    u = ExactMatrix.from_rows([[1] for _ in range(n)])
    es = ExactScalar(eps)
    lo = act.q ** -d
    hi = act.q ** d
    pairs = {
        "x-eigen": ((act.Y, lo), (act.Z, hi)),
        "y-eigen": ((act.Z, lo), (act.X, hi)),
        "z-eigen": ((act.X, lo), (act.Y, hi)),
    }[basis]
    for mat, val in pairs:
        if (mat @ u).scale(es) != u.scale(val):
            raise AssertionError("sum vector normalization fails")
