from fractions import Fraction

import numpy as np
import pytest

from dualpolar.drg import b_pow, closed_form_intersection, td_scalars
from dualpolar.exact import ExactScalar
from dualpolar.linexact import ExactMatrix, kernel
from dualpolar.terwilliger import (
    _omega_coeffs,
    aw_module_scalars,
    build_context,
    central_characterization_matrix,
    central_elements,
    chi0,
    chi1,
    chi2,
    commutes,
    decompose,
    extract_module,
    upsilon_psi_lambda,
    verify_center_commutation,
    verify_center_identities,
    verify_g_entry_table,
    verify_lfrk,
    verify_lfrk_recovery,
    verify_lrf_commutations,
    verify_omega_entry_table,
    verify_tridiagonal_relations,
)
from dualpolar.uqsl2 import casimir_scalar


@pytest.fixture(scope="module")
def ctx_c32(graph_c32, bm_c32):
    return build_context(graph_c32, bm_c32, 0)


@pytest.fixture(scope="module")
def ctx_d32(graph_d32, bm_d32):
    return build_context(graph_d32, bm_d32, 0)


@pytest.fixture(scope="module")
def cents_c32(ctx_c32):
    return central_elements(ctx_c32)


@pytest.fixture(scope="module")
def cents_d32(ctx_d32):
    return central_elements(ctx_d32)


@pytest.fixture(scope="module")
def comps_c32(ctx_c32, cents_c32):
    return decompose(ctx_c32, cents_c32)


@pytest.fixture(scope="module")
def comps_d32(ctx_d32, cents_d32):
    return decompose(ctx_d32, cents_d32)


def test_context_invariants(ctx_c32):
    ctx = ctx_c32
    assert ctx.A == ctx.L + ctx.F + ctx.R
    assert ctx.L.T == ctx.R
    assert ctx.F.T == ctx.F
    assert ctx.K.entry(0, 0) == ExactScalar(1)  # K_xx = q^0
    # trace E*_1 = valency at the base vertex
    assert ctx.Estar[1].trace() == ExactScalar(14)
    # A* entry at a neighbor is theta*_1 = 25/2
    y = int(np.nonzero(ctx.dist_x == 1)[0][0])
    assert ctx.Astar.entry(y, y) == ExactScalar(Fraction(25, 2))


def test_estar_a_estar_vanishing(ctx_c32):
    # E*_i A E*_j = 0 whenever |i - j| > 1
    for i in range(4):
        for j in range(4):
            prod = ctx_c32.Estar[i] @ ctx_c32.A @ ctx_c32.Estar[j]
            if abs(i - j) > 1:
                assert prod.is_zero()


def test_lfrk_relations_c32(ctx_c32):
    report = verify_lfrk(ctx_c32)
    assert len(report) == 7
    assert all(item["status"] == "pass" for item in report)
    # spot: K L = q^2 L K with q^2 = 2
    assert ctx_c32.K @ ctx_c32.L == (ctx_c32.L @ ctx_c32.K).scale(2)
    # the cubic relation with its scalar: q^(2e+2D-2) = q^6 = 8
    L, R = ctx_c32.L, ctx_c32.R
    lhs = (R @ L @ L).scale(Fraction(4, 3)) - (L @ R @ L) \
        + (L @ L @ R).scale(Fraction(1, 6))
    assert lhs == L.scale(-8)


def test_lfrk_relations_d32(ctx_d32):
    report = verify_lfrk(ctx_d32)
    assert all(item["status"] == "pass" for item in report)
    # e = 0 degenerate case: LF - q^2 FL = 0 (and F = 0 here outright)
    L, F = ctx_d32.L, ctx_d32.F
    assert (L @ F - (F @ L).scale(2)).is_zero()
    assert F.is_zero()


def test_lfrk_recovery_and_commutations(ctx_c32, ctx_d32):
    for ctx in (ctx_c32, ctx_d32):
        assert verify_lfrk_recovery(ctx)
        assert verify_lrf_commutations(ctx)
        assert verify_tridiagonal_relations(ctx)


def test_chi_values_c32(ctx_c32):
    assert chi0(ctx_c32, 0, 0, 3) == ExactScalar(1)
    assert chi1(ctx_c32, 0, 0, 3) == ExactScalar(Fraction(17, 3))
    assert chi2(ctx_c32, 0, 0, 3) == ExactScalar(Fraction(1, 3))


def test_central_commute(ctx_c32, cents_c32):
    for m in (cents_c32.C0, cents_c32.C1, cents_c32.C2, cents_c32.Omega,
              cents_c32.G, cents_c32.Gstar):
        assert commutes(m, ctx_c32.A)
        assert commutes(m, ctx_c32.Astar)


def _g_table_by_entry(ctx, G):
    """Reference: the G entry table checked pair by pair."""
    spec = ctx.g.spec
    b = spec.b
    xi = ctx.bm.xi
    rho = td_scalars(spec)[3]
    cvals, _, bvals = closed_form_intersection(spec)
    adj = ctx.g.adjacency.astype(np.int64)
    dist, dist_x = ctx.g.dist, ctx.dist_x
    cnt = {j: adj @ np.diag((dist_x == j).astype(np.int64)) @ adj
           for j in range(ctx.D + 2)}
    for y in range(ctx.n):
        for z in range(ctx.n):
            s = int(dist_x[y])
            if s != int(dist_x[z]):
                want = 0
            elif y == z:
                want = xi * Fraction(1, b ** (s + 1)) * (1 - b * b) \
                    * (b * cvals[s] - Fraction(bvals[s], b)) \
                    - rho * ctx.bm.theta_star[s]
            elif dist[y, z] == 1:
                want = xi * Fraction(1, b ** (s + 1)) * (1 - b) \
                    * (b * b + b + b_pow(b, spec.e) - 1)
            elif dist[y, z] == 2:
                up = int(cnt[s + 1][y, z]) if s + 1 <= ctx.D else 0
                down = int(cnt[s - 1][y, z]) if s >= 1 else 0
                if up == 0:
                    want = xi * Fraction(1, b ** s) * (1 - b * b) * down
                else:
                    want = -xi * Fraction(1, b ** (s + 1)) * (b + 1) \
                        * (b - 1) ** 2
            else:
                want = 0
            if G.entry(y, z) != ExactScalar(want):
                return False
    return True


def _omega_table_by_entry(ctx, omega):
    """Reference: the Omega entry table checked pair by pair."""
    alpha, beta = _omega_coeffs(ctx)
    for y in range(ctx.n):
        for z in range(ctx.n):
            s = int(ctx.dist_x[y])
            if s != int(ctx.dist_x[z]):
                want = 0
            elif y == z:
                want = beta[s]
            elif ctx.g.dist[y, z] == 1:
                want = alpha.get(s, 0)
            else:
                want = 0
            if omega.entry(y, z) != ExactScalar(want):
                return False
    return True


def _bumped(m, y, z):
    """Copy of m with entry (y, z) raised by 1/den."""
    n0 = m.n0.copy()
    n0[y, z] += 1
    return ExactMatrix(n0, m.n1, m.den, m.rad)


def _pair_kinds(ctx):
    """One vertex pair of each kind the entry tables tell apart."""
    dx, dist = ctx.dist_x, ctx.g.dist
    same = dx[:, None] == dx[None, :]
    kinds = [same & (dist == 0), same & (dist == 1), same & (dist == 2),
             ~same]
    # D_3(2) has no adjacent pair at one distance from x
    return [tuple(int(v) for v in np.argwhere(k)[0]) for k in kinds if k.any()]


def _check_entry_tables(ctx, cents):
    """Both implementations accept G and Omega and reject a copy of either
    with one entry changed, at a pair of each kind."""
    assert verify_omega_entry_table(ctx, cents.Omega)
    assert verify_g_entry_table(ctx, cents.G)
    assert _omega_table_by_entry(ctx, cents.Omega)
    assert _g_table_by_entry(ctx, cents.G)
    for y, z in _pair_kinds(ctx):
        omega = _bumped(cents.Omega, y, z)
        assert not verify_omega_entry_table(ctx, omega)
        assert not _omega_table_by_entry(ctx, omega)
        G = _bumped(cents.G, y, z)
        assert not verify_g_entry_table(ctx, G)
        assert not _g_table_by_entry(ctx, G)


def test_entry_tables(ctx_c32, cents_c32):
    _check_entry_tables(ctx_c32, cents_c32)


def test_entry_tables_d32(ctx_d32, cents_d32):
    _check_entry_tables(ctx_d32, cents_d32)


def test_central_characterization(ctx_c32):
    m1 = central_characterization_matrix(ctx_c32, 1, 0)
    m2 = central_characterization_matrix(ctx_c32, Fraction(3, 2), 2)
    assert commutes(m1, ctx_c32.A)
    assert commutes(m2, ctx_c32.A)
    mp = central_characterization_matrix(ctx_c32, 1, 0, perturb=True)
    assert not commutes(mp, ctx_c32.A)


def test_central_characterization_degenerate(ctx_d32):
    # with no same-distance edges the alpha part is annihilated
    assert ctx_d32.F.is_zero()
    mp = central_characterization_matrix(ctx_d32, 1, 0, perturb=True)
    assert commutes(mp, ctx_d32.A)


def test_decompose_c32(comps_c32):
    got = sorted((c.triple, c.mult) for c in comps_c32)
    assert ((0, 0, 3), 1) in got
    assert sum(c.dim for c in comps_c32) == 135
    primary = [c for c in comps_c32 if c.triple == (0, 0, 3)][0]
    assert primary.dim == 4 and primary.mult == 1


def test_decompose_d32(comps_d32):
    assert sum(c.dim for c in comps_d32) == 30
    for c in comps_d32:
        assert c.dim % (c.d + 1) == 0


def test_joint_kernel_bruteforce_oracle(ctx_d32, cents_d32, comps_d32):
    # independent route: stack (C_i - chi_i I) and row-reduce the whole
    # 90 x 30 system; compare with the ladder construction
    n = ctx_d32.n
    ident = ExactMatrix.identity(n)
    for comp in comps_d32:
        r, t, d = comp.triple
        stacked = ExactMatrix.stack_rows([
            cents_d32.C0 - ident.scale(chi0(ctx_d32, r, t, d)),
            cents_d32.C1 - ident.scale(chi1(ctx_d32, r, t, d)),
            cents_d32.C2 - ident.scale(chi2(ctx_d32, r, t, d)),
        ])
        ker = kernel(stacked)
        assert ker.dim == comp.dim
        assert ker.basis == comp.basis.basis


def test_kernel_of_c0_shift_c32(ctx_c32, cents_c32, comps_c32):
    # ker(C0 - chi0(0,0,3) I) is the sum of all components sharing that
    # central character; it contains the primary component and is
    # A- and A*-invariant
    val = chi0(ctx_c32, 0, 0, 3)
    m = cents_c32.C0 - ExactMatrix.identity(135).scale(val)
    ker = kernel(m)
    expect = sum(c.dim for c in comps_c32
                 if chi0(ctx_c32, *c.triple) == val)
    assert ker.dim == expect
    primary = [c for c in comps_c32 if c.triple == (0, 0, 3)][0]
    assert ker.contains_rows(primary.basis.basis)
    assert ker.contains_rows((ctx_c32.A @ ker.basis.T).T)
    assert ker.contains_rows((ctx_c32.Astar @ ker.basis.T).T)


def test_primary_module_is_span_of_distance_vectors(ctx_c32, comps_c32):
    # oracle: span{A_i e_x} is T-invariant of dimension 4 and equals the
    # primary component
    n = ctx_c32.n
    rows = []
    for i in range(4):
        rows.append([1 if ctx_c32.dist_x[y] == i else 0 for y in range(n)])
    m = ExactMatrix.from_rows(rows)
    primary = [c for c in comps_c32 if c.triple == (0, 0, 3)][0]
    assert primary.basis.contains_rows(m)
    assert primary.dim == 4


def test_center_identities(ctx_c32, cents_c32, comps_c32):
    center = upsilon_psi_lambda(ctx_c32, comps_c32)
    assert verify_center_commutation(ctx_c32, center)
    verify_center_identities(ctx_c32, cents_c32, center, comps_c32)
    # Upsilon acts as the identity on the primary component (mu = 0)
    primary = [c for c in comps_c32 if c.triple == (0, 0, 3)][0]
    bt = primary.basis.basis.T
    assert (center.Upsilon @ bt) == bt
    # Lambda acts on the primary component as (q^4 + q^-4)/(q - q^-1)^2
    assert casimir_scalar(ctx_c32.q, 3, 1) == ExactScalar(Fraction(17, 2))
    assert (center.Lam @ bt) == bt.scale(ExactScalar(Fraction(17, 2)))


def test_c2_on_primary_via_displacements(ctx_c32, cents_c32, comps_c32):
    # C2 = q^(2e-2)/(q^4-1) U^-2 P^-2 acts on the primary component as 1/3
    primary = [c for c in comps_c32 if c.triple == (0, 0, 3)][0]
    bt = primary.basis.basis.T
    third = ExactScalar(Fraction(1, 3))
    assert (cents_c32.C2 @ bt) == bt.scale(third)
    assert chi2(ctx_c32, 0, 0, 3) == third


def test_aw_scalar_action(ctx_c32, cents_c32, comps_c32):
    for c in comps_c32:
        om, eta, eta_star = aw_module_scalars(ctx_c32, *c.triple)
        bt = c.basis.basis.T
        assert (cents_c32.Omega @ bt) == bt.scale(ExactScalar(om))
        assert (cents_c32.G @ bt) == bt.scale(ExactScalar(eta))
        assert (cents_c32.Gstar @ bt) == bt.scale(ExactScalar(eta_star))


def test_extract_module_primary(ctx_c32, comps_c32):
    primary = [c for c in comps_c32 if c.triple == (0, 0, 3)][0]
    rec = extract_module(ctx_c32, primary)
    assert rec.c == [0, 1, 3, 7]
    assert rec.b == [14, 12, 8, 0]
    assert rec.a == [0, 1, 3, 7]
    assert all(ci + ai + bi == 14 for ci, ai, bi in zip(rec.c, rec.a, rec.b))
    # a*_0(W) = theta*_0 - b*_0(W)
    assert rec.astar[0] == ctx_c32.bm.theta_star[0] - rec.bstar[0]


def test_extract_module_diameter_zero(ctx_c32, comps_c32):
    comp = [c for c in comps_c32 if c.d == 0][0]
    rec = extract_module(ctx_c32, comp)
    r, t = comp.r, comp.t
    assert rec.a_std_rep.entry(0, 0) == ExactScalar(ctx_c32.bm.theta[t])
    assert rec.astar_dual_rep.entry(0, 0) == ExactScalar(
        ctx_c32.bm.theta_star[r])


def test_all_modules_extract(ctx_d32, comps_d32):
    # extract_module verifies tridiagonal shape, row sums and all six
    # closed-form entry families internally
    for c in sorted(comps_d32, key=lambda c: c.triple):
        rec = extract_module(ctx_d32, c)
        assert rec.dual_basis.shape == (c.d + 1, ctx_d32.n)
        assert rec.standard_basis.shape == (c.d + 1, ctx_d32.n)


def test_base_vertex_independence_small(graph_c32, bm_c32, comps_c32):
    base = sorted((c.triple, c.mult) for c in comps_c32)
    for x in (17, 100):
        ctx2 = build_context(graph_c32, bm_c32, x)
        li = decompose(ctx2, full=False)
        assert sorted((c.triple, c.mult) for c in li) == base
