import copy
import functools
import math
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dualpolar.drg import b_pow, closed_form_intersection, td_scalars
from dualpolar.exact import ExactScalar
from dualpolar.intarith import int_matmul
from dualpolar.leonard import intersection_data
from dualpolar.drg import spectral_data, verify_distance_regular
from dualpolar.linexact import ExactMatrix, kernel
from dualpolar import intlinalg, terwilliger
from dualpolar.polar import FormSpec, PolarGraph, build_polar_graph
from dualpolar.terwilliger import (
    _omega_coeffs,
    aw_module_scalars,
    build_context,
    central_characterization_matrix,
    central_elements,
    central_terms,
    chi0,
    chi1,
    chi2,
    decompose,
    extract_module,
    verify_center_commutation,
    verify_center_identities,
    verify_central_characterization,
    verify_central_construction,
    verify_g_entry_table,
    verify_lfrk,
    verify_lfrk_recovery,
    verify_lrf_commutations,
    verify_omega_entry_table,
    verify_tridiagonal_relations,
)
from dualpolar.uqsl2 import casimir_scalar

import dense_oracle
from dense_oracle import commutes


@pytest.fixture(scope="module")
def ctx_d32(graph_d32, bm_d32):
    return build_context(graph_d32, bm_d32, 0)


@pytest.fixture(scope="module")
def comps_d32(ctx_d32):
    return decompose(ctx_d32)


def _flat_is_zero(ctx):
    return not any(ctx.adj(s, s).any() for s in range(ctx.D + 1))


def _primary(comps):
    return next(c for c in comps if c.triple == (0, 0, 3))


def test_context_invariants(ctx_c32, comps_c32):
    ctx = ctx_c32
    adj = ctx.g.adjacency
    # A = L + F + R: the blocks hold every edge
    assert sum(int(ctx.adj(i, j).sum()) for i in range(4) for j in range(4)
               if ctx.adj(i, j) is not None) == int(adj.sum())
    for i in range(4):
        assert (ctx.adj(i, i).T == ctx.adj(i, i)).all()  # F^t = F
        if i < 3:
            assert (ctx.adj(i, i + 1).T == ctx.adj(i + 1, i)).all()  # L^t = R
    assert terwilliger._on_block(ctx, [(1, "K")], 0) == {"": 1}  # q^0
    # |B_1| = trace E*_1 = valency at the base vertex
    assert len(ctx.blocks[1]) == 14
    # A* on a neighbor, rung 1 of the primary module, is theta*_1 = 25/2
    assert _primary(comps_c32).action.Astar.entry(1, 1) == ExactScalar(
        Fraction(25, 2))


def test_adjacency_blocks_are_the_graphs_uint8(ctx_c32):
    """The context keeps the graph's own uint8 blocks, with no int64 copy."""
    blocks = [ctx_c32.adj(i, j) for i in range(ctx_c32.D + 1)
              for j in (i - 1, i, i + 1)]
    assert {b.dtype for b in blocks if b is not None} == {np.dtype(np.uint8)}
    assert ctx_c32.g.adjacency.dtype == np.uint8


def test_estar_a_estar_vanishing(ctx_c32):
    # E*_i A E*_j = 0 whenever |i - j| > 1, so there is no such block
    for i in range(4):
        for j in range(4):
            block = ctx_c32.g.adjacency[np.ix_(ctx_c32.blocks[i],
                                               ctx_c32.blocks[j])]
            if abs(i - j) > 1:
                assert not block.any()
                assert ctx_c32.adj(i, j) is None


def test_lfrk_relations_c32(ctx_c32, comps_c32):
    report = verify_lfrk(ctx_c32, comps_c32)
    assert list(report) == list(terwilliger.LFRK_STATEMENTS)
    assert all(out == (True, None) for out in report.values())
    # spot: K L = q^2 L K with q^2 = 2, on every ladder
    assert all(c.action.evaluate([(1, "KL"), (-2, "LK")]).is_zero()
               for c in comps_c32)
    # the cubic relation with its scalar: q^(2e+2D-2) = q^6 = 8; with 7 the
    # residual is -L, first nonzero on the first component with d > 0
    cubic = [(Fraction(4, 3), "RLL"), (-1, "LRL"), (Fraction(1, 6), "LLR")]
    assert terwilliger._on_ladders(comps_c32, [cubic + [(8, "L")]]) \
        == (True, None)
    ok, witness = terwilliger._on_ladders(comps_c32, [cubic + [(7, "L")]])
    first = next(c for c in comps_c32 if c.d > 0)
    assert not ok and witness == {
        "component": list(first.triple), "entry": [0, 1],
        "value": (-first.action.L.entry(0, 1)).render()}


def test_lfrk_relations_d32(ctx_d32, comps_d32):
    report = verify_lfrk(ctx_d32, comps_d32)
    assert all(out == (True, None) for out in report.values())
    # e = 0 degenerate case: LF - q^2 FL = 0 (and F = 0 here outright)
    assert all(c.action.evaluate([(1, "LF"), (-2, "FL")]).is_zero()
               and c.action.F.is_zero() for c in comps_d32)
    assert _flat_is_zero(ctx_d32)


def test_lfrk_recovery_and_commutations(ctx_c32, ctx_d32, comps_c32,
                                        comps_d32):
    for ctx, comps in ((ctx_c32, comps_c32), (ctx_d32, comps_d32)):
        assert verify_lfrk_recovery(ctx, comps) == (True, None)
        assert verify_lrf_commutations(ctx, comps) == (True, None)
        assert verify_tridiagonal_relations(ctx, comps) == (True, None)


def test_chi_values_c32(ctx_c32):
    assert chi0(ctx_c32, 0, 0, 3) == ExactScalar(1)
    assert chi1(ctx_c32, 0, 0, 3) == ExactScalar(Fraction(17, 3))
    assert chi2(ctx_c32, 0, 0, 3) == ExactScalar(Fraction(1, 3))


def test_central_commute(ctx_c32, comps_c32):
    """Each of the six central elements acts on every ladder as a scalar,
    so it commutes with A and A* there; L, which moves between
    subconstituents, does not commute with A*."""
    assert verify_central_construction(ctx_c32, comps_c32) == (True, None)
    for c in comps_c32:
        act = c.action
        for terms in central_terms(ctx_c32):
            m = act.evaluate(terms)
            assert m == ExactMatrix.identity(c.d + 1).scale(m.entry(0, 0))
            assert commutes(m, act.A) and commutes(m, act.Astar)
        assert commutes(act.L, act.Astar) == (c.d == 0)


def test_central_commutation_certified_on_c0_c1_c2_only(ctx_c32, comps_c32,
                                                         monkeypatch):
    """`decompose` certifies C0, C1 and C2 alone against their scalars
    chi_k, on every ladder; the construction check compares Omega, G and
    G* with their C0, C1 expressions and evaluates no C_k by itself.  A
    fresh context: the closed forms of ctx_c32 keep each triple's
    certificate from the decomposition of the fixture."""
    calls = []
    real = terwilliger.LadderAction.evaluate
    monkeypatch.setattr(terwilliger.LadderAction, "evaluate",
                        lambda self, terms: calls.append(terms)
                        or real(self, terms))
    comps = decompose(build_context(ctx_c32.g, ctx_c32.bm, 0))
    c_terms = list(central_terms(ctx_c32)[:3])
    assert calls == c_terms * len(comps)
    calls.clear()
    assert verify_central_construction(ctx_c32, comps) == (True, None)
    assert len(calls) == 4 * len(comps)
    assert not any(terms in c_terms for terms in calls)


@pytest.mark.parametrize("index,name", [(3, "Omega"), (4, "G"), (5, "G*")])
@pytest.mark.parametrize("term", [0, -1], ids=["first-term", "last-term"])
def test_central_refuses_a_shifted_term(ctx_c32, comps_c32, monkeypatch,
                                        index, name, term):
    """One coefficient of the words of Omega, G or G* moved by 1: the
    element no longer equals its C0, C1 expression on some ladder.  A moved
    constant term adds I to the residual, seen first at entry (0, 0) of
    the first component."""
    real = terwilliger.central_terms

    def shifted(ctx):
        terms = [list(t) for t in real(ctx)]
        coeff, word = terms[index][term]
        terms[index][term] = (coeff + 1, word)
        return tuple(terms)

    monkeypatch.setattr(terwilliger, "central_terms", shifted)
    # a fresh context: the identities are built once per context
    ctx = build_context(ctx_c32.g, ctx_c32.bm, 0)
    ok, witness = verify_central_construction(ctx, comps_c32)
    assert not ok
    assert tuple(witness["component"]) in [c.triple for c in comps_c32]
    if term == -1:
        assert witness == {"component": list(comps_c32[0].triple),
                           "entry": [0, 0], "value": "1"}


def _g_table_by_entry(ctx, G):
    """Reference: the G entry table checked pair by pair."""
    spec = ctx.g.spec
    b = spec.b
    xi = ctx.bm.xi
    rho = td_scalars(spec)[3]
    cvals, _, bvals = closed_form_intersection(spec)
    adj = ctx.g.adjacency.astype(np.int64)
    dist = dense_oracle.bfs_distances(ctx.g.adjacency)
    dist_x = dense_oracle.base_distances(ctx)
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
    dist_x = dense_oracle.base_distances(ctx)
    for y in range(ctx.n):
        for z in range(ctx.n):
            s = int(dist_x[y])
            if s != int(dist_x[z]):
                want = 0
            elif y == z:
                want = beta[s]
            elif ctx.g.adjacency[y, z]:
                want = alpha.get(s, 0)
            else:
                want = 0
            if omega.entry(y, z) != ExactScalar(want):
                return False
    return True


def _tables(ctx):
    """A graph's context with the word coefficients of Omega and G, and the
    oracle's context and n x n central elements."""
    dctx = dense_oracle.dense_context(ctx.g, ctx.bm, 0)
    return SimpleNamespace(ctx=ctx, cents=central_elements(ctx), dctx=dctx,
                           dense=dense_oracle.central_elements(dctx))


@pytest.fixture(scope="module")
def tables_c32(ctx_c32):
    return _tables(ctx_c32)


@pytest.fixture(scope="module")
def tables_d32(ctx_d32):
    return _tables(ctx_d32)


@pytest.fixture(scope="module", params=["c32", "d32"])
def tables(request):
    return request.getfixturevalue(f"tables_{request.param}")


def _bumped(m, y, z):
    """Copy of m with entry (y, z) raised by 1/den."""
    n0 = m.n0.copy()
    n0[y, z] += 1
    return ExactMatrix(n0, m.n1, m.den, m.rad)


def _pair_kinds(ctx):
    """One vertex pair of each kind the entry tables tell apart."""
    dx = dense_oracle.base_distances(ctx)
    dist = dense_oracle.bfs_distances(ctx.g.adjacency)
    same = dx[:, None] == dx[None, :]
    kinds = [same & (dist == 0), same & (dist == 1), same & (dist == 2),
             ~same]
    # D_3(2) has no adjacent pair at one distance from x
    return [tuple(int(v) for v in np.argwhere(k)[0]) for k in kinds if k.any()]


def _check_entry_tables(tables):
    """The word coefficients give the oracle's n x n Omega and G, which the
    oracle's tables and the pair-by-pair references accept, and so do the
    coefficient checks.  The oracle's tables and the references reject a
    copy of either with one entry raised, at a pair of each kind, a pair at
    two distances from x included."""
    ctx, cents, dctx = tables.ctx, tables.cents, tables.dctx
    omega = dense_oracle.from_words(ctx, cents.Omega)
    g = dense_oracle.from_words(ctx, cents.G)
    assert omega == tables.dense.Omega and g == tables.dense.G
    assert verify_omega_entry_table(ctx, cents.Omega) == (True, None)
    assert verify_g_entry_table(ctx, cents.G) == (True, None)
    for x, oracle, by_entry in (
            (omega, dense_oracle.verify_omega_entry_table,
             _omega_table_by_entry),
            (g, dense_oracle.verify_g_entry_table, _g_table_by_entry)):
        assert oracle(dctx, x) and by_entry(ctx, x)
        for y, z in _pair_kinds(ctx):
            assert not oracle(dctx, _bumped(x, y, z))
            assert not by_entry(ctx, _bumped(x, y, z))


def test_entry_tables(tables_c32):
    _check_entry_tables(tables_c32)


def test_entry_tables_d32(tables_d32):
    _check_entry_tables(tables_d32)


def _witness(ctx, y, z, cls, value, table):
    return {"block": int(dense_oracle.base_distances(ctx)[y]), "pair": [int(y), int(z)],
            "class": cls, "value": str(value), "table": str(table)}


def _entry(m, y, z) -> Fraction:
    return m.entry(int(y), int(z)).as_fraction()


def _moved(words, s, word, by):
    """A copy of the word coefficients with words[s][word] moved by `by`."""
    out = [dict(w) for w in words]
    out[s][word] = out[s].get(word, 0) + by
    return out


@pytest.mark.parametrize("which", ["alpha", "beta"])
def test_omega_table_refuses_a_moved_alpha_or_beta(tables, monkeypatch,
                                                   which):
    """alpha_1 or beta_1 moved by 1: the table fails at the first pair of
    its class in B_1, the diagonal or the first one of F_1.  D_3(2) has no
    adjacent pair at one distance from x, so alpha is read nowhere there."""
    ctx = tables.ctx
    alpha, beta = _omega_coeffs(ctx)
    moved = {"alpha": alpha, "beta": beta}[which]
    real = moved[1]
    moved[1] += 1
    monkeypatch.setattr(terwilliger, "_omega_coeffs",
                        lambda _: (alpha, beta))
    ok, witness = verify_omega_entry_table(ctx, tables.cents.Omega)
    ones = np.argwhere(ctx.adj(1, 1))
    if which == "alpha" and not len(ones):
        assert (ok, witness) == (True, None)
        return
    block = ctx.blocks[1]
    y, z = (block[0], block[0]) if which == "beta" else block[ones[0]]
    cls = "diagonal" if which == "beta" else "adjacent"
    assert not ok and witness == _witness(ctx, y, z, cls, real, real + 1)


@pytest.mark.parametrize("element,s,word,by", [
    ("Omega", 2, "", 1), ("G", 2, "RL", Fraction(1, 3)), ("G", 1, "LR", 1),
    ("G", 0, "", 2 ** 70)], ids=["Omega-I", "G-RL", "G-LR", "G-I-huge"])
def test_entry_tables_refuse_a_moved_word_coefficient(tables, element, s,
                                                      word, by):
    """One word coefficient of Omega or G on block s moved: the first
    diagonal entry of B_s moves by `by` times the count of the word there
    (1 for I), and the table fails there.  A coefficient of 2^70 leaves
    int64 for Python ints, and the witness stays exact."""
    ctx = tables.ctx
    check = {"Omega": verify_omega_entry_table, "G": verify_g_entry_table}
    words = getattr(tables.cents, element)
    y = ctx.blocks[s][0]
    count = 1 if word == "" else int(
        ctx.two_step(s, s - 1 if word == "RL" else s + 1)[0, 0])
    table = _entry(getattr(tables.dense, element), y, y)
    ok, witness = check[element](ctx, _moved(words, s, word, by))
    assert not ok and witness == _witness(ctx, y, y, "diagonal",
                                          table + by * count, table)


def _counts_moved(ctx, s, h, i, j):
    """A copy of ctx whose cache holds A[B_s, B_h] A[B_h, B_s] with entry
    (i, j) raised by 1."""
    out = copy.copy(ctx)
    out._two = dict(ctx._two)
    out._two[s, h] = ctx.two_step(s, h).copy()
    out._two[s, h][i, j] += 1
    return out


@pytest.mark.parametrize("where", ["RL-diagonal", "LR-off-diagonal"])
def test_g_table_refuses_a_moved_count(tables, where):
    """One common-neighbour count inside a block raised by 1, in a copy of
    the context's cache: on the diagonal of RL_2, or at the first pair of
    B_1 with a common neighbour in B_2.  The table fails at that pair, by
    the word's coefficient."""
    ctx, words = tables.ctx, tables.cents.G
    if where == "RL-diagonal":
        s, h, (i, j), cls = 2, 1, (0, 0), "diagonal"
    else:
        s, h = 1, 2
        lr = ctx.two_step(s, h)
        i, j = next((i, j) for i, j in np.argwhere(lr) if i != j)
        cls = "adjacent" if ctx.adj(s, s)[i, j] else \
            "distance 2, common neighbour at s+1"
    y, z = ctx.blocks[s][i], ctx.blocks[s][j]
    table = _entry(tables.dense.G, y, z)
    value = table + words[s]["RL" if h < s else "LR"]
    ok, witness = verify_g_entry_table(_counts_moved(ctx, s, h, i, j), words)
    assert not ok and witness == _witness(ctx, y, z, cls, value, table)


def test_entry_tables_build_no_exact_matrix(ctx_c32, cents_c32,
                                            monkeypatch):
    """Both tables are checked from the word coefficients and the integer
    blocks of the context: no ExactMatrix is constructed."""
    made = []
    init = ExactMatrix.__init__
    monkeypatch.setattr(ExactMatrix, "__init__",
                        lambda self, *a, **k: made.append(1)
                        or init(self, *a, **k))
    assert verify_omega_entry_table(ctx_c32, cents_c32.Omega) == (True, None)
    assert verify_g_entry_table(ctx_c32, cents_c32.G) == (True, None)
    assert made == []


@pytest.mark.parametrize("word", ["KR", "L"])
def test_block_words_refuse_to_leave_their_block(ctx_c32, word):
    """Omega and G are read by their word coefficients on the diagonal
    blocks, K folded in as b^-s; a two-step product through a missing block
    is dropped, and a word that maps E*_s V elsewhere is refused, not
    dropped."""
    assert terwilliger._on_block(ctx_c32, [(1, "KF"), (1, "KKLR")], 1) \
        == {"F": Fraction(1, 2), "LR": Fraction(1, 4)}
    assert terwilliger._on_block(ctx_c32, [(1, "KRL"), (3, "")], 0) \
        == {"": 3}
    with pytest.raises(ValueError, match=re.escape(
            f"word {word!r} does not map E*_1 V to itself")):
        terwilliger._on_block(ctx_c32, [(1, "KF"), (1, word)], 1)


def _commutes_on_ladders(ctx, comps, *args):
    """central_characterization_matrix(*args) commutes with A on every
    ladder."""
    return all(commutes(central_characterization_matrix(ctx, c, *args),
                        c.action.A) for c in comps)


def test_central_characterization(ctx_c32, comps_c32):
    assert verify_central_characterization(ctx_c32, comps_c32) \
        == (True, None)
    assert _commutes_on_ladders(ctx_c32, comps_c32, 1, 0)
    assert _commutes_on_ladders(ctx_c32, comps_c32, Fraction(3, 2), 2)
    assert not _commutes_on_ladders(ctx_c32, comps_c32, 1, 0, True)


def test_central_characterization_degenerate(ctx_d32, comps_d32):
    # with no same-distance edges the alpha part is annihilated
    assert _flat_is_zero(ctx_d32)
    assert _commutes_on_ladders(ctx_d32, comps_d32, 1, 0, True)
    assert verify_central_characterization(ctx_d32, comps_d32) \
        == (True, None)


def test_central_characterization_names_the_perturbed_alpha(
        ctx_c32, comps_c32, monkeypatch):
    """A perturbation that no longer moves alpha_2 leaves the matrix
    commuting with A on every ladder, although F does not vanish there:
    the check fails and names the perturbed index."""
    real = terwilliger.central_characterization_matrix
    monkeypatch.setattr(terwilliger, "central_characterization_matrix",
                        lambda ctx, comp, a1, b0, perturb=False:
                        real(ctx, comp, a1, b0))
    assert verify_central_characterization(ctx_c32, comps_c32) == (
        False, {"perturbed_alpha": 2, "commutes": True})


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


def _contains_rows(basis: ExactMatrix, pivots, m: ExactMatrix) -> bool:
    """Every row of m lies in the row space of the RREF rows `basis`."""
    return m == m.submatrix(range(m.shape[0]), list(pivots)) @ basis


def test_joint_kernel_bruteforce_oracle(graph_d32, bm_d32, ctx_d32,
                                        comps_d32):
    # independent route: stack the dense (C_i - chi_i I) and row-reduce the
    # whole 90 x 30 system; compare with the ladder construction
    dctx = dense_oracle.dense_context(graph_d32, bm_d32, 0)
    cents = dense_oracle.central_elements(dctx)
    ident = ExactMatrix.identity(dctx.n)
    for comp in comps_d32:
        r, t, d = comp.triple
        stacked = ExactMatrix.stack_rows([
            cents.C0 - ident.scale(chi0(ctx_d32, r, t, d)),
            cents.C1 - ident.scale(chi1(ctx_d32, r, t, d)),
            cents.C2 - ident.scale(chi2(ctx_d32, r, t, d)),
        ])
        ker, pivots = kernel(stacked)
        assert ker.shape[0] == comp.dim
        assert (ker, pivots) == dense_oracle.component_basis(ctx_d32, comp)


def test_kernel_of_c0_shift_c32(graph_c32, bm_c32, ctx_c32, comps_c32):
    # ker(C0 - chi0(0,0,3) I) is the sum of all components sharing that
    # central character; it contains the primary component and is
    # A- and A*-invariant
    dctx = dense_oracle.dense_context(graph_c32, bm_c32, 0)
    val = chi0(ctx_c32, 0, 0, 3)
    m = dense_oracle.central_elements(dctx).C0 \
        - ExactMatrix.identity(135).scale(val)
    ker, pivots = kernel(m)
    expect = sum(c.dim for c in comps_c32
                 if chi0(ctx_c32, *c.triple) == val)
    assert ker.shape[0] == expect
    primary = [c for c in comps_c32 if c.triple == (0, 0, 3)][0]
    assert _contains_rows(ker, pivots, dense_oracle.component_basis(
        ctx_c32, primary)[0])
    assert _contains_rows(ker, pivots, (dctx.A @ ker.T).T)
    assert _contains_rows(ker, pivots, (dctx.Astar @ ker.T).T)


def test_primary_module_is_span_of_distance_vectors(ctx_c32, comps_c32):
    # oracle: span{A_i e_x} is T-invariant of dimension 4 and equals the
    # primary component
    dist_x = dense_oracle.base_distances(ctx_c32)
    rows = [(dist_x == i).astype(int).tolist() for i in range(4)]
    m = ExactMatrix.from_rows(rows)
    primary = [c for c in comps_c32 if c.triple == (0, 0, 3)][0]
    assert _contains_rows(*dense_oracle.component_basis(ctx_c32, primary), m)
    assert primary.dim == 4


def test_center_identities(ctx_c32, cents_c32, comps_c32, center_c32):
    center = center_c32
    assert verify_center_commutation(ctx_c32, center)
    verify_center_identities(ctx_c32, center)
    assert sorted(center.Upsilon) == sorted(c.triple for c in comps_c32)
    # Upsilon acts as the identity on the primary component (mu = 0)
    assert center.Upsilon[(0, 0, 3)] == ExactScalar(1)
    # Lambda acts on the primary component as (q^4 + q^-4)/(q - q^-1)^2
    assert casimir_scalar(ctx_c32.q, 3, 1) == ExactScalar(Fraction(17, 2))
    assert center.Lam[(0, 0, 3)] == ExactScalar(Fraction(17, 2))
    # a displacement weight off by a factor q breaks the C0 expression
    bad = replace(center, Upsilon={**center.Upsilon,
                                   (1, 1, 1): ctx_c32.q})
    with pytest.raises(AssertionError,
                       match="C0 displacement expression fails"):
        verify_center_identities(ctx_c32, bad)


def _moved_closed_form(name):
    """terwilliger.<name> with one value moved by 1: chi2, the a2 term of
    Omega, G or G* in C0 and C1, or the closed Omega module scalar."""
    if name in ("Omega", "G", "G*"):
        real, k = terwilliger._central_by_c0_c1, ("Omega", "G", "G*").index(
            name)
        return "_central_by_c0_c1", lambda ctx: [
            (a0, a1, a2 + (i == k)) for i, (a0, a1, a2) in enumerate(
                real(ctx))]
    real = getattr(terwilliger, name)
    if name == "aw_module_scalars":
        return name, lambda ctx, *t: (real(ctx, *t)[0] + 1, *real(ctx, *t)[1:])
    return name, lambda ctx, *t: real(ctx, *t) + 1


@pytest.mark.parametrize("name,message", [
    ("chi2", "C2 displacement expression fails"),
    ("Omega", "Omega displacement expression fails"),
    ("G", "^G displacement expression fails"),
    ("G*", re.escape("G* displacement expression fails")),
    ("aw_module_scalars", "central action on \\(0, 0, 3\\) disagrees with "
     "the closed module scalar"),
])
def test_center_identities_refuse_a_moved_closed_form(
        ctx_c32, center_c32, monkeypatch, name, message):
    monkeypatch.setattr(terwilliger, *_moved_closed_form(name))
    with pytest.raises(AssertionError, match=message):
        verify_center_identities(ctx_c32, center_c32)


@pytest.mark.parametrize("weight", ["Upsilon", "Psi", "Lam"])
def test_center_commutation_refuses_missing_or_extra_triples(
        ctx_c32, center_c32, weight):
    """Each weight is central as a combination of the projections onto the
    certified components; one that misses a component, or holds a scalar
    for a triple that is none, is not such a combination."""
    values = getattr(center_c32, weight)
    missing = {k: v for k, v in values.items() if k != (0, 0, 3)}
    extra = {**values, (0, 0, 0): ExactScalar(1)}  # r + t + d < D
    for bad in (missing, extra):
        assert not verify_center_commutation(
            ctx_c32, replace(center_c32, **{weight: bad}))


def test_c2_on_primary_via_displacements(ctx_c32, comps_c32):
    # C2 = q^(2e-2)/(q^4-1) U^-2 P^-2 acts on the primary component as 1/3
    c2 = _primary(comps_c32).action.evaluate(central_terms(ctx_c32)[2])
    third = ExactScalar(Fraction(1, 3))
    assert c2 == ExactMatrix.identity(4).scale(third)
    assert c2 != ExactMatrix.identity(4)
    assert chi2(ctx_c32, 0, 0, 3) == third


def test_aw_scalar_action(ctx_c32, comps_c32, tables_c32):
    """The oracle's n x n Omega and G act on the n-wide basis of every
    component as its closed module scalars; G*, built on the ladder only,
    acts there as its own."""
    cents = tables_c32.dense
    gstar = central_terms(ctx_c32)[5]
    for c in comps_c32:
        om, eta, eta_star = aw_module_scalars(ctx_c32, *c.triple)
        basis = dense_oracle.component_basis(ctx_c32, c)[0].T
        assert cents.Omega @ basis == basis.scale(ExactScalar(om))
        assert cents.G @ basis == basis.scale(ExactScalar(eta))
        assert c.action.evaluate(gstar) == ExactMatrix.identity(
            c.d + 1).scale(eta_star)


def test_extract_module_primary(ctx_c32, comps_c32):
    primary = [c for c in comps_c32 if c.triple == (0, 0, 3)][0]
    c, a, b, cs, as_, bs = (
        [x.as_fraction() for x in f]
        for f in intersection_data(extract_module(ctx_c32, primary)))
    assert c == [0, 1, 3, 7]
    assert b == [14, 12, 8, 0]
    assert a == [0, 1, 3, 7]
    assert all(ci + ai + bi == 14 for ci, ai, bi in zip(c, a, b))
    # a*_0(W) = theta*_0 - b*_0(W)
    assert as_[0] == ctx_c32.bm.theta_star[0] - bs[0]


def test_extract_module_diameter_zero(ctx_c32, comps_c32):
    comp = [c for c in comps_c32 if c.d == 0][0]
    pa = extract_module(ctx_c32, comp)
    r, t = comp.r, comp.t
    assert pa.theta == (ExactScalar(ctx_c32.bm.theta[t]),)
    assert pa.theta_star == (ExactScalar(ctx_c32.bm.theta_star[r]),)
    _, a, _, _, as_, _ = intersection_data(pa)
    assert (a, as_) == (list(pa.theta), list(pa.theta_star))


def test_extract_module_refuses_a_moved_ladder(ctx_c32, comps_c32):
    """A* moved by 1 on rung 0 of a W(r, t, 1) no longer has the
    eigenvalue theta*_r on its diagonal."""
    comp = next(c for c in comps_c32 if c.d == 1)
    moved = replace(comp, action=replace(
        comp.action, Astar=comp.action.Astar + ExactMatrix.diag([1, 0])))
    theta_star_r = ExactScalar(ctx_c32.bm.theta_star[comp.r])
    with pytest.raises(AssertionError, match=re.escape(
            f"{theta_star_r.render()} is not on the diagonal")):
        extract_module(ctx_c32, moved)


def test_extract_module_refuses_a_vanishing_basis_vector(ctx_d32):
    """A ladder matrix with the eigenvalues 7, 2, -2 of W(0, 0, 2) on
    D_3(2), but an eigenvector (1, 0, -1) for 7 (so with -46 b_0 c_1 < 0):
    the standard basis vector E*_1 E_0 v_0 vanishes.  In a Leonard system
    no E*_i E_0 is zero, and the certificate refuses this one by its
    pattern: E_0 A* E_2 is not zero."""
    assert [ctx_d32.bm.theta[i] for i in range(3)] == [7, 2, -2]
    A = ExactMatrix.from_rows([[7, -46, 0], [1, -7, 1], [0, 1, 7]])
    comp = SimpleNamespace(triple=(0, 0, 2), action=SimpleNamespace(
        A=A, Astar=ExactMatrix.diag(ctx_d32.bm.theta_star[:3])))
    with pytest.raises(AssertionError, match=re.escape(
            "E_0 A* E_2 should vanish in an irreducible tridiagonal "
            "pattern")):
        extract_module(ctx_d32, comp)


def test_all_modules_extract(ctx_d32, comps_d32):
    # extract_module certifies the Leonard system and compares all six
    # intersection number families with their closed forms, on (d+1) x
    # (d+1) matrices
    for c in sorted(comps_d32, key=lambda c: c.triple):
        pa = extract_module(ctx_d32, c)
        assert pa.d == c.d
        assert pa.theta == tuple(ExactScalar(ctx_d32.bm.theta[c.t + i])
                                 for i in range(c.d + 1))


def test_base_vertex_independence_small(graph_d32, bm_d32, comps_d32):
    """The triple multiset is the same at every vertex of D_3(2), found on
    the distance partition alone, with no n x n matrix."""
    base = sorted((c.triple, c.mult) for c in comps_d32)
    for x in range(graph_d32.n_vertices):
        li = decompose(build_context(graph_d32, bm_d32, x))
        assert sorted((c.triple, c.mult) for c in li) == base


def test_base_vertex_independence_c32(graph_c32, bm_c32, comps_c32):
    """C_3(2) has edges inside the subconstituents (F != 0, unlike D_3(2)),
    so there each decomposition also splits by dual endpoint."""
    base = sorted((c.triple, c.mult) for c in comps_c32)
    for x in (17, 100):
        li = decompose(build_context(graph_c32, bm_c32, x))
        assert sorted((c.triple, c.mult) for c in li) == base


@pytest.mark.parametrize("h", range(4))
def test_spectral_data_refuses_a_perturbed_dual_eigenvalue(graph_d32,
                                                           monkeypatch, h):
    """Column 1 of Q is |X| times row x of E_1 by distance, at every x:
    with theta*_h moved, A* is no longer |X| diag(E_1 row x)."""
    from dualpolar import drg

    g = graph_d32
    data = drg.verify_distance_regular(g)
    real = drg.closed_form_dual_eigenvalues(g.spec)
    assert [row[1] for row in spectral_data(g.spec, g.n_vertices,
                                            data).Q] == real
    bumped = [t + (i == h) for i, t in enumerate(real)]
    monkeypatch.setattr(drg, "closed_form_dual_eigenvalues",
                        lambda spec: bumped)
    with pytest.raises(AssertionError, match=re.escape(
            f"Q_{h}1 != theta*_{h}: the dual adjacency is not |X| times a row "
            "of E_1")):
        spectral_data(g.spec, g.n_vertices, data)


def test_build_context_refuses_an_unreached_vertex(graph_d32, bm_d32):
    """D_3(2) with the edges of one vertex removed: the search from x = 0
    does not reach it within D = 3 steps."""
    g = graph_d32
    adj = g.adjacency.copy()
    adj[7] = adj[:, 7] = 0
    with pytest.raises(AssertionError, match=re.escape(
            "vertex 7 is not reached within D = 3 steps of the base "
            "vertex 0")):
        build_context(PolarGraph(g.spec, g.vertices, adj), bm_d32, 0)


@pytest.fixture(scope="module")
def graph_d42():
    return build_polar_graph(FormSpec("D", 4, 2))


@pytest.fixture(scope="module")
def ctx_d42(graph_d42):
    bm = spectral_data(graph_d42.spec, graph_d42.n_vertices,
                       verify_distance_regular(graph_d42))
    return build_context(graph_d42, bm, 47)


def test_decompose_elimination_count_d42(ctx_d42, monkeypatch):
    """One exact kernel per subconstituent 1 <= r < D, and one RREF of its
    lowest rung per component whose block holds another component; none
    where a block holds one component (there M_LR and M_F are scalars),
    none for a candidate eigenvalue that does not occur, none for the rung
    ranks, which the ladder certificate implies, and none on the top
    block, which the trace certificate proves: 3 + 2 calls of int_rref at
    vertex 47."""
    ctx = ctx_d42
    calls = []
    real = intlinalg.int_rref
    monkeypatch.setattr(intlinalg, "int_rref",
                        lambda mat: calls.append(mat.shape) or real(mat))
    comps = decompose(ctx)
    shared = [c for c in comps if c.r < ctx.D
              and sum(e.r == c.r for e in comps) > 1]
    assert len(calls) == ctx.D - 1 + len(shared) == 5
    assert sorted((c.triple, c.mult) for c in comps) == [
        ((0, 0, 4), 1), ((1, 1, 2), 14), ((2, 1, 2), 35), ((2, 2, 0), 20),
        ((3, 2, 0), 70), ((4, 2, 0), 28)]


def _refuses_count(ctx, block, total, raised):
    """decompose fails the count of its certificate on `block`, where the
    multiplicities sum to total, and the witness names each triple of
    `raised` with its multiplicity."""
    size = len(ctx.blocks[block])
    with pytest.raises(AssertionError, match=re.escape(
            f"the components with a rung on block {block} have "
            f"multiplicities summing to {total}, not |B_{block}| = {size}: "
            )) as err:
        decompose(ctx)
    for triple, mult in raised:
        assert f"{triple} x {mult}" in str(err.value)


@pytest.mark.parametrize("graph,triple,on_block,total,raised", [
    ("d32", (0, 0, 3), 1, 4, [((0, 1, 2), 1), ((0, 2, 1), 1),
                              ((0, 3, 0), 1)]),
    ("d42", (2, 1, 2), 2, 210, [((2, 1, 1), 35), ((2, 2, 1), 35),
                                ((2, 3, 1), 35)])],
                         ids=["d32-0-0-3", "d42-2-1-2"])
def test_decompose_refuses_a_shifted_chi2(request, monkeypatch, graph,
                                          triple, on_block, total, raised):
    """chi2 of one module moved by 1: LR on the lowest rungs of its block
    has an eigenvalue outside the candidates, so no Lagrange piece there is
    zero.  On D_3(2) the block of (0, 0, 3) holds one component, so M_LR is
    a scalar, which matches no candidate; on D_4(2) the block of (2, 1, 2)
    also holds (2, 2, 0).  The construction checks nothing: it raises a
    component from every piece, the lowest rungs are counted more than
    once, and the certificate refuses the count on the block, naming the
    diameters that do not occur.  chi2 does not depend on t, and decompose
    reads it at t = 0, so the shift is keyed on (r, d)."""
    ctx = request.getfixturevalue(f"ctx_{graph}")
    comps = decompose(ctx)  # passes unperturbed
    assert triple in [c.triple for c in comps]
    assert sum(c.r == triple[0] for c in comps) == on_block
    assert not {t for t, _ in raised} & {c.triple for c in comps}
    real = terwilliger.chi2

    def shifted(ctx, r, t, d):
        val = real(ctx, r, t, d)
        return val + 1 if (r, d) == (triple[0], triple[2]) else val

    monkeypatch.setattr(terwilliger, "chi2", shifted)
    _refuses_count(ctx, triple[0], total, raised)


@pytest.mark.parametrize("triple,on_block,total,raised", [
    ((1, 1, 2), 1, 29, [((1, 2, 2), 14)]),
    ((2, 1, 2), 2, 140, [((2, 0, 2), 35), ((2, 2, 2), 35)])],
                         ids=["scalar-1-1-2", "lead-2-1-2"])
def test_decompose_refuses_a_shifted_chi0_d42(ctx_d42, monkeypatch, triple,
                                              on_block, total, raised):
    """chi0 of one module of D_4(2) moved by 1: F on the lowest rungs of its
    diameter has an eigenvalue outside the candidates (the twin of
    `test_decompose_refuses_a_shifted_chi2`; `..._chi0` below moves the
    trivial module of D_3(2), on block 0 of size 1).  Block 1 holds
    (1, 1, 2) alone, so M_LR and M_F are scalars, and M_F matches none of
    the two candidates; block 2 also holds (2, 2, 0), so M_F is split on
    the row space of the diameter piece P_2 over three candidates.  No
    piece is zero, each is raised, and the certificate refuses the count
    on the block, naming the dual endpoints that do not occur."""
    ctx = ctx_d42
    comps = decompose(ctx)  # passes unperturbed
    assert triple in [c.triple for c in comps]
    assert sum(c.r == triple[0] for c in comps) == on_block
    assert not {t for t, _ in raised} & {c.triple for c in comps}
    real = terwilliger.chi0

    def shifted(ctx, r, t, d):
        val = real(ctx, r, t, d)
        return val + 1 if (r, t, d) == triple else val

    monkeypatch.setattr(terwilliger, "chi0", shifted)
    _refuses_count(ctx, triple[0], total, raised)


def test_decompose_refuses_coinciding_candidates(ctx_d42, monkeypatch):
    """chi0 of (2, 0, 2) read as that of (2, 1, 2): two dual endpoints of
    diameter 2 on block 2 share a candidate, which cannot separate them."""
    real = terwilliger.chi0

    def merged(ctx, r, t, d):
        return real(ctx, r, 1 if (r, t, d) == (2, 0, 2) else t, d)

    monkeypatch.setattr(terwilliger, "chi0", merged)
    with pytest.raises(AssertionError, match=re.escape(
            "F on the diameter-2 lowest rungs of block 2: two chi0 "
            "candidates coincide")):
        decompose(ctx_d42)


def test_certify_ladder_refuses_a_rung_that_drops_rank(ctx_c32, comps_c32):
    """(1, 1, 2) with row 1 of rung 1 set to row 0, and rung 2 raised from
    that: rung 0 keeps rank 7, rung 1 drops to 6, and L no longer maps
    rung 1 to b_0 c_1 times rung 0.  No rank is computed; the ladder
    certificate refuses the component."""
    comp = next(c for c in comps_c32 if c.triple == (1, 1, 2))
    rows = [0, 0, *range(2, comp.mult)]
    rung1 = comp.rungs[1][rows]
    rungs = [comp.rungs[0], rung1, int_matmul(rung1, ctx_c32.adj(2, 3))]
    assert intlinalg.int_rank(rung1) == comp.mult - 1
    with _refuses_ladder(ctx_c32, comp.triple):
        terwilliger._certify_ladder(ctx_c32, replace(comp, rungs=rungs))


def test_integer_ladder_certificate_is_exact_past_int64(ctx_c32, comps_c32):
    """Every rung `decompose` returns is an int64 or Python-int array.
    (1, 1, 2) given with every rung times 2^70, as Python ints: the ladder
    identities q image - p want = 0 hold exactly at that size, so both
    certificates accept it, and find the same top components; one entry
    of rung 1 moved by 1 is refused."""
    assert all(isinstance(rung, np.ndarray)
               and rung.dtype in (np.int64, object)
               for c in comps_c32 for rung in c.rungs)
    triple = (1, 1, 2)
    comp = next(c for c in comps_c32 if c.triple == triple)
    big = [rung.astype(object) * 2 ** 70 for rung in comp.rungs]
    assert terwilliger._certify_ladder(ctx_c32, replace(comp, rungs=big)) \
        is not None
    below = [c for c in comps_c32 if c.r < ctx_c32.D]
    top = terwilliger._certify_decomposition(
        ctx_c32, _given(below, triple, rungs=big))
    assert [(c.triple, c.mult) for c in top] == \
        [(c.triple, c.mult) for c in comps_c32 if c.r == ctx_c32.D]
    moved = big[1].copy()
    moved[0, 0] += 1
    with _refuses_ladder(ctx_c32, triple):
        terwilliger._certify_ladder(
            ctx_c32, replace(comp, rungs=[big[0], moved, big[2]]))


def test_certify_ladder_refuses_a_zero_b_c(ctx_c32, comps_c32, monkeypatch):
    """c_1 of (1, 1, 2) set to 0: L would map rung 1 to 0, which proves
    nothing about its rank, so the certificate refuses the ladder."""
    triple = (1, 1, 2)
    comp = next(c for c in comps_c32 if c.triple == triple)
    _shift_intersection(monkeypatch, triple, 0, 1, lambda out: -out[0][1])
    with pytest.raises(AssertionError, match=re.escape(
            f"component {triple} has b_(j-1) c_j = 0 on its ladder, so L "
            "cannot certify its rank")):
        terwilliger._certify_ladder(ctx_c32, comp)


def test_each_rung_is_raised_once(ctx_c32, monkeypatch):
    """decompose forms the R image of each rung once: rung j + 1 is
    that of rung j (`_build_component`), and `_certify_ladder` forms only
    that of the top rung, which must vanish."""
    products = []
    real = terwilliger.int_matmul
    monkeypatch.setattr(terwilliger, "int_matmul",
                        lambda a, b: products.append((a, b)) or real(a, b))
    comps = decompose(ctx_c32)
    raised = Counter()
    for c in comps:
        for j, rung in enumerate(c.rungs):
            s = c.r + j
            if s < ctx_c32.D:
                R = ctx_c32.adj(s, s + 1)
                raised[c.triple, j] = sum(a is rung and b is R
                                          for a, b in products)
    assert raised and set(raised.values()) == {1}


def _shift_intersection(monkeypatch, triple, which, j, by):
    """module_intersection with entry j of c, a or b (which = 0, 1, 2)
    moved by `by` on one triple."""
    real = terwilliger.module_intersection

    def shifted(ctx, *t):
        out = [list(x) for x in real(ctx, *t)]
        if t == triple:
            out[which][j] += by(out)
        return tuple(out)

    monkeypatch.setattr(terwilliger, "module_intersection", shifted)


def _refuses_ladder(ctx, triple):
    return pytest.raises(AssertionError, match=re.escape(
        "L, F, R do not act on the raising ladder of component "
        f"{triple} by its intersection numbers"))


@pytest.mark.parametrize("which", ["a", "bc"])
def test_certify_ladder_refuses_a_moved_intersection_number(
        ctx_c32, comps_c32, monkeypatch, which):
    """a_1 of (1, 1, 2) moved by 1 breaks F on rung 1; b_0 c_1 moved by 1
    (b_0 by 1 / c_1) breaks L on rung 1."""
    triple = (1, 1, 2)
    comp = next(c for c in comps_c32 if c.triple == triple)
    assert terwilliger._certify_ladder(ctx_c32, comp) is not None
    if which == "a":
        _shift_intersection(monkeypatch, triple, 1, 1, lambda out: 1)
    else:
        _shift_intersection(monkeypatch, triple, 2, 0,
                            lambda out: 1 / out[0][1])
    with _refuses_ladder(ctx_c32, triple):
        terwilliger._certify_ladder(ctx_c32, comp)


def test_certify_ladder_refuses_a_top_rung_that_r_moves(ctx_c32, comps_c32,
                                                        monkeypatch):
    """(0, 0, 3) without its top rung, given the leading 3 x 3 block of its
    true ladder action: L and F still act as that says, and only R of the
    new top rung, which is the dropped rung, fails to vanish."""
    comp = next(c for c in comps_c32 if c.triple == (0, 0, 3))
    act = terwilliger.ladder_action(ctx_c32, 0, 0, 3)
    lead = terwilliger.LadderAction(*(
        m.submatrix(range(3), range(3))
        for m in (act.L, act.F, act.R, act.K, act.Kinv, act.Astar)))
    monkeypatch.setattr(terwilliger, "ladder_action", lambda *_: lead)
    short = terwilliger.HomogeneousComponent(0, 0, 2, 1, comp.rungs[:3])
    with _refuses_ladder(ctx_c32, (0, 0, 2)):
        terwilliger._certify_ladder(ctx_c32, short)


def test_decompose_refuses_a_shifted_chi0(ctx_d32, monkeypatch):
    """chi0 of the trivial module (0, 0, 3) moved by 1: F on the lowest
    rung at x has no eigenvalue among the candidates.  There is one
    candidate, t = 0, so `_split` returns the whole lowest rung, (0, 0, 3)
    is raised from it, and C0 evaluated on its ladder matrices refuses it."""
    real_chi0, real_build = terwilliger.chi0, terwilliger._build_component
    built = []

    def shifted(ctx, r, t, d):
        val = real_chi0(ctx, r, t, d)
        return val + 1 if (r, t, d) == (0, 0, 3) else val

    def build(ctx, r, t, d, low_rows):
        built.append(((r, t, d), low_rows))
        return real_build(ctx, r, t, d, low_rows)

    monkeypatch.setattr(terwilliger, "chi0", shifted)
    monkeypatch.setattr(terwilliger, "_build_component", build)
    with pytest.raises(AssertionError, match=re.escape(
            "component (0, 0, 3) is not in the joint kernel")):
        decompose(ctx_d32)
    assert built[0][0] == (0, 0, 3) and built[0][1].tolist() == [[1]]


@pytest.mark.parametrize("m", [[[1, 2], [0, 3]], [[4, 0], [0, 4]]],
                         ids=["not-scalar", "other-scalar"])
def test_split_of_a_lone_candidate_is_the_whole_space(m):
    """With one candidate the Lagrange product is empty, so the one piece
    is `lead`, or None (the whole space) without one, whatever m is: an m
    with an eigenvalue outside the candidate is left to the certificate."""
    m = ExactMatrix.from_rows(m)
    lead = ExactMatrix.from_rows([[1, 0]])
    assert dict(terwilliger._split(m, {0: 5}, None, "chi0", "m")) \
        == {0: None}
    assert dict(terwilliger._split(m, {0: 5}, lead, "chi0", "m")) \
        == {0: lead}


@pytest.mark.parametrize("triple", [(0, 0, 3), (2, 1, 1)],
                         ids=["0-0-3", "2-1-1"])
def test_decompose_refuses_a_shifted_chi1(ctx_d32, monkeypatch, triple):
    """chi1 moved by 1 on one triple: the construction does not use chi1,
    so only the certificate, C1 evaluated on the ladder matrices of that
    component, ties it to the graph, and it names the triple."""
    real = terwilliger.chi1

    def shifted(ctx, r, t, d):
        val = real(ctx, r, t, d)
        return val + 1 if (r, t, d) == triple else val

    decompose(ctx_d32)  # passes unperturbed
    monkeypatch.setattr(terwilliger, "chi1", shifted)
    with pytest.raises(AssertionError, match=re.escape(
            f"component {triple} is not in the joint kernel")):
        decompose(ctx_d32)


def _ladder_checks(ctx, comps) -> dict:
    """(ok, witness) of every check run on the ladders, by check id."""
    out = {f"lfrk:{st}": res for st, res in verify_lfrk(ctx, comps).items()}
    out["lfrk:recovery"] = verify_lfrk_recovery(ctx, comps)
    out["lfrk:commuting"] = verify_lrf_commutations(ctx, comps)
    out["lfrk:tridiagonal"] = verify_tridiagonal_relations(ctx, comps)
    out["central:construction"] = verify_central_construction(ctx, comps)
    out["central:characterization"] = verify_central_characterization(
        ctx, comps)
    return out


# one identity of each check: each LFRK relation, each recovery, one
# commutation, each tridiagonal bracket, and the Omega, G and G*
# expressions; None moves the characterization's alpha_2
MOVED = [(f"lfrk:{st}", 0) for st in terwilliger.LFRK_STATEMENTS] + [
    ("lfrk:recovery", 0), ("lfrk:recovery", 1), ("lfrk:recovery", 2),
    ("lfrk:commuting", 0), ("lfrk:tridiagonal", 0), ("lfrk:tridiagonal", 1),
    ("central:construction", 0), ("central:construction", 1),
    ("central:construction", 2), ("central:characterization", None)]


@pytest.mark.parametrize("check,index", MOVED,
                         ids=[f"{c}-{i}" for c, i in MOVED])
def test_moved_coefficient_fails_its_check_alone(ctx_c32, comps_c32,
                                                 monkeypatch, check, index):
    """The first coefficient of one identity moved by 1 (or alpha_2 of the
    characterization raised by 1): exactly that check fails on C_3(2), with
    the component, the ladder entry and the value as witness."""
    assert all(ok for ok, _ in _ladder_checks(ctx_c32, comps_c32).values())
    if index is None:
        real = terwilliger.central_characterization_matrix
        monkeypatch.setattr(
            terwilliger, "central_characterization_matrix",
            lambda ctx, comp, alpha1, beta0, perturb=False: real(
                ctx, comp, alpha1, beta0, perturb or (alpha1, beta0) == (1, 0)))
    else:
        real = terwilliger.identities

        def moved(ctx):
            ids = {**real(ctx), check: list(real(ctx)[check])}
            terms = list(ids[check][index])
            terms[0] = (terms[0][0] + 1, terms[0][1])
            ids[check][index] = terms
            return ids
        monkeypatch.setattr(terwilliger, "identities", moved)
    checks = _ladder_checks(ctx_c32, comps_c32)
    assert [cid for cid, (ok, _) in checks.items() if not ok] == [check]
    witness = checks[check][1]
    assert sorted(witness) == ["component", "entry", "value"]
    comp = next(c for c in comps_c32 if list(c.triple) == witness["component"])
    assert all(0 <= k <= comp.d for k in witness["entry"])
    assert witness["value"] != "0"


def test_decompose_refuses_components_with_equal_chi(ctx_d42, monkeypatch):
    """(1, 1, 2) and (2, 2, 0) share chi0 and chi2 on D_4(2); chi1, which
    the construction does not read, tells them apart.  Given the chi1 of
    (1, 1, 2), (2, 2, 0) is refused before any ladder is certified: the
    joint eigenspaces of C0, C1, C2 would no longer separate the two."""
    for chif in (chi0, chi2):
        assert chif(ctx_d42, 1, 1, 2) == chif(ctx_d42, 2, 2, 0)
    real = terwilliger.chi1
    monkeypatch.setattr(terwilliger, "chi1", lambda ctx, r, t, d: real(
        ctx, *((1, 1, 2) if (r, t, d) == (2, 2, 0) else (r, t, d))))
    with pytest.raises(AssertionError, match=re.escape(
            "components (1, 1, 2) and (2, 2, 0) share chi0, chi1, chi2")):
        decompose(ctx_d42)


# The top block B_D: no vectors, certified by counts and power traces of F


@functools.lru_cache(maxsize=None)
def _context(family, D, b, x=0):
    g = build_polar_graph(FormSpec(family, D, b))
    bm = spectral_data(g.spec, g.n_vertices, verify_distance_regular(g))
    return build_context(g, bm, x)


@pytest.mark.parametrize("family,D,b,endpoints", [
    ("C", 3, 2, 1), ("D", 4, 2, 1), ("2D", 3, 2, 2), ("D", 3, 2, 0)],
    ids=["C-3-2", "D-4-2", "2D-3-2", "D-3-2"])
def test_top_multiplicities_match_the_oracle_kernel(family, D, b,
                                                    endpoints):
    """The components W(D, t, 0) hold no rungs, and their multiplicities
    are the ranks of the oracle's kernel of L and F - a_0(W) I on B_D, for
    every t; the others hold their rungs.  One dual endpoint on the top
    block (C_3(2), D_4(2)), two (2D_3(2)), and none (D_3(2), where the
    rungs raised from below fill B_D)."""
    ctx = _context(family, D, b)
    comps = decompose(ctx)
    top = {c.t: c.mult for c in comps if c.r == D}
    assert all(not c.rungs for c in comps if c.r == D)
    assert all(len(c.rungs) == c.d + 1 for c in comps if c.r < D)
    oracle = {t: dense_oracle.top_rung(ctx, t).shape[0]
              for t in range(D + 1)}
    assert top == {t: m for t, m in oracle.items() if m}
    assert len(top) == endpoints


def test_top_certificate_refuses_a_count(ctx_c32, comps_c32):
    """(1, 1, 1) left out: the rungs left on block 1 do not fill it, and
    the count of block 1 fails first, naming each component with a rung
    there.  (A mult that its rung 0 does not have is refused before the
    counts.)"""
    below = [c for c in comps_c32
             if c.r < ctx_c32.D and c.triple != (1, 1, 1)]
    with pytest.raises(AssertionError, match=re.escape(
            "the components with a rung on block 1 have multiplicities "
            "summing to 8, not |B_1| = 14: (0, 0, 3) x 1, (1, 1, 2) x 7")):
        terwilliger._certify_decomposition(ctx_c32, below)


@pytest.mark.parametrize("family,D,b,t,S", [
    ("C", 3, 2, 2, [1, 2, 3]), ("2D", 3, 2, 2, [1, 2, 3])],
    ids=["C-3-2", "2D-3-2"])
def test_top_certificate_refuses_a_nonzero_trace_sum(monkeypatch, family, D,
                                                     b, t, S):
    """chi0 of W(D, t, 0) moved by 1 moves its candidate nu_t off the
    eigenvalue a_0(W) of F on its copies, so tr p(F) over the complement
    is the sum over those copies of p(a_0(W)) > 0, and the refusal names
    it."""
    ctx = _context(family, D, b)
    mult = {c.t: c.mult for c in decompose(ctx) if c.r == D}[t]
    real = terwilliger.chi0
    monkeypatch.setattr(terwilliger, "chi0", lambda ctx, *triple: real(
        ctx, *triple) + (triple == (D, t, 0)))
    a0 = terwilliger.module_intersection(ctx, D, t, 0)[1][0]
    residue = mult * math.prod((a0 - terwilliger._nu(ctx, D, s, 0)) ** 2
                               for s in S)
    assert residue > 0
    with pytest.raises(AssertionError, match=re.escape(
            f"F on the top block {D} beyond the components below has tr "
            f"p(F) = {residue}, not 0, for p with the double roots nu_t, "
            f"t in {S}")):
        decompose(ctx)


def _given(comps, triple, **changes):
    """comps with the component `triple` replaced as `changes` say."""
    return [replace(c, **changes) if c.triple == triple else c
            for c in comps]


def _rungs_of(comps, triple):
    return next(c for c in comps if c.triple == triple).rungs


@pytest.mark.parametrize("case", ["two-copies-one-row", "no-rungs", "short",
                                  "rows-swapped", "doubled"])
def test_certificate_refuses_a_component_given_off_its_mult(case):
    """The rank proofs take mult from the rows of rung 0, so each given
    component must hold d + 1 rungs and a rung 0 of mult integer rows in
    echelon form: on C_2(2), whose top block holds W(2, 2, 0) x 1, the
    oracle's rung of W(2, 2, 0) given as two copies (which the trace
    certificate would solve as a multiplicity of -1); on C_3(2), (1, 1, 2)
    with no rungs, without its top rung, or with rows 0 and 1 of rung 0
    swapped.  Rung 0 doubled is still in echelon form, so it passes this
    check; the ladder certificate refuses it, as rung 1 was not raised
    from it."""
    if case == "two-copies-one-row":
        ctx = _context("C", 2, 2)
        rung = dense_oracle.top_rung(ctx, 2).n0
        assert rung.shape[0] == 1
        triple, mult, rungs = (2, 2, 0), 2, [rung]
        given = [c for c in decompose(ctx) if c.r < 2] + [
            terwilliger.HomogeneousComponent(*triple, mult, rungs)]
    else:
        ctx, triple, mult = _context("C", 3, 2), (1, 1, 2), 7
        below = [c for c in decompose(ctx) if c.r < 3]
        full = _rungs_of(below, triple)
        rungs = {"no-rungs": [], "short": full[:2],
                 "rows-swapped": [full[0][[1, 0, *range(2, mult)]],
                                  *full[1:]],
                 "doubled": [2 * full[0], *full[1:]]}[case]
        given = _given(below, triple, rungs=rungs)
    assert len(_rungs_of(given, triple)) == len(rungs)
    shape = rungs[0].shape if rungs else None
    d = triple[2]
    refusal = _refuses_ladder(ctx, triple) if case == "doubled" else \
        pytest.raises(AssertionError, match=re.escape(
            f"component {triple} x {mult} is given as {len(rungs)} rungs "
            f"with rung 0 of shape {shape}, not {d + 1} with rung 0 integer "
            f"rows in echelon form of shape ({mult}, "
            f"{len(ctx.blocks[triple[0]])})"))
    with refusal:
        terwilliger._certify_decomposition(ctx, given)


def test_certificate_refuses_an_infeasible_triple(ctx_c32, comps_c32):
    """(1, 1, 2) read as (3, 0, 1), whose ladder would leave the top block
    B_3: refused by name before its rungs are looked at."""
    with pytest.raises(AssertionError, match=re.escape(
            "triple (3, 0, 1) violates feasibility bounds")):
        terwilliger._certify_decomposition(ctx_c32, _given(
            [c for c in comps_c32 if c.r < 3], (1, 1, 2), r=3, t=0, d=1))


def test_top_certificate_refuses_coinciding_candidates(monkeypatch):
    """chi0 of (2, 1, 0) read as that of (2, 2, 0) on C_2(2), whose top
    block holds both: the mean of F there is neither candidate, and the two
    candidates of p coincide."""
    ctx = _context("C", 2, 2)
    real = terwilliger.chi0
    monkeypatch.setattr(terwilliger, "chi0", lambda ctx, r, t, d: real(
        ctx, r, 2 if (r, t, d) == (2, 1, 0) else t, d))
    with pytest.raises(AssertionError, match=re.escape(
            "F on the top block 2: two chi0 candidates coincide")):
        decompose(ctx)


def test_decompose_runs_no_elimination_on_the_top_block(monkeypatch):
    """On 2D_3(2), whose top block holds two dual endpoints, the kernels
    are those of A[B_(r-1), B_r] for 1 <= r < D, and every Lagrange split
    is on a lower block."""
    ctx = _context("2D", 3, 2)
    kernels, splits = [], []
    real_kernel, real_split = terwilliger.kernel, terwilliger._split
    monkeypatch.setattr(terwilliger, "kernel",
                        lambda m: kernels.append(m.shape) or real_kernel(m))
    monkeypatch.setattr(terwilliger, "_split", lambda *args: splits.append(
        args[-1]) or real_split(*args))
    decompose(ctx)
    sizes = [len(block) for block in ctx.blocks]
    assert kernels == [(sizes[r - 1], sizes[r]) for r in range(1, ctx.D)]
    assert splits and all(re.search(r"block [0-2]$", w) for w in splits)


def test_split_forms_each_piece_when_it_is_taken(monkeypatch):
    """Three candidates, one of which (5) is no eigenvalue of m: each piece
    is one product of two shifts, formed only when the consumer asks for
    it, and the zero piece of 5 is dropped."""
    products = []
    real = ExactMatrix.__matmul__
    monkeypatch.setattr(ExactMatrix, "__matmul__",
                        lambda a, b: products.append(1) or real(a, b))
    m = ExactMatrix.diag([1, 2, 2])
    pieces = terwilliger._split(m, {0: 1, 1: 2, 2: 5}, None, "chi0", "m")
    assert products == []
    key, piece = next(pieces)
    assert (key, len(products)) == (0, 1)
    assert piece == ExactMatrix.diag([4, 0, 0])  # (m - 2)(m - 5)
    assert [k for k, _ in pieces] == [1] and len(products) == 3


def test_every_shared_form_keys_its_values():
    """Each function read through `TerwilligerContext.form` is one of the
    bindings `_FORMS` that key the kept values, so a patched form is never
    served a value of the function it replaced."""
    source = Path(terwilliger.__file__).read_text()
    read = {name for name in re.findall(r"\.form\((\w+)", source)
            if hasattr(terwilliger, name)}
    bound = terwilliger._FORMS(vars(terwilliger))
    assert len(read) >= 10
    assert [name for name in sorted(read)
            if getattr(terwilliger, name) not in bound] == []


def test_td_scalars_checked_once_per_form(graph_d32, bm_d32, monkeypatch):
    """identities, central_terms, aw_module_scalars and
    verify_center_identities all read td_scalars; its recurrences are
    checked once per form (family, D, b), and a broken recurrence raises on
    every call."""
    from dualpolar import drg
    from dualpolar.terwilliger import identities, upsilon_psi_lambda

    checks = []
    checked = drg._checked_td_scalars
    monkeypatch.setattr(drg, "_TD_SCALARS", {})
    monkeypatch.setattr(drg, "_checked_td_scalars",
                        lambda spec: checks.append(spec) or checked(spec))
    ctx = build_context(graph_d32, bm_d32, 0)
    comps = decompose(ctx)
    identities(ctx)
    central_terms(ctx)
    for c in comps:
        aw_module_scalars(ctx, *c.triple)
    verify_center_identities(ctx, upsilon_psi_lambda(ctx, comps))
    # another graph of the same form reads the same scalars
    td_scalars(FormSpec("D", 3, 2))
    assert len(checks) == 1
    td_scalars(FormSpec("C", 3, 2))
    assert len(checks) == 2

    # a recurrence that fails raises, and is not kept
    monkeypatch.setattr(drg, "_TD_SCALARS", {})
    real = drg.closed_form_eigenvalues
    monkeypatch.setattr(drg, "closed_form_eigenvalues",
                        lambda spec: [t + 1 if i == 1 else t
                                      for i, t in enumerate(real(spec))])
    for _ in range(2):
        with pytest.raises(AssertionError, match="recurrence"):
            td_scalars(FormSpec("C", 3, 2))
    assert drg._TD_SCALARS == {}
