"""The module-local path against a dense n x n oracle.

`decompose` certifies L, F, R on each component's raising ladder, and the
displacement weights, the center checks and both U_q(sl2) structures run on
(d+1) x (d+1) ladder matrices.  The oracle here builds what that replaced:
one orthogonal projector per component, Upsilon, Psi, Lambda as n x n sums
of projectors, and x, y, z from the n x n K, L, R.  Applied to every copy of
every ladder, each dense operator must act as the ladder matrix does.  The
components W(D, t, 0), which `decompose` certifies by traces, hold no
vectors; theirs are the oracle's kernel on the top block
(`dense_oracle.component_rungs`).

`extract_module` reads each module's Leonard system off the ladder too; its
oracle is the dense extraction from E_i, E*_i, A and A* on n-wide vectors,
whose entries must be the intersection numbers of the array read off the
ladder."""

import functools
import re
from dataclasses import replace

import numpy as np
import pytest

from dualpolar.drg import spectral_data, verify_distance_regular
from dualpolar.exact import ExactScalar
from dualpolar.leonard import intersection_data, leonard_from_tmodule
from dualpolar.linexact import ExactMatrix, inverse, rref
from dualpolar.polar import FormSpec, PolarGraph, build_polar_graph
from dualpolar import terwilliger
from dualpolar.terwilliger import (
    build_context,
    decompose,
    extract_module,
    ladder_action,
    upsilon_psi_lambda,
)
from dualpolar.uqsl2 import casimir_scalar, uq_on_standard_module

from dense_oracle import component_rungs, dense_context, embed, idempotents


def orthogonal_projector(rows: ExactMatrix) -> ExactMatrix:
    """Projector onto the row space of independent rows, orthogonal for the
    standard symmetric bilinear form."""
    return rows.T @ inverse(rows @ rows.T) @ rows


def dense_center(ctx, comps):
    """Upsilon, Upsilon^-1, Psi, Psi^-1 and Lambda as n x n matrices: the
    component projectors (block by block, one per rung) weighted by
    q^(r+t+d-D), q^(r-t) and the Casimir value of L(d, 1)."""
    n = ctx.n
    zero = ExactMatrix.zeros(n, n)
    out = {k: zero for k in ("ups", "ups_inv", "psi", "psi_inv", "lam")}
    total = zero
    for c in comps:
        proj = zero
        for j, rung in enumerate(component_rungs(ctx, c)):
            block = ctx.blocks[c.r + j]
            proj = proj + embed(orthogonal_projector(rung), (n, n),
                                 np.ix_(block, block))
        assert proj @ proj == proj and proj.T == proj
        total = total + proj
        mu, nu = c.r + c.t + c.d - ctx.D, c.r - c.t
        for key, val in (("ups", ctx.q ** mu), ("ups_inv", ctx.q ** -mu),
                         ("psi", ctx.q ** nu), ("psi_inv", ctx.q ** -nu),
                         ("lam", casimir_scalar(ctx.q, c.d, 1))):
            out[key] = out[key] + proj.scale(val)
    assert total == ExactMatrix.identity(n)
    return out


def dense_xyz(ctx, m, variant):
    """x, y, z of the given variant from the n x n K, L, R."""
    q2 = ctx.q * ctx.q
    D, e2 = ctx.D, ctx.two_e()
    base = (m["ups_inv"] @ m["psi_inv"] @ ctx.Kinv).scale(ctx.q ** -D)
    if variant == 1:
        x = base + (m["ups"] @ m["psi_inv"] @ ctx.R).scale(
            ctx.q ** (-e2 - D) * (q2 - 1))
        y = base - (m["ups_inv"] @ m["psi"] @ ctx.L).scale(
            ctx.q ** -D * (q2 - 1))
    else:
        x = base - (m["ups_inv"] @ m["psi"] @ ctx.R).scale(
            ctx.q ** -D * (q2 - 1))
        y = base + (m["ups"] @ m["psi_inv"] @ ctx.L).scale(
            ctx.q ** (-e2 - D) * (q2 - 1))
    z = (m["ups"] @ m["psi"] @ ctx.K).scale(ctx.q ** D)
    return x, y, z


def ladder_copies(ctx, comp):
    """One n x (d+1) matrix per copy, with column j the copy's rung j."""
    n = ctx.n
    for i in range(comp.mult):
        cols = [embed(rung.take_rows([i]), (1, n),
                       (slice(None), ctx.blocks[comp.r + j]))
                for j, rung in enumerate(component_rungs(ctx, comp))]
        yield ExactMatrix.stack_rows(cols).T


def _representation(basis: ExactMatrix, image: ExactMatrix) -> ExactMatrix:
    """M with op(v_j) = sum_i M_ij v_i, from rows v_i and rows op(v_i)."""
    gram = basis @ basis.T
    # (basis op(basis)^t)_{ij} = v_i . op(v_j) = (gram M)_{ij}
    return inverse(gram) @ (basis @ image.T)


def dense_extract(ctx, E, comp):
    """(A* on the dual standard basis, A on the standard basis) of the
    module generated by the first RREF row of comp's lowest rung: rows
    E_(t+i) seed and E*_(r+i) E_t seed, with E the n x n primitive
    idempotents, each matrix through the Gram inverse of its basis.  A must
    be diagonal on the first basis and A* on the second."""
    r, t, d = comp.triple
    lowest = embed(component_rungs(ctx, comp)[0], (comp.mult, ctx.n),
                    (slice(None), ctx.blocks[r]))
    seed = rref(lowest)[0].take_rows([0]).T
    assert ctx.Estar[r] @ seed == seed
    dual = ExactMatrix.stack_rows([(E[t + i] @ seed).T
                                   for i in range(d + 1)])
    u = E[t] @ seed
    std = ExactMatrix.stack_rows([(ctx.Estar[r + i] @ u).T
                                  for i in range(d + 1)])
    assert _representation(dual, (ctx.A @ dual.T).T) == ExactMatrix.diag(
        ctx.bm.theta[t:t + d + 1])
    assert _representation(std, (ctx.Astar @ std.T).T) == ExactMatrix.diag(
        ctx.bm.theta_star[r:r + d + 1])
    return (_representation(dual, (ctx.Astar @ dual.T).T),
            _representation(std, (ctx.A @ std.T).T))


def tridiagonal_families(m: ExactMatrix):
    """(m[i, i-1], m[i, i], m[i, i+1]) for every i, as three lists, with 0
    outside the matrix."""
    size = m.shape[0]
    return tuple([m.entry(i, i + k) if 0 <= i + k < size else ExactScalar(0)
                  for i in range(size)] for k in (-1, 0, 1))


@functools.lru_cache(maxsize=None)
def decomposed(family, D, b, x):
    g = build_polar_graph(FormSpec(family, D, b))
    bm = spectral_data(g.spec, g.n_vertices, verify_distance_regular(g))
    ctx = dense_context(g, bm, x)
    return ctx, decompose(ctx)


ORACLE_CASES = [("D", 3, 2, (0, 17)), ("C", 3, 2, (0, 101))]


@pytest.mark.parametrize("family,D,b,bases", ORACLE_CASES)
def test_ladder_matrices_match_dense_operators(family, D, b, bases):
    for x in bases:
        ctx, comps = decomposed(family, D, b, x)
        center = upsilon_psi_lambda(ctx, comps)
        dense = dense_center(ctx, comps)
        sms = {v: uq_on_standard_module(ctx, center, v) for v in (1, 2)}
        xyz = {v: dense_xyz(ctx, dense, v) for v in (1, 2)}
        for c in comps:
            lad = ladder_action(ctx, *c.triple)
            weights = (("ups", center.Upsilon), ("psi", center.Psi),
                       ("lam", center.Lam))
            for basis in ladder_copies(ctx, c):
                for op, small in ((ctx.L, lad.L), (ctx.F, lad.F),
                                  (ctx.R, lad.R), (ctx.K, lad.K),
                                  (ctx.A, lad.A), (ctx.Astar, lad.Astar)):
                    assert op @ basis == basis @ small, c.triple
                for key, scalars in weights:
                    assert dense[key] @ basis == basis.scale(
                        scalars[c.triple]), (key, c.triple)
                for v in (1, 2):
                    act = sms[v].actions[c.triple]
                    for op, small in zip(xyz[v], (act.X, act.Y, act.Z)):
                        assert op @ basis == basis @ small, (v, c.triple)


@pytest.fixture(scope="module")
def ctx_d32_base0(graph_d32, bm_d32):
    return build_context(graph_d32, bm_d32, 0)


def _perturbed_intersection(triple, which, j):
    """module_intersection with entry j of c (which=0) or a (which=1)
    raised by one on the given triple."""
    real = terwilliger.module_intersection

    def patched(ctx, r, t, d):
        out = [list(v) for v in real(ctx, r, t, d)]
        if (r, t, d) == triple:
            out[which][j] += 1
        return tuple(out)
    return patched


@pytest.mark.parametrize("triple,which,j", [
    ((1, 1, 1), 1, 0),  # a_0 of W(1, 1, 1): F on the lowest rung
    ((0, 0, 3), 1, 2),  # a_2 of the primary module
    ((2, 1, 1), 0, 1),  # c_1, so lambda_1 = b_0 c_1 on the top rung
], ids=["a0", "a2", "lambda1"])
def test_perturbed_ladder_scalar_is_refused(ctx_d32_base0, monkeypatch,
                                            triple, which, j):
    ctx = ctx_d32_base0
    decompose(ctx)  # passes unperturbed
    monkeypatch.setattr(terwilliger, "module_intersection",
                        _perturbed_intersection(triple, which, j))
    with pytest.raises(AssertionError, match=re.escape(str(triple))):
        decompose(ctx)


def test_flipped_adjacency_bit_in_a_block_is_refused(ctx_d32_base0):
    """D_3(2) has no edge inside a subconstituent; an edge added inside
    block 3, where no component has its lowest rung, changes only the
    flattening of the rungs there, first of the primary module's top."""
    ctx = ctx_d32_base0
    block = ctx.blocks[3]
    adj = ctx.g.adjacency.copy()
    assert not adj[np.ix_(block, block)].any()
    adj[block[0], block[1]] = 1
    g = ctx.g
    tampered = replace(ctx, g=PolarGraph(g.spec, g.vertices, adj))
    with pytest.raises(AssertionError, match=re.escape("(0, 0, 3)")):
        decompose(tampered)


@pytest.mark.parametrize("family,D,b,bases", ORACLE_CASES)
def test_ladder_module_matches_dense_extraction(family, D, b, bases):
    """A on the dense standard basis and A* on the dense dual standard
    basis have the intersection numbers of the array read off the ladder:
    (c_i, a_i, b_i) and (c*_i, a*_i, b*_i) as entries (i, i-1), (i, i),
    (i, i+1)."""
    for x in bases:
        ctx, comps = decomposed(family, D, b, x)
        E = idempotents(ctx.g, ctx.bm.theta)
        for c in comps:
            data = tuple(intersection_data(extract_module(ctx, c)))
            astar_rep, a_rep = dense_extract(ctx, E, c)
            assert tridiagonal_families(a_rep) == data[:3], c.triple
            assert tridiagonal_families(astar_rep) == data[3:], c.triple


@pytest.mark.parametrize("triple,i", [((0, 0, 3), 1), ((2, 1, 1), 0)])
def test_perturbed_dual_intersection_is_refused(monkeypatch, triple, i):
    ctx, comps = decomposed("D", 3, 2, 0)
    comp = next(c for c in comps if c.triple == triple)
    extract_module(ctx, comp)  # passes unperturbed
    real = terwilliger.module_dual_intersection

    def patched(ctx, r, t, d):
        cs, as_, bs = (list(v) for v in real(ctx, r, t, d))
        as_[i] += 1
        return cs, as_, bs
    monkeypatch.setattr(terwilliger, "module_dual_intersection", patched)
    with pytest.raises(AssertionError,
                       match=re.escape(f"a*_{i}(W) of {triple} disagrees "
                                       "with the closed form")):
        extract_module(ctx, comp)


@pytest.mark.parametrize("i", [1, 2, 3])
def test_moved_standard_subdiagonal_is_refused(i):
    """The split sequences are read on the ladder A, which is A on the
    standard basis up to a diagonal change of basis: with its entry
    (i, i - 1) moved by 1, A loses the module's eigenvalues."""
    ctx, comps = decomposed("D", 3, 2, 0)
    comp = next(c for c in comps if c.triple == (0, 0, 3))
    leonard_from_tmodule(ctx, comp.triple,
                         extract_module(ctx, comp))  # passes unperturbed
    moved = ExactMatrix.from_rows([[1 if (a, b) == (i, i - 1) else 0
                                    for b in range(4)] for a in range(4)])
    comp = replace(comp, action=replace(comp.action,
                                        R=comp.action.R + moved))
    with pytest.raises(AssertionError,
                       match=re.escape("eigenvalue list disagrees with A")):
        extract_module(ctx, comp)


class Untouchable:
    """Stands in for the n x n matrices of a context; any use raises."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("an n x n matrix was read")

    __getattr__ = __getitem__ = __iter__ = __len__ = _refuse
    __matmul__ = __rmatmul__ = __add__ = __sub__ = __mul__ = _refuse
    __eq__ = __bool__ = _refuse


def test_module_extraction_reads_no_n_by_n_matrix():
    """The context and its Bose-Mesner data hold no n x n matrix;
    extraction reads none of the dense oracle's either."""
    ctx, comps = decomposed("C", 3, 2, 101)
    blind = replace(ctx, **{name: Untouchable() for name in
                            ("Estar", "A", "Astar", "K", "Kinv", "L", "F",
                             "R")})
    for held in (build_context(ctx.g, ctx.bm, 101), ctx.bm):
        assert not any(isinstance(v, ExactMatrix) for v in vars(held).values())
    for c in comps:
        want = extract_module(ctx, c)
        pa = extract_module(blind, c)
        assert pa == want
        assert leonard_from_tmodule(blind, c.triple, pa) \
            == leonard_from_tmodule(ctx, c.triple, want)
