"""The module-local path against a dense n x n oracle.

`decompose` certifies L, F, R on each component's raising ladder, and the
displacement weights, the center checks and both U_q(sl2) structures run on
(d+1) x (d+1) ladder matrices.  The oracle here builds what that replaced:
one orthogonal projector per component, Upsilon, Psi, Lambda as n x n sums
of projectors, and x, y, z from the n x n K, L, R.  Applied to every copy of
every ladder, each dense operator must act as the ladder matrix does."""

import re
from dataclasses import replace

import numpy as np
import pytest

from dualpolar.drg import spectral_data
from dualpolar.linexact import ExactMatrix, inverse
from dualpolar.polar import FormSpec, PolarGraph, build_polar_graph
from dualpolar import terwilliger
from dualpolar.terwilliger import (
    _embed,
    build_context,
    central_elements,
    decompose,
    ladder_action,
    upsilon_psi_lambda,
)
from dualpolar.uqsl2 import casimir_scalar, uq_on_standard_module


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
        for j, rung in enumerate(c.rungs):
            block = ctx.blocks[c.r + j]
            proj = proj + _embed(orthogonal_projector(rung), (n, n),
                                 np.ix_(block, block))
        assert proj @ proj == proj and proj.T == proj
        total = total + proj
        mu, nu = c.r + c.t + c.d - ctx.D, c.r - c.t
        for key, val in (("ups", ctx.qexp(mu)), ("ups_inv", ctx.qexp(-mu)),
                         ("psi", ctx.qexp(nu)), ("psi_inv", ctx.qexp(-nu)),
                         ("lam", casimir_scalar(ctx.q, c.d, 1))):
            out[key] = out[key] + proj.scale(val)
    assert total == ExactMatrix.identity(n)
    return out


def dense_xyz(ctx, m, variant):
    """x, y, z of the given variant from the n x n K, L, R."""
    q2 = ctx.q * ctx.q
    D, e2 = ctx.D, ctx.two_e()
    base = (m["ups_inv"] @ m["psi_inv"] @ ctx.Kinv).scale(ctx.qexp(-D))
    if variant == 1:
        x = base + (m["ups"] @ m["psi_inv"] @ ctx.R).scale(
            ctx.qexp(-e2 - D) * (q2 - 1))
        y = base - (m["ups_inv"] @ m["psi"] @ ctx.L).scale(
            ctx.qexp(-D) * (q2 - 1))
    else:
        x = base - (m["ups_inv"] @ m["psi"] @ ctx.R).scale(
            ctx.qexp(-D) * (q2 - 1))
        y = base + (m["ups"] @ m["psi_inv"] @ ctx.L).scale(
            ctx.qexp(-e2 - D) * (q2 - 1))
    z = (m["ups"] @ m["psi"] @ ctx.K).scale(ctx.qexp(D))
    return x, y, z


def ladder_copies(ctx, comp):
    """One n x (d+1) matrix per copy, with column j the copy's rung j."""
    n = ctx.n
    for i in range(comp.mult):
        cols = [_embed(rung.take_rows([i]), (1, n),
                       (slice(None), ctx.blocks[comp.r + j]))
                for j, rung in enumerate(comp.rungs)]
        yield ExactMatrix.stack_rows(cols).T


@pytest.mark.parametrize("family,D,b,bases", [("D", 3, 2, (0, 17)),
                                              ("C", 3, 2, (0, 101))])
def test_ladder_matrices_match_dense_operators(family, D, b, bases):
    g = build_polar_graph(FormSpec(family, D, b))
    bm = spectral_data(g)
    for x in bases:
        ctx = build_context(g, bm, x)
        comps = decompose(ctx, central_elements(ctx))
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
    cents = central_elements(ctx)
    decompose(ctx, cents)  # passes unperturbed
    monkeypatch.setattr(terwilliger, "module_intersection",
                        _perturbed_intersection(triple, which, j))
    with pytest.raises(AssertionError, match=re.escape(str(triple))):
        decompose(ctx, cents)


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
    tampered = replace(ctx, g=PolarGraph(g.spec, g.vertices, adj, g.dist))
    with pytest.raises(AssertionError, match=re.escape("(0, 0, 3)")):
        decompose(tampered, central_elements(ctx))
