"""U_q(sl2) modules L(d, eps), the two structures on a dual q-Krawtchouk
Leonard system, and the two on the standard module of C_3(2)."""

import re
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from dualpolar.exact import ExactScalar
from dualpolar.leonard import DqkParams, dqk_array, realize
from dualpolar.linexact import ExactMatrix, inverse, spectral_projectors
from dualpolar.terwilliger import ladder_action
from dualpolar.uqsl2 import (
    UqAction,
    casimir_scalar,
    dpg_uq_params,
    uq_on_leonard,
    uq_on_standard_module,
    verify_cross_variant_leonard,
    verify_cross_variant_standard,
)

from dense_oracle import (
    bracket,
    build_Ld,
    check_sum_vector,
    verify_split_basis_is_y_eigenbasis,
)

QS = {"2": ExactScalar(2), "sqrt2": ExactScalar.sqrt(2),
      "sqrt3": ExactScalar.sqrt(3)}


def chevalley_residuals(act: UqAction) -> list[tuple[str, ExactMatrix]]:
    """The Chevalley relations of k, e and f, each as a matrix that is zero
    when it holds; `UqAction.verify` checks the equitable ones, which imply
    them."""
    q = act.q
    qi = q.inverse()
    k, e, f = act.k, act.e, act.f
    c = (q - qi).inverse()
    return [
        ("k e = q^2 e k",
         ExactMatrix.combination(((1, k @ e), (-q * q, e @ k)))),
        ("k f = q^-2 f k",
         ExactMatrix.combination(((1, k @ f), (-qi * qi, f @ k)))),
        ("e f - f e = (k - k^-1)/(q - q^-1)",
         ExactMatrix.combination(((1, e @ f), (-1, f @ e), (-c, k),
                                  (c, act.kinv)))),
    ]


@pytest.mark.parametrize("qname", sorted(QS))
@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("basis", ["kef", "x-eigen", "y-eigen", "z-eigen"])
@pytest.mark.parametrize("d", [3, 4])
def test_build_Ld_is_L_d_eps(qname, eps, basis, d):
    """build_Ld checks the equitable relations itself; here the Chevalley
    relations must hold, k must be diagonalizable with the simple
    eigenvalues eps q^(d-2i), and the Casimir must act as the scalar of
    L(d, eps)."""
    q = QS[qname]
    act = build_Ld(d, eps, q, basis)
    assert act.dim == d + 1
    for name, resid in chevalley_residuals(act):
        assert resid.is_zero(), name
    weights = [ExactScalar(eps) * q ** (d - 2 * i) for i in range(d + 1)]
    projs = spectral_projectors(act.k, weights)
    assert all(sum((p.entry(i, i) for i in range(d + 1)), ExactScalar(0))
               == ExactScalar(1) for p in projs)
    assert act.casimir() == ExactMatrix.identity(d + 1).scale(
        casimir_scalar(q, d, eps))
    if basis == "kef":
        # x and y are built from this k, e, f, and solve back to them
        n, zero = d + 1, ExactScalar(0)
        assert act.k == ExactMatrix.diag(weights)
        assert act.f == ExactMatrix.from_rows([
            [bracket(q, i) if i == j + 1 else zero for j in range(n)]
            for i in range(n)])
        assert act.e == ExactMatrix.from_rows([
            [ExactScalar(eps) * bracket(q, d - i) if j == i + 1 else zero
             for j in range(n)] for i in range(n)])


def test_build_Ld_rejects_bad_input():
    with pytest.raises(ValueError, match="eps"):
        build_Ld(2, 0, ExactScalar(2))
    with pytest.raises(ValueError, match="basis"):
        build_Ld(2, 1, ExactScalar(2), "w-eigen")
    with pytest.raises(ValueError, match="reducible"):
        build_Ld(2, 1, ExactScalar(-1))


def _params(qname, d):
    # kappa = 1 differs from upsilon q^(2i-2d) = 5 b^(i-d) for b = 2, 3, 4
    return DqkParams(QS[qname], d, h=1, h_star=-2, kappa=1, kappa_star=2,
                     upsilon=5)


@pytest.mark.parametrize("qname", sorted(QS))
@pytest.mark.parametrize("eps", [1, -1])
def test_split_basis_is_y_eigenbasis(qname, eps):
    p = _params(qname, 4)
    real = realize(dqk_array(p), "normalized-split")
    assert verify_split_basis_is_y_eigenbasis(
        real, uq_on_leonard(real, p, eps, 1), eps)
    # the statement is about the variant-1 structure only
    assert not verify_split_basis_is_y_eigenbasis(
        real, uq_on_leonard(real, p, eps, 2), eps)
    with pytest.raises(ValueError, match="normalized-split"):
        verify_split_basis_is_y_eigenbasis(
            realize(dqk_array(p), "split"), uq_on_leonard(real, p, eps, 1),
            eps)


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("eps", [1, -1])
def test_cross_variant_leonard_odd_d_sqrt2(d, eps):
    """At odd d with q = sqrt2 the matrices have irrational entries, so the
    inverses inside uq_on_leonard run the elimination over Q(sqrt 2).  Both
    structures satisfy the Chevalley relations."""
    p = _params("sqrt2", d)
    real = realize(dqk_array(p), "normalized-split")
    assert not real.Astar.is_rational
    a1 = uq_on_leonard(real, p, eps, 1)
    a2 = uq_on_leonard(real, p, eps, 2)
    for act in (a1, a2):
        for name, resid in chevalley_residuals(act):
            assert resid.is_zero(), name
    assert verify_cross_variant_leonard(a1, a2, p)
    assert not verify_cross_variant_leonard(a2, a1, p)


def test_sum_vector_refuses_another_eigenbasis():
    """The sum of the x-eigenbasis vectors is normalized for y and z, not
    for the companions of the y-eigenbasis, nor for the other eps."""
    act = build_Ld(3, 1, QS["sqrt2"], "x-eigen")
    check_sum_vector(act, 3, 1, "x-eigen")
    for eps, basis in ((1, "y-eigen"), (-1, "x-eigen")):
        with pytest.raises(AssertionError,
                           match="sum vector normalization fails"):
            check_sum_vector(act, 3, eps, basis)


@pytest.mark.parametrize("d", [2, 3])
def test_uq_on_leonard_refuses_parameters_of_another_system(monkeypatch, d):
    """Parameters that do not belong to the realization: q read as q^-1
    reverses the weights of Z, and, with the equitable relations left
    unchecked, h moved by 1 breaks the recovery of A."""
    p = _params("2", d)
    real = realize(dqk_array(p), "split")
    with pytest.raises(AssertionError, match=re.escape(
            "Z spectrum is not {eps q^(d-2i)}")):
        uq_on_leonard(real, replace(p, q=p.q.inverse()))
    monkeypatch.setattr(UqAction, "verify", lambda self: None)
    with pytest.raises(AssertionError, match="^A recovery fails"):
        uq_on_leonard(real, replace(p, h=p.h + 1))


# ---------------------------------------------------------------------------
# The two structures on the standard module of C_3(2)


@pytest.fixture(scope="module")
def sm_c32(ctx_c32, center_c32):
    return {v: uq_on_standard_module(ctx_c32, center_c32, v) for v in (1, 2)}


def test_dpg_uq_params_c32(ctx_c32):
    # h = (1 - q^2e)/(q^2 - 1), h* = zeta, kappa = q^(2e+D)/(q^2 - 1),
    # kappa* = xi q^-D, upsilon = -q^D/(q^2 - 1) at q = sqrt2, e = 1, D = 3
    p = dpg_uq_params(ctx_c32)
    assert p == {"h": ExactScalar(-1), "h_star": ExactScalar(-10),
                 "kappa": ExactScalar(0, 4, 2),
                 "kappa_star": ExactScalar(0, Fraction(45, 4), 2),
                 "upsilon": ExactScalar(0, -2, 2)}


@pytest.mark.parametrize("variant", [1, 2])
def test_uq_on_standard_module_c32(ctx_c32, comps_c32, center_c32, sm_c32,
                                   variant):
    """On every component, the relations, the recoveries (x and y swapped
    in variant 2)
        A = h + kappa U^-1 P x + upsilon U P^-1 y,
        A* = h* + kappa* U^-1 P^-1 z,
    and the Casimir acting as the diameter weight, recomputed here on the
    ladder matrices."""
    sm = sm_c32[variant]
    p = sm.params
    assert sm.variant == variant
    assert sorted(sm.actions) == sorted(c.triple for c in comps_c32)
    c = center_c32
    for triple, act in sm.actions.items():
        d = triple[2]
        assert act.dim == d + 1
        for name, resid in act.equitable_residuals() \
                + chevalley_residuals(act):
            assert resid.is_zero(), name
        lad = ladder_action(ctx_c32, *triple)
        ident = ExactMatrix.identity(d + 1)
        ups, psi = c.Upsilon[triple], c.Psi[triple]
        first = ident.scale(p["kappa"] * psi / ups)
        second = ident.scale(p["upsilon"] * ups / psi)
        x, y = (act.X, act.Y) if variant == 1 else (act.Y, act.X)
        assert ident.scale(p["h"]) + first @ x + second @ y == lad.A
        if d:
            assert ident.scale(p["h"]) + first @ y + second @ x != lad.A
        assert ident.scale(p["h_star"]) + act.Z.scale(
            p["kappa_star"] / (ups * psi)) == lad.Astar
        assert act.casimir() == ident.scale(c.Lam[triple])


def test_cross_variant_standard_c32(ctx_c32, center_c32, sm_c32):
    sm1, sm2 = sm_c32[1], sm_c32[2]
    a1, a2 = sm1.actions[(0, 0, 3)], sm2.actions[(0, 0, 3)]
    assert a1.k == a2.k
    assert a1.e != a2.e and a1.f != a2.f
    assert verify_cross_variant_standard(ctx_c32, center_c32, sm1, sm2)
    assert not verify_cross_variant_standard(ctx_c32, center_c32, sm2, sm1)
    assert not verify_cross_variant_standard(ctx_c32, center_c32, sm1, sm1)


@pytest.mark.parametrize("moved", ["k", "f"])
def test_cross_variant_standard_refuses_a_moved_generator(
        ctx_c32, center_c32, sm_c32, moved):
    """Variant 2 with k, or with f alone (e left as it is), scaled on one
    component no longer matches variant 1."""
    sm1, sm2 = sm_c32[1], sm_c32[2]
    triple = (0, 0, 3)
    a2 = sm2.actions[triple]
    gens = {"k": a2.k, "e": a2.e, "f": a2.f}
    gens[moved] = gens[moved].scale(2)
    sm = replace(sm2, actions={**sm2.actions, triple: SimpleNamespace(**gens)})
    assert not verify_cross_variant_standard(ctx_c32, center_c32, sm1, sm)


def test_chevalley_generators_built_once():
    """e and f are built once per action: casimir and the cross-variant
    check read the same matrices."""
    act = build_Ld(3, 1, QS["sqrt2"], "x-eigen")
    assert act.e is act.e and act.f is act.f
    e, f = act.e, act.f
    act.verify()
    act.casimir()
    assert act.e is e and act.f is f


@pytest.mark.parametrize("which", ["X", "Y", "Z"])
def test_perturbed_generator_fails_its_relations(which):
    """An action built from a perturbed generator gets its own e and f, and
    fails the relations."""
    q = QS["sqrt3"]
    good = build_Ld(3, -1, q, "y-eigen")
    mats = {"X": good.X, "Y": good.Y, "Z": good.Z}
    mats[which] = mats[which] + ExactMatrix.diag([0, 0, 0, 1])
    bad = UqAction(q, mats["X"], mats["Y"], mats["Z"],
                   inverse(mats["Z"]) if which == "Z" else good.Zinv)
    with pytest.raises(AssertionError, match="defining relation .* fails"):
        bad.verify()
    assert (bad.e, bad.f) != (good.e, good.f)
