"""U_q(sl2) modules L(d, eps) and the two structures on a dual q-Krawtchouk
Leonard system."""

import pytest

from dualpolar.exact import ExactScalar, q_pow
from dualpolar.leonard import DqkParams, dqk_array, realize
from dualpolar.linexact import ExactMatrix, spectral_projectors
from dualpolar.uqsl2 import (
    build_Ld,
    casimir_scalar,
    uq_on_leonard,
    verify_cross_variant_leonard,
    verify_split_basis_is_y_eigenbasis,
)

QS = {"2": ExactScalar(2), "sqrt2": ExactScalar.sqrt(2),
      "sqrt3": ExactScalar.sqrt(3)}


@pytest.mark.parametrize("qname", sorted(QS))
@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("basis", ["kef", "x-eigen", "y-eigen", "z-eigen"])
@pytest.mark.parametrize("d", [3, 4])
def test_build_Ld_is_L_d_eps(qname, eps, basis, d):
    """build_Ld checks the equitable and Chevalley relations itself; here k
    must be diagonalizable with the simple eigenvalues eps q^(d-2i), and the
    Casimir must act as the scalar of L(d, eps)."""
    q = QS[qname]
    act = build_Ld(d, eps, q, basis)
    assert act.dim == d + 1
    weights = [ExactScalar(eps) * q_pow(q, d - 2 * i) for i in range(d + 1)]
    projs = spectral_projectors(act.k, weights)
    assert all(p.trace() == ExactScalar(1) for p in projs)
    assert act.casimir() == ExactMatrix.identity(d + 1).scale(
        casimir_scalar(q, d, eps))


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
    inverses inside uq_on_leonard run the elimination over Q(sqrt 2)."""
    p = _params("sqrt2", d)
    real = realize(dqk_array(p), "normalized-split")
    assert not real.Astar.is_rational
    a1 = uq_on_leonard(real, p, eps, 1)
    a2 = uq_on_leonard(real, p, eps, 2)
    assert verify_cross_variant_leonard(a1, a2, p)
    assert not verify_cross_variant_leonard(a2, a1, p)
