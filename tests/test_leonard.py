import re
from fractions import Fraction

import numpy as np
import pytest

from dualpolar.exact import ExactScalar
from dualpolar.leonard import (
    DqkParams,
    ParameterArray,
    certify_leonard_system,
    d4_transform,
    dqk_array,
    eigenbasis,
    extract_from_realization,
    extract_parameter_array,
    intersection_data,
    pa_from_json,
    pa_to_json,
    realize,
    td_aw_scalars,
    validate,
    verify_td_aw_matrix,
)
from dualpolar.linexact import ExactMatrix, kernel, spectral_projectors
from dualpolar.uqsl2 import uq_on_leonard, verify_cross_variant_leonard

from dense_oracle import (
    dqk_ddown_params,
    dqk_intersection_closed_forms,
    dqk_td_aw_closed_forms,
)


@pytest.fixture(scope="module")
def ref():
    """The q = 2, d = 3 reference family member."""
    return DqkParams(ExactScalar(2), 3, 0, 0, 1, 1, 3)


@pytest.fixture(scope="module")
def ref_pa(ref):
    return dqk_array(ref)


def test_dqk_eigenvalues(ref_pa):
    assert [x.as_fraction() for x in ref_pa.theta] == [
        Fraction(67, 8), Fraction(7, 2), Fraction(13, 2), Fraction(193, 8)]
    assert [x.as_fraction() for x in ref_pa.theta_star] == [
        8, 2, Fraction(1, 2), Fraction(1, 8)]
    assert ref_pa.phi[0] == ExactScalar(Fraction(-189, 4))


def test_validate_reference(ref_pa):
    v = validate(ref_pa)
    assert v.valid
    assert v.beta_plus_one == ExactScalar(Fraction(21, 4))


def test_pa1_fails_for_kappa_equals_upsilon(monkeypatch):
    bad = DqkParams(ExactScalar(2), 3, 0, 0, 1, 1, 1)
    with pytest.raises(ValueError):
        bad.check()
    monkeypatch.setattr(DqkParams, "check", lambda self: None)
    pa = dqk_array(bad)
    assert pa.theta[1] == pa.theta[2]
    v = validate(pa)
    assert not v.valid and v.failure[0] == "PA1"


def test_pa2_failure_reported_with_index(ref_pa):
    phi = list(ref_pa.phi)
    phi[1] = ExactScalar(0)
    broken = ParameterArray(ref_pa.theta, ref_pa.theta_star, phi, ref_pa.phi2)
    v = validate(broken)
    assert not v.valid
    assert v.failure == ("PA2", 2)


def test_pa4_failure_reported_with_index():
    pa = dqk_array(DqkParams(ExactScalar(2), 4, 1, -2, 1, 2, 5))
    phi2 = list(pa.phi2)
    phi2[2] = phi2[2] + 1
    v = validate(ParameterArray(pa.theta, pa.theta_star, pa.phi, phi2))
    assert not v.valid and v.failure == ("PA4", 3)


def _pa3_pa4_array(theta, theta_star, phi2_1) -> ParameterArray:
    """The array on theta and theta* whose phi and phi2 solve conditions
    PA3 and PA4, given phi2_1."""
    th, ths = list(map(ExactScalar, theta)), list(map(ExactScalar, theta_star))
    d = len(th) - 1
    accs, acc = [], ExactScalar(0)
    for i in range(1, d + 1):
        acc = acc + (th[i - 1] - th[d - i + 1]) / (th[0] - th[d])
        accs.append(acc)
    phi = [ExactScalar(phi2_1) * a + (ths[i] - ths[0]) * (th[i - 1] - th[d])
           for i, a in enumerate(accs, 1)]
    phi2 = [phi[0] * a + (ths[i] - ths[0]) * (th[d - i + 1] - th[0])
            for i, a in enumerate(accs, 1)]
    return ParameterArray(th, ths, phi, phi2)


@pytest.mark.parametrize("theta_star,index", [
    ((0, 2, 5, 9, 30), 2), ((0, 1, 3, 7, 20), 3)],
    ids=["ratios-differ", "ratio-moves"])
def test_pa5_failure_reported_with_index(theta_star, index):
    """PA1 to PA4 hold.  With theta* apart from theta, the ratios of theta
    and theta* differ at i = 2; with theta* = theta they agree, but their
    common value moves at i = 3."""
    v = validate(_pa3_pa4_array((0, 1, 3, 7, 20), theta_star, 7))
    assert not v.valid and v.failure == ("PA5", index)


def test_d0_trivially_valid():
    pa = ParameterArray([5], [7], [], [])
    v = validate(pa)
    assert v.valid and v.beta_plus_one is None


@pytest.mark.parametrize("d", [0, 1, 2])
def test_td_aw_scalars_refuses_d_below_3(d):
    """beta + 1 is the ratio of condition (v), which has no index for
    d < 3: there beta is not unique, and no scalars are computed."""
    pa = dqk_array(DqkParams(ExactScalar(2), d, 0, 0, 1, 1, 3))
    with pytest.raises(ValueError, match=re.escape(
            "the recurrences fix the scalars only for d >= 3")):
        td_aw_scalars(pa)


def test_dual_eigenvalue_difference_identity(ref, ref_pa):
    # theta*_i - theta*_j = kappa* q^d (q^-i - q^-j)(q^-i + q^-j)
    q, d = ref.q, ref.d
    for i in range(d + 1):
        for j in range(d + 1):
            lhs = ref_pa.theta_star[i] - ref_pa.theta_star[j]
            rhs = ref.kappa_star * q ** d \
                * (q ** -i - q ** -j) \
                * (q ** -i + q ** -j)
            assert lhs == rhs


def test_d4_involutions_and_braid(ref_pa):
    for g in ("*", "down", "ddown"):
        t = d4_transform(ref_pa, g)
        assert validate(t).valid
        assert d4_transform(t, g) == ref_pa
    lhs = d4_transform(d4_transform(ref_pa, "*"), "ddown")
    rhs = d4_transform(d4_transform(ref_pa, "down"), "*")
    assert lhs == rhs
    dd = d4_transform(d4_transform(ref_pa, "down"), "ddown")
    assert dd == d4_transform(d4_transform(ref_pa, "ddown"), "down")


def test_ddown_swaps_kappa_upsilon(ref, ref_pa):
    swapped = dqk_array(dqk_ddown_params(ref))
    t = d4_transform(ref_pa, "ddown")
    assert t == swapped
    assert t.theta == tuple(reversed(ref_pa.theta))
    assert t.phi == ref_pa.phi2 and t.phi2 == ref_pa.phi


def test_realize_normalized_split(ref_pa):
    real = realize(ref_pa, "normalized-split")
    ths = ref_pa.theta_star
    want = [ths[3] - ths[0], ths[3] - ths[1], ths[3] - ths[2]]
    assert [real.Astar.entry(i, i + 1) for i in range(3)] == want
    assert want == [ExactScalar(Fraction(-63, 8)), ExactScalar(Fraction(-15, 8)),
                    ExactScalar(Fraction(-3, 8))]
    for i in range(4):
        s = ExactScalar(0)
        for j in range(4):
            s = s + real.Astar.entry(i, j)
        assert s == ths[3]  # constant row sum theta*_d = 1/8


def test_realize_standard_row_sums(ref_pa):
    real = realize(ref_pa, "standard")
    for i in range(4):
        s = ExactScalar(0)
        for j in range(4):
            s = s + real.A.entry(i, j)
        assert s == ref_pa.theta[0]  # a_i + b_i + c_i = theta_0 = 67/8


def test_intersection_reference_values(ref, ref_pa):
    c, a, b, cs, astar, bs = intersection_data(ref_pa)
    assert b[0] == ExactScalar(Fraction(63, 8))
    assert c[1] == ExactScalar(Fraction(-9, 8))
    assert a[0] == ExactScalar(Fraction(1, 2))
    for i in range(4):
        assert a[i] + b[i] + c[i] == ref_pa.theta[0]
    assert (c, a, b, cs, astar, bs) == dqk_intersection_closed_forms(ref)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("q", ["2", "sqrt3"])
def test_intersection_a_matches_the_diagonal_form(d, q):
    """intersection_data reads a_i = theta_0 - b_i - c_i off phi and phi2;
    on a valid array it equals the diagonal form theta_i + phi_i /
    (theta*_i - theta*_(i-1)) + phi_(i+1) / (theta*_i - theta*_(i+1)),
    which `intersection_data` leaves unchecked as a theorem."""
    qq = ExactScalar(2) if q == "2" else ExactScalar.sqrt(3)
    pa = dqk_array(DqkParams(qq, d, 2, -1, 1, 2, 5))
    assert validate(pa).valid
    th, ths, phi = pa.theta, pa.theta_star, pa.phi
    zero = ExactScalar(0)
    diagonal = [th[i] + (phi[i - 1] / (ths[i] - ths[i - 1]) if i else zero)
                + (phi[i] / (ths[i] - ths[i + 1]) if i < d else zero)
                for i in range(d + 1)]
    assert intersection_data(pa)[1] == diagonal


def test_td_aw_scalars_reference(ref, ref_pa):
    s = td_aw_scalars(ref_pa)
    assert s.beta == ExactScalar(Fraction(17, 4))
    assert s.gamma == ExactScalar(0)
    assert s.gamma_star == ExactScalar(0)
    assert s.rho == ExactScalar(Fraction(-675, 16))
    assert s.rho_star == ExactScalar(0)
    assert s.omega == ExactScalar(-9)  # (beta-2)(2hh* - (kappa+upsilon)kappa*)
    closed = dqk_td_aw_closed_forms(ref)
    for attr in ("beta", "gamma", "gamma_star", "rho", "rho_star", "omega",
                 "eta", "eta_star"):
        assert getattr(s, attr) == getattr(closed, attr), attr


def test_td_aw_matrix_identities(ref_pa):
    s = td_aw_scalars(ref_pa)
    for basis in ("split", "normalized-split", "standard"):
        assert verify_td_aw_matrix(realize(ref_pa, basis), s)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("params", [
    (0, 0, 1, 1, 3),
    (2, -1, 1, 2, 5),
    (Fraction(1, 2), 3, Fraction(-2, 3), 1, Fraction(7, 2)),
])
def test_dqk_family_q2(d, params):
    h, hs, k, ks, u = params
    p = DqkParams(ExactScalar(2), d, h, hs, k, ks, u)
    pa = dqk_array(p)
    assert validate(pa).valid
    real = realize(pa, "split")
    assert extract_from_realization(real) == pa
    s = dqk_td_aw_closed_forms(p)
    assert verify_td_aw_matrix(real, s)
    if d >= 3:
        s2 = td_aw_scalars(pa)
        assert s2.beta == s.beta and s2.omega == s.omega
    if d >= 1:
        assert intersection_data(pa) == dqk_intersection_closed_forms(p)


def test_dqk_irrational_q():
    q = ExactScalar.sqrt(2)
    # upsilon = 2 sqrt(2) would give kappa = upsilon q^-2, so theta_0 = theta_2:
    # not a Leonard system, and check() must refuse it.
    bad = DqkParams(q, 3, 1, 0, ExactScalar(0, 1, 2), 1, ExactScalar(0, 2, 2))
    with pytest.raises(ValueError, match="kappa = upsilon q"):
        dqk_array(bad)
    # upsilon q^(2i-6) for 1 <= i <= 5 is 3sqrt2/4, ..., 12sqrt2; none is kappa.
    p = DqkParams(q, 3, 1, 0, ExactScalar(0, 1, 2), 1, ExactScalar(0, 3, 2))
    pa = dqk_array(p)
    assert validate(pa).valid
    real = realize(pa, "normalized-split")
    assert extract_from_realization(real) == pa
    assert verify_td_aw_matrix(real, dqk_td_aw_closed_forms(p))


@pytest.mark.parametrize("basis", ["split", "normalized-split"])
@pytest.mark.parametrize("d", [8, 10])
def test_uq_structures_q_sqrt3(d, basis):
    # The products here meet denominators and scale factors above 2^63 on
    # all-zero parts, which ExactMatrix must handle without int64 overflow.
    p = DqkParams(ExactScalar.sqrt(3), d, 2, 2, 1, 2, -3)
    real = realize(dqk_array(p), basis)
    act1 = uq_on_leonard(real, p, 1, 1)
    act2 = uq_on_leonard(real, p, 1, 2)
    assert verify_cross_variant_leonard(act1, act2, p)


def test_round_trip_all_d4_relatives(ref_pa):
    for g in ("*", "down", "ddown"):
        t = d4_transform(ref_pa, g)
        real = realize(t, "split")
        assert extract_from_realization(real) == t


def test_json_round_trip(ref, ref_pa):
    data = pa_to_json(ref_pa)
    assert data["d"] == 3
    assert list(data) == ["d", "theta", "theta_star", "phi", "phi2"]
    back = pa_from_json(data)
    assert back == ref_pa
    dqk_form = {"q": "2", "d": 3, "h": "0", "h_star": "0", "kappa": "1",
                "kappa_star": "1", "upsilon": "3"}
    assert pa_from_json(dqk_form) == ref_pa


@pytest.mark.parametrize("i,j,message", [
    (1, 0, "split action is not scalar"),
    (2, 2, "split action is not scalar"),
    (3, 3, "the last split vector is not in E_d V"),
])
def test_split_sequence_refuses_an_uncertified_pair(ref_pa, i, j, message):
    """`extract_parameter_array` checks each step of its recurrence: with
    entry (i, j) of the split A moved by 1, a pair that
    `certify_leonard_system` would refuse, a step fails."""
    real = realize(ref_pa, "split")
    moved = ExactMatrix.from_rows([[int((a, b) == (i, j)) for b in range(4)]
                                   for a in range(4)])
    u0 = real.eig_star.V.submatrix(range(4), [0])
    with pytest.raises(AssertionError, match=re.escape(message)):
        extract_parameter_array(real.A + moved, real.Astar, u0,
                                ref_pa.theta, ref_pa.theta_star)


def test_graph_module_leonard_bridge(ctx_c32, comps_c32):
    from dualpolar.leonard import leonard_from_tmodule
    from dualpolar.terwilliger import extract_module

    ctx = ctx_c32
    primary = [c for c in comps_c32 if c.triple == (0, 0, 3)][0]
    pa = extract_module(ctx, primary)
    params = leonard_from_tmodule(ctx, primary.triple, pa)
    assert params.h == ExactScalar(-1)
    assert params.h_star == ExactScalar(-10)
    assert params.kappa == ExactScalar(0, 4, 2)  # 4 sqrt(2) = q^5
    assert params.kappa_star == ExactScalar(0, Fraction(45, 4), 2)
    assert params.upsilon == ExactScalar(0, -2, 2)
    assert pa.phi[0] == ExactScalar(-315)
    # sanity: h + kappa q^d + upsilon q^-d = theta_0 = 14
    q = ctx.q
    assert params.h + params.kappa * q ** 3 \
        + params.upsilon * q ** -3 == ExactScalar(14)
    # the graph intersection numbers coincide with the system's for the
    # primary module
    c, a, b, *_ = intersection_data(pa)
    assert [x.as_fraction() for x in c] == [0, 1, 3, 7]
    assert [x.as_fraction() for x in b] == [14, 12, 8, 0]


# ---------------------------------------------------------------------------
# The dense projector path as an oracle for the rank-one path


def _null_line(m: ExactMatrix) -> ExactMatrix:
    """A column spanning the right null space of m over Q(sqrt r), which
    must be a line.  With m = (M0 + M1 sqrt r) / den, m (v0 + v1 sqrt r) = 0
    for rational v0, v1 exactly when (v0, v1) is in the Q-kernel of
    [[M0, r M1], [M1, M0]]; with v, sqrt r v is a solution too, so that
    kernel has twice the dimension, and its first RREF row gives v."""
    n = m.shape[1]
    m1 = np.zeros_like(m.n0) if m.n1 is None else m.n1
    basis, _ = kernel(ExactMatrix.from_int(
        np.block([[m.n0, m.rad * m1], [m1, m.n0]])))
    assert basis.shape[0] == 2
    return ExactMatrix(basis.n0[:1, :n].T, basis.n0[:1, n:].T, basis.den,
                       m.rad)


def _dense_split_sequence(A, Astar, E, Estar, theta, theta_star):
    """phi_i from the split summand U_i = (E*_0 + ... + E*_i) V cap
    (E_i + ... + E_d) V, the joint kernel of I minus the two projector
    sums, and the action of (A - theta_(i-1))(A* - theta*_i) on it."""
    d = len(E) - 1
    n = A.shape[0]
    ident = ExactMatrix.identity(n)
    phis = []
    for i in range(1, d + 1):
        lower, upper = Estar[0], E[d]
        for h in range(1, i + 1):
            lower = lower + Estar[h]
        for h in range(i, d):
            upper = upper + E[h]
        u = _null_line(ExactMatrix.stack_rows([ident - lower, ident - upper]))
        w = (A - ident.scale(theta[i - 1])) @ (
            (Astar - ident.scale(theta_star[i])) @ u)
        pos = next(j for j in range(n) if not u.entry(j, 0).is_zero)
        phi = w.entry(pos, 0) / u.entry(pos, 0)
        assert w == u.scale(phi)
        phis.append(phi)
    return phis


def _rank_one(eig):
    """E_i = v_i w_i / (w_i v_i) from an Eigenbasis."""
    n = eig.V.shape[0]
    gram = eig.W @ eig.V
    return [(eig.V.submatrix(range(n), [i]) @ eig.W.take_rows([i]))
            .scale(gram.entry(i, i).inverse()) for i in range(n)]


@pytest.mark.parametrize("basis", ["split", "normalized-split", "standard"])
@pytest.mark.parametrize("d", [1, 2, 4, 6])
@pytest.mark.parametrize("qname", ["2", "sqrt2"])
def test_rank_one_path_against_dense_oracle(qname, d, basis):
    q = ExactScalar(2) if qname == "2" else ExactScalar.sqrt(2)
    p = DqkParams(q, d, 1, -2, 1, 2, 5)
    pa = dqk_array(p)
    real = realize(pa, basis)
    E = spectral_projectors(real.A, pa.theta)
    Estar = spectral_projectors(real.Astar, pa.theta_star)
    assert _rank_one(real.eig) == E
    assert _rank_one(real.eig_star) == Estar
    pattern = real.eig.W @ real.Astar @ real.eig.V
    pattern_star = real.eig_star.W @ real.A @ real.eig_star.V
    for i in range(d + 1):
        for j in range(d + 1):
            assert (E[i] @ real.Astar @ E[j]).is_zero() \
                == pattern.entry(i, j).is_zero
            assert (Estar[i] @ real.A @ Estar[j]).is_zero() \
                == pattern_star.entry(i, j).is_zero
    assert _dense_split_sequence(real.A, real.Astar, E, Estar, pa.theta,
                                 pa.theta_star) == list(pa.phi)
    assert _dense_split_sequence(real.A, real.Astar, E[::-1], Estar,
                                 pa.theta[::-1], pa.theta_star) \
        == list(pa.phi2)
    assert extract_from_realization(real) == pa


@pytest.mark.parametrize("i", [1, 2, 3])
def test_perturbed_split_pair_fails_axioms(ref_pa, i):
    """The split-basis pair of an array with phi_i shifted by one is no
    Leonard pair: the certificate names an E_a A* E_b with |a - b| > 1 that
    does not vanish, and the dense triple product agrees."""
    d = ref_pa.d
    phi = list(ref_pa.phi)
    phi[i - 1] = phi[i - 1] + 1
    assert not validate(ParameterArray(ref_pa.theta, ref_pa.theta_star, phi,
                                       ref_pa.phi2)).valid
    A = ExactMatrix.from_rows([[ref_pa.theta[r] if r == c else
                                (1 if r == c + 1 else 0)
                                for c in range(d + 1)] for r in range(d + 1)])
    Astar = ExactMatrix.from_rows([[ref_pa.theta_star[r] if r == c else
                                    (phi[r] if c == r + 1 else 0)
                                    for c in range(d + 1)]
                                   for r in range(d + 1)])
    with pytest.raises(AssertionError, match="should vanish in an "
                       "irreducible tridiagonal pattern") as err:
        certify_leonard_system(A, Astar, ref_pa.theta, ref_pa.theta_star)
    a, b = map(int, re.match(r"E_(\d+) A\* E_(\d+)",
                             str(err.value)).groups())
    assert abs(a - b) > 1
    E = spectral_projectors(A, ref_pa.theta)
    assert not (E[a] @ Astar @ E[b]).is_zero()


def test_certificate_edge_cases():
    """d = 0 is a Leonard system with empty split sequences; a matrix with
    an entry outside the band has no three-term eigenvector recurrence."""
    A = ExactMatrix.from_rows([[3]])
    eig, eig_star = certify_leonard_system(A, ExactMatrix.from_rows([[5]]),
                                           [3], [5])
    assert extract_parameter_array(A, ExactMatrix.from_rows([[5]]),
                                   eig_star.V, [3], [5]) == \
        ParameterArray([3], [5], [], [])
    full = ExactMatrix.from_rows([[1, 0, 2], [0, 2, 0], [0, 0, 3]])
    with pytest.raises(AssertionError, match="matrix is neither diagonal nor "
                       "tridiagonal with a nowhere-zero off-diagonal"):
        certify_leonard_system(full, ExactMatrix.diag([1, 2, 3]), [1, 2, 3],
                               [1, 2, 3])


@pytest.mark.parametrize("rows,eigs,message", [
    ([[1, 0], [0, 2]], [1, 2, 3],
     "A is not 3 x 3, the size of its eigenvalue list"),
    ([[1, 0], [0, 2]], [1, 3], "3 is not on the diagonal"),
    ([[0, 1], [1, 0]], [1, 2], "eigenvalue list disagrees with A"),
    # coinciding eigenvalues: equal columns of V and rows of W
    ([[0, 1], [1, 0]], [1, 1], "not dual bases"),
    ([[1, 0], [0, 1]], [1, 1],
     "left and right eigenvectors of A are not dual bases"),
    # nilpotent: its one eigenvector is orthogonal to its left eigenvector
    ([[1, 1], [-1, -1]], [0, 0], "not dual bases"),
])
def test_eigenbasis_refusals(rows, eigs, message):
    with pytest.raises(AssertionError, match=message):
        eigenbasis(ExactMatrix.from_rows(rows),
                   [ExactScalar(x) for x in eigs], "A")
