"""Abstract Leonard systems over exact scalars.

A parameter array ({theta_i}; {theta*_i}; {phi_i}; {phi2_i}) is validated
against the five classification conditions, acted on by the dihedral
transforms (*, down-arrow, double-down-arrow), realized as matrices in the
split / normalized-split / standard bases, and converted to intersection
data and tridiagonal / Askey-Wilson scalars.  The dual q-Krawtchouk family
is generated from its closed forms, and parameter arrays are extracted from
irreducible modules of a dual polar graph via the split decomposition.

Every primitive idempotent of a Leonard system is rank one,
E_i = v_i w_i / (w_i v_i) with v_i, w_i the right and left theta_i
eigenvectors, and every matrix realized here is tridiagonal (split and
normalized-split are bidiagonal, standard is tridiagonal plus a diagonal
matrix, a module's A* on its dual standard basis is tridiagonal), built by
`ExactMatrix.tridiagonal` from its three bands.  So no
idempotent is ever formed: `eigenbasis` solves for V and W by the
three-term recurrence and certifies them with three exact identities,
`certify_leonard_system` reads both Leonard axioms off the zero patterns of
the two (d+1) x (d+1) matrices W A* V and W* A V*, and
`first_split_sequence` finds phi_i along one vector recurrence (Terwilliger,
*Two linear transformations each tridiagonal with respect to an eigenbasis
of the other*, Linear Algebra Appl. 330 (2001); *Leonard pairs from 24
points of view*, Rocky Mountain J. Math. 32 (2002)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exact import ExactScalar, q_pow
from .linexact import ExactMatrix


def _sc(x) -> ExactScalar:
    return x if isinstance(x, ExactScalar) else ExactScalar(x)


@dataclass(frozen=True)
class ParameterArray:
    theta: tuple
    theta_star: tuple
    phi: tuple
    phi2: tuple

    def __post_init__(self):
        object.__setattr__(self, "theta", tuple(_sc(x) for x in self.theta))
        object.__setattr__(self, "theta_star",
                           tuple(_sc(x) for x in self.theta_star))
        object.__setattr__(self, "phi", tuple(_sc(x) for x in self.phi))
        object.__setattr__(self, "phi2", tuple(_sc(x) for x in self.phi2))
        if len(self.theta) != len(self.theta_star):
            raise ValueError("eigenvalue sequences have different lengths")
        d = len(self.theta) - 1
        if len(self.phi) != d or len(self.phi2) != d:
            raise ValueError("split sequences must have length d")

    @property
    def d(self) -> int:
        return len(self.theta) - 1

    def __eq__(self, other):
        return (self.theta == other.theta
                and self.theta_star == other.theta_star
                and self.phi == other.phi and self.phi2 == other.phi2)

    @cached_property
    def verdict(self) -> "Verdict":
        """validate(self), run once per array: the CLI, every realization
        and td_aw_scalars read it."""
        return validate(self)

    @cached_property
    def intersection_numbers(self) -> tuple:
        """intersection_data(self) as tuples, computed once per array: the
        standard realization and td_aw_scalars both read it."""
        return tuple(map(tuple, intersection_data(self)))


@dataclass(frozen=True)
class Verdict:
    valid: bool
    beta_plus_one: ExactScalar | None = None
    failure: tuple[str, int] | None = None


def validate(pa: ParameterArray) -> Verdict:
    """The five classification conditions; returns beta+1 when d >= 3."""
    d = pa.d
    th, ths, phi, phi2 = pa.theta, pa.theta_star, pa.phi, pa.phi2
    for i in range(d + 1):
        for j in range(i + 1, d + 1):
            if th[i] == th[j] or ths[i] == ths[j]:
                return Verdict(False, None, ("PA1", j))
    for i in range(1, d + 1):
        if phi[i - 1].is_zero or phi2[i - 1].is_zero:
            return Verdict(False, None, ("PA2", i))
    if d >= 1:
        span = th[0] - th[d]
        acc = ExactScalar(0)  # sum_(h < i) (theta_h - theta_(d-h)) / span
        for i in range(1, d + 1):
            acc = acc + (th[i - 1] - th[d - i + 1]) / span
            want3 = phi2[0] * acc + (ths[i] - ths[0]) * (th[i - 1] - th[d])
            if phi[i - 1] != want3:
                return Verdict(False, None, ("PA3", i))
            want4 = phi[0] * acc + (ths[i] - ths[0]) * (th[d - i + 1] - th[0])
            if phi2[i - 1] != want4:
                return Verdict(False, None, ("PA4", i))
    beta1 = None
    for i in range(2, d):
        v1 = (th[i - 2] - th[i + 1]) / (th[i - 1] - th[i])
        v2 = (ths[i - 2] - ths[i + 1]) / (ths[i - 1] - ths[i])
        if v1 != v2:
            return Verdict(False, None, ("PA5", i))
        if beta1 is None:
            beta1 = v1
        elif beta1 != v1:
            return Verdict(False, None, ("PA5", i))
    return Verdict(True, beta1, None)


# ---------------------------------------------------------------------------
# Dual q-Krawtchouk arrays


@dataclass
class DqkParams:
    q: ExactScalar
    d: int
    h: ExactScalar
    h_star: ExactScalar
    kappa: ExactScalar
    kappa_star: ExactScalar
    upsilon: ExactScalar

    def __post_init__(self):
        self.q = _sc(self.q)
        self.h = _sc(self.h)
        self.h_star = _sc(self.h_star)
        self.kappa = _sc(self.kappa)
        self.kappa_star = _sc(self.kappa_star)
        self.upsilon = _sc(self.upsilon)

    def check(self):
        """Raise ValueError unless the parameters give a Leonard system.

        The conditions for dual q-Krawtchouk type are
          * kappa, kappa*, upsilon nonzero;
          * q^(2i) != 1 for 1 <= i <= d;
          * kappa != upsilon q^(2i-2d) for 1 <= i <= 2d-1.
        The first two keep the theta*_i distinct and phi_i, phi2_i nonzero.
        Given the second, the third is exactly distinctness of the theta_i:
          theta_j - theta_k
            = (q^(d-2j) - q^(d-2k)) (kappa - upsilon q^(2(j+k)-2d)),
        and j + k runs over 1..2d-1 for j != k.  For example q = sqrt2, d = 3,
        kappa = sqrt2, upsilon = 2 sqrt2 gives kappa = upsilon q^-2 and
        theta_0 = theta_2, so it is rejected.
        """
        if self.kappa.is_zero or self.kappa_star.is_zero or self.upsilon.is_zero:
            raise ValueError("kappa, kappa*, upsilon must be nonzero")
        one = ExactScalar(1)
        for i in range(1, self.d + 1):
            if q_pow(self.q, 2 * i) == one:
                raise ValueError(f"q^{2 * i} = 1 is not allowed")
        for i in range(1, 2 * self.d):
            if self.kappa == self.upsilon * q_pow(self.q, 2 * i - 2 * self.d):
                raise ValueError(f"kappa = upsilon q^{2 * i - 2 * self.d}")


def dqk_array(p: DqkParams) -> ParameterArray:
    """theta_i = h + kappa q^(d-2i) + upsilon q^(2i-d);
    theta*_i = h* + kappa* q^(d-2i);
    phi_i = kappa kappa* q^(d+1-2i)(q^i - q^-i)(q^(i-d-1) - q^(d+1-i));
    phi2_i = kappa* upsilon q^(d+1-2i)(q^i - q^-i)(q^(i-d-1) - q^(d+1-i))."""
    p.check()
    q, d = p.q, p.d
    th = [p.h + p.kappa * q_pow(q, d - 2 * i) + p.upsilon * q_pow(q, 2 * i - d)
          for i in range(d + 1)]
    ths = [p.h_star + p.kappa_star * q_pow(q, d - 2 * i) for i in range(d + 1)]
    core = [
        q_pow(q, d + 1 - 2 * i) * (q_pow(q, i) - q_pow(q, -i))
        * (q_pow(q, i - d - 1) - q_pow(q, d + 1 - i))
        for i in range(1, d + 1)
    ]
    phi = [p.kappa * p.kappa_star * c for c in core]
    phi2 = [p.kappa_star * p.upsilon * c for c in core]
    return ParameterArray(th, ths, phi, phi2)


# ---------------------------------------------------------------------------
# The dihedral action on parameter arrays


def d4_transform(pa: ParameterArray, g: str) -> ParameterArray:
    """g in {"*", "down", "ddown"}."""
    d = pa.d
    th, ths, phi, phi2 = pa.theta, pa.theta_star, pa.phi, pa.phi2
    if g == "*":
        return ParameterArray(ths, th, phi, tuple(reversed(phi2)))
    if g == "down":
        return ParameterArray(th, tuple(reversed(ths)),
                              tuple(reversed(phi2)), tuple(reversed(phi)))
    if g == "ddown":
        return ParameterArray(tuple(reversed(th)), ths, phi2, phi)
    raise ValueError(f"unknown transform {g!r}")


# ---------------------------------------------------------------------------
# Matrix realizations


@dataclass(frozen=True)
class Eigenbasis:
    """Right eigenvectors (the columns of V) and left eigenvectors (the rows
    of W) of one matrix, for its eigenvalues in order, with W V diagonal and
    invertible.  The primitive idempotents are E_i = v_i w_i / (w_i v_i)."""
    V: ExactMatrix
    W: ExactMatrix


@dataclass
class LeonardRealization:
    pa: ParameterArray
    basis: str
    A: ExactMatrix
    Astar: ExactMatrix
    eig: Eigenbasis
    eig_star: Eigenbasis


def _nonzero(m: ExactMatrix) -> np.ndarray:
    """Boolean mask of the nonzero entries of m."""
    nz = m.n0 != 0
    return nz if m.n1 is None else nz | (m.n1 != 0)


def _tridiagonal_eigenvectors(m: ExactMatrix, eigs) -> ExactMatrix:
    """The matrix V whose column j solves (m - eigs[j]) v = 0 in every row
    the three-term recurrence uses; `eigenbasis` checks the row left over.

    With every superdiagonal entry of m nonzero, row 0 of V is all ones and
    row i of m gives row i+1 of V, for all eigenvalues at once.  With every
    subdiagonal entry nonzero the same runs on m in reversed index order.
    A diagonal m has unit vectors."""
    n = m.shape[0]
    nz = _nonzero(m)
    if all(nz[i, i + 1] for i in range(n - 1)):
        lam = ExactMatrix.from_rows([list(eigs)])
        rows = [ExactMatrix.from_int(np.ones((1, n), dtype=np.int64))]
        for i in range(n - 1):
            # m[i,i-1] v[i-1] + (m[i,i] - theta) v[i] + m[i,i+1] v[i+1] = 0
            c = -m.entry(i, i + 1).inverse()
            terms = [(c * m.entry(i, i), rows[i]),
                     (-c, rows[i].entrywise(lam))]
            if i:
                terms.append((c * m.entry(i, i - 1), rows[i - 1]))
            rows.append(ExactMatrix.combination(terms))
        return ExactMatrix.stack_rows(rows)
    if all(nz[i + 1, i] for i in range(n - 1)):
        rev = list(range(n - 1, -1, -1))
        return _tridiagonal_eigenvectors(m.submatrix(rev, rev),
                                         eigs).take_rows(rev)
    if np.any(nz & ~np.eye(n, dtype=bool)):
        raise AssertionError("matrix is neither diagonal nor tridiagonal "
                             "with a nowhere-zero off-diagonal")
    perm = np.zeros((n, n), dtype=np.int64)
    for j, th in enumerate(eigs):
        hit = [i for i in range(n) if m.entry(i, i) == th]
        if not hit:
            raise AssertionError(f"{th.render()} is not on the diagonal")
        perm[hit[0], j] = 1
    return ExactMatrix.from_int(perm)


def eigenbasis(m: ExactMatrix, eigs, name: str) -> Eigenbasis:
    """Right and left eigenvectors of a tridiagonal m for the eigenvalues
    eigs, certified by m V = V diag(eigs), W m = diag(eigs) W and W V
    diagonal with nonzero diagonal.  So eigs are distinct: equal
    eigs[i] and eigs[j] give equal columns i, j of V and equal rows i, j of
    W, so (W V)_ij = (W V)_ii, which the last certificate asks to be zero
    and nonzero.

    Then V is invertible, m = V diag(eigs) V^-1 is diagonalizable with
    exactly the simple eigenvalues eigs, and E_i = v_i w_i / (w_i v_i)
    satisfy sum E_i = V (W V)^-1 W = I and E_i E_j = delta_ij E_i: they are
    the primitive idempotents of m, in the order of eigs."""
    n = len(eigs)
    if m.shape != (n, n):
        raise AssertionError(f"{name} is not {n} x {n}, the size of its "
                             "eigenvalue list")
    V = _tridiagonal_eigenvectors(m, eigs)
    W = _tridiagonal_eigenvectors(m.T, eigs).T
    D = ExactMatrix.diag(eigs)
    if m @ V != V @ D or W @ m != D @ W:
        raise AssertionError(f"eigenvalue list disagrees with {name}")
    if not (_nonzero(W @ V) == np.eye(n, dtype=bool)).all():
        raise AssertionError(f"left and right eigenvectors of {name} are "
                             "not dual bases")
    return Eigenbasis(V, W)


def _check_axiom_pattern(m: ExactMatrix, name: str):
    """m[i, j] = 0 for |i - j| > 1 and m[i, j] != 0 for |i - j| = 1."""
    n = m.shape[0]
    gap = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    nz = _nonzero(m)
    bad = np.argwhere(((gap > 1) & nz) | ((gap == 1) & ~nz))
    if bad.size:
        i, j = map(int, bad[0])
        should = "vanish" if gap[i, j] > 1 else "not vanish"
        raise AssertionError(f"{name.format(i=i, j=j)} should {should} in an "
                             "irreducible tridiagonal pattern")


def certify_leonard_system(A: ExactMatrix, Astar: ExactMatrix, theta,
                           theta_star) -> tuple[Eigenbasis, Eigenbasis]:
    """Certify that (A; A*; {E_i}; {E*_i}) is a Leonard system, with E_i and
    E*_i the primitive idempotents of A and A* for theta and theta* in order,
    and return both eigenbases.

    Since E_i A* E_j = v_i (w_i A* v_j) w_j / (w_i v_i)(w_j v_j) with v_i and
    w_j nonzero, E_i A* E_j = 0 exactly when (W A* V)_ij = 0, so the axiom
    "E_i A* E_j is zero for |i - j| > 1 and nonzero for |i - j| = 1" is the
    zero pattern of the one matrix W A* V; likewise for W* A V*."""
    eig = eigenbasis(A, theta, "A")
    eig_star = eigenbasis(Astar, theta_star, "A*")
    _check_axiom_pattern(eig.W @ Astar @ eig.V, "E_{i} A* E_{j}")
    _check_axiom_pattern(eig_star.W @ A @ eig_star.V, "E*_{i} A E*_{j}")
    return eig, eig_star


def realize(pa: ParameterArray, basis: str = "split") -> LeonardRealization:
    """Concrete matrices for a valid parameter array.

    split: A lower bidiagonal with subdiagonal 1, A* upper bidiagonal with
    superdiagonal phi_i.  normalized-split: subdiagonal phi_i/(th*_d -
    th*_(i-1)), superdiagonal th*_d - th*_(i-1), so row i of A* sums to
    th*_i + (th*_d - th*_i) = th*_d.  standard: A is the intersection
    matrix, A* diagonal.
    """
    v = pa.verdict
    if not v.valid:
        raise ValueError(f"invalid parameter array: {v.failure}")
    d = pa.d
    th, ths, phi = pa.theta, pa.theta_star, pa.phi
    zeros = [0] * d
    if basis == "split":
        A = ExactMatrix.tridiagonal([1] * d, th, zeros)
        Astar = ExactMatrix.tridiagonal(zeros, ths, phi)
    elif basis == "normalized-split":
        A = ExactMatrix.tridiagonal(
            [phi[i] / (ths[d] - ths[i]) for i in range(d)], th, zeros)
        Astar = ExactMatrix.tridiagonal(
            zeros, ths, [ths[d] - ths[i] for i in range(d)])
    elif basis == "standard":
        cc, aa, bb, *_ = pa.intersection_numbers
        A = ExactMatrix.tridiagonal(cc[1:], aa, bb[:d])
        Astar = ExactMatrix.diag(ths)
    else:
        raise ValueError(f"unknown basis {basis!r}")
    eig, eig_star = certify_leonard_system(A, Astar, th, ths)
    return LeonardRealization(pa, basis, A, Astar, eig, eig_star)


# ---------------------------------------------------------------------------
# Intersection data


def _tau(th, i, x: ExactScalar) -> ExactScalar:
    out = ExactScalar(1)
    for h in range(i):
        out = out * (x - th[h])
    return out


def _eta(th, i, x: ExactScalar) -> ExactScalar:
    d = len(th) - 1
    out = ExactScalar(1)
    for h in range(i):
        out = out * (x - th[d - h])
    return out


def intersection_data(pa: ParameterArray):
    """(c_i, a_i, b_i, c*_i, a*_i, b*_i) of the realized system, for a valid
    parameter array (both callers, the standard realization and
    `td_aw_scalars`, refuse any other first).

    b_i and c_i are read off phi and phi2, and a_i = theta_0 - b_i - c_i.
    The diagonal form a_i = theta_i + phi_i / (theta*_i - theta*_(i-1)) +
    phi_(i+1) / (theta*_i - theta*_(i+1)) (phi_0 = phi_(d+1) = 0) is not
    checked against it: an array that satisfies the five conditions is the
    parameter array of a Leonard system (Terwilliger, LAA 330, 2001), where
    both are theorems (Terwilliger, *Leonard pairs from 24 points of
    view*, 2002).  At i = 0 the two are even the same expression, as
    c_0 = 0 and b_0 = phi_1 / (theta*_1 - theta*_0)."""
    d = pa.d
    th, ths, phi, phi2 = pa.theta, pa.theta_star, pa.phi, pa.phi2
    zero = ExactScalar(0)
    b = [zero] * (d + 1)
    c = [zero] * (d + 1)
    for i in range(d):
        b[i] = phi[i] * _tau(ths, i, ths[i]) / _tau(ths, i + 1, ths[i + 1])
    for i in range(1, d + 1):
        c[i] = phi2[i - 1] * _eta(ths, d - i, ths[i]) / _eta(ths, d - i + 1,
                                                            ths[i - 1])
    a = [th[0] - b[i] - c[i] for i in range(d + 1)]
    bs = [zero] * (d + 1)
    cs = [zero] * (d + 1)
    for i in range(d):
        bs[i] = phi[i] * _tau(th, i, th[i]) / _tau(th, i + 1, th[i + 1])
    for i in range(1, d + 1):
        cs[i] = phi2[d - i] * _eta(th, d - i, th[i]) / _eta(th, d - i + 1,
                                                            th[i - 1])
    astar = [ths[0] - bs[i] - cs[i] for i in range(d + 1)]
    return c, a, b, cs, astar, bs


# ---------------------------------------------------------------------------
# Tridiagonal and Askey-Wilson scalars


@dataclass
class TdAwScalars:
    beta: ExactScalar
    gamma: ExactScalar
    gamma_star: ExactScalar
    rho: ExactScalar
    rho_star: ExactScalar
    omega: ExactScalar
    eta: ExactScalar
    eta_star: ExactScalar
    unique: bool  # False in the d <= 2 regime


def td_aw_scalars(pa: ParameterArray,
                  beta: ExactScalar | None = None) -> TdAwScalars:
    """The eight scalar parameters of the tridiagonal and Askey-Wilson
    relations, computed from the defining recurrences.

    For d >= 3 beta is forced; for d = 2 it must be supplied (the sequence
    exists but is not unique in that regime).  d < 2 is refused: the
    recurrence of gamma and gamma* has no index there.

    Each scalar is read at one index.  For a valid array (any other is
    refused) the recurrences give the same value at every index: gamma and
    gamma* by condition (v) (its ratio beta + 1 is independent of i), rho
    and rho* since rho_(i+1) - rho_i = (th_(i+1) - th_(i-1))(th_(i+1) -
    beta th_i + th_(i-1) - gamma), and omega, eta and eta* because the
    array is that of a Leonard system, which satisfies the Askey-Wilson
    relations (Terwilliger and Vidunas, J. Algebra Appl. 3, 2004).
    `verify_td_aw_matrix` checks the relations with these scalars.
    """
    d = pa.d
    if d < 2:
        raise ValueError("the recurrences fix gamma and gamma* only for "
                         "d >= 2")
    th, ths = pa.theta, pa.theta_star
    v = pa.verdict
    if not v.valid:
        raise ValueError(f"invalid parameter array: {v.failure}")
    unique = d >= 3
    if v.beta_plus_one is not None:
        forced = v.beta_plus_one - 1
        if beta is not None and beta != forced:
            raise ValueError("supplied beta contradicts the eigenvalues")
        beta = forced
    if beta is None:
        raise ValueError("beta must be supplied when d <= 2")
    beta = _sc(beta)
    gamma = th[0] - beta * th[1] + th[2]
    gamma_star = ths[0] - beta * ths[1] + ths[2]
    rho = th[0] ** 2 - beta * th[0] * th[1] + th[1] ** 2 \
        - gamma * (th[0] + th[1])
    rho_star = ths[0] ** 2 - beta * ths[0] * ths[1] + ths[1] ** 2 \
        - gamma_star * (ths[0] + ths[1])
    # theta_-1 and theta*_-1, extended by the three-term recurrence
    th_m1 = gamma + beta * th[0] - th[1]
    ths_m1 = gamma_star + beta * ths[0] - ths[1]
    _, a, _, _, astar, _ = pa.intersection_numbers
    omega = a[1] * (ths[1] - ths[2]) + a[0] * (ths[0] - ths_m1) \
        - gamma * (ths[1] + ths[0])
    eta = astar[0] * (th[0] - th_m1) * (th[0] - th[1]) \
        - gamma_star * th[0] ** 2 - omega * th[0]
    eta_star = a[0] * (ths[0] - ths_m1) * (ths[0] - ths[1]) \
        - gamma * ths[0] ** 2 - omega * ths[0]
    return TdAwScalars(beta, gamma, gamma_star, rho, rho_star,
                       omega, eta, eta_star, unique)


def tridiagonal_residuals(A: ExactMatrix, As: ExactMatrix, beta, gamma,
                          gamma_star, rho, rho_star):
    """The inner brackets of the two tridiagonal relations,
        A^2 A* - beta A A* A + A* A^2 - gamma (A A* + A* A) - rho A*,
        A*^2 A - beta A* A A* + A A*^2 - gamma* (A* A + A A*) - rho* A;
    the relations say they commute with A and with A* respectively.  The
    eight words are built from the products A A* and A* A."""
    AS, SA = A @ As, As @ A
    lhs1 = ExactMatrix.combination((
        (1, A @ AS), (-beta, AS @ A), (1, SA @ A), (-gamma, AS),
        (-gamma, SA), (-rho, As)))
    lhs2 = ExactMatrix.combination((
        (1, As @ SA), (-beta, SA @ As), (1, AS @ As), (-gamma_star, SA),
        (-gamma_star, AS), (-rho_star, A)))
    return lhs1, lhs2


def verify_td_aw_matrix(real: LeonardRealization, s: TdAwScalars) -> bool:
    """Both Askey-Wilson relations as exact matrix identities:
    lhs1 = gamma* A^2 + omega A + eta I and lhs2 = gamma A*^2 + omega A* +
    eta* I, with lhs1, lhs2 the bracketed terms of the tridiagonal relations.
    These imply both tridiagonal relations [A, lhs1] = 0 and [A*, lhs2] = 0,
    since each right-hand side is a polynomial in A (in A*), which commutes
    with A (with A*); so those are not checked separately."""
    A, As = real.A, real.Astar
    ident = ExactMatrix.identity(A.shape[0])
    lhs1, lhs2 = tridiagonal_residuals(A, As, s.beta, s.gamma, s.gamma_star,
                                       s.rho, s.rho_star)
    rhs1 = ExactMatrix.combination(((s.gamma_star, A @ A), (s.omega, A),
                                    (s.eta, ident)))
    rhs2 = ExactMatrix.combination(((s.gamma, As @ As), (s.omega, As),
                                    (s.eta_star, ident)))
    return lhs1 == rhs1 and lhs2 == rhs2


# ---------------------------------------------------------------------------
# Split sequences and extraction


def first_split_sequence(A: ExactMatrix, Astar: ExactMatrix,
                         u0: ExactMatrix, theta,
                         theta_star) -> list[ExactScalar]:
    """phi_i as the eigenvalue of (A - theta_(i-1))(A* - theta*_i) on the
    i-th summand U_i = (E*_0 V + ... + E*_i V) cap (E_i V + ... + E_d V) of
    the split decomposition, for a system that `certify_leonard_system` or
    `terwilliger.extract_module` certified and u0 = v*_0, the theta*_0
    eigenvector of A*.

    Set u_0 = u0 and u_i = (A - theta_(i-1)) u_(i-1).  Checked here:
    (A* - theta*_i) u_i = phi_i u_(i-1) and (A - theta_d) u_d = 0.  Why u_i
    is nonzero and spans U_i:
      * A is tridiagonal with nonzero subdiagonal in the eigenbasis V* of A*
        (V*^-1 A V* = (W* V*)^-1 W* A V* has the pattern of W* A V*), so
        u_i lies in E*_0 V + ... + E*_i V with a nonzero E*_i-coordinate.
        Hence u_0, ..., u_i span E*_0 V + ... + E*_i V, u_0 is a cyclic
        vector of A, and E_h u_0 != 0 for every h.
      * prod_(h=i..d) (A - theta_h) u_i = (A - theta_d) u_d = 0 and A is
        diagonalizable, so u_i lies in E_i V + ... + E_d V.  Hence u_i is in
        U_i.
      * dim U_i = 1: an x = p(A) u_0 (deg p <= i) in E_(i+1) V + ... + E_d V
        has p(theta_h) E_h u_0 = 0, so p(theta_h) = 0, for h = 0..i, and
        then p = 0.  So U_i meets E_(i+1) V + ... + E_d V only in 0, which
        has codimension 1 in E_i V + ... + E_d V.
    Then (A - theta_(i-1))(A* - theta*_i) u_i = phi_i (A - theta_(i-1))
    u_(i-1) = phi_i u_i.  With theta reversed the same recurrence gives
    phi2."""
    d = A.shape[0] - 1
    phis = []
    u = u0
    for i in range(1, d + 1):
        nxt = ExactMatrix.combination(((1, A @ u), (-theta[i - 1], u)))
        w = ExactMatrix.combination(((1, Astar @ nxt), (-theta_star[i], nxt)))
        # w must be phi_i * u_(i-1)
        pos = int(np.flatnonzero(_nonzero(u))[0])
        phi = w.entry(pos, 0) / u.entry(pos, 0)
        if w != u.scale(phi):
            raise AssertionError("split action is not scalar")
        phis.append(phi)
        u = nxt
    if not ExactMatrix.combination(((1, A @ u), (-theta[d], u))).is_zero():
        raise AssertionError("the last split vector is not in E_d V")
    return phis


def extract_parameter_array(A: ExactMatrix, Astar: ExactMatrix,
                            u0: ExactMatrix, theta,
                            theta_star) -> ParameterArray:
    """Parameter array of a certified Leonard system (A; A*) with eigenvalue
    sequences theta, theta* and the theta*_0 eigenvector u0 of A*."""
    phi = first_split_sequence(A, Astar, u0, theta, theta_star)
    phi2 = first_split_sequence(A, Astar, u0, list(reversed(theta)),
                                theta_star)
    return ParameterArray(theta, theta_star, phi, phi2)


def extract_from_realization(real: LeonardRealization) -> ParameterArray:
    v0 = real.eig_star.V.submatrix(range(real.pa.d + 1), [0])
    return extract_parameter_array(real.A, real.Astar, v0, real.pa.theta,
                                   real.pa.theta_star)


# ---------------------------------------------------------------------------
# From irreducible modules of a dual polar graph


def leonard_from_tmodule(ctx, rec) -> tuple[ParameterArray, DqkParams]:
    """Leonard system carried by an irreducible module, its parameter array
    via the split decomposition, and the matching dual q-Krawtchouk
    parameters

        h = (1 - q^2e)/(q^2 - 1),   h* = zeta,
        kappa = q^(2e+2D-2t-d)/(q^2 - 1),   kappa* = xi q^(-2r-d),
        upsilon = -q^(2t+d)/(q^2 - 1),

    verified exactly by regenerating the array from the closed forms.

    The array is read on the standard basis, where `extract_module` certified
    the Leonard system and A* = diag theta*_(r+i), so v*_0 = e_0.  As the
    parameter array of a Leonard system it satisfies the five conditions
    (Terwilliger, LAA 330, 2001), so its verdict is not computed.
    """
    r, t, d = rec.r, rec.t, rec.d
    theta = [ExactScalar(ctx.bm.theta[t + i]) for i in range(d + 1)]
    theta_star = [ExactScalar(ctx.bm.theta_star[r + i]) for i in range(d + 1)]
    pa = extract_parameter_array(rec.a_std_rep, ExactMatrix.diag(theta_star),
                                 ExactMatrix.column([1] + [0] * d), theta,
                                 theta_star)
    q = ctx.q
    e2 = ctx.two_e()
    q2 = ExactScalar(ctx.b)
    params = DqkParams(
        q, d,
        (ExactScalar(1) - ctx.qexp(e2)) / (q2 - 1),
        ExactScalar(ctx.bm.zeta),
        ctx.qexp(e2 + 2 * ctx.D - 2 * t - d) / (q2 - 1),
        ExactScalar(ctx.bm.xi) * ctx.qexp(-2 * r - d),
        -ctx.qexp(2 * t + d) / (q2 - 1),
    )
    if dqk_array(params) != pa:
        raise AssertionError("module parameters disagree with the dual "
                             "q-Krawtchouk closed forms")
    return pa, params


# ---------------------------------------------------------------------------
# JSON interchange


def pa_to_json(pa: ParameterArray, scalars: TdAwScalars | None = None) -> dict:
    out = {
        "d": pa.d,
        "theta": [x.render() for x in pa.theta],
        "theta_star": [x.render() for x in pa.theta_star],
        "phi": [x.render() for x in pa.phi],
        "phi2": [x.render() for x in pa.phi2],
    }
    if scalars is not None:
        out["scalars"] = {
            "beta": scalars.beta.render(),
            "gamma": scalars.gamma.render(),
            "gamma_star": scalars.gamma_star.render(),
            "rho": scalars.rho.render(),
            "rho_star": scalars.rho_star.render(),
            "omega": scalars.omega.render(),
            "eta": scalars.eta.render(),
            "eta_star": scalars.eta_star.render(),
        }
    return out


DQK_FIELDS = ("q", "h", "h_star", "kappa", "kappa_star", "upsilon")


def pa_from_json(data: dict) -> ParameterArray:
    from .exact import parse_scalar_field

    mixed = [k for k in DQK_FIELDS if k in data]
    if "theta" in data and mixed:
        raise ValueError(f"{mixed[0]!r} next to 'theta': give an explicit "
                         "array or dual q-Krawtchouk parameters, not both")
    if "theta" in data:
        def seq(name):
            values = data[name]
            if not isinstance(values, list):
                raise ValueError(f"{name!r} must be a list, got {values!r}")
            return [parse_scalar_field(v, f"{name!r}[{i}]")
                    for i, v in enumerate(values)]

        theta = seq("theta")
        if not theta:
            raise ValueError("'theta' must have at least one entry")
        return ParameterArray(theta, seq("theta_star"), seq("phi"),
                              seq("phi2"))
    p = dqk_params_from_json(data)
    return dqk_array(p)


def dqk_params_from_json(data: dict) -> DqkParams:
    """Every scalar field must be a JSON string, so that a float such as
    0.30000000000000001 is refused rather than read as 3/10."""
    from .exact import parse_int, parse_scalar_field

    def get(name):
        return parse_scalar_field(data[name], repr(name))

    d = parse_int(data, "d")
    if d < 0:
        raise ValueError(f"'d' must be at least 0, got {d}")
    return DqkParams(get("q"), d, *map(get, DQK_FIELDS[1:]))
