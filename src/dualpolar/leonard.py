"""Abstract Leonard systems over exact scalars.

A parameter array ({theta_i}; {theta*_i}; {phi_i}; {phi2_i}) is validated
against the five classification conditions, acted on by the dihedral
transforms (*, down-arrow, double-down-arrow), realized as matrices in the
split / normalized-split / standard bases, and converted to intersection
data and tridiagonal / Askey-Wilson scalars.  The dual q-Krawtchouk family
is generated from its closed forms, and parameter arrays are extracted from
irreducible modules of a dual polar graph via the split decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import ExactScalar, q_pow
from .linexact import (
    ExactMatrix,
    intersect,
    row_space,
    spectral_projectors,
)


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


@dataclass
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
        for i in range(1, d + 1):
            acc = ExactScalar(0)
            for h in range(i):
                acc = acc + (th[h] - th[d - h]) / span
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


def dqk_array(p: DqkParams, check: bool = True) -> ParameterArray:
    """theta_i = h + kappa q^(d-2i) + upsilon q^(2i-d);
    theta*_i = h* + kappa* q^(d-2i);
    phi_i = kappa kappa* q^(d+1-2i)(q^i - q^-i)(q^(i-d-1) - q^(d+1-i));
    phi2_i = kappa* upsilon q^(d+1-2i)(q^i - q^-i)(q^(i-d-1) - q^(d+1-i))."""
    if check:
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


def dqk_ddown_params(p: DqkParams) -> DqkParams:
    """The double-down-arrow relative swaps kappa and upsilon."""
    return DqkParams(p.q, p.d, p.h, p.h_star, p.upsilon, p.kappa_star, p.kappa)


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


@dataclass
class LeonardRealization:
    pa: ParameterArray
    basis: str
    A: ExactMatrix
    Astar: ExactMatrix
    E: list[ExactMatrix]
    Estar: list[ExactMatrix]


def _check_leonard_axioms(A, Astar, E, Estar, d):
    for i in range(d + 1):
        for j in range(d + 1):
            gap = abs(i - j)
            p1 = E[i] @ Astar @ E[j]
            if gap > 1 and not p1.is_zero():
                raise AssertionError(f"E_{i} A* E_{j} should vanish")
            if gap == 1 and p1.is_zero():
                raise AssertionError(f"E_{i} A* E_{j} should not vanish")
            p2 = Estar[i] @ A @ Estar[j]
            if gap > 1 and not p2.is_zero():
                raise AssertionError(f"E*_{i} A E*_{j} should vanish")
            if gap == 1 and p2.is_zero():
                raise AssertionError(f"E*_{i} A E*_{j} should not vanish")


def realize(pa: ParameterArray, basis: str = "split") -> LeonardRealization:
    """Concrete matrices for a valid parameter array.

    split: A lower bidiagonal with subdiagonal 1, A* upper bidiagonal with
    superdiagonal phi_i.  normalized-split: subdiagonal phi_i/(th*_d -
    th*_(i-1)), superdiagonal th*_d - th*_(i-1) (A* then has constant row
    sum th*_d).  standard: A is the intersection matrix, A* diagonal.
    """
    v = validate(pa)
    if not v.valid:
        raise ValueError(f"invalid parameter array: {v.failure}")
    d = pa.d
    th, ths, phi = pa.theta, pa.theta_star, pa.phi
    zero = ExactScalar(0)
    if basis == "split":
        a = [[th[i] if i == j else (ExactScalar(1) if i == j + 1 else zero)
              for j in range(d + 1)] for i in range(d + 1)]
        astar = [[ths[i] if i == j else (phi[i] if j == i + 1 else zero)
                  for j in range(d + 1)] for i in range(d + 1)]
    elif basis == "normalized-split":
        a = [[th[i] if i == j
              else (phi[j] / (ths[d] - ths[j]) if i == j + 1 else zero)
              for j in range(d + 1)] for i in range(d + 1)]
        astar = [[ths[i] if i == j
                  else (ths[d] - ths[i] if j == i + 1 else zero)
                  for j in range(d + 1)] for i in range(d + 1)]
    elif basis == "standard":
        cc, aa, bb, *_ = intersection_data(pa)
        a = [[zero] * (d + 1) for _ in range(d + 1)]
        for i in range(d + 1):
            a[i][i] = aa[i]
            if i >= 1:
                a[i][i - 1] = cc[i]
            if i < d:
                a[i][i + 1] = bb[i]
        astar = [[ths[i] if i == j else zero for j in range(d + 1)]
                 for i in range(d + 1)]
    else:
        raise ValueError(f"unknown basis {basis!r}")
    A = ExactMatrix.from_rows(a)
    Astar = ExactMatrix.from_rows(astar)
    E = spectral_projectors(A, th)
    Estar = spectral_projectors(Astar, ths)
    _check_leonard_axioms(A, Astar, E, Estar, d)
    if basis == "normalized-split":
        for i in range(d + 1):
            row_sum = ExactScalar(0)
            for j in range(d + 1):
                row_sum = row_sum + Astar.entry(i, j)
            if row_sum != ths[d]:
                raise AssertionError("A* row sums differ from theta*_d")
    return LeonardRealization(pa, basis, A, Astar, E, Estar)


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
    """(c_i, a_i, b_i, c*_i, a*_i, b*_i) of the realized system."""
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
    # cross-check against the diagonal closed form
    if d >= 1:
        if a[0] != th[0] + phi[0] / (ths[0] - ths[1]):
            raise AssertionError("a_0 disagrees between the two formulas")
        if a[d] != th[d] + phi[d - 1] / (ths[d] - ths[d - 1]):
            raise AssertionError("a_d disagrees between the two formulas")
        for i in range(1, d):
            want = th[i] + phi[i - 1] / (ths[i] - ths[i - 1]) \
                + phi[i] / (ths[i] - ths[i + 1])
            if a[i] != want:
                raise AssertionError("a_i disagrees between the two formulas")
    bs = [zero] * (d + 1)
    cs = [zero] * (d + 1)
    for i in range(d):
        bs[i] = phi[i] * _tau(th, i, th[i]) / _tau(th, i + 1, th[i + 1])
    for i in range(1, d + 1):
        cs[i] = phi2[d - i] * _eta(th, d - i, th[i]) / _eta(th, d - i + 1,
                                                            th[i - 1])
    astar = [ths[0] - bs[i] - cs[i] for i in range(d + 1)]
    return c, a, b, cs, astar, bs


def dqk_intersection_closed_forms(p: DqkParams):
    """Closed forms of the intersection and dual intersection numbers for a
    dual q-Krawtchouk array."""
    q, d = p.q, p.d
    h, k, ks, u = p.h, p.kappa, p.kappa_star, p.upsilon
    zero = ExactScalar(0)
    b = [k * q_pow(q, i) * (q_pow(q, d - i) - q_pow(q, i - d))
         if i < d else zero for i in range(d + 1)]
    c = [u * q_pow(q, i - d) * (q_pow(q, -i) - q_pow(q, i))
         if i >= 1 else zero for i in range(d + 1)]
    a = [h + (k + u) * q_pow(q, 2 * i - d) for i in range(d + 1)]
    theta_star0 = p.h_star + ks * q_pow(q, d)
    bs, cs = [zero] * (d + 1), [zero] * (d + 1)
    if d >= 1:
        bs[0] = k * ks * (q_pow(q, d) - q_pow(q, -d)) \
            / (k - u * q_pow(q, 2 - 2 * d))
        cs[d] = u * ks * q_pow(q, 2 * d - 2) * (q_pow(q, -d) - q_pow(q, d)) \
            / (k - u * q_pow(q, 2 * d - 2))
    for i in range(1, d):
        bs[i] = (k * ks * q_pow(q, i) * (q_pow(q, d - i) - q_pow(q, i - d))
                 * (k - u * q_pow(q, 2 * i - 2 * d))) \
            / ((k - u * q_pow(q, 4 * i - 2 * d))
               * (k - u * q_pow(q, 4 * i - 2 * d + 2)))
        cs[i] = (u * ks * q_pow(q, 5 * i - 3 * d - 2)
                 * (q_pow(q, -i) - q_pow(q, i)) * (k - u * q_pow(q, 2 * i))) \
            / ((k - u * q_pow(q, 4 * i - 2 * d))
               * (k - u * q_pow(q, 4 * i - 2 * d - 2)))
    astar = [theta_star0 - bs[i] - cs[i] for i in range(d + 1)]
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

    For d >= 3 beta is forced; for d <= 2 it must be supplied (the sequence
    exists but is not unique in that regime).
    """
    d = pa.d
    if d < 1:
        raise ValueError("need d >= 1")
    th, ths = pa.theta, pa.theta_star
    v = validate(pa)
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

    def constant(values, what):
        for v2 in values[1:]:
            if v2 != values[0]:
                raise AssertionError(f"{what} is not constant across indices")
        return values[0]

    if d >= 2:
        gamma = constant([th[i - 1] - beta * th[i] + th[i + 1]
                          for i in range(1, d)], "gamma")
        gamma_star = constant([ths[i - 1] - beta * ths[i] + ths[i + 1]
                               for i in range(1, d)], "gamma*")
    else:
        # d = 1: the recurrence range is empty; gamma follows from rho below
        # only in the dqk closed forms, so take the convention h(2 - beta)
        raise ValueError("general scalar extraction needs d >= 2; use the "
                         "closed forms for d = 1")
    rho = constant([
        th[i - 1] ** 2 - beta * th[i - 1] * th[i] + th[i] ** 2
        - gamma * (th[i - 1] + th[i]) for i in range(1, d + 1)], "rho")
    rho_star = constant([
        ths[i - 1] ** 2 - beta * ths[i - 1] * ths[i] + ths[i] ** 2
        - gamma_star * (ths[i - 1] + ths[i]) for i in range(1, d + 1)],
        "rho*")
    # extended eigenvalues
    thx = [gamma + beta * th[0] - th[1]] + list(th) \
        + [gamma + beta * th[d] - th[d - 1]]
    thsx = [gamma_star + beta * ths[0] - ths[1]] + list(ths) \
        + [gamma_star + beta * ths[d] - ths[d - 1]]
    c, a, b, cs, astar, bs = intersection_data(pa)

    def t(i):
        return thx[i + 1]

    def ts(i):
        return thsx[i + 1]

    omega = constant([
        a[i] * (ts(i) - ts(i + 1)) + a[i - 1] * (ts(i - 1) - ts(i - 2))
        - gamma * (ts(i) + ts(i - 1)) for i in range(1, d + 1)], "omega")
    omega2 = constant([
        astar[i] * (t(i) - t(i + 1)) + astar[i - 1] * (t(i - 1) - t(i - 2))
        - gamma_star * (t(i) + t(i - 1)) for i in range(1, d + 1)], "omega'")
    if omega != omega2:
        raise AssertionError("the two omega recurrences disagree")
    eta = constant([
        astar[i] * (t(i) - t(i - 1)) * (t(i) - t(i + 1))
        - gamma_star * t(i) ** 2 - omega * t(i) for i in range(d + 1)], "eta")
    eta_star = constant([
        a[i] * (ts(i) - ts(i - 1)) * (ts(i) - ts(i + 1))
        - gamma * ts(i) ** 2 - omega * ts(i) for i in range(d + 1)], "eta*")
    return TdAwScalars(beta, gamma, gamma_star, rho, rho_star,
                       omega, eta, eta_star, unique)


def dqk_td_aw_closed_forms(p: DqkParams) -> TdAwScalars:
    """beta = q^2 + q^-2 and companions for the dual q-Krawtchouk family."""
    q = p.q
    beta = q_pow(q, 2) + q_pow(q, -2)
    two = ExactScalar(2)
    gamma = p.h * (two - beta)
    gamma_star = p.h_star * (two - beta)
    rho = p.h * p.h * (beta - two) - p.kappa * p.upsilon * (beta * beta - 4)
    rho_star = p.h_star * p.h_star * (beta - two)
    omega = (beta - two) * (
        two * p.h * p.h_star - (p.kappa + p.upsilon) * p.kappa_star)
    eta = p.kappa * p.upsilon * p.h_star * (beta * beta - 4) \
        + p.kappa * p.upsilon * p.kappa_star * (q + q.inverse()) \
        * (q - q.inverse()) ** 2 * (q_pow(q, p.d + 1) + q_pow(q, -p.d - 1)) \
        - p.h * (beta - two) * (p.h * p.h_star
                                - (p.kappa + p.upsilon) * p.kappa_star)
    eta_star = p.h_star * (beta - two) * (
        (p.kappa + p.upsilon) * p.kappa_star - p.h * p.h_star)
    return TdAwScalars(beta, gamma, gamma_star, rho, rho_star,
                       omega, eta, eta_star, p.d >= 3)


def tridiagonal_residuals(A: ExactMatrix, As: ExactMatrix, beta, gamma,
                          gamma_star, rho, rho_star):
    """The inner brackets of the two tridiagonal relations,
        A^2 A* - beta A A* A + A* A^2 - gamma (A A* + A* A) - rho A*,
        A*^2 A - beta A* A A* + A A*^2 - gamma* (A* A + A A*) - rho* A;
    the relations say they commute with A and with A* respectively."""
    lhs1 = (A @ A @ As) - (A @ As @ A).scale(beta) + (As @ A @ A) \
        - ((A @ As) + (As @ A)).scale(gamma) - As.scale(rho)
    lhs2 = (As @ As @ A) - (As @ A @ As).scale(beta) + (A @ As @ As) \
        - ((As @ A) + (A @ As)).scale(gamma_star) - A.scale(rho_star)
    return lhs1, lhs2


def verify_td_aw_matrix(real: LeonardRealization, s: TdAwScalars) -> bool:
    """Both tridiagonal bracket relations and both Askey-Wilson relations as
    exact matrix identities."""
    A, As = real.A, real.Astar
    ident = ExactMatrix.identity(A.shape[0])
    lhs1, lhs2 = tridiagonal_residuals(A, As, s.beta, s.gamma, s.gamma_star,
                                       s.rho, s.rho_star)
    if not (lhs1 @ A - A @ lhs1).is_zero():
        return False
    if not (lhs2 @ As - As @ lhs2).is_zero():
        return False
    rhs1 = (A @ A).scale(s.gamma_star) + A.scale(s.omega) \
        + ident.scale(s.eta)
    rhs2 = (As @ As).scale(s.gamma) + As.scale(s.omega) \
        + ident.scale(s.eta_star)
    return lhs1 == rhs1 and lhs2 == rhs2


# ---------------------------------------------------------------------------
# Split sequences and extraction


def first_split_sequence(A: ExactMatrix, Astar: ExactMatrix,
                         E: list[ExactMatrix], Estar: list[ExactMatrix],
                         theta, theta_star) -> list[ExactScalar]:
    """phi_i as the eigenvalue of (A - theta_(i-1))(A* - theta*_i) on the
    i-th summand of the split decomposition."""
    d = len(E) - 1
    n = A.shape[0]
    phis = []
    lower = Estar[0]
    for i in range(1, d + 1):
        lower = lower + Estar[i]
        upper = E[i]
        for h in range(i + 1, d + 1):
            upper = upper + E[h]
        # the idempotents need not be symmetric, so take column spaces
        ui = intersect(row_space(lower.T), row_space(upper.T))
        if ui.dim != 1:
            raise AssertionError("split summand is not one-dimensional")
        u = ui.basis.T  # column
        ident = ExactMatrix.identity(n)
        w = (A - ident.scale(theta[i - 1])) @ (
            (Astar - ident.scale(theta_star[i])) @ u)
        # w must be phi_i * u
        pos = next(j for j in range(n) if not u.entry(j, 0).is_zero)
        phi = w.entry(pos, 0) / u.entry(pos, 0)
        if w != u.scale(phi):
            raise AssertionError("split action is not scalar")
        phis.append(phi)
    return phis


def extract_parameter_array(A: ExactMatrix, Astar: ExactMatrix,
                            E: list[ExactMatrix], Estar: list[ExactMatrix],
                            theta, theta_star) -> ParameterArray:
    """Parameter array of a concrete Leonard system with ordered idempotent
    lists and matching eigenvalue sequences."""
    d = len(E) - 1
    for i in range(d + 1):
        if A @ E[i] != E[i].scale(theta[i]):
            raise AssertionError("eigenvalue list disagrees with A")
        if Astar @ Estar[i] != Estar[i].scale(theta_star[i]):
            raise AssertionError("dual eigenvalue list disagrees with A*")
    phi = first_split_sequence(A, Astar, E, Estar, theta, theta_star)
    phi2 = first_split_sequence(A, Astar, list(reversed(E)), Estar,
                                list(reversed(theta)), theta_star)
    return ParameterArray(theta, theta_star, phi, phi2)


def extract_from_realization(real: LeonardRealization) -> ParameterArray:
    return extract_parameter_array(real.A, real.Astar, real.E, real.Estar,
                                   real.pa.theta, real.pa.theta_star)


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
    """
    r, t, d = rec.r, rec.t, rec.d
    theta = [ExactScalar(ctx.bm.theta[t + i]) for i in range(d + 1)]
    theta_star = [ExactScalar(ctx.bm.theta_star[r + i]) for i in range(d + 1)]
    A = ExactMatrix.diag(theta)
    Astar = rec.astar_dual_rep
    E = [ExactMatrix.diag([1 if j == i else 0 for j in range(d + 1)])
         for i in range(d + 1)]
    Estar = spectral_projectors(Astar, theta_star) if d >= 0 else []
    _check_leonard_axioms(A, Astar, E, Estar, d)
    pa = extract_parameter_array(A, Astar, E, Estar, theta, theta_star)
    v = validate(pa)
    if not v.valid:
        raise AssertionError(f"module parameter array is invalid: {v.failure}")
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
    if d >= 1:
        params.check()
    if dqk_array(params, check=False) != pa:
        raise AssertionError("module parameters disagree with the dual "
                             "q-Krawtchouk closed forms")
    if d >= 1:
        # phi_1 = -xi (q^(2d) - 1) q^(2(e + D - d - t - r - 1))
        phi1_want = -ExactScalar(ctx.bm.xi) * (ctx.qexp(2 * d) - 1) \
            * ctx.qexp(e2 + 2 * (ctx.D - d - t - r - 1))
        if pa.phi[0] != phi1_want:
            raise AssertionError("phi_1 disagrees with its closed form")
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


def pa_from_json(data: dict) -> ParameterArray:
    from .exact import parse_scalar

    if "theta" in data:
        return ParameterArray(
            [parse_scalar(s) for s in data["theta"]],
            [parse_scalar(s) for s in data["theta_star"]],
            [parse_scalar(s) for s in data["phi"]],
            [parse_scalar(s) for s in data["phi2"]],
        )
    p = dqk_params_from_json(data)
    return dqk_array(p)


def dqk_params_from_json(data: dict) -> DqkParams:
    from .exact import parse_scalar

    def get(name):
        v = data[name]
        return parse_scalar(str(v))

    return DqkParams(get("q"), int(data["d"]), get("h"), get("h_star"),
                     get("kappa"), get("kappa_star"), get("upsilon"))
