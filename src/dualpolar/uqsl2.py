"""The quantum algebra U_q(sl2) acting by exact matrices.

An action is a triple X, Y, Z of matrices satisfying the equitable relations

    (q x y - q^-1 y x)/(q - q^-1) = 1    (and cyclic in x, y, z),

equivalently the Chevalley relations for k = z, f = (q - q^-1)^(-1)(x -
z^-1), e = q^-1 (q - q^-1)^(-1)(1 - z y).  The (d+1)-dimensional irreducible
L(d, eps) is built in the k/e/f basis or in a normalized x-, y- or
z-eigenbasis; the Casimir element ef + (q^-1 k + q k^-1)/(q - q^-1)^2 acts
on it as eps (q^(d+1) + q^(-d-1))/(q - q^-1)^2.

Two module structures are attached to a dual q-Krawtchouk Leonard system by
rational expressions in A - h and A* - h*, and to the standard module of a
dual polar graph through the distance-weight matrices and the displacement
central elements.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import ExactScalar, q_pow
from .leonard import DqkParams, LeonardRealization
from .linexact import ExactMatrix, inverse


def bracket(q: ExactScalar, n: int) -> ExactScalar:
    """[n]_q = (q^n - q^-n)/(q - q^-1)."""
    return (q_pow(q, n) - q_pow(q, -n)) / (q - q.inverse())


def casimir_scalar(q: ExactScalar, d: int, eps: int) -> ExactScalar:
    """eps (q^(d+1) + q^(-d-1)) / (q - q^-1)^2, the Casimir value on
    L(d, eps)."""
    return ExactScalar(eps) * (q_pow(q, d + 1) + q_pow(q, -d - 1)) \
        / (q - q.inverse()) ** 2


class UqAction:
    """Matrices for the equitable generators, with derived Chevalley ones."""

    def __init__(self, q: ExactScalar, X: ExactMatrix, Y: ExactMatrix,
                 Z: ExactMatrix, Zinv: ExactMatrix | None = None):
        self.q = q
        self.X = X
        self.Y = Y
        self.Z = Z
        self.Zinv = Zinv if Zinv is not None else inverse(Z)
        n = X.shape[0]
        self.dim = n
        self._ident = ExactMatrix.identity(n)

    @property
    def k(self) -> ExactMatrix:
        return self.Z

    @property
    def kinv(self) -> ExactMatrix:
        return self.Zinv

    @property
    def f(self) -> ExactMatrix:
        q = self.q
        return (self.X - self.Zinv).scale((q - q.inverse()).inverse())

    @property
    def e(self) -> ExactMatrix:
        q = self.q
        return (self._ident - self.Z @ self.Y).scale(
            (q.inverse() * (q - q.inverse()).inverse()))

    def equitable_residuals(self) -> list[tuple[str, ExactMatrix]]:
        q = self.q
        qi = q.inverse()
        den = (q - qi).inverse()
        out = []
        for name, a, b in (("xy", self.X, self.Y), ("yz", self.Y, self.Z),
                           ("zx", self.Z, self.X)):
            lhs = ((a @ b).scale(q) - (b @ a).scale(qi)).scale(den)
            out.append((f"(q {name[0]} {name[1]} - q^-1 {name[1]} {name[0]})"
                        f"/(q - q^-1) = 1", lhs - self._ident))
        out.append(("z z^-1 = 1", self.Z @ self.Zinv - self._ident))
        return out

    def chevalley_residuals(self) -> list[tuple[str, ExactMatrix]]:
        q = self.q
        qi = q.inverse()
        k, e, f = self.k, self.e, self.f
        out = [
            ("k e = q^2 e k", k @ e - (e @ k).scale(q * q)),
            ("k f = q^-2 f k", k @ f - (f @ k).scale(qi * qi)),
            ("e f - f e = (k - k^-1)/(q - q^-1)",
             e @ f - f @ e - (k - self.kinv).scale((q - qi).inverse())),
        ]
        return out

    def verify(self):
        for name, resid in self.equitable_residuals() + \
                self.chevalley_residuals():
            if not resid.is_zero():
                raise AssertionError(f"relation {name} fails")

    def casimir(self) -> ExactMatrix:
        """ef + (q^-1 k + q k^-1)/(q - q^-1)^2, verified central."""
        q = self.q
        qi = q.inverse()
        delta = self.e @ self.f + (self.k.scale(qi)
                                   + self.kinv.scale(q)).scale(
            ((q - qi) ** 2).inverse())
        for name, g in (("k", self.k), ("e", self.e), ("f", self.f)):
            if delta @ g != g @ delta:
                raise AssertionError(f"Casimir does not commute with {name}")
        return delta


def build_Ld(d: int, eps: int, q: ExactScalar, basis: str = "kef") -> UqAction:
    """The (d+1)-dimensional module L(d, eps) in a chosen basis."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    one = ExactScalar(1)
    for i in range(1, d + 1):
        if q_pow(q, 2 * i) == one:
            raise ValueError(f"q^(2i) = 1 at i = {i}; module is reducible")
    n = d + 1
    zero = ExactScalar(0)
    es = ExactScalar(eps)
    if basis == "kef":
        k = ExactMatrix.diag([es * q_pow(q, d - 2 * i) for i in range(n)])
        fmat = [[zero] * n for _ in range(n)]
        emat = [[zero] * n for _ in range(n)]
        for i in range(d):
            fmat[i + 1][i] = bracket(q, i + 1)
        for i in range(1, n):
            emat[i - 1][i] = es * bracket(q, d - i + 1)
        f = ExactMatrix.from_rows(fmat)
        e = ExactMatrix.from_rows(emat)
        kinv = ExactMatrix.diag([es * q_pow(q, 2 * i - d) for i in range(n)])
        x = kinv + f.scale(q - q.inverse())
        y = kinv - (kinv @ e).scale(q * (q - q.inverse()))
        act = UqAction(q, x, y, k, kinv)
        act.verify()
        if act.e != e or act.f != f or act.k != k:
            raise AssertionError("Chevalley round trip failed")
        return act
    if basis not in ("x-eigen", "y-eigen", "z-eigen"):
        raise ValueError(f"unknown basis {basis!r}")

    def diag_weights():
        return ExactMatrix.diag([es * q_pow(q, d - 2 * i) for i in range(n)])

    def raising():
        m = [[zero] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = es * q_pow(q, 2 * i - d)
            if i < d:
                m[i + 1][i] = es * (q_pow(q, -d) - q_pow(q, 2 * i + 2 - d))
        return ExactMatrix.from_rows(m)

    def lowering():
        m = [[zero] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = es * q_pow(q, 2 * i - d)
            if i >= 1:
                m[i - 1][i] = es * (q_pow(q, d) - q_pow(q, 2 * i - 2 - d))
        return ExactMatrix.from_rows(m)

    if basis == "x-eigen":
        x, y, z = diag_weights(), raising(), lowering()
    elif basis == "y-eigen":
        y, z, x = diag_weights(), raising(), lowering()
    else:
        z, x, y = diag_weights(), raising(), lowering()
    act = UqAction(q, x, y, z)
    act.verify()
    _check_sum_vector(act, d, eps, basis)
    return act


def _check_sum_vector(act: UqAction, d: int, eps: int, basis: str):
    """u = sum of the eigenbasis vectors satisfies the two companion
    normalizations (e.g. eps y u = q^-d u and eps z u = q^d u for the
    x-eigenbasis)."""
    n = d + 1
    u = ExactMatrix.from_rows([[1] for _ in range(n)])
    es = ExactScalar(eps)
    lo = q_pow(act.q, -d)
    hi = q_pow(act.q, d)
    pairs = {
        "x-eigen": ((act.Y, lo), (act.Z, hi)),
        "y-eigen": ((act.Z, lo), (act.X, hi)),
        "z-eigen": ((act.X, lo), (act.Y, hi)),
    }[basis]
    for mat, val in pairs:
        if (mat @ u).scale(es) != u.scale(val):
            raise AssertionError("sum vector normalization fails")


# ---------------------------------------------------------------------------
# The two module structures on a dual q-Krawtchouk Leonard system


def uq_on_leonard(real: LeonardRealization, p: DqkParams, eps: int = 1,
                  variant: int = 1) -> UqAction:
    """X, Y, Z on the vector space of the realization, built from
    B = A - h and B* = A* - h* by the closed rational expressions; variant 2
    realizes the double-down-arrow companion structure."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    q = p.q
    qi = q.inverse()
    es = ExactScalar(eps)
    n = real.A.shape[0]
    ident = ExactMatrix.identity(n)
    B = real.A - ident.scale(p.h)
    Bs = real.Astar - ident.scale(p.h_star)
    Bsi = inverse(Bs)
    two2 = q * q - qi * qi
    s = q + qi

    def mix(coef) -> ExactMatrix:
        # (q B - q^-1 B* B B*^-1)/(coef q^-1 (q^2 - q^-2))
        return (B.scale(q) - (Bs @ B @ Bsi).scale(qi)).scale(
            (coef * qi * two2).inverse())

    def mix2(coef) -> ExactMatrix:
        # (q B - q^-1 B*^-1 B B*)/(coef q^-1 (q^2 - q^-2))
        return (B.scale(q) - (Bsi @ B @ Bs).scale(qi)).scale(
            (coef * qi * two2).inverse())

    k, u, ks = p.kappa, p.upsilon, p.kappa_star
    if variant == 1:
        X = (mix(k) + Bsi.scale(ks * (k * qi - u * q) / (k * s))).scale(es)
        Y = (mix2(u) + Bsi.scale(ks * (u * qi - k * q) / (u * s))).scale(es)
    else:
        X = (mix(u) + Bsi.scale(ks * (u * qi - k * q) / (u * s))).scale(es)
        Y = (mix2(k) + Bsi.scale(ks * (k * qi - u * q) / (k * s))).scale(es)
    Z = Bs.scale(es * ks.inverse())
    act = UqAction(q, X, Y, Z)
    act.verify()
    # recoveries of A and A*
    first, second = (k, u) if variant == 1 else (u, k)
    if real.A != ident.scale(p.h) + X.scale(es * first) + Y.scale(es * second):
        raise AssertionError("A recovery fails")
    if real.Astar != ident.scale(p.h_star) + Z.scale(es * ks):
        raise AssertionError("A* recovery fails")
    # module type certificate: Z spectrum and Casimir scalar
    zwant = ExactMatrix.zeros(n, n)
    for i, proj in enumerate(real.Estar):
        zwant = zwant + proj.scale(es * q_pow(q, p.d - 2 * i))
    if Z != zwant:
        raise AssertionError("Z spectrum is not {eps q^(d-2i)}")
    delta = act.casimir()
    if delta != ident.scale(casimir_scalar(q, p.d, eps)):
        raise AssertionError("Casimir scalar mismatch")
    return act


def verify_cross_variant_leonard(act1: UqAction, act2: UqAction,
                                 p: DqkParams) -> bool:
    """X' = kappa/upsilon X + (1 - kappa/upsilon) Z^-1 and the companion."""
    ratio = p.kappa / p.upsilon
    one = ExactScalar(1)
    ok1 = act2.X == act1.X.scale(ratio) + act1.Zinv.scale(one - ratio)
    rinv = ratio.inverse()
    ok2 = act2.Y == act1.Y.scale(rinv) + act1.Zinv.scale(one - rinv)
    return ok1 and ok2 and act1.Z == act2.Z


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
        if (act.Y @ u).scale(es) != u.scale(q_pow(q, d - 2 * j)):
            return False
        zu = (act.Z @ u).scale(es) - u.scale(q_pow(q, 2 * j - d))
        want = (cols[j + 1].scale(q_pow(q, -d) - q_pow(q, 2 * j + 2 - d))
                if j < d else ExactMatrix.zeros(n, 1))
        if zu != want:
            return False
        xu = (act.X @ u).scale(es) - u.scale(q_pow(q, 2 * j - d))
        want = (cols[j - 1].scale(q_pow(q, d) - q_pow(q, 2 * j - 2 - d))
                if j > 0 else ExactMatrix.zeros(n, 1))
        if xu != want:
            return False
    return True


# ---------------------------------------------------------------------------
# The two module structures on the standard module of a dual polar graph


@dataclass
class StandardModuleAction:
    variant: int
    act: UqAction
    params: dict  # h, h_star, kappa, kappa_star, upsilon


def dpg_uq_params(ctx) -> dict:
    q2 = ExactScalar(ctx.b)
    e2 = ctx.two_e()
    return {
        "h": (ExactScalar(1) - ctx.qexp(e2)) / (q2 - 1),
        "h_star": ExactScalar(ctx.bm.zeta),
        "kappa": ctx.qexp(e2 + ctx.D) / (q2 - 1),
        "kappa_star": ExactScalar(ctx.bm.xi) * ctx.qexp(-ctx.D),
        "upsilon": -ctx.qexp(ctx.D) / (q2 - 1),
    }


def uq_on_standard_module(ctx, center, variant: int = 1) -> StandardModuleAction:
    """x, y, z on the standard module, through K, L, R and the displacement
    central elements; all defining relations and recoveries are verified."""
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    q = ctx.q
    q2 = ExactScalar(ctx.b)
    n = ctx.n
    D = ctx.D
    e2 = ctx.two_e()
    ups, upsi = center.Upsilon, center.Upsilon_inv
    psi, psii = center.Psi, center.Psi_inv
    base = (upsi @ psii @ ctx.Kinv).scale(ctx.qexp(-D))
    if variant == 1:
        x = base + (ups @ psii @ ctx.R).scale(ctx.qexp(-e2 - D) * (q2 - 1))
        y = base - (upsi @ psi @ ctx.L).scale(ctx.qexp(-D) * (q2 - 1))
    else:
        x = base - (upsi @ psi @ ctx.R).scale(ctx.qexp(-D) * (q2 - 1))
        y = base + (ups @ psii @ ctx.L).scale(ctx.qexp(-e2 - D) * (q2 - 1))
    z = (ups @ psi @ ctx.K).scale(ctx.qexp(D))
    zinv = (upsi @ psii @ ctx.Kinv).scale(ctx.qexp(-D))
    act = UqAction(q, x, y, z, zinv)
    act.verify()
    params = dpg_uq_params(ctx)
    ident = ExactMatrix.identity(n)
    first = (upsi @ psi).scale(params["kappa"])
    second = (ups @ psii).scale(params["upsilon"])
    if variant == 1:
        recov = ident.scale(params["h"]) + first @ x + second @ y
    else:
        recov = ident.scale(params["h"]) + first @ y + second @ x
    if recov != ctx.A:
        raise AssertionError("A recovery on the standard module fails")
    recov_star = ident.scale(params["h_star"]) \
        + ((upsi @ psii) @ z).scale(params["kappa_star"])
    if recov_star != ctx.Astar:
        raise AssertionError("A* recovery on the standard module fails")
    # Chevalley images in terms of K, L, R
    if variant == 1:
        e_want = (psi @ psi @ ctx.K @ ctx.L)
        f_want = (ups @ psii @ ctx.R).scale(ctx.qexp(1 - e2 - D))
    else:
        e_want = (ups @ ups @ ctx.K @ ctx.L).scale(-ctx.qexp(-e2))
        f_want = (upsi @ psi @ ctx.R).scale(-ctx.qexp(1 - D))
    k_want = (ups @ psi @ ctx.K).scale(ctx.qexp(D))
    if act.e != e_want or act.f != f_want or act.k != k_want:
        raise AssertionError("Chevalley images in K, L, R fail")
    # Casimir acts as the diameter weight
    delta = act.casimir()
    if delta != center.Lam:
        raise AssertionError("Casimir does not equal the diameter weight")
    # homogeneous components: Delta rho_d = cas(d, 1) rho_d, and no
    # eps = -1 scalar occurs among the eigenvalues, so V_(d,-1) = 0 and
    # V_(d,1) = rho_d V
    scalars = {}
    for d, proj in center.rho.items():
        val = casimir_scalar(q, d, 1)
        scalars[d] = val
        if delta @ proj != proj.scale(val):
            raise AssertionError("Casimir eigenvalue on diameter component "
                                 "is wrong")
    for d in range(D + 1):
        neg = casimir_scalar(q, d, -1)
        if any(neg == v for v in scalars.values()):
            raise AssertionError("an eps = -1 Casimir value collides")
    return StandardModuleAction(variant, act, params)


def verify_cross_variant_standard(ctx, center, sm1: StandardModuleAction,
                                  sm2: StandardModuleAction) -> bool:
    """k_2 = k_1, e_2 = -q^-2e Ups^2 Psi^-2 e_1, f_2 = -q^2e Ups^-2 Psi^2 f_1."""
    e2 = ctx.two_e()
    a1, a2 = sm1.act, sm2.act
    if a1.k != a2.k:
        return False
    ups2 = center.Upsilon @ center.Upsilon
    upsi2 = center.Upsilon_inv @ center.Upsilon_inv
    psi2 = center.Psi @ center.Psi
    psii2 = center.Psi_inv @ center.Psi_inv
    ok_e = a2.e == (ups2 @ psii2 @ a1.e).scale(-ctx.qexp(-e2))
    ok_f = a2.f == (upsi2 @ psi2 @ a1.f).scale(-ctx.qexp(e2))
    return ok_e and ok_f