"""The quantum algebra U_q(sl2) acting by exact matrices.

An action is a triple X, Y, Z of matrices satisfying the equitable relations

    (q x y - q^-1 y x)/(q - q^-1) = 1    (and cyclic in x, y, z),

equivalently the Chevalley relations for k = z, f = (q - q^-1)^(-1)(x -
z^-1), e = q^-1 (q - q^-1)^(-1)(1 - z y).  The (d+1)-dimensional irreducible
L(d, eps) is built in the k/e/f basis or in a normalized x-, y- or
z-eigenbasis; the Casimir element ef + (q^-1 k + q k^-1)/(q - q^-1)^2 acts
on it as eps (q^(d+1) + q^(-d-1))/(q - q^-1)^2.

Two module structures are attached to a dual q-Krawtchouk Leonard system by
rational expressions in A - h and A* - h*, and two to the standard module of
a dual polar graph through K, L, R and the displacement weights Upsilon,
Psi.  The standard-module structures are built and checked one homogeneous
component W(r, t, d) at a time: there K, L, R act on each copy of the
raising ladder by the (d+1) x (d+1) ladder matrices that `decompose`
certifies and keeps with each component, and Upsilon, Psi
and the diameter weight Lambda act as scalars.  V is the direct sum of the
components, so a relation holds on V exactly when it holds on every such
small matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    """Matrices for the equitable generators, with derived Chevalley ones,
    each built once per action."""

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

    @cached_property
    def f(self) -> ExactMatrix:
        c = (self.q - self.q.inverse()).inverse()
        return ExactMatrix.combination(((c, self.X), (-c, self.Zinv)))

    @cached_property
    def e(self) -> ExactMatrix:
        q = self.q
        c = q.inverse() * (q - q.inverse()).inverse()
        return ExactMatrix.combination(((c, self._ident),
                                        (-c, self.Z @ self.Y)))

    def equitable_residuals(self) -> list[tuple[str, ExactMatrix]]:
        q = self.q
        qi = q.inverse()
        den = (q - qi).inverse()
        out = []
        for name, a, b in (("xy", self.X, self.Y), ("yz", self.Y, self.Z),
                           ("zx", self.Z, self.X)):
            resid = ExactMatrix.combination(((q * den, a @ b),
                                             (-qi * den, b @ a),
                                             (-1, self._ident)))
            out.append((f"(q {name[0]} {name[1]} - q^-1 {name[1]} {name[0]})"
                        f"/(q - q^-1) = 1", resid))
        out.append(("z z^-1 = 1", self.Z @ self.Zinv - self._ident))
        return out

    def verify(self):
        """Check the equitable relations and z z^-1 = 1.  They imply the
        Chevalley relations of k = z, f = (x - z^-1)/c and e = q^-1 (1 -
        z y)/c, c = q - q^-1 (Ito-Terwilliger-Weng 2006, Thm 2.1):

        * c (k f - q^-2 f k) = q^-1 (q z x - q^-1 x z - c), zero by zx;
        * c (k e - q^2 e k) = z (q y z - q^-1 z y - c), zero by yz;
        * by these two, f z^-1 = q^-2 z^-1 f and e z^-1 = q^2 z^-1 e, and
          with x = c f + z^-1 and y = z^-1 (1 - q c e),
          q x y - q^-1 y x - c = c^2 z^-1 (e f - f e - (k - k^-1)/c),
          so the xy relation is e f - f e = (k - k^-1)/c.
        """
        for name, resid in self.equitable_residuals():
            if not resid.is_zero():
                raise AssertionError(f"defining relation {name} fails")

    def casimir(self) -> ExactMatrix:
        """ef + (q^-1 k + q k^-1)/(q - q^-1)^2.  Not checked to be central
        here: both callers require it to equal a scalar times I, which
        commutes with k, e and f."""
        q = self.q
        qi = q.inverse()
        c = ((q - qi) ** 2).inverse()
        return ExactMatrix.combination(((1, self.e @ self.f),
                                        (qi * c, self.k), (q * c, self.kinv)))


def build_Ld(d: int, eps: int, q: ExactScalar, basis: str = "kef") -> UqAction:
    """The (d+1)-dimensional module L(d, eps) in a chosen basis."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    one = ExactScalar(1)
    for i in range(1, d + 1):
        if q_pow(q, 2 * i) == one:
            raise ValueError(f"q^(2i) = 1 at i = {i}; module is reducible")
    n = d + 1
    es = ExactScalar(eps)
    zeros = [0] * d
    # es q^(2i - d), i = 0..d: the diagonal of k^-1, and reversed, of k
    inv_weights = [es * q_pow(q, 2 * i - d) for i in range(n)]
    weights = ExactMatrix.diag(inv_weights[::-1])
    if basis == "kef":
        f = ExactMatrix.tridiagonal([bracket(q, i + 1) for i in range(d)],
                                    [0] * n, zeros)
        e = ExactMatrix.tridiagonal(zeros, [0] * n,
                                    [es * bracket(q, d - i) for i in range(d)])
        kinv = ExactMatrix.diag(inv_weights)
        x = ExactMatrix.combination(((1, kinv), (q - q.inverse(), f)))
        y = ExactMatrix.combination(((1, kinv),
                                     (-q * (q - q.inverse()), kinv @ e)))
        act = UqAction(q, x, y, weights, kinv)
        # x and y solve back to f and e: x - z^-1 = (q - q^-1) f, and
        # 1 - z y = q (q - q^-1) e given k kinv = 1, which verify checks
        act.verify()
        return act
    if basis not in ("x-eigen", "y-eigen", "z-eigen"):
        raise ValueError(f"unknown basis {basis!r}")
    raising = ExactMatrix.tridiagonal(
        [es * (q_pow(q, -d) - q_pow(q, 2 * i + 2 - d)) for i in range(d)],
        inv_weights, zeros)
    lowering = ExactMatrix.tridiagonal(
        zeros, inv_weights,
        [es * (q_pow(q, d) - q_pow(q, 2 * i - d)) for i in range(d)])
    if basis == "x-eigen":
        x, y, z = weights, raising, lowering
    elif basis == "y-eigen":
        y, z, x = weights, raising, lowering
    else:
        z, x, y = weights, raising, lowering
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
    B = ExactMatrix.combination(((1, real.A), (-p.h, ident)))
    Bs = ExactMatrix.combination(((1, real.Astar), (-p.h_star, ident)))
    Bsi = inverse(Bs)
    two2 = q * q - qi * qi
    s = q + qi

    def mix(conj, coef, other) -> ExactMatrix:
        # eps ((q B - q^-1 conj)/(coef q^-1 (q^2 - q^-2))
        #      + kappa* (coef q^-1 - other q)/(coef (q + q^-1)) B*^-1)
        c = es * (coef * qi * two2).inverse()
        return ExactMatrix.combination((
            (c * q, B), (-c * qi, conj),
            (es * ks * (coef * qi - other * q) / (coef * s), Bsi)))

    k, u, ks = p.kappa, p.upsilon, p.kappa_star
    first, second = (k, u) if variant == 1 else (u, k)
    X = mix(Bs @ B @ Bsi, first, second)
    Y = mix(Bsi @ B @ Bs, second, first)
    # Z = (eps / kappa*) B*, so Z^-1 = (kappa* eps) B*^-1
    Z = Bs.scale(es * ks.inverse())
    act = UqAction(q, X, Y, Z, Bsi.scale(ks * es))
    act.verify()
    # the recovery of A; that of A* holds by the definition of Z
    if real.A != ExactMatrix.combination(((p.h, ident), (es * first, X),
                                          (es * second, Y))):
        raise AssertionError("A recovery fails")
    # module type certificate: Z spectrum and Casimir scalar.  The columns
    # of V* are an eigenbasis of A*, so Z V* = V* diag(eps q^(d-2i)) says
    # Z = sum_i eps q^(d-2i) E*_i.
    Vs = real.eig_star.V
    weights = ExactMatrix.diag([es * q_pow(q, p.d - 2 * i) for i in range(n)])
    if Z @ Vs != Vs @ weights:
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
    ok1 = act2.X == ExactMatrix.combination(((ratio, act1.X),
                                             (one - ratio, act1.Zinv)))
    rinv = ratio.inverse()
    ok2 = act2.Y == ExactMatrix.combination(((rinv, act1.Y),
                                             (one - rinv, act1.Zinv)))
    return ok1 and ok2 and act1.Z == act2.Z


# ---------------------------------------------------------------------------
# The two module structures on the standard module of a dual polar graph


@dataclass
class StandardModuleAction:
    variant: int
    actions: dict  # (r, t, d) -> UqAction on one copy of the ladder of W
    params: dict   # h, h_star, kappa, kappa_star, upsilon


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
    central elements, with the equitable relations, the recovery of A and
    Casimir = Lambda verified.

    They are checked on each homogeneous component W(r, t, d), where K, L, R
    act by the (d+1) x (d+1) ladder matrices and Upsilon, Psi, Lambda by
    scalars; V is the direct sum of the components.  The rest holds by the
    definitions.  With s = Upsilon Psi q^D, z = s K and z^-1 = s^-1 K^-1,
    which is the K^-1 term of x = z^-1 + cx R and of y = z^-1 + cy L; so
    f = (x - z^-1)/(q - q^-1) = cx R/(q - q^-1) and e = q^-1 (1 - z y)/(q -
    q^-1) = -s cy K L/(q^2 - 1), in variant 1 Upsilon Psi^-1 q^(1-2e-D) R
    and Psi^2 K L.  And h* + Upsilon^-1 Psi^-1 kappa* z = zeta + xi K is the
    ladder's A* = diag theta*_(r+j).  No eps = -1 module occurs: q > 1, so
    every eps = 1 Casimir value is positive and every eps = -1 value
    negative, and the Casimir acts on each component as Lambda = cas(d, 1).
    """
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    q = ctx.q
    q2 = ExactScalar(ctx.b)
    D = ctx.D
    e2 = ctx.two_e()
    params = dpg_uq_params(ctx)
    actions = {}
    for triple in sorted(center.Upsilon):
        lad = center.ladders[triple]
        ident = ExactMatrix.identity(triple[2] + 1)
        ups, psi = center.Upsilon[triple], center.Psi[triple]
        upsi, psii = ups.inverse(), psi.inverse()
        w = upsi * psii * ctx.qexp(-D)
        base = lad.Kinv.scale(w)
        # x = base + cx R and y = base + cy L
        c_plus = ups * psii * ctx.qexp(-e2 - D) * (q2 - 1)
        c_minus = -upsi * psi * ctx.qexp(-D) * (q2 - 1)
        cx, cy = (c_plus, c_minus) if variant == 1 else (c_minus, c_plus)
        x = ExactMatrix.combination(((w, lad.Kinv), (cx, lad.R)))
        y = ExactMatrix.combination(((w, lad.Kinv), (cy, lad.L)))
        z = lad.K.scale(ups * psi * ctx.qexp(D))
        act = UqAction(q, x, y, z, base)
        act.verify()
        first, second = (x, y) if variant == 1 else (y, x)
        recov = ExactMatrix.combination((
            (params["h"], ident), (upsi * psi * params["kappa"], first),
            (ups * psii * params["upsilon"], second)))
        if recov != lad.A:
            raise AssertionError("A recovery on the standard module fails")
        if act.casimir() != ident.scale(center.Lam[triple]):
            raise AssertionError("Casimir does not equal the diameter weight")
        actions[triple] = act
    return StandardModuleAction(variant, actions, params)


def verify_cross_variant_standard(ctx, center, sm1: StandardModuleAction,
                                  sm2: StandardModuleAction) -> bool:
    """k_2 = k_1, e_2 = -q^-2e Ups^2 Psi^-2 e_1, f_2 = -q^2e Ups^-2 Psi^2 f_1,
    on each homogeneous component."""
    e2 = ctx.two_e()
    for triple, a1 in sm1.actions.items():
        a2 = sm2.actions[triple]
        ratio = center.Upsilon[triple] / center.Psi[triple]
        if a1.k != a2.k:
            return False
        if a2.e != a1.e.scale(-ctx.qexp(-e2) * ratio * ratio):
            return False
        if a2.f != a1.f.scale(-ctx.qexp(e2) / (ratio * ratio)):
            return False
    return True
