"""Subconstituent algebra of a dual polar graph at a base vertex.

Everything here is exact.  A respects the distance partition B_0, ...,
B_D at the base vertex x: E*_i A E*_j = 0 for |i - j| > 1 (Terwilliger, The
subconstituent algebra of an association scheme I, 1992).  K, K^-1, A* and
E*_i act on B_i as scalars, and L, F, R on B_i are the adjacency blocks
A[B_(i-1), B_i], A[B_i, B_i], A[B_(i+1), B_i].  So the context is the
partition with these blocks, and `build_context` certifies L^t = R, F^t = F.

The homogeneous decomposition is built below the top by lowering ladders
(`decompose`): for r < D the lowest rungs ker(L) ^ E*_r V are split by
Lagrange projectors, by diameter through LR (C2) and by dual endpoint
through F (C0), and each component is raised from its lowest rung.  The top
block B_D is not constructed: its components W(D, t, 0) are certified by
counts and power traces of F.  Every rung, image and ladder identity is
formed in integers.  The construction checks nothing: the certificate
below is the one proof, for any components that pass it.

Each component W(r, t, d) with rungs is certified on its raising ladder:
F acts on rung j as a_j(W), L maps it to b_(j-1)(W) c_j(W) != 0 times rung
j - 1, so every rung keeps the rank of rung 0; L kills rung 0, R rung d.
So L, F, R, K and A* act on each copy of W as the (d+1) x (d+1) matrices
of `ladder_action`, kept as its `action`, and C0, C1, C2, words in K, L,
F, R (`central_terms`), as those words evaluated on them, which must be
chi_k I.  The matrices and chi_k depend on (family, D, b) and the triple,
never on x: they and the checks on them alone run once per verify call,
for all contexts that share them (`TerwilligerContext.at`); each vertex
checks, in integers, that its rungs realize the matrices.  The triples
have pairwise distinct (chi0, chi1, chi2), so the components lie in
distinct joint eigenspaces and are independent.  When the rungs on every
B_i, i < D, fill it, the orthogonal complement of their sum lies in E*_D V
(A and A* are symmetric, so it is a T-module), where F alone acts; tr p(F)
= 0 there for p with double roots at the candidates nu_t puts every
eigenvalue among them, and the traces of F's powers give each multiplicity
(`_certify_decomposition`).  So V is the direct sum of the components.

A word combination in L, F, R, K, K^-1, A and A* is therefore zero on V
exactly when it is zero on every ladder.  The LFRK relations, the
recoveries, the commutations, the tridiagonal relations and the expressions
of Omega, G, G* through C0 and C1 (`identities`) are checked so, as are the
characterization and the center identities: Upsilon, Psi and Lambda are
per-component scalars.  Only the paper's entry tables of Omega and G are
statements about matrix entries.  Every word of either maps each E*_s V
to itself, so `central_elements` reads each as its coefficients of I, F_s =
A[B_s, B_s] and the two-step products RL_s, LR_s (`two_step`, formed once
per context for the entry tables and `decompose`) on block s.  Both tables
are then checked by one integer comparison per class of vertex pairs: no
rational matrix is built.  The Leonard system of each module is read off
the same ladder: A and A* act on every copy of W as the (d+1) x (d+1)
ladder A and diag theta*_(r+j), so `extract_module` certifies it with
`leonard.certify_leonard_system`, reads its parameter array, and compares
the intersection numbers of that array with the paper's closed forms.  It
touches no n-wide vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import itemgetter, matmul

import numpy as np

from .drg import (
    BoseMesnerData,
    b_pow,
    closed_form_intersection,
    distance_layers,
    td_scalars,
)
from .exact import ExactScalar
from .intarith import int_dtype, int_lin, int_matmul
from .leonard import (
    ParameterArray,
    certify_leonard_system,
    extract_parameter_array,
    intersection_data,
)
from .linexact import ExactMatrix, kernel, rref
from .polar import PolarGraph
from .uqsl2 import casimir_scalar

# the module's bindings of the closed forms and of the functions they read
_FORMS = itemgetter("chi0", "chi1", "chi2", "_mu", "_nu", "_intersection",
                    "module_intersection", "module_dual_intersection",
                    "aw_module_scalars", "ladder_action", "_joint_kernel",
                    "central_terms", "_central_by_c0_c1", "identities")


@dataclass
class TerwilligerContext:
    """The subconstituents of the graph at a base vertex x, and the
    adjacency blocks between them: all that T is evaluated on; and the
    graph's closed forms (`form`), shared with its other contexts (`at`)."""

    g: PolarGraph
    bm: BoseMesnerData
    x: int
    q: ExactScalar
    blocks: list[np.ndarray]  # vertex indices at distance i from x, sorted
    _adj: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)
    _two: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)
    forms: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def form(self, fn, *args):
        """fn(self, *args), once for all contexts sharing `forms`, kept under
        the bindings `_FORMS`: a rebound form (patched chi0) is recomputed."""
        key = (_FORMS(globals()), fn, *args)
        if key not in self.forms:
            self.forms[key] = fn(self, *args)
        return self.forms[key]

    def at(self, x: int) -> TerwilligerContext:
        """`build_context` at vertex x of the same graph, sharing `forms`."""
        ctx = build_context(self.g, self.bm, x)
        ctx.forms = self.forms
        return ctx

    @property
    def n(self) -> int:
        return self.g.n_vertices

    @property
    def D(self) -> int:
        return self.g.spec.D

    @property
    def b(self) -> int:
        return self.g.spec.b

    def two_e(self) -> int:
        return int(2 * self.g.spec.e)

    def adj(self, i: int, j: int) -> np.ndarray | None:
        """A[B_i, B_j], the graph's uint8 block of L (j = i + 1), F (j = i)
        or R (j = i - 1), widened by each use; None where E*_i A E*_j = 0."""
        if abs(i - j) > 1 or not (0 <= i <= self.D and 0 <= j <= self.D):
            return None
        if (i, j) not in self._adj:
            self._adj[i, j] = self.g.adjacency[np.ix_(self.blocks[i],
                                                      self.blocks[j])]
        return self._adj[i, j]

    def two_step(self, s: int, h: int) -> np.ndarray | None:
        """A[B_s, B_h] A[B_h, B_s] for h = s - 1 (RL on block s) or
        h = s + 1 (LR on block s): entry (y, z) counts the common neighbours
        of y and z in B_h.  None where block h does not exist."""
        if not 0 <= h <= self.D:
            return None
        if (s, h) not in self._two:
            self._two[s, h] = int_matmul(self.adj(s, h), self.adj(h, s))
        return self._two[s, h]


def build_context(g: PolarGraph, bm: BoseMesnerData,
                  x: int = 0) -> TerwilligerContext:
    """The distance partition at x, by breadth-first search on the rows of
    the adjacency (`distance_layers`): B_(i+1) is the neighbours of B_i
    outside B_(i-1) and B_i, so A = L + F + R over the partition.  A vertex
    the search does not reach within D steps is refused.  Then L^t = R and
    F^t = F are checked block by block.  A* = zeta I + xi K = sum theta*_i
    E*_i holds by construction: `spectral_data` takes theta*_i = zeta + xi
    b^-i from the same `dual_eigenvalue_scalars` as its zeta and xi.  That
    the diagonal of A* is |X| times row x of E_1 is `spectral_data`'s Q_h1
    = theta*_h, which holds at every base vertex."""
    D = g.spec.D
    blocks, seen = distance_layers(g.adjacency, x, D)
    if not seen.all():
        raise AssertionError(f"vertex {int(seen.argmin())} is not reached "
                             f"within D = {D} steps of the base vertex {x}")
    ctx = TerwilligerContext(g, bm, x, ExactScalar.sqrt(g.spec.b), blocks)
    for i in range(D + 1):
        for j in (i, i + 1):
            if j <= D and not np.array_equal(ctx.adj(j, i), ctx.adj(i, j).T):
                raise AssertionError(
                    "transpose relations L^t = R, F^t = F fail")
    return ctx


# ---------------------------------------------------------------------------
# Identities on the ladders


LFRK_STATEMENTS = (
    "K L = q^2 L K",
    "K F = F K",
    "K R = q^-2 R K",
    "L F - q^2 F L = (q^2e - 1) L",
    "F R - q^2 R F = (q^2e - 1) R",
    "q^4/(q^2+1) R L^2 - L R L + q^-2/(q^2+1) L^2 R = -q^(2e+2D-2) L",
    "q^4/(q^2+1) R^2 L - R L R + q^-2/(q^2+1) L R^2 = -q^(2e+2D-2) R",
)


def _bracket(letter: str, terms) -> list:
    """The terms of [letter, sum terms]."""
    return [(c, letter + w) for c, w in terms] + [(-c, w + letter)
                                                  for c, w in terms]


def _times(s, terms) -> list:
    """The terms of s * sum terms."""
    return [(s * c, w) for c, w in terms]


def identities(ctx: TerwilligerContext) -> dict[str, list[list]]:
    """The word identities of the lfrk and central suites by check id, each
    a list of (coeff, word) term lists whose sums must vanish on V; words
    are in the letters of `LadderAction.evaluate`.

    - the seven generator relations, as lhs - rhs in the order of
      LFRK_STATEMENTS;
    - L, F, R recovered from A and K: K^-1 A K and K A K^-1 scale block
      (i, j) of A by b^(j-i) and b^(i-j);
    - LR, RL, F, K mutually commute;
    - A commutes with A^2 A* - beta A A* A + A* A^2 - gamma (A A* + A* A) -
      rho A*, and A* with A*^2 A - beta A* A A* + A A*^2 - gamma* (A* A +
      A A*) - rho* A;
    - Omega, G and G* equal a0 C0 + a1 C1 + a2 I (`_central_by_c0_c1`), and
      G* = -gamma zeta^2 I - zeta Omega.
    Built once per graph (`TerwilligerContext.form`)."""
    q, q2 = ctx.q, ExactScalar(ctx.b)
    qi = q.inverse()
    q2e = ctx.q ** ctx.two_e()
    qpow = ctx.q ** (ctx.two_e() + 2 * ctx.D - 2)
    c_hi = q2 * q2 / (q2 + 1)
    c_lo = q2.inverse() / (q2 + 1)
    dd = (q - qi) * (q - qi)
    s = q + qi
    beta, gamma, gamma_s, rho, rho_s = td_scalars(ctx.g.spec)
    words = ["LR", "RL", "F", "K"]
    inner1 = [(1, "AAS"), (-beta, "ASA"), (1, "SAA"), (-gamma, "AS"),
              (-gamma, "SA"), (-rho, "S")]
    inner2 = [(1, "SSA"), (-beta, "SAS"), (1, "ASS"), (-gamma_s, "SA"),
              (-gamma_s, "AS"), (-rho_s, "A")]
    c0, c1, _, omega, g, gstar = ctx.form(central_terms)
    zeta = ctx.bm.zeta
    central = [m + _times(-a0, c0) + _times(-a1, c1) + [(-a2, "")]
               for m, (a0, a1, a2) in zip((omega, g, gstar),
                                          _central_by_c0_c1(ctx))]
    central.append(gstar + _times(zeta, omega) + [(gamma * zeta ** 2, "")])
    lfrk = [
        [(1, "KL"), (-q2, "LK")],
        [(1, "KF"), (-1, "FK")],
        [(1, "KR"), (-q2.inverse(), "RK")],
        [(1, "LF"), (-q2, "FL"), (1 - q2e, "L")],
        [(1, "FR"), (-q2, "RF"), (1 - q2e, "R")],
        [(c_hi, "RLL"), (-1, "LRL"), (c_lo, "LLR"), (qpow, "L")],
        [(c_hi, "RRL"), (-1, "RLR"), (c_lo, "LRR"), (qpow, "R")],
    ]
    return {
        **{f"lfrk:{st}": [terms] for st, terms in zip(LFRK_STATEMENTS, lfrk)},
        "lfrk:recovery": [
            [(qi / (dd * s), "kAK"), (q / (dd * s), "KAk"), (-1 / dd, "A"),
             (-1, "L")],
            [((q * q + qi * qi) / dd, "A"), (-1 / dd, "kAK"),
             (-1 / dd, "KAk"), (-1, "F")],
            [(q / (dd * s), "kAK"), (qi / (dd * s), "KAk"), (-1 / dd, "A"),
             (-1, "R")]],
        "lfrk:commuting": [[(1, u + v), (-1, v + u)]
                           for i, u in enumerate(words) for v in words[i + 1:]],
        "lfrk:tridiagonal": [_bracket("A", inner1), _bracket("S", inner2)],
        "central:construction": central,
    }


def _ladder_witness(comp, m: ExactMatrix) -> dict | None:
    """The first nonzero entry of m, a matrix on the ladder of comp, in
    row-major order, or None."""
    live = m.n0 != 0 if m.n1 is None else (m.n0 != 0) | (m.n1 != 0)
    if not live.any():
        return None
    i, j = (int(v) for v in np.argwhere(live)[0])
    return {"component": list(comp.triple), "entry": [i, j],
            "value": m.entry(i, j).render()}


def _on_ladders(comps, term_lists) -> tuple[bool, dict | None]:
    """Every sum of terms vanishes on the ladder of every component: (True,
    None), or (False, the first nonzero entry found)."""
    for terms in term_lists:
        for c in comps:
            witness = _ladder_witness(c, c.action.evaluate(terms))
            if witness is not None:
                return False, witness
    return True, None


def verify_lfrk(ctx: TerwilligerContext, comps) -> dict:
    """(ok, witness) of each generator relation by statement, on the
    ladders of the components of the decomposition."""
    ids = ctx.form(identities)
    return {st: _on_ladders(comps, ids[f"lfrk:{st}"]) for st in LFRK_STATEMENTS}


def verify_lfrk_recovery(ctx: TerwilligerContext, comps):
    return _on_ladders(comps, ctx.form(identities)["lfrk:recovery"])


def verify_lrf_commutations(ctx: TerwilligerContext, comps):
    return _on_ladders(comps, ctx.form(identities)["lfrk:commuting"])


def verify_tridiagonal_relations(ctx: TerwilligerContext, comps):
    return _on_ladders(comps, ctx.form(identities)["lfrk:tridiagonal"])


# ---------------------------------------------------------------------------
# Central elements


@dataclass
class CentralElements:
    """Omega and G by their word coefficients on the diagonal blocks E*_s V
    (s = 0..D): {W: c} over the words W of `_on_block`, so that the block s
    is sum c W.  Every word of either maps each E*_s V to itself, so every
    other block is 0."""

    Omega: list[dict[str, Fraction]]
    G: list[dict[str, Fraction]]


def chi0(ctx: TerwilligerContext, r: int, t: int, d: int) -> ExactScalar:
    e2 = ctx.two_e()
    q2 = ExactScalar(ctx.b)
    num = ctx.q ** (e2 + 2 * ctx.D - 2 * d - 2 * r - 2 * t) \
        - ctx.q ** (2 * t - 2 * r)
    return num / (q2 - 1)


def chi1(ctx: TerwilligerContext, r: int, t: int, d: int) -> ExactScalar:
    e2 = ctx.two_e()
    pref = ctx.q ** (e2 + 2 * ctx.D - 1 - d - 2 * r)
    mid = ctx.q ** (d + 1) + ctx.q ** (-d - 1)
    q4 = ExactScalar(ctx.b) * ExactScalar(ctx.b)
    return pref * mid / (q4 - 1)


def chi2(ctx: TerwilligerContext, r: int, t: int, d: int) -> ExactScalar:
    e2 = ctx.two_e()
    q4 = ExactScalar(ctx.b) * ExactScalar(ctx.b)
    return ctx.q ** (e2 + 2 * ctx.D - 2 - 2 * d - 4 * r) / (q4 - 1)


def aw_module_scalars(ctx: TerwilligerContext, r: int, t: int, d: int):
    """(omega, eta, eta*) for a module of type (r, t, d)."""
    spec = ctx.g.spec
    b, D, e = spec.b, spec.D, spec.e
    zeta, xi = ctx.bm.zeta, ctx.bm.xi
    _, gamma, _, rho, _ = td_scalars(spec)
    omega = xi * (Fraction(1, b) - 1) \
        * (b_pow(b, e + D - d - t - r) - b_pow(b, t - r)) - 2 * gamma * zeta
    eta = xi * Fraction(1, b) * (1 - b_pow(b, e)) \
        * (b_pow(b, e + D - d - r - t) - b_pow(b, t - r)) \
        - xi * b_pow(b, e + D - d - r - 2) * (b + 1) * (b ** (d + 1) + 1) \
        - rho * zeta
    eta_star = -gamma * zeta ** 2 - zeta * omega
    return omega, eta, eta_star


def _omega_coeffs(ctx: TerwilligerContext):
    spec = ctx.g.spec
    b, D, e = spec.b, spec.D, spec.e
    denom = b_pow(b, e - 1) + 1
    alpha = {}
    beta = {}
    for i in range(D + 1):
        if i >= 1:
            alpha[i] = (
                (b_pow(b, D + e - 1) + 1) * (b_pow(b, D + e - 2) + 1)
                * (1 - b) * Fraction(1, b ** i) / denom
            )
        beta[i] = (
            (b_pow(b, D + e - 2) + 1) * (b_pow(b, e) - 1)
            * (2 * b_pow(b, e - 1) + 2 - (b_pow(b, D + e - 1) + 1)
               * Fraction(1, b ** i)) / denom
        )
    return alpha, beta


def central_terms(ctx: TerwilligerContext) -> tuple[list, ...]:
    """The (coeff, word) terms of C0, C1, C2, Omega, G and G*, in the
    letters L, F, R, K (acting right to left)."""
    q2 = ExactScalar(ctx.b)
    q4 = q2 * q2
    q2e = ctx.q ** ctx.two_e()
    one = ExactScalar(1)
    top = ctx.q ** (ctx.two_e() + 2 * ctx.D - 2)
    zeta, xi = ctx.bm.zeta, ctx.bm.xi
    _, gamma, _, rho, _ = td_scalars(ctx.g.spec)
    return ([(1, "KF"), ((q2e - one) / (q2 - one), "K")],
            [(q2 / (q2 + 1), "KRL"), (-q2.inverse() / (q2 + 1), "KLR"),
             (top / (q2 - 1), "K")],
            [(one / (q2 + 1), "KKRL"), (-q2.inverse() / (q2 + 1), "KKLR"),
             (top / (q4 - 1), "KK")],
            [(-xi * (q2 - 1) * (q2 - 1) / q2, "KF"),
             (-xi * (q2 - 1) * (q2e - 1) / q2, "K"), (-2 * gamma * zeta, "")],
            [(xi * (1 - q4), "KRL"), (xi * (1 - q4.inverse()), "KLR"),
             (xi * (q2.inverse() - 1) * (q2e - 1), "KF"),
             (ExactScalar(-rho) * xi, "K"), (-rho * zeta, "")],
            [(zeta * xi * (q2 - 1) * (q2 - 1) / q2, "KF"),
             (zeta * xi * (q2 - 1) * (q2e - 1) / q2, "K"),
             (gamma * zeta ** 2, "")])


def _on_block(ctx: TerwilligerContext, terms, s: int) -> dict[str, Fraction]:
    """E*_s (sum coeff * word) E*_s over the (coeff, word) terms, each word
    K^m W with W one of "" (I), F, RL, LR, as {W: rational coefficient}.
    Each such word maps E*_s V to itself: W acts there as I, F_s =
    A[B_s, B_s] or a two-step product RL_s, LR_s (`two_step`), and K as
    b^-s.  A two-step product through a block that does not exist is 0, and
    its word is dropped.  Any other word raises ValueError."""
    through = {"RL": s - 1, "LR": s + 1}
    coeffs: dict = {}
    for coeff, word in terms:
        w = word.lstrip("K")
        if w not in ("", "F", *through):
            raise ValueError(f"word {word!r} does not map E*_{s} V to itself")
        if 0 <= through.get(w, s) <= ctx.D:
            k = Fraction(1, ctx.b ** (s * (len(word) - len(w))))
            coeffs[w] = coeffs.get(w, ExactScalar(0)) + coeff * k
    return {w: c.as_fraction() for w, c in coeffs.items()}


def central_elements(ctx: TerwilligerContext) -> CentralElements:
    """Omega and G by the coefficients of their words (`central_terms`) on
    each diagonal block: on E*_s V, Omega = u_s F_s + v_s I and G = w_I I +
    w_F F_s + w_RL RL_s + w_LR LR_s.  The paper's entry tables describe
    their entries, and are checked from these coefficients and the integer
    blocks of the context; no matrix is built.  That the words are central
    is `verify_central_construction`'s certificate."""
    terms = ctx.form(central_terms)
    return CentralElements(*([_on_block(ctx, terms[k], s)
                              for s in range(ctx.D + 1)] for k in (3, 4)))


def verify_central_construction(ctx: TerwilligerContext, comps):
    """C0, C1, C2, Omega, G and G* are symmetric and commute with A and A*,
    given the decomposition `comps`.

    C0, C1 and C2 act on every component as chi_k I, which `decompose`
    certifies on the ladders; V is the direct sum of the components, so they
    are central in T.  They are symmetric word by word: with L^t = R and
    F^t = F (`build_context`) and K diagonal, (KF)^t = FK, (KRL)^t = RLK and
    (KLR)^t = LRK, and K commutes with F, RL and LR, each of which maps
    every subconstituent to itself; so KF, KRL, KLR, KKRL, KKLR and KK are
    symmetric.  Checked here on every ladder: Omega, G and G* equal
    a0 C0 + a1 C1 + a2 I, that is they act there as a0 chi0 + a1 chi1 + a2,
    which makes them symmetric and central too, and G* = -gamma zeta^2 I -
    zeta Omega."""
    return _on_ladders(comps, ctx.form(identities)["central:construction"])


def _central_by_c0_c1(ctx: TerwilligerContext):
    """Omega, G and G* as a0 C0 + a1 C1 + a2 I: their (a0, a1, a2)."""
    q2 = ExactScalar(ctx.b)
    q2e = ctx.q ** ctx.two_e()
    zeta, xi = ctx.bm.zeta, ctx.bm.xi
    _, gamma, _, rho, _ = td_scalars(ctx.g.spec)
    return ((-xi * (q2 - 1) * (q2 - 1) / q2, 0, -2 * gamma * zeta),
            (xi * (q2.inverse() - 1) * (q2e - 1),
             xi * (q2.inverse() - 1) * (q2 + 1) * (q2 + 1), -rho * zeta),
            (zeta * xi * (q2 - 1) * (q2 - 1) / q2, 0, gamma * zeta ** 2))


PAIR_CLASSES = ("diagonal", "adjacent", "distance 2, common neighbour at s+1",
                "distance 2, none at s+1", "other")


def _entry_table(ctx: TerwilligerContext, words: list, tables: list):
    """(True, None) when sum_W word[W] W (the words of `_on_block`) matches
    its entry table on every diagonal block s, else (False, a witness at
    the first pair that does not).  A table holds one value for each of the
    first four classes of PAIR_CLASSES: the diagonal, the adjacent pairs
    (the ones of F_s), the pairs at distance 2 with a common neighbour in
    B_(s+1) (LR_s > 0), and those without one, where the value is a
    multiple of RL_s; it is 0 on the other pairs.  Distinct, non-adjacent
    y, z with a common neighbour in B_(s+1) or B_(s-1) are at distance 2,
    so the counts give the classes; a distance-2 pair with RL_s = 0 has
    value 0 in either class and is classed "other".  Both sides are taken
    over one common denominator and their difference is formed on the
    integer blocks, one row panel at a time: in int64 where a bound from
    the coefficients and the valency k, which no count exceeds, proves that
    exact (`int_dtype`), else in Python ints."""
    k = len(ctx.blocks[1])
    for s, (word, table) in enumerate(zip(words, tables, strict=True)):
        vals = [word.get(w, 0) for w in ("", "F", "RL", "LR")]
        den = math.lcm(*(Fraction(v).denominator for v in (*vals, *table)))
        w_i, w_f, w_rl, w_lr, t_i, t_f, t_up, t_rl = (
            int(v * den) for v in (*vals, *table))
        bound = sum(map(abs, (w_i, w_f, t_i, t_f, t_up))) \
            + k * sum(map(abs, (w_rl, w_lr, t_rl)))
        dtype = int_dtype(bound)
        block, f = ctx.blocks[s], ctx.adj(s, s)
        # a two-step product is read only where a coefficient needs it
        up = ctx.two_step(s, s + 1) if w_lr or t_up or t_rl else None
        down = ctx.two_step(s, s - 1) if w_rl or t_rl else None
        step = max(1, 2 ** 20 // len(block))
        for lo in range(0, len(block), step):
            rows = slice(lo, lo + step)
            up_p, down_p = (0 if m is None else
                            m[rows].astype(dtype, copy=False)
                            for m in (up, down))
            diff = (w_f - t_f) * f[rows].astype(dtype) + w_rl * down_p \
                + w_lr * up_p
            diag = np.arange(len(diff)), np.arange(lo, lo + len(diff))
            diff[diag] += w_i - t_i
            if t_up or t_rl:
                apart = f[rows] == 0  # distinct and not adjacent
                apart[diag] = False
                near = apart & (up_p > 0)
                diff -= t_up * near.astype(dtype) \
                    + t_rl * (apart & ~near).astype(dtype) * down_p
            if diff.any():
                i, j = (int(v) for v in np.argwhere(diff)[0])
                y, z = int(block[lo + i]), int(block[j])
                c_up, c_down = (0 if m is None else int(m[lo + i, j]) for m
                                in (ctx.two_step(s, s + 1),
                                    ctx.two_step(s, s - 1)))
                cls = 0 if y == z else 1 if f[lo + i, j] else 2 if c_up \
                    else 3 if c_down else 4
                want = (t_i, t_f, t_up, t_rl * c_down, 0)[cls]
                got = want + int(diff[i, j])
                return False, {"block": s, "pair": [y, z],
                               "class": PAIR_CLASSES[cls],
                               "value": str(Fraction(got, den)),
                               "table": str(Fraction(want, den))}
    return True, None


def _intersection(ctx: TerwilligerContext):
    """c_i, a_i, b_i of the graph (`closed_form_intersection`)."""
    return closed_form_intersection(ctx.g.spec)


def verify_g_entry_table(ctx: TerwilligerContext, G: list):
    """The paper's entry table of G at one distance s from x, against G's
    word coefficients (`central_elements`) on each block: one value on the
    diagonal, one on adjacent pairs, one on pairs at distance 2 with a
    common neighbour at s + 1, one times the number of common neighbours at
    s - 1 on the other pairs at distance 2, and 0 elsewhere."""
    spec = ctx.g.spec
    b, xi, rho = spec.b, ctx.bm.xi, td_scalars(spec)[3]
    cvals, _, bvals = ctx.form(_intersection)
    tables = []
    for s in range(ctx.D + 1):
        x = xi * Fraction(1, b ** (s + 1))
        tables.append((
            x * (1 - b * b) * (b * cvals[s] - Fraction(bvals[s], b))
            - rho * ctx.bm.theta_star[s],
            x * (1 - b) * (b * b + b + b_pow(b, spec.e) - 1),
            -x * (b + 1) * (b - 1) ** 2, x * b * (1 - b * b)))
    return _entry_table(ctx, G, tables)


def verify_omega_entry_table(ctx: TerwilligerContext, omega: list):
    """The paper's same-distance entry table of Omega: beta_s on the
    diagonal of block s, alpha_s on its adjacent pairs, 0 elsewhere.  Its
    words are KF, K and 1, so on block s it is u_s F_s + v_s I.  F_s =
    A[B_s, B_s] holds the adjacent pairs of B_s, and its diagonal is zero:
    a vertex meets itself in dimension D, not D - 1."""
    alpha, beta = _omega_coeffs(ctx)
    return _entry_table(ctx, omega, [(beta[s], alpha.get(s, 0), 0, 0)
                                     for s in range(ctx.D + 1)])


def _perturbed_alpha(ctx: TerwilligerContext) -> int:
    """The i whose alpha_i the perturbed characterization raises: 2, or 1
    for D = 1.  The raised alpha breaks alpha_2 = alpha_1 / b, or for D = 1
    the beta_1 computed from the old alpha_1."""
    return min(2, ctx.D)


def central_characterization_matrix(ctx: TerwilligerContext, comp,
                                    alpha1, beta0,
                                    perturb: bool = False) -> ExactMatrix:
    """C = sum alpha_i E*_i A E*_i + sum beta_i E*_i on the ladder of comp,
    with alpha_i = b^(1-i) alpha_1 and beta_i = beta_0 - a_1 b^(1-i)
    (b^i - 1)/(b-1) alpha_1.  With perturb, alpha_i at i =
    `_perturbed_alpha` is raised by 1.  E*_(r+j) acts on the ladder as the
    projection on rung j, so E*_(r+j) A E*_(r+j) acts there as F, which is
    diagonal."""
    b = ctx.b
    a1 = ctx.form(_intersection)[1][1]
    alpha1 = Fraction(alpha1)
    beta0 = Fraction(beta0)
    alphas = {i: Fraction(b) ** (1 - i) * alpha1 for i in range(1, ctx.D + 1)}
    betas = {
        i: beta0 - a1 * Fraction(b) ** (1 - i)
        * Fraction(b ** i - 1, b - 1) * alpha1
        for i in range(ctx.D + 1)
    }
    if perturb:
        alphas[_perturbed_alpha(ctx)] += 1
    rungs = range(comp.r, comp.r + comp.d + 1)
    return ExactMatrix.diag([alphas.get(i, 0) for i in rungs]) \
        @ comp.action.F + ExactMatrix.diag([betas[i] for i in rungs])


def verify_central_characterization(ctx: TerwilligerContext, comps):
    """Two matrices of the characterized shape commute with A on every
    ladder; the perturbed one does not on some ladder, unless F vanishes on
    every ladder and so annihilates its alpha part."""
    def bracket(c, *args):
        m = central_characterization_matrix(ctx, c, *args)
        return _ladder_witness(c, m @ c.action.A - c.action.A @ m)

    for args in ((1, 0), (3, 2)):
        for c in comps:
            witness = bracket(c, *args)
            if witness is not None:
                return False, witness
    flat = all(c.action.F.is_zero() for c in comps)
    moved = any(bracket(c, 1, 0, True) is not None for c in comps)
    if moved == flat:
        return False, {"perturbed_alpha": _perturbed_alpha(ctx),
                       "commutes": not moved}
    return True, None


# ---------------------------------------------------------------------------
# Homogeneous decomposition


@dataclass
class HomogeneousComponent:
    r: int
    t: int
    d: int
    mult: int
    # rung j: rung 0 raised j times, on block r+j, as an integer array whose
    # rows span the rung; none for the W(D, t, 0) that
    # `_certify_decomposition` certifies by traces
    rungs: list[np.ndarray] = field(compare=False)
    # L, F, R, K, A* on every copy, as `decompose` certifies it
    action: LadderAction | None = field(default=None, compare=False,
                                        repr=False)

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.r, self.t, self.d)

    @property
    def dim(self) -> int:
        return self.mult * (self.d + 1)


@dataclass
class LadderAction:
    """L, F, R, K, K^-1 and A* on one copy v_j = R^j v_0 (0 <= j <= d) of
    the raising ladder of W(r, t, d), as (d+1) x (d+1) matrices M with
    op(v_j) = sum_i M_ij v_i."""

    L: ExactMatrix
    F: ExactMatrix
    R: ExactMatrix
    K: ExactMatrix
    Kinv: ExactMatrix
    Astar: ExactMatrix
    _words: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        self._words.update({
            "": ExactMatrix.identity(self.K.shape[0]), "L": self.L,
            "F": self.F, "R": self.R, "K": self.K, "k": self.Kinv,
            "S": self.Astar, "A": self.L + self.F + self.R})

    @property
    def A(self) -> ExactMatrix:
        return self._words["A"]

    def word(self, word: str) -> ExactMatrix:
        """The product of the letters of `word`, built once per ladder;
        words with a common right factor share its product."""
        if word not in self._words:
            self._words[word] = self._words[word[0]] @ self.word(word[1:])
        return self._words[word]

    def evaluate(self, terms) -> ExactMatrix:
        """sum coeff * word over (coeff, word) terms in the letters L, F, R,
        K, k (K^-1), S (A*) and A (L + F + R), as a (d+1) x (d+1) matrix."""
        return ExactMatrix.combination(
            [(coeff, self.word(word)) for coeff, word in terms])


def ladder_action(ctx: TerwilligerContext, r: int, t: int,
                  d: int) -> LadderAction:
    """R v_j = v_(j+1), F v_j = a_j(W) v_j, L v_j = b_(j-1)(W) c_j(W) v_(j-1)
    with `module_intersection`'s closed forms (decompose certifies these
    three on every rung), and K, A* the scalars of subconstituent r + j on
    rung j.  A zero b_(j-1) c_j is refused: it proves no rung rank."""
    c, a, bb = ctx.form(module_intersection, r, t, d)
    lam = [bb[j] * c[j + 1] for j in range(d)]
    if 0 in lam:
        raise AssertionError(f"component {(r, t, d)} has b_(j-1) c_j = 0 "
                             "on its ladder, so L cannot certify its rank")
    zeros = [0] * d
    powers = [ctx.b ** (r + j) for j in range(d + 1)]
    return LadderAction(
        ExactMatrix.tridiagonal(zeros, [0] * (d + 1), lam),
        ExactMatrix.diag(a),
        ExactMatrix.tridiagonal([1] * d, [0] * (d + 1), zeros),
        ExactMatrix.diag([Fraction(1, p) for p in powers]),
        ExactMatrix.diag(powers),
        ExactMatrix.diag(ctx.bm.theta_star[r:r + d + 1]))


def _scalar_value(m: ExactMatrix) -> Fraction | None:
    """c with m = c I for a rational m, or None; O(size^2)."""
    diag = np.diagonal(m.n0)
    if (diag != diag[0]).any() or np.count_nonzero(m.n0) != \
            np.count_nonzero(diag):
        return None
    return Fraction(int(diag[0]), m.den)


def _split(m: ExactMatrix, values: dict, lead: ExactMatrix | None,
           chi: str, where: str):
    """The Lagrange split of the row space of `lead` (None: of I) by m over
    the pairwise distinct candidate eigenvalues `values`: yields (key, lead
    prod_(j != key) (m - values[j])) for each key whose piece is not zero,
    each piece formed only when the one before it has been taken, so that
    a consumer that drops each piece holds one at a time.  A lone
    candidate, whose product is empty, and m = c I for a candidate c give
    one piece, `lead`.  Nothing is checked but that the candidates differ:
    if m has an eigenvalue outside them, or does not commute with `lead`,
    the pieces are wrong, and `decompose`'s certificate refuses the
    components raised from them."""
    if len(set(values.values())) != len(values):
        raise AssertionError(f"{where}: two {chi} candidates coincide")
    c = _scalar_value(m)
    hit = list(values) if len(values) == 1 else [
        k for k, v in values.items() if v == c]
    if hit:
        yield hit[0], lead
        return
    head = [] if lead is None else [lead]
    ident = ExactMatrix.identity(m.shape[0])
    shift = {k: ExactMatrix.combination(((1, m), (-v, ident)))
             for k, v in values.items()}
    for k in values:
        piece = reduce(matmul, [*head, *(s for j, s in shift.items()
                                         if j != k)])
        if not piece.is_zero():
            yield k, piece
        del piece


def _nu(ctx: TerwilligerContext, r: int, t: int, d: int) -> Fraction:
    """The eigenvalue of F on the lowest rung of W(r, t, d): C0 acts there
    as chi0, and C0 = K F + (b^e - 1)/(b - 1) K with K = b^-r on block r."""
    b = ctx.b
    return b ** r * chi0(ctx, r, t, d).as_fraction() \
        - (b_pow(b, ctx.g.spec.e) - 1) / (b - 1)


def _mu(ctx: TerwilligerContext, r: int, d: int) -> Fraction:
    """The eigenvalue of LR on the lowest rungs of W(r, t, d): C2 = K^2 (RL -
    b^-1 LR)/(b + 1) + chi2(0, 0, 0) K^2 acts there as chi2, with L = 0."""
    b = ctx.b
    return b * (b + 1) * (chi2(ctx, 0, 0, 0).as_fraction()
                          - chi2(ctx, r, 0, d).as_fraction() * b ** (2 * r))


def decompose(ctx: TerwilligerContext) -> list[HomogeneousComponent]:
    """Homogeneous components of the standard module, certified.

    On each subconstituent r < D the lowest rungs ker L ^ E*_r V are split
    by Lagrange projectors in the coordinates of their RREF basis: C2 acts
    there through LR as a scalar that separates the diameters d, and C0
    through F as one that separates the dual endpoints t (`_nu`).  M_LR
    and M_F, the matrices of LR and F in those coordinates, are the pivot
    entries of the images of the basis rows.  `_split` splits M_LR by the
    chi2 candidates mu_d and then, for each d, M_F by the chi0 candidates
    nu_t on the row space of the diameter piece P_d = prod_(d' != d)
    (M_LR - mu_d'); the lowest rung of W(r, t, d) is the row space of P_d
    P_t: one RREF.  Where M_LR = mu_d I (read off the entries in
    O(size^2)), P_d is I.  If then also M_F = nu_t I, the block holds one
    component, (r, t, d), whose lowest rung is the kernel basis itself: no
    product and no RREF.  Rung j of a component, the lowest rung raised j
    times, is a mult x |B_(r+j)| integer array: the rows of the integer
    kernel basis, and their products, span the rung, and a rung matters
    only up to its row space.  So rung 0 is the integer RREF of P_d P_t
    times the integer kernel basis, rows in echelon form, and no rung, rung
    image or rung product carries a denominator.

    The top block B_D, the widest, is not constructed: no kernel, split or
    RREF runs there.  Its components W(D, t, 0), on which L and R vanish,
    are what the components below leave of V; `_certify_decomposition`
    finds them, with their multiplicities, from counts and the power
    traces of F on B_D, and they hold no rungs.

    None of the construction is checked.  The proof that V is the direct
    sum of the components is `_certify_decomposition`, which holds for any
    components, however they were built; a wrong split raises components
    that it refuses.
    """
    D = ctx.D
    comps: list[HomogeneousComponent] = []
    for r in range(D):
        if r == 0:  # the base vertex
            low, pivots, den = np.ones((1, 1), dtype=np.int64), [0], 1
        else:
            basis, pivots = kernel(ExactMatrix.from_int(ctx.adj(r - 1, r)))
            low, den = basis.n0, basis.den  # den times the RREF basis
        size = low.shape[0]
        if size == 0:
            continue
        # On ker L the element C2 acts through LR alone, which restricts to
        # the two-step product A[B_r, B_(r+1)] A[B_(r+1), B_r] on the block;
        # its eigenvalue separates the module diameter d.  C0 acts through
        # F, whose eigenvalue nu_t separates the dual endpoint t.  Both are
        # symmetric, so row y of low @ M is the image of row y.  A row of
        # the row space of the RREF basis low / den is its pivot entries
        # times that basis, so the pivot columns of low @ M, over den, are M
        # in its coordinates.
        m_lr, m_f = (ExactMatrix(int_matmul(low, op)[:, pivots], None, den)
                     for op in (ctx.two_step(r, r + 1), ctx.adj(r, r)))
        mu = {d: ctx.form(_mu, r, d) for d in range(D - r + 1)}
        for d, p_d in _split(m_lr, mu, None, "chi2",
                             f"LR on the lowest rungs of block {r}"):
            nu = {t: ctx.form(_nu, r, t, d)
                  for t in range(max(0, D - r - d), D - d + 1)}
            for t, piece in _split(m_f, nu, p_d, "chi0", f"F on the diameter-"
                                   f"{d} lowest rungs of block {r}"):
                # None: the lowest rungs are the component's.  Rows in
                # echelon form in the coordinates keep low's echelon form.
                rung0 = low if piece is None \
                    else int_matmul(rref(piece)[0].n0, low)
                comps.append(_build_component(ctx, r, t, d, rung0))
                del piece  # one Lagrange piece alive at a time
            del p_d
    return comps + _certify_decomposition(ctx, comps)


def _build_component(ctx: TerwilligerContext, r: int, t: int, d: int,
                     low_rows: np.ndarray) -> HomogeneousComponent:
    """The component raised from the lowest-rung rows `low_rows`, integer
    rows in echelon form (the integer RREF coordinates times the integer
    kernel basis), so rung 0 has rank mult, its row count.  Rung j, on
    block r + j, is rung j - 1 @ A[B_(r+j-1), B_(r+j)]: row y is R of row y
    of rung j - 1 (A is symmetric), so R v_j = v_(j+1) by construction.  No
    rank is computed: `_certify_ladder` proves that every rung keeps rank
    mult, so the dimension is mult * (d + 1), and fails on a rung that
    drops it."""
    rungs = [low_rows]
    for s in range(r, r + d):
        rungs.append(int_matmul(rungs[-1], ctx.adj(s, s + 1)))
    return HomogeneousComponent(r, t, d, low_rows.shape[0], rungs)


def _certify_ladder(ctx: TerwilligerContext,
                    comp: HomogeneousComponent) -> LadderAction:
    """L, F, R act on the rungs of comp as `ladder_action`, read once per
    graph, says; returns that action.

    R maps rung j to rung j + 1 by construction (`_build_component`).  The
    rest is checked part by part, with one block-local adjacency product
    each: L maps rung j to b_(j-1) c_j times rung j - 1 and rung 0 to 0, F
    maps rung j to a_j times itself, and R maps the top rung to 0.  A is
    symmetric, so row y of `rung @ A[B_s, B_i]` is the image of rung row y
    on block i.  The rungs are integer arrays, and an expected image c want
    with c = p / q in lowest terms holds when q image - p want is zero: one
    exact integer combination, with no denominator.

    This proves the rung ranks too.  Rung 0 is mult nonzero integer rows in
    echelon form (`_certify_decomposition` checks it), so of rank mult.  If
    rung j - 1 has rank mult and b_(j-1) c_j != 0, then L rung_j =
    b_(j-1) c_j rung_(j-1) has rank mult, and so has rung j, of mult rows.
    So a zero b_(j-1) c_j is refused first.
    """
    r, t, d = comp.triple
    act = ctx.form(ladder_action, r, t, d)
    for j, rung in enumerate(comp.rungs):
        s = r + j
        # (block, c, want): the image of the rung there must be c want;
        # want None: the image is 0
        parts = [(s, act.F.entry(j, j).as_fraction(), rung)]
        if j:
            parts.append((s - 1, act.L.entry(j - 1, j).as_fraction(),
                          comp.rungs[j - 1]))
        elif s > 0:
            parts.append((s - 1, Fraction(0), None))
        if j == d and s < ctx.D:
            parts.append((s + 1, Fraction(0), None))
        for i, c, want in parts:
            if int_lin((c.denominator, int_matmul(rung, ctx.adj(s, i))),
                       (-c.numerator, want)).any():
                raise AssertionError(
                    f"L, F, R do not act on the raising ladder of component "
                    f"{comp.triple} by its intersection numbers")
    return act


def _poly(roots) -> list[Fraction]:
    """The coefficients of prod (x - root) over `roots`, from x^0 up."""
    coeffs = [Fraction(1)]
    for root in roots:
        coeffs = [(coeffs[j - 1] if j else 0)
                  - root * (coeffs[j] if j < len(coeffs) else 0)
                  for j in range(len(coeffs) + 1)]
    return coeffs


def _echelon(m, rows: int, cols: int) -> bool:
    """m is a rows x cols integer array of nonzero rows in echelon form: the
    first nonzero columns of its rows strictly increase, so the submatrix
    at them is triangular with a nonzero diagonal, a minor that proves rank
    rows."""
    if not isinstance(m, np.ndarray) or m.shape != (rows, cols) \
            or m.dtype not in (np.int64, object):
        return False
    nonzero = m != 0
    lead = nonzero.argmax(axis=1)
    return bool(nonzero[np.arange(rows), lead].all()
                and (np.diff(lead) > 0).all())


def _certify_decomposition(ctx: TerwilligerContext,
                           comps: list[HomogeneousComponent]
                           ) -> list[HomogeneousComponent]:
    """The one proof of `decompose`, for any components, however built.
    Returns the components W(D, t, 0) that fill the rest of V, with no
    rungs.  Checked:
    - each triple is feasible, and the component is given as d + 1 rungs
      whose rung 0 is mult nonzero integer rows on B_r in echelon form
      (`_echelon`), so of rank mult,
    - counts: for each i < D, the mults of the components with a rung on
      B_i sum to |B_i|,
    - the triples have pairwise distinct (chi0, chi1, chi2),
    - L, F, R act on the raising ladder of each component as
      `ladder_action` says (`_certify_ladder`, so each component is A- and
      A*-invariant, and rung j, on block r + j, has rank mult); the
      component keeps that action,
    - each component lies in the joint kernel of (C_k - chi_k I): C_k is a
      word in K, L, F, R, so it acts on every copy of the component as its
      `central_terms` evaluated on the ladder matrices, which must be
      chi_k I,
    - the top block, by traces (below).

    x enters neither chi_k nor the ladder matrices nor the words of C_k:
    b_(j-1) c_j != 0 and C_k = chi_k I on them hold at every vertex or at
    none, so they are checked once per triple for all contexts sharing the
    closed forms.  All else runs at every vertex, so the proof holds at each.

    Joint eigenvectors for distinct eigenvalue triples are independent, so
    the sum U of the components is direct, and E*_i U is the direct sum of
    their rungs on B_i.  By the counts, E*_i U = E*_i V for i < D.  U is
    A- and A*-invariant, and A, A* are symmetric, so its orthogonal
    complement W' is too (Terwilliger, The subconstituent algebra of an
    association scheme I, 1992); the E*_i are polynomials in A*, so W' is
    the sum of its E*_i W', each orthogonal to E*_i U = E*_i V for i < D.
    So W' lies in E*_D V, where R = 0.  For w in W', A w = L w + F w lies
    in W' and L w in E*_(D-1) V, so L w = 0: L and R vanish on W', and F
    maps it to itself.

    E*_D V is the orthogonal sum of W' and E*_D U, the top rungs (r + d =
    D), where F acts on each copy as a_d(W).  So tau_j = tr F^j over W' is
    tr F_D^j - sum mult a_d(W)^j over the top rungs, F_D = A[B_D, B_D],
    with tr F_D^(a+b) = <F_D^a, F_D^b> as F_D is symmetric; tau_0 = dim W'.
    F is symmetric on W', so diagonalizable there with real eigenvalues.
    For any set S of dual endpoints, p(x) = prod_(t in S) (x - nu_t)^2 is
    not negative on the reals, so tr p(F) = 0 over W' puts every
    eigenvalue of F there among the nu_t, t in S (`_nu`).  The
    multiplicity of nu_t is then tr l_t(F) = sum_j [x^j] l_t tau_j, with
    l_t the Lagrange polynomial of S at nu_t: the Vandermonde solve on
    tau_0, ..., tau_(|S|-1).  It needs no check: l_t(F) is the projector
    onto the nu_t-eigenspace of F on W', so its trace m_t is the dimension
    of that eigenspace, a non-negative integer.  That holds as the tau_j
    are the traces over W': the rungs of the components are independent
    and of rank mult each, by the checks above.  L and R kill the
    nu_t-eigenspace, and K, A* are scalars on E*_D V, so it is m_t copies
    of a module of type (D, t, 0).  Its 1 x 1 ladder action has F =
    a_0(W); the joint-kernel check of C0 = K F + (q^2e - 1)/(q^2 - 1) K on
    it holds exactly when a_0(W) = nu_t, so F acts as the action says, and
    it is checked with the others for distinct (chi0, chi1, chi2).  So V
    = U + W' is the direct sum of all the components, whose dimensions
    sum to |X|.

    S only chooses p, so how it is chosen is not part of the proof: none
    when W' = 0; {t} when the mean tau_1 / tau_0 is nu_t, which needs no
    product (tau_2 counts the ones of F_D); else t = 1, ..., D, with |S| - 1
    products F_D^m (t = 0 only for the trivial module: E_0 V holds only
    the constant vectors)."""
    D = ctx.D
    for c in comps:
        r, t, d = c.triple
        if not (0 <= r and 0 <= t and 0 <= d and r + d <= D
                and t + d <= D and r + t + d >= D):
            raise AssertionError(
                f"triple {c.triple} violates feasibility bounds")
        width = len(ctx.blocks[r])
        if len(c.rungs) != c.d + 1 or not _echelon(c.rungs[0], c.mult,
                                                   width):
            shape = c.rungs[0].shape if c.rungs else None
            raise AssertionError(
                f"component {c.triple} x {c.mult} is given as "
                f"{len(c.rungs)} rungs with rung 0 of shape {shape}, not "
                f"{c.d + 1} with rung 0 integer rows in echelon form of "
                f"shape ({c.mult}, {width})")
    for i in range(D):
        on = sorted((c for c in comps if c.r <= i <= c.r + c.d),
                    key=lambda c: c.triple)
        total, size = sum(c.mult for c in on), len(ctx.blocks[i])
        if total != size:
            counted = ", ".join(f"{c.triple} x {c.mult}" for c in on)
            raise AssertionError(
                f"the components with a rung on block {i} have "
                f"multiplicities summing to {total}, not |B_{i}| = {size}: "
                f"{counted}")
    by_chi: dict = {}
    _certify_components(ctx, comps, by_chi)
    top = _top_components(ctx, comps)
    _certify_components(ctx, top, by_chi)
    return top


def _top_components(ctx: TerwilligerContext,
                    comps: list[HomogeneousComponent]
                    ) -> list[HomogeneousComponent]:
    """The components W(D, t, 0), with no rungs, that F on B_D leaves
    beyond the certified components `comps`, by the trace certificate of
    `_certify_decomposition`: tr p(F) over W' must be 0, and then each
    m_t is the dimension of an eigenspace."""
    D = ctx.D
    top = [(c.mult, c.action.F.entry(c.d, c.d).as_fraction())
           for c in comps if c.r + c.d == D]
    f = ctx.adj(D, D)
    powers = [None, f]  # F_D^m at index m

    def tau(j: int) -> Fraction:
        """tr F^j over W'."""
        s = len(powers) - 1
        if j == 0:
            whole = len(f)
        elif j == 2:  # F_D is 0/1 and symmetric: tr F_D^2 counts its ones
            whole = int(np.count_nonzero(f))
        elif j <= s:
            whole = int(np.diagonal(powers[j]).astype(object).sum())
        else:
            # <F^s, F^(j-s)>: the 1 x 1 product of the one flattened to a
            # row and the other to a column
            whole = int(int_matmul(powers[s].reshape(1, -1),
                                   powers[j - s].reshape(-1, 1))[0, 0])
        return whole - sum(m * a ** j for m, a in top)

    dim, tr1 = tau(0), tau(1)
    nu = {t: ctx.form(_nu, D, t, 0) for t in range(1, D + 1)}
    S = [] if dim == 0 else [t for t in nu if nu[t] * dim == tr1][:1] \
        or list(nu)
    if len({nu[t] for t in S}) != len(S):
        raise AssertionError(f"F on the top block {D}: two chi0 candidates "
                             "coincide")
    while len(powers) <= len(S):
        powers.append(int_matmul(powers[-1], f))
    taus = [tau(j) for j in range(2 * len(S) + 1)]
    p = _poly([nu[t] for t in S for _ in (0, 1)])
    residue = sum(c * v for c, v in zip(p, taus))
    if residue:
        raise AssertionError(
            f"F on the top block {D} beyond the components below has tr "
            f"p(F) = {residue}, not 0, for p with the double roots nu_t, "
            f"t in {S}")
    found = []
    for t in S:
        ell = _poly([nu[u] for u in S if u != t])
        scale = math.prod(nu[t] - nu[u] for u in S if u != t)
        mult = sum(c * v for c, v in zip(ell, taus)) / scale
        if mult:
            found.append(HomogeneousComponent(D, t, 0, int(mult), []))
    return found


def _joint_kernel(ctx: TerwilligerContext, r: int, t: int, d: int) -> None:
    """C0, C1, C2, words in K, L, F, R (`central_terms`), evaluated on the
    ladder matrices of W(r, t, d) are chi_k I."""
    act, ident = ctx.form(ladder_action, r, t, d), ExactMatrix.identity(d + 1)
    for ck, chif in zip(ctx.form(central_terms), (chi0, chi1, chi2)):
        if act.evaluate(ck) != ident.scale(ctx.form(chif, r, t, d)):
            raise AssertionError(
                f"component {(r, t, d)} is not in the joint kernel")


def _certify_components(ctx: TerwilligerContext,
                        comps: list[HomogeneousComponent], by_chi: dict):
    """The (chi0, chi1, chi2) of each triple is not yet in `by_chi` (then
    it is entered), and the component lies in the joint kernel of (C_k -
    chi_k I) on its action, the one `_certify_ladder` proves on its rungs:
    for a rung-less W(D, t, 0), whose action the trace certificate
    proves, that is its `ladder_action`.  The chi_k and the joint kernel
    are read once per call, the rest is checked at every vertex."""
    for c in comps:
        chi = tuple(ctx.form(chif, *c.triple) for chif in (chi0, chi1, chi2))
        if chi in by_chi:
            raise AssertionError(f"components {by_chi[chi].triple} and "
                                 f"{c.triple} share chi0, chi1, chi2")
        by_chi[chi] = c
    for c in comps:
        c.action = _certify_ladder(ctx, c)
        ctx.form(_joint_kernel, *c.triple)


# ---------------------------------------------------------------------------
# The displacement and diameter central elements


@dataclass
class CenterData:
    """The displacement weights Upsilon, Psi and the diameter weight Lambda,
    by the scalar each acts as on the homogeneous component (r, t, d), and
    the certified ladder action of each component."""

    Upsilon: dict[tuple[int, int, int], ExactScalar]  # q^(r+t+d-D)
    Psi: dict[tuple[int, int, int], ExactScalar]      # q^(r-t)
    Lam: dict[tuple[int, int, int], ExactScalar]      # Casimir on L(d, 1)
    ladders: dict[tuple[int, int, int], LadderAction]


def upsilon_psi_lambda(ctx: TerwilligerContext,
                       comps: list[HomogeneousComponent]) -> CenterData:
    """Upsilon, Psi and Lambda on the components of the decomposition,
    which certifies V as their direct sum."""
    return CenterData(
        {c.triple: ctx.q ** (c.r + c.t + c.d - ctx.D) for c in comps},
        {c.triple: ctx.q ** (c.r - c.t) for c in comps},
        {c.triple: casimir_scalar(ctx.q, c.d, 1) for c in comps},
        {c.triple: c.action for c in comps})


def verify_center_identities(ctx: TerwilligerContext,
                             center: CenterData) -> None:
    """The expressions of C0, C1, C2 through the displacement elements, and
    of Omega, G, G* through either family, as one scalar identity per
    component: C_i acts on W(r, t, d) as chi_i (`decompose` reads this off
    the certified ladder matrices), and Omega, G, G* as their C0, C1
    expressions (`verify_central_construction`)."""
    q2 = ExactScalar(ctx.b)
    q4 = q2 * q2
    q2e = ctx.q ** ctx.two_e()
    one = ExactScalar(1)
    zeta, xi = ctx.bm.zeta, ctx.bm.xi
    _, gamma, _, rho_s, _ = td_scalars(ctx.g.spec)
    by_c0_c1 = _central_by_c0_c1(ctx)
    for triple in sorted(center.Upsilon):
        ups, psi = center.Upsilon[triple], center.Psi[triple]
        c0, c1, c2 = (ctx.form(chif, *triple) for chif in (chi0, chi1, chi2))
        core = q2e / (ups * ups) - one / (psi * psi)
        if c0 != core / (q2 - 1):
            raise AssertionError("C0 displacement expression fails")
        ups_psi_lam = center.Lam[triple] / (ups * psi)
        pref = ctx.q ** (ctx.two_e() + ctx.D - 3) * (q2 - 1) / (q2 + 1)
        if c1 != pref * ups_psi_lam:
            raise AssertionError("C1 displacement expression fails")
        if c2 != ctx.q ** (ctx.two_e() - 2) / (q4 - 1) \
                / (ups * ups * psi * psi):
            raise AssertionError("C2 displacement expression fails")
        om, eta, eta_star = (a0 * c0 + a1 * c1 + a2
                             for a0, a1, a2 in by_c0_c1)
        # Omega, G, G* through the displacement elements
        if om != core * ExactScalar(xi) * (q2.inverse() - 1) - 2 * gamma * zeta:
            raise AssertionError("Omega displacement expression fails")
        if eta != core * ExactScalar(xi) * q2.inverse() * (one - q2e) \
                - ups_psi_lam * ExactScalar(xi) \
                * ctx.q ** (ctx.D + ctx.two_e() - 5) \
                * (q2 - 1) * (q2 - 1) * (q2 + 1) - rho_s * zeta:
            raise AssertionError("G displacement expression fails")
        if eta_star != core * ExactScalar(zeta * xi) * (1 - q2.inverse()) \
                + gamma * zeta ** 2:
            raise AssertionError("G* displacement expression fails")
        # the action of Omega, G, G* equals the closed module scalars
        if (om, eta, eta_star) != ctx.form(aw_module_scalars, *triple):
            raise AssertionError(
                f"central action on {triple} disagrees with the closed "
                "module scalar")


def verify_center_commutation(ctx: TerwilligerContext,
                              center: CenterData) -> bool:
    """Upsilon, Psi and Lambda commute with A and A*.

    Each weight is sum_W w(W) E_W, with E_W the projection onto the
    component W along the others.  Every W is T-invariant and V is their
    direct sum (`decompose`), so every E_W, and every combination of them,
    commutes with T.  What can fail is the data: each weight must hold one
    scalar for every certified component, and for no other triple."""
    return all(set(weight) == set(center.ladders)
               for weight in (center.Upsilon, center.Psi, center.Lam))


# ---------------------------------------------------------------------------
# Irreducible module extraction


def module_intersection(ctx: TerwilligerContext, r: int, t: int, d: int):
    """Closed forms for c_i(W), a_i(W), b_i(W)."""
    spec = ctx.g.spec
    b, D, e = spec.b, spec.D, spec.e
    c = [Fraction(b ** t) * (b ** i - 1) / (b - 1) for i in range(d + 1)]
    bb = [b_pow(b, D + e - d - t + i) * (b ** (d - i) - 1) / (b - 1)
          for i in range(d + 1)]
    a = [(b_pow(b, D + e - d - t + i) - b_pow(b, e) - b ** (t + i) + 1) / (b - 1)
         for i in range(d + 1)]
    return c, a, bb


def module_dual_intersection(ctx: TerwilligerContext, r: int, t: int, d: int):
    """Closed forms for c*_i(W), a*_i(W), b*_i(W)."""
    spec = ctx.g.spec
    b, D, e = spec.b, spec.D, spec.e
    xi = ctx.bm.xi
    theta_star_r = ctx.bm.theta_star[r]
    cs, bs, as_ = [], [], []
    for i in range(d + 1):
        ci = (
            xi * b_pow(b, -r - i) * (b ** i - 1) * (b_pow(b, D + e - 2 * t - d - i) + 1)
            / ((b_pow(b, D + e - 2 * t - 2 * i) + 1)
               * (b_pow(b, D + e - 2 * t - 2 * i + 1) + 1))
        )
        bi = (
            xi * b_pow(b, -r) * (1 - b_pow(b, i - d)) * (b_pow(b, -D - e + 2 * t + i) + 1)
            / ((b_pow(b, -D - e + 2 * t + 2 * i) + 1)
               * (b_pow(b, -D - e + 2 * t + 2 * i + 1) + 1))
        )
        cs.append(ci)
        bs.append(bi)
        as_.append(theta_star_r - ci - bi)
    return cs, as_, bs


def extract_module(ctx: TerwilligerContext,
                   comp: HomogeneousComponent) -> ParameterArray:
    """The parameter array of the Leonard system on one copy of W(r, t, d),
    read off its raising ladder v_j = R^j v_0.

    `decompose` certifies that A acts on every copy as the ladder matrix of
    `ladder_action` and A* as diag theta*_(r+j), so in ladder coordinates
    the restrictions of A and A* to W are `comp.action`'s A and A*.
    `certify_leonard_system` proves that they form a Leonard system with the
    eigenvalue sequences theta_(t+i) and theta*_(r+i), and v_0 = e_0 is the
    theta*_r eigenvector of A*, from which `extract_parameter_array` reads
    its parameter array.  As the array of a Leonard system it satisfies the
    five conditions (Terwilliger, LAA 330, 2001), so its verdict is not
    computed.  The intersection numbers of W (A on the standard basis
    E*_(r+i) E_t v_0, A* on the dual standard basis E_(t+i) v_0) are
    functions of that array (`intersection_data`), and each is compared with
    the paper's closed form."""
    r, t, d = comp.triple
    act = comp.action
    theta = [ExactScalar(ctx.bm.theta[t + i]) for i in range(d + 1)]
    theta_star = [ExactScalar(ctx.bm.theta_star[r + i]) for i in range(d + 1)]
    certify_leonard_system(act.A, act.Astar, theta, theta_star)
    pa = extract_parameter_array(act.A, act.Astar,
                                 ExactMatrix.column([1] + [0] * d), theta,
                                 theta_star)
    forms = (*ctx.form(module_intersection, r, t, d),
             *ctx.form(module_dual_intersection, r, t, d))
    for name, got, want in zip(("c", "a", "b", "c*", "a*", "b*"),
                               intersection_data(pa), forms):
        for i, (x, y) in enumerate(zip(got, want)):
            if x != y:
                raise AssertionError(f"{name}_{i}(W) of {comp.triple} "
                                     "disagrees with the closed form")
    return pa
