"""Command-line front end.

    dualpolar build   --family C --D 3 --b 2 --out graph.json
    dualpolar verify  --graph graph.json --suite all [--base-vertex N]
                      [--variant 1|2] [--all-vertices-sample N]
    dualpolar leonard --params array.json --actions validate,realize,d4,scalars,uq

Reports are JSON on stdout: {"version", "input", "checks": [...],
"summary": {...}}.  Each check carries a self-contained statement of the
identity tested.  Exit codes: 0 all pass, 1 a check failed, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .polar import (
    BudgetExceededError,
    FormSpec,
    build_polar_graph,
    load_graph,
    save_graph,
)


class InputError(Exception):
    pass


class Report:
    def __init__(self, kind: str, meta: dict):
        self.kind = kind
        self.meta = meta
        self.checks: list[dict] = []
        self.t0 = time.time()

    def add(self, check_id: str, statement: str, ok, witness=None,
            skipped: bool = False):
        item = {
            "id": check_id,
            "statement": statement,
            "status": "skipped" if skipped else ("pass" if ok else "fail"),
        }
        if witness is not None:
            item["witness"] = witness
        self.checks.append(item)

    def run(self, check_id: str, statement: str, fn):
        """Run fn; exceptions become failures with the message as witness."""
        try:
            ok = fn()
            self.add(check_id, statement, bool(ok) if ok is not None else True)
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            self.add(check_id, statement, False, witness=str(exc))

    def finish(self) -> dict:
        summary = {
            "pass": sum(1 for c in self.checks if c["status"] == "pass"),
            "fail": sum(1 for c in self.checks if c["status"] == "fail"),
            "skipped": sum(1 for c in self.checks if c["status"] == "skipped"),
        }
        return {
            "version": __version__,
            "input": self.meta,
            "checks": self.checks,
            "summary": summary,
            "timing": {"seconds": round(time.time() - self.t0, 3)},
        }


def _emit(report: Report) -> int:
    data = report.finish()
    json.dump(data, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 1 if data["summary"]["fail"] else 0


# ---------------------------------------------------------------------------
# build


def cmd_build(args) -> int:
    try:
        spec = FormSpec(args.family, args.D, args.b)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    try:
        g = build_polar_graph(spec, budget=args.budget)
    except BudgetExceededError as exc:
        raise InputError(str(exc)) from exc
    save_graph(g, args.out)
    print(f"wrote {args.out}: {g.n_vertices} vertices, "
          f"valency {g.degree(0)}, diameter {g.diameter}")
    return 0


# ---------------------------------------------------------------------------
# verify


def _suite_drg(report, g, bm, data):
    from . import drg

    spec = g.spec
    report.run("drg:counts", "neighbor counts are independent of the vertex "
               "pair at each distance", lambda: data is not None)
    c, a, b = drg.closed_form_intersection(spec)
    report.add("drg:intersection",
               "c_i = (b^i-1)/(b-1), b_i = b^(i+e)(b^(D-i)-1)/(b-1)",
               tuple(c) == data.c and tuple(b) == data.b and tuple(a) == data.a)
    report.add("drg:multiplicities", "rank E_i = m_i and sum m_i = |X|",
               sum(bm.m) == g.n_vertices)
    report.add("drg:dual-eigenvalues", "theta*_i = zeta + xi b^-i with "
               "theta*_0 = m_1", bm.theta_star[0] == bm.m[1])
    try:
        drg.check_q_polynomial_pattern(bm.krein)
        report.add("drg:krein", "Krein parameters vanish per the "
                   "Q-polynomial pattern", True)
    except AssertionError as exc:
        report.add("drg:krein", "Krein parameters vanish per the "
                   "Q-polynomial pattern", False, witness=str(exc))
    report.run("drg:td-scalars", "beta = b + 1/b and the four companion "
               "scalars satisfy their recurrences",
               lambda: drg.td_scalars(spec) is not None)


def _suite_lfrk(report, ctx):
    from .terwilliger import (
        verify_lfrk,
        verify_lfrk_recovery,
        verify_lrf_commutations,
        verify_tridiagonal_relations,
    )

    for item in verify_lfrk(ctx):
        report.add(item["id"], item["statement"], item["status"] == "pass",
                   witness=item.get("witness"))
    report.add("lfrk:recovery", "L, F, R are recovered from K A K^-1 "
               "conjugations", verify_lfrk_recovery(ctx))
    report.add("lfrk:commuting", "LR, RL, F, K mutually commute",
               verify_lrf_commutations(ctx))
    report.add("lfrk:tridiagonal", "both tridiagonal bracket relations hold",
               verify_tridiagonal_relations(ctx))


def _suite_central(report, ctx, cents):
    from .terwilliger import (
        central_characterization_matrix,
        commutes,
        verify_g_entry_table,
        verify_omega_entry_table,
    )

    report.add("central:construction", "C0, C1, C2, Omega, G, G* are "
               "symmetric and commute with A and A*", True)
    report.add("central:omega-entries", "Omega matches its same-distance "
               "entry table", verify_omega_entry_table(ctx, cents.Omega))
    report.add("central:g-entries", "G matches its two-distance entry table",
               verify_g_entry_table(ctx, cents.G))
    m1 = central_characterization_matrix(ctx, 1, 0)
    m2 = central_characterization_matrix(ctx, 3, 2)
    mp = central_characterization_matrix(ctx, 1, 0, perturb=True)
    ok = commutes(m1, ctx.A) and commutes(m2, ctx.A)
    if ctx.F.is_zero():
        # with no same-distance edges the alpha part is annihilated, so a
        # perturbed alpha cannot break commutation
        ok = ok and commutes(mp, ctx.A)
    else:
        ok = ok and not commutes(mp, ctx.A)
    report.add("central:characterization",
               "alpha_i = b^(1-i) alpha_1 with matching beta_i commutes "
               "with A; a perturbed alpha does not (unless the flattening "
               "part vanishes)", ok)


def _suite_modules(report, ctx, cents, comps, center, g, sample_vertices):
    from .leonard import leonard_from_tmodule
    from .terwilliger import (
        build_context,
        decompose,
        extract_module,
        verify_center_commutation,
        verify_center_identities,
    )

    report.add("modules:dimension", "homogeneous component dimensions sum "
               "to |X| with integer multiplicities", True,
               witness={"triples": sorted(
                   [list(c.triple) + [c.mult] for c in comps])})
    if center is not None:
        report.add("modules:center-commute", "the displacement and diameter "
                   "weights commute with A and A*",
                   verify_center_commutation(ctx, center))
        report.run("modules:center-identities", "C0, C1, C2, Omega, G, G* "
                   "against the displacement weights, exactly",
                   lambda: verify_center_identities(ctx, cents, center, comps)
                   is None)
        for c in sorted(comps, key=lambda c: c.triple):
            def one(c=c):
                rec = extract_module(ctx, c)
                leonard_from_tmodule(ctx, rec)
                return True
            report.run(f"modules:leonard:{c.triple}",
                       f"module {c.triple} carries a dual q-Krawtchouk "
                       "Leonard system with the closed-form parameters", one)
    else:
        report.add("modules:center-identities", "central identities "
                   "(projector construction is restricted to smaller "
                   "graphs)", True, skipped=True)
    if sample_vertices:
        base = sorted((c.triple, c.mult) for c in comps)
        for x in sample_vertices:
            ctx2 = build_context(g, ctx.bm, x)
            li = decompose(ctx2, full=False)
            same = sorted((c.triple, c.mult) for c in li) == base
            report.add(f"modules:base-vertex:{x}",
                       "feasible triple multiset agrees with the base run",
                       same)


def _suite_uq(report, ctx, center, variant):
    from .uqsl2 import uq_on_standard_module, verify_cross_variant_standard

    sm = uq_on_standard_module(ctx, center, variant)
    report.add(f"uq:variant{variant}", "equitable relations, A and A* "
               "recoveries, Chevalley images, and Casimir = diameter weight "
               "all hold exactly", True)
    other = uq_on_standard_module(ctx, center, 3 - variant)
    report.add("uq:cross-variant", "k_2 = k_1, e_2 = -q^-2e U^2 P^-2 e_1, "
               "f_2 = -q^2e U^-2 P^2 f_1",
               verify_cross_variant_standard(ctx, center,
                                             sm if variant == 1 else other,
                                             other if variant == 1 else sm))


def cmd_verify(args) -> int:
    from .drg import spectral_data, verify_distance_regular
    from .terwilliger import (
        build_context,
        central_elements,
        decompose,
        upsilon_psi_lambda,
    )

    try:
        g = load_graph(args.graph)
    except (OSError, ValueError, KeyError) as exc:
        raise InputError(f"cannot load graph: {exc}") from exc
    if not 0 <= args.base_vertex < g.n_vertices:
        raise InputError(f"--base-vertex {args.base_vertex} is not a vertex; "
                         f"the graph has vertices 0..{g.n_vertices - 1}")
    meta = {"graph": args.graph, "family": g.spec.family, "D": g.spec.D,
            "b": g.spec.b, "suite": args.suite,
            "base_vertex": args.base_vertex}
    report = Report("verify", meta)
    suites = ("drg", "lfrk", "central", "modules", "uq") \
        if args.suite == "all" else (args.suite,)
    data = verify_distance_regular(g)
    bm = spectral_data(g)
    ctx = build_context(g, bm, args.base_vertex)
    cents = comps = center = None
    # the module and U_q(sl2) suites share one decomposition and, on graphs
    # of at most 300 vertices, one set of displacement and diameter weights
    small = g.n_vertices <= 300
    if {"central", "modules", "uq"} & set(suites):
        cents = central_elements(ctx)
    if "modules" in suites or ("uq" in suites and small):
        comps = decompose(ctx, cents)
        if small:
            center = upsilon_psi_lambda(ctx, comps)
    if "drg" in suites:
        _suite_drg(report, g, bm, data)
    if "lfrk" in suites:
        _suite_lfrk(report, ctx)
    if "central" in suites:
        _suite_central(report, ctx, cents)
    if "modules" in suites:
        sample = []
        if args.all_vertices_sample:
            step = max(1, g.n_vertices // args.all_vertices_sample)
            sample = [i for i in range(0, g.n_vertices, step)
                      if i != args.base_vertex][:args.all_vertices_sample]
        _suite_modules(report, ctx, cents, comps, center, g, sample)
    if "uq" in suites:
        if small:
            _suite_uq(report, ctx, center, args.variant)
        else:
            report.add("uq", "standard-module structures (restricted to "
                       "smaller graphs)", True, skipped=True)
    return _emit(report)


# ---------------------------------------------------------------------------
# leonard


def cmd_leonard(args) -> int:
    from . import leonard as ln

    try:
        with open(args.params) as fh:
            data = json.load(fh)
        pa = ln.pa_from_json(data)
    except (OSError, ValueError, KeyError) as exc:
        raise InputError(f"cannot load parameter array: {exc}") from exc
    actions = args.actions.split(",")
    meta = {"params": args.params, "d": pa.d, "actions": actions}
    report = Report("leonard", meta)
    verdict = ln.validate(pa)
    if "validate" in actions:
        witness = None
        if verdict.valid and verdict.beta_plus_one is not None:
            witness = {"beta": (verdict.beta_plus_one - 1).render()}
        elif not verdict.valid:
            witness = {"condition": verdict.failure[0],
                       "index": verdict.failure[1]}
        report.add("leonard:validate", "the five parameter-array conditions",
                   verdict.valid, witness=witness)
    if not verdict.valid:
        return _emit(report)
    if "realize" in actions:
        for basis in ("split", "normalized-split", "standard"):
            report.run(f"leonard:realize:{basis}",
                       f"{basis} realization satisfies the Leonard axioms "
                       "and extracts back to the same array",
                       lambda basis=basis: ln.extract_from_realization(
                           ln.realize(pa, basis)) == pa)
    if "d4" in actions:
        orbit = {}
        for g1 in ("*", "down", "ddown"):
            t = ln.d4_transform(pa, g1)
            orbit[g1] = ln.pa_to_json(t)
            report.add(f"leonard:d4:{g1}", "transform is an involution on "
                       "the array", ln.d4_transform(t, g1) == pa)
        report.add("leonard:d4:braid", "ddown after * equals * after down",
                   ln.d4_transform(ln.d4_transform(pa, "*"), "ddown")
                   == ln.d4_transform(ln.d4_transform(pa, "down"), "*"),
                   witness={"orbit": orbit})
    if "scalars" in actions:
        def scalars_check():
            s = ln.td_aw_scalars(pa) if pa.d >= 3 else None
            if s is None:
                return True
            real = ln.realize(pa, "split")
            return ln.verify_td_aw_matrix(real, s)
        report.run("leonard:scalars", "tridiagonal and Askey-Wilson "
                   "relations hold with the recurrence scalars",
                   scalars_check)
    if "uq" in actions:
        def uq_check():
            # the module structures need dual q-Krawtchouk parameters
            if not isinstance(data, dict) or "q" not in data:
                return None
            p = ln.dqk_params_from_json(data)
            from .uqsl2 import uq_on_leonard, verify_cross_variant_leonard

            real = ln.realize(pa, "normalized-split")
            a1 = uq_on_leonard(real, p, 1, 1)
            a2 = uq_on_leonard(real, p, 1, 2)
            return verify_cross_variant_leonard(a1, a2, p)
        try:
            got = uq_check()
            if got is None:
                report.add("leonard:uq", "module structures need dual "
                           "q-Krawtchouk parameters in the input", True,
                           skipped=True)
            else:
                report.add("leonard:uq", "both module structures exist and "
                           "are related by the variant translation", got)
        except Exception as exc:  # noqa: BLE001
            report.add("leonard:uq", "both module structures exist and are "
                       "related by the variant translation", False,
                       witness=str(exc))
    return _emit(report)


# ---------------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dualpolar")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a dual polar graph")
    b.add_argument("--family", required=True,
                   choices=["C", "B", "D", "2D", "2A_even", "2A_odd"])
    b.add_argument("--D", type=int, required=True)
    b.add_argument("--b", type=int, required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--budget", type=int, default=100_000)
    b.set_defaults(fn=cmd_build)

    v = sub.add_parser("verify", help="run verification suites on a graph")
    v.add_argument("--graph", required=True)
    v.add_argument("--suite", default="all",
                   choices=["drg", "lfrk", "central", "modules", "uq", "all"])
    v.add_argument("--base-vertex", type=int, default=0)
    v.add_argument("--variant", type=int, default=1, choices=[1, 2])
    v.add_argument("--all-vertices-sample", type=int, default=0)
    v.set_defaults(fn=cmd_verify)

    l = sub.add_parser("leonard", help="abstract Leonard-system checks")
    l.add_argument("--params", required=True)
    l.add_argument("--actions", default="validate,realize,d4,scalars,uq")
    l.set_defaults(fn=cmd_leonard)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
