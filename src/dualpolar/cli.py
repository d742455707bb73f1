"""Command-line front end.

    dualpolar build   --family C --D 3 --b 2 --out graph.json
    dualpolar verify  --graph graph.json --suite all [--base-vertex N]
                      [--all-vertices-sample N]
    dualpolar leonard --params array.json --actions validate,realize,d4,scalars,uq

`build` writes the graph file, whose fields are family, D, b and the vertex
list, and prints the vertex count, valency and diameter; it forms no n x n
array.  `verify` computes the adjacency from the vertices on load.
Reports are JSON on stdout: {"version", "input", "checks": [...],
"summary": {...}}.  Each check carries a self-contained statement of the
identity tested.  Exit codes: 0 all pass, 1 a check failed, 2 input error
or out of memory.
`--suite lfrk` and `--suite central` run `decompose`: their identities are
checked on the ladders of the homogeneous components it certifies.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__


class InputError(Exception):
    pass


class Report:
    def __init__(self, meta: dict):
        self.meta = meta
        self.checks: list[dict] = []
        self.t0 = time.perf_counter()

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
        """Run fn, which returns ok or (ok, witness); None counts as a pass.
        An exception is a failure with its message as witness; a
        MemoryError is raised on, to end the call (`main`)."""
        try:
            out = fn()
        except MemoryError:
            raise
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            self.add(check_id, statement, False,
                     witness=str(exc) or type(exc).__name__)
            return
        ok, witness = out if isinstance(out, tuple) else (out, None)
        self.add(check_id, statement, ok is None or bool(ok), witness)

    def finish(self) -> dict:
        summary = {s: sum(c["status"] == s for c in self.checks)
                   for s in ("pass", "fail", "skipped")}
        return {
            "version": __version__,
            "input": self.meta,
            "checks": self.checks,
            "summary": summary,
            "timing": {"seconds": round(time.perf_counter() - self.t0, 3)},
        }


def _emit(report: Report) -> int:
    data = report.finish()
    json.dump(data, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 1 if data["summary"]["fail"] else 0


# ---------------------------------------------------------------------------
# build


def cmd_build(args) -> int:
    from .polar import (BudgetExceededError, FormSpec,
                        enumerate_maximal_isotropic, first_codim_row,
                        save_graph)

    if args.budget < 1:
        raise InputError(f"--budget {args.budget} must be at least 1")
    try:
        spec = FormSpec(args.family, args.D, args.b)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    try:
        verts = enumerate_maximal_isotropic(spec, budget=args.budget)
    except BudgetExceededError as exc:
        raise InputError(str(exc)) from exc
    row = first_codim_row(spec, verts)
    try:
        save_graph(spec, verts, args.out)
    except OSError as exc:
        raise InputError(f"cannot write graph: {exc}") from exc
    print(f"wrote {args.out}: {len(verts)} vertices, "
          f"valency {int((row == 1).sum())}, diameter {int(row.max())}")
    return 0


# ---------------------------------------------------------------------------
# verify


class _Stages:
    """The shared stages of one verify or leonard call.  Each is built at
    most once, on first use; one that raised raises the same error again
    for every check that depends on it, so that check fails with the
    message as witness.  A MemoryError is not kept."""

    def __init__(self, **builders):
        self._builders = builders
        self._done: dict = {}

    def __getitem__(self, name):
        if name not in self._done:
            try:
                self._done[name] = (self._builders[name](), None)
            except MemoryError:
                raise
            except Exception as exc:  # noqa: BLE001 - raised to each check
                self._done[name] = (None, exc)
        value, exc = self._done[name]
        if exc is not None:
            raise exc
        return value


def _suite_drg(report, stage, spec, n):
    from . import drg

    report.run("drg:counts", "neighbor counts are independent of the vertex "
               "pair at each distance", lambda: stage["drg"] is not None)
    report.run("drg:intersection",
               "c_i = (b^i-1)/(b-1), b_i = b^(i+e)(b^(D-i)-1)/(b-1)",
               lambda: drg.verify_intersection(spec, stage["drg"]))

    def multiplicities():
        total = sum(stage["bm"].m)
        return total == n, None if total == n else {"sum_m": total,
                                                    "vertices": n}
    report.run("drg:multiplicities", "rank E_i = m_i and sum m_i = |X|",
               multiplicities)
    report.run("drg:dual-eigenvalues", "theta*_i = zeta + xi b^-i with "
               "theta*_0 = m_1",
               lambda: stage["bm"].theta_star[0] == stage["bm"].m[1])
    report.run("drg:krein", "Krein parameters vanish per the Q-polynomial "
               "pattern", lambda: drg.check_q_polynomial_pattern(
                   stage["bm"].krein))
    report.run("drg:td-scalars", "beta = b + 1/b and the four companion "
               "scalars satisfy their recurrences",
               lambda: drg.td_scalars(spec) is not None)


def _suite_lfrk(report, stage):
    from . import terwilliger as tw

    for statement in tw.LFRK_STATEMENTS:
        report.run(f"lfrk:{statement}", statement,
                   lambda statement=statement: stage["lfrk"][statement])
    report.run("lfrk:recovery", "L, F, R are recovered from K A K^-1 "
               "conjugations", lambda: tw.verify_lfrk_recovery(
                   stage["ctx"], stage["comps"]))
    report.run("lfrk:commuting", "LR, RL, F, K mutually commute",
               lambda: tw.verify_lrf_commutations(stage["ctx"],
                                                  stage["comps"]))
    report.run("lfrk:tridiagonal", "both tridiagonal bracket relations hold",
               lambda: tw.verify_tridiagonal_relations(stage["ctx"],
                                                       stage["comps"]))


def _suite_central(report, stage):
    from . import terwilliger as tw

    report.run("central:construction", "C0, C1, C2, Omega, G, G* are "
               "symmetric and commute with A and A*",
               lambda: tw.verify_central_construction(stage["ctx"],
                                                      stage["comps"]))
    report.run("central:omega-entries", "Omega matches its same-distance "
               "entry table", lambda: tw.verify_omega_entry_table(
                   stage["ctx"], stage["cents"].Omega))
    report.run("central:g-entries", "G matches its two-distance entry table",
               lambda: tw.verify_g_entry_table(stage["ctx"],
                                               stage["cents"].G))
    report.run("central:characterization",
               "alpha_i = b^(1-i) alpha_1 with matching beta_i commutes "
               "with A; a perturbed alpha does not (unless the flattening "
               "part vanishes)",
               lambda: tw.verify_central_characterization(stage["ctx"],
                                                          stage["comps"]))


def _suite_modules(report, stage, sample_vertices):
    from .leonard import leonard_from_tmodule
    from . import terwilliger as tw

    report.run("modules:dimension", "homogeneous component dimensions sum "
               "to |X| with integer multiplicities",
               lambda: (True, {"triples": sorted(
                   [list(c.triple) + [c.mult] for c in stage["comps"]])}))
    report.run("modules:center-commute", "the displacement and diameter "
               "weights commute with A and A*",
               lambda: tw.verify_center_commutation(stage["ctx"],
                                                    stage["center"]))
    report.run("modules:center-identities", "C0, C1, C2, Omega, G, G* "
               "against the displacement weights, exactly",
               lambda: tw.verify_center_identities(stage["ctx"],
                                                   stage["center"]))
    try:
        comps = stage["comps"]
    except Exception:  # noqa: BLE001 - reported by modules:dimension
        comps = []
    for c in sorted(comps, key=lambda c: c.triple):
        def one(c=c):
            leonard_from_tmodule(stage["ctx"], c.triple,
                                 tw.extract_module(stage["ctx"], c))
        report.run(f"modules:leonard:{c.triple}",
                   f"module {c.triple} carries a dual q-Krawtchouk "
                   "Leonard system with the closed-form parameters", one)
    for x in sample_vertices:
        def same(x=x):
            base = {c.triple: c.mult for c in stage["comps"]}
            here = {c.triple: c.mult
                    for c in tw.decompose(stage["ctx"].at(x))}
            differ = [[*t, base.get(t, 0), here.get(t, 0)]
                      for t in sorted(base.keys() | here.keys())
                      if base.get(t) != here.get(t)]
            # each: r, t, d, multiplicity at the base vertex and at x
            return not differ, {"differ": differ} if differ else None
        report.run(f"modules:base-vertex:{x}",
                   "feasible triple multiset agrees with the base run", same)


def _suite_uq(report, stage):
    from .uqsl2 import verify_cross_variant_standard

    for variant in (1, 2):
        report.run(f"uq:variant{variant}", "equitable relations, A and A* "
                   "recoveries, Chevalley images, and Casimir = diameter "
                   "weight all hold exactly",
                   lambda variant=variant: stage[f"uq{variant}"] is not None)
    report.run("uq:cross-variant", "k_2 = k_1, e_2 = -q^-2e U^2 P^-2 e_1, "
               "f_2 = -q^2e U^-2 P^2 f_1",
               lambda: verify_cross_variant_standard(
                   stage["ctx"], stage["center"], stage["uq1"],
                   stage["uq2"]))


def _sample_vertices(n: int, k: int, base: int) -> list[int]:
    """min(k, n - 1) vertices other than `base`: the grid 0, n//k, ...
    without `base`, cut at k, then the lowest vertices off the grid."""
    grid = range(0, n, max(1, n // max(k, 1)))
    sample = [i for i in grid if i != base][:k]
    return sample + [i for i in range(n) if i != base and i not in grid][
        :min(k, n - 1) - len(sample)]


def cmd_verify(args) -> int:
    from . import drg, terwilliger as tw, uqsl2
    from .polar import load_graph

    try:
        g = load_graph(args.graph)
    except KeyError as exc:
        raise InputError(f"cannot load graph: missing field {exc}") from exc
    except (OSError, ValueError, TypeError, RecursionError) as exc:
        raise InputError(f"cannot load graph: {exc}") from exc
    if not 0 <= args.base_vertex < g.n_vertices:
        raise InputError(f"--base-vertex {args.base_vertex} is not a vertex; "
                         f"the graph has vertices 0..{g.n_vertices - 1}")
    if args.all_vertices_sample < 0:
        raise InputError(f"--all-vertices-sample {args.all_vertices_sample} "
                         "is negative")
    meta = {"graph": args.graph, "family": g.spec.family, "D": g.spec.D,
            "b": g.spec.b, "suite": args.suite,
            "base_vertex": args.base_vertex}
    report = Report(meta)
    suites = ("drg", "lfrk", "central", "modules", "uq") \
        if args.suite == "all" else (args.suite,)
    # functions are looked up on their modules when a stage is built
    stage = _Stages(
        drg=lambda: drg.verify_distance_regular(g),
        bm=lambda: drg.spectral_data(g.spec, g.n_vertices, stage["drg"]),
        ctx=lambda: tw.build_context(g, stage["bm"], args.base_vertex),
        lfrk=lambda: tw.verify_lfrk(stage["ctx"], stage["comps"]),
        cents=lambda: tw.central_elements(stage["ctx"]),
        comps=lambda: tw.decompose(stage["ctx"]),
        center=lambda: tw.upsilon_psi_lambda(stage["ctx"], stage["comps"]),
        uq1=lambda: uqsl2.uq_on_standard_module(stage["ctx"],
                                                stage["center"], 1),
        uq2=lambda: uqsl2.uq_on_standard_module(stage["ctx"],
                                                stage["center"], 2),
    )
    if "drg" in suites:
        _suite_drg(report, stage, g.spec, g.n_vertices)
    if "lfrk" in suites:
        _suite_lfrk(report, stage)
    if "central" in suites:
        _suite_central(report, stage)
    if "modules" in suites:
        _suite_modules(report, stage, _sample_vertices(
            g.n_vertices, args.all_vertices_sample, args.base_vertex))
    if "uq" in suites:
        _suite_uq(report, stage)
    return _emit(report)


# ---------------------------------------------------------------------------
# leonard


LEONARD_ACTIONS = ("validate", "realize", "d4", "scalars", "uq")
LEONARD_BASES = ("split", "normalized-split", "standard")


def cmd_leonard(args) -> int:
    from . import leonard as ln

    actions = args.actions.split(",")
    unknown = [a for a in actions if a not in LEONARD_ACTIONS]
    if unknown:
        raise InputError(f"unknown --actions entry {unknown[0]!r}; choose "
                         f"from {','.join(LEONARD_ACTIONS)}")
    try:
        with open(args.params) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise TypeError("expected a JSON object")
        pa = ln.pa_from_json(data)
        verdict = pa.verdict  # mixed radicands raise here
    except KeyError as exc:
        raise InputError(f"cannot load parameter array: missing field {exc}"
                         ) from exc
    except (OSError, ValueError, TypeError, ArithmeticError,
            RecursionError) as exc:
        raise InputError(f"cannot load parameter array: {exc}") from exc
    meta = {"params": args.params, "d": pa.d, "actions": actions}
    report = Report(meta)
    # each basis is realized (and certified) once, for every check using it
    real = _Stages(**{basis: lambda basis=basis: ln.realize(pa, basis)
                      for basis in LEONARD_BASES})
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
        for basis in LEONARD_BASES:
            report.run(f"leonard:realize:{basis}",
                       f"{basis} realization satisfies the Leonard axioms "
                       "and extracts back to the same array",
                       lambda basis=basis: ln.extract_from_realization(
                           real[basis]) == pa)
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
    if "scalars" in actions and pa.d < 3:
        report.add("leonard:scalars", "tridiagonal and Askey-Wilson "
                   "relations (not checked: the recurrences fix the scalars "
                   "only for d >= 3)", True, skipped=True)
    elif "scalars" in actions:
        report.run("leonard:scalars", "tridiagonal and Askey-Wilson "
                   "relations hold with the recurrence scalars",
                   lambda: ln.verify_td_aw_matrix(real["split"],
                                                  ln.td_aw_scalars(pa)))
    if "uq" in actions and "q" not in data:
        report.add("leonard:uq", "module structures need dual q-Krawtchouk "
                   "parameters in the input", True, skipped=True)
    elif "uq" in actions:
        def uq_check():
            from .uqsl2 import uq_on_leonard, verify_cross_variant_leonard

            p = ln.dqk_params_from_json(data)
            a1 = uq_on_leonard(real["normalized-split"], p, 1, 1)
            a2 = uq_on_leonard(real["normalized-split"], p, 1, 2)
            return verify_cross_variant_leonard(a1, a2, p)
        report.run("leonard:uq", "both module structures exist and are "
                   "related by the variant translation", uq_check)
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
    v.add_argument("--all-vertices-sample", type=int, default=0)
    v.set_defaults(fn=cmd_verify)

    l = sub.add_parser("leonard", help="abstract Leonard-system checks")
    l.add_argument("--params", required=True)
    l.add_argument("--actions", default=",".join(LEONARD_ACTIONS))
    l.set_defaults(fn=cmd_leonard)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        from traceback import walk_tb
        # by package: under -m this module runs as __main__; main is one
        where = [f.f_code.co_name for f, _ in walk_tb(exc.__traceback__)
                 if f.f_globals.get("__package__") == __package__]
        print(f"error: out of memory in {where[-1]}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
