"""The T-algebra checks on the ladders against the dense n x n oracle,
through verify.

`terwilliger` checks the LFRK and central identities on the ladder matrices
of the homogeneous components that `decompose` certifies, and checks the
entry tables of Omega and G from their word coefficients on the diagonal
blocks.  `dense_oracle` keeps the n x n construction of all of these.
Here `verify --suite all` runs once on each: the dense run swaps the
context and the LFRK and central checks for the oracle's, and adds the
oracle's n-wide joint-kernel and orthogonality certificate to the
decomposition.  Both reports must agree in every status
and witness on intact graphs, and on graphs with one adjacency entry
changed or one edge added across two classes.  A changed graph is not
distance-regular, so it is given the intact graph's intersection and
Bose-Mesner data: otherwise every check would fail at `drg`, alike on both
paths, and compare nothing."""

import functools
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import dualpolar
from dualpolar import drg, polar, terwilliger
from dualpolar.cli import main
from dualpolar.linexact import ExactMatrix
from dualpolar.polar import FormSpec, PolarGraph, build_polar_graph

import dense_oracle

def _dense_central(ctx):
    """The oracle's n x n central elements, built and certified once per
    dense context."""
    if "_cents" not in vars(ctx):
        ctx._cents = dense_oracle.central_elements(ctx)
    return ctx._cents


def _on_context(check):
    """A ladder check's signature (ctx, comps) for a dense check of ctx.
    verify has built comps already, so both paths depend on `decompose`."""
    return lambda ctx, comps: check(ctx)


DENSE = {
    "build_context": dense_oracle.dense_context,
    "verify_lfrk": _on_context(dense_oracle.verify_lfrk),
    "verify_lfrk_recovery": _on_context(dense_oracle.verify_lfrk_recovery),
    "verify_lrf_commutations": _on_context(
        dense_oracle.verify_lrf_commutations),
    "verify_tridiagonal_relations": _on_context(
        dense_oracle.verify_tridiagonal_relations),
    "verify_central_construction": _on_context(
        lambda ctx: _dense_central(ctx) is not None),
    "central_elements": _dense_central,
    "verify_omega_entry_table": dense_oracle.verify_omega_entry_table,
    "verify_g_entry_table": dense_oracle.verify_g_entry_table,
    "verify_central_characterization": _on_context(
        dense_oracle.characterization),
}


def _dense_decompose(real):
    """decompose followed by the oracle's n-wide joint-kernel and
    orthogonality certificate, on the oracle's own n x n central elements.
    The ladder certificate runs first, so a failure it finds is reported
    with the same witness on both paths."""
    def run(ctx):
        comps = real(ctx)
        dense_oracle.certify_joint_kernel(ctx, _dense_central(ctx), comps)
        return comps
    return run


@functools.lru_cache(maxsize=None)
def graph(family, D, b):
    g = build_polar_graph(FormSpec(family, D, b))
    data = drg.verify_distance_regular(g)
    return g, (data, drg.spectral_data(g.spec, g.n_vertices, data))


def verify(monkeypatch, capsys, g, x, path, suite="all", given=None):
    """The report of `verify --suite all` at base x on the given graph, on
    the ladder path or the dense one, without `timing`; given, a pair of
    intersection data and Bose-Mesner data, replaces the graph's own."""
    with monkeypatch.context() as m:
        m.setattr(polar, "load_graph", lambda _: g)
        if given is not None:
            m.setattr(drg, "verify_distance_regular", lambda _: given[0])
            m.setattr(drg, "spectral_data", lambda *_: given[1])
        if path == "dense":
            for name, fn in DENSE.items():
                m.setattr(terwilliger, name, fn)
            m.setattr(terwilliger, "decompose",
                      _dense_decompose(terwilliger.decompose))
        capsys.readouterr()
        main(["verify", "--graph", "g.json", "--suite", suite,
              "--base-vertex", str(x)])
        report = json.loads(capsys.readouterr().out)
    del report["timing"]
    return report


@pytest.mark.parametrize("family,D,b,x", [
    ("D", 3, 2, 0), ("D", 3, 2, 17), ("C", 3, 2, 0), ("C", 3, 2, 101),
    ("D", 4, 2, 0), ("D", 4, 2, 47)])
def test_block_path_matches_dense_oracle(monkeypatch, capsys, family, D, b,
                                         x):
    """The ladder path, which replaced the block path of the LFRK and
    central checks, against the dense oracle."""
    g, _ = graph(family, D, b)
    ladder = verify(monkeypatch, capsys, g, x, "ladder")
    assert ladder == verify(monkeypatch, capsys, g, x, "dense")
    assert ladder["summary"]["fail"] == 0 and ladder["summary"]["skipped"] == 0


def _tampered(g, x, classes, pair):
    """g with one entry A[y, z] (and A[z, y] too when pair) set to 1, for
    the first non-adjacent y < z with y in class classes[0] and z in
    classes[1] at x, y, z != x."""
    dist_x = dense_oracle.bfs_distances(g.adjacency, [x])[0]
    adj = g.adjacency.copy()
    y, z = next((int(y), int(z))
                for y in np.flatnonzero(dist_x == classes[0])
                for z in np.flatnonzero(dist_x == classes[1])
                if y < z and not adj[y, z] and x not in (y, z))
    adj[y, z] = 1
    if pair:
        adj[z, y] = 1
    return PolarGraph(g.spec, g.vertices, adj)


@pytest.mark.parametrize("family,D,b", [("D", 3, 2), ("C", 3, 2)])
@pytest.mark.parametrize("classes,pair,message", [
    ((2, 2), False, "transpose relations"),
    ((2, 2), True, None),
    ((1, 2), False, "transpose relations"),
    ((1, 2), True, None),
    ((1, 3), True, None),
], ids=["diagonal-entry", "diagonal-pair", "off-diagonal-entry",
        "off-diagonal-pair", "across-two-classes"])
def test_perturbed_adjacency_fails_alike(monkeypatch, capsys, family, D, b,
                                         classes, pair, message):
    """One adjacency entry (or symmetric pair) added in a diagonal block,
    in an off-diagonal block, or across two classes.  A single entry breaks
    L^t = R or F^t = F: there the ladder path and the oracle fail the same
    checks with the same witnesses.  An edge from class 1 to class 3 puts
    its far end in class 2 of the search of `build_context`, so it is a
    symmetric pair inside the grading too.  Such a pair breaks the ladder
    certificate of `decompose`, which both paths run before their LFRK and
    central checks: every LFRK check and the construction fail on both,
    with the witness of `modules:dimension`.
    Only the entry tables differ there: the oracle certifies its central
    elements before it reads Omega and G, the ladder path reads their word
    coefficients only."""
    g, intact = graph(family, D, b)
    bad = _tampered(g, 0, classes, pair)
    ladder = verify(monkeypatch, capsys, bad, 0, "ladder", given=intact)
    dense = verify(monkeypatch, capsys, bad, 0, "dense", given=intact)
    if message is not None:
        assert ladder == dense
    else:
        def rest(report):
            return [c for c in report["checks"] if c["id"] not in (
                "central:omega-entries", "central:g-entries")]
        assert rest(ladder) == rest(dense)
    for report in (ladder, dense):
        checks = {c["id"]: c for c in report["checks"]}
        failed = [c for c in checks.values()
                  if c["id"].startswith("lfrk:")
                  or c["id"] == "central:construction"]
        assert len(failed) == 11
        assert all(c["status"] == "fail" for c in failed)
        want = checks["modules:dimension"]["witness"]
        assert checks["modules:dimension"]["status"] == "fail"
        assert message is None or message in want
        assert all(c["witness"] == want for c in failed)


@pytest.mark.parametrize("suite", ["drg", "lfrk", "central", "modules",
                                   "uq", "all"])
def test_suite_creates_no_n_wide_matrix(monkeypatch, capsys, suite):
    """On D_4(2), the Bose-Mesner data included, no ExactMatrix with a side
    of length n = 270 is created."""
    g, _ = graph("D", 4, 2)
    n = g.n_vertices
    shapes = []
    real = ExactMatrix.__init__

    def init(self, *args, **kwargs):
        real(self, *args, **kwargs)
        if n in self.shape:
            shapes.append(self.shape)

    monkeypatch.setattr(ExactMatrix, "__init__", init)
    report = verify(monkeypatch, capsys, g, 47, "block", suite)
    assert report["summary"]["fail"] == 0
    assert shapes == []


# Run `verify --suite central` in a fresh `python -O` interpreter, where
# `assert` statements are stripped, with the K coefficient of C0 moved by
# one when asked.
_OPTIMIZED_TW = """
import importlib.util, sys
import dualpolar
spec = importlib.util.find_spec("dualpolar.terwilliger")
src = open(spec.origin).read()
line = '((q2e - one) / (q2 - one), "K")'
if src.count(line) != 1:  # no assert: this runs under -O
    sys.exit("the K term of C0 was not found")
if sys.argv[1] == "perturb":
    src = src.replace(line, '((q2e - one) / (q2 - one) + 1, "K")')
mod = importlib.util.module_from_spec(spec)
sys.modules["dualpolar.terwilliger"] = dualpolar.terwilliger = mod
exec(compile(src, spec.origin, "exec"), mod.__dict__)
from dualpolar.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("mode,status", [("perturb", "fail"),
                                         ("keep", "pass")])
def test_block_certificate_fails_under_python_O(tmp_path, mode, status):
    """The ladder certificates raise; none is a bare assert.  The moved K
    term of C0 breaks the joint-kernel certificate of `decompose`, so the
    construction and the characterization, which run on its ladders, fail
    with its message; the entry tables read Omega and G only, and pass."""
    path = str(tmp_path / "d32.json")
    assert main(["build", "--family", "D", "--D", "3", "--b", "2",
                 "--out", path]) == 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(dualpolar.__file__))]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_TW, mode, "verify",
         "--graph", path, "--suite", "central"],
        capture_output=True, text=True, env=env, timeout=300)
    checks = {c["id"]: c for c in json.loads(out.stdout)["checks"]}
    assert sorted(checks) == ["central:characterization",
                              "central:construction", "central:g-entries",
                              "central:omega-entries"]
    for cid, c in checks.items():
        if cid in ("central:construction", "central:characterization"):
            assert c["status"] == status
        else:
            assert c["status"] == "pass"
        if c["status"] == "fail":
            assert re.fullmatch(r"component \(\d, \d, \d\) is not in the "
                                "joint kernel", c["witness"])
    assert out.returncode == (1 if status == "fail" else 0)


def test_one_ladder_action_per_component(monkeypatch, capsys):
    """`decompose` keeps the ladder action it certifies on each component,
    and every later check reads it there: in a D_4(2) run of every suite
    with three sampled base vertices, the four decompositions share the
    closed forms of the graph, so the call builds one `ladder_action` per
    triple, and nothing else builds one."""
    g, _ = graph("D", 4, 2)
    calls = []
    real = terwilliger.ladder_action
    monkeypatch.setattr(terwilliger, "ladder_action",
                        lambda ctx, *t: calls.append(t) or real(ctx, *t))
    monkeypatch.setattr(polar, "load_graph", lambda _: g)
    capsys.readouterr()
    assert main(["verify", "--graph", "g.json", "--suite", "all",
                 "--all-vertices-sample", "3"]) == 0
    checks = {c["id"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    triples = [tuple(t[:3]) for t in checks["modules:dimension"]["witness"][
        "triples"]]
    sampled = [c for c in checks if c.startswith("modules:base-vertex:")]
    assert len(triples) == 6 and len(sampled) == 3
    assert sorted(calls) == sorted(triples)


def test_closed_forms_once_per_call_rungs_at_every_vertex(monkeypatch,
                                                          capsys):
    """A D_4(2) run of every suite with three sampled base vertices (0 is
    the base; 90, 180 and 1 are sampled): the closed-form half of the
    ladder certificate, `ladder_action` with b_(j-1) c_j != 0 and C_k =
    chi_k I on its matrices (`_joint_kernel`), runs once per triple for
    the four contexts; the integer half,
    `_certify_ladder`, runs for each of the six components at each vertex.
    The forms live for one call: a second call reads chi0 as often as the
    first, and a third, with chi0 of (0, 0, 4) moved, fails."""
    g, _ = graph("D", 4, 2)
    monkeypatch.setattr(polar, "load_graph", lambda _: g)
    calls = {"ladder_action": [], "_joint_kernel": [], "_certify_ladder": [],
             "chi0": []}
    for name, seen in calls.items():
        real = getattr(terwilliger, name)

        def counted(ctx, *args, real=real, seen=seen):
            seen.append((ctx.x, getattr(args[0], "triple", args)))
            return real(ctx, *args)
        monkeypatch.setattr(terwilliger, name, counted)
    argv = ["verify", "--graph", "g.json", "--suite", "all",
            "--all-vertices-sample", "3"]
    capsys.readouterr()
    assert main(argv) == 0
    checks = {c["id"]: c for c in json.loads(capsys.readouterr().out)[
        "checks"]}
    triples = sorted(tuple(t[:3]) for t in checks["modules:dimension"][
        "witness"]["triples"])
    assert len(triples) == 6
    for name in ("ladder_action", "_joint_kernel"):
        assert sorted(t for _, t in calls[name]) == triples
    assert sorted(calls["_certify_ladder"]) == sorted(
        (x, t) for x in (0, 1, 90, 180) for t in triples)
    first = len(calls["chi0"])
    calls["chi0"].clear()
    assert main(argv) == 0
    assert first > 0 and len(calls["chi0"]) == first
    real = terwilliger.chi0
    monkeypatch.setattr(terwilliger, "chi0", lambda ctx, r, t, d: real(
        ctx, r, t, d) + ((r, t, d) == (0, 0, 4)))
    capsys.readouterr()
    assert main(argv) == 1
    checks = {c["id"]: c for c in json.loads(capsys.readouterr().out)[
        "checks"]}
    assert checks["modules:dimension"]["witness"] == \
        "component (0, 0, 4) is not in the joint kernel"


@pytest.mark.parametrize("suite", ["lfrk", "central"])
def test_block_products_only_for_the_entry_tables(monkeypatch, capsys,
                                                  suite):
    """`--suite lfrk` builds no central element; `--suite central` reads
    the word coefficients of Omega and G once, for their entry tables."""
    g, _ = graph("D", 4, 2)
    calls = []
    real = terwilliger.central_elements
    monkeypatch.setattr(terwilliger, "central_elements",
                        lambda ctx: calls.append(ctx) or real(ctx))
    report = verify(monkeypatch, capsys, g, 0, "ladder", suite)
    assert report["summary"]["fail"] == 0
    assert len(calls) == (suite == "central")


def test_one_leonard_certificate_per_module(monkeypatch, capsys):
    """Each module's Leonard system is certified by the certificate every
    abstract array runs, once: one `verify --suite modules` on D_4(2)
    calls `certify_leonard_system` once per component, which finds the two
    eigenbases, and `terwilliger` finds none of its own."""
    from dualpolar import leonard

    g, _ = graph("D", 4, 2)
    calls = {"eigenbasis": 0, "certify_leonard_system": 0}

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)
    spy(leonard, "eigenbasis")
    spy(terwilliger, "certify_leonard_system")
    report = verify(monkeypatch, capsys, g, 0, "ladder", "modules")
    assert report["summary"]["fail"] == 0
    modules = [c for c in report["checks"]
               if c["id"].startswith("modules:leonard:")]
    assert len(modules) == 6
    assert calls == {"eigenbasis": 12, "certify_leonard_system": 6}
    assert "eigenbasis" not in vars(terwilliger)


def test_two_step_products_formed_once(monkeypatch, capsys):
    """One `verify --suite all` on D_4(2) forms each two-step product
    A[B_s, B_h] A[B_h, B_s] once, for the G entry table and decompose
    together, and no other product of two adjacency blocks in
    `terwilliger` (the rest raise rungs or form their images)."""
    g, _ = graph("D", 4, 2)
    ctxs, products = [], []
    build, mm = terwilliger.build_context, terwilliger.int_matmul
    monkeypatch.setattr(terwilliger, "build_context",
                        lambda *a: ctxs.append(build(*a)) or ctxs[-1])
    monkeypatch.setattr(terwilliger, "int_matmul",
                        lambda a, b: products.append((a, b)) or mm(a, b))
    report = verify(monkeypatch, capsys, g, 0, "ladder")
    assert report["summary"]["fail"] == 0
    [ctx] = ctxs
    blocks = {id(m): ij for ij, m in ctx._adj.items()}
    formed = [(blocks[id(a)], blocks[id(b)]) for a, b in products
              if id(a) in blocks and id(b) in blocks]
    D = ctx.D
    assert sorted(formed) == sorted(((s, h), (h, s)) for s in range(D + 1)
                                    for h in (s - 1, s + 1) if 0 <= h <= D)
