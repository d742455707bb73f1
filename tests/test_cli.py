"""The command line end to end on D_3(2): build, verify, and bad input."""

import importlib
import json
import os
import re
import resource
import subprocess
import sys

import numpy as np
import pytest

import dense_oracle
import dualpolar
from dualpolar import intlinalg
from dualpolar.cli import main
from dualpolar.drg import NotDistanceRegularError

LFRK_IDS = [
    "lfrk:K L = q^2 L K",
    "lfrk:K F = F K",
    "lfrk:K R = q^-2 R K",
    "lfrk:L F - q^2 F L = (q^2e - 1) L",
    "lfrk:F R - q^2 R F = (q^2e - 1) R",
    "lfrk:q^4/(q^2+1) R L^2 - L R L + q^-2/(q^2+1) L^2 R = -q^(2e+2D-2) L",
    "lfrk:q^4/(q^2+1) R^2 L - R L R + q^-2/(q^2+1) L R^2 = -q^(2e+2D-2) R",
]

UQ_IDS = ["uq:variant1", "uq:variant2", "uq:cross-variant"]

# every check `verify --suite all` reports on any graph, apart from one
# modules:leonard check per homogeneous component (r, t, d)
ALL_IDS = [
    "drg:counts", "drg:intersection", "drg:multiplicities",
    "drg:dual-eigenvalues", "drg:krein", "drg:td-scalars",
    *LFRK_IDS, "lfrk:recovery", "lfrk:commuting", "lfrk:tridiagonal",
    "central:construction", "central:omega-entries", "central:g-entries",
    "central:characterization", "modules:dimension",
    "modules:center-commute", "modules:center-identities", *UQ_IDS,
]


def module_ids(*triples):
    return [f"modules:leonard:{t}" for t in triples]


D32_IDS = ALL_IDS + module_ids((0, 0, 3), (1, 1, 1), (2, 1, 1))

# every check that needs the certified intersection data: all but
# drg:td-scalars, which reads closed forms only; the modules:leonard checks
# are not reported, as there are no components
NEEDS_DRG = [cid for cid in ALL_IDS if cid != "drg:td-scalars"]


@pytest.fixture(scope="module")
def d32_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "d32.json")
    assert main(["build", "--family", "D", "--D", "3", "--b", "2",
                 "--out", path]) == 0
    return path


def test_build_then_verify_all(d32_file, capsys):
    capsys.readouterr()
    assert main(["verify", "--graph", d32_file, "--suite", "all"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["fail"] == 0
    assert report["summary"]["skipped"] == 0
    assert sorted(c["id"] for c in report["checks"]) == sorted(D32_IDS)
    assert all(c["status"] == "pass" for c in report["checks"])


@pytest.mark.parametrize("vertex", ["999", "30", "-1"])
def test_base_vertex_out_of_range(d32_file, capsys, vertex):
    assert main(["verify", "--graph", d32_file, "--suite", "drg",
                 "--base-vertex", vertex]) == 2
    err = capsys.readouterr().err
    assert "--base-vertex" in err and "0..29" in err


def test_missing_graph_is_input_error(tmp_path, capsys):
    assert main(["verify", "--graph", str(tmp_path / "absent.json")]) == 2
    assert "cannot load graph" in capsys.readouterr().err


def test_build_into_missing_directory_is_input_error(tmp_path, capsys):
    out = str(tmp_path / "absent" / "g.json")
    assert main(["build", "--family", "D", "--D", "2", "--b", "2",
                 "--out", out]) == 2
    assert "cannot write graph" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_below_one_is_input_error(tmp_path, capsys, monkeypatch,
                                         budget):
    """A budget below 1 is refused by name, before the form is built."""
    from dualpolar import polar

    calls = []
    monkeypatch.setattr(polar, "FormSpec", _raiser(AssertionError(), calls))
    assert main(["build", "--family", "D", "--D", "2", "--b", "2",
                 "--out", str(tmp_path / "g.json"), "--budget", budget]) == 2
    assert capsys.readouterr().err == \
        f"error: --budget {budget} must be at least 1\n"
    assert calls == []


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("command,message", [
    ("build", "enumeration budget exceeded"),
    ("verify", "cannot load graph: file has 0 vertices, the dual polar "
               "graph more than 0")])
def test_huge_diameter_is_input_error(tmp_path, command, message):
    """D = 20000 in a fresh interpreter limited to 2 GB of address space:
    the vertex count is bounded before any n x n form matrix (n = 40000)
    exists, so the command exits 2 with a message, not a MemoryError."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"family": "C", "D": 20000, "b": 2,
                                "vertices": []}))
    args = (["build", "--family", "C", "--D", "20000", "--b", "2", "--out",
             str(tmp_path / "out.json")] if command == "build"
            else ["verify", "--graph", str(path)])
    out = _run_limited(args)
    assert out.returncode == 2, out.stderr
    assert out.stderr == f"error: {message}\n"


def _run_limited(args, run=("-m", "dualpolar.cli"), timeout=300):
    """`python *run *args`, by default `python -m dualpolar.cli *args`, in
    a fresh interpreter limited to 2 GB of address space and to `timeout`
    seconds."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(dualpolar.__file__))]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *run, *args],
                          capture_output=True, text=True, env=env,
                          timeout=timeout, preexec_fn=_limit_address_space)


_HUGE_PRIME = 2 ** 61 - 1
_HUGE_RADICAND = 2 ** 89 - 1


@pytest.mark.parametrize("command", ["build", "verify", "leonard"])
def test_huge_field_order_or_radicand_is_refused_at_once(tmp_path, command):
    """b = 2^61 - 1 on the command line or in a graph file is refused before
    any search for its prime, and q = sqrt(2^89 - 1) before any trial
    division: each call exits 2 within seconds."""
    field = (f"GF({_HUGE_PRIME}) is above the field order 4096 that the "
             "tables support")
    path = tmp_path / "input.json"
    if command == "build":
        args = ["build", "--family", "C", "--D", "2", "--b", str(_HUGE_PRIME),
                "--out", str(path)]
        message = field
    elif command == "verify":
        path.write_text(json.dumps({"family": "C", "D": 2, "b": _HUGE_PRIME,
                                    "vertices": []}))
        args = ["verify", "--graph", str(path)]
        message = f"cannot load graph: {field}"
    else:
        path.write_text(json.dumps(
            {**LEONARD_ARRAY, "q": f"0 + 1*sqrt({_HUGE_RADICAND})"}))
        args = ["leonard", "--params", str(path)]
        message = (f"cannot load parameter array: 'q': radicand "
                   f"{_HUGE_RADICAND} is above {10 ** 15}, the largest whose "
                   "square part is split off")
    out = _run_limited(args, timeout=30)
    assert (out.returncode, out.stderr) == (2, f"error: {message}\n")


def test_out_of_memory_is_a_one_line_error(tmp_path):
    """2A_even_3(4) has n = 38313, inside the default --budget.  `build`
    writes its vertex list within 2 GB, but the n x n codim product of the
    load in `verify` does not fit: the command exits 2 with one line naming
    the innermost dualpolar function that ran out of memory, and numpy's
    message with the shape, not a traceback."""
    path = str(tmp_path / "out.json")
    out = _run_limited(["build", "--family", "2A_even", "--D", "3", "--b",
                        "4", "--out", path])
    assert out.returncode == 0, out.stderr
    assert out.stdout == (f"wrote {path}: 38313 vertices, valency 168, "
                          "diameter 3\n")
    out = _run_limited(["verify", "--graph", path, "--suite", "drg"])
    assert out.returncode == 2, out.stderr
    assert re.fullmatch(r"error: out of memory in \w+: [^\n]*38313[^\n]*\n",
                        out.stderr), out.stderr
    assert "Traceback" not in out.stderr


def test_out_of_memory_outside_the_package_names_its_caller(tmp_path):
    """A MemoryError raised by json.load, outside the package, while the
    CLI runs as __main__ (as under -m): the error names cmd_leonard, the
    innermost function of the package, in one line."""
    path = tmp_path / "params.json"
    path.write_text("{}")
    code = ("import json, runpy\n"
            "def load(fh): raise MemoryError('no room')\n"
            "json.load = load\n"
            "runpy.run_module('dualpolar.cli', run_name='__main__', "
            "alter_sys=True)\n")
    out = _run_limited(["leonard", "--params", str(path)], run=("-c", code))
    assert out.returncode == 2, out.stderr
    assert out.stderr == "error: out of memory in cmd_leonard: no room\n"


def _raise_out_of_memory(*_):
    raise MemoryError("Unable to allocate 5.47 GiB")


@pytest.mark.parametrize("command", ["verify", "leonard"])
def test_out_of_memory_in_a_check_ends_the_call(d32_file, capsys,
                                                monkeypatch, command):
    """A MemoryError inside a check, in the kernel of `decompose` (verify
    on D_3(2)) or in `eigenbasis` (leonard on dqk-2-16), is no failed
    identity: no report is written, and the one-line error names the
    innermost dualpolar function, exit 2."""
    from dualpolar import leonard, terwilliger

    if command == "verify":
        monkeypatch.setattr(terwilliger, "kernel", _raise_out_of_memory)
        argv, where = ["verify", "--graph", d32_file, "--suite", "all"], \
            "decompose"
    else:
        monkeypatch.setattr(leonard, "eigenbasis", _raise_out_of_memory)
        argv = ["leonard", "--params", os.path.join(
            os.path.dirname(__file__), "data", "leonard", "dqk-2-16.json")]
        where = "certify_leonard_system"
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: out of memory in {where}: Unable to allocate " \
        "5.47 GiB\n"


@pytest.fixture(scope="module")
def c23_data(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "c23.json")
    assert main(["build", "--family", "C", "--D", "2", "--b", "3",
                 "--out", path]) == 0
    with open(path) as fh:
        return json.load(fh)


# a JSON value of the wrong kind in a field of the file: D and b are
# integers, vertices a list of strings
FIELD_DEFECTS = {"D-float": ("D", 2.9), "D-integral-float": ("D", 2.0),
                 "D-bool": ("D", True), "D-string": ("D", "2"),
                 "b-float": ("b", 3.5), "vertices-integer": ("vertices", 5),
                 "vertices-null": ("vertices", None),
                 "vertices-string": ("vertices", "00"),
                 "vertices-integer-items": ("vertices", [5] * 40)}
_KINDS = {"D": "an integer", "b": "an integer",
          "vertices": "a list of strings"}


@pytest.mark.parametrize("defect", ["coordinate", "truncated", "duplicate",
                                    "missing", "not-an-object",
                                    *FIELD_DEFECTS])
def test_malformed_graph_is_input_error(c23_data, tmp_path, capsys, defect):
    data = json.loads(json.dumps(c23_data))
    verts = data["vertices"]
    if defect in FIELD_DEFECTS:
        field, value = FIELD_DEFECTS[defect]
        data[field] = value
    elif defect == "not-an-object":
        data = [1, 2]
    elif defect == "coordinate":
        verts[0] = "f" + verts[0][1:]  # 15 is not in GF(3)
    elif defect == "truncated":
        verts[0] = verts[0][:-1]
    elif defect == "duplicate":
        verts[1] = verts[0]
    else:  # still connected, with distance = codim, but not all of C_2(3)
        verts.pop()
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "--graph", str(path), "--suite", "drg"]) == 2
    err = capsys.readouterr().err
    assert "cannot load graph" in err
    if defect in FIELD_DEFECTS:
        field = FIELD_DEFECTS[defect][0]
        assert f"{field!r} must be {_KINDS[field]}" in err
        if defect.endswith("-items"):
            assert "item 0 is" in err
    if defect == "duplicate":
        assert "vertices 0 and 1 are the same subspace" in err


@pytest.mark.parametrize("command,message", [
    ("verify", "cannot load graph: "),
    ("leonard", "cannot load parameter array: ")])
def test_deeply_nested_json_is_input_error(tmp_path, capsys, command,
                                           message):
    """A file nested 10^5 deep passes the JSON decoder's recursion limit:
    an input error with exit 2, not a traceback with the exit code of a
    failed check."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    flag = "--graph" if command == "verify" else "--params"
    assert main([command, flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "recursion" in err


@pytest.mark.parametrize("defect,message", [
    ("repeated-row", "vertex 0 is not a totally isotropic 3-space")])
def test_graph_file_refusal_is_named(d32_file, tmp_path, capsys, defect,
                                     message):
    """D_3(2) with vertex 0 written with its second row equal to its first,
    which keeps it totally isotropic but spans a plane, not a 3-space."""
    with open(d32_file) as fh:
        data = json.load(fh)
    text, w = data["vertices"][0], len(data["vertices"][0]) // 3
    data["vertices"][0] = text[:w] * 2 + text[2 * w:]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "--graph", str(path), "--suite", "drg"]) == 2
    assert capsys.readouterr().err == \
        f"error: cannot load graph: {message}\n"


def test_graph_file_holds_four_fields(c23_data):
    assert list(c23_data) == ["family", "D", "b", "vertices"]


@pytest.mark.parametrize("field,value", [
    ("e", "1"), ("adjacency", ["ff"] * 40), ("vertex", [])],
    ids=["e", "adjacency", "misspelt"])
def test_unknown_graph_field_is_named(c23_data, tmp_path, capsys, field,
                                      value):
    """The fields e and adjacency, which graph files once held, and a
    misspelt field are each refused by name."""
    data = dict(c23_data, **{field: value})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "--graph", str(path), "--suite", "drg"]) == 2
    assert capsys.readouterr().err == \
        f"error: cannot load graph: unknown field {field!r}\n"


def test_built_file_loads_as_the_built_graph(d32_file):
    """The vertex list that `build` writes loads as the graph that
    `build_polar_graph` forms: the same vertices and adjacency."""
    from dualpolar.polar import FormSpec, build_polar_graph, load_graph

    g, h = load_graph(d32_file), build_polar_graph(FormSpec("D", 3, 2))
    assert np.array_equal(g.vertices, h.vertices)
    assert np.array_equal(g.adjacency, h.adjacency)


@pytest.mark.parametrize("field", ["family", "D", "b", "vertices"])
def test_graph_missing_field_is_named(c23_data, tmp_path, capsys, field):
    data = json.loads(json.dumps(c23_data))
    del data[field]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "--graph", str(path), "--suite", "drg"]) == 2
    assert capsys.readouterr().err == \
        f"error: cannot load graph: missing field {field!r}\n"


@pytest.fixture(scope="module")
def wide_data(tmp_path_factory):
    """2A_odd_1(25): two hex digits per coordinate."""
    path = str(tmp_path_factory.mktemp("cli") / "2aodd125.json")
    assert main(["build", "--family", "2A_odd", "--D", "1", "--b", "25",
                 "--out", path]) == 0
    with open(path) as fh:
        return json.load(fh)


# the coordinate 1 written so that int(cell, 16) still reads 1, and a
# non-ASCII character in its place
@pytest.mark.parametrize("cell,pos", [("+1", 2), (" 1", 2), ("1 ", 3),
                                      ("\u00e91", 2)])
def test_non_hex_vertex_is_input_error(wide_data, tmp_path, capsys, cell,
                                       pos):
    data = json.loads(json.dumps(wide_data))
    assert data["vertices"][0] == "0001"
    data["vertices"][0] = vertex = "00" + cell
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "--graph", str(path), "--suite", "drg"]) == 2
    assert (f"vertex 0 has {vertex[pos]!r} at position {pos}, which is no "
            "hex digit") in capsys.readouterr().err


@pytest.mark.parametrize("suite,ids", [
    ("all", D32_IDS), ("uq", UQ_IDS)])
def test_verify_decomposes_once(d32_file, capsys, monkeypatch, suite, ids):
    from dualpolar import terwilliger

    calls = []
    real = terwilliger.decompose
    monkeypatch.setattr(terwilliger, "decompose",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    capsys.readouterr()
    assert main(["verify", "--graph", d32_file, "--suite", suite]) == 0
    report = json.loads(capsys.readouterr().out)
    assert sorted(c["id"] for c in report["checks"]) == sorted(ids)
    assert len(calls) == 1


def _raiser(exc, calls):
    def broken(*args, **kwargs):
        calls.append(args)
        raise exc
    return broken


STAGE_FAILURES = {
    # stage function -> (error it raises, ids of the checks that need it)
    "drg.verify_distance_regular": (
        NotDistanceRegularError(1, 1, 1, 3, 4, 2, 5), NEEDS_DRG),
    # the word coefficients of Omega and G serve only the two entry tables
    "terwilliger.central_elements": (
        AssertionError("Omega and G are not built"),
        ["central:omega-entries", "central:g-entries"]),
    # the LFRK and central identities are checked on its ladders
    "terwilliger.decompose": (
        AssertionError("components (1, 1, 1) and (2, 1, 1) share chi0, "
                       "chi1, chi2"),
        [*LFRK_IDS, "lfrk:recovery", "lfrk:commuting", "lfrk:tridiagonal",
         "central:construction", "central:characterization",
         "modules:dimension", "modules:center-commute",
         "modules:center-identities", *UQ_IDS]),
    "terwilliger.upsilon_psi_lambda": (
        AssertionError("displacement weights are not defined"),
        ["modules:center-commute", "modules:center-identities", *UQ_IDS]),
    "uqsl2.uq_on_standard_module": (
        AssertionError("A recovery on the standard module fails"),
        ["uq:variant1", "uq:variant2", "uq:cross-variant"]),
}


@pytest.mark.parametrize("target", sorted(STAGE_FAILURES))
def test_failing_stage_fails_its_checks(d32_file, capsys, monkeypatch,
                                        target):
    mod, name = target.split(".")
    exc, dependent = STAGE_FAILURES[target]
    calls = []
    monkeypatch.setattr(importlib.import_module(f"dualpolar.{mod}"), name,
                        _raiser(exc, calls))
    capsys.readouterr()
    assert main(["verify", "--graph", d32_file, "--suite", "all"]) == 1
    report = json.loads(capsys.readouterr().out)
    checks = {c["id"]: c for c in report["checks"]}
    for cid in dependent:
        assert checks[cid]["status"] == "fail", cid
        assert str(exc) in checks[cid]["witness"], cid
    failed = sorted(c for c in checks if checks[c]["status"] == "fail")
    assert failed == sorted(dependent)
    assert report["summary"]["fail"] == len(dependent)
    assert report["summary"]["skipped"] == 0
    # the checks of every unaffected suite are all present, and pass
    for cid in D32_IDS:
        if cid.split(":")[0] not in {d.split(":")[0] for d in dependent}:
            assert checks[cid]["status"] == "pass", cid
    # a failed stage is not rebuilt for each check; the two U_q(sl2)
    # variants are two stages
    if target == "uqsl2.uq_on_standard_module":
        assert [args[-1] for args in calls] == [1, 2]
    else:
        assert len(calls) == 1


@pytest.mark.parametrize("suite", ["modules", "uq"])
def test_modules_and_uq_need_no_central_elements(d32_file, capsys,
                                                 monkeypatch, suite):
    """decompose certifies the central elements on the ladder matrices, so
    the suites after it build no n x n or block central element."""
    from dualpolar import terwilliger

    calls = []
    monkeypatch.setattr(terwilliger, "central_elements",
                        _raiser(AssertionError("not needed"), calls))
    capsys.readouterr()
    assert main(["verify", "--graph", d32_file, "--suite", suite]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["fail"] == 0 and calls == []


def test_non_distance_regular_graph_fails_every_dependent_check(
        capsys, monkeypatch):
    """D_3(2) with one extra edge inside a distance class: every check that
    needs the intersection data fails with the NotDistanceRegularError text
    as witness, and verify exits 1."""
    from dualpolar import polar
    from dualpolar.polar import FormSpec, PolarGraph, build_polar_graph

    g = build_polar_graph(FormSpec("D", 3, 2))
    dist_0 = dense_oracle.bfs_distances(g.adjacency, [0])[0]
    y, z = (int(v) for v in np.flatnonzero(dist_0 == 2)[:2])
    assert not g.adjacency[y, z]
    adj = g.adjacency.copy()
    adj[y, z] = adj[z, y] = 1
    monkeypatch.setattr(polar, "load_graph",
                        lambda _: PolarGraph(g.spec, g.vertices, adj))
    capsys.readouterr()
    assert main(["verify", "--graph", "g.json", "--suite", "all"]) == 1
    out, err = capsys.readouterr()
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    assert sorted(checks) == sorted(ALL_IDS)
    assert sorted(c for c in checks if checks[c]["status"] == "fail") \
        == sorted(NEEDS_DRG)
    for cid in NEEDS_DRG:
        assert re.fullmatch(r"count \|G_\d\(x\) \^ G_1\(y\)\| at distance "
                            r"\d is not constant: pair \(\d+,\d+\) gives "
                            r"\d+, expected \d+", checks[cid]["witness"]), cid
    assert err == ""


def test_shifted_chi0_fails_modules_dimension(d32_file, capsys,
                                              monkeypatch):
    """A chi0 that moves one dual-endpoint candidate makes decompose raise
    a component that its certificate refuses: modules:dimension fails with
    the message as witness, and verify exits 1 without a traceback."""
    from dualpolar import terwilliger

    real = terwilliger.chi0

    def shifted(ctx, r, t, d):
        val = real(ctx, r, t, d)
        return val + 1 if (r, t, d) == (0, 0, 3) else val

    monkeypatch.setattr(terwilliger, "chi0", shifted)
    capsys.readouterr()
    assert main(["verify", "--graph", d32_file, "--suite", "modules"]) == 1
    out, err = capsys.readouterr()
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    assert checks["modules:dimension"]["status"] == "fail"
    assert checks["modules:dimension"]["witness"] == \
        "component (0, 0, 3) is not in the joint kernel"
    assert err == ""


@pytest.mark.parametrize("form,family,i", [
    ("module_intersection", 0, 0),       # c_0, which the ladder never reads
    ("module_intersection", 2, 3),       # b_3
    ("module_dual_intersection", 0, 1),  # c*_1
    ("module_dual_intersection", 2, 0),  # b*_0
], ids=["c0", "b3", "cstar1", "bstar0"])
def test_shifted_module_closed_form_fails_its_module(d32_file, capsys,
                                                     monkeypatch, form,
                                                     family, i):
    """An entry of the paper's module intersection numbers moved by 1 on
    W(0, 0, 3) fails modules:leonard:(0, 0, 3) alone, and the witness names
    the family and the index; the entries moved here are not read by the
    ladder matrices, so `decompose` still passes."""
    from dualpolar import terwilliger

    real = getattr(terwilliger, form)

    def shifted(ctx, r, t, d):
        out = [list(v) for v in real(ctx, r, t, d)]
        if (r, t, d) == (0, 0, 3):
            out[family][i] += 1
        return tuple(out)

    monkeypatch.setattr(terwilliger, form, shifted)
    capsys.readouterr()
    assert main(["verify", "--graph", d32_file, "--suite", "modules"]) == 1
    checks = {c["id"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    failed = [cid for cid, c in checks.items() if c["status"] == "fail"]
    assert failed == ["modules:leonard:(0, 0, 3)"]
    name = ("c", "a", "b")[family] + ("*" if "dual" in form else "")
    assert checks[failed[0]]["witness"] == \
        f"{name}_{i}(W) of (0, 0, 3) disagrees with the closed form"


def test_sampled_vertices_build_their_context(d32_file, capsys,
                                              monkeypatch):
    """Each sampled vertex is decomposed on its own context, checked by
    `build_context` like the base vertex's; that no context holds an n-wide
    matrix is `test_suite_creates_no_n_wide_matrix`."""
    from dualpolar import terwilliger

    calls = []
    real = terwilliger.build_context
    monkeypatch.setattr(terwilliger, "build_context",
                        lambda g, bm, x: calls.append(x) or real(g, bm, x))
    capsys.readouterr()
    assert main(["verify", "--graph", d32_file, "--suite", "modules",
                 "--base-vertex", "4", "--all-vertices-sample", "5"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    sampled = [c for c in checks if c["id"].startswith("modules:base-vertex")]
    assert len(sampled) == 5
    assert all(c["status"] == "pass" for c in sampled)
    assert calls == [4, 0, 6, 12, 18, 24]


def test_report_timing_survives_a_clock_step(d32_file, capsys, monkeypatch):
    """The wall clock set back an hour while `verify` runs, as NTP or a
    manual set can: the report's seconds come from a monotonic clock, so
    they stay non-negative."""
    from dualpolar import cli, terwilliger

    step = []
    wall, decompose = cli.time.time, terwilliger.decompose
    monkeypatch.setattr(cli.time, "time", lambda: wall() - sum(step))
    monkeypatch.setattr(terwilliger, "decompose",
                        lambda ctx: step.append(3600) or decompose(ctx))
    capsys.readouterr()
    assert main(["verify", "--graph", d32_file, "--suite", "modules"]) == 0
    assert step == [3600]
    assert 0 <= json.loads(capsys.readouterr().out)["timing"]["seconds"] < 60


@pytest.mark.parametrize("k,sampled", [(1, [1]), (2, [15, 1])])
def test_sample_on_the_grid_keeps_k_vertices(d32_file, capsys, k, sampled):
    """D_3(2) has 30 vertices, so base vertex 0 lies on the sample grid of
    k = 1 ({0}) and of k = 2 ({0, 15}): the lowest vertex off the grid takes
    its place, and k vertices are still sampled."""
    capsys.readouterr()
    assert main(["verify", "--graph", d32_file, "--suite", "modules",
                 "--all-vertices-sample", str(k)]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["id"] for c in checks if c["id"].startswith(
        "modules:base-vertex:")] == [f"modules:base-vertex:{x}"
                                     for x in sampled]


def test_sample_vertices_count_and_grid():
    """min(k, n - 1) distinct vertices other than the base, and, for a base
    off the grid 0, n//k, ..., the first k grid points, the ids the
    verify-modules benchmark workload expects."""
    from dualpolar.cli import _sample_vertices

    for n in range(1, 25):
        for k in range(1, n + 2):
            step = max(1, n // k)
            for base in range(n):
                got = _sample_vertices(n, k, base)
                assert len(set(got)) == len(got) == min(k, n - 1)
                assert base not in got and all(0 <= x < n for x in got)
                if base % step:
                    assert got == list(range(0, n, step))[:k]


@pytest.mark.parametrize("check", ["drg:intersection", "drg:multiplicities"])
def test_drg_failures_carry_a_witness(d32_file, capsys, monkeypatch, check):
    """a_1 of the closed form moved by 1: drg:intersection fails at i = 1
    with both triples.  m_D moved by 1: drg:multiplicities fails with
    sum m_i and |X|."""
    from dataclasses import replace

    from dualpolar import drg

    if check == "drg:intersection":
        real = drg.closed_form_intersection

        def shifted(spec):
            c, a, b = real(spec)
            return c, [a[0], a[1] + 1, *a[2:]], b

        monkeypatch.setattr(drg, "closed_form_intersection", shifted)
        # D_3(2): c_1 = 1, a_1 = 0, b_1 = 6
        want = {"i": 1, "closed_form": [1, 1, 6], "graph": [1, 0, 6]}
    else:
        real = drg.spectral_data

        def shifted(*args):
            bm = real(*args)
            return replace(bm, m=[*bm.m[:-1], bm.m[-1] + 1])

        monkeypatch.setattr(drg, "spectral_data", shifted)
        want = {"sum_m": 31, "vertices": 30}
    capsys.readouterr()
    assert main(["verify", "--graph", d32_file, "--suite", "drg"]) == 1
    checks = {c["id"]: c for c in json.loads(capsys.readouterr().out)[
        "checks"]}
    assert checks[check]["status"] == "fail"
    assert checks[check]["witness"] == want
    assert [c for c in checks if checks[c]["status"] == "fail"] == [check]


def _perturb_drg(monkeypatch, case):
    """Perturb one input of `spectral_data` on D_3(2) (c = 0, 1, 3, 7,
    a = 0, 0, 0, 0, b = 7, 6, 4, 0) as `case` names."""
    from dataclasses import replace
    from fractions import Fraction

    from dualpolar import drg, polar

    if case in ("k", "a_D"):
        real_data = drg.verify_distance_regular

        def moved(g):
            data = real_data(g)
            if case == "k":
                return replace(data, b=(data.b[0] + 1, *data.b[1:]))
            return replace(data, a=(*data.a[:-1], data.a[-1] + 1))

        monkeypatch.setattr(drg, "verify_distance_regular", moved)
    elif case == "e":
        real_load = polar.load_graph

        def relabelled(path):
            g = real_load(path)
            g.spec.e = Fraction(3)  # no form family has e = 3
            return g

        monkeypatch.setattr(polar, "load_graph", relabelled)
    elif case == "n":
        real_bm = drg.spectral_data
        monkeypatch.setattr(drg, "spectral_data",
                            lambda spec, n, data: real_bm(spec, n + 1, data))
    else:
        real_bm = drg.spectral_data
        h, i, j, value = {"negative": (0, 0, 0, -1), "vanish": (0, 0, 1, 1),
                          "not-vanish": (0, 0, 0, 0)}[case]

        def moved_krein(*args):
            bm = real_bm(*args)
            krein = bm.krein.copy()
            krein[h, i, j] = Fraction(value)
            return replace(bm, krein=krein)

        monkeypatch.setattr(drg, "spectral_data", moved_krein)


@pytest.mark.parametrize("case,check,witness", [
    ("k", "drg:multiplicities", "principal idempotent is not J/|X|"),
    ("a_D", "drg:multiplicities", "theta_i are not the roots of "
     "(x - a_D) v_D - b_(D-1) v_(D-1)"),
    ("e", "drg:multiplicities", "m_1 = 952/5 is not an integer"),
    ("n", "drg:multiplicities", "PQ != nI at (0, 0)"),
    ("negative", "drg:krein", "negative Krein parameter at (0, 0, 0)"),
    ("vanish", "drg:krein", "q^0_01 should vanish"),
    ("not-vanish", "drg:krein", "q^0_00 should not vanish"),
])
def test_spectral_refusals_are_witnesses(d32_file, capsys, monkeypatch,
                                         case, check, witness):
    """Each refusal of `spectral_data` and of the Krein pattern, reached
    from a perturbed intersection array, form parameter, vertex count or
    Krein parameter, fails its check with the refusal as witness."""
    _perturb_drg(monkeypatch, case)
    capsys.readouterr()
    assert main(["verify", "--graph", d32_file, "--suite", "drg"]) == 1
    checks = {c["id"]: c for c in json.loads(capsys.readouterr().out)[
        "checks"]}
    assert checks[check]["status"] == "fail"
    assert checks[check]["witness"] == witness


def _shifted(module, name, moved):
    """`module.name` with its result passed through `moved`."""
    real = getattr(module, name)
    return lambda *args: moved(real(*args))


@pytest.mark.parametrize("target,witnesses", [
    # phi_1 of the closed-form array moved by 1
    ("leonard.dqk_array", {
        cid: "module parameters disagree with the dual q-Krawtchouk closed "
        "forms" for cid in module_ids((0, 0, 3), (1, 1, 1), (2, 1, 1))}),
    # h of the standard-module parameters moved by 1
    ("uqsl2.dpg_uq_params", dict.fromkeys(
        UQ_IDS, "A recovery on the standard module fails")),
    # the diameter weight Lambda moved by 1 on every component
    ("terwilliger.casimir_scalar", {
        "modules:center-identities": "C1 displacement expression fails",
        **dict.fromkeys(UQ_IDS,
                        "Casimir does not equal the diameter weight")}),
])
def test_module_refusals_are_witnesses(d32_file, capsys, monkeypatch,
                                       target, witnesses):
    """A closed form behind the module and U_q(sl2) checks, moved: each
    check that reads it fails with its refusal as witness, and no other
    check fails."""
    from dataclasses import replace

    mod, name = target.split(".")
    module = importlib.import_module(f"dualpolar.{mod}")
    moved = {
        "dqk_array": lambda pa: replace(pa, phi=(pa.phi[0] + 1, *pa.phi[1:])),
        "dpg_uq_params": lambda p: {**p, "h": p["h"] + 1},
        "casimir_scalar": lambda lam: lam + 1,
    }[name]
    monkeypatch.setattr(module, name, _shifted(module, name, moved))
    capsys.readouterr()
    assert main(["verify", "--graph", d32_file, "--suite", "all"]) == 1
    checks = {c["id"]: c for c in json.loads(capsys.readouterr().out)[
        "checks"]}
    assert {cid: c["witness"] for cid, c in checks.items()
            if c["status"] == "fail"} == witnesses


def test_base_vertex_failure_names_the_triples(d32_file, capsys,
                                               monkeypatch):
    """A sampled decomposition with one multiplicity raised: the check at
    that vertex fails, naming the triple with its multiplicity at the base
    vertex and at the sampled one."""
    from dataclasses import replace

    from dualpolar import terwilliger

    real = terwilliger.decompose

    def raised(ctx):
        comps = real(ctx)
        return comps if ctx.x == 15 else [
            replace(c, mult=c.mult + 1) if c.triple == (2, 1, 1) else c
            for c in comps]

    monkeypatch.setattr(terwilliger, "decompose", raised)
    capsys.readouterr()
    # one sampled vertex, 0
    assert main(["verify", "--graph", d32_file, "--suite", "modules",
                 "--all-vertices-sample", "1", "--base-vertex", "15"]) == 1
    checks = {c["id"]: c for c in json.loads(capsys.readouterr().out)[
        "checks"]}
    mult = next(t[3] for t in checks["modules:dimension"]["witness"][
        "triples"] if t[:3] == [2, 1, 1])
    assert checks["modules:base-vertex:0"] == {
        "id": "modules:base-vertex:0",
        "statement": "feasible triple multiset agrees with the base run",
        "status": "fail", "witness": {"differ": [[2, 1, 1, mult, mult + 1]]}}


def test_base_vertex_certificate_failure_is_its_witness(d32_file, capsys,
                                                        monkeypatch):
    """One entry of rung 1 of (2, 1, 1) moved at vertex 0 alone: L no
    longer maps it to b_0 c_1 times rung 0, so the certified decomposition
    there fails, and only modules:base-vertex:0 reports it, with the
    ladder certificate's message as its witness.  The closed forms are
    read once per graph, so only the rungs can differ between vertices."""
    from dualpolar import terwilliger

    real = terwilliger._build_component

    def moved(ctx, r, t, d, low_rows):
        comp = real(ctx, r, t, d, low_rows)
        if (ctx.x, comp.triple) == (0, (2, 1, 1)):
            comp.rungs[1][0, 0] += 1
        return comp

    monkeypatch.setattr(terwilliger, "_build_component", moved)
    capsys.readouterr()
    assert main(["verify", "--graph", d32_file, "--suite", "modules",
                 "--all-vertices-sample", "1", "--base-vertex", "15"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["id"] for c in checks if c["status"] != "pass"] == [
        "modules:base-vertex:0"]
    assert checks[-1]["witness"] == (
        "L, F, R do not act on the raising ladder of component (2, 1, 1) by "
        "its intersection numbers")


@pytest.mark.parametrize("family,b", [("C", 2), ("C", 3), ("D", 2),
                                      ("2A_odd", 4), ("2A_even", 4)])
def test_central_suite_on_diameter_one(tmp_path, capsys, family, b):
    """D = 1 has no alpha_2 to perturb; alpha_1 is raised instead, which
    breaks commutation unless F = 0 (D_1(2))."""
    path = str(tmp_path / "g.json")
    assert main(["build", "--family", family, "--D", "1", "--b", str(b),
                 "--out", path]) == 0
    capsys.readouterr()
    assert main(["verify", "--graph", path, "--suite", "central"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summary"] == {"pass": 4, "fail": 0, "skipped": 0}


def test_verify_all_above_300_vertices(tmp_path, capsys):
    """C_2(7) has 400 vertices: every check runs, on the same path as on
    small graphs, and none is skipped."""
    path = str(tmp_path / "c27.json")
    assert main(["build", "--family", "C", "--D", "2", "--b", "7",
                 "--out", path]) == 0
    capsys.readouterr()
    assert main(["verify", "--graph", path, "--suite", "all",
                 "--base-vertex", "17"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summary"] == {"pass": len(report["checks"]), "fail": 0,
                                 "skipped": 0}
    assert sorted(c["id"] for c in report["checks"]) == sorted(
        ALL_IDS + module_ids((0, 0, 2), (1, 1, 0), (1, 1, 1), (2, 1, 0),
                             (2, 2, 0)))


def test_verify_all_on_a_field_order_with_a_square_factor(tmp_path, capsys):
    """D_2(8): q = sqrt(8) = 2 sqrt(2), where b is not square-free, so every
    scalar of the run lives in Q(sqrt 2); every check passes."""
    path = str(tmp_path / "d28.json")
    assert main(["build", "--family", "D", "--D", "2", "--b", "8",
                 "--out", path]) == 0
    capsys.readouterr()
    assert main(["verify", "--graph", path, "--suite", "all"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summary"] == {"pass": 29, "fail": 0, "skipped": 0}
    assert sorted(c["id"] for c in report["checks"]) == sorted(
        ALL_IDS + module_ids((0, 0, 2), (1, 1, 0), (2, 1, 0)))


VERIFY_DATA = os.path.join(os.path.dirname(__file__), "data", "verify")


# `verify --suite all` on D_3(2), and the verify-modules benchmark call on
# D_4(2).  Each of these two *.report.json was written by the implementation
# with n x n component projectors (commit 173fa5e), with its `timing` entry
# removed; since the report lists both U_q(sl2) variants, each also holds the
# uq:variant2 check and one more pass in its summary.  The other five cover
# the families with e = 1, 1/2, 2, 3/2 and 1 (C, B, 2D, 2A_odd, 2A_even),
# where the q-exponents of the block scalars differ from the D family's; they
# were written by the implementation with the n x n T-algebra context
# (commit 859bf79), with `timing` removed.  The base vertex 0 of b23-all lies
# on its sample grid {0, 20}, so vertex 1 takes its place in the sample.
GOLDEN_FIELD = {"b23-all": 3, "2aodd24-all": 4, "2aeven24-all": 4}  # else 2


@pytest.mark.parametrize("name,family,D,options", [
    ("d32-all", "D", 3, []),
    ("d42-modules", "D", 4, ["--base-vertex", "47",
                             "--all-vertices-sample", "3"]),
    ("c32-all", "C", 3, ["--all-vertices-sample", "2"]),
    ("b23-all", "B", 2, ["--all-vertices-sample", "2"]),
    ("2d22-all", "2D", 2, ["--all-vertices-sample", "2"]),
    ("2aodd24-all", "2A_odd", 2, ["--all-vertices-sample", "2"]),
    ("2aeven24-all", "2A_even", 2, ["--all-vertices-sample", "2"])])
def test_verify_report_matches_golden(tmp_path, capsys, monkeypatch, name,
                                      family, D, options):
    monkeypatch.chdir(tmp_path)
    b = GOLDEN_FIELD.get(name, 2)
    graph = f"{family.lower()}{D}{b}.json"
    assert main(["build", "--family", family, "--D", str(D), "--b", str(b),
                 "--out", graph]) == 0
    capsys.readouterr()
    assert main(["verify", "--graph", graph, "--suite", "all",
                 *options]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["timing"]
    with open(os.path.join(VERIFY_DATA, f"{name}.report.json")) as fh:
        assert json.dumps(report, indent=2) + "\n" == fh.read()


@pytest.mark.parametrize("name,family,D,options", [
    ("d32-all", "D", 3, []),
    ("c32-all", "C", 3, ["--all-vertices-sample", "2"])])
def test_golden_runs_certify_every_rref_with_one_prime(
        tmp_path, capsys, monkeypatch, name, family, D, options):
    """Every int_rref of these runs reduces mod one prime, reconstructs
    without CRT, is certified, and returns int64 rows.  More primes, or a
    detour through Python-int arrays, would leave the report unchanged, so
    only this test sees it."""
    per_rref, combined, dtypes = [], [], []

    def no_crt(*args):
        combined.append(args[0].shape)
        raise AssertionError(f"CRT on {args[0].shape}")

    real_mod, real_rref = intlinalg._mod_rref, intlinalg.int_rref
    reductions = []

    def counted_mod(mat, p):
        reductions.append(p)
        return real_mod(mat, p)

    def recorded(mat):
        before = len(reductions)
        got = real_rref(mat)
        per_rref.append(len(reductions) - before)
        dtypes.append(got[0].dtype)
        return got

    monkeypatch.setattr(intlinalg, "_mod_rref", counted_mod)
    monkeypatch.setattr(intlinalg, "_crt_combine", no_crt)
    monkeypatch.setattr(intlinalg, "int_rref", recorded)
    test_verify_report_matches_golden(tmp_path, capsys, monkeypatch, name,
                                      family, D, options)
    assert per_rref and set(per_rref) == {1} and combined == []
    assert set(dtypes) == {np.dtype(np.int64)}


LEONARD_ARRAY = {"q": "2", "d": 3, "h": "1", "h_star": "-2", "kappa": "1",
                 "kappa_star": "2", "upsilon": "5"}


LEONARD_TEXT = json.dumps(LEONARD_ARRAY)

# the explicit array of LEONARD_ARRAY (theta, theta_star, phi, phi2)
LEONARD_EXPLICIT = {
    "d": 3, "theta": ["77/8", "11/2", "23/2", "329/8"],
    "theta_star": ["14", "2", "-1", "-7/4"],
    "phi": ["-189/2", "-225/8", "-189/32"],
    "phi2": ["-945/2", "-1125/8", "-945/32"]}


@pytest.mark.parametrize("content,message", [
    ("[1, 2, 3]", None),
    ('{"theta": 5, "theta_star": 5, "phi": 5, "phi2": 5}', None),
    ('{"theta": ["0 + 1*sqrt(2)", "0 + 1*sqrt(3)"], "theta_star": ["0", "1"],'
     ' "phi": ["1"], "phi2": ["1"]}', None),
    (json.dumps({**LEONARD_ARRAY, "q": "0"}), "q must be nonzero"),
    (json.dumps({**LEONARD_ARRAY, "d": 2.5}), "'d' must be an integer"),
    (json.dumps({**LEONARD_ARRAY, "d": True}), "'d' must be an integer"),
    (json.dumps({**LEONARD_ARRAY, "d": "3"}), "'d' must be an integer"),
    (json.dumps({**LEONARD_ARRAY, "d": -1}), "'d' must be at least 0, got -1"),
    ('{"theta": [], "theta_star": [], "phi": [], "phi2": []}',
     "'theta' must have at least one entry"),
    (LEONARD_TEXT.replace('"h": "1"', '"h": 0.30000000000000001'),
     "'h' must be a string holding a scalar, got 0.3"),
    (LEONARD_TEXT.replace('"kappa": "1"', '"kappa": 1e0'),
     "'kappa' must be a string holding a scalar, got 1.0"),
    (json.dumps({**LEONARD_ARRAY, "upsilon": True}),
     "'upsilon' must be a string holding a scalar, got True"),
    (json.dumps({**LEONARD_ARRAY, "q": 2}),
     "'q' must be a string holding a scalar, got 2"),
    (json.dumps({**LEONARD_ARRAY, "h_star": "two"}),
     "'h_star' must be a string holding a scalar, got 'two'"),
    ('{"theta": ["1", 2], "theta_star": ["0", "1"], "phi": ["1"],'
     ' "phi2": ["1"]}', "'theta'[1] must be a string holding a scalar, got 2"),
    ('{"theta": ["1", "2"], "theta_star": ["0", "1"], "phi": [0.5],'
     ' "phi2": ["1"]}', "'phi'[0] must be a string holding a scalar, got 0.5"),
    (json.dumps({**LEONARD_EXPLICIT, "q": "2"}),
     "'q' next to 'theta': give an explicit array or dual q-Krawtchouk "
     "parameters, not both"),
    (json.dumps({**LEONARD_ARRAY, **LEONARD_EXPLICIT, "h": "3"}),
     "'q' next to 'theta': give an explicit array or dual q-Krawtchouk "
     "parameters, not both"),
    (json.dumps({**LEONARD_ARRAY, "kapa": "5"}), "unknown field 'kapa'"),
    (json.dumps({"d": 7, "theta": ["1", "2", "4"],
                 "theta_star": ["0", "1", "3"], "phi": ["1", "1"],
                 "phi2": ["1", "1"]}),
     "'d' is 7, but 'theta' has 3 entries"),
], ids=["list", "scalar-theta", "mixed-radicands", "q-zero", "d-float",
        "d-bool", "d-string", "d-negative", "theta-empty", "h-float",
        "kappa-float", "upsilon-bool", "q-integer", "h_star-word",
        "theta-integer-entry", "phi-float-entry", "explicit-with-q",
        "both-forms-disagreeing", "unknown-field", "explicit-d-contradicts"])
def test_malformed_parameter_array_is_input_error(tmp_path, capsys, content,
                                                  message):
    path = tmp_path / "array.json"
    path.write_text(content)
    assert main(["leonard", "--params", str(path)]) == 2
    err = capsys.readouterr().err
    assert "cannot load parameter array" in err
    if message:
        assert message in err


@pytest.mark.parametrize("field", [*LEONARD_ARRAY, "theta_star"])
def test_parameter_array_missing_field_is_named(tmp_path, capsys, field):
    """Every field of a dual q-Krawtchouk array, and of a general array
    (theta, theta_star, phi, phi2), is named when it is missing."""
    if field == "theta_star":
        data = {"theta": ["1", "2"], "phi": ["1"], "phi2": ["1"]}
    else:
        data = {k: v for k, v in LEONARD_ARRAY.items() if k != field}
    path = tmp_path / "array.json"
    path.write_text(json.dumps(data))
    assert main(["leonard", "--params", str(path)]) == 2
    assert capsys.readouterr().err == \
        f"error: cannot load parameter array: missing field {field!r}\n"


def test_unknown_leonard_action_is_input_error(tmp_path, capsys):
    path = tmp_path / "array.json"
    path.write_text(json.dumps(LEONARD_ARRAY))
    assert main(["leonard", "--params", str(path),
                 "--actions", "validate,realize"]) == 0
    capsys.readouterr()
    assert main(["leonard", "--params", str(path),
                 "--actions", "validat"]) == 2
    assert "'validat'" in capsys.readouterr().err


def test_negative_vertex_sample_is_input_error(d32_file, capsys, monkeypatch):
    from dualpolar import terwilliger

    calls = []
    monkeypatch.setattr(terwilliger, "decompose", _raiser(AssertionError(),
                                                          calls))
    assert main(["verify", "--graph", d32_file, "--suite", "modules",
                 "--all-vertices-sample", "-1"]) == 2
    assert "--all-vertices-sample" in capsys.readouterr().err
    assert calls == []


# Run the CLI in a fresh `python -O` interpreter, where `assert` statements
# are stripped, with gamma in drg.td_scalars shifted by one when asked.
_OPTIMIZED_DRG = """
import importlib.util, sys
import dualpolar
spec = importlib.util.find_spec("dualpolar.drg")
src = open(spec.origin).read()
line = "gamma = (b_pow(b, e) - 1) * (b - 1) / b"
if src.count(line) != 1:  # no assert: this runs under -O
    sys.exit("the gamma line of drg.td_scalars was not found")
if sys.argv[1] == "perturb":
    src = src.replace(line, line + " + 1")
mod = importlib.util.module_from_spec(spec)
sys.modules["dualpolar.drg"] = dualpolar.drg = mod
exec(compile(src, spec.origin, "exec"), mod.__dict__)
from dualpolar.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("mode,status", [("perturb", "fail"),
                                         ("keep", "pass")])
def test_td_scalars_fail_under_python_O(d32_file, mode, status):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(dualpolar.__file__))]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_DRG, mode, "verify",
         "--graph", d32_file, "--suite", "drg"],
        capture_output=True, text=True, env=env, timeout=300)
    report = json.loads(out.stdout)
    checks = {c["id"]: c for c in report["checks"]}
    assert checks["drg:td-scalars"]["status"] == status
    if status == "fail":
        assert checks["drg:td-scalars"]["witness"].startswith(
            "gamma fails its recurrence at i = ")
    others = [c for c in checks.values() if c["id"] != "drg:td-scalars"]
    assert all(c["status"] == "pass" for c in others)
    assert out.returncode == (1 if status == "fail" else 0)


def test_leonard_reads_sqrt8_as_2_sqrt2(tmp_path, capsys):
    """q written as sqrt(8) next to a kappa in 2 sqrt(2): one field, and the
    same report as with q written as 2 sqrt(2)."""
    outs = []
    for q in ("0 + 1*sqrt(8)", "0 + 2*sqrt(2)"):
        path = tmp_path / "array.json"
        path.write_text(json.dumps({**LEONARD_ARRAY, "q": q,
                                    "kappa": "0 + 2*sqrt(2)"}))
        capsys.readouterr()
        assert main(["leonard", "--params", str(path)]) == 0
        outs.append(json.loads(capsys.readouterr().out))
    assert outs[0]["checks"] == outs[1]["checks"]
    assert outs[0]["summary"] == {"pass": 10, "fail": 0, "skipped": 0}


def test_leonard_uq_refuses_a_moved_casimir_value(tmp_path, capsys,
                                                 monkeypatch):
    """The Casimir value of L(d, 1) moved by 1: leonard:uq fails with the
    Casimir refusal as witness, and only it."""
    from dualpolar import uqsl2

    monkeypatch.setattr(uqsl2, "casimir_scalar", _shifted(
        uqsl2, "casimir_scalar", lambda value: value + 1))
    path = tmp_path / "array.json"
    path.write_text(json.dumps(LEONARD_ARRAY))
    capsys.readouterr()
    assert main(["leonard", "--params", str(path)]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {c["id"]: c.get("witness") for c in checks
            if c["status"] == "fail"} == {
        "leonard:uq": "Casimir scalar mismatch"}


def test_leonard_realizes_each_basis_once(tmp_path, capsys, monkeypatch):
    from dualpolar import leonard

    calls = []
    real = leonard.realize
    monkeypatch.setattr(leonard, "realize",
                        lambda pa, basis: calls.append(basis)
                        or real(pa, basis))
    path = tmp_path / "array.json"
    path.write_text(json.dumps(LEONARD_ARRAY))
    assert main(["leonard", "--params", str(path)]) == 0
    assert sorted(calls) == ["normalized-split", "split", "standard"]
    calls.clear()
    assert main(["leonard", "--params", str(path),
                 "--actions", "scalars,uq"]) == 0
    assert sorted(calls) == ["normalized-split", "split"]


LEONARD_DATA = os.path.join(os.path.dirname(__file__), "data", "leonard")


# The reference array q = 2, d = 3 and the three arrays the leonard benchmark
# draws with seed 1.  Each *.report.json was written by the dense-projector
# implementation that preceded the rank-one path (commit d40e4b9), with its
# `timing` entry removed.
@pytest.mark.parametrize("name", ["ref-2-3", "dqk-sqrt3-8", "dqk-sqrt3-12",
                                  "dqk-2-16"])
def test_leonard_report_matches_golden(capsys, monkeypatch, name):
    monkeypatch.chdir(LEONARD_DATA)
    capsys.readouterr()
    assert main(["leonard", "--params", f"{name}.json"]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["timing"]
    with open(os.path.join(LEONARD_DATA, f"{name}.report.json")) as fh:
        assert json.dumps(report, indent=2) + "\n" == fh.read()


@pytest.mark.parametrize("name", ["dqk-sqrt3-8", "dqk-sqrt3-12",
                                  "dqk-2-16"])
def test_leonard_reduces_no_integer_matrix(capsys, monkeypatch, name):
    """The only inverses leonard takes are of B* = A* - h* in the
    normalized split basis, which is upper bidiagonal: back substitution,
    with no integer row reduction."""
    from dualpolar import intlinalg

    calls = []
    monkeypatch.setattr(intlinalg, "int_rref", _raiser(
        AssertionError("int_rref called"), calls))
    monkeypatch.chdir(LEONARD_DATA)
    capsys.readouterr()
    assert main(["leonard", "--params", f"{name}.json"]) == 0
    assert calls == []


def test_leonard_scalars_skipped_below_d3(tmp_path, capsys):
    """For d <= 2 the recurrences do not fix beta, so no scalars are
    checked and the report says so instead of passing."""
    path = tmp_path / "array.json"
    path.write_text(json.dumps({"q": "2", "d": 2, "h": "0", "h_star": "0",
                                "kappa": "1", "kappa_star": "1",
                                "upsilon": "3"}))
    capsys.readouterr()
    assert main(["leonard", "--params", str(path)]) == 0
    checks = {c["id"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    scalars = checks.pop("leonard:scalars")
    assert scalars["status"] == "skipped"
    assert "d >= 3" in scalars["statement"]
    assert all(c["status"] == "pass" for c in checks.values())


@pytest.mark.parametrize("name", ["omega", "eta", "eta_star", "rho",
                                  "rho_star"])
def test_leonard_scalars_fail_with_a_scalar_moved(tmp_path, capsys,
                                                  monkeypatch, name):
    """The Askey-Wilson equalities alone, without the two tridiagonal
    commutators, refuse every one of these scalars moved by 1."""
    import dataclasses

    from dualpolar import leonard

    real = leonard.td_aw_scalars

    def moved(pa):
        s = real(pa)
        return dataclasses.replace(s, **{name: getattr(s, name) + 1})

    monkeypatch.setattr(leonard, "td_aw_scalars", moved)
    path = tmp_path / "array.json"
    path.write_text(json.dumps(LEONARD_ARRAY))
    capsys.readouterr()
    assert main(["leonard", "--params", str(path)]) == 1
    checks = {c["id"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks.pop("leonard:scalars")["status"] == "fail"
    assert all(c["status"] == "pass" for c in checks.values())


def test_leonard_computes_intersection_data_once(tmp_path, capsys,
                                                 monkeypatch):
    from dualpolar import leonard

    calls = []
    real = leonard.intersection_data
    monkeypatch.setattr(leonard, "intersection_data",
                        lambda pa: calls.append(pa) or real(pa))
    path = tmp_path / "array.json"
    path.write_text(json.dumps(LEONARD_ARRAY))
    assert main(["leonard", "--params", str(path)]) == 0
    assert len(calls) == 1


def test_leonard_validates_the_array_once(tmp_path, capsys, monkeypatch):
    """The CLI, the three realizations and td_aw_scalars read one verdict,
    kept on the parameter array."""
    from dualpolar import leonard

    calls = []
    real = leonard.validate
    monkeypatch.setattr(leonard, "validate",
                        lambda pa: calls.append(pa) or real(pa))
    path = tmp_path / "array.json"
    path.write_text(json.dumps(LEONARD_ARRAY))
    assert main(["leonard", "--params", str(path)]) == 0
    assert len(calls) == 1
    # a failing verdict is reported once too
    calls.clear()
    path.write_text(json.dumps({"theta": ["1", "1"], "theta_star": ["0", "2"],
                                "phi": ["1"], "phi2": ["1"]}))
    capsys.readouterr()
    assert main(["leonard", "--params", str(path)]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["status"] for c in checks] == ["fail"]
    assert len(calls) == 1
