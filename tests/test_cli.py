"""The command line end to end on D_3(2): build, verify, and bad input."""

import importlib
import json

import pytest

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

# every check `verify --suite all` reports on a graph of at most 300
# vertices, with the homogeneous components (r, t, d) of D_3(2)
D32_IDS = [
    "drg:counts", "drg:intersection", "drg:multiplicities",
    "drg:dual-eigenvalues", "drg:krein", "drg:td-scalars",
    *LFRK_IDS, "lfrk:recovery", "lfrk:commuting", "lfrk:tridiagonal",
    "central:construction", "central:omega-entries", "central:g-entries",
    "central:characterization", "modules:dimension",
    "modules:center-commute", "modules:center-identities",
    "modules:leonard:(0, 0, 3)", "modules:leonard:(1, 1, 1)",
    "modules:leonard:(2, 1, 1)", "uq:variant1", "uq:cross-variant",
]


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


@pytest.fixture(scope="module")
def c23_data(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "c23.json")
    assert main(["build", "--family", "C", "--D", "2", "--b", "3",
                 "--out", path]) == 0
    with open(path) as fh:
        return json.load(fh)


@pytest.mark.parametrize("defect", ["coordinate", "truncated", "duplicate",
                                    "missing"])
def test_malformed_graph_is_input_error(c23_data, tmp_path, capsys, defect):
    data = json.loads(json.dumps(c23_data))
    verts = data["vertices"]
    if defect == "coordinate":
        verts[0] = "f" + verts[0][1:]  # 15 is not in GF(3)
    elif defect == "truncated":
        verts[0] = verts[0][:-1]
    elif defect == "duplicate":
        verts[1] = verts[0]
    else:  # still connected, with distance = codim, but not all of C_2(3)
        verts.pop()
        data["adjacency"].pop()
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "--graph", str(path), "--suite", "drg"]) == 2
    assert "cannot load graph" in capsys.readouterr().err


@pytest.mark.parametrize("suite,ids", [
    ("all", D32_IDS), ("uq", ["uq:variant1", "uq:cross-variant"])])
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
        NotDistanceRegularError(1, 1, 1, 3, 4, 2, 5),
        ["drg:counts", "drg:intersection"]),
    "terwilliger.central_elements": (
        AssertionError("G* vs C0 expression fails"),
        ["central:construction", "central:omega-entries",
         "central:g-entries", "modules:dimension", "modules:center-commute",
         "modules:center-identities", "uq:variant1", "uq:cross-variant"]),
    "terwilliger.decompose": (
        AssertionError("components are not pairwise orthogonal"),
        ["modules:dimension", "modules:center-commute",
         "modules:center-identities", "uq:variant1", "uq:cross-variant"]),
    "uqsl2.uq_on_standard_module": (
        AssertionError("Chevalley images in K, L, R fail"),
        ["uq:variant1", "uq:cross-variant"]),
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
    assert len(calls) == 1  # a failed stage is not rebuilt for each check


LEONARD_ARRAY = {"q": "2", "d": 3, "h": "1", "h_star": "-2", "kappa": "1",
                 "kappa_star": "2", "upsilon": "5"}


@pytest.mark.parametrize("content", [
    "[1, 2, 3]",
    '{"theta": 5, "theta_star": 5, "phi": 5, "phi2": 5}',
    '{"theta": ["0 + 1*sqrt(2)", "0 + 1*sqrt(3)"], "theta_star": ["0", "1"],'
    ' "phi": ["1"], "phi2": ["1"]}',
    json.dumps({**LEONARD_ARRAY, "q": "0"}),
], ids=["list", "scalar-theta", "mixed-radicands", "q-zero"])
def test_malformed_parameter_array_is_input_error(tmp_path, capsys, content):
    path = tmp_path / "array.json"
    path.write_text(content)
    assert main(["leonard", "--params", str(path)]) == 2
    assert "cannot load parameter array" in capsys.readouterr().err


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
