"""Names looked up from outside the package must exist: the benchmark
tracer wraps `dualpolar` functions by name, and `dualpolar.__all__` lists
the public exports.  The package holds no `assert` statement and no
helper without a use.  And a CLI call imports only the submodules its
subcommand runs."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dualpolar

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_resolve(tracer):
    for mod, attr, _ in tracer.SPANS:
        assert mod in tracer.MODULES
        module = importlib.import_module(f"dualpolar.{mod}")
        assert callable(getattr(module, attr, None)), f"{mod}.{attr}"


def test_counted_methods_resolve(tracer):
    for mod, cls_name, methods, _ in tracer.COUNTED:
        cls = getattr(importlib.import_module(f"dualpolar.{mod}"), cls_name)
        for meth in methods:
            # the tracer replaces the method in the class's own namespace
            assert meth in cls.__dict__, f"{mod}.{cls_name}.{meth}"


def test_package_exports_resolve():
    for name in dualpolar.__all__:
        assert hasattr(dualpolar, name), name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        dualpolar.no_such_name


# Print the dualpolar submodules loaded after `import dualpolar` and, with
# arguments, after one CLI call with its output discarded.
_FOOTPRINT = """
import contextlib, io, json, sys
import dualpolar
if sys.argv[1:]:
    from dualpolar.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(sys.argv[1:])
    if rc:
        sys.exit(f"exit code {rc}")
print(json.dumps(sorted(m for m in sys.modules if m.startswith("dualpolar."))))
"""


def _fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's
    `dualpolar` and writes no cached bytecode."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(dualpolar.__file__))]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


# modules no call of the subcommand needs, at any input
_NOT_LOADED = {
    "import": ["cli", "drg", "exact", "gf", "intarith", "intlinalg",
               "leonard", "linexact", "polar", "terwilliger", "uqsl2"],
    "build": ["drg", "exact", "intlinalg", "leonard", "linexact",
              "terwilliger", "uqsl2"],
    "leonard": ["drg", "gf", "intlinalg", "polar", "terwilliger"],
}


@pytest.mark.parametrize("command", list(_NOT_LOADED))
def test_cli_call_imports_only_what_it_runs(tmp_path, command):
    """Each call runs in a fresh interpreter and, without cached bytecode,
    compiles every module it imports: `build` must not pay for the
    T-algebra, the eliminations or the exact scalars, nor `leonard` for
    the graph layer or the eliminations."""
    argv = []
    if command == "build":
        argv = ["build", "--family", "D", "--D", "3", "--b", "2",
                "--out", str(tmp_path / "d32.json")]
    elif command == "leonard":
        path = tmp_path / "array.json"
        path.write_text(json.dumps({"q": "2", "d": 4, "h": "1",
                                    "h_star": "-2", "kappa": "1",
                                    "kappa_star": "2", "upsilon": "5"}))
        argv = ["leonard", "--params", str(path)]
    out = subprocess.run([sys.executable, "-c", _FOOTPRINT, *argv],
                         capture_output=True, text=True, env=_fresh_env(),
                         timeout=120)
    assert out.returncode == 0, out.stderr
    loaded = {m.removeprefix("dualpolar.") for m in json.loads(out.stdout)}
    assert sorted(loaded & set(_NOT_LOADED[command])) == []


def test_no_assert_statement_in_package():
    """`python -O` strips `assert`, so a certificate that used one would
    pass whatever it checks; certificates raise AssertionError instead."""
    found = []
    for path in sorted((ROOT / "src" / "dualpolar").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _strings(tree) -> list[str]:
    """Every string literal of a module, with implicitly concatenated
    pieces joined (the parser does that), and the constant parts of each
    f-string."""
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)]


def test_every_refusal_is_named_by_a_test():
    """Each `raise AssertionError(...)` of the package carries a literal
    message of at least 12 characters (for an f-string, its longest
    constant part) that some test module holds in a string: a refusal
    that no test reaches or names is either implied by an earlier
    certificate and can go, or still needs its test."""
    named = "\n".join(
        text for path in sorted((ROOT / "tests").rglob("*.py"))
        for text in _strings(ast.parse(path.read_text())))
    unnamed = []
    for path in sorted((ROOT / "src" / "dualpolar").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Raise)
                    and isinstance(node.exc, ast.Call) and getattr(
                        node.exc.func, "id", None) == "AssertionError"):
                continue
            fragment = max(_strings(node.exc) or [""], key=len)
            if len(fragment) < 12 or fragment not in named:
                unnamed.append(f"{path.name}:{node.lineno} {fragment!r}")
    assert unnamed == []


def test_no_dead_helper_in_package(tracer):
    """Every top-level function and class of the package is referenced by
    name somewhere in the package, and every method is read as an attribute
    there or named inside its own class body (as `cached_property(f)`
    does), unless it is a dunder, a public export, or a name the tracer
    wraps.  An import alone is not a use, and neither is a bare name
    elsewhere: a builtin `pow` does not keep a method `pow`."""
    defined, names, attrs = [], set(), set()
    for path in sorted((ROOT / "src" / "dualpolar").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                # None: a bare name anywhere in the package uses it
                defined.append((f"{path.stem}.{node.name}", node.name, None))
            if isinstance(node, ast.ClassDef):
                own = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                defined += [(f"{path.stem}.{node.name}.{m.name}", m.name, own)
                            for m in node.body
                            if isinstance(m, ast.FunctionDef)]
        names |= {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)}
        attrs |= {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
    kept = {attr for _, attr, _ in tracer.SPANS} | set(dualpolar.__all__)
    kept |= {m for _, _, methods, _ in tracer.COUNTED for m in methods}
    dead = [where for where, name, own in defined
            if name not in attrs | (names if own is None else own)
            and name not in kept and not re.fullmatch("__.*__", name)]
    assert dead == []


# `intlinalg` finds its primes on first use: the import searches for none,
# and an elimination that one prime certifies finds that one prime.
_LAZY_PRIMES = """
import json
from dualpolar import intarith
calls = []
is_prime = intarith.is_prime
intarith.is_prime = lambda n: calls.append(n) or is_prime(n)
from dualpolar import intlinalg
found = [len(calls), list(intlinalg._PRIMES)]
intlinalg.int_rref(intlinalg.as_int_array([[2, 4, 1], [3, 1, 5]]))
print(json.dumps(found + [intlinalg._PRIMES]))
"""


def test_intlinalg_finds_its_primes_on_first_use():
    out = subprocess.run([sys.executable, "-c", _LAZY_PRIMES],
                         capture_output=True, text=True, env=_fresh_env(),
                         timeout=120)
    assert out.returncode == 0, out.stderr
    calls, at_import, after = json.loads(out.stdout)
    assert (calls, at_import, after) == (0, [], [2 ** 23 - 15])


# ExactMatrix constructions and int_matmul calls of one CLI call.  The
# parent of the fused-combination kernel made 978 and 176 (leonard) and
# 2422 and 814 (verify); with the Casimir centrality and tridiagonal
# commutator products, which the checks after them imply, it was 474 and
# 164, and 1151 and 509.  With one Leonard certificate per module, in
# `extract_module`, verify went from 1020 and 451 to 907 and 409, and with
# the Omega and G entry tables read from word coefficients, to 891 and 409,
# and with `decompose` proved by its final certificate alone, to 885 and 403.
# Without the Chevalley residuals, which the equitable relations imply, and
# the A* recovery in `uq_on_leonard`, which holds by the definition of Z,
# leonard made 436 and 136 and verify 831 and 367, and with the top block
# of `decompose` certified by counts and traces, verify made 829 and 366,
# and without the standard-module A* recovery and Chevalley images, which
# hold by the definitions of x, y and z, 805 and 360, and with the rungs of
# `decompose` held and checked as integer arrays, 737 and 360, and with
# each small tridiagonal matrix built as one `ExactMatrix.tridiagonal`,
# leonard 428 and 136 and verify 689 and 360.
# A rise means a temporary crept back in.  `build` on D_3(2) makes three
# products: the two rows of the GF(2) multiplication table and the perp
# matrix of its 35 points, and no n x n one.  `verify` with two sampled
# base vertices made 853 and 472 while each vertex built its own closed
# forms and ladder matrices, and 709 and 424 with them shared by the three
# contexts: a sampled vertex builds no ladder matrix and evaluates no word.
# With each module's Leonard system certified on its ladder matrices by
# `certify_leonard_system`, with no standard or dual standard basis built,
# verify made 677 and 360, and verify-sampled 697 and 424.  Each count runs
# in a fresh interpreter, after the same calls: counted in the test process,
# verify-sampled made 418 or 424 products by test order, as an earlier call
# fills caches such as the GF multiplication table.  `verify` is counted
# after the `build` that writes its graph, which fills that table (two
# products of a cold `verify`).
_KERNEL_CEILINGS = {"build": (0, 3), "leonard": (428, 136),
                    "verify": (677, 360), "verify-sampled": (697, 424)}

# Run the CLI calls of the JSON list argv[2], their output discarded, and
# print the ExactMatrix constructions, the int_matmul calls and the shape of
# each product of the last one; argv[1] names the modules whose int_matmul
# bindings are counted.
_KERNEL_COUNTS = """
import contextlib, importlib, io, json, sys
from dualpolar import intarith, linexact
from dualpolar.cli import main
*before, argv = json.loads(sys.argv[2])
with contextlib.redirect_stdout(io.StringIO()):
    if any(main(call) for call in before):
        sys.exit("a call before the counted one failed")
counts, shapes = [0, 0], []
init, mm = linexact.ExactMatrix.__init__, intarith.int_matmul
def counted_init(self, *args, **kwargs):
    counts[0] += 1
    init(self, *args, **kwargs)
def counted_mm(*args, **kwargs):
    counts[1] += 1
    out = mm(*args, **kwargs)
    shapes.append(out.shape)
    return out
linexact.ExactMatrix.__init__ = counted_init
for name in sys.argv[1].split(","):
    module = importlib.import_module("dualpolar." + name)
    for key, val in list(vars(module).items()):
        if val is mm:
            setattr(module, key, counted_mm)
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(argv)
if rc:
    sys.exit(f"exit code {rc}")
print(json.dumps([*counts, shapes]))
"""


@pytest.mark.parametrize("command", sorted(_KERNEL_CEILINGS))
def test_exact_kernel_call_counts(tmp_path, command):
    if command == "leonard":
        path = tmp_path / "array.json"
        path.write_text(json.dumps({"q": "2", "d": 4, "h": "1",
                                    "h_star": "-2", "kappa": "1",
                                    "kappa_star": "2", "upsilon": "5"}))
        calls = [["leonard", "--params", str(path)]]
    else:
        path = str(tmp_path / "d32.json")
        calls = [["build", "--family", "D", "--D", "3", "--b", "2",
                  "--out", path]]
        if command != "build":
            calls.append(["verify", "--graph", path, "--suite", "all"])
        if command == "verify-sampled":
            calls[-1] += ["--all-vertices-sample", "2"]
    out = subprocess.run(
        [sys.executable, "-c", _KERNEL_COUNTS,
         ",".join(_NOT_LOADED["import"]), json.dumps(calls)],
        capture_output=True, text=True, env=_fresh_env(), timeout=300)
    assert out.returncode == 0, out.stderr
    constructions, products, shapes = json.loads(out.stdout)
    ceiling = _KERNEL_CEILINGS[command]
    assert constructions <= ceiling[0] and products <= ceiling[1], \
        (constructions, products)
    if command == "build":  # D_3(2) has 30 vertices
        assert [30, 30] not in shapes, shapes


def test_build_constructs_one_point_table(tmp_path, capsys, monkeypatch):
    """Enumeration and the codim matrix of one `build` share its point
    table."""
    from dualpolar import polar
    from dualpolar.cli import main

    built = []
    table = polar._PointTable
    monkeypatch.setattr(polar, "_PointTable",
                        lambda spec: built.append(spec) or table(spec))
    assert main(["build", "--family", "C", "--D", "2", "--b", "3",
                 "--out", str(tmp_path / "c23.json")]) == 0
    capsys.readouterr()
    assert len(built) == 1


def test_benchmark_self_test_passes():
    """perfbench/smoke.py runs the benchmark on its small workload and
    checks its output, so a package change that breaks the harness or its
    output checks fails here."""
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.splitlines()[-1] == "smoke: ok"
