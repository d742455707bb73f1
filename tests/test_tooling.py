"""Names looked up from outside the package must exist: the benchmark
tracer wraps `dualpolar` functions by name, and `dualpolar.__all__` lists
the public exports.  And the package holds no `assert` statement."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

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
    import dualpolar

    for name in dualpolar.__all__:
        assert hasattr(dualpolar, name), name


def test_no_assert_statement_in_package():
    """`python -O` strips `assert`, so a certificate that used one would
    pass whatever it checks; certificates raise AssertionError instead."""
    found = []
    for path in sorted((ROOT / "src" / "dualpolar").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
