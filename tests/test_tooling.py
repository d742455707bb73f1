"""Names looked up from outside the package must exist: the benchmark
tracer wraps `dualpolar` functions by name, and `dualpolar.__all__` lists
the public exports."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
