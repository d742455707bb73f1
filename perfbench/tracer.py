"""In-memory spans and counters around the public functions of `dualpolar`.

The tracer wraps functions from outside the package: `install` replaces a
function in every `dualpolar` module that holds a reference to it, so a
wrapper is reached however the caller looks the name up (module attribute,
`from .x import f` at import time, or a function-local import).  Nothing
under `src/` is edited.

A span is (name, start, end, parent index).  Spans nest on one stack, so a
span's self time is its duration minus the durations of its direct children,
and the self times of all spans sum to the duration of the root span.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

MODULES = ("cli", "drg", "exact", "gf", "intlinalg", "leonard", "linexact",
           "polar", "terwilliger", "uqsl2")

# (module, attribute, span name): functions timed as spans.  Several entries
# may share a span name; the metric then sums them.  A function named in its
# defining module is wrapped in every module that imported it; one named in
# an importing module (spectral_projectors in drg) is wrapped there only, so
# its callers elsewhere (leonard) are not counted under that name.
SPANS = (
    ("cli", "cmd_build", "cli.cmd"),
    ("cli", "cmd_verify", "cli.cmd"),
    ("cli", "cmd_leonard", "cli.cmd"),
    ("polar", "enumerate_maximal_isotropic", "polar.enumerate"),
    ("polar", "build_polar_graph", "polar.build_graph"),
    ("polar", "save_graph", "polar.save"),
    ("polar", "load_graph", "polar.load"),
    ("drg", "verify_distance_regular", "drg.verify_distance_regular"),
    ("drg", "spectral_data", "drg.spectral_data"),
    ("drg", "krein_parameters", "drg.krein_parameters"),
    ("drg", "spectral_projectors", "drg.spectral_projectors"),
    ("linexact", "_mm", "linexact.matmul"),
    ("linexact", "rref", "linexact.rref"),
    ("linexact", "kernel", "linexact.kernel"),
    ("linexact", "inverse", "linexact.inverse"),
    ("intlinalg", "int_rref", "intlinalg.int_rref"),
    ("intlinalg", "int_kernel", "intlinalg.int_kernel"),
    ("intlinalg", "int_inverse", "intlinalg.int_inverse"),
    ("intlinalg", "int_rank", "intlinalg.int_rank"),
    ("terwilliger", "build_context", "terwilliger.build_context"),
    ("terwilliger", "verify_lfrk", "terwilliger.lfrk"),
    ("terwilliger", "verify_lfrk_recovery", "terwilliger.lfrk"),
    ("terwilliger", "verify_lrf_commutations", "terwilliger.lfrk"),
    ("terwilliger", "verify_tridiagonal_relations", "terwilliger.lfrk"),
    ("terwilliger", "central_elements", "terwilliger.central_elements"),
    ("terwilliger", "verify_omega_entry_table", "terwilliger.central_checks"),
    ("terwilliger", "verify_g_entry_table", "terwilliger.central_checks"),
    ("terwilliger", "central_characterization_matrix",
     "terwilliger.central_checks"),
    ("terwilliger", "decompose", "terwilliger.decompose"),
    ("terwilliger", "upsilon_psi_lambda", "terwilliger.center"),
    ("terwilliger", "verify_center_identities", "terwilliger.center"),
    ("terwilliger", "verify_center_commutation", "terwilliger.center"),
    ("terwilliger", "extract_module", "terwilliger.extract_module"),
    ("leonard", "leonard_from_tmodule", "leonard.leonard_from_tmodule"),
    ("leonard", "validate", "leonard.validate"),
    ("leonard", "realize", "leonard.realize"),
    ("leonard", "extract_from_realization", "leonard.extract"),
    ("leonard", "d4_transform", "leonard.d4"),
    ("leonard", "td_aw_scalars", "leonard.td_aw"),
    ("leonard", "verify_td_aw_matrix", "leonard.td_aw"),
    ("uqsl2", "uq_on_leonard", "uqsl2.uq_on_leonard"),
    ("uqsl2", "verify_cross_variant_leonard", "uqsl2.cross_variant_leonard"),
    ("uqsl2", "uq_on_standard_module", "uqsl2.uq_on_standard_module"),
    ("uqsl2", "verify_cross_variant_standard",
     "uqsl2.cross_variant_standard"),
)

# (module, class, methods, counter): methods counted but not timed; they are
# called millions of times and a span each would dominate the run.
COUNTED = (
    ("gf", "FieldSpec", ("add", "sub", "mul", "inv", "frobenius"),
     "gf.field_op_calls"),
    ("exact", "ExactScalar",
     ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
      "__rmul__", "inverse", "__truediv__", "__rtruediv__", "__pow__"),
     "exact.scalar_op_calls"),
)


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.decomposed: list = []  # contexts already decomposed (kept alive)
        self._undo: list = []

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def totals(self) -> tuple[dict, dict]:
        """(inclusive seconds of outermost spans, self seconds) per name."""
        incl: dict[str, float] = {}
        own: dict[str, float] = {}
        selfs = self.self_times()
        for i, name in enumerate(self.names):
            own[name] = own.get(name, 0.0) + selfs[i]
            p = self.parent[i]
            while p >= 0 and self.names[p] != name:
                p = self.parent[p]
            if p < 0:
                incl[name] = incl.get(name, 0.0) + self.end[i] - self.start[i]
        return incl, own

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"spans": [[n, s, e, p] for n, s, e, p in zip(
                self.names, self.start, self.end, self.parent)]}, fh)

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, fn, name):
        tracer = self
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(tracer, args, kwargs, out)
            return out

        return wrapper

    def _count_wrapper(self, fn, key):
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def install(self):
        """Wrap every target wherever a `dualpolar` module refers to it."""
        mods = {m: importlib.import_module(f"dualpolar.{m}") for m in MODULES}
        for mod, attr, name in SPANS:
            fn = getattr(mods[mod], attr)
            wrapped = self._span_wrapper(fn, name)
            home = fn.__module__ == mods[mod].__name__
            for other in (mods.values() if home else (mods[mod],)):
                for key, val in list(vars(other).items()):
                    if val is fn:
                        self._undo.append((other, key, val))
                        setattr(other, key, wrapped)
        em = mods["linexact"].ExactMatrix
        self._undo.append((em, "__matmul__", em.__matmul__))
        em.__matmul__ = self._matmul_den_wrapper(em.__matmul__)
        for mod, cls_name, methods, key in COUNTED:
            cls = getattr(mods[mod], cls_name)
            for meth in methods:
                fn = cls.__dict__[meth]
                self._undo.append((cls, meth, fn))
                setattr(cls, meth, self._count_wrapper(fn, key))

    def _matmul_den_wrapper(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(a, b):
            out = fn(a, b)
            bits = out.den.bit_length()
            if bits > counts.get("linexact.max_den_bits", 0):
                counts["linexact.max_den_bits"] = bits
            return out

        return wrapper

    def uninstall(self):
        for owner, key, val in reversed(self._undo):
            setattr(owner, key, val)
        self._undo.clear()


def _mm_hook(tracer, args, kwargs, out):
    """Kernel counters of one integer product (None operands mean zero)."""
    a, b = args
    if out is None:
        return
    m, k = a.shape
    n = b.shape[1]
    tracer.count("linexact.matmul_calls")
    if out.dtype == object:
        tracer.count("linexact.matmul_object_calls")
    tracer.count("linexact.matmul_ops", 2 * m * k * n)
    tracer.count("linexact.matmul_bytes", a.nbytes + b.nbytes + out.nbytes)


def _decompose_hook(tracer, args, kwargs, out):
    ctx = args[0] if args else kwargs["ctx"]
    tracer.count("terwilliger.decompose_calls")
    tracer.count("terwilliger.components", len(out))
    if any(c is ctx for c in tracer.decomposed):
        tracer.count("terwilliger.decompose_repeat_calls")
    else:
        tracer.decomposed.append(ctx)


def _graph_hook(tracer, args, kwargs, out):
    tracer.count("polar.vertices", out.n_vertices)


def _intlinalg_hook(tracer, args, kwargs, out):
    tracer.count("intlinalg.calls")


_HOOKS = {
    "linexact.matmul": _mm_hook,
    "terwilliger.decompose": _decompose_hook,
    "polar.build_graph": _graph_hook,
    "intlinalg.int_rref": _intlinalg_hook,
    "intlinalg.int_kernel": _intlinalg_hook,
    "intlinalg.int_inverse": _intlinalg_hook,
    "intlinalg.int_rank": _intlinalg_hook,
}

# per-layer metric -> (kind, source): "incl"/"self" read span totals,
# "count" reads a counter.
LAYER_METRICS = {
    "polar.enumerate_s": ("incl", "polar.enumerate"),
    "gf.field_op_calls": ("count", "gf.field_op_calls"),
    "polar.build_graph_s": ("self", "polar.build_graph"),
    "polar.save_s": ("incl", "polar.save"),
    "polar.load_s": ("incl", "polar.load"),
    "polar.vertices": ("count", "polar.vertices"),
    "drg.verify_distance_regular_s": ("incl", "drg.verify_distance_regular"),
    "drg.spectral_data_s": ("self", "drg.spectral_data"),
    "drg.spectral_projectors_s": ("incl", "drg.spectral_projectors"),
    "drg.krein_parameters_s": ("incl", "drg.krein_parameters"),
    "linexact.matmul_calls": ("count", "linexact.matmul_calls"),
    "linexact.matmul_s": ("incl", "linexact.matmul"),
    "linexact.matmul_object_calls": ("count", "linexact.matmul_object_calls"),
    "linexact.matmul_ops": ("count", "linexact.matmul_ops"),
    "linexact.matmul_bytes": ("count", "linexact.matmul_bytes"),
    "linexact.max_den_bits": ("count", "linexact.max_den_bits"),
    "linexact.rref_s": ("incl", "linexact.rref"),
    "linexact.kernel_s": ("incl", "linexact.kernel"),
    "linexact.inverse_s": ("incl", "linexact.inverse"),
    "intlinalg.int_rref_s": ("incl", "intlinalg.int_rref"),
    "intlinalg.int_kernel_s": ("incl", "intlinalg.int_kernel"),
    "intlinalg.calls": ("count", "intlinalg.calls"),
    "terwilliger.build_context_s": ("incl", "terwilliger.build_context"),
    "terwilliger.lfrk_s": ("incl", "terwilliger.lfrk"),
    "terwilliger.central_elements_s": ("incl",
                                       "terwilliger.central_elements"),
    "terwilliger.central_checks_s": ("incl", "terwilliger.central_checks"),
    "terwilliger.decompose_s": ("incl", "terwilliger.decompose"),
    "terwilliger.decompose_calls": ("count", "terwilliger.decompose_calls"),
    "terwilliger.decompose_repeat_calls": (
        "count", "terwilliger.decompose_repeat_calls"),
    "terwilliger.center_s": ("incl", "terwilliger.center"),
    "terwilliger.extract_module_s": ("incl", "terwilliger.extract_module"),
    "terwilliger.components": ("count", "terwilliger.components"),
    "leonard.leonard_from_tmodule_s": ("incl",
                                       "leonard.leonard_from_tmodule"),
    "uqsl2.uq_on_standard_module_s": ("incl",
                                      "uqsl2.uq_on_standard_module"),
    "uqsl2.cross_variant_standard_s": ("incl",
                                       "uqsl2.cross_variant_standard"),
    "leonard.validate_s": ("incl", "leonard.validate"),
    "leonard.realize_s": ("incl", "leonard.realize"),
    "leonard.extract_s": ("incl", "leonard.extract"),
    "leonard.d4_s": ("incl", "leonard.d4"),
    "leonard.td_aw_s": ("incl", "leonard.td_aw"),
    "uqsl2.uq_on_leonard_s": ("incl", "uqsl2.uq_on_leonard"),
    "uqsl2.cross_variant_leonard_s": ("incl", "uqsl2.cross_variant_leonard"),
    "exact.scalar_op_calls": ("count", "exact.scalar_op_calls"),
    "cli.self_s": ("self", "cli.cmd"),
}


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric the tracer measures (0 where a layer idles)."""
    incl, own = tracer.totals()
    out = {}
    for metric, (kind, src) in LAYER_METRICS.items():
        if kind == "count":
            out[metric] = tracer.counts.get(src, 0)
        else:
            out[metric] = (incl if kind == "incl" else own).get(src, 0.0)
    calls = out["linexact.matmul_calls"]
    out["linexact.object_fallback_ratio"] = (
        out["linexact.matmul_object_calls"] / calls if calls else 0.0)
    return out
