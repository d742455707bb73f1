"""Exact-arithmetic dual polar graphs, their subconstituent algebras,
Leonard systems of dual q-Krawtchouk type, and U_q(sl2) module structures.

Everything is computed over Q or Q(sqrt(b)) with certified exact linear
algebra.  Floating point appears in one place, the integer products of
`intarith.int_matmul`, and only where a bound proves the result exact: with
inner dimension k, every partial sum of an entry is an integer of absolute
value at most B = k * max|a| * max|b|, so float32 BLAS is used for B < 2^24
and float64 BLAS for B < 2^53; larger products run in int64 or Python ints.

The public names in `__all__` resolve on first access (PEP 562): `import
dualpolar` loads no submodule, and `from dualpolar import decompose` loads
`terwilliger` and what it imports, nothing else.  Every CLI call runs in a
fresh interpreter, often without cached bytecode, so an eager import would
compile every submodule on each call whatever the subcommand; `build`
needs only polar, gf and intarith.
"""

__version__ = "0.1.0"

# the public names of each submodule
_EXPORTS = {
    "exact": ("ExactScalar", "parse_scalar"),
    "gf": ("FieldSpec", "build_field"),
    "linexact": ("ExactMatrix", "kernel", "spectral_projectors"),
    "polar": ("FormSpec", "PolarGraph", "build_polar_graph", "load_graph",
              "save_graph"),
    "drg": ("spectral_data", "td_scalars", "verify_distance_regular"),
    "terwilliger": ("TerwilligerContext", "build_context", "central_elements",
                    "decompose", "extract_module", "upsilon_psi_lambda",
                    "verify_lfrk"),
    "leonard": ("DqkParams", "ParameterArray", "d4_transform", "dqk_array",
                "intersection_data", "leonard_from_tmodule", "realize",
                "td_aw_scalars", "validate"),
    "uqsl2": ("UqAction", "casimir_scalar", "uq_on_leonard",
              "uq_on_standard_module"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    """Resolve a public name from its submodule, once: the value is stored
    in the package namespace, so later lookups do not come here."""
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
