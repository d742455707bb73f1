"""Exact-arithmetic dual polar graphs, their subconstituent algebras,
Leonard systems of dual q-Krawtchouk type, and U_q(sl2) module structures.

Everything is computed over Q or Q(sqrt(b)) with certified exact linear
algebra.  Floating point appears in one place, the integer products of
`intlinalg.int_matmul`, and only where a bound proves the result exact: with
inner dimension k, every partial sum of an entry is an integer of absolute
value at most B = k * max|a| * max|b|, so float32 BLAS is used for B < 2^24
and float64 BLAS for B < 2^53; larger products run in int64 or Python ints.
"""

__version__ = "0.1.0"

from .exact import ExactScalar, parse_scalar, q_pow
from .gf import FieldSpec, build_field
from .linexact import (
    ExactMatrix,
    Subspace,
    kernel,
    orthogonal_projector,
    spectral_projectors,
)
from .polar import FormSpec, PolarGraph, build_polar_graph, load_graph, save_graph
from .drg import spectral_data, td_scalars, verify_distance_regular
from .terwilliger import (
    TerwilligerContext,
    build_context,
    central_elements,
    decompose,
    extract_module,
    upsilon_psi_lambda,
    verify_lfrk,
)
from .leonard import (
    DqkParams,
    ParameterArray,
    d4_transform,
    dqk_array,
    intersection_data,
    leonard_from_tmodule,
    realize,
    td_aw_scalars,
    validate,
)
from .uqsl2 import (
    UqAction,
    build_Ld,
    casimir_scalar,
    uq_on_leonard,
    uq_on_standard_module,
)

__all__ = [
    "ExactScalar", "parse_scalar", "q_pow",
    "FieldSpec", "build_field",
    "ExactMatrix", "Subspace", "kernel", "orthogonal_projector",
    "spectral_projectors",
    "FormSpec", "PolarGraph", "build_polar_graph", "load_graph", "save_graph",
    "spectral_data", "td_scalars", "verify_distance_regular",
    "TerwilligerContext", "build_context", "central_elements", "decompose",
    "extract_module", "upsilon_psi_lambda", "verify_lfrk",
    "DqkParams", "ParameterArray", "d4_transform", "dqk_array",
    "intersection_data", "leonard_from_tmodule", "realize", "td_aw_scalars",
    "validate",
    "UqAction", "build_Ld", "casimir_scalar", "uq_on_leonard",
    "uq_on_standard_module",
]
