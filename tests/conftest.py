import pytest

from dualpolar.drg import spectral_data, verify_distance_regular
from dualpolar.polar import FormSpec, build_polar_graph
from dualpolar.terwilliger import (
    build_context,
    central_elements,
    decompose,
    upsilon_psi_lambda,
)


@pytest.fixture(scope="session")
def graph_c32():
    return build_polar_graph(FormSpec("C", 3, 2))


@pytest.fixture(scope="session")
def graph_d32():
    return build_polar_graph(FormSpec("D", 3, 2))


@pytest.fixture(scope="session")
def bm_c32(graph_c32):
    return spectral_data(graph_c32.spec, graph_c32.n_vertices,
                         verify_distance_regular(graph_c32))


@pytest.fixture(scope="session")
def bm_d32(graph_d32):
    return spectral_data(graph_d32.spec, graph_d32.n_vertices,
                         verify_distance_regular(graph_d32))


@pytest.fixture(scope="session")
def ctx_c32(graph_c32, bm_c32):
    return build_context(graph_c32, bm_c32, 0)


@pytest.fixture(scope="session")
def cents_c32(ctx_c32):
    return central_elements(ctx_c32)


@pytest.fixture(scope="session")
def comps_c32(ctx_c32):
    return decompose(ctx_c32)


@pytest.fixture(scope="session")
def center_c32(ctx_c32, comps_c32):
    return upsilon_psi_lambda(ctx_c32, comps_c32)
