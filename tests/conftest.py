import pytest

from dualpolar.drg import spectral_data
from dualpolar.polar import FormSpec, build_polar_graph


@pytest.fixture(scope="session")
def graph_c32():
    return build_polar_graph(FormSpec("C", 3, 2))


@pytest.fixture(scope="session")
def graph_d32():
    return build_polar_graph(FormSpec("D", 3, 2))


@pytest.fixture(scope="session")
def bm_c32(graph_c32):
    return spectral_data(graph_c32)


@pytest.fixture(scope="session")
def bm_d32(graph_d32):
    return spectral_data(graph_d32)
