from collections import deque
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import dense_oracle

from dualpolar.drg import (
    NotConnectedError,
    NotDistanceRegularError,
    b_pow,
    closed_form_dual_eigenvalues,
    closed_form_eigenvalues,
    closed_form_intersection,
    closed_form_multiplicities,
    dual_eigenvalue_scalars,
    spectral_data,
    td_scalars,
    verify_distance_regular,
    verify_intersection,
)
from dualpolar.polar import FormSpec, build_polar_graph


class _Plain:
    """Adapter giving any adjacency matrix the graph interface."""

    def __init__(self, adj):
        self.adjacency = np.asarray(adj, dtype=np.uint8)
        self.n_vertices = self.adjacency.shape[0]


def direct_count_oracle(dist, x, y, i, j):
    """|G_i(x) ^ G_j(y)| counted vertex by vertex."""
    return int(((dist[x] == i) & (dist[y] == j)).sum())


def test_complete_graph_k4():
    adj = 1 - np.eye(4, dtype=np.uint8)
    data = verify_distance_regular(_Plain(adj))
    assert data.D == 1
    assert data.b == (3, 0)
    assert data.c == (0, 1)


def test_non_drg_rejected():
    # path on 3 vertices is not distance-regular
    adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.uint8)
    with pytest.raises(NotDistanceRegularError):
        verify_distance_regular(_Plain(adj))


def test_b_pow_is_a_rational_power_of_sqrt_b():
    assert b_pow(4, Fraction(3, 2)) == 8
    assert b_pow(2, Fraction(-3)) == Fraction(1, 8)
    assert b_pow(9, Fraction(-1, 2)) == Fraction(1, 3)
    with pytest.raises(ValueError, match="is irrational"):
        b_pow(2, Fraction(1, 2))
    with pytest.raises(ValueError, match="unsupported exponent 1/3"):
        b_pow(4, Fraction(1, 3))


def test_c32_intersection_array(graph_c32):
    data = verify_distance_regular(graph_c32)
    assert data.b[:3] == (14, 12, 8)
    assert data.c[1:] == (1, 3, 7)
    spec = graph_c32.spec
    c, a, b = closed_form_intersection(spec)
    assert tuple(c) == data.c and tuple(a) == data.a and tuple(b) == data.b
    # spot-check the counting against the direct per-pair oracle
    p = dense_oracle.intersection_numbers(graph_c32)
    assert dense_oracle.intersection_array(p) == (data.c, data.a, data.b)
    dist = dense_oracle.bfs_distances(graph_c32.adjacency)
    for x, y in [(0, 1), (0, 5), (3, 77)]:
        h = dist[x, y]
        for i in range(4):
            for j in range(4):
                assert direct_count_oracle(dist, x, y, i, j) == p[h, i, j]


def test_d32_intersection_array(graph_d32):
    data = verify_distance_regular(graph_d32)
    assert data.b[:3] == (7, 6, 4)
    assert data.c[1:] == (1, 3, 7)
    assert data.a == (0, 0, 0, 0)


def test_c32_eigenvalues_and_multiplicities(graph_c32):
    spec = graph_c32.spec
    assert closed_form_eigenvalues(spec) == [14, 5, -1, -7]
    assert closed_form_multiplicities(spec) == [1, 35, 84, 15]


def test_d32_eigenvalues(graph_d32):
    assert closed_form_eigenvalues(graph_d32.spec) == [7, 2, -2, -7]
    zeta, xi = dual_eigenvalue_scalars(graph_d32.spec)
    assert (zeta, xi) == (-6, 20)
    assert closed_form_dual_eigenvalues(graph_d32.spec)[0] == 14


def test_c32_dual_eigenvalues(graph_c32):
    zeta, xi = dual_eigenvalue_scalars(graph_c32.spec)
    assert (zeta, xi) == (-10, 45)
    ths = closed_form_dual_eigenvalues(graph_c32.spec)
    assert ths == [35, Fraction(25, 2), Fraction(5, 4), Fraction(-35, 8)]


def test_c32_spectral_data(bm_c32, graph_c32):
    bm = bm_c32
    assert bm.m == [1, 35, 84, 15]
    assert sum(bm.m) == 135
    assert bm.theta_star[0] == bm.m[1] == 35
    # the valencies k_h = v_h(k) and E_0 = J/|X|: Q_h0 = 1
    assert bm.P[0] == [1, 14, 56, 64]
    assert [row[0] for row in bm.Q] == [1, 1, 1, 1]
    assert bm.Q[0] == bm.m
    assert [row[1] for row in bm.Q] == bm.theta_star
    for i in range(4):
        for j in range(4):
            assert sum(bm.P[i][h] * bm.Q[h][j] for h in range(4)) \
                == (135 if i == j else 0)


def test_krein_dual_intersection_consistency(bm_c32, graph_c32):
    cs, as_, bs = dense_oracle.closed_form_dual_intersection(graph_c32.spec)
    q = bm_c32.krein
    for i in range(4):
        if i >= 1:
            assert q[i, 1, i - 1] == cs[i]
        assert q[i, 1, i] == as_[i]
        if i < 3:
            assert q[i, 1, i + 1] == bs[i]


def test_triple_products_vanishing(graph_c32, bm_c32):
    # E*_h A_i E*_j = 0 iff p^h_ij = 0, and E_h A*_i E_j = 0 iff q^h_ij = 0
    from dualpolar.linexact import ExactMatrix

    g = graph_c32
    p = dense_oracle.intersection_numbers(g)
    E = dense_oracle.idempotents(g, bm_c32.theta)
    x = 0
    n = g.n_vertices
    dist = dense_oracle.bfs_distances(g.adjacency)
    dist_x = dist[x]
    estar = [ExactMatrix.from_int(np.diag((dist_x == i).astype(np.int64)))
             for i in range(4)]
    amats = [ExactMatrix.from_int(m.astype(np.int64))
             for m in dense_oracle.distance_matrices(dist, 3)]
    astar_i = []
    for i in range(4):
        col = E[i].take_rows([x])
        diag = [col.entry(0, y) * n for y in range(n)]
        astar_i.append(ExactMatrix.diag(diag))
    for h in range(4):
        for i in range(4):
            for j in range(4):
                lhs = estar[h] @ amats[i] @ estar[j]
                assert lhs.is_zero() == (p[h, i, j] == 0)
                lhs2 = E[h] @ astar_i[i] @ E[j]
                assert lhs2.is_zero() == (bm_c32.krein[h, i, j] == 0)


def test_td_scalars_c32(graph_c32):
    beta, gamma, gamma_star, rho, rho_star = td_scalars(graph_c32.spec)
    assert beta == Fraction(5, 2)
    assert gamma == Fraction(1, 2)
    assert gamma_star == 5
    # the defining recurrence gives 1/2 + 4*9 = 73/2
    assert rho == Fraction(73, 2)
    assert rho_star == 50


def test_td_scalars_d32(graph_d32):
    _, gamma, _, _, _ = td_scalars(graph_d32.spec)
    assert gamma == 0  # e = 0


def test_beta_recurrence_direct(graph_c32):
    th = closed_form_eigenvalues(graph_c32.spec)
    beta = td_scalars(graph_c32.spec)[0]
    for i in range(2, 3):
        assert (th[i - 2] - th[i + 1]) / (th[i - 1] - th[i]) == beta + 1


# ---------------------------------------------------------------------------
# The coefficient form against the dense n x n oracle


@pytest.mark.parametrize("family,D,b", [("D", 3, 2), ("C", 3, 2),
                                        ("2A_odd", 2, 4)])
def test_coefficient_form_matches_dense_oracle(family, D, b):
    """E_i = (1/n) sum_h Q_hi A_h is the dense projector-formula idempotent,
    and krein_parameters is the Hadamard-product Krein array, exactly."""
    from dualpolar.linexact import ExactMatrix

    g = build_polar_graph(FormSpec(family, D, b))
    n = g.n_vertices
    data = verify_distance_regular(g)
    p = dense_oracle.intersection_numbers(g)
    assert dense_oracle.intersection_array(p) == (data.c, data.a, data.b)
    bm = spectral_data(g.spec, n, data)
    E = dense_oracle.idempotents(g, bm.theta)
    amats = [ExactMatrix.from_int(m.astype(np.int64))
             for m in dense_oracle.distance_matrices(
                 dense_oracle.bfs_distances(g.adjacency), D)]
    for i in range(D + 1):
        total = amats[0].scale(Fraction(bm.Q[0][i], n))
        for h in range(1, D + 1):
            total = total + amats[h].scale(Fraction(bm.Q[h][i], n))
        assert total == E[i]
    assert (dense_oracle.hadamard_krein(E, bm.m) == bm.krein).all()


def _cycle(n):
    return [[int(abs(i - j) in (1, n - 1)) for j in range(n)]
            for i in range(n)]


def _petersen():
    pairs = list(combinations(range(5), 2))
    return [[int(not set(s) & set(t)) for t in pairs] for s in pairs]


def _prism():  # two triangles joined by a matching: cubic, not DRG
    adj = np.zeros((6, 6), dtype=np.uint8)
    for i in range(3):
        for j in range(3):
            if i != j:
                adj[i, j] = adj[i + 3, j + 3] = 1
        adj[i, i + 3] = adj[i + 3, i] = 1
    return adj


def _chorded_hexagon():
    adj = np.array(_cycle(6), dtype=np.uint8)
    adj[0, 3] = adj[3, 0] = 1
    return adj


def _d32_plus_edge():
    g = build_polar_graph(FormSpec("D", 3, 2))
    adj = g.adjacency.copy()
    z = int(np.flatnonzero(dense_oracle.bfs_distances(adj, [0])[0] == 2)[0])
    adj[0, z] = adj[z, 0] = 1
    return adj


SMALL_GRAPHS = [
    (1 - np.eye(4, dtype=np.uint8), True),
    (_cycle(7), True),
    (_petersen(), True),
    (np.kron([[0, 1], [1, 0]], np.ones((3, 3), dtype=np.uint8)), True),
    ([[0, 1, 0], [1, 0, 1], [0, 1, 0]], False),
    ([[0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]], False),
    (_prism(), False),
    (_chorded_hexagon(), False),
    (_d32_plus_edge(), False),
]
SMALL_IDS = ["K4", "C7", "petersen", "K33", "path", "star", "prism",
             "chorded-hexagon", "D32-plus-edge"]


@pytest.mark.parametrize("adj,regular", SMALL_GRAPHS, ids=SMALL_IDS)
def test_distance_regularity_matches_dense_oracle(adj, regular):
    """D + 1 products A_h A give the c, a, b of all (D+1)(D+2)/2 products
    A_i A_j, and refuse the same graphs."""
    g = _Plain(adj)
    if regular:
        data = verify_distance_regular(g)
        p = dense_oracle.intersection_numbers(g)
        assert dense_oracle.intersection_array(p) == (data.c, data.a, data.b)
    else:
        with pytest.raises(NotDistanceRegularError):
            verify_distance_regular(g)
        with pytest.raises(NotDistanceRegularError):
            dense_oracle.intersection_numbers(g)


# ---------------------------------------------------------------------------
# The distances: the breadth-first oracle, and the refusal of a graph that
# is not connected


def _queue_bfs(adj):
    """Distances by one queue-driven search per source, -1 where a vertex is
    not reached."""
    n = len(adj)
    nbrs = [np.flatnonzero(row) for row in adj]
    dist = np.full((n, n), -1, dtype=np.int16)
    for x in range(n):
        dist[x, x] = 0
        queue = deque([x])
        while queue:
            u = queue.popleft()
            for w in nbrs[u]:
                if dist[x, w] < 0:
                    dist[x, w] = dist[x, u] + 1
                    queue.append(w)
    return dist


@pytest.mark.parametrize("adj,regular", SMALL_GRAPHS, ids=SMALL_IDS)
def test_bfs_matches_dense_oracle(adj, regular):
    """The oracle's search, which `_Plain` and the polar-graph test below
    rely on, against a search per source."""
    adj = np.asarray(adj, dtype=np.uint8)
    assert np.array_equal(_queue_bfs(adj), dense_oracle.bfs_distances(adj))


def _two_triangles():
    return np.kron(np.eye(2, dtype=np.uint8), 1 - np.eye(3, dtype=np.uint8))


def _refused(g, error, witness, message):
    with pytest.raises(error, match=message) as err:
        verify_distance_regular(g)
    assert err.value.witness == witness


@pytest.mark.parametrize("adj,cut,error,witness,message", [
    ([[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]], 3,
     NotDistanceRegularError, (0, 1, 1, 1, 1),
     r"pair \(1,1\) gives 2, expected 1"),
    ([[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]], 1,
     NotDistanceRegularError, (0, 1, 1, 1, 1),
     r"pair \(1,1\) gives 1, expected 0"),
    (_two_triangles(), 3, NotConnectedError, (0, 3),
     "no path joins vertices 0 and 3"),
], ids=["isolated-last", "isolated-first", "two-triangles"])
def test_bfs_unreached_is_minus_one(adj, cut, error, witness, message):
    """Vertices on different sides of `cut` are not connected: the search
    leaves them at -1.  `verify_distance_regular` refuses the two
    triangles as a pair that no path joins, and a graph with an isolated
    vertex already at b_0, the valency, which is not constant."""
    adj = np.asarray(adj, dtype=np.uint8)
    dist = dense_oracle.bfs_distances(adj)
    assert np.array_equal(dist, _queue_bfs(adj))
    assert (dist[:cut, cut:] == -1).all() and (dist[cut:, :cut] == -1).all()
    assert (np.diag(dist) == 0).all()
    _refused(_Plain(adj), error, witness, message)


@pytest.mark.parametrize("adj,witness", [
    (np.zeros((2, 2), dtype=np.uint8), (0, 1)),
    (np.kron(np.eye(3, dtype=np.uint8), 1 - np.eye(2, dtype=np.uint8)),
     (0, 2)),
    (np.kron(np.eye(2, dtype=np.uint8), _cycle(5)), (0, 5)),
], ids=["isolated-vertices", "three-edges", "two-pentagons"])
def test_a_pair_no_path_joins_is_refused(adj, witness):
    """Regular graphs whose components are distance-regular with equal
    arrays: every count is constant, and the one refusal is the pair that
    no path joins, with a witness in two components."""
    y, z = witness
    _refused(_Plain(adj), NotConnectedError, witness,
             f"no path joins vertices {y} and {z}")
    assert dense_oracle.bfs_distances(np.asarray(adj), [y])[0, z] == -1


def test_missing_descent_is_refused():
    """Two triangles: every count is constant within each, but no
    neighbour of 3 lies nearer to 0, as no path joins them; the search
    never puts the pair in a class."""
    _refused(_Plain(_two_triangles()), NotConnectedError, (0, 3),
             "no path joins vertices 0 and 3")


_POLAR_SEARCHES = [
    pytest.param(family, D, b, block, id=f"{name}-{family}-{D}-{b}")
    for name, block in [("one-block", None), ("64-source-blocks", 64)]
    for family, D, b in [("2A_odd", 2, 4), ("C", 3, 2), ("D", 3, 2)]
] + [pytest.param(family, D, b, None, id=f"{family}-{D}-{b}")
     for family, D, b in [("B", 2, 3), ("2D", 2, 2), ("2A_even", 2, 4)]]


@pytest.mark.parametrize("family,D,b,block", _POLAR_SEARCHES)
def test_bfs_matches_dense_oracle_on_polar_graphs(family, D, b, block):
    """The path metric of the adjacency is the codim matrix D - dim(y
    intersect z), on every family.  With `block`, the search runs from
    blocks of that many sources and the last block is partial."""
    g = build_polar_graph(FormSpec(family, D, b))
    n = g.adjacency.shape[0]
    if block is None:
        dist = dense_oracle.bfs_distances(g.adjacency)
    else:
        assert n % block
        dist = np.concatenate([
            dense_oracle.bfs_distances(g.adjacency, range(s, min(s + block, n)))
            for s in range(0, n, block)])
    assert np.array_equal(dense_oracle.codim_matrix(g.spec, g.vertices), dist)


def test_verify_intersection_names_the_first_row(graph_d32):
    """The intersection data of D_3(2) agrees with the closed form; with
    b_2 changed, or with the last row missing, the witness names the first
    row that differs, and a missing triple is None."""
    data = verify_distance_regular(graph_d32)
    spec = graph_d32.spec
    assert verify_intersection(spec, data) == (True, None)
    c, a, b = closed_form_intersection(spec)
    bad = replace(data, b=(*data.b[:2], data.b[2] + 1, *data.b[3:]))
    assert verify_intersection(spec, bad) == (False, {
        "i": 2, "closed_form": [c[2], a[2], b[2]],
        "graph": [c[2], a[2], b[2] + 1]})
    short = replace(data, c=data.c[:-1], a=data.a[:-1], b=data.b[:-1])
    assert verify_intersection(spec, short) == (False, {
        "i": 3, "closed_form": [c[3], a[3], b[3]], "graph": None})
