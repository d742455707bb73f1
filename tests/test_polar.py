import itertools
from fractions import Fraction

import numpy as np
import pytest

from dualpolar.gf import build_field
from dualpolar.polar import (
    BudgetExceededError,
    FormSpec,
    _codim_matrix,
    build_polar_graph,
    enumerate_maximal_isotropic,
    graph_from_json,
    graph_to_json,
)


def gf_rref(field, rows):
    """Reduced row echelon form over GF(b), one scalar operation at a time."""
    rows = [list(r) for r in rows if any(r)]
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [
                    field.sub(x, field.mul(f, y)) for x, y in zip(rows[i], rows[r])
                ]
        r += 1
        if r == len(rows):
            break
    rows = rows[:r]
    rows = [r_ for r_ in rows if any(r_)]
    return tuple(tuple(r_) for r_ in rows)


def all_subspaces_oracle(spec):
    """Independent brute force: scan every D-dim subspace of GF(b)^n and
    keep the totally isotropic ones (RREF keys)."""
    f = spec.field
    n, D = spec.n, spec.D
    found = set()
    vecs = list(itertools.product(range(f.order), repeat=n))
    nonzero = [v for v in vecs if any(v)]

    # scans every vector (not just the perp) at each level and re-tests
    # total isotropy from scratch, so it is independent of the fast path
    def extend_iso(rows, start):
        if len(rows) == D:
            found.add(gf_rref(f, rows))
            return
        for i in range(start, len(nonzero)):
            v = nonzero[i]
            cand = rows + (v,)
            if len(gf_rref(f, cand)) != len(rows) + 1:
                continue
            if not spec.totally_isotropic(cand):
                continue
            extend_iso(cand, i + 1)

    extend_iso((), 0)
    return sorted(found)


def span_vectors(field, rows):
    """All vectors in the row span (including zero)."""
    out = [tuple([0] * len(rows[0]))]
    for row in rows:
        new = []
        for c in range(1, field.order):
            scaled = tuple(field.mul(c, x) for x in row)
            for v in out:
                new.append(tuple(field.add(a, b) for a, b in zip(v, scaled)))
        out.extend(new)
    return out


def codim_oracle(spec, verts):
    """Independent reference for D - dim(y intersect z): count the common
    vectors of the two spans, pair by pair."""
    field = spec.field
    spans = [frozenset(span_vectors(field, list(v))) for v in verts]
    m = len(verts)
    size_of_dim = {field.order ** d: d for d in range(spec.D + 1)}
    codim = np.zeros((m, m), dtype=np.int16)
    for i in range(m):
        for j in range(i + 1, m):
            d = size_of_dim[len(spans[i] & spans[j])]
            codim[i, j] = codim[j, i] = spec.D - d
    return codim


def test_symplectic_form_values():
    spec = FormSpec("C", 3, 2)
    e1 = (1, 0, 0, 0, 0, 0)
    e4 = (0, 0, 0, 1, 0, 0)
    assert spec.form_value(e1, e1) == 0  # alternating
    assert spec.form_value(e1, e4) == 1  # standard pairing e_i <-> e_{D+i}
    with pytest.raises(ValueError):
        spec.form_value((1, 0), (0, 1))


def test_hermitean_form_value_example():
    spec = FormSpec("2A_odd", 3, 4)
    f = spec.field
    omega = 2  # class of x in GF(4)
    u = (1, 0, 0, omega, 0, 0)
    # H(u, u) = 1*conj(omega) + omega*conj(1) = omega^2 + omega = 1
    assert spec.form_value(u, u) == 1
    assert f.add(f.frobenius(omega), omega) == 1


def test_hermitean_needs_square_order():
    with pytest.raises(ValueError):
        FormSpec("2A_odd", 3, 3)


def test_c1_2_three_lines():
    spec = FormSpec("C", 1, 2)
    subs = enumerate_maximal_isotropic(spec)
    assert len(subs) == 3
    assert subs == all_subspaces_oracle(spec)


def test_c3_2_count_against_oracle():
    spec = FormSpec("C", 3, 2)
    subs = enumerate_maximal_isotropic(spec)
    assert len(subs) == 135
    assert subs == all_subspaces_oracle(spec)


def test_d3_2_count_against_oracle():
    spec = FormSpec("D", 3, 2)
    subs = enumerate_maximal_isotropic(spec)
    assert len(subs) == 30
    assert subs == all_subspaces_oracle(spec)


def test_b2_2_against_oracle():
    spec = FormSpec("B", 2, 2)
    subs = enumerate_maximal_isotropic(spec)
    assert subs == all_subspaces_oracle(spec)


def test_2a_even_d1_against_oracle():
    spec = FormSpec("2A_even", 1, 4)
    subs = enumerate_maximal_isotropic(spec)
    assert subs == all_subspaces_oracle(spec)


@pytest.mark.parametrize("family,D,b", [
    ("2D", 2, 2),      # the Q coefficients of the anisotropic part
    ("2A_odd", 2, 4),  # Hermitean: conjugation in the Gram pairing
    ("B", 2, 3),       # odd characteristic: Q(e_i) and the polar form apart
])
def test_enumeration_against_oracle(family, D, b):
    spec = FormSpec(family, D, b)
    assert enumerate_maximal_isotropic(spec) == all_subspaces_oracle(spec)


@pytest.mark.parametrize("family,D,b", [("C", 2, 3), ("2D", 2, 2),
                                        ("2A_odd", 2, 4)])
def test_codim_against_oracle(family, D, b):
    g = build_polar_graph(FormSpec(family, D, b))
    assert np.array_equal(_codim_matrix(g.spec, g.vertices),
                          codim_oracle(g.spec, g.vertices))


def test_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_maximal_isotropic(FormSpec("C", 3, 2), budget=10)


def test_c3_2_graph_basics():
    g = build_polar_graph(FormSpec("C", 3, 2))
    assert g.n_vertices == 135
    degrees = g.adjacency.sum(axis=1)
    assert (degrees == 14).all()  # k = b^e (b^D - 1)/(b - 1)
    assert g.diameter == 3


def test_d3_2_graph_bipartite_valency():
    g = build_polar_graph(FormSpec("D", 3, 2))
    assert g.n_vertices == 30
    assert (g.adjacency.sum(axis=1) == 7).all()
    # a_i = 0 for all i: neighbors of y at distance i from x never stay at i
    a = g.adjacency.astype(np.int32)
    for x in range(5):
        for i in range(4):
            mask = g.dist[x] == i
            same = a[np.ix_(mask, mask)]
            assert not same.any()


def test_distance_equals_codim_formula_exhaustive():
    # build_polar_graph verifies BFS distance == D - dim(y^z) internally;
    # make the check visible here for one instance
    g = build_polar_graph(FormSpec("C", 2, 3))
    assert np.array_equal(g.dist, codim_oracle(g.spec, g.vertices))


def test_near_polygon_counts_c32():
    # for adjacent y,z with d(x,y) = d(x,z) - 1:
    #   |G_i(x) ^ G(y) ^ G(z)| = 0 and |G_{i+1}(x) ^ G(y) ^ G(z)| = a_1
    g = build_polar_graph(FormSpec("C", 3, 2))
    a = g.adjacency.astype(np.int64)
    x = 0
    a1 = 1  # (b^e - 1)(b - 1)/(b - 1) with b = 2, e = 1
    for j in range(4):
        mask = (g.dist[x] == j).astype(np.int64)
        cnt_j = a @ np.diag(mask) @ a
        for y in range(g.n_vertices):
            for z in range(g.n_vertices):
                if g.adjacency[y, z] and g.dist[x, y] == g.dist[x, z] - 1:
                    i = g.dist[x, y]
                    if j == i:
                        assert cnt_j[y, z] == 0
                    elif j == i + 1:
                        assert cnt_j[y, z] == a1


def test_quad_counts_c32():
    # for d(y,z) = 2, d(x,y) = d(x,z) - 1:
    #   |G_i ^ G(y) ^ G(z)| = 1 and |G_{i+1} ^ G(y) ^ G(z)| = b
    g = build_polar_graph(FormSpec("C", 3, 2))
    a = g.adjacency.astype(np.int64)
    x = 0
    cnt = {j: a @ np.diag((g.dist[x] == j).astype(np.int64)) @ a for j in range(4)}
    found = 0
    for y in range(g.n_vertices):
        for z in range(g.n_vertices):
            if g.dist[y, z] == 2 and g.dist[x, y] == g.dist[x, z] - 1:
                i = g.dist[x, y]
                assert cnt[i][y, z] == 1
                assert cnt[i + 1][y, z] == 2
                found += 1
    assert found


def test_no_induced_k121_d32():
    g = build_polar_graph(FormSpec("D", 3, 2))
    n = g.n_vertices
    adj = g.adjacency
    # K_{1,2,1}: p ~ u, v, y; z ~ u, v, y... shape: u,v nonadjacent, both
    # adjacent to p and z, with p ~ z
    for p in range(n):
        for z in range(p + 1, n):
            if not adj[p, z]:
                continue
            common = np.nonzero(adj[p] & adj[z])[0]
            for ui in range(len(common)):
                for vi in range(ui + 1, len(common)):
                    assert adj[common[ui], common[vi]], "induced K_{1,2,1} found"


def test_json_roundtrip():
    g = build_polar_graph(FormSpec("D", 3, 2))
    data = graph_to_json(g)
    g2 = graph_from_json(data)
    assert g2.vertices == g.vertices
    assert np.array_equal(g2.adjacency, g.adjacency)
    assert np.array_equal(g2.dist, g.dist)
    assert data["e"] == "0"


def test_json_roundtrip_hermitean():
    g = build_polar_graph(FormSpec("2A_even", 1, 4))
    g2 = graph_from_json(graph_to_json(g))
    assert g2.vertices == g.vertices
    assert Fraction(graph_to_json(g)["e"]) == Fraction(3, 2)


@pytest.mark.parametrize("family,D,b,width", [("2A_odd", 1, 25, 2),
                                              ("C", 1, 257, 3)])
def test_json_roundtrip_wide_fields(family, D, b, width):
    # above GF(16) a coordinate takes more than one hex digit; GF(257) is
    # also above the 256-entry tables the field once stopped at
    g = build_polar_graph(FormSpec(family, D, b))
    data = graph_to_json(g)
    assert all(len(s) == D * g.spec.n * width for s in data["vertices"])
    g2 = graph_from_json(data)
    assert g2.vertices == g.vertices
    assert np.array_equal(g2.adjacency, g.adjacency)
    assert np.array_equal(g2.dist, g.dist)
