import hashlib
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from dense_oracle import (
    bfs_distances,
    bilinear,
    codim_matrix,
    table_perp,
    totally_isotropic,
)
from dualpolar import polar
from dualpolar.drg import NotDistanceRegularError, verify_distance_regular
from dualpolar.gf import build_field
from dualpolar.polar import (
    BudgetExceededError,
    FormSpec,
    _totally_isotropic,
    _vertices_hex,
    build_polar_graph,
    enumerate_maximal_isotropic,
    first_codim_row,
    graph_from_json,
    graph_to_json,
    load_graph,
    save_graph,
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
            if not totally_isotropic(spec, cand):
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
    assert bilinear(spec, e1, e1) == 0  # alternating
    assert bilinear(spec, e1, e4) == 1  # standard pairing e_i <-> e_{D+i}
    with pytest.raises(ValueError):
        bilinear(spec, (1, 0), (0, 1))


def test_hermitean_form_value_example():
    spec = FormSpec("2A_odd", 3, 4)
    f = spec.field
    omega = 2  # class of x in GF(4)
    u = (1, 0, 0, omega, 0, 0)
    # H(u, u) = 1*conj(omega) + omega*conj(1) = omega^2 + omega = 1
    assert bilinear(spec, u, u) == 1
    assert f.add(f.frobenius(omega), omega) == 1


def test_hermitean_needs_square_order():
    with pytest.raises(ValueError):
        FormSpec("2A_odd", 3, 3)


def test_c1_2_three_lines():
    spec = FormSpec("C", 1, 2)
    subs = enumerate_maximal_isotropic(spec)
    assert len(subs) == 3
    assert np.array_equal(subs, all_subspaces_oracle(spec))


def test_c3_2_count_against_oracle():
    spec = FormSpec("C", 3, 2)
    subs = enumerate_maximal_isotropic(spec)
    assert len(subs) == 135
    assert np.array_equal(subs, all_subspaces_oracle(spec))


def test_d3_2_count_against_oracle():
    spec = FormSpec("D", 3, 2)
    subs = enumerate_maximal_isotropic(spec)
    assert len(subs) == 30
    assert np.array_equal(subs, all_subspaces_oracle(spec))


def test_b2_2_against_oracle():
    spec = FormSpec("B", 2, 2)
    subs = enumerate_maximal_isotropic(spec)
    assert np.array_equal(subs, all_subspaces_oracle(spec))


def test_2a_even_d1_against_oracle():
    spec = FormSpec("2A_even", 1, 4)
    subs = enumerate_maximal_isotropic(spec)
    assert np.array_equal(subs, all_subspaces_oracle(spec))


@pytest.mark.parametrize("family,D,b", [
    ("2D", 2, 2),      # the Q coefficients of the anisotropic part
    ("2A_odd", 2, 4),  # Hermitean: conjugation in the Gram pairing
    ("B", 2, 3),       # odd characteristic: Q(e_i) and the polar form apart
    ("C", 2, 3),       # odd characteristic: an alternating form
    ("D", 2, 3),       # odd characteristic: Q without an anisotropic part
])
def test_enumeration_against_oracle(family, D, b):
    spec = FormSpec(family, D, b)
    assert np.array_equal(enumerate_maximal_isotropic(spec),
                          all_subspaces_oracle(spec))


@pytest.mark.parametrize("family,D,b", [("C", 2, 3), ("2D", 2, 2),
                                        ("2A_odd", 2, 4)])
def test_codim_against_oracle(family, D, b):
    g = build_polar_graph(FormSpec(family, D, b))
    assert np.array_equal(codim_matrix(g.spec, g.vertices),
                          codim_oracle(g.spec, g.vertices))


# every family, and D = 1 graphs, where each vertex is one point
FIRST_ROW_CASES = [("C", 2, 3), ("B", 2, 3), ("D", 3, 2), ("2D", 2, 2),
                   ("2A_even", 2, 4), ("2A_odd", 3, 4), ("C", 1, 5),
                   ("2A_even", 1, 4)]


@pytest.mark.parametrize("key", FIRST_ROW_CASES, ids=lambda k: "%s_%d(%d)" % k)
def test_first_codim_row_against_codim_matrix(key):
    """The meets counted from the pairings with v_0 are row 0 of the codim
    matrix from the spans, and row k when the vertex list starts at k."""
    spec = FormSpec(*key)
    verts = enumerate_maximal_isotropic(spec)
    codim = codim_matrix(spec, verts)
    assert np.array_equal(first_codim_row(spec, verts), codim[0])
    for k in (1, len(verts) // 2, len(verts) - 1):
        assert np.array_equal(first_codim_row(spec, np.roll(verts, -k, 0)),
                              np.roll(codim[k], -k))


def test_d1_codim_row_makes_no_perp_table(monkeypatch):
    """D = 1 enumeration needs no P x P perpendicularity table, and the
    codim row makes none either (on 2D_1(64) it would be 4097 x 4097)."""
    def refuse(self):
        raise AssertionError("perp table built")

    monkeypatch.setattr(polar._PointTable, "perp", refuse)
    spec = FormSpec("2D", 1, 4)
    row = first_codim_row(spec, enumerate_maximal_isotropic(spec))
    assert row.tolist() == [0] + [1] * 16


@pytest.mark.parametrize("row", ["zero", "non-singular"])
def test_first_codim_row_refuses_a_row_that_is_no_point(row):
    """D_3(2): vertex 7 with its second row replaced by zero or by a
    vector v with Q(v) = v_0 v_3 + v_1 v_4 + v_2 v_5 = 1."""
    spec = FormSpec("D", 3, 2)
    verts = enumerate_maximal_isotropic(spec).copy()
    verts[7, 1] = 0 if row == "zero" else (0, 1, 0, 0, 1, 0)
    with pytest.raises(ValueError, match="vertex 7 has a row that is no "
                                         "singular point"):
        first_codim_row(spec, verts)


@pytest.mark.parametrize("value,error,witness", [
    (1, NotDistanceRegularError, r"pair \(1,1\) gives 12, expected 13"),
    (0, ValueError, "vertices 0 and 5 are the same subspace"),
], ids=["1", "0"])
def test_perturbed_codim_is_refused(monkeypatch, value, error, witness):
    """One meet count of the load's product off: the pair (0, 5) at codim
    2 counted as meeting in codim 1, an edge that the distance-regularity
    check refuses (vertex 0 then has valency 13, vertex 1 has 12), or in
    codim 0, a pair of twins that the load refuses."""
    g = build_polar_graph(FormSpec("C", 2, 3))
    z = int(np.flatnonzero(codim_matrix(g.spec, g.vertices)[0] == 2)[0])
    assert z == 5
    real = polar.int_matmul

    def perturbed(a, b):
        meet = real(a, b)
        meet[0, z] = meet[z, 0] = (3 ** (2 - value) - 1) // 2
        return meet

    monkeypatch.setattr(polar, "int_matmul", perturbed)
    with pytest.raises(error, match=witness):
        verify_distance_regular(polar._certified_graph(g.spec, g.vertices))


ISOTROPY_CASES = [("C", 2, 3), ("B", 2, 3), ("D", 3, 2), ("2D", 2, 2),
                  ("2A_even", 2, 4), ("2A_odd", 2, 4)]


@pytest.mark.parametrize("key", ISOTROPY_CASES, ids=lambda k: "%s_%d(%d)" % k)
def test_enumeration_is_one_sorted_int16_array(key):
    spec = FormSpec(*key)
    verts = enumerate_maximal_isotropic(spec)
    assert isinstance(verts, np.ndarray) and verts.dtype == np.int16
    assert verts.flags.c_contiguous
    assert verts.shape == (len(verts), spec.D, spec.n)
    flat = [tuple(v) for v in verts.reshape(len(verts), -1).tolist()]
    assert flat == sorted(set(flat))


def _one_coordinate_changed(spec, vert):
    """vert with each coordinate in turn moved by +1 in GF(b)."""
    out = []
    for a in range(spec.D):
        for j in range(spec.n):
            rows = [list(r) for r in vert]
            rows[a][j] = spec.field.add(rows[a][j], 1)
            out.append(tuple(map(tuple, rows)))
    return out


@pytest.mark.parametrize("family,D,b", ISOTROPY_CASES)
def test_isotropy_check_matches_form_spec(family, D, b):
    """The one-pass check agrees with the scalar oracle on the
    vertices and on every one-coordinate change of the first 20."""
    spec = FormSpec(family, D, b)
    verts = enumerate_maximal_isotropic(spec)
    assert _totally_isotropic(spec, np.array(verts)).all()
    changed = [w for v in verts[:20] for w in _one_coordinate_changed(spec, v)]
    got = _totally_isotropic(spec, np.array(changed))
    assert got.tolist() == [totally_isotropic(spec, w) for w in changed]
    assert not got.all()


@pytest.mark.parametrize("family,D,b", ISOTROPY_CASES)
def test_non_isotropic_vertex_in_file_is_refused(family, D, b):
    g = build_polar_graph(FormSpec(family, D, b))
    bad = next(w for w in _one_coordinate_changed(g.spec, g.vertices[0])
               if not totally_isotropic(g.spec, w))
    data = graph_to_json(g.spec, g.vertices)
    data["vertices"][0] = _vertices_hex(g.spec, [bad])[0]
    with pytest.raises(ValueError, match="vertex in file is not totally "
                                         "isotropic"):
        graph_from_json(data)


def test_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_maximal_isotropic(FormSpec("C", 3, 2), budget=10)


@pytest.mark.parametrize("family", ["C", "2D"])
def test_budget_refusal_builds_no_field_table(family):
    """C_2(4096) and 2D_2(4096) are over the default budget before
    enumeration, so GF(4096) is refused without its 4096 x 4096 tables: the
    2D form searches for its anisotropic quadratic only when its form is
    read.  On GF(4) a first read builds them all."""
    from dualpolar import gf

    gf.build_field.cache_clear()
    spec = FormSpec(family, 2, 4096)
    with pytest.raises(BudgetExceededError):
        build_polar_graph(spec)
    assert not set(gf._TABLES) & set(vars(spec.field))
    small = gf.FieldSpec(2, 2)
    assert not set(gf._TABLES) & set(vars(small))
    assert small.mul(2, 3) == 1  # x (x + 1) = x^2 + x = 1 mod x^2 + x + 1
    assert set(gf._TABLES) <= set(vars(small))


@pytest.mark.parametrize("b", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_anisotropic_quadratic_is_the_lex_smallest(b):
    """The table search of the 2D form finds the pair that a scalar search
    over (a, c) in lexicographic order finds first."""
    f = FormSpec("2D", 1, b).field
    want = next((a, c) for a in range(b) for c in range(b)
                if all(f.add(f.mul(t, t), f.add(f.mul(a, t), c)) != 0
                       for t in range(b)))
    assert FormSpec("2D", 1, b)._anis == want


def test_budget_boundary():
    """C_3(2) has 63 points, 315 isotropic lines and 135 planes: the budget
    bounds the largest level, so 315 passes and 314 does not."""
    spec = FormSpec("C", 3, 2)
    assert len(enumerate_maximal_isotropic(spec, budget=315)) == 135
    with pytest.raises(BudgetExceededError):
        enumerate_maximal_isotropic(spec, budget=314)


# sha256 of the JSON text `build` writes, one graph per family.  Each is
# the hash of the file of the earlier format, which also held the fields e
# and adjacency, with those two fields dropped: the vertex lists are the
# same byte for byte.
BUILD_GOLDENS = {
    ("C", 3, 2): "bd686e335a1cef2f8d4193d60d525e779c282d53b81ffc87cb2c128756d6cc20",
    ("D", 3, 2): "9af956913a4a076fc92b261e30b88335306ef563e6eb9b5020c8b6a235238b9f",
    ("B", 2, 3): "6041e4272ce9912cdf134b305fe3348cdeaddb477ee7dc2f2de005317c1ef852",
    ("2D", 2, 2): "976cf57b396670130b93f03ec7c346ed278604dc6cc627b855831dccfef6dae5",
    ("2A_even", 2, 4):
        "935e8b78624a345ff476bb51578c4d6413d1ea14ece6943159dcdca741844acf",
    ("2A_odd", 2, 4):
        "9d4cde95204390f639b142437121c9da72b953457869cba4fbb851e4bd381230",
    ("C", 2, 7): "07b42c5df1c2483fcbfc1f328b3f0482be0977bb1cfe021d26c56411d02de817",
    ("2A_odd", 3, 4):
        "3a2111db8f15d0de040d8716fc19c288c5eb800551a931b84b8417588819a3f4",
    ("C", 3, 3): "e18f6b999a253a2e920c54fd63fd70f72b3aeb2b66554f1240c6840cd8bb835b",
}


# every family, over GF(p^m) for m = 1 (GF(3)), 2 (GF(4), GF(9)), 3 (GF(8),
# GF(27)) and 4 (GF(16)); D_2(27) and 2A_odd_2(16) split their digits over
# two products
PERP_CASES = [("C", 2, 3), ("C", 2, 4), ("C", 2, 8), ("C", 2, 9),
              ("B", 2, 3), ("B", 2, 8), ("B", 2, 9), ("D", 3, 3),
              ("D", 2, 8), ("D", 2, 27), ("2D", 2, 3), ("2D", 2, 4),
              ("2D", 1, 8), ("2A_even", 2, 4), ("2A_even", 2, 9),
              ("2A_odd", 2, 4), ("2A_odd", 2, 9), ("2A_odd", 2, 16)]


@pytest.mark.parametrize("key", PERP_CASES, ids=lambda k: "%s_%d(%d)" % k)
def test_perp_against_table_oracle(key):
    spec = FormSpec(*key)
    perp = spec.points.perp()
    assert perp.dtype == bool
    assert np.array_equal(perp, table_perp(spec))
    assert perp.any() and not perp.all()


@pytest.mark.parametrize("width", [1, 7, 13, 693])
@pytest.mark.parametrize("density", [0.0, 0.01, 0.5, 1.0])
def test_packed_nonzero_matches_unpacked(width, density):
    rng = np.random.default_rng(width)
    mask = rng.random((57, width)) < density
    packed = np.packbits(mask, axis=1)
    want = np.nonzero(np.unpackbits(packed, axis=1, count=width))
    got = polar._packed_nonzero(packed)
    assert [x.tolist() for x in got] == [x.tolist() for x in want]


@pytest.mark.parametrize("key", BUILD_GOLDENS, ids=lambda k: "%s_%d(%d)" % k)
def test_build_golden(key):
    g = build_polar_graph(FormSpec(*key))
    text = json.dumps(graph_to_json(g.spec, g.vertices))
    assert hashlib.sha256(text.encode()).hexdigest() == BUILD_GOLDENS[key]


def test_c3_2_graph_basics():
    g = build_polar_graph(FormSpec("C", 3, 2))
    assert g.n_vertices == 135
    degrees = g.adjacency.sum(axis=1)
    assert (degrees == 14).all()  # k = b^e (b^D - 1)/(b - 1)
    assert bfs_distances(g.adjacency).max() == 3


def test_d3_2_graph_bipartite_valency():
    g = build_polar_graph(FormSpec("D", 3, 2))
    assert g.n_vertices == 30
    assert (g.adjacency.sum(axis=1) == 7).all()
    # a_i = 0 for all i: neighbors of y at distance i from x never stay at i
    a = g.adjacency.astype(np.int32)
    dist = bfs_distances(g.adjacency, range(5))
    for x in range(5):
        for i in range(4):
            mask = dist[x] == i
            same = a[np.ix_(mask, mask)]
            assert not same.any()


def test_distance_equals_codim_formula_exhaustive():
    # the path metric of the graph is the codim matrix, checked here
    # against spans counted one vertex pair at a time
    g = build_polar_graph(FormSpec("C", 2, 3))
    assert np.array_equal(bfs_distances(g.adjacency),
                          codim_oracle(g.spec, g.vertices))


def test_near_polygon_counts_c32():
    # for adjacent y,z with d(x,y) = d(x,z) - 1:
    #   |G_i(x) ^ G(y) ^ G(z)| = 0 and |G_{i+1}(x) ^ G(y) ^ G(z)| = a_1
    g = build_polar_graph(FormSpec("C", 3, 2))
    a = g.adjacency.astype(np.int64)
    dist = bfs_distances(g.adjacency)
    x = 0
    a1 = 1  # (b^e - 1)(b - 1)/(b - 1) with b = 2, e = 1
    for j in range(4):
        mask = (dist[x] == j).astype(np.int64)
        cnt_j = a @ np.diag(mask) @ a
        for y in range(g.n_vertices):
            for z in range(g.n_vertices):
                if g.adjacency[y, z] and dist[x, y] == dist[x, z] - 1:
                    i = dist[x, y]
                    if j == i:
                        assert cnt_j[y, z] == 0
                    elif j == i + 1:
                        assert cnt_j[y, z] == a1


def test_quad_counts_c32():
    # for d(y,z) = 2, d(x,y) = d(x,z) - 1:
    #   |G_i ^ G(y) ^ G(z)| = 1 and |G_{i+1} ^ G(y) ^ G(z)| = b
    g = build_polar_graph(FormSpec("C", 3, 2))
    a = g.adjacency.astype(np.int64)
    dist = bfs_distances(g.adjacency)
    x = 0
    cnt = {j: a @ np.diag((dist[x] == j).astype(np.int64)) @ a for j in range(4)}
    found = 0
    for y in range(g.n_vertices):
        for z in range(g.n_vertices):
            if dist[y, z] == 2 and dist[x, y] == dist[x, z] - 1:
                i = dist[x, y]
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
    g2 = graph_from_json(graph_to_json(g.spec, g.vertices))
    assert np.array_equal(g2.vertices, g.vertices)
    assert np.array_equal(g2.adjacency, g.adjacency)
    assert g2.spec.e == 0


def test_saved_graph_loads_the_same_vertices(tmp_path):
    """save_graph writes the JSON text of graph_to_json, and load_graph
    reads back the same int16 vertex array."""
    spec = FormSpec("2A_odd", 2, 4)
    verts = enumerate_maximal_isotropic(spec)
    path = tmp_path / "g.json"
    save_graph(spec, verts, str(path))
    assert path.read_text() == json.dumps(graph_to_json(spec, verts))
    g = load_graph(str(path))
    assert g.vertices.dtype == np.int16
    assert np.array_equal(g.vertices, verts)


def test_json_roundtrip_hermitean():
    g = build_polar_graph(FormSpec("2A_even", 1, 4))
    g2 = graph_from_json(graph_to_json(g.spec, g.vertices))
    assert np.array_equal(g2.vertices, g.vertices)
    assert g2.spec.e == Fraction(3, 2)


@pytest.mark.parametrize("family,D,b,width", [("2A_odd", 1, 25, 2),
                                              ("C", 1, 257, 3)])
def test_json_roundtrip_wide_fields(family, D, b, width):
    # above GF(16) a coordinate takes more than one hex digit; GF(257) is
    # also above the 256-entry tables the field once stopped at
    g = build_polar_graph(FormSpec(family, D, b))
    data = graph_to_json(g.spec, g.vertices)
    assert all(len(s) == D * g.spec.n * width for s in data["vertices"])
    g2 = graph_from_json(data)
    assert np.array_equal(g2.vertices, g.vertices)
    assert np.array_equal(g2.adjacency, g.adjacency)


def test_enumeration_refuses_a_subspace_that_is_not_isotropic(monkeypatch):
    """With every pair of singular points taken as perpendicular, the level
    steps admit planes that are not totally isotropic, and the final check
    of the enumerated rows refuses them."""
    monkeypatch.setattr(polar._PointTable, "perp",
                        lambda self: np.ones((len(self.vecs),) * 2, bool))
    with pytest.raises(AssertionError,
                       match="enumerated subspace is not totally isotropic"):
        enumerate_maximal_isotropic(FormSpec("C", 2, 3))
