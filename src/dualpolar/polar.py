"""Finite classical polar spaces and their dual polar graphs.

A FormSpec fixes one of six standard nondegenerate forms on GF(b)^n.  The
fixed coordinate models (any nondegenerate form of the given type yields an
isomorphic graph) are:

  C  (symplectic,  dim 2D):   sum_i (x_i y_{D+i} - x_{D+i} y_i)
  B  (quadratic,   dim 2D+1): x_0^2 + sum_i x_i x_{D+i}
  D  (quadratic,   dim 2D):   sum_i x_i x_{D+i}
  2D (quadratic,   dim 2D+2): sum_i x_i x_{D+i} + N(x_{2D}, x_{2D+1})
                              with N an irreducible binary quadratic
  2A (Hermitean over GF(b), b a square, conjugation z -> z^sqrt(b)):
      odd ambient dim 2D+1:   sum_i x_i conj(y_i)
      even ambient dim 2D:    sum_i (x_i conj(y_{D+i}) + x_{D+i} conj(y_i))

The vertex set of the dual polar graph consists of the maximal totally
isotropic (for quadratic forms: totally singular) subspaces, which all have
dimension D; vertices are adjacent when they meet in dimension D - 1, and
the graph distance of y, z equals D - dim(y intersect z), which is verified
exhaustively at build time, and again at load time, against breadth-first
search.

Both steps work on the point table: the singular points of GF(b)^n, one
monic vector each, as a numpy array.  The field's tables evaluate the form
on all of them at once, from its Gram matrix (and, for the quadratic
families, the coefficients of Q), giving the singular points and a P x P
perpendicularity matrix.  Enumeration extends totally isotropic flags one
point at a time: the points that extend a k-space S are the AND of the perp
rows of S, minus S, and span(S, p) is read off a per-point line table.  The
maximal subspaces are sorted by their RREF rows, which are read off their
points.  The codim matrix
comes from the vertex x point incidence I: (I I^T)_yz = |y intersect z| is
(b^d - 1)/(b - 1) with d = dim(y intersect z).  That product runs on float32
BLAS and is exact, because every entry and every partial sum is a count of
at most P points, and P < 2^24 (see `intlinalg.int_matmul`).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from .gf import FieldSpec, field_of_order
from .intlinalg import int_matmul

FAMILIES = ("C", "B", "D", "2D", "2A_even", "2A_odd")

_E_VALUES = {
    "C": Fraction(1),
    "B": Fraction(1),
    "D": Fraction(0),
    "2D": Fraction(2),
    "2A_even": Fraction(3, 2),
    "2A_odd": Fraction(1, 2),
}


class BudgetExceededError(RuntimeError):
    pass


class FormSpec:
    """One of the six standard form families on GF(b)^n."""

    def __init__(self, family: str, D: int, b: int):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
        if D < 1:
            raise ValueError("diameter D must be >= 1")
        self.family = family
        self.D = D
        self.b = b
        self.field: FieldSpec = field_of_order(b)
        self.e: Fraction = _E_VALUES[family]
        self.hermitean = family.startswith("2A")
        self.quadratic = family in ("B", "D", "2D")
        if self.hermitean and self.field.m % 2:
            raise ValueError("Hermitean families need b to be a perfect square")
        self.n = {
            "C": 2 * D,
            "B": 2 * D + 1,
            "D": 2 * D,
            "2D": 2 * D + 2,
            "2A_even": 2 * D + 1,
            "2A_odd": 2 * D,
        }[family]
        if family == "2D":
            self._anis = self._anisotropic_binary_quadratic()
        self.gram, self.quad = self._form_matrices()

    def _anisotropic_binary_quadratic(self):
        """Lex-smallest (a, c) with t^2 + a t + c irreducible over GF(b)."""
        f = self.field
        for a in f.elements():
            for c in f.elements():
                if all(
                    f.add(f.mul(t, t), f.add(f.mul(a, t), c)) != 0
                    for t in f.elements()
                ):
                    return (a, c)
        raise RuntimeError("no anisotropic binary quadratic found")

    # -- form evaluation ------------------------------------------------

    def _form_matrices(self):
        """(G, W) over GF(b): B(u, v) = sum_ij u_i G_ij sigma(v_j), with
        sigma the conjugation for the Hermitean families and the identity
        otherwise; for the quadratic families Q(u) = sum_{i<=j} u_i W_ij u_j
        and B is its polar form, G = W + W^T (W is None for the others)."""
        f, D, n = self.field, self.D, self.n
        if self.family == "2A_even":
            return np.eye(n, dtype=np.int16), None
        w = np.zeros((n, n), dtype=np.int16)
        off = int(self.family == "B")
        w[off + np.arange(D), off + D + np.arange(D)] = 1
        if self.family == "B":
            w[0, 0] = 1
        if self.family == "2D":
            a, c = self._anis
            w[2 * D:, 2 * D:] = [[1, a], [0, c]]
        if self.family == "C":
            return f.add_table[w, f.neg_table[w.T]], None
        return f.add_table[w, w.T], (w if self.quadratic else None)

    def _evaluate(self, mat, u, v) -> int:
        """sum_ij u_i mat_ij v_j over GF(b)."""
        if len(u) != self.n or len(v) != self.n:
            raise ValueError("vector has wrong length")
        f, acc = self.field, 0
        for i, j in zip(*np.nonzero(mat)):
            acc = f.add(acc, f.mul(f.mul(u[i], int(mat[i, j])), v[j]))
        return acc

    def quad_value(self, u) -> int:
        """Q(u) for the quadratic families."""
        return self._evaluate(self.quad, u, u)

    def bilinear(self, u, v) -> int:
        """The (sesqui)linear pairing of the family.

        For quadratic families this is the polar form Q(u+v) - Q(u) - Q(v).
        """
        if self.hermitean:
            v = [self.field.frobenius(x) for x in v]
        return self._evaluate(self.gram, u, v)

    def form_value(self, u, v=None) -> int:
        """Evaluate the form: Q(u) for quadratic families when v is omitted,
        otherwise the bilinear / sesquilinear pairing of u and v."""
        if v is None:
            if self.quadratic:
                return self.quad_value(u)
            return self.bilinear(u, u)
        return self.bilinear(u, v)

    def singular_vector(self, v) -> bool:
        """Is the single vector isotropic (singular, for quadratic types)?"""
        if self.quadratic:
            return self.quad_value(v) == 0
        if self.family == "C":
            return True
        return self.bilinear(v, v) == 0

    def totally_isotropic(self, rows) -> bool:
        """Does the form vanish completely on the span of the given rows?

        In characteristic 2, Q(x+y) = Q(x) + Q(y) + polar(x, y), so singular
        basis vectors with pairwise-vanishing pairings span a totally
        singular space in every characteristic.
        """
        rows = list(rows)
        for i, u in enumerate(rows):
            if not self.singular_vector(u):
                return False
            for v in rows[i:] if self.hermitean else rows[i + 1:]:
                if self.bilinear(u, v) != 0:
                    return False
        return True

    def __repr__(self):
        return f"FormSpec({self.family}, D={self.D}, b={self.b})"


def _vertex_count(spec: FormSpec) -> int:
    """prod_{i<D} (b^(i+e) + 1), the number of maximal isotropic subspaces."""
    b_e = math.isqrt(spec.b ** int(2 * spec.e))
    return math.prod(spec.b ** i * b_e + 1 for i in range(spec.D))


# ---------------------------------------------------------------------------
# The point table


def _monic_vectors(b: int, k: int) -> np.ndarray:
    """The monic (first nonzero coordinate 1) vectors of GF(b)^k, one row
    each: leading position ascending, then the tail in lexicographic order."""
    blocks = []
    for lead in range(k):
        t = k - lead - 1
        block = np.zeros((b ** t, k), dtype=np.int16)
        block[:, lead] = 1
        block[:, lead + 1:] = (np.arange(b ** t)[:, None]
                               // b ** np.arange(t - 1, -1, -1) % b)
        blocks.append(block)
    return np.concatenate(blocks)


def _pairing(field: FieldSpec, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_j u[..., j] v[..., j] over GF(b), broadcasting the other axes."""
    acc = field.mul_table[u[..., 0], v[..., 0]]
    for j in range(1, u.shape[-1]):
        acc = field.add_table[acc, field.mul_table[u[..., j], v[..., j]]]
    return acc


class _PointTable:
    """The singular points of the polar space, one monic row each in `vecs`:
    u W sigma(u)^T = 0, with the matrices of `FormSpec._form_matrices` (W is
    the Gram matrix G for the non-quadratic families)."""

    def __init__(self, spec: FormSpec):
        field, b, n = spec.field, spec.b, spec.n
        self.spec = spec
        w = spec.quad if spec.quadratic else spec.gram
        allv = _monic_vectors(b, n)
        uw = _pairing(field, allv[:, None], w.T[None])
        self.vecs = allv[_pairing(field, uw, self.sigma(allv)) == 0]
        # the base-b code of a monic vector -> its point, -1 for no point
        self.weights = b ** np.arange(n - 1, -1, -1, dtype=np.int64)
        self.index = np.full(b ** n, -1, dtype=np.int32)
        self.index[(self.vecs * self.weights).sum(-1)] = np.arange(len(self.vecs))
        self.lines = [None] * len(self.vecs)

    def sigma(self, x: np.ndarray) -> np.ndarray:
        return self.spec.field.conj_table[x] if self.spec.hermitean else x

    def lookup(self, v: np.ndarray) -> np.ndarray:
        """The point of each vector v[..., :]; -1 for zero or non-singular."""
        field = self.spec.field
        lead = np.take_along_axis(v, (v != 0).argmax(-1)[..., None], -1)
        monic = field.mul_table[field.inv_table[lead], v]
        return self.index[(monic * self.weights).sum(-1)]

    def perp(self) -> np.ndarray:
        """P x P bool B(p, p') = 0, in row blocks of about 2^18 entries."""
        field, npts = self.spec.field, len(self.vecs)
        u = _pairing(field, self.vecs[:, None], self.spec.gram.T[None])
        v = self.sigma(self.vecs)
        out = np.empty((npts, npts), dtype=bool)
        step = max(1, 2 ** 18 // npts)
        for lo in range(0, npts, step):
            out[lo:lo + step] = _pairing(field, u[lo:lo + step, None], v[None]) == 0
        return out

    def line(self, p: int) -> np.ndarray:
        """P x (b-1), cached: row s holds the points of s + lam p, lam != 0,
        which for s perpendicular to p are the rest of the line sp."""
        if self.lines[p] is None:
            field = self.spec.field
            steps = field.mul_table[np.arange(1, self.spec.b)[:, None], self.vecs[p]]
            self.lines[p] = self.lookup(field.add_table[self.vecs[:, None], steps])
        return self.lines[p]


# ---------------------------------------------------------------------------
# Enumeration of maximal isotropic subspaces


def enumerate_maximal_isotropic(spec: FormSpec, budget: int = 100_000):
    """All maximal (dimension D) totally isotropic subspaces, in canonical
    RREF order, by extending totally isotropic flags on the point table.

    A k-space S is its sorted point indices.  Its extensions are span(S, p)
    for p in the AND of the perp rows of S, minus S; a p inside an earlier
    extension of S is skipped, so each pair S < T is met once.
    """
    if _vertex_count(spec) > budget:
        raise BudgetExceededError("enumeration budget exceeded")
    table = _PointTable(spec)
    if len(table.vecs) > budget:
        raise BudgetExceededError("enumeration budget exceeded")
    level = [np.array([p]) for p in range(len(table.vecs))]
    perp = table.perp() if spec.D > 1 else None
    for _ in range(1, spec.D):
        nxt: dict = {}
        for pts in level:
            free = np.logical_and.reduce(perp[pts])
            free[pts] = False
            for p in np.flatnonzero(free):
                if not free[p]:
                    continue
                ext = np.concatenate((pts, [p], table.line(p)[pts].ravel()))
                free[ext] = False
                ext.sort()
                nxt.setdefault(ext.tobytes(), ext)
            if len(nxt) > budget:
                raise BudgetExceededError("enumeration budget exceeded")
        level = list(nxt.values())
    # the RREF rows of a subspace are its points with one nonzero pivot
    # coordinate, the pivots being the leading positions of its points
    vecs = table.vecs[np.array(level)]
    pivots = np.zeros((len(level), spec.n), dtype=bool)
    np.put_along_axis(pivots, (vecs != 0).argmax(-1), True, -1)
    rref = vecs[((vecs != 0) & pivots[:, None]).sum(-1) == 1]
    out = sorted(tuple(map(tuple, v)) for v in
                 rref.reshape(len(level), spec.D, spec.n).tolist())
    for key in out:
        if not spec.totally_isotropic(key):
            raise AssertionError("enumerated subspace is not totally isotropic")
    return out


# ---------------------------------------------------------------------------
# The dual polar graph


class PolarGraph:
    """Dual polar graph: vertices, adjacency, verified distance matrix."""

    def __init__(self, spec: FormSpec, vertices, adjacency: np.ndarray,
                 dist: np.ndarray):
        self.spec = spec
        self.vertices = vertices
        self.adjacency = adjacency
        self.dist = dist

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def diameter(self) -> int:
        return int(self.dist.max())

    def degree(self, i: int) -> int:
        return int(self.adjacency[i].sum())

    def __repr__(self):
        return (f"PolarGraph({self.spec.family}_{self.spec.D}({self.spec.b}), "
                f"|X|={self.n_vertices})")


def _bfs_distances(adj: np.ndarray) -> np.ndarray:
    n = adj.shape[0]
    dist = np.full((n, n), -1, dtype=np.int16)
    reached = np.eye(n, dtype=bool)
    frontier = reached.copy()
    np.fill_diagonal(dist, 0)
    step = 0
    while frontier.any():
        step += 1
        newly = (int_matmul(frontier, adj) > 0) & ~reached
        dist[newly] = step
        reached |= newly
        frontier = newly
    return dist


def _codim_matrix(spec: FormSpec, verts) -> np.ndarray:
    """D - dim(y intersect z) for all vertex pairs, from one exact product:
    with I the vertex x point incidence, (I I^T)_yz = |y intersect z| is
    (b^d - 1)/(b - 1), d = dim(y intersect z)."""
    table = _PointTable(spec)
    field, b, D = spec.field, spec.b, spec.D
    rows = np.array(verts, dtype=np.int16).reshape(len(verts), D, spec.n)
    coef = _monic_vectors(b, D)
    pts = table.lookup(_pairing(field, coef[None, :, None],
                                rows.swapaxes(1, 2)[:, None]))
    bad = np.flatnonzero((pts < 0).any(1))
    if len(bad):
        raise ValueError(f"vertex {bad[0]} is not a totally isotropic {D}-space")
    inc = np.zeros((len(verts), len(table.vecs)), dtype=np.uint8)
    inc[np.arange(len(verts))[:, None], pts] = 1
    # every entry counts points, at most P < 2^24: the float32 tier is exact
    meet = int_matmul(inc, inc.T)
    codim_of = np.full(len(coef) + 1, -1, dtype=np.int16)
    for d in range(D + 1):
        codim_of[(b ** d - 1) // (b - 1)] = D - d
    codim = codim_of[meet]
    if (codim < 0).any():
        raise ValueError("two vertices meet in a point set that is no subspace")
    twins = np.argwhere(np.triu(codim == 0, 1))
    if len(twins):
        raise ValueError(f"vertices {twins[0, 0]} and {twins[0, 1]} are the "
                         "same subspace")
    return codim


def _certified_graph(spec: FormSpec, verts, adj=None) -> PolarGraph:
    """The graph on verts with its distances certified against the codim
    matrix; a given adjacency must equal codim == 1."""
    codim = _codim_matrix(spec, verts)
    if adj is None:
        adj = (codim == 1).astype(np.uint8)
    elif not np.array_equal(adj, (codim == 1).astype(np.uint8)):
        raise ValueError("adjacency disagrees with the vertices")
    dist = _bfs_distances(adj)
    if (dist < 0).any():
        raise ValueError("graph is not connected")
    if not np.array_equal(dist, codim):
        raise ValueError("graph distance disagrees with D - dim(y^z)")
    return PolarGraph(spec, verts, adj, dist)


def build_polar_graph(spec: FormSpec, budget: int = 100_000) -> PolarGraph:
    return _certified_graph(spec, enumerate_maximal_isotropic(spec, budget))


# ---------------------------------------------------------------------------
# JSON interchange


def _hex_width(spec: FormSpec) -> int:
    """Hex digits per coordinate: 1 up to GF(16), 2 up to GF(256), ..."""
    return len(f"{spec.b - 1:x}")


def _vertex_hex(spec: FormSpec, vert) -> str:
    w = _hex_width(spec)
    return "".join(f"{c:0{w}x}" for row in vert for c in row)


def _vertex_unhex(spec: FormSpec, s: str):
    """D rows of n coordinates from a fixed-width hex string, each
    coordinate checked to lie in GF(b)."""
    w, n = _hex_width(spec), spec.n
    if len(s) != spec.D * n * w:
        raise ValueError(f"vertex {s!r} has {len(s)} hex digits, expected "
                         f"{spec.D * n * w}")
    cells = [int(s[i:i + w], 16) for i in range(0, len(s), w)]
    if not all(0 <= c < spec.b for c in cells):
        raise ValueError(f"vertex {s!r} has a coordinate outside GF({spec.b})")
    return tuple(tuple(cells[i * n:(i + 1) * n]) for i in range(spec.D))


def graph_to_json(g: PolarGraph) -> dict:
    rows = []
    for i in range(g.n_vertices):
        rows.append(np.packbits(g.adjacency[i]).tobytes().hex())
    return {
        "family": g.spec.family,
        "D": g.spec.D,
        "b": g.spec.b,
        "e": str(g.spec.e),
        "vertices": [_vertex_hex(g.spec, v) for v in g.vertices],
        "adjacency": rows,
    }


def graph_from_json(data: dict) -> PolarGraph:
    spec = FormSpec(data["family"], int(data["D"]), int(data["b"]))
    if Fraction(data["e"]) != spec.e:
        raise ValueError("e value in file disagrees with the family table")
    verts = [_vertex_unhex(spec, s) for s in data["vertices"]]
    m, count = len(verts), _vertex_count(spec)
    if m != count:
        raise ValueError(f"file has {m} vertices, the dual polar graph {count}")
    if len(data["adjacency"]) != m:
        raise ValueError("adjacency in file needs one row per vertex")
    adj = np.zeros((m, m), dtype=np.uint8)
    for i, hexrow in enumerate(data["adjacency"]):
        bits = np.unpackbits(np.frombuffer(bytes.fromhex(hexrow), dtype=np.uint8))
        adj[i] = bits[:m]
    if not np.array_equal(adj, adj.T):
        raise ValueError("adjacency in file is not symmetric")
    for v in verts:
        if not spec.totally_isotropic(v):
            raise ValueError("vertex in file is not totally isotropic")
    return _certified_graph(spec, verts, adj)


def save_graph(g: PolarGraph, path: str):
    with open(path, "w") as fh:
        json.dump(graph_to_json(g), fh)


def load_graph(path: str) -> PolarGraph:
    with open(path) as fh:
        return graph_from_json(json.load(fh))
