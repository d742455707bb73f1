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
exhaustively at build time against breadth-first search.
"""

from __future__ import annotations

import itertools
import json
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
        if self.hermitean:
            if self.field.m % 2:
                raise ValueError("Hermitean families need b to be a perfect square")
            self.q0 = self.field.p ** (self.field.m // 2)
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

    def quad_value(self, u) -> int:
        """Q(u) for the quadratic families."""
        f, D = self.field, self.D
        if len(u) != self.n:
            raise ValueError("vector has wrong length")
        acc = 0
        if self.family == "B":
            acc = f.mul(u[0], u[0])
            off = 1
        else:
            off = 0
        for i in range(D):
            acc = f.add(acc, f.mul(u[off + i], u[off + D + i]))
        if self.family == "2D":
            a, c = self._anis
            s, t = u[2 * D], u[2 * D + 1]
            acc = f.add(acc, f.mul(s, s))
            acc = f.add(acc, f.mul(a, f.mul(s, t)))
            acc = f.add(acc, f.mul(c, f.mul(t, t)))
        return acc

    def bilinear(self, u, v) -> int:
        """The (sesqui)linear pairing of the family.

        For quadratic families this is the polar form Q(u+v) - Q(u) - Q(v).
        """
        f, D = self.field, self.D
        if len(u) != self.n or len(v) != self.n:
            raise ValueError("vector has wrong length")
        if self.family == "C":
            acc = 0
            for i in range(D):
                acc = f.add(acc, f.mul(u[i], v[D + i]))
                acc = f.sub(acc, f.mul(u[D + i], v[i]))
            return acc
        if self.quadratic:
            w = tuple(f.add(x, y) for x, y in zip(u, v))
            return f.sub(
                f.sub(self.quad_value(w), self.quad_value(u)), self.quad_value(v)
            )
        conj = f.frobenius
        acc = 0
        if self.family == "2A_even":
            acc = 0
            for i in range(self.n):
                acc = f.add(acc, f.mul(u[i], conj(v[i])))
            return acc
        for i in range(D):
            acc = f.add(acc, f.mul(u[i], conj(v[D + i])))
            acc = f.add(acc, f.mul(u[D + i], conj(v[i])))
        return acc

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


# ---------------------------------------------------------------------------
# GF(b) row reduction on coefficient tuples


def gf_rref(field: FieldSpec, rows) -> tuple[tuple[int, ...], ...]:
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


def gf_nullspace(field: FieldSpec, rows, ncols: int) -> list[tuple[int, ...]]:
    """Basis of {v : M v = 0} for the matrix with the given rows."""
    red = gf_rref(field, rows) if rows else ()
    pivots = []
    for r_ in red:
        pivots.append(next(j for j, x in enumerate(r_) if x))
    pivset = set(pivots)
    basis = []
    for f_col in range(ncols):
        if f_col in pivset:
            continue
        v = [0] * ncols
        v[f_col] = 1
        for i, pc in enumerate(pivots):
            v[pc] = field.neg(red[i][f_col])
        basis.append(tuple(v))
    return basis


def _span_vectors(field: FieldSpec, rows):
    """All vectors in the row span (including zero)."""
    out = [tuple([0] * len(rows[0]))] if rows else [()]
    for row in rows:
        new = []
        for c in range(1, field.order):
            scaled = tuple(field.mul(c, x) for x in row)
            for v in out:
                new.append(tuple(field.add(a, b) for a, b in zip(v, scaled)))
        out.extend(new)
    return out


# ---------------------------------------------------------------------------
# Enumeration of maximal isotropic subspaces


def enumerate_maximal_isotropic(spec: FormSpec, budget: int = 100_000):
    """All maximal (dimension D) totally isotropic subspaces, in canonical
    RREF order, by depth-first extension of totally isotropic flags."""
    field = spec.field
    n = spec.n
    level: set = set()
    # canonical 1-spaces: representative has first nonzero coordinate 1
    for supp in range(n):
        tails = itertools.product(range(field.order), repeat=n - supp - 1)
        for tail in tails:
            v = (0,) * supp + (1,) + tail
            if spec.singular_vector(v):
                level.add((v,))
            if len(level) > budget:
                raise BudgetExceededError("enumeration budget exceeded")
    for k in range(1, spec.D):
        nxt: set = set()
        for key in level:
            rows = [list(r) for r in key]
            # linear conditions cutting out the perp of the current space
            conds = []
            for u in rows:
                if spec.family == "C":
                    c = [0] * n
                    for i in range(spec.D):
                        c[spec.D + i] = u[i]
                        c[i] = field.neg(u[spec.D + i])
                    conds.append(c)
                elif spec.quadratic:
                    unit = [0] * n
                    c = []
                    for j in range(n):
                        unit[j] = 1
                        c.append(spec.bilinear(u, unit))
                        unit[j] = 0
                    conds.append(c)
                else:
                    # H(u, v) = 0  <=>  sum_j conj(coef_j) v_j = 0
                    unit = [0] * n
                    c = []
                    for j in range(n):
                        unit[j] = 1
                        c.append(field.frobenius(spec.bilinear(u, unit)))
                        unit[j] = 0
                    conds.append(c)
            null = gf_nullspace(field, conds, n)
            # The perp contains the subspace itself; reduce the nullspace
            # modulo it.  Both singularity and the resulting extension only
            # depend on the candidate line modulo the subspace, so each
            # line of the complement is tried once (monic representative).
            reduced = []
            for v in null:
                v = list(v)
                for row in rows:
                    pc = next(j for j, x in enumerate(row) if x)
                    if v[pc]:
                        f = v[pc]
                        v = [field.sub(x, field.mul(f, y)) for x, y in zip(v, row)]
                reduced.append(tuple(v))
            comp = gf_rref(field, reduced)
            for v in _span_vectors(field, list(comp)):
                if not any(v):
                    continue
                lead = next(x for x in v if x)
                if lead != 1:
                    continue
                if not spec.singular_vector(v):
                    continue
                ext = gf_rref(field, key + (v,))
                nxt.add(ext)
                if len(nxt) > budget:
                    raise BudgetExceededError("enumeration budget exceeded")
        level = nxt
    out = sorted(level)
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
    """D - dim(y intersect z) for all vertex pairs, by counting common
    vectors of the two spans."""
    field = spec.field
    spans = [frozenset(_span_vectors(field, list(v))) for v in verts]
    m = len(verts)
    size_of_dim = {field.order ** d: d for d in range(spec.D + 1)}
    codim = np.zeros((m, m), dtype=np.int16)
    for i in range(m):
        si = spans[i]
        for j in range(i + 1, m):
            d = size_of_dim[len(si & spans[j])]
            codim[i, j] = codim[j, i] = spec.D - d
    return codim


def build_polar_graph(spec: FormSpec, budget: int = 100_000) -> PolarGraph:
    verts = enumerate_maximal_isotropic(spec, budget)
    codim = _codim_matrix(spec, verts)
    adj = (codim == 1).astype(np.uint8)
    dist = _bfs_distances(adj)
    if (dist < 0).any():
        raise AssertionError("graph is not connected")
    if not np.array_equal(dist, codim):
        raise AssertionError("graph distance disagrees with D - dim(y^z)")
    return PolarGraph(spec, verts, adj, dist)


# ---------------------------------------------------------------------------
# JSON interchange


def _vertex_hex(spec: FormSpec, vert) -> str:
    if spec.field.order > 16:
        raise ValueError("hex vertex encoding supports field order <= 16")
    return "".join("%x" % c for row in vert for c in row)


def _vertex_unhex(spec: FormSpec, s: str):
    cells = [int(ch, 16) for ch in s]
    n = spec.n
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
    m = len(verts)
    adj = np.zeros((m, m), dtype=np.uint8)
    for i, hexrow in enumerate(data["adjacency"]):
        bits = np.unpackbits(np.frombuffer(bytes.fromhex(hexrow), dtype=np.uint8))
        adj[i] = bits[:m]
    if not np.array_equal(adj, adj.T):
        raise ValueError("adjacency in file is not symmetric")
    for v in verts:
        if not spec.totally_isotropic(v):
            raise ValueError("vertex in file is not totally isotropic")
    codim = _codim_matrix(spec, verts)
    if not np.array_equal(adj, (codim == 1).astype(np.uint8)):
        raise ValueError("adjacency in file disagrees with the vertices")
    dist = _bfs_distances(adj)
    if (dist < 0).any():
        raise ValueError("graph in file is not connected")
    if not np.array_equal(dist, codim):
        raise ValueError("graph distance disagrees with D - dim(y^z)")
    return PolarGraph(spec, verts, adj, dist)


def save_graph(g: PolarGraph, path: str):
    with open(path, "w") as fh:
        json.dump(graph_to_json(g), fh)


def load_graph(path: str) -> PolarGraph:
    with open(path) as fh:
        return graph_from_json(json.load(fh))
