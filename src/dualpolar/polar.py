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
the graph distance of y, z equals D - dim(y intersect z).  The vertices are
one sorted int16 (m, D, n) array of RREF rows, from enumeration to the
graph file, whose fields are family, D, b and the vertices.  Every load
computes the adjacency from them, the one n x n array of the graph, from
which `drg.verify_distance_regular` grows the distance classes.  `build`
forms no n x n array: it reads the valency and diameter it reports from
the codim row of vertex 0.

Both steps work on the point table: the singular points of GF(b)^n, one
monic vector each, ordered by leading position, and their P x P
perpendicularity table from exact integer products over GF(p).
Enumeration grows subspaces by their RREF, one AND of bit-packed perp rows
per level.  A vertex is the set of its (b^D - 1)/(b - 1) points, and
|y intersect z| = (b^d - 1)/(b - 1) with d = dim(y intersect z): a load
counts them all in one float32 product of the vertex x point incidence,
exact as every partial sum is at most P < 2^24 (`intarith.int_matmul`),
and `build` counts its codim row by pairing each point with vertex 0.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cached_property

import numpy as np

from .gf import FieldSpec, field_of_order
from .intarith import int_matmul

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

    @cached_property
    def _anis(self) -> tuple[int, int]:
        """Lex-smallest (a, c) with t^2 + a t + c irreducible over GF(b).
        It has a root iff c = -(t^2 + a t) for some t, so the first a whose
        values miss some c gives the pair, with the smallest c missed."""
        f, t = self.field, np.arange(self.b)
        for a in range(self.b):
            hit = np.zeros(self.b, dtype=bool)
            hit[f.neg_table[f.add_table[f.mul_table[t, t],
                                        f.mul_table[a, t]]]] = True
            if not hit.all():
                return a, int(hit.argmin())

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

    # n x n, so built on first use, after the callers' vertex-count bounds
    _forms = cached_property(_form_matrices)
    gram = property(lambda self: self._forms[0])
    quad = property(lambda self: self._forms[1])
    # one point table per form, for enumeration and the adjacency alike
    points = cached_property(lambda self: _PointTable(self))

    def __repr__(self):
        return f"FormSpec({self.family}, D={self.D}, b={self.b})"


def _vertex_count(spec: FormSpec, bound: int) -> int:
    """prod_{i<D} (b^(i+e) + 1), the number of maximal isotropic subspaces,
    or a partial product above `bound` as soon as one passes it: a huge D
    costs no D-sized work."""
    b_e = math.isqrt(spec.b ** int(2 * spec.e))
    count = 1
    for i in range(spec.D):
        count *= spec.b ** i * b_e + 1
        if count > bound:
            break
    return count


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


def _sigma(spec: FormSpec, x: np.ndarray) -> np.ndarray:
    """x conjugated for the Hermitean families, x itself otherwise."""
    return spec.field.conj_table[x] if spec.hermitean else x


def _totally_isotropic(spec: FormSpec, rows: np.ndarray) -> np.ndarray:
    """For rows of shape (m, k, n) over GF(b): is the span of each row block
    totally isotropic?  (`totally_isotropic` in tests/dense_oracle.py
    decides the same one vector pair at a time.)  Every
    pairing B(u, v) of two rows of a block vanishes, and for the quadratic
    families Q of every row as well."""
    field = spec.field
    ug = _pairing(field, rows[..., None, :], spec.gram.T)
    ok = (_pairing(field, ug[:, :, None], _sigma(spec, rows)[:, None]) == 0
          ).all((1, 2))
    if spec.quadratic:
        uw = _pairing(field, rows[..., None, :], spec.quad.T)
        ok &= (_pairing(field, uw, rows) == 0).all(1)
    return ok


class _PointTable:
    """The singular points of the polar space, one monic row each in `vecs`,
    ordered by leading position (`_monic_vectors`)."""

    def __init__(self, spec: FormSpec):
        b, n = spec.b, spec.n
        self.spec = spec
        allv = _monic_vectors(b, n)
        self.vecs = allv[_totally_isotropic(spec, allv[:, None])]
        # the base-b code of a monic vector -> its point, -1 for no point
        self.weights = b ** np.arange(n - 1, -1, -1, dtype=np.int64)
        self.index = np.full(b ** n, -1, dtype=np.int32)
        self.index[(self.vecs * self.weights).sum(-1)] = np.arange(len(self.vecs))

    def lookup(self, v: np.ndarray) -> np.ndarray:
        """The point of each vector v[..., :]; -1 for zero or non-singular."""
        field = self.spec.field
        lead = np.take_along_axis(v, (v != 0).argmax(-1)[..., None], -1)
        monic = field.mul_table[field.inv_table[lead], v]
        return self.index[(monic * self.weights).sum(-1)]

    def perp(self) -> np.ndarray:
        """P x P bool B(p, p') = 0, from exact integer products over GF(p).

        Multiplication by a field element is GF(p)-linear on base-p digits
        (`FieldSpec.times`), so digit i of B(u, v) = sum_j (uG)_j sigma(v)_j
        is sum_jk times[(uG)_j, k, i] digit_k(sigma(v)_j) reduced mod p.
        Each such sum lies in [0, base), base = n m (p - 1)^2 + 1.  As many
        digits as keep base^per within 2^16 (at least one) are packed in
        base `base` into one `int_matmul` product, whose bound is then
        base^per - 1, and a table of base^per bools tells which packed sums
        are 0 mod p in every digit."""
        field, spec = self.spec.field, self.spec
        p, m = field.p, field.m
        npts, n = self.vecs.shape
        ug = _pairing(field, self.vecs[:, None], spec.gram.T[None])
        left = field.times[ug].reshape(npts, n * m, m)
        right = field.times[_sigma(spec, self.vecs), 0].reshape(npts, n * m)
        base = n * m * (p - 1) ** 2 + 1
        per = 1
        while per < m and base ** (per + 1) <= 2 ** 16:
            per += 1
        digit_zero = np.arange(base) % p == 0
        out = np.ones((npts, npts), dtype=bool)
        for lo in range(0, m, per):
            weights = base ** np.arange(min(per, m - lo))
            zero = digit_zero
            for _ in weights[1:]:
                zero = np.logical_and.outer(digit_zero, zero).ravel()
            out &= zero[int_matmul(left[..., lo:lo + per] @ weights, right.T)]
        return out


# ---------------------------------------------------------------------------
# Enumeration of maximal isotropic subspaces


def _packed_nonzero(bits: np.ndarray):
    """np.nonzero of the rows of bits that `np.packbits(..., axis=1)`
    packed, in the same row-major order; only the nonzero bytes are
    unpacked."""
    row, byte = np.nonzero(bits)
    at, bit = np.nonzero(np.unpackbits(bits[row, byte][:, None], axis=1))
    return row[at], 8 * byte[at] + bit


def enumerate_maximal_isotropic(spec: FormSpec, budget: int = 100_000):
    """All maximal (dimension D) totally isotropic subspaces: one C-contiguous
    int16 (m, D, n) array of RREF rows in lexicographic order, grown one RREF
    row at a time on the point table.

    Level k is an (L, k) array: the row points of every totally isotropic
    k-space S in RREF.  Its extensions are its rows and a singular point p
    perpendicular to every row of S, lead(p) past the last pivot of S, and
    every row of S zero at column lead(p): exactly the RREFs of the totally
    isotropic (k+1)-spaces, each met once.  The lead-column condition is
    evaluated once per distinct set of columns it allows.  S run in groups
    of one last pivot, each scanning the packed bytes from the first point
    past it.  Raises BudgetExceededError when there are more than `budget`
    points or subspaces on some level."""
    if (_vertex_count(spec, budget) > budget
            or len(spec.points.vecs) > budget):
        raise BudgetExceededError("enumeration budget exceeded")
    table = spec.points
    npts, n = table.vecs.shape
    lead = (table.vecs != 0).argmax(1)
    support = (table.vecs != 0) @ (1 << np.arange(n, dtype=np.int64))
    level = np.arange(npts)[:, None]
    # made first: after the level arrays, 2A_odd_3(4) builds peak 0.4 MB higher
    perp = np.packbits(table.perp(), axis=1) if spec.D > 1 else None
    for _ in range(1, spec.D):
        level = level[np.argsort(level[:, -1])]
        # columns past the last pivot where every row of S is zero
        last = lead[level[:, -1]]
        free = ((1 << n) - (2 << last)) & ~np.bitwise_or.reduce(support[level], 1)
        codes, which = np.unique(free, return_inverse=True)
        allowed = np.packbits((codes[:, None] >> lead) & 1 == 1, axis=1)
        parts, total = [], 0
        step = max(1, 2 ** 20 // perp.shape[1])
        # np.union1d would import numpy.ma, 40 ms per cold call
        cuts = sorted({*np.flatnonzero(np.diff(last, prepend=-1)).tolist(),
                       *range(0, len(level), step)})
        for lo, hi in zip(cuts, [*cuts[1:], len(level)]):
            chunk, skip = level[lo:hi], np.searchsorted(lead, last[lo], "right") // 8
            ok = allowed[which[lo:hi], skip:]
            for j in range(chunk.shape[1]):
                ok &= perp[chunk[:, j], skip:]
            s, p = _packed_nonzero(ok)
            total += len(s)
            if total > budget:
                raise BudgetExceededError("enumeration budget exceeded")
            parts.append(np.column_stack((chunk[s], 8 * skip + p)))
        level = np.concatenate(parts)
    rows = table.vecs[level]
    if not _totally_isotropic(spec, rows).all():
        raise AssertionError("enumerated subspace is not totally isotropic")
    return rows[np.lexsort(rows.reshape(len(rows), -1).T[::-1])]


# ---------------------------------------------------------------------------
# The dual polar graph


class PolarGraph:
    """Dual polar graph: its vertices, one int16 (m, D, n) array of RREF
    rows, and its adjacency, y ~ z when they meet in dimension D - 1.  No
    distances are stored; they are grown from the adjacency where needed."""

    def __init__(self, spec: FormSpec, vertices, adjacency: np.ndarray):
        self.spec = spec
        self.vertices = vertices
        self.adjacency = adjacency

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def __repr__(self):
        return (f"PolarGraph({self.spec.family}_{self.spec.D}({self.spec.b}), "
                f"|X|={self.n_vertices})")


def _vertex_points(spec: FormSpec, verts) -> np.ndarray:
    """The points of each vertex, one row of (b^D - 1)/(b - 1) point
    indices per vertex: the spans of its D rows by the monic coefficient
    vectors of GF(b)^D.  ValueError names the first vertex with a span that
    is zero or no singular point, which is no totally isotropic D-space."""
    D, rows = spec.D, np.asarray(verts)
    coef = _monic_vectors(spec.b, D)
    pts = spec.points.lookup(_pairing(spec.field, coef[None, :, None],
                                      rows.swapaxes(1, 2)[:, None]))
    bad = np.flatnonzero((pts < 0).any(1))
    if len(bad):
        raise ValueError(f"vertex {bad[0]} is not a totally isotropic {D}-space")
    return pts


def _codim_of_meets(spec: FormSpec, meet: np.ndarray) -> np.ndarray:
    """D - d for each count meet = (b^d - 1)/(b - 1) of the points that two
    D-spaces share; two subspaces meet in a subspace, so every count is one
    of these."""
    b, D = spec.b, spec.D
    codim_of = np.full((b ** D - 1) // (b - 1) + 1, -1, dtype=np.int16)
    for d in range(D + 1):
        codim_of[(b ** d - 1) // (b - 1)] = D - d
    return codim_of[meet]


def first_codim_row(spec: FormSpec, verts) -> np.ndarray:
    """D - dim(y intersect v_0) for every maximal totally isotropic y: the
    count of the points of v_0 perpendicular to all D rows of y, which are
    the points of y intersect v_0.  For if a singular point p is
    perpendicular to y, then <y, p> is totally isotropic, and for the
    quadratic families totally singular, as Q(u + l p) = Q(u) + l^2 Q(p) +
    l B(u, p) = 0 for u in y; y is maximal, so p lies in y.  The count is
    (b^d - 1)/(b - 1), d = dim(y intersect v_0).  ValueError names the
    first vertex with a row that is no singular point."""
    table = spec.points
    rows = table.lookup(np.asarray(verts))
    bad = np.flatnonzero((rows < 0).any(1))
    if len(bad):
        raise ValueError(f"vertex {bad[0]} has a row that is no singular point")
    # B(q, p) for the points q of v_0 and every point p (B is reflexive):
    # P x K pairings, where the P x P table is new work for D = 1
    qg = _pairing(spec.field, table.vecs[_vertex_points(spec, verts[:1])[0], None],
                  spec.gram.T)
    hits = _pairing(spec.field, qg, _sigma(spec, table.vecs)[:, None]) == 0
    return _codim_of_meets(spec, hits[rows].all(1).sum(1))


def _certified_graph(spec: FormSpec, verts) -> PolarGraph:
    """The graph on verts, from one exact product: with I the vertex x
    point incidence, (I I^T)_yz = |y intersect z| is (b^d - 1)/(b - 1),
    d = dim(y intersect z), and y ~ z when d = D - 1.  A count of
    (b^D - 1)/(b - 1) off the diagonal is a pair of twins, refused."""
    b, D = spec.b, spec.D
    pts = _vertex_points(spec, verts)
    inc = np.zeros((len(verts), len(spec.points.vecs)), dtype=np.uint8)
    inc[np.arange(len(verts))[:, None], pts] = 1
    # every entry counts points, at most P < 2^24: the float32 tier is exact
    meet = int_matmul(inc, inc.T)
    full = (b ** D - 1) // (b - 1)  # the count of a vertex with itself
    # twins are located only when the count of full meets says there are any
    if np.count_nonzero(meet == full) != len(verts):
        i, j = np.argwhere(np.triu(meet == full, 1))[0]
        raise ValueError(f"vertices {i} and {j} are the same subspace")
    adjacency = (meet == (b ** (D - 1) - 1) // (b - 1)).astype(np.uint8)
    return PolarGraph(spec, verts, adjacency)


def build_polar_graph(spec: FormSpec, budget: int = 100_000) -> PolarGraph:
    return _certified_graph(spec, enumerate_maximal_isotropic(spec, budget))


# ---------------------------------------------------------------------------
# JSON interchange


def _hex_width(spec: FormSpec) -> int:
    """Hex digits per coordinate: 1 up to GF(16), 2 up to GF(256), ..."""
    return len(f"{spec.b - 1:x}")


_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)

# the value of each hex digit byte; 255 marks every other byte
_HEX_VALUES = np.full(256, 255, dtype=np.uint8)
_HEX_VALUES[np.frombuffer(b"0123456789abcdefABCDEF", dtype=np.uint8)] = [
    *range(16), *range(10, 16)]


def _vertices_hex(spec: FormSpec, verts) -> list[str]:
    """One fixed-width lowercase hex string per vertex, its D rows of n
    coordinates in order."""
    w = _hex_width(spec)
    cells = np.asarray(verts).reshape(len(verts), -1)
    shifts = 4 * np.arange(w - 1, -1, -1)
    text = _HEX_DIGITS[cells[..., None] >> shifts & 15].tobytes().decode()
    size = cells.shape[1] * w
    return [text[i:i + size] for i in range(0, len(text), size)]


def _vertices_unhex(spec: FormSpec, texts) -> np.ndarray:
    """The (m, D, n) coordinates of m vertex strings, each of which must be
    D n w hex digits, w per coordinate, every coordinate in GF(b);
    ValueError names the first vertex that is not."""
    w, m = _hex_width(spec), len(texts)
    size = spec.D * spec.n * w
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=m)
    bad = np.flatnonzero(lengths != size)
    if len(bad):
        i = bad[0]
        raise ValueError(f"vertex {i} has {lengths[i]} characters, "
                         f"expected {size} hex digits")
    # a non-ASCII character becomes "?", so every string stays `size` bytes
    raw = "".join(texts).encode("ascii", "replace")
    digits = _HEX_VALUES[np.frombuffer(raw, dtype=np.uint8)].reshape(m, size)
    bad = np.argwhere(digits == 255)
    if len(bad):
        i, j = bad[0]
        raise ValueError(f"vertex {i} has {texts[i][j]!r} at position {j}, "
                         "which is no hex digit")
    shifts = 4 * np.arange(w - 1, -1, -1)
    cells = (digits.reshape(m, -1, w).astype(np.int64) << shifts).sum(-1)
    bad = np.flatnonzero((cells >= spec.b).any(1))
    if len(bad):
        raise ValueError(f"vertex {bad[0]} ({texts[bad[0]]!r}) has a "
                         f"coordinate outside GF({spec.b})")
    return cells.astype(np.int16).reshape(m, spec.D, spec.n)


def graph_to_json(spec: FormSpec, verts) -> dict:
    return {"family": spec.family, "D": spec.D, "b": spec.b,
            "vertices": _vertices_hex(spec, verts)}


def graph_from_json(data: dict) -> PolarGraph:
    # here, not at the top: `build` writes graphs and never loads `exact`
    from .exact import parse_int, parse_strings

    if not isinstance(data, dict):
        raise TypeError("expected a JSON object")
    for key in data:
        if key not in ("family", "D", "b", "vertices"):
            raise ValueError(f"unknown field {key!r}")
    spec = FormSpec(data["family"], parse_int(data, "D"),
                    parse_int(data, "b"))
    texts = parse_strings(data, "vertices")
    m = len(texts)
    count = _vertex_count(spec, m)
    if m != count:
        raise ValueError(f"file has {m} vertices, the dual polar graph "
                         + (f"{count}" if count <= m else f"more than {m}"))
    rows = _vertices_unhex(spec, texts)
    if not _totally_isotropic(spec, rows).all():
        raise ValueError("vertex in file is not totally isotropic")
    return _certified_graph(spec, rows)


def save_graph(spec: FormSpec, verts, path: str):
    with open(path, "w") as fh:  # one dumps runs the C encoder
        fh.write(json.dumps(graph_to_json(spec, verts)))


def load_graph(path: str) -> PolarGraph:
    with open(path) as fh:
        return graph_from_json(json.load(fh))
