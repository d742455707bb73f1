"""Workloads: fixed lists of `dualpolar` CLI calls, with seeded inputs.

The seed picks only `--base-vertex` and the dual q-Krawtchouk parameters
h, h*, kappa, kappa*, upsilon; graph families and sizes are fixed, so runs
with different seeds do the same amount of work.  Why each workload exists:

- graph-build: GF enumeration (2A_odd_3(4)) and the dense BFS distance
  check (C_3(3)); no exact linear algebra runs.
- verify-dense: `verify --suite all` on C_2(7), n=400, above the n <= 300
  cutoffs, so dense int64 products and integer RREF dominate.
- verify-modules: D_4(2), n=270, under the cutoffs, so every Leonard bridge,
  the center identities and both U_q(sl2) variants run over Q(sqrt 2).
- leonard: abstract Leonard systems, dominated by exact scalar arithmetic on
  matrices of size at most 17.
- smoke: D_3(2) and one d=4 array, for the benchmark's self-test only.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

LFRK_IDS = [
    "lfrk:K L = q^2 L K",
    "lfrk:K F = F K",
    "lfrk:K R = q^-2 R K",
    "lfrk:L F - q^2 F L = (q^2e - 1) L",
    "lfrk:F R - q^2 R F = (q^2e - 1) R",
    "lfrk:q^4/(q^2+1) R L^2 - L R L + q^-2/(q^2+1) L^2 R = -q^(2e+2D-2) L",
    "lfrk:q^4/(q^2+1) R^2 L - R L R + q^-2/(q^2+1) L R^2 = -q^(2e+2D-2) R",
]

# ids every `verify --suite all` report has; "a|b" accepts either id, so
# lifting the n <= 300 cutoffs (which replaces "uq" by "uq:variant1") keeps
# the expectation met
VERIFY_IDS = [
    "drg:counts", "drg:intersection", "drg:multiplicities",
    "drg:dual-eigenvalues", "drg:krein", "drg:td-scalars",
    *LFRK_IDS, "lfrk:recovery", "lfrk:commuting", "lfrk:tridiagonal",
    "central:construction", "central:omega-entries", "central:g-entries",
    "central:characterization", "modules:dimension",
    "modules:center-identities", "uq|uq:variant1",
]

# the homogeneous components (r, t, d) of the graphs under the n <= 300
# cutoffs; each gets a modules:leonard check
MODULE_IDS = {
    ("D", 3, 2): [(0, 0, 3), (1, 1, 1), (2, 1, 1)],
    ("D", 4, 2): [(0, 0, 4), (1, 1, 2), (2, 1, 2), (2, 2, 0), (3, 2, 0),
                  (4, 2, 0)],
}

LEONARD_IDS = [
    "leonard:validate", "leonard:realize:split",
    "leonard:realize:normalized-split", "leonard:realize:standard",
    "leonard:d4:*", "leonard:d4:down", "leonard:d4:ddown",
    "leonard:d4:braid", "leonard:scalars", "leonard:uq",
]

# |h|, |h*|, |kappa|, |kappa*|, |upsilon| of the leonard arrays
MAGNITUDES = (2, 2, 1, 2, 3)
Q_TEXT = {4: "2", 3: "0 + 1*sqrt(3)"}  # q as the CLI parses it, by q^2


def _call(label, kind, argv, **expect):
    return {"label": label, "kind": kind, "argv": argv, "expect": expect}


def _build(work, family, D, b):
    path = os.path.join(work, f"graph-{family}-{D}-{b}.json")
    argv = ["build", "--family", family, "--D", str(D), "--b", str(b),
            "--out", path]
    return _call(f"build {family}_{D}({b})", "build", argv,
                 family=family, D=D, b=b), path


def _sample_vertices(n, count, base):
    """The vertices `verify --all-vertices-sample count` visits."""
    step = max(1, n // count)
    return [i for i in range(0, n, step) if i != base][:count]


def _verify(rng, graph, family, D, b, n, sample=0):
    # the base vertex avoids the sample grid, so every seed samples the same
    # number of vertices and does the same work
    grid = set(_sample_vertices(n, sample, -1)) if sample else set()
    base = rng.choice([v for v in range(n) if v not in grid])
    argv = ["verify", "--graph", graph, "--suite", "all",
            "--base-vertex", str(base)]
    ids = list(VERIFY_IDS)
    if sample:
        argv += ["--all-vertices-sample", str(sample)]
        ids += [f"modules:base-vertex:{x}"
                for x in _sample_vertices(n, sample, base)]
    if (family, D, b) in MODULE_IDS:
        ids += ["modules:center-commute", "uq:variant1", "uq:cross-variant"]
        ids += [f"modules:leonard:{t}" for t in MODULE_IDS[(family, D, b)]]
    return _call(f"verify {family}_{D}({b})", "verify", argv, ids=ids,
                 base_vertex=base)


def dqk_draw(rng, q2: int, d: int) -> dict:
    """Seeded h, h*, kappa, kappa*, upsilon for q^2 = q2, redrawn until they
    meet the conditions DqkParams.check enforces: kappa, kappa*, upsilon
    nonzero and kappa != upsilon q^(2i-2d) for 1 <= i < 2d (q^(2i) != 1
    holds for q^2 in {3, 4}).

    The seed picks signs; magnitudes are fixed because the cost of the
    exact arithmetic grows with them (h* = 4 costs about 25% more than
    h* = 1 at d = 16), so every seed does the same amount of work."""
    while True:
        h, hs, kappa, ks, ups = (rng.choice((-m, m)) for m in MAGNITUDES)
        if all(kappa != ups * Fraction(q2) ** (i - d)
               for i in range(1, 2 * d)):
            return {"h": h, "h_star": hs, "kappa": kappa, "kappa_star": ks,
                    "upsilon": ups}


def _leonard(rng, work, qname, q2, d):
    params = dqk_draw(rng, q2, d)
    data = {"q": Q_TEXT[q2], "d": d,
            **{k: str(v) for k, v in params.items()}}
    path = os.path.join(work, f"dqk-{qname}-{d}.json")
    with open(path, "w") as fh:
        json.dump(data, fh)
    return _call(f"leonard q={qname},d={d}", "leonard",
                 ["leonard", "--params", path], ids=LEONARD_IDS,
                 params=data), path


def plan(name: str, seed: int, work: str):
    """(calls, generated input files) of one workload; writes the inputs."""
    rng = random.Random(f"{name}:{seed}")
    calls, inputs = [], []
    if name == "graph-build":
        for fam, D, b in (("2A_odd", 3, 4), ("C", 3, 3)):
            call, path = _build(work, fam, D, b)
            calls.append(call)
            inputs.append(path)
    elif name in ("verify-dense", "verify-modules", "smoke"):
        fam, D, b, n, sample = {
            "verify-dense": ("C", 2, 7, 400, 0),
            "verify-modules": ("D", 4, 2, 270, 3),
            "smoke": ("D", 3, 2, 30, 2),
        }[name]
        call, path = _build(work, fam, D, b)
        calls += [call, _verify(rng, path, fam, D, b, n, sample)]
        inputs.append(path)
    if name in ("leonard", "smoke"):
        arrays = ((("2", 4, 16), ("sqrt3", 3, 8), ("sqrt3", 3, 12))
                  if name == "leonard" else (("sqrt3", 3, 4),))
        for qname, q2, d in arrays:
            call, path = _leonard(rng, work, qname, q2, d)
            calls.append(call)
            inputs.append(path)
    if not calls:
        raise KeyError(name)
    return calls, inputs


NAMES = ("graph-build", "verify-dense", "verify-modules", "leonard", "smoke")
