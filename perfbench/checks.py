"""Output checks for one CLI call of a workload.

`build` must print the vertex count, valency and diameter that the closed
forms in `dualpolar.drg` give.  `verify` and `leonard` must print a JSON
report whose exit code agrees with its summary and which holds every
expected check id.  A failed check is a failed operation; it makes the run
incorrect unless the known-failure ledger lists it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

BUILD_RE = re.compile(r"wrote .*: (\d+) vertices, valency (\d+), "
                      r"diameter (\d+)\s*$")


@dataclass
class Outcome:
    """What one call contributed: operations attempted and failed, report
    counts, ledgered failures seen, and problems that make the run wrong."""
    attempted: int = 0
    failed: int = 0
    checks_pass: int = 0
    checks_skipped: int = 0
    known: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def add(self, other: "Outcome"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.checks_pass += other.checks_pass
        self.checks_skipped += other.checks_skipped
        self.known += other.known
        self.problems += other.problems


def closed_form_build(family: str, D: int, b: int) -> tuple[int, int, int]:
    """(vertices, valency, diameter) from drg's closed-form intersection
    numbers; the multiplicities must sum to the same vertex count."""
    from dualpolar import drg
    from dualpolar.polar import FormSpec

    spec = FormSpec(family, D, b)
    c, _, bb = drg.closed_form_intersection(spec)
    k = [Fraction(1)]
    for i in range(1, len(c)):
        k.append(k[-1] * bb[i - 1] / c[i])
    n = sum(k)
    if n.denominator != 1 or sum(drg.closed_form_multiplicities(spec)) != n:
        raise AssertionError(f"closed forms disagree for {family}_{D}({b})")
    return int(n), bb[0], len(c) - 1


def _known(ledger, workload, call, check) -> bool:
    return any(k["workload"] == workload and k["call"] == call["label"]
               and k["check"] == check["id"]
               and k["witness"] in str(check.get("witness", ""))
               for k in ledger)


def check_call(workload: str, call: dict, rc, stdout: str, ledger: list,
               closed_forms: dict) -> Outcome:
    """Judge one call from its exit code (None: crashed or timed out) and
    its standard output."""
    out = Outcome(attempted=1)
    label = call["label"]
    if rc is None:
        out.failed = 1
        out.problems.append(f"{label}: timed out or crashed")
        return out
    exp = call["expect"]
    if call["kind"] == "build":
        m = BUILD_RE.search(stdout)
        key = (exp["family"], exp["D"], exp["b"])
        if rc != 0 or m is None:
            out.failed = 1
            out.problems.append(f"{label}: exit {rc}, no build summary")
        elif tuple(map(int, m.groups())) != closed_forms[key]:
            out.failed = 1
            out.problems.append(f"{label}: printed {m.groups()}, closed "
                                f"forms give {closed_forms[key]}")
        return out
    try:
        report = json.loads(stdout)
        checks = report["checks"]
        summary = report["summary"]
    except (ValueError, KeyError, TypeError):
        out.failed = 1
        out.problems.append(f"{label}: exit {rc}, no JSON report")
        return out
    if rc != (1 if summary["fail"] else 0):
        out.failed = 1
        out.problems.append(f"{label}: exit {rc} disagrees with {summary}")
    seen = {c["id"] for c in checks}
    for want in exp["ids"]:
        if not seen.intersection(want.split("|")):
            out.problems.append(f"{label}: check {want} missing")
    for c in checks:
        if c["status"] == "skipped":
            out.checks_skipped += 1
            continue
        out.attempted += 1
        if c["status"] == "pass":
            out.checks_pass += 1
            continue
        out.failed += 1
        if _known(ledger, workload, call, c):
            out.known.append(f"{label}: {c['id']}")
        else:
            out.problems.append(f"{label}: {c['id']} failed: "
                                f"{str(c.get('witness'))[:200]}")
    return out
