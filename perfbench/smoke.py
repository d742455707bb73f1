"""Self-test of the benchmark on small inputs; finishes in seconds.

    python3 perfbench/smoke.py

Runs run.py on the `smoke` workload (D_3(2), n=30, and one d=4 array) and
checks that:
- untraced and traced runs print every metric BENCHMARK.json names, with
  its unit, and that the outputs were judged correct;
- every traced span has a non-negative self time and the self times sum to
  the root span;
- two traced runs give identical counts;
- run.py fails, without printing a result, where there are no sources.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(trace: int, cwd: str = ROOT, seed: int = 1):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", "smoke", "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def main() -> int:
    errors = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    results = {}
    for trace, tag in ((0, "untraced"), (1, "traced"), (1, "traced again")):
        proc = run(trace)
        if proc.returncode != 0:
            errors.append(f"{tag}: exit {proc.returncode}: {proc.stderr}")
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results[tag] = res
        if set(res) != {"correct", "attempted", "failed", "metrics"}:
            errors.append(f"{tag}: result keys {sorted(res)}")
        if res["correct"] is not True or res["failed"] != 0:
            errors.append(f"{tag}: outputs judged wrong: {proc.stderr}")
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        if got != want[trace]:
            errors.append(f"{tag}: metrics differ from BENCHMARK.json: "
                          f"{sorted(set(got) ^ set(want[trace]))}")
        if tag == "traced":
            errors += span_errors(os.path.join(HERE, "work", "smoke",
                                               "spans.json"))

    if "traced" in results and "traced again" in results:
        for name, m in results["traced"]["metrics"].items():
            if m["unit"] != "s" and name not in (
                    "trace.overhead_ratio",):
                again = results["traced again"]["metrics"][name]["value"]
                if again != m["value"]:
                    errors.append(f"{name}: {m['value']} then {again}")

    bare = os.path.join(HERE, "work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            shutil.copy(os.path.join(HERE, name),
                        os.path.join(bare, "perfbench"))
    proc = run(0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        errors.append("run.py without sources did not fail cleanly")

    for e in errors:
        print(f"FAIL {e}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failures")
    return 1 if errors else 0


def span_errors(path: str) -> list:
    with open(path) as fh:
        spans = json.load(fh)["spans"]
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    errors = []
    if len(roots) != 1:
        errors.append(f"{len(roots)} root spans")
    elif abs(sum(own) - (spans[roots[0]][2] - spans[roots[0]][1])) > 1e-6:
        errors.append("self times do not sum to the root span")
    if min(own) < -1e-9:
        errors.append(f"negative self time {min(own)}")
    return errors


if __name__ == "__main__":
    sys.exit(main())
