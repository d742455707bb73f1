"""Benchmark of the `dualpolar` command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/dualpolar`.  The workloads
(graph-build, verify-dense, verify-modules, leonard) are fixed lists of CLI
calls described in workloads.py; the seed picks the base vertex and the dual
q-Krawtchouk parameters.  Every output is checked (checks.py).

--trace 0 runs each call in its own child interpreter (child.py), one after
another, repeating the whole list while another pass fits in S seconds (at
least one pass), and reports medians over passes:
  wall_s       time of all calls of a pass, from importing dualpolar to exit
  setup_s      median time of `import dualpolar.cli` in a fresh interpreter
  peak_rss_mb  largest resident set of any call of a pass
Both times are rescaled to a fixed host speed, measured by a probe timed
alongside each call (child.py says why); the raw times are in result.json
and on the provenance line.

--trace 1 runs one pass in-process (inproc.py) twice in fresh interpreters,
untraced and then traced (tracer.py), and reports the per-layer metrics,
the traced/untraced wall ratio and the report-level counts.

The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}.  The line before it is the
run's provenance, also written with the result to perfbench/work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

CALL_TIMEOUT_S = 60     # one CLI call; the slowest takes about 16 s today
RUN_BUDGET_S = 165      # the whole run, set-up included
SETUP_SAMPLES = 7

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def left(deadline: float) -> float:
    return deadline - time.perf_counter()


def spawn(argv, stdout_path, timeout) -> tuple:
    """Run argv in a new session; (exit code or None on timeout, seconds,
    peak RSS in MB).  On timeout the whole process group is killed and
    reaped before returning."""
    with open(stdout_path, "w") as out, \
            open(stdout_path + ".err", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=err, start_new_session=True)
        expired = threading.Event()

        def kill():
            expired.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    rc = None if expired.is_set() else proc.returncode
    return rc, seconds, usage.ru_maxrss / 1024.0


def timed_child(argv, work, name, timeout) -> tuple:
    """Run child.py on argv; (exit code or None on timeout, seconds at the
    reference speed, raw seconds, peak RSS in MB, stdout).  Where child.py
    wrote no timing (a timeout), the raw wall time stands for both."""
    out = os.path.join(work, name + ".out")
    timing = os.path.join(work, name + ".time.json")
    if os.path.exists(timing):
        os.remove(timing)
    rc, wall, peak = spawn([sys.executable, CHILD, timing, *argv], out,
                           timeout)
    with open(out) as fh:
        stdout = fh.read()
    if rc is None or not os.path.exists(timing):
        return rc, wall, wall, peak, stdout
    with open(timing) as fh:
        t = json.load(fh)
    return rc, t["scaled"], t["seconds"], peak, stdout


def measure_setup(work: str, deadline: float) -> tuple:
    """Medians of SETUP_SAMPLES imports of dualpolar.cli, each in a fresh
    interpreter after one warm-up: (at reference speed, raw)."""
    scaled, raw = [], []
    for i in range(SETUP_SAMPLES + 1):  # the first one fills caches
        rc, seconds, raw_s, _, _ = timed_child(
            ["import"], work, "setup", min(30.0, left(deadline)))
        if rc != 0:
            raise SystemExit("error: fresh interpreter cannot import "
                             "dualpolar.cli")
        if i:
            scaled.append(seconds)
            raw.append(raw_s)
    return scaled, raw


def cli_pass(workload, calls, work, deadline, ledger, forms):
    """One pass, each call in its own interpreter; (outcome, seconds at the
    reference speed, raw seconds, peak RSS in MB)."""
    outcome = checks.Outcome()
    wall, raw, rss = 0.0, 0.0, 0.0
    for i, call in enumerate(calls):
        budget = min(CALL_TIMEOUT_S, left(deadline))
        rc, seconds, raw_s, peak, stdout = None, 0.0, 0.0, 0.0, ""
        if budget > 1.0:  # otherwise the call counts as timed out
            rc, seconds, raw_s, peak, stdout = timed_child(
                ["run", *call["argv"]], work, f"call{i}", budget)
        outcome.add(checks.check_call(workload, call, rc, stdout, ledger,
                                      forms))
        wall += seconds
        raw += raw_s
        rss = max(rss, peak)
    return outcome, wall, raw, rss


def inproc_pass(workload, calls, work, deadline, ledger, forms, traced):
    """One pass of cli.main calls inside one fresh interpreter."""
    tag = "traced" if traced else "plain"
    calls_path = os.path.join(work, "calls.json")
    with open(calls_path, "w") as fh:
        json.dump([{"argv": c["argv"]} for c in calls], fh)
    out_path = os.path.join(work, f"inproc-{tag}.json")
    argv = [sys.executable, os.path.join(HERE, "inproc.py"), calls_path,
            out_path]
    if traced:
        argv += ["--spans", os.path.join(work, "spans.json")]
    rc, _, _ = spawn(argv, os.path.join(work, f"inproc-{tag}.out"),
                     left(deadline))
    outcome = checks.Outcome()
    if rc != 0:
        for call in calls:
            outcome.add(checks.check_call(workload, call, None, "", ledger,
                                          forms))
        return outcome, None
    with open(out_path) as fh:
        result = json.load(fh)
    for call, res in zip(calls, result["calls"]):
        outcome.add(checks.check_call(workload, call, res["rc"],
                                      res["stdout"], ledger, forms))
    return outcome, result


def sha256(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def blas_threads():
    """OpenBLAS thread count of this numpy, or None where it cannot be read."""
    import ctypes
    import glob

    import numpy

    for lib in glob.glob(os.path.dirname(numpy.__file__) + ".libs/*blas*"):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance(args, calls, inputs) -> dict:
    import numpy

    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = top.stdout.split()
        commit = (lines[1] if top.returncode == 0 and len(lines) == 2
                  and os.path.samefile(lines[0], ROOT) else None)
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    tree = hashlib.sha256()
    sources = sorted(os.path.relpath(os.path.join(base, name), SRC)
                     for base, _, files in os.walk(os.path.join(SRC, "dualpolar"))
                     for name in files if name.endswith(".py"))
    for rel in sources:
        tree.update(rel.encode())
        tree.update(sha256(os.path.join(SRC, rel)).encode())
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_commit": commit, "src_sha256": tree.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "PYTHONDONTWRITEBYTECODE")},
        "inputs": {os.path.relpath(p, ROOT): sha256(p) for p in inputs},
        "calls": [{"label": c["label"], "argv": c["argv"],
                   "expect": c["expect"]} for c in calls],
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    deadline = time.perf_counter() + RUN_BUDGET_S
    if not os.path.isfile(os.path.join(SRC, "dualpolar", "cli.py")):
        print(f"error: no dualpolar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.chdir(ROOT)

    work = os.path.join(HERE, "work", args.workload)
    os.makedirs(work, exist_ok=True)
    for name in os.listdir(work):
        os.remove(os.path.join(work, name))
    calls, inputs = workloads.plan(args.workload, args.seed,
                                   os.path.relpath(work, ROOT))
    with open(os.path.join(HERE, "ledger.json")) as fh:
        ledger = json.load(fh)["known_failures"]
    forms = {(c["expect"]["family"], c["expect"]["D"], c["expect"]["b"]):
             checks.closed_form_build(c["expect"]["family"],
                                      c["expect"]["D"], c["expect"]["b"])
             for c in calls if c["kind"] == "build"}

    total = checks.Outcome()
    if args.trace == 0:
        setup, raw_setup = measure_setup(work, deadline)
        walls, raws, rsses = [], [], []
        t0 = time.perf_counter()
        while True:
            outcome, wall, raw, rss = cli_pass(args.workload, calls, work,
                                               deadline, ledger, forms)
            total.add(outcome)
            walls.append(wall)
            raws.append(raw)
            rsses.append(rss)
            spent = time.perf_counter() - t0
            last = spent / len(walls)
            if spent + last > args.seconds or left(deadline) < 2 * last:
                break
        metrics = {"wall_s": statistics.median(walls),
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": statistics.median(rsses)}
        units = dict(E2E_UNITS)
        extra = {"passes": len(walls), "wall_s": walls, "setup_s": setup,
                 "peak_rss_mb": rsses, "raw_wall_s": raws,
                 "raw_setup_s": raw_setup}
    else:
        plain_outcome, plain = inproc_pass(args.workload, calls, work,
                                           deadline, ledger, forms, False)
        traced_outcome, traced = inproc_pass(args.workload, calls, work,
                                             deadline, ledger, forms, True)
        total.add(plain_outcome)
        total.add(traced_outcome)
        metrics, units = trace_metrics(calls, plain, traced, plain_outcome)
        extra = {"spans": traced and traced["spans"]}

    prov = provenance(args, calls, inputs)
    result = {
        "correct": not total.problems,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump({"provenance": prov, "result": result, "detail": extra,
                   "known_failures": total.known,
                   "problems": total.problems}, fh, indent=1)
    for problem in total.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": prov, "known_failures": total.known,
                      "raw": {k: extra[k] for k in ("raw_wall_s",
                                                     "raw_setup_s")
                              if k in extra}}))
    print(json.dumps(result))
    return 0


def trace_metrics(calls, plain, traced, outcome) -> tuple[dict, dict]:
    """Per-layer metrics of a --trace 1 run, with their units."""
    import tracer

    if traced:
        metrics = dict(traced["layers"])
    else:  # the traced pass crashed or timed out; the run is incorrect
        metrics = dict.fromkeys(tracer.LAYER_METRICS, 0.0)
        metrics["linexact.object_fallback_ratio"] = 0.0
    metrics["cli.verify_s"] = sum(
        (res["seconds"] for call, res in zip(calls, plain["calls"])
         if call["kind"] == "verify"), 0.0) if plain else 0.0
    metrics["cli.checks_pass"] = outcome.checks_pass
    metrics["cli.checks_skipped"] = outcome.checks_skipped
    metrics["cli.fail_ratio"] = outcome.failed / outcome.attempted
    metrics["trace.overhead_ratio"] = (
        traced["wall_s"] / plain["wall_s"] if plain and traced else 0.0)
    return metrics, {name: layer_unit(name) for name in metrics}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return {"linexact.matmul_ops": "ops-computed",
            "linexact.matmul_bytes": "B-computed",
            "linexact.max_den_bits": "bits"}.get(name, "count")


if __name__ == "__main__":
    sys.exit(main())
