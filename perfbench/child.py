"""One timed `dualpolar` call in a fresh interpreter, with the host's speed
measured alongside it.

    python3 perfbench/child.py OUT.json run ARG...   # dualpolar.cli ARG...
    python3 perfbench/child.py OUT.json import       # import dualpolar.cli

The shared host this benchmark runs on changes speed by 1.4 to 1.6 times in
phases that last from a second to tens of seconds, longer than a run can
average out.  So a fixed probe is timed alongside the call, and run.py
rescales the call's seconds to the speed at which the probe takes its
reference time:
- `run`: exact Fraction arithmetic plus an int64 matrix product, the two
  kinds of work the CLI calls do, timed from a SIGALRM handler every 0.1 s
  while the call runs.  The call integrates the host's speed over its
  length, so the speed is the probe's mean; the probe's time is taken out
  of the call's.
- `import`: a pure-Python integer loop repeated for 0.2 s right after the
  import, whose own cost is numpy's start-up and a trial-division prime
  search at module level.  The speed is the probe's median, which drops
  probe runs cut by preemption.
OUT.json receives the call's seconds, the probe's samples and the
rescaled seconds.

The call's exit code is this interpreter's exit code.  The stdout of `run`
is the CLI's stdout.
"""

from __future__ import annotations

import json
import runpy
import signal
import statistics
import sys
import time
import traceback

_matrix = []


def call_probe() -> float:
    """Seconds for about 60% Fraction arithmetic and 40% a 120x120 int64
    matrix product."""
    from fractions import Fraction

    import numpy

    if not _matrix:
        _matrix.append(numpy.arange(120 * 120, dtype=numpy.int64)
                       .reshape(120, 120) % 97)
    t0 = time.perf_counter()
    s, x = Fraction(0), Fraction(3, 7)
    for i in range(1, 300):
        s += x * i / (i + 1)
    _matrix[0] @ _matrix[0]
    return time.perf_counter() - t0


def int_probe() -> float:
    """Seconds for a pure-Python integer loop."""
    t0 = time.perf_counter()
    n, d = 10_000_019, 2
    while d * d <= n:
        n % d
        d += 1
    return time.perf_counter() - t0


CALL_PERIOD_S = 0.1     # call_probe sampling period during `run`
CALL_REF_S = 0.0025     # call_probe seconds at the reference speed
IMPORT_PROBE_S = 0.2    # int_probe time after `import`
INT_REF_S = 0.00025     # int_probe seconds at the reference speed


def sampled(body, probe, period) -> tuple:
    """(body's result, seconds in body less probe time, probe samples)."""
    samples = [probe() for _ in range(3)]  # imports done, caches warm
    n0 = len(samples)

    def on_alarm(signum, frame):
        samples.append(probe())

    signal.signal(signal.SIGALRM, on_alarm)
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, period, period)
    try:
        result = body()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        seconds = time.perf_counter() - t0 - sum(samples[n0:])
    return result, seconds, samples


def run_cli(argv) -> int:
    sys.argv = ["dualpolar", *argv]
    try:
        runpy.run_module("dualpolar.cli", run_name="__main__")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else int(bool(exc.code))
    except Exception:  # noqa: BLE001 - exits 1 with a traceback, as python -m
        traceback.print_exc()
        return 1
    return 0


def main() -> int:
    out, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode == "run":
        rc, seconds, samples = sampled(lambda: run_cli(argv), call_probe,
                                       CALL_PERIOD_S)
        scaled = seconds * CALL_REF_S / statistics.fmean(samples)
    else:
        t0 = time.perf_counter()
        import dualpolar.cli  # noqa: F401

        seconds = time.perf_counter() - t0
        rc, samples, t1 = 0, [], time.perf_counter()
        while time.perf_counter() - t1 < IMPORT_PROBE_S:
            samples.append(int_probe())
        scaled = seconds * INT_REF_S / statistics.median(samples)
    sys.stdout.flush()
    with open(out, "w") as fh:
        json.dump({"rc": rc, "seconds": seconds, "scaled": scaled,
                   "samples": samples}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
