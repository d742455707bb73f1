"""Run one pass of a workload's CLI calls inside this interpreter.

    python3 perfbench/inproc.py CALLS.json OUT.json [--spans SPANS.json]

CALLS.json is the call list written by run.py: [{"argv": [...]}, ...].
Each call goes through `dualpolar.cli.main(argv)` with stdout captured.
OUT.json receives each call's exit code, stdout, error and seconds and the
pass's wall time.  With --spans the pass runs under the tracer: OUT.json
also gets the per-layer metrics and the span count, and SPANS.json gets
every span.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import time
import traceback


def run_call(main, argv) -> dict:
    out = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # noqa: BLE001 - a crash is recorded, not fatal
        rc = None
        error = traceback.format_exc(limit=-3)
    return {"rc": rc, "stdout": out.getvalue(), "error": error,
            "seconds": time.perf_counter() - t0}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("calls")
    ap.add_argument("out")
    ap.add_argument("--spans")
    args = ap.parse_args()
    with open(args.calls) as fh:
        calls = json.load(fh)

    from dualpolar import cli

    tracer = None
    if args.spans:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        root = tracer.open("bench.pass")
    t0 = time.perf_counter()
    results = []
    for call in calls:
        idx = tracer.open("bench.call") if tracer else None
        results.append(run_call(cli.main, call["argv"]))
        if tracer:
            tracer.close(idx)
    wall = time.perf_counter() - t0
    result = {"wall_s": wall, "calls": results}
    if tracer:
        tracer.close(root)
        tracer.uninstall()
        result["layers"] = tracing.layer_metrics(tracer)
        result["spans"] = len(tracer.names)
        tracer.dump(args.spans)
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
