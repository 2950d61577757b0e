"""Timed passes of one workload, in the fresh interpreter run.py starts.

    python3 perfbench/worker.py --workload W --seed N --seconds S
        --trace 0|1 --workdir DIR

Runs whole passes of the workload's commands through
``linksched.cli.main`` until S seconds have gone (at least one pass),
timing each command and checking its outputs.  With --trace 1 it runs
exactly one pass with every layer boundary wrapped (spans.Tracer) and
checks that pass's counts against the exact counts in reference.json.
The result, spans included, is written to DIR/result.json once, when
the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

from spans import EXACT_COUNTS, Tracer
from workloads import steps

HERE = os.path.dirname(os.path.abspath(__file__))


def _env() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    from linksched import cli

    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f)
    entry = cli.main
    tracer = None
    if args.trace:
        tracer = Tracer(args.workload)
        tracer.install()
        entry = tracer.wrap("cli.main", cli.main)

    times: dict[str, list[float]] = {}
    totals: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    seconds = 0.0 if args.trace else args.seconds
    start = time.perf_counter()
    while not totals or time.perf_counter() - start < seconds:
        d = os.path.join(args.workdir, f"pass{len(totals)}")
        total = 0.0
        for step in steps(args.workload, d, args.seed):
            attempted += 1
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = entry(list(step.argv))
            except Exception:
                rc = traceback.format_exc()
            elapsed = time.perf_counter() - t0
            total += elapsed
            times.setdefault(step.metric, []).append(elapsed / step.per)
            if rc != 0:
                failed += 1
                problems.append(f"{step.argv[0]} failed: {rc}")
                continue
            try:
                bad = step.check(d, ref)
            except (OSError, KeyError, ValueError) as exc:
                bad = [f"{step.argv[0]}: unreadable output: {exc!r}"]
            failed += bool(bad)
            problems += bad
        totals.append(total)

    if tracer:
        want = ref["counts"][args.workload]
        for key in EXACT_COUNTS:
            got = tracer.counts.get(key, 0)
            if got != want[key]:
                problems.append(f"count drift: {key}={got}, "
                                f"reference {want[key]}")

    # ru_maxrss is in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result = {"attempted": attempted, "failed": failed, "problems": problems,
              "times": times, "totals": totals, "peak_rss_mb": peak_mb,
              "env": _env(), "linksched": cli.__file__,
              "trace": tracer.dump() if tracer else None}
    with open(os.path.join(args.workdir, "result.json"), "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
