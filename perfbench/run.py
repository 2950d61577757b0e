"""End-to-end and per-layer benchmark of the linksched CLI on paper_iv.

    python3 perfbench/run.py --workload corners_m16|lp_scaling|deploy_m16
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; linksched is imported from the
checkout's ``src/``.  Each invocation handles one workload (see
workloads.py) in fresh processes, one at a time, with
OPENBLAS_NUM_THREADS=1: numpy links multithreaded OpenBLAS, and on the
2-core machine the figures were taken on a second thread made the M=64
solve no faster, only noisier.

* --trace 0: SETUP_PROBES fresh interpreters time the set-up
  (probe.py), then one worker runs whole passes of the workload until S
  seconds have gone (at least one pass).  Prints setup_s, total_s (wall
  time of one pass's commands), peak_rss_mb, error_rate and the time of
  each command (vertices_s, solve_s, sweep_s, solve_m16_s, construct_s,
  simulate_bin_s, simulate_threshold_s; simulations per 10^6 slots),
  each as median, quartiles and sample count.
* --trace 1: one worker runs a single pass with every layer boundary
  wrapped (spans.py).  Prints the per-layer metrics with their units and
  the end-to-end metric each should move, and checks the exact counts
  against reference.json.

Every command's outputs are checked (workloads.py); a failed command or
check counts toward error_rate and makes the result incorrect.  The
last line of stdout is one JSON object: correct, attempted, failed and
the metrics of BENCHMARK.json, which lists only the end-to-end metrics
every workload has (setup_s, total_s, peak_rss_mb).  Outputs, spans
included (result.json), are left in ``.perfbench/<workload>/``.
Exit status: 0 when correct, 1 when not, 2 when the checkout has no
linksched source.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

from spans import PER_LAYER, layer_metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
THREADS = "1"
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 160

E2E_UNITS = {"setup_s": "s", "total_s": "s", "peak_rss_mb": "MB"}


def _summary(values: list[float]) -> tuple[float, float, float, int]:
    """(median, first quartile, third quartile, sample count)."""
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def _caches() -> str:
    """L2 and L3 sizes as the kernel lists them for cpu0."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = []
    try:
        for idx in sorted(n for n in os.listdir(base) if n.startswith("index")):
            with open(os.path.join(base, idx, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(base, idx, "size")) as f:
                size = f.read().strip()
            if level in ("2", "3"):
                out.append(f"L{level} {size}")
    except OSError:
        return "caches unknown"
    return ", ".join(out) + " per cache instance"


def _run(cmd: list[str], env: dict) -> subprocess.CompletedProcess:
    """Run to completion; past the timeout the child is killed and reaped."""
    try:
        return subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return subprocess.CompletedProcess(cmd, "timeout", "")


def _worker(env, args) -> dict:
    workdir = os.path.join(ROOT, ".perfbench", args.workload)
    result = os.path.join(workdir, "result.json")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    proc = _run([sys.executable, os.path.join(HERE, "worker.py"),
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--workdir", workdir], env)
    if proc.returncode != 0 or not os.path.exists(result):
        return {"attempted": 1, "failed": 1, "totals": [], "times": {},
                "problems": [f"worker exited with {proc.returncode}"]}
    with open(result) as f:
        res = json.load(f)
    if os.path.dirname(os.path.dirname(res["linksched"])) != SRC:
        res["problems"].append(f"linksched imported from {res['linksched']}")
    return res


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "linksched", "cli.py")):
        print(f"perfbench: no linksched source in {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=THREADS)

    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc = _run([sys.executable, os.path.join(HERE, "probe.py")], env)
            if proc.returncode == 0:
                setup.append(float(proc.stdout))
    res = _worker(env, args)
    attempted, failed, problems = res["attempted"], res["failed"], res["problems"]
    if not args.trace and len(setup) != SETUP_PROBES:
        problems.append(f"{SETUP_PROBES - len(setup)} set-up probes failed")

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    if "env" in res:
        e = res["env"]
        print(f"env: python {e['python']}, numpy {e['numpy']}, {e['blas']}, "
              f"OPENBLAS_NUM_THREADS={e['OPENBLAS_NUM_THREADS']}, "
              f"nproc {len(os.sched_getaffinity(0))}, {_caches()}")
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}  unit"
          + ("  (traced pass)" if args.trace else ""))
    e2e = {"total_s": res["totals"], **res["times"]}
    if setup:
        e2e["setup_s"] = setup
    if "peak_rss_mb" in res:
        e2e["peak_rss_mb"] = [res["peak_rss_mb"]]
    for name, values in e2e.items():
        if values:
            med, q1, q3, n = _summary(values)
            unit = E2E_UNITS.get(name, "s")
            print(f"{name:34} {med:14.6f} {q1:14.6f} {q3:14.6f} {n:3}  {unit}")
    print(f"{'error_rate':34} {failed / attempted:14.6f} "
          f"({failed} failed / {attempted} attempted)  ratio")

    if args.trace:
        metrics = {}
        if res.get("trace"):
            layer = layer_metrics(res["trace"])
            for name, (unit, _better, moves) in PER_LAYER.items():
                metrics[name] = {"value": layer[name], "unit": unit}
                value = layer[name]
                shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
                print(f"{name:34} {shown} {unit:>11}  -> {moves}")
    else:
        metrics = {name: {"value": _summary(e2e[name])[0], "unit": unit}
                   for name, unit in E2E_UNITS.items() if e2e.get(name)}

    for p in problems:
        print(f"FAIL {p}")
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
