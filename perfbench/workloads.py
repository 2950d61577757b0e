"""The three workloads: linksched CLI commands on paper_iv, and their checks.

Why these three (see also BENCHMARK.json):

* corners_m16 -- ``vertices --bins 16 --full``, the paper's headline
  object: 113 corners from 231 cold Lagrangian LPs of shape 432 x 192.
  Nearly all time is in simplex, the rest in the corner bookkeeping of
  sweep; construction and simulator are never touched.  ROADMAP item 2
  (policy-iteration corners) should move it, item 4 should not.
* lp_scaling -- ``solve`` at M=64 (one 1728 x 769 LP whose 15 MB dense
  tableau spills L2) then ``sweep`` over M=2,4,8,16 (241 small LPs that
  fit in L2 and share A_eq/b_eq).  ROADMAP item 3 (sparse formulation,
  warm start) should move it, item 2 should not.
* deploy_m16 -- solve at M=16, simulate its bin policy, construct the
  K=2000 threshold rule, simulate that.  Time is in simulator and
  construction; simplex does two small solves.  The simulator runs both
  policy kinds (table lookup with a randomised draw, and a searchsorted
  per slot), so a change that helps one kind and hurts the other shows.
  Each simulation is 2.5e5 slots, which keeps one pass near 10 s; times
  are still reported per 10^6 slots.  ROADMAP item 4 should move it,
  items 2 and 3 should not.

The seed feeds only the simulator's streams; LP work is deterministic.
Every step is one CLI command, timed on its own, followed by a check of
its output files against reference.json (values recorded at the seed
commit) or, for simulations, against the analytic delay and power.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("corners_m16", "lp_scaling", "deploy_m16")
SLOTS = 250_000
OBJECTIVE_RTOL = 1e-9
CURVE_RTOL = 1e-9
CORNER_RTOL = 1e-7
SIM_SIGMAS = 4.0


@dataclass(frozen=True)
class Step:
    metric: str  # end-to-end metric that this command's wall time feeds
    argv: tuple[str, ...]
    check: Callable[[str, dict], list[str]]  # (pass dir, reference) -> problems
    per: float = 1.0  # divide the time by this (10^6-slot units for simulate)


def _read_kv(path: str) -> dict[str, str]:
    with open(path) as f:
        return dict(ln.split("=", 1) for ln in f.read().splitlines() if ln)


def _read_csv(path: str) -> list[list[str]]:
    with open(path) as f:
        return [ln.split(",") for ln in f.read().splitlines()[1:] if ln]


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(abs(want), 1e-300)


def _check_solve(sub: str, ref_key: str):
    def check(d: str, ref: dict) -> list[str]:
        m = _read_kv(os.path.join(d, sub, "metrics.txt"))
        if m.get("status") != "optimal":
            return [f"{sub}: status={m.get('status')}"]
        got, want = float(m["objective"]), ref[ref_key]
        if not _close(got, want, OBJECTIVE_RTOL):
            return [f"{sub}: objective {got!r} != reference {want!r}"]
        return []
    return check


def _check_corners(d: str, ref: dict) -> list[str]:
    out = os.path.join(d, "vertices")
    rows = _read_csv(os.path.join(out, "vertices_m16.csv"))
    want = ref["corners_m16"]
    if len(rows) != len(want):
        return [f"vertices: {len(rows)} corners, reference has {len(want)}"]
    problems = []
    for i, (row, (wd, wp)) in enumerate(zip(rows, want)):
        gd, gp = float(row[1]), float(row[2])
        if not (_close(gd, wd, CORNER_RTOL) and _close(gp, wp, CORNER_RTOL)):
            problems.append(f"vertices: corner {i} ({gd!r}, {gp!r}) != "
                            f"reference ({wd!r}, {wp!r})")
        # each corner's policy file must be one-hot in every (q, bin) row
        rates: dict[tuple[str, str], list[float]] = {}
        for q, k, _s, prob, _t in _read_csv(os.path.join(out, row[3] + ".txt")):
            rates.setdefault((q, k), []).append(float(prob))
        if any(len(p) != 1 or p[0] != 1.0 for p in rates.values()):
            problems.append(f"vertices: {row[3]} is not deterministic")
    return problems


def _check_sweep(d: str, ref: dict) -> list[str]:
    problems = []
    for m, want in ref["curves"].items():
        rows = _read_csv(os.path.join(d, "sweep", f"curve_m{m}.csv"))
        got = [(float(b), float(p)) for _m, b, p in rows]
        if len(got) != len(want["budgets"]):
            problems.append(f"sweep: curve_m{m} has {len(got)} budgets, "
                            f"reference has {len(want['budgets'])}")
            continue
        for (gb, gp), wb, wp in zip(got, want["budgets"], want["powers"]):
            if not (_close(gb, wb, CURVE_RTOL) and _close(gp, wp, CURVE_RTOL)):
                problems.append(f"sweep: curve_m{m} ({gb!r}, {gp!r}) != "
                                f"reference ({wb!r}, {wp!r})")
                break
    return problems


def _check_construct(d: str, ref: dict) -> list[str]:
    rep = _read_kv(os.path.join(d, "construct", "report.txt"))
    problems = []
    for key, want in ref["construct_m16"].items():
        if not _close(float(rep[key]), want, OBJECTIVE_RTOL):
            problems.append(f"construct: {key} {rep[key]} != reference {want!r}")
    if rep["deterministic"] != "True":
        problems.append("construct: thresholds not deterministic")
    if float(rep["power_ratio"]) > float(rep["ratio_bound"]):
        problems.append("construct: power ratio above its bound")
    return problems


def _check_sim(sub: str, analytic: tuple[str, str]):
    """Simulated delay and power within SIM_SIGMAS batch-means standard
    errors of the analytic values in `analytic` (dir, file), no drops
    and no underflow overrides; holds for any seed."""
    def check(d: str, ref: dict) -> list[str]:
        rep = _read_kv(os.path.join(d, sub, "report.txt"))
        exact = _read_kv(os.path.join(d, *analytic))
        problems = []
        for est, se, key in (("delay", "se_delay", "delay"),
                             ("mean_power", "se_power", "power")):
            z = abs(float(rep[est]) - float(exact[key])) / float(rep[se])
            if not z <= SIM_SIGMAS:
                problems.append(f"{sub}: {est} {rep[est]} is {z:.2f} standard "
                                f"errors from the analytic {exact[key]}")
        if rep["drops"] != "0" or rep["underflow_overrides"] != "0":
            problems.append(f"{sub}: drops={rep['drops']} "
                            f"overrides={rep['underflow_overrides']}")
        return problems
    return check


def steps(workload: str, d: str, seed: int) -> list[Step]:
    """The commands of one pass of `workload`, writing under `d`."""
    def out(sub: str) -> tuple[str, str]:
        return ("--outdir", os.path.join(d, sub))

    if workload == "corners_m16":
        return [Step("vertices_s", ("vertices", "--bins", "16", "--full",
                                    *out("vertices")), _check_corners)]
    if workload == "lp_scaling":
        return [
            Step("solve_s", ("solve", "--dth", "3.0", "--bins", "64",
                             *out("solve")), _check_solve("solve", "objective_m64")),
            Step("sweep_s", ("sweep", "--bins-list", "2,4,8,16", *out("sweep")),
                 _check_sweep),
        ]
    if workload == "deploy_m16":
        sim = ("--slots", str(SLOTS), "--seed", str(seed))
        per = SLOTS / 1e6
        return [
            Step("solve_m16_s", ("solve", "--dth", "3.0", "--bins", "16",
                             *out("solve")), _check_solve("solve", "objective_m16")),
            Step("simulate_bin_s",
                 ("simulate", "--policy", os.path.join(d, "solve", "policy.csv"),
                  "--bins", "16", *sim, *out("sim_bin")),
                 _check_sim("sim_bin", ("solve", "metrics.txt")), per),
            Step("construct_s", ("construct", "--dth", "3.0", "--bins", "16",
                                 "--M", "2000", *out("construct")),
                 _check_construct),
            Step("simulate_threshold_s",
                 ("simulate", "--policy",
                  os.path.join(d, "construct", "thresholds.csv"), *sim,
                  *out("sim_threshold")),
                 _check_sim("sim_threshold", ("construct", "report.txt")), per),
        ]
    raise ValueError(f"unknown workload {workload!r}")

