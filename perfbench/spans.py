"""Spans and counts at linksched's layer boundaries, recorded from outside.

Each linksched module imports the functions it calls from the module
below it by name (``from .occupancy_lp import solve_constrained``), so a
call crossing a layer boundary looks the name up in the *calling*
module's namespace.  `Tracer.install` replaces those names with wrappers
that record one span per call, plus the counts that only the call's
arguments or result carry (LP shape, pivots, slots simulated).  Nothing
under ``src/`` changes.

A span is the tuple (name, start, end, parent span index, workload).
Spans stay in memory until the run ends; `layer_metrics` then turns
them into per-layer totals and self times (a span's duration minus the
time its child spans cover).  The wrappers also time their own
bookkeeping: that sum is trace.overhead_s, the part of a traced pass's
total_s that tracing added.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (calling module, bound name, span name); the callee's layer names the span.
BOUNDARIES = (
    ("cli", "load_config", "model.load_config"),
    ("cli", "discretize_channel", "model.discretize_channel"),
    ("sweep", "discretize_channel", "model.discretize_channel"),
    ("cli", "solve_constrained", "occupancy_lp.solve_constrained"),
    ("cli", "extract_policy", "occupancy_lp.extract_policy"),
    ("cli", "policy_from_text", "occupancy_lp.policy_from_text"),
    ("cli", "policy_to_measure", "occupancy_lp.policy_to_measure"),
    ("sweep", "solve_constrained", "occupancy_lp.solve_constrained"),
    ("sweep", "solve_lagrangian", "occupancy_lp.solve_lagrangian"),
    ("sweep", "min_delay", "occupancy_lp.min_delay"),
    ("sweep", "extract_policy", "occupancy_lp.extract_policy"),
    ("sweep", "policy_to_measure", "occupancy_lp.policy_to_measure"),
    ("occupancy_lp", "build_occupancy_lp", "occupancy_lp.build_occupancy_lp"),
    ("occupancy_lp", "solve_simplex", "simplex.solve_simplex"),
    ("cli", "enumerate_vertices", "sweep.enumerate_vertices"),
    ("sweep", "enumerate_vertices", "sweep.enumerate_vertices"),
    ("cli", "convergence_study", "sweep.convergence_study"),
    ("sweep", "sweep_curve", "sweep.sweep_curve"),
    ("cli", "density_from_measure", "construction.density_from_measure"),
    ("cli", "compute_thresholds", "construction.compute_thresholds"),
    ("cli", "verify_feasibility", "construction.verify_feasibility"),
    ("cli", "verify_deterministic", "construction.verify_deterministic"),
    ("cli", "power_ratio", "construction.power_ratio"),
    ("cli", "to_threshold_policy", "construction.to_threshold_policy"),
    ("cli", "threshold_policy_from_text",
     "construction.threshold_policy_from_text"),
    ("cli", "run_sim", "simulator.run_sim"),
)

# name -> (unit, better, the end-to-end metric and workload it should move)
PER_LAYER = {
    "model.discretize_s": ("s", "lower", "setup_s, all workloads"),
    "model.load_config_s": ("s", "lower", "setup_s, all workloads"),
    "occupancy_lp.build_s": ("s", "lower", "solve_s, sweep_s on lp_scaling"),
    "occupancy_lp.lp_vars": ("count", "lower", "solve_s, sweep_s on lp_scaling"),
    "occupancy_lp.lp_rows": ("count", "lower", "solve_s, sweep_s on lp_scaling"),
    "occupancy_lp.lp_nnz": ("count", "lower", "solve_s, sweep_s on lp_scaling"),
    "occupancy_lp.extract_policy_s": ("s", "lower", "vertices_s on corners_m16"),
    "occupancy_lp.policy_to_measure_s": ("s", "lower",
                                         "vertices_s on corners_m16"),
    "simplex.solves": ("count", "lower", "vertices_s; solve_s, sweep_s"),
    "simplex.self_s": ("s", "lower", "vertices_s; solve_s, sweep_s"),
    "simplex.pivots": ("count", "lower", "vertices_s; solve_s, sweep_s"),
    "simplex.pivots_per_solve": ("pivot/solve", "lower",
                                 "vertices_s; solve_s, sweep_s"),
    "simplex.dropped_rows": ("count", "lower", "vertices_s; solve_s, sweep_s"),
    "simplex.solve_ms_p50": ("ms", "lower", "vertices_s; solve_s, sweep_s"),
    "simplex.solve_ms_p95": ("ms", "lower", "vertices_s; solve_s, sweep_s"),
    "simplex.tableau_bytes": ("bytes", "lower", "solve_s on lp_scaling"),
    "simplex.bytes_moved_computed": ("bytes", "lower", "solve_s on lp_scaling"),
    "sweep.enumerate_self_s": ("s", "lower", "vertices_s on corners_m16"),
    "sweep.lagrangian_solves": ("count", "lower", "vertices_s on corners_m16"),
    "sweep.corners": ("count", "higher", "vertices_s on corners_m16"),
    "sweep.corners_per_solve": ("ratio", "higher", "vertices_s on corners_m16"),
    "sweep.budget_solves": ("count", "lower", "sweep_s on lp_scaling"),
    "sweep.infeasible_budgets": ("count", "lower", "sweep_s on lp_scaling"),
    "sweep.sweep_self_s": ("s", "lower", "sweep_s on lp_scaling"),
    "construction.thresholds_s": ("s", "lower", "construct_s on deploy_m16"),
    "construction.feasibility_s": ("s", "lower", "construct_s on deploy_m16"),
    "construction.determinism_s": ("s", "lower", "construct_s on deploy_m16"),
    "construction.power_ratio_s": ("s", "lower", "construct_s on deploy_m16"),
    "construction.to_policy_s": ("s", "lower", "construct_s on deploy_m16"),
    "simulator.bin_s_per_mslot": ("s/Mslot", "lower",
                                  "simulate_bin_s, peak_rss_mb on deploy_m16"),
    "simulator.threshold_s_per_mslot": (
        "s/Mslot", "lower", "simulate_threshold_s, peak_rss_mb on deploy_m16"),
    "cli.self_s": ("s", "lower", "vertices_s on corners_m16"),
    "trace.overhead_s": ("s", "lower", "traced total_s, every workload"),
}

# Counts that must repeat exactly from run to run (see reference.json).
EXACT_COUNTS = (
    "simplex.solves", "simplex.pivots", "simplex.dropped_rows",
    "simplex.first_solve_pivots", "occupancy_lp.lp_vars",
    "occupancy_lp.lp_rows", "occupancy_lp.lp_nnz", "sweep.lagrangian_solves",
    "sweep.corners", "sweep.budget_solves", "sweep.infeasible_budgets",
)


class Tracer:
    """Records spans and counts for one workload's traced passes."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.solve_ms: list[float] = []
        self.overhead_s = 0.0  # time spent in the wrappers themselves
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        after = getattr(self, "_after_" + name.split(".")[-1], None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            # open spans already carry their name, for the count hooks
            self.spans.append((name, 0.0, 0.0, parent, self.workload))
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.workload)
            if after is not None:
                after(idx, args, result)
            self.overhead_s += (start - entered) + (time.perf_counter() - end)
            return result

        return traced

    def install(self) -> None:
        """Wrap every boundary for the rest of this (worker) process."""
        for mod_name, attr, span in BOUNDARIES:
            mod = importlib.import_module(f"linksched.{mod_name}")
            setattr(mod, attr, self.wrap(span, getattr(mod, attr)))

    # --- counts read off arguments and results ---------------------------

    def _after_solve_simplex(self, idx, args, res) -> None:
        lp = args[0]
        n = lp.c.shape[0]
        me, mu = lp.A_eq.shape[0], lp.A_ub.shape[0]
        rows = me + mu
        # solve_simplex's tableau: columns x, ub slacks, one artificial per
        # eq row and per negative-rhs ub row, then the rhs
        width = n + mu + me + int((lp.b_ub < 0.0).sum()) + 1
        c = self.counts
        if c["simplex.solves"] == 0:
            c["simplex.first_solve_pivots"] = res.iterations
        c["simplex.solves"] += 1
        c["simplex.pivots"] += res.iterations
        c["simplex.dropped_rows"] += len(res.dropped_eq_rows)
        c["simplex.bytes_moved_computed"] += res.iterations * rows * width * 8
        c["simplex.tableau_bytes"] = max(c["simplex.tableau_bytes"],
                                         rows * width * 8)
        c["occupancy_lp.lp_vars"] = max(c["occupancy_lp.lp_vars"], n)
        c["occupancy_lp.lp_rows"] = max(c["occupancy_lp.lp_rows"], rows)
        c["occupancy_lp.lp_nnz"] = max(c["occupancy_lp.lp_nnz"],
                                       int((lp.A_eq != 0.0).sum()))
        _, start, end, _, _ = self.spans[idx]
        self.solve_ms.append((end - start) * 1e3)

    def _after_solve_lagrangian(self, idx, args, res) -> None:
        self.counts["sweep.lagrangian_solves"] += 1

    def _after_solve_constrained(self, idx, args, sol) -> None:
        parent = self.spans[idx][3]
        if parent is not None and self.spans[parent][0] == "sweep.sweep_curve":
            self.counts["sweep.budget_solves"] += 1
            self.counts["sweep.infeasible_budgets"] += sol.status != "optimal"

    def _after_enumerate_vertices(self, idx, args, verts) -> None:
        self.counts["sweep.corners"] += len(verts)

    def _after_run_sim(self, idx, args, rep) -> None:
        kind = ("threshold" if type(args[1]).__name__ == "ThresholdPolicy"
                else "bin")
        _, start, end, _, _ = self.spans[idx]
        self.counts[f"simulator.{kind}_s"] += end - start
        self.counts[f"simulator.{kind}_slots"] += rep.slots

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "solve_ms": self.solve_ms, "overhead_s": self.overhead_s}


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus children's cover.

    Spans nest (one thread, strict call order), so the children of a
    span cover disjoint parts of it and their durations simply add.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for (name, start, end, _, _), cov in zip(spans, covered):
        out[name] += (end - start) - cov
    return out


def _percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks; 0.0 for no values."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def layer_metrics(trace: dict) -> dict[str, float]:
    """Every PER_LAYER metric, from one dump."""
    spans = trace["spans"]
    counts = defaultdict(int, trace["counts"])
    total: dict[str, float] = defaultdict(float)
    for name, start, end, _, _ in spans:
        total[name] += end - start
    own = self_times(spans)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    return {
        "model.discretize_s": total["model.discretize_channel"],
        "model.load_config_s": total["model.load_config"],
        "occupancy_lp.build_s": total["occupancy_lp.build_occupancy_lp"],
        "occupancy_lp.lp_vars": counts["occupancy_lp.lp_vars"],
        "occupancy_lp.lp_rows": counts["occupancy_lp.lp_rows"],
        "occupancy_lp.lp_nnz": counts["occupancy_lp.lp_nnz"],
        "occupancy_lp.extract_policy_s": total["occupancy_lp.extract_policy"],
        "occupancy_lp.policy_to_measure_s":
            total["occupancy_lp.policy_to_measure"],
        "simplex.solves": counts["simplex.solves"],
        "simplex.self_s": own["simplex.solve_simplex"],
        "simplex.pivots": counts["simplex.pivots"],
        "simplex.pivots_per_solve": ratio(counts["simplex.pivots"],
                                          counts["simplex.solves"]),
        "simplex.dropped_rows": counts["simplex.dropped_rows"],
        "simplex.solve_ms_p50": _percentile(trace["solve_ms"], 50),
        "simplex.solve_ms_p95": _percentile(trace["solve_ms"], 95),
        "simplex.tableau_bytes": counts["simplex.tableau_bytes"],
        "simplex.bytes_moved_computed": counts["simplex.bytes_moved_computed"],
        "sweep.enumerate_self_s": own["sweep.enumerate_vertices"],
        "sweep.lagrangian_solves": counts["sweep.lagrangian_solves"],
        "sweep.corners": counts["sweep.corners"],
        "sweep.corners_per_solve": ratio(counts["sweep.corners"],
                                         counts["sweep.lagrangian_solves"]),
        "sweep.budget_solves": counts["sweep.budget_solves"],
        "sweep.infeasible_budgets": counts["sweep.infeasible_budgets"],
        "sweep.sweep_self_s": (own["sweep.convergence_study"]
                               + own["sweep.sweep_curve"]),
        "construction.thresholds_s": total["construction.compute_thresholds"],
        "construction.feasibility_s": total["construction.verify_feasibility"],
        "construction.determinism_s":
            total["construction.verify_deterministic"],
        "construction.power_ratio_s": total["construction.power_ratio"],
        "construction.to_policy_s": total["construction.to_threshold_policy"],
        "simulator.bin_s_per_mslot": 1e6 * ratio(
            counts["simulator.bin_s"], counts["simulator.bin_slots"]),
        "simulator.threshold_s_per_mslot": 1e6 * ratio(
            counts["simulator.threshold_s"], counts["simulator.threshold_slots"]),
        "cli.self_s": own["cli.main"],
        "trace.overhead_s": trace["overhead_s"],
    }
