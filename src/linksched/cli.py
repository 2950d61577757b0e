"""Command-line front end: reproducible runs with file outputs.

Every subcommand resolves its parameters, writes its outputs plus a
run manifest into one directory, and prints a short summary.  Outputs
are pure functions of the manifest's parameters (simulation included,
via the seed), so re-running a manifest reproduces them byte for byte;
the manifest's own timestamp is the only thing that moves.

Exit codes: 0 success, 1 usage or input error, 2 infeasible problem,
3 internal solver anomaly, 4 verification failure (construction
certificate, envelope mass range, reducible policy chain).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .construction import (
    THRESHOLD_HEADER,
    ConstructionError,
    MassRangeError,
    compute_thresholds,
    density_from_measure,
    power_ratio,
    threshold_policy_from_text,
    threshold_policy_to_text,
    to_threshold_policy,
    verify_deterministic,
    verify_feasibility,
)
from .model import discretize_channel, load_config, validate_config
from .occupancy_lp import (
    POLICY_HEADER,
    ReducibleChainError,
    evaluate_measure,
    extract_policy,
    measure_to_text,
    min_delay,
    policy_from_text,
    policy_to_measure,
    policy_to_text,
    solve_constrained,
    solve_lagrangian,
)
from .simplex import SimplexAnomaly
from .simulator import report_to_csv, report_to_text, run_sim
from .sweep import (
    InfeasibleCurveError,
    SweepError,
    TradeoffCurve,
    convergence_study,
    curve_to_csv,
    default_budget_grid,
    default_lambda_max,
    distances_to_csv,
    enumerate_vertices,
    policy_id,
    sweep_curve,
    vertices_to_csv,
)
from .textio import csv_text, fmt, kv_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_ANOMALY = 3
EXIT_VERIFY = 4

OUTDIR_ENV = "LINKSCHED_OUTDIR"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write_atomic(path: str, text: str) -> None:
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_manifest(outdir: str, command: str, config: str, params: dict) -> None:
    manifest = {
        "command": command,
        "config": config,
        "params": params,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    _write_atomic(os.path.join(outdir, "manifest.json"),
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _outdir(args) -> str:
    d = args.outdir or os.environ.get(OUTDIR_ENV) or "."
    os.makedirs(d, exist_ok=True)
    return d


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _parse_ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


# --- subcommands -----------------------------------------------------------

def _cmd_solve(args) -> int:
    cfg = load_config(args.config)
    disc = discretize_channel(cfg.channel, args.bins)
    outdir = _outdir(args)
    sol = solve_constrained(cfg, disc, args.dth)
    if sol.status != "optimal":
        print(f"status={sol.status}")
        return EXIT_INFEASIBLE
    delay, power = evaluate_measure(sol.measure)
    pol = extract_policy(sol.measure)
    _write_atomic(os.path.join(outdir, "measure.csv"), measure_to_text(sol.measure))
    _write_atomic(os.path.join(outdir, "policy.csv"), policy_to_text(pol))
    metrics = [
        ("status", sol.status),
        ("objective", sol.objective),
        ("delay", delay),
        ("power", power),
        ("delay_dual", sol.delay_dual),
        ("iterations", sol.iterations),
        ("policy_kind", pol.kind),
    ]
    _write_atomic(os.path.join(outdir, "metrics.txt"), kv_text(metrics))
    _write_manifest(outdir, "solve", args.config, {
        "bins": args.bins, "dth": args.dth, "outdir": outdir})
    print(f"status=optimal power={fmt(power)} delay={fmt(delay)} "
          f"policy={pol.kind}")
    print(f"wrote measure.csv policy.csv metrics.txt in {outdir}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    bins_list = _parse_ints(args.bins_list)
    budgets = _parse_floats(args.dgrid) if args.dgrid else None
    outdir = _outdir(args)
    study = convergence_study(cfg, bins_list, budgets)
    for curve in study.curves:
        _write_atomic(os.path.join(outdir, f"curve_m{curve.M}.csv"),
                      curve_to_csv(curve))
    gaps = ",".join(fmt(g) for g in study.sup_gaps)
    _write_atomic(os.path.join(outdir, "sup_gaps.txt"), csv_text(
        "pair,sup_gap", ((f"{a}-{b}", g) for a, b, g in zip(
            bins_list[:-1], bins_list[1:], study.sup_gaps))))
    _write_manifest(outdir, "sweep", args.config, {
        "bins_list": bins_list,
        "dgrid": budgets if budgets is None else [float(b) for b in budgets],
        "outdir": outdir})
    print(f"curves for M={bins_list} ({len(study.curves[0].budgets)} budgets);"
          f" sup gaps {gaps}")
    print(f"wrote {len(study.curves)} curve CSVs in {outdir}")
    return EXIT_OK


def _cmd_vertices(args) -> int:
    cfg = load_config(args.config)
    disc = discretize_channel(cfg.channel, args.bins)
    outdir = _outdir(args)
    lam_max = args.lambda_max if args.lambda_max else default_lambda_max(cfg)
    if args.full:
        verts = enumerate_vertices(cfg, disc, lam_max)
        curve = TradeoffCurve(
            M=disc.bins,
            budgets=np.array([v.D for v in verts]),
            powers=np.array([v.P for v in verts]),
            infeasible=(), vertices=verts)
    else:
        grid = default_budget_grid(cfg, disc)
        curve = sweep_curve(cfg, disc, [grid[0], grid[-1]],
                            with_vertices=True, lambda_max=lam_max)
    _write_atomic(os.path.join(outdir, f"vertices_m{disc.bins}.csv"),
                  vertices_to_csv(curve))
    _write_atomic(os.path.join(outdir, f"distances_m{disc.bins}.csv"),
                  distances_to_csv(curve))
    for i, v in enumerate(curve.vertices):
        _write_atomic(os.path.join(outdir, f"{policy_id(disc.bins, i)}.txt"),
                      policy_to_text(v.policy))
    _write_manifest(outdir, "vertices", args.config, {
        "bins": args.bins, "lambda_max": lam_max, "full": bool(args.full),
        "outdir": outdir})
    eu, dd_max = curve.max_distance
    print(f"M={disc.bins}: {len(curve.vertices)} vertices, max adjacent "
          f"distance euclidean={fmt(eu)} delay_axis={fmt(dd_max)}")
    print(f"wrote vertex/distance CSVs and policies in {outdir}")
    return EXIT_OK


def _cmd_construct(args) -> int:
    cfg = load_config(args.config)
    disc = discretize_channel(cfg.channel, args.bins)
    outdir = _outdir(args)
    sol = solve_constrained(cfg, disc, args.dth)
    if sol.status != "optimal":
        print(f"status={sol.status}")
        return EXIT_INFEASIBLE
    dens = density_from_measure(sol.measure)
    y = compute_thresholds(dens, args.cells, order=args.order)
    rep = verify_feasibility(y)
    det = verify_deterministic(y)
    ratio = power_ratio(y, dens)
    pol = to_threshold_policy(y)
    _write_atomic(os.path.join(outdir, "thresholds.csv"),
                  threshold_policy_to_text(pol))
    report = [
        ("cells", args.cells),
        ("order", args.order),
        ("delay", rep.delay),
        ("power", rep.power),
        ("source_power", ratio.source_power),
        ("power_ratio", ratio.ratio),
        ("ratio_bound", ratio.bound),
        ("channel_residual", rep.channel_residual),
        ("balance_residual", rep.balance_residual),
        ("nonneg_residual", rep.nonneg_residual),
        ("structural_residual", rep.structural_residual),
        ("rate_residual", rep.rate_residual),
        ("delay_residual", rep.delay_residual),
        ("deterministic", det.ok),
    ]
    _write_atomic(os.path.join(outdir, "report.txt"), kv_text(report))
    _write_manifest(outdir, "construct", args.config, {
        "bins": args.bins, "dth": args.dth, "cells": args.cells,
        "order": args.order, "outdir": outdir})
    print(f"ratio={fmt(ratio.ratio)} (bound {fmt(ratio.bound)}) "
          f"max_residual={fmt(rep.max_residual)} deterministic={det.ok}")
    print(f"wrote thresholds.csv report.txt in {outdir}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    with open(args.policy) as f:
        text = f.read()
    header = text.splitlines()[0] if text else ""
    if header == THRESHOLD_HEADER:
        pol = threshold_policy_from_text(text, cfg)
    elif header == POLICY_HEADER:
        if not args.bins:
            print("error: --bins is required for bin-policy files",
                  file=sys.stderr)
            return EXIT_USAGE
        disc = discretize_channel(cfg.channel, args.bins)
        pol = policy_from_text(text, cfg, disc)
    else:
        print(f"error: unrecognized policy header {header!r}", file=sys.stderr)
        return EXIT_USAGE
    outdir = _outdir(args)
    rep = run_sim(cfg, pol, args.slots, warmup=args.warmup, seed=args.seed,
                  trace_path=os.path.join(outdir, "trace.csv")
                  if args.trace else None)
    _write_atomic(os.path.join(outdir, "report.txt"), report_to_text(rep))
    _write_atomic(os.path.join(outdir, "report.csv"), report_to_csv(rep))
    _write_manifest(outdir, "simulate", args.config, {
        "policy": args.policy, "bins": args.bins, "slots": args.slots,
        "warmup": rep.warmup, "seed": args.seed, "trace": bool(args.trace),
        "outdir": outdir})
    print(f"delay={fmt(rep.delay)}+-{fmt(rep.se_delay)} "
          f"power={fmt(rep.mean_power)}+-{fmt(rep.se_power)} "
          f"drops={rep.drops} overrides={rep.underflow_overrides}")
    print(f"wrote report.txt report.csv in {outdir}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = load_config(args.config)
    lines: list[str] = []
    failed = False

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failed
        failed = failed or not ok
        status = "PASS" if ok else "FAIL"
        lines.append(f"{status}  {name}" + (f"  ({detail})" if detail else ""))

    validate_config(cfg)
    check("config validation", True)

    disc = discretize_channel(cfg.channel, 2)
    ch = cfg.channel
    if ch.kind == "uniform":
        mid = disc.edges[1]
        r0 = np.log(mid / ch.h_min) / (mid - ch.h_min)
        ok = abs(disc.inv_means[0] - r0) <= 1e-12
        check("bin statistics closed form", ok,
              f"|r0 - {fmt(r0)}| = {fmt(abs(disc.inv_means[0] - r0))}")
    else:
        check("bin statistics closed form", True, "skipped: non-uniform law")

    disc16 = discretize_channel(cfg.channel, 16)
    d_min, _ = min_delay(cfg, disc16)
    d_th = 3.0 * d_min
    sol = solve_constrained(cfg, disc16, d_th)
    check("constrained solve optimal", sol.status == "optimal",
          f"status={sol.status}")
    m = sol.measure
    res = max(m.bin_residual(), m.balance_residual(), m.structural_zero_mass())
    check("measure residuals <= 1e-8", res <= 1e-8, f"max={fmt(res)}")
    delay, power = evaluate_measure(m)
    slack = abs(sol.delay_dual * (delay - d_th))
    check("dual complementarity <= 1e-6", slack <= 1e-6, f"|dual*slack|={fmt(slack)}")

    _, lam_d, lam_p = solve_lagrangian(cfg, disc16, max(sol.delay_dual, 0.0))
    scal_gap = (lam_p + sol.delay_dual * lam_d) - (power + sol.delay_dual * delay)
    check("scalarized value consistent <= 1e-6", abs(scal_gap) <= 1e-6,
          f"gap={fmt(scal_gap)}")

    dens = density_from_measure(m)
    prev_ratio = None
    ratios_ok, mono_ok, resid_ok, det_ok = True, True, True, True
    for cells in (1, 4, 64, 380):
        y = compute_thresholds(dens, cells)
        rep = verify_feasibility(y)
        det = verify_deterministic(y)
        ratio = power_ratio(y, dens)
        resid_ok = resid_ok and rep.max_residual <= 1e-8 and rep.rate_residual <= 1e-10
        det_ok = det_ok and det.ok
        ratios_ok = ratios_ok and ratio.ratio <= ratio.bound + 1e-10
        if prev_ratio is not None:
            mono_ok = mono_ok and ratio.ratio <= prev_ratio + 1e-12
        prev_ratio = ratio.ratio
    check("threshold feasibility residuals", resid_ok)
    check("threshold determinism (exact intervals)", det_ok)
    check("power ratio within bound", ratios_ok)
    check("power ratio nonincreasing in cells", mono_ok,
          f"last={fmt(prev_ratio)}")

    pol = extract_policy(m)
    m2 = policy_to_measure(cfg, disc16, pol)
    d2, p2 = evaluate_measure(m2)
    ok = abs(d2 - delay) <= 1e-8 and abs(p2 - power) <= 1e-8
    check("policy round trip to measure", ok,
          f"dD={fmt(abs(d2 - delay))} dP={fmt(abs(p2 - power))}")

    disc4 = discretize_channel(cfg.channel, 4)
    grid = default_budget_grid(cfg, disc4, points=12)
    study = convergence_study(cfg, (2, 4), grid)
    check("curve refinement dominance", True,
          f"sup_gap={fmt(study.sup_gaps[0])}")

    verts = enumerate_vertices(cfg, disc4)
    kinds_ok = all(v.policy.kind == "deterministic" for v in verts)
    check("corner policies deterministic", kinds_ok, f"corners={len(verts)}")
    curve4 = study.curves[1]
    vd = np.array([v.D for v in verts])
    vp = np.array([v.P for v in verts])
    inside = (curve4.budgets >= vd[0]) & (curve4.budgets <= vd[-1])
    hull = np.interp(curve4.budgets[inside], vd, vp)
    gap = float(np.abs(hull - curve4.powers[inside]).max()) if inside.any() else 0.0
    check("curve matches corner hull <= 1e-6", gap <= 1e-6, f"gap={fmt(gap)}")

    rep1 = run_sim(cfg, pol, 60_000, seed=args.seed)
    rep2 = run_sim(cfg, pol, 60_000, seed=args.seed)
    check("simulation determinism", report_to_text(rep1) == report_to_text(rep2))
    check("simulation clean (no drops, no overrides)",
          rep1.drops == 0 and rep1.underflow_overrides == 0,
          f"drops={rep1.drops} overrides={rep1.underflow_overrides}")
    z_d = abs(rep1.delay - delay) / rep1.se_delay if rep1.se_delay else 0.0
    z_p = abs(rep1.mean_power - power) / rep1.se_power if rep1.se_power else 0.0
    check("simulation agreement <= 4 sigma", z_d <= 4.0 and z_p <= 4.0,
          f"z_delay={z_d:.2f} z_power={z_p:.2f}")
    z_w = (abs(rep1.sojourn_mean - rep1.delay) / rep1.se_delay
           if rep1.se_delay else 0.0)
    check("backlog and sojourn delays agree <= 4 sigma", z_w <= 4.0,
          f"z={z_w:.2f}")

    outdir = _outdir(args)
    table = "\n".join(lines) + "\n"
    _write_atomic(os.path.join(outdir, "verify.txt"), table)
    _write_manifest(outdir, "verify", args.config, {
        "seed": args.seed, "outdir": outdir})
    print(table, end="")
    print(f"wrote verify.txt in {outdir}")
    return EXIT_VERIFY if failed else EXIT_OK


# --- wiring ----------------------------------------------------------------

def _build_parser() -> _Parser:
    p = _Parser(prog="linksched",
                description="Queue-and-channel aware rate scheduling: "
                            "LP solves, threshold constructions, sweeps, "
                            "and simulation.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default="paper_iv",
                        help="built-in config name or JSON path")
        sp.add_argument("--outdir", default=None,
                        help=f"output directory (default ${OUTDIR_ENV} or .)")

    sp = sub.add_parser("solve", help="one constrained LP solve")
    common(sp)
    sp.add_argument("--bins", type=int, default=16)
    sp.add_argument("--dth", type=float, required=True,
                    help="average delay budget in slots")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("sweep", help="tradeoff curves across bin counts")
    common(sp)
    sp.add_argument("--bins-list", default="2,4,8,16")
    sp.add_argument("--dgrid", default=None,
                    help="comma-separated budgets (default: 60 points, "
                         "min delay to 3x)")
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("vertices", help="corners of the tradeoff curve")
    common(sp)
    sp.add_argument("--bins", type=int, default=16)
    sp.add_argument("--lambda-max", type=float, default=None)
    sp.add_argument("--full", action="store_true",
                    help="report all corners, not just the default "
                         "swept delay span")
    sp.set_defaults(func=_cmd_vertices)

    sp = sub.add_parser("construct", help="threshold schedule from an LP solve")
    common(sp)
    sp.add_argument("--bins", type=int, default=16)
    sp.add_argument("--dth", type=float, required=True)
    sp.add_argument("--M", "--cells", dest="cells", type=int, required=True,
                    help="number of equal channel cells for the thresholds")
    sp.add_argument("--order", default="rate_descending",
                    choices=("rate_descending", "rate_ascending"))
    sp.set_defaults(func=_cmd_construct)

    sp = sub.add_parser("simulate", help="Monte Carlo run of a policy file")
    common(sp)
    sp.add_argument("--policy", required=True, help="policy CSV path")
    sp.add_argument("--bins", type=int, default=None,
                    help="bin count (bin-policy files only)")
    sp.add_argument("--slots", type=int, default=1_000_000)
    sp.add_argument("--warmup", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trace", action="store_true",
                    help="also write a per-slot trace (large)")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("verify", help="run the certification battery")
    common(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_verify)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (ConstructionError, ReducibleChainError, MassRangeError) as e:
        # the last two are ValueErrors, so they must be caught first
        print(f"verification failure: {e}", file=sys.stderr)
        return EXIT_VERIFY
    except (FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SimplexAnomaly as e:
        print(f"solver anomaly: {e}", file=sys.stderr)
        return EXIT_ANOMALY
    except SweepError as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, InfeasibleCurveError):
            return EXIT_INFEASIBLE
        return EXIT_ANOMALY


if __name__ == "__main__":
    sys.exit(main())
