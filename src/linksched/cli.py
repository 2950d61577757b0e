"""Command-line front end: reproducible runs with file outputs.

Every subcommand runs in one skeleton.  `main` loads the config and
resolves the output directory; the command computes, prints a short
summary and returns its exit code with its outputs as {file name:
text}; `main` then writes those files atomically, plus a run manifest
whose parameters are the parsed options, each default the command
resolved (outdir, lambda_max, warmup) written back into them.  Outputs
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
    RATIO_TOL,
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
from .model import discretize_channel, load_config
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
    hull_gap,
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


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _parse_ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _construct(dens, cells: int, order: str = "rate_descending"):
    """(thresholds, feasibility, determinism, power ratio), each step
    called by its name in this module, where perfbench/spans.py wraps it."""
    y = compute_thresholds(dens, cells, order=order)
    return y, verify_feasibility(y), verify_deterministic(y), power_ratio(y, dens)


# --- subcommands -----------------------------------------------------------
# Each takes (args, cfg) and returns (exit code, {file name: text}, label
# for the "wrote" line, None meaning the file names).  No files, no writes.

def _cmd_solve(args, cfg):
    disc = discretize_channel(cfg.channel, args.bins)
    sol = solve_constrained(cfg, disc, args.dth)
    if sol.status != "optimal":
        print(f"status={sol.status}")
        return EXIT_INFEASIBLE, {}, None
    delay, power = evaluate_measure(sol.measure)
    pol = extract_policy(sol.measure)
    metrics = [
        ("status", sol.status),
        ("objective", sol.objective),
        ("delay", delay),
        ("power", power),
        ("delay_dual", sol.delay_dual),
        ("iterations", sol.iterations),
        ("policy_kind", pol.kind),
    ]
    print(f"status=optimal power={fmt(power)} delay={fmt(delay)} "
          f"policy={pol.kind}")
    return EXIT_OK, {"measure.csv": measure_to_text(sol.measure),
                     "policy.csv": policy_to_text(pol),
                     "metrics.txt": kv_text(metrics)}, None


def _cmd_sweep(args, cfg):
    bins_list = args.bins_list
    study = convergence_study(cfg, bins_list, args.dgrid)
    files = {f"curve_m{c.M}.csv": curve_to_csv(c) for c in study.curves}
    files["sup_gaps.txt"] = csv_text("pair,sup_gap", (
        (f"{a}-{b}", g)
        for a, b, g in zip(bins_list[:-1], bins_list[1:], study.sup_gaps)))
    gaps = ",".join(fmt(g) for g in study.sup_gaps)
    print(f"curves for M={bins_list} ({len(study.curves[0].budgets)} budgets);"
          f" sup gaps {gaps}")
    return EXIT_OK, files, f"{len(study.curves)} curve CSVs"


def _cmd_vertices(args, cfg):
    disc = discretize_channel(cfg.channel, args.bins)
    args.lambda_max = args.lambda_max or default_lambda_max(cfg)
    if args.full:
        verts = enumerate_vertices(cfg, disc, args.lambda_max)
        curve = TradeoffCurve(
            M=disc.bins,
            budgets=np.array([v.D for v in verts]),
            powers=np.array([v.P for v in verts]),
            infeasible=(), vertices=verts)
    else:
        grid = default_budget_grid(cfg, disc)
        curve = sweep_curve(cfg, disc, [grid[0], grid[-1]],
                            with_vertices=True, lambda_max=args.lambda_max)
    files = {f"vertices_m{disc.bins}.csv": vertices_to_csv(curve),
             f"distances_m{disc.bins}.csv": distances_to_csv(curve)}
    for i, v in enumerate(curve.vertices):
        files[f"{policy_id(disc.bins, i)}.txt"] = policy_to_text(v.policy)
    eu, dd_max = curve.max_distance
    print(f"M={disc.bins}: {len(curve.vertices)} vertices, max adjacent "
          f"distance euclidean={fmt(eu)} delay_axis={fmt(dd_max)}")
    return EXIT_OK, files, "vertex/distance CSVs and policies"


def _cmd_construct(args, cfg):
    disc = discretize_channel(cfg.channel, args.bins)
    sol = solve_constrained(cfg, disc, args.dth)
    if sol.status != "optimal":
        print(f"status={sol.status}")
        return EXIT_INFEASIBLE, {}, None
    dens = density_from_measure(sol.measure)
    y, rep, det, ratio = _construct(dens, args.cells, args.order)
    pol = to_threshold_policy(y)
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
    print(f"ratio={fmt(ratio.ratio)} (bound {fmt(ratio.bound)}) "
          f"max_residual={fmt(rep.max_residual)} deterministic={det.ok}")
    return EXIT_OK, {"thresholds.csv": threshold_policy_to_text(pol),
                     "report.txt": kv_text(report)}, None


def _cmd_simulate(args, cfg):
    with open(args.policy) as f:
        text = f.read()
    header = text.splitlines()[0] if text else ""
    if header == THRESHOLD_HEADER:
        pol = threshold_policy_from_text(text, cfg)
    elif header == POLICY_HEADER:
        if not args.bins:
            raise ValueError("--bins is required for bin-policy files")
        pol = policy_from_text(
            text, cfg, discretize_channel(cfg.channel, args.bins))
    else:
        raise ValueError(f"unrecognized policy header {header!r}")
    rep = run_sim(cfg, pol, args.slots, warmup=args.warmup, seed=args.seed,
                  trace_path=os.path.join(args.outdir, "trace.csv")
                  if args.trace else None)
    args.warmup = rep.warmup
    print(f"delay={fmt(rep.delay)}+-{fmt(rep.se_delay)} "
          f"power={fmt(rep.mean_power)}+-{fmt(rep.se_power)} "
          f"drops={rep.drops} overrides={rep.underflow_overrides}")
    return EXIT_OK, {"report.txt": report_to_text(rep),
                     "report.csv": report_to_csv(rep)}, None


def _cmd_verify(args, cfg):
    lines: list[str] = []
    failed = False

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failed
        failed = failed or not ok
        status = "PASS" if ok else "FAIL"
        lines.append(f"{status}  {name}" + (f"  ({detail})" if detail else ""))

    check("config validation", True)  # load_config validated it

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
    # nested refinements: each cell count divides the next, and the
    # larger ones are multiples of the 16 bins
    for cells in (1, 4, 64, 256):
        _, rep, det, ratio = _construct(dens, cells)
        resid_ok = resid_ok and rep.max_residual <= 1e-8 and rep.rate_residual <= 1e-10
        det_ok = det_ok and det.ok
        ratios_ok = ratios_ok and ratio.ratio <= ratio.bound + RATIO_TOL
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
    gaps = np.abs(hull_gap(curve4.budgets, curve4.powers, verts))
    gap = float(gaps.max()) if gaps.size else 0.0
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

    table = "\n".join(lines) + "\n"
    print(table, end="")
    return (EXIT_VERIFY if failed else EXIT_OK), {"verify.txt": table}, None


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
    sp.add_argument("--bins-list", type=_parse_ints, default="2,4,8,16")
    sp.add_argument("--dgrid", type=_parse_floats, default=None,
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
        cfg = load_config(args.config)
        args.outdir = args.outdir or os.environ.get(OUTDIR_ENV) or "."
        os.makedirs(args.outdir, exist_ok=True)
        code, files, label = args.func(args, cfg)
        if files:
            for name, text in files.items():
                _write_atomic(os.path.join(args.outdir, name), text)
            manifest = {
                "command": args.command,
                "config": args.config,
                "params": {k: v for k, v in vars(args).items()
                           if k not in ("command", "func", "config")},
                "version": __version__,
                "timestamp": datetime.now(timezone.utc).isoformat(),
            }
            _write_atomic(os.path.join(args.outdir, "manifest.json"),
                          json.dumps(manifest, indent=2, sort_keys=True) + "\n")
            print(f"wrote {label or ' '.join(files)} in {args.outdir}")
        return code
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
