"""Command-line front end: reproducible runs with file outputs.

Every subcommand runs in one skeleton.  `main` loads the config and
resolves the output directory; the command computes, prints a short
summary and returns its exit code with its outputs as {file name:
text}; `main` then writes those files atomically, plus a run manifest
whose parameters are the parsed options, each default the command
resolved (outdir, warmup) written back into them, beside what the run
found that its files do not show (sweep's infeasible budgets, the
pivot counts of solve's and construct's LP solve in `stats`).
Outputs are pure functions of the manifest's parameters (simulation
included, via the seed), so re-running a manifest reproduces them
byte for byte; the manifest's own timestamp is the only thing that
moves.
`simulate --trace` streams its per-slot trace, too large to return as
text, into a temporary file that replaces trace.csv only once the
simulation has returned.

Exit codes: 0 success, 1 usage or input error, 2 infeasible problem,
3 internal solver anomaly, 4 verification failure (construction
certificate, envelope mass range, reducible policy chain).  verify
runs its whole battery and writes verify.txt whatever fails: an empty
channel bin, a failed search, or a certificate or policy chain that
raises is its check's FAIL line, and the battery exits 4.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager, nullcontext
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .chain import ReducibleChainError
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
from .model import DiscretizationError, discretize_channel, load_config
from .occupancy_lp import (
    POLICY_HEADER,
    clear_caches,
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
    convergence_study,
    corners_in_span,
    curve_to_csv,
    default_budget_grid,
    distances_to_csv,
    enumerate_vertices,
    hull_gap,
    policy_id,
    sweep_curve,
    vertex_distances,
    vertices_to_csv,
)
from .textio import csv_text, fmt, kv_text, nonblank_lines

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_ANOMALY = 3
EXIT_VERIFY = 4

OUTDIR_ENV = "LINKSCHED_OUTDIR"
# exit 4: a certificate or a chain that failed; verify reports each as
# its check's FAIL line.  The last two are ValueErrors, so they must be
# caught before ValueError
_VERIFY_ERRORS = (ConstructionError, ReducibleChainError, MassRangeError)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@contextmanager
def _replacing(path: str):
    """A fresh temporary name beside path, moved onto path when the block
    ends and removed if it raises, so path is never left half written.
    The block creates the file, so it gets the mode a plain open gives."""
    tmp = os.path.join(os.path.dirname(path), f".tmp_{os.urandom(8).hex()}")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_atomic(path: str, text: str) -> None:
    with _replacing(path) as tmp, open(tmp, "w") as f:
        f.write(text)


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _parse_ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _seed(text: str) -> int:
    """An integer >= 0, the seeds numpy's generators take."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 0, got {text}")
    return seed


def _construct(dens, cells: int):
    """(thresholds, feasibility, determinism, power ratio), each step
    called by its name in this module, where perfbench/spans.py wraps it."""
    y = compute_thresholds(dens, cells)
    return y, verify_feasibility(y), verify_deterministic(y), power_ratio(y, dens)


def _stats(sol) -> dict:
    """The manifest's `stats` of an LP solve (an LpSolution): its
    phase-1 and phase-2 pivots, zero steps and dropped rows."""
    return {"phase1_pivots": sol.phase1_iterations,
            "phase2_pivots": sol.iterations - sol.phase1_iterations,
            "degenerate_pivots": sol.degenerate_pivots,
            "dropped_rows": sol.dropped_rows}


# --- subcommands -----------------------------------------------------------
# Each takes (args, cfg) and returns (exit code, {file name: text}, label
# for the "wrote" line, None meaning the file names, {manifest key: value}
# for what the run found that its files do not show).  No files, no writes.

def _cmd_solve(args, cfg):
    disc = discretize_channel(cfg.channel, args.bins)
    sol = solve_constrained(cfg, disc, args.dth)
    if sol.status != "optimal":
        print(f"status={sol.status}")
        return EXIT_INFEASIBLE, {}, None, {}
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
                     "metrics.txt": kv_text(metrics)}, None, {
                         "stats": _stats(sol)}


def _cmd_sweep(args, cfg):
    bins_list = args.bins_list
    study = convergence_study(cfg, bins_list, args.dgrid)
    files = {f"curve_m{c.M}.csv": curve_to_csv(c) for c in study.curves}
    files["sup_gaps.txt"] = csv_text("pair,sup_gap", (
        (f"{a}-{b}", g)
        for a, b, g in zip(bins_list[:-1], bins_list[1:], study.sup_gaps)))
    gaps = ",".join(fmt(g) for g in study.sup_gaps)
    counts = [len(c.budgets) for c in study.curves]
    print(f"curves for M={bins_list} ({counts} budgets); sup gaps {gaps}")
    # the curve CSVs hold the feasible budgets only
    infeasible = {str(c.M): list(c.infeasible) for c in study.curves}
    return (EXIT_OK, files, f"{len(study.curves)} curve CSVs",
            {"infeasible_budgets": infeasible})


def _cmd_vertices(args, cfg):
    disc = discretize_channel(cfg.channel, args.bins)
    m = disc.bins
    if args.full:
        verts = enumerate_vertices(cfg, disc)
    else:
        grid = default_budget_grid(cfg, disc)
        curve = sweep_curve(cfg, disc, [grid[0], grid[-1]])
        verts = corners_in_span(cfg, disc, curve)
    files = {f"vertices_m{m}.csv": vertices_to_csv(m, verts),
             f"distances_m{m}.csv": distances_to_csv(m, verts)}
    for i, v in enumerate(verts):
        files[f"{policy_id(m, i)}.txt"] = policy_to_text(v.policy)
    eu, dd = vertex_distances(verts)
    print(f"M={m}: {len(verts)} vertices, max adjacent distance "
          f"euclidean={fmt(eu.max(initial=0.0))} "
          f"delay_axis={fmt(dd.max(initial=0.0))}")
    return EXIT_OK, files, "vertex/distance CSVs and policies", {}


def _cmd_construct(args, cfg):
    disc = discretize_channel(cfg.channel, args.bins)
    sol = solve_constrained(cfg, disc, args.dth)
    if sol.status != "optimal":
        print(f"status={sol.status}")
        return EXIT_INFEASIBLE, {}, None, {}
    dens = density_from_measure(sol.measure)
    y, rep, det, ratio = _construct(dens, args.cells)
    pol = to_threshold_policy(y)
    report = [
        ("cells", args.cells),
        ("order", "rate_descending"),  # compute_thresholds' one layout
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
                     "report.txt": kv_text(report)}, None, {
                         "stats": _stats(sol)}


def _cmd_simulate(args, cfg):
    with open(args.policy) as f:
        text = f.read()
    header = nonblank_lines(text)[0]
    if header == THRESHOLD_HEADER:
        pol = threshold_policy_from_text(text, cfg)
    elif header == POLICY_HEADER:
        if args.bins is None:
            raise ValueError("--bins is required for bin-policy files")
        pol = policy_from_text(
            text, cfg, discretize_channel(cfg.channel, args.bins))
    else:
        raise ValueError(f"unrecognized policy header {header!r}")
    trace = os.path.join(args.outdir, "trace.csv")
    with _replacing(trace) if args.trace else nullcontext() as trace_path:
        rep = run_sim(cfg, pol, args.slots, warmup=args.warmup,
                      seed=args.seed, trace_path=trace_path)
    args.warmup = rep.warmup
    print(f"delay={fmt(rep.delay)}+-{fmt(rep.se_delay)} "
          f"power={fmt(rep.mean_power)}+-{fmt(rep.se_power)} "
          f"drops={rep.drops} overrides={rep.underflow_overrides}")
    return EXIT_OK, {"report.txt": report_to_text(rep),
                     "report.csv": report_to_csv(rep)}, None, {}


def _cmd_verify(args, cfg):
    lines: list[str] = []
    failed = False

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failed
        failed = failed or not ok
        status = "PASS" if ok else "FAIL"
        lines.append(f"{status}  {name}" + (f"  ({detail})" if detail else ""))

    check("config validation", True)  # load_config validated it

    # a discretization that fails is one failed check, and the checks
    # on it are left out
    discs = {}
    for bins in (2, 16, 4):
        try:
            discs[bins] = discretize_channel(cfg.channel, bins)
        except DiscretizationError as e:
            check(f"discretization at M={bins}", False, str(e))

    ch, disc = cfg.channel, discs.get(2)
    if disc is not None and ch.kind == "uniform":
        mid = disc.edges[1]
        r0 = np.log(mid / ch.h_min) / (mid - ch.h_min)
        ok = abs(disc.inv_means[0] - r0) <= 1e-12
        check("bin statistics closed form", ok,
              f"|r0 - {fmt(r0)}| = {fmt(abs(disc.inv_means[0] - r0))}")
    elif disc is not None:
        check("bin statistics closed form", True, "skipped: non-uniform law")

    if 16 in discs:
        disc16 = discs[16]
        d_min, _ = min_delay(cfg, disc16)
        d_th = 3.0 * d_min
        sol = solve_constrained(cfg, disc16, d_th)
        check("constrained solve optimal", sol.status == "optimal",
              f"status={sol.status}")
        m = sol.measure
        res = max(m.residuals())
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
        mono_ok, resid_ok, det_ok = True, True, True
        # the first certificate that raises, naming its cell count;
        # power_ratio alone decides the bound
        raised = {}
        # nested refinements: each cell count divides the next, and the
        # larger ones are multiples of the 16 bins
        for cells in (1, 4, 64, 256):
            try:
                _, rep, det, ratio = _construct(dens, cells)
            except _VERIFY_ERRORS as e:
                name = ("power ratio within bound"
                        if isinstance(e, ConstructionError)
                        else "threshold feasibility residuals")
                raised.setdefault(name, f"cells={cells}: {e}")
                continue
            resid_ok = resid_ok and rep.max_residual <= 1e-8 and rep.rate_residual <= 1e-10
            det_ok = det_ok and det.ok
            if prev_ratio is not None:
                mono_ok = mono_ok and ratio.ratio <= prev_ratio + 1e-12
            prev_ratio = ratio.ratio
        for name, ok in (("threshold feasibility residuals", resid_ok),
                         ("threshold determinism (exact intervals)", det_ok),
                         ("power ratio within bound", True)):
            check(name, ok and name not in raised, raised.get(name, ""))
        check("power ratio nonincreasing in cells", mono_ok,
              f"last={fmt(prev_ratio)}")

        pol = extract_policy(m)
        try:
            d2, p2 = evaluate_measure(policy_to_measure(pol))
        except _VERIFY_ERRORS as e:
            check("policy round trip to measure", False, str(e))
        else:
            ok = abs(d2 - delay) <= 1e-8 and abs(p2 - power) <= 1e-8
            check("policy round trip to measure", ok,
                  f"dD={fmt(abs(d2 - delay))} dP={fmt(abs(p2 - power))}")

    # a SweepError from either search is the failure of its check
    study = verts = None
    if 2 in discs and 4 in discs:
        grid = default_budget_grid(cfg, discs[4], points=12)
        try:
            study = convergence_study(cfg, (2, 4), grid)
        except SweepError as e:
            check("curve refinement dominance", False, str(e))
        else:
            check("curve refinement dominance", True,
                  f"sup_gap={fmt(study.sup_gaps[0])}")
    if 4 in discs:
        try:
            verts = enumerate_vertices(cfg, discs[4])
        except SweepError as e:
            check("corner policies deterministic", False, str(e))
        else:
            kinds_ok = all(v.policy.kind == "deterministic" for v in verts)
            check("corner policies deterministic", kinds_ok,
                  f"corners={len(verts)}")
    if study is not None and verts is not None:
        curve4 = study.curves[1]
        gaps = np.abs(hull_gap(curve4.budgets, curve4.powers, verts))
        gap = float(gaps.max()) if gaps.size else 0.0
        check("curve matches corner hull <= 1e-6", gap <= 1e-6,
              f"gap={fmt(gap)}")

    if 16 in discs:
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
    return ((EXIT_VERIFY if failed else EXIT_OK), {"verify.txt": table}, None,
            {})


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
                    help="comma-separated budgets (default: 60 evenly "
                         "spaced from min delay to 3x, each listed once)")
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("vertices", help="corners of the tradeoff curve")
    common(sp)
    sp.add_argument("--bins", type=int, default=16)
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
    sp.set_defaults(func=_cmd_construct)

    sp = sub.add_parser("simulate", help="Monte Carlo run of a policy file")
    common(sp)
    sp.add_argument("--policy", required=True, help="policy CSV path")
    sp.add_argument("--bins", type=int, default=None,
                    help="bin count (bin-policy files only)")
    sp.add_argument("--slots", type=int, default=1_000_000)
    sp.add_argument("--warmup", type=int, default=None)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--trace", action="store_true",
                    help="also write a per-slot trace (large)")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("verify", help="run the certification battery")
    common(sp)
    sp.add_argument("--seed", type=_seed, default=0)
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
        code, files, label, found = args.func(args, cfg)
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
                **found,
            }
            _write_atomic(os.path.join(args.outdir, "manifest.json"),
                          json.dumps(manifest, indent=2, sort_keys=True) + "\n")
            print(f"wrote {label or ' '.join(files)} in {args.outdir}")
        return code
    except _VERIFY_ERRORS as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return EXIT_VERIFY
    except (OSError, ValueError) as e:
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
    finally:
        clear_caches()  # a later command in this process starts afresh


if __name__ == "__main__":
    sys.exit(main())
