"""End-to-end acceptance battery.

Each test prints one bracketed PASS/FAIL line with its headline numbers
and wall time (written through the capture so it shows in any run); the
assertions behind the line carry the actual tolerances.  Budgets are
wall-clock ceilings for the checked computation itself.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from linksched.construction import (
    compute_thresholds,
    density_from_measure,
    power_ratio,
    to_threshold_policy,
    verify_deterministic,
    verify_feasibility,
)
from linksched.cli import main
from linksched.model import discretize_channel
from linksched.occupancy_lp import (
    evaluate_measure,
    extract_policy,
    solve_constrained,
)
from linksched.simplex import LinearProgram, solve_simplex
from linksched.simulator import run_sim
from linksched.sweep import (
    convergence_study,
    corners_in_span,
    enumerate_vertices,
    sweep_curve,
    vertex_distances,
)

from oracles import (
    best_basic_solution,
    enumerate_policies,
    hull_value,
    lower_hull,
    policy_delay_power,
    random_bounded_lp,
    uniform_bin_stats,
)


def _line(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name} :: {detail}", flush=True)


def test_1_refinement_dominance(paper_cfg, capsys):
    t0 = time.perf_counter()
    study = convergence_study(paper_cfg, (2, 4, 8, 16))
    dominated = True
    for coarse, fine in zip(study.curves, study.curves[1:]):
        common = np.intersect1d(coarse.budgets, fine.budgets)
        pc = np.interp(common, coarse.budgets, coarse.powers)
        pf = np.interp(common, fine.budgets, fine.powers)
        dominated &= bool((pf <= pc + 1e-8).all())
    gaps = study.sup_gaps
    shrinks = gaps[2] < gaps[0]
    dt = time.perf_counter() - t0
    ok = dominated and shrinks and dt < 60.0
    _line(capsys, "1/8 refinement dominance", ok,
          f"gaps 2-4={gaps[0]:.5f} 4-8={gaps[1]:.5f} 8-16={gaps[2]:.5f} "
          f"({dt:.1f}s<60s)")
    assert dominated, "a finer channel grid raised the curve somewhere"
    assert shrinks, f"gap 8->16 ({gaps[2]}) not below gap 2->4 ({gaps[0]})"
    assert dt < 60.0


def test_2_corner_spacing(paper_cfg, capsys):
    t0 = time.perf_counter()
    eu, dd = {}, {}
    for m in (2, 4, 8, 16):
        disc = discretize_channel(paper_cfg.channel, m)
        curve = sweep_curve(paper_cfg, disc, [1.0, 3.0])
        e, d = vertex_distances(corners_in_span(paper_cfg, disc, curve))
        eu[m], dd[m] = float(e.max(initial=0.0)), float(d.max(initial=0.0))
    refs = {2: 0.4944, 16: 0.0753}  # reference spacings, this configuration
    hits = {m: any(abs(x - r) <= 0.15 * r for x in (eu[m], dd[m]))
            for m, r in refs.items()}
    eus = [eu[m] for m in (2, 4, 8, 16)]
    dds = [dd[m] for m in (2, 4, 8, 16)]
    dec_eu = all(b < a for a, b in zip(eus, eus[1:]))
    dec_dd = all(b < a for a, b in zip(dds, dds[1:]))
    dt = time.perf_counter() - t0
    ok = all(hits.values()) and dec_eu and dec_dd and dt < 60.0
    _line(capsys, "2/8 corner spacing", ok,
          "max " + " ".join(f"M{m}={eu[m]:.4f}" for m in (2, 4, 8, 16))
          + f" vs refs {refs[2]}/{refs[16]} +-15% ({dt:.1f}s<60s)")
    assert hits[2], f"M=2 spacing {eu[2]}/{dd[2]} misses {refs[2]} by >15%"
    assert hits[16], f"M=16 spacing {eu[16]}/{dd[16]} misses {refs[16]} by >15%"
    assert dec_eu, f"euclidean maxima not strictly decreasing: {eus}"
    assert dec_dd, f"delay-axis maxima not strictly decreasing: {dds}"
    assert dt < 60.0


def test_3_power_ratio_bound(density16, capsys):
    t0 = time.perf_counter()
    cells = (1, 2, 4, 8, 16, 32, 64, 380)
    ratios = []
    for m in cells:
        pr = power_ratio(compute_thresholds(density16, m), density16)
        assert pr.ratio >= 1.0 - 1e-10
        assert pr.ratio <= 1.0 + 9.5 / (0.5 * m) + 1e-10
        ratios.append(pr.ratio)
    noninc = all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))
    tail_ok = ratios[-1] <= 1.05
    dt = time.perf_counter() - t0
    ok = noninc and tail_ok and dt < 30.0
    _line(capsys, "3/8 power ratio bound", ok,
          f"ratio(1)={ratios[0]:.4f} ratio(16)={ratios[4]:.7f} "
          f"ratio(380)={ratios[-1]:.7f}<=1.05 ({dt:.1f}s<30s)")
    assert noninc, f"ratios increased along refinement: {ratios}"
    assert tail_ok, f"ratio at 380 cells is {ratios[-1]}, above 1.05"
    assert dt < 30.0


def test_4_construction_certificates(density16, capsys):
    t0 = time.perf_counter()
    y = compute_thresholds(density16, 16)
    rep = verify_feasibility(y)
    det = verify_deterministic(y)
    dt = time.perf_counter() - t0
    ok = (rep.max_residual <= 1e-8 and rep.rate_residual <= 1e-10
          and det.ok and dt < 10.0)
    _line(capsys, "4/8 construction certificates", ok,
          f"max_residual={rep.max_residual:.2e}<=1e-8 "
          f"rate={rep.rate_residual:.2e}<=1e-10 "
          f"deterministic={det.ok} ({dt:.1f}s<10s)")
    assert rep.max_residual <= 1e-8
    assert rep.rate_residual <= 1e-10
    assert det.ok, f"overlap witness: {det.witness}"
    assert dt < 10.0


def test_5_tiny_instance_exhaustive(tiny_cfg, capsys):
    t0 = time.perf_counter()
    budgets = (1.0, 1.25, 1.5, 2.0, 3.0)
    worst_curve = 0.0
    worst_vertex = 0.0
    for bins in (1, 2):
        disc = discretize_channel(tiny_cfg.channel, bins)
        _, masses, inv_means = uniform_bin_stats(1.0, 2.0, bins)
        pts = [policy_delay_power(pol, 2, (0.5, 0.5), masses, inv_means,
                                  (0.0, 1.0))
               for pol in enumerate_policies(2, 1, bins, a_max=1)]
        hull = lower_hull(pts)
        for d_th in budgets:
            sol = solve_constrained(tiny_cfg, disc, d_th)
            assert sol.status == "optimal"
            worst_curve = max(worst_curve,
                              abs(sol.objective - hull_value(hull, d_th)))
        verts = enumerate_vertices(tiny_cfg, disc)
        assert len(verts) == len(hull), (
            f"bins={bins}: {len(verts)} corners, exhaustive hull has "
            f"{len(hull)}")
        for v, (d, p) in zip(verts, hull):
            worst_vertex = max(worst_vertex, abs(v.D - d), abs(v.P - p))
    dt = time.perf_counter() - t0
    ok = worst_curve <= 1e-8 and worst_vertex <= 1e-8 and dt < 5.0
    _line(capsys, "5/8 exhaustive tiny instance", ok,
          f"curve gap {worst_curve:.2e}<=1e-8, corner gap "
          f"{worst_vertex:.2e}<=1e-8 ({dt:.1f}s<5s)")
    assert worst_curve <= 1e-8
    assert worst_vertex <= 1e-8
    assert dt < 5.0


def test_6_simulation_agreement(paper_cfg, disc16, solution16, density16,
                                capsys):
    t0 = time.perf_counter()
    pol = extract_policy(solution16.measure)
    d_lp, p_lp = evaluate_measure(solution16.measure)
    rep1 = run_sim(paper_cfg, pol, 1_000_000, seed=0)
    z1d = abs(rep1.delay - d_lp) / rep1.se_delay
    z1p = abs(rep1.mean_power - p_lp) / rep1.se_power

    y64 = compute_thresholds(density16, 64)
    thr = to_threshold_policy(y64)
    d_y, p_y = y64.delay_power
    rep2 = run_sim(paper_cfg, thr, 1_000_000, seed=0)
    z2d = abs(rep2.delay - d_y) / rep2.se_delay
    z2p = abs(rep2.mean_power - p_y) / rep2.se_power
    clean = (rep1.drops == rep1.underflow_overrides == 0
             and rep2.drops == rep2.underflow_overrides == 0)
    dt = time.perf_counter() - t0
    ok = max(z1d, z1p, z2d, z2p) <= 3.0 and clean and dt < 30.0
    _line(capsys, "6/8 simulation agreement", ok,
          f"z-scores lp=({z1d:.2f},{z1p:.2f}) thresholds=({z2d:.2f},{z2p:.2f})"
          f" <=3, drops/overrides=0 ({dt:.1f}s<30s)")
    assert z1d <= 3.0 and z1p <= 3.0, (rep1.delay, d_lp, rep1.mean_power, p_lp)
    assert z2d <= 3.0 and z2p <= 3.0, (rep2.delay, d_y, rep2.mean_power, p_y)
    assert clean
    assert dt < 30.0


def test_7_simplex_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240815)
    worst = 0.0
    for _ in range(200):
        c, A_eq, b_eq, A_ub, b_ub = random_bounded_lp(rng)
        res = solve_simplex(LinearProgram.build(
            c, A_eq if len(A_eq) else None, b_eq if len(b_eq) else None,
            A_ub, b_ub))
        assert res.status == "optimal"
        oracle = best_basic_solution(
            c, A_eq if len(A_eq) else None, b_eq if len(b_eq) else None,
            A_ub, b_ub)
        assert oracle is not None
        worst = max(worst, abs(res.objective - oracle))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and dt < 5.0
    _line(capsys, "7/8 simplex oracle", ok,
          f"200 instances, worst objective gap {worst:.2e}<=1e-8 "
          f"({dt:.1f}s<5s)")
    assert worst <= 1e-8
    assert dt < 5.0


def test_8_reproducible_outputs(tmp_path, capsys):
    t0 = time.perf_counter()

    def snap(d):
        files = {}
        for p in sorted(d.iterdir()):
            if p.name == "manifest.json":
                m = json.loads(p.read_text())
                m.pop("timestamp")
                files[p.name] = json.dumps(m, sort_keys=True)
            else:
                files[p.name] = p.read_bytes()
        return files

    runs = {
        "solve": ["solve", "--dth", "3.0", "--bins", "4"],
        "construct": ["construct", "--dth", "3.0", "--bins", "4",
                      "--M", "8"],
        "sweep": ["sweep", "--bins-list", "1,2", "--dgrid", "1.0,2.0,3.0"],
        "vertices": ["vertices", "--bins", "2"],
    }
    stable = {}
    for name, argv in runs.items():
        d = tmp_path / name
        assert main(argv + ["--outdir", str(d)]) == 0
        first = snap(d)
        assert main(argv + ["--outdir", str(d)]) == 0
        stable[name] = snap(d) == first

    d = tmp_path / "simulate"
    argv = ["simulate", "--policy", str(tmp_path / "construct" /
                                        "thresholds.csv"),
            "--slots", "20000", "--seed", "3", "--trace",
            "--outdir", str(d)]
    assert main(argv) == 0
    first = snap(d)
    assert main(argv) == 0
    stable["simulate"] = snap(d) == first

    dt = time.perf_counter() - t0
    ok = all(stable.values())
    _line(capsys, "8/8 reproducible outputs", ok,
          f"{sum(stable.values())}/{len(stable)} commands byte-identical "
          f"on rerun ({dt:.1f}s)")
    assert all(stable.values()), {k: v for k, v in stable.items() if not v}
