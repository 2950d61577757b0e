from __future__ import annotations

import math
import os

import numpy as np
import pytest

from linksched import occupancy_lp, simplex, sweep
from linksched.model import discretize_channel
from linksched.occupancy_lp import (min_delay, solve_constrained,
                                    solve_lagrangian)
from linksched.simplex import SimplexAnomaly, SimplexResult
from linksched.sweep import (
    SweepError,
    TradeoffCurve,
    Vertex,
    convergence_study,
    corners_in_span,
    curve_to_csv,
    default_budget_grid,
    default_lambda_max,
    distances_to_csv,
    enumerate_vertices,
    policy_id,
    sweep_curve,
    vertex_distances,
    vertices_to_csv,
)

from oracles import enumerate_policies, lower_hull, policy_delay_power, \
    uniform_bin_stats


def _verts(*pts):
    return [Vertex(d, p, 0.0, None) for d, p in pts]


class TestDistances:
    def test_worked_example(self):
        e, d = vertex_distances(_verts((1.0, 5.0), (2.0, 4.0)))
        assert e.tolist() == [pytest.approx(math.sqrt(2.0))]
        assert d.tolist() == [1.0]

    def test_three_points(self):
        e, d = vertex_distances(_verts((0.0, 0.0), (3.0, 4.0), (6.0, 4.0)))
        assert e.tolist() == [5.0, 3.0]
        assert d.tolist() == [3.0, 3.0]

    def test_single_point_has_no_pairs(self):
        e, d = vertex_distances(_verts((1.0, 1.0)))
        assert e.size == 0 and d.size == 0

    def test_accepts_vertex_objects(self):
        vs = [Vertex(1.0, 5.0, 0.0, None), Vertex(2.0, 4.0, 0.0, None)]
        e, d = vertex_distances(vs)
        assert e.tolist() == [pytest.approx(math.sqrt(2.0))]
        assert d.tolist() == [1.0]


class TestDefaults:
    def test_budget_grid_spans_triple_min_delay(self, paper_cfg, disc16):
        grid = default_budget_grid(paper_cfg, disc16)
        assert grid.size == 60
        assert grid[0] == pytest.approx(1.0, abs=1e-9)
        assert grid[-1] == pytest.approx(3.0, abs=1e-9)
        assert (np.diff(grid) > 0).all()

    def test_lambda_max_scale(self, paper_cfg):
        assert default_lambda_max(paper_cfg) == pytest.approx(1e4 * 3.0 / 0.5)


class TestSweep:
    def test_curve_monotone_and_complete(self, paper_cfg):
        disc = discretize_channel(paper_cfg.channel, 4)
        budgets = np.linspace(1.0, 3.0, 12)
        curve = sweep_curve(paper_cfg, disc, budgets)
        assert curve.M == 4
        assert len(curve.budgets) == 12
        assert curve.infeasible == ()
        assert (np.diff(curve.powers) <= 1e-12).all()

    def test_infeasible_budgets_are_reported_not_plotted(self, paper_cfg):
        disc = discretize_channel(paper_cfg.channel, 2)
        curve = sweep_curve(paper_cfg, disc, [0.5, 0.8, 1.5, 2.5])
        assert curve.infeasible == (0.5, 0.8)
        assert list(curve.budgets) == [1.5, 2.5]

    def test_budgets_share_one_phase_one(self, paper_cfg, monkeypatch):
        disc = discretize_channel(paper_cfg.channel, 4)
        grid = default_budget_grid(paper_cfg, disc)
        runs = []
        feasible_start = simplex.feasible_start

        def counted(lp, check=None):
            runs.append("shared" if check is not None else "own")
            return feasible_start(lp, check)

        monkeypatch.setattr(simplex, "feasible_start", counted)
        curve = sweep_curve(paper_cfg, disc, grid)
        # the walk's phase 1, then d_min's own: the grid's first budget
        # ties the delay row's ratio, so the walk leaves it to run cold
        assert runs == ["shared", "own"]
        monkeypatch.undo()
        cold = [solve_constrained(paper_cfg, disc, float(d_th)).objective
                for d_th in grid]
        assert curve.budgets.tobytes() == grid.tobytes()
        assert curve.powers.tobytes() == np.array(cold).tobytes()

    def test_trunk_pivots_each_shared_step_once(self, paper_cfg, disc16,
                                                monkeypatch):
        # the 59 budgets after d_min leave one walk, the open LP's
        # path: 12710 phase-2 exchanges, where a phase 2 per budget
        # makes 27590 along the same paths; d_min's own phase 2, the
        # sweep's first solve, adds its 87
        grid = default_budget_grid(paper_cfg, disc16)
        exchanges, in_phase_1, results = [0], [False], []
        exchange = simplex._exchange
        feasible_start = simplex.feasible_start
        solve_simplex = occupancy_lp.solve_simplex

        def counted(t, r, p):
            exchanges[0] += not in_phase_1[0]
            exchange(t, r, p)

        def phase_1(lp, check=None):
            in_phase_1[0] = True
            try:
                return feasible_start(lp, check)
            finally:
                in_phase_1[0] = False

        def solved(lp, start=None):
            results.append(solve_simplex(lp, start))
            return results[-1]

        monkeypatch.setattr(simplex, "_exchange", counted)
        monkeypatch.setattr(simplex, "feasible_start", phase_1)
        monkeypatch.setattr(occupancy_lp, "solve_simplex", solved)
        sweep_curve(paper_cfg, disc16, grid)
        d_min = results[0]
        assert d_min.iterations - d_min.phase1_iterations == 87
        assert exchanges[0] == 12710 + 87
        # every budget still reports the pivots of its whole path
        assert sum(res.iterations for res in results) == 34340

    @pytest.mark.parametrize("name, bins", [("paper", 2), ("paper", 4),
                                            ("paper", 8), ("tiny", 4)])
    def test_budgets_match_highs(self, request, name, bins):
        # an independent solver on each budget's LP (worst 8.3e-12 at
        # paper M=8); HiGHS's own default tolerances leave its answer
        # 2.1e-6 off there, so they are tightened
        linprog = pytest.importorskip("scipy.optimize").linprog
        cfg = request.getfixturevalue(f"{name}_cfg")
        disc = discretize_channel(cfg.channel, bins)
        grid = default_budget_grid(cfg, disc)
        curve = sweep_curve(cfg, disc, grid)
        assert curve.budgets.tobytes() == grid.tobytes()
        olp = occupancy_lp._lp(cfg, disc)
        for d_th, power in zip(grid.tolist(), curve.powers.tolist()):
            lp = olp.at(d_th)
            ref = linprog(lp.c, A_ub=lp.A_ub, b_ub=lp.b_ub, A_eq=lp.A_eq,
                          b_eq=lp.b_eq, method="highs-ds",
                          options={"primal_feasibility_tolerance": 1e-10,
                                   "dual_feasibility_tolerance": 1e-10})
            assert ref.status == 0, (d_th, ref.message)
            assert power == pytest.approx(ref.fun, rel=1e-9), d_th

    def test_empty_grid_is_a_value_error(self, paper_cfg, monkeypatch):
        disc = discretize_channel(paper_cfg.channel, 2)
        monkeypatch.setattr(sweep, "presolve_budgets", None)  # no LP built
        with pytest.raises(ValueError, match="budget grid must be nonempty"):
            sweep_curve(paper_cfg, disc, [])

    def test_all_infeasible_is_an_error(self, paper_cfg):
        disc = discretize_channel(paper_cfg.channel, 2)
        with pytest.raises(SweepError, match="empty curve"):
            sweep_curve(paper_cfg, disc, [0.2, 0.5])

    def test_curve_interpolates_its_own_corners(self, paper_cfg):
        disc = discretize_channel(paper_cfg.channel, 2)
        budgets = np.linspace(1.0, 3.0, 9)
        curve = sweep_curve(paper_cfg, disc, budgets)
        verts = corners_in_span(paper_cfg, disc, curve)
        ds = np.array([v.D for v in verts])
        ps = np.array([v.P for v in verts])
        # corners outside the swept span are withheld, so the piecewise
        # interpolation is only exact between the first and last corner
        inside = (curve.budgets >= ds[0]) & (curve.budgets <= ds[-1])
        assert inside.sum() >= 5
        want = np.interp(curve.budgets[inside], ds, ps)
        assert np.abs(curve.powers[inside] - want).max() <= 1e-6

    def test_vertices_confined_to_swept_span(self, paper_cfg):
        disc = discretize_channel(paper_cfg.channel, 2)
        curve = sweep_curve(paper_cfg, disc, [1.2, 1.7, 2.2])
        verts = corners_in_span(paper_cfg, disc, curve)
        full = enumerate_vertices(paper_cfg, disc)
        want = [v for v in full if 1.2 - 1e-9 <= v.D <= 2.2 + 1e-9]
        assert [(v.D, v.P, v.lam) for v in verts] == \
            [(v.D, v.P, v.lam) for v in want]
        assert 2 <= len(verts) < len(full)

    def test_curve_below_corner_hull_is_an_error(self, paper_cfg):
        disc = discretize_channel(paper_cfg.channel, 2)
        curve = sweep_curve(paper_cfg, disc, [1.2, 1.7, 2.2])
        dipped = TradeoffCurve(curve.M, curve.budgets,
                               curve.powers - 1e-6, ())
        with pytest.raises(SweepError, match="below its corner hull"):
            corners_in_span(paper_cfg, disc, dipped)


class TestEnumerationAgainstExhaustive:
    @pytest.mark.parametrize("bins", [1, 2])
    def test_tiny_instance_corners_are_the_policy_hull(self, tiny_cfg, bins):
        disc = discretize_channel(tiny_cfg.channel, bins)
        verts = enumerate_vertices(tiny_cfg, disc)
        _, masses, inv_means = uniform_bin_stats(1.0, 2.0, bins)
        pts = [policy_delay_power(pol, 2, (0.5, 0.5), masses, inv_means,
                                  (0.0, 1.0))
               for pol in enumerate_policies(2, 1, bins, a_max=1)]
        hull = lower_hull(pts)
        assert len(verts) == len(hull)
        for v, (d, p) in zip(verts, hull):
            assert v.D == pytest.approx(d, abs=1e-8)
            assert v.P == pytest.approx(p, abs=1e-8)
            assert v.policy.kind == "deterministic"

    def test_lambda_cap_too_small(self, tiny_cfg, monkeypatch):
        # a cap this small cannot reach the minimum delay; the error names
        # the weight and both delays
        disc = discretize_channel(tiny_cfg.channel, 2)
        monkeypatch.setattr(sweep, "default_lambda_max", lambda cfg: 1e-6)
        _, top_d, _ = solve_lagrangian(tiny_cfg, disc, 1e-6)
        d_min, _ = min_delay(tiny_cfg, disc)
        with pytest.raises(SweepError) as err:
            enumerate_vertices(tiny_cfg, disc)
        assert str(err.value) == (f"weight lam={1e-6!r} only reaches delay "
                                  f"{top_d!r} but the minimum is {d_min!r}")

    def test_each_weight_is_solved_once(self, paper_cfg, monkeypatch):
        lams = []
        real = sweep.solve_lagrangian

        def recorder(cfg, disc, lam):
            lams.append(lam)
            return real(cfg, disc, lam)

        monkeypatch.setattr(sweep, "solve_lagrangian", recorder)
        disc = discretize_channel(paper_cfg.channel, 4)
        verts = enumerate_vertices(paper_cfg, disc)
        assert len(lams) == 61
        assert len(set(lams)) == 61
        assert len(verts) == 31


def _vertex_bytes(verts):
    """Everything a corner carries, floats as their bytes."""
    return [(np.float64(v.D).tobytes(), np.float64(v.P).tobytes(),
             np.float64(v.lam).tobytes(), v.policy.table.tobytes(),
             v.policy.transient.tobytes()) for v in verts]


def _cpus(monkeypatch, n):
    """Pretend the affinity mask holds n CPUs, and help every start."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(simplex, "HELPED_ENTRIES", 0)


def _no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the helpers forked meanwhile, none left at the end."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    _no_children()
    monkeypatch.setattr(os, "fork", counted)
    yield pids
    _no_children()


class TestHelpers:
    """A corner search spread over forked helpers gives the corners of a
    search on one CPU, bit for bit, and leaves no process behind."""

    def _search(self, cfg, bins):
        occupancy_lp.clear_caches()
        return _vertex_bytes(enumerate_vertices(
            cfg, discretize_channel(cfg.channel, bins)))

    @pytest.mark.parametrize("name,bins", [("paper", 4), ("tiny", 2)])
    def test_bitwise_equal_on_any_cpu_count(self, request, monkeypatch,
                                            forks, name, bins):
        cfg = request.getfixturevalue(f"{name}_cfg")
        _cpus(monkeypatch, 1)
        alone = self._search(cfg, bins)
        assert forks == []
        for n in (2, 3):
            _cpus(monkeypatch, n)
            del forks[:]
            assert self._search(cfg, bins) == alone
            assert len(forks) == n - 1

    def test_small_start_forks_none(self, tiny_cfg, monkeypatch, forks):
        # tiny's solves take less time than a helper costs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        enumerate_vertices(tiny_cfg, discretize_channel(tiny_cfg.channel, 2))
        assert forks == []

    def test_no_helper_outlives_a_lambda_cap_error(self, tiny_cfg,
                                                   monkeypatch, forks):
        _cpus(monkeypatch, 3)
        monkeypatch.setattr(sweep, "default_lambda_max", lambda cfg: 1e-6)
        with pytest.raises(SweepError, match="only reaches delay"):
            enumerate_vertices(tiny_cfg,
                               discretize_channel(tiny_cfg.channel, 2))
        assert len(forks) == 2

    def test_no_helper_outlives_a_solver_anomaly(self, paper_cfg,
                                                 monkeypatch, forks):
        # the min-delay solve goes through, every weighted one fails
        real = occupancy_lp.solve_simplex

        def fail_weighted(lp, start=None):
            if isinstance(start, SimplexResult):
                return SimplexResult(status="unbounded")
            return real(lp, start)

        _cpus(monkeypatch, 2)
        monkeypatch.setattr(occupancy_lp, "solve_simplex", fail_weighted)
        occupancy_lp.clear_caches()
        with pytest.raises(SimplexAnomaly, match="weighted solve at lam="):
            enumerate_vertices(paper_cfg,
                               discretize_channel(paper_cfg.channel, 4))
        assert len(forks) == 1

    @pytest.mark.parametrize("fault", ["raises", "dies"])
    def test_failed_helper_solve_is_solved_again(self, paper_cfg,
                                                 monkeypatch, forks, fault):
        # every solve in a helper fails; the caller solves its own share
        # in the presolve and each helper's weight from the shared start
        _cpus(monkeypatch, 1)
        alone = self._search(paper_cfg, 4)
        parent, real = os.getpid(), simplex.solve_simplex
        real_again = occupancy_lp.solve_simplex
        own, again = [], []

        def helper_fails(lp, start=None):
            if os.getpid() != parent:
                if fault == "dies":
                    os._exit(1)
                raise SimplexAnomaly("injected")
            own.append(lp)
            return real(lp, start)

        def solved_again(lp, start=None):
            if isinstance(start, simplex.FeasibleStart):
                again.append(lp)
            return real_again(lp, start)

        _cpus(monkeypatch, 2)
        monkeypatch.setattr(simplex, "solve_simplex", helper_fails)
        monkeypatch.setattr(occupancy_lp, "solve_simplex", solved_again)
        assert self._search(paper_cfg, 4) == alone
        assert len(forks) == 1
        # 61 weights, and the min-delay solve from the shared start; the
        # helper's share is every other weight of each round, 30 in all,
        # and a helper that dies gets no more work after its first, 0.0
        assert len(own) + len(again) == 61 + 1
        assert len(again) - 1 == {"raises": 30, "dies": 1}[fault]


class TestConvergence:
    def test_paper_two_vs_four_bins(self, paper_cfg):
        budgets = np.linspace(1.0, 3.0, 8)
        study = convergence_study(paper_cfg, (2, 4), budgets=budgets)
        assert [c.M for c in study.curves] == [2, 4]
        assert len(study.sup_gaps) == 1
        assert study.sup_gaps[0] > 0.0
        p2 = np.asarray(study.curves[0].powers)
        p4 = np.asarray(study.curves[1].powers)
        assert (p4 <= p2 + 1e-8).all()

    def test_repeated_bin_counts_rejected(self, paper_cfg):
        # a repeated count would write one curve file for two curves
        with pytest.raises(ValueError, match="increasing"):
            convergence_study(paper_cfg, (2, 4, 4), budgets=[2.0])

    def test_decreasing_bin_counts_rejected(self, paper_cfg):
        with pytest.raises(ValueError, match="increasing"):
            convergence_study(paper_cfg, (4, 2), budgets=[2.0])


class TestCsv:
    def test_headers_and_ids(self, paper_cfg):
        disc = discretize_channel(paper_cfg.channel, 2)
        curve = sweep_curve(paper_cfg, disc, [1.0, 2.0, 3.0])
        verts = corners_in_span(paper_cfg, disc, curve)
        assert curve_to_csv(curve).splitlines()[0] == "M,D_th,P"
        vlines = vertices_to_csv(curve.M, verts).splitlines()
        assert vlines[0] == "M,D,P,policy_id"
        assert vlines[1].endswith(policy_id(2, 0))
        dlines = distances_to_csv(curve.M, verts).splitlines()
        assert dlines[0] == "M,pair_index,euclidean,delay_axis"
        assert len(dlines) == len(vlines) - 1
        assert len({ln.split(",")[-1] for ln in vlines[1:]}) == len(vlines) - 1
