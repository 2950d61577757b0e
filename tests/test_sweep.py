from __future__ import annotations

import math
import os
import pickle

import numpy as np
import pytest

from linksched import occupancy_lp, simplex, sweep
from linksched.chain import ReducibleChainError
from linksched.model import config_from_dict, discretize_channel
from linksched.occupancy_lp import (LpSolution, Policy, evaluate_measure,
                                    extract_policy, min_delay,
                                    policy_to_measure, solve_constrained,
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

from oracles import enumerate_policies, howard_gain, lower_hull, \
    policy_delay_power, uniform_bin_stats
from test_occupancy_lp import NO_ARRIVALS


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
    @pytest.mark.parametrize("raw,bins,size,d_min", [
        (None, 16, 60, 1.0),
        # no arrivals: the least delay is 0, and so is 3x that
        (NO_ARRIVALS, 2, 1, 0.0),
    ], ids=["paper_iv", "no-arrivals"])
    def test_budget_grid_spans_triple_min_delay(self, paper_cfg, raw, bins,
                                                size, d_min):
        cfg = paper_cfg if raw is None else config_from_dict(raw)
        grid = default_budget_grid(cfg, discretize_channel(cfg.channel, bins))
        assert grid.size == size
        assert grid[0] == pytest.approx(d_min, abs=1e-9)
        assert grid[-1] == pytest.approx(3.0 * d_min, abs=1e-9)
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
        # the 59 budgets after d_min leave one walk, the largest
        # budget's path: 12710 phase-2 exchanges, where a phase 2 per
        # budget makes 27590 along the same paths; d_min's own phase 2, the
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

    def test_rising_curve_is_an_error(self, paper_cfg, monkeypatch):
        # a power that grows with the budget: each budget's power is
        # the budget itself
        disc = discretize_channel(paper_cfg.channel, 2)
        monkeypatch.setattr(sweep, "presolve_budgets", lambda *args: None)
        monkeypatch.setattr(sweep, "solve_constrained",
                            lambda cfg, disc, d_th: LpSolution(
                                "optimal", d_th, None, 0.0, 0))
        with pytest.raises(SweepError, match="curve is not nonincreasing"):
            sweep_curve(paper_cfg, disc, [1.0, 2.0])

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

    def test_corners_do_not_depend_on_the_candidates_order(self, paper_cfg):
        # a twin of a corner, its D and P bit for bit but a larger
        # weight and another corner's policy: sorted by (D, P, lam) the
        # corner keeps its own policy in any order, where a sort by D
        # alone keeps whichever of the two it was handed first
        verts = list(enumerate_vertices(
            paper_cfg, discretize_channel(paper_cfg.channel, 4)))
        v, other = verts[5], verts[6]
        twin = Vertex(v.D, v.P, 2.0 * v.lam, other.policy)
        assert (twin.policy.kind == "deterministic" and twin.lam > v.lam
                and twin.policy.table.tobytes() != v.policy.table.tobytes())
        cand = [*verts, twin]
        rng = np.random.default_rng(5)
        for order in ([twin, *verts], cand[::-1],
                      [cand[i] for i in rng.permutation(len(cand))]):
            assert _vertex_bytes(sweep._corners(order)) == _vertex_bytes(verts)


class TestCornersAgainstHoward:
    """Each corner is optimal at its weight: P + lam * D is the least
    average cost that Howard's policy iteration finds there."""

    @pytest.mark.parametrize("name,bins", [
        ("paper", 4), ("paper", 8), ("paper", 16),
        ("tiny", 1), ("tiny", 2), ("tiny", 4), ("tiny", 16),
        ("piecewise", 5), ("piecewise", 8),
    ])
    def test_corner_cost_is_the_least_at_its_weight(self, request, name,
                                                    bins):
        cfg = request.getfixturevalue(f"{name}_cfg")
        disc = discretize_channel(cfg.channel, bins)
        for v in enumerate_vertices(cfg, disc):
            g, _, steps = howard_gain(cfg.Q, cfg.arrival.alphas, cfg.S_max,
                                      cfg.xi_table, disc.masses,
                                      disc.inv_means, v.lam)
            assert abs(v.P + v.lam * v.D - g) <= 1e-9 * abs(g)
            assert steps <= 10


def _vertex_bytes(verts):
    """Everything a corner carries, floats as their bytes."""
    return [(np.float64(v.D).tobytes(), np.float64(v.P).tobytes(),
             np.float64(v.lam).tobytes(), v.policy.table.tobytes(),
             v.policy.transient.tobytes()) for v in verts]


def _cpus(monkeypatch, n):
    """Pretend the affinity mask holds n CPUs, and fork for every round."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(simplex, "FORKED_ENTRIES", 0)


def _no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked meanwhile, none left at the end."""
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


@pytest.fixture
def widths(monkeypatch):
    """The width of every round the corner search presolves."""
    seen = []
    real = sweep.presolve_lagrangians

    def recorder(cfg, disc, lams):
        seen.append(len(lams))
        return real(cfg, disc, lams)

    monkeypatch.setattr(sweep, "presolve_lagrangians", recorder)
    return seen


def _children(widths, n):
    """The children forked for rounds of these widths on n CPUs: one per
    CPU but the caller's, never more than a round has further weights."""
    return sum(min(n, w) - 1 for w in widths if w)


class TestHelpers:
    """A corner search whose rounds are spread over helpers, children
    forked for each round, gives the corners of a search on one CPU,
    bit for bit, and leaves no process behind."""

    def _search(self, cfg, bins):
        occupancy_lp.clear_caches()
        return _vertex_bytes(enumerate_vertices(
            cfg, discretize_channel(cfg.channel, bins)))

    @pytest.mark.parametrize("name,bins", [("paper", 4), ("tiny", 2)])
    def test_bitwise_equal_on_any_cpu_count(self, request, monkeypatch,
                                            forks, widths, name, bins):
        cfg = request.getfixturevalue(f"{name}_cfg")
        _cpus(monkeypatch, 1)
        alone = self._search(cfg, bins)
        assert forks == []
        for n in (2, 3):
            _cpus(monkeypatch, n)
            del forks[:], widths[:]
            assert self._search(cfg, bins) == alone
            assert len(forks) == _children(widths, n) > 0

    def test_no_affinity_mask_forks_none(self, paper_cfg, monkeypatch, forks):
        # macOS and Windows have no os.sched_getaffinity
        _cpus(monkeypatch, 1)
        alone = self._search(paper_cfg, 4)
        monkeypatch.delattr(os, "sched_getaffinity")
        assert self._search(paper_cfg, 4) == alone
        assert forks == []

    def test_small_start_forks_none(self, tiny_cfg, monkeypatch, forks):
        # tiny's solves take less time than a child costs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        enumerate_vertices(tiny_cfg, discretize_channel(tiny_cfg.channel, 2))
        assert forks == []

    def test_no_helper_outlives_a_lambda_cap_error(self, tiny_cfg,
                                                   monkeypatch, forks):
        # the first round, lam_max and 0.0, forks one child on 3 CPUs
        _cpus(monkeypatch, 3)
        monkeypatch.setattr(sweep, "default_lambda_max", lambda cfg: 1e-6)
        with pytest.raises(SweepError, match="only reaches delay"):
            enumerate_vertices(tiny_cfg,
                               discretize_channel(tiny_cfg.channel, 2))
        assert len(forks) == 1

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

    def test_no_helper_outlives_the_solve_cap(self, paper_cfg, monkeypatch,
                                              forks, widths):
        # 61 weights at M=4: the cap stops the search before a round
        _cpus(monkeypatch, 2)
        monkeypatch.setattr(sweep, "MAX_VERTEX_SOLVES", 40)
        occupancy_lp.clear_caches()
        with pytest.raises(SweepError, match="did not converge"):
            enumerate_vertices(paper_cfg,
                               discretize_channel(paper_cfg.channel, 4))
        assert len(forks) == _children(widths, 2) > 0
        assert sum(widths) <= 40

    @pytest.mark.parametrize("fault", ["raises", "dies"])
    def test_failed_helper_solve_is_solved_again(self, paper_cfg,
                                                 monkeypatch, forks, widths,
                                                 fault):
        # every solve in a child fails; the caller solves its own share
        # in the presolve and each child's weight from the shared start
        _cpus(monkeypatch, 1)
        alone = self._search(paper_cfg, 4)
        parent, real = os.getpid(), simplex.solve_simplex
        real_again = occupancy_lp.solve_simplex
        own, again = [], []

        def child_fails(lp, start=None):
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
        del widths[:]
        monkeypatch.setattr(simplex, "solve_simplex", child_fails)
        monkeypatch.setattr(occupancy_lp, "solve_simplex", solved_again)
        assert self._search(paper_cfg, 4) == alone
        assert len(forks) == _children(widths, 2)
        # 61 weights, and the min-delay solve from the shared start; a
        # child's share is every other weight of its round, 30 in all,
        # and a child that dies loses its own round's share alone
        assert len(own) + len(again) == 61 + 1
        assert len(again) - 1 == 30


class TestClusterRepresentative:
    """A cloud of corners with only randomized policies is repaired by
    rounding, and a rounding that does not land on the corner is an
    error."""

    @pytest.fixture
    def mixed(self, paper_cfg):
        # 0.6 of the min-power corner's policy and 0.4 of a faster one:
        # it rounds to the first
        disc = discretize_channel(paper_cfg.channel, 2)
        slow, fast = (extract_policy(solve_lagrangian(paper_cfg, disc,
                                                      lam)[0])
                      for lam in (0.0, 10.0))
        pol = Policy(paper_cfg, disc, 0.6 * slow.table + 0.4 * fast.table,
                     slow.transient.copy())
        assert pol.kind == "probabilistic"
        return pol, evaluate_measure(policy_to_measure(slow))

    def test_rounding_elsewhere_is_an_error(self, mixed):
        pol, (d, p) = mixed
        with pytest.raises(SweepError, match="whose rounding lands "
                                             "elsewhere"):
            sweep._cluster_representative([Vertex(d + 1.0, p, 0.0, pol)])

    def test_rounding_that_fails_to_evaluate_is_an_error(self, mixed,
                                                         monkeypatch):
        pol, (d, p) = mixed

        def reducible(pol):
            raise ReducibleChainError("two closed classes")

        monkeypatch.setattr(sweep, "policy_to_measure", reducible)
        with pytest.raises(SweepError, match="rounding failed to evaluate: "
                                             "two closed classes$"):
            sweep._cluster_representative([Vertex(d, p, 0.0, pol)])


def _results_bytes(results):
    """Everything a SimplexResult carries, arrays as their bytes."""
    return [(r.status, r.x.tobytes(), np.float64(r.objective).tobytes(),
             r.dropped_eq_rows, r.iterations, r.phase1_iterations,
             r.degenerate_pivots, np.float64(r.row_gap).tobytes(),
             r.duals_ub.tobytes()) for r in results]


class TestObjectiveSolves:
    """simplex.objective_solves on its own: the results of one process,
    bit for bit, and no child left behind."""

    @pytest.fixture(scope="class")
    def m8(self, paper_cfg):
        olp = occupancy_lp.build_occupancy_lp(
            paper_cfg, discretize_channel(paper_cfg.channel, 8))
        start = simplex.feasible_start(olp.lp)
        costs = [olp.power + lam * olp.delay
                 for lam in np.linspace(0.0, 4.0, 80)]
        return olp.lp, start, costs

    def test_share_larger_than_a_pipe_buffer(self, m8, monkeypatch, forks):
        lp, start, costs = m8
        _cpus(monkeypatch, 1)
        alone = simplex.objective_solves(lp, start, costs)
        assert forks == []
        # the child's half cannot pass a 64 KiB pipe buffer in one write
        assert len(pickle.dumps(alone[1::2], pickle.HIGHEST_PROTOCOL)) \
            > 65536
        _cpus(monkeypatch, 2)
        spread = simplex.objective_solves(lp, start, costs)
        assert len(forks) == 1
        assert _results_bytes(spread) == _results_bytes(alone)

    def test_caller_interrupt_reaps_every_helper(self, m8, monkeypatch,
                                                forks):
        class Interrupt(BaseException):
            pass

        lp, start, costs = m8
        parent, real = os.getpid(), simplex.solve_simplex

        def caller_interrupted(lp, start=None):
            if os.getpid() == parent:
                raise Interrupt
            return real(lp, start)

        _cpus(monkeypatch, 3)
        monkeypatch.setattr(simplex, "solve_simplex", caller_interrupted)
        with pytest.raises(Interrupt):
            simplex.objective_solves(lp, start, costs)
        assert len(forks) == 2


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

    def test_refinement_that_raises_power_is_an_error(self, paper_cfg,
                                                      monkeypatch):
        # curves whose power is M at every budget, so each finer one
        # lies above the coarser; only bin counts that nest are compared
        def curve(cfg, disc, budgets):
            budgets = np.asarray(budgets, dtype=float)
            return TradeoffCurve(disc.bins, budgets,
                                 np.full(budgets.size, float(disc.bins)), ())

        monkeypatch.setattr(sweep, "sweep_curve", curve)
        study = convergence_study(paper_cfg, (2, 3), budgets=[1.0, 2.0])
        assert study.sup_gaps == (1.0,)
        with pytest.raises(SweepError, match=r"^refinement M=2 -> M=4 "
                                             r"raised power by 2\.0$"):
            convergence_study(paper_cfg, (2, 3, 4), budgets=[1.0, 2.0])

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
