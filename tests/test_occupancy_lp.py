from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from linksched import occupancy_lp, simplex, sweep
from linksched.chain import transition_table
from linksched.cli import main
from linksched.model import config_from_dict, discretize_channel, load_config
from linksched.occupancy_lp import (
    ONE_HOT_TOL,
    TRANSIENT_TOL,
    OccupancyMeasure,
    build_occupancy_lp,
    evaluate_measure,
    extract_policy,
    min_delay,
    policy_from_text,
    policy_to_measure,
    presolve_budgets,
    policy_to_text,
    measure_to_text,
    solve_constrained,
    solve_lagrangian,
)
from linksched.simplex import FEAS_TOL, solve_simplex

from oracles import (
    enumerate_policies,
    hull_value,
    loop_balance_residual,
    loop_equality_rows,
    loop_extract_policy,
    lower_hull,
    policy_delay_power,
    uniform_bin_stats,
)


# paper_iv with no arrivals: its delay is the mean queue
NO_ARRIVALS = {
    "arrival": {"alphas": [1.0]},
    "channel": {"kind": "uniform", "h_min": 0.5, "h_max": 10.0},
    "Q": 10, "S_max": 2, "xi_kind": "exp2minus1"}

SPARSE_ARRIVALS = {
    "arrival": {"alphas": [0.997, 0.002, 0.001]},
    "channel": {"kind": "uniform", "h_min": 0.1, "h_max": 10.0},
    "Q": 3, "S_max": 3, "xi_kind": "exp2minus1"}


def column_triples(olp):
    """(q, s, k) of each LP column, read off the admissible mask."""
    return [(int(q), int(s), k) for q, s in np.argwhere(olp.mask)
            for k in range(olp.disc.bins)]


class TestStructure:
    def test_admissible_pairs_paper(self, paper_cfg):
        _, mask = transition_table(paper_cfg)
        assert mask[0, 0]
        assert not mask[0, 1]  # cannot send from an empty queue
        assert mask[10, 2]
        # a backlog near the buffer cap must transmit enough to absorb
        # the worst-case arrival burst without structural overflow
        assert not mask[10, 0] and not mask[10, 1]
        assert mask[9, 1] and not mask[9, 0]

    def test_variable_count_m2(self, paper_cfg):
        disc = discretize_channel(paper_cfg.channel, 2)
        prob = build_occupancy_lp(paper_cfg, disc)
        assert np.array_equal(prob.mask, transition_table(paper_cfg)[1])
        assert prob.lp.c.size == 2 * int(prob.mask.sum())
        assert prob.lp.c.size == 54

    def test_columns_queue_major(self, paper_cfg, disc16):
        prob = build_occupancy_lp(paper_cfg, disc16)
        triples = column_triples(prob)
        assert len(triples) == prob.lp.c.size
        assert triples == sorted(triples)

    def test_column_cost_and_rows(self, paper_cfg):
        # each column's costs and equality rows are those of its triple
        disc = discretize_channel(paper_cfg.channel, 4)
        prob = build_occupancy_lp(paper_cfg, disc)
        P, _ = transition_table(paper_cfg)
        xi, r = np.asarray(paper_cfg.xi_table), np.asarray(disc.inv_means)
        for j, (q, s, k) in enumerate(column_triples(prob)):
            assert prob.power[j] == xi[s] * r[k]
            # paper_iv's mean arrival rate is 0.9
            assert prob.delay[j] == pytest.approx(q / 0.9, abs=1e-12)
            col = prob.lp.A_eq[:, j]
            assert col[:4].tolist() == [float(b == k) for b in range(4)]
            want = -np.outer(P[q, s], disc.masses)
            want[q, k] += 1.0
            assert col[4:] == pytest.approx(want.ravel(), abs=1e-15)


class TestLoopReference:
    """The array code against its loop form: equal to the last bit."""

    @pytest.mark.parametrize("name,bins", [("paper_iv", 1), ("paper_iv", 4),
                                           ("tiny", 2)])
    def test_equality_rows(self, name, bins):
        cfg = load_config(name)
        disc = discretize_channel(cfg.channel, bins)
        lp = build_occupancy_lp(cfg, disc).lp
        A, b = loop_equality_rows(cfg.Q, cfg.S_max, cfg.arrival.alphas,
                                  disc.masses)
        assert np.array_equal(lp.A_eq, A) and np.array_equal(lp.b_eq, b)

    def test_balance_residual(self, paper_cfg, solution16):
        m = solution16.measure
        assert m.residuals()[1] == loop_balance_residual(
            paper_cfg.Q, paper_cfg.S_max, paper_cfg.arrival.alphas,
            m.values.sum(axis=2))

    @pytest.mark.parametrize("source", ["lp", "lagrangian", "random"])
    def test_extract_policy(self, paper_cfg, disc16, solution16, source):
        if source == "lp":
            m = solution16.measure
        elif source == "lagrangian":
            m = solve_lagrangian(paper_cfg, disc16, 0.05)[0]
        else:
            # 10 rates, so each row sums pairwise; dust, all-dust and
            # all-zero rows
            cfg = config_from_dict({
                "arrival": {"alphas": [0.5, 0.5]},
                "channel": {"kind": "uniform", "h_min": 1.0, "h_max": 2.0},
                "Q": 12, "S_max": 9, "xi_kind": "exp2minus1"})
            disc = discretize_channel(cfg.channel, 5)
            rng = np.random.default_rng(3)
            g = rng.random((13, 10, 5))
            g[rng.random(g.shape) < 0.4] = 0.0
            g[rng.random(g.shape) < 0.2] = 1e-11
            g[2, :, 1] = 3e-10
            g[4, :, 3] = 0.0
            g[5, 1:, 0] = 0.0
            m = OccupancyMeasure(cfg, disc, g / g.sum())
        pol = extract_policy(m)
        table, transient, sigma, kind = loop_extract_policy(
            m.values, FEAS_TOL, TRANSIENT_TOL, ONE_HOT_TOL)
        assert pol.table.tobytes() == table.tobytes()
        assert np.array_equal(pol.transient, transient)
        assert np.array_equal(pol.sigma, sigma)
        assert pol.kind == kind
        if source == "random":
            assert transient[4, 3] and not transient.all()


class TestSolve:
    def test_measure_satisfies_all_rows(self, paper_cfg, disc16, solution16):
        prob = build_occupancy_lp(paper_cfg, disc16)
        lp = prob.at(3.0)
        x = solution16.measure.values[prob.mask].ravel()
        res_eq = np.abs(lp.A_eq @ x - lp.b_eq).max()
        assert res_eq <= 1e-8
        assert (lp.A_ub @ x - lp.b_ub).max() <= 1e-8

    def test_measure_residual_methods(self, solution16):
        m = solution16.measure
        bin_gap, balance, structural = m.residuals()
        assert bin_gap <= 1e-8
        assert balance <= 1e-8
        assert structural <= 1e-12
        assert m.values.sum() == pytest.approx(1.0, abs=1e-9)

    def test_budget_tight_at_optimum(self, solution16):
        delay, power = evaluate_measure(solution16.measure)
        assert delay == pytest.approx(3.0, abs=1e-8)
        assert power == pytest.approx(solution16.objective, abs=1e-12)

    def test_negative_weight_is_a_value_error(self, paper_cfg):
        disc = discretize_channel(paper_cfg.channel, 2)
        with pytest.raises(ValueError, match="lam must be >= 0"):
            solve_lagrangian(paper_cfg, disc, -1.0)

    def test_infeasible_below_min_delay(self, paper_cfg, disc16):
        sol = solve_constrained(paper_cfg, disc16, 0.5)
        assert sol.status == "infeasible"
        assert sol.measure is None

    def test_min_delay_paper(self, paper_cfg, disc16):
        d_min, measure = min_delay(paper_cfg, disc16)
        assert d_min == pytest.approx(1.0, abs=1e-9)
        # the fastest-drain policy leaves the queue distributed like the
        # arrivals, so its delay is mean(q)/mean(a) = 0.9/0.9
        drain = {(q, k): min(q, 2) for q in range(1, 11) for k in range(16)}
        d_o, _ = policy_delay_power(drain, 10, (0.4, 0.3, 0.3),
                                    disc16.masses, disc16.inv_means,
                                    (0.0, 1.0, 3.0))
        assert d_min == pytest.approx(d_o, abs=1e-9)

    def test_no_arrivals_min_delay_zero(self):
        cfg = config_from_dict(NO_ARRIVALS)
        disc = discretize_channel(cfg.channel, 2)
        d_min, _ = min_delay(cfg, disc)
        assert d_min == 0.0

    def test_no_arrivals_delay_is_the_priced_delay(self):
        # with no arrivals the reported delay is the mean queue, the
        # same quantity the LP's delay cost prices
        cfg = config_from_dict(NO_ARRIVALS)
        disc = discretize_channel(cfg.channel, 2)
        olp = build_occupancy_lp(cfg, disc)
        g = np.zeros((cfg.Q + 1, cfg.S_max + 1, disc.bins))
        g[[0, 4, 7], [0, 0, 1], :] = 1.0 / 6.0
        x = g[olp.mask].ravel()
        assert x.sum() == pytest.approx(1.0, abs=1e-15)
        delay, _ = evaluate_measure(OccupancyMeasure(cfg, disc, g))
        assert delay == pytest.approx(float(olp.delay @ x), abs=1e-12)
        assert delay == pytest.approx(11.0 / 3.0, abs=1e-12)

    def test_no_arrivals_lagrangian_empties_queue(self):
        # with no arrivals the delay cost is the mean queue, so any
        # positive weight drives all mass to the empty queue
        cfg = config_from_dict(NO_ARRIVALS)
        disc = discretize_channel(cfg.channel, 2)
        measure, delay, power = solve_lagrangian(cfg, disc, 1.0)
        assert (delay, power) == (0.0, 0.0)
        assert measure.values[0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_no_arrivals_negative_budget_is_infeasible(self, tmp_path):
        # a budget is a delay row on every arrival law, and no measure
        # has a negative mean queue
        cfg = config_from_dict(NO_ARRIVALS)
        disc = discretize_channel(cfg.channel, 2)
        assert solve_constrained(cfg, disc, -1.0).status == "infeasible"
        curve = sweep.sweep_curve(cfg, disc, [-1.0, 0.5])
        assert curve.infeasible == (-1.0,)
        assert curve.powers.tolist() == [0.0]
        path = tmp_path / "no_arrivals.json"
        path.write_text(json.dumps(NO_ARRIVALS))
        assert main(["solve", "--config", str(path), "--bins", "2",
                     "--dth", "-1", "--outdir", str(tmp_path)]) == 2

    def test_presolved_budget_is_taken_once(self, paper_cfg, monkeypatch):
        # the walk's result goes to the budget's first solve; a second
        # runs its own phase 1, with the same bits, and a sweep leaves
        # no result unread
        disc = discretize_channel(paper_cfg.channel, 4)
        runs = []
        feasible_start = simplex.feasible_start

        def counted(lp, check=None):
            runs.append("walk" if check is not None else "own")
            return feasible_start(lp, check)

        monkeypatch.setattr(simplex, "feasible_start", counted)
        presolve_budgets(paper_cfg, disc, [2.0])
        first = solve_constrained(paper_cfg, disc, 2.0)
        assert runs == ["walk"]
        second = solve_constrained(paper_cfg, disc, 2.0)
        assert runs == ["walk", "own"]
        assert _solution_bytes(second) == _solution_bytes(first)
        curve = sweep.sweep_curve(paper_cfg, disc, [1.5, 2.0, 2.0, 3.0])
        assert occupancy_lp._lp(paper_cfg, disc).solved == {}
        assert curve.powers[1].tobytes() == curve.powers[2].tobytes()

    def test_presolved_budgets_go_with_their_lp(self, paper_cfg, disc16):
        # a walk's results live on the LP they were solved on: a solve
        # on another discretization, or of another arrival law with the
        # same columns and costs, has its own LP and runs cold, and
        # switching back finds a new LP with nothing presolved
        disc4 = discretize_channel(paper_cfg.channel, 4)
        other = config_from_dict({
            "arrival": {"alphas": [0.5, 0.2, 0.3]},
            "channel": {"kind": "uniform", "h_min": 0.5, "h_max": 10.0},
            "Q": 10, "S_max": 2, "xi_kind": "exp2minus1"})
        for cfg, disc in ((paper_cfg, disc4), (other, disc16)):
            want = solve_constrained(cfg, disc16, 3.0)
            presolve_budgets(paper_cfg, disc, [3.0])
            assert list(occupancy_lp._lp(paper_cfg, disc).solved) == [3.0]
            got = solve_constrained(cfg, disc16, 3.0)
            assert _solution_bytes(got) == _solution_bytes(want)
            assert occupancy_lp._lp(paper_cfg, disc).solved == {}

    def test_delay_dual_sign_and_slack(self, solution16):
        assert solution16.delay_dual >= -1e-9
        delay, _ = evaluate_measure(solution16.measure)
        assert solution16.delay_dual * abs(delay - 3.0) <= 1e-6

    def test_lagrangian_supports_constrained_point(
            self, paper_cfg, disc16, solution16):
        lam = max(solution16.delay_dual, 0.0)
        _, lam_d, lam_p = solve_lagrangian(paper_cfg, disc16, lam)
        delay, power = evaluate_measure(solution16.measure)
        assert lam_p + lam * lam_d == pytest.approx(
            power + lam * delay, abs=1e-6)

    def test_power_only_optimum_on_a_sparse_arrival_config(self):
        # scipy.optimize.linprog(method="highs") on the same LP gives
        # 0.0008850080862668819; a pivot on an element below 1e-9 once
        # stopped the simplex at 0.002325843520234786
        cfg = config_from_dict(SPARSE_ARRIVALS)
        sol = solve_constrained(cfg, discretize_channel(cfg.channel, 2), None)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.0008850080862668819,
                                              rel=1e-6)

    def test_corners_on_a_sparse_arrival_config(self):
        # a pivot on an element below 1e-9 once left one corner, at
        # power 0.0023258435202347864
        cfg = config_from_dict(SPARSE_ARRIVALS)
        verts = sweep.enumerate_vertices(cfg, discretize_channel(cfg.channel, 2))
        assert len(verts) == 5
        assert verts[-1].P == pytest.approx(0.0008850080862668819, rel=1e-9)

    def test_constrained_optimum_past_a_tiny_pivot(self):
        # HiGHS gives 0.10643141242722724; a pivot on 1.2e-11 once left
        # the simplex's point 0.73 off bin row 0
        cfg = config_from_dict({
            "arrival": {"alphas": [0.589, 0.266, 0.145]},
            "channel": {"kind": "uniform", "h_min": 0.1, "h_max": 10.0},
            "Q": 10, "S_max": 4, "xi_kind": "exp2minus1"})
        sol = solve_constrained(cfg, discretize_channel(cfg.channel, 2), 3.0)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.10643141242722724, rel=1e-6)

    @pytest.mark.xfail(strict=True, reason="Bland pivoting stops at a "
                       "vertex that meets every row but is not optimal "
                       "(ROADMAP item 1)")
    def test_min_delay_on_a_near_zero_arrival_rate(self):
        # scipy.optimize.linprog(method="highs") on the same LP gives
        # 1.0; the simplex returns 1.0000729313881531
        cfg = config_from_dict({
            "arrival": {"alphas": [0.9999976, 2.4e-6]},
            "channel": {"kind": "uniform", "h_min": 1.0, "h_max": 10.0},
            "Q": 5, "S_max": 2, "xi_kind": "exp2minus1"})
        d_min, _ = min_delay(cfg, discretize_channel(cfg.channel, 1))
        assert d_min == pytest.approx(1.0, rel=1e-6)

    def test_lagrangian_extremes(self, paper_cfg, disc16):
        _, d_hi, p_lo = solve_lagrangian(paper_cfg, disc16, 0.0)
        _, d_lo, _ = solve_lagrangian(paper_cfg, disc16, 1e6)
        d_min, _ = min_delay(paper_cfg, disc16)
        assert d_lo == pytest.approx(d_min, abs=1e-8)
        sol = solve_constrained(paper_cfg, disc16, d_hi + 1.0)
        assert sol.objective == pytest.approx(p_lo, abs=1e-9)


class TestAgainstExhaustiveEnumeration:
    def test_single_bin_curve_is_policy_hull(self, paper_cfg):
        disc = discretize_channel(paper_cfg.channel, 1)
        _, masses, inv_means = uniform_bin_stats(0.5, 10.0, 1)
        pts = []
        for pol in enumerate_policies(10, 2, 1, a_max=2):
            pts.append(policy_delay_power(
                pol, 10, (0.4, 0.3, 0.3), masses, inv_means, (0.0, 1.0, 3.0)))
        hull = lower_hull(pts)
        for budget in (1.0, 1.5, 2.0, 3.0, 4.0):
            sol = solve_constrained(paper_cfg, disc, budget)
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(
                hull_value(hull, budget), abs=1e-8)


class TestPolicies:
    def test_extracted_policy_rows_normalized(self, solution16):
        pol = extract_policy(solution16.measure)
        sums = pol.table.sum(axis=2)
        assert sums == pytest.approx(np.ones_like(sums), abs=1e-9)

    def test_transient_states_flagged_with_drain_rule(self, paper_cfg, disc16):
        sol = solve_constrained(paper_cfg, disc16, 1.0)
        pol = extract_policy(sol.measure)
        # at the tightest budget only q <= max arrivals is ever seen
        assert pol.transient[3:, :].all()
        assert not pol.transient[:3, :].any()
        for q in range(3, 11):
            assert (pol.sigma[q] == min(q, 2)).all()

    def test_policy_measure_round_trip(self, paper_cfg, disc16, solution16):
        pol = extract_policy(solution16.measure)
        m2 = policy_to_measure(pol)
        d1, p1 = evaluate_measure(solution16.measure)
        d2, p2 = evaluate_measure(m2)
        assert d2 == pytest.approx(d1, abs=1e-8)
        assert p2 == pytest.approx(p1, abs=1e-8)

    def test_decisions_of_one_hot_rows_ignore_draw(self, disc16, solution16):
        pol = extract_policy(solution16.measure)
        one_hot = pol.table.max(axis=2) >= 1.0 - ONE_HOT_TOL  # (Q+1, bins)
        assert one_hot.any()
        edges = np.asarray(disc16.edges)
        mids = 0.5 * (edges[:-1] + edges[1:])
        us = np.array([0.0, 0.31, 0.77, 0.999])
        rates = pol.decisions(np.repeat(mids, us.size), np.tile(us, mids.size))
        rates = rates.reshape(mids.size, us.size, -1)  # [k, draw, q]
        same = (rates == rates[:, :1]).all(axis=1).T  # (Q+1, bins)
        assert same[one_hot].all()

    def test_decisions_mix_by_conditional_mass(
            self, paper_cfg, disc16, solution16):
        pol = extract_policy(solution16.measure)
        mixed = np.argwhere((pol.table.max(axis=2) < 1.0 - 1e-9)
                            & ~pol.transient)
        assert len(mixed) >= 1  # interior budget forces one mixed row
        q, k = mixed[0]
        h = 0.5 * (disc16.edges[k] + disc16.edges[k + 1])
        row = pol.table[q, k]
        lo_rate = int(np.flatnonzero(row > 1e-9)[0])
        assert pol.decisions(np.array([h]), np.zeros(1))[0, q] == lo_rate


class TestTextFormats:
    def test_policy_round_trip(self, paper_cfg, disc16, solution16):
        pol = extract_policy(solution16.measure)
        text = policy_to_text(pol)
        assert text.splitlines()[0] == "q,k,s,prob,transient"
        back = policy_from_text(text, paper_cfg, disc16)
        assert np.array_equal(back.table, pol.table)
        assert np.array_equal(back.transient, pol.transient)
        assert np.array_equal(back.sigma, pol.sigma)
        assert back.kind == pol.kind

    def test_policy_round_trip_keeps_transient_rows(self):
        # with no arrivals the optimum empties the queue, and every
        # other queue state is transient
        cfg = config_from_dict(NO_ARRIVALS)
        disc = discretize_channel(cfg.channel, 2)
        pol = extract_policy(solve_constrained(cfg, disc, 2.0).measure)
        assert pol.transient[1:].all() and not pol.transient[0].any()
        back = policy_from_text(policy_to_text(pol), cfg, disc)
        assert back.table.tobytes() == pol.table.tobytes()
        assert np.array_equal(back.transient, pol.transient)

    def test_measure_text_full_precision(self, solution16):
        text = measure_to_text(solution16.measure)
        lines = text.strip().splitlines()
        assert lines[0] == "q,s,k,g"
        total = 0.0
        for ln in lines[1:]:
            q, s, k, g = ln.split(",")
            val = float(g)
            assert val == solution16.measure.values[int(q), int(s), int(k)]
            total += val
        assert total == pytest.approx(1.0, abs=1e-9)


@pytest.fixture(scope="module")
def corner_lams(paper_cfg):
    """Every weight enumerate_vertices solves at paper_iv, M=4."""
    lams = []
    real = sweep.solve_lagrangian

    def recorder(cfg, disc, lam):
        lams.append(lam)
        return real(cfg, disc, lam)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep, "solve_lagrangian", recorder)
        sweep.enumerate_vertices(paper_cfg,
                                 discretize_channel(paper_cfg.channel, 4))
    assert len(lams) == 61
    return lams


def _solution_bytes(sol):
    """Everything an LpSolution reports, floats as their bytes."""
    return (sol.status, np.float64(sol.objective).tobytes(),
            sol.measure.values.tobytes(),
            np.float64(sol.delay_dual).tobytes(), sol.iterations)


def _result_bytes(res):
    """Everything a solve reports, floats as their bytes."""
    return (res.status, res.x.tobytes(), np.float64(res.objective).tobytes(),
            res.duals_ub.tobytes(),
            res.dropped_eq_rows, res.iterations, res.phase1_iterations)


def _cold(cfg, disc, c_of):
    olp = build_occupancy_lp(cfg, disc)
    return solve_simplex(replace(olp.lp, c=c_of(olp)))


class TestSharedStart:
    """Delay-free solves from the cached start equal cold solves bit for bit."""

    @pytest.mark.parametrize("name,bins", [("paper_iv", 4), ("paper_iv", 8),
                                           ("tiny", 2)])
    def test_bitwise_equal_to_cold(self, name, bins, corner_lams):
        cfg = load_config(name)
        disc = discretize_channel(cfg.channel, bins)
        olp = occupancy_lp._lp(cfg, disc)
        start = olp.start
        objectives = [lambda o: o.delay] + [
            lambda o, lam=lam: o.power + lam * o.delay for lam in corner_lams]
        for c_of in objectives:
            shared = solve_simplex(replace(olp.lp, c=c_of(olp)), start)
            cold = _cold(cfg, disc, c_of)
            assert _result_bytes(shared) == _result_bytes(cold)
            assert shared.phase1_iterations == start.phase1_iterations

    def test_switching_discretizations(self, paper_cfg):
        a, b = (discretize_channel(paper_cfg.channel, m) for m in (4, 2))
        def weighted(olp):
            return olp.power + 0.5 * olp.delay

        cold = {d.bins: _cold(paper_cfg, d, weighted) for d in (a, b)}
        occupancy_lp._lp.cache_clear()
        for disc in (a, b, a):
            res, _ = occupancy_lp._solve(paper_cfg, disc, None, weighted)
            assert _result_bytes(res) == _result_bytes(cold[disc.bins])
        assert occupancy_lp._lp.cache_info().misses == 3

    def test_constrained_solves_stay_cold(self, paper_cfg):
        # a budget's solve runs its own phase 1 on the shared LP and
        # makes no shared start
        disc = discretize_channel(paper_cfg.channel, 2)
        occupancy_lp._lp.cache_clear()
        assert solve_constrained(paper_cfg, disc, 3.0).status == "optimal"
        assert "start" not in vars(occupancy_lp._lp(paper_cfg, disc))
        assert occupancy_lp._lp.cache_info().misses == 1

    def test_one_lp_build_per_discretization(self, paper_cfg, monkeypatch):
        # a budget grid, a sweep and a corner search on one
        # discretization solve on one LP, delay row or not
        disc = discretize_channel(paper_cfg.channel, 4)
        builds = []
        build = occupancy_lp.build_occupancy_lp

        def counted(cfg, disc):
            builds.append(disc.bins)
            return build(cfg, disc)

        monkeypatch.setattr(occupancy_lp, "build_occupancy_lp", counted)
        occupancy_lp._lp.cache_clear()
        occupancy_lp.min_delay.cache_clear()
        grid = sweep.default_budget_grid(paper_cfg, disc)
        sweep.sweep_curve(paper_cfg, disc, [grid[0], grid[-1]])
        sweep.enumerate_vertices(paper_cfg, disc)
        assert builds == [4]
