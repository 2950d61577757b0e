from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linksched import occupancy_lp, sweep
from linksched.model import (
    config_from_dict,
    discretize_channel,
    load_config,
    step,
)
from linksched.occupancy_lp import (
    ONE_HOT_TOL,
    TRANSIENT_TOL,
    OccupancyMeasure,
    Policy,
    ReducibleChainError,
    build_occupancy_lp,
    evaluate_measure,
    extract_policy,
    min_delay,
    policy_from_text,
    policy_to_measure,
    policy_to_text,
    measure_to_text,
    solve_constrained,
    solve_lagrangian,
    transition_table,
    _queue_kernel,
)
from linksched.simplex import FEAS_TOL, solve_simplex

from oracles import (
    enumerate_policies,
    hull_value,
    loop_balance_residual,
    loop_equality_rows,
    loop_extract_policy,
    loop_queue_kernel,
    lower_hull,
    policy_delay_power,
    uniform_bin_stats,
)


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
        prob = build_occupancy_lp(paper_cfg, disc, 3.0)
        assert np.array_equal(prob.mask, transition_table(paper_cfg)[1])
        assert prob.lp.c.size == 2 * int(prob.mask.sum())
        assert prob.lp.c.size == 54

    def test_columns_queue_major(self, paper_cfg, disc16):
        prob = build_occupancy_lp(paper_cfg, disc16, 3.0)
        triples = column_triples(prob)
        assert len(triples) == prob.lp.c.size
        assert triples == sorted(triples)

    def test_column_cost_and_rows(self, paper_cfg):
        # each column's costs and equality rows are those of its triple
        disc = discretize_channel(paper_cfg.channel, 4)
        prob = build_occupancy_lp(paper_cfg, disc, 3.0)
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


@st.composite
def queue_configs(draw):
    """Random arrival law, buffer and rate grid on a fixed channel."""
    weights = draw(st.lists(st.integers(0, 9), min_size=1, max_size=4)
                   .filter(any))
    A = len(weights) - 1
    return config_from_dict({
        "arrival": {"alphas": [w / sum(weights) for w in weights]},
        "channel": {"kind": "uniform", "h_min": 1.0, "h_max": 2.0},
        "Q": draw(st.integers(A, A + 8)),
        "S_max": draw(st.integers(A, A + 3)),
        "xi_kind": "exp2minus1"})


class TestTransitionTable:
    @given(cfg=queue_configs())
    @settings(max_examples=100, deadline=None)
    def test_table_is_the_queue_law(self, cfg):
        P, mask = transition_table(cfg)
        Q, S, A = cfg.Q, cfg.S_max, cfg.arrival.max_arrivals
        assert P.shape == (Q + 1, S + 1, Q + 1)
        assert P.sum(axis=2) == pytest.approx(np.ones((Q + 1, S + 1)),
                                              abs=1e-12)
        for q in range(Q + 1):
            for s in range(S + 1):
                want = np.zeros(Q + 1)
                for a, alpha in enumerate(cfg.arrival.alphas):
                    want[step(cfg, q, a, s)] += alpha
                assert P[q, s] == pytest.approx(want, abs=1e-15)
        pairs = [(q, s) for q in range(Q + 1) for s in range(S + 1)
                 if 0 <= q - s <= Q - A]
        assert [tuple(qs) for qs in np.argwhere(mask)] == pairs


class TestLoopReference:
    """The array code against its loop form: equal to the last bit."""

    @pytest.mark.parametrize("name,bins", [("paper_iv", 1), ("paper_iv", 4),
                                           ("tiny", 2)])
    def test_equality_rows(self, name, bins):
        cfg = load_config(name)
        disc = discretize_channel(cfg.channel, bins)
        lp = build_occupancy_lp(cfg, disc, 3.0).lp
        A, b = loop_equality_rows(cfg.Q, cfg.S_max, cfg.arrival.alphas,
                                  disc.masses)
        assert np.array_equal(lp.A_eq, A) and np.array_equal(lp.b_eq, b)

    def test_balance_residual(self, paper_cfg, solution16):
        m = solution16.measure
        assert m.balance_residual() == loop_balance_residual(
            paper_cfg.Q, paper_cfg.S_max, paper_cfg.arrival.alphas,
            m.rate_marginal())

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

    def test_queue_kernel(self, paper_cfg, disc16, solution16):
        pol = extract_policy(solution16.measure)
        assert np.array_equal(
            _queue_kernel(paper_cfg, disc16, pol),
            loop_queue_kernel(paper_cfg.Q, paper_cfg.arrival.alphas,
                              disc16.masses, pol.table))


class TestSolve:
    def test_measure_satisfies_all_rows(self, paper_cfg, disc16, solution16):
        prob = build_occupancy_lp(paper_cfg, disc16, 3.0)
        x = solution16.measure.values[prob.mask].ravel()
        res_eq = np.abs(prob.lp.A_eq @ x - prob.lp.b_eq).max()
        assert res_eq <= 1e-8
        assert (prob.lp.A_ub @ x - prob.lp.b_ub).max() <= 1e-8

    def test_measure_residual_methods(self, solution16):
        m = solution16.measure
        assert m.bin_residual() <= 1e-8
        assert m.balance_residual() <= 1e-8
        assert m.structural_zero_mass() <= 1e-12
        assert m.queue_marginal().sum() == pytest.approx(1.0, abs=1e-9)

    def test_budget_tight_at_optimum(self, solution16):
        delay, power = evaluate_measure(solution16.measure)
        assert delay == pytest.approx(3.0, abs=1e-8)
        assert power == pytest.approx(solution16.objective, abs=1e-12)

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
        cfg = config_from_dict({
            "arrival": {"alphas": [1.0]},
            "channel": {"kind": "uniform", "h_min": 0.5, "h_max": 10.0},
            "Q": 10, "S_max": 2, "xi_kind": "exp2minus1"})
        disc = discretize_channel(cfg.channel, 2)
        d_min, _ = min_delay(cfg, disc)
        assert d_min == 0.0

    def test_no_arrivals_delay_is_the_priced_delay(self):
        # with no arrivals the reported delay is the mean queue, the
        # same quantity the LP's delay cost prices
        cfg = config_from_dict({
            "arrival": {"alphas": [1.0]},
            "channel": {"kind": "uniform", "h_min": 0.5, "h_max": 10.0},
            "Q": 10, "S_max": 2, "xi_kind": "exp2minus1"})
        disc = discretize_channel(cfg.channel, 2)
        olp = build_occupancy_lp(cfg, disc, None)
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
        cfg = config_from_dict({
            "arrival": {"alphas": [1.0]},
            "channel": {"kind": "uniform", "h_min": 0.5, "h_max": 10.0},
            "Q": 10, "S_max": 2, "xi_kind": "exp2minus1"})
        disc = discretize_channel(cfg.channel, 2)
        measure, delay, power = solve_lagrangian(cfg, disc, 1.0)
        assert (delay, power) == (0.0, 0.0)
        assert measure.queue_marginal()[0] == pytest.approx(1.0,
                                                                abs=1e-12)

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
        m2 = policy_to_measure(paper_cfg, disc16, pol)
        d1, p1 = evaluate_measure(solution16.measure)
        d2, p2 = evaluate_measure(m2)
        assert d2 == pytest.approx(d1, abs=1e-8)
        assert p2 == pytest.approx(p1, abs=1e-8)

    def test_reducible_chain_names_both_classes(self, tiny_cfg):
        disc = discretize_channel(tiny_cfg.channel, 1)
        # hold at q=2 forever, drain at q=1: {0,1} and {2} are both closed
        table = np.zeros((3, 1, 2))
        table[0, 0, 0] = 1.0
        table[1, 0, 1] = 1.0
        table[2, 0, 0] = 1.0
        pol = Policy(tiny_cfg, disc, table, np.zeros((3, 1), dtype=bool))
        with pytest.raises(ReducibleChainError, match="both closed"):
            policy_to_measure(tiny_cfg, disc, pol)

    def test_sample_rate_deterministic_rows_ignore_draw(self, solution16):
        pol = extract_policy(solution16.measure)
        q, us = 2, np.array([0.0, 0.31, 0.77, 0.999])
        rates = set(pol.decisions(np.full(4, 7.3), us)[:, q].tolist())
        if pol.kind == "deterministic":
            assert len(rates) == 1

    def test_sample_rate_mixes_by_conditional_mass(
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


def _result_bytes(res):
    """Everything a solve reports, floats as their bytes."""
    return (res.status, res.x.tobytes(), np.float64(res.objective).tobytes(),
            res.duals_eq.tobytes(), res.duals_ub.tobytes(),
            res.dropped_eq_rows, res.iterations, res.phase1_iterations)


def _cold(cfg, disc, c_of):
    olp = build_occupancy_lp(cfg, disc, None)
    return solve_simplex(replace(olp.lp, c=c_of(olp)))


class TestSharedStart:
    """Delay-free solves from the cached start equal cold solves bit for bit."""

    @pytest.mark.parametrize("name,bins", [("paper_iv", 4), ("paper_iv", 8),
                                           ("tiny", 2)])
    def test_bitwise_equal_to_cold(self, name, bins, corner_lams):
        cfg = load_config(name)
        disc = discretize_channel(cfg.channel, bins)
        olp, start = occupancy_lp._delay_free(cfg, disc)
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
        occupancy_lp._delay_free.cache_clear()
        for disc in (a, b, a):
            res, _ = occupancy_lp._solve(paper_cfg, disc, None, weighted)
            assert _result_bytes(res) == _result_bytes(cold[disc.bins])
        assert occupancy_lp._delay_free.cache_info().misses == 3

    def test_constrained_solves_stay_cold(self, paper_cfg):
        disc = discretize_channel(paper_cfg.channel, 2)
        occupancy_lp._delay_free.cache_clear()
        assert solve_constrained(paper_cfg, disc, 3.0).status == "optimal"
        assert occupancy_lp._delay_free.cache_info().currsize == 0
