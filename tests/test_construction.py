from __future__ import annotations

import numpy as np
import pytest

from linksched.construction import (
    ConstructedSolution,
    ConstructionError,
    MassRangeError,
    PARTITION_TOL,
    compute_envelope,
    compute_thresholds,
    density_from_measure,
    invert_envelope,
    power_ratio,
    threshold_policy_from_text,
    threshold_policy_to_text,
    to_threshold_policy,
    verify_deterministic,
    verify_feasibility,
)
from linksched.model import config_from_dict, discretize_channel, load_config
from linksched.occupancy_lp import (
    Policy,
    min_delay,
    policy_to_measure,
    solve_constrained,
    transition_table,
)

from oracles import (
    loop_delay_power,
    loop_intervals,
    loop_rate_integrals,
    loop_thresholds,
)


@pytest.fixture(scope="module")
def built16(density16):
    return compute_thresholds(density16, 16)


class TestEnvelope:
    def test_monotone_from_zero(self, density16, paper_cfg):
        for q in (0, 3, 10):
            env = compute_envelope(density16, q)
            assert env.us[0] == 0.0
            assert (np.diff(env.us) >= -1e-15).all()
            assert env.value(paper_cfg.channel.h_min) == 0.0

    def test_inverse_hits_requested_mass(self, density16):
        env = compute_envelope(density16, 2)
        total = float(env.us[-1])
        for frac in (0.0, 0.1, 0.31, 0.5, 0.77, 0.99, 1.0):
            v = frac * total
            x = invert_envelope(env, v)
            assert env.value(x) == pytest.approx(v, abs=1e-12)

    def test_inverse_is_leftmost(self, density16):
        # inside a flat stretch the inverse must stop at its left end,
        # so nudging the target upward jumps past the whole stretch
        env = compute_envelope(density16, 2)
        x0 = invert_envelope(env, 0.0)
        assert x0 == env.xs[0]

    def test_mass_out_of_range(self, density16):
        env = compute_envelope(density16, 2)
        total = float(env.us[-1])
        with pytest.raises(MassRangeError, match="mass out of range"):
            invert_envelope(env, total + 1e-6)
        with pytest.raises(MassRangeError, match="mass out of range"):
            invert_envelope(env, -1e-6)
        with pytest.raises(MassRangeError, match="mass out of range"):
            invert_envelope(env, np.array([0.0, total + 1e-6]))

    def test_array_calls_match_scalar_calls(self, density16):
        env = compute_envelope(density16, 2)
        xs = np.linspace(env.xs[0], env.xs[-1], 37)
        vs = env.value(xs)
        assert vs.tolist() == [env.value(float(x)) for x in xs]
        assert (invert_envelope(env, vs).tolist()
                == [invert_envelope(env, float(v)) for v in vs])

    def test_tolerance_clamps_tiny_overshoot(self, density16):
        env = compute_envelope(density16, 2)
        total = float(env.us[-1])
        assert invert_envelope(env, total + 1e-13) == env.xs[-1]


class TestThresholds:
    def test_intervals_tile_the_gain_range(self, built16, paper_cfg):
        lo, hi = paper_cfg.channel.h_min, paper_cfg.channel.h_max
        for q in range(paper_cfg.Q + 1):
            iv = built16.intervals_for(q)
            assert iv[0][0] == lo
            assert iv[-1][1] == hi
            for (_, b1, _), (a2, _, _) in zip(iv[:-1], iv[1:]):
                assert abs(a2 - b1) <= PARTITION_TOL

    def test_feasibility_residuals(self, built16):
        rep = verify_feasibility(built16)
        assert rep.channel_residual <= 1e-8
        assert rep.balance_residual <= 1e-8
        assert rep.nonneg_residual == 0.0
        assert rep.structural_residual <= 1e-10
        assert rep.rate_residual <= 1e-10
        assert rep.delay_residual <= 1e-10
        assert rep.max_residual <= 1e-8

    def test_deterministic(self, built16):
        rep = verify_deterministic(built16)
        assert rep.exact_ok and rep.sampled_ok and rep.ok
        assert rep.witness is None

    def test_single_cell_still_tiles(self, density16):
        y = compute_thresholds(density16, 1)
        assert verify_deterministic(y).ok
        assert verify_feasibility(y).rate_residual <= 1e-10


class TestPowerRatio:
    def test_ratio_within_bound(self, built16, density16):
        pr = power_ratio(built16, density16)
        assert pr.bound == pytest.approx(1.0 + 9.5 / (16 * 0.5))
        assert 1.0 - 1e-10 <= pr.ratio <= pr.bound
        assert pr.ratio == pytest.approx(1.0000945444959226, rel=1e-9)

    def test_ratio_shrinks_under_refinement(self, density16):
        ratios = [power_ratio(compute_thresholds(density16, c), density16).ratio
                  for c in (1, 4, 16, 64)]
        assert all(r2 <= r1 + 1e-12 for r1, r2 in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(1.0000233082761816, rel=1e-9)

    def test_ascending_order_can_undercut_the_source(self, density16):
        # filling cells from the lowest rate puts the high rates at the
        # high-gain end, which is cheaper than the source arrangement;
        # the certificate refuses to call that a faithful construction
        y = compute_thresholds(density16, 16, order="rate_ascending")
        _, p_src = density16.delay_power()
        _, p_y = y.delay_power()
        assert p_y < p_src
        with pytest.raises(ConstructionError, match="power ratio") as err:
            power_ratio(y, density16)
        assert "np.float64" not in str(err.value)

    def test_unknown_order_rejected(self, density16):
        with pytest.raises(ValueError, match="unknown order"):
            compute_thresholds(density16, 4, order="sideways")

    def test_zero_power_source(self):
        cfg = config_from_dict({
            "arrival": {"alphas": [1.0]},
            "channel": {"kind": "uniform", "h_min": 0.5, "h_max": 10.0},
            "Q": 10, "S_max": 2, "xi_kind": "exp2minus1"})
        disc = discretize_channel(cfg.channel, 4)
        _, m = min_delay(cfg, disc)
        d = density_from_measure(m)
        y = compute_thresholds(d, 4)
        pr = power_ratio(y, d)
        assert pr.ratio == 1.0 and pr.power == 0.0


class TestNegativeControls:
    def test_overlap_is_caught_with_witness(self, built16):
        lo2, hi2 = built16.lo.copy(), built16.hi.copy()
        q, k = 2, 5
        widths = hi2[q, k] - lo2[q, k]
        s = int(np.argmax(widths))
        hi2[q, k, s] = min(hi2[q, k, s] + 0.2, built16.cfg.channel.h_max)
        bad = ConstructedSolution(built16.source, built16.cells,
                                  built16.order, lo2, hi2)
        rep = verify_deterministic(bad)
        assert not rep.ok
        assert rep.witness is not None
        assert rep.witness[0] == q

    def test_moved_threshold_breaks_rate_masses(self, built16):
        lo2, hi2 = built16.lo.copy(), built16.hi.copy()
        moved = False
        for q in range(built16.cfg.Q + 1):
            for k in range(built16.cells.size - 1):
                w = hi2[q, k] - lo2[q, k]
                live = np.flatnonzero(w > 1e-3)
                if len(live) >= 2:
                    a, b = live[0], live[1]
                    mid = 0.5 * (lo2[q, k, a] + hi2[q, k, a])
                    hi2[q, k, a] = mid
                    lo2[q, k, b] = mid
                    moved = True
                    break
            if moved:
                break
        assert moved
        bad = ConstructedSolution(built16.source, built16.cells,
                                  built16.order, lo2, hi2)
        assert verify_deterministic(bad).ok  # still a partition
        assert verify_feasibility(bad).rate_residual > 1e-8


    def test_gap_next_to_h_min_breaks_channel_residual(self):
        # on a narrow channel the lowest stratified samples lie within
        # 1e-5 of h_min; a gap there must still leave them uncovered
        cfg = config_from_dict({
            "arrival": {"alphas": [0.4, 0.3, 0.3]},
            "channel": {"kind": "uniform", "h_min": 1.0, "h_max": 1.01},
            "Q": 10, "S_max": 2, "xi_kind": "exp2minus1"})
        sol = solve_constrained(cfg, discretize_channel(cfg.channel, 4), 3.0)
        y = compute_thresholds(density_from_measure(sol.measure), 8)
        lo = y.lo.copy()
        k, s = np.argwhere((lo[0] == 1.0) & (y.hi[0] > lo[0]))[0]
        lo[0, k, s] = 1.000005  # q=0 no longer covers (1, 1.000005]
        bad = ConstructedSolution(y.source, y.cells, y.order, lo, y.hi)
        assert verify_feasibility(y).channel_residual <= 1e-8
        assert verify_feasibility(bad).channel_residual > 1.0


class TestThresholdPolicy:
    def test_rules_match_intervals(self, built16):
        pol = to_threshold_policy(built16)
        rng = np.random.default_rng(7)
        for q in range(built16.cfg.Q + 1):
            if pol.transient[q]:
                continue
            iv = built16.intervals_for(q)
            hs = np.array([rng.uniform(0.5 + 1e-9, 10.0) for _ in range(50)])
            want = [next(s for a, b, s in iv if a < h <= b) for h in hs]
            assert pol.decisions(hs, np.zeros(50))[:, q].tolist() == want

    def test_boundary_belongs_to_closing_rule(self, built16):
        pol = to_threshold_policy(built16)
        for q in range(built16.cfg.Q + 1):
            b, r = pol.bounds[q], pol.rates[q]
            got = pol.decisions(b[1:-1], np.zeros(len(r) - 1))[:, q]
            assert got.tolist() == r[:-1].tolist()

    def test_adjacent_rules_never_share_a_rate(self, built16):
        pol = to_threshold_policy(built16)
        for q in range(built16.cfg.Q + 1):
            assert (np.diff(pol.rates[q]) != 0).all()

    def test_transient_states_drain(self, paper_cfg, disc16):
        sol = solve_constrained(paper_cfg, disc16, 1.0)
        d = density_from_measure(sol.measure)
        pol = to_threshold_policy(compute_thresholds(d, 16))
        assert pol.transient[3:].all()
        assert not pol.transient[:3].any()
        for q in range(3, 11):
            assert pol.rates[q].tolist() == [min(q, 2)]

    def test_sample_rate_ignores_draw(self, built16):
        pol = to_threshold_policy(built16)
        rows = pol.decisions(np.full(3, 3.7), np.array([0.0, 0.99, 0.5]))
        assert (rows == rows[0]).all()

    def test_text_round_trip(self, built16):
        pol = to_threshold_policy(built16)
        text = threshold_policy_to_text(pol)
        assert text.splitlines()[0] == "q,h_lo,h_hi,s,transient"
        back = threshold_policy_from_text(text, built16.cfg)
        assert np.array_equal(back.transient, pol.transient)
        for q in range(built16.cfg.Q + 1):
            assert np.array_equal(back.bounds[q], pol.bounds[q])
            assert np.array_equal(back.rates[q], pol.rates[q])

    def test_text_header_checked(self, built16):
        with pytest.raises(ValueError, match="unexpected policy header"):
            threshold_policy_from_text("a,b,c\n0,1,2\n", built16.cfg)


# a channel with a zero-density stretch inside a bin, so envelopes have
# flat pieces and cells cross piece edges
def _mixed_policy_density(cfg, bins):
    """Density of a fixed randomized bin policy; no LP solve needed."""
    disc = discretize_channel(cfg.channel, bins)
    _, mask = transition_table(cfg)
    rng = np.random.default_rng(11)
    w = rng.random((cfg.Q + 1, bins, cfg.S_max + 1))
    w[rng.random(w.shape) < 0.3] = 0.0
    w = np.where(mask[:, None, :], w + 1e-3, 0.0)
    table = w / w.sum(axis=2, keepdims=True)
    pol = Policy(cfg, disc, table, np.zeros((cfg.Q + 1, bins), dtype=bool))
    return density_from_measure(policy_to_measure(cfg, disc, pol))


def _lp_density(cfg, bins):
    sol = solve_constrained(cfg, discretize_channel(cfg.channel, bins), 3.0)
    return density_from_measure(sol.measure)


class TestLoopReference:
    """The array construction against its loop form: equal to the last bit."""

    @pytest.mark.parametrize("name,bins,cells,order", [
        ("paper_iv", 16, 2000, "rate_descending"),
        ("paper_iv", 16, 64, "rate_ascending"),
        ("paper_iv", 16, 1, "rate_descending"),
        ("paper_iv", 4, 380, "rate_descending"),
        ("paper_iv", 64, 7, "rate_descending"),
        ("piecewise", 5, 3, "rate_descending"),
        ("piecewise", 5, 3, "rate_ascending"),
        ("piecewise", 5, 37, "rate_descending"),
        ("piecewise", 5, 37, "rate_ascending"),
        ("piecewise", 8, 211, "rate_descending"),
        ("piecewise", 8, 211, "rate_ascending"),
    ])
    def test_construction_matches_loops(self, density16, piecewise_cfg, name,
                                        bins, cells, order):
        if name == "paper_iv":
            cfg = load_config(name)
            if bins == 16:
                d = density16
            elif bins == 64:  # an M=64 LP solve takes tens of seconds
                d = _mixed_policy_density(cfg, bins)
            else:
                d = _lp_density(cfg, bins)
        else:
            d = _lp_density(piecewise_cfg, bins)
        y = compute_thresholds(d, cells, order)
        S = d.cfg.S_max
        seq = range(S, -1, -1) if order == "rate_descending" else range(S + 1)
        grid, values = y.source.grid, y.source.values
        lo, hi = loop_thresholds(grid, values, y.cells, list(seq))
        assert y.lo.tobytes() == lo.tobytes() and y.hi.tobytes() == hi.tobytes()
        assert (y.rate_integrals().tobytes()
                == loop_rate_integrals(grid, values, lo, hi).tobytes())
        assert y.delay_power() == loop_delay_power(
            grid, values, lo, hi, d.cfg.arrival.alphas, d.cfg.xi_table)
        for q in range(d.cfg.Q + 1):
            assert y.intervals_for(q) == loop_intervals(lo, hi, q)
