from __future__ import annotations

import tracemalloc
from functools import cached_property

import numpy as np
import pytest

from linksched.construction import (
    ConstructedSolution,
    ConstructionError,
    MassRangeError,
    PARTITION_TOL,
    PiecewiseDensity,
    compute_thresholds,
    density_from_measure,
    envelope_value,
    invert_envelope,
    power_ratio,
    threshold_policy_from_text,
    threshold_policy_to_text,
    to_threshold_policy,
    verify_deterministic,
    verify_feasibility,
)
from linksched.chain import transition_table
from linksched.model import config_from_dict, discretize_channel, load_config
from linksched.occupancy_lp import (
    Policy,
    min_delay,
    policy_to_measure,
    solve_constrained,
)

from oracles import (
    loop_channel_residual,
    loop_delay_power,
    loop_intervals,
    loop_rate_integrals,
    loop_thresholds,
)


@pytest.fixture(scope="module")
def built16(density16):
    return compute_thresholds(density16, 16)


class TestEnvelope:
    def test_tables_are_read_only_and_kept(self, density16):
        for name in ("totals", "cum_mass"):
            table = getattr(density16, name)
            assert getattr(density16, name) is table
            assert not table.flags.writeable
        Q, n = density16.cfg.Q, density16.grid.size - 1
        assert density16.totals.shape == (Q + 1, n)
        assert density16.cum_mass.shape == (Q + 1, n + 1)

    def test_monotone_from_zero(self, density16, paper_cfg):
        us = density16.cum_mass
        assert (us[:, 0] == 0.0).all()
        assert (np.diff(us, axis=1) >= -1e-15).all()
        for q in (0, 3, 10):
            assert envelope_value(density16.grid, us[q],
                                  paper_cfg.channel.h_min) == 0.0

    def test_last_column_is_each_states_mass(self, density16):
        assert density16.cum_mass[:, -1] == pytest.approx(
            density16.rate_integrals.sum(axis=1), abs=1e-15)

    def test_inverse_hits_requested_mass(self, density16):
        grid, us = density16.grid, density16.cum_mass[2]
        for frac in (0.0, 0.1, 0.31, 0.5, 0.77, 0.99, 1.0):
            v = frac * float(us[-1])
            x = invert_envelope(grid, us, v)
            assert envelope_value(grid, us, x) == pytest.approx(v, abs=1e-12)

    def test_inverse_is_leftmost(self, density16):
        # inside a flat stretch the inverse must stop at its left end,
        # so nudging the target upward jumps past the whole stretch
        grid, us = density16.grid, density16.cum_mass[2]
        assert invert_envelope(grid, us, 0.0) == grid[0]

    def test_mass_out_of_range(self, density16):
        grid, us = density16.grid, density16.cum_mass[2]
        total = float(us[-1])
        with pytest.raises(MassRangeError, match="mass out of range"):
            invert_envelope(grid, us, total + 1e-6)
        with pytest.raises(MassRangeError, match="mass out of range"):
            invert_envelope(grid, us, -1e-6)
        with pytest.raises(MassRangeError, match="mass out of range"):
            invert_envelope(grid, us, np.array([0.0, total + 1e-6]))

    def test_array_calls_match_scalar_calls(self, density16):
        grid, us = density16.grid, density16.cum_mass[2]
        xs = np.linspace(grid[0], grid[-1], 37)
        vs = envelope_value(grid, us, xs)
        assert vs.tolist() == [envelope_value(grid, us, float(x)) for x in xs]
        assert (invert_envelope(grid, us, vs).tolist()
                == [invert_envelope(grid, us, float(v)) for v in vs])

    def test_tolerance_clamps_tiny_overshoot(self, density16):
        grid, us = density16.grid, density16.cum_mass[2]
        assert invert_envelope(grid, us, float(us[-1]) + 1e-13) == grid[-1]


class TestThresholds:
    def test_intervals_tile_the_gain_range(self, built16, paper_cfg):
        lo, hi = paper_cfg.channel.h_min, paper_cfg.channel.h_max
        for q in range(paper_cfg.Q + 1):
            a, b, _ = built16.intervals[q]
            assert a[0] == lo
            assert b[-1] == hi
            assert np.abs(a[1:] - b[:-1]).max(initial=0.0) <= PARTITION_TOL

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
        assert rep.ok
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

    def test_ascending_order_can_undercut_the_source(self, built16,
                                                     density16):
        # filling cells from the lowest rate puts the high rates at the
        # high-gain end, which is cheaper than the source arrangement;
        # the certificate refuses to call that a faithful construction
        y = built16
        lo, hi = loop_thresholds(y.source.grid, y.source.values, y.cells,
                                 list(range(y.cfg.S_max + 1)))
        ascending = ConstructedSolution(y.source, y.cells, lo, hi)
        _, p_src = density16.delay_power
        _, p_up = ascending.delay_power
        assert p_up < p_src
        with pytest.raises(ConstructionError, match="power ratio") as err:
            power_ratio(ascending, density16)
        assert "np.float64" not in str(err.value)

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
        assert pr.ratio == 1.0 and verify_feasibility(y).power == 0.0


class TestCertificates:
    def test_each_evaluated_once(self, solution16, monkeypatch):
        # compute_thresholds builds the refined density's two tables;
        # feasibility, determinism, the power ratio and the policy read
        # them and build none
        d = density_from_measure(solution16.measure)
        calls = []
        for name in ("totals", "cum_mass"):
            build = getattr(PiecewiseDensity, name).func
            spy = cached_property(
                lambda self, name=name, build=build:
                calls.append((name, self)) or build(self))
            spy.__set_name__(PiecewiseDensity, name)
            monkeypatch.setattr(PiecewiseDensity, name, spy)
        y = compute_thresholds(d, 16)
        assert [name for name, _ in calls] == ["cum_mass", "totals"]
        assert all(built is y.source for _, built in calls)
        verify_feasibility(y)
        verify_deterministic(y)
        power_ratio(y, d)
        to_threshold_policy(y)
        assert len(calls) == 2

    def test_peak_at_20000_cells(self, solution16):
        # evaluated one queue state at a time, the certificates peak at
        # about 21 MiB here; over every state at once they took 63 MiB
        d = density_from_measure(solution16.measure)
        y = compute_thresholds(d, 20_000)
        tracemalloc.start()
        try:
            verify_feasibility(y)
            power_ratio(y, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20


class TestNegativeControls:
    def test_overlap_is_caught_with_witness(self, built16):
        lo2, hi2 = built16.lo.copy(), built16.hi.copy()
        q, k = 2, 5
        widths = hi2[q, k] - lo2[q, k]
        s = int(np.argmax(widths))
        hi2[q, k, s] = min(hi2[q, k, s] + 0.2, built16.cfg.channel.h_max)
        bad = ConstructedSolution(built16.source, built16.cells, lo2, hi2)
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
        bad = ConstructedSolution(built16.source, built16.cells, lo2, hi2)
        assert verify_deterministic(bad).ok  # still a partition
        assert verify_feasibility(bad).rate_residual > 1e-8


    def test_gap_next_to_h_min_breaks_channel_residual(self):
        # on a narrow channel a gap of 5e-6 next to h_min is a piece of
        # its own, which no state covers
        cfg = config_from_dict({
            "arrival": {"alphas": [0.4, 0.3, 0.3]},
            "channel": {"kind": "uniform", "h_min": 1.0, "h_max": 1.01},
            "Q": 10, "S_max": 2, "xi_kind": "exp2minus1"})
        sol = solve_constrained(cfg, discretize_channel(cfg.channel, 4), 3.0)
        y = compute_thresholds(density_from_measure(sol.measure), 8)
        lo = y.lo.copy()
        k, s = np.argwhere((lo[0] == 1.0) & (y.hi[0] > lo[0]))[0]
        lo[0, k, s] = 1.000005  # q=0 no longer covers (1, 1.000005]
        bad = ConstructedSolution(y.source, y.cells, lo, y.hi)
        assert verify_feasibility(y).channel_residual <= 1e-8
        assert verify_feasibility(bad).channel_residual > 1.0

    def test_gap_between_old_sample_gains_breaks_channel_residual(self,
                                                                 built16):
        # q=3 no longer covers (2.28125, 2.28135], which holds none of
        # 10000 evenly spread gains; the piece evaluation sees it
        k, s = np.argwhere((built16.lo[3] == 2.28125)
                           & (built16.hi[3] > built16.lo[3]))[0]
        lo = built16.lo.copy()
        lo[3, k, s] += 1e-4
        bad = ConstructedSolution(built16.source, built16.cells,
                                  lo, built16.hi)
        assert verify_feasibility(bad).channel_residual > 1e-3
        assert verify_deterministic(bad).ok


class TestThresholdPolicy:
    def test_rules_match_intervals(self, built16):
        pol = to_threshold_policy(built16)
        rng = np.random.default_rng(7)
        for q in range(built16.cfg.Q + 1):
            if pol.transient[q]:
                continue
            a, b, s = built16.intervals[q]
            hs = np.array([rng.uniform(0.5 + 1e-9, 10.0) for _ in range(50)])
            want = [int(s[(a < h) & (h <= b)][0]) for h in hs]
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

    def test_decisions_ignore_draw(self, built16):
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
    return density_from_measure(policy_to_measure(pol))


def _lp_density(cfg, bins):
    sol = solve_constrained(cfg, discretize_channel(cfg.channel, bins), 3.0)
    return density_from_measure(sol.measure)


CONSTRUCTION_CASES = [
    ("paper_iv", 16, 2000),
    ("paper_iv", 16, 1),
    ("paper_iv", 4, 380),
    ("paper_iv", 64, 7),
    ("piecewise", 5, 3),
    ("piecewise", 5, 37),
    ("piecewise", 8, 211),
]


class TestLoopReference:
    """The array construction against its loop form: equal to the last bit."""

    # each id names the layout too: rates stacked from the highest down
    @pytest.mark.parametrize("name,bins,cells", CONSTRUCTION_CASES, ids=[
        f"{name}-{bins}-{cells}-rate_descending"
        for name, bins, cells in CONSTRUCTION_CASES])
    def test_construction_matches_loops(self, density16, piecewise_cfg, name,
                                        bins, cells):
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
        y = compute_thresholds(d, cells)
        grid, values = y.source.grid, y.source.values
        lo, hi = loop_thresholds(grid, values, y.cells,
                                 list(range(d.cfg.S_max, -1, -1)))
        assert y.lo.tobytes() == lo.tobytes() and y.hi.tobytes() == hi.tobytes()
        assert (y.rate_integrals.tobytes()
                == loop_rate_integrals(grid, values, lo, hi).tobytes())
        assert y.delay_power == loop_delay_power(
            grid, values, lo, hi, d.cfg.arrival.alphas, d.cfg.xi_table)
        for q in range(d.cfg.Q + 1):
            assert (list(zip(*(a.tolist() for a in y.intervals[q])))
                    == loop_intervals(lo, hi, q))

    @pytest.mark.parametrize("name,bins,cells", [
        ("paper_iv", 16, 1),
        ("paper_iv", 16, 7),
        ("paper_iv", 16, 16),
        ("paper_iv", 16, 380),
        ("paper_iv", 16, 2000),
        ("piecewise", 5, 7),
    ])
    def test_channel_residual_matches_loops(self, density16, piecewise_cfg,
                                            name, bins, cells):
        d = density16 if name == "paper_iv" else _lp_density(piecewise_cfg,
                                                             bins)
        y = compute_thresholds(d, cells)
        ch = d.cfg.channel
        args = (y.source.grid, y.source.values, y.lo, y.hi, ch)
        exact = loop_channel_residual(*args)
        assert verify_feasibility(y).channel_residual == exact
        # at least the gap seen at 10000 evenly spread gains
        n = 10_000
        spread = ch.h_min + (np.arange(n) + 0.5) * ((ch.h_max - ch.h_min) / n)
        assert exact >= loop_channel_residual(*args, gains=spread)
