from __future__ import annotations

import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from linksched import occupancy_lp
from linksched.model import discretize_channel
from linksched.occupancy_lp import build_occupancy_lp, solve_lagrangian
from linksched.simplex import (LinearProgram, SimplexAnomaly, SimplexResult,
                               _check_rows, feasible_start, solve_simplex)

from oracles import best_basic_solution, random_bounded_lp


def _solve(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None):
    return solve_simplex(LinearProgram.build(c, A_eq, b_eq, A_ub, b_ub))


class TestBasics:
    def test_simple_box(self):
        res = _solve([-1.0, -1.0], A_ub=[[1.0, 1.0]], b_ub=[1.0])
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-1.0, abs=1e-12)
        assert res.x.sum() == pytest.approx(1.0, abs=1e-12)

    def test_equality_only(self):
        res = _solve([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[3.0])
        assert res.status == "optimal"
        assert res.objective == pytest.approx(3.0, abs=1e-12)
        assert res.x == pytest.approx([3.0, 0.0], abs=1e-12)

    def test_infeasible(self):
        res = _solve([1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[-1.0])
        assert res.status == "infeasible"

    def test_unbounded(self):
        res = _solve([-1.0], A_ub=[[-1.0]], b_ub=[1.0])
        assert res.status == "unbounded"

    def test_textbook_product_mix(self):
        # max 3x + 5y with x <= 4, 2y <= 12, 3x + 2y <= 18
        res = _solve([-3.0, -5.0],
                     A_ub=[[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
                     b_ub=[4.0, 12.0, 18.0])
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-36.0, abs=1e-10)
        assert res.x == pytest.approx([2.0, 6.0], abs=1e-10)

    def test_beale_degenerate_terminates(self):
        # classic cycling instance for naive pivoting
        c = [-0.75, 150.0, -0.02, 6.0]
        A_ub = [[0.25, -60.0, -0.04, 9.0],
                [0.5, -90.0, -0.02, 3.0],
                [0.0, 0.0, 1.0, 0.0]]
        b_ub = [0.0, 0.0, 1.0]
        res = _solve(c, A_ub=A_ub, b_ub=b_ub)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-0.05, abs=1e-10)
        oracle = best_basic_solution(c, None, None, A_ub, b_ub)
        assert res.objective == pytest.approx(oracle, abs=1e-10)

    def test_zero_rhs_degenerate(self):
        # y <= x forces x - y >= 0; the zero right-hand side makes the
        # origin a degenerate starting vertex
        res = _solve([1.0, -1.0],
                     A_ub=[[1.0, 1.0], [-1.0, 1.0]], b_ub=[2.0, 0.0])
        assert res.status == "optimal"
        assert res.objective == pytest.approx(0.0, abs=1e-10)
        oracle = best_basic_solution([1.0, -1.0], None, None,
                                     [[1.0, 1.0], [-1.0, 1.0]], [2.0, 0.0])
        assert res.objective == pytest.approx(oracle, abs=1e-10)


class TestRedundancy:
    def test_duplicate_equality_dropped(self):
        res = _solve([1.0, 1.0],
                     A_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[2.0, 2.0])
        assert res.status == "optimal"
        assert res.objective == pytest.approx(2.0, abs=1e-12)
        assert len(res.dropped_eq_rows) == 1

    def test_inconsistent_duplicate_infeasible(self):
        res = _solve([1.0, 1.0],
                     A_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[2.0, 3.0])
        assert res.status == "infeasible"


class TestRowCheck:
    """An "optimal" point that misses a row of its LP is an anomaly."""

    def test_names_the_row_and_gap(self):
        lp = LinearProgram.build([1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[2.0],
                                 A_ub=np.eye(2), b_ub=[1.5, 0.5])
        _check_rows(lp, np.array([1.5, 0.5]))
        with pytest.raises(SimplexAnomaly,
                           match=r"^optimal point breaks inequality row 1 "
                                 r"by 0\.5$"):
            _check_rows(lp, np.array([1.0, 1.0]))
        with pytest.raises(SimplexAnomaly,
                           match=r"^optimal point breaks equality row 0 "
                                 r"by 1\.0$"):
            _check_rows(lp, np.array([0.5, 0.5]))


class TestMemory:
    def test_peak_is_about_two_tableaus(self, paper_cfg, disc16):
        # a solve holds the tableau and one scratch array, also across
        # the row drop; staging or per-phase copies would push past 2.2x
        lp = build_occupancy_lp(paper_cfg, disc16, 3.0).lp
        me, mu = lp.A_eq.shape[0], lp.A_ub.shape[0]
        arts = me + int((lp.b_ub < 0.0).sum())
        tableau = (me + mu) * (lp.c.size + mu + arts + 1) * 8
        tracemalloc.start()
        try:
            res = solve_simplex(lp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.status == "optimal" and res.dropped_eq_rows
        assert peak <= 2.2 * tableau, peak / tableau

    def test_shared_start_peak_is_about_two_tableaus(self, paper_cfg, disc16):
        # with the start cached, a solve holds a copy of the start's
        # tableau and one scratch array, nothing more
        solve_lagrangian(paper_cfg, disc16, 1.0)
        lp = build_occupancy_lp(paper_cfg, disc16, None).lp
        me = lp.A_eq.shape[0]
        tableau = me * (lp.c.size + me + 1) * 8
        tracemalloc.start()
        try:
            solve_lagrangian(paper_cfg, disc16, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert occupancy_lp._delay_free.cache_info().hits >= 1
        assert peak <= 2.2 * tableau, peak / tableau


class TestPhaseCounts:
    def test_equality_rows_need_phase_one(self):
        res = _solve([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[3.0])
        assert (res.phase1_iterations, res.iterations) == (1, 1)

    def test_slack_basis_needs_no_phase_one(self):
        res = _solve([-3.0, -5.0],
                     A_ub=[[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
                     b_ub=[4.0, 12.0, 18.0])
        assert (res.phase1_iterations, res.iterations) == (0, 3)


class TestSharedStart:
    def test_infeasible_rows_have_no_start(self):
        lp = LinearProgram.build([1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[-1.0])
        start = feasible_start(lp)
        assert isinstance(start, SimplexResult)
        assert start == solve_simplex(lp)

    def test_start_is_never_written(self, paper_cfg):
        disc = discretize_channel(paper_cfg.channel, 4)
        lp = build_occupancy_lp(paper_cfg, disc, None).lp
        start = feasible_start(lp)
        arrays = (start.T, start.basis, start.keep, start.flip, start.ident)
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            start.T[0, 0] = 1.0
        digest = hashlib.sha256(start.T.tobytes()).hexdigest()
        for c in (lp.c, -lp.c, np.arange(lp.c.size, dtype=float)):
            solve_simplex(replace(lp, c=c), start)
        assert hashlib.sha256(start.T.tobytes()).hexdigest() == digest


class TestDuals:
    def test_strong_duality_and_sign(self):
        res = _solve([-3.0, -5.0],
                     A_ub=[[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
                     b_ub=[4.0, 12.0, 18.0])
        assert res.duals_ub is not None
        # min problem with <= rows: shadow prices cannot be positive
        assert (res.duals_ub <= 1e-9).all()
        assert res.duals_ub @ np.array([4.0, 12.0, 18.0]) == pytest.approx(
            res.objective, abs=1e-9)

    def test_equality_dual_value(self):
        res = _solve([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[3.0])
        # objective rises one-for-one with the right-hand side
        assert res.duals_eq == pytest.approx([1.0], abs=1e-10)

    def test_mixed_duality(self):
        res = _solve([2.0, 1.0, -1.0],
                     A_eq=[[1.0, 1.0, 1.0]], b_eq=[4.0],
                     A_ub=[[1.0, 0.0, 2.0]], b_ub=[5.0])
        assert res.status == "optimal"
        total = (res.duals_eq @ np.array([4.0])
                 + res.duals_ub @ np.array([5.0]))
        assert total == pytest.approx(res.objective, abs=1e-9)


class TestRandomizedOracle:
    def test_matches_exhaustive_basic_solutions(self):
        rng = np.random.default_rng(20240817)
        optimal = 0
        for _ in range(200):
            c, A_eq, b_eq, A_ub, b_ub = random_bounded_lp(rng)
            res = _solve(c, A_eq if len(A_eq) else None,
                         b_eq if len(b_eq) else None, A_ub, b_ub)
            assert res.status == "optimal", res.status
            oracle = best_basic_solution(
                c, A_eq if len(A_eq) else None,
                b_eq if len(b_eq) else None, A_ub, b_ub)
            assert oracle is not None
            assert res.objective == pytest.approx(oracle, abs=1e-8)
            # strong duality on every instance
            total = 0.0
            if res.duals_eq is not None and len(b_eq):
                total += float(res.duals_eq @ b_eq)
            if res.duals_ub is not None:
                total += float(res.duals_ub @ b_ub)
            assert total == pytest.approx(res.objective, abs=1e-7)
            optimal += 1
        assert optimal == 200

    def test_feasibility_of_reported_points(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            c, A_eq, b_eq, A_ub, b_ub = random_bounded_lp(rng)
            res = _solve(c, A_eq if len(A_eq) else None,
                         b_eq if len(b_eq) else None, A_ub, b_ub)
            assert res.status == "optimal"
            x = res.x
            assert (x >= -1e-9).all()
            if len(A_eq):
                assert np.abs(A_eq @ x - b_eq).max() < 1e-7
            assert (A_ub @ x - b_ub).max() < 1e-7
