from __future__ import annotations

import hashlib
import json
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from linksched import occupancy_lp, simplex
from linksched.model import config_from_dict, discretize_channel
from linksched.occupancy_lp import (build_occupancy_lp, presolve_budgets,
                                    solve_constrained, solve_lagrangian)
from linksched.simplex import (LinearProgram, SimplexAnomaly, SimplexResult,
                               _check_rows, feasible_start, solve_simplex,
                               trunk_solves)
from linksched.sweep import default_budget_grid, sweep_curve

from oracles import (best_basic_solution, dense_solve_simplex,
                     random_bounded_lp, random_config_dict)

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


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
                                 r"by 0\.5$") as e:
            _check_rows(lp, np.array([1.0, 1.0]))
        assert (e.value.kind, e.value.row) == ("inequality", 1)
        with pytest.raises(SimplexAnomaly,
                           match=r"^optimal point breaks equality row 0 "
                                 r"by 1\.0$") as e:
            _check_rows(lp, np.array([0.5, 0.5]))
        assert (e.value.kind, e.value.row) == ("equality", 0)


class TestMemory:
    def test_peak_is_about_two_tableaus(self, paper_cfg, disc16):
        # a solve holds one condensed tableau, phase 1's, whose front
        # takes the kept rows at the drop and phase 2 pivots in place
        # (0.75x of this full-width one here, 0.76x with einsum); a copy
        # of the kept rows (1.11x), a phase-1-sized scratch array (1.43x),
        # staging or per-phase copies push past 0.8x
        lp = build_occupancy_lp(paper_cfg, disc16).at(3.0)
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
        assert peak <= 0.8 * tableau, peak / tableau

    def test_shared_start_peak_is_about_one_tableau(self, paper_cfg, disc16):
        # with the start cached, a solve holds one copy of the start's
        # condensed tableau, 0.43 of this full-width one; a scratch array
        # of the same shape would take it to 0.79
        solve_lagrangian(paper_cfg, disc16, 1.0)
        lp = build_occupancy_lp(paper_cfg, disc16).lp
        me = lp.A_eq.shape[0]
        tableau = me * (lp.c.size + me + 1) * 8
        tracemalloc.start()
        try:
            solve_lagrangian(paper_cfg, disc16, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert occupancy_lp._lp.cache_info().hits >= 1
        assert peak <= 0.5 * tableau, peak / tableau

    def test_cold_peak_in_condensed_widths(self, paper_cfg, disc16):
        # the phase-1 tableau holds only the nonbasic columns, the
        # structural ones and the slacks of negated rows, and is the
        # solve's one tableau (1.08x here, rows padded to 8 doubles, and
        # 1.09x with einsum's four rows at a time, 1.10x with five when
        # this test runs alone; a copy of the kept rows takes it to 1.60x)
        lp = build_occupancy_lp(paper_cfg, disc16).at(3.0)
        rows = lp.A_eq.shape[0] + lp.A_ub.shape[0]
        flipped = int((lp.b_ub < 0.0).sum())
        tableau = rows * (simplex._padded(lp.c.size + flipped) + 1) * 8
        tracemalloc.start()
        try:
            res = solve_simplex(lp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.status == "optimal" and res.dropped_eq_rows
        assert peak <= 1.1 * tableau, peak / tableau

    def test_shared_start_peak_in_condensed_widths(self, paper_cfg, disc16):
        # from a start, the kept rows hold the nonbasic structural and
        # slack columns; the artificial columns are gone (1.12x here,
        # 1.13x with einsum, 2.06x with a scratch array)
        solve_lagrangian(paper_cfg, disc16, 1.0)
        olp = occupancy_lp._lp(paper_cfg, disc16)
        start = olp.start
        kept = start.basis.size
        width = olp.lp.c.size + olp.lp.A_ub.shape[0] - kept
        tableau = kept * (width + 5) * 8
        tracemalloc.start()
        try:
            solve_lagrangian(paper_cfg, disc16, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert occupancy_lp._lp.cache_info().hits >= 1
        assert peak <= 1.2 * tableau, peak / tableau


    def test_own_start_is_pivoted_in_place(self, paper_cfg, disc16,
                                           monkeypatch):
        # the start a solve or a walk makes for itself is the tableau
        # it pivots; a start passed in is copied and never written
        olp = build_occupancy_lp(paper_cfg, disc16)
        lp = olp.at(3.0)
        shared = feasible_start(lp)
        digest = hashlib.sha256(shared.T.tobytes()).hexdigest()
        made, pivoted = [], []
        make, phase_2 = simplex.feasible_start, simplex._phase_2

        def recording_start(lp, check=None):
            made.append(make(lp, check))
            return made[-1]

        def recording_phase_2(lp, start, t):
            pivoted.append(t.N)
            return phase_2(lp, start, t)

        monkeypatch.setattr(simplex, "feasible_start", recording_start)
        monkeypatch.setattr(simplex, "_phase_2", recording_phase_2)
        cold = solve_simplex(lp)
        assert pivoted.pop() is made.pop().T
        _assert_same(solve_simplex(lp, shared), cold)
        assert not np.shares_memory(pivoted.pop(), shared.T)
        assert not shared.T.flags.writeable
        assert hashlib.sha256(shared.T.tobytes()).hexdigest() == digest
        walks = []
        start_tableau = simplex._start_tableau

        def recording_tableau(start, cost, shared):
            walks.append(start_tableau(start, cost, shared))
            return walks[-1]

        # the walk's tableau is the largest budget's own start, whose
        # result is read off it in place; a smaller budget finishes on
        # a copy
        monkeypatch.setattr(simplex, "_start_tableau", recording_tableau)
        assert list(trunk_solves(lp, [2.5, 3.0])) == [2.5, 3.0]
        walk, = walks
        assert walk.N is made.pop().T
        own, tail = pivoted.pop(), pivoted.pop()
        assert own is walk.N and not np.shares_memory(tail, walk.N)

    def test_sweep_peak_is_one_cold_solve(self, paper_cfg, disc16):
        # each run builds its LP; the budgets share it and one walk,
        # which pivots the largest budget's start in place and finishes
        # each smaller budget on a copy of it; both are gone before
        # d_min, the grid's first budget, takes its own phase 1, so the
        # sweep's peak is the LP and two start-sized arrays, a cold
        # solve's LP and phase-1 array plus at most one start-sized
        # array (0.87x of that here, 0.86x with einsum); a third
        # start-sized array takes it to 1.04x, a second dense A_eq alive
        # beside them to 1.21x
        grid = default_budget_grid(paper_cfg, disc16, points=12)
        kept = feasible_start(build_occupancy_lp(paper_cfg, disc16).at(
            grid[-1])).T.nbytes
        solve_constrained(paper_cfg, disc16, 3.0)  # load the BLAS binding
        peaks = []
        for run in (lambda: solve_constrained(paper_cfg, disc16, 3.0),
                    lambda: sweep_curve(paper_cfg, disc16, grid)):
            occupancy_lp._lp.cache_clear()
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        cold, swept = peaks
        assert swept <= 1.02 * (cold + kept), swept / (cold + kept)


class TestMemoryEinsumFallback(TestMemory):
    """The same bounds where numpy bundles no OpenBLAS: the einsum form
    subtracts a few rows at a time and makes no tableau-sized temporary."""

    @pytest.fixture(autouse=True)
    def no_blas(self, monkeypatch):
        monkeypatch.setattr(simplex, "_blas_dgemm", lambda: None)

    def test_padding_stays_positive_zero(self, paper_cfg, disc16,
                                         monkeypatch):
        # the einsum form subtracts +0.0 from the gaps between rows:
        # after phase 1 and the drop, and after phase 2 on a shared
        # start's copy and in place, every padding double is +0.0
        lp = build_occupancy_lp(paper_cfg, disc16).at(3.0)
        start = feasible_start(lp)
        tableaus = [start.T]
        phase_2 = simplex._phase_2

        def keeping(lp, start, t):
            tableaus.append(t.N)
            return phase_2(lp, start, t)

        monkeypatch.setattr(simplex, "_phase_2", keeping)
        assert solve_simplex(lp, start).status == "optimal"
        assert solve_simplex(lp).status == "optimal"
        for T in tableaus:
            rows, width = T.shape
            stride = T.strides[0] // 8
            skip = (T.ctypes.data - T.base.ctypes.data) // 8
            gaps = T.base[skip:skip + rows * stride].reshape(rows, stride)
            assert stride > width
            assert (gaps[:, width:].view(np.int64) == 0).all()


class TestPhaseCounts:
    def test_equality_rows_need_phase_one(self):
        res = _solve([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[3.0])
        assert (res.phase1_iterations, res.iterations) == (1, 1)

    def test_slack_basis_needs_no_phase_one(self):
        res = _solve([-3.0, -5.0],
                     A_ub=[[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
                     b_ub=[4.0, 12.0, 18.0])
        assert (res.phase1_iterations, res.iterations) == (0, 3)


class TestCounters:
    """degenerate_pivots counts the zero steps on the path; row_gap is
    the largest row miss of the returned point."""

    def test_degenerate_start(self):
        # from the slack basis, y enters at row 2, whose slack is 0
        res = _solve([1.0, -1.0],
                     A_ub=[[1.0, 1.0], [-1.0, 1.0]], b_ub=[2.0, 0.0])
        assert (res.iterations, res.degenerate_pivots) == (1, 1)
        assert res.row_gap == 0.0

    def test_nondegenerate_path(self):
        res = _solve([-3.0, -5.0],
                     A_ub=[[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
                     b_ub=[4.0, 12.0, 18.0])
        assert (res.iterations, res.degenerate_pivots) == (3, 0)

    def test_beale_cycles_through_zero_steps(self):
        res = _solve([-0.75, 150.0, -0.02, 6.0],
                     A_ub=[[0.25, -60.0, -0.04, 9.0],
                           [0.5, -90.0, -0.02, 3.0],
                           [0.0, 0.0, 1.0, 0.0]],
                     b_ub=[0.0, 0.0, 1.0])
        assert 0 < res.degenerate_pivots < res.iterations

    def test_paper_m16(self, paper_cfg, disc16, monkeypatch):
        # replay the definition: record whether each exchange starts
        # from a zero RHS, then leave out the drive-out exchanges, which
        # sit between phase 1 and phase 2
        lp = build_occupancy_lp(paper_cfg, disc16).at(3.0)
        zero_steps = []
        exchange = simplex._exchange

        def recording(t, r, p):
            zero_steps.append(bool(t.N[r, -1] == 0.0))
            exchange(t, r, p)

        monkeypatch.setattr(simplex, "_exchange", recording)
        res = solve_simplex(lp)
        drive_outs = len(zero_steps) - res.iterations
        it1 = res.phase1_iterations
        path = zero_steps[:it1] + zero_steps[it1 + drive_outs:]
        assert res.degenerate_pivots == sum(path)
        assert 0 < res.degenerate_pivots < res.iterations
        gaps = np.concatenate([np.abs(lp.A_eq @ res.x - lp.b_eq),
                               lp.A_ub @ res.x - lp.b_ub, [0.0]])
        assert res.row_gap == gaps.max()
        assert 0.0 < res.row_gap <= simplex.ROW_TOL

    def test_shared_start_counts_phase_one(self, paper_cfg, disc16):
        lp = build_occupancy_lp(paper_cfg, disc16).lp
        start = feasible_start(lp)
        cold = solve_simplex(lp)
        warm = solve_simplex(lp, start)
        assert start.phase1_degenerate > 0
        assert (warm.degenerate_pivots, warm.row_gap) == (
            cold.degenerate_pivots, cold.row_gap)


class TestPinnedCounts:
    """Two M=16 solves on paper_iv give the per-solve counts that the
    benchmark's traced pass pins, so a change that moves them fails here
    too.  corners_m16 solves 232 LPs on the min-delay LP's rows, the
    first of them the min-delay LP itself; deploy_m16 solves the D_th=3
    LP twice."""

    @pytest.fixture(scope="class")
    def pinned(self):
        return json.loads(REFERENCE.read_text())["counts"]

    @staticmethod
    def _assert_counts(lp, res, solves, want):
        assert res.status == "optimal"
        assert want["simplex.solves"] == solves
        assert (lp.c.size, lp.A_eq.shape[0] + lp.A_ub.shape[0],
                int((lp.A_eq != 0.0).sum())) == (
            want["occupancy_lp.lp_vars"], want["occupancy_lp.lp_rows"],
            want["occupancy_lp.lp_nnz"])
        assert (len(res.dropped_eq_rows) * solves
                == want["simplex.dropped_rows"])

    def test_min_delay_lp(self, paper_cfg, disc16, pinned):
        want = pinned["corners_m16"]
        olp = build_occupancy_lp(paper_cfg, disc16)
        res = solve_simplex(replace(olp.lp, c=olp.delay))
        self._assert_counts(olp.lp, res, 232, want)
        assert res.iterations == want["simplex.first_solve_pivots"] == 113
        assert len(res.dropped_eq_rows) == 16

    def test_constrained_lp(self, paper_cfg, disc16, pinned):
        want = pinned["deploy_m16"]
        lp = build_occupancy_lp(paper_cfg, disc16).at(3.0)
        res = solve_simplex(lp)
        self._assert_counts(lp, res, 2, want)
        assert 2 * res.iterations == want["simplex.pivots"]
        assert (res.iterations, len(res.dropped_eq_rows)) == (635, 16)
        assert lp.A_ub.shape[0] == 1


class TestSharedStart:
    def test_descent_ray_in_phase_1_is_an_anomaly(self, monkeypatch):
        # phase 1's objective is bounded below by 0, so only drift can
        # give it a ray: here no entry passes for a pivot
        monkeypatch.setattr(simplex, "PIV_TOL", 2.0)
        lp = LinearProgram.build([1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[1.0])
        with pytest.raises(SimplexAnomaly, match="descent ray in phase 1"):
            feasible_start(lp)

    def test_infeasible_rows_have_no_start(self, monkeypatch):
        lp = LinearProgram.build([1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[-1.0])
        start = feasible_start(lp)
        assert isinstance(start, SimplexResult)
        assert start == solve_simplex(lp)
        # a solve from an infeasible start returns it and pivots nothing
        runs = []
        bland_iterate = simplex._bland_iterate

        def recording(t):
            runs.append(t)
            return bland_iterate(t)

        monkeypatch.setattr(simplex, "_bland_iterate", recording)
        assert solve_simplex(replace(lp, c=-lp.c), start) is start
        assert runs == []

    def test_start_is_never_written(self, paper_cfg):
        disc = discretize_channel(paper_cfg.channel, 4)
        lp = build_occupancy_lp(paper_cfg, disc).lp
        start = feasible_start(lp)
        arrays = (start.T, start.nb, start.basis, start.rows)
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            start.T[0, 0] = 1.0
        digest = hashlib.sha256(start.T.tobytes()).hexdigest()
        for c in (lp.c, -lp.c, np.arange(lp.c.size, dtype=float)):
            solve_simplex(replace(lp, c=c), start)
        assert hashlib.sha256(start.T.tobytes()).hexdigest() == digest

    def test_start_under_a_tracer_reading_locals(self, paper_cfg):
        # a tracer that reads frame locals, as a debugger does, keeps a
        # reference to phase 1's array, which then cannot shrink in
        # place: the start is a copy of its front, the same bits
        disc = discretize_channel(paper_cfg.channel, 4)
        lp = build_occupancy_lp(paper_cfg, disc).at(3.0)
        ref = feasible_start(lp)

        def tracer(frame, event, arg):
            frame.f_locals
            return tracer

        outer = sys.gettrace()
        sys.settrace(tracer)
        try:
            start = feasible_start(lp)
        finally:
            sys.settrace(outer)
        assert start.T.shape == ref.T.shape
        assert start.T.tobytes() == ref.T.tobytes()
        assert ref.dropped_eq_rows and all(
            np.array_equal(a, b) for a, b in ((start.nb, ref.nb),
                                              (start.basis, ref.basis),
                                              (start.rows, ref.rows)))


def _assert_same(res, ref):
    """Two solves agree on every field, bit for bit, duals included."""
    assert res.status == ref.status
    assert (res.iterations, res.phase1_iterations, res.degenerate_pivots,
            res.dropped_eq_rows, res.row_gap) == (
        ref.iterations, ref.phase1_iterations, ref.degenerate_pivots,
        ref.dropped_eq_rows, ref.row_gap)
    if ref.status != "optimal":
        return
    assert res.x.tobytes() == ref.x.tobytes()
    assert np.float64(res.objective).tobytes() == np.float64(
        ref.objective).tobytes()
    assert res.duals_ub.tobytes() == ref.duals_ub.tobytes()


def _solve_or_anomaly(lp, start=None):
    try:
        return solve_simplex(lp, start)
    except SimplexAnomaly as e:
        return f"SimplexAnomaly: {e}"


def _against_cold(lp, start):
    """The solve from a shared start (None: its own phase 1) against the
    cold solve_simplex(lp)."""
    got, want = _solve_or_anomaly(lp, start), _solve_or_anomaly(lp)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        _assert_same(got, want)


def _opened(run, monkeypatch):
    """run()'s value and the start of the walk it makes (None if none),
    with the walk's tableau arrays as they were before its first step,
    captured through a wrapped _start_tableau."""
    opened = []
    start_tableau = simplex._start_tableau

    def recording(start, cost, shared):
        t = start_tableau(start, cost, shared)
        opened.append((start, t.N.copy(), t.nb.copy(), t.basis.copy()))
        return t

    with monkeypatch.context() as m:
        m.setattr(simplex, "_start_tableau", recording)
        value = run()
    return value, (opened.pop() if opened else None)


def _assert_trunk_starts(opened, solved, lp_at):
    """Before its first step, the walk's tableau is the own phase-1
    start of each budget it solved bit for bit, but for the RHS of the
    budget's row, which the walk carries as one number; lp_at(d_th) is
    the LP at budget d_th."""
    start, T, nb, basis = opened
    k = int(np.searchsorted(start.rows, lp_at(0.0).A_eq.shape[0]))
    for d_th in solved:
        ref = feasible_start(lp_at(d_th))
        own = ref.T.copy()
        own[k, -1] = T[k, -1]
        assert own.tobytes() == T.tobytes()
        for a, b in ((nb, ref.nb), (basis, ref.basis),
                     (start.rows, ref.rows)):
            assert np.array_equal(a, b)
        assert (start.dropped_eq_rows, start.phase1_iterations,
                start.phase1_degenerate) == (ref.dropped_eq_rows,
                                             ref.phase1_iterations,
                                             ref.phase1_degenerate)


def _budgets_against_cold(cfg, disc, budgets, monkeypatch) -> list[bool]:
    """Each budget of a sweep's walk (presolve_budgets) against the cold
    solve of a freshly built LP, the same bits: the result the walk
    kept on the LP, or its own phase 1 when the walk left it out.  The
    walk starts from each solved budget's own phase-1 bits.  Returns,
    for the budgets in ascending order, whether the walk solved each."""
    occupancy_lp.clear_caches()
    _, opened = _opened(lambda: presolve_budgets(cfg, disc, budgets),
                        monkeypatch)
    olp = occupancy_lp._lp(cfg, disc)
    if opened is not None:
        _assert_trunk_starts(opened, olp.solved, olp.at)
    order = sorted(float(d_th) for d_th in budgets)
    for d_th in order:
        lp = olp.at(d_th)
        fresh = build_occupancy_lp(cfg, disc).at(d_th)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(
            (lp.c, lp.A_eq, lp.b_eq, lp.A_ub, lp.b_ub),
            (fresh.c, fresh.A_eq, fresh.b_eq, fresh.A_ub, fresh.b_ub)))
        _against_cold(lp, olp.solved.get(d_th))
    return [d_th in olp.solved for d_th in order]


def _budget_lps(lp, budgets):
    """lp at each budget, A_ub row 0's RHS: one LP per budget on lp's
    own arrays."""
    return [replace(lp, b_ub=np.array([d_th, *lp.b_ub[1:]]))
            for d_th in budgets]


def _finishes(lp, budgets, monkeypatch):
    """trunk_solves(lp, budgets), which must solve every budget, and
    where each finished, by budget: the phase-2 pivots and zero steps
    its tableau counted there, a copy of that tableau, and the tableau
    array itself (a wrapped _phase_2)."""
    at = {}
    phase_2 = simplex._phase_2

    def recording(lp, start, t):
        at[float(lp.b_ub[0])] = (t.pivots, t.degenerate, t.N.copy(), t.N)
        return phase_2(lp, start, t)

    with monkeypatch.context() as m:
        m.setattr(simplex, "_phase_2", recording)
        solved = trunk_solves(lp, budgets)
    assert sorted(solved) == sorted({float(d_th) for d_th in budgets})
    return solved, at


class TestOpenRowStart:
    """Budgets ride one walk, the largest budget's own solve, through
    phase 1 and phase 2 until each leaves it (trunk_solves); a budget
    the walk solves gets its cold solve bit for bit, and every smaller
    budget that leaves in phase 1 runs the cold solve."""

    @pytest.mark.parametrize("bins", [2, 4, 8, 16])
    def test_paper_budgets_match_cold_solves(self, paper_cfg, bins,
                                             monkeypatch):
        disc = discretize_channel(paper_cfg.channel, bins)
        grid = default_budget_grid(paper_cfg, disc)
        below = grid[0] * np.array([0.5, 0.9, 1.0 - 1e-9])
        left = _budgets_against_cold(paper_cfg, disc, [*grid, *below],
                                     monkeypatch)
        # d_min, the grid's first budget, ties the delay row's ratio and
        # takes its own phase 1, as does every budget below it; the
        # walk solves the others
        assert left == [False] * 4 + [True] * 59

    @pytest.mark.parametrize("bins", [1, 2, 4])
    def test_tiny_budgets_match_cold_solves(self, tiny_cfg, bins,
                                            monkeypatch):
        disc = discretize_channel(tiny_cfg.channel, bins)
        grid = default_budget_grid(tiny_cfg, disc, points=20)
        left = _budgets_against_cold(tiny_cfg, disc,
                                     [*grid, 0.5 * grid[0], 0.0],
                                     monkeypatch)
        assert left == [False] * 3 + [True] * 19

    @pytest.mark.parametrize("bins", [5, 8])
    def test_piecewise_budgets_match_cold_solves(self, piecewise_cfg, bins,
                                                 monkeypatch):
        disc = discretize_channel(piecewise_cfg.channel, bins)
        grid = default_budget_grid(piecewise_cfg, disc, points=20)
        left = _budgets_against_cold(piecewise_cfg, disc,
                                     [*grid, 0.9 * grid[0]], monkeypatch)
        assert not left[0] and left[-1]

    def test_random_configs_match_cold_solves(self, monkeypatch):
        rng = np.random.default_rng(20261019)
        left = []
        for _ in range(40):
            cfg = config_from_dict(random_config_dict(rng))
            disc = discretize_channel(cfg.channel, int(rng.integers(1, 5)))
            delay = build_occupancy_lp(cfg, disc).delay
            budgets = np.linspace(delay.min(), delay.max(), 8)
            left += _budgets_against_cold(cfg, disc,
                                          [0.5 * budgets[0], *budgets],
                                          monkeypatch)
        assert 0 < sum(left) < len(left)

    def test_duplicated_budget_leaves_with_its_twin(self, paper_cfg,
                                                    monkeypatch):
        disc = discretize_channel(paper_cfg.channel, 4)
        grid = default_budget_grid(paper_cfg, disc, points=12)
        budgets = [*grid, grid[5], grid[5]]
        left = _budgets_against_cold(paper_cfg, disc, budgets, monkeypatch)
        assert left == [False] + [True] * 13

    def test_any_order_gives_cold_bits(self, paper_cfg, monkeypatch):
        # one walk solves the budgets in whatever order they come:
        # only d_min and the budgets below it run cold
        disc = discretize_channel(paper_cfg.channel, 4)
        grid = default_budget_grid(paper_cfg, disc, points=12)
        budgets = [*grid.tolist(), 0.9 * grid[0]]
        rng = np.random.default_rng(4)
        for order in (budgets[::-1], rng.permutation(budgets).tolist()):
            left = _budgets_against_cold(paper_cfg, disc, order, monkeypatch)
            assert left == [False] * 2 + [True] * 11

    def test_serving_never_writes_the_trunks_tableau(self, paper_cfg,
                                                     monkeypatch):
        # each smaller budget finishes on a copy of the walk's tableau,
        # so the walk ends on the largest budget's own cold tableau, bit
        # for bit, its counts included, and its result is read off it
        disc = discretize_channel(paper_cfg.channel, 4)
        lp = occupancy_lp._lp(paper_cfg, disc).at(0.0)
        grid = default_budget_grid(paper_cfg, disc, points=12)
        walks = []
        start_tableau = simplex._start_tableau

        def recording(start, cost, shared):
            walks.append(start_tableau(start, cost, shared))
            return walks[-1]

        monkeypatch.setattr(simplex, "_start_tableau", recording)
        solved, at = _finishes(lp, grid[1:], monkeypatch)
        top = float(grid[-1])
        _assert_same(solved[top], solve_simplex(replace(
            lp, b_ub=np.array([top]))))
        walk, cold = walks
        assert walk.N.tobytes() == cold.N.tobytes()
        assert (walk.pivots, walk.degenerate) == (cold.pivots,
                                                  cold.degenerate)
        assert at[top][3] is walk.N
        assert all(not np.shares_memory(tail, walk.N)
                   for d_th, (*_, tail) in at.items() if d_th != top)
        assert all(res.status == "optimal" for res in solved.values())

    def test_zero_steps_are_each_budgets_own(self, monkeypatch):
        # no phase 1; x1 enters and the walk, at budget 2, takes its own
        # row 0, a step of 2, before row 1's 5; both budgets' ratios tie
        # or win: both leave before that exchange, and their solves take
        # the delay row's slack, budget 0 at a zero step and 2 at a step
        # of 2
        lps = _budget_lps(LinearProgram.build([-1.0], A_ub=[[1.0], [1.0]],
                                              b_ub=[0.0, 5.0]), [0.0, 2.0])
        solved, _ = _finishes(lps[0], [2.0, 0.0], monkeypatch)
        assert list(solved) == [0.0, 2.0]
        for lp in lps:
            _assert_same(solved[lp.b_ub[0]], solve_simplex(lp))
        assert [solve_simplex(lp).degenerate_pivots for lp in lps] == [1, 0]

    def test_budget_leaving_at_a_zero_step_counts_it_once(self, monkeypatch):
        # x1 enters and the walk, at budget 2, takes row 1 at a zero
        # step; budget 0's ratio ties it, so budget 0 leaves before that
        # exchange and its own solve takes its zero step on row 0, while
        # budget 2 stays and shares the walk's zero step: each counts one
        lps = _budget_lps(LinearProgram.build([-1.0], A_ub=[[1.0], [1.0]],
                                              b_ub=[0.0, 0.0]), [0.0, 2.0])
        solved, at = _finishes(lps[0], [0.0, 2.0], monkeypatch)
        for lp in lps:
            res = solved[lp.b_ub[0]]
            _assert_same(res, solve_simplex(lp))
            assert (res.iterations, res.degenerate_pivots) == (1, 1)
        assert [at[d_th][:2] for d_th in (0.0, 2.0)] == [(0, 0), (1, 1)]

    def test_ratio_at_the_threshold_leaves_in_phase_2(self, monkeypatch):
        # the phase-2 twin of the test below: x1 enters, row 1's ratio 5
        # sets the tie threshold, and a budget at it ties: the delay
        # row's slack, the lower label, leaves in its own solve, so it
        # leaves the walk before the exchange; the next float up, the
        # walk's own budget, stays
        tie = 5.0 + 1e-12 * (1.0 + 5.0)
        budgets = [tie, np.nextafter(tie, np.inf)]
        lps = _budget_lps(LinearProgram.build([-1.0], A_ub=[[1.0], [1.0]],
                                              b_ub=[tie, 5.0]), budgets)
        solved, at = _finishes(lps[0], budgets, monkeypatch)
        for lp in lps:
            _assert_same(solved[lp.b_ub[0]], solve_simplex(lp))
        assert [at[d_th][0] for d_th in budgets] == [0, 1]

    def test_drive_out_moves_the_open_row(self, monkeypatch):
        # phase 1 ends with row 1's artificial basic at 1e-10, and the
        # drive-out pivots x2 into row 1 on -1: budget 1, riding the
        # walk at 2, takes that exchange's arithmetic, 1 + 1e-10
        lp = LinearProgram.build([1.0, 1.0], A_eq=[[1.0, 0.0], [1.0, -1.0]],
                                 b_eq=[0.0, 1e-10], A_ub=[[0.0, 1.0]],
                                 b_ub=[1.0])

        def lp_at(d_th):
            return replace(lp, b_ub=np.array([d_th]))

        (solved, at), opened = _opened(
            lambda: _finishes(lp, [1.0, 2.0], monkeypatch), monkeypatch)
        _assert_trunk_starts(opened, solved, lp_at)
        # the walk's start is its path's end, where budget 1 finishes,
        # on its own start
        pivots, _, tail, _ = at[1.0]
        own = feasible_start(lp).T
        assert pivots == 0 and tail.tobytes() == own.tobytes()
        assert own[np.searchsorted(opened[0].rows, 2), -1] == 1.0 + 1e-10
        for d_th in (1.0, 2.0):
            _assert_same(solved[d_th], solve_simplex(lp_at(d_th)))

    def test_ratio_at_the_threshold_takes_its_own_phase_1(self):
        # x1 enters; row 0's ratio is 0, so the tie threshold is 1e-12
        # exactly, and budget 1e-12's ratio 1e-12 / 1 ties: its slack,
        # the lowest basic label, leaves (a nonzero step), where the
        # walk, at budget 2e-12 and in no tie, took row 0 (a zero one)
        lp = LinearProgram.build([1.0, 1.0], A_eq=[[1.0, -1.0]], b_eq=[0.0],
                                 A_ub=[[1.0, 0.0]], b_ub=[1e-12])
        solved = trunk_solves(lp, [1e-12, 2e-12])
        assert list(solved) == [2e-12]
        _assert_same(solved[2e-12],
                     solve_simplex(replace(lp, b_ub=np.array([2e-12]))))

    def test_replay_clips_at_zero_as_phase_1_does(self):
        # the delay row's entry 1e-12 is below PIV_TOL, so the budget
        # stays, and the exchange takes its RHS from 0 to -1e-12, which
        # the clip after every exchange sets back to 0
        lp = LinearProgram.build([0.0, 0.0, -1.0],
                                 A_eq=[[1.0, 1.0, 0.0]], b_eq=[1.0],
                                 A_ub=[[1e-12, 0.0, 1.0]], b_ub=[0.0])
        solved = trunk_solves(lp, [0.0])
        assert list(solved) == [0.0]
        _assert_same(solved[0.0], solve_simplex(lp))
        assert solve_simplex(lp).degenerate_pivots == 1

    def test_negative_rhs_takes_its_own_phase_1(self):
        # phase 1 negates the row and gives it an artificial
        lp = LinearProgram.build([1.0, 1.0], A_eq=[[1.0, -1.0]], b_eq=[0.0],
                                 A_ub=[[-1.0, -1.0]], b_ub=[-1.0])
        assert trunk_solves(lp, [-1.0]) == {}
        _against_cold(lp, None)

    def test_unsolved_budget_runs_its_own_phase_1(self, tiny_cfg,
                                                  monkeypatch):
        # a lone budget solve runs its own phase 1, one the walk solved
        # none, and after clear_caches, which frees the walk's results
        # with the LP, the budget runs its own again; all give one answer
        disc = discretize_channel(tiny_cfg.channel, 2)
        grid = default_budget_grid(tiny_cfg, disc, points=5).tolist()
        own = []
        make = simplex.feasible_start

        def counted(lp, check=None):
            own.append(check is None)
            return make(lp, check)

        monkeypatch.setattr(simplex, "feasible_start", counted)
        occupancy_lp.clear_caches()
        answers = [solve_constrained(tiny_cfg, disc, grid[2])]
        presolve_budgets(tiny_cfg, disc, grid)
        answers.append(solve_constrained(tiny_cfg, disc, grid[2]))
        occupancy_lp.clear_caches()
        assert occupancy_lp._lp(tiny_cfg, disc).solved == {}
        answers.append(solve_constrained(tiny_cfg, disc, grid[2]))
        assert own == [True, False, True]
        assert len({(sol.status, sol.iterations, sol.measure.values.tobytes(),
                     np.float64(sol.objective).tobytes(),
                     np.float64(sol.delay_dual).tobytes())
                    for sol in answers}) == 1

    def test_zero_budgets_make_no_trunk(self, tiny_cfg):
        disc = discretize_channel(tiny_cfg.channel, 2)
        occupancy_lp.clear_caches()
        presolve_budgets(tiny_cfg, disc, [])
        assert occupancy_lp._lp(tiny_cfg, disc).solved == {}

    def test_walk_is_the_largest_budgets_solve(self, paper_cfg,
                                               monkeypatch):
        # no budget it can carry, no walk and no phase 1; otherwise the
        # walk is one phase 1, at the largest budget, whose solve it is
        disc = discretize_channel(paper_cfg.channel, 4)
        lp = build_occupancy_lp(paper_cfg, disc).at(0.0)
        grid = default_budget_grid(paper_cfg, disc, points=12)
        walks = []
        make = simplex.feasible_start

        def counted(lp, check=None):
            walks.append(float(lp.b_ub[0]))
            return make(lp, check)

        monkeypatch.setattr(simplex, "feasible_start", counted)
        assert trunk_solves(lp, []) == {}
        assert trunk_solves(lp, [-1.0, np.inf, np.nan]) == {}
        assert walks == []
        solved = trunk_solves(lp, [np.inf, *grid, -1.0])
        assert walks == [grid[-1]]
        assert sorted(solved) == grid[1:].tolist()
        monkeypatch.undo()
        _assert_same(solved[grid[-1]], solve_simplex(
            replace(lp, b_ub=np.array([grid[-1]]))))

    def test_largest_budget_leaving_in_phase_1_runs_it_once(
            self, paper_cfg, disc16, monkeypatch):
        # d_min is 1 + 1.8e-13: 0.5 and 0.8 leave the walk in phase 1
        # and prove themselves infeasible in their own, while the walk's
        # phase 1 is 1.0's own, which goes on to its optimum
        runs, results = [], {}
        make, solved = simplex.feasible_start, occupancy_lp.solve_simplex

        def counted(lp, check=None):
            runs.append(float(lp.b_ub[0]))
            return make(lp, check)

        def recording(lp, start=None):
            results[float(lp.b_ub[0])] = solved(lp, start)
            return results[float(lp.b_ub[0])]

        occupancy_lp.clear_caches()
        monkeypatch.setattr(simplex, "feasible_start", counted)
        monkeypatch.setattr(occupancy_lp, "solve_simplex", recording)
        curve = sweep_curve(paper_cfg, disc16, [0.5, 0.8, 1.0])
        assert runs == [1.0, 0.5, 0.8]
        assert curve.infeasible == (0.5, 0.8)
        assert curve.budgets.tolist() == [1.0]
        monkeypatch.undo()
        _assert_same(results[1.0], solve_simplex(
            build_occupancy_lp(paper_cfg, disc16).at(1.0)))

    def test_rows_with_no_walk(self, monkeypatch):
        infeasible = LinearProgram.build([1.0, 1.0], A_eq=[[1.0, 1.0]],
                                         b_eq=[-1.0], A_ub=[[1.0, 0.0]],
                                         b_ub=[1.0])
        # the walk's phase 1 is the largest budget's, and its outcome
        # that budget's result
        assert trunk_solves(infeasible, [1.0]) == {
            1.0: solve_simplex(infeasible)}
        # x0 enters first; the equality row's ratio is 1 and the delay
        # row's the budget: at 2 the walk takes the equality row, at 0.5
        # the walk's own row wins and 0, whose ratio ties, leaves in
        # phase 1; the walk goes on to 0.5's own optimum
        lp = LinearProgram.build([1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[1.0],
                                 A_ub=[[1.0, 0.0]], b_ub=[2.0])
        assert list(trunk_solves(lp, [2.0])) == [2.0]
        rows = []
        exchange = simplex._exchange

        def recording(t, r, p):
            rows.append(int(r))
            exchange(t, r, p)

        with monkeypatch.context() as m:
            m.setattr(simplex, "_exchange", recording)
            solved = trunk_solves(lp, [0.0, 0.5])
        assert rows[0] == 1 and list(solved) == [0.5]
        half = solve_simplex(replace(lp, b_ub=np.array([0.5])))
        _assert_same(solved[0.5], half)
        assert half.iterations == 2 and half.x.tolist() == [0.5, 0.5]
        _against_cold(replace(lp, b_ub=np.array([0.0])), None)
        monkeypatch.setattr(simplex, "MAX_PIVOTS", 0)
        with pytest.raises(SimplexAnomaly, match="pivot limit"):
            feasible_start(lp)
        assert trunk_solves(lp, [2.0]) == {}


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

    def test_negated_row_reads_its_slack(self):
        # phase 1 negates -x <= -2, whose slack column is then -e_0: the
        # same rule gives the dual of the row as stated
        res = _solve([1.0], A_ub=[[-1.0]], b_ub=[-2.0])
        assert res.duals_ub.tolist() == [-1.0]
        assert np.array([-2.0]) @ res.duals_ub == res.objective

    def test_no_linear_solve(self, paper_cfg, monkeypatch):
        # every A_ub dual, the delay row's among them, is read off the
        # final reduced costs, with no solve on the basis
        def refuse(a, b):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        disc = discretize_channel(paper_cfg.channel, 4)
        res = solve_simplex(build_occupancy_lp(paper_cfg, disc).at(3.0))
        assert res.duals_ub[0] < 0.0
        dual = solve_constrained(paper_cfg, disc, 3.0).delay_dual
        assert dual.hex() == "0x1.019a23b2375cbp-7"


def _assert_duals_complement(res, A_ub, b_ub):
    """Every A_ub dual of an optimal res is <= 0, and zero unless its
    row is tight at res.x."""
    assert (res.duals_ub <= 1e-9).all()
    np.testing.assert_array_less(np.abs(res.duals_ub * (A_ub @ res.x - b_ub)),
                                 1e-7)


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
            _assert_duals_complement(res, A_ub, b_ub)
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


def _assert_as_dense(res, ref, slack_rows_exact=False):
    """Status, x, objective, counts (degenerate pivots included) and
    dropped rows bit for bit; A_ub duals within 1e-10 relative (the full
    tableau reads a negated row's dual off its artificial), or bit for
    bit when slack_rows_exact."""
    assert res.status == ref.status
    assert (res.iterations, res.phase1_iterations, res.degenerate_pivots,
            res.dropped_eq_rows) == (ref.iterations, ref.phase1_iterations,
                                     ref.degenerate_pivots,
                                     ref.dropped_eq_rows)
    if ref.status != "optimal":
        return
    assert res.x.tobytes() == ref.x.tobytes()
    assert np.float64(res.objective).tobytes() == np.float64(
        ref.objective).tobytes()
    got, want = res.duals_ub, ref.duals_ub
    np.testing.assert_array_less(
        np.abs(got - want), 1e-10 * np.maximum(1.0, np.abs(want)) + 1e-300)
    if slack_rows_exact:
        assert res.duals_ub.tobytes() == ref.duals_ub.tobytes()


def _random_lps():
    """Random bounded LPs, each also without its bounding row and with
    every right-hand side shifted by -5, so that phase 1 negates rows
    and some LPs are infeasible or unbounded: (lp, A_ub, b_ub)."""
    rng = np.random.default_rng(20261018)
    for _ in range(300):
        c, A_eq, b_eq, A_ub, b_ub = random_bounded_lp(rng)
        for A, b, shift in ((A_ub, b_ub, 0.0), (A_ub[:-1], b_ub[:-1], 0.0),
                            (A_ub, b_ub, -5.0)):
            yield (LinearProgram.build(c, A_eq, b_eq + shift, A, b + shift),
                   A, b + shift)


def _small_integer_lps():
    """LPs with integer rows, right-hand sides and costs, each also
    with a box row: ratio ties (many at a zero RHS) and equal reduced
    costs are exact, so only the labels pick the leaving row and the
    entering column."""
    rng = np.random.default_rng(5381)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        me, mu = int(rng.integers(0, 3)), int(rng.integers(1, 4))
        x0 = rng.integers(0, 3, n).astype(float)
        A_eq = rng.integers(-2, 3, (me, n)).astype(float)
        A_ub = rng.integers(-2, 3, (mu, n)).astype(float)
        b_ub = A_ub @ x0 + rng.integers(0, 2, mu)
        c = rng.integers(-1, 2, n).astype(float)
        box = np.ones((1, n)), [x0.sum() + rng.integers(0, 3)]
        for A, b in ((A_ub, b_ub), (np.vstack([A_ub, box[0]]),
                                    np.concatenate([b_ub, box[1]]))):
            yield LinearProgram.build(c, A_eq, A_eq @ x0, A, b)


class TestDenseReference:
    """The condensed tableau against the full one in tests/oracles.py."""

    def test_random_lps(self):
        statuses = set()
        for lp, A, b in _random_lps():
            ref, res = dense_solve_simplex(lp), solve_simplex(lp)
            _assert_as_dense(res, ref)
            if res.status == "optimal":
                # the -5 shift makes phase 1 negate rows
                _assert_duals_complement(res, A, b)
            statuses.add(ref.status)
        assert statuses == {"optimal", "infeasible", "unbounded"}

    def test_ties_on_small_integers(self, monkeypatch):
        seen = {"ratio_ties": 0, "cost_ties": 0}
        exchange = simplex._exchange

        def recording(t, r, p):
            col, rhs = t.N[:, p], t.N[:, -1]
            pos = col > simplex.PIV_TOL
            if pos.any():
                ratios = rhs[pos] / col[pos]
                seen["ratio_ties"] += int(
                    np.count_nonzero(ratios == ratios.min()) > 1)
            reduced = t.cost_nb - t.cost_B @ t.N[:, : t.nb.size]
            entering = reduced[reduced < -simplex.OPT_TOL]
            seen["cost_ties"] += int(entering.size > np.unique(entering).size)
            exchange(t, r, p)

        monkeypatch.setattr(simplex, "_exchange", recording)
        statuses = set()
        for lp in _small_integer_lps():
            ref = dense_solve_simplex(lp)
            _assert_as_dense(solve_simplex(lp), ref)
            statuses.add(ref.status)
        assert statuses == {"optimal", "unbounded"}
        assert seen["ratio_ties"] > 0 and seen["cost_ties"] > 0, seen

    def test_no_nonbasic_column_after_phase_one(self):
        # a square nonsingular A_eq with x > 0: phase 1 makes every
        # structural column basic, the artificials are dropped, and
        # phase 2 starts with nothing that could enter
        lp = LinearProgram.build([1.0, -2.0], A_eq=[[2.0, 1.0], [1.0, 3.0]],
                                 b_eq=[3.0, 4.0])
        start = feasible_start(lp)
        assert start.nb.size == 0
        ref = dense_solve_simplex(lp)
        assert ref.status == "optimal"
        for res in (solve_simplex(lp), solve_simplex(lp, start)):
            _assert_as_dense(res, ref)
            assert res.iterations == res.phase1_iterations > 0

    def test_unbounded_in_phase_two(self):
        # x1 - x2 = 1 needs phase 1, which makes x1 basic; then x2
        # enters phase 2 with no positive entry in its column
        lp = LinearProgram.build([-1.0, 0.0], A_eq=[[1.0, -1.0]], b_eq=[1.0])
        ref = dense_solve_simplex(lp)
        assert ref.status == "unbounded" and ref.phase1_iterations == 1
        _assert_as_dense(solve_simplex(lp), ref)
        _assert_as_dense(solve_simplex(lp, feasible_start(lp)), ref)

    @pytest.mark.parametrize("bins", [1, 2, 4, 8])
    @pytest.mark.parametrize("name", ["paper_cfg", "tiny_cfg",
                                      "piecewise_cfg"])
    def test_occupancy_lps(self, request, name, bins):
        cfg = request.getfixturevalue(name)
        disc = discretize_channel(cfg.channel, bins)
        olp = build_occupancy_lp(cfg, disc)
        for d_th in (0.8, 1.2, 1.5, 3.0, -1.0):
            lp = olp.at(d_th)
            assert lp.A_ub.shape[0] == 1
            _assert_as_dense(solve_simplex(lp), dense_solve_simplex(lp),
                             slack_rows_exact=d_th > 0)
        start = feasible_start(olp.lp)
        for c in (olp.delay, olp.power, olp.power + 0.05 * olp.delay,
                  olp.power + 0.7 * olp.delay, olp.power + 20.0 * olp.delay):
            lp = replace(olp.lp, c=c)
            ref = dense_solve_simplex(lp)
            _assert_as_dense(solve_simplex(lp), ref)
            _assert_as_dense(solve_simplex(lp, start), ref)

    @pytest.mark.parametrize("rows, width", [(13, 31), (49, 147), (97, 299),
                                             (193, 626)])
    def test_padded_gemv_matches_wide_gemv(self, rows, width):
        # The premise behind the padding: single-threaded OpenBLAS gives
        # each column of v @ X the same bits wherever the column sits,
        # except the last width % 4 columns.  So a column copied into a
        # matrix padded to a multiple of 4 keeps the reduced cost it has
        # in the full tableau.  (Above these sizes a multithreaded gemv
        # splits its output at thread-dependent columns.)
        rng = np.random.default_rng(rows)
        X = rng.standard_normal((rows, width + 1))
        X[rng.random(X.shape) < 0.7] = 0.0
        v = rng.standard_normal(rows)
        wide = v @ X[:, :width]
        main = width - width % 4
        order = rng.permutation(main)[: main - 5]
        padded = -(-order.size // 4) * 4
        Y = np.zeros((rows, padded + 1))
        Y[:, : order.size] = X[:, order]
        assert (v @ Y[:, :padded])[: order.size].tobytes() == wide[
            order].tobytes()


def _pivot_operands(rng, rows, width):
    """A tableau as _exchange hands it to the rank-1 update, with zeros,
    -0.0, three zero padding columns and a nonnegative RHS, plus the
    update's column (0 at the pivot row) and a copy of the pivot row."""
    N = rng.standard_normal((rows, width))
    N[rng.random(N.shape) < 0.4] = 0.0
    N[rng.random(N.shape) < 0.1] = -0.0
    N[:, -4:-1] = 0.0
    N[:, -1] = np.abs(N[:, -1])
    r = int(rng.integers(rows))
    col = N[:, int(rng.integers(width - 4))].copy()
    col[r] = 0.0
    return N, col, N[r].copy()


class TestRank1Update:
    """The pivot's BLAS rank-1 update against its einsum fallback."""

    @pytest.fixture
    def blas(self):
        if simplex._blas_dgemm() is None:
            pytest.skip("numpy links no bundled OpenBLAS dgemm")

    def test_bundled_openblas_resolves(self):
        # numpy's wheels link scipy-openblas; there the pivot must not
        # quietly run the slower einsum form
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if blas.get("name") != "scipy-openblas":
            pytest.skip(f"numpy links {blas.get('name')!r}")
        assert simplex._blas_dgemm() is not None

    def test_no_bundled_dgemm_falls_back_to_einsum(self, blas, paper_cfg,
                                                   disc16, monkeypatch):
        # a numpy whose extension exports no scipy_cblas_dgemm64_ binds
        # no BLAS kernel, and a solve gives the same bits on einsum
        import ctypes

        lp = build_occupancy_lp(paper_cfg, disc16).at(3.0)
        ref = solve_simplex(lp)
        simplex._blas_dgemm.cache_clear()
        try:
            with monkeypatch.context() as m:
                m.setattr(ctypes, "CDLL", lambda path: object())
                assert simplex._blas_dgemm() is None
            _assert_same(solve_simplex(lp), ref)
        finally:
            simplex._blas_dgemm.cache_clear()
        assert simplex._blas_dgemm() is not None

    @pytest.mark.parametrize("rows, width", [(176, 257), (769, 1001)])
    def test_bitwise_equal_to_einsum(self, blas, rows, width, monkeypatch):
        # on a C-contiguous matrix and on a solve's padded rows, 64-byte
        # aligned at a stride of the width rounded up to 8
        rng = np.random.default_rng(rows)
        for _ in range(4):
            N, col, row = _pivot_operands(rng, rows, width)
            whole = N - np.einsum("i,j->ij", col, row)
            for copy in (np.copy, simplex._aligned_copy):
                got = copy(N)
                simplex._rank1_kernel(got, col, row)()
                with monkeypatch.context() as m:
                    m.setattr(simplex, "_blas_dgemm", lambda: None)
                    want = copy(N)
                    simplex._rank1_kernel(want, col, row)()
                assert (got != N).any()
                assert (np.signbit(want) & (want == 0.0)).any()
                assert (got.view(np.int64) == want.view(np.int64)).all()
                assert (want.view(np.int64) == whole.view(np.int64)).all()

    def test_rejects_strided_operands(self, blas):
        N = np.zeros((3, 8))[:, ::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            simplex._rank1_kernel(N, np.ones(3), np.ones(4))
        with pytest.raises(ValueError, match="C-contiguous"):
            simplex._rank1_kernel(np.zeros((3, 4)), np.ones(3), np.ones(3))
        with pytest.raises(ValueError, match="C-contiguous"):
            simplex._rank1_kernel(np.zeros((3, 4)), np.ones(6)[::2],
                                  np.ones(4))

    def test_binding_a_tableau_checks_it(self, blas):
        # the kernel is bound when a solve sets up its tableau, so a
        # tableau the BLAS call cannot address fails there, before any
        # pivot writes through its pointers
        cost = np.array([1.0, 0.0, 1.0])
        T = np.asfortranarray(np.ones((2, 5)))
        with pytest.raises(ValueError, match="C-contiguous"):
            simplex._Tableau(T, np.array([0]), np.array([1, 2]), cost)
        tableau = simplex._Tableau(np.ones((2, 5)), np.array([0]),
                                   np.array([1, 2]), cost)
        assert tableau.cost_nb.tolist() == [1.0]
        assert tableau.cost_B.tolist() == [0.0, 1.0]

    def test_solves_equal_the_fallback(self, blas, paper_cfg, piecewise_cfg,
                                       monkeypatch):
        # paper_iv M=4 cold, a delay-free LP from its shared start, and
        # the piecewise fixture cold: every reported bit and count; and
        # paper_iv's M=4 sweep, whose budgets pivot the trunk's tableau
        # and their tails' copies of it: every power's bits
        disc = {name: discretize_channel(cfg.channel, 4)
                for name, cfg in (("paper", paper_cfg),
                                  ("piecewise", piecewise_cfg))}
        free = build_occupancy_lp(paper_cfg, disc["paper"])
        weighted = replace(free.lp, c=free.power + 0.7 * free.delay)
        grid = default_budget_grid(paper_cfg, disc["paper"])

        def run():
            start = feasible_start(weighted)
            results = [
                solve_simplex(free.at(3.0)),
                solve_simplex(weighted, start),
                solve_simplex(build_occupancy_lp(
                    piecewise_cfg, disc["piecewise"]).at(1.5))]
            assert all(res.status == "optimal" for res in results)
            occupancy_lp._lp.cache_clear()
            powers = sweep_curve(paper_cfg, disc["paper"], grid).powers
            assert powers.size == 60
            return start.T.tobytes(), powers.tobytes(), [
                (res.x.tobytes(), np.float64(res.objective).tobytes(),
                 res.iterations, res.phase1_iterations, res.degenerate_pivots,
                 res.row_gap, res.dropped_eq_rows, res.duals_ub.tobytes())
                for res in results]

        got = run()
        monkeypatch.setattr(simplex, "_blas_dgemm", lambda: None)
        assert run() == got


def _on_aligned_rows(N):
    """Whether N's rows start on 64-byte boundaries, with unit column
    stride and a row stride of its width rounded up to 8 doubles."""
    stride = -(-N.shape[1] // 8) * 8
    return N.ctypes.data % 64 == 0 and N.strides == (8 * stride, 8)


class TestRowLayout:
    """Every tableau a solve pivots has its rows on 64-byte boundaries,
    at a stride of its width rounded up to 8 doubles, and pivots to the
    bits of C-contiguous rows."""

    @staticmethod
    def _recording(monkeypatch):
        """The N of every _Tableau made from now on, in order."""
        made = []
        tableau = simplex._Tableau

        def recording(N, nb, basis, cost):
            made.append(N)
            return tableau(N, nb, basis, cost)

        monkeypatch.setattr(simplex, "_Tableau", recording)
        return made

    def test_every_pivoted_tableau(self, paper_cfg, monkeypatch):
        disc = discretize_channel(paper_cfg.channel, 8)
        olp = build_occupancy_lp(paper_cfg, disc)
        grid = default_budget_grid(paper_cfg, disc, points=12)
        made = self._recording(monkeypatch)
        # phase 1's array, then the start after the drop
        assert solve_simplex(olp.at(3.0)).dropped_eq_rows
        phase_1, dropped = made
        assert dropped.shape[0] < phase_1.shape[0]
        assert dropped.shape[1] < phase_1.shape[1]
        # a shared start's copy
        start = feasible_start(olp.lp)
        del made[:]
        solve_simplex(replace(olp.lp, c=olp.delay), start)
        shared, = made
        assert not np.shares_memory(shared, start.T)
        # the walk's phase 1 and start, then the budgets' tail copies
        del made[:]
        assert len(trunk_solves(olp.at(3.0), grid)) == grid.size - 1
        assert len(made) > 2
        for N in (phase_1, dropped, shared, *made):
            assert N.shape[1] % 8, N.shape  # so its rows are padded
            assert _on_aligned_rows(N), (N.shape, N.strides)

    def test_padded_gemv_is_the_contiguous_gemv(self):
        # pricing reads the padded rows: single-threaded OpenBLAS gives
        # each column of v @ X the same bits at any row stride and any
        # 8-byte offset of X's base from a 64-byte boundary.  (Not at
        # width 1, where numpy takes the product as a dot, whose
        # contiguous and strided kernels sum in different orders; a
        # tableau's head is a multiple of 4 wide.)
        rng = np.random.default_rng(64)
        for _ in range(40):
            rows = int(rng.integers(1, 200))
            width = int(rng.integers(2, 700))
            X = rng.standard_normal((rows, width))
            X[rng.random(X.shape) < 0.5] = 0.0
            X[rng.random(X.shape) < 0.05] = -0.0
            v = rng.standard_normal(rows)
            v[rng.random(rows) < 0.3] = 0.0
            want = (v @ X).tobytes()
            stride = -(-width // 8) * 8
            buf = np.zeros(rows * stride + 15)
            first = (-buf.ctypes.data // 8) % 8
            for offset in range(first, first + 8):
                Y = buf[offset:offset + rows * stride].reshape(
                    rows, stride)[:, :width]
                Y[...] = X
                assert (v @ Y).tobytes() == want, (rows, width, offset)

    def test_held_buffer_is_copied(self, paper_cfg, monkeypatch):
        # the drop shrinks phase 1's buffer in place; while something
        # else holds it, the kept rows go to an aligned copy instead,
        # with the same bits
        lp = build_occupancy_lp(
            paper_cfg, discretize_channel(paper_cfg.channel, 8)).at(3.0)
        cold = solve_simplex(lp)
        held = []
        tableau_array = simplex._tableau_array

        def holding(rows, width):
            T = tableau_array(rows, width)
            held.append(T.base)
            return T

        monkeypatch.setattr(simplex, "_tableau_array", holding)
        made = self._recording(monkeypatch)
        res = solve_simplex(lp)
        _assert_same(res, cold)
        assert res.dropped_eq_rows
        phase_1, dropped = made
        assert phase_1.base is held[0] and phase_1.base.size > phase_1.size
        assert not np.shares_memory(dropped, held[0])
        assert dropped.base is held[1] and _on_aligned_rows(dropped)


def _split_and_whole(run, monkeypatch):
    """run() with every tableau split into one-row blocks, and again
    with every tableau one block, after checking that the split run
    pivoted tableaus of several blocks."""
    sizes = []
    row_blocks = simplex._row_blocks

    def recording(rows, width):
        blocks = row_blocks(rows, width)
        sizes.append((rows, len(blocks)))
        return blocks

    with monkeypatch.context() as m:
        m.setattr(simplex, "BLOCK_BYTES", 1)
        m.setattr(simplex, "_row_blocks", recording)
        split = run()
    assert sizes and all(blocks == rows for rows, blocks in sizes)
    assert max(rows for rows, _ in sizes) > 1
    with monkeypatch.context() as m:
        m.setattr(simplex, "BLOCK_BYTES", 1 << 62)
        whole = run()
    return split, whole


class TestRowBlocks:
    """A pivot updates the tableau and prices it for the next pivot one
    row block at a time.  The update gives every entry the same bits
    however the rows are split, and the pricing sums the blocks, which
    can move its last bits, but only the pivots' choice reads them: no
    split shows in a result."""

    def test_partition(self):
        for rows, width in ((1, 5), (7, 3), (193, 433), (705, 1025),
                            (769, 1729), (3, 10**6)):
            blocks = simplex._row_blocks(rows, width)
            covered = np.concatenate([np.arange(rows)[b] for b in blocks])
            assert covered.tolist() == list(range(rows))
            assert all(b.stop - b.start == 1
                       or (b.stop - b.start) * width * 8 <= simplex.BLOCK_BYTES
                       for b in blocks)
            fits = rows * width * 8 <= simplex.BLOCK_BYTES
            assert (len(blocks) == 1) == fits, (rows, width)
        # paper_iv at M = 64: the budget solve's phase-1 and phase-2
        # tableaus
        assert len(simplex._row_blocks(769, 1729)) == 11
        assert len(simplex._row_blocks(705, 1025)) == 6

    def test_one_block_prices_as_one_gemv(self, monkeypatch):
        # a tableau of one block is priced by the one gemv a separate
        # pass makes; one of several blocks sums the blocks' gemvs
        rng = np.random.default_rng(11)
        rows, width = 193, 433
        N, _, _ = _pivot_operands(rng, rows, width)
        real = width - 4  # then three zero padding columns and the RHS
        nb, basis = np.arange(real), np.arange(real, real + rows)
        cost = rng.standard_normal(real + rows)
        for block_bytes in (simplex.BLOCK_BYTES, 8 * width * 16):
            monkeypatch.setattr(simplex, "BLOCK_BYTES", block_bytes)
            t = simplex._Tableau(N.copy(), nb.copy(), basis.copy(), cost)
            for p in (7, 0, 400):
                simplex._exchange(t, int(np.abs(t.N[:, p]).argmax()), p)
                whole = t.cost_B @ t.head
                if len(t.blocks) == 1:
                    assert t.priced.tobytes() == whole.tobytes()
                else:
                    np.testing.assert_allclose(t.priced, whole, rtol=1e-12,
                                               atol=1e-12)
        assert len(t.blocks) == 13

    def test_generic_lps(self, monkeypatch):
        lps = [lp for lp, _, _ in _random_lps()] + list(_small_integer_lps())
        split, whole = _split_and_whole(
            lambda: [solve_simplex(lp) for lp in lps], monkeypatch)
        for res, ref in zip(split, whole):
            _assert_same(res, ref)

    @pytest.mark.parametrize("name, bins", [
        ("paper_cfg", 4), ("paper_cfg", 16), ("tiny_cfg", 4),
        ("tiny_cfg", 16), ("piecewise_cfg", 4), ("piecewise_cfg", 8)])
    def test_occupancy_lps(self, request, name, bins, monkeypatch):
        cfg = request.getfixturevalue(name)
        olp = build_occupancy_lp(cfg, discretize_channel(cfg.channel, bins))
        split, whole = _split_and_whole(
            lambda: [_solve_or_anomaly(lp)
                     for lp in (olp.lp, olp.at(1.5), olp.at(3.0))],
            monkeypatch)
        for res, ref in zip(split, whole):
            _assert_same(res, ref)
        assert all(res.status == "optimal" for res in whole[::2])

    @pytest.mark.parametrize("bins", [4, 8])
    def test_trunk_solves(self, paper_cfg, bins, monkeypatch):
        disc = discretize_channel(paper_cfg.channel, bins)
        lp = build_occupancy_lp(paper_cfg, disc).at(3.0)
        grid = default_budget_grid(paper_cfg, disc)
        split, whole = _split_and_whole(lambda: trunk_solves(lp, grid),
                                        monkeypatch)
        assert list(split) == list(whole) and len(whole) == grid.size - 1
        for d_th in whole:
            _assert_same(split[d_th], whole[d_th])

    def test_objective_solves(self, paper_cfg, disc16, monkeypatch):
        # from one shared start, forked over the CPUs as a corner
        # search's rounds are
        olp = build_occupancy_lp(paper_cfg, disc16)
        start = feasible_start(olp.lp)
        costs = [olp.power + w * olp.delay for w in (0.0, 0.05, 0.7, 20.0)]
        split, whole = _split_and_whole(
            lambda: simplex.objective_solves(olp.lp, start, costs),
            monkeypatch)
        assert None not in split + whole
        for res, ref in zip(split, whole):
            _assert_same(res, ref)

    def test_tableau_past_the_constant(self, paper_cfg, monkeypatch):
        # unpatched, paper_iv's M = 32 budget solve splits its tableaus
        # by itself
        lp = build_occupancy_lp(
            paper_cfg, discretize_channel(paper_cfg.channel, 32)).at(3.0)
        blocks = []
        bland_iterate = simplex._bland_iterate

        def recording(t, check=None):
            blocks.append(len(t.blocks))
            return bland_iterate(t, check)

        with monkeypatch.context() as m:
            m.setattr(simplex, "_bland_iterate", recording)
            split = solve_simplex(lp)
        assert min(blocks) > 1
        monkeypatch.setattr(simplex, "BLOCK_BYTES", 1 << 62)
        _assert_same(split, solve_simplex(lp))
