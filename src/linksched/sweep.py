"""Delay-power tradeoff curves and their vertex structure.

The minimal average power as a function of the delay budget is convex
and piecewise linear once the channel is binned, so it is fully
described by its corner points.  Corners are found without any grid:
scalarizing with a weight lam >= 0 on delay turns every LP solve into
a supporting line of the curve, and recursively splitting a weight
interval at the crossing of its endpoint lines either certifies the
segment (no deeper support exists) or discovers a new corner.  Each
corner's optimal policy is deterministic; the enumeration rejects
anything else as a solver fault.  The intervals are split breadth
first, and every round of crossing weights is solved on every CPU of
the process's affinity mask; the candidates are sorted by (D, P, lam)
before they are clustered, so the corners are the same on any number
of CPUs and in any order of discovery.

A TradeoffCurve is one discretization's budget sweep: the feasible
budgets and the minimal power at each.  Corners are a separate tuple
of Vertex, either the whole curve's or just those inside a curve's
budget span, and their adjacent-pair spacings are measured both in the
(delay, power) plane and along the delay axis.  Spacing shrinks as
bins are added; the convergence study quantifies that by the sup-gap
between successive curves on a common grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (ChannelDiscretization, SystemConfig,
                    discretize_channel, sorted_unique)
from .occupancy_lp import (
    ONE_HOT_TOL,
    Policy,
    evaluate_measure,
    extract_policy,
    min_delay,
    policy_to_measure,
    presolve_budgets,
    presolve_lagrangians,
    solve_constrained,
    solve_lagrangian,
)
from .textio import csv_text

HULL_TOL = 1e-8
VERTEX_TOL = 1e-10
CLUSTER_TOL = 1e-7  # candidates this close in D and P are one corner
COLLINEAR_TOL = 1e-9  # points this close to their neighbors' chord drop
MAX_VERTEX_SOLVES = 5000


class SweepError(RuntimeError):
    """A sweep-level contract failed (empty curve, bad enumeration)."""


class InfeasibleCurveError(SweepError):
    """Every budget of a sweep is infeasible."""


@dataclass(frozen=True)
class Vertex:
    """One corner of the piecewise-linear tradeoff curve."""

    D: float
    P: float
    lam: float  # scalarization weight that exposed it
    policy: Policy


@dataclass(frozen=True)
class TradeoffCurve:
    M: int
    budgets: np.ndarray  # feasible D_th grid points, ascending
    powers: np.ndarray  # minimal power at each budget
    infeasible: tuple[float, ...]  # excluded grid points

    def __post_init__(self):
        self.budgets.setflags(write=False)
        self.powers.setflags(write=False)


def default_budget_grid(cfg: SystemConfig, disc: ChannelDiscretization,
                        points: int = 60) -> np.ndarray:
    """Uniform budgets from the minimum achievable delay to 3x that,
    each listed once: a minimum delay of 0 gives the one budget 0."""
    d_min, _ = min_delay(cfg, disc)
    return sorted_unique(np.linspace(d_min, 3.0 * d_min, points))


def vertex_distances(vertices) -> tuple[np.ndarray, np.ndarray]:
    """Adjacent-pair spacings of D-sorted Vertex objects, both metrics.

    Returns (euclidean, delay-axis) arrays, empty for fewer than two
    vertices.
    """
    pts = np.array([(v.D, v.P) for v in vertices], dtype=float).reshape(-1, 2)
    diff = np.diff(pts, axis=0)
    return np.hypot(diff[:, 0], diff[:, 1]), np.abs(diff[:, 0])


def default_lambda_max(cfg: SystemConfig) -> float:
    return 1e4 * cfg.xi_table[cfg.S_max] / cfg.channel.h_min


def enumerate_vertices(
    cfg: SystemConfig,
    disc: ChannelDiscretization,
) -> tuple[Vertex, ...]:
    """All corners of the tradeoff curve, sorted by increasing delay.

    Weights run from 0 to default_lambda_max(cfg), whose weighted solve
    must reach the minimum delay; otherwise the left end of the curve is
    unreachable and the call fails.  The weight intervals are split
    breadth first: a round is the crossing weight of every open
    interval, and each round is solved on every CPU of the process's
    affinity mask (presolve_lagrangians, by processes forked for the
    round alone) before solve_lagrangian reads each weight's result.
    _corners sorts the candidates totally, so the corners do not
    depend on the CPU count.
    """
    solves = 0

    def presolve(lams: list[float]) -> None:
        nonlocal solves
        solves += len(lams)
        if solves > MAX_VERTEX_SOLVES:
            raise SweepError("vertex enumeration did not converge")
        presolve_lagrangians(cfg, disc, lams)

    def solve(lam: float) -> Vertex:
        measure, delay, power = solve_lagrangian(cfg, disc, lam)
        return Vertex(delay, power, lam, extract_policy(measure))

    d_min, _ = min_delay(cfg, disc)
    lam_max = default_lambda_max(cfg)
    presolve([lam_max, 0.0])
    top = solve(lam_max)  # before 0.0: a failed solve names lam_max
    if top.D > d_min + 1e-6 * (1.0 + d_min):
        raise SweepError(
            f"weight lam={top.lam!r} only reaches delay {top.D!r} "
            f"but the minimum is {d_min!r}")
    bottom = solve(0.0)
    cand, level, depth = [bottom, top], [(bottom, top)], 0
    while level:
        crossings = []
        for lo, hi in level:
            if (abs(lo.D - hi.D) <= VERTEX_TOL
                    and abs(lo.P - hi.P) <= VERTEX_TOL):
                continue
            if depth > 80:
                raise SweepError("vertex enumeration did not converge")
            # endpoint supporting lines P + lam*D cross at the only
            # weight that could expose a corner hiding between them
            if lo.D > hi.D:
                lam_star = (hi.P - lo.P) / (lo.D - hi.D)
            else:
                lam_star = 0.5 * (lo.lam + hi.lam)
            if not (lo.lam < lam_star < hi.lam):
                lam_star = 0.5 * (lo.lam + hi.lam)
            crossings.append((lo, hi, lam_star))
        presolve([lam_star for *_, lam_star in crossings])
        level, depth = [], depth + 1
        for lo, hi, lam_star in crossings:
            mid = solve(lam_star)
            chord = lo.P + lam_star * lo.D
            if (mid.P + lam_star * mid.D
                    >= chord - VERTEX_TOL * (1.0 + abs(chord))):
                continue  # segment certified: lo, hi adjacent corners
            cand.append(mid)
            level += [(lo, mid), (mid, hi)]
    return _corners(cand)


def _corners(cand: list[Vertex]) -> tuple[Vertex, ...]:
    """The corners among the candidates, sorted by increasing delay.

    The candidates are sorted by (D, P, lam), a total order since the
    search solves each weight once, so the corners do not depend on
    the order in which they were found.  Weights that tie two bases
    within solver tolerance return a small cloud of near-identical
    points around one true corner, closer than CLUSTER_TOL in both
    coordinates, far less than any genuine facet: each cloud gives one
    corner, and points on their neighbors' chord go.
    """
    clusters: list[list[Vertex]] = []
    for v in sorted(cand, key=lambda v: (v.D, v.P, v.lam)):
        if clusters:
            last = clusters[-1][-1]
            if (abs(v.D - last.D) <= CLUSTER_TOL * (1.0 + abs(v.D))
                    and abs(v.P - last.P) <= CLUSTER_TOL * (1.0 + abs(v.P))):
                clusters[-1].append(v)
                continue
        clusters.append([v])
    return tuple(_prune_collinear([_cluster_representative(c)
                                   for c in clusters]))


def _cluster_representative(cluster: list[Vertex]) -> Vertex:
    """One corner per cloud, always with a deterministic policy.

    Prefers a member the solver already returned one-hot; an all-mixed
    cloud is repaired by rounding the mixing to its argmax and checking
    that the exact stationary evaluation of the rounded policy lands on
    the corner.  Failure to land there is a genuine anomaly.
    """
    det = [v for v in cluster if v.policy.kind == "deterministic"]
    if det:
        return min(det, key=lambda v: v.P)
    v = min(cluster, key=lambda v: v.P)
    pol = v.policy
    rounded = Policy(pol.cfg, pol.disc, np.eye(pol.cfg.S_max + 1)[pol.sigma],
                     pol.transient.copy())
    try:
        d, p = evaluate_measure(policy_to_measure(rounded))
    except Exception as exc:
        raise SweepError(
            f"corner at (D={v.D!r}, P={v.P!r}) has a randomized policy and "
            f"its rounding failed to evaluate: {exc}") from exc
    if (abs(d - v.D) > CLUSTER_TOL * (1.0 + abs(v.D))
            or abs(p - v.P) > CLUSTER_TOL * (1.0 + abs(v.P))):
        rows = np.argwhere(
            (pol.table.max(axis=2) < 1.0 - ONE_HOT_TOL) & ~pol.transient)
        q, k = (int(rows[0][0]), int(rows[0][1])) if len(rows) else (-1, -1)
        raise SweepError(
            f"corner at (D={v.D!r}, P={v.P!r}) has a randomized policy "
            f"(queue {q}, bin {k}: {pol.table[q, k]!r}) whose rounding "
            f"lands elsewhere (D={d!r}, P={p!r}); corners must be "
            "deterministic")
    return Vertex(d, p, v.lam, rounded)


def _prune_collinear(cand: list[Vertex]) -> list[Vertex]:
    """Drop points lying on the segment of their neighbors.

    A weight equal to a facet slope can expose any basic point of the
    optimal edge; such points sit between true corners and would split
    one facet into collinear pieces, understating corner spacing.
    """
    out: list[Vertex] = []
    for v in cand:
        while len(out) >= 2:
            a, b = out[-2], out[-1]
            if v.D - a.D <= 0.0:
                break
            t = (b.D - a.D) / (v.D - a.D)
            chord_p = a.P + t * (v.P - a.P)
            if abs(b.P - chord_p) <= COLLINEAR_TOL * (1.0 + abs(b.P)):
                out.pop()
            else:
                break
        out.append(v)
    return out


def sweep_curve(
    cfg: SystemConfig,
    disc: ChannelDiscretization,
    budgets,
) -> TradeoffCurve:
    """One constrained solve per budget.

    The solves share one LP, and one walk solves the budgets first
    (occupancy_lp.presolve_budgets): the path through both phases of
    that LP at the largest budget, which each smaller budget rides
    until it leaves to finish its phase 2 on a copy of the walk's
    tableau; each result is bit for bit its own cold solve's.
    The walk's tableaus are gone when it returns, and the budgets it
    leaves out (d_min and below) and a repeated budget's second solve
    then run cold.  Infeasible budgets are dropped and listed on the
    curve; an empty grid is a ValueError and an entirely infeasible one
    an InfeasibleCurveError.  The curve is checked to be nonincreasing.
    """
    budgets = np.sort(np.asarray(budgets, dtype=float))
    if not budgets.size:
        raise ValueError("budget grid must be nonempty")
    presolve_budgets(cfg, disc, budgets)
    powers = np.empty(budgets.size)
    for i, d_th in enumerate(budgets.tolist()):  # nan if infeasible
        sol = solve_constrained(cfg, disc, d_th)
        powers[i] = sol.objective if sol.status == "optimal" else np.nan
    feasible = ~np.isnan(powers)
    kept, powers = budgets[feasible], powers[feasible]
    skipped = budgets[~feasible].tolist()
    if not kept.size:
        raise InfeasibleCurveError(
            f"empty curve: all {len(budgets)} budgets infeasible")
    if np.any(np.diff(powers) > HULL_TOL):
        raise SweepError("curve is not nonincreasing in the budget")
    return TradeoffCurve(
        M=disc.bins,
        budgets=kept,
        powers=powers,
        infeasible=tuple(skipped),
    )


def corners_in_span(
    cfg: SystemConfig,
    disc: ChannelDiscretization,
    curve: TradeoffCurve,
) -> tuple[Vertex, ...]:
    """The corners whose delay lies within the curve's budget span.

    The curve must stay on or above their hull: a dip below it means
    the budget sweep and the corner search disagree.
    """
    lo, hi = curve.budgets[0] - 1e-9, curve.budgets[-1] + 1e-9
    verts = tuple(v for v in enumerate_vertices(cfg, disc) if lo <= v.D <= hi)
    if len(verts) >= 2:
        gap = hull_gap(curve.budgets, curve.powers, verts)
        if gap.size and gap.max() > HULL_TOL:
            raise SweepError(
                f"curve dips {gap.max()!r} below its corner hull")
    return verts


def hull_gap(budgets: np.ndarray, powers: np.ndarray, verts) -> np.ndarray:
    """Signed gap (corner hull - curve power) at each budget inside the
    corners' delay span; positive where the curve dips below the hull."""
    vd = np.array([v.D for v in verts])
    vp = np.array([v.P for v in verts])
    inside = (budgets >= vd[0]) & (budgets <= vd[-1])
    return np.interp(budgets[inside], vd, vp) - powers[inside]


@dataclass(frozen=True)
class ConvergenceStudy:
    curves: tuple[TradeoffCurve, ...]
    sup_gaps: tuple[float, ...]  # between successive curves, common grid


def convergence_study(
    cfg: SystemConfig,
    m_list,
    budgets=None,
) -> ConvergenceStudy:
    """Curves for each bin count on one shared grid, finest last.

    Whenever one bin count divides another, the finer curve must
    dominate (lower power everywhere, up to 1e-8); the sup-gap between
    successive curves measures how fast refinement stops paying.
    """
    m_list = list(m_list)
    if not m_list:
        raise ValueError("bin counts must be nonempty")
    if any(b >= a for a, b in zip(m_list[1:], m_list[:-1])):
        raise ValueError("bin counts must be increasing")
    discs = [discretize_channel(cfg.channel, m) for m in m_list]
    if budgets is None:
        budgets = default_budget_grid(cfg, discs[0])
    curves = [sweep_curve(cfg, disc, budgets) for disc in discs]
    for i, coarse in enumerate(curves):
        for fine in curves[i + 1:]:
            if fine.M % coarse.M != 0:
                continue
            worst = float(_power_change(coarse, fine).max(initial=0.0))
            if worst > HULL_TOL:
                raise SweepError(
                    f"refinement M={coarse.M} -> M={fine.M} raised power "
                    f"by {worst!r}")
    gaps = tuple(float(np.abs(_power_change(a, b)).max(initial=0.0))
                 for a, b in zip(curves[:-1], curves[1:]))
    return ConvergenceStudy(tuple(curves), gaps)


def _power_change(a: TradeoffCurve, b: TradeoffCurve) -> np.ndarray:
    """b's power minus a's, both interpolated on the budgets they share."""
    common = sorted_unique(a.budgets)
    at = np.searchsorted(b.budgets, common).clip(max=b.budgets.size - 1)
    common = common[b.budgets[at] == common]
    return (np.interp(common, b.budgets, b.powers)
            - np.interp(common, a.budgets, a.powers))


# --- CSV renderings --------------------------------------------------------

def curve_to_csv(curve: TradeoffCurve) -> str:
    return csv_text("M,D_th,P", ((curve.M, d, p) for d, p in
                                 zip(curve.budgets, curve.powers)))


def vertices_to_csv(m: int, verts) -> str:
    return csv_text("M,D,P,policy_id", (
        (m, v.D, v.P, policy_id(m, i)) for i, v in enumerate(verts)))


def distances_to_csv(m: int, verts) -> str:
    eu, dd = vertex_distances(verts)
    return csv_text("M,pair_index,euclidean,delay_axis", (
        (m, i, e, d) for i, (e, d) in enumerate(zip(eu, dd))))


def policy_id(m: int, index: int) -> str:
    return f"m{m}_vertex{index:03d}"
