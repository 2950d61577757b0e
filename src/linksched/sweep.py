"""Delay-power tradeoff curves and their vertex structure.

The minimal average power as a function of the delay budget is convex
and piecewise linear once the channel is binned, so it is fully
described by its corner points.  Corners are found without any grid:
scalarizing with a weight lam >= 0 on delay turns every LP solve into
a supporting line of the curve, and recursively splitting a weight
interval at the crossing of its endpoint lines either certifies the
segment (no deeper support exists) or discovers a new corner.  Each
corner's optimal policy is deterministic; the enumeration rejects
anything else as a solver fault.

A TradeoffCurve bundles one discretization's grid sweep with the
corners falling inside the swept delay span and their adjacent-pair
spacings, in both the (delay, power) plane and along the delay axis.
Spacing shrinks as bins are added; the convergence study quantifies
that by the sup-gap between successive curves on a common grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import ChannelDiscretization, SystemConfig, discretize_channel
from .occupancy_lp import (
    Policy,
    evaluate_measure,
    extract_policy,
    min_delay,
    policy_to_measure,
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
    vertices: tuple[Vertex, ...]  # corners within the swept span

    def __post_init__(self):
        self.budgets.setflags(write=False)
        self.powers.setflags(write=False)

    @cached_property
    def dist_euclid(self) -> np.ndarray:
        """Adjacent-corner spacing in the (D, P) plane."""
        return vertex_distances(self.vertices)[0]

    @cached_property
    def dist_delay(self) -> np.ndarray:
        """Adjacent-corner spacing along the delay axis."""
        return vertex_distances(self.vertices)[1]

    @property
    def max_distance(self) -> tuple[float, float]:
        """(Euclidean, delay-axis) maxima over adjacent corner pairs."""
        return (float(self.dist_euclid.max(initial=0.0)),
                float(self.dist_delay.max(initial=0.0)))


def default_budget_grid(cfg: SystemConfig, disc: ChannelDiscretization,
                        points: int = 60) -> np.ndarray:
    """Uniform budgets from the minimum achievable delay to 3x that."""
    d_min, _ = min_delay(cfg, disc)
    return np.linspace(d_min, 3.0 * d_min, points)


def vertex_distances(vertices) -> tuple[np.ndarray, np.ndarray]:
    """Adjacent-pair spacings of a D-sorted vertex list, both metrics.

    Accepts Vertex objects or bare (D, P) pairs; returns (euclidean,
    delay-axis) arrays, empty for fewer than two vertices.
    """
    pts = np.array([(v.D, v.P) if isinstance(v, Vertex) else tuple(v)
                    for v in vertices], dtype=float).reshape(-1, 2)
    diff = np.diff(pts, axis=0)
    return np.hypot(diff[:, 0], diff[:, 1]), np.abs(diff[:, 0])


def default_lambda_max(cfg: SystemConfig) -> float:
    return 1e4 * cfg.xi(cfg.S_max) / cfg.channel.h_min


def enumerate_vertices(
    cfg: SystemConfig,
    disc: ChannelDiscretization,
    lambda_max: float | None = None,
) -> tuple[Vertex, ...]:
    """All corners of the tradeoff curve, sorted by increasing delay.

    lambda_max must push the weighted solve all the way to the minimum
    delay, otherwise the left end of the curve is unreachable and the
    call fails with advice to raise it.
    """
    if lambda_max is None:
        lambda_max = default_lambda_max(cfg)
    cache: dict[float, tuple[float, float, Policy]] = {}
    solves = 0

    def solve(lam: float) -> tuple[float, float, Policy]:
        nonlocal solves
        if lam not in cache:
            if solves >= MAX_VERTEX_SOLVES:
                raise SweepError("vertex enumeration did not converge")
            solves += 1
            measure, delay, power = solve_lagrangian(cfg, disc, lam)
            cache[lam] = (delay, power, extract_policy(measure))
        return cache[lam]

    d_min, _ = min_delay(cfg, disc)
    d_at_max, _, _ = solve(lambda_max)
    if d_at_max > d_min + 1e-6 * (1.0 + d_min):
        raise SweepError(
            f"lambda_max={lambda_max!r} only reaches delay {d_at_max!r} "
            f"but the minimum is {d_min!r}; raise lambda_max")

    found: dict[tuple[float, float], Vertex] = {}

    def record(lam: float, d: float, p: float, pol: Policy) -> None:
        key = (round(d, 9), round(p, 9))
        if key not in found:
            found[key] = Vertex(d, p, lam, pol)

    def split(lam_lo: float, lam_hi: float, depth: int) -> None:
        d0, p0, pol0 = solve(lam_lo)
        d1, p1, pol1 = solve(lam_hi)
        record(lam_lo, d0, p0, pol0)
        record(lam_hi, d1, p1, pol1)
        if abs(d0 - d1) <= VERTEX_TOL and abs(p0 - p1) <= VERTEX_TOL:
            return
        if depth > 80:
            raise SweepError("vertex enumeration did not converge")
        # endpoint supporting lines P + lam*D cross at the only weight
        # that could expose a corner hiding between these two
        if d0 > d1:
            lam_star = (p1 - p0) / (d0 - d1)
        else:
            lam_star = 0.5 * (lam_lo + lam_hi)
        if not (lam_lo < lam_star < lam_hi):
            lam_star = 0.5 * (lam_lo + lam_hi)
        dm, pm, polm = solve(lam_star)
        chord = p0 + lam_star * d0
        value = pm + lam_star * dm
        if value >= chord - VERTEX_TOL * (1.0 + abs(chord)):
            return  # segment certified, endpoints are adjacent corners
        record(lam_star, dm, pm, polm)
        split(lam_lo, lam_star, depth + 1)
        split(lam_star, lam_hi, depth + 1)

    split(0.0, lambda_max, 0)
    cand = sorted(found.values(), key=lambda v: v.D)
    clusters = _cluster_corners(cand)
    vertices = [_cluster_representative(v) for v in clusters]
    return tuple(_prune_collinear(vertices))


def _cluster_corners(cand: list[Vertex]) -> list[list[Vertex]]:
    """Group candidates closer than CLUSTER_TOL in both coordinates.

    Weights that tie two bases within solver tolerance return a small
    cloud of near-identical points around one true corner; members of a
    cloud differ by far less than any genuine facet.
    """
    clusters: list[list[Vertex]] = []
    for v in cand:
        if clusters:
            last = clusters[-1][-1]
            if (abs(v.D - last.D) <= CLUSTER_TOL * (1.0 + abs(v.D))
                    and abs(v.P - last.P) <= CLUSTER_TOL * (1.0 + abs(v.P))):
                clusters[-1].append(v)
                continue
        clusters.append([v])
    return clusters


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
        d, p = evaluate_measure(
            policy_to_measure(pol.cfg, pol.disc, rounded))
    except Exception as exc:
        raise SweepError(
            f"corner at (D={v.D!r}, P={v.P!r}) has a randomized policy and "
            f"its rounding failed to evaluate: {exc}") from exc
    if (abs(d - v.D) > 1e-7 * (1.0 + abs(v.D))
            or abs(p - v.P) > 1e-7 * (1.0 + abs(v.P))):
        rows = np.argwhere(
            (pol.table.max(axis=2) < 1.0 - 1e-9) & ~pol.transient)
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
    with_vertices: bool = False,
    lambda_max: float | None = None,
) -> TradeoffCurve:
    """One constrained solve per budget; corners attached on request.

    Infeasible budgets are dropped and listed on the curve; an entirely
    infeasible grid is an error.  The curve is checked to be
    nonincreasing and, when corners are present, to stay on or above
    their hull.
    """
    budgets = np.sort(np.asarray(budgets, dtype=float))
    kept, powers, skipped = [], [], []
    for d_th in budgets:
        sol = solve_constrained(cfg, disc, float(d_th))
        if sol.status != "optimal":
            skipped.append(float(d_th))
            continue
        kept.append(float(d_th))
        powers.append(sol.objective)
    if not kept:
        raise InfeasibleCurveError(
            f"empty curve: all {len(budgets)} budgets infeasible")
    powers_arr = np.asarray(powers)
    if np.any(np.diff(powers_arr) > HULL_TOL):
        raise SweepError("curve is not nonincreasing in the budget")

    verts: tuple[Vertex, ...] = ()
    if with_vertices:
        lo, hi = kept[0] - 1e-9, kept[-1] + 1e-9
        verts = tuple(v for v in enumerate_vertices(cfg, disc, lambda_max)
                      if lo <= v.D <= hi)
        _check_above_hull(np.asarray(kept), powers_arr, verts)
    return TradeoffCurve(
        M=disc.bins,
        budgets=np.asarray(kept),
        powers=powers_arr,
        infeasible=tuple(skipped),
        vertices=verts,
    )


def _check_above_hull(budgets: np.ndarray, powers: np.ndarray,
                      verts: tuple[Vertex, ...]) -> None:
    if len(verts) < 2:
        return
    vd = np.array([v.D for v in verts])
    vp = np.array([v.P for v in verts])
    inside = (budgets >= vd[0]) & (budgets <= vd[-1])
    hull = np.interp(budgets[inside], vd, vp)
    gap = hull - powers[inside]
    if gap.size and gap.max() > HULL_TOL:
        raise SweepError(
            f"curve dips {gap.max()!r} below its corner hull")


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
    if any(b > a for a, b in zip(m_list[1:], m_list[:-1])):
        raise ValueError("bin counts must be nondecreasing")
    discs = {m: discretize_channel(cfg.channel, m) for m in set(m_list)}
    if budgets is None:
        budgets = default_budget_grid(cfg, discs[m_list[0]])
    curves = [sweep_curve(cfg, discs[m], budgets) for m in m_list]
    for i, coarse in enumerate(curves):
        for fine in curves[i + 1:]:
            if fine.M % coarse.M != 0:
                continue
            common = np.intersect1d(coarse.budgets, fine.budgets)
            pc = np.interp(common, coarse.budgets, coarse.powers)
            pf = np.interp(common, fine.budgets, fine.powers)
            worst = float((pf - pc).max()) if common.size else 0.0
            if worst > HULL_TOL:
                raise SweepError(
                    f"refinement M={coarse.M} -> M={fine.M} raised power "
                    f"by {worst!r}")
    gaps = []
    for a, b in zip(curves[:-1], curves[1:]):
        common = np.intersect1d(a.budgets, b.budgets)
        pa = np.interp(common, a.budgets, a.powers)
        pb = np.interp(common, b.budgets, b.powers)
        gaps.append(float(np.abs(pa - pb).max()) if common.size else 0.0)
    return ConvergenceStudy(tuple(curves), tuple(gaps))


# --- CSV renderings --------------------------------------------------------

def curve_to_csv(curve: TradeoffCurve) -> str:
    return csv_text("M,D_th,P", ((curve.M, d, p) for d, p in
                                 zip(curve.budgets, curve.powers)))


def vertices_to_csv(curve: TradeoffCurve) -> str:
    return csv_text("M,D,P,policy_id", (
        (curve.M, v.D, v.P, policy_id(curve.M, i))
        for i, v in enumerate(curve.vertices)))


def distances_to_csv(curve: TradeoffCurve) -> str:
    return csv_text("M,pair_index,euclidean,delay_axis", (
        (curve.M, i, e, d)
        for i, (e, d) in enumerate(zip(curve.dist_euclid, curve.dist_delay))))


def policy_id(m: int, index: int) -> str:
    return f"m{m}_vertex{index:03d}"
