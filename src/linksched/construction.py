"""Deterministic threshold schedules built from an LP occupancy measure.

The LP returns a measure on (queue, rate, bin) triples; conditioning on
(q, bin) it may randomize between rates.  This module trades that
randomization away: the channel range is cut into K equal cells, and
inside every cell the rates a queue state uses are stacked into
adjacent half-open gain intervals whose lengths are chosen so each rate
keeps exactly the probability mass the measure gave it.  The result is
a pure threshold rule ("at queue q, transmit s whenever the gain lands
in (lo, hi]") that preserves the channel marginal, the queue balance,
and the average delay of its source, while its average power stays
within a factor 1 + (h_max - h_min) / (K * h_min) of the source power.

Within a cell the rates are stacked from the highest down, so the
highest rate takes the low-gain end of the cell.  This is the
conservative layout: it can only cost more than the source
arrangement, so the power ratio reported by power_ratio is a true
upper bound, >= 1 for any source.  (Stacked the other way, from the
lowest rate, the layout can undercut a source that randomizes inside
a cell, and power_ratio rejects it; tests/test_construction.py keeps
that layout as a negative control.)

All interval bookkeeping is exact, the certificates included: they
evaluate the construction once per piece on which it is constant, and
sample no gains.  They run one queue state at a time, so their
temporaries are one state's, (Q+1) times smaller than all states' at
once; each sum over states is a running one that keeps the
left-to-right order of chain.ordered_sum, so the bits are those of one
sum over all.  A density keeps two tables, each evaluated once: every
queue state's density summed over the rates (totals) and its
cumulative mass at every grid point (cum_mass).  A construction's and
a density's rate integrals and (delay, power) are evaluated once and
kept too, so the construction, the feasibility report, the power ratio
and the threshold policy share them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from .chain import ordered_sum, queue_residuals
from .model import (CellIndex, SystemConfig, cell_of, drain_rate,
                    mean_delay, path_dtype, sorted_unique)
from .occupancy_lp import TRANSIENT_TOL, OccupancyMeasure
from .textio import line_format, read_columns

PARTITION_TOL = 1e-12
RATIO_TOL = 1e-10


class MassRangeError(ValueError):
    """Envelope inversion asked for mass out of range."""


class ConstructionError(RuntimeError):
    """A construction-level guarantee failed (e.g. power ratio bound)."""


@dataclass(frozen=True)
class PiecewiseDensity:
    """Per-(q, s) step densities on a shared breakpoint grid.

    values[q, s, i] is the density on (grid[i], grid[i+1]].  The grid
    strictly increases: every grid the package builds comes from
    model.sorted_unique, so no piece has zero width.
    """

    cfg: SystemConfig
    grid: np.ndarray  # (n+1,)
    values: np.ndarray  # (Q+1, S_max+1, n)

    def __post_init__(self):
        self.grid.setflags(write=False)
        self.values.setflags(write=False)

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.grid)

    @cached_property
    def totals(self) -> np.ndarray:
        """(Q+1, n): each queue state's density summed over the rates."""
        totals = self.values.sum(axis=1)
        totals.setflags(write=False)
        return totals

    @cached_property
    def cum_mass(self) -> np.ndarray:
        """(Q+1, n+1): each queue state's mass below each grid point, its
        envelope; cum_mass[:, 0] = 0."""
        us = np.zeros((self.cfg.Q + 1, self.grid.size))
        np.cumsum(self.totals * self.widths, axis=1, out=us[:, 1:])
        us.setflags(write=False)
        return us

    @cached_property
    def rate_integrals(self) -> np.ndarray:
        """Mass per (q, s)."""
        masses = self.values @ self.widths
        masses.setflags(write=False)
        return masses

    def refine(self, edges) -> "PiecewiseDensity":
        merged = sorted_unique(np.concatenate([self.grid,
                                               np.asarray(edges, float)]))
        merged = merged[(merged >= self.grid[0]) & (merged <= self.grid[-1])]
        mids = 0.5 * (merged[:-1] + merged[1:])
        src = np.clip(np.searchsorted(self.grid, mids, side="right") - 1, 0,
                      len(self.grid) - 2)
        return PiecewiseDensity(self.cfg, merged, self.values[:, :, src].copy())

    @cached_property
    def delay_power(self) -> tuple[float, float]:
        """Exact (average delay, average power) of the density."""
        masses = self.rate_integrals
        qs = np.arange(self.cfg.Q + 1, dtype=float)
        delay = mean_delay(self.cfg, float(qs @ masses.sum(axis=1)))
        inv_int = np.log(self.grid[1:] / self.grid[:-1])
        xi = np.asarray(self.cfg.xi_table)
        power = float(np.einsum("qsi,s,i->", self.values, xi, inv_int))
        return delay, power


def density_from_measure(m: OccupancyMeasure) -> PiecewiseDensity:
    """Spread each bin's mass over the bin, proportional to the channel
    density (uniform spreading when the channel is uniform)."""
    cfg, disc = m.cfg, m.disc
    grid = sorted_unique(np.concatenate([disc.edges, cfg.channel.breaks]))
    mids = 0.5 * (grid[:-1] + grid[1:])
    bin_of = cell_of(disc.edges, mids)
    # density per unit of bin mass
    scale = cfg.channel.density(mids) / np.asarray(disc.masses)[bin_of]
    values = m.values[:, :, bin_of] * scale[None, None, :]
    return PiecewiseDensity(cfg, grid, values)


def envelope_value(grid, us, x):
    """A state's cumulative mass at the gains x, elementwise: linear on
    each piece of grid between its values us at the grid points."""
    i = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, grid.size - 2)
    t = (x - grid[i]) / (grid[i + 1] - grid[i])
    return us[i] + t * (us[i + 1] - us[i])


def invert_envelope(grid, us, v):
    """Leftmost x with envelope_value(grid, us, x) >= v - PARTITION_TOL,
    elementwise in v.

    Flat stretches resolve to their left endpoint.  Raises
    MassRangeError if any v lies outside [0, total mass] beyond
    tolerance.
    """
    v = np.asarray(v, dtype=float)
    total = float(us[-1])
    bad = (v < -PARTITION_TOL) | (v > total + PARTITION_TOL)
    if bad.any():
        raise MassRangeError(
            f"mass out of range: {float(v[bad][0])!r} not in [0, {total!r}]")
    vv = np.clip(v, 0.0, total)
    # for vv > 0 = us[0] this is the i with us[i-1] < vv <= us[i]
    i = np.maximum(np.searchsorted(us, vv, side="left"), 1)
    rise = us[i] - us[i - 1]
    t = (vv - us[i - 1]) / np.where(rise > 0.0, rise, 1.0)
    return np.where(vv > 0.0, grid[i - 1] + t * (grid[i] - grid[i - 1]),
                    grid[0])


@dataclass(frozen=True)
class ConstructedSolution:
    """Threshold form of a density: per (q, cell, s) a gain interval.

    For fixed q the nonempty intervals partition (h_min, h_max]; on the
    interval of rate s the solution carries the state's total density,
    so conditioning on (q, h) leaves a single admissible rate.
    """

    source: PiecewiseDensity  # refined so cell edges are grid points
    cells: np.ndarray  # (K+1,) cell edges
    lo: np.ndarray  # (Q+1, K, S_max+1)
    hi: np.ndarray  # (Q+1, K, S_max+1)

    def __post_init__(self):
        for a in (self.cells, self.lo, self.hi):
            a.setflags(write=False)

    @property
    def cfg(self) -> SystemConfig:
        return self.source.cfg

    @cached_property
    def intervals(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Per queue state, its nonempty intervals as arrays (lo, hi, s),
        sorted by (lo, hi, s)."""
        q, k, s = np.nonzero(self.hi > self.lo)
        lo, hi = self.lo[q, k, s], self.hi[q, k, s]
        order = np.lexsort((s, hi, lo, q))
        cut = np.searchsorted(q[order], np.arange(1, self.cfg.Q + 1))
        return tuple(zip(*(np.split(a[order], cut) for a in (lo, hi, s))))

    @cached_property
    def rate_integrals(self) -> np.ndarray:
        """Realized mass per (q, s), from interval endpoints."""
        live = self.hi > self.lo
        grid, us = self.source.grid, self.source.cum_mass
        out = []
        for q in range(self.cfg.Q + 1):
            mass = (envelope_value(grid, us[q], self.hi[q])
                    - envelope_value(grid, us[q], self.lo[q]))
            out.append(ordered_sum(np.where(live[q], mass, 0.0)))
        masses = np.array(out)
        masses.setflags(write=False)
        return masses

    @cached_property
    def delay_power(self) -> tuple[float, float]:
        """Exact (average delay, average power) of the threshold rule.

        Power integrates xi(s) * (total density) / h over every interval,
        grid piece by grid piece from the piece holding lo, one queue
        state at a time.  Its terms are summed left to right in (q, cell,
        s) order, each state's continuing the running sum.
        """
        masses = self.rate_integrals
        qs = np.arange(self.cfg.Q + 1, dtype=float)
        delay = mean_delay(self.cfg, float(qs @ masses.sum(axis=1)))
        grid, total = self.source.grid, self.source.totals
        xi, n = np.asarray(self.cfg.xi_table), grid.size - 2
        power = None
        for q in range(self.cfg.Q + 1):
            a, b = self.lo[q], self.hi[q]
            first = np.clip(np.searchsorted(grid, a, side="right") - 1, 0, n)
            last = cell_of(grid, b)
            inv_int = np.zeros(a.shape)
            for j in range(int((last - first).max()) + 1):
                i = np.minimum(first + j, last)
                left = np.maximum(grid[i], a)
                right = np.minimum(grid[i + 1], b)
                use = (first + j <= last) & (right > left)
                inv_int += np.where(use, total[q, i] * np.log(right / left),
                                    0.0)
            terms = np.where(b > a, xi * inv_int, 0.0).ravel()
            if power is not None:
                terms = np.concatenate([[power], terms])
            power = ordered_sum(terms)
        return delay, float(power)


def compute_thresholds(d: PiecewiseDensity, cells: int) -> ConstructedSolution:
    """Cut (h_min, h_max] into equal cells and stack each cell's rate
    masses, highest rate first, into adjacent intervals via the
    envelope pseudo-inverse.

    Interior thresholds are clamped into their cell and the last
    interval is anchored at the cell's right edge, so for every q the
    intervals tile (h_min, h_max] exactly even where the density
    vanishes (any choice there is measure-irrelevant).
    """
    if cells < 1:
        raise ValueError(f"cell count must be >= 1, got {cells!r}")
    cfg = d.cfg
    edges = cfg.channel.edges(cells)
    dr = d.refine(edges)
    Q, S, K = cfg.Q, cfg.S_max, cells
    lo = np.zeros((Q + 1, K, S + 1))
    hi = np.zeros((Q + 1, K, S + 1))
    cum = np.concatenate(
        [np.zeros((Q + 1, S + 1, 1)),
         np.cumsum(dr.values * dr.widths[None, None, :], axis=2)], axis=2)
    edge_idx = np.searchsorted(dr.grid, edges)
    i0, i1 = edge_idx[:-1], edge_idx[1:]
    cell_lo, cell_hi = edges[:-1], edges[1:]
    us = dr.cum_mass
    for q in range(Q + 1):
        acc = us[q, i0]
        bound = cell_lo
        for s in range(S, -1, -1):  # the last, rate 0, ends at the cell edge
            lo[q, :, s] = bound
            acc = acc + (cum[q, s, i1] - cum[q, s, i0])
            if s == 0:
                bound = cell_hi
            else:
                t = invert_envelope(dr.grid, us[q], acc)
                bound = np.clip(t, cell_lo, cell_hi)
            hi[q, :, s] = bound
    return ConstructedSolution(dr, edges, lo, hi)


# --- certification --------------------------------------------------------

@dataclass(frozen=True)
class FeasibilityReport:
    """Residuals of the constructed solution, all in absolute terms.

    channel_residual     largest gap between the summed state densities
                         and the channel law, over every gain
    balance_residual     queue balance violation (aggregated over gain)
    nonneg_residual      most negative density value, as a positive gap
    structural_residual  mass sitting on inadmissible (q, s) pairs
    rate_residual        worst per-(q, s) mass change vs the source
    delay_residual       |delay of construction - delay of source|
    delay                delay of the construction
    power                power of the construction
    """

    channel_residual: float
    balance_residual: float
    nonneg_residual: float
    structural_residual: float
    rate_residual: float
    delay_residual: float
    delay: float
    power: float

    @property
    def max_residual(self) -> float:
        return max(self.channel_residual, self.balance_residual,
                   self.nonneg_residual, self.structural_residual,
                   self.rate_residual, self.delay_residual)


def verify_feasibility(y: ConstructedSolution) -> FeasibilityReport:
    """Report-only residual battery; never raises on a violation.

    The channel residual is exact: the source grid, the channel's breaks
    and the interval ends cut the gain range into pieces on which every
    covered set and density is constant, and each piece is evaluated at
    its right end, which every (lo, hi] lookup places in that piece.
    """
    cfg = y.cfg
    d = y.source
    live = y.hi > y.lo
    cuts = [d.grid, cfg.channel.breaks, y.lo[live], y.hi[live]]
    hs = sorted_unique(np.concatenate(cuts))[1:]  # right ends of the pieces
    piece = cell_of(d.grid, hs)
    dens = d.totals
    total = None
    for q, (los, his, _) in enumerate(y.intervals):
        covered = np.zeros(hs.size, dtype=bool)
        if los.size:
            # cells of the lower ends, the last closed by its upper end:
            # a gain on a boundary counts for the interval it closes
            pos = cell_of(np.append(los, his[-1]), hs)
            covered = (hs > los[pos]) & (hs <= his[pos])
        term = np.where(covered, dens[q, piece], 0.0)
        total = term if total is None else total + term
    channel_residual = float(np.abs(total - cfg.channel.density(hs)).max())

    I = y.rate_integrals
    balance, structural = queue_residuals(cfg, I)
    nonneg = max(0.0, -float(d.values.min()))
    rate = float(np.abs(I - d.rate_integrals).max())
    delay_d, _ = d.delay_power
    delay_y, power_y = y.delay_power
    return FeasibilityReport(
        channel_residual=channel_residual,
        balance_residual=balance,
        nonneg_residual=nonneg,
        structural_residual=structural,
        rate_residual=rate,
        delay_residual=abs(delay_y - delay_d),
        delay=delay_y,
        power=power_y,
    )


@dataclass(frozen=True)
class DeterminismReport:
    ok: bool
    witness: tuple | None  # (q, h, s_a, s_b) on overlap


def verify_deterministic(y: ConstructedSolution) -> DeterminismReport:
    """Exact pairwise interval arithmetic: no gain may see two positive
    rates for the same queue state.

    Each state's intervals are sorted by their lower ends, so an
    interval that overlaps any later one overlaps its next neighbour,
    and comparing neighbours finds every overlap.  The first one found
    is returned as a witness.
    """
    for q, (lo, hi, s) in enumerate(y.intervals):
        bad = np.flatnonzero(lo[1:] < hi[:-1] - PARTITION_TOL)
        if bad.size:
            i = bad[0]
            h = 0.5 * (lo[i + 1] + min(hi[i], hi[i + 1]))
            return DeterminismReport(
                False, (q, float(h), int(s[i]), int(s[i + 1])))
    return DeterminismReport(True, None)


@dataclass(frozen=True)
class PowerRatio:
    source_power: float  # the construction's is FeasibilityReport.power
    ratio: float
    bound: float  # 1 + (h_max - h_min) / (cells * h_min)


def power_ratio(y: ConstructedSolution, d: PiecewiseDensity) -> PowerRatio:
    """Construction power over source power, with its a-priori bound.

    Raises ConstructionError when the ratio leaves
    [1 - 1e-10, bound + 1e-10]; a zero source power reports ratio 1.
    """
    cells = y.cells.size - 1
    ch = y.cfg.channel
    bound = 1.0 + (ch.h_max - ch.h_min) / (cells * ch.h_min)
    _, p_src = d.delay_power
    _, p_y = y.delay_power
    ratio = 1.0 if p_src == 0.0 else p_y / p_src
    if not (1.0 - RATIO_TOL <= ratio <= bound + RATIO_TOL):
        raise ConstructionError(
            f"power ratio {ratio!r} outside [1, {bound!r}] "
            f"(construction {p_y!r}, source {p_src!r})")
    return PowerRatio(p_src, ratio, bound)


# --- threshold policies ----------------------------------------------------

@dataclass(frozen=True)
class ThresholdPolicy:
    """Per queue state, ordered gain intervals mapping to rates.

    bounds[q] has one more entry than rates[q]; rule i sends rates[q][i]
    on (bounds[q][i], bounds[q][i+1]].  Queue states the source measure
    never visits are flagged transient and send model.drain_rate on
    every gain.
    """

    cfg: SystemConfig
    bounds: tuple[np.ndarray, ...]
    rates: tuple[np.ndarray, ...]
    transient: np.ndarray  # (Q+1,) bool

    def __post_init__(self):
        self.transient.setflags(write=False)
        for b, r in zip(self.bounds, self.rates):
            b.setflags(write=False)
            r.setflags(write=False)

    def decisions(self, gains: np.ndarray, u: np.ndarray) -> np.ndarray:
        """(n, Q+1) rates: entry [t, q] is the rule of state q at gain
        gains[t].  Threshold rules never randomize; u is ignored."""
        cells, rates = self._merged
        return rates.take(cells.of(gains), axis=0)

    @cached_property
    def _merged(self) -> tuple[CellIndex, np.ndarray]:
        """The index of the cells between neighbouring points of the
        union of every state's bounds, and the (cells, Q+1) rates on
        each.  Each state's bounds are among the points, so its rule is
        constant on a cell and is read at the cell's right end."""
        points = sorted_unique(np.concatenate(self.bounds))
        rates = np.stack([r[cell_of(b, points[1:])]
                          for b, r in zip(self.bounds, self.rates)], axis=1)
        rates = rates.astype(path_dtype(self.cfg))
        rates.setflags(write=False)
        return CellIndex(points), rates


def to_threshold_policy(y: ConstructedSolution) -> ThresholdPolicy:
    """Collapse a construction into lookup rules, merging neighbors that
    share a rate and dropping empty intervals."""
    cfg = y.cfg
    masses = y.rate_integrals.sum(axis=1)
    bounds_out, rates_out = [], []
    transient = np.zeros(cfg.Q + 1, dtype=bool)
    lo, hi = cfg.channel.h_min, cfg.channel.h_max
    for q in range(cfg.Q + 1):
        transient[q] = masses[q] <= TRANSIENT_TOL
        # an unvisited state gets one interval, draining on every gain
        his, s = ((np.array([hi]), np.array([drain_rate(cfg, q)]))
                  if transient[q] else y.intervals[q][1:])
        closes = np.append(s[1:] != s[:-1], True)  # last interval of a rule
        bs = np.concatenate([[lo], his[closes]])
        bs[-1] = hi
        bounds_out.append(bs)
        rates_out.append(s[closes])
    return ThresholdPolicy(cfg, tuple(bounds_out), tuple(rates_out), transient)


THRESHOLD_HEADER = "q,h_lo,h_hi,s,transient"


def threshold_policy_to_text(pol: ThresholdPolicy) -> str:
    line = line_format(int, float, float, int, int).format
    rows = []
    for q, (b, r) in enumerate(zip(pol.bounds, pol.rates)):
        b, n = b.tolist(), len(r)
        rows += map(line, repeat(q, n), b[:-1], b[1:], map(int, r.tolist()),
                    repeat(int(pol.transient[q]), n))
    return THRESHOLD_HEADER + "\n" + "".join(rows)


def threshold_policy_from_text(text: str, cfg: SystemConfig) -> ThresholdPolicy:
    """Read a threshold file; the rules of each listed queue state must
    tile (h_min, h_max] exactly, else ValueError naming the state."""
    qs, los, his, ss, flags = read_columns(
        text, THRESHOLD_HEADER, (int, float, float, int, int),
        (cfg.Q, None, None, cfg.S_max, None))
    # the rules grouped by state, each state's in (h_lo, h_hi, s) order
    order = np.lexsort((ss, his, los, qs))
    qs = np.array(qs, dtype=np.intp)[order]
    los, his = np.array(los)[order], np.array(his)[order]
    ss = np.array(ss, dtype=np.int64)[order]
    flagged = np.array(list(map(bool, flags)), dtype=bool)[order]
    # an unlisted state is transient and drains on every gain
    transient = np.ones(cfg.Q + 1, dtype=bool)
    transient[qs] = False
    transient[qs[flagged]] = True
    at = np.searchsorted(qs, np.arange(cfg.Q + 2))
    h_min, h_max = cfg.channel.h_min, cfg.channel.h_max
    bounds_out, rates_out = [], []
    for q in range(cfg.Q + 1):
        rule = slice(at[q], at[q + 1])
        if rule.start == rule.stop:
            lo, hi, rates = (np.array([v]) for v in
                             (h_min, h_max, drain_rate(cfg, q)))
        else:
            lo, hi, rates = los[rule], his[rule], ss[rule]
        bounds = np.append(h_min, hi)
        if not (np.array_equal(lo, bounds[:-1]) and hi[-1] == h_max
                and (hi > lo).all()):
            raise ValueError(f"threshold rules for q={q} do not tile "
                             f"({h_min!r}, {h_max!r}] with nonempty intervals")
        rates_out.append(rates)
        bounds_out.append(bounds)
    return ThresholdPolicy(cfg, tuple(bounds_out), tuple(rates_out), transient)
