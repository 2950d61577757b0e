"""Occupancy-measure LP over (queue, rate, channel-bin) triples.

The long-run behavior of any stationary schedule is captured by the
measure g[q][s][k]: the stationary probability of sitting at queue
length q, transmitting s packets, while the channel is in bin k.
Average delay and average power are linear in g, so the power-minimal
schedule under a delay cap is a linear program.

Feasible measures satisfy, besides nonnegativity and the structural
zeros (a schedule may never send more than it holds, nor leave room
for an overflow), two families of equalities:

  * bin masses: summed over (q, s), the measure reproduces the channel
    bin probabilities;
  * balance per (queue, bin) pair: the chance of landing in queue q'
    while the fresh channel draw falls in bin k' equals p_{k'} times
    the total inflow into q'.  The channel is drawn independently each
    slot, so the stationary joint law of (q, bin) is a product; writing
    balance per pair (rather than aggregated over bins) is what pins
    that product structure inside the LP.  Aggregated balance alone
    admits measures that correlate queue and channel, which no causal
    schedule can realize, and prices them too cheaply.

Every solve without a delay row (min_delay, solve_lagrangian and
solve_constrained with no budget) has the same rows for one (cfg, disc)
and differs only in its objective, so those solves share one simplex
phase 1: the last discretization's LP and its FeasibleStart stay cached,
and each solve runs phase 2 alone, with results bit for bit those of a
cold solve.  A finite budget adds a delay row whose right-hand side
steers phase 1, so constrained solves stay cold.

State spaces are 0-based: q in {0..Q}, s in {0..S_max}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .model import (ChannelDiscretization, SystemConfig, cell_of,
                    drain_rate, mean_arrival_rate, mean_delay, step)
from .simplex import (
    FEAS_TOL,
    LinearProgram,
    SimplexAnomaly,
    SimplexResult,
    feasible_start,
    solve_simplex,
)
from .textio import csv_text, read_rows

ONE_HOT_TOL = 1e-9
TRANSIENT_TOL = 1e-12  # a state with no more mass than this is never visited


class ReducibleChainError(ValueError):
    """The policy-induced queue chain has several closed classes."""


def transition_table(cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """The queue law as arrays: P[q, s, q'] and the admissible (q, s) mask.

    P[q, s, q'] is the probability that backlog q, serving s, moves to
    q' = step(q, a, s) under the arrival law.  A pair is admissible when
    neither clip of the law binds for any arrival count a = 0..A, which
    is 0 <= q - s <= Q - A.
    """
    alphas = np.asarray(cfg.arrival.alphas)
    q, s, a = np.ogrid[: cfg.Q + 1, : cfg.S_max + 1, : alphas.size]
    nxt = step(cfg, q, a, s)
    P = np.zeros((cfg.Q + 1, cfg.S_max + 1, cfg.Q + 1))
    np.add.at(P, (q, s, nxt), alphas[a])
    mask = (nxt == q - s + a).all(axis=2)
    return P, mask


def _ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the first axis strictly left to right.

    np.sum may pair terms up; a fixed order keeps residuals and kernels
    reproducible to the last bit.
    """
    return np.cumsum(terms, axis=0)[-1]


def queue_residuals(cfg: SystemConfig, G: np.ndarray) -> tuple[float, float]:
    """(balance, structural) residuals of rate masses G[q, s].

    balance is the worst gap between the inflow the admissible pairs
    push into a queue state and the mass sitting there; structural is
    the largest mass on an inadmissible pair.
    """
    P, mask = transition_table(cfg)
    inflow = _ordered_sum(G[mask][:, None] * P[mask])
    balance = float(np.abs(inflow - G.sum(axis=1)).max())
    structural = float(np.abs(G[~mask]).max(initial=0.0))
    return balance, structural


@dataclass(frozen=True)
class OccupancyMeasure:
    """Stationary measure over admissible (q, s, bin) triples."""

    cfg: SystemConfig
    disc: ChannelDiscretization
    values: np.ndarray  # shape (Q+1, S_max+1, bins); zero off-support

    def __post_init__(self):
        self.values.setflags(write=False)

    def queue_marginal(self) -> np.ndarray:
        return self.values.sum(axis=(1, 2))

    def rate_marginal(self) -> np.ndarray:
        """G(q, s): measure integrated over the channel."""
        return self.values.sum(axis=2)

    def bin_residual(self) -> float:
        sums = self.values.sum(axis=(0, 1))
        return float(np.abs(sums - np.asarray(self.disc.masses)).max())

    def balance_residual(self) -> float:
        """Worst violation of queue balance, aggregated over bins."""
        return queue_residuals(self.cfg, self.rate_marginal())[0]

    def structural_zero_mass(self) -> float:
        return queue_residuals(self.cfg, self.rate_marginal())[1]


@dataclass(frozen=True)
class Policy:
    """Per-(q, bin) rate choice, probabilistic or deterministic.

    table[q][k][s] is the probability of rate s.  Rows with no support
    in the source measure are transient: flagged, and by convention at
    model.drain_rate.
    """

    cfg: SystemConfig
    disc: ChannelDiscretization
    table: np.ndarray  # (Q+1, bins, S_max+1)
    transient: np.ndarray  # (Q+1, bins) bool

    def __post_init__(self):
        self.table.setflags(write=False)
        self.transient.setflags(write=False)

    @cached_property
    def sigma(self) -> np.ndarray:
        """(Q+1, bins) argmax rate per row."""
        sigma = self.table.argmax(axis=2)
        sigma.setflags(write=False)
        return sigma

    @cached_property
    def kind(self) -> str:
        """'deterministic' iff every row is one-hot within ONE_HOT_TOL."""
        one_hot = (self.table.max(axis=2) >= 1.0 - ONE_HOT_TOL).all()
        return "deterministic" if one_hot else "probabilistic"

    def decisions(self, gains: np.ndarray, u: np.ndarray) -> np.ndarray:
        """(n, Q+1) rates: entry [t, q] is what state q sends at gain
        gains[t] with uniform [0, 1) draw u[t].

        The first rate whose cumulative probability exceeds the draw,
        the last if rounding leaves none.  Deterministic rows ignore u,
        so the draw stream stays aligned across policies under a shared
        seed.
        """
        cum = np.cumsum(self.table, axis=2)[:, cell_of(self.disc.edges, gains)]
        return np.minimum((u[:, None] >= cum).sum(axis=2).T, self.cfg.S_max)


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: float | None
    measure: OccupancyMeasure | None
    delay_dual: float
    iterations: int


@dataclass(frozen=True)
class OccupancyLp:
    """Matrix form; columns are the admissible mask times the bins.

    Column j is bin j % bins of the (j // bins)-th admissible (q, s)
    pair of transition_table's mask (q-major, then s), so a solution
    scatters as g[mask] = x.reshape(-1, bins).  lp minimizes power;
    power and delay are the per-column costs, so a solve with another
    objective swaps lp.c and keeps the rows.
    """

    cfg: SystemConfig
    disc: ChannelDiscretization
    lp: LinearProgram
    mask: np.ndarray  # (Q+1, S_max+1) admissible (q, s) pairs
    power: np.ndarray
    delay: np.ndarray


def _has_delay_row(cfg: SystemConfig, d_th: float | None) -> bool:
    return (d_th is not None and math.isfinite(d_th)
            and mean_arrival_rate(cfg.arrival) > 0)


def build_occupancy_lp(
    cfg: SystemConfig, disc: ChannelDiscretization, d_th: float | None
) -> OccupancyLp:
    """Assemble the power-minimizing LP.

    The delay row is included only for a finite d_th with a nonzero
    arrival rate.
    """
    P, mask = transition_table(cfg)
    qs, ss = np.nonzero(mask)
    M, n_q = disc.bins, cfg.Q + 1
    nv = qs.size * M
    p = np.asarray(disc.masses)
    power_c = (np.asarray(cfg.xi_table)[ss, None]
               * np.asarray(disc.inv_means)).ravel()
    delay_c = np.repeat(mean_delay(cfg, qs.astype(float)), M)

    k = np.arange(M)
    cols = np.arange(nv).reshape(qs.size, M)
    A_eq = np.zeros((M + n_q * M, nv))
    A_eq[k, cols] = 1.0  # bin-mass rows
    # balance row (q', k): landing mass minus p_k times the inflow into q'
    inflow = np.repeat(P[mask].T, M, axis=1)
    balance = A_eq[M:].reshape(n_q, M, nv)
    np.multiply(-p[None, :, None], inflow[:, None, :], out=balance)
    balance[qs[:, None], k, cols] += 1.0
    b_eq = np.concatenate([p, np.zeros(n_q * M)])

    A_ub = b_ub = None
    if _has_delay_row(cfg, d_th):
        A_ub = delay_c.reshape(1, -1)
        b_ub = np.array([d_th])

    lp = LinearProgram.build(power_c, A_eq=A_eq, b_eq=b_eq, A_ub=A_ub, b_ub=b_ub)
    return OccupancyLp(cfg, disc, lp, mask, power_c, delay_c)


@lru_cache(maxsize=1)
def _delay_free(cfg: SystemConfig, disc: ChannelDiscretization):
    """The LP without a delay row and the start its solves share (None
    when phase 1 finds the rows infeasible: each solve then says so)."""
    olp = build_occupancy_lp(cfg, disc, None)
    start = feasible_start(olp.lp)
    return olp, (None if isinstance(start, SimplexResult) else start)


def _solve(cfg: SystemConfig, disc: ChannelDiscretization,
           d_th: float | None, objective):
    """Build, solve with lp.c = objective(olp), scatter x onto the mask.

    Without a delay row the LP and its feasible start come from the
    one-entry cache.  Returns the SimplexResult and its measure (None
    unless optimal).
    """
    if _has_delay_row(cfg, d_th):
        olp, start = build_occupancy_lp(cfg, disc, d_th), None
    else:
        olp, start = _delay_free(cfg, disc)
    res = solve_simplex(replace(olp.lp, c=objective(olp)), start)
    if res.status != "optimal":
        return res, None
    g = np.zeros((cfg.Q + 1, cfg.S_max + 1, disc.bins))
    g[olp.mask] = np.where(res.x > 0.0, res.x, 0.0).reshape(-1, disc.bins)
    return res, OccupancyMeasure(cfg, disc, g)


def solve_constrained(
    cfg: SystemConfig, disc: ChannelDiscretization, d_th: float | None
) -> LpSolution:
    """Minimum average power subject to average delay <= d_th."""
    if d_th is not None and not np.isfinite(d_th):
        raise ValueError(f"delay budget must be finite, got {d_th!r}")
    res, measure = _solve(cfg, disc, d_th, lambda olp: olp.power)
    if measure is None:
        return LpSolution(res.status, None, None, 0.0, res.iterations)
    # price of one unit of delay budget
    dual = -float(res.duals_ub[0]) if res.duals_ub.size else 0.0
    return LpSolution("optimal", res.objective, measure, dual, res.iterations)


def min_delay(
    cfg: SystemConfig, disc: ChannelDiscretization
) -> tuple[float, OccupancyMeasure]:
    """Smallest achievable average delay."""
    res, measure = _solve(cfg, disc, None, lambda olp: olp.delay)
    if measure is None:
        raise SimplexAnomaly(f"min-delay solve returned {res.status}")
    return float(res.objective), measure


def solve_lagrangian(
    cfg: SystemConfig, disc: ChannelDiscretization, lam: float
) -> tuple[OccupancyMeasure, float, float]:
    """Minimize power + lam * delay; returns (measure, delay, power)."""
    if lam < 0:
        raise ValueError("lam must be >= 0")
    res, measure = _solve(cfg, disc, None,
                          lambda olp: olp.power + lam * olp.delay)
    if measure is None:
        raise SimplexAnomaly(
            f"weighted solve at lam={lam!r} returned {res.status}")
    return (measure, *evaluate_measure(measure))


def evaluate_measure(m: OccupancyMeasure) -> tuple[float, float]:
    """(average delay, average power) of a measure.

    Delay is model.mean_delay of the mean queue length; power weights
    each cell by xi(s) * E[1/h | bin].
    """
    qs = np.arange(m.cfg.Q + 1, dtype=float)
    delay = mean_delay(m.cfg, float(qs @ m.values.sum(axis=(1, 2))))
    xi = np.asarray(m.cfg.xi_table)
    r = np.asarray(m.disc.inv_means)
    power = float(np.einsum("qsk,s,k->", m.values, xi, r))
    return delay, power


def extract_policy(m: OccupancyMeasure) -> Policy:
    """Conditional rate law f(s | q, bin) = g / sum_s g.

    Zero-mass rows are transient: flagged, with sigma at
    model.drain_rate.  Row entries whose absolute mass
    sits below the solver feasibility tolerance are dust, not evidence
    of randomization, and are dropped before normalizing.
    """
    cfg, disc = m.cfg, m.disc
    # rows contiguous, so each row sums in the order a lone row would
    rows = np.ascontiguousarray(m.values.transpose(0, 2, 1))
    cleaned = np.where(rows < FEAS_TOL, 0.0, rows)
    clean_sum = cleaned.sum(axis=2)
    use_clean = clean_sum > TRANSIENT_TOL
    rows = np.where(use_clean[..., None], cleaned, rows)
    denom = np.where(use_clean, clean_sum, rows.sum(axis=2))
    transient = denom <= TRANSIENT_TOL
    drain = np.eye(cfg.S_max + 1)[drain_rate(cfg, np.arange(cfg.Q + 1))]
    f = rows / np.where(transient, 1.0, denom)[..., None]
    table = np.where(transient[..., None], drain[:, None, :], f)
    return Policy(cfg, disc, table, transient)


def _queue_kernel(cfg: SystemConfig, disc: ChannelDiscretization, pol: Policy):
    """Transition matrix of the queue chain under the policy (clipped)."""
    P, _ = transition_table(cfg)
    n = cfg.Q + 1
    # w[k, s, q]: chance of bin k and rate s at backlog q
    w = np.asarray(disc.masses)[:, None, None] * pol.table.transpose(1, 2, 0)
    terms = w[..., None] * P.transpose(1, 0, 2)[None]
    return _ordered_sum(terms.reshape(-1, n, n))


def _closed_classes(T: np.ndarray) -> list[list[int]]:
    """Closed classes of the chain T, each once, by its smallest member."""
    reach = (T > 1e-15) | np.eye(len(T), dtype=bool)
    for _ in range(len(T).bit_length()):  # 2**k steps after k squarings
        reach = reach @ reach
    # i lies in a closed class iff every state it reaches reaches it
    # back, and that class is then reach[i]
    return [np.flatnonzero(reach[i]).tolist() for i in range(len(T))
            if (reach[i] <= reach[:, i]).all() and reach[i].argmax() == i]


def policy_to_measure(
    cfg: SystemConfig, disc: ChannelDiscretization, pol: Policy
) -> OccupancyMeasure:
    """Stationary measure of the queue chain the policy induces.

    Raises ReducibleChainError when the chain has more than one closed
    class (the stationary law is then ambiguous); the message names two
    of them.
    """
    T = _queue_kernel(cfg, disc, pol)
    closed = _closed_classes(T)
    if len(closed) > 1:
        raise ReducibleChainError(
            f"reducible chain: states {closed[0]} and states {closed[1]} "
            "are both closed"
        )
    n = cfg.Q + 1
    A = T.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    p = np.asarray(disc.masses)
    g = pi[:, None, None] * pol.table.transpose(0, 2, 1) * p[None, None, :]
    return OccupancyMeasure(cfg, disc, g)


# --- text dumps -----------------------------------------------------------

POLICY_HEADER = "q,k,s,prob,transient"


def measure_to_text(m: OccupancyMeasure) -> str:
    """Nonzero cells, q-major, then s, then k."""
    q, s, k = np.nonzero(m.values)
    return csv_text("q,s,k,g", zip(q.tolist(), s.tolist(), k.tolist(),
                                   m.values[q, s, k].tolist()))


def policy_to_text(pol: Policy) -> str:
    """Nonzero probabilities, q-major, then k, then s."""
    q, k, s = np.nonzero(pol.table)
    return csv_text(POLICY_HEADER, zip(
        q.tolist(), k.tolist(), s.tolist(), pol.table[q, k, s].tolist(),
        pol.transient[q, k].astype(int).tolist()))


def check_index(line: str, name: str, v: int, top: int) -> int:
    """Field `name` of a policy-file line if it is in 0..top, else ValueError."""
    if not 0 <= v <= top:
        raise ValueError(f"policy line {line!r}: {name}={v} outside 0..{top}")
    return v


def policy_from_text(
    text: str, cfg: SystemConfig, disc: ChannelDiscretization
) -> Policy:
    """Read a bin-policy file; every (q, k) row must be a distribution
    (no negative entry, sum 1 within ONE_HOT_TOL), else ValueError
    naming the first row that is not."""
    Q, S, M = cfg.Q, cfg.S_max, disc.bins
    table = np.zeros((Q + 1, M, S + 1))
    transient = np.zeros((Q + 1, M), dtype=bool)
    rows = read_rows(text, POLICY_HEADER, (int, int, int, float, int))
    for ln, (q, k, s, prob, flag) in rows:
        q = check_index(ln, "q", q, Q)
        k = check_index(ln, "k", k, M - 1)
        table[q, k, check_index(ln, "s", s, S)] = prob
        if flag:
            transient[q, k] = True
    sums = table.sum(axis=2)
    bad = np.argwhere(~(np.abs(sums - 1.0) <= ONE_HOT_TOL)
                      | (table < 0.0).any(axis=2))
    if bad.size:
        q, k = bad[0]
        raise ValueError(f"policy row q={q}, k={k} is not a distribution: "
                         f"{table[q, k].tolist()}")
    return Policy(cfg, disc, table, transient)
