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

One discretization has one LP: build_occupancy_lp assembles its
equality rows once, and a delay budget is one row on them
(OccupancyLp.at), an LP sharing their arrays.  A simplex solve is
phase 1 on the LP's rows, whose outcome is a FeasibleStart, then
phase 2 on that start.  Solves without a delay row (min_delay,
solve_lagrangian and solve_constrained with no budget) differ only in
their objective, so they share one start (OccupancyLp.start) and run
phase 2 alone, each on a copy, bit for bit as from their own start.
The last discretization's LP stays cached, with its start once a
delay-free solve has made it (or the "infeasible" result phase 1
proved), until clear_caches frees it, as the CLI does when a command
ends.  A budget's row can steer phase 1, so a single constrained
solve runs its own.  The budgets of one sweep are solved on one walk
along the path of the LP with the delay row's right-hand side left
open (presolve_budgets, simplex.trunk_solves); the results stay on the
cached LP (OccupancyLp.solved), where solve_constrained finds each
budget's own, bit for bit that of the cold solve, and a budget the
walk leaves out (d_min and below) runs its own phase 1.  A corner
search's weighted solves are presolved a round at a time
(presolve_lagrangians): each round is spread over helper processes
forked from the shared start (lagrangian_helpers, simplex.Helpers), one
per further CPU, and the results wait on the same dict, where
solve_lagrangian takes each weight's own; a weight whose solve failed
is left out and solved there from the shared start.

State spaces are 0-based: q in {0..Q}, s in {0..S_max}.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .model import (ChannelDiscretization, SystemConfig, cell_of,
                    drain_rate, mean_arrival_rate, mean_delay, step)
from .simplex import (
    FEAS_TOL,
    Helpers,
    LinearProgram,
    SimplexAnomaly,
    SimplexResult,
    feasible_start,
    solve_simplex,
    trunk_solves,
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
        cells = cell_of(self.disc.edges, gains)
        rates = np.zeros((len(cells), self.cfg.Q + 1), dtype=np.intp)
        for cum in self._cumulative:
            rates += u[:, None] >= cum[cells]
        return rates

    @cached_property
    def _cumulative(self) -> np.ndarray:
        """(S_max, bins, Q+1): [s, k, q] is row (q, k)'s probability of a
        rate <= s.  The total is left out: a draw past every other entry
        sends S_max either way."""
        cum = np.cumsum(self.table, axis=2)[:, :, :-1].transpose(2, 1, 0)
        cum = np.ascontiguousarray(cum)
        cum.setflags(write=False)
        return cum


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: float | None
    measure: OccupancyMeasure | None
    delay_dual: float
    iterations: int


@dataclass(frozen=True)
class OccupancyLp:
    """One discretization's LP in matrix form, and its delay row.

    Column j is bin j % bins of the (j // bins)-th admissible (q, s)
    pair of transition_table's mask (q-major, then s), so a solution
    scatters as g[mask] = x.reshape(-1, bins).  lp minimizes power
    over the equality rows alone; power and delay are the per-column
    costs, so a solve with another objective swaps lp.c and keeps the
    rows, and a delay budget adds delay as lp's one A_ub row (at).
    """

    cfg: SystemConfig
    disc: ChannelDiscretization
    lp: LinearProgram
    mask: np.ndarray  # (Q+1, S_max+1) admissible (q, s) pairs
    power: np.ndarray
    delay: np.ndarray

    def at(self, d_th: float | None) -> LinearProgram:
        """The LP under delay budget d_th: lp itself when there is no
        delay row (no budget, or no arrivals), else lp with the delay
        row, sharing lp's A_eq and b_eq."""
        if d_th is None or not mean_arrival_rate(self.cfg.arrival) > 0:
            return self.lp
        return replace(self.lp, A_ub=self.delay[None],
                       b_ub=np.array([d_th], dtype=float))

    @cached_property
    def start(self):
        """The start every solve without a delay row shares (the
        "infeasible" result when phase 1 finds the rows infeasible,
        which every such solve then returns)."""
        return feasible_start(self.lp)

    @cached_property
    def solved(self) -> dict[float | tuple[str, float], SimplexResult]:
        """The solves presolve_budgets made, by budget, and those
        presolve_lagrangians made, by ("lam", weight), until read."""
        return {}


def build_occupancy_lp(
    cfg: SystemConfig, disc: ChannelDiscretization
) -> OccupancyLp:
    """Assemble the power-minimizing LP over the equality rows."""
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

    lp = LinearProgram.build(power_c, A_eq=A_eq, b_eq=b_eq)
    return OccupancyLp(cfg, disc, lp, mask, power_c, delay_c)


@lru_cache(maxsize=1)
def _lp(cfg: SystemConfig, disc: ChannelDiscretization) -> OccupancyLp:
    """The last discretization's LP, which every solve on it shares."""
    return build_occupancy_lp(cfg, disc)


def clear_caches() -> None:
    """Free the cached LP, with its start and presolved budgets, and
    the min-delay answer, which hold the dense A_eq and a tableau."""
    _lp.cache_clear()
    min_delay.cache_clear()


def presolve_budgets(cfg: SystemConfig, disc: ChannelDiscretization,
                     budgets) -> None:
    """Solve the budgets' power LPs on one walk (simplex.trunk_solves)
    and keep the results on the cached LP, which frees them with
    itself; none when the LP has no delay row (no arrivals)."""
    olp = _lp(cfg, disc)
    lp = olp.at(0.0)
    if lp is not olp.lp:
        olp.solved.update(trunk_solves(lp, budgets))


def lagrangian_helpers(cfg: SystemConfig,
                       disc: ChannelDiscretization) -> Helpers:
    """simplex.Helpers for the weighted solves on the cached LP, forked
    from its shared start, which is made first if need be."""
    olp = _lp(cfg, disc)
    return Helpers(olp.lp, olp.start)


def presolve_lagrangians(cfg: SystemConfig, disc: ChannelDiscretization,
                         lams, helpers: Helpers) -> None:
    """Solve the weights' power + lam * delay LPs from the shared start,
    spread over helpers (lagrangian_helpers on this LP), and keep the
    results on the cached LP, by ("lam", weight), where solve_lagrangian
    finds them.  A weight whose solve raised is left out, so
    solve_lagrangian solves it itself and raises its own error."""
    olp = _lp(cfg, disc)
    if helpers.start is not olp.start:
        raise ValueError("the helpers were forked for another LP")
    lams = [float(lam) for lam in lams]
    results = helpers.solve([olp.power + lam * olp.delay for lam in lams])
    olp.solved.update((("lam", lam), res)
                      for lam, res in zip(lams, results) if res is not None)


def _solve(cfg: SystemConfig, disc: ChannelDiscretization,
           d_th: float | None, objective, key=None):
    """Solve the LP at budget d_th with lp.c = objective(olp): the
    result presolved under key if there is one, else from the shared
    start without a delay row and by its own phase 1 with one; returns
    the SimplexResult and its measure, x scattered onto the mask (None
    unless optimal).  A weight's presolved result is taken, as a corner
    search reads each weight once; a budget's stays, as a grid may hold
    it twice."""
    olp = _lp(cfg, disc)
    lp = olp.at(d_th)
    start = (olp.solved.pop(key, None) if isinstance(key, tuple)
             else olp.solved.get(key))
    if start is None and lp is olp.lp:
        start = olp.start
    res = solve_simplex(replace(lp, c=objective(olp)), start)
    if res.status != "optimal":
        return res, None
    g = np.zeros((cfg.Q + 1, cfg.S_max + 1, disc.bins))
    g[olp.mask] = np.where(res.x > 0.0, res.x, 0.0).reshape(-1, disc.bins)
    return res, OccupancyMeasure(cfg, disc, g)


def solve_constrained(
    cfg: SystemConfig, disc: ChannelDiscretization, d_th: float | None,
) -> LpSolution:
    """Minimum average power subject to average delay <= d_th.

    After presolve_budgets(cfg, disc, grid), a budget of the grid reads
    its result off the cached LP; the solution is bit for bit the one
    without it.
    """
    if d_th is not None and not np.isfinite(d_th):
        raise ValueError(f"delay budget must be finite, got {d_th!r}")
    res, measure = _solve(cfg, disc, d_th, lambda olp: olp.power, d_th)
    if measure is None:
        return LpSolution(res.status, None, None, 0.0, res.iterations)
    # price of one unit of delay budget
    dual = -float(res.duals_ub[0]) if res.duals_ub.size else 0.0
    return LpSolution("optimal", res.objective, measure, dual, res.iterations)


@lru_cache(maxsize=1)
def min_delay(
    cfg: SystemConfig, disc: ChannelDiscretization
) -> tuple[float, OccupancyMeasure]:
    """Smallest achievable average delay.

    The last discretization's answer stays cached, so a budget grid and
    a corner search on one discretization share one solve.
    """
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
                          lambda olp: olp.power + lam * olp.delay,
                          ("lam", lam))
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
