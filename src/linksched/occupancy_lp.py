"""Occupancy-measure LP over (queue, rate, channel-bin) triples.

The long-run behavior of any stationary schedule is captured by the
measure g[q][s][k]: the stationary probability of sitting at queue
length q, transmitting s packets, while the channel is in bin k.
Average delay and average power are linear in g, so the power-minimal
schedule under a delay cap is a linear program.  The queue chain a
schedule induces (its law, kernel and stationary law) lives in
chain.py; policy_to_measure reads a policy's measure off it.

Feasible measures satisfy, besides nonnegativity and the structural
zeros (a schedule may never send more than it holds, nor leave room
for an overflow), two families of equalities:

  * bin masses: summed over (q, s), the measure reproduces the channel
    bin probabilities;
  * balance per (queue, bin) pair: the chance of landing in queue q'
    while the fresh channel draw falls in bin k' equals p_{k'} times
    the total inflow into q'.  The stationary joint law of (q, bin)
    is a product; writing balance per pair (rather than aggregated
    over bins) is what pins that product structure inside the LP.
    Aggregated balance alone admits measures that correlate queue and
    channel, which no causal schedule can realize, and prices them too
    cheaply.

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
ends.  A budget's row can steer phase 1, so a budget's solve runs its
own.  Solves made ahead wait on the cached LP (OccupancyLp.solved):
a sweep's budgets, solved on one walk, the largest budget's own solve,
which the smaller budgets ride until each leaves to finish on a copy
(presolve_budgets, simplex.trunk_solves), and a corner search's
weights, solved a round at a time from the shared start by processes
forked for the round, one per further CPU (presolve_lagrangians,
simplex.objective_solves).
A presolved result is taken when it is read, bit for bit the solve it
stands for; a solve with none waiting runs as it would alone.

State spaces are 0-based: q in {0..Q}, s in {0..S_max}.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .chain import kernel, queue_residuals, stationary, transition_table
from .model import (CellIndex, ChannelDiscretization, SystemConfig,
                    drain_rate, mean_delay, path_dtype)
from .simplex import (
    FEAS_TOL,
    LinearProgram,
    SimplexAnomaly,
    SimplexResult,
    feasible_start,
    objective_solves,
    solve_simplex,
    trunk_solves,
)
from .textio import csv_text, read_columns

ONE_HOT_TOL = 1e-9
TRANSIENT_TOL = 1e-12  # a state with no more mass than this is never visited


@dataclass(frozen=True)
class OccupancyMeasure:
    """Stationary measure over admissible (q, s, bin) triples."""

    cfg: SystemConfig
    disc: ChannelDiscretization
    values: np.ndarray  # shape (Q+1, S_max+1, bins); zero off-support

    def __post_init__(self):
        self.values.setflags(write=False)

    def residuals(self) -> tuple[float, float, float]:
        """(bin, balance, structural) residuals: the worst gap between a
        bin's mass and the channel's, then queue_residuals of the rate
        masses G(q, s), the measure integrated over the channel."""
        sums = self.values.sum(axis=(0, 1))
        bin_gap = float(np.abs(sums - np.asarray(self.disc.masses)).max())
        return (bin_gap, *queue_residuals(self.cfg, self.values.sum(axis=2)))


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
        the last if rounding leaves none.  A one-hot row, whose
        cumulative probabilities are all exactly 0 or 1, sends its one
        rate below a draw of 1 and the last at 1; only the other,
        mixed, rows compare draws, and only slots whose bin has one
        look for them.  So deterministic rows ignore u, and the draw
        stream stays aligned across policies under a shared seed.
        """
        cells = self._cells.of(gains)
        fixed, mixed, some_mixed = self._rates
        rates = fixed.take(cells, axis=0)
        rates[u >= 1.0] = self.cfg.S_max
        t = np.flatnonzero(some_mixed.take(cells))
        if t.size:
            row, q = np.nonzero(mixed.take(cells[t], axis=0))
            t = t[row]
            cum = self._cumulative[:, cells[t], q]
            rates[t, q] = (u[t] >= cum).sum(axis=0)
        return rates

    @cached_property
    def _cells(self) -> CellIndex:
        return CellIndex(self.disc.edges)

    @cached_property
    def _cumulative(self) -> np.ndarray:
        """(S_max, bins, Q+1): [s, k, q] is row (q, k)'s probability of a
        rate <= s.  The total is left out: a draw past every other entry
        sends S_max either way."""
        cum = np.cumsum(self.table, axis=2)[:, :, :-1].transpose(2, 1, 0)
        cum = np.ascontiguousarray(cum)
        cum.setflags(write=False)
        return cum

    @cached_property
    def _rates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(bins, Q+1) tables: the rate of each one-hot row below a draw
        of 1 (its count of cumulative zeros), and which rows are mixed;
        and (bins,) flags: which bins have a mixed row."""
        cum = self._cumulative
        mixed = ((cum != 0.0) & (cum != 1.0)).any(axis=0)
        fixed = (cum == 0.0).sum(axis=0).astype(path_dtype(self.cfg))
        some_mixed = mixed.any(axis=1)
        for a in (fixed, mixed, some_mixed):
            a.setflags(write=False)
        return fixed, mixed, some_mixed


@dataclass(frozen=True)
class LpSolution:
    """A constrained solve's outcome: iterations counts its pivots,
    phase1_iterations the phase-1 part, degenerate_pivots the zero
    steps and dropped_rows the redundant equality rows phase 1 drops
    (SimplexResult's counts)."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: float | None
    measure: OccupancyMeasure | None
    delay_dual: float
    iterations: int
    phase1_iterations: int = 0
    degenerate_pivots: int = 0
    dropped_rows: int = 0


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
        """The LP under delay budget d_th: lp itself when there is none,
        else lp with the delay row, sharing lp's A_eq and b_eq."""
        if d_th is None:
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
        """The unread solves of presolve_budgets, by budget, and of
        presolve_lagrangians, by ("lam", weight)."""
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
    itself."""
    olp = _lp(cfg, disc)
    olp.solved.update(trunk_solves(olp.at(0.0), budgets))


def presolve_lagrangians(cfg: SystemConfig, disc: ChannelDiscretization,
                         lams) -> None:
    """Solve the weights' power + lam * delay LPs from the shared start,
    spread over the CPUs (simplex.objective_solves), and keep the
    results on the cached LP, by ("lam", weight), where solve_lagrangian
    finds them.  A weight whose solve raised is left out, so
    solve_lagrangian solves it itself and raises its own error."""
    olp = _lp(cfg, disc)
    lams = [float(lam) for lam in lams]
    results = objective_solves(olp.lp, olp.start,
                               [olp.power + lam * olp.delay for lam in lams])
    olp.solved.update((("lam", lam), res)
                      for lam, res in zip(lams, results) if res is not None)


def _solve(cfg: SystemConfig, disc: ChannelDiscretization,
           d_th: float | None, objective, key=None):
    """Solve the LP at budget d_th with lp.c = objective(olp): the
    result presolved under key, taken, if one waits, else from the
    shared start without a delay row and by its own phase 1 with one;
    returns the SimplexResult and its measure, x scattered onto the
    mask (None unless optimal)."""
    olp = _lp(cfg, disc)
    lp = olp.at(d_th)
    start = olp.solved.pop(key, None)
    if start is None and d_th is None:
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

    After presolve_budgets(cfg, disc, grid), each budget the walk
    solved takes its result off the cached LP once; the solution is
    bit for bit the one without it.
    """
    if d_th is not None and not np.isfinite(d_th):
        raise ValueError(f"delay budget must be finite, got {d_th!r}")
    res, measure = _solve(cfg, disc, d_th, lambda olp: olp.power, d_th)
    counts = dict(iterations=res.iterations,
                  phase1_iterations=res.phase1_iterations,
                  degenerate_pivots=res.degenerate_pivots,
                  dropped_rows=len(res.dropped_eq_rows))
    if measure is None:
        return LpSolution(res.status, None, None, 0.0, **counts)
    # price of one unit of delay budget
    dual = -float(res.duals_ub[0]) if res.duals_ub.size else 0.0
    return LpSolution("optimal", res.objective, measure, dual, **counts)


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


def policy_to_measure(pol: Policy) -> OccupancyMeasure:
    """Stationary measure of the queue chain the policy induces
    (chain.stationary, which raises ReducibleChainError)."""
    pi = stationary(kernel(pol.cfg, pol.disc.masses, pol.table))
    p = np.asarray(pol.disc.masses)
    g = pi[:, None, None] * pol.table.transpose(0, 2, 1) * p[None, None, :]
    return OccupancyMeasure(pol.cfg, pol.disc, g)


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


def policy_from_text(
    text: str, cfg: SystemConfig, disc: ChannelDiscretization
) -> Policy:
    """Read a bin-policy file; every (q, k) row must be a distribution
    (no negative entry, sum 1 within ONE_HOT_TOL), else ValueError
    naming the first row that is not."""
    Q, S, M = cfg.Q, cfg.S_max, disc.bins
    table = np.zeros((Q + 1, M, S + 1))
    transient = np.zeros((Q + 1, M), dtype=bool)
    columns = read_columns(text, POLICY_HEADER, (int, int, int, float, int),
                           (Q, M - 1, S, None, None))
    for q, k, s, prob, flag in zip(*columns):
        table[q, k, s] = prob
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
