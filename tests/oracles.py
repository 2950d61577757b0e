"""Independent reference computations for the test suite.

Everything here is written from first principles on purpose: no
imports from the package beyond plain data (configs), so agreement
between these oracles and the library is evidence, not tautology.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss


def gauss_integral(f, a: float, b: float, n: int = 64) -> float:
    """Gauss-Legendre quadrature of f over [a, b]."""
    x, w = leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return float(half * np.sum(w * np.vectorize(f)(mid + half * x)))


def uniform_bin_stats(h_min: float, h_max: float, bins: int):
    """(edges, masses, mean of 1/h per bin) for a uniform gain law."""
    edges = [h_min + k * (h_max - h_min) / bins for k in range(bins + 1)]
    dens = 1.0 / (h_max - h_min)
    masses, inv_means = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        p = dens * (hi - lo)
        masses.append(p)
        inv_means.append(dens * math.log(hi / lo) / p)
    return edges, masses, inv_means


# --- exhaustive policy evaluation -----------------------------------------

def enumerate_policies(Q: int, s_max: int, bins: int, a_max: int = 0):
    """All maps (q, bin) -> rate with rate <= min(q, s_max), q >= 1.

    With a_max > 0 the rate must also keep q - s <= Q - a_max, so the
    buffer can absorb the largest arrival burst without loss.  That is
    the lossless action set; leaving it lets a policy shed traffic at
    the buffer cap and undercut the true tradeoff.
    """
    states = [(q, k) for q in range(1, Q + 1) for k in range(bins)]
    choice_sets = [range(max(0, q - (Q - a_max)), min(q, s_max) + 1)
                   for q, _ in states]
    for rates in itertools.product(*choice_sets):
        yield dict(zip(states, rates))


def stationary_queue(policy: dict, Q: int, alphas, masses) -> np.ndarray:
    """Stationary law of the queue chain under a deterministic policy.

    Independent construction: transition by q' = min(max(q - s, 0) + a, Q)
    with s = policy[(q, k)] and the bin drawn with probability masses[k].
    """
    n = Q + 1
    T = np.zeros((n, n))
    for q in range(n):
        for k, pk in enumerate(masses):
            s = policy[(q, k)] if q >= 1 else 0
            for a, pa in enumerate(alphas):
                qn = min(max(q - s, 0) + a, Q)
                T[q, qn] += pk * pa
    A = np.vstack([T.T - np.eye(n), np.ones(n)])
    b = np.concatenate([np.zeros(n), [1.0]])
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    return pi


def policy_delay_power(policy: dict, Q: int, alphas, masses, inv_means,
                       xi) -> tuple[float, float]:
    """(average delay, average power) from the exact stationary law."""
    pi = stationary_queue(policy, Q, alphas, masses)
    abar = sum(a * p for a, p in enumerate(alphas))
    delay = float(sum(q * pi[q] for q in range(Q + 1))) / abar
    power = 0.0
    for q in range(1, Q + 1):
        for k, pk in enumerate(masses):
            s = policy[(q, k)]
            power += pi[q] * pk * xi[s] * inv_means[k]
    return delay, power


# --- loop forms of the vectorized queue-law code ---------------------------
#
# Same arithmetic in the same order as the package's array code, one
# scalar at a time, so the results must agree bit for bit.

def loop_admissible(Q: int, s_max: int, a_max: int) -> list[tuple[int, int]]:
    return [(q, s) for q in range(Q + 1) for s in range(s_max + 1)
            if 0 <= q - s <= Q - a_max]


def loop_equality_rows(Q: int, s_max: int, alphas, masses):
    """(A_eq, b_eq) of the occupancy LP: bin-mass rows, then one balance
    row per (queue, bin); columns (q, s, k), q-major."""
    pairs = loop_admissible(Q, s_max, len(alphas) - 1)
    M = len(masses)
    col = {(q, s, k): i * M + k for i, (q, s) in enumerate(pairs)
           for k in range(M)}
    A = np.zeros((M + (Q + 1) * M, len(col)))
    b = np.zeros(A.shape[0])
    for (q, s, k), j in col.items():
        A[k, j] = 1.0
        b[k] = masses[k]
    for (q, s, k), j in col.items():
        for qn in range(Q + 1):
            for kn, pk in enumerate(masses):
                a = qn - (q - s)
                alpha = alphas[a] if 0 <= a < len(alphas) else 0.0
                A[M + qn * M + kn, j] = -pk * alpha
    for (q, s, k), j in col.items():
        A[M + q * M + k, j] += 1.0
    return A, b


def loop_balance_residual(Q: int, s_max: int, alphas, G) -> float:
    """Worst |inflow into q' - mass at q'| of rate masses G[q, s]."""
    pairs = loop_admissible(Q, s_max, len(alphas) - 1)
    worst = 0.0
    for qn in range(Q + 1):
        inflow = 0.0
        for q, s in pairs:
            a = qn - (q - s)
            if 0 <= a < len(alphas):
                inflow += alphas[a] * G[q, s]
        worst = max(worst, abs(inflow - G[qn].sum()))
    return worst


def loop_queue_kernel(Q: int, alphas, masses, table) -> np.ndarray:
    """Queue transition matrix under table[q, k, s] = P(rate s | q, bin k)."""
    T = np.zeros((Q + 1, Q + 1))
    for q in range(Q + 1):
        for k, pk in enumerate(masses):
            for s in range(table.shape[2]):
                for a, alpha in enumerate(alphas):
                    T[q, min(max(q - s, 0) + a, Q)] += pk * table[q, k, s] * alpha
    return T


def loop_closed_classes(T, tol: float = 1e-15) -> list[list[int]]:
    """Closed classes of the chain T, by breadth-first search: the states
    each state reaches through entries above tol, kept when every one of
    them reaches it back; each class once, by its smallest member."""
    n = len(T)
    reach = []
    for i in range(n):
        seen, todo = {i}, deque([i])
        while todo:
            q = todo.popleft()
            for j in range(n):
                if T[q][j] > tol and j not in seen:
                    seen.add(j)
                    todo.append(j)
        reach.append(seen)
    return [sorted(reach[i]) for i in range(n)
            if all(i in reach[j] for j in reach[i]) and min(reach[i]) == i]


def loop_extract_policy(values, feas_tol: float, transient_tol: float,
                        one_hot_tol: float):
    """(table, transient, sigma, kind) of the conditional rate law of a
    measure values[q, s, k], one (queue, bin) row at a time.

    Dust below feas_tol is dropped unless nothing else is left; a row
    whose mass is at most transient_tol is transient and drains at
    min(q, S_max).
    """
    Q, S, M = values.shape[0] - 1, values.shape[1] - 1, values.shape[2]
    table = np.zeros((Q + 1, M, S + 1))
    transient = np.zeros((Q + 1, M), dtype=bool)
    sigma = np.zeros((Q + 1, M), dtype=int)
    deterministic = True
    for q in range(Q + 1):
        for k in range(M):
            row = values[q, :, k].copy()
            cleaned = np.where(row < feas_tol, 0.0, row)
            if cleaned.sum() > transient_tol:
                row = cleaned
            denom = float(row.sum())
            if denom <= transient_tol:
                transient[q, k] = True
                sigma[q, k] = min(q, S)
                table[q, k, sigma[q, k]] = 1.0
                continue
            f = row / denom
            table[q, k] = f
            sigma[q, k] = int(np.argmax(f))
            if f[sigma[q, k]] < 1.0 - one_hot_tol:
                deterministic = False
    kind = "deterministic" if deterministic else "probabilistic"
    return table, transient, sigma, kind


# --- loop forms of the threshold construction -----------------------------
#
# Interval bookkeeping one (queue, cell, rate) triple at a time, in the
# order the package's array code must reproduce bit for bit.  A density
# is given by its breakpoint grid and values[q, s, i], the density on
# (grid[i], grid[i+1]]; a construction by lo/hi of shape (Q+1, K, S+1).

def _loop_envelope(grid, values, q):
    """(xs, us): the piecewise-linear cumulative mass of state q."""
    total = values[q].sum(axis=0)
    return grid, np.concatenate([[0.0], np.cumsum(total * np.diff(grid))])


def _loop_envelope_value(xs, us, x: float) -> float:
    i = int(np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2))
    span = xs[i + 1] - xs[i]
    if span <= 0.0:
        return float(us[i])
    t = (x - xs[i]) / span
    return float(us[i] + t * (us[i + 1] - us[i]))


def _loop_invert_envelope(xs, us, v: float) -> float:
    """Leftmost x with envelope(x) >= v; v already within [0, us[-1]]."""
    vv = min(max(v, 0.0), float(us[-1]))
    i = int(np.searchsorted(us, vv, side="left"))
    if i == 0:
        return float(xs[0])
    rise = us[i] - us[i - 1]
    if rise <= 0.0:
        return float(xs[i])
    t = (vv - us[i - 1]) / rise
    return float(xs[i - 1] + t * (xs[i] - xs[i - 1]))


def loop_thresholds(grid, values, edges, seq):
    """(lo, hi): stack each cell's rate masses, rates in order seq.

    grid must contain every cell edge.
    """
    n_q, n_s, _ = values.shape
    K = len(edges) - 1
    lo = np.zeros((n_q, K, n_s))
    hi = np.zeros((n_q, K, n_s))
    cum = np.concatenate(
        [np.zeros((n_q, n_s, 1)),
         np.cumsum(values * np.diff(grid)[None, None, :], axis=2)], axis=2)
    edge_idx = np.searchsorted(grid, edges)
    for q in range(n_q):
        xs, us = _loop_envelope(grid, values, q)
        for k in range(K):
            i0, i1 = edge_idx[k], edge_idx[k + 1]
            cell_lo, cell_hi = float(edges[k]), float(edges[k + 1])
            acc = float(us[i0])
            bound = cell_lo
            for pos, s in enumerate(seq):
                lo[q, k, s] = bound
                acc += float(cum[q, s, i1] - cum[q, s, i0])
                if pos == len(seq) - 1:
                    bound = cell_hi
                else:
                    t = _loop_invert_envelope(xs, us, acc)
                    bound = min(max(t, cell_lo), cell_hi)
                hi[q, k, s] = bound
    return lo, hi


def loop_rate_integrals(grid, values, lo, hi) -> np.ndarray:
    """Mass per (q, s) carried by the intervals (lo, hi]."""
    n_q, K, n_s = lo.shape
    out = np.zeros((n_q, n_s))
    for q in range(n_q):
        xs, us = _loop_envelope(grid, values, q)
        for k in range(K):
            for s in range(n_s):
                a, b = lo[q, k, s], hi[q, k, s]
                if b > a:
                    out[q, s] += (_loop_envelope_value(xs, us, b)
                                  - _loop_envelope_value(xs, us, a))
    return out


def _loop_inv_gain_integral(grid, total, a: float, b: float) -> float:
    """Integral of total/h over (a, b], piece by piece."""
    i0 = int(np.clip(np.searchsorted(grid, a, side="right") - 1, 0,
                     len(grid) - 2))
    acc = 0.0
    for i in range(i0, len(grid) - 1):
        left = max(float(grid[i]), a)
        right = min(float(grid[i + 1]), b)
        if right <= left:
            if grid[i] >= b:
                break
            continue
        if total[i] > 0.0:
            acc += total[i] * np.log(right / left)
    return acc


def loop_delay_power(grid, values, lo, hi, alphas, xi) -> tuple[float, float]:
    """(mean queue / mean arrival rate, power) of the threshold rule."""
    n_q, K, n_s = lo.shape
    masses = loop_rate_integrals(grid, values, lo, hi)
    abar = sum(a * p for a, p in enumerate(alphas))
    delay = float(np.arange(n_q, dtype=float) @ masses.sum(axis=1)) / abar
    power = 0.0
    for q in range(n_q):
        total = values[q].sum(axis=0)
        for k in range(K):
            for s in range(n_s):
                a, b = lo[q, k, s], hi[q, k, s]
                if b > a and xi[s] != 0.0:
                    power += xi[s] * _loop_inv_gain_integral(grid, total, a, b)
    return delay, power


def loop_intervals(lo, hi, q: int) -> list[tuple[float, float, int]]:
    """Nonempty (lo, hi, s) of state q, sorted."""
    out = []
    for k in range(lo.shape[1]):
        for s in range(lo.shape[2]):
            a, b = lo[q, k, s], hi[q, k, s]
            if b > a:
                out.append((float(a), float(b), s))
    out.sort()
    return out


def loop_channel_residual(grid, values, lo, hi, ch, gains=None) -> float:
    """Largest |summed density of the states covering h - channel density
    at h| over ascending gains h.

    By default the gains are the right ends of the pieces that the
    grid, the channel's breaks and every nonempty interval end cut
    (h_min, h_max] into; on each piece both densities are constant.
    One walk over the gains advances, per state, to the first interval
    not closed below h, and in the grid to the piece holding h.
    """
    n_q, _, n_s = lo.shape
    ivs = [loop_intervals(lo, hi, q) for q in range(n_q)]
    if gains is None:
        points = {float(g) for g in grid} | set(loop_pieces(ch)[0])
        for iv in ivs:
            for a, b, _ in iv:
                points.update((a, b))
        gains = sorted(points)[1:]
    worst = 0.0
    i = 0
    at = [0] * n_q
    for h in gains:
        while grid[i + 1] < h:
            i += 1
        total = 0.0
        for q in range(n_q):
            iv = ivs[q]
            while at[q] < len(iv) and iv[at[q]][1] < h:
                at[q] += 1
            if at[q] < len(iv) and iv[at[q]][0] < h:
                dens = 0.0
                for s in range(n_s):
                    dens += values[q, s, i]
                total += dens
        worst = max(worst, abs(total - loop_density(ch, h)))
    return worst


# --- the channel law, one piece at a time ---------------------------------

def loop_pieces(ch):
    """(breakpoints, densities) read straight off the channel's fields."""
    if ch.kind == "uniform":
        return [ch.h_min, ch.h_max], [1.0 / (ch.h_max - ch.h_min)]
    return [ch.h_min] + [e for e, _ in ch.table], [v for _, v in ch.table]


def loop_integrals(ch, lo: float, hi: float) -> tuple[float, float]:
    """(integral of f, integral of f/h) over (lo, hi], one walk each."""
    edges, values = loop_pieces(ch)
    mass = 0.0
    for a, b, v in zip(edges[:-1], edges[1:], values):
        left, right = max(a, lo), min(b, hi)
        if right > left:
            mass += v * (right - left)
    inv = 0.0
    for a, b, v in zip(edges[:-1], edges[1:], values):
        left, right = max(a, lo), min(b, hi)
        if right > left and v > 0:
            inv += v * math.log(right / left)
    return mass, inv


def loop_discretize(ch, bins: int):
    """(edges, masses, E[1/h | bin]) of equal-width bins, one bin at a
    time; None when some bin carries no mass."""
    width = (ch.h_max - ch.h_min) / bins
    edges = [ch.h_min + k * width for k in range(bins + 1)]
    edges[0], edges[-1] = ch.h_min, ch.h_max
    masses, inv_means = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        p, inv = loop_integrals(ch, lo, hi)
        if p <= 0.0:
            return None
        masses.append(p)
        inv_means.append(inv / p)
    return edges, masses, inv_means


def loop_cdf(ch, h: float) -> float:
    """Mass below h, adding whole pieces until the one holding h."""
    edges, values = loop_pieces(ch)
    acc = 0.0
    for lo, hi, v in zip(edges[:-1], edges[1:], values):
        if h <= lo:
            break
        acc += v * (min(h, hi) - lo)
    return acc


def loop_density(ch, h: float) -> float:
    """Density of the piece (a, b] holding h; h_min and below fall in
    the first piece, beyond h_max in the last."""
    edges, values = loop_pieces(ch)
    for b, v in zip(edges[1:], values):
        if h <= b:
            return v
    return values[-1]


# --- simulation, one slot at a time ---------------------------------------

def loop_cdf_inverse(ch, u: float) -> float:
    """Leftmost h with CDF(h) >= u, walking the pieces in order."""
    if ch.kind == "uniform":
        return ch.h_min + u * (ch.h_max - ch.h_min)
    edges, values = loop_pieces(ch)
    acc = 0.0
    for a, b, v in zip(edges[:-1], edges[1:], values):
        step = v * (b - a)
        if acc + step >= u:
            if step <= 0.0:
                return a
            return min(a + (u - acc) / v, b)
        acc += step
    return ch.h_max


def loop_cell_of(edges, h: float) -> int:
    """The i with edges[i] < h <= edges[i+1], by bisection, clipped to
    the first and last cell."""
    return min(max(bisect_left(list(edges), h) - 1, 0), len(edges) - 2)


def loop_decision(policy, q: int, h: float, u: float) -> int:
    """The rate state q sends at gain h with uniform draw u.

    A bin policy (one with a `table`) finds h's bin by bisection and
    takes the first rate whose running row total exceeds u; a threshold
    policy (one with `bounds`) scans its rules for the first that
    closes at or above h.  Anything else, a test double, answers for
    itself.
    """
    if hasattr(policy, "table"):
        row = policy.table[q, loop_cell_of(policy.disc.edges, h)]
        return min(bisect_right(np.cumsum(row).tolist(), u),
                   policy.cfg.S_max)
    if hasattr(policy, "bounds"):
        bounds, rates = policy.bounds[q], policy.rates[q]
        for i in range(len(rates)):
            if h <= bounds[i + 1]:
                return int(rates[i])
        return int(rates[-1])
    return int(policy.decisions(np.array([h]), np.array([u]))[0, q])


def block_cell_of(edges, h):
    """cell_of by binary search: the i with edges[i] < h <= edges[i+1],
    elementwise, clipped to the first and last cell."""
    return np.clip(np.searchsorted(edges, h, side="left") - 1, 0,
                   len(edges) - 2)


def block_decisions(policy, gains, u) -> np.ndarray:
    """decisions() as a binary search and fancy-indexed gathers, from
    the policy's own fields: the (n, Q+1) rates, in the smallest signed
    type holding -2 max(Q, S_max) - 1.

    A bin policy (one with a `table`) sends, per row, the first rate
    whose cumulative probability exceeds the draw, reading one-hot rows
    (every cumulative entry 0 or 1) off a table and comparing draws
    for the mixed rows only; a threshold policy (one with `bounds`)
    reads the rates of every state on the cell of the merged bounds
    that holds the gain.
    """
    cfg = policy.cfg
    dtype = np.min_scalar_type(-2 * max(cfg.Q, cfg.S_max) - 1)
    if hasattr(policy, "table"):
        cells = block_cell_of(policy.disc.edges, gains)
        cum = np.cumsum(policy.table, axis=2)[:, :, :-1].transpose(2, 1, 0)
        mixed = ((cum != 0.0) & (cum != 1.0)).any(axis=0)
        rates = (cum == 0.0).sum(axis=0).astype(dtype)[cells]
        rates[u >= 1.0] = cfg.S_max
        t, q = np.nonzero(mixed[cells])
        rates[t, q] = (u[t] >= cum[:, cells[t], q]).sum(axis=0)
        return rates
    points = np.unique(np.concatenate(policy.bounds))
    rates = np.stack([r[block_cell_of(b, points[1:])]
                      for b, r in zip(policy.bounds, policy.rates)], axis=1)
    return rates.astype(dtype)[block_cell_of(points, gains)]


def loop_run_sim(cfg, policy, slots: int, warmup: int, seed: int):
    """The simulator with all bookkeeping inside the slot loop.

    Returns the report fields in order, as a dict, and one
    (slot, q, a, h, s, energy) row per slot.  Packets wait in a FIFO
    deque of arrival slots; a sojourn counts when its departure slot is
    measured.  Standard errors use 32 batch means.
    """
    batches = 32
    streams = [np.random.default_rng(s)
               for s in np.random.SeedSequence(seed).spawn(3)]
    cum = np.cumsum(np.asarray(cfg.arrival.alphas))
    cum[-1] = 1.0
    arrivals = np.searchsorted(cum, streams[0].random(slots), side="right")
    gains = [loop_cdf_inverse(cfg.channel, float(u))
             for u in streams[1].random(slots)]
    policy_u = streams[2].random(slots)

    Q, xi = cfg.Q, cfg.xi_table
    measured = slots - warmup
    q = 0
    fifo: deque[int] = deque()
    queue_trace = np.empty(measured)
    power_trace = np.empty(measured)
    served_total = drops = overrides = sojourn_sum = sojourn_count = 0
    rows = []
    for t in range(slots):
        h = gains[t]
        a = int(arrivals[t])
        s = loop_decision(policy, q, h, float(policy_u[t]))
        energy = xi[s] / h
        served = min(s, q)
        dropped = max(q - served + a - Q, 0)
        rows.append((t, q, a, h, s, energy))
        if t >= warmup:
            queue_trace[t - warmup] = q
            power_trace[t - warmup] = energy
            served_total += served
            drops += dropped
            overrides += int(s > q)
            for _ in range(served):
                sojourn_sum += t - fifo.popleft()
                sojourn_count += 1
        else:
            for _ in range(served):
                fifo.popleft()
        fifo.extend([t] * (a - dropped))
        q = q - served + a - dropped

    def batch_se(x: np.ndarray) -> float:
        cut = (measured // batches) * batches
        means = x[:cut].reshape(batches, -1).mean(axis=1)
        return float(means.std(ddof=1) / np.sqrt(batches))

    abar = sum(k * p for k, p in enumerate(cfg.arrival.alphas))
    mean_queue = float(queue_trace.mean())
    se_queue = batch_se(queue_trace)
    fields = {
        "slots": slots, "warmup": warmup, "seed": seed, "batches": batches,
        "mean_queue": mean_queue, "se_queue": se_queue,
        "mean_power": float(power_trace.mean()),
        "se_power": batch_se(power_trace),
        "delay": mean_queue / abar if abar > 0 else mean_queue,
        "se_delay": se_queue / abar if abar > 0 else se_queue,
        "sojourn_mean": sojourn_sum / sojourn_count if sojourn_count else 0.0,
        "sojourn_count": sojourn_count,
        "throughput": served_total / measured,
        "arrival_rate": abar,
        "drops": drops,
        "drop_rate": drops / measured,
        "underflow_overrides": overrides,
    }
    return fields, rows


def lower_hull(points):
    """Corners of the lower convex hull of (D, P) points, sorted by D.

    Trailing corners that do not improve P are cut: the hull of a
    tradeoff curve ends at its lowest power.
    """
    pts = sorted(set((round(d, 12), round(p, 12)) for d, p in points))
    hull: list[tuple[float, float]] = []
    for d, p in pts:
        while len(hull) >= 2:
            (d0, p0), (d1, p1) = hull[-2], hull[-1]
            if (p1 - p0) * (d - d0) >= (p - p0) * (d1 - d0):
                hull.pop()
            else:
                break
        hull.append((d, p))
    best = min(p for _, p in hull)
    while hull and hull[-1][1] > best:
        hull.pop()
    while len(hull) >= 2 and hull[-2][1] <= hull[-1][1]:
        hull.pop()
    return hull


def hull_value(hull, budget: float) -> float:
    """min P subject to D <= budget over the convex hull, inf if empty."""
    ds = [d for d, _ in hull]
    ps = [p for _, p in hull]
    if budget < ds[0]:
        return math.inf
    if budget >= ds[-1]:
        return ps[-1]
    return float(np.interp(budget, ds, ps))


def howard_gain(Q: int, alphas, S_max: int, xi, masses, inv_means,
                lam: float):
    """Least average cost P + lam * D over deterministic (q, bin) -> rate
    rules, by Howard's policy iteration on the queue chain.

    Rates are the lossless ones, 0 <= q - s <= Q - A with A the largest
    arrival count, so backlog q serving s moves to q - s + a with
    probability alphas[a].  A slot at backlog q in bin k serving s costs
    xi[s] * inv_means[k] plus lam times q over the mean arrival rate (q
    itself with no arrivals).  The start is the drain rule, the largest
    admissible rate everywhere.  Each step evaluates the rule by one
    solve of g + h = c + T h with h(0) = 0, then switches a (q, bin)
    cell only when its best rate beats its current one by more than
    1e-9 * (1 + max |cost|), so near-ties cannot cycle; the first rule
    no cell leaves is optimal.

    Returns (gain, table, steps): the least average cost, the one-hot
    table[q, k, s] of the final rule and the number of evaluations.
    Multichain configs, where some rule leaves several closed classes,
    are out of scope: the evaluation's system is singular there.
    """
    n, A, M = Q + 1, len(alphas) - 1, len(masses)
    abar = sum(a * p for a, p in enumerate(alphas))
    rates = [[s for s in range(S_max + 1) if 0 <= q - s <= Q - A]
             for q in range(n)]
    cost = {(q, k, s): xi[s] * inv_means[k] + lam * (q / abar if abar else q)
            for q in range(n) for k in range(M) for s in rates[q]}
    tol = 1e-9 * (1.0 + max(abs(c) for c in cost.values()))
    rule = {(q, k): rates[q][-1] for q in range(n) for k in range(M)}
    for steps in itertools.count(1):
        # unknowns (g, h(1), ..., h(Q)): column 0 holds g, as h(0) = 0
        lhs, c = np.eye(n), np.zeros(n)
        for (q, k), s in rule.items():
            c[q] += masses[k] * cost[q, k, s]
            for a, pa in enumerate(alphas):
                lhs[q, q - s + a] -= masses[k] * pa
        lhs[:, 0] = 1.0
        x = np.linalg.solve(lhs, c)
        g, h = float(x[0]), np.concatenate([[0.0], x[1:]])
        changed = False
        for (q, k), s in rule.items():
            value = {r: cost[q, k, r] + sum(pa * h[q - r + a]
                                            for a, pa in enumerate(alphas))
                     for r in rates[q]}
            best = min(value, key=value.get)
            if value[s] - value[best] > tol:
                rule[q, k] = best
                changed = True
        if not changed:
            break
    table = np.zeros((n, M, S_max + 1))
    for (q, k), s in rule.items():
        table[q, k, s] = 1.0
    return g, table, steps


def random_bounded_lp(rng: np.random.Generator):
    """A feasible, bounded random LP (<= 6 vars, <= 5 rows).

    Feasible by construction (right-hand sides generated from a known
    nonnegative point, zeroed coordinates included for degeneracy) and
    bounded by a simplex row sum(x) <= R.  Returns (c, A_eq, b_eq,
    A_ub, b_ub).
    """
    n = int(rng.integers(1, 7))
    m_eq = int(rng.integers(0, 3))
    m_ub = int(rng.integers(0, 3))
    x0 = rng.uniform(0.0, 2.0, n)
    x0[rng.random(n) < 0.3] = 0.0
    def coeffs(rows):
        A = rng.uniform(-2.0, 2.0, (rows, n))
        if rng.random() < 0.3:
            A = np.round(A, 1)
        return A
    A_eq = coeffs(m_eq)
    if m_eq >= 1 and rng.random() < 0.2:
        A_eq[-1] = A_eq[0]  # redundant row
    b_eq = A_eq @ x0
    A_ub = coeffs(m_ub)
    slack = rng.uniform(0.0, 1.0, m_ub)
    slack[rng.random(m_ub) < 0.3] = 0.0  # active at the seed point
    b_ub = A_ub @ x0 + slack
    A_ub = np.vstack([A_ub, np.ones((1, n))])
    b_ub = np.concatenate([b_ub, [x0.sum() + rng.uniform(0.0, 2.0)]])
    c = rng.uniform(-1.0, 1.0, n)
    return c, A_eq, b_eq, A_ub, b_ub


# --- brute-force LP oracle --------------------------------------------------

def best_basic_solution(c, A_eq, b_eq, A_ub, b_ub, tol: float = 1e-9):
    """Optimal objective by enumerating all basic solutions.

    Slack columns are appended for the inequality rows; every square
    column subset is tried.  Returns None when nothing is feasible.
    """
    c = np.asarray(c, float)
    blocks_A, blocks_b = [], []
    n = len(c)
    if A_eq is not None and len(A_eq):
        blocks_A.append(np.asarray(A_eq, float))
        blocks_b.append(np.asarray(b_eq, float))
    n_ub = 0
    if A_ub is not None and len(A_ub):
        A_ub = np.asarray(A_ub, float)
        n_ub = A_ub.shape[0]
        blocks_A.append(np.hstack([A_ub, np.eye(n_ub)]))
        blocks_b.append(np.asarray(b_ub, float))
    if blocks_A:
        width = n + n_ub
        rows = []
        for blk in blocks_A:
            pad = np.zeros((blk.shape[0], width - blk.shape[1]))
            rows.append(np.hstack([blk, pad]))
        A = np.vstack(rows)
        b = np.concatenate(blocks_b)
    else:
        A = np.zeros((0, n))
        b = np.zeros(0)
    m, width = A.shape
    cost = np.concatenate([c, np.zeros(width - n)])
    if m == 0:
        return 0.0 if (cost >= -tol).all() else None
    # redundant rows (e.g. a duplicated equality) make every square
    # submatrix singular; keep a maximal independent subset
    keep: list[int] = []
    for i in range(m):
        if np.linalg.matrix_rank(A[keep + [i]], tol=1e-9) > len(keep):
            keep.append(i)
    A, b = A[keep], b[keep]
    m = len(keep)
    best = None
    for cols in itertools.combinations(range(width), m):
        B = A[:, cols]
        if abs(np.linalg.det(B)) < 1e-12:
            continue
        xb = np.linalg.solve(B, b)
        if (xb < -tol).any():
            continue
        x = np.zeros(width)
        x[list(cols)] = xb
        if np.abs(A @ x - b).max() > 1e-7:
            continue
        val = float(cost @ x)
        if best is None or val < best:
            best = val
    return best


# --- the full-tableau simplex -----------------------------------------------
#
# The dense two-phase method the package's condensed tableau replaced,
# kept verbatim but for the result type and the shared start: the
# tableau holds every column (basic ones and artificials too) in
# phase 2, and duals are read off the identity columns' reduced costs.
# The condensed solver must reproduce its status, x, objective, pivot
# counts and dropped rows bit for bit.  degenerate_pivots counts the
# path pivots (drive-outs excluded) made from a zero RHS entry.

DENSE_OPT_TOL = 1e-9
DENSE_FEAS_TOL = 1e-9
DENSE_PIV_TOL = 1e-9
DENSE_DRIVE_TOL = 1e-7
DENSE_MAX_PIVOTS = 200_000


@dataclass(frozen=True)
class DenseResult:
    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    duals_eq: np.ndarray | None = None
    duals_ub: np.ndarray | None = None
    dropped_eq_rows: tuple[int, ...] = ()
    iterations: int = 0
    phase1_iterations: int = 0
    degenerate_pivots: int = 0


def _dense_bland_iterate(T, basis, cost, allowed, work):
    m, w = T.shape
    ncols = w - 1
    iters = degenerate = 0
    col_ids = np.arange(ncols)
    while True:
        y = cost[basis] @ T[:, :ncols]
        reduced = cost[:ncols] - y
        candidates = col_ids[allowed & (reduced < -DENSE_OPT_TOL)]
        if candidates.size == 0:
            return "optimal", iters, degenerate
        j = int(candidates[0])  # Bland: lowest index enters
        col = T[:, j]
        pos = col > DENSE_PIV_TOL
        if not pos.any():
            return "unbounded", iters, degenerate
        rhs = T[:, ncols]
        ratios = np.full(m, np.inf)
        ratios[pos] = rhs[pos] / col[pos]
        rmin = ratios.min()
        ties = np.nonzero(ratios <= rmin + 1e-12 * (1.0 + abs(rmin)))[0]
        r = int(ties[np.argmin(basis[ties])])  # Bland tie-break
        degenerate += bool(rhs[r] == 0.0)
        _dense_pivot(T, r, j, work)
        basis[r] = j
        iters += 1
        if iters > DENSE_MAX_PIVOTS:
            raise RuntimeError("pivot limit exceeded")


def _dense_pivot(T, r, j, work):
    T[r] /= T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    np.einsum("i,j->ij", col, T[r], out=work)
    T -= work
    T[:, j] = 0.0
    T[r, j] = 1.0
    rhs = T[:, -1]
    np.clip(rhs, 0.0, None, out=rhs)


def dense_solve_simplex(lp) -> DenseResult:
    """Cold two-phase solve of lp (fields c, A_eq, b_eq, A_ub, b_ub)
    on the full tableau."""
    n = lp.c.shape[0]
    me, mu = lp.A_eq.shape[0], lp.A_ub.shape[0]
    m = me + mu
    flip = np.concatenate([lp.b_eq, lp.b_ub]) < 0.0

    needs_art = (np.arange(m) < me) | flip
    ncols = n + mu + int(needs_art.sum())
    ident = np.where(needs_art, n + mu + np.cumsum(needs_art) - 1,
                     n + np.arange(m) - me)

    T = np.zeros((m, ncols + 1))
    T[:me, :n] = lp.A_eq
    T[me:, :n] = lp.A_ub
    T[me + np.arange(mu), n + np.arange(mu)] = 1.0
    T[:me, ncols] = lp.b_eq
    T[me:, ncols] = lp.b_ub
    for i in np.flatnonzero(flip):
        T[i, : n + mu] *= -1.0
    T[flip, ncols] *= -1.0
    T[needs_art, ident[needs_art]] = 1.0
    basis = ident.copy()
    work = np.empty_like(T)

    phase1_cost = (np.arange(ncols) >= n + mu).astype(float)
    status, it1, deg1 = _dense_bland_iterate(T, basis, phase1_cost,
                                             np.ones(ncols, dtype=bool), work)
    if status == "unbounded":
        raise RuntimeError("descent ray in phase 1")
    phase1_obj = float(phase1_cost[basis] @ T[:, ncols])
    if phase1_obj > DENSE_FEAS_TOL:
        return DenseResult(status="infeasible", iterations=it1,
                           phase1_iterations=it1, degenerate_pivots=deg1)

    keep = np.ones(m, dtype=bool)
    for i in np.nonzero(basis >= n + mu)[0]:
        drivable = np.nonzero(np.abs(T[i, : n + mu]) > DENSE_DRIVE_TOL)[0]
        if drivable.size:
            piv = int(drivable[0])
            _dense_pivot(T, i, piv, work)
            basis[i] = piv
        else:
            keep[i] = False
    dropped = tuple(int(i) for i in np.nonzero(~keep)[0] if i < me)
    if not keep.all():
        k = int(keep.sum())
        np.take(T, np.nonzero(keep)[0], axis=0, out=work[:k], mode="clip")
        T, work = work[:k], T[:k]
        basis = basis[keep]

    phase2_cost = np.concatenate([lp.c, np.zeros(ncols - n)])
    allowed = np.arange(ncols) < n + mu
    status, it2, deg2 = _dense_bland_iterate(T, basis, phase2_cost, allowed,
                                             work)
    if status == "unbounded":
        return DenseResult(status="unbounded", iterations=it1 + it2,
                           phase1_iterations=it1,
                           degenerate_pivots=deg1 + deg2)

    x = np.zeros(ncols)
    x[basis] = T[:, ncols]
    xout = x[:n].copy()
    objective = float(lp.c @ xout)

    reduced = phase2_cost - phase2_cost[basis] @ T[:, :ncols]
    duals = np.zeros(me + mu)
    duals[keep] = -reduced[ident[keep]]
    duals[flip & keep] *= -1.0
    return DenseResult(
        status="optimal",
        x=xout,
        objective=objective,
        duals_eq=duals[:me].copy(),
        duals_ub=duals[me:].copy(),
        dropped_eq_rows=dropped,
        iterations=it1 + it2,
        phase1_iterations=it1,
        degenerate_pivots=deg1 + deg2,
    )


def random_config_dict(rng: np.random.Generator) -> dict:
    """A small random config as parsed JSON, drawn like the LP probe's:
    Dirichlet arrival probabilities over 2-4 counts, Q in 2..10, S_max
    in 1..4 (never below the largest arrival count), a uniform channel
    from h_min 0.1, 0.5 or 1 to h_max 10, and xi(s) = 2^s - 1."""
    counts = int(rng.integers(2, 5))
    a_max = counts - 1
    return {
        "arrival": {"alphas": rng.dirichlet(np.ones(counts)).tolist()},
        "channel": {"kind": "uniform",
                    "h_min": float(rng.choice([0.1, 0.5, 1.0])),
                    "h_max": 10.0},
        "Q": int(rng.integers(max(2, a_max), 11)),
        "S_max": int(rng.integers(max(1, a_max), 5)),
        "xi_kind": "exp2minus1",
    }
