"""The (Q+1)-state queue chain a schedule induces.

A stationary schedule sends s packets at backlog q when the channel
lands in bin k with probability table[q, k, s].  The channel is drawn
afresh each slot, so the backlog alone is a Markov chain on {0..Q}:
its law P[q, s, q'] (transition_table) weighted by the bin masses and
the rate law gives its kernel T[q, q'] (kernel).  The schedule's
occupancy measure is the chain's stationary law times the rate law
and the bin masses, and any measure the LP accepts balances under the
same law (queue_residuals measures how far one is from that).

Every sum here over bins, rates or admissible pairs runs strictly
left to right (ordered_sum), never in np.sum's pairwise order, so a
kernel or a residual is reproducible to the last bit.

A schedule that holds some backlog forever may leave the chain
reducible: several closed classes, each with its own stationary law,
so the schedule has no one measure.  stationary raises
ReducibleChainError for it, naming two classes; a chain with one
closed class and any transient states has one law, zero on the
transient states.
"""

from __future__ import annotations

import numpy as np

from .model import SystemConfig, step


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


def ordered_sum(terms: np.ndarray) -> np.ndarray:
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
    inflow = ordered_sum(G[mask][:, None] * P[mask])
    balance = float(np.abs(inflow - G.sum(axis=1)).max())
    structural = float(np.abs(G[~mask]).max(initial=0.0))
    return balance, structural


def kernel(cfg: SystemConfig, masses, table: np.ndarray) -> np.ndarray:
    """Transition matrix of the queue chain (clipped) under the rate law
    table[q, k, s], with the channel in bin k with probability masses[k]."""
    P, _ = transition_table(cfg)
    n = cfg.Q + 1
    # w[k, s, q]: chance of bin k and rate s at backlog q
    w = np.asarray(masses)[:, None, None] * table.transpose(1, 2, 0)
    terms = w[..., None] * P.transpose(1, 0, 2)[None]
    return ordered_sum(terms.reshape(-1, n, n))


def closed_classes(T: np.ndarray) -> list[list[int]]:
    """Closed classes of the chain T, each once, by its smallest member."""
    reach = (T > 1e-15) | np.eye(len(T), dtype=bool)
    for _ in range(len(T).bit_length()):  # 2**k steps after k squarings
        reach = reach @ reach
    # i lies in a closed class iff every state it reaches reaches it
    # back, and that class is then reach[i]
    return [np.flatnonzero(reach[i]).tolist() for i in range(len(T))
            if (reach[i] <= reach[:, i]).all() and reach[i].argmax() == i]


def stationary(T: np.ndarray) -> np.ndarray:
    """The stationary law of the chain T, by GTH elimination.

    Raises ReducibleChainError when the chain has more than one closed
    class (the stationary law is then ambiguous); the message names two
    of them.  Otherwise the law lives on the one closed class, with
    exact zeros on the transient states, and comes from the
    Grassmann-Taksar-Heyman elimination on that class (Grassmann,
    Taksar & Heyman, Operations Research 33(5), 1985): each state is
    censored out in turn, its exit rate taken as the sum of its row
    towards the states left rather than 1 minus its self-loop, so no
    step subtracts and every entry is accurate relative to itself,
    small probabilities too.  Every sum runs through ordered_sum.
    """
    closed = closed_classes(T)
    if len(closed) > 1:
        raise ReducibleChainError(
            f"reducible chain: states {closed[0]} and states {closed[1]} "
            "are both closed"
        )
    states = closed[0]
    P = T[np.ix_(states, states)]
    for k in range(len(states) - 1, 0, -1):
        P[:k, k] /= ordered_sum(P[k, :k])
        P[:k, :k] += P[:k, k, None] * P[k, :k]
    x = np.ones(len(states))
    for k in range(1, len(states)):
        x[k] = ordered_sum(x[:k] * P[:k, k])
    pi = np.zeros(len(T))
    pi[states] = x / ordered_sum(x)
    return pi
