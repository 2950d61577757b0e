from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from linksched import chain
from linksched.chain import (
    ReducibleChainError,
    closed_classes,
    kernel,
    stationary,
    transition_table,
)
from linksched.model import config_from_dict, discretize_channel, step
from linksched.occupancy_lp import extract_policy

from oracles import loop_closed_classes, loop_queue_kernel


@st.composite
def queue_configs(draw):
    """Random arrival law, buffer and rate grid on a fixed channel."""
    weights = draw(st.lists(st.integers(0, 9), min_size=1, max_size=4)
                   .filter(any))
    A = len(weights) - 1
    return config_from_dict({
        "arrival": {"alphas": [w / sum(weights) for w in weights]},
        "channel": {"kind": "uniform", "h_min": 1.0, "h_max": 2.0},
        "Q": draw(st.integers(A, A + 8)),
        "S_max": draw(st.integers(A, A + 3)),
        "xi_kind": "exp2minus1"})


@st.composite
def stochastic_matrices(draw):
    """Row-stochastic matrices of up to 12 states with planted zeros: an
    entry's weight 0..9 survives above a drawn sparsity level, so the
    chains run from dense to nearly empty, and a row with no surviving
    entry becomes an absorbing state."""
    n = draw(st.integers(1, 12))
    level = draw(st.integers(0, 9))
    w = np.array(draw(st.lists(st.integers(0, 9), min_size=n * n,
                               max_size=n * n)), dtype=float).reshape(n, n)
    w[w <= level] = 0.0
    empty = np.flatnonzero(w.sum(axis=1) == 0.0)
    w[empty, empty] = 1.0
    return w / w.sum(axis=1, keepdims=True)


# 0 absorbing, 1 and 2 transient into it
ABSORBING = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
# {0, 1} and {3} closed, 2 transient into both
TWO_CLASSES = np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                        [0.25, 0.0, 0.5, 0.25], [0.0, 0.0, 0.0, 1.0]])
# one periodic class {1, 2}, 0 transient into it
PERIODIC = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


class TestTransitionTable:
    @given(cfg=queue_configs())
    @settings(max_examples=100, deadline=None)
    def test_table_is_the_queue_law(self, cfg):
        P, mask = transition_table(cfg)
        Q, S, A = cfg.Q, cfg.S_max, cfg.arrival.max_arrivals
        assert P.shape == (Q + 1, S + 1, Q + 1)
        assert P.sum(axis=2) == pytest.approx(np.ones((Q + 1, S + 1)),
                                              abs=1e-12)
        for q in range(Q + 1):
            for s in range(S + 1):
                want = np.zeros(Q + 1)
                for a, alpha in enumerate(cfg.arrival.alphas):
                    want[step(cfg, q, a, s)] += alpha
                assert P[q, s] == pytest.approx(want, abs=1e-15)
        pairs = [(q, s) for q in range(Q + 1) for s in range(S + 1)
                 if 0 <= q - s <= Q - A]
        assert [tuple(qs) for qs in np.argwhere(mask)] == pairs


class TestLoopReference:
    """The array code against its loop form."""

    def test_queue_kernel(self, paper_cfg, disc16, solution16):
        # equal to the last bit
        pol = extract_policy(solution16.measure)
        assert np.array_equal(
            kernel(paper_cfg, disc16.masses, pol.table),
            loop_queue_kernel(paper_cfg.Q, paper_cfg.arrival.alphas,
                              disc16.masses, pol.table))

    @given(T=stochastic_matrices())
    @example(T=ABSORBING)
    @example(T=TWO_CLASSES)
    @example(T=PERIODIC)
    @settings(max_examples=200, deadline=None)
    def test_closed_classes(self, T):
        assert closed_classes(T) == loop_closed_classes(T)


class TestStationary:
    @given(T=stochastic_matrices())
    @example(T=ABSORBING)
    @example(T=TWO_CLASSES)
    @example(T=PERIODIC)
    @settings(max_examples=200, deadline=None)
    def test_law_of_one_closed_class(self, T):
        closed = closed_classes(T)
        if len(closed) > 1:
            with pytest.raises(ReducibleChainError, match="both closed"):
                stationary(T)
            return
        pi = stationary(T)
        assert np.abs(pi @ T - pi).max() <= 1e-12
        assert abs(pi.sum() - 1.0) <= 1e-12
        transient = np.setdiff1d(np.arange(len(T)), closed[0])
        assert (pi >= 0.0).all() and (pi[transient] <= 1e-12).all()

    def test_singular_stationary_system_falls_back_to_lstsq(
            self, paper_cfg, disc16, solution16, monkeypatch):
        pol = extract_policy(solution16.measure)
        T = kernel(paper_cfg, disc16.masses, pol.table)
        want = stationary(T)

        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(chain.np.linalg, "solve", singular)
        got = stationary(T)
        assert np.abs(got - want).max() <= 1e-12

    def test_reducible_chain_names_both_classes(self, tiny_cfg):
        disc = discretize_channel(tiny_cfg.channel, 1)
        # hold at q=2 forever, drain at q=1: {0,1} and {2} are both closed
        table = np.zeros((3, 1, 2))
        table[0, 0, 0] = 1.0
        table[1, 0, 1] = 1.0
        table[2, 0, 0] = 1.0
        T = kernel(tiny_cfg, disc.masses, table)
        with pytest.raises(ReducibleChainError,
                           match=r"states \[0, 1\] and states \[2\] are "
                                 "both closed"):
            stationary(T)
