from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from linksched.model import (DiscretizationError, channel_cdf_inverse,
                             config_from_dict, discretize_channel,
                             path_dtype)
from linksched.occupancy_lp import (
    Policy,
    evaluate_measure,
    extract_policy,
    min_delay,
    policy_to_measure,
    solve_constrained,
)
from linksched.construction import (
    ThresholdPolicy,
    compute_thresholds,
    density_from_measure,
    to_threshold_policy,
)
from linksched.simulator import (
    BLOCK,
    _sample_arrivals,
    report_to_csv,
    report_to_text,
    run_sim,
    step,
)
from linksched.textio import csv_lines, kv_text

from oracles import (block_decisions, loop_cell_of, loop_decision,
                     loop_run_sim)

NO_ARRIVALS = {
    "arrival": {"alphas": [1.0]},
    "channel": {"kind": "uniform", "h_min": 0.5, "h_max": 10.0},
    "Q": 10, "S_max": 2, "xi_kind": "exp2minus1"}
# no arrivals allow no service at all: S_max may be 0
NO_SERVICE = {**NO_ARRIVALS, "S_max": 0}
# every slot brings 64 packets, the most a Q = S_max = 64 buffer admits
FULL_BURST_64 = {**NO_ARRIVALS, "arrival": {"alphas": [0.0] * 64 + [1.0]},
                 "Q": 64, "S_max": 64}


class _Always:
    """Sends a fixed rate regardless of state; for counter checks."""

    def __init__(self, s: int, Q: int = 10):  # paper_iv and NO_ARRIVALS
        self.s, self.Q = s, Q

    def decisions(self, gains, u):
        return np.full((len(gains), self.Q + 1), self.s)


@pytest.fixture(scope="module")
def drain_policy(paper_cfg, disc16):
    _, m = min_delay(paper_cfg, disc16)
    return extract_policy(m)


class TestStep:
    def test_examples(self, paper_cfg):
        assert step(paper_cfg, 5, 1, 2) == 4
        assert step(paper_cfg, 1, 0, 2) == 0  # service floors at empty
        assert step(paper_cfg, 10, 2, 0) == 10  # buffer caps at Q
        assert step(paper_cfg, 0, 2, 0) == 2

    @given(q=st.integers(0, 10), a=st.integers(0, 2), s=st.integers(0, 2))
    @settings(max_examples=200, deadline=None)
    def test_always_in_range(self, paper_cfg, q, a, s):
        nxt = step(paper_cfg, q, a, s)
        assert 0 <= nxt <= paper_cfg.Q
        if s <= q and q - s + a <= paper_cfg.Q:
            assert nxt == q - s + a

    def test_path_dtype_holds_a_full_burst(self):
        # q + a reaches Q + A = 128 before the buffer cap, one past int8
        cfg = config_from_dict(FULL_BURST_64)
        small = path_dtype(cfg)
        q, a, s = (np.array([v], dtype=small) for v in (64, 64, 0))
        assert step(cfg, q, a, s).tolist() == [64]
        idle = ThresholdPolicy(
            cfg, tuple(np.array([0.5, 10.0]) for _ in range(65)),
            tuple(np.zeros(1, dtype=int) for _ in range(65)),
            np.zeros(65, dtype=bool))
        rep = run_sim(cfg, idle, 5000, seed=0)
        assert rep.mean_queue == 64.0

    @pytest.mark.parametrize("Q,dtype", [(63, np.int8), (64, np.int16)])
    def test_path_dtype_is_int8_to_63(self, Q, dtype):
        cfg = config_from_dict({**FULL_BURST_64, "Q": Q, "S_max": Q,
                                "arrival": {"alphas": [1.0]}})
        assert path_dtype(cfg) == dtype


class TestArrivals:
    @pytest.mark.parametrize("alphas", [[0.4, 0.3, 0.3], [1.0],
                                        [0.1, 0.0, 0.2, 0.7]])
    def test_counts_are_searchsorted_right(self, alphas):
        cfg = config_from_dict({**NO_ARRIVALS, "S_max": 3,
                                "arrival": {"alphas": alphas}})
        cum = np.cumsum(alphas)
        cum[-1] = 1.0
        u = np.concatenate([_beside(np.append(cum, 0.0)).clip(0.0, 1.0),
                            np.random.default_rng(0).random(1000)])
        got = _sample_arrivals(cfg, u, np.int8)
        assert got.dtype == np.int8
        assert got.tolist() == np.searchsorted(cum, u, side="right").tolist()


class TestValidation:
    def test_warmup_must_leave_a_window(self, paper_cfg, drain_policy):
        with pytest.raises(ValueError, match="must exceed warmup"):
            run_sim(paper_cfg, drain_policy, 1000, warmup=1000)

    def test_negative_warmup(self, paper_cfg, drain_policy):
        with pytest.raises(ValueError, match="warmup must be >= 0"):
            run_sim(paper_cfg, drain_policy, 1000, warmup=-1)

    def test_window_shorter_than_batches(self, paper_cfg, drain_policy):
        with pytest.raises(ValueError, match="measured window"):
            run_sim(paper_cfg, drain_policy, 1010, warmup=1000)

    def test_default_warmup(self, paper_cfg, drain_policy):
        rep = run_sim(paper_cfg, drain_policy, 5000)
        assert rep.warmup == 1000
        rep = run_sim(paper_cfg, drain_policy, 100_000)
        assert rep.warmup == 10_000


class TestDeterminism:
    def test_same_seed_same_bytes(self, paper_cfg, drain_policy):
        a = run_sim(paper_cfg, drain_policy, 20_000, seed=3)
        b = run_sim(paper_cfg, drain_policy, 20_000, seed=3)
        assert report_to_csv(a) == report_to_csv(b)

    def test_different_seed_moves_estimates(self, paper_cfg, drain_policy):
        a = run_sim(paper_cfg, drain_policy, 20_000, seed=3)
        b = run_sim(paper_cfg, drain_policy, 20_000, seed=4)
        assert a.mean_queue != b.mean_queue

    def test_trace_reproducible(self, paper_cfg, drain_policy, tmp_path):
        p1, p2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        run_sim(paper_cfg, drain_policy, 3000, seed=5, trace_path=str(p1))
        run_sim(paper_cfg, drain_policy, 3000, seed=5, trace_path=str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert len(p1.read_text().splitlines()) == 3000

    def test_policy_format_does_not_shift_sample_path(
            self, paper_cfg, disc16, drain_policy):
        # the same deterministic rule in table form and threshold form
        # must see identical traffic and fading, hence identical output
        _, m = min_delay(paper_cfg, disc16)
        thr = to_threshold_policy(
            compute_thresholds(density_from_measure(m), 16))
        a = run_sim(paper_cfg, drain_policy, 20_000, seed=9)
        b = run_sim(paper_cfg, thr, 20_000, seed=9)
        assert report_to_csv(a) == report_to_csv(b)


class TestAgainstExactValues:
    def test_drain_policy_matches_stationary_law(
            self, paper_cfg, disc16, drain_policy):
        m = policy_to_measure(drain_policy)
        d_exact, p_exact = evaluate_measure(m)
        rep = run_sim(paper_cfg, drain_policy, 200_000, seed=1)
        assert abs(rep.delay - d_exact) <= 3 * rep.se_delay
        assert abs(rep.mean_power - p_exact) <= 3 * rep.se_power
        assert rep.drops == 0
        assert rep.underflow_overrides == 0

    def test_sojourn_agrees_with_backlog_delay(
            self, paper_cfg, drain_policy):
        rep = run_sim(paper_cfg, drain_policy, 200_000, seed=1)
        assert rep.sojourn_count > 0
        assert abs(rep.sojourn_mean - rep.delay) <= 4 * rep.se_delay

    def test_throughput_matches_offered_load(self, paper_cfg, drain_policy):
        rep = run_sim(paper_cfg, drain_policy, 200_000, seed=2)
        assert rep.arrival_rate == pytest.approx(0.9)
        assert rep.throughput == pytest.approx(0.9, abs=0.02)

    def test_no_arrivals_is_silent(self):
        cfg = config_from_dict(NO_ARRIVALS)
        rep = run_sim(cfg, _Always(0), 5000, seed=0)
        assert rep.mean_queue == 0.0
        assert rep.mean_power == 0.0
        assert rep.delay == 0.0
        assert rep.throughput == 0.0
        assert rep.sojourn_count == 0 and rep.sojourn_mean == 0.0
        assert rep.drops == 0


class TestCounters:
    def test_never_sending_fills_the_buffer(self, paper_cfg):
        rep = run_sim(paper_cfg, _Always(0), 20_000, seed=0)
        assert rep.drops > 0
        assert rep.drop_rate == pytest.approx(rep.drops / (20_000 - 2000))
        assert rep.underflow_overrides == 0
        assert rep.mean_queue == pytest.approx(10.0, abs=0.01)

    def test_oversending_is_counted_not_crashed(self, paper_cfg):
        rep = run_sim(paper_cfg, _Always(2), 20_000, seed=0)
        assert rep.underflow_overrides > 0
        assert rep.drops == 0
        # energy is charged for the requested rate even when the queue
        # cannot supply it, so power stays at the full-rate level
        assert rep.mean_power > 0.5


class TestMemory:
    @pytest.mark.parametrize("kind", ["bin", "threshold"])
    def test_peak_grows_at_most_12_bytes_per_slot(
            self, paper_cfg, solution16, density16, kind):
        # a run keeps one int8 queue path and one float64 energy per
        # slot; full-length draws or gains add 8 bytes each, and
        # a decision table for the whole run, not a block, hundreds
        pol = (extract_policy(solution16.measure) if kind == "bin" else
               to_threshold_policy(compute_thresholds(density16, 2000)))
        peaks = []
        for slots in (250_000, 500_000):
            tracemalloc.start()
            try:
                run_sim(paper_cfg, pol, slots, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 250_000 <= 12


class TestReportFormats:
    def test_text_round_trips_floats(self, paper_cfg, drain_policy):
        rep = run_sim(paper_cfg, drain_policy, 5000, seed=7)
        text = report_to_text(rep)
        parsed = dict(ln.split("=", 1) for ln in text.strip().splitlines())
        assert len(parsed) == 17
        assert float(parsed["mean_queue"]) == rep.mean_queue
        assert float(parsed["mean_power"]) == rep.mean_power
        assert int(parsed["drops"]) == rep.drops
        assert int(parsed["seed"]) == 7

    def test_csv_shape(self, paper_cfg, drain_policy):
        rep = run_sim(paper_cfg, drain_policy, 5000, seed=7)
        lines = report_to_csv(rep).strip().splitlines()
        assert len(lines) == 2
        header, row = (ln.split(",") for ln in lines)
        assert len(header) == len(row) == 17
        assert header[0] == "slots" and row[0] == "5000"


def _beside(x) -> np.ndarray:
    """Each value, and one ulp below and above it."""
    x = np.asarray(x, dtype=float)
    return np.concatenate([x, np.nextafter(x, -np.inf),
                           np.nextafter(x, np.inf)])


class TestDecisions:
    """decisions() against the slot-by-slot oracle, rate for rate, at
    gains on and one ulp beside every bin edge and rule bound, and, for
    bin policies, draws on and beside every cumulative mass of the
    gain's bin."""

    @pytest.fixture(scope="class", params=[
        "mixed-m16", "piecewise", "threshold-k200", "threshold-k2000",
        "threshold-disjoint"])
    def pol(self, request, paper_cfg, piecewise_cfg, solution16, density16):
        if request.param == "mixed-m16":
            return extract_policy(solution16.measure)
        if request.param == "threshold-disjoint":
            # no two states share an inner bound, so each state's rules
            # are split at every other state's bounds in the merged grid
            ch, Q, S = paper_cfg.channel, paper_cfg.Q, paper_cfg.S_max
            inner = np.linspace(0.7, 9.8, 2 * (Q + 1)).reshape(Q + 1, 2)
            bounds = tuple(np.array([ch.h_min, *b[:1 + q % 2], ch.h_max])
                           for q, b in enumerate(inner))
            rates = tuple((q + np.arange(len(b) - 1)) % (S + 1)
                          for q, b in enumerate(bounds))
            return ThresholdPolicy(paper_cfg, bounds, rates,
                                   np.zeros(Q + 1, dtype=bool))
        if request.param == "piecewise":
            disc5 = discretize_channel(piecewise_cfg.channel, 5)
            return extract_policy(
                solve_constrained(piecewise_cfg, disc5, 3.0).measure)
        cells = int(request.param.removeprefix("threshold-k"))
        return to_threshold_policy(compute_thresholds(density16, cells))

    def test_matches_loop_decision(self, pol):
        ch, Q = pol.cfg.channel, pol.cfg.Q
        bin_policy = hasattr(pol, "table")
        marks = pol.disc.edges if bin_policy else np.concatenate(pol.bounds)
        gains = _beside(np.unique(np.append(marks, [ch.h_min, ch.h_max])))

        def draw(h: float, j: int) -> float:
            """The j-th uniform draw, wrapping around; for a bin policy
            the draws are 0 and each cumulative mass of h's bin, and one
            ulp either side of them, clipped to [0, 1]."""
            us = np.linspace(0.0, 1.0, 256)
            if bin_policy:
                row = pol.table[:, loop_cell_of(pol.disc.edges, h)]
                cum = np.append(0.0, np.cumsum(row, axis=1))
                us = np.unique(_beside(cum).clip(0.0, 1.0))
            return float(us[j % len(us)])

        # an inner test, so the falsifying example prints only the
        # pairs: a K=2000 policy as an argument reprs to over 50 kB, and
        # hypothesis's warning about that is an error in this suite
        @given(st.lists(st.tuples(st.sampled_from(gains.tolist()),
                                  st.integers(0, 255)),
                        min_size=1, max_size=32))
        @settings(max_examples=200, deadline=None)
        def check(pairs):
            hs = [h for h, _ in pairs]
            us = [draw(h, j) for h, j in pairs]
            got = pol.decisions(np.array(hs), np.array(us))
            assert got.shape == (len(hs), Q + 1)
            assert got.tolist() == [
                [loop_decision(pol, q, h, u) for q in range(Q + 1)]
                for h, u in zip(hs, us)]

        check()


class TestBlockReference:
    """decisions() against the binary-search and fancy-indexing form of
    tests/oracles.py, bit for bit and dtype for dtype, on whole blocks:
    random gains and draws, every bin edge or rule bound and one ulp
    beside it, and draws of exactly 0, 1 and every cumulative mass."""

    @pytest.fixture(scope="class", params=["mixed", "one-hot", "threshold"])
    def pol(self, request, paper_cfg, solution16, density16, drain_policy):
        if request.param == "mixed":
            pol = extract_policy(solution16.measure)
            assert pol.kind == "probabilistic"
            return pol
        if request.param == "one-hot":
            assert drain_policy.kind == "deterministic"
            return drain_policy
        return to_threshold_policy(compute_thresholds(density16, 2000))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_block_reference(self, pol, seed):
        rng = np.random.default_rng(seed)
        marks = (np.asarray(pol.disc.edges) if hasattr(pol, "table")
                 else np.concatenate(pol.bounds))
        gains = np.concatenate([
            channel_cdf_inverse(pol.cfg.channel, rng.random(BLOCK)),
            _beside(marks)])
        rng.shuffle(gains)
        u = rng.random(gains.size)
        if hasattr(pol, "table"):
            special = np.unique(np.append(np.cumsum(pol.table, axis=2),
                                          [0.0, 1.0]).clip(0.0, 1.0))
            u[::7] = rng.choice(special, u[::7].size)
        got = pol.decisions(gains, u)
        want = block_decisions(pol, gains, u)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestLoopReference:
    """The path-based simulator against its slot-loop form: the same
    report and trace, to the last byte."""

    @pytest.fixture(scope="class")
    def cases(self, paper_cfg, piecewise_cfg, tiny_cfg, solution16,
              density16):
        _, m = min_delay(piecewise_cfg,
                         discretize_channel(piecewise_cfg.channel, 5))
        mixed = extract_policy(solution16.measure)
        assert mixed.kind == "probabilistic"
        tiny_mixed = extract_policy(solve_constrained(
            tiny_cfg, discretize_channel(tiny_cfg.channel, 3), 1.2).measure)
        assert tiny_mixed.kind == "probabilistic"
        no_service = config_from_dict(NO_SERVICE)
        _, m0 = min_delay(no_service,
                          discretize_channel(no_service.channel, 3))
        burst = config_from_dict(FULL_BURST_64)
        # bursts of 64 in half the slots: the int16 path moves
        half_burst = config_from_dict(
            {**FULL_BURST_64, "arrival": {"alphas": [0.5] + [0.0] * 63
                                          + [0.5]}})
        return {
            # the carry across blocks, and a last block of one slot
            "two-blocks-and-one": (paper_cfg, mixed, 2 * BLOCK + 1, None),
            # a warmup that ends inside a later block than the first
            "warmup-past-a-block": (paper_cfg, mixed, 3 * BLOCK + 17,
                                    BLOCK + 5),
            "s-max-1": (tiny_cfg, tiny_mixed, 6000, None),
            "s-max-0": (no_service, extract_policy(m0), 3000, None),
            "bin": (paper_cfg, mixed, 6000, None),
            "threshold": (paper_cfg, to_threshold_policy(
                compute_thresholds(density16, 200)), 6000, None),
            "never-send": (paper_cfg, _Always(0), 6000, None),
            "over-send": (paper_cfg, _Always(2), 6000, None),
            "warmup-0": (paper_cfg, mixed, 3000, 0),
            "no-arrivals": (config_from_dict(NO_ARRIVALS), _Always(1), 3000,
                            None),
            "piecewise": (piecewise_cfg, extract_policy(m), 6000, 500),
            # Q = S_max = 64: the path, rates and arrivals are int16
            "full-burst-64": (burst, _idle_or_drain(burst), 6000, None),
            "half-burst-64": (half_burst, _idle_or_drain(half_burst), 6000,
                              None),
        }

    @pytest.mark.parametrize("seed", [0, 17])
    @pytest.mark.parametrize("name", ["bin", "threshold", "never-send",
                                      "over-send", "warmup-0", "no-arrivals",
                                      "piecewise", "two-blocks-and-one",
                                      "warmup-past-a-block", "s-max-1",
                                      "s-max-0", "full-burst-64",
                                      "half-burst-64"])
    def test_matches_loop(self, cases, tmp_path, name, seed):
        cfg, pol, slots, warmup = cases[name]
        path = tmp_path / "trace.csv"
        rep = run_sim(cfg, pol, slots, warmup=warmup, seed=seed,
                      trace_path=str(path))
        fields, rows = loop_run_sim(cfg, pol, slots, rep.warmup, seed)
        assert report_to_text(rep) == kv_text(fields.items())
        assert path.read_text() == "".join(csv_lines(rows))

    def test_random_configs_match_loop(self, tmp_path):
        # over BLOCK + 1 slots, so every run carries its queue into a
        # second block of one slot
        path = tmp_path / "trace.csv"

        @given(_random_case(), st.integers(0, 2**16))
        @settings(max_examples=20, deadline=None)
        def check(case, seed):
            cfg, pol = case
            rep = run_sim(cfg, pol, BLOCK + 1, seed=seed,
                          trace_path=str(path))
            fields, rows = loop_run_sim(cfg, pol, BLOCK + 1, rep.warmup, seed)
            assert report_to_text(rep) == kv_text(fields.items())
            assert path.read_text() == "".join(csv_lines(rows))

        check()


def _idle_or_drain(cfg) -> ThresholdPolicy:
    """State q sends nothing at gains up to 3 and q above: idle in a
    full buffer of Q = 64, a burst of 64 reaches 128 before the cap."""
    ch, Q = cfg.channel, cfg.Q
    return ThresholdPolicy(
        cfg, tuple(np.array([ch.h_min, 3.0, ch.h_max]) for _ in range(Q + 1)),
        tuple(np.array([0, q]) for q in range(Q + 1)),
        np.zeros(Q + 1, dtype=bool))


@st.composite
def _random_case(draw):
    """A small config (Q in 1..12, arrivals of 0..A with A in 1..3,
    S_max in A..4, a uniform channel or a piecewise one with up to three
    pieces, some of zero density) and a bin policy on 1..4 bins whose
    rows are all one-hot or all random mixes of the rates."""
    weights = draw(st.lists(st.integers(0, 3), min_size=2, max_size=4)
                   .filter(lambda w: w[-1] > 0))
    A = len(weights) - 1
    h_min = draw(st.sampled_from([0.1, 0.5, 1.0]))
    channel = {"kind": "uniform", "h_min": h_min, "h_max": 10.0}
    if draw(st.booleans()):
        inner = draw(st.lists(st.sampled_from([2.0, 3.0, 5.0, 7.5]),
                              max_size=2, unique=True))
        edges = [h_min, *sorted(inner), 10.0]
        mass = draw(st.lists(st.integers(0, 3), min_size=len(edges) - 1,
                             max_size=len(edges) - 1).filter(any))
        channel = {"kind": "piecewise", "h_min": h_min, "h_max": 10.0,
                   "table": [[b, m / sum(mass) / (b - a)]
                             for a, b, m in zip(edges, edges[1:], mass)]}
    cfg = config_from_dict({
        "arrival": {"alphas": [w / sum(weights) for w in weights]},
        "channel": channel, "Q": draw(st.integers(A, 12)),
        "S_max": draw(st.integers(A, 4)), "xi_kind": "exp2minus1"})
    try:
        disc = discretize_channel(cfg.channel, draw(st.integers(1, 4)))
    except DiscretizationError:  # a bin inside a zero-density piece
        assume(False)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (cfg.Q + 1, disc.bins, cfg.S_max + 1)
    if draw(st.booleans()):
        table = np.eye(cfg.S_max + 1)[rng.integers(0, cfg.S_max + 1,
                                                   shape[:2])]
    else:
        table = rng.integers(0, 3, shape) * (rng.random(shape) < 0.5)
        table[..., 0] += table.sum(axis=2) == 0
        table = table / table.sum(axis=2, keepdims=True)
    return cfg, Policy(cfg, disc, table, np.zeros(shape[:2], dtype=bool))
