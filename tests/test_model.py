from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linksched.model import (
    ChannelModel,
    ConfigError,
    DiscretizationError,
    builtin_config_names,
    cell_of,
    channel_cdf_inverse,
    config_from_dict,
    discretize_channel,
    load_config,
    mean_arrival_rate,
    sorted_unique,
    validate_config,
)

from oracles import (gauss_integral, loop_cdf, loop_cdf_inverse,
                     loop_cell_of, loop_density, loop_discretize,
                     uniform_bin_stats)


@st.composite
def piecewise_channels(draw):
    """A valid piecewise channel of 1-5 pieces, some with zero density."""
    n = draw(st.integers(min_value=1, max_value=5))
    h_min = draw(st.floats(min_value=0.05, max_value=3.0))
    edges = [h_min]
    for w in draw(st.lists(st.floats(min_value=0.01, max_value=4.0),
                           min_size=n, max_size=n)):
        edges.append(edges[-1] + w)
    raw = draw(st.lists(st.just(0.0) | st.floats(min_value=0.01,
                                                   max_value=5.0),
                        min_size=n, max_size=n).filter(any))
    total = sum(r * (b - a) for r, a, b in zip(raw, edges[:-1], edges[1:]))
    return config_from_dict(_base_dict(channel={
        "kind": "piecewise", "h_min": h_min, "h_max": edges[-1],
        "table": [[e, r / total] for e, r in zip(edges[1:], raw)]})).channel


def _probe_gains(ch, disc_edges, u) -> list[float]:
    """Every breakpoint and bin edge, one ulp either side of each, and
    points spread from below h_min to beyond h_max."""
    marks = np.array(sorted({*ch.breaks, *disc_edges}))
    lo, hi = ch.h_min - 1.0, ch.h_max + 1.0
    return np.concatenate([marks, np.nextafter(marks, -np.inf),
                           np.nextafter(marks, np.inf),
                           lo + np.asarray(u) * (hi - lo)]).tolist()


def _base_dict(**overrides):
    d = {
        "arrival": {"alphas": [0.4, 0.3, 0.3]},
        "channel": {"kind": "uniform", "h_min": 0.5, "h_max": 10.0},
        "Q": 10,
        "S_max": 2,
        "xi_kind": "exp2minus1",
    }
    d.update(overrides)
    return d


class TestConfigValidation:
    def test_builtin_names(self):
        names = builtin_config_names()
        assert "paper_iv" in names and "tiny" in names

    def test_default_profile_values(self, paper_cfg):
        assert paper_cfg.arrival.alphas == (0.4, 0.3, 0.3)
        assert paper_cfg.arrival.max_arrivals == 2
        assert paper_cfg.Q == 10
        assert paper_cfg.S_max == 2
        assert paper_cfg.xi_table == (0.0, 1.0, 3.0)
        assert paper_cfg.channel.h_min == 0.5
        assert paper_cfg.channel.h_max == 10.0
        assert mean_arrival_rate(paper_cfg.arrival) == pytest.approx(0.9, abs=1e-15)

    def test_probabilities_must_sum(self):
        with pytest.raises(ConfigError, match="alphas sum to .*, not 1"):
            config_from_dict(_base_dict(arrival={"alphas": [0.5, 0.4]}))

    def test_negative_probability(self):
        with pytest.raises(ConfigError, match="negative arrival"):
            config_from_dict(_base_dict(arrival={"alphas": [1.2, -0.2]}))

    def test_h_min_positive(self):
        with pytest.raises(ConfigError, match="h_min"):
            config_from_dict(_base_dict(
                channel={"kind": "uniform", "h_min": 0.0, "h_max": 10.0}))

    def test_rates_cover_arrivals(self):
        with pytest.raises(ConfigError, match="S_max < A"):
            config_from_dict(_base_dict(S_max=1, xi=[0.0, 1.0]))

    def test_buffer_holds_arrivals(self):
        with pytest.raises(ConfigError, match="Q < A"):
            config_from_dict(_base_dict(Q=1))

    def test_xi_strictly_increasing(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            config_from_dict(_base_dict(xi=[0.0, 1.0, 1.0]))

    def test_xi_zero_nonnegative(self):
        with pytest.raises(ConfigError, match="xi\\(0\\)"):
            config_from_dict(_base_dict(xi=[-1.0, 1.0, 3.0]))

    def test_missing_field_named(self):
        with pytest.raises(ConfigError, match="missing field 'arrival"):
            config_from_dict({"channel": {"kind": "uniform", "h_min": 1,
                                          "h_max": 2}, "Q": 4, "S_max": 2})

    def test_bad_alphas_type_named(self):
        with pytest.raises(ConfigError, match="arrival.alphas"):
            config_from_dict(_base_dict(arrival={"alphas": "lots"}))

    def test_piecewise_density_normalized(self):
        table = [[1.0, 0.1], [2.0, 0.2]]
        with pytest.raises(ConfigError, match="integrate to 1"):
            config_from_dict(_base_dict(
                channel={"kind": "piecewise", "h_min": 0.5, "h_max": 2.0,
                         "table": table}))

    def test_load_config_unknown_path(self, tmp_path):
        with pytest.raises((ConfigError, FileNotFoundError)):
            load_config(str(tmp_path / "nope.json"))

    def test_load_config_json_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_base_dict()))
        cfg = load_config(str(path))
        assert cfg.Q == 10 and cfg.xi(2) == 3.0


class TestDiscretization:
    def test_two_bins_match_quadrature(self, paper_cfg):
        disc = discretize_channel(paper_cfg.channel, 2)
        edges, masses, inv_means = uniform_bin_stats(0.5, 10.0, 2)
        assert disc.edges == pytest.approx(edges, abs=1e-15)
        assert disc.masses == pytest.approx(masses, abs=1e-12)
        assert disc.inv_means == pytest.approx(inv_means, rel=1e-12)
        # independent quadrature route for the conditional mean of 1/h
        for k in range(2):
            lo, hi = edges[k], edges[k + 1]
            num = gauss_integral(lambda h: (1.0 / h) * (1.0 / 9.5), lo, hi)
            assert disc.inv_means[k] == pytest.approx(num / masses[k], rel=1e-12)

    def test_single_bin_inverse_mean(self, paper_cfg):
        disc = discretize_channel(paper_cfg.channel, 1)
        assert disc.inv_means[0] == pytest.approx(
            math.log(20.0) / 9.5, rel=1e-14)

    def test_masses_sum_to_one(self, paper_cfg):
        for bins in (1, 3, 7, 16):
            disc = discretize_channel(paper_cfg.channel, bins)
            assert sum(disc.masses) == pytest.approx(1.0, abs=1e-10)

    def test_empty_bin_rejected(self):
        cfg = config_from_dict(_base_dict(
            channel={"kind": "piecewise", "h_min": 0.5, "h_max": 2.5,
                     "table": [[1.5, 0.0], [2.5, 1.0]]}))
        with pytest.raises(DiscretizationError, match="empty channel bin"):
            discretize_channel(cfg.channel, 2)

    def test_bin_of_boundaries(self, paper_cfg, disc16):
        assert disc16.bin_of(paper_cfg.channel.h_min) == 0
        assert disc16.bin_of(paper_cfg.channel.h_max) == 15
        # bins are half-open on the left: an edge belongs to the bin it closes
        assert disc16.bin_of(disc16.edges[1]) == 0
        assert disc16.bin_of(disc16.edges[1] + 1e-9) == 1

    @given(st.floats(min_value=0.5, max_value=10.0,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_bin_of_consistent_with_edges(self, h):
        cfg = load_config("paper_iv")
        disc = discretize_channel(cfg.channel, 7)
        k = disc.bin_of(h)
        assert 0 <= k < 7
        if h > disc.edges[0]:
            assert disc.edges[k] < h <= disc.edges[k + 1] or h == pytest.approx(
                disc.edges[k + 1])


class TestLoopForms:
    """The channel law equals the piece-by-piece loops of the oracles
    bit for bit on random piecewise channels."""

    @given(piecewise_channels(), st.integers(min_value=1, max_value=12),
           st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=20))
    @settings(max_examples=150, deadline=None)
    def test_matches_loops_bitwise(self, ch, bins, u):
        want = loop_discretize(ch, bins)
        if want is None:
            with pytest.raises(DiscretizationError):
                discretize_channel(ch, bins)
            return
        disc = discretize_channel(ch, bins)
        for got, ref in zip((disc.edges, disc.masses, disc.inv_means), want):
            assert all(type(x) is float for x in got)
            assert np.array(got).tobytes() == np.array(ref).tobytes()
        assert ch.edges(bins).tobytes() == np.array(disc.edges).tobytes()
        hs = _probe_gains(ch, disc.edges, u)
        assert (np.array([ch.cdf(h) for h in hs]).tobytes()
                == np.array([loop_cdf(ch, h) for h in hs]).tobytes())
        want = np.array([loop_density(ch, h) for h in hs])
        assert ch.density(np.array(hs)).tobytes() == want.tobytes()
        assert np.array([ch.density(h) for h in hs]).tobytes() == want.tobytes()
        us = np.concatenate([[0.0, 1.0], u, [loop_cdf(ch, e)
                                            for e in ch.breaks]]).clip(0, 1)
        want = np.array([loop_cdf_inverse(ch, float(x)) for x in us])
        assert channel_cdf_inverse(ch, us).tobytes() == want.tobytes()

    @given(piecewise_channels(), st.integers(min_value=1, max_value=12),
           st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_cell_of_array_matches_scalar(self, ch, bins, u):
        edges = ch.edges(bins)
        hs = _probe_gains(ch, edges, u)
        want = [loop_cell_of(edges, h) for h in hs]
        assert cell_of(edges, np.array(hs)).tolist() == want
        assert [int(cell_of(edges, h)) for h in hs] == want


class TestCdfInverse:
    def test_uniform_linear(self, paper_cfg):
        ch = paper_cfg.channel
        assert channel_cdf_inverse(ch, 0.0) == 0.5
        assert channel_cdf_inverse(ch, 1.0) == 10.0
        assert channel_cdf_inverse(ch, 0.5) == pytest.approx(5.25)

    def test_out_of_range(self, paper_cfg):
        with pytest.raises(ValueError):
            channel_cdf_inverse(paper_cfg.channel, -0.1)
        with pytest.raises(ValueError):
            channel_cdf_inverse(paper_cfg.channel, 1.1)

    def test_piecewise_flat_stretch_leftmost(self):
        cfg = config_from_dict(_base_dict(
            channel={"kind": "piecewise", "h_min": 1.0, "h_max": 4.0,
                     "table": [[2.0, 1.0], [3.0, 0.0], [4.0, 0.0]]}))
        ch = cfg.channel
        assert channel_cdf_inverse(ch, 1.0) == pytest.approx(2.0)
        assert channel_cdf_inverse(ch, 0.25) == pytest.approx(1.25)

    @pytest.mark.parametrize("table", [
        [[2.0, 0.3], [3.0, 0.0], [10.0, 0.55 / 7]],
        [[1.0, 0.0], [2.0, 0.4], [10.0, 0.6 / 8]],
        [[4.0, 2.0 / 7], [10.0, 0.0]],
    ], ids=["middle", "first", "last"])
    def test_array_matches_loop(self, table):
        # a zero-density stretch, probed at u = 0, u = 1, at each
        # cumulative boundary and one ulp either side of it
        ch = config_from_dict(_base_dict(channel={
            "kind": "piecewise", "h_min": 0.5, "h_max": 10.0,
            "table": table})).channel
        edges, values = ch.pieces()
        acc, bounds = 0.0, []
        for a, b, v in zip(edges[:-1], edges[1:], values):
            acc += v * (b - a)
            bounds.append(acc)
        bounds = np.array(bounds)
        us = np.concatenate([
            [0.0, 1.0], bounds, np.nextafter(bounds, 0.0),
            np.minimum(np.nextafter(bounds, 2.0), 1.0),
            np.random.default_rng(0).random(200)])
        want = np.array([loop_cdf_inverse(ch, float(u)) for u in us])
        assert channel_cdf_inverse(ch, us).tobytes() == want.tobytes()
        scalar = [channel_cdf_inverse(ch, float(u)) for u in us]
        assert all(type(h) is float for h in scalar)
        assert np.array(scalar).tobytes() == want.tobytes()

    def test_uniform_array_formula(self, paper_cfg):
        ch = paper_cfg.channel
        u = np.random.default_rng(0).random(100)
        want = ch.h_min + u * (ch.h_max - ch.h_min)
        assert channel_cdf_inverse(ch, u).tobytes() == want.tobytes()

    @given(st.floats(min_value=0.0, max_value=1.0,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_inverse_hits_cdf(self, u):
        cfg = load_config("paper_iv")
        ch = cfg.channel
        h = channel_cdf_inverse(ch, u)
        assert ch.h_min <= h <= ch.h_max
        assert ch.cdf(h) == pytest.approx(u, abs=1e-12)


class TestXi:
    def test_exp2minus1(self, paper_cfg):
        assert [paper_cfg.xi(s) for s in range(3)] == [0.0, 1.0, 3.0]

    def test_explicit_table(self):
        cfg = config_from_dict(_base_dict(xi=[0.0, 2.0, 5.0]))
        assert cfg.xi(2) == 5.0


class TestSortedUnique:
    @given(st.lists(st.sampled_from([0.5, 1.0, 1.0 + 2e-16, 2.5, 3.0, 10.0])
                    | st.floats(min_value=0.1, max_value=10.0),
                    max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_bitwise_np_unique(self, values):
        a = np.array(values, dtype=float)
        got = sorted_unique(a)
        assert got.dtype == np.float64
        assert got.tobytes() == np.unique(a).tobytes()
