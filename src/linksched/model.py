"""System model: arrivals, block-fading channel, and channel discretization.

Queues and transmission rates live on the integer grids {0..Q} and
{0..S_max}.  The channel gain is continuous on (h_min, h_max] with a
bounded density, either uniform or piecewise constant.  Discretization
splits (h_min, h_max] into equal-width bins and keeps, per bin, the
probability mass and the exact conditional mean of 1/h, so that any
schedule that is constant on bins has its average power reproduced
exactly by the discretized objective.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

PROB_TOL_ARRIVAL = 1e-12
PROB_TOL_CHANNEL = 1e-10


class ConfigError(ValueError):
    """A model invariant is violated; the message names the first one."""


class DiscretizationError(ValueError):
    """Channel discretization failed (e.g. a bin carries no mass)."""


@dataclass(frozen=True)
class ArrivalModel:
    """I.i.d. arrivals per slot: P(a = k) = alphas[k], k = 0..A."""

    alphas: tuple[float, ...]

    @property
    def max_arrivals(self) -> int:
        return len(self.alphas) - 1


@dataclass(frozen=True)
class ChannelModel:
    """Channel gain density on (h_min, h_max].

    kind "uniform" needs no table.  kind "piecewise" carries a table of
    (edge, value) pairs: value_i is the density on (edge_{i-1}, edge_i]
    with edge_0 = h_min, and the last edge must equal h_max.
    """

    h_min: float
    h_max: float
    kind: str = "uniform"
    table: tuple[tuple[float, float], ...] = ()

    @property
    def breaks(self) -> tuple[float, ...]:
        """h_min, then each constant piece's right edge; the last is h_max."""
        if self.kind == "uniform":
            return (self.h_min, self.h_max)
        return (self.h_min,) + tuple(e for e, _ in self.table)

    def pieces(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Breakpoints and per-piece density values."""
        if self.kind == "uniform":
            return self.breaks, (1.0 / (self.h_max - self.h_min),)
        return self.breaks, tuple(v for _, v in self.table)

    def edges(self, n: int) -> np.ndarray:
        """The n + 1 edges of n equal-width cells, both endpoints exact."""
        e = self.h_min + np.arange(n + 1) * ((self.h_max - self.h_min) / n)
        e[0], e[-1] = self.h_min, self.h_max
        return e

    def density(self, h):
        """The density at each gain, elementwise; h_min and below count
        for the first piece, beyond h_max for the last."""
        edges, values = self.pieces()
        return np.asarray(values)[cell_of(edges, h)]

    def integral(self, lo: float, hi: float) -> tuple[float, float]:
        """(integral of f, integral of f/h) over (lo, hi], exact per
        constant piece.  math.log, not np.log: the two disagree in the
        last bit on some inputs, and E[1/h | bin] is pinned bit for bit."""
        edges, values = self.pieces()
        mass = inv = 0.0
        for a, b, v in zip(edges[:-1], edges[1:], values):
            left, right = max(a, lo), min(b, hi)
            if right > left:
                mass += v * (right - left)
                if v > 0:
                    inv += v * math.log(right / left)
        return mass, inv

    def cdf(self, h: float) -> float:
        return self.integral(self.h_min, h)[0]


@dataclass(frozen=True)
class SystemConfig:
    """Full single-link system: arrivals, channel, buffer and rate grid.

    xi_table[s] is the energy per slot of rate s at unit gain; the cost
    of rate s at gain h is xi_table[s] / h.
    """

    arrival: ArrivalModel
    channel: ChannelModel
    Q: int
    S_max: int
    xi_table: tuple[float, ...]

    def xi(self, s: int) -> float:
        return self.xi_table[s]


@dataclass(frozen=True)
class ChannelDiscretization:
    """Equal-width bins of (h_min, h_max].

    edges has M+1 entries; bin k (1-based in math, 0-based here) is
    (edges[k], edges[k+1]].  masses[k] integrates the density over the
    bin and inv_means[k] is E[1/h | h in bin k].
    """

    edges: tuple[float, ...]
    masses: tuple[float, ...]
    inv_means: tuple[float, ...]

    @property
    def bins(self) -> int:
        return len(self.masses)

    def bin_of(self, h: float) -> int:
        """Index of the bin containing h; h_min itself maps to bin 0."""
        return int(cell_of(self.edges, h))


def cell_of(edges, h):
    """The i with edges[i] < h <= edges[i+1] for ascending edges,
    elementwise, clipped to the first and last cell, so h_min itself
    falls in cell 0."""
    return np.clip(np.searchsorted(edges, h, side="left") - 1, 0,
                   len(edges) - 2)


def sorted_unique(a) -> np.ndarray:
    """The distinct values of a, ascending: np.unique's array, from a
    sort and a neighbour comparison, as np.unique imports numpy.ma on
    its first call."""
    a = np.sort(np.ravel(a))
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def step(cfg: SystemConfig, q, a, s):
    """The queue law: serve s (floored at empty), then admit a (capped at Q).

    Elementwise on integer arrays as well as on plain ints.
    """
    return np.minimum(np.maximum(q - s, 0) + a, cfg.Q)


def drain_rate(cfg: SystemConfig, q):
    """The rate of a queue state a policy never visits: drain as fast
    as allowed, min(q, S_max).  Elementwise in q."""
    return np.minimum(q, cfg.S_max)


def mean_arrival_rate(arr: ArrivalModel) -> float:
    """Average packets per slot, sum of k * alphas[k]."""
    return sum(k * a for k, a in enumerate(arr.alphas))


def mean_delay(cfg: SystemConfig, mean_queue):
    """Mean queue over mean arrival rate (Little's law), elementwise; with
    no arrivals the mean queue itself.  This is the delay the LP prices."""
    abar = mean_arrival_rate(cfg.arrival)
    return mean_queue / abar if abar > 0 else mean_queue


def validate_config(cfg: SystemConfig) -> None:
    """Raise ConfigError naming the first violated invariant."""
    arr, ch = cfg.arrival, cfg.channel
    if len(arr.alphas) == 0:
        raise ConfigError("arrival alphas are empty")
    if any(a < 0 for a in arr.alphas):
        raise ConfigError("negative arrival probability in alphas")
    if abs(sum(arr.alphas) - 1.0) > PROB_TOL_ARRIVAL:
        raise ConfigError(
            f"arrival alphas sum to {sum(arr.alphas)!r}, not 1")
    if ch.h_min <= 0:
        raise ConfigError("h_min <= 0")
    if ch.h_max <= ch.h_min:
        raise ConfigError("h_max <= h_min")
    if ch.kind not in ("uniform", "piecewise"):
        raise ConfigError(f"unknown channel kind '{ch.kind}'")
    if ch.kind == "piecewise":
        if not ch.table:
            raise ConfigError("piecewise channel has an empty table")
        edges, values = ch.pieces()
        if any(b <= a for a, b in zip(edges[:-1], edges[1:])):
            raise ConfigError("channel table edges not increasing")
        if abs(edges[-1] - ch.h_max) > 0:
            raise ConfigError("channel table does not end at h_max")
        if any(v < 0 for v in values):
            raise ConfigError("negative channel density")
    total, _ = ch.integral(ch.h_min, ch.h_max)
    if abs(total - 1.0) > PROB_TOL_CHANNEL:
        raise ConfigError("channel density does not integrate to 1")
    A = arr.max_arrivals
    if cfg.S_max < A:
        raise ConfigError("S_max < A")
    if cfg.Q < A:
        raise ConfigError("Q < A")
    if len(cfg.xi_table) != cfg.S_max + 1:
        raise ConfigError("xi table length is not S_max + 1")
    if cfg.xi_table[0] < 0:
        raise ConfigError("xi(0) < 0")
    if any(b <= a for a, b in zip(cfg.xi_table[:-1], cfg.xi_table[1:])):
        raise ConfigError("xi not strictly increasing")


def discretize_channel(ch: ChannelModel, bins: int) -> ChannelDiscretization:
    """Split (h_min, h_max] into `bins` equal-width bins.

    Raises DiscretizationError if a bin carries no probability mass:
    the conditional mean of 1/h is undefined there.
    """
    if bins < 1:
        raise DiscretizationError("bins must be >= 1")
    edges = tuple(ch.edges(bins).tolist())
    stats = [ch.integral(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    if any(p <= 0.0 for p, _ in stats):
        raise DiscretizationError("empty channel bin")
    return ChannelDiscretization(edges, tuple(p for p, _ in stats),
                                 tuple(inv / p for p, inv in stats))


def channel_cdf_inverse(ch: ChannelModel, u):
    """Leftmost h with CDF(h) >= u, elementwise for u in [0, 1].

    Flat stretches of the CDF (zero-density pieces) resolve to their
    left endpoint, matching the bin convention h in (lo, hi].  A scalar
    u gives a Python float, an array an array.
    """
    u = np.asarray(u, dtype=float)
    if ((u < 0.0) | (u > 1.0)).any():
        raise ValueError("u outside [0, 1]")
    if ch.kind == "uniform":
        h = ch.h_min + u * (ch.h_max - ch.h_min)
    else:
        edges, values = (np.array(x) for x in ch.pieces())
        acc = np.array([ch.cdf(e) for e in ch.breaks])  # mass below piece i
        i = np.searchsorted(acc[1:], u, side="left")  # first acc[i+1] >= u
        j = np.minimum(i, len(values) - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = np.minimum(edges[j] + (u - acc[j]) / values[j],
                               edges[j + 1])
        h = np.where(i == len(values), ch.h_max,
                     np.where(values[j] <= 0.0, edges[j], inner))
    return float(h) if h.ndim == 0 else h


# --- configuration files -------------------------------------------------

_BUILTIN_CONFIGS: dict[str, dict] = {
    # Bursty source over a wide uniform fading range; the default demo.
    "paper_iv": {
        "arrival": {"alphas": [0.4, 0.3, 0.3]},
        "channel": {"kind": "uniform", "h_min": 0.5, "h_max": 10.0},
        "Q": 10,
        "S_max": 2,
        "xi_kind": "exp2minus1",
    },
    # Smallest nontrivial instance; used by the exhaustive oracle tests.
    "tiny": {
        "arrival": {"alphas": [0.5, 0.5]},
        "channel": {"kind": "uniform", "h_min": 1.0, "h_max": 2.0},
        "Q": 2,
        "S_max": 1,
        "xi_kind": "exp2minus1",
    },
}


def builtin_config_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTIN_CONFIGS))


def config_from_dict(raw: dict) -> SystemConfig:
    """Build and validate a SystemConfig from parsed JSON.

    Errors name the offending field.  Booleans are not numbers here,
    although JSON true and false load as Python's 1 and 0.
    """

    def get(path: str):
        d, at = raw, ""
        for key in path.split("."):
            at += key
            if not isinstance(d, dict) or key not in d:
                raise ConfigError(f"missing field '{at}'")
            d, at = d[key], at + "."
        return d

    def typed(path: str, value, types, what: str):
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigError(f"field '{path}' must be {what}, got {value!r}")
        return value

    def numbers(path: str, value) -> tuple[float, ...]:
        what = "a list of numbers"
        return tuple(float(typed(path, x, (int, float), what))
                     for x in typed(path, value, list, what))

    alphas = numbers("arrival.alphas", get("arrival.alphas"))
    kind = get("channel.kind")
    h_min, h_max = (float(typed(p, get(p), (int, float), "a number"))
                    for p in ("channel.h_min", "channel.h_max"))
    table: tuple[tuple[float, ...], ...] = ()
    if kind == "piecewise":
        pairs = "a list of (edge, value) pairs"
        table = tuple(numbers("channel.table", row) for row in
                      typed("channel.table", get("channel.table"), list, pairs))
        if any(len(row) != 2 for row in table):
            raise ConfigError(f"field 'channel.table' must be {pairs}")
    Q, S_max = (typed(p, get(p), int, "an integer") for p in ("Q", "S_max"))
    if "xi" in raw:
        xi = numbers("xi", raw["xi"])
        if len(xi) != S_max + 1:
            raise ConfigError("field 'xi' must be a list of length S_max + 1")
    elif raw.get("xi_kind") == "exp2minus1":
        xi = tuple(float(2**s - 1) for s in range(S_max + 1))
    else:
        raise ConfigError("missing field 'xi' (or xi_kind 'exp2minus1')")
    cfg = SystemConfig(
        arrival=ArrivalModel(alphas),
        channel=ChannelModel(h_min, h_max, str(kind), table),
        Q=Q,
        S_max=S_max,
        xi_table=xi,
    )
    validate_config(cfg)
    return cfg


def load_config(name_or_path: str) -> SystemConfig:
    """Resolve a builtin config name or read a JSON config file."""
    if name_or_path in _BUILTIN_CONFIGS:
        return config_from_dict(_BUILTIN_CONFIGS[name_or_path])
    with open(name_or_path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {name_or_path}: {exc}") from exc
    return config_from_dict(raw)
