"""Slot-level Monte Carlo check of a scheduling policy.

Each slot: read the queue, draw a fresh gain, pick a rate, spend
xi(rate)/gain, then update the queue with both clips (idle servers
cannot go negative, the buffer tops out at Q) and admit arrivals.
Arrivals join after transmission, so the queue read at decision time
never contains packets that arrived in the same slot.

A policy asking for more than the backlog is counted as an underflow
override; the queue clip absorbs it, but energy is still charged for
the requested rate.  Policies produced in this package keep that
counter at zero; it exists to flag hand-written ones.

Determinism: a run is a pure function of (config, policy, slots,
warmup, seed, batches).  The master seed splits into three streams
(arrivals, channel, policy randomization), so swapping the policy,
even between randomized and deterministic forms, never shifts the
traffic or fading sample paths.

Two delay estimates are reported: the backlog form mean-queue / mean
arrival rate, which is what the optimizer minimizes, and the per-packet
FIFO sojourn in slots (arrive at the end of slot t, depart in slot t',
wait t' - t).  On a stationary run they agree within sampling error.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, astuple, dataclass

import numpy as np

from .model import SystemConfig, channel_cdf_inverse, mean_arrival_rate
from .model import mean_delay, step  # noqa: F401  (step is re-exported)
from .textio import csv_text, kv_text

MIN_BATCHES = 30


@dataclass(frozen=True)
class SimReport:
    """Point estimates with batch-means standard errors.

    Standard errors come from splitting the measured window into
    `batches` contiguous batches; they are honest for runs long enough
    that a batch spans many queue regeneration cycles.
    """

    slots: int
    warmup: int
    seed: int
    batches: int
    mean_queue: float
    se_queue: float
    mean_power: float
    se_power: float
    delay: float  # mean_queue / arrival_rate
    se_delay: float
    sojourn_mean: float  # FIFO per-packet wait, in slots
    sojourn_count: int
    throughput: float  # packets served per slot
    arrival_rate: float
    drops: int
    drop_rate: float
    underflow_overrides: int


def _sample_arrivals(cfg: SystemConfig, u: np.ndarray) -> np.ndarray:
    cum = np.cumsum(np.asarray(cfg.arrival.alphas))
    cum[-1] = 1.0
    return np.searchsorted(cum, u, side="right").astype(np.int64)


def _sample_gains(cfg: SystemConfig, u: np.ndarray) -> np.ndarray:
    ch = cfg.channel
    if ch.kind == "uniform":
        return ch.h_min + u * (ch.h_max - ch.h_min)
    return np.array([channel_cdf_inverse(ch, float(v)) for v in u])


def run_sim(
    cfg: SystemConfig,
    policy,
    slots: int,
    warmup: int | None = None,
    seed: int = 0,
    batches: int = 32,
    trace_path: str | None = None,
) -> SimReport:
    """Simulate `slots` slots and estimate delay and power.

    `policy` is anything with sample_rate(q, h, u).  `warmup` defaults
    to max(slots // 10, 1000); those slots run but are not measured.
    `trace_path`, if given, receives one "slot,q,a,h,s,energy" line per
    slot (large: one line per simulated slot).
    """
    if warmup is None:
        warmup = max(slots // 10, 1000)
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    measured = slots - warmup
    if measured <= 0:
        raise ValueError(f"slots ({slots}) must exceed warmup ({warmup})")
    if batches < MIN_BATCHES:
        raise ValueError(f"batches must be >= {MIN_BATCHES}, got {batches}")
    if measured < batches:
        raise ValueError(
            f"measured window ({measured}) shorter than batches ({batches})")

    streams = [np.random.default_rng(s)
               for s in np.random.SeedSequence(seed).spawn(3)]
    arrivals = _sample_arrivals(cfg, streams[0].random(slots))
    gains = _sample_gains(cfg, streams[1].random(slots))
    policy_u = streams[2].random(slots)

    Q = cfg.Q
    xi = [cfg.xi(s) for s in range(cfg.S_max + 1)]
    q = 0
    fifo: deque[int] = deque()
    queue_trace = np.empty(measured)
    power_trace = np.empty(measured)
    served_total = 0
    drops = 0
    overrides = 0
    sojourn_sum = 0
    sojourn_count = 0
    trace = open(trace_path, "w") if trace_path else None
    try:
        for t in range(slots):
            h = float(gains[t])
            a = int(arrivals[t])
            s = int(policy.sample_rate(q, h, float(policy_u[t])))
            energy = xi[s] / h
            served = s if s <= q else q
            left = q - served
            dropped = left + a - Q
            dropped = dropped if dropped > 0 else 0
            if trace is not None:
                trace.write(f"{t},{q},{a},{h:.17g},{s},{energy:.17g}\n")
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
            q = left + a - dropped  # model.step, unrolled to count drops
    finally:
        if trace is not None:
            trace.close()

    abar = mean_arrival_rate(cfg.arrival)
    mean_queue = float(queue_trace.mean())
    mean_power = float(power_trace.mean())

    def batch_se(trace_arr: np.ndarray) -> float:
        cut = (measured // batches) * batches
        means = trace_arr[:cut].reshape(batches, -1).mean(axis=1)
        return float(means.std(ddof=1) / np.sqrt(batches))

    se_queue = batch_se(queue_trace)
    se_power = batch_se(power_trace)
    return SimReport(
        slots=slots,
        warmup=warmup,
        seed=seed,
        batches=batches,
        mean_queue=mean_queue,
        se_queue=se_queue,
        mean_power=mean_power,
        se_power=se_power,
        delay=mean_delay(cfg, mean_queue),
        se_delay=mean_delay(cfg, se_queue),
        sojourn_mean=sojourn_sum / sojourn_count if sojourn_count else 0.0,
        sojourn_count=sojourn_count,
        throughput=served_total / measured,
        arrival_rate=abar,
        drops=drops,
        drop_rate=drops / measured,
        underflow_overrides=overrides,
    )


def report_to_text(rep: SimReport) -> str:
    """Stable key=value rendering, one field per line, in field order."""
    return kv_text(asdict(rep).items())


def report_to_csv(rep: SimReport) -> str:
    return csv_text(",".join(asdict(rep)), [astuple(rep)])
