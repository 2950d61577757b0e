"""Slot-level Monte Carlo check of a scheduling policy.

Each slot: read the queue, draw a fresh gain, pick a rate, spend
xi(rate)/gain, then update the queue with both clips (idle servers
cannot go negative, the buffer tops out at Q) and admit arrivals.
Arrivals join after transmission, so the queue read at decision time
never contains packets that arrived in the same slot.

A policy decides BLOCK slots at a time, giving the rate each queue
state would send in each slot, so the slot loop only follows the queue;
every statistic comes from the queue and rate paths afterwards.  One
table for the whole run would hold Q+1 rates per slot: on paper_iv it
raised a run's traced peak from 28 to 275-459 bytes per slot.

A policy asking for more than the backlog is counted as an underflow
override; the queue clip absorbs it, but energy is still charged for
the requested rate.  Policies produced in this package keep that
counter at zero; it exists to flag hand-written ones.

Determinism: a run is a pure function of (config, policy, slots,
warmup, seed).  The master seed splits into three streams (arrivals,
channel, policy randomization), so swapping the policy, even between
randomized and deterministic forms, never shifts the traffic or fading
sample paths.

Two delay estimates are reported: the backlog form mean-queue / mean
arrival rate, which is what the optimizer minimizes, and the per-packet
FIFO sojourn in slots (arrive at the end of slot t, depart in slot t',
wait t' - t).  Sojourns come from cumulative counts: the n-th admitted
packet is the n-th served one.  On a stationary run the two agree
within sampling error.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass

import numpy as np

from .model import SystemConfig, channel_cdf_inverse, mean_arrival_rate
from .model import mean_delay, step
from .textio import csv_lines, csv_text, kv_text

BATCHES = 32
BLOCK = 4096  # slots per decisions() call


@dataclass(frozen=True)
class SimReport:
    """Point estimates with batch-means standard errors.

    Standard errors come from splitting the measured window into
    `batches` (always 32) contiguous batches; they are honest for runs
    long enough that a batch spans many queue regeneration cycles.
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
    return np.searchsorted(cum, u, side="right")


def _batch_se(x: np.ndarray) -> float:
    """Batch-means standard error of the mean of x over BATCHES batches."""
    cut = (len(x) // BATCHES) * BATCHES
    means = x[:cut].reshape(BATCHES, -1).mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(BATCHES))


def run_sim(
    cfg: SystemConfig,
    policy,
    slots: int,
    warmup: int | None = None,
    seed: int = 0,
    trace_path: str | None = None,
) -> SimReport:
    """Simulate `slots` slots and estimate delay and power.

    `policy` is anything with decisions(gains, u): the (n, Q+1) rates
    of every queue state at n gains and uniform draws.  `warmup` defaults
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
    if measured < BATCHES:
        raise ValueError(
            f"measured window ({measured}) shorter than batches ({BATCHES})")

    # signed, so q - s stays exact when a policy asks for more than q
    small = np.min_scalar_type(-2 * max(cfg.Q, cfg.S_max))
    streams = [np.random.default_rng(s)
               for s in np.random.SeedSequence(seed).spawn(3)]
    arrivals = _sample_arrivals(cfg, streams[0].random(slots)).astype(small)
    gains = channel_cdf_inverse(cfg.channel, streams[1].random(slots))
    policy_u = streams[2].random(slots)

    qs = np.empty(slots, dtype=small)
    ss = np.empty(slots, dtype=small)
    q, Q = 0, cfg.Q
    for start in range(0, slots, BLOCK):
        block = slice(start, start + BLOCK)
        rates = policy.decisions(gains[block], policy_u[block])
        path = []
        for row, a in zip(rates.tolist(), arrivals[block].tolist()):
            path.append(q)
            # step(), inlined: min()/max() calls doubled this loop's time
            q = (q - row[q] if q > row[q] else 0) + a
            if q > Q:
                q = Q
        qs[block] = path
        ss[block] = rates[np.arange(len(path)), path]
    del policy_u

    # each full-length float array is freed once used: they dominate memory
    energy = np.asarray(cfg.xi_table)[ss] / gains
    if trace_path:
        with open(trace_path, "w") as fh:
            fh.writelines(csv_lines(zip(
                range(slots), qs.tolist(), arrivals.tolist(), gains.tolist(),
                ss.tolist(), energy.tolist())))
    del gains
    mean_power = float(energy[warmup:].mean())
    se_power = _batch_se(energy[warmup:])
    del energy

    served = np.minimum(ss, qs)
    admitted = step(cfg, qs, arrivals, ss) - (qs - served)
    drops = int(arrivals[warmup:].sum()) - int(admitted[warmup:].sum())
    # FIFO: the n-th served packet, which leaves in np.repeat(slot,
    # served)[n], is the n-th admitted one; the departures of the measured
    # window sum to slot @ served over it
    slot = np.arange(slots)
    first = int(served[:warmup].sum())
    sojourn_count = int(served[warmup:].sum())
    arrives = np.repeat(slot, admitted)[first:first + sojourn_count]
    sojourn_sum = int(slot[warmup:] @ served[warmup:]) - int(arrives.sum())

    mean_queue = float(qs[warmup:].mean())
    se_queue = _batch_se(qs[warmup:])
    return SimReport(
        slots=slots,
        warmup=warmup,
        seed=seed,
        batches=BATCHES,
        mean_queue=mean_queue,
        se_queue=se_queue,
        mean_power=mean_power,
        se_power=se_power,
        delay=mean_delay(cfg, mean_queue),
        se_delay=mean_delay(cfg, se_queue),
        sojourn_mean=sojourn_sum / sojourn_count if sojourn_count else 0.0,
        sojourn_count=sojourn_count,
        throughput=sojourn_count / measured,
        arrival_rate=mean_arrival_rate(cfg.arrival),
        drops=drops,
        drop_rate=drops / measured,
        underflow_overrides=int((ss[warmup:] > qs[warmup:]).sum()),
    )


def report_to_text(rep: SimReport) -> str:
    """Stable key=value rendering, one field per line, in field order."""
    return kv_text(asdict(rep).items())


def report_to_csv(rep: SimReport) -> str:
    return csv_text(",".join(asdict(rep)), [astuple(rep)])
