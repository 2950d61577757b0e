"""Slot-level Monte Carlo check of a scheduling policy.

Each slot: read the queue, draw a fresh gain, pick a rate, spend
xi(rate)/gain, then update the queue with both clips (idle servers
cannot go negative, the buffer tops out at Q) and admit arrivals.
Arrivals join after transmission, so the queue read at decision time
never contains packets that arrived in the same slot.

A policy decides BLOCK slots at a time, giving the rate each queue
state would send in each slot; both policy kinds find each gain's cell
with a model.CellIndex (a bucket table and a few exact comparisons in
place of a binary search) and gather the cell's row of rates from a
table, both built on first use.  Arrival counts are comparisons with
the arrival CDF, summed.  With every state's rate known, a slot's
queue law is a map from states to states, and maps compose, so the
queue is followed a block at a time by a two-level scan (Blelloch
1990, prefix sums over an associative operator): one gather per slot
carries every start state through each CHUNK of slots, the chunk
starts are walked one chunk at a time, and one gather per slot fills
every chunk's path.  Each step runs on contiguous operands of one
shape: a block's maps are one model.step call on (slots, states)
arrays (a per-run table holding every state in each row, the arrival
counts repeated along each row, and the rates), and the start states
carried through the chunks are a (states, chunks) array, so each
slot's offset is added along its long axis; numpy 2.4's int8 maximum
and minimum ran about ten times slower against a scalar or a
broadcast row or column.  The path is integer arithmetic, so reports
and traces are byte for byte those of a slot-by-slot loop
(tests/oracles.py's loop_run_sim), and decisions those of a binary
search (block_decisions there).  A run streams: each block draws its
share of the three random streams (consecutive draws of a stream are
the doubles one long draw gives), and its gains, rates, queue path,
energy, trace lines (one str.format call a line) and counters are made
and used before the next block starts.  Per slot a run keeps one queue state,
in model.path_dtype (int8 while Q and S_max are at most 63), and one
float64 energy, so the means and batch errors sum the same arrays in
the same order as over whole-run paths: about 9 bytes a slot, where
whole-run draws, gains and rates held 28, and one decision table for
the whole run 275-459 (Q+1 rates a slot).  The state table and each
block's arrays grow with BLOCK, not with the run.

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
wait t' - t).  Sojourns sum exactly, as integers, block by block: each
measured slot adds its number once per packet served and subtracts it
once per packet admitted.  Two edges are then mended: the packets
queued when the warmup ends depart in the window but arrived before
it, and those queued at the end arrived in it but never depart.  A
FIFO queue of k packets holds the last k admitted, so both sets are
read off the last few slots that admitted any (_last_admitted).  On a
stationary run the two estimates agree within sampling error.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import asdict, astuple, dataclass

import numpy as np

from .model import SystemConfig, channel_cdf_inverse, mean_arrival_rate
from .model import mean_delay, path_dtype, step
from .textio import csv_text, kv_text, line_format

BATCHES = 32
BLOCK = 16384  # slots per decisions() call, a multiple of CHUNK
CHUNK = 16  # slots per composed queue map in _queue_path
# one trace.csv line, slot,q,a,h,s,energy: csv_lines' bytes
TRACE_LINE = line_format(int, int, int, float, int, float).format


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


def _sample_arrivals(cfg: SystemConfig, u: np.ndarray, dtype) -> np.ndarray:
    """The arrival count of each uniform draw: how many of P(a <= k),
    k = 0..A (the last set to exactly 1), it reaches.  That is
    searchsorted(..., side="right"), by A + 1 comparisons."""
    cum = np.cumsum(np.asarray(cfg.arrival.alphas))
    cum[-1] = 1.0
    a = np.zeros(u.size, dtype=dtype)
    for c in cum.tolist():
        a += u >= c
    return a


def _batch_se(x: np.ndarray) -> float:
    """Batch-means standard error of the mean of x over BATCHES batches."""
    cut = (len(x) // BATCHES) * BATCHES
    means = x[:cut].reshape(BATCHES, -1).mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(BATCHES))


def _queue_path(cfg: SystemConfig, rates: np.ndarray, arrivals: np.ndarray,
                q: int, states: np.ndarray) -> tuple[np.ndarray, int]:
    """The queue state at each slot of a block entered in state q, and
    the state after it.

    Slot t maps every state to its next, step(state, arrivals[t],
    rates[t, state]), and maps compose: within each CHUNK of slots, one
    gather per slot carries every start state through the chunk, the
    chunk starts are walked one chunk at a time, and one gather per slot
    fills every chunk's path at once.  A short last chunk is padded with
    identity maps.  rates and arrivals share the small signed dtype of
    the path, in which step is exact.  states holds every state in
    order in each row, in that dtype, with at least n rows rounded up
    to a whole CHUNK: it is step's state operand, and the identity map
    of the padding.
    """
    n, width = rates.shape
    chunks = -(-n // CHUNK)
    maps = np.empty((chunks * CHUNK, width), dtype=rates.dtype)
    maps[:n] = step(cfg, states[:n], arrivals.repeat(width).reshape(n, width),
                    rates)
    maps[n:] = states[n:chunks * CHUNK]
    maps = maps.ravel()
    # offsets[j, c]: where the map of slot j of chunk c starts in maps
    offsets = (np.arange(0, CHUNK * width, width)[:, None]
               + np.arange(0, maps.size, CHUNK * width))
    # through[p, c]: the state that p, entering chunk c, has reached
    through = states[0, :, None]
    for at in offsets:
        through = maps.take(at + through)
    starts = []
    flat = through.T.ravel().tolist()  # a list per chunk ran slower
    for row in range(0, len(flat), width):
        starts.append(q)
        q = flat[row + q]
    path = np.empty((CHUNK, chunks), dtype=rates.dtype)
    path[0] = starts
    for j in range(1, CHUNK):
        path[j] = maps.take(offsets[j - 1] + path[j - 1])
    return path.T.ravel()[:n], q


def _last_admitted(held: np.ndarray, start: int, admitted: np.ndarray,
                   k) -> np.ndarray:
    """The arrival slots of the last k packets among those `held`
    (arrival slots, oldest first) and admitted[j] more in each slot
    start + j: what a FIFO queue of k packets holds.  Each slot that
    admits one adds at least one, so only the last k such slots count.
    """
    k = int(k)
    at = np.flatnonzero(admitted != 0)  # int8's own took four times as long
    at = at[max(at.size - k, 0):]
    held = np.concatenate([held, np.repeat(start + at, admitted[at])])
    return held[held.size - k:]


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

    small = path_dtype(cfg)
    streams = [np.random.default_rng(s)
               for s in np.random.SeedSequence(seed).spawn(3)]
    xi = np.asarray(cfg.xi_table)
    offsets = np.arange(BLOCK)
    # _queue_path's state table; BLOCK is a whole number of chunks
    states = np.tile(np.arange(cfg.Q + 1, dtype=small), (BLOCK, 1))
    qs = np.empty(slots, dtype=small)
    energy = np.empty(slots)
    q = 0
    held = offsets[:0]  # the arrival slots of the queued packets
    drops = overrides = sojourn_count = sojourn_sum = 0
    with open(trace_path, "w") if trace_path else nullcontext() as trace:
        for start in range(0, slots, BLOCK):
            n = min(BLOCK, slots - start)
            arrivals = _sample_arrivals(cfg, streams[0].random(n), small)
            gains = channel_cdf_inverse(cfg.channel, streams[1].random(n))
            rates = policy.decisions(gains, streams[2].random(n))
            rates = rates.astype(small, copy=False)
            path, q = _queue_path(cfg, rates, arrivals, q, states)
            ss = rates.take(offsets[:n] * rates.shape[1] + path)
            spent = energy[start:start + n]
            np.divide(xi.take(ss), gains, out=spent)
            qs[start:start + n] = path
            if trace_path:
                trace.write("".join(map(
                    TRACE_LINE, range(start, start + n), path.tolist(),
                    arrivals.tolist(), gains.tolist(), ss.tolist(),
                    spent.tolist())))

            served = np.minimum(ss, path)
            admitted = step(cfg, path, arrivals, ss) - (path - served)
            m = min(max(warmup - start, 0), n)  # measured from start + m
            if m < n:
                drops += int(arrivals[m:].sum()) - int(admitted[m:].sum())
                overrides += int((ss[m:] > path[m:]).sum())
                sojourn_count += int(served[m:].sum())
                net = (served - admitted)[m:]
                sojourn_sum += start * int(net.sum()) + int(offsets[m:n] @ net)
            if start <= warmup < start + n:
                sojourn_sum -= int(_last_admitted(
                    held, start, admitted[:m], path[m]).sum())
            held = _last_admitted(held, start, admitted, q)
    sojourn_sum += int(held.sum())

    mean_power = float(energy[warmup:].mean())
    se_power = _batch_se(energy[warmup:])
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
        underflow_overrides=overrides,
    )


def report_to_text(rep: SimReport) -> str:
    """Stable key=value rendering, one field per line, in field order."""
    return kv_text(asdict(rep).items())


def report_to_csv(rep: SimReport) -> str:
    return csv_text(",".join(asdict(rep)), [astuple(rep)])
