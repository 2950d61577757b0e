"""Two-phase primal simplex on a condensed tableau, with Bland's rule.

The LPs solved here are small and heavily degenerate, so Bland's rule
is used unconditionally: the entering variable is the lowest-index
column with reduced cost below -OPT_TOL, and the leaving row breaks
ratio ties by the lowest basis index.  Each choice reads only the
entries it needs: the lowest label among the columns whose reduced
cost qualifies, and the ratios of the rows whose entry in the entering
column exceeds PIV_TOL, gathered and divided.  Reduced costs are
recomputed at every pivot, the basic costs times the whole tableau,
rather than updated by the pivots, trading a little speed for
drift-free pivoting;
the basic and nonbasic cost vectors, cost[basis] and cost[nb], are
carried and swapped by each exchange with the labels.

Columns carry labels, their index in the full tableau: the n
structural columns, then one slack per A_ub row, then one artificial
per row that needs one (every equality row and every A_ub row negated
for a negative right-hand side).  Only the nonbasic columns are
stored, since the basic ones are unit vectors that a pivot never
changes.  The condensed tableau N has one row per constraint and
holds the nonbasic columns, zero-padded to a multiple of 4, then the
RHS; nb[p] labels column p and basis[i] the basic variable of row i.
Phase 1 starts with the structural columns and the slacks of negated
rows nonbasic; the slacks of the other rows and the artificials start
basic and are never stored.

A pivot on (r, p) is an exchange: the labels and costs are swapped,
column p is copied out, the leaving variable's unit column e_r takes
its slot, row r is divided by the pivot and col (x) row r is
subtracted from every row (col[r] = 0).  Every stored entry thus gets,
bit for bit, the arithmetic a full tableau would give it.  The
subtraction is an in-place BLAS rank-1 update, N <- N - col row, a
K = 1 dgemm from the OpenBLAS that numpy bundles (through ctypes,
resolved on the first solve and bound once per tableau; numpy's
einsum, EINSUM_ROWS rows at a time, where numpy links another BLAS).
With K = 1 every entry is round(N - round(col_i * row_j)), the two
roundings of an outer product followed by a subtraction, so both
kernels, and any split of the rows between calls, give the same bits.
dger and daxpy would not: they contract the multiply and the
subtraction into one fused multiply-add, which rounds once.  The
einsum form reads its rows at their full stride, so each call
subtracts from one contiguous block.

The exchange is one pass over the tableau.  It runs the update one
row block at a time (_row_blocks), and right after each block's update,
while the block is still in cache, adds the block's share of the next
pricing, cost_B[block] @ head[block], to the tableau's priced buffer;
so a pivot reads the tableau from memory once, not a second time for a
pricing gemv.  A block holds at most BLOCK_BYTES, a constant: the
blocks follow from it and the tableau's width, never from the host's
cache size, so the pivots chosen are the same on every machine.  On
paper_iv every tableau up to M = 16 is one block (the largest, the
M = 16 budget solve's phase-1 tableau, is 0.67 MB), priced by one gemv
as a separate pass would; at M = 64 phase 1 splits into 11 blocks and
phase 2 into 6.  The drive-out's exchanges, which no price picks,
price nothing.

The reduced costs that choose the pivots are cost_nb minus priced:
one gemv for a one-block tableau, else a sum of the blocks' gemvs,
whose last bits can differ from one gemv's.  The reduced costs a solve
returns at optimality, which the duals are read off, always come from
one gemv of cost_B over the whole padded width.  OpenBLAS computes each
group of 4 output columns the same way wherever it sits in the matrix,
but not the last width % 4, so without the padding a column's reduced
cost would depend on where the exchanges have put it.  (A
multithreaded gemv splits its output at thread-dependent columns, so
the bits hold single-threaded.)

Every tableau's rows start on 64-byte boundaries, a cache line and
the widest vector, at a stride of the width rounded up to 8 doubles:
_tableau_array makes each one a view of a flat buffer from its first
64-byte boundary.  A row of paper_iv's M = 16 phase-2 tableau is 257
doubles, so without the padding no row after the first would start on
a line, and the dgemm and the pricing gemv would split loads and
stores across lines.  On a 2-core x86-64 machine with one BLAS
thread, padded and aligned, the 176 x 257 dgemm took 9.2-9.5 us
instead of 15.2, and the gemv 4.1-5.9 us instead of 6.7-6.9; with the
stride padded but the base 16 bytes off a line they took 11-13 and
7-9 us, so both the stride and the base count.  The bits hold: with
K = 1 every entry is round(N - round(col_i * row_j)) at any stride,
and OpenBLAS computes each output column of the gemv the same way at
any row stride and base offset.  The drop below writes the kept rows
at their own stride into the front of phase 1's buffer and shrinks
the buffer in place; if realloc moves it, which would leave the rows
off their lines, or something else still refers to it, the kept rows
go to a fresh aligned copy.

Equality rows that phase 1 proves redundant (their artificial stays
basic at a value <= FEAS_TOL and cannot be pivoted out) are dropped
before phase 2, and so are the nonbasic artificial columns, which can
never enter again.  Phase 1, the drive-out and the drop are
feasible_start.  They read only the rows, never the objective, so
their outcome, a FeasibleStart, serves any objective over the same
rows.  solve_simplex(lp) makes lp's own start and pivots it in place;
solve_simplex(lp, start) shares one made before and pivots a copy,
with the same result bit for bit.

LPs whose rows differ only in A_ub row 0's right-hand side (a delay
budget) can share both phases as far as their paths agree:
trunk_solves runs the largest budget's own solve and carries every
smaller budget along its path as one number, its RHS on that row,
until the budget leaves to finish on a copy of the walk's tableau.
A tableau counts the pivots of the path that made it, so a copy
starts from the walk's counts.

Objectives over one LP's rows are independent from their shared
start, so objective_solves spreads a list of them over processes
forked for the call, one per further CPU, which inherit the start and
send back their results: the same code on the same arrays, so the
same bits.

x, the objective, the pivot counts and the dropped rows are those of
the full-tableau method bit for bit.  The dual of each A_ub row is
minus the final reduced cost of its slack, 0 when the slack is basic
or the row was dropped.  The tableau keeps every A_ub row's slack, a
negated row's too: there the slack's column is -e_i, so the same rule
gives the dual of the row as the LP states it.  The full tableau reads
a negated row's dual off its artificial instead, and prices over its
unpadded width, so its duals can differ from these in the last bit.
An "optimal" point is checked against every row of the LP, dropped
ones included; a miss beyond ROW_TOL is a SimplexAnomaly, not an
answer.  tests/oracles.py's dense_solve_simplex is the full-tableau
method, the reference of these bits.

Memory, in doubles: phase 1 pivots one tableau array of rows x
(n + negated A_ub rows, padded, + 1) in place.  At the drop it
writes the kept rows and columns, an array of kept rows x
(n + mu - kept rows, padded, + 1), into the front of that same array's
buffer, row by row through a one-row buffer that carries the zero
padding too, and shrinks the buffer in place to them (ndarray.resize;
a copy only when something else, such as a debugger's frame locals,
still refers to it, or the buffer moved).  That array is the start's
T, and phase 2 of solve_simplex(lp) pivots it in place, so a cold
solve's peak is phase 1's one array.  Every tableau array holds at
most 7 padding doubles per row, to its stride, plus 7 per buffer, to
its first 64-byte boundary: 7 of 440 doubles a row in the M = 16
budget solve's phase 1 (1.6%), and 7 of 264 in its phase 2.  From a
shared start a solve holds the start and its copy.  trunk_solves
pivots the largest budget's start in place to its end, and finishes
each smaller budget that leaves the walk on a copy of it, one at a
time: its peak is two start-sized arrays, and neither outlives the
call.  Each tableau comes with small buffers, allocated once: the
entering column, the pivot row, the pricing product and, only for a
tableau of several row blocks, one block's share of it.  The exchange
writes only into them and the tableau and allocates no array data;
the einsum form adds one zero-padded pivot row per row block and, per
call, a temporary of EINSUM_ROWS padded rows, about 14 KB at M = 16.
Pricing and the ratio test make only numpy's temporaries of the
tableau's width or height, and the reduced costs and the entering
candidates go before the exchange; there is no ratios buffer, only
the ratios of the eligible rows.  On paper_iv a budget solve's
phase-1 array is about 0.67 MB at M = 16 and 10.7 MB at M = 64, and
the shared start's T about 0.36 and 5.8 MB.
"""

from __future__ import annotations

import os
import pickle
import warnings
from dataclasses import dataclass, replace
from functools import cache, partial

import numpy as np

OPT_TOL = 1e-9  # reduced cost threshold for optimality
FEAS_TOL = 1e-9  # phase-1 objective / artificial value threshold
# The pivot row is divided by its pivot element, so an element below the
# feasibility scale magnifies rounding at that scale past the row
# tolerances: a pivot on 1.2e-11 once left a point 0.73 off a bin row.
PIV_TOL = 1e-9  # smallest pivot element admitted in the ratio test
DRIVE_TOL = 1e-7  # smallest pivot used when driving artificials out
ROW_TOL = 1e-8  # largest row miss an "optimal" point may have
MAX_PIVOTS = 200_000  # per phase; beyond this the solve is an anomaly
# up to this many entries x costs, no child is forked: tiny's rounds
# never fork up to M = 16, paper_iv's fork from 11 weights at M = 3
# and from 2 at M = 8 and above
FORKED_ENTRIES = 16384
# most bytes of one row block of a pivot (_row_blocks); a constant, not
# the host's cache size, so no pivot choice depends on the machine
BLOCK_BYTES = 1 << 20
# rows per einsum call where numpy bundles no OpenBLAS (_einsum_kernel):
# the most whose temporary keeps a cold M = 16 solve's peak within 1.1
# phase-1 tableaus (five rows read 1.102)
EINSUM_ROWS = 4


class SimplexAnomaly(RuntimeError):
    """Internal solver failure (e.g. a descent ray in phase 1).

    One from the row check names the row the point broke: kind, which
    is "equality" or "inequality", and row, its index among the LP's
    rows of that kind.  Both are None for any other failure.
    """

    def __init__(self, message: str, kind: str | None = None,
                 row: int | None = None):
        super().__init__(message)
        self.kind, self.row = kind, row


@dataclass(frozen=True)
class LinearProgram:
    """min c.x  s.t.  A_eq x = b_eq,  A_ub x <= b_ub,  x >= 0."""

    c: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray
    A_ub: np.ndarray
    b_ub: np.ndarray

    @staticmethod
    def build(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None) -> "LinearProgram":
        c = np.asarray(c, dtype=float)
        n = c.shape[0]

        def norm(A, b):
            if A is None:
                return np.zeros((0, n)), np.zeros(0)
            A = np.asarray(A, dtype=float).reshape(-1, n)
            return A, np.asarray(b, dtype=float).reshape(-1)

        A_eq, b_eq = norm(A_eq, b_eq)
        A_ub, b_ub = norm(A_ub, b_ub)
        return LinearProgram(c, A_eq, b_eq, A_ub, b_ub)


@dataclass(frozen=True)
class SimplexResult:
    """Outcome of one solve.

    iterations counts the pivots on the path from the artificial basis
    to the returned basis: phase-1 pivots plus phase-2 pivots, whether
    the FeasibleStart was made for this solve or shared, and whether
    phase 2's first pivots were taken on trunk_solves' walk, the
    largest budget's own solve, or not.
    Drive-out pivots are in neither count.  phase1_iterations is the
    phase-1 part and degenerate_pivots the part whose step was zero.
    row_gap is the largest miss of x on any row of the LP (0 unless
    optimal).
    duals_ub (None unless optimal) holds one multiplier per A_ub row,
    minus its slack's final reduced cost: 0 when the slack is basic or
    the row was dropped, and <= 0 at an optimum.
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    objective: float | None = None
    dropped_eq_rows: tuple[int, ...] = ()
    iterations: int = 0
    phase1_iterations: int = 0
    degenerate_pivots: int = 0
    row_gap: float = 0.0
    duals_ub: np.ndarray | None = None


def _padded(width: int) -> int:
    return -(-width // 4) * 4


def _stride(width: int) -> int:
    """A tableau row's stride in doubles: its width rounded up to 8."""
    return -(-width // 8) * 8


def _tableau_array(rows: int, width: int) -> np.ndarray:
    """A zeroed rows x width float64 array whose rows start on 64-byte
    boundaries: a view of a flat buffer (its base), from the buffer's
    first 64-byte boundary, with rows _stride(width) doubles apart."""
    stride = _stride(width)
    buf = np.zeros(rows * stride + 7)  # 7 to spare for the alignment
    skip = (-buf.ctypes.data // 8) % 8
    return buf[skip:skip + rows * stride].reshape(rows, stride)[:, :width]


def _aligned_copy(T: np.ndarray) -> np.ndarray:
    """A copy of T with its rows on 64-byte boundaries."""
    out = _tableau_array(*T.shape)
    out[...] = T
    return out


class _Tableau:
    """A condensed tableau in the middle of a solve, with what its
    pivots reuse.

    N (RHS last) is pivoted in place and never reallocated, so each row
    block's rank-1 kernel is bound once to its rows of N and of the col
    buffer and to the row buffer, which every exchange refills.  The
    solves hand it an N from _tableau_array, rows on 64-byte
    boundaries; any array of C-contiguous rows works.  nb labels the
    first nb.size columns of N, head is the nonbasic block padded to a
    multiple of 4 and rhs the last column.  basis[i] is the
    basic label of row i; cost_nb and cost_B are cost[nb] and
    cost[basis], swapped by every exchange along with the labels.
    priced is cost_B @ head, which every exchange refreshes; blocks
    holds each row block's kernel and its rows of cost_B and head, and
    scratch, only when there are several, a block's share of priced.
    pivots and degenerate count the pivots of the phase so far on the
    path that made the tableau, and their zero steps.
    """

    __slots__ = ("N", "head", "rhs", "nb", "basis", "cost_nb", "cost_B",
                 "col", "row", "priced", "blocks", "scratch",
                 "pivots", "degenerate")

    def __init__(self, N, nb, basis, cost):
        self.N, self.nb, self.basis = N, nb, basis
        self.pivots = self.degenerate = 0
        self.head, self.rhs = N[:, :-1], N[:, -1]
        self.cost_nb, self.cost_B = cost[nb], cost[basis]
        self.col, self.row = np.empty(N.shape[0]), np.empty(N.shape[1])
        self.priced = np.empty(N.shape[1] - 1)
        self.blocks = [(_rank1_kernel(N[b], self.col[b], self.row),
                        self.cost_B[b], self.head[b])
                       for b in _row_blocks(*N.shape)]
        several = len(self.blocks) > 1
        self.scratch = np.empty(self.priced.size) if several else None


def _row_blocks(rows, width):
    """The row blocks a pivot updates and prices one after another:
    consecutive slices of a rows x width tableau of float64, each of at
    most BLOCK_BYTES bytes but at least one row, the last one short."""
    step = max(1, BLOCK_BYTES // (8 * width))
    return [slice(i, min(i + step, rows)) for i in range(0, rows, step)]


def _bland_iterate(t, check=None):
    """Run Bland pivots on the _Tableau t until optimal or a ray appears,
    counting them and their zero steps on t.

    Returns (status, reduced costs of the columns at the last basis).
    check(t, r, p, tie), when given, sees every exchange (r, p) before
    it is made, with its ratio test's tie threshold.
    """
    nb, basis, rhs = t.nb, t.basis, t.rhs
    cost_nb, cost_B, head, priced = t.cost_nb, t.cost_B, t.head, t.priced
    real = nb.size
    np.matmul(cost_B, head, out=priced)  # each exchange refreshes it
    while True:
        reduced = cost_nb - priced[:real]
        enter = (reduced < -OPT_TOL).nonzero()[0]
        if not enter.size:
            if len(t.blocks) > 1:  # the duals come from one gemv
                reduced = cost_nb - (cost_B @ head)[:real]
            return "optimal", reduced
        p = enter[nb[enter].argmin()]  # Bland: the lowest label enters
        col = t.N[:, p]
        rows = (col > PIV_TOL).nonzero()[0]  # the eligible rows
        if not rows.size:
            return "unbounded", reduced
        ratios = rhs[rows] / col[rows]
        rmin = float(ratios[ratios.argmin()])  # min() has a Python wrapper
        tie = rmin + 1e-12 * (1.0 + abs(rmin))
        ties = rows[ratios <= tie]
        r = ties[basis[ties].argmin()]  # Bland tie-break
        if check is not None:
            check(t, r, p, tie)
        if rhs[r] == 0.0:
            t.degenerate += 1
        del reduced, enter  # the selection's arrays go before the update
        _exchange(t, r, p)
        t.pivots += 1
        if t.pivots > MAX_PIVOTS:
            raise SimplexAnomaly("pivot limit exceeded")


def _exchange(t, r, p):
    """Pivot the _Tableau t on (r, p) in place: column p's variable
    enters row r's basis, and the leaving variable's column takes slot
    p.  Then t.priced is the new cost_B @ head, unless it is None."""
    N, col, row = t.N, t.col, t.row
    # labels and costs first: each row block is priced by the new costs
    nb, basis, cost_nb, cost_B = t.nb, t.basis, t.cost_nb, t.cost_B
    nb[p], basis[r] = basis[r], nb[p]
    cost_nb[p], cost_B[r] = cost_B[r], cost_nb[p]
    col[:] = N[:, p]
    N[:, p] = 0.0
    N[r, p] = 1.0
    pivot_row = N[r]
    pivot_row /= col[r]
    row[:] = pivot_row
    col[r] = 0.0
    # one pass: each block is priced while its rows are still in cache
    priced = t.priced
    for i, (subtract, cost, head) in enumerate(t.blocks):
        subtract()
        if priced is None:  # the drive-out's exchanges
            continue
        if i:
            priced += np.matmul(cost, head, out=t.scratch)
        else:
            np.matmul(cost, head, out=priced)
    # keep the RHS nonnegative against floating drift
    np.maximum(t.rhs, 0.0, out=t.rhs)


@cache
def _blas_dgemm():
    """cblas_dgemm of the ILP64 OpenBLAS that numpy bundles, or None.

    dlsym on numpy's core extension also searches the libraries it
    links, where numpy's wheels export the bundled OpenBLAS under a
    scipy_ prefix and 64_ suffix.  ctypes is imported here, on the
    first solve, not when the module is.
    """
    import ctypes

    try:
        from numpy._core import _multiarray_umath
        dgemm = ctypes.CDLL(_multiarray_umath.__file__).scipy_cblas_dgemm64_
    except (ImportError, OSError, AttributeError):
        return None
    enum, i64, dbl, ptr = (ctypes.c_int, ctypes.c_int64, ctypes.c_double,
                           ctypes.c_void_p)
    dgemm.argtypes = [enum, enum, enum, i64, i64, i64,
                      dbl, ptr, i64, ptr, i64, dbl, ptr, i64]
    dgemm.restype = None
    return dgemm


_ROW_MAJOR, _NO_TRANS = 101, 111  # CBLAS_ORDER, CBLAS_TRANSPOSE


def _rank1_kernel(N, col, row):
    """A call that does N -= outer(col, row) in place, bit for bit the
    einsum form, on whatever N, col and row hold when it is called.

    N is a float64 matrix of C-contiguous rows (unit column stride, a
    row stride of whole doubles, at least its width), col and row
    C-contiguous float64 vectors of its height and width that share no
    memory with it; they are checked here, once.  The BLAS call is
    C = A B + C with alpha = -1, A = col as a rows x 1 matrix, B = row
    as a 1 x width one and N's row stride as ldc, its arguments
    converted to ctypes once.  The kernel holds the three arrays'
    addresses and the arrays too, so they live as long as it does.
    """
    m, w = N.shape
    ldc, odd = divmod(N.strides[0], 8)
    if not (N.dtype == col.dtype == row.dtype == np.float64
            and N.strides[1] == 8 and not odd and ldc >= w
            and col.shape == (m,) and row.shape == (w,)
            and col.flags.c_contiguous and row.flags.c_contiguous):
        raise ValueError("rank-1 update needs a float64 matrix of "
                         "C-contiguous rows and C-contiguous vectors of "
                         "its height and width")
    dgemm = _blas_dgemm()
    if dgemm is None:
        return _einsum_kernel(N, col, row, ldc)
    subtract = partial(dgemm, *[
        kind(v) for kind, v in zip(dgemm.argtypes, (
            _ROW_MAJOR, _NO_TRANS, _NO_TRANS, m, w, 1, -1.0, col.ctypes.data,
            1, row.ctypes.data, w, 1.0, N.ctypes.data, ldc))])
    subtract.operands = N, col, row
    return subtract


def _einsum_kernel(N, col, row, ldc):
    """The einsum form of _rank1_kernel, EINSUM_ROWS rows per call.

    Every row but the last is read at its full stride ldc, the gaps
    between rows included, so each call subtracts from one contiguous
    block (numpy would buffer a multi-row view of padded rows) the
    outer product with a zero-padded copy of row: with col finite, a
    gap double x becomes x - (+0.0), the same bits.  The last row,
    whose gap may lie past N's memory, is subtracted at its width.
    einsum, unlike col[i] * row, gives the dgemm's +0.0 for a -0.0
    product.
    """
    m, w = N.shape
    top = max(m - 1, 0)
    full = np.lib.stride_tricks.as_strided(N, (top, ldc), N.strides)
    padded = np.zeros(ldc)

    def subtract():
        padded[:w] = row
        for i in range(0, top, EINSUM_ROWS):
            j = min(i + EINSUM_ROWS, top)
            full[i:j] -= np.einsum("i,j->ij", col[i:j], padded)
        N[top:] -= np.einsum("i,j->ij", col[top:], row)
    return subtract


@dataclass(frozen=True)
class FeasibleStart:
    """The cost-free start of phase 2: phase 1, drive-out and row drop done.

    Every field depends on the LP's rows alone (A_eq, b_eq, A_ub, b_ub),
    never on c, so one start serves any objective over the same rows.
    T is the condensed tableau of the kept rows (RHS last) over the
    nonbasic structural and slack columns, which nb labels; basis holds
    the kept rows' basic labels and rows their indices among all
    me + mu.  phase1_iterations counts the phase-1 pivots and
    phase1_degenerate their zero steps.  The arrays are read-only, and
    a solve given a start pivots a copy of T; the start that
    solve_simplex(lp) or trunk_solves makes for itself, which nothing
    else reads, is pivoted in place, its T, nb and basis made writable.
    """

    T: np.ndarray
    nb: np.ndarray
    basis: np.ndarray
    rows: np.ndarray
    dropped_eq_rows: tuple[int, ...]
    phase1_iterations: int
    phase1_degenerate: int

    def __post_init__(self):
        for a in (self.T, self.nb, self.basis, self.rows):
            a.setflags(write=False)


def feasible_start(lp: LinearProgram, check=None
                   ) -> FeasibleStart | SimplexResult:
    """Phase 1, the artificial drive-out and the redundant-row drop.

    Returns the start every objective over lp's rows shares, or the
    "infeasible" result when phase 1 proves the rows infeasible.  check
    sees every exchange of phase 1 before it is made, as in
    _bland_iterate, and every drive-out exchange with tie -inf (it has
    no ratio test).
    """
    n = lp.c.shape[0]
    me, mu = lp.A_eq.shape[0], lp.A_ub.shape[0]
    m = me + mu
    flip = np.concatenate([lp.b_eq, lp.b_ub]) < 0.0

    # the starting basis, one identity column per row: an artificial,
    # except for ub rows whose +1 slack can start basic
    needs_art = (np.arange(m) < me) | flip
    ncols = n + mu + int(needs_art.sum())
    basis = np.where(needs_art, n + mu + np.cumsum(needs_art) - 1,
                     n + np.arange(m) - me)

    flipped_ub = np.flatnonzero(flip[me:])
    nb = np.concatenate([np.arange(n), n + flipped_ub])
    T = _tableau_array(m, _padded(nb.size) + 1)
    T[:me, :n] = lp.A_eq
    T[me:, :n] = lp.A_ub
    T[me + flipped_ub, n + np.arange(flipped_ub.size)] = 1.0
    T[:me, -1] = lp.b_eq
    T[me:, -1] = lp.b_ub
    # negate negative-RHS rows (their slack included) in place, row by row
    for i in np.flatnonzero(flip):
        T[i, : nb.size] *= -1.0
    T[flip, -1] *= -1.0

    phase1_cost = (np.arange(ncols) >= n + mu).astype(float)
    t = _Tableau(T, nb, basis, phase1_cost)
    status, _ = _bland_iterate(t, check)
    it1, deg1 = t.pivots, t.degenerate
    if status == "unbounded":
        raise SimplexAnomaly("descent ray in phase 1")
    phase1_obj = float(phase1_cost[basis] @ T[:, -1])
    if phase1_obj > FEAS_TOL:
        return SimplexResult(status="infeasible", iterations=it1,
                             phase1_iterations=it1,
                             degenerate_pivots=deg1)

    # pivot lingering artificials out, or drop their (redundant) rows;
    # no price picks these pivots, so their exchanges price nothing
    t.priced = None
    keep = np.ones(m, dtype=bool)
    for i in np.nonzero(basis >= n + mu)[0]:
        drivable = np.flatnonzero((nb < n + mu)
                                  & (np.abs(T[i, : nb.size]) > DRIVE_TOL))
        if drivable.size:
            piv = int(drivable[nb[drivable].argmin()])
            if check is not None:
                check(t, i, piv, -np.inf)
            _exchange(t, i, piv)
        else:
            keep[i] = False
    dropped = tuple(int(i) for i in np.nonzero(~keep)[0] if i < me)

    # write the kept rows over the non-artificial columns into the front
    # of T's buffer, at the narrower stride, its zero padding included,
    # row by row through one buffer: kept row k, taken from row i >= k,
    # can overlap row i, never a later one
    rows = np.flatnonzero(keep)
    cols = np.flatnonzero(nb < n + mu)
    width = _padded(cols.size) + 1
    stride, buf = _stride(width), T.base
    skip = (T.ctypes.data - buf.ctypes.data) // 8  # T's aligned offset
    end = skip + rows.size * stride
    row = np.zeros(stride)
    for k, i in enumerate(rows):
        row[: cols.size] = T[i, cols]
        row[width - 1] = T[i, -1]
        buf[skip + k * stride:skip + (k + 1) * stride] = row
    # the tableau's views and the rank-1 kernels' pointers go first:
    # resize shrinks the buffer in place only when nothing else refers
    # to it
    del t, T
    try:
        buf.resize(end)
        moved = (buf.ctypes.data + 8 * skip) % 64  # realloc moved it
    except ValueError:  # a tracer that reads frame locals (a debugger)
        moved = True
    T = buf[skip:end].reshape(-1, stride)[:, :width]
    if moved:
        T = _aligned_copy(T)
    return FeasibleStart(T, nb[cols], basis[rows], rows, dropped, it1, deg1)


def _check_rows(lp: LinearProgram, x: np.ndarray) -> float:
    """The largest miss of x on any row of lp, dropped equality rows
    included; SimplexAnomaly beyond ROW_TOL: pivoting drift can leave a
    tableau whose basic point no longer meets the LP's own rows."""
    worst = 0.0
    for kind, gaps in (("equality", np.abs(lp.A_eq @ x - lp.b_eq)),
                       ("inequality", lp.A_ub @ x - lp.b_ub)):
        gap = gaps.max(initial=0.0)
        if not gap <= ROW_TOL:
            i = int(np.argmax(gaps))
            raise SimplexAnomaly(f"optimal point breaks {kind} row {i} "
                                 f"by {float(gaps[i])!r}", kind, i)
        worst = max(worst, float(gap))
    return worst


def solve_simplex(lp: LinearProgram,
                  start: FeasibleStart | SimplexResult | None = None
                  ) -> SimplexResult:
    """Two-phase solve; statuses "optimal", "infeasible", "unbounded".

    start is feasible_start's outcome on an LP with the same rows, lp's
    own when None, or lp's result from trunk_solves: a result is
    returned as it is, and otherwise phase 2 pivots a copy of start.T,
    or lp's own start in place.  Phase 1 reads no objective, so a start
    shared by several objectives gives each of them bit for bit the
    result of its own solve.
    """
    shared = start is not None
    if not shared:
        start = feasible_start(lp)
    if isinstance(start, SimplexResult):
        return start
    cost = np.concatenate([lp.c, np.zeros(lp.A_ub.shape[0])])
    return _phase_2(lp, start, _start_tableau(start, cost, shared))


def _start_tableau(start: FeasibleStart, cost: np.ndarray,
                   shared: bool) -> _Tableau:
    """A _Tableau at start with the costs cost: on copies of start's
    arrays when others may read start, else on its own T, nb and basis,
    made writable again, which the tableau's pivots then overwrite."""
    T, nb, basis = start.T, start.nb, start.basis
    if shared:
        return _Tableau(_aligned_copy(T), nb.copy(), basis.copy(), cost)
    for a in (T, nb, basis):
        a.setflags(write=True)
    return _Tableau(T, nb, basis, cost)


def _phase_2(lp: LinearProgram, start: FeasibleStart,
             t: _Tableau) -> SimplexResult:
    """Phase 2 of lp on t, a tableau over start's rows with lp's costs,
    and lp's result read off its end.  t's counts start from the
    phase-2 pivots on the path that made it (trunk_solves' walk)."""
    n, me, mu = lp.c.shape[0], lp.A_eq.shape[0], lp.A_ub.shape[0]
    status, reduced = _bland_iterate(t)
    it1 = start.phase1_iterations
    counts = dict(iterations=it1 + t.pivots, phase1_iterations=it1,
                  degenerate_pivots=start.phase1_degenerate + t.degenerate)
    if status == "unbounded":
        return SimplexResult(status="unbounded", **counts)

    x = np.zeros(n + mu)
    x[t.basis] = t.rhs
    xout = x[:n].copy()
    # an A_ub row's dual is minus its slack's reduced cost (0 when basic)
    reduced_all = np.zeros(n + mu)
    reduced_all[t.nb] = reduced
    kept_ub = start.rows[start.rows >= me] - me
    duals_ub = np.zeros(mu)
    duals_ub[kept_ub] = -reduced_all[n + kept_ub]
    return SimplexResult(
        status="optimal",
        x=xout,
        objective=float(lp.c @ xout),
        dropped_eq_rows=start.dropped_eq_rows,
        row_gap=_check_rows(lp, xout),
        duals_ub=duals_ub,
        **counts,
    )


def trunk_solves(lp: LinearProgram, budgets) -> dict[float, SimplexResult]:
    """The solves of the LPs whose rows differ from lp's only in A_ub
    row 0's RHS, their budget, on one walk: the largest budget's own
    solve, its phase 1, drive-out and phase 2 on its own start, pivoted
    in place to the end of its path, which each smaller budget rides
    as far as it can.  Returns each budget the walk solves with its
    result, bit for bit its cold solve_simplex; the budgets it leaves
    out, negative and non-finite ones too, run their own phase 1.

    Let k be row 0's row in the tableau.  While no exchange is on row k,
    a budget's tableau differs from the walk's only in row k's RHS, and
    pricing never reads the RHS: the budget enters the same column at
    every step, and its ratio test picks the same row as long as its
    own ratio on row k stays out of the tie.  So each smaller budget is
    one number d, its RHS on row k, and one rule, check, runs before
    every exchange (r, p) of phase 1, the drive-out and phase 2: a
    budget leaves if c = N[k, p] > PIV_TOL and d / c <= tie (the ratio
    test's own tie rule; tie is -inf in the drive-out), and every other
    one takes the exchange's own arithmetic, d <- max(d - c v, 0) with
    v = N[r, -1] / N[r, p], row k's own rounding.  Both are monotone in
    d, so the budgets that leave are always the smallest still riding.
    An exchange on row k needs no case of its own: that arithmetic
    keeps every d at or below the walk's RHS, so when the walk's ratio
    ties every rider's does.  A budget that leaves in phase 1 is left
    out.  One that leaves in phase 2 finishes phase 2 on a copy of the
    walk's tableau, its counts included, with its d written into row
    k's RHS, and is left out if that raises SimplexAnomaly.  Those still
    riding at the path's end finish there, and then the walk's own
    result is read: the largest budget's optimum, or phase 1's
    "infeasible" result.  When the walk raises SimplexAnomaly, every
    budget it has not finished is left out.  While budgets ride, the
    walk's exchanges are off row k, so its zero steps are each rider's,
    and every budget's pivots, zero steps and bits are its own solve's.
    """
    # each budget once; phase 1 negates a row with a negative RHS
    budgets = np.array(sorted({b for b in np.ravel(budgets).astype(float)
                               if 0.0 <= b < np.inf}), dtype=float)
    if not budgets.size:
        return {}
    d = budgets[:-1].copy()  # the smaller budgets' RHS on row k, sorted
    lo = 0  # d[lo:] ride the walk
    cost = np.concatenate([lp.c, np.zeros(lp.A_ub.shape[0])])
    k, solved = lp.A_eq.shape[0], {}
    start = None  # the walk's start, None while phase 1 runs

    def at(i):  # lp at budget i
        return replace(lp, b_ub=np.array([budgets[i], *lp.b_ub[1:]]))

    def finish(t, i):
        tail = _Tableau(_aligned_copy(t.N), t.nb.copy(), t.basis.copy(),
                        cost)
        tail.pivots, tail.degenerate = t.pivots, t.degenerate
        tail.rhs[k] = d[i]
        try:
            solved[float(budgets[i])] = _phase_2(at(i), start, tail)
        except SimplexAnomaly:  # left out: its own solve raises it again
            pass

    def check(t, r, p, tie):
        nonlocal lo
        c = float(t.N[k, p])
        while lo < d.size and c > PIV_TOL and d[lo] / c <= tie:
            if start is not None:  # phase 2: it finishes on a copy
                finish(t, lo)
            lo += 1
        v = t.rhs[r] / t.N[r, p]  # the pivot row's RHS after the division
        np.maximum(d - c * v, 0.0, out=d)

    try:
        start = feasible_start(at(-1), check)
        if isinstance(start, FeasibleStart):
            k = int(np.searchsorted(start.rows, k))
            # the walk's own start, which no one else reads: its arrays
            # are the walk's tableau, and its row labels and phase-1
            # counts those of every rider's start
            t = _start_tableau(start, cost, shared=False)
            _bland_iterate(t, check)
            for i in range(lo, d.size):  # still riding at the path's end
                finish(t, i)
            solved[float(budgets[-1])] = _phase_2(at(-1), start, t)
        else:
            solved[float(budgets[-1])] = start
    except SimplexAnomaly:  # the walk's unfinished budgets run their own
        pass
    return solved


def objective_solves(lp: LinearProgram,
                     start: FeasibleStart | SimplexResult,
                     costs) -> list[SimplexResult | None]:
    """solve_simplex(replace(lp, c=cost), start) for each cost vector,
    in order, None where the solve raised or the process that made it
    died, spread over the CPUs of the process's affinity mask.

    The costs are dealt in interleaved shares, costs[i::share], one per
    CPU but never more than costs.  Share i > 0 goes to a child forked
    for it, which inherits lp, start and costs copy-on-write, so nothing
    is sent to it; it writes its results' pickle into its own pipe and
    leaves by os._exit, running none of the caller's exit handlers or
    stdio buffers.  The caller solves share 0 meanwhile, and the share
    of any child the system could not fork, then reads each pipe; its
    finally closes them and reaps every child, so none outlives the
    call.  Every result is the same code on the same arrays, so it is
    bit for bit the caller's own.  No child is forked on one CPU, on a
    platform with no affinity mask (no os.sched_getaffinity, as on
    macOS and Windows), nor when the costs' solves start from at most
    FORKED_ENTRIES tableau entries in all (start.T.size per cost, so
    none for no costs): they take less time than a child costs to
    fork, warm up and reap (about 4 ms on a 2-core machine, where
    forking paper_iv's rounds broke even between about 6500 and 19000
    entries).
    """
    costs = list(costs)
    out = [None] * len(costs)
    forked = (isinstance(start, FeasibleStart)
              and hasattr(os, "sched_getaffinity")
              and start.T.size * len(costs) > FORKED_ENTRIES)
    share = min(len(os.sched_getaffinity(0)), len(costs)) if forked else 1
    children = []  # (pid, result reader) of shares 1, 2, ...
    try:
        for i in range(1, share):
            r, w = os.pipe()
            try:
                with warnings.catch_warnings():
                    # Python 3.12 warns when a process with threads forks,
                    # as one with an OpenBLAS pool does: the child runs
                    # only numpy and its pipe, and OpenBLAS stops its pool
                    # for a fork and starts it again on the next call
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except OSError:  # no process to spare: the caller solves it
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                try:
                    os.close(r)
                    with os.fdopen(w, "wb") as f:
                        pickle.dump([_solved(lp, start, c)
                                     for c in costs[i::share]],
                                    f, pickle.HIGHEST_PROTOCOL)
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        for i in (0, *range(len(children) + 1, share)):  # the caller's shares
            out[i::share] = [_solved(lp, start, c) for c in costs[i::share]]
        for i, (_, r) in enumerate(children, 1):
            try:
                out[i::share] = pickle.load(r)
            except (EOFError, pickle.UnpicklingError):  # the child died
                pass
    finally:
        for _, r in children:  # a child still writing gets EPIPE
            r.close()
        for pid, _ in children:
            os.waitpid(pid, 0)
    return out


def _solved(lp: LinearProgram, start, cost) -> SimplexResult | None:
    """lp's solve with costs cost from start, None if it raises."""
    try:
        return solve_simplex(replace(lp, c=cost), start)
    except Exception:
        return None
