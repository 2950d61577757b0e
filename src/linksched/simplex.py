"""Two-phase primal simplex on a condensed tableau, with Bland's rule.

The LPs solved here are small and heavily degenerate, so Bland's rule
is used unconditionally: the entering variable is the lowest-index
column with reduced cost below -OPT_TOL, and the leaving row breaks
ratio ties by the lowest basis index.  Reduced costs are recomputed
every iteration, one gemv of the basic costs over the tableau, rather
than updated by the pivots, trading a little speed for drift-free
pivoting; the basic and nonbasic cost vectors, cost[basis] and
cost[nb], are carried and swapped by each exchange with the labels.

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

A pivot on (r, p) is an exchange: column p is copied out, the leaving
variable's unit column e_r takes its slot, row r is divided by the
pivot and col (x) row r is subtracted from every row (col[r] = 0).
Every stored entry thus gets, bit for bit, the arithmetic a full
tableau would give it.  The subtraction is one in-place BLAS rank-1
update, N <- N - col row, a K = 1 dgemm from the OpenBLAS that numpy
bundles (through ctypes, resolved on the first solve and bound once per
tableau; numpy's einsum where numpy links another BLAS).  With K = 1
every entry is round(N - round(col_i * row_j)), the two roundings of an
outer product followed by a subtraction, so both kernels give the same
bits.  dger and daxpy would not: they contract the multiply and the
subtraction into one fused multiply-add, which rounds once.  The
reduced costs come from one gemv over the padded width: OpenBLAS
computes each group of 4 output columns the same way wherever it sits
in the matrix, but not the last width % 4, so without the padding a
column's reduced cost would depend on where the exchanges have put it.
(A multithreaded gemv splits its output at thread-dependent columns,
so the bits hold single-threaded.)

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
budget) can share both phases as far as their paths agree.
trunk_solves walks one path, that of the open LP with the row's RHS
at OPEN_RHS, which no ratio test picks, and carries each budget as
one number, the row's RHS in that budget's tableau.  Pricing never
reads the RHS, so those LPs enter the column the open LP enters, and
until their own ratio could tie the ratio test they leave its row
too; before every exchange of phase 1, the drive-out and phase 2 one
rule lets the budgets whose ratio could leave and moves every other
number by the exchange's own arithmetic.  A budget that leaves in
phase 1 is left to its own phase 1; one that leaves in phase 2
finishes phase 2 on a copy of the walk's tableau there, its number
written into the copy, so it pivots only the rest of its path.

Objectives over one LP's rows are independent from their shared
start, so Helpers spreads them over forked processes, one per further
CPU, which inherit the start and send back each result: the same code
on the same arrays, so the same bits.

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
answer.

Memory, in doubles: phase 1 pivots one tableau array of rows x
(n + negated A_ub rows, padded, + 1) in place.  At the drop it
writes the kept rows and columns, an array of kept rows x
(n + mu - kept rows, padded, + 1), into the front of that same array,
row by row through a one-row buffer, and shrinks it in place to them
(ndarray.resize; a copy only when something else, such as a
debugger's frame locals, still refers to it).  That array is the
start's T, and phase 2 of solve_simplex(lp) pivots it in place, so a
cold solve's peak is phase 1's one array.  From a shared start a
solve holds the start and its copy.  trunk_solves pivots the open
LP's start in place, and finishes each budget that leaves the walk on
a copy of it, one at a time: its peak is two start-sized arrays, and
neither outlives the call.  Each tableau comes with three small
buffers, allocated once: the entering column, the pivot row and the
ratio test's ratios.
The exchange writes only into them and the tableau and allocates no
array data; pricing and the ratio test make only numpy's temporaries
of the tableau's width or height.
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
PIV_TOL = 1e-11  # smallest pivot element admitted in the ratio test
DRIVE_TOL = 1e-7  # smallest pivot used when driving artificials out
ROW_TOL = 1e-8  # largest row miss an "optimal" point may have
MAX_PIVOTS = 200_000  # per phase; beyond this the solve is an anomaly
OPEN_RHS = 1e200  # the open row's RHS on trunk_solves' path
HELPED_ENTRIES = 2048  # below this many tableau entries, Helpers forks none


class SimplexAnomaly(RuntimeError):
    """Internal solver failure (e.g. a descent ray in phase 1)."""


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
    phase 2's first pivots were taken on trunk_solves' walk or not.
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


_NO_LABEL = np.iinfo(np.intp).max  # masks a column or row out of an argmin


class _Tableau:
    """A condensed tableau in the middle of a solve, with what its
    pivots reuse.

    N (RHS last) is pivoted in place and never reallocated, so the
    rank-1 kernel is bound once to N and the col and row buffers, which
    every exchange refills.  nb labels the first nb.size columns of N,
    head is the nonbasic block padded to a multiple of 4 and rhs the
    last column.  basis[i] is the basic label of row i; cost_nb and
    cost_B are cost[nb] and cost[basis], swapped by every exchange along
    with the labels.  ratios is the ratio test's buffer.
    """

    __slots__ = ("N", "head", "rhs", "nb", "basis", "cost_nb", "cost_B",
                 "col", "row", "ratios", "subtract")

    def __init__(self, N, nb, basis, cost):
        self.N, self.nb, self.basis = N, nb, basis
        self.head, self.rhs = N[:, :-1], N[:, -1]
        self.cost_nb, self.cost_B = cost[nb], cost[basis]
        self.col, self.row = np.empty(N.shape[0]), np.empty(N.shape[1])
        self.ratios = np.empty(N.shape[0])
        self.subtract = _rank1_kernel(N, self.col, self.row)


def _bland_iterate(t, check=None, taken=0):
    """Run Bland pivots on the _Tableau t until optimal or a ray appears.

    Returns (status, pivots, degenerate pivots, reduced costs of the
    columns at the last basis).  check(t, r, p, tie), when given, sees
    every exchange (r, p) before it is made, with its ratio test's tie
    threshold, and a true return stops the walk there, status
    "stopped".  taken counts the pivots of the phase taken before t (on
    trunk_solves' walk), which the pivot limit counts too.
    """
    nb, basis, rhs, ratios = t.nb, t.basis, t.rhs, t.ratios
    cost_nb, cost_B, head = t.cost_nb, t.cost_B, t.head
    real = nb.size
    limit = MAX_PIVOTS - taken
    iters = degenerate = 0
    if not real:  # no column to enter, and no label for argmin to scan
        return "optimal", iters, degenerate, np.zeros(0)
    while True:
        reduced = cost_nb - (cost_B @ head)[:real]
        labels = np.where(reduced < -OPT_TOL, nb, _NO_LABEL)
        p = labels.argmin()  # Bland: the lowest label enters
        if labels[p] == _NO_LABEL:
            return "optimal", iters, degenerate, reduced
        col = t.N[:, p]
        pos = col > PIV_TOL
        if not pos.any():
            return "unbounded", iters, degenerate, reduced
        ratios.fill(np.inf)
        np.divide(rhs, col, out=ratios, where=pos)
        rmin = float(ratios[ratios.argmin()])  # min() has a Python wrapper
        tie = rmin + 1e-12 * (1.0 + abs(rmin))
        ties = ratios <= tie
        r = np.where(ties, basis, _NO_LABEL).argmin()  # Bland tie-break
        if check is not None and check(t, r, p, tie):
            return "stopped", iters, degenerate, reduced
        if rhs[r] == 0.0:
            degenerate += 1
        _exchange(t, r, p)
        iters += 1
        if iters > limit:
            raise SimplexAnomaly("pivot limit exceeded")


def _exchange(t, r, p):
    """Pivot the _Tableau t on (r, p) in place: column p's variable
    enters row r's basis, and the leaving variable's column takes slot
    p."""
    N, col, row = t.N, t.col, t.row
    col[:] = N[:, p]
    N[:, p] = 0.0
    N[r, p] = 1.0
    pivot_row = N[r]
    pivot_row /= col[r]
    row[:] = pivot_row
    col[r] = 0.0
    t.subtract()
    # keep the RHS nonnegative against floating drift
    np.maximum(t.rhs, 0.0, out=t.rhs)
    nb, basis, cost_nb, cost_B = t.nb, t.basis, t.cost_nb, t.cost_B
    nb[p], basis[r] = basis[r], nb[p]
    cost_nb[p], cost_B[r] = cost_B[r], cost_nb[p]


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

    N is a C-contiguous float64 matrix, col and row float64 vectors of
    its height and width that share no memory with it; they are checked
    here, once.  The BLAS call is C = A B + C with alpha = -1, A = col
    as a rows x 1 matrix and B = row as a 1 x width one, its arguments
    converted to ctypes once.  The kernel holds the three arrays'
    addresses and the arrays too, so they live as long as it does.
    """
    dgemm = _blas_dgemm()
    if dgemm is None:
        def subtract():
            # a few rows at a time, so no tableau-sized temporary is made
            for i in range(0, N.shape[0], 8):
                N[i:i + 8] -= np.einsum("i,j->ij", col[i:i + 8], row)
        return subtract
    m, w = N.shape
    if not (N.flags.c_contiguous and N.dtype == col.dtype == row.dtype
            == np.float64 and col.shape == (m,) and row.shape == (w,)
            and col.flags.c_contiguous and row.flags.c_contiguous):
        raise ValueError("rank-1 update needs a C-contiguous float64 "
                         "matrix and vectors of its height and width")
    subtract = partial(dgemm, *[
        kind(v) for kind, v in zip(dgemm.argtypes, (
            _ROW_MAJOR, _NO_TRANS, _NO_TRANS, m, w, 1, -1.0, col.ctypes.data,
            1, row.ctypes.data, w, 1.0, N.ctypes.data, w))])
    subtract.operands = N, col, row
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
    no ratio test); its return is not read.
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
    T = np.zeros((m, _padded(nb.size) + 1))
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
    status, it1, deg1, _ = _bland_iterate(t, check)
    if status == "unbounded":
        raise SimplexAnomaly("descent ray in phase 1")
    phase1_obj = float(phase1_cost[basis] @ T[:, -1])
    if phase1_obj > FEAS_TOL:
        return SimplexResult(status="infeasible", iterations=it1,
                             phase1_iterations=it1,
                             degenerate_pivots=deg1)

    # pivot lingering artificials out, or drop their (redundant) rows
    keep = np.ones(m, dtype=bool)
    for i in np.nonzero(basis >= n + mu)[0]:
        drivable = np.flatnonzero((nb < n + mu)
                                  & (np.abs(T[i, : nb.size]) > DRIVE_TOL))
        if drivable.size:
            piv = int(drivable[np.argmin(nb[drivable])])
            if check is not None:
                check(t, i, piv, -np.inf)
            _exchange(t, i, piv)
        else:
            keep[i] = False
    dropped = tuple(int(i) for i in np.nonzero(~keep)[0] if i < me)

    # write the kept rows over the non-artificial columns into the front
    # of T, as a narrower C-order array, row by row through one buffer:
    # kept row k, taken from row i >= k, can overlap row i, never a
    # later one
    rows = np.flatnonzero(keep)
    cols = np.flatnonzero(nb < n + mu)
    width = _padded(cols.size) + 1
    row, flat = np.zeros(width), T.reshape(-1)
    for k, i in enumerate(rows):
        row[: cols.size] = T[i, cols]
        row[-1] = T[i, -1]
        flat[k * width:(k + 1) * width] = row
    # the tableau's views and the rank-1 kernel's pointers go first:
    # resize shrinks T in place only when nothing else refers to it
    del t, flat
    try:
        T.resize((rows.size, width))
    except ValueError:  # a tracer that reads frame locals (a debugger)
        T = T.reshape(-1)[: rows.size * width].reshape(-1, width).copy()
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
                                 f"by {float(gaps[i])!r}")
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
        return _Tableau(T.copy(), nb.copy(), basis.copy(), cost)
    for a in (T, nb, basis):
        a.setflags(write=True)
    return _Tableau(T, nb, basis, cost)


def _phase_2(lp: LinearProgram, start: FeasibleStart, t: _Tableau,
             taken: int = 0, taken_degenerate: int = 0) -> SimplexResult:
    """Phase 2 of lp on t, a tableau over start's rows with lp's costs,
    and lp's result read off its end.  taken counts the phase-2 pivots
    made before t (on trunk_solves' walk) and taken_degenerate their
    zero steps."""
    n, me, mu = lp.c.shape[0], lp.A_eq.shape[0], lp.A_ub.shape[0]
    status, it2, deg2, reduced = _bland_iterate(t, taken=taken)
    it1 = start.phase1_iterations
    counts = dict(iterations=it1 + taken + it2, phase1_iterations=it1,
                  degenerate_pivots=(start.phase1_degenerate
                                     + taken_degenerate + deg2))
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
    row 0's RHS, their budget, walked once along the path of the open
    LP, row 0 at OPEN_RHS: its phase 1, drive-out and phase 2, on the
    open LP's own start, pivoted in place.  Returns each budget the
    walk solves with its result, bit for bit its cold solve_simplex;
    the budgets it leaves out run their own phase 1.

    Let k be row 0's row in the tableau.  While no exchange is on row k,
    a budget's tableau differs from the open one only in row k's RHS,
    and pricing never reads the RHS: the budget enters the same column
    at every step, and its ratio test picks the same row as long as its
    own ratio on row k stays out of the tie.  So each pending budget is
    one number d, its RHS on row k, and one rule, check, runs before
    every exchange (r, p) of phase 1, the drive-out and phase 2: a
    budget leaves if c = N[k, p] > PIV_TOL and d / c <= tie (the ratio
    test's own tie rule; tie is -inf in the drive-out), and every other
    one takes the exchange's own arithmetic, d <- max(d - c v, 0) with
    v = N[r, -1] / N[r, p].  An exchange on row k needs no case of its
    own: no budget is above the open RHS, and that arithmetic keeps it
    so, so when the open ratio ties every budget's does.  A budget that
    leaves in phase 1 is left out, and so is every budget when the open
    phase 1 raises SimplexAnomaly or proves the rows infeasible.  One
    that leaves in phase 2 finishes phase 2 on a copy of the walk's
    tableau with its d written into row k's RHS, and is left out if
    that raises SimplexAnomaly; the walk's own row k keeps the open
    RHS.  Budgets still pending at the path's end finish there, and the
    walk stops before the exchange where the last one leaves.  The
    walk's exchanges are off row k, so its zero steps are every pending
    budget's, and every budget's pivots, zero steps and bits are its
    own solve's.
    """
    # each budget once; phase 1 negates a row with a negative RHS, and a
    # budget above the open RHS could stay where the open path takes row k
    budgets = np.array(sorted({b for b in np.ravel(budgets).astype(float)
                               if 0.0 <= b <= OPEN_RHS}), dtype=float)
    d = budgets.copy()  # each budget's RHS on row k
    pending = np.ones(budgets.size, dtype=bool)
    cost = np.concatenate([lp.c, np.zeros(lp.A_ub.shape[0])])
    k, solved = lp.A_eq.shape[0], {}
    start = None  # the open LP's start, None while phase 1 runs
    walked = zero = 0  # phase-2 exchanges so far, and their zero steps

    def finish(t, i):
        tail = _Tableau(t.N.copy(), t.nb.copy(), t.basis.copy(), cost)
        tail.rhs[k] = d[i]
        b_ub = lp.b_ub.copy()
        b_ub[0] = budgets[i]
        try:
            solved[float(budgets[i])] = _phase_2(replace(lp, b_ub=b_ub),
                                                 start, tail, walked, zero)
        except SimplexAnomaly:  # left out: its own solve raises it again
            pass

    def check(t, r, p, tie):
        nonlocal walked, zero
        c = float(t.N[k, p])
        leave = np.flatnonzero(pending & (c > PIV_TOL and d / c <= tie))
        pending[leave] = False
        if start is not None:  # phase 2: finish each budget that leaves
            for i in leave:
                finish(t, i)
            if not pending.any():
                return True
            walked += 1
            if t.rhs[r] == 0.0:
                zero += 1
        v = t.rhs[r] / t.N[r, p]  # the pivot row's RHS after the division
        np.maximum(d - c * v, 0.0, out=d)
        return False

    b_ub = lp.b_ub.copy()
    b_ub[0] = OPEN_RHS
    try:
        start = feasible_start(replace(lp, b_ub=b_ub), check)
    except SimplexAnomaly:
        return solved
    if not isinstance(start, FeasibleStart) or not pending.any():
        return solved
    k = int(np.searchsorted(start.rows, k))
    # the open LP's own start, which no one else reads: its arrays are
    # the walk's tableau, and its row labels and phase-1 counts those
    # of every budget's start
    t = _start_tableau(start, cost, shared=False)
    _bland_iterate(t, check)
    for i in np.flatnonzero(pending):  # still on the path at its end
        finish(t, i)
    return solved


class Helpers:
    """Forked processes that solve objectives over one LP's rows from one
    start, side by side with the process that made them.

    One helper is forked per CPU of the process's affinity mask but the
    caller's, none on one CPU, and none for a start of fewer than
    HELPED_ENTRIES tableau entries: its solves take less time than a
    helper costs to fork, warm up and reap (about 6 ms on a 2-core
    machine, where paper_iv's corner search ran slower with helpers at
    M = 3, 1617 entries, and faster at M = 4, 2860).  Each helper
    inherits lp and start copy-on-write and reads lists of cost vectors
    from a pipe, not LPs, whose pickles would carry A_eq.  solve(costs)
    writes each helper an interleaved share of costs, solves its own
    share meanwhile, and reads the helpers' SimplexResults back.  Each
    result is solve_simplex(replace(lp, c=cost), start), the same code
    on the same arrays, so it is bit for bit the caller's own.  A helper
    exits by os._exit when its pipe reaches end of file, so it cannot
    outlive the caller, and runs none of the caller's exit handlers or
    stdio buffers.  close(), or leaving the with block, closes the pipes
    and reaps the helpers.
    """

    def __init__(self, lp: LinearProgram,
                 start: FeasibleStart | SimplexResult):
        self.lp, self.start = lp, start
        self.helpers = []  # (pid, task writer, result reader) per helper
        helped = (isinstance(start, FeasibleStart)
                  and start.T.size >= HELPED_ENTRIES)
        try:
            for _ in range(len(os.sched_getaffinity(0)) - 1 if helped else 0):
                if not self._fork():
                    break
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "Helpers":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _fork(self) -> bool:
        """Fork one helper; False when the system has no process to
        spare."""
        tasks, results = os.pipe(), os.pipe()
        try:
            with warnings.catch_warnings():
                # Python 3.12 warns when a process with threads forks, as
                # one with an OpenBLAS pool does: the helper runs only
                # numpy and its pipes, and OpenBLAS stops its pool for a
                # fork and starts it again on the next call
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        except OSError:
            for fd in (*tasks, *results):
                os.close(fd)
            return False
        if pid == 0:
            try:
                for _, w, r in self.helpers:  # the other helpers' pipes
                    os.close(w.fileno())
                    os.close(r.fileno())
                os.close(tasks[1])
                os.close(results[0])
                _serve(self.lp, self.start, tasks[0], results[1])
            finally:
                os._exit(0)
        os.close(tasks[0])
        os.close(results[1])
        self.helpers.append((pid, os.fdopen(tasks[1], "wb"),
                             os.fdopen(results[0], "rb")))
        return True

    def solve(self, costs) -> list[SimplexResult | None]:
        """One result per cost vector, in order: None where the solve
        raised, or where its helper died, which is then reaped and gets
        no more work."""
        share = len(self.helpers) + 1
        out = [None] * len(costs)
        sent = []
        for i, helper in enumerate(list(self.helpers), 1):
            if i < len(costs):  # its share, costs[i::share], is not empty
                try:
                    pickle.dump(costs[i::share], helper[1],
                                pickle.HIGHEST_PROTOCOL)
                    helper[1].flush()
                    sent.append((i, helper))
                except OSError:
                    self._drop(helper)
        for j in range(0, len(costs), share):
            out[j] = _solved(self.lp, self.start, costs[j])
        for i, helper in sent:
            try:
                out[i::share] = pickle.load(helper[2])
            except Exception:  # cut short: the helper died
                self._drop(helper)
        return out

    def _drop(self, helper) -> None:
        self.helpers.remove(helper)
        _reap([helper])

    def close(self) -> None:
        helpers, self.helpers = self.helpers, []
        _reap(helpers)


def _solved(lp: LinearProgram, start, cost) -> SimplexResult | None:
    """lp's solve with costs cost from start, None if it raises."""
    try:
        return solve_simplex(replace(lp, c=cost), start)
    except Exception:
        return None


def _serve(lp: LinearProgram, start, tasks: int, results: int) -> None:
    """A helper's loop: the results of each list of cost vectors read from
    the pipe tasks, written to the pipe results, until tasks ends."""
    with os.fdopen(tasks, "rb") as r, os.fdopen(results, "wb") as w:
        while True:
            try:
                costs = pickle.load(r)
            except EOFError:
                return
            pickle.dump([_solved(lp, start, c) for c in costs], w,
                        pickle.HIGHEST_PROTOCOL)
            w.flush()


def _reap(helpers) -> None:
    """Close the helpers' pipes, then wait for each to exit."""
    for _, w, r in helpers:
        for f in (w, r):
            try:
                f.close()
            except OSError:  # a write the dead helper never read
                pass
    for pid, _, _ in helpers:
        os.waitpid(pid, 0)
