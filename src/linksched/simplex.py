"""Dense two-phase primal simplex with Bland's anti-cycling rule.

The LPs solved here are small and heavily degenerate, so Bland's rule
is used unconditionally: entering variable is the lowest-index column
with reduced cost below -OPT_TOL, leaving row breaks ratio ties by the
lowest basis index.  Reduced costs are recomputed from the basis every
iteration rather than carried, trading a little speed for drift-free
pivoting.

Equality rows that phase 1 proves redundant (their artificial stays
basic at a value <= FEAS_TOL and cannot be pivoted out) are dropped
before phase 2.  Duals are read off the final reduced costs of the
identity columns, so every kept row reports a multiplier.  An
"optimal" point is checked against every row of the LP, dropped ones
included; a miss beyond ROW_TOL is a SimplexAnomaly, not an answer.

Phase 1, the drive-out and the row drop read only the rows, never the
objective, so their outcome is a FeasibleStart that any objective over
the same rows can share: solve_simplex(lp, start) runs phase 2 alone
and returns exactly what the cold solve_simplex(lp) returns.

A cold solve holds at most two tableau-sized arrays: the tableau, built
straight from the LinearProgram, and one scratch array that takes the
pivot's outer product in both phases and the drive-out, and receives
the kept rows when redundant ones are dropped (the two then swap roles).
A solve from a shared start holds those two (a copy of the start's
tableau and the scratch) plus the read-only start itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPT_TOL = 1e-9  # reduced cost threshold for optimality
FEAS_TOL = 1e-9  # phase-1 objective / artificial value threshold
PIV_TOL = 1e-11  # smallest pivot element admitted in the ratio test
DRIVE_TOL = 1e-7  # smallest pivot used when driving artificials out
ROW_TOL = 1e-8  # largest row miss an "optimal" point may have
MAX_PIVOTS = 200_000  # per phase; beyond this the solve is an anomaly


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
    phase 1 ran in this solve or in a shared FeasibleStart.  Drive-out
    pivots are in neither count.  phase1_iterations is the phase-1 part.
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    objective: float | None = None
    duals_eq: np.ndarray | None = None
    duals_ub: np.ndarray | None = None
    dropped_eq_rows: tuple[int, ...] = ()
    iterations: int = 0
    phase1_iterations: int = 0


def _bland_iterate(T, basis, cost, allowed, work):
    """Run Bland pivots in place until optimal or a ray appears.

    Returns ("optimal", iters) or ("unbounded", iters).  T has shape
    (m, ncols + 1) with the RHS in the last column; basis[i] is the
    basic column of row i; work is scratch of T's shape.
    """
    m, w = T.shape
    ncols = w - 1
    iters = 0
    col_ids = np.arange(ncols)
    while True:
        y = cost[basis] @ T[:, :ncols]
        reduced = cost[:ncols] - y
        candidates = col_ids[allowed & (reduced < -OPT_TOL)]
        if candidates.size == 0:
            return "optimal", iters
        j = int(candidates[0])  # Bland: lowest index enters
        col = T[:, j]
        pos = col > PIV_TOL
        if not pos.any():
            return "unbounded", iters
        rhs = T[:, ncols]
        ratios = np.full(m, np.inf)
        ratios[pos] = rhs[pos] / col[pos]
        rmin = ratios.min()
        ties = np.nonzero(ratios <= rmin + 1e-12 * (1.0 + abs(rmin)))[0]
        r = int(ties[np.argmin(basis[ties])])  # Bland tie-break
        _pivot(T, r, j, work)
        basis[r] = j
        iters += 1
        if iters > MAX_PIVOTS:
            raise SimplexAnomaly("pivot limit exceeded")


def _pivot(T, r, j, work):
    """Pivot T on (r, j) in place; work is scratch of T's shape."""
    T[r] /= T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    # The outer product into preallocated scratch; einsum runs about twice
    # as fast as the broadcast multiply.  It may turn a -0.0 product into
    # +0.0, which no comparison and no nonzero entry can see, and the RHS
    # clip below maps both zeros to +0.0, so every solve result is
    # bit-identical to the plain T -= np.outer(col, T[r]).
    np.einsum("i,j->ij", col, T[r], out=work)
    T -= work
    T[:, j] = 0.0
    T[r, j] = 1.0
    # keep the RHS nonnegative against floating drift
    rhs = T[:, -1]
    np.clip(rhs, 0.0, None, out=rhs)


@dataclass(frozen=True)
class FeasibleStart:
    """The cost-free start of phase 2: phase 1, drive-out and row drop done.

    Every field depends on the LP's rows alone (A_eq, b_eq, A_ub, b_ub),
    never on c, so one start serves any objective over the same rows.
    T holds the kept rows of the tableau (RHS last) and basis their basic
    columns; keep marks the kept rows among all me + mu, flip the rows
    negated for a negative RHS, and ident the identity column of each
    row.  The arrays are read-only: a solve copies T before pivoting.
    """

    T: np.ndarray
    basis: np.ndarray
    keep: np.ndarray
    flip: np.ndarray
    ident: np.ndarray
    dropped_eq_rows: tuple[int, ...]
    phase1_iterations: int

    def __post_init__(self):
        for a in (self.T, self.basis, self.keep, self.flip, self.ident):
            a.setflags(write=False)


def _phase1(lp: LinearProgram):
    """Phase 1, the artificial drive-out and the redundant-row drop.

    Returns (start, T, work): start.T is a read-only view of the
    writable tableau T and work is the scratch array, so a cold solve
    can run phase 2 in place.  An infeasible LP returns its
    SimplexResult in place of the start.
    """
    n = lp.c.shape[0]
    me, mu = lp.A_eq.shape[0], lp.A_ub.shape[0]
    m = me + mu
    flip = np.concatenate([lp.b_eq, lp.b_ub]) < 0.0

    # one identity column per row: an artificial, except for ub rows
    # whose +1 slack can start basic
    needs_art = (np.arange(m) < me) | flip
    ncols = n + mu + int(needs_art.sum())
    ident = np.where(needs_art, n + mu + np.cumsum(needs_art) - 1,
                     n + np.arange(m) - me)

    T = np.zeros((m, ncols + 1))
    T[:me, :n] = lp.A_eq
    T[me:, :n] = lp.A_ub
    T[me + np.arange(mu), n + np.arange(mu)] = 1.0
    T[:me, ncols] = lp.b_eq
    T[me:, ncols] = lp.b_ub
    # negate negative-RHS rows (slack block included) in place, row by row
    for i in np.flatnonzero(flip):
        T[i, : n + mu] *= -1.0
    T[flip, ncols] *= -1.0
    T[needs_art, ident[needs_art]] = 1.0
    basis = ident.copy()
    work = np.empty_like(T)

    phase1_cost = (np.arange(ncols) >= n + mu).astype(float)
    status, it1 = _bland_iterate(T, basis, phase1_cost,
                                 np.ones(ncols, dtype=bool), work)
    if status == "unbounded":
        raise SimplexAnomaly("descent ray in phase 1")
    phase1_obj = float(phase1_cost[basis] @ T[:, ncols])
    if phase1_obj > FEAS_TOL:
        return SimplexResult(status="infeasible", iterations=it1,
                             phase1_iterations=it1), None, None

    # pivot lingering artificials out, or drop their (redundant) rows
    keep = np.ones(m, dtype=bool)
    for i in np.nonzero(basis >= n + mu)[0]:
        drivable = np.nonzero(np.abs(T[i, : n + mu]) > DRIVE_TOL)[0]
        if drivable.size:
            piv = int(drivable[0])
            _pivot(T, i, piv, work)
            basis[i] = piv
        else:
            keep[i] = False
    dropped = tuple(int(i) for i in np.nonzero(~keep)[0] if i < me)
    if not keep.all():
        k = int(keep.sum())
        np.take(T, np.nonzero(keep)[0], axis=0, out=work[:k], mode="clip")
        T, work = work[:k], T[:k]
        basis = basis[keep]
    start = FeasibleStart(T.view(), basis, keep, flip, ident, dropped, it1)
    return start, T, work


def feasible_start(lp: LinearProgram) -> FeasibleStart | SimplexResult:
    """The start every objective over lp's rows shares, or the
    "infeasible" result when phase 1 proves the rows infeasible."""
    return _phase1(lp)[0]


def _check_rows(lp: LinearProgram, x: np.ndarray) -> None:
    """SimplexAnomaly unless x meets every row of lp, dropped equality
    rows included, within ROW_TOL: pivoting drift can leave a tableau
    whose basic point no longer meets the LP's own rows."""
    for kind, gaps in (("equality", np.abs(lp.A_eq @ x - lp.b_eq)),
                       ("inequality", lp.A_ub @ x - lp.b_ub)):
        if not gaps.max(initial=0.0) <= ROW_TOL:
            i = int(np.argmax(gaps))
            raise SimplexAnomaly(f"optimal point breaks {kind} row {i} "
                                 f"by {float(gaps[i])!r}")


def solve_simplex(lp: LinearProgram,
                  start: FeasibleStart | None = None) -> SimplexResult:
    """Two-phase solve; statuses "optimal", "infeasible", "unbounded".

    start, from feasible_start on an LP with the same rows, skips phase
    1: phase 2 then runs on a copy of start.T, and the result is bit for
    bit the one a cold solve returns.  Without it, phase 1 runs first and
    phase 2 pivots its tableau in place.
    """
    if start is None:
        start, T, work = _phase1(lp)
        if isinstance(start, SimplexResult):
            return start
    else:
        T = start.T.copy()
        work = np.empty_like(T)
    basis = start.basis.copy()
    keep, flip, ident = start.keep, start.flip, start.ident
    n = lp.c.shape[0]
    me, mu = lp.A_eq.shape[0], lp.A_ub.shape[0]
    ncols = T.shape[1] - 1

    phase2_cost = np.concatenate([lp.c, np.zeros(ncols - n)])
    allowed = np.arange(ncols) < n + mu
    status, it2 = _bland_iterate(T, basis, phase2_cost, allowed, work)
    it1 = start.phase1_iterations
    if status == "unbounded":
        return SimplexResult(status="unbounded", iterations=it1 + it2,
                             phase1_iterations=it1)

    x = np.zeros(ncols)
    x[basis] = T[:, ncols]
    xout = x[:n].copy()
    _check_rows(lp, xout)
    objective = float(lp.c @ xout)

    # duals from identity-column reduced costs: r_j = 0 - y_i on e_i cols
    reduced = phase2_cost - phase2_cost[basis] @ T[:, :ncols]
    duals = np.zeros(me + mu)
    duals[keep] = -reduced[ident[keep]]
    duals[flip & keep] *= -1.0
    return SimplexResult(
        status="optimal",
        x=xout,
        objective=objective,
        duals_eq=duals[:me].copy(),
        duals_ub=duals[me:].copy(),
        dropped_eq_rows=start.dropped_eq_rows,
        iterations=it1 + it2,
        phase1_iterations=it1,
    )
