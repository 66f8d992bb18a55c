"""Linear programs on the HiGHS solver that scipy bundles.

Every LP is a member of an `LPFamily`: programs with one objective, one
constraint matrix and one set of variable bounds, which differ only in
their right-hand sides.  A family builds its HiGHS model once; a member
changes the row bounds and re-runs the dual simplex from the previous
member's optimal basis, which a change of b leaves dual feasible
(parametric right-hand sides: Bertsimas & Tsitsiklis, Introduction to
Linear Optimization, 1997, ch. 5).  After a member that is not optimal
the next one starts cold.  So does a member whose c, matrix or right-hand
side holds a nonzero entry below `_FINE` = 1e-6 in magnitude: near HiGHS's
feasibility tolerances of 1e-7 a warm and a cold solve can give different
statuses or optima, and a cold one is what `solve_lp` returns.  `solve_lp`
is a family of one.  `LPFamily.solve_many` takes a batch of b_ub rows for
a family without equality rows, validates it once and gives each member
as `solve` would, in row order.

An interval family has one free variable, a cost c that is not
fine-grained and below HiGHS's infinite cost, no equality rows and rows
+-x <= b_i only.  A member minimizes c x over [L, U], L the largest -b_i
of a -1 row and U the smallest b_i of a +1 row, and is answered in closed
form, as HiGHS answers it: infeasible when L > U; else L for c > 0 and U
for c < 0, unbounded when that end is infinite, and for c = 0 the end
nearer 0, L on a tie, or +0.0 with no rows; a zero optimum is -0.0.
HiGHS still decides every member within `_FINE` of a tolerance, where it
reads the data by its tolerances, not exactly: b fine-grained or at
HiGHS's infinite bound, 0 < L - U <= `_FINE`, a bound within `_FINE` of
the tightest on its side, or c = 0 with |L| and |U| within `_FINE`.  The
family builds its HiGHS model for the first such member and solves all
of them cold.  The closed form is one array computation over a batch:
[L, U] for every row by two masked minima, and the rule above as masks;
the members it leaves to HiGHS are solved one by one.  `solve` is a batch
of one.

HiGHS is reached through scipy's private `scipy.optimize._highspy._core`,
imported on the first solve, with the model, options, status codes and
feasibility re-check of scipy's LP function with method "highs".
`tests/test_linsolve.py` compares `solve_lp` and interval members with that
function, and each family member with a one-member solve, as a guard
against scipy drift.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .policy import POLY_TOL, RegkitError


class LinSolveError(RegkitError, RuntimeError):
    pass


@dataclass
class FeasibilityResult:
    feasible: bool
    point: Optional[np.ndarray] = None


# HiGHS model status (by name) -> scipy's LP status: 0 optimal, 1 limit
# reached, 2 infeasible, 3 unbounded; every other model status (solver
# trouble, kUnboundedOrInfeasible included) is 4
_STATUS = {"kOptimal": 0, "kTimeLimit": 1, "kIterationLimit": 1,
           "kInfeasible": 2, "kModelError": 2, "kUnbounded": 3}
# scipy's re-check of an "optimal" point: sqrt(tol) * 10 at tol = 1e-9
_FEAS_TOL = np.sqrt(1e-9) * 10
# ten times HiGHS's primal and dual feasibility tolerances (1e-7): a member
# whose data holds a nonzero entry below this is solved cold, since there a
# warm basis and a cold presolve can decide the member differently
_FINE = 1e-6


@lru_cache(maxsize=None)
def _highs():
    """scipy's HiGHS core; scipy's options for method "highs": presolve
    on, dual simplex, silent; and, keyed by HiGHS model status, its LP
    status (see `_STATUS`) and message."""
    from scipy.optimize._highspy import _core
    options = _core.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = \
        _core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = _core.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    text = _core._Highs().modelStatusToString
    statuses = {model: (_STATUS.get(name, 4), f"HiGHS model status "
                                              f"{int(model)}: {text(model)}")
                for name, model in _core.HighsModelStatus.__members__.items()}
    return _core, options, statuses


@dataclass
class LPResult:
    status: int                   # scipy's LP status code, see _STATUS
    x: Optional[np.ndarray]       # the minimizer when status == 0
    fun: Optional[float]          # cT x when status == 0
    message: str

    def minimum(self) -> tuple:
        """(min cT x, minimizer): (+inf, None) when infeasible and
        (-inf, None) when unbounded; any other failure raises."""
        if self.status == 0:
            return float(self.fun), np.asarray(self.x)
        if self.status == 3:
            return -np.inf, None
        if self.status == 2:
            return np.inf, None
        raise LinSolveError(f"solver failure: {self.message}")


def _vector(v, name):
    try:
        v = np.asarray(v, dtype=float).squeeze()
    except (TypeError, ValueError) as exc:
        raise LinSolveError(f"{name} must be numeric") from exc
    return v.reshape(-1) if v.size == 1 else v


def _matrix(A, n, name):
    """A as a finite (m, n) matrix; None is a block of no rows."""
    try:
        A = np.zeros((0, n)) if A is None else np.asarray(A, dtype=float)
    except (TypeError, ValueError) as exc:
        raise LinSolveError(f"{name} must be numeric") from exc
    if A.ndim != 2 or A.shape[1] != n:
        raise LinSolveError(f"{name} must be a matrix with {n} columns")
    if not np.isfinite(A).all():
        raise LinSolveError(f"{name} must be finite")
    return A


def _rhs(b, m, name):
    """b_name as a finite m-vector; None is the empty vector."""
    b = np.zeros(0) if b is None else _vector(b, f"b_{name}")
    if b.shape != (m,):
        raise LinSolveError(f"A_{name}/b_{name} shape mismatch")
    if not np.isfinite(b).all():
        raise LinSolveError(f"b_{name} must be finite")
    return b


def _fine(values) -> bool:
    """Does a list of floats hold a nonzero one below `_FINE` in magnitude?"""
    return any(0.0 < abs(v) < _FINE for v in values)


def _bound_pair(bounds):
    """One (lo, hi) pair for every variable; None is unbounded."""
    try:
        lo, hi = (None, None) if bounds is None else bounds
        return (-np.inf if lo is None else float(lo),
                np.inf if hi is None else float(hi))
    except (TypeError, ValueError) as exc:
        raise LinSolveError("bounds must be one (lo, hi) pair") from exc


class LPFamily:
    """minimize cT x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  lo <= x <= hi
    for one (c, A_ub, A_eq, bounds) and any number of (b_ub, b_eq).

    `bounds` is one (lo, hi) pair for all variables (None: that side
    unbounded; `bounds=None`: x free).  Invalid input raises
    `LinSolveError`.
    """

    def __init__(self, c, A_ub=None, A_eq=None, bounds=None):
        c = _vector(c, "c")
        if c.ndim != 1 or c.size == 0 or not np.isfinite(c).all():
            raise LinSolveError("c must be a non-empty finite vector")
        A_ub = _matrix(A_ub, c.size, "A_ub")
        A_eq = _matrix(A_eq, c.size, "A_eq")
        self._lo, self._hi = _bound_pair(bounds)
        self._m_ub, self._m_eq = A_ub.shape[0], A_eq.shape[0]
        _, options, self._statuses = _highs()
        self._c, self._A, self._highs = c, np.vstack([A_ub, A_eq]), None
        self._up, self._inf = None, options.infinite_bound
        if c.size == 1 and not self._m_eq and -self._lo == self._hi == np.inf \
                and not _fine(c.tolist()) and abs(c[0]) < options.infinite_cost \
                and (np.abs(A_ub) == 1).all():
            self._up = A_ub[:, 0] > 0       # an interval family: +x rows
        else:
            self._build()

    def _build(self):
        """The family's HiGHS model and scipy's re-check limits for it."""
        core, options, _ = _highs()
        c, n, m = self._c, self._c.size, self._A.shape[0]
        lp = core.HighsLp()
        lp.num_col_, lp.num_row_ = n, m
        lp.col_cost_ = c
        lp.col_lower_ = np.full(n, self._lo)
        lp.col_upper_ = np.full(n, self._hi)
        lp.row_lower_ = np.full(m, -np.inf)
        lp.row_upper_ = np.full(m, np.inf)
        # column-wise storage of [A_ub; A_eq] without its zeros, entries of a
        # column in row order, as scipy's compressed sparse column format has it
        At = self._A.T
        nz = At != 0
        mat = lp.a_matrix_
        mat.format_ = core.MatrixFormat.kColwise
        mat.num_col_, mat.num_row_ = n, m
        per_col = nz.sum(axis=1)
        mat.start_ = np.concatenate([[0], np.cumsum(per_col)]).astype(np.int32)
        mat.index_ = np.nonzero(nz)[1].astype(np.int32)
        mat.value_ = values = At[nz]

        self._highs, self._error = core._Highs(), core.HighsStatus.kError
        # a family whose c or matrix is fine-grained starts every member cold;
        # so does an interval family, whose HiGHS members are all within
        # _FINE of a tolerance
        self._cold = self._up is not None or _fine(c.tolist()) \
            or _fine(values.tolist())
        # scipy's re-check limits on x, on the slack of each ub row and on
        # the residual of each eq row, in that order
        tol = _FEAS_TOL
        self._floor = np.repeat([self._lo - tol, -tol], [n, m])
        self._ceil = np.repeat([self._hi + tol, np.inf, tol],
                               [n, self._m_ub, self._m_eq])
        # a model HiGHS refuses reports the status of that refusal for
        # every member, as scipy's LP function would
        self._refused = None
        if self._highs.passOptions(options) == self._error:
            self._refused = self._highs.getModelStatus()
        elif self._highs.passModel(lp) == self._error:
            self._refused = core.HighsModelStatus.kModelError

    def _interval(self, B: np.ndarray) -> list[Optional[LPResult]]:
        """An interval family's members with right-hand sides the rows of
        B, in closed form; None for each member HiGHS decides (see the
        module docstring)."""
        up = self._up
        # [L, U] = [lo, hi]: hi is the least b of a +x row, low that of a
        # -x row, and lo = -low
        least = np.minimum.reduce
        hi = least(np.where(up, B, np.inf), axis=1, initial=np.inf)
        low = least(np.where(up, np.inf, B), axis=1, initial=np.inf)
        lo, mag = -low, np.abs(B)
        # how far each bound lies from the tightest on its side
        slack = B - np.where(up, hi[:, None], low[:, None])
        gap = lo - hi
        to_highs = np.logical_or.reduce(
            (mag > 0.0) & (mag < _FINE) | (mag >= self._inf)
            | (slack > 0.0) & (slack <= _FINE), axis=1) \
            | (gap > 0.0) & (gap <= _FINE)
        empty, c = lo > hi, float(self._c[0])
        if c:
            x = lo if c > 0 else hi
        elif up.size:
            # c = 0: the end nearer 0, lo on a tie
            tie = np.abs(np.abs(lo) - np.abs(hi))
            to_highs |= ~empty & (tie > 0.0) & (tie <= _FINE)
            x = np.where(np.abs(hi) < np.abs(lo), hi, lo)
        else:
            x = np.zeros(len(B))        # no rows: +0.0
        if up.size:                     # a zero end is -0.0, as HiGHS has it
            x = np.where(x == 0.0, -0.0, x)
        enum = _highs()[0].HighsModelStatus
        optimal, infeasible, unbounded = (self._statuses[model] for model in (
            enum.kOptimal, enum.kInfeasible, enum.kUnbounded))
        # + 0.0: HiGHS's objective at x = -0.0 is +0.0
        X, fun, out = x[:, None], (c * x + 0.0).tolist(), []
        for i, (h, e, end) in enumerate(zip(to_highs.tolist(), empty.tolist(),
                                            x.tolist())):
            if h:
                out.append(None)
            elif e or abs(end) == np.inf:
                status, message = infeasible if e else unbounded
                out.append(LPResult(status, None, None, message))
            else:
                out.append(LPResult(optimal[0], X[i], fun[i], optimal[1]))
        return out

    def _member(self, b_ub: np.ndarray, b_eq: np.ndarray) -> LPResult:
        """One member on HiGHS, warm from the last unless it starts cold."""
        if self._highs is None:
            self._build()
        highs, model, ran = self._highs, self._refused, False
        upper = np.concatenate([b_ub, b_eq])
        if model is None:
            rows = upper.tolist()
            if self._cold or _fine(rows):
                highs.clearSolver()
            lower = [-np.inf] * self._m_ub + b_eq.tolist()
            for i, bounds in enumerate(zip(lower, rows)):
                highs.changeRowBounds(i, *bounds)
            ran = highs.run() != self._error
            model = highs.getModelStatus()
        status, message = self._statuses[model]
        if status == 0 and ran:
            sol = highs.getSolution()
            x = np.array(sol.col_value)
            fun = highs.getObjectiveValue()
            checked = np.concatenate([x, upper - np.asarray(sol.row_value)])
            # NaN fails every comparison
            if fun == fun and ((checked >= self._floor)
                               & (checked <= self._ceil)).all():
                return LPResult(0, x, fun, message)
            res = LPResult(4, x, fun, f"solution violates the constraints by "
                                      f"more than {_FEAS_TOL:.2E}; {message}")
        else:   # "optimal" with no solution to read is a solver failure
            res = LPResult(status or 4, None, None, message)
        highs.clearSolver()             # the next member starts cold
        return res

    def solve(self, b_ub=None, b_eq=None) -> LPResult:
        """The member with right-hand sides (b_ub, b_eq): an `LPResult`
        whose status codes, x and objective are those of scipy's LP
        function with method "highs" on the same program."""
        b_ub = _rhs(b_ub, self._m_ub, "ub")
        b_eq = _rhs(b_eq, self._m_eq, "eq")
        res = None if self._up is None else self._interval(b_ub[None, :])[0]
        return self._member(b_ub, b_eq) if res is None else res

    def solve_many(self, B_ub) -> list[LPResult]:
        """The members whose b_ub are the rows of B_ub, of a family without
        equality rows, in row order: each one as `solve` gives it.  An
        interval family answers all rows at once and solves the members
        that HiGHS decides one by one, cold."""
        b_eq = _rhs(None, self._m_eq, "eq")
        B_ub = _matrix(B_ub, self._m_ub, "B_ub")
        closed = [None] * len(B_ub) if self._up is None \
            else self._interval(B_ub)
        return [self._member(b, b_eq) if res is None else res
                for res, b in zip(closed, B_ub)]


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None):
    """minimize cT x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  lo <= x <= hi:
    an `LPFamily` of one member (see there)."""
    return LPFamily(c, A_ub, A_eq, bounds).solve(b_ub, b_eq)


def feasible_point(n: int, A_ub=None, b_ub=None, A_eq=None,
                   b_eq=None) -> FeasibilityResult:
    """Feasibility of {x in R^n : A_ub x <= b_ub, A_eq x = b_eq}."""
    point = solve_lp(np.zeros(n), A_ub, b_ub, A_eq, b_eq).minimum()[1]
    return FeasibilityResult(point is not None, point)


def strict_interior_point(n: int, A_ub, b_ub, A_eq=None, b_eq=None):
    """A point with A_ub x < b_ub (componentwise) and A_eq x = b_eq, or None.

    Maximizes the uniform slack s subject to A_ub x + s <= b_ub with rows
    assumed normalized, s capped at 1 to keep the program bounded.
    """
    A_ub, A_eq = _matrix(A_ub, n, "A_ub"), _matrix(A_eq, n, "A_eq")
    m = A_ub.shape[0]
    b_ub, b_eq = _rhs(b_ub, m, "ub"), _rhs(b_eq, A_eq.shape[0], "eq")
    c = np.zeros(n + 1)
    c[-1] = -1.0
    Aub = np.hstack([A_ub, np.ones((m, 1))])
    Aub = np.vstack([Aub, np.concatenate([np.zeros(n), [1.0]])])
    bub = np.concatenate([b_ub, [1.0]])
    Aeq = np.hstack([A_eq, np.zeros((A_eq.shape[0], 1))])
    res = solve_lp(c, A_ub=Aub, b_ub=bub, A_eq=Aeq, b_eq=b_eq)
    if res.status != 0 or -res.fun <= POLY_TOL:
        return None
    return np.asarray(res.x[:n])


def max_support(c, n: int, A_ub=None, b_ub=None, A_eq=None, b_eq=None):
    """sup cT x over the polyhedron: (value, argmax or None).

    Returns (+inf, None) when unbounded and (-inf, None) when empty.
    """
    c = _vector(c, "c")
    if c.shape != (n,):
        raise LinSolveError(f"c must have {n} entries")
    val, arg = solve_lp(-c, A_ub, b_ub, A_eq, b_eq).minimum()
    return -val, arg


def in_cone_of(generators: np.ndarray, v: np.ndarray) -> bool:
    """v in cone(generators)?  Generators are rows; empty cone is {0}."""
    G = np.atleast_2d(np.asarray(generators, dtype=float))
    v = np.asarray(v, dtype=float)
    if G.size == 0 or G.shape[0] == 0:
        return bool(np.abs(v).max(initial=0.0) <= POLY_TOL)
    res = solve_lp(np.zeros(G.shape[0]), A_eq=G.T, b_eq=v, bounds=(0, None))
    return res.status == 0
