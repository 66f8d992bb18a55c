"""Linear programs on the HiGHS solver that scipy bundles.

Every LP is a member of an `LPFamily`: programs with one objective, one
constraint matrix and one set of variable bounds, which differ only in
their right-hand sides.  A family builds its HiGHS model once.  One HiGHS
solver serves the whole process, which must use it from one thread: a
member whose family's model the solver does not hold hands that model
over (`passModel`) and starts cold.  A member that follows a member of
its own family changes the row bounds and re-runs the dual simplex from
the previous member's optimal basis, which a change of b leaves dual
feasible (parametric right-hand sides: Bertsimas & Tsitsiklis,
Introduction to Linear Optimization, 1997, ch. 5).  A right-hand side
HiGHS reads as infinite on the wrong side (b_ub <= -1e20, or b_eq at
+-1e20) is refused, and the member is a model error, as in scipy's LP
function.  After a member that is not optimal the next one starts cold.
So does a member whose c, matrix or right-hand side holds a nonzero entry
below `_FINE` = 1e-6 in magnitude: near HiGHS's feasibility tolerances of
1e-7 a warm and a cold solve can give different statuses or optima, and a
cold one is what `solve_lp` returns.  `solve_lp` is a family of one.
`LPFamily.solve_many` takes a batch of b_ub rows for a family without
equality rows, validates it once and gives each member as `solve` would,
in row order.

An interval family has one column whose every A_ub and A_eq entry is
+-1, a cost c that is not fine-grained and below HiGHS's infinite cost,
and any bounds.  It reads each row, each side of an equality a x = b
(a x <= b and -a x <= -b) and each finite bound (x <= hi, -x <= -lo) as
a row +-x <= b_i.  A member minimizes c x over [L, U], L the largest
-b_i of a -1 row and U the smallest b_i of a +1 row, and is answered in
closed form, as HiGHS answers it: infeasible when L > U; else L for c > 0
and U for c < 0, unbounded when that end is infinite, and for c = 0 the
end nearer 0, L on a tie.  A zero optimum is -0.0, unless a column bound
that is a zero gives that end (lo when lo = hi), whose bits it takes.
With no rows at all HiGHS puts x at a column bound as given: lo for c > 0,
hi for c < 0, and for c = 0 the first finite one of lo, hi and +0.0.
HiGHS still decides every member within `_FINE` of a tolerance, where it
reads the data by its tolerances, not exactly: a b or bound that is
fine-grained or at HiGHS's infinite bound, 0 < L - U <= `_FINE`, a bound
within `_FINE` of the tightest on its side, or c = 0 with |L| and |U|
within `_FINE`.  The family builds its HiGHS model for the first such
member and solves all of them cold.  The closed form is one array
computation over a batch: [L, U] for every row by two masked minima, and
the rule above as masks; the members it leaves to HiGHS are solved one
by one.  `solve` is a batch of one.

HiGHS is reached through scipy's private `scipy.optimize._highspy._core`,
loaded on the first solve from its file, so no regkit command imports the
`scipy.optimize` package (a later import of it reuses the module), with
the model, options, status codes and feasibility re-check of scipy's LP
function with method "highs".
`tests/test_linsolve.py` compares `solve_lp` and interval members with that
function, and each family member with a one-member solve, as a guard
against scipy drift.
"""
from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from importlib import import_module, machinery, util
from types import SimpleNamespace
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
def _highs() -> SimpleNamespace:
    """The process's one HiGHS solver, made on the first solve with scipy's
    options for method "highs": presolve on, dual simplex, silent.  Its
    fields: `core`, scipy's HiGHS module; `options`; `solver`; `statuses`,
    keyed by HiGHS model status, the LP status (see `_STATUS`) and message;
    `optimal`, `infeasible` and `unbounded`, the entries of three of them;
    `refused`, the model status every member reports when HiGHS refuses
    the options, else None; `owner`, the family whose model the solver
    holds, if any; and `error`, HiGHS's status for a refused call."""
    # the loaded module, else the extension file, which skips scipy.optimize's
    # __init__ (registered first, for a later import to reuse), else import
    full = "scipy.optimize._highspy._core"
    root = util.find_spec("scipy").submodule_search_locations[0]
    stem = os.path.join(root, "optimize", "_highspy", "_core")
    path = next((stem + s for s in machinery.EXTENSION_SUFFIXES
                 if os.path.isfile(stem + s)), None)
    if full not in sys.modules and path:
        spec = util.spec_from_file_location(full, path)
        sys.modules[full] = module = util.module_from_spec(spec)
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[full]
            raise
    _core = import_module(full)
    options = _core.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = \
        _core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = _core.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    solver, error = _core._Highs(), _core.HighsStatus.kError
    text = solver.modelStatusToString
    statuses = {model: (_STATUS.get(name, 4), f"HiGHS model status "
                                              f"{int(model)}: {text(model)}")
                for name, model in _core.HighsModelStatus.__members__.items()}
    refused = solver.getModelStatus() \
        if solver.passOptions(options) == error else None
    model = _core.HighsModelStatus
    return SimpleNamespace(core=_core, options=options, solver=solver,
                           statuses=statuses, optimal=statuses[model.kOptimal],
                           infeasible=statuses[model.kInfeasible],
                           unbounded=statuses[model.kUnbounded],
                           refused=refused, owner=None, error=error)


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


def _fine(values: np.ndarray) -> bool:
    """Does an array hold a nonzero entry below `_FINE` in magnitude?"""
    mag = np.abs(values)
    return bool(np.count_nonzero((mag > 0.0) & (mag < _FINE)))


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
    `LinSolveError`.  A family of one column whose A_ub and A_eq entries
    are all +-1, with any bounds, is an interval family (see the module
    docstring): it answers its members in closed form and builds its
    HiGHS model only for a member that HiGHS must decide.
    """

    def __init__(self, c, A_ub=None, A_eq=None, bounds=None):
        c = _vector(c, "c")
        if c.ndim != 1 or c.size == 0 or not np.isfinite(c).all():
            raise LinSolveError("c must be a non-empty finite vector")
        A_ub = _matrix(A_ub, c.size, "A_ub")
        A_eq = _matrix(A_eq, c.size, "A_eq")
        self._lo, self._hi = _bound_pair(bounds)
        self._m_ub, self._m_eq = A_ub.shape[0], A_eq.shape[0]
        hs = _highs()
        options, self._statuses = hs.options, hs.statuses
        self._c, self._A, self._lp = c, np.vstack([A_ub, A_eq]), None
        self._sides, self._inf = None, options.infinite_bound
        # a bound that is NaN or infinite on the wrong side is left to HiGHS,
        # which refuses the model
        if c.size == 1 and not _fine(c) and abs(c[0]) < options.infinite_cost \
                and self._lo < np.inf and self._hi > -np.inf \
                and (np.abs(self._A) == 1).all():
            self._rows()
        else:
            self._build()

    def _rows(self):
        """An interval family's rows +-x <= b, in the order in which
        `_interval` lays out their b: each row of A_ub; each equality
        a x = b as a x <= b, then all of them as -a x <= -b; a finite lo as
        -x <= -lo and a finite hi as x <= hi.  Also the bits of a zero
        optimum at each end of [L, U]: that end's column bound when it is
        a zero (lo when lo = hi), else -0.0."""
        lo, hi = self._lo, self._hi
        col = [-1.0] * (lo > -np.inf) + [1.0] * (hi < np.inf)
        up = np.concatenate([self._A[:, 0], -self._A[self._m_ub:, 0], col]) > 0
        self._sides = up, ~up
        self._bnd = np.array([[-lo] * (lo > -np.inf) + [hi] * (hi < np.inf)])
        first = next((b for b in (lo, hi) if b == 0.0), -0.0)
        self._zero = tuple(first if b == 0.0 else -0.0 for b in (lo, hi))

    def _build(self):
        """The family's HiGHS model and scipy's re-check limits for it."""
        core = _highs().core
        c, n, m = self._c, self._c.size, self._A.shape[0]
        self._lp = lp = core.HighsLp()
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

        # a family whose c or matrix is fine-grained starts every member cold;
        # so does an interval family, whose HiGHS members are all within
        # _FINE of a tolerance
        self._cold = self._sides is not None or _fine(c) or _fine(values)
        # scipy's re-check limits on x, on the slack of each ub row and on
        # the residual of each eq row, in that order
        tol = _FEAS_TOL
        self._floor = np.repeat([self._lo - tol, -tol], [n, m])
        self._ceil = np.repeat([self._hi + tol, np.inf, tol],
                               [n, self._m_ub, self._m_eq])
        # refused options or a refused model give every member the status
        # of that refusal, as scipy's LP function would
        self._refused = _highs().refused

    def _interval(self, B_ub: np.ndarray,
                  B_eq: np.ndarray) -> list[Optional[LPResult]]:
        """An interval family's members with right-hand sides the rows of
        B_ub and B_eq, in closed form; None for each member HiGHS decides
        (see the module docstring)."""
        (up, down), hs = self._sides, _highs()
        # the b of every row +-x <= b, as `_rows` lays them out
        B = B_ub if up.size == self._m_ub else np.concatenate(
            [B_ub, B_eq, -B_eq, self._bnd.repeat(len(B_ub), axis=0)], axis=1)
        # [L, U] = [lo, hi]: hi is the least b of a +x row, low that of a
        # -x row, and lo = -low
        least = np.minimum.reduce
        hi = least(B, axis=1, where=up, initial=np.inf)
        low = least(B, axis=1, where=down, initial=np.inf)
        lo, mag = -low, np.abs(B)
        # how far each bound lies from the tightest on its side
        slack = B - np.where(up, hi[:, None], low[:, None])
        gap = lo - hi
        to_highs = np.logical_or.reduce(
            (mag > 0.0) & (mag < _FINE) | (mag >= self._inf)
            | (slack > 0.0) & (slack <= _FINE), axis=1) \
            | (gap > 0.0) & (gap <= _FINE)
        empty, c = lo > hi, float(self._c[0])
        if not self._A.size:
            # no rows: x at lo for c > 0, at hi for c < 0 and for c = 0 at
            # the first finite one of lo, hi and +0.0, each as given
            x = np.full(len(B), self._lo if c > 0 else self._hi if c < 0 else
                        next((b for b in (self._lo, self._hi)
                              if abs(b) < np.inf), 0.0))
        else:
            # lo for c > 0, hi for c < 0 and for c = 0 the end nearer 0, lo
            # on a tie; a zero end has the bits of `_zero`
            if c:
                x, zero = (hi, self._zero[1]) if c < 0 else (lo, self._zero[0])
            else:
                at_hi = np.abs(hi) < np.abs(lo)
                tie = np.abs(np.abs(lo) - np.abs(hi))
                to_highs |= ~empty & (tie > 0.0) & (tie <= _FINE)
                x = np.where(at_hi, hi, lo)
                zero = np.where(at_hi, *self._zero[::-1])
            x = np.where(x == 0.0, zero, x)
        optimal, message = hs.optimal
        # + 0.0: HiGHS's objective at x = -0.0 is +0.0
        X, fun, out = x[:, None], (c * x + 0.0).tolist(), []
        for i, (h, e, end) in enumerate(zip(to_highs.tolist(), empty.tolist(),
                                            x.tolist())):
            if h:
                out.append(None)
            elif e or abs(end) == np.inf:
                status, why = hs.infeasible if e else hs.unbounded
                out.append(LPResult(status, None, None, why))
            else:
                out.append(LPResult(optimal, X[i], fun[i], message))
        return out

    def _member(self, b_ub: np.ndarray, b_eq: np.ndarray) -> LPResult:
        """One member on HiGHS: warm from the last member when the solver
        holds this family's model and it does not start cold; cold when it
        hands the family's model to the solver."""
        if self._lp is None:
            self._build()
        hs = _highs()
        highs, model, ran = hs.solver, self._refused, False
        upper = np.concatenate([b_ub, b_eq])
        if model is None and hs.owner is not self:
            hs.owner = None
            if highs.passModel(self._lp) == hs.error:
                self._refused = model = hs.core.HighsModelStatus.kModelError
            else:
                hs.owner = self
        if model is None:
            if self._cold or _fine(upper):
                highs.clearSolver()
            lower = [-np.inf] * self._m_ub + b_eq.tolist()
            # HiGHS refuses a bound it reads as infinite on the wrong side
            # (upper <= -1e20, lower >= 1e20): a model error, with no run
            if any(highs.changeRowBounds(i, *bounds) == hs.error
                   for i, bounds in enumerate(zip(lower, upper.tolist()))):
                model = hs.core.HighsModelStatus.kModelError
            else:
                ran = highs.run() != hs.error
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
        res = None if self._sides is None else \
            self._interval(b_ub[None, :], b_eq[None, :])[0]
        return self._member(b_ub, b_eq) if res is None else res

    def solve_many(self, B_ub) -> list[LPResult]:
        """The members whose b_ub are the rows of B_ub, of a family without
        equality rows, in row order: each one as `solve` gives it.  An
        interval family, bounded or not, answers all rows at once and
        solves the members that HiGHS decides one by one, cold."""
        b_eq = _rhs(None, self._m_eq, "eq")
        B_ub = _matrix(B_ub, self._m_ub, "B_ub")
        closed = [None] * len(B_ub) if self._sides is None \
            else self._interval(B_ub, B_ub[:, :0])
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
