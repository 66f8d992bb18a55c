"""Linear feasibility with certificates.

Behavioral contract: given A_ub x <= b_ub, A_eq x = b_eq (variables
free), either return a feasible point or a Farkas certificate — vectors
y >= 0, z with yT A_ub + zT A_eq = 0 and yT b_ub + zT b_eq < 0, which
proves infeasibility.  The certificate is recomputed by a second explicit
program rather than read from solver internals, so it can be checked
independently.

Every LP goes through `solve_lp`, which runs the HiGHS dual simplex that
scipy bundles, through scipy's private `scipy.optimize._highspy._core`
module, on a fresh solver per call.  It builds the same model, with the
same options, status codes and feasibility re-check, as scipy's public
LP function does with method "highs", without that function's per-call
option parsing and sparse-matrix conversion.  The module is private, so
`tests/test_linsolve.py` compares `solve_lp` with the public function
(equal status, bit-identical x and objective); that parity test is the
guard against a scipy release that changes either side.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize._highspy import _core as _highs

from .policy import RegkitError


class LinSolveError(RegkitError, RuntimeError):
    pass


@dataclass
class Farkas:
    y: np.ndarray            # multipliers for the inequalities, >= 0
    z: np.ndarray            # multipliers for the equalities, free sign
    combo_residual: float    # || yT A_ub + zT A_eq ||_inf
    value: float             # yT b_ub + zT b_eq, certifying when < 0

    def certifies(self, tol: float = 1e-9) -> bool:
        return self.combo_residual <= tol and self.value < -tol


@dataclass
class FeasibilityResult:
    feasible: bool
    point: Optional[np.ndarray] = None
    certificate: Optional[Farkas] = None


# scipy's settings for method "highs": presolve on, dual simplex, silent
_OPTIONS = _highs.HighsOptions()
_OPTIONS.presolve = "on"
_OPTIONS.simplex_strategy = \
    _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
_OPTIONS.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
_OPTIONS.log_to_console = False
_OPTIONS.output_flag = False

_INF = _highs.kHighsInf
_MS = _highs.HighsModelStatus
# HiGHS model status -> scipy's LP status: 0 optimal, 1 limit reached,
# 2 infeasible, 3 unbounded; every other model status (solver trouble,
# kUnboundedOrInfeasible included) is 4
_STATUS = {_MS.kOptimal: 0, _MS.kTimeLimit: 1, _MS.kIterationLimit: 1,
           _MS.kInfeasible: 2, _MS.kModelError: 2, _MS.kUnbounded: 3}
# scipy's re-check of an "optimal" point: sqrt(tol) * 10 at tol = 1e-9
_FEAS_TOL = np.sqrt(1e-9) * 10


@dataclass
class LPResult:
    status: int                   # scipy's LP status code, see _STATUS
    x: Optional[np.ndarray]       # the minimizer when status == 0
    fun: Optional[float]          # cT x when status == 0
    message: str


def _vector(v, name):
    try:
        v = np.asarray(v, dtype=float).squeeze()
    except (TypeError, ValueError) as exc:
        raise LinSolveError(f"{name} must be numeric") from exc
    return v.reshape(-1) if v.size == 1 else v


def _constraints(A, b, n, name):
    """(A, b) of one constraint block as a (m, n) matrix and an m-vector."""
    try:
        A = np.zeros((0, n)) if A is None else np.asarray(A, dtype=float)
    except (TypeError, ValueError) as exc:
        raise LinSolveError(f"A_{name} must be numeric") from exc
    b = np.zeros(0) if b is None else _vector(b, f"b_{name}")
    if A.ndim != 2 or A.shape[1] != n:
        raise LinSolveError(f"A_{name} must be a matrix with {n} columns")
    if b.shape != (A.shape[0],):
        raise LinSolveError(f"A_{name}/b_{name} shape mismatch")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise LinSolveError(f"A_{name} and b_{name} must be finite")
    return A, b


def _bound_pair(bounds):
    """One (lo, hi) pair for every variable; None is unbounded."""
    try:
        lo, hi = (None, None) if bounds is None else bounds
        return (-_INF if lo is None else float(lo),
                _INF if hi is None else float(hi))
    except (TypeError, ValueError) as exc:
        raise LinSolveError("bounds must be one (lo, hi) pair") from exc


def _run(highs, lp) -> tuple:
    """Pass the options and `lp` to `highs` and solve: (HiGHS model
    status, whether the solve ran to its end)."""
    if highs.passOptions(_OPTIONS) == _highs.HighsStatus.kError:
        return highs.getModelStatus(), False
    if highs.passModel(lp) == _highs.HighsStatus.kError:
        return _MS.kModelError, False
    if highs.run() == _highs.HighsStatus.kError:
        return highs.getModelStatus(), False
    return highs.getModelStatus(), True


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None):
    """minimize cT x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  lo <= x <= hi.

    `bounds` is one (lo, hi) pair for all variables (None: that side
    unbounded; `bounds=None`: x free).  Returns an `LPResult` whose status
    codes, x and objective are those of scipy's LP function with method
    "highs" on the same input; invalid input raises `LinSolveError`.
    """
    c = _vector(c, "c")
    if c.ndim != 1 or c.size == 0 or not np.isfinite(c).all():
        raise LinSolveError("c must be a non-empty finite vector")
    n = c.size
    A_ub, b_ub = _constraints(A_ub, b_ub, n, "ub")
    A_eq, b_eq = _constraints(A_eq, b_eq, n, "eq")
    lo, hi = _bound_pair(bounds)
    m_ub = b_ub.size
    m = m_ub + b_eq.size

    lp = _highs.HighsLp()
    lp.num_col_, lp.num_row_ = n, m
    lp.col_cost_ = c
    lp.col_lower_ = np.full(n, lo)
    lp.col_upper_ = np.full(n, hi)
    lp.row_lower_ = np.concatenate([np.full(m_ub, -_INF), b_eq])
    lp.row_upper_ = np.concatenate([b_ub, b_eq])
    # column-wise storage of [A_ub; A_eq] without its zeros, entries of a
    # column in row order, as scipy's compressed sparse column format has it
    At = np.vstack([A_ub, A_eq]).T
    nz = At != 0
    mat = lp.a_matrix_
    mat.format_ = _highs.MatrixFormat.kColwise
    mat.num_col_, mat.num_row_ = n, m
    per_col = nz.sum(axis=1)
    mat.start_ = np.concatenate([[0], np.cumsum(per_col)]).astype(np.int32)
    mat.index_ = np.nonzero(nz)[1].astype(np.int32)
    mat.value_ = At[nz]

    highs = _highs._Highs()
    model, ran = _run(highs, lp)
    status = _STATUS.get(model, 4)
    message = f"HiGHS model status {int(model)}: " \
              f"{highs.modelStatusToString(model)}"
    if status == 0 and not ran:
        status = 4                  # "optimal" with no solution to read
    if status != 0:
        return LPResult(status, None, None, message)
    sol = highs.getSolution()
    x = np.array(sol.col_value)
    fun = highs.getInfo().objective_function_value
    row = np.asarray(sol.row_value)
    slack, con = b_ub - row[:m_ub], b_eq - row[m_ub:]
    tol = _FEAS_TOL
    if (np.isnan(fun) or np.isnan(slack).any() or np.isnan(con).any()
            or not ((x >= lo - tol) & (x <= hi + tol)).all()
            or (slack < -tol).any() or (np.abs(con) > tol).any()):
        return LPResult(4, x, fun, f"solution violates the constraints by "
                                   f"more than {tol:.2E}; {message}")
    return LPResult(0, x, fun, message)


def feasible_point(n: int, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
                   tol: float = 1e-9) -> FeasibilityResult:
    """Feasibility of {x in R^n : A_ub x <= b_ub, A_eq x = b_eq}."""
    A_ub, b_ub = _constraints(A_ub, b_ub, n, "ub")
    A_eq, b_eq = _constraints(A_eq, b_eq, n, "eq")
    res = solve_lp(np.zeros(n), A_ub, b_ub, A_eq, b_eq)
    if res.status == 0:
        return FeasibilityResult(True, point=np.asarray(res.x))
    if res.status != 2:
        raise LinSolveError(f"solver failure: {res.message}")
    cert = _farkas(A_ub, b_ub, A_eq, b_eq)
    return FeasibilityResult(False, certificate=cert)


def _farkas(A_ub, b_ub, A_eq, b_eq) -> Farkas:
    """Explicit certificate program.

    Variables (y, z+, z-) with y, z+, z- >= 0 and z = z+ - z-:
      minimize  yT b_ub + zT b_eq
      s.t.      yT A_ub + zT A_eq = 0,   sum(y) + sum(z+) + sum(z-) <= 1
    A strictly negative optimum certifies infeasibility of the primal.
    """
    m1, m2 = A_ub.shape[0], A_eq.shape[0]
    n = A_ub.shape[1] if m1 else A_eq.shape[1]
    c = np.concatenate([b_ub, b_eq, -b_eq])
    Aeq = np.hstack([A_ub.T, A_eq.T, -A_eq.T]) if n else np.zeros((0, m1 + 2 * m2))
    beq = np.zeros(n)
    Aub = np.ones((1, m1 + 2 * m2))
    res = solve_lp(c, A_ub=Aub, b_ub=np.array([1.0]),
                   A_eq=Aeq if n else None, b_eq=beq if n else None,
                   bounds=(0, None))
    if res.status != 0:
        raise LinSolveError(f"certificate program failed: {res.message}")
    v = np.asarray(res.x)
    y = v[:m1]
    z = v[m1:m1 + m2] - v[m1 + m2:]
    combo = y @ A_ub + z @ A_eq if n else np.zeros(0)
    return Farkas(y=y, z=z,
                  combo_residual=float(np.abs(combo).max(initial=0.0)),
                  value=float(y @ b_ub + z @ b_eq))


def strict_interior_point(n: int, A_ub, b_ub, A_eq=None, b_eq=None,
                          tol: float = 1e-9):
    """A point with A_ub x < b_ub (componentwise) and A_eq x = b_eq, or None.

    Maximizes the uniform slack s subject to A_ub x + s <= b_ub with rows
    assumed normalized, s capped at 1 to keep the program bounded.
    """
    A_ub, b_ub = _constraints(A_ub, b_ub, n, "ub")
    A_eq, b_eq = _constraints(A_eq, b_eq, n, "eq")
    m = A_ub.shape[0]
    c = np.zeros(n + 1)
    c[-1] = -1.0
    Aub = np.hstack([A_ub, np.ones((m, 1))])
    Aub = np.vstack([Aub, np.concatenate([np.zeros(n), [1.0]])])
    bub = np.concatenate([b_ub, [1.0]])
    Aeq = np.hstack([A_eq, np.zeros((A_eq.shape[0], 1))])
    res = solve_lp(c, A_ub=Aub, b_ub=bub, A_eq=Aeq, b_eq=b_eq)
    if res.status != 0 or -res.fun <= tol:
        return None
    return np.asarray(res.x[:n])


def max_support(c, n: int, A_ub=None, b_ub=None, A_eq=None, b_eq=None):
    """sup cT x over the polyhedron: (value, argmax or None).

    Returns (+inf, None) when unbounded and (-inf, None) when empty.
    """
    A_ub, b_ub = _constraints(A_ub, b_ub, n, "ub")
    A_eq, b_eq = _constraints(A_eq, b_eq, n, "eq")
    res = solve_lp(-np.asarray(c, dtype=float), A_ub, b_ub, A_eq, b_eq)
    if res.status == 0:
        return float(-res.fun), np.asarray(res.x)
    if res.status == 3:
        return np.inf, None
    if res.status == 2:
        return -np.inf, None
    raise LinSolveError(f"solver failure: {res.message}")


def in_cone_of(generators: np.ndarray, v: np.ndarray, tol: float = 1e-9) -> bool:
    """v in cone(generators)?  Generators are rows; empty cone is {0}."""
    G = np.atleast_2d(np.asarray(generators, dtype=float))
    v = np.asarray(v, dtype=float)
    if G.size == 0 or G.shape[0] == 0:
        return bool(np.abs(v).max(initial=0.0) <= tol)
    res = solve_lp(np.zeros(G.shape[0]), A_eq=G.T, b_eq=v, bounds=(0, None))
    return res.status == 0
