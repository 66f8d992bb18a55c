"""Linear feasibility with certificates.

Behavioral contract: given A_ub x <= b_ub, A_eq x = b_eq (variables
free), either return a feasible point or a Farkas certificate — vectors
y >= 0, z with yT A_ub + zT A_eq = 0 and yT b_ub + zT b_eq < 0, which
proves infeasibility.  Solving is delegated to scipy's HiGHS backend;
the certificate is recomputed by a second explicit program rather than
read from solver internals, so it can be checked independently.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linprog

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


def _norm(M, v, n):
    if M is None:
        return np.zeros((0, n)), np.zeros(0)
    M = np.atleast_2d(np.asarray(M, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if M.shape[0] != v.shape[0]:
        raise LinSolveError("matrix/vector shape mismatch")
    return M, v


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None):
    """Thin wrapper: minimize cT x; returns the scipy result object."""
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds if bounds is not None else (None, None),
                  method="highs")
    return res


def feasible_point(n: int, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
                   tol: float = 1e-9) -> FeasibilityResult:
    """Feasibility of {x in R^n : A_ub x <= b_ub, A_eq x = b_eq}."""
    A_ub, b_ub = _norm(A_ub, b_ub, n)
    A_eq, b_eq = _norm(A_eq, b_eq, n)
    res = solve_lp(np.zeros(n),
                   A_ub=A_ub if A_ub.size else None,
                   b_ub=b_ub if A_ub.size else None,
                   A_eq=A_eq if A_eq.size else None,
                   b_eq=b_eq if A_eq.size else None)
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
    A_ub, b_ub = _norm(A_ub, b_ub, n)
    A_eq, b_eq = _norm(A_eq, b_eq, n)
    m = A_ub.shape[0]
    c = np.zeros(n + 1)
    c[-1] = -1.0
    Aub = np.hstack([A_ub, np.ones((m, 1))])
    Aub = np.vstack([Aub, np.concatenate([np.zeros(n), [1.0]])])
    bub = np.concatenate([b_ub, [1.0]])
    Aeq = np.hstack([A_eq, np.zeros((A_eq.shape[0], 1))]) if A_eq.size else None
    res = solve_lp(c, A_ub=Aub, b_ub=bub, A_eq=Aeq,
                   b_eq=b_eq if A_eq.size else None)
    if res.status != 0 or -res.fun <= tol:
        return None
    return np.asarray(res.x[:n])


def max_support(c, n: int, A_ub=None, b_ub=None, A_eq=None, b_eq=None):
    """sup cT x over the polyhedron: (value, argmax or None).

    Returns (+inf, None) when unbounded and (-inf, None) when empty.
    """
    A_ub, b_ub = _norm(A_ub, b_ub, n)
    A_eq, b_eq = _norm(A_eq, b_eq, n)
    res = solve_lp(-np.asarray(c, dtype=float),
                   A_ub=A_ub if A_ub.size else None,
                   b_ub=b_ub if A_ub.size else None,
                   A_eq=A_eq if A_eq.size else None,
                   b_eq=b_eq if A_eq.size else None)
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
