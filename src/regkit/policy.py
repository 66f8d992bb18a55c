"""Shared numeric policy: tolerances, horizons and size caps.

A single policy record is threaded through every module so that strict
inequalities are resolved the same way everywhere: "d < r" is evaluated
as d < r - tol_strict, "d <= r" as d <= r + tol_strict.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

INF = float("inf")

# The one tolerance of the polyhedral layer (linsolve, polyhedra, optcond):
# memberships, active rows and strict interiors on unit-norm rows.  It is
# here, not in polyhedra, because polyhedra imports linsolve.
POLY_TOL = 1e-9


class RegkitError(Exception):
    """Base of every regkit error; the CLI turns it into exit code 2."""


@dataclass(frozen=True)
class NumericPolicy:
    tol_strict: float = 1e-12
    triangle_tol: float = 1e-9
    horizon: int = 64
    evp_cap: int = 10_000
    cone_gamma_levels: int = 20
    cone_oracle_tol: float = 1e-6
    seed: int = 0
    validate: bool = False

    def lt(self, a: float, b: float) -> bool:
        """Strict 'a < b' under the floating-point policy."""
        if a == INF:
            return False
        if b == INF:
            return True
        return a < b - self.tol_strict

    def lt_each(self, a, values: np.ndarray) -> np.ndarray:
        """lt(a, v) for each v of an array, as a boolean mask; a may be an
        array too, broadcast against values."""
        return np.not_equal(a, INF) & ((values == INF) | (a < values - self.tol_strict))

    def le(self, a: float, b: float) -> bool:
        if a == INF:
            return b == INF
        if b == INF:
            return True
        return a <= b + self.tol_strict

    def with_overrides(self, **kw) -> "NumericPolicy":
        kw = {k: v for k, v in kw.items() if v is not None}
        return replace(self, **kw) if kw else self


DEFAULT_POLICY = NumericPolicy()
