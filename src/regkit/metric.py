"""Finite metric spaces: distances and balls.

Points are referenced by integer index.  A space is backed either by
coordinate vectors with a norm metric (euclidean / manhattan / chebyshev)
or by an explicit distance matrix, which is audited for metric axioms at
load time.  Every finite metric space is complete, so no completeness
hypothesis ever needs checking downstream.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .policy import DEFAULT_POLICY, INF, NumericPolicy, RegkitError

NORM_METRICS = ("euclidean", "manhattan", "chebyshev")


class MetricError(RegkitError, ValueError):
    pass


class PointIndexError(RegkitError, IndexError):
    pass


def _pairwise(a: np.ndarray, b: np.ndarray, metric: str) -> np.ndarray:
    """Distances from each row of a (rows) to each row of b (columns)."""
    diff = a[:, None, :] - b[None, :, :]
    if metric == "euclidean":
        return np.sqrt((diff ** 2).sum(-1))
    if metric == "manhattan":
        return np.abs(diff).sum(-1)
    if metric == "chebyshev":
        return np.abs(diff).max(-1)
    raise MetricError(f"unknown metric {metric!r}")


@dataclass
class FiniteMetricSpace:
    """A finite point set with a metric; immutable after construction."""

    metric: str
    coords: Optional[np.ndarray] = None
    labels: Optional[list] = None
    dmatrix: Optional[np.ndarray] = None
    policy: NumericPolicy = field(default=DEFAULT_POLICY)

    def __post_init__(self):
        if self.metric in NORM_METRICS:
            if self.coords is None:
                raise MetricError("norm metric requires coordinates")
            arr = np.asarray(self.coords, dtype=float)
            if np.isnan(arr).any():
                raise MetricError("coordinates contain NaN")
            if arr.ndim == 1:
                arr = arr.reshape(-1, 1)  # scalars are points on the line
            self.coords = arr
            self._n = arr.shape[0]
            # cache the full matrix only for small spaces; large ones use rows
            self._dmat = _pairwise(arr, arr, self.metric) if self._n <= 2000 else None
        elif self.metric == "matrix":
            if self.dmatrix is None:
                raise MetricError("explicit-matrix metric requires dmatrix")
            m = np.asarray(self.dmatrix, dtype=float)
            self._audit_matrix(m)
            self.dmatrix = m
            self._dmat = m
            self._n = m.shape[0]
        else:
            raise MetricError(f"unknown metric {self.metric!r}")

    def _audit_matrix(self, m: np.ndarray):
        tol = self.policy.triangle_tol
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise MetricError("dmatrix must be square")
        # every check below compares with < or >, which NaN passes
        if np.isnan(m).any():
            raise MetricError("dmatrix contains NaN")
        if (m < -tol).any():
            raise MetricError("dmatrix has negative entries")
        if np.abs(np.diag(m)).max(initial=0.0) > tol:
            raise MetricError("dmatrix has nonzero diagonal")
        if np.abs(m - m.T).max(initial=0.0) > tol:
            raise MetricError("dmatrix is not symmetric")
        # O(n^3) triangle audit in blocks of the first point, O(n^2) memory;
        # the strict > keeps the row-major first worst (i, r, j), as argmax
        rows = max(1, (1 << 20) // max(m.size, 1))  # blocks of 8 MiB
        worst = -INF
        for i0 in range(0, len(m), rows):
            blk = m[i0:i0 + rows]
            viol = blk[:, None, :] - (blk[:, :, None] + m[None, :, :])
            k = np.argmax(viol)
            if viol.flat[k] > worst:
                worst = viol.flat[k]
                i, r, j = np.unravel_index(k, viol.shape)
                i += i0
        if worst > tol:
            raise MetricError(
                f"triangle inequality violated by {worst:.3g} at ({i},{r},{j})")

    def __len__(self) -> int:
        return self._n

    @property
    def n(self) -> int:
        return self._n

    def d(self, i: int, j: int) -> float:
        self._check(i)
        self._check(j)
        if self._dmat is not None:
            return float(self._dmat[i, j])
        return float(self.dist_row(i)[j])

    def dist_row(self, i: int) -> np.ndarray:
        """Distances from point i to every point, as a vector."""
        self._check(i)
        if self._dmat is not None:
            return self._dmat[i]
        return _pairwise(self.coords[i:i + 1], self.coords, self.metric)[0]

    def dist_cols(self, idx: np.ndarray) -> np.ndarray:
        """Distances from every point (rows) to each point of idx (columns)."""
        if self._dmat is not None:
            return self._dmat[:, idx]
        return _pairwise(self.coords, self.coords[idx], self.metric)

    def diameter(self) -> float:
        if self._dmat is not None:
            return float(self._dmat.max(initial=0.0))
        return max((self.dist_row(i).max() for i in range(self._n)), default=0.0)

    def _check(self, i: int):
        if not (0 <= int(i) < self._n):
            raise PointIndexError(f"point index {i} out of range [0,{self._n})")

    @classmethod
    def from_grid(cls, values: Sequence[float], metric: str = "euclidean",
                  policy: NumericPolicy = DEFAULT_POLICY) -> "FiniteMetricSpace":
        pts = np.asarray(values, dtype=float).reshape(-1, 1)
        return cls(metric=metric, coords=pts, policy=policy)


@dataclass(frozen=True)
class BallSpec:
    center: int
    radius: float
    kind: str = "closed"  # "open" | "closed"

    def __post_init__(self):
        if self.radius < 0:
            raise MetricError("negative ball radius")
        if self.kind not in ("open", "closed"):
            raise MetricError(f"bad ball kind {self.kind!r}")


def ball_members(space: FiniteMetricSpace, ball: BallSpec) -> set[int]:
    """Point indices inside the ball; open radius-0 is the singleton {center}."""
    pol = space.policy
    space._check(ball.center)
    row = space.dist_row(ball.center)
    if ball.kind == "open":
        if ball.radius == 0:
            return {ball.center}
        mask = row < ball.radius - pol.tol_strict
    else:
        mask = row <= ball.radius + pol.tol_strict
    return set(np.nonzero(mask)[0].tolist())
