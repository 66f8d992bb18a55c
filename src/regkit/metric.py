"""Finite metric spaces and their distances.

Points are referenced by integer index.  A space is backed either by
coordinate vectors with a norm metric (euclidean / manhattan / chebyshev)
or by an explicit distance matrix, which is audited for metric axioms at
load time; the triangle audit reads n³/2 sums when the matrix is exactly
symmetric and n³ otherwise, and its result is the same.  Norm distances
between n and m points are built one coordinate at a time, in O(n·m)
memory whatever the dimension.  A norm space caches its n×n matrix only
once a query other than dist_rows needs it, and only up to MATRIX_CAP
points; dist_rows reads rows alone.  Every finite metric space is
complete, so no completeness hypothesis ever needs checking downstream.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .policy import DEFAULT_POLICY, INF, NumericPolicy, RegkitError

NORM_METRICS = ("euclidean", "manhattan", "chebyshev")
MATRIX_CAP = 2000   # norm spaces above this many points never build a matrix


class MetricError(RegkitError, ValueError):
    pass


class PointIndexError(RegkitError, IndexError):
    pass


def _pairwise(a: np.ndarray, b: np.ndarray, metric: str, pairs=None) -> np.ndarray:
    """Distances from each row of a (rows) to each row of b (columns),
    one coordinate column at a time; columns are summed in numpy's pairwise
    order, so each entry equals the (n, m, d) tensor reduction bit for bit.
    With pairs = (i, j), only the entries [i[k], j[k]], by the same steps."""
    if metric not in NORM_METRICS:
        raise MetricError(f"unknown metric {metric!r}")

    def col(k: int) -> np.ndarray:
        c = np.subtract.outer(a[:, k], b[:, k]) if pairs is None \
            else a[pairs[0], k] - b[pairs[1], k]
        return np.square(c, out=c) if metric == "euclidean" else np.abs(c, out=c)

    if metric == "chebyshev":
        out = col(0)
        for k in range(1, a.shape[1]):
            np.maximum(out, col(k), out=out)
        return out
    out = _sum_columns(col, range(a.shape[1]))
    return np.sqrt(out, out=out) if metric == "euclidean" else out


def _sum_columns(col, ks: range) -> np.ndarray:
    """The sum of col(k) over ks, grouped as numpy's pairwise summation:
    in order below 8 terms, in 8 strided partial sums up to 128, and in
    halves (each a multiple of 8 long) above."""
    n = len(ks)
    if n > 128:
        half = n // 2 - n // 2 % 8
        out = _sum_columns(col, ks[:half])
        out += _sum_columns(col, ks[half:])
        return out
    if n < 8:
        out, head = col(ks[0]), 1
    else:
        head = n - n % 8
        r = [col(k) for k in ks[:8]]
        for i in range(8, head):
            r[i % 8] += col(ks[i])
        out = (r[0] + r[1]) + (r[2] + r[3])
        out += (r[4] + r[5]) + (r[6] + r[7])
    for k in ks[head:]:
        out += col(k)
    return out


@dataclass
class FiniteMetricSpace:
    """A finite point set with a metric; immutable after construction, so
    its diameter is computed once.

    A norm space builds its matrix on the first call of d, dist_row, dist_at,
    dist_cols or diameter, if n <= MATRIX_CAP; dist_rows never builds it."""

    metric: str
    coords: Optional[np.ndarray] = None
    dmatrix: Optional[np.ndarray] = None
    policy: NumericPolicy = field(default=DEFAULT_POLICY)

    def __post_init__(self):
        self._diam = None       # set by diameter() on its first call
        if self.metric in NORM_METRICS:
            if self.coords is None:
                raise MetricError("norm metric requires coordinates")
            arr = np.asarray(self.coords, dtype=float)
            if not np.isfinite(arr).all():
                raise MetricError("coordinates contain NaN or inf")
            if arr.ndim == 1:
                arr = arr.reshape(-1, 1)  # scalars are points on the line
            if arr.ndim != 2 or arr.shape[1] == 0:
                raise MetricError("points need one or more coordinates")
            self.coords = arr
            self._n = arr.shape[0]
            self._dmat = None   # built by _has_matrix on first use
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
        # NaN passes every < or > check below, and inf - inf is NaN
        if not np.isfinite(m).all():
            raise MetricError("dmatrix contains NaN or inf")
        if (m < -tol).any():
            raise MetricError("dmatrix has negative entries")
        if np.abs(np.diag(m)).max(initial=0.0) > tol:
            raise MetricError("dmatrix has nonzero diagonal")
        n = len(m)
        sq, low = np.empty((n, n)), np.empty(n)     # the audit's n^2 buffer
        # m - m.T is exactly 0 where m[i, j] == m[j, i], the entries being finite
        sym = not np.subtract(m, m.T, out=sq).any()
        if np.abs(sq, out=sq).max(initial=0.0) > tol:
            raise MetricError("dmatrix is not symmetric")
        # triangle audit as a min-plus product: fl(a - s) is monotone in s, so
        # m[i, j] - min_r (m[i, r] + m[r, j]) is the worst violation over r of
        # each (i, j), bit for bit; the strict > keeps the first row holding the
        # maximum, as a row-major argmax would.  On an exactly symmetric m the
        # violations at (i, j) and (j, i) are equal, so the first maximum lies
        # at j >= i, and row k reads only j >= k
        cols = m if sym else np.ascontiguousarray(m.T)  # cols[j, r] = m[r, j]
        worst, i = -INF, 0
        for k in range(n):
            j0 = k if sym else 0
            tmp, lo = sq[:n - j0], low[:n - j0]
            np.add(m[k], cols[j0:], out=tmp)    # tmp[j - j0, r] = m[k, r] + m[r, j]
            v = np.subtract(m[k, j0:], tmp.min(axis=1, out=lo), out=lo).max()
            if v > worst:
                worst, i = v, k
        if worst > tol:
            # the first (r, j) of row i, as one argmax over its tensor slice
            np.add(m[i, :, None], m, out=sq)
            r, j = np.unravel_index(np.argmax(np.subtract(m[i], sq, out=sq)), m.shape)
            raise MetricError(
                f"triangle inequality violated by {worst:.3g} at ({i},{r},{j})")

    def __len__(self) -> int:
        return self._n

    @property
    def n(self) -> int:
        return self._n

    def _has_matrix(self) -> bool:
        """Build the norm matrix on first use if n <= MATRIX_CAP; True if built."""
        if self._dmat is None and self._n <= MATRIX_CAP:
            self._dmat = _pairwise(self.coords, self.coords, self.metric)
        return self._dmat is not None

    def d(self, i: int, j: int) -> float:
        self._check(i)
        self._check(j)
        return float(self.dist_row(i)[j])

    def dist_row(self, i: int) -> np.ndarray:
        """Distances from point i to every point, as a vector."""
        self._check(i)
        return self._dmat[i] if self._has_matrix() else self.dist_rows(np.array([i]))[0]

    def dist_rows(self, idx: np.ndarray) -> np.ndarray:
        """Distances from each point of the int array idx (rows) to every point
        (columns); reads the matrix if it is built, and never builds it."""
        self._check_each(idx)
        if self._dmat is not None:
            return self._dmat[idx]
        return _pairwise(self.coords[idx], self.coords, self.metric)

    def dist_at(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """dist_row(i)[j] at each entry of the broadcast of i and j, whose
        indices must be in range."""
        if self._has_matrix():
            return self._dmat[i, j]
        return _pairwise(self.coords, self.coords, self.metric, (i, j))

    def dist_cols(self, idx: np.ndarray) -> np.ndarray:
        """Distances from every point (rows) to each point of idx (columns)."""
        if self._has_matrix():
            return self._dmat[:, idx]
        return _pairwise(self.coords, self.coords[idx], self.metric)

    def diameter(self) -> float:
        """The largest distance, computed on the first call and kept."""
        if self._diam is None:
            self._diam = (float(self._dmat.max(initial=0.0)) if self._has_matrix()
                          else max((self.dist_row(i).max() for i in range(self._n)),
                                   default=0.0))
        return self._diam

    def _check(self, i: int):
        if not (0 <= int(i) < self._n):
            raise PointIndexError(f"point index {i} out of range [0,{self._n})")

    def _check_each(self, idx: np.ndarray):
        """_check at each index of an int array."""
        if idx.size and not 0 <= idx.min() <= idx.max() < self._n:
            self._check(idx[(idx < 0) | (idx >= self._n)][0])

    @classmethod
    def from_grid(cls, values: Sequence[float], metric: str = "euclidean",
                  policy: NumericPolicy = DEFAULT_POLICY) -> "FiniteMetricSpace":
        pts = np.asarray(values, dtype=float).reshape(-1, 1)
        return cls(metric=metric, coords=pts, policy=policy)
