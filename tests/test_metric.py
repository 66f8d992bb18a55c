"""Finite metric spaces: axioms, balls, distances to sets, excess."""
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regkit.metric import (BallSpec, FiniteMetricSpace, MetricError,
                           PointIndexError, ball_members, excess)
from regkit.policy import INF, RegkitError

coords_1d = st.lists(st.floats(-50, 50), min_size=2, max_size=12)


@settings(max_examples=50, deadline=None)
@given(coords_1d, st.sampled_from(["euclidean", "manhattan", "chebyshev"]))
def test_metric_axioms(vals, metric):
    sp = FiniteMetricSpace(metric=metric, coords=np.array(vals))
    n = sp.n
    M = np.stack([sp.dist_row(i) for i in range(n)])
    assert np.allclose(np.diag(M), 0.0)
    assert np.allclose(M, M.T)
    assert (M >= 0).all()
    # triangle inequality, all middle points
    assert (M[:, None, :] <= M[:, :, None] + M[None, :, :] + 1e-9).all()


def test_scalar_coords_are_line_points():
    sp = FiniteMetricSpace(metric="euclidean", coords=np.array([0.0, 3.0, 7.0]))
    assert sp.d(0, 2) == pytest.approx(7.0)
    assert sp.diameter() == pytest.approx(7.0)


def test_matrix_backend_audits_axioms():
    good = np.array([[0.0, 1.0], [1.0, 0.0]])
    sp = FiniteMetricSpace(metric="matrix", dmatrix=good)
    assert sp.d(0, 1) == 1.0
    with pytest.raises(MetricError, match="symmetric"):
        FiniteMetricSpace(metric="matrix",
                          dmatrix=np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(MetricError, match="diagonal"):
        FiniteMetricSpace(metric="matrix",
                          dmatrix=np.array([[1.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(MetricError, match="negative"):
        FiniteMetricSpace(metric="matrix",
                          dmatrix=np.array([[0.0, -1.0], [-1.0, 0.0]]))
    tri = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(MetricError, match="triangle"):
        FiniteMetricSpace(metric="matrix", dmatrix=tri)


def test_matrix_metric_rejects_nan():
    nan = float("nan")
    with pytest.raises(MetricError, match="NaN"):
        FiniteMetricSpace(metric="matrix",
                          dmatrix=[[0, nan, 1], [nan, 0, 1], [1, 1, 0]])


@pytest.mark.parametrize("metric", ["euclidean", "manhattan", "chebyshev"])
def test_norm_metric_rejects_nan_coordinates(metric):
    with pytest.raises(MetricError, match="NaN"):
        FiniteMetricSpace(metric=metric,
                          coords=np.array([[0.0, 1.0], [float("nan"), 2.0]]))


def test_unknown_metric_rejected():
    with pytest.raises(MetricError):
        FiniteMetricSpace(metric="cosine", coords=np.array([0.0, 1.0]))
    with pytest.raises(MetricError):
        FiniteMetricSpace(metric="euclidean")   # no coordinates


def test_ball_semantics():
    sp = FiniteMetricSpace.from_grid([0.0, 1.0, 2.0, 3.0])
    assert ball_members(sp, BallSpec(0, 2.0, "closed")) == {0, 1, 2}
    assert ball_members(sp, BallSpec(0, 2.0, "open")) == {0, 1}
    assert ball_members(sp, BallSpec(1, 0.0, "open")) == {1}
    assert ball_members(sp, BallSpec(1, 0.0, "closed")) == {1}
    with pytest.raises(MetricError):
        BallSpec(0, -1.0)
    with pytest.raises(MetricError):
        BallSpec(0, 1.0, "half-open")


def test_excess():
    sp = FiniteMetricSpace.from_grid([0.0, 1.0, 4.0])
    assert excess(sp, [0, 2], [1]) == 3.0
    assert excess(sp, [], [1]) == 0.0
    assert excess(sp, [0], []) == INF


@settings(max_examples=25, deadline=None)
@given(coords_1d)
def test_excess_triangle_property(vals):
    sp = FiniteMetricSpace(metric="euclidean", coords=np.array(vals))
    A = list(range(0, sp.n, 2))
    B = list(range(1, sp.n, 2)) or [0]
    C = list(range(sp.n))
    # excess(A, C) <= excess(A, B) + excess(B, C)
    assert excess(sp, A, C) <= excess(sp, A, B) + excess(sp, B, C) + 1e-9


def test_index_bounds_checked():
    sp = FiniteMetricSpace.from_grid([0.0, 1.0])
    with pytest.raises(IndexError):
        sp.d(0, 5)
    with pytest.raises(IndexError):
        sp.dist_row(-3)
    # one class for both checks: an IndexError the CLI reports as input error
    assert issubclass(PointIndexError, RegkitError)
    with pytest.raises(PointIndexError):
        sp.d(0, 2)
    with pytest.raises(PointIndexError):
        sp.dist_row(3)


def _bumped_plane_matrix(n: int, seed: int) -> np.ndarray:
    """Euclidean distances of n random plane points, three pairs stretched."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-3, 3, size=(n, 2))
    m = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    for _ in range(3):
        a, b = rng.choice(n, size=2, replace=False)
        m[a, b] = m[b, a] = m[a, b] + rng.uniform(0.5, 2.0)
    return m


@pytest.mark.parametrize("n", [5, 40])
def test_triangle_witness_is_first_argmax_of_full_tensor(n):
    m = _bumped_plane_matrix(n, n)
    viol = m[:, None, :] - (m[:, :, None] + m[None, :, :])
    i, r, j = np.unravel_index(np.argmax(viol), viol.shape)
    want = f"triangle inequality violated by {viol.max():.3g} at ({i},{r},{j})"
    with pytest.raises(MetricError, match=re.escape(want)):
        FiniteMetricSpace(metric="matrix", dmatrix=m)


def test_triangle_audit_memory_is_quadratic_at_300_points():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-3, 3, size=(300, 2))
    good = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    tracemalloc.start()
    try:
        FiniteMetricSpace(metric="matrix", dmatrix=good)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6, peak          # the whole n^3 tensor is 216 MB
    # witnesses as one argmax over the whole tensor reports them
    with pytest.raises(MetricError, match=re.escape(
            "violated by 1.99 at (199,62,211)")):
        FiniteMetricSpace(metric="matrix", dmatrix=_bumped_plane_matrix(300, 300))
    # equal worst violations in several blocks: the row-major first wins
    line = np.abs(np.arange(300.0)[:, None] - np.arange(300.0)[None, :])
    for a, b in ((250, 290), (40, 45), (120, 180)):
        line[a, b] += 1.0
        line[b, a] += 1.0
    with pytest.raises(MetricError, match=re.escape("violated by 1 at (40,41,45)")):
        FiniteMetricSpace(metric="matrix", dmatrix=line)
