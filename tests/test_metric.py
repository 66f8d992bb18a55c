"""Finite metric spaces: axioms, distances to sets."""
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from regkit.metric import (MATRIX_CAP, NORM_METRICS, FiniteMetricSpace,
                           MetricError, PointIndexError, _pairwise)
from regkit.policy import INF, NumericPolicy, RegkitError

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


def test_matrix_metric_rejects_inf():
    inf = float("inf")
    with pytest.raises(MetricError, match="inf"):
        FiniteMetricSpace(metric="matrix",
                          dmatrix=[[0, inf, 1], [inf, 0, 1], [1, 1, 0]])


@pytest.mark.parametrize("metric", ["euclidean", "manhattan", "chebyshev"])
def test_norm_metric_rejects_inf_coordinates(metric):
    # an infinite coordinate would give inf and inf - inf = NaN distances
    with pytest.raises(MetricError, match="inf"):
        FiniteMetricSpace(metric=metric,
                          coords=np.array([[0.0, 1.0], [-np.inf, 2.0]]))


@pytest.mark.parametrize("coords", [[[], []], 5.0, [[[0.0]], [[1.0]]]],
                         ids=["no-coordinates", "scalar", "matrices"])
def test_norm_metric_needs_coordinate_vectors(coords):
    # zero-length vectors would put distinct points at distance 0
    with pytest.raises(MetricError, match="coordinates"):
        FiniteMetricSpace(metric="chebyshev", coords=np.array(coords))


def test_unknown_metric_rejected():
    with pytest.raises(MetricError):
        FiniteMetricSpace(metric="cosine", coords=np.array([0.0, 1.0]))
    with pytest.raises(MetricError):
        FiniteMetricSpace(metric="euclidean")   # no coordinates


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


@pytest.mark.parametrize("n", [300, 2001])  # 2001: above the matrix cache
@pytest.mark.parametrize("metric", NORM_METRICS)
def test_dist_at_is_dist_row_bit_for_bit(n, metric):
    rng = np.random.default_rng(n)
    sp = FiniteMetricSpace(metric=metric, coords=rng.uniform(-3, 3, (n, 9)))
    i, j = rng.integers(0, n, size=(2, 40))
    rows = np.stack([sp.dist_row(a) for a in i])
    assert rows.tobytes() == sp.dist_at(i[:, None], np.arange(n)).tobytes()
    assert rows[np.arange(40), j].tobytes() == sp.dist_at(i, j).tobytes()


@pytest.mark.parametrize("metric", [*NORM_METRICS, "matrix"])
def test_dist_rows_are_matrix_rows_bit_for_bit(metric):
    rng = np.random.default_rng(7)
    pts = rng.uniform(-3, 3, (60, 9))
    sp = FiniteMetricSpace(metric=metric, coords=pts) if metric != "matrix" else \
        FiniteMetricSpace(metric="matrix", dmatrix=_pairwise(pts, pts, "euclidean"))
    idx = rng.integers(0, 60, 25)
    rows = sp.dist_rows(idx)
    assert (sp._dmat is None) == (metric != "matrix")   # dist_rows builds none
    full = np.stack([sp.dist_row(i) for i in range(60)])
    assert rows.tobytes() == full[idx].tobytes()
    assert sp.dist_rows(idx).tobytes() == full[idx].tobytes()   # off the matrix
    for bad in (-1, 60):
        with pytest.raises(PointIndexError, match=f"point index {bad} out of range"):
            sp.dist_rows(np.array([0, bad]))


@pytest.mark.parametrize("metric", NORM_METRICS)
def test_diameter_above_the_matrix_cap_builds_no_matrix(metric):
    n = MATRIX_CAP + 1
    pts = np.random.default_rng(n).uniform(-3, 3, (n, 3))
    pts[[n - 2, n - 1]] = [[-9.0, 0.0, 1.0], [8.5, 2.0, -1.0]]   # the farthest pair
    sp = FiniteMetricSpace(metric=metric, coords=pts)
    assert sp.diameter() == _pairwise(pts[-2:], pts[-1:], metric)[0, 0]
    assert sp._dmat is None


def test_diameter_is_computed_once(monkeypatch):
    n = MATRIX_CAP + 1
    pts = np.random.default_rng(n).uniform(-3, 3, (n, 2))
    sp = FiniteMetricSpace(metric="euclidean", coords=pts)
    first = sp.diameter()

    def no_distances(*args, **kw):
        raise AssertionError("distances recomputed")
    monkeypatch.setattr("regkit.metric._pairwise", no_distances)
    second = sp.diameter()
    assert second.hex() == first.hex()


def _bumped_plane_matrix(n: int, seed: int) -> np.ndarray:
    """Euclidean distances of n random plane points, up to three pairs stretched."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-3, 3, size=(n, 2))
    m = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    for _ in range(min(n // 2, 3)):
        a, b = rng.choice(n, size=2, replace=False)
        m[a, b] = m[b, a] = m[a, b] + rng.uniform(0.5, 2.0)
    return m


def _small_int_matrix(n: int, seed: int) -> np.ndarray:
    """A symmetric zero-diagonal matrix of integers 0..3, whose triangle
    violations tie often."""
    ints = np.triu(np.random.default_rng(seed).integers(0, 4, (n, n)).astype(float), 1)
    return ints + ints.T


def _assert_audit_is_first_argmax(m: np.ndarray):
    """The audit passes m at its worst violation over the full tensor and,
    just below it, names the tensor's row-major first argmax (i, r, j);
    returns worst and (i, j), or worst alone for a metric."""
    viol = m[:, None, :] - (m[:, :, None] + m[None, :, :])
    worst = viol.max(initial=-INF)
    if worst <= 0:          # a metric: no tolerance finds a violation
        FiniteMetricSpace(metric="matrix", dmatrix=m,
                          policy=NumericPolicy(triangle_tol=0.0))
        return worst, None
    # worst is found bit for bit: it passes at worst, fails just below
    FiniteMetricSpace(metric="matrix", dmatrix=m,
                      policy=NumericPolicy(triangle_tol=worst))
    i, r, j = np.unravel_index(np.argmax(viol), viol.shape)
    want = f"triangle inequality violated by {worst:.3g} at ({i},{r},{j})"
    with pytest.raises(MetricError, match=re.escape(want)):
        FiniteMetricSpace(metric="matrix", dmatrix=m, policy=NumericPolicy(
            triangle_tol=np.nextafter(worst, -INF)))
    return worst, (i, j)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 40, 50])
def test_triangle_witness_is_first_argmax_of_full_tensor(n):
    # exactly symmetric matrices take the half sweep (j >= i); each violated
    # one has two twins, symmetric only within the tolerance, that take the
    # full sweep: the mirror of its first argmax (i, j) raised by worst / 4,
    # and noise below worst / 4 on the whole upper triangle, so that m[r, j]
    # and m[j, r] differ in most sums
    twins = 0
    for seed in range(6):
        for m in (_bumped_plane_matrix(n, n + seed), _small_int_matrix(n, seed)):
            assert np.array_equal(m, m.T)
            worst, ij = _assert_audit_is_first_argmax(m)
            if ij is None:
                continue
            nudged = m.copy()
            nudged[ij[::-1]] += worst / 4
            noise = np.random.default_rng(seed).uniform(0, worst / 4, m.shape)
            for twin in (nudged, m + np.triu(noise, 1)):
                assert not np.array_equal(twin, twin.T)
                assert _assert_audit_is_first_argmax(twin)[1] is not None
                twins += 1
    assert twins > 0 or n < 3      # two points always form a metric


def test_triangle_audit_memory_is_quadratic_at_300_points():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-3, 3, size=(300, 2))
    good = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    bad = _bumped_plane_matrix(300, 300)
    near = good.copy()          # symmetric within the tolerance: full sweep
    near[0, 1] += 1e-12
    for m in (good, bad, near):
        tracemalloc.start()
        try:
            try:
                FiniteMetricSpace(metric="matrix", dmatrix=m)
            except MetricError:
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one n^2 buffer, shared by the symmetry check and the triangle audit,
        # and a transposed copy of m when m is not exactly symmetric
        assert peak < 2.5 * m.nbytes, peak
    # witnesses as one argmax over the whole tensor reports them
    with pytest.raises(MetricError, match=re.escape(
            "violated by 1.99 at (199,62,211)")):
        FiniteMetricSpace(metric="matrix", dmatrix=bad)
    # equal worst violations in several rows: the row-major first wins
    line = np.abs(np.arange(300.0)[:, None] - np.arange(300.0)[None, :])
    for a, b in ((250, 290), (40, 45), (120, 180)):
        line[a, b] += 1.0
        line[b, a] += 1.0
    with pytest.raises(MetricError, match=re.escape("violated by 1 at (40,41,45)")):
        FiniteMetricSpace(metric="matrix", dmatrix=line)


def _pairwise_3d(a, b, metric):
    """The (n, m, d) difference-tensor form that `_pairwise` must match."""
    diff = a[:, None, :] - b[None, :, :]
    if metric == "euclidean":
        return np.sqrt((diff ** 2).sum(-1))
    if metric == "manhattan":
        return np.abs(diff).sum(-1)
    return np.abs(diff).max(-1)


@st.composite
def point_pairs(draw):
    d = draw(st.one_of(st.integers(1, 40), st.sampled_from([129, 150])))
    elems = st.floats(-1e6, 1e6, allow_subnormal=False)
    a = draw(hnp.arrays(float, (draw(st.integers(1, 5)), d), elements=elems))
    b = draw(hnp.arrays(float, (draw(st.integers(1, 5)), d), elements=elems))
    return a, b


@settings(max_examples=150, deadline=None)
@given(point_pairs(), st.sampled_from(NORM_METRICS))
def test_pairwise_equals_difference_tensor_reduction(ab, metric):
    a, b = ab
    assert np.array_equal(_pairwise(a, b, metric), _pairwise_3d(a, b, metric))


def test_pairwise_memory_is_two_result_matrices():
    pts = np.random.default_rng(0).uniform(-3, 3, size=(1000, 3))
    tracemalloc.start()
    try:
        _pairwise(pts, pts, "euclidean")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * pts.shape[0] ** 2 * 8, peak   # the 3-d tensor alone is 3x
