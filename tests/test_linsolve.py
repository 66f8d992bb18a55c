"""Linear feasibility layer: points, certificates, support values."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from regkit.linsolve import (Farkas, LinSolveError, feasible_point,
                             in_cone_of, max_support, solve_lp,
                             strict_interior_point)


def _random_system(seed, force_infeasible=False):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    m = int(rng.integers(n, 3 * n))
    A = rng.normal(size=(m, n))
    if force_infeasible:
        # x0 violates row 0 reversed: append -a0 x <= -(b0 + 1)
        b = A @ rng.normal(size=n) + rng.uniform(0.1, 1.0, size=m)
        A = np.vstack([A, -A[0]])
        b = np.concatenate([b, [-b[0] - 1.0]])
    else:
        b = A @ rng.normal(size=n) + rng.uniform(0.1, 1.0, size=m)
    return A, b, A.shape[1]


def test_feasible_systems_return_points():
    for seed in range(20):
        A, b, n = _random_system(seed)
        res = feasible_point(n, A_ub=A, b_ub=b)
        assert res.feasible
        assert (A @ res.point <= b + 1e-8).all()


def test_infeasible_systems_return_valid_farkas():
    for seed in range(20):
        A, b, n = _random_system(seed, force_infeasible=True)
        res = feasible_point(n, A_ub=A, b_ub=b)
        assert not res.feasible
        cert = res.certificate
        # validity checked here from scratch, not via cert.certifies
        assert (cert.y >= -1e-12).all()
        assert np.abs(cert.y @ A).max() <= 1e-8
        assert cert.y @ b < -1e-9
        assert cert.certifies()


def test_equality_constraints_respected():
    A_eq = np.array([[1.0, 1.0]])
    b_eq = np.array([3.0])
    res = feasible_point(2, A_eq=A_eq, b_eq=b_eq)
    assert res.feasible
    assert res.point.sum() == pytest.approx(3.0)
    # x + y = 3 and x + y <= 1 is infeasible
    res2 = feasible_point(2, A_ub=np.array([[1.0, 1.0]]),
                          b_ub=np.array([1.0]), A_eq=A_eq, b_eq=b_eq)
    assert not res2.feasible
    c = res2.certificate
    combo = c.y @ np.array([[1.0, 1.0]]) + c.z @ A_eq
    assert np.abs(combo).max() <= 1e-8
    assert c.y @ np.array([1.0]) + c.z @ b_eq < -1e-9


def test_shape_mismatch_raises():
    with pytest.raises(LinSolveError, match="mismatch"):
        feasible_point(2, A_ub=np.eye(2), b_ub=np.ones(3))


def test_strict_interior_point():
    # unit box has an interior point; a hyperplane slice does not
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = np.ones(4)
    x = strict_interior_point(2, A, b)
    assert x is not None
    assert (A @ x < b - 1e-9).all()
    A2 = np.vstack([A, [[1.0, 0.0]], [[-1.0, 0.0]]])
    b2 = np.concatenate([b, [1.0, -1.0]])     # forces x0 = 1 on the boundary
    assert strict_interior_point(2, A2, b2) is None


def test_max_support_values():
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = np.ones(4)
    val, arg = max_support([1.0, 1.0], 2, A_ub=A, b_ub=b)
    assert val == pytest.approx(2.0)
    assert arg == pytest.approx([1.0, 1.0])
    # unbounded direction
    val, arg = max_support([1.0, 0.0], 2, A_ub=np.array([[-1.0, 0.0]]),
                           b_ub=np.array([0.0]))
    assert val == np.inf and arg is None
    # empty polyhedron
    val, arg = max_support([1.0, 0.0], 2,
                           A_ub=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                           b_ub=np.array([-1.0, -1.0]))
    assert val == -np.inf and arg is None


def test_in_cone_of():
    G = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert in_cone_of(G, np.array([2.0, 3.0]))
    assert not in_cone_of(G, np.array([-1.0, 0.5]))
    # empty generator set spans only the origin
    assert in_cone_of(np.zeros((0, 2)), np.zeros(2))
    assert not in_cone_of(np.zeros((0, 2)), np.array([1.0, 0.0]))


def _same_as_linprog(c, bounds=None, **kw):
    """solve_lp next to linprog(method="highs"), the reference it
    reproduces: equal status, bit-identical x and objective."""
    ref = linprog(c, bounds=(None, None) if bounds is None else bounds,
                  method="highs", **kw)
    res = solve_lp(c, bounds=bounds, **kw)
    assert res.status == ref.status, (res.message, ref.message)
    if ref.x is None:
        assert res.x is None and res.fun is None
    else:
        assert np.array_equal(res.x, ref.x) and res.fun == ref.fun
    return res


def test_solve_lp_passthrough():
    res = _same_as_linprog([1.0], A_ub=[[-1.0]], b_ub=[0.0],
                           bounds=(None, None))
    assert res.status == 0 and res.x[0] == pytest.approx(0.0)
    # x <= -1 and -x <= -1; x + y = 0 and x + y = 1
    assert _same_as_linprog([1.0], A_ub=[[1.0], [-1.0]],
                            b_ub=[-1.0, -1.0]).status == 2
    assert _same_as_linprog([0.0, 0.0], A_eq=[[1.0, 1.0], [1.0, 1.0]],
                            b_eq=[0.0, 1.0]).status == 2
    # min -x over x >= 0; min x - y over x - y <= 1; min x with no rows
    assert _same_as_linprog([-1.0], bounds=(0, None)).status == 3
    assert _same_as_linprog([1.0, -1.0], A_ub=[[1.0, -1.0]],
                            b_ub=[1.0]).status == 3
    assert _same_as_linprog([1.0]).status == 3
    res = _same_as_linprog([1.0, 1.0], A_ub=[[1.0, 0.0]], b_ub=[1.0],
                           A_eq=[[0.0, 1.0]], b_eq=[2.0],
                           bounds=(-1e6, 1e6))
    assert res.status == 0 and res.fun == -999998.0


_entry = st.one_of(st.just(0.0), st.integers(-3, 3).map(float),
                   st.floats(-5.0, 5.0))


@st.composite
def _small_lps(draw):
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["ub", "eq", "both", "none"]))
    m_ub = draw(st.integers(1, 5)) if kind in ("ub", "both") else 0
    m_eq = draw(st.integers(1, 2)) if kind in ("eq", "both") else 0
    kw = {}
    if m_ub:
        kw.update(A_ub=draw(arrays(float, (m_ub, n), elements=_entry)),
                  b_ub=draw(arrays(float, m_ub, elements=_entry)))
    if m_eq:
        kw.update(A_eq=draw(arrays(float, (m_eq, n), elements=_entry)),
                  b_eq=draw(arrays(float, m_eq, elements=_entry)))
    kw["bounds"] = draw(st.sampled_from([None, (0, None), (-1e6, 1e6)]))
    return draw(arrays(float, n, elements=_entry)), kw


@settings(max_examples=300, deadline=None)
@given(_small_lps())
def test_solve_lp_matches_linprog(lp):
    c, kw = lp
    _same_as_linprog(c, **kw)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_lp_rejects_non_finite_input(bad):
    A, b = np.eye(2), np.ones(2)
    with pytest.raises(LinSolveError, match="c must"):
        solve_lp([1.0, bad], A_ub=A, b_ub=b)
    with pytest.raises(LinSolveError, match="finite"):
        solve_lp([1.0, 1.0], A_ub=[[1.0, bad], [0.0, 1.0]], b_ub=b)
    with pytest.raises(LinSolveError, match="finite"):
        solve_lp([1.0, 1.0], A_ub=A, b_ub=[1.0, bad])
    with pytest.raises(LinSolveError, match="finite"):
        solve_lp([1.0, 1.0], A_eq=[[bad, 1.0]], b_eq=[1.0])
    with pytest.raises(LinSolveError, match="finite"):
        solve_lp([1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[bad])


def test_solve_lp_rejects_bad_shapes():
    with pytest.raises(LinSolveError, match="c must"):
        solve_lp([])
    with pytest.raises(LinSolveError, match="2 columns"):
        solve_lp([1.0, 1.0], A_ub=np.eye(3), b_ub=np.ones(3))
    with pytest.raises(LinSolveError, match="mismatch"):
        solve_lp([1.0, 1.0], A_eq=np.eye(2), b_eq=np.ones(3))
    with pytest.raises(LinSolveError, match="bounds"):
        solve_lp([1.0, 1.0], bounds=[(0, 1), (0, 1), (0, 1)])
