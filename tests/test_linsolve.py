"""LP layer: one-member solves against linprog, families, feasibility."""
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from regkit import linsolve
from regkit.linsolve import (_FINE, LPFamily, LinSolveError, feasible_point,
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


def test_infeasible_systems_are_reported():
    for seed in range(20):
        A, b, n = _random_system(seed, force_infeasible=True)
        res = feasible_point(n, A_ub=A, b_ub=b)
        assert not res.feasible and res.point is None


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


@pytest.mark.parametrize("kw", [
    # an upper bound HiGHS reads as -inf, on one and on two columns; an
    # equality row at +-1e20, whose lower or upper bound it refuses
    dict(c=[1.0], A_ub=[[1.0], [-1.0]], b_ub=[-1e20, -0.0]),
    dict(c=[1.0, 1.0], A_ub=[[1.0, 0.0], [-1.0, 0.0]], b_ub=[-1e20, -0.0]),
    dict(c=[1.0, 1.0], A_ub=[[1.0, 1.0]], b_ub=[-1e21]),
    dict(c=[1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[1e20]),
    dict(c=[1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[-1e20]),
])
def test_refused_row_bounds_are_model_errors(kw):
    # HiGHS refuses these bounds as linprog passes them, in the model, and
    # as a family passes them, one row at a time: a model error, status 2
    assert _same_as_linprog(**kw).status == 2
    # and the family stays usable: its next member is a one-member solve
    fam = LPFamily(kw["c"], A_ub=kw.get("A_ub"), A_eq=kw.get("A_eq"))
    assert fam.solve(kw.get("b_ub"), kw.get("b_eq")).status == 2
    b_ub = None if "b_ub" not in kw else [0.0] * len(kw["b_ub"])
    b_eq = None if "b_eq" not in kw else [0.0]
    _same_member(fam.solve(b_ub, b_eq),
                 solve_lp(kw["c"], kw.get("A_ub"), b_ub, kw.get("A_eq"), b_eq))


def _same_member(res, ref):
    """Two LPResults bit for bit: status, message, x and objective."""
    assert (res.status, res.message) == (ref.status, ref.message)
    assert (None if res.x is None else res.x.tobytes()) == \
        (None if ref.x is None else ref.x.tobytes())
    assert np.float64(res.fun).tobytes() == np.float64(ref.fun).tobytes()


def test_interleaved_families_share_one_solver():
    # members of four families taken in turn on the one HiGHS solver: each
    # follows another family's member, so it starts cold and is the
    # member solved on its own, bit for bit
    t = 2.0 ** -24
    families = [
        # fine-grained c: every member cold
        ([-2 * t, 1.0], [[0.0, -1.0], [-2.0, 0.0], [1.0, 1.0]],
         [[0.0, -2.0, 5.0], [-1.0, 0.0, 3.0], [1.0, -1.0, 0.0]]),
        # coarse
        ([1.0, 1.0], [[-1.0, 0.5], [0.5, -1.0], [-1.0, -1.0]],
         [[-1.0, -2.0, -1.0], [-1.5, -2.5, -1.0], [1.0, 1.0, -3.0]]),
        # an interval family whose members HiGHS decides: a fine-grained
        # bound, an interval empty by 5e-8, two lower bounds 5e-8 apart
        ([1.0], [[1.0], [-1.0], [-1.0]],
         [[3.0, 5e-7, 2.0], [1.0, -1.0 - 5e-8, 0.0],
          [2.0, 1.0, 1.0 + 5e-8]]),
        # a model HiGHS refuses: a matrix entry above its largest
        ([1.0, 1.0], [[1e16, 1.0]], [[1.0], [2.0], [-1.0]]),
    ]
    fams = [LPFamily(c, A_ub=A_ub) for c, A_ub, _ in families]
    turns = [(fam, c, A_ub, members[k]) for k in range(3)
             for fam, (c, A_ub, members) in zip(fams, families)]
    results = [fam.solve(b_ub) for fam, _, _, b_ub in turns]
    for res, (_, c, A_ub, b_ub) in zip(results, turns):
        _same_member(res, solve_lp(c, A_ub, b_ub))
    statuses = {res.message.split(":")[-1].strip() for res in results}
    assert {"Optimal", "Model error"} <= statuses
    assert fams[2]._lp is not None and fams[3]._refused is not None


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


@st.composite
def _families(draw):
    """(c, A_ub, A_eq, bounds) and a sequence of right-hand sides.

    The last row of A_ub reverses its first, so a member is infeasible
    exactly when b_ub[0] + b_ub[-1] < 0; the other members are built
    around a point in the bounds.  Whether a feasible member is bounded
    depends on (c, A, bounds) only, so one family's feasible members are
    all optimal or all unbounded; both kinds of family are drawn.
    """
    n = draw(st.integers(1, 4))
    A = draw(arrays(float, (draw(st.integers(1, 4)), n), elements=_entry))
    A_ub = np.vstack([A, -A[:1]])
    A_eq = draw(arrays(float, (draw(st.integers(0, 1)), n), elements=_entry))
    bounds = draw(st.sampled_from([None, (0, None), (-1e6, 1e6)]))
    c = draw(arrays(float, n, elements=_entry))
    members = []
    for infeasible in draw(st.lists(st.booleans(), min_size=2, max_size=8)):
        x0 = draw(arrays(float, n, elements=st.floats(0.0, 3.0)))
        slack = draw(arrays(float, A_ub.shape[0], elements=st.floats(0.0, 2.0)))
        b_ub = A_ub @ x0 + slack
        if infeasible:
            b_ub[-1] = -b_ub[0] - draw(st.floats(0.5, 2.0))
        members.append((b_ub, A_eq @ x0))
    return c, A_ub, A_eq, bounds, members


@settings(max_examples=200, deadline=None)
@given(_families())
def test_family_members_match_one_member_solves(family):
    c, A_ub, A_eq, bounds, members = family
    fam = LPFamily(c, A_ub=A_ub, A_eq=A_eq, bounds=bounds)
    lo, hi = (None, None) if bounds is None else bounds
    lo = -np.inf if lo is None else lo
    hi = np.inf if hi is None else hi
    # the members first, one after another (warm), then the one-member
    # solves, which take the shared solver
    results = [fam.solve(b_ub, b_eq) for b_ub, b_eq in members]
    for res, (b_ub, b_eq) in zip(results, members):
        ref = solve_lp(c, A_ub, b_ub, A_eq, b_eq, bounds)
        assert res.status == ref.status, (res.message, ref.message)
        if res.status != 0:
            # HiGHS may call a feasible unbounded member infeasible, on
            # either path, but an infeasible member is never optimal
            continue
        assert b_ub[0] + b_ub[-1] >= 0
        # within 1e-9 relative, and within what HiGHS's primal feasibility
        # tolerance of 1e-7 lets a cold and a warm solve round differently
        # (b_eq = 1e-9 may be read as 0 by one of them)
        assert abs(res.fun - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun)) \
            + 1e-7 * np.abs(c).sum()
        # the re-check, from scratch, at scipy's tolerance, on the matrix
        # HiGHS solves: it reads entries of size <= 1e-9 as zeros
        tol, x = np.sqrt(1e-9) * 10, res.x
        seen = [np.where(np.abs(A) <= 1e-9, 0.0, A) for A in (A_ub, A_eq)]
        assert (seen[0] @ x <= b_ub + tol).all()
        assert (np.abs(seen[1] @ x - b_eq) <= tol).all()
        assert ((x >= lo - tol) & (x <= hi + tol)).all()
        assert abs(c @ x - res.fun) <= 1e-6 * max(1.0, abs(res.fun))


def test_fine_grained_members_start_cold():
    # families the hypothesis test above once drew, where the second
    # member, warm from the first, disagreed with a one-member solve;
    # each holds an entry near HiGHS's 1e-7 tolerances, in c, in the
    # matrix or in the second member's right-hand side
    t = 2.0 ** -24
    families = [
        # unbounded: x0 -> -inf at cost 1.19e-7 (warm: optimal at 0)
        ([-2 * t, 0.0], [[0, 0], [-2, 0], [0, 0]], None, None,
         [([0, -2, 0], None), ([0, 0, 0], None)]),
        # optimum 0.2811 (warm: 0, at x0 = 4e-8 just outside row 0)
        ([0, 0, 1, 0], [[1, 0, 0, 1], [-1, 0, 0, -1]], [[5, 0, 1e-7, 0]],
         (0, None), [([0, 0], [0]), ([3.43774482e-8] * 2, [2e-7])]),
        # x3 + x4 <= t and x4 >= t (warm: optimal; cold: infeasible)
        ([0.0] * 4, [[0] * 4, [0] * 4, [0, 0, 1, 1], [0, 0, 0, -2], [0] * 4],
         None, (0, None), [([0] * 5, None), ([0, 0, t, -2 * t, 0], None)]),
        # one column, x <= b0 and x <= b1 within _FINE of each other: HiGHS
        # decides both members, cold (warm: x = -1, not -0.99999995)
        ([-1.0], [[1], [1]], None, None,
         [([3.0000002, 3.0], None), ([-0.99999995, -1.0], None)]),
    ]
    for c, A_ub, A_eq, bounds, members in families:
        fam = LPFamily(c, A_ub=A_ub, A_eq=A_eq, bounds=bounds)
        results = [fam.solve(b_ub, b_eq) for b_ub, b_eq in members]
        for res, (b_ub, b_eq) in zip(results, members):
            ref = solve_lp(c, A_ub, b_ub, A_eq, b_eq, bounds)
            assert (res.status, res.fun, res.message) \
                == (ref.status, ref.fun, ref.message)
            assert (res.x is None and ref.x is None) \
                or np.array_equal(res.x, ref.x)
    # a coarse member starts from the previous member's basis, which is
    # optimal for it: no simplex iteration; a fine-grained one starts cold
    A_ub = [[-1.0, 0.5], [0.5, -1.0], [-1.0, -1.0]]
    for b_ub, iterations in (([-1.5, -2.5, -1.0], 0),
                             ([-1.5, -2.5e-7, -1.0], 3)):
        fam = LPFamily([1.0, 1.0], A_ub=A_ub)
        assert fam.solve([-1.0, -2.0, -1.0]).status == 0
        assert fam.solve(b_ub).status == 0
        assert _iterations() == iterations
    # a member of another family in between hands that family's model to
    # the solver, so the repeated coarse member starts cold; the other
    # family has two columns, since one-column families with +-1 rows take
    # the closed form and never reach the solver
    fam = LPFamily([1.0, 1.0], A_ub=A_ub)
    other = LPFamily([1.0, 1.0], A_ub=[[-1.0, -1.0]], bounds=(0, None))
    assert other._lp is not None
    for family, b_ub in ((fam, [-1.0, -2.0, -1.0]), (other, [-1.0]),
                         (fam, [-1.5, -2.5, -1.0])):
        assert family.solve(b_ub).status == 0
    assert _iterations() > 0


def _iterations():
    """The simplex iterations of the process's HiGHS solver's last run."""
    return linsolve._highs().solver.getInfo().simplex_iteration_count


# entries on both sides of _FINE, either sign, with zeros of both signs
_near_fine = st.one_of(
    st.sampled_from([0.0, -0.0, _FINE, -_FINE, np.nextafter(_FINE, 0.0),
                     -np.nextafter(_FINE, 0.0), np.nextafter(_FINE, 1.0),
                     5e-324, np.inf, -np.inf]),
    st.floats(-2 * _FINE, 2 * _FINE), st.floats(allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(st.lists(_near_fine, max_size=6))
def test_fine_mask_matches_the_scalar_rule(values):
    scalar = any(0.0 < abs(v) < _FINE for v in values)
    assert linsolve._fine(np.array(values, dtype=float)) is scalar
    assert linsolve._fine(np.array(values, dtype=float).reshape(-1, 1)) \
        is scalar


def test_family_rejects_bad_right_hand_sides():
    fam = LPFamily([1.0, 1.0], A_ub=-np.eye(2), A_eq=[[1.0, -1.0]])
    for b_ub, b_eq in (([0.0, np.nan], [0.0]), ([0.0, 0.0], [np.inf]),
                       ([0.0, 0.0, 0.0], [0.0]), ([0.0, 0.0], None),
                       (None, [0.0]), ([0.0, 0.0], [[0.0, 1.0]])):
        with pytest.raises(LinSolveError):
            fam.solve(b_ub, b_eq)
    # a rejected right-hand side leaves the family usable
    res = fam.solve([-1.0, -2.0], [0.0])
    assert res.status == 0 and res.x == pytest.approx([2.0, 2.0])
    # a batch holds b_ub rows only: a family with equality rows, a row
    # with NaN, a row of the wrong length and a flat batch are refused
    ub = LPFamily([1.0], A_ub=[[1.0], [-1.0]])
    for family, B in ((fam, [[0.0, 0.0]]), (ub, [[0.0, np.nan]]),
                      (ub, [[0.0, 0.0, 0.0]]), (ub, [0.0, 0.0])):
        with pytest.raises(LinSolveError):
            family.solve_many(B)


def test_solve_many_solves_other_families_in_order():
    # a family that is not an interval family solves a batch member by
    # member, warm or cold as one solve after another would
    A_ub = [[-1.0, 0.5], [0.5, -1.0], [-1.0, -1.0]]
    B = [[-1.0, -2.0, -1.0], [-1.5, -2.5, -1.0], [-1.5, -2.5e-7, -1.0],
         [1.0, 1.0, -3.0]]
    batch, single = LPFamily([1.0, 1.0], A_ub=A_ub), \
        LPFamily([1.0, 1.0], A_ub=A_ub)
    for got, b_ub in zip(batch.solve_many(B), B, strict=True):
        ref = single.solve(b_ub)
        assert (got.status, got.fun, got.message) == \
            (ref.status, ref.fun, ref.message)
        assert got.x.tobytes() == ref.x.tobytes()


def test_status_table_is_keyed_by_every_model_status():
    # a member's status is read from a table keyed by the HiGHS enum; it
    # must give each model status the LP status _STATUS gives its name
    hs = linsolve._highs()
    members, statuses = hs.core.HighsModelStatus.__members__, hs.statuses
    assert len(statuses) == len(members)
    for name, model in members.items():
        status, message = statuses[model]
        assert status == linsolve._STATUS.get(name, 4)
        assert message.startswith(f"HiGHS model status {int(model)}: ")


def _is_linprog(res, c, A_ub, b_ub, A_eq=None, b_eq=None, bounds=None):
    """res is linprog(method="highs") on min cT x s.t. A_ub x <= b_ub,
    A_eq x = b_eq and bounds (None: x free): the same status, x bytes (the
    sign of a zero included) and objective."""
    ref = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=(None, None) if bounds is None else bounds,
                  method="highs")
    assert res.status == ref.status, (res.message, ref.message)
    if ref.x is None:
        assert res.x is None and res.fun is None
    else:
        assert res.x.tobytes() == ref.x.tobytes()
        assert np.float64(res.fun).tobytes() == np.float64(ref.fun).tobytes()


_gap = st.sampled_from([1e-7, _FINE]).flatmap(lambda g: st.floats(g / 2, 2 * g))
_zero = st.sampled_from([0.0, -0.0])
_sign = st.sampled_from([1.0, -1.0])
_bound = st.sampled_from([None, 0.0, -0.0, 1.0, -1.0, 1e6, -1e6])


@st.composite
def _interval_families(draw, max_eq=2):
    """A family min c x s.t. +-x <= b_i (0-4 rows), +-x = e_j (0 to max_eq
    rows) and lo <= x <= hi, and its members.

    c is a signed zero, a gap (below and above _FINE), -0.5 or coarse; lo
    and hi are None, a signed zero, +-1 or +-1e6.  Each member puts its
    b_i and e_j at a point t (coarse, or a finite lo or hi) plus an
    offset: 0, +-g, a, a +- g or coarse, with g within 2x of 1e-7 or of
    _FINE and a >= 0; so it draws bounds of one side within g of each
    other or of lo or hi, intervals empty by g and, at t = 0, |L| within
    g of |U|.  A b_i or e_j may be a signed zero.
    """
    signs = draw(st.lists(_sign, max_size=4))
    eq = draw(st.lists(_sign, max_size=max_eq))
    bounds = (draw(_bound), draw(_bound))
    ends = [b for b in bounds if b is not None]
    c = draw(_zero | _gap | st.integers(-3, 3).map(float) | st.just(-0.5)
             | st.floats(-5.0, 5.0)) * draw(_sign)
    members = []
    for _ in range(draw(st.integers(1, 6))):
        t = draw(_zero | st.integers(-3, 3).map(float) | st.floats(-5.0, 5.0)
                 | st.sampled_from(ends or [0.0]))
        g, a = draw(_gap), draw(st.floats(0.0, 3.0))
        off = st.sampled_from([0.0, g, -g, a, a + g, a - g]) \
            | st.floats(-3.0, 3.0)
        members.append(tuple(
            [draw(_zero | off.map(lambda o, s=s: s * t + o)) for s in rows]
            for rows in (signs, eq)))
    return (c, np.array(signs).reshape(-1, 1), np.array(eq).reshape(-1, 1),
            bounds, members)


def _spy_on_highs(fam):
    """The list of b_ub of the members that fam solves on HiGHS."""
    on_highs, member = [], fam._member

    def spy(b_ub, b_eq):
        on_highs.append(b_ub.tolist())
        return member(b_ub, b_eq)
    fam._member = spy
    return on_highs


def test_interval_members_match_linprog():
    # every member of an interval family, in closed form or on HiGHS, is
    # linprog's answer, with or without equality rows and column bounds;
    # both paths must be taken, so the test is not vacuous
    paths = {"closed": 0, "highs": 0}

    @settings(max_examples=300, deadline=None)
    @given(_interval_families())
    def check(family):
        c, A_ub, A_eq, bounds, members = family
        fam = LPFamily([c], A_ub=A_ub, A_eq=A_eq, bounds=bounds)
        on_highs = _spy_on_highs(fam)
        for b_ub, b_eq in members:
            res = fam.solve(b_ub, b_eq)
            paths["highs" if on_highs else "closed"] += 1
            on_highs.clear()
            _is_linprog(res, [c], A_ub if b_ub else None, b_ub or None,
                        A_eq if b_eq else None, b_eq or None, bounds)

    check()
    assert paths["closed"] > 0 and paths["highs"] > 0


@settings(max_examples=200, deadline=None)
@given(_interval_families(max_eq=0))
def test_solve_many_is_one_solve_per_member(family):
    # a batch gives each member bit for bit as one solve does, -0.0 and
    # the message included, and sends the same members to HiGHS
    c, A_ub, _, bounds, members = family
    batch, single = (LPFamily([c], A_ub=A_ub, bounds=bounds)
                     for _ in range(2))
    batch_highs, single_highs = _spy_on_highs(batch), _spy_on_highs(single)
    members = [b_ub for b_ub, _ in members]
    many = batch.solve_many(np.array(members).reshape(len(members), -1))
    assert len(many) == len(members)
    for got, b_ub in zip(many, members):
        ref = single.solve(b_ub)
        assert (got.status, got.message) == (ref.status, ref.message)
        assert (None if got.x is None else got.x.tobytes()) == \
            (None if ref.x is None else ref.x.tobytes())
        assert (got.fun is None) == (ref.fun is None)
        assert np.float64(got.fun).tobytes() == np.float64(ref.fun).tobytes()
    assert batch_highs == single_highs


@pytest.mark.parametrize("c,signs,b_ub,status,x,closed", [
    # closed form: empty; c > 0 takes L, c < 0 takes U, unbounded past an
    # infinite end; c = 0 takes the end nearer 0, L on a tie, the one
    # finite end, or +0.0 with no rows; a zero end is -0.0
    (1.0, [1, -1], [1.0, -2.0], 2, None, True),
    (2.0, [-1, 1, -1], [3.0, 5.0, 4.0], 0, -3.0, True),
    (-0.5, [1, -1, 1], [5.0, 3.0, 4.0], 0, 4.0, True),
    (1.0, [1], [3.0], 3, None, True),
    (-1.0, [-1], [3.0], 3, None, True),
    (1.0, [], [], 3, None, True),
    (0.0, [1, -1], [3.0, -1.0], 0, 1.0, True),
    (0.0, [1, -1], [3.0, 3.0], 0, -3.0, True),
    (0.0, [-1], [-3.0], 0, 3.0, True),
    (0.0, [], [], 0, 0.0, True),
    (2.5, [1, -1], [0.0, 0.0], 0, -0.0, True),
    (-1.0, [1], [-0.0], 0, -0.0, True),
    (-1.0, [1, -1], [2 + 5e-8, -2.0], 0, 2 + 5e-8, True),
    # HiGHS decides within _FINE of a tolerance, not by exact arithmetic:
    # c = 0 with |L| near |U|; empty by 5e-8, yet "optimal"; a bound 5e-8
    # looser than the tightest, which HiGHS returns; a cost of -1e-7 it
    # reads as 0 (so "optimal", not unbounded); a fine-grained bound; a
    # bound HiGHS reads as infinite
    (0.0, [1, -1], [2 + 5e-8, -2.0], 0, 2.0, False),
    (1.0, [1, -1], [2.0, -2 - 5e-8], 0, 2 + 5e-8, False),
    (-1.0, [1, 1, 1], [5 + 5e-8, 5.0, 5.0], 0, 5 + 5e-8, False),
    (1.0, [-1, -1], [5 + 5e-8, 5.0], 0, -5 - 5e-8, False),
    (-1e-7, [-1], [2.0], 0, -2.0, False),
    (1.0, [-1, 1], [5e-7, 1.0], 0, -5e-7, False),
    (-1.0, [1], [1e20], 3, None, False),
])
def test_interval_rules(c, signs, b_ub, status, x, closed):
    A_ub = np.array(signs, dtype=float).reshape(-1, 1)
    fam = LPFamily([c], A_ub=A_ub)
    res = fam.solve(b_ub)
    assert res.status == status
    assert (None if res.x is None else res.x.tobytes()) == \
        (None if x is None else np.array([x]).tobytes())
    assert (fam._lp is None) == closed     # the model only when needed
    _is_linprog(res, [c], A_ub if signs else None, b_ub or None)


def test_interval_family_builds_its_model_once_on_first_need():
    # x <= b0, x >= -b1, x >= -b2
    A_ub, c = np.array([[1.0], [-1.0], [-1.0]]), [1.0]
    fam = LPFamily(c, A_ub=A_ub)
    for b_ub in ([3.0, 1.0, 2.0], [0.0, 0.0, 4.0], [1.0, -2.0, 5.0],
                 [-1.0, 2.0, 1.5]):
        _is_linprog(fam.solve(b_ub), c, A_ub, b_ub)
    assert fam._lp is None
    # a fine-grained member, then a closed-form one; a member empty by 5e-8
    # and one with two lower bounds 5e-8 apart, each followed by one in
    # closed form: one model, built for the first
    model = None
    for b_ub in ([3.0, 5e-7, 2.0], [3.0, 1.0, 2.0], [1.0, -1.0 - 5e-8, 0.0],
                 [2.0, 2.0, 1.0], [2.0, 1.0, 1.0 + 5e-8], [3.0, 1.0, 2.0]):
        _is_linprog(fam.solve(b_ub), c, A_ub, b_ub)
        model = model or fam._lp
        assert model is not None and fam._lp is model


@pytest.mark.parametrize("c,A_ub,b_ub,A_eq,b_eq,bounds,x", [
    # no rows: x at a column bound as given, lo for c > 0, hi for c < 0,
    # and for c = 0 the first finite one of lo, hi and +0.0 (here lo,
    # though hi is nearer 0)
    (0.0, None, None, None, None, (-2.0, 1.0), -2.0),
    (0.0, None, None, None, None, (None, -0.0), -0.0),
    (-1.0, None, None, None, None, (0.0, -0.0), -0.0),
    (1.0, None, None, None, None, (-0.0, 3.0), -0.0),
    # rows: a zero optimum takes the bits of a zero column bound at its
    # end, lo when lo = hi, and is -0.0 where only a row gives it
    (1.0, [[1.0]], [3.0], None, None, (0.0, None), 0.0),
    (-1.0, [[1.0]], [0.0], None, None, (0.0, None), -0.0),
    (-1.0, [[1.0]], [1.0], None, None, (0.0, -0.0), 0.0),
    (-1.0, [[-1.0]], [1.0], None, None, (None, 0.0), 0.0),
    (0.0, None, None, [[1.0]], [0.0], (0.0, None), 0.0),
    (0.0, None, None, [[-1.0]], [-0.0], None, -0.0),
    # an equality row is both of its sides; a box bounds the end
    (0.0, None, None, [[1.0]], [3.0], (0.0, None), 3.0),
    (1.0, [[1.0]], [5.0], None, None, (-1e6, 1e6), -1e6),
    (-1.0, [[-1.0], [1.0]], [2.0, 4.0], [[1.0], [-1.0]], [3.0, -3.0],
     (1.0, 4.0), 3.0),
])
def test_column_bounds_and_equalities_in_closed_form(c, A_ub, b_ub, A_eq,
                                                     b_eq, bounds, x):
    # clear-cut members: linprog's answer, bit for bit, with no HiGHS model
    fam = LPFamily([c], A_ub=A_ub, A_eq=A_eq, bounds=bounds)
    res = fam.solve(b_ub, b_eq)
    assert res.status == 0 and res.x.tobytes() == np.array([x]).tobytes()
    assert fam._lp is None
    _is_linprog(res, [c], A_ub, b_ub, A_eq, b_eq, bounds)


@pytest.mark.parametrize("c,b_eq,bounds,interval", [
    # min -1e-7 x over x >= -2: unbounded, yet HiGHS reads the cost as 0
    # and returns "optimal" at -2; the cost is fine-grained, so the family
    # is not an interval family at all
    (-1e-7, None, (-2.0, None), False),
    # x = -1e-9 and x >= 0: empty by 1e-9, within HiGHS's tolerance; the
    # right-hand side is fine-grained, so HiGHS decides the member
    (0.0, [-1e-9], (0.0, None), True),
    (1.0, [-1e-9], (0.0, None), True),
    # a fine-grained bound; a bound HiGHS reads as infinite (unbounded)
    (1.0, None, (5e-7, 3.0), True),
    (-1.0, None, (None, 1e20), True),
])
def test_band_members_with_bounds_are_linprogs(c, b_eq, bounds, interval):
    A_eq = None if b_eq is None else [[1.0]]
    fam = LPFamily([c], A_eq=A_eq, bounds=bounds)
    assert (fam._sides is not None) == interval
    res = fam.solve(None, b_eq)
    assert fam._lp is not None          # HiGHS decided it
    _is_linprog(res, [c], None, None, A_eq, b_eq, bounds)
    if not interval:
        assert res.status == 0 and res.x[0] == -2.0


@pytest.mark.parametrize("bounds", [(np.nan, None), (None, np.nan),
                                    (np.inf, None), (None, -np.inf)])
def test_bounds_highs_refuses_leave_the_interval_family(bounds):
    # a bound that is NaN or infinite on the wrong side makes no interval
    # family: HiGHS refuses the model, as it does for any other family
    fam = LPFamily([1.0], A_ub=[[1.0]], bounds=bounds)
    assert fam._sides is None
    res = fam.solve([2.0])
    assert res.status == 2 and res.message.endswith("Model error")


def _fresh_python(code: str) -> list[str]:
    """The lines that code prints in a new interpreter.  This process may
    hold scipy.optimize already (linprog above), and then _highs() would
    never load HiGHS from its file."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.splitlines()


def test_lp_commands_load_highs_without_scipy_optimize(tmp_path):
    demo, out = str(tmp_path / "demo.json"), str(tmp_path / "critical.json")
    lines = _fresh_python(f"""
import sys
from regkit import cli, linsolve
from regkit.instances import demo_polyopt_raw, save_instance
save_instance(demo_polyopt_raw(), {demo!r})
assert cli.main(["optcond", {demo!r}, "--task", "critical",
                 "--out", {out!r}]) == 0
assert linsolve._highs.cache_info().currsize == 1     # an LP was solved
print("scipy.optimize" in sys.modules)
from scipy.optimize import linprog
import scipy.optimize._highspy._core as core
print(core is linsolve._highs().core)
c, A, b = [1.0, 2.0], [[-1.0, -1.0], [1.0, -2.0]], [-1.0, 0.5]
ref = linprog(c, A_ub=A, b_ub=b, method="highs")
got = linsolve.solve_lp(c, A_ub=A, b_ub=b, bounds=(0, None))
print(ref.status == got.status == 0 and ref.fun == got.fun
      and ref.x.tobytes() == got.x.tobytes())
""")
    assert lines == ["False", "True", "True"]


def test_highs_reuses_a_loaded_scipy_optimize():
    # with scipy.optimize imported first, _highs() takes its module and
    # loads no file
    assert _fresh_python("""
import importlib.util
import sys
import scipy.optimize
from regkit import linsolve
def no_file(*args):
    raise AssertionError("loaded from the file")
importlib.util.spec_from_file_location = no_file
core = sys.modules["scipy.optimize._highspy._core"]
print(linsolve._highs().core is core)
print(linsolve.solve_lp([1.0], A_ub=[[-1.0]], b_ub=[-2.0]).x.tolist())
""") == ["True", "[2.0]"]


def test_highs_falls_back_to_the_import_without_an_extension_file():
    assert _fresh_python("""
import importlib.machinery
import sys
importlib.machinery.EXTENSION_SUFFIXES = []     # no file can be found
from regkit import linsolve
res = linsolve.solve_lp([1.0, 1.0], A_ub=[[-1.0, 0.0], [0.0, -1.0]],
                        b_ub=[-1.0, -2.0])
print(res.status, res.x.tolist(), "scipy.optimize" in sys.modules)
""") == ["0 [1.0, 2.0] True"]


def test_a_failed_load_leaves_no_module_behind():
    # the module is registered before it executes; if that fails, it is
    # removed again, and the next solve loads it afresh
    assert _fresh_python("""
import importlib.util
import sys
from regkit import linsolve
real = importlib.util.spec_from_file_location
class Broken:
    def create_module(self, spec):
        return None
    def exec_module(self, module):
        raise ImportError("broken extension")
def broken(name, path):
    spec = real(name, path)
    spec.loader = Broken()
    return spec
importlib.util.spec_from_file_location = broken
try:
    linsolve._highs()
except ImportError as e:
    print(e)
print("scipy.optimize._highspy._core" in sys.modules)
importlib.util.spec_from_file_location = real
res = linsolve.solve_lp([1.0], A_ub=[[-1.0]], b_ub=[-2.0])
print(res.x.tolist(), "scipy.optimize" in sys.modules)
""") == ["broken extension", "False", "[2.0] False"]
