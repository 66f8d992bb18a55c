"""Second-order optimality machinery on polyhedral problem data."""
from itertools import product

import numpy as np
import pytest
from scipy.optimize import linprog

from regkit import optcond
from regkit.instances import demo_polyopt_raw, generate_instance, parse_instance
from regkit.optcond import (BallExtension, CriticalTriple, Multipliers,
                            OptError, PolyMapSpec, a2_of_minus_D,
                            check_claim2, check_cq, check_multiplier_rule,
                            critical_directions, exact_rule_margin,
                            find_multipliers, second_order_graph_derivative)
from regkit import linsolve
from regkit.linsolve import in_cone_of
from regkit.polyhedra import Polyhedron, sample_cone_points, tangent_cone
from regkit.policy import POLY_TOL


def _demo():
    return parse_instance(demo_polyopt_raw()).opt


def test_demo_instance_validates():
    inst = _demo()
    assert inst.validate() == []


def test_linear_map_graph_derivative_is_the_map():
    inst = _demo()
    T = tangent_cone(inst.F.graph, np.concatenate([inst.xbar, inst.ybar]))
    for u in (np.array([1.0, 0.0]), np.array([0.3, -2.0])):
        # F(x) = -x2: (u, v) is in T(gph F) exactly when v = -u2
        assert T.contains(np.append(u, -u[1]))
        assert not T.contains(np.append(u, -u[1] + 1.0))


def test_second_order_derivative_of_linear_map():
    inst = _demo()
    u = np.array([1.0, 1.0])
    v = np.array([-1.0])
    x = np.array([0.5, -0.5])
    D2 = second_order_graph_derivative(inst.F, inst.xbar, inst.ybar, u, v, x)
    assert D2 is not None and D2.linf_distance(np.array([0.5])) <= 1e-9
    # direction off the graph's tangent cone gives the empty set
    bad = second_order_graph_derivative(inst.F, inst.xbar, inst.ybar,
                                        u, v + 5.0, x)
    assert bad is None


def test_empty_value_set_is_left_to_its_lp():
    # gph E = {(x, y) : 0 <= y <= x}; E(-1) is empty, and only the LP of
    # each consumer finds that out
    E = PolyMapSpec(Polyhedron(np.array([[0.0, -1.0], [-1.0, 1.0]]),
                               np.zeros(2)), 1, 1)
    x = np.array([-1.0])
    V = E.value_polyhedron(x)
    assert isinstance(V, Polyhedron) and V.is_empty()
    assert E.dist_to_value(np.zeros(1), x) == np.inf
    assert optcond._Slicer(E.graph, 1, np.ones(1)).minimum([x])[0][0] == np.inf
    zero = optcond._Slicer(E.graph, 1, np.zeros(1))
    ok, B = zero.rhs([x])
    assert ok[0] and zero.points(B)[0].shape == (0, 1)


def _triple_cones(size, seed):
    """(inst, sets, T, dim e, rng) for each derivative cone T of each
    critical triple of the demo (size 0) or a generated problem."""
    inst = parse_instance(demo_polyopt_raw() if size == 0 else
                          generate_instance("polyhedral-opt", size, seed)).opt
    rng = np.random.default_rng(seed)
    for trip in critical_directions(inst, n_dirs=16, rng=rng):
        sets = optcond._triple_sets(inst, trip)
        for T, d in ((sets.TF2, inst.p), (sets.TG2, inst.q),
                     (sets.TH2, inst.r)):
            yield inst, sets, T, d, rng


def _slice(T, n, x):
    """{e : (x, e) in T} straight from T's rows: the rows with an e-part,
    or None when T is None or a row without one reads 0 <= rhs < -1e-9."""
    if T is None:
        return None
    rhs = T.b - T.A[:, :n] @ x
    has_e = np.abs(T.A[:, n:]).max(axis=1) > 1e-12
    if (rhs[~has_e] < -1e-9).any():
        return None
    return Polyhedron(T.A[has_e, n:], rhs[has_e])


def test_slicer_rhs_is_the_normalized_slice_b():
    # a cone with a row without y-part, -x1 <= 0, read 0 <= x1 at a slice
    T = Polyhedron(np.array([[-1.0, 0.0, 0.0], [0.5, -2.0, 1.0],
                             [0.0, 3.0, -1.0], [1.0, 1.0, 0.0]]), np.zeros(4))
    cases = [(T, 2, np.array([[1.0, 0.5], [-1.0, 2.0], [0.0, 0.0]]))]
    for size, seed in ((0, 0), (3, 0), (4, 1)):
        for inst, sets, Tc, _, rng in _triple_cones(size, seed):
            xs = sample_cone_points(sets.S2.IT2, 8, rng)
            cases.append((Tc, inst.n, np.vstack([xs, -xs])))
    nones = values = 0
    for T, n, xs in cases:
        s = optcond._Slicer(T, n, None if T is None else np.ones(T.dim - n))
        ok, B = s.rhs(xs)           # one row of B per x with ok
        assert len(B) == ok.sum()
        rows = iter(B)
        for x, known in zip(xs, ok):
            P, b, at = _slice(T, n, x), next(rows) if known else None, s.at(x)
            assert (P is None) == (b is None) == (at is None)
            if P is None:
                nones += 1
            else:
                assert np.array_equal(b, P.b) and np.array_equal(s.cone.A, P.A)
                assert np.array_equal(at.A, P.A) and np.array_equal(at.b, P.b)
                values += 1
    assert nones > 0 and values > 0


def _member_is_linprog(s, T, n, obj, x):
    """The slicer's family member at x next to linprog on the slice read
    straight from T's rows; 0 when that slice is None, else 1."""
    P = _slice(T, n, x)
    if P is None:
        return 0
    res = s.family.solve(s.rhs([x])[1][0])
    ref = linprog(obj, A_ub=P.A, b_ub=P.b, bounds=(None, None),
                  method="highs")
    assert res.status == ref.status
    if ref.status == 0:
        assert res.fun == pytest.approx(ref.fun, rel=1e-9, abs=1e-9)
        assert P.contains(res.x, 1e-6)
    return 1


@pytest.mark.parametrize("size,seed", [(0, 0), (3, 0), (3, 1)])
def test_slice_families_match_one_member_solves(size, seed):
    # size 0 is the demo; every slice of a triple's derivative cones is a
    # member of one family, solved warm or in closed form, and must equal
    # linprog's solve of that one member
    members = 0
    for inst, sets, T, d, rng in _triple_cones(size, seed):
        c = rng.normal(size=d)
        for obj in (c, np.zeros(d)):
            s = optcond._Slicer(T, inst.n, obj)
            for x in sample_cone_points(sets.S2.IT2, 16, rng):
                members += _member_is_linprog(s, T, inst.n, obj, x)
    assert members > 0
    # those cones have one e column; a cone with two keeps the slicer's
    # HiGHS path in the test: |x_i| <= e_i, e1 + e2 <= 3 (x1 + x2), x1 >= 0
    T = Polyhedron(np.array([[1.0, 0.0, -1.0, 0.0], [-1.0, 0.0, -1.0, 0.0],
                             [0.0, 1.0, 0.0, -1.0], [0.0, -1.0, 0.0, -1.0],
                             [-3.0, -3.0, 1.0, 1.0], [-1.0, 0.0, 0.0, 0.0]]),
                   np.zeros(6))
    rng, members = np.random.default_rng(seed), 0
    for obj in (rng.normal(size=2), np.zeros(2)):
        s = optcond._Slicer(T, 2, obj)
        assert s.family._lp is not None
        for x in rng.normal(size=(16, 2)):
            members += _member_is_linprog(s, T, 2, obj, x)
    assert members > 0


@pytest.mark.parametrize("size,seed", [(0, 0), (3, 0), (3, 5), (4, 3),
                                       (5, 1)])
def test_cq_axis_family_matches_one_lp_per_axis(size, seed, monkeypatch):
    # check_cq asks every signed axis as a member of one family on the
    # distinct rows of Gm; its verdict and first missing axis must be those
    # of one fresh in_cone_of per axis, in the same order (CQ fails on the
    # last three)
    inst = parse_instance(demo_polyopt_raw() if size == 0 else
                          generate_instance("polyhedral-opt", size, seed)).opt
    made = []

    class Recording(linsolve.LPFamily):
        def __init__(self, c, A_ub=None, A_eq=None, bounds=None):
            super().__init__(c, A_ub, A_eq, bounds)
            if bounds == (0, None):
                made.append(np.asarray(A_eq).T)

    monkeypatch.setattr(linsolve, "LPFamily", Recording)
    asked = 0
    for k in range(2):
        for trip in critical_directions(inst, n_dirs=16,
                                        rng=np.random.default_rng(k)):
            made.clear()
            v = check_cq(inst, trip, rng=np.random.default_rng(k))
            if not made:            # no generators, or rank < q + r
                assert not v.holds and v.missing is None
                continue
            (Gm,) = made
            axes = []
            for j in range(v.needed):
                for sgn in (1.0, -1.0):
                    axes.append(np.zeros(v.needed))
                    axes[-1][j] = sgn
            missing = next((e for e in axes if not in_cone_of(Gm, e)), None)
            assert v.holds == (missing is None)
            if missing is not None:
                assert np.array_equal(v.missing, missing)
            asked += 1
    assert asked > 0


def _cq_over_every_row(inst, trip, rng):
    """check_cq's (holds, rank, missing) with the axis members solved over
    the whole generator matrix, repeated rows included."""
    Gm = optcond._cq_generators(inst, trip, rng)
    needed = inst.q + inst.r
    rank = int(np.linalg.matrix_rank(Gm, tol=POLY_TOL)) if len(Gm) else 0
    if rank < needed:
        return False, rank, None
    axes = linsolve.LPFamily(np.zeros(len(Gm)), A_eq=Gm.T, bounds=(0, None))
    for j in range(needed):
        for sgn in (1.0, -1.0):
            e = np.zeros(needed)
            e[j] = sgn
            if axes.solve(b_eq=e).status != 0:
                return False, rank, e
    return True, rank, None


def test_cq_over_distinct_generators_keeps_the_verdict():
    # check_cq solves over the distinct rows of Gm: holds, rank and the first
    # missing axis are those of the members solved over every row
    cases = [(0, 0)] + [(size, seed) for size in range(2, 7) for seed in range(4)]
    repeated = 0
    for size, seed in cases:
        inst = parse_instance(demo_polyopt_raw() if size == 0 else
                              generate_instance("polyhedral-opt", size, seed)).opt
        for trip in critical_directions(inst, n_dirs=16,
                                        rng=np.random.default_rng(seed)):
            v = check_cq(inst, trip, rng=np.random.default_rng(5))
            holds, rank, missing = _cq_over_every_row(
                inst, trip, np.random.default_rng(5))
            assert (v.holds, v.rank) == (holds, rank)
            assert (v.missing is None) == (missing is None)
            if missing is not None:
                assert np.array_equal(v.missing, missing)
            Gm = optcond._cq_generators(inst, trip, np.random.default_rng(5))
            repeated += len(np.unique(Gm, axis=0)) < len(Gm)
    assert repeated > 0


def test_rule_system_is_a_cone_and_needs_no_phase_one(monkeypatch):
    # the joint system's blocks are tangent cones of tangent cones, so b = 0
    # and find_multipliers keeps the dual rows without a phase-1 LP; a
    # system with some b < 0 is refused, not searched
    calls = []
    real = linsolve.feasible_point
    monkeypatch.setattr(linsolve, "feasible_point",
                        lambda *a: calls.append(1) or real(*a))
    searched = []
    for size, seed in [(0, 0), (3, 0), (4, 3), (5, 1)]:
        inst = parse_instance(demo_polyopt_raw() if size == 0 else
                              generate_instance("polyhedral-opt", size, seed)).opt
        for trip in critical_directions(inst, n_dirs=16,
                                        rng=np.random.default_rng(seed)):
            system = optcond._joint_rule_system(
                inst, optcond._triple_sets(inst, trip))
            if system is None:
                continue
            assert not system[1].any()
            calls.clear()
            find_multipliers(inst, trip)
            assert not calls
            searched.append((inst, trip))
    assert searched
    real_system = optcond._joint_rule_system
    monkeypatch.setattr(optcond, "_joint_rule_system",
                        lambda *a: (lambda A, b: (A, b - 1.0))(*real_system(*a)))
    with pytest.raises(OptError, match="not a cone"):
        find_multipliers(*searched[0])


def test_off_graph_base_rejected():
    inst = _demo()
    with pytest.raises(OptError, match="off the graph"):
        second_order_graph_derivative(inst.F, inst.xbar, inst.ybar + 3.0,
                                      np.array([1.0, 0.0]), np.array([0.0]),
                                      np.zeros(2))


def _minus_k_in_hull(D, zbar, k, tol=1e-9):
    """-k in cl cone(D + zbar) = D + R+ zbar, read off D's rows as one
    interval: is there s >= 0 with A_D (-k - s zbar) <= b_D?  Row i reads
    -s c_i <= room_i, a bound on s on one side, or none when c_i = 0."""
    c, room = D.A @ zbar, D.b + D.A @ k
    up, down = c > tol, c < -tol
    lo = np.max(-room[up] / c[up], initial=0.0)
    hi = np.min(room[down] / -c[down], initial=np.inf)
    return bool((room[~up & ~down] >= -tol).all() and lo <= hi + tol)


def test_critical_directions_verified_on_demo():
    # on the demo and on generated problems of sizes 2-6, seeds 0-7
    insts = [_demo()] + [
        parse_instance(generate_instance("polyhedral-opt", size, seed)).opt
        for size in range(2, 7) for seed in range(8)]
    counts = []
    for inst in insts:
        trips = critical_directions(inst, n_dirs=16,
                                    rng=np.random.default_rng(1))
        Fp, Gp = inst.F_plus(), inst.G_plus()
        TH = tangent_cone(inst.H.graph,
                          np.concatenate([inst.xbar, np.zeros(inst.r)]))
        TV = tangent_cone(Fp.graph, np.concatenate([inst.xbar, inst.ybar]))
        TK = tangent_cone(Gp.graph, np.concatenate([inst.xbar, inst.zbar]))
        for trip in trips:
            # re-verify every membership from scratch, on the graphs'
            # tangent cones and D's rows, at 1e-9
            assert TH.contains(np.concatenate([trip.u, np.zeros(inst.r)]))
            assert TV.contains(np.concatenate([trip.u, trip.v]))
            assert inst.Q.contains(-trip.v)
            # -v lies on a facet of Q
            assert (np.abs(inst.Q.A @ -trip.v - inst.Q.b) <= 1e-9).any()
            assert TK.contains(np.concatenate([trip.u, trip.k]))
            assert _minus_k_in_hull(inst.D, inst.zbar, trip.k), trip
        counts.append(len(trips))
    assert all(counts), counts


def test_D_hull_is_D_at_the_origin():
    # cl cone(D + 0) = D, not the whole space, on the demo and on
    # generated problems, whose zbar is 0
    for inst in [_demo()] + [
            parse_instance(generate_instance("polyhedral-opt", size, 0)).opt
            for size in range(2, 7)]:
        assert not inst.zbar.any()
        H = inst.D_hull()
        assert np.array_equal(H.A, inst.D.A) and np.array_equal(H.b, inst.D.b)


def test_multipliers_on_demo():
    # find_multipliers returns a candidate on its exact joint-LP check
    # alone, so the exact margin and the sampled rule are both asserted
    # here, on the demo and on two generated problems
    generated = [parse_instance(generate_instance("polyhedral-opt", size,
                                                  seed)).opt
                 for size, seed in ((3, 0), (5, 1))]
    for inst in [_demo()] + generated:
        trips = critical_directions(inst, n_dirs=32,
                                    rng=np.random.default_rng(0))
        found = 0
        for trip in trips:
            mult = find_multipliers(inst, trip, rng=np.random.default_rng(1))
            if mult is None:
                continue
            found += 1
            assert mult.nonzero()
            assert exact_rule_margin(inst, trip, mult) >= -1e-9
            verdict = check_multiplier_rule(inst, trip, mult,
                                            rng=np.random.default_rng(2))
            assert verdict.holds, verdict
            assert verdict.margin >= -1e-9
            # rhs is polyhedrally constrained to {0, +inf, -inf}
            assert verdict.rhs in (0.0, np.inf, -np.inf) or verdict.rhs == 0.0
        assert found > 0


@pytest.mark.parametrize("size,seed", [(5, 46), (6, 20)])
def test_multipliers_where_sampled_tuples_missed(size, seed):
    # on 5/46 and 6/20 the multipliers' exact margin lies within 1e-9 of
    # 0.  The search draws nothing from its rng.
    inst = parse_instance(generate_instance("polyhedral-opt", size, seed)).opt
    trip = critical_directions(inst, n_dirs=16,
                               rng=np.random.default_rng(seed))[0]
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    mult = find_multipliers(inst, trip, n_samples=16, rng=rng)
    assert rng.bit_generator.state == state
    assert mult is not None and np.abs(mult.v_star).sum() > 1e-9
    margin = exact_rule_margin(inst, trip, mult)
    assert margin >= -1e-9
    verdict = check_multiplier_rule(inst, trip, mult, n_samples=64,
                                    rng=np.random.default_rng(2))
    assert verdict.holds and verdict.margin >= -1e-9


def test_triple_sets_are_built_once_per_instance(monkeypatch):
    # find_multipliers, check_multiplier_rule and check_cq on one triple
    # build its second-order sets (of S and of -D) once, and F+ and G+
    # once each; the cache is the instance's, and its matrices read-only
    trip = critical_directions(_demo(), n_dirs=16,
                               rng=np.random.default_rng(1))[0]
    calls = {"second_order_sets": 0, "graph_plus_cone": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(optcond, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(optcond, name, counted)
    inst = _demo()
    mult = find_multipliers(inst, trip, rng=np.random.default_rng(1))
    assert mult is not None and calls["second_order_sets"] == 2
    check_multiplier_rule(inst, trip, mult, rng=np.random.default_rng(2))
    check_cq(inst, trip, rng=np.random.default_rng(3))
    assert calls == {"second_order_sets": 2, "graph_plus_cone": 2}
    sets = optcond._triple_sets(inst, trip)
    assert optcond._triple_sets(inst, trip) is sets
    assert optcond._triple_sets(_demo(), trip) is not sets
    with pytest.raises(ValueError, match="read-only"):
        sets.TF2.A[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        inst.F_plus().graph.b[0] = 1.0


def test_multiplier_invariants_enforced():
    inst = _demo()
    trip = CriticalTriple(u=np.array([1.0, 0.0]), v=np.array([0.0]),
                          k=np.array([0.0]))
    zero = Multipliers(v_star=np.zeros(1), k_star=np.zeros(1),
                       w_star=np.zeros(1))
    with pytest.raises(OptError, match="= 0"):
        check_multiplier_rule(inst, trip, zero)
    bad_dual = Multipliers(v_star=np.array([-1.0]), k_star=np.zeros(1),
                           w_star=np.zeros(1))
    with pytest.raises(OptError, match="dual cone"):
        check_multiplier_rule(inst, trip, bad_dual)
    not_orth = Multipliers(v_star=np.array([1.0]), k_star=np.zeros(1),
                           w_star=np.zeros(1))
    trip2 = CriticalTriple(u=np.array([1.0, 0.0]), v=np.array([-2.0]),
                           k=np.array([0.0]))
    with pytest.raises(OptError, match="orthogonality"):
        check_multiplier_rule(inst, trip2, not_orth)


def test_a2_of_minus_D_none_branch():
    inst = _demo()
    # k outside the tangent cone of -D at zbar = 0: -D = (-inf, 0], k = 1
    assert a2_of_minus_D(inst, np.array([1.0])) is None
    A2 = a2_of_minus_D(inst, np.array([-1.0]))
    # zbar = 0 is the apex of -D, so A2 is the whole line
    assert A2 is not None and A2.contains(np.array([5.0]))


@pytest.mark.parametrize("size,seed,rng_seed", [(2, 1093277560, 1998254285),
                                                (5, 501939972, 1353055115)])
def test_critical_directions_stay_in_tangent_cone_of_S(size, seed, rng_seed):
    # on these problems a sampled axis direction passes every graph test
    # but leaves T(S, xbar), where IT2(S, xbar, u) is empty
    inst = parse_instance(generate_instance("polyhedral-opt", size, seed)).opt
    trips = critical_directions(inst, n_dirs=16,
                                rng=np.random.default_rng(rng_seed))
    assert trips
    TS = tangent_cone(inst.S, inst.xbar)
    for trip in trips:
        assert TS.contains(trip.u)
        find_multipliers(inst, trip, n_samples=16,
                         rng=np.random.default_rng(1))
        check_cq(inst, trip, rng=np.random.default_rng(2))


def test_check_cq_on_demo():
    inst = _demo()
    trips = critical_directions(inst, n_dirs=16,
                                rng=np.random.default_rng(0))
    verdicts = [check_cq(inst, t, rng=np.random.default_rng(3))
                for t in trips]
    # the demo's constraints are surjective linear maps: CQ should hold
    # for at least one critical triple
    assert any(v.holds for v in verdicts)
    for v in verdicts:
        assert v.needed == inst.q + inst.r
        if not v.holds:
            assert v.rank < v.needed or v.missing is not None


def _exact_cq_margins(inst, trip):
    """The second-order CQ decided by one LP per signed axis e of Z x W,
    sharing no code with check_cq: max s <= 1 over (x, z, w, d, p, t, s)
    with IT2 x + s <= 0, (x, z) in TG2, (x, w) in TH2, d in A2(-D, zbar,
    k) (d = 0 when A2 is empty, as check_cq reads it), p in D, t >= 0 and
    (z - d + p + t zbar, w) = e.  The CQ holds iff every axis reaches
    s > 0; -inf marks an infeasible axis."""
    sets = optcond._triple_sets(inst, trip)
    n, q, r = inst.n, inst.q, inst.r
    IT2, TG2, TH2, A2, D = sets.S2.IT2, sets.TG2, sets.TH2, sets.A2, inst.D
    if TG2 is None or TH2 is None:
        return [-np.inf]
    if A2 is None:
        A2 = Polyhedron(np.vstack([np.eye(q), -np.eye(q)]), np.zeros(2 * q))
    ends = np.cumsum([0, n, q, r, q, q, 1, 1])  # x, z, w, d, p, t, s
    x, z, w, d, p, t, s = (slice(a, b) for a, b in zip(ends, ends[1:]))

    def rows(*parts):
        out = np.zeros((len(parts[0][1]), ends[-1]))
        for cols, block in parts:
            out[:, cols] = block
        return out

    A_ub = np.vstack([rows((x, IT2.A), (s, np.ones((IT2.m, 1)))),
                      rows((x, TG2.A[:, :n]), (z, TG2.A[:, n:])),
                      rows((x, TH2.A[:, :n]), (w, TH2.A[:, n:])),
                      rows((d, A2.A)), rows((p, D.A))])
    b_ub = np.concatenate([IT2.b, TG2.b, TH2.b, A2.b, D.b])
    eye = np.eye(q)
    A_eq = np.vstack([rows((z, eye), (d, -eye), (p, eye),
                           (t, inst.zbar[:, None])),
                      rows((w, np.eye(r)))])
    bounds = [(None, None)] * ends[-1]
    bounds[t.start], bounds[s.start] = (0, None), (None, 1)
    c = -rows((s, np.ones((1, 1))))[0]
    margins = []
    for e in np.vstack([np.eye(q + r), -np.eye(q + r)]):
        res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=e,
                      bounds=bounds, method="highs")
        margins.append(-res.fun if res.status == 0 else -np.inf)
    return margins


def test_sampled_cq_pass_implies_the_exact_cq():
    # check_cq as `regkit optcond --task cq` runs it, on the demo and on
    # the 40 generated problems of sizes 2-6, seeds 0-7: a sampled pass
    # exhibits every axis in the cone, so the exact CQ holds there too
    raws = [demo_polyopt_raw()] + [
        generate_instance("polyhedral-opt", size, seed)
        for size in range(2, 7) for seed in range(8)]
    passed = 0
    for raw in raws:
        parsed = parse_instance(raw)
        inst, rng = parsed.opt, np.random.default_rng(parsed.policy.seed)
        trip = critical_directions(inst, rng=rng)[0]
        if check_cq(inst, trip, rng=rng).holds:
            passed += 1
            margins = _exact_cq_margins(inst, trip)
            assert min(margins) > 1e-9, (raw.get("meta"), margins)
    assert passed > 0


@pytest.mark.parametrize("size,seed", [(0, 0), (3, 0), (3, 5), (4, 3),
                                       (5, 1), (6, 2)])
def test_cq_generators_match_one_row_per_tuple(size, seed):
    # the broadcast blocks of check_cq's generator matrix are, bit for bit,
    # one concatenation (z - d, w) per (z, w, d), d the apex 0 first, then
    # (p, 0) per D-point
    inst = parse_instance(demo_polyopt_raw() if size == 0 else
                          generate_instance("polyhedral-opt", size, seed)).opt
    checked = 0
    for trip in critical_directions(inst, n_dirs=16,
                                    rng=np.random.default_rng(seed)):
        Gm = optcond._cq_generators(inst, trip, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        sets = optcond._triple_sets(inst, trip)
        xs = sample_cone_points(sets.S2.IT2, 32, rng)
        ds = [np.zeros(inst.q)]
        if sets.A2 is not None:
            ds += list(sample_cone_points(sets.A2, 8, rng))
        slicers = [optcond._Slicer(sets.TG2, inst.n, np.zeros(inst.q)),
                   optcond._Slicer(sets.TH2, inst.n, np.zeros(inst.r))]
        gens = [np.concatenate([z - d, w])
                for zs, ws in optcond._slice_points(slicers, xs, rng)
                for z, w, d in product(zs, ws, ds)]
        gens += [np.concatenate([pt, np.zeros(inst.r)])
                 for pt in sample_cone_points(inst.D_hull(), 16, rng)]
        ref = np.array(gens).reshape(-1, inst.q + inst.r)
        assert Gm.shape == ref.shape and Gm.tobytes() == ref.tobytes()
        checked += len(ref) > 0
    assert checked > 0


def test_one_highs_solver_per_process(monkeypatch):
    # the multiplier search, the rule check and the CQ test on the demo
    # share one HiGHS solver: the process makes exactly one
    from scipy.optimize._highspy import _core
    made, real = [], _core._Highs

    def counting():
        made.append(1)
        return real()
    monkeypatch.setattr(_core, "_Highs", counting)
    linsolve._highs.cache_clear()
    try:
        inst = _demo()
        solved = 0
        for trip in critical_directions(inst, n_dirs=16,
                                        rng=np.random.default_rng(0)):
            mult = find_multipliers(inst, trip, rng=np.random.default_rng(1))
            if mult is not None:
                solved += 1
                assert check_multiplier_rule(
                    inst, trip, mult, rng=np.random.default_rng(2)).holds
            check_cq(inst, trip, rng=np.random.default_rng(3))
        assert solved > 0
    finally:
        linsolve._highs.cache_clear()
    assert len(made) == 1


def test_claim2_on_demo():
    inst = _demo()
    trips = critical_directions(inst, n_dirs=16,
                                rng=np.random.default_rng(0))
    trip = trips[0]
    rng = np.random.default_rng(4)
    samples = inst.xbar + 0.1 * rng.normal(size=(16, inst.n))
    Hext = BallExtension(inst.H, samples)
    rep = check_claim2(inst, trip, Hext, mu=lambda t: 2.0 * t, theta=1.0,
                       rng=np.random.default_rng(5))
    assert rep.gate_ok
    assert rep.holds or rep.vacuous


def test_ball_extension_audit_against_direct_distances():
    # H(x) = {x1} and the extension's own map E(x) = {2 x1}, so that
    # delta(x) = d(0, E(x)) = 2|x1| and d(0, H(x)) = |x1|: E differs from H
    # at level 0 wherever x1 != 0
    def line(slope):
        A = np.array([[-slope, 0.0, 1.0], [slope, 0.0, -1.0]])
        return PolyMapSpec(Polyhedron(A, np.zeros(2)), 2, 1)

    H = line(1.0)
    samples = np.random.default_rng(0).normal(size=(6, 2))
    delta, dH = 2.0 * np.abs(samples[:, 0]), np.abs(samples[:, 0])
    ext = BallExtension(line(2.0), samples)
    for theta in (1.0, 3.0):
        direct = (bool((delta <= theta * dH + 1e-9).all()),
                  bool((np.abs(delta - dH) <= 1e-9).all()))
        assert ext.audit(H, theta) == direct
    assert ext.audit(H, 1.0) == (False, False)
    assert ext.audit(H, 3.0) == (True, False)
    assert BallExtension(H, samples).audit(H, 1.0) == (True, True)


def test_claim2_gate_failure_raises():
    inst = _demo()
    trip = CriticalTriple(u=np.array([0.0, -1.0]), v=np.array([1.0]),
                          k=np.array([-1.0]))
    samples = np.array([[0.5, 0.5], [1.0, -1.0]])
    # d(0, H(x)) = x1 > 0 at both samples, so the ball extension's delta
    # exceeds theta * d(0, H(x)) for theta < 1: the gate must fail
    with pytest.raises(OptError, match="gate failed"):
        check_claim2(inst, trip, BallExtension(inst.H, samples),
                     mu=lambda t: t, theta=0.5)


def test_generated_instances_validate_and_certify():
    for seed in range(6):
        raw = generate_instance("polyhedral-opt", 4, seed)
        inst = parse_instance(raw).opt
        assert inst.validate() == []
        cert = raw["meta"]["certificate"]
        trip = CriticalTriple(u=np.zeros(inst.n), v=np.zeros(inst.p),
                              k=np.zeros(inst.q))
        mult = Multipliers(v_star=np.array([cert["v"]]),
                           k_star=np.array([cert["k"]]),
                           w_star=np.array([cert["w"]]))
        assert exact_rule_margin(inst, trip, mult) >= -1e-9


def test_feasible_set_is_polyhedral_and_contains_base():
    inst = _demo()
    Om = inst.feasible_set()
    assert Om.contains(inst.xbar)
    assert Om.contains([0.0, -1.0])       # x2 <= 0, x1 = 0
    assert not Om.contains([1.0, 0.0])    # violates H(x) = x1 = 0
    assert not Om.contains([0.0, 1.0])    # violates G(x) in -D
