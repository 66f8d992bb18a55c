"""Second-order optimality machinery on polyhedral problem data."""
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
    assert optcond._Slicer(E.graph, 1, np.ones(1)).minimum(x)[0] == np.inf
    zero = optcond._Slicer(E.graph, 1, np.zeros(1))
    assert zero.points(zero.rhs(x), np.random.default_rng(0)).shape == (0, 1)


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
        for x in xs:
            P, b, at = _slice(T, n, x), s.rhs(x), s.at(x)
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
    res = s.family.solve(s.rhs(x))
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
        assert s.family._highs is not None
        for x in rng.normal(size=(16, 2)):
            members += _member_is_linprog(s, T, 2, obj, x)
    assert members > 0


@pytest.mark.parametrize("size,seed", [(0, 0), (3, 0), (3, 5), (4, 3),
                                       (5, 1)])
def test_cq_axis_family_matches_one_lp_per_axis(size, seed, monkeypatch):
    # check_cq asks every signed axis as a member of one family on Gm.T;
    # its verdict and first missing axis must be those of one fresh
    # in_cone_of per axis, in the same order (CQ fails on the last three)
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


def test_off_graph_base_rejected():
    inst = _demo()
    with pytest.raises(OptError, match="off the graph"):
        second_order_graph_derivative(inst.F, inst.xbar, inst.ybar + 3.0,
                                      np.array([1.0, 0.0]), np.array([0.0]),
                                      np.zeros(2))


def test_critical_directions_verified_on_demo():
    # on the demo and on generated problems of sizes 2-6
    insts = [_demo()] + [
        parse_instance(generate_instance("polyhedral-opt", size, seed)).opt
        for size in range(2, 7) for seed in (0, 1, 2)]
    counts = []
    for inst in insts:
        trips = critical_directions(inst, n_dirs=32,
                                    rng=np.random.default_rng(0))
        Fp, Gp = inst.F_plus(), inst.G_plus()
        TH = tangent_cone(inst.H.graph,
                          np.concatenate([inst.xbar, np.zeros(inst.r)]))
        TV = tangent_cone(Fp.graph, np.concatenate([inst.xbar, inst.ybar]))
        TK = tangent_cone(Gp.graph, np.concatenate([inst.xbar, inst.zbar]))
        big = optcond.cone_hull_shifted(inst.D, inst.zbar)
        for trip in trips:
            # re-verify every membership from scratch, on the graphs'
            # tangent cones, at 1e-9
            assert TH.contains(np.concatenate([trip.u, np.zeros(inst.r)]))
            assert TV.contains(np.concatenate([trip.u, trip.v]))
            assert inst.Q.contains(-trip.v)
            # -v lies on a facet of Q
            assert (np.abs(inst.Q.A @ -trip.v - inst.Q.b) <= 1e-9).any()
            assert TK.contains(np.concatenate([trip.u, trip.k]))
            assert big.contains(-trip.k)
        counts.append(len(trips))
    assert all(counts), counts


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
