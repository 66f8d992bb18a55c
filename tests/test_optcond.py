"""Second-order optimality machinery on polyhedral problem data."""
import numpy as np
import pytest

from regkit import optcond
from regkit.instances import demo_polyopt_raw, generate_instance, parse_instance
from regkit.optcond import (BallExtension, CriticalTriple, Multipliers,
                            OptError, PolyMapSpec, a2_of_minus_D,
                            check_claim2, check_cq, check_multiplier_rule,
                            critical_directions, exact_rule_margin,
                            find_multipliers, second_order_graph_derivative)
from regkit.linsolve import solve_lp
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
    fam = optcond._slice_family(E.graph, 1, np.ones(1))
    assert optcond._min_support(fam, V)[0] == np.inf
    fam0 = optcond._slice_family(E.graph, 1, np.zeros(1))
    assert optcond._sample_points(V, fam0, np.random.default_rng(0)).shape \
        == (0, 1)


@pytest.mark.parametrize("size,seed", [(0, 0), (3, 0), (3, 1)])
def test_slice_families_match_one_member_solves(size, seed):
    # size 0 is the demo; every slice of a triple's derivative cones is a
    # member of one family, solved warm, and must equal a fresh solve
    inst = parse_instance(demo_polyopt_raw() if size == 0 else
                          generate_instance("polyhedral-opt", size, seed)).opt
    rng = np.random.default_rng(seed)
    members = 0
    for trip in critical_directions(inst, n_dirs=16, rng=rng):
        sets = optcond._triple_sets(inst, trip, 1e-9)
        cs = [rng.normal(size=d) for d in (inst.p, inst.q, inst.r)]
        for obj in (cs, [np.zeros_like(c) for c in cs]):
            families = sets.families(inst.n, obj)
            for x in sample_cone_points(sets.S2.IT2, 16, rng):
                for fam, c, P in zip(families, obj, sets.slices(x)):
                    if P is None:
                        continue
                    res, ref = fam.solve(P.b), solve_lp(c, P.A, P.b)
                    assert res.status == ref.status
                    if ref.status == 0:
                        assert res.fun == pytest.approx(ref.fun, rel=1e-9,
                                                        abs=1e-9)
                        assert P.contains(res.x, 1e-6)
                    members += 1
    assert members > 0


def test_off_graph_base_rejected():
    inst = _demo()
    with pytest.raises(OptError, match="off the graph"):
        second_order_graph_derivative(inst.F, inst.xbar, inst.ybar + 3.0,
                                      np.array([1.0, 0.0]), np.array([0.0]),
                                      np.zeros(2))


def test_critical_directions_verified_on_demo():
    inst = _demo()
    trips = critical_directions(inst, n_dirs=32,
                                rng=np.random.default_rng(0))
    assert trips
    Fp, Gp = inst.F_plus(), inst.G_plus()
    TH = tangent_cone(inst.H.graph,
                      np.concatenate([inst.xbar, np.zeros(inst.r)]))
    TV = tangent_cone(Fp.graph, np.concatenate([inst.xbar, inst.ybar]))
    TK = tangent_cone(Gp.graph, np.concatenate([inst.xbar, inst.zbar]))
    big = optcond.cone_hull_shifted(inst.D, inst.zbar)
    for trip in trips:
        # re-verify every membership from scratch, on the graphs' tangent cones
        assert TH.contains(np.concatenate([trip.u, np.zeros(inst.r)]))
        assert TV.contains(np.concatenate([trip.u, trip.v]))
        assert inst.Q.contains(-trip.v)
        assert TK.contains(np.concatenate([trip.u, trip.k]))
        assert big.contains(-trip.k)


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
