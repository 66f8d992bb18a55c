"""Polyhedral cone calculus against containment and sampled-limit oracles."""
import numpy as np
import pytest

from regkit.linsolve import in_cone_of
from regkit.polyhedra import (Polyhedron, PolyhedronError, cone_hull_shifted,
                              fourier_motzkin, minkowski_sum,
                              normal_cone_generators, sample_cone_points,
                              sample_directions,
                              sampled_second_order_membership,
                              sampled_tangent_membership, second_order_sets,
                              tangent_cone)


def _random_poly(seed, dim=None):
    rng = np.random.default_rng(seed)
    n = dim or int(rng.integers(2, 5))
    m = int(rng.integers(n, 2 * n + 3))
    A = rng.normal(size=(m, n))
    interior = rng.normal(size=n) * 0.5
    b = A @ interior + rng.uniform(0.1, 1.0, size=m)
    return Polyhedron(A, b), rng


def _boundary_point(P, rng):
    """Walk from an interior point to the boundary along a random ray."""
    x0 = P.interior_point()
    d = rng.normal(size=P.dim)
    Ad = P.A @ d
    slack = P.b - P.A @ x0
    steps = slack[Ad > 1e-12] / Ad[Ad > 1e-12]
    if steps.size == 0:
        return None
    return x0 + steps.min() * d


def test_construction_normalizes_and_validates():
    P = Polyhedron(np.array([[2.0, 0.0]]), np.array([4.0]))
    assert np.linalg.norm(P.A[0]) == pytest.approx(1.0)
    assert P.b[0] == pytest.approx(2.0)
    with pytest.raises(PolyhedronError, match="mismatch"):
        Polyhedron(np.eye(2), np.ones(3))
    with pytest.raises(PolyhedronError, match="empty system"):
        Polyhedron(np.zeros((1, 2)), np.array([-1.0]))
    # vacuous zero rows are dropped
    Q = Polyhedron(np.zeros((1, 2)), np.array([1.0]))
    assert Q.m == 0 and Q.contains([100.0, -100.0])


def test_linf_distance_properties():
    box = Polyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
    assert box.linf_distance([0.3, -0.2]) == pytest.approx(0.0)
    assert box.linf_distance([3.0, 0.0]) == pytest.approx(2.0)
    assert box.linf_distance([2.0, -2.0]) == pytest.approx(1.0)
    empty = Polyhedron(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                       np.array([-1.0, -1.0]))
    assert empty.linf_distance([0.0, 0.0]) == np.inf


def test_tangent_cone_matches_containment_oracle():
    """d in T(P, x) iff x + gamma d stays in P for small gamma (exact for
    polyhedra)."""
    for seed in range(10):
        P, rng = _random_poly(seed)
        x = _boundary_point(P, rng)
        if x is None:
            continue
        T = tangent_cone(P, x)
        dirs = sample_directions(P.dim, 50, rng)
        for d in dirs:
            gamma = 1e-7
            direct = P.contains(x + gamma * d, tol=1e-9 * gamma)
            # skip tol-boundary directions where the two tests legitimately
            # resolve ties differently
            margin = np.abs(T.A @ d).min(initial=np.inf)
            if margin < 1e-6:
                continue
            assert T.contains(d) == direct, (seed, d)


def test_tangent_cone_interior_point_is_whole_space():
    P, rng = _random_poly(3)
    x0 = P.interior_point()
    T = tangent_cone(P, x0)
    assert T.m == 0


def test_tangent_cone_requires_membership():
    P, _ = _random_poly(1)
    far = np.full(P.dim, 1e6)
    with pytest.raises(PolyhedronError, match="outside"):
        tangent_cone(P, far)


def test_interior_tangent_cone_strictness():
    P = Polyhedron.orthant(2)
    x = np.array([0.0, 0.0])
    IT = second_order_sets(P, x, np.zeros(2)).IT2     # at u = 0: the strict T(P, x)
    assert IT.contains([1.0, 1.0])
    assert not IT.contains([1.0, 0.0])      # on a face: not in the interior
    assert tangent_cone(P, x).contains([1.0, 0.0])


def test_second_order_identity_and_oracle():
    for seed in range(8):
        P, rng = _random_poly(seed)
        x = _boundary_point(P, rng)
        if x is None:
            continue
        T = tangent_cone(P, x)
        u = sample_cone_points(T, 1, rng)
        if u.shape[0] == 0:
            continue
        so = second_order_sets(P, x, u[0])
        # polyhedral identity: the two second-order sets coincide
        assert np.allclose(so.T2.A, so.A2.A) and np.allclose(so.T2.b, so.A2.b)
        assert so.IT2.strict
        w = rng.normal(size=P.dim)
        samp = sampled_second_order_membership(P, x, u[0], w)
        margin = np.abs(so.T2.A @ w).min(initial=np.inf)
        if margin >= 1e-5:
            assert so.T2.contains(w) == samp.member, seed


def test_sampled_tangent_oracle_on_known_cone():
    P = Polyhedron.orthant(3)
    x = np.zeros(3)
    assert sampled_tangent_membership(P, x, np.array([1.0, 2.0, 0.5])).member
    assert not sampled_tangent_membership(P, x, np.array([1.0, -1.0, 0.0])).member


def test_normal_cone_polarity():
    for seed in range(10):
        P, rng = _random_poly(seed)
        x = _boundary_point(P, rng)
        if x is None:
            continue
        N = normal_cone_generators(P, x)
        T = tangent_cone(P, x)
        pts = sample_cone_points(T, 30, rng)
        assert (pts @ N.T).max(initial=-np.inf) <= 1e-9    # N is polar to T
        # each generator is itself in the normal cone; its negation only
        # if the cone is a subspace slice
        for row in N:
            assert in_cone_of(N, row)


def test_in_normal_cone_at_interior_is_origin_only():
    P, rng = _random_poly(5)
    x0 = P.interior_point()
    N = normal_cone_generators(P, x0)
    assert in_cone_of(N, np.zeros(P.dim))
    assert not in_cone_of(N, np.ones(P.dim))


def test_fourier_motzkin_projection():
    # shadow of the 3-cube on its first two coordinates is the 2-cube
    cube = Polyhedron(np.vstack([np.eye(3), -np.eye(3)]), np.ones(6))
    sh = Polyhedron(*fourier_motzkin(cube.A, cube.b, [2]))
    for _ in range(50):
        p = np.random.default_rng(0).uniform(-1.5, 1.5, size=2)
        inside = (np.abs(p) <= 1.0 + 1e-9).all()
        assert sh.contains(p) == inside or np.abs(np.abs(p) - 1.0).min() < 1e-8


def test_projection_matches_lp_oracle():
    for seed in range(8):
        P, rng = _random_poly(seed, dim=3)
        sh = Polyhedron(*fourier_motzkin(P.A, P.b, [2]))
        for _ in range(20):
            p = rng.uniform(-2.0, 2.0, size=2)
            # p is in the shadow iff some z completes it inside P
            from regkit.linsolve import feasible_point
            A = P.A
            lifted = feasible_point(1, A_ub=A[:, 2:3],
                                    b_ub=P.b - A[:, :2] @ p)
            if abs(sh.linf_distance(p)) < 1e-7 and not lifted.feasible:
                continue          # tol-boundary tie
            assert sh.contains(p, tol=1e-7) == lifted.feasible, seed


def test_minkowski_sum_of_boxes():
    box = Polyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
    small = Polyhedron(np.vstack([np.eye(2), -np.eye(2)]), 0.5 * np.ones(4))
    S = minkowski_sum(box, small)
    assert S.contains([1.5, -1.5]) and not S.contains([1.6, 0.0])


def test_cone_hull_shifted():
    # D = R- x {0} shifted by zbar = (1, 1): hull contains D and the ray
    D = Polyhedron(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                   np.zeros(3))
    z = np.array([1.0, 1.0])
    H = cone_hull_shifted(D, z)
    assert H.contains([-3.0, 0.0])
    assert H.contains(2.0 * z)
    assert H.contains([-1.0, 0.5])          # d + t z combinations
    assert not H.contains([0.0, -1.0])


def test_sample_cone_points_stay_inside():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        C = tangent_cone(Polyhedron.orthant(3), np.zeros(3))
        pts = sample_cone_points(C, 20, rng)
        for p in pts:
            assert C.contains(p, tol=1e-8)


def test_sample_directions_unit_norm():
    rng = np.random.default_rng(0)
    d = sample_directions(4, 100, rng)
    assert np.allclose(np.linalg.norm(d, axis=1), 1.0)
