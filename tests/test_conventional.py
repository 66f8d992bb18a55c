"""Plain-mapping regularity: three-way equivalence, decrease, best modulus."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from regkit import certifiers, conventional
from regkit.moduli import FunctionalModulus, ModulusError
from regkit.policy import DEFAULT_POLICY, INF, NumericPolicy
from regkit.svmap import TLadder, embed_plain


def test_three_properties_agree_on_random_queries():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        F = helpers.random_plain_map(rng, nx_max=15, ny_max=15)
        W = helpers.random_W(rng, F)
        mu = helpers.random_mu(rng, strictly_increasing=True)
        q = conventional.RegularityQuery(F, W, mu)
        audit = conventional.equivalence_audit_T61(q)
        assert audit.agree, (seed, audit.metric_regular, audit.open_,
                             audit.holder)


def test_counterexamples_are_concrete():
    seen_fail = False
    for seed in range(40):
        rng = np.random.default_rng(seed)
        F = helpers.random_plain_map(rng, nx_max=12, ny_max=12)
        W = helpers.random_W(rng, F)
        mu = FunctionalModulus.linear(0.2)    # deliberately tight
        q = conventional.RegularityQuery(F, W, mu)
        v = conventional.check_metric_regularity(q)
        if not v.holds:
            seen_fail = True
            x, y = v.counterexample
            assert F.dist_to_preimage(x, y) > mu(F.dist_to_image(y, x))
    assert seen_fail


def _openness_brute_force(F, W, mu):
    """(holds, counterexample, lhs, rhs): every candidate radius, ascending,
    with y in F(B(x, t)) decided from the graph."""
    diam = F.X.diameter()
    for (x, y) in W:
        dist = F.dist_to_image(y, x)
        if dist == INF:
            continue
        md = mu(dist)
        row = F.X.dist_row(x)
        cands = set(float(v) for v in row) | {md + diam + 1.0}
        for t in sorted(c for c in cands if DEFAULT_POLICY.lt(md, c)):
            if not any(row[xp] < t for xp in range(F.X.n)
                       if (xp, y) in F.graph):
                return False, (x, y), F.dist_to_preimage(x, y), t
    return True, None, 0.0, 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_openness_matches_every_radius(seed):
    # a tight, a loose and a random modulus: failing and passing verdicts
    rng = np.random.default_rng(seed)
    F = helpers.random_plain_map(rng, nx_max=12, ny_max=12)
    # a short W, so that about a quarter of the verdicts pass
    W = helpers.random_W(rng, F, count=6)
    # above every distance, so md + diam + 1 decides; and +inf, so nothing does
    for mu in (FunctionalModulus.linear(0.2), FunctionalModulus.linear(10.0),
               helpers.random_mu(rng), lambda t: 1e3, lambda t: INF):
        for block in (1 << 20, 9):      # 9: one pair a block
            with mock.patch.object(conventional, "_BLOCK", block):
                v = conventional.check_openness(conventional.RegularityQuery(F, W, mu))
            assert (v.holds, v.counterexample, v.lhs, v.rhs) == \
                _openness_brute_force(F, W, mu)


def test_decrease_certifies_plain_chains():
    for seed in range(20):
        pc = helpers.make_plain_chain(seed)
        mu = FunctionalModulus.linear(pc.kappa)
        cert = certifiers.certify_T64(pc.F, pc.x, pc.y, mu)
        assert cert.sound, (seed, cert.hypotheses[0].witness)
        assert cert.target == pytest.approx(pc.etas[0])
        # and the hypothesis conclusion holds across the whole chain
        q = conventional.RegularityQuery(pc.F, pc.W, mu)
        assert conventional.check_metric_regularity(q).holds


def test_decrease_hypothesis_fails_without_partner():
    pc = helpers.make_plain_chain(1)
    # shrink mu so no admissible point can pay for its step
    mu = FunctionalModulus.linear(0.01)
    cert = certifiers.certify_T64(pc.F, pc.x, pc.y, mu)
    # either nothing is admissible (hypothesis vacuously true and the
    # conclusion false) or a witness without partner is reported
    if cert.hypotheses_pass:
        assert not cert.confirmed
    else:
        assert cert.hypotheses[0].witness is not None


def test_decrease_requires_finite_start_distance():
    pc = helpers.make_plain_chain(2)
    from regkit.svmap import PlainSetValuedMap
    F2 = PlainSetValuedMap(pc.F.X, pc.F.Y,
                           {(a, b) for (a, b) in pc.F.graph if a != pc.x})
    with pytest.raises(ValueError, match="empty"):
        certifiers.certify_T64(F2, pc.x, pc.y, FunctionalModulus.linear(1.0))


# -- best-modulus estimation -------------------------------------------------

def test_lam_star_matches_brute_force():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        F = helpers.random_plain_map(rng, nx_max=12, ny_max=12,
                                     allow_empty=False)
        W = helpers.random_W(rng, F)
        fit = conventional.estimate_best_modulus(F, W)
        ratios = []
        for (x, y) in W:
            t = F.dist_to_image(y, x)
            lhs = F.dist_to_preimage(x, y)
            if t == INF or t <= 1e-12:
                continue
            ratios.append(lhs / t)
        if ratios:
            assert fit.lam_star == pytest.approx(max(ratios))


def test_lam_star_infinite_when_no_power_modulus_works():
    from regkit.metric import FiniteMetricSpace
    from regkit.svmap import PlainSetValuedMap
    X = FiniteMetricSpace.from_grid([0.0, 1.0])
    Y = FiniteMetricSpace.from_grid([0.0])
    F = PlainSetValuedMap(X, Y, {(1, 0)})
    # (x=0, y=0): d(y, F(0)) undefined -> skipped; force the zero-distance
    # trap with x=0 mapping to y but y's preimage far away is impossible on
    # exact data, so emulate it through a matrix space with a zero distance
    M = np.array([[0.0, 0.0], [0.0, 0.0]])
    Xz = FiniteMetricSpace(metric="matrix", dmatrix=np.array(
        [[0.0, 1.0], [1.0, 0.0]]))
    Yz = FiniteMetricSpace(metric="matrix", dmatrix=M[:2, :2])
    Fz = PlainSetValuedMap(Xz, Yz, {(0, 0), (1, 1)})
    fit = conventional.estimate_best_modulus(Fz, [(0, 1)])
    assert fit.lam_star == INF
    assert not conventional.modulus_is_tight(Fz, [(0, 1)], fit)


def test_tightness_at_the_argmax_pair():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        F = helpers.random_plain_map(rng, nx_max=12, ny_max=12,
                                     allow_empty=False)
        W = helpers.random_W(rng, F)
        fit = conventional.estimate_best_modulus(F, W)
        if fit.lam_star in (0.0, INF):
            continue
        assert conventional.modulus_is_tight(F, W, fit), seed


def test_generated_bilipschitz_lam_below_construction():
    from regkit.instances import generate_instance, parse_instance
    for seed in range(10):
        inst = parse_instance(generate_instance("plain-lipschitz", 20, seed))
        fit = conventional.estimate_best_modulus(inst.plain, inst.W)
        assert fit.lam_star <= inst.meta["kappa_true"] + 1e-9


def test_param_bridge_matches_embed():
    pc = helpers.make_plain_chain(3)
    lad = TLadder(np.linspace(0.0, pc.F.Y.diameter() + 1.0, 9))
    P = embed_plain(pc.F, lad)
    assert set(P.fibre(pc.H, 0).tolist()) == {0}


# -- gathered audits against the per-pair reference ---------------------------

def _space(rng, n):
    """n points on a quarter grid (duplicates allowed): a euclidean space,
    or a matrix space whose off-diagonal entries move by up to 1e-10 each,
    so it is asymmetric (and may dip below 0) within triangle_tol."""
    from regkit.metric import FiniteMetricSpace
    pts = rng.integers(0, 13, size=n) / 4.0
    if rng.random() < 0.5:
        return FiniteMetricSpace.from_grid(pts)
    m = np.abs(pts[:, None] - pts[None, :]) + rng.uniform(-1e-10, 1e-10, (n, n))
    np.fill_diagonal(m, 0.0)
    return FiniteMetricSpace(metric="matrix", dmatrix=m)


@st.composite
def plain_queries(draw):
    """A random plain map with empty images and preimages, a W of 0-12
    pairs with repeats, a modulus of each kind or a bare callable, and a
    tolerance up to one grid step, so distances tie with mu within it."""
    from regkit.svmap import PlainSetValuedMap
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    nx, ny = rng.integers(1, 8, size=2)
    graph = np.argwhere(rng.random((nx, ny)) < rng.choice([0.15, 0.3, 0.6]))
    F = PlainSetValuedMap(_space(rng, nx), _space(rng, ny), set(map(tuple, graph.tolist())))
    n = int(rng.integers(0, 13))
    W = list(zip(rng.integers(0, nx, n).tolist(), rng.integers(0, ny, n).tolist()))
    q = st.integers(1, 8).map(lambda k: k / 8.0)
    mu = draw(st.one_of(
        q.map(FunctionalModulus.linear),
        st.builds(FunctionalModulus.power, q, st.sampled_from([0.4, 0.5, 1.0])),
        st.builds(lambda ts, vs, interp: FunctionalModulus.table(
            list(zip(sorted(ts), sorted(vs))), interp=interp),
            st.sets(q, min_size=3, max_size=3), st.lists(q, min_size=3, max_size=3),
            st.sampled_from(["step", "linear"])),
        q.map(lambda c: lambda t: c * t)))         # a bare callable
    tol = draw(st.sampled_from([0.0, 1e-12, 1e-3, 0.25]))
    return F, W, mu, NumericPolicy(tol_strict=tol)


def _outcome(f, *args):
    try:
        return f(*args)
    except ModulusError as e:                      # mu at a distance below 0
        return "raises", str(e)


@settings(max_examples=200, deadline=None)
@given(plain_queries(), st.sampled_from([1.0, 0.5]), st.sampled_from([1 << 20, 9]))
def test_gathered_audits_match_the_per_pair_reference(query, k, block):
    F, W, mu, pol = query
    q = conventional.RegularityQuery(F, W, mu)     # one query: one gather
    with mock.patch.object(conventional, "_BLOCK", block):  # 9: 1-9 pairs a block
        for check, ref in ((conventional.check_metric_regularity, helpers.ref_metric_regularity),
                           (conventional.check_openness, helpers.ref_openness),
                           (conventional.check_holder_inverse, helpers.ref_holder_inverse)):
            v = _outcome(check, q, pol)
            got = v if isinstance(v, tuple) else (v.holds, v.counterexample, v.lhs, v.rhs)
            assert got == _outcome(ref, F, W, mu, pol), check.__name__
        fit = conventional.estimate_best_modulus(F, W, k, pol)
    assert (fit.k, fit.lam_star, fit.achieved_at, fit.n_pairs) == \
        helpers.ref_best_modulus(F, W, k, pol)


def test_a_pair_outside_the_spaces_is_a_point_index_error():
    from regkit.metric import PointIndexError
    F = helpers.random_plain_map(np.random.default_rng(0), nx_max=5, ny_max=5)
    for W in ([(0, 0), (F.X.n, 0)], [(0, -1)]):
        with pytest.raises(PointIndexError):
            conventional.check_openness(
                conventional.RegularityQuery(F, W, FunctionalModulus.linear(1.0)))
