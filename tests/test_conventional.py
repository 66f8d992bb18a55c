"""Plain-mapping regularity: three-way equivalence, decrease, best modulus."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from regkit import conventional
from regkit.moduli import FunctionalModulus
from regkit.policy import DEFAULT_POLICY, INF
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
    for mu in (FunctionalModulus.linear(0.2), FunctionalModulus.linear(10.0),
               helpers.random_mu(rng)):
        v = conventional.check_openness(conventional.RegularityQuery(F, W, mu))
        assert (v.holds, v.counterexample, v.lhs, v.rhs) == \
            _openness_brute_force(F, W, mu)


def test_decrease_certifies_plain_chains():
    for seed in range(20):
        pc = helpers.make_plain_chain(seed)
        mu = FunctionalModulus.linear(pc.kappa)
        cert = conventional.certify_T64(pc.F, pc.x, pc.y, mu)
        assert cert.sound, (seed, cert.witness)
        assert cert.target == pytest.approx(pc.etas[0])
        # and the hypothesis conclusion holds across the whole chain
        q = conventional.RegularityQuery(pc.F, pc.W, mu)
        assert conventional.check_metric_regularity(q).holds


def test_decrease_hypothesis_fails_without_partner():
    pc = helpers.make_plain_chain(1)
    # shrink mu so no admissible point can pay for its step
    mu = FunctionalModulus.linear(0.01)
    cert = conventional.certify_T64(pc.F, pc.x, pc.y, mu)
    # either nothing is admissible (hypothesis vacuously true and the
    # conclusion false) or a witness without partner is reported
    if cert.hypothesis_holds:
        assert not cert.confirmed
    else:
        assert cert.witness is not None


def test_decrease_requires_finite_start_distance():
    pc = helpers.make_plain_chain(2)
    from regkit.svmap import PlainSetValuedMap
    F2 = PlainSetValuedMap(pc.F.X, pc.F.Y,
                           {(a, b) for (a, b) in pc.F.graph if a != pc.x})
    with pytest.raises(ValueError, match="empty"):
        conventional.certify_T64(F2, pc.x, pc.y,
                                 FunctionalModulus.linear(1.0))


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
