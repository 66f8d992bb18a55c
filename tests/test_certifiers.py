"""Sufficient criteria as certificates: soundness and negative controls."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from regkit import certifiers
from regkit.induction import (LevelMap, PreconditionError, Seq, SequenceSpec,
                              verify_preconditions)
from regkit.metric import FiniteMetricSpace
from regkit.moduli import (AuxScheme, FunctionalModulus, ModulusError,
                           canonical_mu)
from regkit.policy import DEFAULT_POLICY, INF
from regkit.svmap import ParamSetValuedMap, TLadder


# -- positive family: every criterion certifies the chain instances ---------

@pytest.mark.parametrize("seed", range(12))
def test_chain_certifies_under_all_criteria(seed):
    ci = helpers.make_chain(seed)
    seq = certifiers.certify_khanh_plus(ci.F, ci.x, ci.t, ci.y, ci.scheme_seq)
    orb = certifiers.certify_khanh4_plus(ci.F, ci.x, ci.t, ci.y,
                                         ci.scheme_orbit)
    img = certifiers.certify_image_space(ci.F, ci.x, ci.t, ci.y,
                                         ci.scheme_orbit)
    dec = certifiers.certify_decrease(ci.F, ci.x, ci.t, ci.y, ci.mu)
    for cert in (seq, orb, img, dec):
        assert cert.sound, (cert.criterion,
                            [(h.name, h.detail) for h in cert.hypotheses
                             if not h.passed])
        # the reported target matches a raw recomputation
        assert cert.target == pytest.approx(helpers.chain_dist_level0(ci))
    assert seq.bound == pytest.approx(ci.seq_bound)
    assert dec.bound == pytest.approx(ci.mu(ci.t))
    assert not dec.strict and orb.strict


def test_canonical_mu_note_and_explicit_mu_agree():
    ci = helpers.make_chain(0)
    auto = certifiers.certify_khanh4_plus(ci.F, ci.x, ci.t, ci.y,
                                          ci.scheme_orbit)
    assert any("canonical" in n for n in auto.notes)
    explicit = certifiers.certify_khanh4_plus(
        ci.F, ci.x, ci.t, ci.y, ci.scheme_orbit,
        mu=lambda s: canonical_mu(ci.scheme_orbit, s, 64))
    assert explicit.sound and not any("canonical" in n for n in explicit.notes)
    assert auto.bound == pytest.approx(explicit.bound)


# -- negative controls -------------------------------------------------------

def test_off_graph_start_is_rejected():
    ci = next(helpers.make_chain(s) for s in range(20)
              if helpers.make_chain(s).F.X.n > helpers.make_chain(s).H + 2)
    decoy = ci.F.X.n - 1                      # decoys are never on the graph
    with pytest.raises(PreconditionError, match="not on the graph"):
        certifiers.certify_khanh4_plus(ci.F, decoy, ci.t, ci.y,
                                       ci.scheme_orbit)
    with pytest.raises(PreconditionError, match="t > 0"):
        certifiers.certify_khanh4_plus(ci.F, ci.x, 0.0, ci.y, ci.scheme_orbit)


def test_step_violation_fails_hypotheses_only():
    """Stretch one chain step past m(tau): hypotheses fail, confirmation
    still reflects the true distance (which remains within the bound)."""
    ci = helpers.make_chain(2)
    coords = ci.F.X.coords.copy().ravel()
    coords[1] = coords[0] + 1.2 * ci.taus[0]   # step 0 now exceeds m(tau_0)
    for m in range(2, ci.H + 2):
        coords[m] += 0.3 * ci.taus[0]
    X2 = FiniteMetricSpace(metric="euclidean", coords=coords)
    F2 = ParamSetValuedMap(X2, ci.F.Y, ci.F.ladder, graph=ci.F.graph,
                           monotone=True)
    cert = certifiers.certify_khanh4_plus(F2, ci.x, ci.t, ci.y,
                                          ci.scheme_orbit)
    assert not cert.hypotheses_pass
    failed = [h.name for h in cert.hypotheses if not h.passed]
    assert "net+++" in failed


def test_missing_zero_fibre_breaks_osc_and_confirmation():
    ci = helpers.make_chain(4)
    graph = {(a, lev, b) for (a, lev, b) in ci.F.graph
             if not (lev == 0 and b == ci.y)}
    F2 = ParamSetValuedMap(ci.F.X, ci.F.Y, ci.F.ladder, graph=graph)
    cert = certifiers.certify_khanh4_plus(F2, ci.x, ci.t, ci.y,
                                          ci.scheme_orbit)
    assert not cert.sound
    assert cert.target == INF and not cert.confirmed


def test_sequence_criterion_validates_inputs():
    ci = helpers.make_chain(5)
    with pytest.raises(PreconditionError, match="explicit"):
        certifiers.certify_khanh_plus(ci.F, ci.x, ci.t, ci.y, AuxScheme())
    # c_n not reaching zero: B3's sequential form fails
    sch = AuxScheme(m=FunctionalModulus.linear(1.0),
                    b_seq=ci.scheme_seq.b_seq,
                    c_seq=tuple(ci.taus[1:]))      # no trailing 0
    cert = certifiers.certify_khanh_plus(ci.F, ci.x, ci.t, ci.y, sch)
    assert not cert.hypotheses_pass
    assert any(h.name == "B3" and not h.passed for h in cert.hypotheses)


def test_decrease_needs_continuous_mu():
    ci = helpers.make_chain(6)
    step_mu = FunctionalModulus.table([(0.0, 0.0), (1.0, 1.0)], interp="step")
    with pytest.raises(ModulusError):
        certifiers.certify_decrease(ci.F, ci.x, ci.t, ci.y, step_mu)


def test_decrease_detects_missing_partner():
    """Remove the twin: the terminal fibre point has no distinct partner."""
    ci = helpers.make_chain(7)
    graph = {(a, lev, b) for (a, lev, b) in ci.F.graph if a != ci.H + 1}
    F2 = ParamSetValuedMap(ci.F.X, ci.F.Y, ci.F.ladder, graph=graph,
                           monotone=True)
    cert = certifiers.certify_decrease(F2, ci.x, ci.t, ci.y, ci.mu)
    assert not cert.hypotheses_pass
    assert cert.hypotheses[0].witness[0] == ci.H
    # the conclusion itself is still true on this instance
    assert cert.confirmed


def test_image_space_set1_violation():
    """An extra level-0 point inside the Y-ball but outside the fibre."""
    ci = helpers.make_chain(8)
    extra = ci.H + 2 if ci.F.X.n > ci.H + 2 else None
    if extra is None:
        pytest.skip("instance drew no decoy point")
    graph = set(map(tuple, ci.F.graph.tolist())) | {(extra, 0, ci.y)}
    F2 = ParamSetValuedMap(ci.F.X, ci.F.Y, ci.F.ladder, graph=graph,
                           monotone=True)
    cert = certifiers.certify_image_space(F2, ci.x, ci.t, ci.y,
                                          ci.scheme_orbit)
    assert any(h.name == "set1" and not h.passed for h in cert.hypotheses)


def _random_starts(seed: int, twins: bool = False):
    """(F, x, t, y, scheme) over the positive-level graph points of a random
    param map; with twins, point 1 sits on point 0 (distance 0)."""
    rng = np.random.default_rng(seed)
    F, _ = helpers.random_param_map(rng)
    if twins:
        coords = F.X.coords.copy()
        coords[1] = coords[0]
        F = ParamSetValuedMap(FiniteMetricSpace(metric="euclidean", coords=coords),
                              F.Y, F.ladder, graph=F.graph, monotone=True)
    trip = F.graph[F.graph[:, 1] > 0].tolist()  # sorted (x, t, y) rows
    for j in rng.choice(len(trip), size=min(4, len(trip)), replace=False):
        x, k, y = trip[int(j)]
        t = float(F.ladder.levels[k])
        yield F, x, t, y, helpers.random_linear_scheme(rng, t)


def _image_space_by_sets(F, x, t, y, scheme, policy=DEFAULT_POLICY):
    """The (set1) and (set2 + derived step) witnesses of the image-space
    criterion re-derived from fibres and distance rows with Python sets:
    F_0^{-1}(B(y, tau)) and F_0(B(u, m)) are unions of level-0 fibres.
    Also counts the u that pass (set2)."""
    tol, H = policy.tol_strict, policy.horizon
    yrow = F.Y.dist_row(y)

    def inv0_of_ball(tau):
        ball = {j for j in range(F.Y.n) if yrow[j] < tau - tol}
        return {z for z in range(F.X.n) if ball & set(F.fibre(z, 0).tolist())}

    def img0_of_ball(u, m):
        row = F.X.dist_row(u)
        zs = [u] if m == 0 else [z for z in range(F.X.n) if row[z] < m - tol]
        return set().union(*(F.fibre(z, 0).tolist() for z in zs))

    set1 = step = None
    n_set2 = 0
    orbit = scheme.orbit(t, H, tol)
    mu_t = canonical_mu(scheme, t, H, tol)
    for n, (tau, nxt) in enumerate(zip(orbit, orbit[1:])):
        if tau <= tol:
            break
        lev, lev_next = F.ladder.snap_up(tau, tol), F.ladder.snap_up(nxt, tol)
        for s, k in ((tau, lev), (nxt, lev_next)):
            if set1 is None and s > tol:
                extra = inv0_of_ball(s) - set(F.inverse_at_level_idx(k, y).tolist())
                set1 = (s, min(extra)) if extra else None
        radius = 0.0 if n == 0 else mu_t - canonical_mu(scheme, tau, H, tol)
        rowx = F.X.dist_row(x)
        m, b = scheme.m(tau), scheme.b(tau)
        for u in F.inverse_at_level_idx(lev, y).tolist():
            if not (u == x if radius <= 0 else rowx[u] < radius - tol):
                continue
            dy = min((yrow[j] for j in img0_of_ball(u, m)), default=INF)
            du = min((F.X.d(u, v) for v in F.inverse_at_level_idx(lev_next, y).tolist()),
                     default=INF)
            if dy > tol and not policy.lt(dy, b):
                step = (n, u)
                break
            n_set2 += 1
            if set1 is None and du > tol and not policy.lt(du, m):
                step = (n, u)
                break
        if step is not None or lev_next == 0:
            break
    return set1, step, n_set2


@pytest.mark.parametrize("seed", range(30))
def test_image_space_matches_set_derivation(seed):
    """(set1) and (set2+derived-step) verdicts and witnesses agree with the
    set derivation, on maps with empty level-0 fibres and twin points."""
    for F, x, t, y, scheme in _random_starts(seed, twins=seed % 2 == 1):
        cert = certifiers.certify_image_space(F, x, t, y, scheme)
        hyp = {h.name: h for h in cert.hypotheses}
        assert hyp["mutau+"].passed
        set1, step, n_set2 = _image_space_by_sets(F, x, t, y, scheme)
        assert (hyp["set1"].passed, hyp["set1"].witness) == (set1 is None, set1)
        assert (hyp["set2+derived-step"].passed,
                hyp["set2+derived-step"].witness) == (step is None, step)
        assert f"{n_set2} intermediate z-witnesses logged" in cert.notes


@pytest.mark.parametrize("criterion", ["B4+/B5+", "net+++", "A3"])
def test_failing_step_witnesses_are_genuine(criterion):
    """Each failing step witness (n, u) lies in step n's region, and its
    d(u, next fibre) breaks the bound under that caller's rule."""
    tol = DEFAULT_POLICY.tol_strict
    failures = 0
    for seed in range(40):
        for F, x, t, y, scheme in _random_starts(seed):
            if criterion == "B4+/B5+":
                cert = certifiers.certify_khanh_plus(F, x, t, y, scheme)
                levels = [F.ladder.index_of(t, tol)] + [F.ladder.snap_up(scheme.m(c), tol)
                                    for c in scheme.c_seq]
                bounds = list(scheme.b_seq)
                radii = np.cumsum([0.0] + bounds)
            elif criterion == "net+++":
                cert = certifiers.certify_khanh4_plus(F, x, t, y, scheme)
                orbit = scheme.orbit(t, DEFAULT_POLICY.horizon, tol)
                levels = [F.ladder.snap_up(tau, tol) for tau in orbit]
                bounds = [scheme.m(tau) for tau in orbit]
                mu = [canonical_mu(scheme, tau, DEFAULT_POLICY.horizon, tol)
                      for tau in orbit]
                radii = [mu[0] - v for v in mu]
            else:
                phi = LevelMap.from_param_map(F, y)
                seqs = SequenceSpec(a=Seq.geometric(t, scheme.b(1.0)),
                                    b=Seq.explicit(scheme.b_seq))
                pre = verify_preconditions(phi, t, x, seqs)
                wit = pre.witness
                levels = [F.ladder.snap_up(seqs.a.value(n), tol)
                          for n in range(seqs.horizon + 1)]
                bounds = [seqs.b.value(n) for n in range(seqs.horizon)]
                radii = [seqs.b_partial(n) for n in range(seqs.horizon)]
            if criterion != "A3":
                failed = [h for h in cert.hypotheses if h.name == criterion
                          and not h.passed and h.witness is not None]
                wit = failed[0].witness if failed else None
            if wit is None:
                continue
            failures += 1
            n, u = wit
            assert u in F.inverse_at_level_idx(levels[n], y).tolist()
            assert u == x if n == 0 else F.X.d(x, u) < radii[n] - tol
            nxt = F.inverse_at_level_idx(levels[n + 1], y).tolist()
            du = min((F.X.d(u, v) for v in nxt), default=INF)
            assert not DEFAULT_POLICY.lt(du, bounds[n])
            if criterion != "A3":     # the certifiers accept an exact hit
                assert du > tol
    assert failures >= 10, failures


# -- free-t wrappers ---------------------------------------------------------

def test_free_t_sweep_on_chain():
    ci = helpers.make_chain(9)
    cert = certifiers.free_t_estimate(
        ci.F, ci.x, ci.y, "khanh4+",
        {"scheme": ci.scheme_orbit,
         "mu": lambda s: canonical_mu(ci.scheme_orbit, s, 64)})
    assert cert.sound and not cert.vacuous
    assert cert.bound == pytest.approx(ci.kappa * ci.t, rel=1e-6)


def test_free_t_vacuous_when_delta_infinite():
    X = FiniteMetricSpace.from_grid([0.0, 1.0])
    Y = FiniteMetricSpace.from_grid([0.0])
    lad = TLadder(np.array([0.0, 1.0]))
    F = ParamSetValuedMap(X, Y, lad, graph=[(1, 1, 0), (1, 0, 0)])
    cert = certifiers.free_t_estimate(F, 0, 0, "decrease", {"mu": None})
    assert cert.vacuous and cert.confirmed and cert.bound == INF


# -- regularity / openness on W ---------------------------------------------

def test_regular_open_agreement_on_random_param_maps():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        F, W = helpers.random_param_map(rng)
        mu = helpers.random_mu(rng)
        audit = certifiers.equivalence_audit(F, W, mu)
        assert audit.agree, (seed, audit.regular, audit.open_)
        # the strong pointwise form implies both properties
        if audit.strong_form_holds:
            assert audit.regular.holds and audit.open_.holds


def _open_on_W_brute_force(F, W, mu):
    """(holds, counterexample, lhs, rhs, detail): every candidate radius,
    ascending, with y in F(B(x, t), 0) decided by membership queries."""
    diam = F.X.diameter()
    for (x, y) in W:
        md = mu(F.delta(y, x))
        row = F.X.dist_row(x)
        cands = set(float(v) for v in row) | set(F.ladder.levels.tolist())
        cands.add(md + diam + 1.0)
        for t in sorted(c for c in cands if c != INF and c > md):
            if not any(row[xp] < t and F.contains(xp, 0, y)
                       for xp in range(F.X.n)):
                return (False, (x, y), F.dist_to_inverse(x, 0, y), t,
                        f"y not in F(B(x,{t}),0)")
    return True, None, 0.0, 0.0, ""


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_open_on_W_matches_every_radius(seed):
    # a tight, a loose and a random modulus: failing and passing verdicts
    rng = np.random.default_rng(seed)
    F, W = helpers.random_param_map(rng)
    W = W[:6]       # short, so that about a quarter of the verdicts pass
    for mu in (FunctionalModulus.linear(0.2), FunctionalModulus.linear(10.0),
               helpers.random_mu(rng)):
        v = certifiers.check_open_on_W(F, W, mu)
        assert (v.holds, v.counterexample, v.lhs, v.rhs, v.detail) == \
            _open_on_W_brute_force(F, W, mu)


def test_regular_counterexample_is_genuine():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        F, W = helpers.random_param_map(rng)
        mu = helpers.random_mu(rng)
        v = certifiers.check_regular_on_W(F, W, mu)
        if not v.holds:
            x, y = v.counterexample
            assert F.dist_to_inverse(x, 0, y) > mu(F.delta(y, x))
            break
    else:
        pytest.skip("family produced no failing pair")


def test_nu_regular_reduction():
    rng = np.random.default_rng(0)
    F, W = helpers.random_param_map(rng)
    mu = FunctionalModulus.linear(1.0)
    # nu = 0 filters every pair: vacuous truth
    nu_all = {pair: 0.0 for pair in W}
    assert certifiers.check_nu_regular_on_W(F, W, mu, nu_all).holds
    # nu = +inf keeps every pair: same verdict as the plain check
    plain = certifiers.check_regular_on_W(F, W, mu)
    assert certifiers.check_nu_regular_on_W(F, W, mu, {}).holds == plain.holds


def test_local_regularity_on_chain():
    ci = helpers.make_chain(10)
    v = certifiers.check_local_regularity(ci.F, ci.H, ci.y, ci.mu)
    assert v.holds or "resolution" in v.at_resolution_note
    with pytest.raises(PreconditionError):
        certifiers.check_local_regularity(ci.F, ci.x, ci.y, ci.mu)
