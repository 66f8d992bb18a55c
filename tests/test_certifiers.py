"""Sufficient criteria as certificates: soundness and negative controls."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from regkit import certifiers, conventional
from regkit.induction import (LevelMap, PreconditionError, Seq, SequenceSpec,
                              run_induction, verify_preconditions)
from regkit.instances import generate_instance, parse_instance
from regkit.metric import FiniteMetricSpace
from regkit.moduli import (AuxScheme, FunctionalModulus, ModulusError,
                           canonical_mu)
from regkit.policy import DEFAULT_POLICY, INF
from regkit.svmap import ParamSetValuedMap, PlainSetValuedMap, TLadder, embed_plain


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


# -- the decrease criterion against the per-point loops ----------------------

def _decrease_outcome(run) -> tuple:
    """(holds, witness, detail, target, bound, confirmed) of a certificate
    or an oracle tuple, or ("raises", message) of the ValueError it raised."""
    try:
        out = run()
    except ValueError as e:
        return "raises", str(e)
    if isinstance(out, tuple):
        return out
    (h,) = out.hypotheses
    assert h.name == "decrease" and not out.strict
    return h.passed, h.witness, h.detail, out.target, out.bound, out.confirmed


def _assert_decrease_parity(records, certify, ref, monkeypatch) -> dict:
    """Each record's outcome equals the oracle's, with X read in one block
    and one row a block; returns the count of each verdict."""
    seen = {}
    for args in records:
        want = _decrease_outcome(lambda: ref(*args))
        for block in (1 << 20, 7):
            monkeypatch.setattr(conventional, "_BLOCK", block)
            assert _decrease_outcome(lambda: certify(*args)) == want, args[1:]
        seen[want[0]] = seen.get(want[0], 0) + 1
    return seen


def _plain_decrease_records():
    for seed in range(200):
        pc = helpers.make_plain_chain(seed)
        # at slope 1 each next chain point is a partner with no margin
        for mu in (FunctionalModulus.linear(pc.kappa), FunctionalModulus.linear(1.0),
                   FunctionalModulus.power(pc.kappa, 0.5)):
            yield pc.F, pc.x, pc.y, mu
    for seed in range(300):
        rng = np.random.default_rng(seed)
        F = helpers.random_plain_map(rng, nx_max=15, ny_max=15)
        mu = helpers.random_mu(rng)
        for _ in range(5):
            yield F, int(rng.integers(F.X.n)), int(rng.integers(F.Y.n)), mu


def _param_decrease_records():
    for seed in range(100):
        ci = helpers.make_chain(seed)
        # at slope 0.9 / (1 - r) each next chain point is a partner with no margin
        for mu in (ci.mu, FunctionalModulus.linear(0.9 / (1.0 - ci.r)),
                   FunctionalModulus.power(ci.kappa, 0.5)):
            yield ci.F, ci.x, ci.t, ci.y, mu
    for seed in range(300):
        rng = np.random.default_rng(seed)
        F, _ = helpers.random_param_map(rng, n_max=12)
        mu = helpers.random_mu(rng)
        pts = F.graph[F.graph[:, 1] > 0].tolist()
        for j in rng.choice(len(pts), size=min(6, len(pts)), replace=False).tolist():
            a, lev, b = pts[j]
            yield F, a, float(F.ladder.levels[lev]), b, mu


def test_plain_decrease_matches_per_point_loop(monkeypatch):
    """Verdict, witness, target, bound and confirmation of certify_T64
    equal the per-point loop's on plain chains and random maps, and an
    empty F(x) raises the same ValueError."""
    seen = _assert_decrease_parity(_plain_decrease_records(), certifiers.certify_T64,
                                   helpers.ref_decrease_plain, monkeypatch)
    assert seen[True] and seen[False] and seen["raises"], seen


def test_param_decrease_matches_per_point_loop(monkeypatch):
    """The same for certify_decrease, witness and detail included, on
    chains and random monotone maps; a discontinuous mu raises the same
    ModulusError."""
    seen = _assert_decrease_parity(_param_decrease_records(), certifiers.certify_decrease,
                                   helpers.ref_decrease_param, monkeypatch)
    assert seen[True] and seen[False] and seen["raises"], seen


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
    Also counts the u that pass (set2).  Every strict test d < r is read
    at resolution: r > 0, and d <= tol (d is 0) or d < r - tol."""
    tol, H = policy.tol_strict, policy.horizon
    yrow = F.Y.dist_row(y)

    def lt(d, r):
        return r > 0 and (d <= tol or d < r - tol)

    def inv0_of_ball(tau):
        ball = {j for j in range(F.Y.n) if lt(yrow[j], tau)}
        return {z for z in range(F.X.n) if ball & set(F.fibre(z, 0).tolist())}

    def img0_of_ball(u, m):
        row = F.X.dist_row(u)
        zs = [u] if m == 0 else [z for z in range(F.X.n) if lt(row[z], m)]
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
            if set1 is None:
                extra = inv0_of_ball(s) - set(F.inverse_at_level_idx(k, y).tolist())
                set1 = (s, min(extra)) if extra else None
        radius = 0.0 if n == 0 else mu_t - canonical_mu(scheme, tau, H, tol)
        rowx = F.X.dist_row(x)
        m, b = scheme.m(tau), scheme.b(tau)
        for u in F.inverse_at_level_idx(lev, y).tolist():
            if not (u == x if n == 0 else lt(rowx[u], radius)):
                continue
            dy = min((yrow[j] for j in img0_of_ball(u, m)), default=INF)
            du = min((F.X.d(u, v) for v in F.inverse_at_level_idx(lev_next, y).tolist()),
                     default=INF)
            if not lt(dy, b):
                step = (n, u)
                break
            n_set2 += 1
            if set1 is None and not lt(du, m):
                step = (n, u)
                break
        if step is not None or lev_next == 0:
            break
    return set1, step, n_set2


@pytest.mark.parametrize("seed", range(30))
def test_image_space_matches_set_derivation(seed, monkeypatch):
    """(set1) and (set2+derived-step) verdicts and witnesses agree with the
    set derivation, on maps with empty level-0 fibres and twin points, with
    the steps read in one block and in blocks of 5 distances."""
    for F, x, t, y, scheme in _random_starts(seed, twins=seed % 2 == 1):
        set1, step, n_set2 = _image_space_by_sets(F, x, t, y, scheme)
        for block in (1 << 20, 5):
            monkeypatch.setattr(conventional, "_BLOCK", block)
            cert = certifiers.certify_image_space(F, x, t, y, scheme)
            hyp = {h.name: h for h in cert.hypotheses}
            assert hyp["mutau+"].passed
            assert (hyp["set1"].passed, hyp["set1"].witness) == (set1 is None, set1)
            assert (hyp["set2+derived-step"].passed,
                    hyp["set2+derived-step"].witness) == (step is None, step)
            assert f"{n_set2} intermediate z-witnesses logged" in cert.notes


@pytest.mark.parametrize("criterion", ["B4+/B5+", "net+++", "A3"])
def test_failing_step_witnesses_are_genuine(criterion):
    """Each failing step witness (n, u) lies in step n's region, and its
    d(u, next fibre) breaks the bound: d < r at resolution means r > 0,
    and d <= tol (d is 0) or d < r - tol."""
    tol = DEFAULT_POLICY.tol_strict

    def lt(d, r):
        return r > 0 and (d <= tol or d < r - tol)
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
            assert u == x if n == 0 else lt(F.X.d(x, u), radii[n])
            nxt = F.inverse_at_level_idx(levels[n + 1], y).tolist()
            du = min((F.X.d(u, v) for v in nxt), default=INF)
            assert not lt(du, bounds[n])
    assert failures >= 10, failures


# -- one strict-step rule: the engine, the certifiers and the oracle agree ---

def _line_chain(steps, k, b_k):
    """A chain p_0, ..., p_H on the line, p_{n+1} = p_n + steps[n] (a zero
    step keeps the chain on one point), with F_tau^{-1}(0) = {p_n} at the
    ladder level tau = H - n and F_0^{-1}(0) = {p_H}.  Step n is bounded by
    b_n = 1.5 d(p_n, p_{n+1}), step k by b_k.  Returns F, the engine's case
    on Phi = F^{-1}(0) with a_n = H - n, and the khanh+ scheme of the same
    levels and bounds."""
    H = len(steps)
    coords, p = np.unique(np.concatenate([[0.0], np.cumsum(steps)]),
                          return_inverse=True)
    X = FiniteMetricSpace(metric="euclidean", coords=coords)
    F = ParamSetValuedMap(X, FiniteMetricSpace.from_grid([0.0]),
                          TLadder(np.arange(H + 1.0)),
                          graph=[(int(p[n]), H - n, 0) for n in range(H + 1)])
    b = [1.5 * X.d(p[n], p[n + 1]) for n in range(H)]
    b[k] = b_k
    case = helpers.InductionCase(
        phi=LevelMap.from_param_map(F, 0), t=float(H), x=int(p[0]),
        seqs=SequenceSpec(a=Seq.explicit(np.arange(H, 0, -1.0)), b=Seq.explicit(b)),
        constructed_pass=False, meta={"p_k": int(p[k])})
    scheme = AuxScheme(m=FunctionalModulus.linear(1.0), b_seq=tuple(b),
                       c_seq=tuple(np.arange(H - 1, 0, -1.0)) + (0.0,))
    return F, case, scheme


def _step_verdicts(F, case, scheme):
    """(A3, run_induction, khanh+'s step, the exhaustive oracle), with the
    A3 and khanh+ witnesses."""
    pre = verify_preconditions(case.phi, case.t, case.x, case.seqs)
    tr = run_induction(case.phi, case.t, case.x, case.seqs)
    cert = certifiers.certify_khanh_plus(F, case.x, case.t, 0, scheme)
    step = next(h for h in cert.hypotheses if h.name == "B4+/B5+")
    return ((pre.ok, tr.certified, step.passed, helpers.exhaustive_chain_verdict(case)),
            (pre.witness, step.witness))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(0.1, 1.0), min_size=2, max_size=6), st.data())
def test_an_exact_hit_meets_a_bound_at_or_below_tol(steps, data):
    """A step that stays on its point (d = 0) under a bound 0 < b_k <= tol
    holds in the engine, in khanh+ and in the oracle alike."""
    k = data.draw(st.integers(0, len(steps) - 1))
    steps[k] = 0.0
    b_k = data.draw(st.floats(0.0, 1e-12, exclude_min=True))
    verdicts, witnesses = _step_verdicts(*_line_chain(steps, k, b_k))
    assert verdicts == (True, True, True, "certified")
    assert witnesses == (None, None)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(0.1, 1.0), min_size=2, max_size=6), st.data())
def test_a_step_beyond_tol_still_fails_everywhere(steps, data):
    """A step of length d > tol under a bound b_k <= d fails in the engine,
    in khanh+ and in the oracle alike, at the same witness."""
    k = data.draw(st.integers(0, len(steps) - 1))
    steps[k] = data.draw(st.floats(2e-12, 1.0))
    F, case, scheme = _line_chain(steps, k, 1.0)
    d = F.X.d(case.meta["p_k"], case.meta["p_k"] + 1)
    assert d > DEFAULT_POLICY.tol_strict
    b_k = d * data.draw(st.floats(1e-3, 1.0))
    verdicts, witnesses = _step_verdicts(*_line_chain(steps, k, b_k))
    assert verdicts == (False, False, False, "failed")
    assert witnesses == ((k, case.meta["p_k"]),) * 2


def test_orbit_tail_certifies_under_image_space_and_khanh4():
    """With m(tau) = 0.95 tau the orbit's last tau > tol has 0 < m(tau) <=
    tol; the ball B(u, m(tau)) still holds u, so image-space certifies
    wherever khanh4+ does."""
    for seed in range(200):
        ci = helpers.make_chain(seed)
        scheme = AuxScheme(b=FunctionalModulus.linear(ci.r),
                           m=FunctionalModulus.linear(0.95))
        for certify in (certifiers.certify_khanh4_plus, certifiers.certify_image_space):
            cert = certify(ci.F, ci.x, ci.t, ci.y, scheme)
            assert cert.sound, (seed, cert.criterion,
                                [(h.name, h.detail) for h in cert.hypotheses])


def test_a_step_with_radius_at_most_0_searches_the_empty_ball():
    """mu flat along the orbit (mu = 5) gives every step n >= 1 the radius
    mu(t) - mu(tau) = 0, whose open ball is empty, as A3 reads it: on a
    3-point line map whose x lies in every positive fibre and off the zero
    fibre, neither khanh4+ nor image-space fails a step."""
    X = FiniteMetricSpace.from_grid([0.0, 0.5, 1.0])
    F = ParamSetValuedMap(X, FiniteMetricSpace.from_grid([0.0]), TLadder(np.array([0.0, 1.0])),
                          graph=[(1, 0, 0)] + [(a, 1, 0) for a in range(3)], monotone=True)
    scheme = AuxScheme(b=FunctionalModulus.linear(0.5), m=FunctionalModulus.linear(1.0))
    for criterion, step in (("khanh4+", "net+++"), ("image", "set2+derived-step")):
        cert = certifiers.CRITERIA[criterion].certify(F, 0, 1.0, 0, scheme=scheme,
                                                      mu=lambda s: 5.0)
        hyp = {h.name: h for h in cert.hypotheses}
        assert hyp[step].passed and hyp[step].witness is None, hyp[step]
        assert "set1" not in hyp or hyp["set1"].passed
        assert cert.confirmed and not cert.sound   # mu++ and osc still fail


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
    """(holds, counterexample, lhs, rhs): every candidate radius (the x-row
    distances and one beyond the diameter), ascending, with y in
    F(B(x, t), 0) decided by membership queries."""
    diam = F.X.diameter()
    for (x, y) in W:
        md = mu(F.delta(y, x))
        row = F.X.dist_row(x)
        cands = set(float(v) for v in row) | {md + diam + 1.0}
        for t in sorted(c for c in cands if F.policy.lt(md, c)):
            if not any(row[xp] < t and F.contains(xp, 0, y)
                       for xp in range(F.X.n)):
                return False, (x, y), F.dist_to_inverse(x, 0, y), t
    return True, None, 0.0, 0.0


def _query(F, W, mu):
    return conventional.RegularityQuery(F, W, mu)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_open_on_W_matches_every_radius(seed):
    # a tight, a loose and a random modulus: failing and passing verdicts
    rng = np.random.default_rng(seed)
    F, W = helpers.random_param_map(rng)
    W = W[:6]       # short, so that about a quarter of the verdicts pass
    for mu in (FunctionalModulus.linear(0.2), FunctionalModulus.linear(10.0),
               helpers.random_mu(rng)):
        v = conventional.check_openness(_query(F, W, mu), F.policy)
        assert (v.holds, v.counterexample, v.lhs, v.rhs) == \
            _open_on_W_brute_force(F, W, mu)


def _param_audit_cases(rng):
    """A random parametric map, and the open and closed embeddings of a
    random plain map on a ladder with levels at distances, each with W."""
    yield helpers.random_param_map(rng)
    P = helpers.random_plain_map(rng, nx_max=12, ny_max=12)
    dists = np.unique(P.Y.dist_row(int(rng.integers(0, P.Y.n))))
    lad = TLadder(np.unique(np.concatenate([[0.0], dists[:4], [2 * P.Y.diameter() + 1]])))
    W = helpers.random_W(rng, P, count=12)
    for closed in (False, True):
        yield embed_plain(P, lad, closed=closed), W


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1 << 20, 9]))
def test_gathered_param_audits_match_the_per_pair_reference(seed, block):
    """Regularity, openness and the strong form on the gathered record
    against the per-pair loops, on verdict, witness, lhs and rhs, in one
    block and in blocks of one pair."""
    rng = np.random.default_rng(seed)
    for F, W in _param_audit_cases(rng):
        for mu in (FunctionalModulus.linear(0.5), helpers.random_mu(rng)):
            with mock.patch.object(conventional, "_BLOCK", block):
                audit = certifiers.equivalence_audit(F, W, mu)
            for v, ref in ((audit.regular, helpers.ref_regular_on_W),
                           (audit.open_, helpers.ref_open_on_W)):
                assert (v.holds, v.counterexample, v.lhs, v.rhs) == ref(F, W, mu)
            assert audit.strong_form_holds == helpers.ref_strong_form(F, W, mu)
            nu = {w: float(rng.uniform(0, 3)) for w in W[::2]}
            kept = [w for w in W if F.policy.lt(mu(F.delta(w[1], w[0])), nu.get(w, INF))]
            v = certifiers.check_nu_regular_on_W(F, W, mu, nu)
            assert (v.holds, v.counterexample, v.lhs, v.rhs) == \
                helpers.ref_regular_on_W(F, kept, mu)


def test_a_tie_within_tol_reads_the_same_in_both_settings():
    """d(x, F^{-1}(y)) = 1 against mu(1) = 1 - 5e-13: regular and open for
    the plain map and for its closed embedding alike."""
    line = FiniteMetricSpace.from_grid([0.0, 1.0])
    P = PlainSetValuedMap(line, line, {(0, 1), (1, 0)})
    W, mu = [(0, 0)], FunctionalModulus.linear(1.0 - 5e-13)
    t61 = conventional.equivalence_audit_T61(conventional.RegularityQuery(P, W, mu))
    audit = certifiers.equivalence_audit(
        embed_plain(P, TLadder(np.array([0.0, 1.0, 2.0])), closed=True), W, mu)
    assert t61.metric_regular.holds and t61.open_.holds
    assert audit.regular.holds and audit.open_.holds and audit.agree
    # every pair holds at resolution, so the whole of X x Y is the neighbourhood
    G = embed_plain(P, TLadder(np.array([0.0, 1.0, 2.0])), closed=True)
    v = certifiers.check_local_regularity(G, 0, 1, mu)
    assert (v.holds, v.r_U, v.r_V) == (True, 1.0, 1.0)


def test_local_regularity_breaks_a_tie_of_radius_sums_by_r_U():
    """Only (1, 1) fails, so the corners (1, 0) and (0, 1) both reach
    r_U + r_V = 1; the larger r_U comes first, as the walk's key puts it."""
    line = FiniteMetricSpace.from_grid([0.0, 1.0])
    P = PlainSetValuedMap(line, line, {(0, 0), (0, 1), (1, 0)})
    G = embed_plain(P, TLadder(np.array([0.0, 1.0, 2.0])), closed=True)
    mu = FunctionalModulus.linear(0.5)
    v = certifiers.check_local_regularity(G, 0, 0, mu)
    assert (v.holds, v.r_U, v.r_V, v.at_resolution_note) == \
        helpers.ref_local_regularity(G, 0, 0, mu) == (True, 1.0, 0.0, "")


def test_strong_form_at_mu_zero_asks_membership():
    """mu(delta) = 0 asks x in F_0^{-1}(y): a twin of x at distance 0 in
    the fibre does not do."""
    X = FiniteMetricSpace.from_grid([0.0, 0.0])
    F = ParamSetValuedMap(X, FiniteMetricSpace.from_grid([0.0]), TLadder(np.array([0.0, 1.0])),
                          graph=[(1, 0, 0), (0, 1, 0), (1, 1, 0)], monotone=True)
    mu = FunctionalModulus.table([(0.0, 0.0), (2.0, 1.0)], interp="step")
    audit = certifiers.equivalence_audit(F, [(0, 0)], mu)
    assert audit.regular.holds and not audit.strong_form_holds
    assert not helpers.ref_strong_form(F, [(0, 0)], mu)


def test_regular_counterexample_is_genuine():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        F, W = helpers.random_param_map(rng)
        mu = helpers.random_mu(rng)
        v = conventional.check_metric_regularity(_query(F, W, mu), F.policy)
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
    plain = conventional.check_metric_regularity(_query(F, W, mu), F.policy)
    assert certifiers.check_nu_regular_on_W(F, W, mu, {}).holds == plain.holds


def test_local_regularity_on_chain():
    ci = helpers.make_chain(10)
    v = certifiers.check_local_regularity(ci.F, ci.H, ci.y, ci.mu)
    assert v.holds or "resolution" in v.at_resolution_note
    with pytest.raises(PreconditionError):
        certifiers.check_local_regularity(ci.F, ci.x, ci.y, ci.mu)


def test_local_regularity_staircase_matches_the_radius_walk():
    """(holds, r_U, r_V, note) of the staircase against the walk over
    every radius pair, on param-monotone sizes 6-40 x seeds 0-24 at the
    first three points of gph F_0, in one block and in blocks of 7."""
    for size in range(6, 41):
        for seed in range(25):
            inst = parse_instance(generate_instance("param-monotone", size, seed))
            F = inst.param
            for x, _, y in F.graph[F.graph[:, 1] == 0][:3].tolist():
                want = helpers.ref_local_regularity(F, x, y, inst.mu)
                for block in (1 << 20, 7) if size % 5 == 0 else (1 << 20,):
                    with mock.patch.object(conventional, "_BLOCK", block):
                        v = certifiers.check_local_regularity(F, x, y, inst.mu)
                    assert (v.holds, v.r_U, v.r_V, v.at_resolution_note) == want, \
                        (size, seed, x, y)
