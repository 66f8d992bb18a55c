"""Sufficient regularity criteria as checkable certificates.

Each certifier verifies its hypotheses on a concrete instance and then
confirms the concluded distance estimate by direct computation.  The
confirmation always runs, even when hypotheses fail, so that "criterion
inapplicable" and "property false" stay distinguishable.  A certificate
is sound only when both sides pass.

`CRITERIA` maps each criterion's name to its certifier and to the
instance fields it reads.  The CLI checks an instance's fields against
it, and both the CLI and `free_t_estimate` run a certifier from it with
its inputs as one keyword dict.  The sequence, orbit and image-space
criteria read each step as one block, and decide each strict step and
open ball, by the engine's `step_distances` and `strict_bound`; a step
n >= 1 whose radius is <= 0 searches the empty ball, as the engine's A3.

The decrease criterion, `certify_decrease` for F: X x R+ => Y and
`certify_T64` for a plain F: X => Y, finds decrease partners by one
blocked search over X (`_first_without_partner`).

Regularity, openness, their strong form and nu-regularity on a set W
are decided on `conventional`'s gathered record, under the map's policy,
and local regularity reads its radii off one blocked pass over X x Y.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial
from itertools import accumulate
from typing import Callable, NamedTuple, Optional

import numpy as np

from .conventional import (PropertyVerdict, RegularityQuery, _blocks, _mu_inf, _spread,
                           check_metric_regularity, check_openness)
from .induction import (PreconditionError, row_minima, step_distances, step_failure,
                        strict_bound)
from .moduli import AuxScheme, FunctionalModulus, ModulusError, canonical_mu
from .policy import DEFAULT_POLICY, INF, NumericPolicy
from .svmap import ParamSetValuedMap, PlainSetValuedMap, outer_semicontinuity_at_zero


@dataclass
class HypCheck:
    name: str
    passed: bool
    detail: str = ""
    witness: Optional[tuple] = None


@dataclass
class Certificate:
    criterion: str
    hypotheses: list[HypCheck] = field(default_factory=list)
    target: float = INF          # d(x, F_0^{-1}(y)) computed directly
    bound: float = INF
    strict: bool = True          # concluded inequality is < (else <=)
    confirmed: bool = False
    vacuous: bool = False
    notes: list[str] = field(default_factory=list)

    @property
    def hypotheses_pass(self) -> bool:
        return all(h.passed for h in self.hypotheses)

    @property
    def sound(self) -> bool:
        return self.hypotheses_pass and self.confirmed

    def add(self, name, passed, detail="", witness=None):
        self.hypotheses.append(HypCheck(name, bool(passed), detail, witness))


def _require_graph_point(F: ParamSetValuedMap, x: int, t: float, y: int,
                         policy: NumericPolicy) -> int:
    t_idx = F.ladder.index_of(t, policy.tol_strict)
    if t_idx == 0:
        raise PreconditionError("need t > 0")
    if not F.contains(x, t_idx, y):
        raise PreconditionError(f"(x={x}, t={t}, y={y}) not on the graph")
    return t_idx


def _confirm(cert: Certificate, F, x, y, bound, strict, policy):
    cert.target = F.dist_to_inverse(x, 0, y)
    cert.bound = bound
    cert.strict = strict
    cert.confirmed = policy.lt(cert.target, bound) if strict \
        else policy.le(cert.target, bound)


# -- fixed-sequence criterion ----------------------------------------------

def certify_khanh_plus(F: ParamSetValuedMap, x: int, t: float, y: int,
                       scheme: AuxScheme,
                       policy: NumericPolicy = DEFAULT_POLICY) -> Certificate:
    """Sequence-based criterion: steps b_n over levels m(c_n), bound sum b_n."""
    cert = Certificate("khanh+")
    _require_graph_point(F, x, t, y, policy)
    tol = policy.tol_strict
    if not scheme.b_seq or not scheme.c_seq or scheme.m is None:
        raise PreconditionError("criterion needs explicit (b_n), (c_n) and m")

    b_seq = [float(v) for v in scheme.b_seq]
    total_b = float(sum(b_seq))
    cert.add("A4", np.isfinite(total_b) and all(v > 0 for v in b_seq),
             f"sum b_n = {total_b}")

    m_of_c = [scheme.m(float(c)) for c in scheme.c_seq]
    seq_ok = all(b <= a + tol for a, b in zip(m_of_c, m_of_c[1:])) \
        and m_of_c[-1] <= tol
    cert.add("B3", seq_ok,
             "sequential form m(c_n) -> 0; stronger m(tau)->0 form not verified")
    cert.notes.append("B3 checked in sequential form only")

    osc = outer_semicontinuity_at_zero(F, y)
    cert.add("osc", osc.holds, witness=(osc.witness,) if osc.witness is not None else None)

    # level chain: a_0 = t, a_n = m(c_n); snap up, <= tol means level 0
    levels = [F.ladder.index_of(t, tol)]
    for v in m_of_c:
        levels.append(F.ladder.snap_up(v, tol))
        if levels[-1] == 0:
            break
    reach_zero = levels[-1] == 0
    cert.add("A2", reach_zero, "m(c_n) reaches ladder level 0" if reach_zero
             else "m(c_n) never reaches ladder level 0")

    if reach_zero and seq_ok:
        ok, wit, det = True, None, ""
        # step n searches B(x, b_0 + ... + b_{n-1}); one past the b table fails
        for n, radius in zip(range(len(levels) - 1), accumulate(b_seq, initial=0.0)):
            if n == len(b_seq):
                ok, det = False, f"b table exhausted at n={n}"
                break
            hit = step_failure(F.X, F.inverse_at_level_idx(levels[n], y),
                               F.inverse_at_level_idx(levels[n + 1], y), x, n, radius,
                               b_seq[n], tol)[1]
            if hit is not None:
                ok, wit = False, (n, hit[0])
                det = f"d(u, F_(next)^-1(y)) = {hit[1]} >= b_{n} = {b_seq[n]}"
                break
        cert.add("B4+/B5+", ok, det, wit)

    _confirm(cert, F, x, y, total_b, strict=True, policy=policy)
    return cert


# -- orbit criteria (functions b, m, mu) -----------------------------------

def _resolve_mu(cert: Certificate, scheme: AuxScheme, mu, policy: NumericPolicy):
    """mu, or when absent the canonical suffix-sum construction (noted on
    the certificate); either one computed once per tau."""
    if mu is None:
        cert.notes.append("canonical mu = suffix sums of m over the b-orbit")
        return cache(lambda tau: canonical_mu(scheme, tau, policy.horizon, policy.tol_strict))
    return cache(mu)


def _orbit_steps(F: ParamSetValuedMap, y: int, orbit: list, mu_fn, tol: float):
    """The steps (n, tau, next tau, F_tau^-1(y), F_(next tau)^-1(y), radius)
    of a vanishing orbit, up to the first tau <= tol or step into level 0;
    step n >= 1 searches B(x, mu(t) - mu(tau)), empty when mu is flat
    along the orbit, and step 0 {x}.  Lazily: a walk
    stops at its first failing step, and a tau above the ladder top raises
    only when a walk reaches it."""
    for n, (tau, nxt) in enumerate(zip(orbit, orbit[1:])):
        if tau <= tol:
            return
        lev, lev_next = F.ladder.snap_up(tau, tol), F.ladder.snap_up(nxt, tol)
        yield (n, tau, nxt, F.inverse_at_level_idx(lev, y), F.inverse_at_level_idx(lev_next, y),
               mu_fn(orbit[0]) - mu_fn(tau))
        if lev_next == 0:
            return


def _orbit_checks(cert: Certificate, F, t, y, scheme, mu_fn, policy):
    """Shared hypothesis sweep over the orbit tau = t, b(t), b^2(t), ...

    Adds mutau+, osc and mu++ to cert; returns mu(t) and the steps that
    each criterion walks with its own step condition (none unless the
    orbit vanishes).
    """
    tol = policy.tol_strict
    horizon = policy.horizon

    van = scheme.orbit_vanishes(t, horizon, tol) or \
        scheme.m_vanishing_sampled(t, horizon, tol)
    cert.add("mutau+", van, "b-orbit vanishes or sampled m-vanishing holds")

    osc = outer_semicontinuity_at_zero(F, y)
    cert.add("osc", osc.holds,
             witness=(osc.witness,) if osc.witness is not None else None)

    orbit = scheme.orbit(t, horizon, tol)
    mu_t = mu_fn(t)

    mupp_ok, mupp_wit, mupp_det = True, None, ""
    for tau, nxt in zip(orbit, orbit[1:]):
        if tau <= tol:
            break
        lhs, rhs = mu_fn(tau), scheme.m(tau) + mu_fn(nxt)
        if not policy.le(rhs, lhs):
            mupp_ok, mupp_wit = False, (tau,)
            mupp_det = f"mu({tau}) = {lhs} < m+mu(b) = {rhs}"
            break
    cert.add("mu++", mupp_ok, mupp_det, mupp_wit)
    return mu_t, _orbit_steps(F, y, orbit, mu_fn, tol) if van else ()


def certify_khanh4_plus(F: ParamSetValuedMap, x: int, t: float, y: int,
                        scheme: AuxScheme, mu=None,
                        policy: NumericPolicy = DEFAULT_POLICY) -> Certificate:
    """Orbit criterion: b drives tau down, m bounds steps, conclusion < mu(t)."""
    cert = Certificate("khanh4+")
    _require_graph_point(F, x, t, y, policy)
    mu_fn = _resolve_mu(cert, scheme, mu, policy)
    mu_t, steps = _orbit_checks(cert, F, t, y, scheme, mu_fn, policy)
    ok, wit, det = True, None, ""
    for n, tau, nxt, fib, fib_next, radius in steps:
        m_tau = scheme.m(tau)
        hit = step_failure(F.X, fib, fib_next, x, n, radius, m_tau, policy.tol_strict)[1]
        if hit is not None:
            ok, wit = False, (n, hit[0])
            det = f"d(u, F_b(tau)^-1(y)) = {hit[1]} >= m(tau) = {m_tau}"
            break
    cert.add("net+++", ok, det, wit)
    _confirm(cert, F, x, y, mu_t, strict=True, policy=policy)
    return cert


def certify_image_space(F: ParamSetValuedMap, x: int, t: float, y: int,
                        scheme: AuxScheme, mu=None,
                        policy: NumericPolicy = DEFAULT_POLICY) -> Certificate:
    """Image-space criterion: (set1) + (set2) in Y replace the X-space step.

    Both read d0[z] = d(y, F_0(z)): (set1) asks that every z with
    d0[z] < tau lie in F_tau^{-1}(y), and (set2) that d0 falls below
    b(tau) on B(u, m(tau)).  The X-space step they imply is then checked
    on the same u.
    """
    cert = Certificate("image")
    _require_graph_point(F, x, t, y, policy)
    tol = policy.tol_strict
    mu_fn = _resolve_mu(cert, scheme, mu, policy)
    d0 = F.level0_image_dists(y)
    mu_t, steps = _orbit_checks(cert, F, t, y, scheme, mu_fn, policy)
    set1 = None                  # (s, z): z of F_0^-1(B(y, s)) outside F_s^-1(y)
    ok, wit, det = True, None, ""
    n_set2 = 0
    for n, tau, nxt, fib, fib_next, radius in steps:
        # (set1) at s = tau and s = b(tau)
        for s, fib_s in ((tau, fib), (nxt, fib_next)):
            if set1 is None:
                extra = d0 < strict_bound(s, tol)
                extra[fib_s] = False
                if extra.any():
                    set1 = (s, int(extra.argmax()))
        m_tau, b_tau = scheme.m(tau), scheme.b(tau)
        region, du = step_distances(F.X, fib, fib_next, x, n, radius, tol)
        # (set2): dy = d(y, F_0(B(u, m(tau)))) < b(tau), with B(u, 0) = {u}
        dy = d0[region] if m_tau == 0 else row_minima(
            lambda us: np.where(F.X.dist_rows(us) < strict_bound(m_tau, tol), d0, INF),
            region, F.X.n)
        set2 = dy < strict_bound(b_tau, tol)
        # some z of the ball has d0[z] < b(tau), so by (set1) z lies in
        # F_b(tau)^-1(y): d(u, F_b(tau)^-1(y)) < m(tau), asserted here
        bad = np.flatnonzero(~set2 | ((set1 is None) & (du >= strict_bound(m_tau, tol))))
        if bad.size:
            i = bad[0]
            ok, wit = False, (n, int(region[i]))
            det = f"d(y, F_0(B(u,m))) = {dy[i]} >= b(tau) = {b_tau}" if not set2[i] \
                else "derived step inequality failed despite (set1)+(set2)"
            n_set2 += int(i) + bool(set2[i])  # the u that passed (set2)
            break
        n_set2 += region.size
    cert.add("set1", set1 is None, "" if set1 is None else
             f"F_0^-1(B(y,{set1[0]})) escapes F_tau^-1(y)", set1)
    cert.add("set2+derived-step", ok, det, wit)
    cert.notes.append(f"{n_set2} intermediate z-witnesses logged")
    _confirm(cert, F, x, y, mu_t, strict=True, policy=policy)
    return cert


# -- decrease-condition criterion ------------------------------------------

def _first_without_partner(X, us: np.ndarray, targets: np.ndarray, vals: np.ndarray,
                           tol: float) -> Optional[int]:
    """The first i with no partner u' != us[i]: vals[u'] <= targets[i] -
    d(us[i], u') at resolution, where vals[u'] = +inf is never one; None
    when every us[i] has one.  Rows of X are read in `_blocks`."""
    cand = vals < INF
    for b in _blocks(us.size, X.n):
        ok = cand & (vals <= targets[b, None] - X.dist_rows(us[b]) + tol)  # policy.le
        ok[np.arange(ok.shape[0]), us[b]] = False
        miss = np.flatnonzero(~ok.any(axis=1))
        if miss.size:
            return b.start + int(miss[0])
    return None


def certify_decrease(F: ParamSetValuedMap, x: int, t: float, y: int,
                     mu: FunctionalModulus,
                     policy: NumericPolicy = DEFAULT_POLICY) -> Certificate:
    """Decrease criterion: every admissible (u, tau) has an improving
    (u', tau'); the first without one, in (tau, u) order, is the witness."""
    cert = Certificate("decrease")
    if not (mu.continuous and mu.vanishes_only_at_zero):
        raise ModulusError("decrease criterion needs continuous mu vanishing only at 0")
    t_idx = _require_graph_point(F, x, t, y, policy)
    mu_t, mus = mu(t), mu.each(F.ladder.levels)
    k, u = _spread(lambda j: F.inverse_at_level_idx(j, y), range(len(F.ladder)))
    best = np.full(F.X.n, INF)  # per point the smallest mu(tau') over F^{-1}(y)
    np.minimum.at(best, u, mus[k])
    adm = (k >= 1) & (k <= t_idx) & (F.X.dist_row(x)[u] <= mu_t - mus[k] + policy.tol_strict)
    k, u = k[adm], u[adm]
    i = _first_without_partner(F.X, u, mus[k], best, policy.tol_strict)
    wit = None if i is None else (int(u[i]), float(F.ladder.levels[k[i]]))
    cert.add("decrease", i is None,
             "" if i is None else f"no decrease pair for (u={wit[0]}, tau={wit[1]})", wit)
    _confirm(cert, F, x, y, mu_t, strict=False, policy=policy)
    return cert


def certify_T64(F: PlainSetValuedMap, x: int, y: int, mu: FunctionalModulus,
                policy: NumericPolicy = DEFAULT_POLICY) -> Certificate:
    """Decrease criterion for a plain F: X => Y, in distance form.

    Hypothesis: every u with d(y, F(u)) > 0 and d(x, u) <= mu(d(y, F(x)))
    - mu(d(y, F(u))) has a u' != u with mu(d(y, F(u'))) <= mu(d(y, F(u)))
    - d(u, u'); the first u without one is the witness (u, d(y, F(u))).
    Conclusion: d(x, F^{-1}(y)) <= mu(d(y, F(x))).
    """
    cert = Certificate("decrease")
    k, yp = _spread(F.image, range(F.X.n))
    dvals = np.full(F.X.n, INF)  # d(y, F(u)) for every u
    np.minimum.at(dvals, k, F.Y.dist_row(y)[yp])
    if dvals[x] == INF:
        raise PreconditionError("F(x) empty: decrease criterion needs d(y, F(x)) finite")
    mu_t, mus = mu(float(dvals[x])), mu.each(dvals)
    us = np.flatnonzero((dvals > policy.tol_strict) & (mus < INF)
                        & (F.X.dist_row(x) <= mu_t - mus + policy.tol_strict))
    i = _first_without_partner(F.X, us, mus[us], mus, policy.tol_strict)
    cert.add("decrease", i is None,
             witness=None if i is None else (int(us[i]), float(dvals[us[i]])))
    cert.target, cert.bound, cert.strict = F.dist_to_preimage(x, y), mu_t, False
    cert.confirmed = policy.le(cert.target, mu_t)
    return cert


# -- the criteria table and the free-t wrapper ------------------------------

class Criterion(NamedTuple):
    certify: Callable[..., Certificate]
    needs: tuple[str, ...]          # instance fields it cannot run without
    optional: tuple[str, ...] = ()  # instance fields it reads when present


# A field "scheme.m" is the m of the instance's scheme; each certifier
# takes the top-level fields ("scheme", "mu") as keyword inputs.
CRITERIA = {
    "khanh+": Criterion(certify_khanh_plus, ("scheme.b_seq", "scheme.c_seq", "scheme.m")),
    "khanh4+": Criterion(certify_khanh4_plus, ("scheme.b", "scheme.m"), ("mu",)),
    "image": Criterion(certify_image_space, ("scheme.b", "scheme.m"), ("mu",)),
    "decrease": Criterion(certify_decrease, ("mu",)),
}


def free_t_estimate(F: ParamSetValuedMap, x: int, y: int, criterion: str,
                    inputs: dict,
                    policy: NumericPolicy = DEFAULT_POLICY) -> Certificate:
    """Sweep ladder levels t with (x,t,y) on the graph; conclude <= mu(delta).

    `inputs` are the keyword inputs of the criterion's certifier, the same
    at every t; their mu, the identity when absent, is also the modulus
    of the conclusion.  The existential "some gamma > delta" is resolved
    by the sweep: the certificate reports the best gamma below which
    every membership level certifies.
    """
    cert = Certificate(f"free-t/{criterion}")
    delta = F.delta(y, x)
    if delta == INF:
        cert.vacuous = True
        cert.add("delta", True, "delta = +inf: conclusion trivially true")
        _confirm(cert, F, x, y, INF, strict=False, policy=policy)
        return cert

    run = CRITERIA[criterion].certify
    ts = [float(F.ladder.levels[k]) for k in range(1, len(F.ladder))
          if F.contains(x, k, y)]
    gamma_best = INF
    all_ok = True
    for tv in ts:
        if not run(F, x, tv, y, policy=policy, **inputs).sound:
            gamma_best = tv
            if tv <= delta + policy.tol_strict:
                all_ok = False
            break
    cert.add("per-t sweep", all_ok,
             f"levels checked up to gamma = {gamma_best}; delta = {delta}")
    mu = inputs.get("mu")
    _confirm(cert, F, x, y, mu(delta) if mu is not None else delta,
             strict=False, policy=policy)
    return cert


# -- regularity / openness on a set ----------------------------------------
# decided on conventional's gathered record, whose parametric form holds
# delta(y, F, x) and d(x, F_0^{-1}(y)), under F.policy

@dataclass
class EquivalenceAudit:
    regular: PropertyVerdict
    open_: PropertyVerdict
    agree: bool
    strong_form_holds: bool
    note: str = "(iii)-form is one-directional: it implies (i)/(ii), not conversely"


def equivalence_audit(F: ParamSetValuedMap, W, mu) -> EquivalenceAudit:
    """Regularity and openness on W, and the strong form: x in
    F_0^{-1}(y) where mu(delta) = 0, else d(x, F_0^{-1}(y)) < mu(delta)."""
    q = RegularityQuery(F, W, mu)
    reg, opn = check_metric_regularity(q, F.policy), check_openness(q, F.policy)
    P, md = q.pairs, q.mus[0]
    strong = np.where(md == 0, P.member, F.policy.lt_each(P.dpre, md)) | (md == INF)
    return EquivalenceAudit(reg, opn, reg.holds == opn.holds, bool(strong.all()))


def check_nu_regular_on_W(F: ParamSetValuedMap, W, mu, nu: dict) -> PropertyVerdict:
    """nu-regularity via the reduction W' = {(x,y) in W : mu(delta) < nu}."""
    q = RegularityQuery(F, W, mu)
    keep = F.policy.lt_each(q.mus[0], np.array([nu.get(tuple(w), INF) for w in q.pairs.W]))
    return check_metric_regularity(
        RegularityQuery(F, [w for w, k in zip(q.pairs.W, keep.tolist()) if k], mu), F.policy)


@dataclass
class LocalVerdict:
    holds: bool
    r_U: float
    r_V: float
    at_resolution_note: str = ""


def check_local_regularity(F: ParamSetValuedMap, xbar: int, ybar: int, mu) -> LocalVerdict:
    """Largest closed-ball radii (r_U, r_V) around (xbar, ybar), among the
    distances from each, with regularity on U x V; the first by
    (-(r_U + r_V), -r_U).

    Regularity on U x V holds pair by pair, so the radius pairs where it
    holds form a staircase.  One blocked pass over X x Y finds, for each
    b, nf[b] = d(xbar, a) of the nearest a with (a, b) failing; U(r_U) x
    V(r_V) holds iff r_U + tol lies below the minimum of nf over V(r_V),
    a prefix minimum over b by d(ybar, b).  Balls are closed at the
    spaces' tolerance, d <= r + tol_strict.  Every subset of a
    finite metric space is a neighbourhood, so the singleton product
    always certifies; the verdict is "fails at resolution" when nothing
    larger does.
    """
    if not F.contains(xbar, 0, ybar):
        raise PreconditionError(f"(xbar={xbar}, ybar={ybar}) not on gph F_0")
    dx, dy, ny = F.X.dist_row(xbar), F.Y.dist_row(ybar), F.Y.n
    k, xp = _spread(partial(F.inverse_at_level_idx, 0), range(ny))  # F_0^{-1}(b), b by b
    cols = np.unique(k)
    mus = np.array([_mu_inf(mu, float(v)) for v in F.ladder.positive] + [INF])
    on, nf = F.onset_matrix(), np.full(ny, INF)
    for b in _blocks(F.X.n, max(xp.size, ny)):
        a = np.arange(F.X.n)[b]
        dpre = np.full((a.size, ny), INF)
        dpre[:, cols] = np.minimum.reduceat(F.X.dist_at(a[:, None], xp),
                                            np.searchsorted(k, cols), axis=1)
        fail = ~(dpre <= mus[on[b] - 1] + F.policy.tol_strict)  # policy.le
        np.minimum(nf, np.where(fail, dx[b, None], INF).min(axis=0), out=nf)
    by_dy = np.argsort(dy, kind="stable")
    rUs, rVs = np.unique(dx), np.unique(dy)
    near = np.minimum.accumulate(nf[by_dy])[
        np.searchsorted(dy[by_dy], rVs + F.Y.policy.tol_strict, side="right") - 1]
    iu = np.searchsorted(rUs + F.X.policy.tol_strict, near, side="left") - 1
    ru, rv = rUs[iu[iu >= 0]], rVs[iu >= 0]
    if not ru.size:
        return LocalVerdict(False, 0.0, 0.0, "unreachable: singleton product must certify")
    j = np.lexsort((rv, -ru, -(ru + rv)))[0]
    trivial = ru[j] == 0.0 and rv[j] == 0.0
    return LocalVerdict(not trivial, float(ru[j]), float(rv[j]),
                        "fails at resolution: only the singleton neighbourhood "
                        "certifies" if trivial else "")
