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
criteria walk their steps in plain loops under one step test,
`_step_fails`, which accepts an exact hit.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate
from typing import Callable, NamedTuple, Optional

import numpy as np

from .induction import PreconditionError, step_distances
from .metric import ball_members, BallSpec
from .moduli import AuxScheme, FunctionalModulus, ModulusError, canonical_mu
from .policy import DEFAULT_POLICY, INF, NumericPolicy
from .svmap import ParamSetValuedMap, outer_semicontinuity_at_zero


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


def _step_fails(d: float, bound: float, policy: NumericPolicy) -> bool:
    """d breaks the strict step bound d < bound.  An exact hit (d = 0 at
    resolution) meets any positive bound, even one below tol, which
    policy.lt alone would reject; the orbit tail drives m(tau) that low."""
    return d > policy.tol_strict and not policy.lt(d, bound)


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
            hit = next(((u, du) for u, du in step_distances(
                F.X, F.inverse_at_level_idx(levels[n], y),
                F.inverse_at_level_idx(levels[n + 1], y), x, radius, tol)
                if _step_fails(du, b_seq[n], policy)), None)
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


def _orbit_steps(F: ParamSetValuedMap, orbit: list, tol: float):
    """The steps (n, tau, next tau, level, next level) of a vanishing orbit,
    up to the first tau <= tol or step into level 0.  Lazily: a walk stops
    at its first failing step, and a tau above the ladder top raises only
    when a walk reaches it."""
    for n, (tau, nxt) in enumerate(zip(orbit, orbit[1:])):
        if tau <= tol:
            return
        lev, lev_next = F.ladder.snap_up(tau, tol), F.ladder.snap_up(nxt, tol)
        yield n, tau, nxt, lev, lev_next
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
    return mu_t, _orbit_steps(F, orbit, tol) if van else ()


def certify_khanh4_plus(F: ParamSetValuedMap, x: int, t: float, y: int,
                        scheme: AuxScheme, mu=None,
                        policy: NumericPolicy = DEFAULT_POLICY) -> Certificate:
    """Orbit criterion: b drives tau down, m bounds steps, conclusion < mu(t)."""
    cert = Certificate("khanh4+")
    _require_graph_point(F, x, t, y, policy)
    mu_fn = _resolve_mu(cert, scheme, mu, policy)
    mu_t, steps = _orbit_checks(cert, F, t, y, scheme, mu_fn, policy)
    ok, wit, det = True, None, ""
    for n, tau, nxt, lev, lev_next in steps:
        m_tau = scheme.m(tau)
        hit = next(((u, du) for u, du in step_distances(
            F.X, F.inverse_at_level_idx(lev, y), F.inverse_at_level_idx(lev_next, y),
            x, 0.0 if n == 0 else mu_t - mu_fn(tau), policy.tol_strict)
            if _step_fails(du, m_tau, policy)), None)
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
    for n, tau, nxt, lev, lev_next in steps:
        # (set1) at s = tau and s = b(tau), the ball open (s > tol)
        for s, lev_s in ((tau, lev), (nxt, lev_next)):
            if set1 is None and s > tol:
                extra = d0 < s - tol
                extra[F.inverse_at_level_idx(lev_s, y)] = False
                if extra.any():
                    set1 = (s, int(extra.argmax()))
        m_tau, b_tau = scheme.m(tau), scheme.b(tau)
        for u, du in step_distances(
                F.X, F.inverse_at_level_idx(lev, y),
                F.inverse_at_level_idx(lev_next, y), x,
                0.0 if n == 0 else mu_t - mu_fn(tau), tol):
            # (set2): d(y, F_0(B(u, m(tau)))) < b(tau); dy = 0 at
            # resolution means y itself is reached
            ball = [u] if m_tau == 0 else F.X.dist_row(u) < m_tau - tol
            dy = d0[ball].min(initial=INF)
            if _step_fails(dy, b_tau, policy):
                ok, wit = False, (n, u)
                det = f"d(y, F_0(B(u,m))) = {dy} >= b(tau) = {b_tau}"
                break
            n_set2 += 1
            # some z of the ball has d0[z] < b(tau), so by (set1) z lies in
            # F_b(tau)^-1(y): d(u, F_b(tau)^-1(y)) < m(tau), asserted here
            if set1 is None and _step_fails(du, m_tau, policy):
                ok, wit = False, (n, u)
                det = "derived step inequality failed despite (set1)+(set2)"
                break
        if not ok:
            break
    cert.add("set1", set1 is None, "" if set1 is None else
             f"F_0^-1(B(y,{set1[0]})) escapes F_tau^-1(y)", set1)
    cert.add("set2+derived-step", ok, det, wit)
    cert.notes.append(f"{n_set2} intermediate z-witnesses logged")
    _confirm(cert, F, x, y, mu_t, strict=True, policy=policy)
    return cert


# -- decrease-condition criterion ------------------------------------------

def certify_decrease(F: ParamSetValuedMap, x: int, t: float, y: int,
                     mu: FunctionalModulus,
                     policy: NumericPolicy = DEFAULT_POLICY) -> Certificate:
    """Decrease criterion: every admissible (u, tau) has an improving (u', tau')."""
    cert = Certificate("decrease")
    if not (mu.continuous and mu.vanishes_only_at_zero):
        raise ModulusError("decrease criterion needs continuous mu vanishing only at 0")
    t_idx = _require_graph_point(F, x, t, y, policy)
    tol = policy.tol_strict
    mu_t = mu(t)

    # all (u', tau') in F^{-1}(y): per point the best (smallest) mu(tau')
    best_mu: dict[int, float] = {}
    for k in range(len(F.ladder)):
        val = mu(float(F.ladder.levels[k]))
        for u in F.inverse_at_level_idx(k, y).tolist():
            if val < best_mu.get(u, INF):
                best_mu[u] = val

    ok, wit, det = True, None, ""
    rowx = F.X.dist_row(x)
    for k in range(1, t_idx + 1):
        tau = float(F.ladder.levels[k])
        mu_tau = mu(tau)
        for u in F.inverse_at_level_idx(k, y).tolist():
            if not policy.le(rowx[u], mu_t - mu_tau):
                continue
            row_u = F.X.dist_row(u)
            found = any(up != u and policy.le(mv, mu_tau - row_u[up])
                        for up, mv in best_mu.items())
            if not found:
                ok, wit = False, (int(u), tau)
                det = f"no decrease pair for (u={u}, tau={tau})"
                break
        if not ok:
            break
    cert.add("decrease", ok, det, wit)
    _confirm(cert, F, x, y, mu_t, strict=False, policy=policy)
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

@dataclass
class Verdict:
    holds: bool
    counterexample: Optional[tuple] = None
    lhs: float = 0.0
    rhs: float = 0.0
    detail: str = ""

    def __bool__(self):
        return self.holds


def check_regular_on_W(F: ParamSetValuedMap, W, mu) -> Verdict:
    """d(x, F_0^{-1}(y)) <= mu(delta(y,F,x)) for every pair in W."""
    for (x, y) in W:
        lhs = F.dist_to_inverse(x, 0, y)
        rhs = mu(F.delta(y, x))
        if not (lhs <= rhs or (lhs == INF and rhs == INF)):
            return Verdict(False, (x, y), lhs, rhs)
    return Verdict(True)


def check_open_on_W(F: ParamSetValuedMap, W, mu) -> Verdict:
    """y in F(B(x,t), 0) for every pair in W and radius t > mu(delta).

    Candidate radii t are the distances d(x, x'), the ladder levels and
    one value beyond the diameter.  y is in F(B(x, t), 0) iff
    d(x, F_0^{-1}(y)) < t, so only the smallest candidate above
    mu(delta) can fail; it is the one compared, and the one reported.
    The finite candidates above mu(delta) are picked with one mask.
    """
    diam = F.X.diameter()
    for (x, y) in W:
        md = mu(F.delta(y, x))
        cands = np.concatenate((F.X.dist_row(x), F.ladder.levels, [md + diam + 1.0]))
        cands = cands[(cands != INF) & (cands > md)]
        if not cands.size:
            continue
        t = float(cands.min())
        lhs = F.dist_to_inverse(x, 0, y)
        if not lhs < t:
            return Verdict(False, (x, y), lhs, t,
                           detail=f"y not in F(B(x,{t}),0)")
    return Verdict(True)


@dataclass
class EquivalenceAudit:
    regular: Verdict
    open_: Verdict
    agree: bool
    strong_form_holds: bool
    note: str = "(iii)-form is one-directional: it implies (i)/(ii), not conversely"


def equivalence_audit(F: ParamSetValuedMap, W, mu) -> EquivalenceAudit:
    reg = check_regular_on_W(F, W, mu)
    opn = check_open_on_W(F, W, mu)
    strong = True
    for (x, y) in W:
        md = mu(F.delta(y, x))
        pre0 = F.inverse_at_level_idx(0, y)
        if md == INF:
            continue
        if md == 0:
            if x not in set(pre0.tolist()):
                strong = False
                break
        else:
            lhs = float(F.X.dist_row(x)[pre0].min(initial=INF))
            if not lhs < md:
                strong = False
                break
    return EquivalenceAudit(reg, opn, reg.holds == opn.holds, strong)


def check_nu_regular_on_W(F: ParamSetValuedMap, W, mu, nu: dict) -> Verdict:
    """nu-regularity via the reduction W' = {(x,y) in W : mu(delta) < nu}."""
    Wp = [(x, y) for (x, y) in W if mu(F.delta(y, x)) < nu.get((x, y), INF)]
    return check_regular_on_W(F, Wp, mu)


@dataclass
class LocalVerdict:
    holds: bool
    r_U: float
    r_V: float
    counterexample: Optional[tuple] = None
    at_resolution_note: str = ""


def check_local_regularity(F: ParamSetValuedMap, xbar: int, ybar: int, mu,
                           policy: NumericPolicy = DEFAULT_POLICY) -> LocalVerdict:
    """Largest closed-ball radii around (xbar, ybar) on which regularity holds.

    Every subset of a finite metric space is a neighbourhood, so the
    singleton product always certifies; the verdict is "fails at
    resolution" when nothing larger does.
    """
    if ybar not in set(F.fibre(xbar, 0).tolist()):
        raise PreconditionError("(xbar, ybar) not on gph F_0")
    rUs = sorted(set(float(v) for v in F.X.dist_row(xbar)))
    rVs = sorted(set(float(v) for v in F.Y.dist_row(ybar)))
    pairs = sorted(((ru, rv) for ru in rUs for rv in rVs),
                   key=lambda p: (-(p[0] + p[1]), -p[0]))
    last_ce = None
    for (ru, rv) in pairs:
        U = sorted(ball_members(F.X, BallSpec(xbar, ru, "closed")))
        V = sorted(ball_members(F.Y, BallSpec(ybar, rv, "closed")))
        v = check_regular_on_W(F, [(a, b) for a in U for b in V], mu)
        if v.holds:
            trivial = (ru == 0.0 and rv == 0.0)
            return LocalVerdict(
                holds=not trivial, r_U=ru, r_V=rv, counterexample=last_ce,
                at_resolution_note="fails at resolution: only the singleton "
                                   "neighbourhood certifies" if trivial else "")
        last_ce = v.counterexample
    return LocalVerdict(False, 0.0, 0.0, last_ce,
                        "unreachable: singleton product must certify")
