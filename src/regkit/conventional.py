"""Regularity of plain set-valued mappings F: X => Y.

Everything here is phrased for a mapping without a parameter slot; the
parametric machinery enters only through the ball embedding
F(x, t) = B(F(x), t), which turns distance-based regularity into the
level-set form handled by the certifiers.  Three properties are checked
against each other on a validation set W of (x, y) pairs:

  - metric regularity  d(x, F^{-1}(y)) <= mu(d(y, F(x)))
  - covering/openness  y in F(B(x, t)) whenever t > mu(d(y, F(x)))
  - Hölder continuity of F^{-1} (as a mapping Y => X) on the transposed set

On finite spaces, with nondecreasing mu, the three are equivalent
pointwise; the audit verifies the equivalence by direct computation
rather than assuming it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .moduli import FunctionalModulus
from .policy import DEFAULT_POLICY, INF, NumericPolicy
from .svmap import PlainSetValuedMap


@dataclass
class RegularityQuery:
    """A plain mapping, a validation set W, and the modulus to test."""

    F: PlainSetValuedMap
    W: list[tuple[int, int]]
    mu: Callable[[float], float]


@dataclass
class PropertyVerdict:
    name: str
    holds: bool
    counterexample: Optional[tuple] = None
    lhs: float = 0.0
    rhs: float = 0.0

    def __bool__(self):
        return self.holds


def _mu_inf(mu, t: float) -> float:
    if t == INF:
        return INF
    return mu(t)


def check_metric_regularity(q: RegularityQuery,
                            policy: NumericPolicy = DEFAULT_POLICY) -> PropertyVerdict:
    """d(x, F^{-1}(y)) <= mu(d(y, F(x))) for every (x, y) in W."""
    for (x, y) in q.W:
        lhs = q.F.dist_to_preimage(x, y)
        rhs = _mu_inf(q.mu, q.F.dist_to_image(y, x))
        if rhs == INF:
            continue
        if not policy.le(lhs, rhs):
            return PropertyVerdict("metric-regularity", False, (x, y), lhs, rhs)
    return PropertyVerdict("metric-regularity", True)


def check_openness(q: RegularityQuery,
                   policy: NumericPolicy = DEFAULT_POLICY) -> PropertyVerdict:
    """y in F(B(x, t)) for every (x, y) in W and every t > mu(d(y, F(x))).

    Candidate radii t are the realizable ones: the distances d(x, x') plus
    one value beyond the diameter, which suffices on a finite space.
    y is in F(B(x, t)) iff d(x, F^{-1}(y)) < t, so only the smallest
    candidate above mu(d(y, F(x))) can fail; it is the one compared, and
    the one reported as rhs.  The candidates above it are picked with one
    `policy.lt_each` mask over x's distance row.
    """
    diam = q.F.X.diameter()
    for (x, y) in q.W:
        md = _mu_inf(q.mu, q.F.dist_to_image(y, x))
        if md == INF:
            continue
        lhs = q.F.dist_to_preimage(x, y)
        # strictness of "t > mu(...)" goes through the policy; ball
        # membership stays exactly strict because lhs and the candidate
        # radii are drawn from the same distance row, so a tie means the
        # witness sits on the boundary of the open ball and is excluded
        cands = np.append(q.F.X.dist_row(x), md + diam + 1.0)
        cands = cands[policy.lt_each(md, cands)]
        if cands.size and not lhs < cands.min():
            return PropertyVerdict("openness", False, (x, y), lhs,
                                   float(cands.min()))
    return PropertyVerdict("openness", True)


def check_holder_inverse(q: RegularityQuery,
                         policy: NumericPolicy = DEFAULT_POLICY) -> PropertyVerdict:
    """Hölder-type continuity of F^{-1} on the transposed validation set:

    for (x, y) in W and every y', d(x, F^{-1}(y)) <= mu(d(y, F(x)))
    rephrased as: F^{-1} as a map Y => X satisfies
    d(x, F^{-1}(y)) <= mu(d(y, y')) whenever y' in F(x).
    """
    for (x, y) in q.W:
        lhs = q.F.dist_to_preimage(x, y)
        yrow = q.F.Y.dist_row(y)
        for yp in q.F.image(x).tolist():
            rhs = _mu_inf(q.mu, float(yrow[yp]))
            if rhs == INF:
                continue
            if not policy.le(lhs, rhs):
                return PropertyVerdict("holder-inverse", False, (x, y, yp), lhs, rhs)
    return PropertyVerdict("holder-inverse", True)


@dataclass
class T61Audit:
    metric_regular: PropertyVerdict
    open_: PropertyVerdict
    holder: PropertyVerdict
    agree: bool
    note: str = ""


def equivalence_audit_T61(q: RegularityQuery,
                          policy: NumericPolicy = DEFAULT_POLICY) -> T61Audit:
    """All three properties computed independently; verdicts must coincide.

    The Hölder form quantifies over y' in F(x), which is the infimum
    defining d(y, F(x)) made pointwise, so with nondecreasing mu the
    infimum is attained on a finite space and the three verdicts agree.
    """
    mr = check_metric_regularity(q, policy)
    op = check_openness(q, policy)
    ho = check_holder_inverse(q, policy)
    agree = mr.holds == op.holds == ho.holds
    return T61Audit(mr, op, ho, agree,
                    note="" if agree else "equivalence broken: inspect counterexamples")


# -- decrease criterion for plain mappings ---------------------------------

@dataclass
class DecreaseCertificate:
    hypothesis_holds: bool = False
    witness: Optional[tuple] = None
    target: float = INF
    bound: float = INF
    confirmed: bool = False

    @property
    def sound(self) -> bool:
        return self.hypothesis_holds and self.confirmed


def certify_T64(F: PlainSetValuedMap, x: int, y: int, mu: FunctionalModulus,
                policy: NumericPolicy = DEFAULT_POLICY) -> DecreaseCertificate:
    """Decrease criterion in distance form.

    Hypothesis: for every u with d(y, F(u)) > 0 and
    d(x, u) <= mu(d(y, F(x))) - mu(d(y, F(u))) there is u' != u with
    mu(d(y, F(u'))) <= mu(d(y, F(u))) - d(u, u').
    Conclusion: d(x, F^{-1}(y)) <= mu(d(y, F(x))).
    """
    cert = DecreaseCertificate()
    t = F.dist_to_image(y, x)
    if t == INF:
        raise ValueError("F(x) empty: decrease criterion needs d(y, F(x)) finite")
    mu_t = mu(t)

    dvals = np.array([F.dist_to_image(y, u) for u in range(F.X.n)])
    mu_vals = np.array([_mu_inf(mu, float(v)) for v in dvals])
    rowx = F.X.dist_row(x)

    ok, wit = True, None
    for u in range(F.X.n):
        if dvals[u] <= policy.tol_strict:
            continue
        if mu_vals[u] == INF or not policy.le(rowx[u], mu_t - mu_vals[u]):
            continue
        row_u = F.X.dist_row(u)
        found = any(up != u and mu_vals[up] != INF
                    and policy.le(mu_vals[up], mu_vals[u] - row_u[up])
                    for up in range(F.X.n))
        if not found:
            ok, wit = False, (u, float(dvals[u]))
            break
    cert.hypothesis_holds = ok
    cert.witness = wit
    cert.target = F.dist_to_preimage(x, y)
    cert.bound = mu_t
    cert.confirmed = policy.le(cert.target, cert.bound)
    return cert


# -- best-modulus estimation -----------------------------------------------

@dataclass
class ModulusFit:
    k: float
    lam_star: float
    achieved_at: Optional[tuple] = None
    n_pairs: int = 0

    def modulus(self) -> FunctionalModulus:
        return FunctionalModulus.power(self.lam_star, self.k)


def estimate_best_modulus(F: PlainSetValuedMap, W: Iterable[tuple[int, int]],
                          k: float = 1.0,
                          policy: NumericPolicy = DEFAULT_POLICY) -> ModulusFit:
    """Smallest lam with d(x, F^{-1}(y)) <= lam * d(y, F(x))^k on W.

    lam* is the max of the ratios over pairs with 0 < d(y, F(x)) < inf;
    pairs with d(y, F(x)) = 0 must have x in F^{-1}(y) (else no power
    modulus works and lam* = +inf).
    """
    lam, arg, n = 0.0, None, 0
    for (x, y) in W:
        t = F.dist_to_image(y, x)
        lhs = F.dist_to_preimage(x, y)
        if t == INF:
            continue
        n += 1
        if t <= policy.tol_strict:
            if lhs > policy.tol_strict:
                return ModulusFit(k, INF, (x, y), n)
            continue
        ratio = lhs / t ** k
        if ratio > lam:
            lam, arg = float(ratio), (x, y)
    return ModulusFit(k, lam, arg, n)


def modulus_is_tight(F: PlainSetValuedMap, W: list[tuple[int, int]],
                     fit: ModulusFit,
                     policy: NumericPolicy = DEFAULT_POLICY) -> bool:
    """True when lam* passes on W but lam*(1 - 1e-9) fails.

    lam* is the largest ratio over W, so a smaller rate fails at its
    argmax; the relative step 1e-9 is far above rounding.

    Degenerate case lam* = 0 (every pair lands exactly) is reported tight.
    """
    if fit.lam_star == INF:
        return False
    qa = RegularityQuery(F, W, FunctionalModulus.power(max(fit.lam_star, 1e-300), fit.k)
                         if fit.lam_star > 0 else (lambda s: 0.0))
    ok_at = check_metric_regularity(qa, policy).holds
    if fit.lam_star == 0.0:
        return ok_at
    strict = NumericPolicy(tol_strict=0.0, triangle_tol=policy.triangle_tol,
                           horizon=policy.horizon)
    qb = RegularityQuery(F, W, FunctionalModulus.power(
        fit.lam_star * (1.0 - 1e-9), fit.k))
    fails_below = not check_metric_regularity(qb, strict).holds
    return ok_at and fails_below
