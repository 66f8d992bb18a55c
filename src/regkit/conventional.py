"""Regularity of set-valued mappings on a validation set W of (x, y) pairs.

The properties are stated once and read in both settings: a plain
mapping F: X => Y, and a parametric F: X x R+ => Y, whose record holds
delta(y, F, x) where a plain map's holds d(y, F(x)) and d(x, F_0^{-1}(y))
where it holds d(x, F^{-1}(y)).  With d for that first quantity:

  - metric regularity  d(x, F^{-1}(y)) <= mu(d)
  - covering/openness  y in F(B(x, t)) whenever t > mu(d)
  - Hölder continuity of F^{-1} (as a mapping Y => X) on the transposed
    set, for a plain mapping

On finite spaces, with nondecreasing mu, the three are equivalent
pointwise; the audit verifies the equivalence by direct computation
rather than assuming it.

A query gathers its distances once, in W order (`_Pairs`), and mu of them
once; each property is then decided with masks, every <= and < through
the policy, and reports the first failing pair of W, as a loop over W
would.  Every gathered read here, in `induction` and in `certifiers` is
cut into blocks of at most _BLOCK distances by `_blocks`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterable, Optional, Union

import numpy as np

from .moduli import FunctionalModulus
from .policy import DEFAULT_POLICY, INF, NumericPolicy
from .svmap import ParamSetValuedMap, PlainSetValuedMap


@dataclass
class RegularityQuery:
    """A plain or parametric mapping, a validation set W, and the modulus
    to test.

    The pairs' distances are gathered on first use, and so is mu of
    them; a query is read, never changed.
    """

    F: Union[PlainSetValuedMap, ParamSetValuedMap]
    W: list[tuple[int, int]]
    mu: Callable[[float], float]

    @cached_property
    def pairs(self) -> "_Pairs":
        return _Pairs(self.F, self.W)

    @cached_property
    def mus(self) -> tuple[np.ndarray, np.ndarray]:
        """mu(d(y, F(x))) for each pair of W, and mu at each pairs.flat."""
        P = self.pairs
        d = np.concatenate([P.dimg, P.flat])
        v = self.mu.each(d) if isinstance(self.mu, FunctionalModulus) else \
            np.array([_mu_inf(self.mu, s) for s in d.tolist()], dtype=float)
        return v[:len(P.dimg)], v[len(P.dimg):]


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


_BLOCK = 1 << 20  # distances in one block of a gather


def _blocks(n: int, width: int) -> list[slice]:
    """Slices of n items, each item reading width distances, with at most
    _BLOCK distances a slice (one item when width exceeds it)."""
    step = max(1, _BLOCK // max(width, 1))
    return [slice(s, s + step) for s in range(0, n, step)]


def _spread(sets: Callable[[int], np.ndarray], keys: Iterable[int]) -> tuple:
    """(k, j) for each j of sets(keys[k]), in (k, j) order."""
    runs = [sets(a) for a in keys]
    return (np.arange(len(runs)).repeat([len(v) for v in runs]),
            np.concatenate([np.empty(0, int), *runs]))


class _Pairs:
    """The distances of W's pairs (x, y), gathered once, in W order.

    flat holds d(y, y') for each y' in F(x), in (pair, y') order, with its
    pair index fpair and its y' fyp; dimg = d(y, F(x)) is its minimum per
    pair, and dpre = d(x, F^{-1}(y)) the same over F^{-1}(y), both +inf on
    an empty set; member marks x in F^{-1}(y).  As in the per-pair
    definitions, d(y, .) is read off row y and d(x, .) off row x.  For a
    parametric map, dimg is delta(y, F, x), read off its onset matrix,
    dpre and member are over F_0^{-1}(y), and flat is empty.  Preimage
    distances are gathered one block of W at a time, so memory is
    O(|W| + sum over W of |F(x)| + _BLOCK).
    """

    def __init__(self, F: Union[PlainSetValuedMap, ParamSetValuedMap],
                 W: Iterable[tuple[int, int]]):
        self.W = list(W)
        xs, ys = [a for a, _ in self.W], [b for _, b in self.W]
        for idx, S in ((xs, F.X), (ys, F.Y)):  # PointIndexError, as dist_row's
            if idx:
                S._check(min(idx))
                S._check(max(idx))
        self.x, y = np.array(xs, dtype=int), np.array(ys, dtype=int)
        param = isinstance(F, ParamSetValuedMap)
        pre = partial(F.inverse_at_level_idx, 0) if param else F.preimage
        (self.dimg, self.dpre), self.member = np.full((2, len(xs)), INF), np.zeros(len(xs), bool)
        parts = [(np.empty(0), np.empty(0, int), np.empty(0, int))]
        for b in _blocks(len(xs), max(F.X.n, F.Y.n)):
            if not param:
                k, yp = _spread(F.image, xs[b])
                parts.append((F.Y.dist_at(y[b][k], yp), k + b.start, yp))
                np.minimum.at(self.dimg, parts[-1][1], parts[-1][0])
            k, xp = _spread(pre, ys[b])
            np.minimum.at(self.dpre, k + b.start, F.X.dist_at(self.x[b][k], xp))
            self.member[k[xp == self.x[b][k]] + b.start] = True
        if param:
            self.dimg = np.append(F.ladder.levels, INF)[F.onset_matrix()[self.x, y]]
        self.flat, self.fpair, self.fyp = map(np.concatenate, zip(*parts))


def _first(fail: np.ndarray, t: np.ndarray, mu) -> Optional[int]:
    """Index of the first failing entry, or None.  mu first meets each
    t < 0 before it, so that a FunctionalModulus raises where the per-pair
    loop did."""
    for i in (fail | (t < 0)).nonzero()[0].tolist():
        if t[i] < 0:
            mu(float(t[i]))
        if fail[i]:
            return i
    return None


def check_metric_regularity(q: RegularityQuery,
                            policy: NumericPolicy = DEFAULT_POLICY) -> PropertyVerdict:
    """d(x, F^{-1}(y)) <= mu(d(y, F(x))) for every (x, y) in W."""
    P = q.pairs
    i = _first(~(P.dpre <= q.mus[0] + policy.tol_strict), P.dimg, q.mu)  # policy.le
    if i is None:
        return PropertyVerdict("metric-regularity", True)
    return PropertyVerdict("metric-regularity", False, tuple(P.W[i]), float(P.dpre[i]),
                           _mu_inf(q.mu, float(P.dimg[i])))


def check_openness(q: RegularityQuery,
                   policy: NumericPolicy = DEFAULT_POLICY) -> PropertyVerdict:
    """y in F(B(x, t)) for every (x, y) in W and every t > mu(d(y, F(x))).

    Candidate radii t are the realizable ones: the distances d(x, x') plus
    one value beyond the diameter, which suffices on a finite space.
    y is in F(B(x, t)) iff d(x, F^{-1}(y)) < t, so only the smallest
    candidate above mu(d(y, F(x))) can fail; it is the one compared, and
    the one reported as rhs.  The candidates above it are picked with
    `policy.lt_each`, one mask per block of x rows read off the metric,
    and one over all pairs for the value beyond the diameter.
    """
    P, md, X = q.pairs, q.mus[0], q.F.X
    far = md + X.diameter() + 1.0
    r = np.empty(len(md))  # the deciding radius; NaN where no candidate is above md
    for b in _blocks(len(md), max(q.F.X.n, q.F.Y.n)):
        c = X.dist_rows(P.x[b])
        r[b] = np.fmin.reduce(c, axis=1, where=policy.lt_each(md[b, None], c), initial=np.nan)
    r = np.fmin(r, np.where(policy.lt_each(md, far), far, np.nan))  # the last candidate
    # strictness of "t > mu(...)" goes through the policy; ball membership
    # stays exactly strict because lhs and the candidate radii are drawn
    # from the same distance rows, so a tie means the witness sits on the
    # boundary of the open ball and is excluded
    i = _first(P.dpre >= r, P.dimg, q.mu)  # not lhs < r, and never at NaN
    if i is None:
        return PropertyVerdict("openness", True)
    return PropertyVerdict("openness", False, tuple(P.W[i]), float(P.dpre[i]),
                           float(r[i]))


def check_holder_inverse(q: RegularityQuery,
                         policy: NumericPolicy = DEFAULT_POLICY) -> PropertyVerdict:
    """Hölder-type continuity of F^{-1} on the transposed validation set:

    for (x, y) in W and every y', d(x, F^{-1}(y)) <= mu(d(y, F(x)))
    rephrased as: F^{-1} as a map Y => X satisfies
    d(x, F^{-1}(y)) <= mu(d(y, y')) whenever y' in F(x).
    """
    P = q.pairs
    f = _first(~(P.dpre[P.fpair] <= q.mus[1] + policy.tol_strict), P.flat, q.mu)
    if f is None:
        return PropertyVerdict("holder-inverse", True)
    i = P.fpair[f]
    return PropertyVerdict("holder-inverse", False, (*P.W[i], int(P.fyp[f])),
                           float(P.dpre[i]), _mu_inf(q.mu, float(P.flat[f])))


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
    modulus works and lam* = +inf).  The ratios are scalar arithmetic, as
    np.power may differ from ** in the last bit; the first pair of W at
    the largest ratio is the one reported.
    """
    P, tol = _Pairs(F, W), policy.tol_strict
    t, lhs = P.dimg, P.dpre
    fin = t != INF
    bad = np.flatnonzero(fin & (t <= tol) & (lhs > tol))
    stop = int(bad[0]) if bad.size else len(t)  # the first bad pair ends the scan
    pos = np.flatnonzero(fin[:stop] & (t[:stop] > tol))
    ratio = np.array([a / b ** k for a, b in zip(lhs[pos].tolist(), t[pos].tolist())])
    if bad.size:
        return ModulusFit(k, INF, tuple(P.W[stop]), int(fin[:stop + 1].sum()))
    j = int(ratio.argmax()) if ratio.size else 0
    if not ratio.size or not ratio[j] > 0.0:
        return ModulusFit(k, 0.0, None, int(fin.sum()))
    return ModulusFit(k, float(ratio[j]), tuple(P.W[pos[j]]), int(fin.sum()))


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
    qb = RegularityQuery(F, W, FunctionalModulus.power(fit.lam_star * (1.0 - 1e-9), fit.k))
    qb.pairs = qa.pairs  # the same pairs under another modulus
    fails_below = not check_metric_regularity(qb, strict).holds
    return ok_at and fails_below
