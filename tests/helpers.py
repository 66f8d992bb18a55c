"""Shared instance builders for the test suite.

Two families do most of the work:

- `make_chain`: a parametric mapping whose only structure is a geometric
  chain of points marching toward the zero-level fibre.  Every sufficient
  criterion (sequence, orbit, image-space, decrease) holds on it by
  construction, with explicit margins, so it is the workhorse for the
  soundness sweeps.

- induction instances: `induction_pass_instance` builds level maps whose
  step condition holds by construction (so the engine must certify);
  `induction_random_instance` draws unconstrained fibres (so failures
  and near-misses are exercised and verdicts can be cross-checked
  against the exhaustive oracle).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from regkit import linsolve, optcond
from regkit.induction import LevelMap, Seq, SequenceSpec
from regkit.metric import FiniteMetricSpace
from regkit.moduli import AuxScheme, FunctionalModulus, ModulusError
from regkit.policy import DEFAULT_POLICY, INF, POLY_TOL, NumericPolicy
from regkit.polyhedra import sample_cone_points
from regkit.svmap import ParamSetValuedMap, PlainSetValuedMap, TLadder


# -- geometric-chain parametric instances -----------------------------------

@dataclass
class ChainInstance:
    F: ParamSetValuedMap
    x: int
    y: int
    t: float
    r: float
    H: int
    taus: list[float]              # tau_n = t * r^n, n = 0..H
    kappa: float                   # 1 / (1 - r): slope of the linear mu
    scheme_orbit: AuxScheme        # b = r*tau, m = tau (orbit criteria)
    scheme_seq: AuxScheme          # explicit (b_n), (c_n) for the sequence form
    mu: FunctionalModulus          # linear kappa
    target_true: float             # d(x, F_0^{-1}(y)), by construction
    seq_bound: float               # sum b_n of the sequence scheme


def make_chain(seed: int, policy: NumericPolicy = DEFAULT_POLICY) -> ChainInstance:
    """Chain x_0 -> x_1 -> ... -> x_H with steps 0.9 * tau_n.

    Fibres F_tau^{-1}(y) = {x_n, ..., x_H, twin} for tau >= tau_n; the
    zero-level fibre is {x_H, twin} (the twin sits at distance 0 so every
    point of the fibre has a distinct decrease partner).  The 0.9 factor
    leaves a uniform 10% margin in every strict step inequality.
    """
    rng = np.random.default_rng(seed)
    r = float(rng.uniform(0.35, 0.65))
    t = float(rng.uniform(0.5, 2.0))
    H = int(rng.integers(4, 10))
    taus = [t * r ** n for n in range(H + 1)]

    xs = [0.0]
    for n in range(H):
        xs.append(xs[-1] + 0.9 * taus[n])
    target = xs[-1]
    xs.append(xs[-1])                       # twin of x_H, index H + 1
    kappa = 1.0 / (1.0 - r)
    far = kappa * t * 10.0 + 5.0
    n_decoy = int(rng.integers(0, 4))
    xs += [far + float(k) for k in range(n_decoy)]
    X = FiniteMetricSpace(metric="euclidean", coords=np.array(xs), policy=policy)

    # Y: the target point plus one graded image per interior chain point
    ys = [0.0] + [0.9 * taus[m] for m in range(H)]
    Y = FiniteMetricSpace(metric="euclidean", coords=np.array(ys), policy=policy)

    ladder = TLadder(np.array([0.0] + taus[::-1]))
    top = len(ladder) - 1

    def idx(n: int) -> int:                 # ladder index of tau_n
        return top - n

    triples = []
    for m in range(H + 1):
        for lev in range(idx(m), top + 1):
            triples.append((m, lev, 0))
    for lev in range(idx(H), top + 1):      # the twin mirrors x_H
        triples.append((H + 1, lev, 0))
    for m in range(H):                      # level-0 images
        triples.append((m, 0, 1 + m))
    triples.append((H, 0, 0))
    triples.append((H + 1, 0, 0))
    F = ParamSetValuedMap(X, Y, ladder, graph=triples, monotone=True,
                          policy=policy)

    scheme_orbit = AuxScheme(b=FunctionalModulus.linear(r),
                             m=FunctionalModulus.linear(1.0))
    scheme_seq = AuxScheme(m=FunctionalModulus.linear(1.0),
                           b_seq=tuple(taus),
                           c_seq=tuple(taus[1:]) + (0.0,))
    return ChainInstance(F=F, x=0, y=0, t=t, r=r, H=H, taus=taus, kappa=kappa,
                         scheme_orbit=scheme_orbit, scheme_seq=scheme_seq,
                         mu=FunctionalModulus.linear(kappa),
                         target_true=target, seq_bound=float(sum(taus)))


def chain_dist_level0(ci: ChainInstance) -> float:
    """d(x, F_0^{-1}(y)) recomputed from raw data, bypassing the package."""
    inv = [a for (a, lev, b) in ci.F.graph if lev == 0 and b == ci.y]
    coords = ci.F.X.coords.ravel()
    return min(abs(coords[a] - coords[ci.x]) for a in inv)


# -- random plain mappings ---------------------------------------------------

def random_plain_map(rng: np.random.Generator, nx_max: int = 50,
                     ny_max: int = 50, allow_empty: bool = True,
                     policy: NumericPolicy = DEFAULT_POLICY) -> PlainSetValuedMap:
    nx = int(rng.integers(3, nx_max + 1))
    ny = int(rng.integers(3, ny_max + 1))
    X = FiniteMetricSpace(metric="euclidean",
                          coords=rng.uniform(-3, 3, size=nx), policy=policy)
    Y = FiniteMetricSpace(metric="euclidean",
                          coords=rng.uniform(-3, 3, size=ny), policy=policy)
    graph = set()
    for i in range(nx):
        k = int(rng.integers(0 if allow_empty else 1, 4))
        for j in rng.choice(ny, size=min(k, ny), replace=False):
            graph.add((i, int(j)))
    if not graph:
        graph.add((0, 0))
    return PlainSetValuedMap(X, Y, graph)


def random_W(rng: np.random.Generator, F: PlainSetValuedMap,
             count: int = 24) -> list[tuple[int, int]]:
    return [(int(rng.integers(0, F.X.n)), int(rng.integers(0, F.Y.n)))
            for _ in range(count)]


def random_mu(rng: np.random.Generator, strictly_increasing: bool = False
              ) -> FunctionalModulus:
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return FunctionalModulus.linear(float(rng.uniform(0.2, 4.0)))
    if kind == 1:
        return FunctionalModulus.power(float(rng.uniform(0.2, 4.0)),
                                       float(rng.uniform(0.4, 1.0)))
    ts = np.sort(rng.uniform(0.05, 6.0, size=4))
    vs = np.cumsum(rng.uniform(0.05, 2.0, size=4))
    bps = [(0.0, 0.0)] + list(zip(ts.tolist(), vs.tolist()))
    interp = "linear" if strictly_increasing else \
        ("linear" if rng.random() < 0.5 else "step")
    return FunctionalModulus.table(bps, interp=interp)


def random_param_map(rng: np.random.Generator, n_max: int = 20,
                     policy: NumericPolicy = DEFAULT_POLICY
                     ) -> tuple[ParamSetValuedMap, list[tuple[int, int]]]:
    """A monotone triple-graph mapping with random onsets, plus a W set."""
    n = int(rng.integers(3, n_max + 1))
    m = int(rng.integers(2, max(3, n_max // 2) + 1))
    X = FiniteMetricSpace(metric="euclidean",
                          coords=np.sort(rng.uniform(0, 4, size=n)),
                          policy=policy)
    Y = FiniteMetricSpace(metric="euclidean",
                          coords=np.sort(rng.uniform(0, 4, size=m)),
                          policy=policy)
    L = int(rng.integers(4, 10))
    ladder = TLadder(np.concatenate([[0.0],
                                     np.sort(rng.uniform(0.05, 3.0, size=L))]))
    triples = []
    for i in range(n):
        for j in rng.choice(m, size=min(m, 3), replace=False):
            onset = int(rng.integers(0, L + 1))
            for lev in range(max(onset, 1), L + 1):
                triples.append((i, lev, int(j)))
            if onset == 0:
                triples.append((i, 0, int(j)))
    F = ParamSetValuedMap(X, Y, ladder, graph=triples, monotone=True,
                          policy=policy)
    W = [(int(rng.integers(0, n)), int(rng.integers(0, m)))
         for _ in range(2 * n)]
    return F, W


def random_linear_scheme(rng: np.random.Generator, t: float) -> AuxScheme:
    """b(tau) = r tau and m(tau) = k tau with k < 1, plus explicit tables
    b_n = m(tau_n) and c_n = tau_{n+1} over tau_n = t r^n, ending at c = 0,
    so every level m(c_n) stays on a ladder whose top is at least t."""
    r = float(rng.uniform(0.3, 0.7))
    k = float(rng.uniform(0.1, 1.0))
    taus = [t * r ** n for n in range(int(rng.integers(2, 8)))]
    return AuxScheme(b=FunctionalModulus.linear(r), m=FunctionalModulus.linear(k),
                     b_seq=tuple(k * tau for tau in taus),
                     c_seq=tuple(taus[1:]) + (0.0,))


@dataclass
class PlainChain:
    F: PlainSetValuedMap
    x: int
    y: int
    H: int
    kappa: float
    W: list
    etas: list[float]              # eta_i = d(y, F(x_i)) along the chain


def make_plain_chain(seed: int,
                     policy: NumericPolicy = DEFAULT_POLICY) -> PlainChain:
    """Plain mapping on a line where the decrease condition holds.

    x_0 -> x_1 -> ... -> x_H with F(x_i) a single point at distance
    eta_i = sum of the remaining steps from y, so each admissible point
    has the next chain point as a decrease partner with a kappa margin.
    """
    rng = np.random.default_rng(seed)
    H = int(rng.integers(3, 9))
    steps = rng.uniform(0.1, 1.0, size=H)
    kappa = float(rng.uniform(1.05, 1.5))
    xs = np.concatenate([[0.0], np.cumsum(steps)])
    etas = [float(steps[i:].sum()) for i in range(H)] + [0.0]
    n_decoy = int(rng.integers(0, 3))
    decoy_x = xs[-1] + 1.0 + np.arange(n_decoy, dtype=float)
    X = FiniteMetricSpace(metric="euclidean",
                          coords=np.concatenate([xs, decoy_x]), policy=policy)
    ys = [0.0] + etas[:H] + [2.0 * float(c) for c in decoy_x]
    Y = FiniteMetricSpace(metric="euclidean", coords=np.array(ys),
                          policy=policy)
    graph = {(i, 1 + i) for i in range(H)} | {(H, 0)}
    graph |= {(H + 1 + k, H + 1 + k) for k in range(n_decoy)}
    F = PlainSetValuedMap(X, Y, graph)
    W = [(i, 0) for i in range(H + 1 + n_decoy)]
    return PlainChain(F=F, x=0, y=0, H=H, kappa=kappa, W=W, etas=etas)


# -- induction instances -----------------------------------------------------

@dataclass
class InductionCase:
    phi: LevelMap
    t: float
    x: int
    seqs: SequenceSpec
    constructed_pass: bool
    meta: dict = field(default_factory=dict)


def induction_pass_instance(seed: int, n_max: int = 200, l_max: int = 32,
                            policy: NumericPolicy = DEFAULT_POLICY
                            ) -> InductionCase:
    """Step condition holds by construction with a >= 10% margin."""
    rng = np.random.default_rng(seed)
    L = int(rng.integers(3, min(l_max - 1, 31) + 1))   # chain depth
    t = float(rng.uniform(0.5, 3.0))
    a_tab = [t]
    for rv in rng.uniform(0.4, 0.8, size=L - 1):
        a_tab.append(a_tab[-1] * float(rv))
    b_tab = rng.uniform(0.05, 1.0, size=L).tolist()
    frac = rng.uniform(0.4, 0.9, size=L)

    pts = [0.0]
    for n in range(L):
        pts.append(pts[-1] + frac[n] * b_tab[n])
    b_total = float(sum(b_tab))
    n_decoy = int(rng.integers(0, max(1, n_max - (L + 1))))
    far = pts[-1] + b_total + 1.0
    pts += (far + np.sort(rng.uniform(0.0, 5.0, size=n_decoy))).tolist()
    space = FiniteMetricSpace(metric="euclidean", coords=np.array(pts),
                              policy=policy)
    ladder = TLadder(np.array([0.0] + a_tab[::-1]))

    decoys = list(range(L + 1, L + 1 + n_decoy))
    table: dict[int, list[int]] = {}
    for n in range(L):
        lev = L - n                       # ladder index of a_n
        members = list(range(n, L + 1))
        if decoys:
            k = min(len(decoys), int(rng.integers(0, 3)))
            members += [int(d) for d in
                        rng.choice(decoys, size=k, replace=False)]
        table[lev] = members
    zero = [L]
    if decoys:
        k = min(len(decoys), int(rng.integers(0, 3)))
        zero += [int(d) for d in rng.choice(decoys, size=k, replace=False)]
    table[0] = zero
    phi = LevelMap.from_table(space, ladder, table)
    seqs = SequenceSpec(a=Seq.explicit(a_tab), b=Seq.explicit(b_tab),
                        horizon=policy.horizon)
    return InductionCase(phi=phi, t=t, x=0, seqs=seqs, constructed_pass=True,
                         meta={"z_expected": L, "depth": L})


def induction_random_instance(seed: int, n_max: int = 12, l_max: int = 6,
                              density: float | None = None,
                              policy: NumericPolicy = DEFAULT_POLICY
                              ) -> InductionCase:
    """Unconstrained fibres: preconditions may fail, chains may not exist."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, n_max + 1))
    L = int(rng.integers(2, l_max))
    space = FiniteMetricSpace(metric="euclidean",
                              coords=np.sort(rng.uniform(0, 4, size=n)),
                              policy=policy)
    ladder = TLadder(np.concatenate(
        [[0.0], np.sort(rng.uniform(0.1, 3.0, size=L))]))
    t = float(ladder.levels[-1])
    dens = density if density is not None else float(rng.uniform(0.2, 0.9))
    table = {}
    for lev in range(L + 1):
        mask = rng.random(n) < dens
        table[lev] = np.nonzero(mask)[0].tolist()
    x = int(rng.integers(0, n))
    table[L] = sorted(set(table[L]) | {x})
    phi = LevelMap.from_table(space, ladder, table)
    seqs = SequenceSpec(
        a=Seq.geometric(t, float(rng.uniform(0.4, 0.6))),
        b=Seq.geometric(float(rng.uniform(0.2, 1.5)),
                        float(rng.uniform(0.5, 0.8))),
        horizon=policy.horizon)
    return InductionCase(phi=phi, t=t, x=x, seqs=seqs, constructed_pass=False)


def exhaustive_chain_verdict(case: InductionCase,
                             policy: NumericPolicy = DEFAULT_POLICY) -> str:
    """Independent oracle: set-reachability over every admissible chain.

    R_0 = {x}; R_{n+1} = points of the next fibre reachable from R_n by a
    step strictly shorter than b_n.  A chain into the zero fibre exists
    iff the final reachable set is nonempty, and any chain endpoint obeys
    the distance bound automatically (each step is < b_n).  A step d < b_n
    is read at resolution: b_n > 0, and d <= tol (d is 0) or d < b_n - tol.
    """
    tol = policy.tol_strict
    phi, seqs = case.phi, case.seqs
    levels = []
    for n in range(seqs.horizon + 1):
        a = seqs.a.value(n)
        levels.append(0 if a <= tol else phi.ladder.snap_up(a, tol))
        if levels[-1] == 0:
            break
    if levels[-1] != 0:
        return "horizon_exhausted"
    reach = {int(case.x)}
    for n in range(len(levels) - 1):
        b_n = seqs.b.value(n)
        nxt = phi.fibre(levels[n + 1]).tolist()
        reach = {int(v) for v in nxt if b_n > 0 and any(
            phi.space.d(u, int(v)) <= tol or phi.space.d(u, int(v)) < b_n - tol
            for u in reach)}
        if not reach:
            return "failed"
    return "certified"


# -- per-pair reference for the plain-map W audits ----------------------------

def _mu_inf(mu, t: float) -> float:
    return INF if t == INF else mu(t)


def ref_metric_regularity(F, W, mu, policy=DEFAULT_POLICY) -> tuple:
    """(holds, counterexample, lhs, rhs) of d(x, F^{-1}(y)) <= mu(d(y, F(x))),
    pair by pair through the map's scalar queries."""
    for (x, y) in W:
        lhs = F.dist_to_preimage(x, y)
        rhs = _mu_inf(mu, F.dist_to_image(y, x))
        if rhs == INF:
            continue
        if not policy.le(lhs, rhs):
            return False, (x, y), lhs, rhs
    return True, None, 0.0, 0.0


def ref_openness(F, W, mu, policy=DEFAULT_POLICY) -> tuple:
    """(holds, counterexample, lhs, rhs) of openness, deciding each pair at
    the smallest x-row distance (or md + diam + 1) above md = mu(d(y, F(x)))."""
    diam = F.X.diameter()
    for (x, y) in W:
        md = _mu_inf(mu, F.dist_to_image(y, x))
        if md == INF:
            continue
        lhs = F.dist_to_preimage(x, y)
        cands = np.append(F.X.dist_row(x), md + diam + 1.0)
        cands = cands[policy.lt_each(md, cands)]
        if cands.size and not lhs < cands.min():
            return False, (x, y), lhs, float(cands.min())
    return True, None, 0.0, 0.0


def ref_holder_inverse(F, W, mu, policy=DEFAULT_POLICY) -> tuple:
    """(holds, counterexample, lhs, rhs) of d(x, F^{-1}(y)) <= mu(d(y, y'))
    for each y' in F(x), in image order."""
    for (x, y) in W:
        lhs = F.dist_to_preimage(x, y)
        yrow = F.Y.dist_row(y)
        for yp in F.image(x).tolist():
            rhs = _mu_inf(mu, float(yrow[yp]))
            if rhs == INF:
                continue
            if not policy.le(lhs, rhs):
                return False, (x, y, yp), lhs, rhs
    return True, None, 0.0, 0.0


# -- per-pair reference for the parametric W audits --------------------------
# F: X x R+ => Y, each pair through the map's scalar queries; a <= b at
# resolution is a <= b + tol (+inf <= +inf), a < b is a < b - tol (a
# finite, or b = +inf)

def _le(a, b, tol):
    return b == INF or (a != INF and a <= b + tol)


def _lt(a, b, tol):
    return a != INF and (b == INF or a < b - tol)


def ref_regular_on_W(F, W, mu) -> tuple:
    """(holds, counterexample, lhs, rhs) of d(x, F_0^{-1}(y)) <= mu(delta)."""
    for (x, y) in W:
        lhs, rhs = F.dist_to_inverse(x, 0, y), _mu_inf(mu, F.delta(y, x))
        if not _le(lhs, rhs, F.policy.tol_strict):
            return False, (x, y), lhs, rhs
    return True, None, 0.0, 0.0


def ref_open_on_W(F, W, mu) -> tuple:
    """(holds, counterexample, lhs, rhs) of y in F(B(x, t), 0) for every
    t > mu(delta): y is in it iff d(x, F_0^{-1}(y)) < t, so only the
    smallest candidate radius above mu(delta), an x-row distance or one
    beyond the diameter, is compared."""
    diam, tol = F.X.diameter(), F.policy.tol_strict
    for (x, y) in W:
        md = _mu_inf(mu, F.delta(y, x))
        cands = [t for t in F.X.dist_row(x).tolist() + [md + diam + 1.0] if _lt(md, t, tol)]
        lhs = F.dist_to_inverse(x, 0, y)
        if cands and not lhs < min(cands):
            return False, (x, y), lhs, min(cands)
    return True, None, 0.0, 0.0


def ref_strong_form(F, W, mu) -> bool:
    """x in F_0^{-1}(y) where mu(delta) = 0, else d(x, F_0^{-1}(y)) <
    mu(delta), on every pair of W with mu(delta) finite."""
    for (x, y) in W:
        md = _mu_inf(mu, F.delta(y, x))
        if md != INF and not (F.contains(x, 0, y) if md == 0 else
                              _lt(F.dist_to_inverse(x, 0, y), md, F.policy.tol_strict)):
            return False
    return True


def ref_local_regularity(F, xbar, ybar, mu) -> tuple:
    """(holds, r_U, r_V, note): the walk over every pair of ball radii,
    largest r_U + r_V first, then largest r_U, each product of closed
    balls checked against the pairs that fail ref_regular_on_W."""
    bad = [(a, b) for a in range(F.X.n) for b in range(F.Y.n)
           if not ref_regular_on_W(F, [(a, b)], mu)[0]]
    dx, dy = F.X.dist_row(xbar).tolist(), F.Y.dist_row(ybar).tolist()
    for ru, rv in sorted(((ru, rv) for ru in set(dx) for rv in set(dy)),
                         key=lambda p: (-(p[0] + p[1]), -p[0], p[1])):
        if not any(dx[a] <= ru + F.X.policy.tol_strict and
                   dy[b] <= rv + F.Y.policy.tol_strict for a, b in bad):
            trivial = ru == 0.0 and rv == 0.0
            return (not trivial, ru, rv, "fails at resolution: only the singleton "
                    "neighbourhood certifies" if trivial else "")
    return False, 0.0, 0.0, "unreachable: singleton product must certify"


def ref_best_modulus(F, W, k: float = 1.0, policy=DEFAULT_POLICY) -> tuple:
    """(k, lam*, achieved_at, n_pairs): the first pair at the largest ratio
    d(x, F^{-1}(y)) / d(y, F(x))^k, or lam* = inf at the first pair with
    d(y, F(x)) ~ 0 and x far from F^{-1}(y)."""
    lam, arg, n = 0.0, None, 0
    for (x, y) in W:
        t = F.dist_to_image(y, x)
        lhs = F.dist_to_preimage(x, y)
        if t == INF:
            continue
        n += 1
        if t <= policy.tol_strict:
            if lhs > policy.tol_strict:
                return k, INF, (x, y), n
            continue
        ratio = lhs / t ** k
        if ratio > lam:
            lam, arg = float(ratio), (x, y)
    return k, lam, arg, n


# -- per-point reference for the decrease criterion --------------------------
# the loops over X that certifiers' blocked partner search replaced; each
# returns (holds, witness, detail, target, bound, confirmed)

def ref_decrease_plain(F, x, y, mu, policy=DEFAULT_POLICY) -> tuple:
    """Every u with d(y, F(u)) > 0 and d(x, u) <= mu(d(y, F(x))) -
    mu(d(y, F(u))) has a u' != u with mu(d(y, F(u'))) <= mu(d(y, F(u))) -
    d(u, u'); the witness is the first u without one."""
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
    target = F.dist_to_preimage(x, y)
    return ok, wit, "", target, mu_t, policy.le(target, mu_t)


def ref_decrease_param(F, x, t, y, mu, policy=DEFAULT_POLICY) -> tuple:
    """Every (u, tau) of F^{-1}(y), 0 < tau <= t, with d(x, u) <= mu(t) -
    mu(tau) has a (u', tau') of F^{-1}(y) with u' != u and mu(tau') <=
    mu(tau) - d(u, u'); the witness is the first (u, tau) without one, in
    (tau, u) order.  (x, t, y) must lie on the graph, with t > 0."""
    if not (mu.continuous and mu.vanishes_only_at_zero):
        raise ModulusError("decrease criterion needs continuous mu vanishing only at 0")
    t_idx = F.ladder.index_of(t, policy.tol_strict)
    assert t_idx > 0 and F.contains(x, t_idx, y)
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
    target = F.dist_to_inverse(x, 0, y)
    return ok, wit, det, target, mu_t, policy.le(target, mu_t)


# -- a sampled, one-way oracle for the second-order CQ -----------------------

def sampled_cq(inst, trip, rng: np.random.Generator) -> bool:
    """Every signed axis of Z x W in the cone of sampled generators of
    cone((D2G+ - A2(-D, zbar, k), D2H)(IT2(S, xbar, u))) + cl cone(D +
    zbar) x {0}.

    The generators are (z - d, w) for one LP point z of the TG2 slice and
    one w of the TH2 slice at each sampled x of the strict set IT2, with d
    the apex 0 or a sample of A2 (only 0 when A2 is empty), and (p, 0) for
    samples p of cl cone(D + zbar).  Each is a point of the cone, so a
    pass shows the CQ; a fail shows nothing.
    """
    sets = optcond._triple_sets(inst, trip)
    n, q, r = inst.n, inst.q, inst.r
    IT2, TG2, TH2, A2 = sets.S2.IT2, sets.TG2, sets.TH2, sets.A2
    gens = [np.concatenate([p, np.zeros(r)])
            for p in sample_cone_points(inst.D_hull(), 16, rng)]
    if TG2 is not None and TH2 is not None:
        ds = [np.zeros(q)]
        if A2 is not None:
            ds += list(sample_cone_points(A2, 8, rng))
        for x in sample_cone_points(IT2, 32, rng):
            if IT2.m and not (IT2.A @ x < -POLY_TOL).all():
                continue
            z, w = (linsolve.feasible_point(T.dim - n, T.A[:, n:],
                                            T.b - T.A[:, :n] @ x).point
                    for T in (TG2, TH2))
            if z is not None and w is not None:
                gens += [np.concatenate([z - d, w]) for d in ds]
    return all(linsolve.in_cone_of(np.array(gens), sgn * e)
               for e in np.eye(q + r) for sgn in (1.0, -1.0))
