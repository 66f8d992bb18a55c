"""Second-order optimality machinery for polyhedral problem data.

Problem layout: minimize a set-valued objective F: R^n => R^p with
respect to an open convex ordering cone Q, subject to x in S,
G(x) meeting -D, and 0 in H(x), with S, D, Q polyhedral and F, G, H
given by graph polyhedra.  Everything reduces to linear feasibility /
linear programming, so every verdict is exact up to solver tolerance;
quantities defined through limits additionally carry sampled-limit
cross-checks at gamma_n = 2^-n.

Conventions: Q is stored through its closure (a polyhedral cone) and
treated as its interior; bd Q is the union of the facet-equality slices
of that closure.  A derivative set is None only when it is known empty
without an LP (a direction pair off the tangent cone, a slice row
0 <= rhs < 0); the LP that uses any other set reports it empty.
Memberships and re-checks are read at `policy.POLY_TOL`.

Everything the rule needs at one critical triple that depends on neither
the sampled x nor the multipliers (the joint second-order cones of the
F+, G+ and H graphs, the second-order sets of S and A2(-D, zbar, k)) is
built once per triple (u, v, k) and instance by `_triple_sets`, and F+,
G+ and cl cone(D + zbar) once per instance; `OptInstance` keeps them,
read-only, for every later call.  Every slice {e : (x, e) in T} is cut by
one `_Slicer` per graph or cone, so a sampled x costs the slice's
right-hand side and one LP family member, no polyhedron; a slicer takes
all sampled x at once and solves their members as one batch.

The multiplier search samples nothing: `find_multipliers` states the rule
over the closed second-order set of S through LP duality and solves one
linear program per sign pattern of w*.  Its candidates are judged by two
oracles that share none of that program: `exact_rule_margin`, the primal
joint LP at fixed multipliers, and `check_multiplier_rule`, the rule at
sampled points of the strict set.  Nor does `check_cq` sample: it decides
the constraint qualification by one LP family, one member per signed axis.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from functools import cached_property
from itertools import product
from typing import Optional

import numpy as np

from . import linsolve
from .policy import POLY_TOL, RegkitError
from .polyhedra import (Polyhedron, SecondOrderSets, cone_hull_shifted,
                        fourier_motzkin, matvecs, normal_cone_generators,
                        sample_cone_points, sample_directions,
                        sampled_second_order_membership, second_order_sets,
                        tangent_cone)


class OptError(RegkitError, ValueError):
    pass


# -- polyhedral set-valued mappings ----------------------------------------

@dataclass
class PolyMapSpec:
    """E: R^n => R^m through its graph polyhedron in R^{n+m}."""

    graph: Polyhedron
    n_in: int
    n_out: int

    def __post_init__(self):
        if self.graph.dim != self.n_in + self.n_out:
            raise OptError("graph dimension mismatch")

    @cached_property
    def _slicer(self) -> "_Slicer":
        return _Slicer(self.graph, self.n_in)

    def value_polyhedron(self, x) -> Optional[Polyhedron]:
        """E(x) in the output space; None when known empty without an LP."""
        return self._slicer.at(x)

    def contains(self, x, y) -> bool:
        return self.graph.contains(np.concatenate([x, y]))

    def dist_to_value(self, y, x) -> float:
        """d_inf(y, E(x)); +inf when E(x) is empty."""
        V = self.value_polyhedron(x)
        return np.inf if V is None else V.linf_distance(np.asarray(y, dtype=float))


def graph_plus_cone(E: PolyMapSpec, K: Polyhedron) -> PolyMapSpec:
    """The augmented mapping x => E(x) + K, K a polyhedral cone in the range.

    gph(E + K) is the projection of {(x, y, q) : (x, y - q) in gph E,
    q in K} onto (x, y), computed by eliminating q.
    """
    if K.dim != E.n_out:
        raise OptError("cone lives in the wrong space")
    n, m = E.n_in, E.n_out
    Ag, bg = E.graph.A, E.graph.b
    Ax, Ay = Ag[:, :n], Ag[:, n:]
    lifted_A = np.vstack([
        np.hstack([Ax, Ay, -Ay]),
        np.hstack([np.zeros((K.m, n + m)), K.A]),
    ])
    lifted_b = np.concatenate([bg, K.b])
    A2, b2 = fourier_motzkin(lifted_A, lifted_b,
                             list(range(n + m, n + 2 * m)))
    return PolyMapSpec(Polyhedron(A2, b2), n, m)


# -- graph derivatives ------------------------------------------------------

def _graph_tangent_cone(E: PolyMapSpec, xbar, ebar) -> Polyhedron:
    """T(gph E, (xbar, ebar)) in (x, e)."""
    base = np.concatenate([np.asarray(xbar, float), np.asarray(ebar, float)])
    if not E.graph.contains(base):
        raise OptError("base point off the graph")
    return tangent_cone(E.graph, base)


class _Slicer:
    """The slices {e : (x, e) in T} of one polyhedron T (None: empty) at
    varying x in R^n, and, given c, min <c, e> over them as one LP family.

    A slice keeps T's rows with an e-part; it is None, with no LP, when a
    row without one reads 0 <= rhs < -POLY_TOL, and any other empty slice
    is left to its LP.  The kept rows do not depend on x, so neither does
    the slice's normalized matrix `cone.A`.  `at(x)` normalizes the raw
    kept rows and rhs once; `rhs(xs)` gives the b of the slices at many x
    at once, with no polyhedron built.
    """

    def __init__(self, T: Optional[Polyhedron], n: int, c=None):
        self.cone = None
        if T is None:
            return
        Ay = T.A[:, n:]
        self._keep = np.abs(Ay).max(axis=1, initial=0.0) > 1e-12
        self._Ax, self._b, self._Ay = T.A[:, :n], T.b, Ay[self._keep]
        self._norms = np.linalg.norm(self._Ay, axis=1)
        self.cone = Polyhedron(self._Ay, np.zeros(self._Ay.shape[0]))
        if c is not None:
            self.family = linsolve.LPFamily(c, A_ub=self.cone.A)

    def _raw_rhs(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """(ok, R) for the points x of xs (T not None): ok marks the x
        whose slice is not known empty, and R holds, in order, their
        slices' raw right-hand sides, each x's own product with T's
        x-part."""
        X = np.asarray(xs, dtype=float).reshape(len(xs), self._Ax.shape[1])
        raw = self._b - matvecs(self._Ax, X)
        ok = ~(raw[:, ~self._keep] < -POLY_TOL).any(axis=1)
        return ok, raw[ok][:, self._keep]

    def at(self, x) -> Optional[Polyhedron]:
        if self.cone is None:
            return None
        ok, R = self._raw_rhs([x])
        return Polyhedron(self._Ay, R[0]) if ok[0] else None

    def rhs(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """(ok, B) for the points x of xs: ok marks the x whose slice is
        not known empty, and B holds, in order, their slices' b."""
        if self.cone is None:
            return np.zeros(len(xs), dtype=bool), np.zeros((0, 0))
        ok, R = self._raw_rhs(xs)
        return ok, R / self._norms

    def minimum(self, xs) -> tuple[np.ndarray, list]:
        """inf <c, e> over the slice at each x of xs and a minimizer:
        (+inf, None) over the empty set, (-inf, None) when unbounded."""
        vals, args = np.full(len(xs), np.inf), [None] * len(xs)
        ok, B = self.rhs(xs)
        if ok.any():
            vals[ok], found = self.family.minima(B)
            for i, arg in zip(np.flatnonzero(ok).tolist(), found):
                args[i] = arg
        return vals, args


def _joint_second_order_graph(E: PolyMapSpec, xbar, ebar, u,
                              v) -> Optional[Polyhedron]:
    """Unsliced second-order derivative set in (x, e); None when the
    direction pair leaves the graph's tangent cone."""
    direction = np.concatenate([np.asarray(u, float), np.asarray(v, float)])
    T = _graph_tangent_cone(E, xbar, ebar)
    if not T.contains(direction):
        return None
    return tangent_cone(T, direction)


def second_order_graph_derivative(E: PolyMapSpec, xbar, ebar, u, v,
                                  x) -> Optional[Polyhedron]:
    """D2E(xbar, ebar, u, v)(x), the second-order derivative set at x.

    None when (u, v) leaves the graph's tangent cone or the slice is
    known empty without an LP; otherwise the slice of the nested tangent
    cone, which equals both the contingent and adjacent second-order
    sets for polyhedral graphs.
    """
    return _Slicer(_joint_second_order_graph(E, xbar, ebar, u, v),
                   np.size(x)).at(x)


# -- problem instances ------------------------------------------------------

@dataclass
class OptInstance:
    n: int
    p: int
    q: int
    r: int
    S: Polyhedron
    C: Polyhedron          # ordering cone in Y (closure)
    D: Polyhedron          # cone in Z, nonempty interior
    Q: Polyhedron          # solution cone in Y (closure of the open cone)
    F: PolyMapSpec
    G: PolyMapSpec
    H: PolyMapSpec
    xbar: np.ndarray
    ybar: np.ndarray
    zbar: np.ndarray
    # derived data, built once per instance (see `_once`)
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        self.xbar = np.asarray(self.xbar, dtype=float)
        self.ybar = np.asarray(self.ybar, dtype=float)
        self.zbar = np.asarray(self.zbar, dtype=float)

    def validate(self) -> list[str]:
        """Feasibility of the base triple plus cone sanity; returns problems."""
        bad = []
        if not self.S.contains(self.xbar):
            bad.append("xbar outside S")
        if not self.F.contains(self.xbar, self.ybar):
            bad.append("ybar not in F(xbar)")
        if not self.G.contains(self.xbar, self.zbar):
            bad.append("zbar not in G(xbar)")
        if not self.minus_D().contains(self.zbar):
            bad.append("zbar not in -D")
        if not self.H.contains(self.xbar, np.zeros(self.r)):
            bad.append("0 not in H(xbar)")
        for name, K in (("C", self.C), ("Q", self.Q), ("D", self.D)):
            if not K.is_cone():
                bad.append(f"{name} is not a cone")
            elif not _pointed(K):
                bad.append(f"{name} is not pointed")
        if not self.D.has_nonempty_interior():
            bad.append("D has empty interior")
        if not self.Q.has_nonempty_interior():
            bad.append("Q has empty interior")
        return bad

    def _once(self, key, build):
        """The derived value under key, built by `build()` on first use,
        its polyhedra made read-only."""
        if key not in self._memo:
            self._memo[key] = value = build()
            _read_only(value)
        return self._memo[key]

    def F_plus(self) -> PolyMapSpec:
        return self._once("F+", lambda: graph_plus_cone(self.F, self.Q))

    def G_plus(self) -> PolyMapSpec:
        return self._once("G+", lambda: graph_plus_cone(self.G, self.D))

    def D_hull(self) -> Polyhedron:
        """cl cone(D + zbar) (see `cone_hull_shifted`)."""
        return self._once("cone(D + zbar)",
                          lambda: cone_hull_shifted(self.D, self.zbar))

    def minus_D(self) -> Polyhedron:
        return Polyhedron(-self.D.A, self.D.b)

    def feasible_set(self) -> Polyhedron:
        """Omega = {x in S : G(x) meets -D, 0 in H(x)}, z eliminated."""
        n, q = self.n, self.q
        AG, bG = self.G.graph.A, self.G.graph.b
        AH, bH = self.H.graph.A, self.H.graph.b
        H0A = AH[:, :n]
        H0b = bH - AH[:, n:] @ np.zeros(self.r)
        lifted_A = np.vstack([
            np.hstack([self.S.A, np.zeros((self.S.m, q))]),
            np.hstack([H0A, np.zeros((H0A.shape[0], q))]),
            AG,
            np.hstack([np.zeros((self.D.m, n)), -self.D.A]),
        ])
        lifted_b = np.concatenate([self.S.b, H0b, bG, self.D.b])
        A2, b2 = fourier_motzkin(lifted_A, lifted_b, list(range(n, n + q)))
        return Polyhedron(A2, b2)


def _read_only(value):
    """Make the matrices of every polyhedron in a dataclass read-only."""
    if isinstance(value, Polyhedron):
        value.A.flags.writeable = value.b.flags.writeable = False
    elif is_dataclass(value):
        for f in fields(value):
            _read_only(getattr(value, f.name))


def _pointed(K: Polyhedron) -> bool:
    """K cap -K = {0}.  The lineality space of {x : A x <= 0} is the null
    space of A, so pointedness is a rank condition."""
    if K.m == 0:
        return K.dim == 0
    return int(np.linalg.matrix_rank(K.A, tol=1e-10)) == K.dim


# -- critical directions ----------------------------------------------------

@dataclass
class CriticalTriple:
    u: np.ndarray
    v: np.ndarray
    k: np.ndarray


def _point_on_minus_boundary(K: Polyhedron, inside: Polyhedron):
    """A point v with v in `inside`, -v in K, and -v on some facet of K."""
    # -v in K and v in the derivative polyhedron, facet i tight
    A_ub = np.vstack([-K.A, inside.A])
    b_ub = np.concatenate([K.b, inside.b])
    for i in range(K.m):
        A_eq = -K.A[i][None, :]
        b_eq = np.array([K.b[i]])
        res = linsolve.feasible_point(K.dim, A_ub, b_ub, A_eq, b_eq)
        if res.feasible:
            return res.point
    return None


def critical_directions(inst: OptInstance, n_dirs: int = 64,
                        rng: Optional[np.random.Generator] = None
                        ) -> list[CriticalTriple]:
    """Sampled enumeration of the critical-direction system.

    Candidate u come from a direction sample plus the coordinate axes;
    a u outside T(S, xbar) is skipped (IT2(S, xbar, u) is empty there).
    For each remaining u the three memberships are resolved by linear
    feasibility: v in DF+(xbar, ybar)(u) meeting -bd Q (facet by facet),
    k in DG+(xbar, zbar)(u) meeting -cl cone(D + zbar), and (u, 0) in
    the tangent cone of gph H.  The v and k that LPs find are re-checked at
    `POLY_TOL`.  An empty list is a valid outcome.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    cands = np.vstack([np.zeros(inst.n), np.eye(inst.n), -np.eye(inst.n),
                       sample_directions(inst.n, n_dirs, rng)])

    # first-order cones at the base point; u in TS and (u, 0) in TH for all
    # candidates at once, as `Polyhedron.contains` reads them (the zeros
    # stay: TH.A[:, :n] @ u would sum in another order)
    TS = tangent_cone(inst.S, inst.xbar)
    TH = tangent_cone(inst.H.graph,
                      np.concatenate([inst.xbar, np.zeros(inst.r)]))
    padded = np.hstack([cands, np.zeros((len(cands), inst.r))])
    cands = cands[(matvecs(TS.A, cands) - TS.b <= POLY_TOL).all(axis=1)
                  & (matvecs(TH.A, padded) - TH.b <= POLY_TOL).all(axis=1)]
    sv = _Slicer(_graph_tangent_cone(inst.F_plus(), inst.xbar, inst.ybar),
                 inst.n)
    sk = _Slicer(_graph_tangent_cone(inst.G_plus(), inst.xbar, inst.zbar),
                 inst.n)
    big_cone = inst.D_hull()

    out: list[CriticalTriple] = []
    for u in cands:
        DV = sv.at(u)
        if DV is None:
            continue
        v = _point_on_minus_boundary(inst.Q, DV)
        if v is None:
            continue
        DK = sk.at(u)
        if DK is None:
            continue
        # k = 0 first when admissible: it carries no orthogonality
        # constraint on k*, so multipliers are most often found there
        kcands = []
        zero_k = np.zeros(inst.q)
        if DK.contains(zero_k) and big_cone.contains(zero_k):
            kcands.append(zero_k)
        A_ub = np.vstack([DK.A, -big_cone.A])
        b_ub = np.concatenate([DK.b, big_cone.b])
        resk = linsolve.feasible_point(inst.q, A_ub, b_ub)
        if resk.feasible and (not kcands
                              or np.abs(resk.point - zero_k).max() > POLY_TOL):
            kcands.append(resk.point)
        # v in DV, -v in Q and on one of its facets, re-checked at POLY_TOL
        if not (DV.contains(v) and inst.Q.contains(-v) and (inst.Q.m == 0 or (
                np.abs(inst.Q.A @ -v - inst.Q.b) <= POLY_TOL).any())):
            continue
        out += [CriticalTriple(u=u.copy(), v=v, k=k)
                for k in kcands if DK.contains(k) and big_cone.contains(-k)]
    return out


# -- the multiplier rule ----------------------------------------------------

@dataclass
class Multipliers:
    v_star: np.ndarray
    k_star: np.ndarray
    w_star: np.ndarray

    def nonzero(self, tol: float = 1e-12) -> bool:
        return max(np.abs(self.v_star).max(initial=0.0),
                   np.abs(self.k_star).max(initial=0.0),
                   np.abs(self.w_star).max(initial=0.0)) > tol


def dual_cone_generators(K: Polyhedron) -> np.ndarray:
    """Generators of K* = {v : <v, x> >= 0 on K} for K = {x : A x <= 0}.

    The polar of K is the cone of the rows of A, so the dual is the cone
    of their negatives.
    """
    return -K.A.copy()


@dataclass
class RuleVerdict:
    holds: bool
    margin: float
    rhs: float
    argmin: Optional[tuple] = None
    n_samples: int = 0
    notes: list[str] = field(default_factory=list)


def a2_of_minus_D(inst: OptInstance, k) -> Optional[Polyhedron]:
    """A2(-D, zbar, k); None (empty) when k leaves the tangent cone."""
    mD = inst.minus_D()
    if not tangent_cone(mD, inst.zbar).contains(k):
        return None
    return second_order_sets(mD, inst.zbar, k).A2


@dataclass
class _TripleSets:
    """What the rule needs at one critical triple, independent of the
    sampled x and of the multipliers.

    TF2, TG2 and TH2 are the joint second-order cones in (x, e) of the F+,
    G+ and H graphs along (u, v), (u, k) and (u, 0), each None when that
    pair leaves the graph's tangent cone; slicing one at x gives the
    second-order derivative set at x (see `slicers`).
    """

    S2: SecondOrderSets             # second-order sets of S at (xbar, u)
    A2: Optional[Polyhedron]        # A2(-D, zbar, k)
    TF2: Optional[Polyhedron]
    TG2: Optional[Polyhedron]
    TH2: Optional[Polyhedron]

    def slicers(self, n: int, cs) -> list[_Slicer]:
        """One slicer of TF2, TG2 and TH2 each, minimizing <c, .> for the
        matching c of `cs`."""
        return [_Slicer(T, n, c)
                for T, c in zip((self.TF2, self.TG2, self.TH2), cs)]


def _triple_sets(inst: OptInstance, trip: CriticalTriple) -> _TripleSets:
    """The triple's sets, built once per (u, v, k) on the instance."""
    zero = np.zeros(inst.r)
    key = tuple(np.asarray(a, dtype=float).tobytes()
                for a in (trip.u, trip.v, trip.k))
    return inst._once(key, lambda: _TripleSets(
        S2=second_order_sets(inst.S, inst.xbar, trip.u),
        A2=a2_of_minus_D(inst, trip.k),
        TF2=_joint_second_order_graph(inst.F_plus(), inst.xbar, inst.ybar,
                                      trip.u, trip.v),
        TG2=_joint_second_order_graph(inst.G_plus(), inst.xbar, inst.zbar,
                                      trip.u, trip.k),
        TH2=_joint_second_order_graph(inst.H, inst.xbar, zero, trip.u, zero)))


def check_multiplier_rule(inst: OptInstance, trip: CriticalTriple,
                          mult: Multipliers, n_samples: int = 32,
                          rng: Optional[np.random.Generator] = None
                          ) -> RuleVerdict:
    """Verify the second-order rule at sampled second-order directions.

    The right-hand side sup over A2(-D, zbar, k) of <k*, d> is an exact
    LP value (-inf on the empty set, in which case the inequality is
    vacuously true on the d-side).  The left-hand side is minimized over
    each of the three derivative sets at every sampled x from the strict
    second-order set of S; the verdict reports the worst margin.  This
    is the sampled oracle for the joint LP of `exact_rule_margin` and
    never solves it.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    sets = _triple_sets(inst, trip)
    notes: list[str] = []
    if not mult.nonzero():
        raise OptError("multiplier invariant: (v*, k*, w*) = 0")
    if not linsolve.in_cone_of(dual_cone_generators(inst.Q), mult.v_star):
        raise OptError("multiplier invariant: v* outside the dual cone of Q")
    Ngen = normal_cone_generators(inst.minus_D(), inst.zbar)
    if not linsolve.in_cone_of(Ngen, mult.k_star):
        raise OptError("multiplier invariant: k* outside N(-D, zbar)")
    if abs(mult.v_star @ trip.v) > 1e-7 or abs(mult.k_star @ trip.k) > 1e-7:
        raise OptError("multiplier invariant: orthogonality fails")

    A2 = sets.A2
    if A2 is None:
        rhs = -np.inf
        notes.append("A2(-D, zbar, k) empty: d-side vacuous")
    else:
        rhs, _ = linsolve.max_support(mult.k_star, inst.q, A2.A, A2.b)
        if rhs == np.inf:
            return RuleVerdict(False, -np.inf, rhs,
                               notes=["rhs unbounded: rule vacuous/violated"])

    IT2 = sets.S2.IT2
    xs = sample_cone_points(IT2, n_samples, rng)

    slicers = sets.slicers(inst.n, (mult.v_star, mult.k_star, mult.w_star))
    if IT2.m:
        xs = xs[(matvecs(IT2.A, xs) < -POLY_TOL).all(axis=1)]
    (fy, ay), (gz, az), (hw, aw) = (s.minimum(xs) for s in slicers)
    lhs = fy + gz + hw
    # inf + (-inf) is NaN: an empty set wins, vacuous at that x
    used = np.flatnonzero(~np.isnan(lhs))
    if used.size == 0:
        notes.append("no admissible sample: inequality vacuous at resolution")
        return RuleVerdict(True, np.inf, rhs, n_samples=0, notes=notes)
    margins = lhs[used] - rhs if rhs > -np.inf else np.full(used.size, np.inf)
    j = margins.argmin()            # the first x at the least margin
    worst, i = float(margins[j]), used[j]
    arg = None if worst == np.inf else (xs[i].copy(), ay[i], az[i], aw[i])
    return RuleVerdict(bool(worst >= -POLY_TOL), worst, float(rhs),
                       argmin=arg, n_samples=used.size, notes=notes)


def _lay(width: int, *blocks) -> np.ndarray:
    """Rows of `width` columns, zero but for each (start, M) of blocks,
    whose columns M fills from column start on; every M has as many rows."""
    rows = np.zeros((blocks[0][1].shape[0], width))
    for start, M in blocks:
        rows[:, start:start + M.shape[1]] = M
    return rows


def _joint_rule_system(inst: OptInstance, sets: _TripleSets):
    """Inequality system over (x, y, z, w) whose slice at x gives the
    three left-hand-side sets of the rule; None when some derivative set
    is globally empty (the inequality is then vacuous)."""
    TF, TG, TH = sets.TF2, sets.TG2, sets.TH2
    if TF is None or TG is None or TH is None:
        return None
    n, p, q, r = inst.n, inst.p, inst.q, inst.r
    A2S = sets.S2.A2
    nvar = n + p + q + r
    A_ub = np.vstack([
        _lay(nvar, (0, A2S.A)),
        _lay(nvar, (0, TF.A[:, :n]), (n, TF.A[:, n:])),
        _lay(nvar, (0, TG.A[:, :n]), (n + p, TG.A[:, n:])),
        _lay(nvar, (0, TH.A[:, :n]), (n + p + q, TH.A[:, n:])),
    ])
    b_ub = np.concatenate([A2S.b, TF.b, TG.b, TH.b])
    return A_ub, b_ub


_BOX = 1e6


def exact_rule_margin(inst: OptInstance, trip: CriticalTriple,
                      mult: Multipliers) -> float:
    """Exact worst-case margin of the rule over the closed second-order
    set of S, via one joint linear program in (x, y, z, w).

    The closure over-covers the strict set, so a nonnegative value here
    certifies the sampled inequality at every admissible point; +inf
    means the inequality is vacuous (empty d-side or no admissible x).
    Both programs are boxed at `_BOX`, so a left-hand side unbounded
    below, or a right-hand side unbounded above, shows as a large
    negative margin.
    """
    sets = _triple_sets(inst, trip)
    A2, system = sets.A2, _joint_rule_system(inst, sets)
    if A2 is None or system is None:
        return np.inf
    res_d = linsolve.solve_lp(-mult.k_star,
                              A_ub=A2.A if A2.m else None,
                              b_ub=A2.b if A2.m else None,
                              bounds=(-_BOX, _BOX))
    if res_d.status == 2:
        return np.inf
    if res_d.status != 0:
        raise OptError(f"rule rhs LP failed with status {res_d.status}")
    rhs = -float(res_d.fun)
    A_ub, b_ub = system
    c = np.concatenate([np.zeros(inst.n), mult.v_star, mult.k_star,
                        mult.w_star])
    res = linsolve.solve_lp(c, A_ub=A_ub, b_ub=b_ub, bounds=(-_BOX, _BOX))
    if res.status == 2:
        return np.inf
    if res.status != 0:
        raise OptError(f"joint rule LP failed with status {res.status}")
    return float(res.fun - rhs)


def find_multipliers(inst: OptInstance, trip: CriticalTriple,
                     n_samples: int = 16,
                     rng: Optional[np.random.Generator] = None
                     ) -> Optional[Multipliers]:
    """Search for multipliers by one linear program per sign pattern.

    v* = GQ^T alpha over the dual-cone generators of Q, k* = GN^T beta
    over the normal-cone generators of -D at zbar and w* = sigma * s for
    a sign pattern sigma, with alpha, beta, s >= 0, the orthogonality
    equalities and sum(alpha, beta, s) = 1, the exact 1-norm
    normalization for that pattern.  At fixed multipliers the rule reads
    min <c, u> over the joint system {A u <= b} of `exact_rule_margin`
    >= sup <k*, d> over A2 = {A2 d <= b2}, with c = (0, v*, k*, w*).  By
    LP duality (the robust counterpart of a linear constraint: Ben-Tal,
    El Ghaoui & Nemirovski, Robust Optimization, 2009, ch. 1) it holds
    iff some lambda, mu >= 0 have A^T lambda + c = 0, A2^T mu = k* and
    b^T lambda + b2^T mu <= 0, which is linear in (alpha, beta, s,
    lambda, mu).  When A2 or a derivative set is empty, the rule is
    vacuous and those rows are dropped.  The joint system is never empty
    otherwise: its blocks are tangent cones of tangent cones, so b = 0
    and u = 0 meets it; an OptError is raised if some b < 0.

    Each LP maximizes the alpha-mass, so that normality (v* != 0) is
    found when available.  A candidate is kept once the primal LP of
    `exact_rule_margin` reads >= -1e-9; the one with the largest
    alpha-mass is returned, the first on a tie, and None when no
    candidate passes.  The LPs decide the rule over the closed
    second-order set of S, which contains the strict one, so None does
    not refute multipliers for the strict set.  The sampled oracle
    `check_multiplier_rule` is left to the caller.  `n_samples` and
    `rng` are accepted for existing callers and ignored: the search
    draws nothing.
    """
    sets = _triple_sets(inst, trip)
    system = _joint_rule_system(inst, sets)
    GQ = dual_cone_generators(inst.Q)                    # rows
    GN = normal_cone_generators(inst.minus_D(), inst.zbar)
    nq, nn, r = GQ.shape[0], GN.shape[0], inst.r
    nw = nq + nn + r                    # the weights (alpha, beta, s)

    # orthogonality and normalization
    A_eq = np.zeros((3, nw))
    A_eq[0, :nq] = GQ @ trip.v
    A_eq[1, nq:nq + nn] = GN @ trip.k
    A_eq[2] = 1.0
    b_eq = np.array([0.0, 0.0, 1.0])
    A_ub = b_ub = signs = None
    if system is not None and (system[1] < 0).any():
        raise OptError("multiplier rule: the joint system is not a cone")
    if sets.A2 is not None and system is not None:
        # the dual rows in (weights, lambda, mu): A^T lambda + c(m) = 0,
        # A2^T mu - k* = 0 and b^T lambda + b2^T mu <= 0
        (A, b), A2 = system, sets.A2
        n, p, q = inst.n, inst.p, inst.q
        cm = np.zeros((A.shape[1], nw))
        cm[n:n + p, :nq] = GQ.T
        cm[n + p:n + p + q, nq:nq + nn] = GN.T
        km = np.zeros((q, nw))
        km[:, nq:nq + nn] = -GN.T
        A_eq = np.block([
            [A_eq, np.zeros((3, len(b) + A2.m))],
            [cm, A.T, np.zeros((A.shape[1], A2.m))],
            [km, np.zeros((q, len(b))), A2.A.T]])
        b_eq = np.concatenate([b_eq, np.zeros(A.shape[1] + q)])
        A_ub = np.concatenate([np.zeros(nw), b, A2.b])[None, :]
        b_ub = np.zeros(1)
        # where sigma goes: the w rows of c(m), the s columns
        signs = (3 + n + p + q + np.arange(r), nq + nn + np.arange(r))

    # prefer alpha-mass: normality when the data allows it
    c = np.zeros(A_eq.shape[1])
    c[:nq] = -1.0
    candidates = []
    for pattern in product((1.0, -1.0), repeat=r):
        sigma = np.array(pattern)
        if signs is not None:
            A_eq[signs] = sigma
        res = linsolve.solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq,
                                b_eq=b_eq, bounds=(0, None))
        if res.status != 0:
            continue
        sol = np.asarray(res.x)
        mult = Multipliers(
            v_star=sol[:nq] @ GQ, k_star=sol[nq:nq + nn] @ GN,
            w_star=sigma * sol[nq + nn:nw])
        if mult.nonzero(POLY_TOL) \
                and exact_rule_margin(inst, trip, mult) >= -POLY_TOL:
            candidates.append((float(sol[:nq].sum()), mult))
    if not candidates:
        return None
    return max(candidates, key=lambda c: c[0])[1]


# -- constraint qualification ----------------------------------------------

@dataclass
class CQVerdict:
    holds: bool
    reached: int                   # signed axes reached, in axis order
    needed: int                    # q + r, the dimension of Z x W
    missing: Optional[np.ndarray] = None


def check_cq(inst: OptInstance, trip: CriticalTriple,
             rng: Optional[np.random.Generator] = None) -> CQVerdict:
    """The second-order constraint qualification, decided by one LP family.

    The CQ asks whether cone((D2G+ - A2(-D, zbar, k), D2H)(IT2(S, xbar,
    u))) + cl cone(D + zbar) x {0} is all of Z x W, that is, whether it
    contains every signed axis e of Z x W (+e1, -e1, +e2, ...).  The member
    of axis e maximizes s over (x, z, w, d, p, t, s) subject to IT2 x + s
    <= 0, (x, z) in TG2, (x, w) in TH2, d in A2(-D, zbar, k) (d = 0 when
    A2 is empty), p in D, t >= 0, s <= 1 and (z - d + p + t zbar, w) = e;
    only b_eq changes from axis to axis.  The axis is reached when s >
    `POLY_TOL`, the one tolerance at which memberships are read, so that
    x lies in the strict second-order set of S.  The first axis not
    reached, infeasible included, is returned as `missing`; every axis is
    missing when TG2 or TH2 is empty.  `rng` is accepted for existing
    callers and ignored: the check draws nothing.
    """
    sets = _triple_sets(inst, trip)
    IT2, TG2, TH2, A2 = sets.S2.IT2, sets.TG2, sets.TH2, sets.A2
    n, q, r = inst.n, inst.q, inst.r
    axes = [sgn * e for e in np.eye(q + r) for sgn in (1.0, -1.0)]
    if TG2 is None or TH2 is None:
        return CQVerdict(False, 0, q + r, axes[0])
    if A2 is None:
        A2 = Polyhedron(np.vstack([np.eye(q), -np.eye(q)]), np.zeros(2 * q))
    # the columns of x, z, w, d, p, t and s start at these
    x, z, w, d, p, t, s, width = np.cumsum([0, n, q, r, q, q, 1, 1])
    A_ub = np.vstack([
        _lay(width, (x, IT2.A), (s, np.ones((IT2.m, 1)))),
        _lay(width, (x, TG2.A[:, :n]), (z, TG2.A[:, n:])),
        _lay(width, (x, TH2.A[:, :n]), (w, TH2.A[:, n:])),
        _lay(width, (d, A2.A)),
        _lay(width, (p, inst.D.A)),
        # -t <= 0 and s <= 1 as rows: a family has one bounds pair
        _lay(width, (t, np.diag([-1.0, 1.0])))])
    b_ub = np.concatenate([IT2.b, TG2.b, TH2.b, A2.b, inst.D.b, [0.0, 1.0]])
    A_eq = np.vstack([
        _lay(width, (z, np.eye(q)), (d, -np.eye(q)), (p, np.eye(q)),
             (t, inst.zbar[:, None])),
        _lay(width, (w, np.eye(r)))])
    c = np.zeros(width)
    c[s] = -1.0                      # maximize s
    family = linsolve.LPFamily(c, A_ub=A_ub, A_eq=A_eq)
    for i, e in enumerate(axes):
        res = family.solve(b_ub=b_ub, b_eq=e)
        if res.status not in (0, 2):
            raise OptError(f"CQ axis LP failed with status {res.status}")
        if res.status == 2 or -res.fun <= POLY_TOL:
            return CQVerdict(False, i, q + r, e)
    return CQVerdict(True, len(axes), q + r)


# -- the lower-estimate construction ----------------------------------------

@dataclass
class Claim2Report:
    verified: list[np.ndarray] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    gate: list[tuple[str, bool]] = field(default_factory=list)
    vacuous: bool = False          # empty quantification domain

    @property
    def gate_ok(self) -> bool:
        return all(ok for _, ok in self.gate)

    @property
    def holds(self) -> bool:
        return self.gate_ok and (len(self.verified) > 0 or self.vacuous)


def check_claim2(inst: OptInstance, trip: CriticalTriple, Hext, mu, theta: float,
                 rng: Optional[np.random.Generator] = None) -> Claim2Report:
    """Follow the lower-estimate construction for the feasible set.

    `Hext` supplies delta(0, Hext, x) for points x of a discretized
    neighborhood (see `BallExtension` for the default); the gate checks
    delta <= theta * d(0, H(x)) on those samples, Hext agreeing with H at
    level 0, and limsup mu(t)/t < inf on small-t samples.  Then, for
    sampled x in IT2(S, xbar, u) whose second-order G-derivative meets
    the strict second-order set of -D and with 0 in the H-derivative,
    perturbed points in H^{-1}(0) cap S within the proof's bound
    mu(theta/2 gamma^2 |w|) + gamma^3 are produced at each gamma level,
    and membership of x in T2(Omega, xbar, u) is confirmed by the
    sampled-limit test.  At most 8 points x are sampled.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    rep = Claim2Report()
    levels = 12         # gamma = 2^-1 .. 2^-12

    # gate 1: extension bound on the discretized neighborhood
    ok_ext, ok_zero = Hext.audit(inst.H, theta)
    rep.gate.append(("delta <= theta * d(0, H(x))", ok_ext))
    rep.gate.append(("Hext agrees with H at level 0", ok_zero))
    # gate 2: mu(t)/t bounded for small t
    ts = 0.5 ** np.arange(4, 24)
    ratios = np.array([mu(float(t)) / t for t in ts])
    bounded = bool(ratios.max(initial=0.0) <= 2.0 * ratios[:4].max() + 1e3) \
        and np.isfinite(ratios).all() and ratios[-1] <= ratios[0] * 4 + 1e3
    rep.gate.append(("limsup mu(t)/t finite (sampled)", bounded))
    if not rep.gate_ok:
        raise OptError("claim-2 gate failed: "
                       + ", ".join(n for n, ok in rep.gate if not ok))

    sets = _triple_sets(inst, trip)
    IT2, A2mD = sets.S2.IT2, sets.A2     # A2(-D) and IT2(-D) share rows
    Omega = inst.feasible_set()
    # H^{-1}(0) cap S as a polyhedron in x
    AH, bH = inst.H.graph.A, inst.H.graph.b
    Hinv = Polyhedron(np.vstack([AH[:, :inst.n], inst.S.A]),
                      np.concatenate([bH, inst.S.b]))

    # sample x from the region the construction actually quantifies over:
    # strict second-order set of S, 0 in the second-order H-derivative,
    # and the G-derivative meeting the strict second-order set of -D
    # (the last two via a joint system in (x, z))
    n, q = inst.n, inst.q
    TG2, TH2 = sets.TG2, sets.TH2
    if TG2 is None or TH2 is None or A2mD is None:
        rep.skipped.append("a second-order derivative set is empty")
        rep.vacuous = True
        return rep
    # TH2's rows without an x-part read 0 <= 0 at w = 0: dropped, so that
    # joint keeps every stacked row, in line with its tightening below
    hx = np.abs(TH2.A[:, :n]).max(axis=1, initial=0.0) > 1e-12
    joint = Polyhedron(np.vstack([
        np.hstack([IT2.A, np.zeros((IT2.m, q))]),
        TG2.A,
        np.hstack([np.zeros((A2mD.m, n)), A2mD.A]),
        np.hstack([TH2.A[hx, :n], np.zeros((hx.sum(), q))]),
    ]), np.concatenate([IT2.b, TG2.b, A2mD.b - POLY_TOL, TH2.b[hx]]))
    # the region is a cone but may have empty interior (equality-like row
    # pairs), so rejection sampling is hopeless: take LP vertices of an
    # eps-tightened, boxed copy under random objectives and rescale
    strict_rows = np.concatenate([np.ones(IT2.m), np.zeros(TG2.m),
                                  np.ones(A2mD.m), np.zeros(hx.sum())])
    nv = n + q
    A_all = np.vstack([joint.A, np.eye(nv), -np.eye(nv)])
    b_all = np.concatenate([joint.b - 1e-6 * strict_rows, np.ones(2 * nv)])
    samples = []
    for _ in range(8):
        res = linsolve.solve_lp(rng.normal(size=nv), A_ub=A_all, b_ub=b_all)
        if res.status == 0:
            pt = np.asarray(res.x)
            nrm = np.abs(pt).max(initial=0.0)
            if nrm > POLY_TOL:
                samples.append(pt / nrm)
    if not samples:
        rep.vacuous = True
        return rep
    sg, sh = _Slicer(TG2, n), _Slicer(TH2, n)
    for xz in samples:
        x = xz[:n]
        if IT2.m and not (IT2.A @ x < -POLY_TOL).all():
            rep.skipped.append("sample left the strict second-order set")
            continue
        GZ, HW = sg.at(x), sh.at(x)
        if HW is None or not HW.contains(np.zeros(inst.r)):
            rep.skipped.append("0 not in the second-order H-derivative")
            continue
        if GZ is None:
            rep.skipped.append("G-derivative or -D second-order set empty")
            continue
        meet = linsolve.feasible_point(
            inst.q, np.vstack([GZ.A, A2mD.A]),
            np.concatenate([GZ.b, A2mD.b - POLY_TOL]))
        if not meet.feasible:
            rep.skipped.append("derivative misses the strict -D set")
            continue

        ok_all = True
        for g in 0.5 ** np.arange(1, levels + 1):
            p = inst.xbar + g * trip.u + 0.5 * g * g * x
            dH = inst.H.dist_to_value(np.zeros(inst.r), p)
            wnorm = dH / (0.5 * g * g)
            bound = mu(theta * 0.5 * g * g * wnorm) + g ** 3
            dist = Hinv.linf_distance(p)
            if not dist <= bound + POLY_TOL:
                ok_all = False
                break
        if not ok_all:
            rep.skipped.append("perturbed-point bound failed at a gamma level")
            continue
        lim = sampled_second_order_membership(Omega, inst.xbar, trip.u, x,
                                              levels=levels, tol=1e-6)
        if lim.member:
            rep.verified.append(x)
        else:
            rep.skipped.append("sampled-limit test refused membership")
    return rep


class BallExtension:
    """The default extension Hext(x, t) = B(H(x), t), so delta = d(0, H(x)).

    The audit discretizes a neighborhood of xbar (the sample points are
    supplied at construction) and checks the defining bound there.
    """

    def __init__(self, H: PolyMapSpec, samples: np.ndarray):
        self.H = H
        self.samples = np.atleast_2d(np.asarray(samples, dtype=float))

    def delta(self, x) -> float:
        return self.H.dist_to_value(np.zeros(self.H.n_out), x)

    def audit(self, H: PolyMapSpec, theta: float):
        pairs = [(self.delta(x), H.dist_to_value(np.zeros(H.n_out), x))
                 for x in self.samples]
        ok_ext = all(d <= theta * h + POLY_TOL for d, h in pairs)
        ok_zero = all(abs(d - h) <= POLY_TOL for d, h in pairs)
        return ok_ext, ok_zero
