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

Everything the rule needs at one critical triple that depends on neither
the sampled x nor the multipliers (F+, G+, the joint second-order cones
of their graphs and of gph H, the second-order sets of S and
A2(-D, zbar, k)) is built once per call by `_triple_sets`; each sampled x
only slices the prebuilt cones.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Optional

import numpy as np

from . import linsolve
from .policy import RegkitError
from .polyhedra import (Polyhedron, SecondOrderSets, cone_hull_shifted,
                        fourier_motzkin, normal_cone_generators,
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

    def value_polyhedron(self, x) -> Optional[Polyhedron]:
        """E(x) in the output space; None when known empty without an LP."""
        return _slice_polyhedron(self.graph.A, self.graph.b,
                                 np.asarray(x, dtype=float), self.n_out)

    def contains(self, x, y, tol: float = 1e-9) -> bool:
        return self.graph.contains(np.concatenate([x, y]), tol)

    def dist_to_value(self, y, x) -> float:
        """d_inf(y, E(x)); +inf when E(x) is empty."""
        V = self.value_polyhedron(x)
        return np.inf if V is None else V.linf_distance(np.asarray(y, dtype=float))


def _slice_polyhedron(A: np.ndarray, b: np.ndarray, x: np.ndarray,
                      n_out: int) -> Optional[Polyhedron]:
    """{y : A (x, y) <= b} as a polyhedron in y; None only when a row
    without y-part reads 0 <= rhs < 0.  No LP: the caller's own LP finds
    any other empty slice.  The rows kept, and so the polyhedron's
    matrix, do not depend on x (see `_slice_family`)."""
    n_in = A.shape[1] - n_out
    Ay = A[:, n_in:]
    rhs = b - A[:, :n_in] @ x
    keep = np.abs(Ay).max(axis=1, initial=0.0) > 1e-12
    if (rhs[~keep] < -1e-9).any():
        return None
    return Polyhedron(Ay[keep], rhs[keep])


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

def _graph_tangent_cone(E: PolyMapSpec, xbar, ebar, tol) -> Polyhedron:
    """T(gph E, (xbar, ebar)) in (x, e)."""
    base = np.concatenate([np.asarray(xbar, float), np.asarray(ebar, float)])
    if not E.graph.contains(base, tol):
        raise OptError("base point off the graph")
    return tangent_cone(E.graph, base, tol)


def _slice_cone(T: Optional[Polyhedron], x) -> Optional[Polyhedron]:
    """{e : (x, e) in T}; None when T is None or known empty without an LP."""
    if T is None:
        return None
    x = np.asarray(x, dtype=float)
    return _slice_polyhedron(T.A, T.b, x, T.dim - x.size)


def _slice_family(T: Optional[Polyhedron], n_in: int, c):
    """min <c, e> over the slices {e : (x, e) in T} at varying x, as one
    LP family; None when T is None.  Every slice that is not None has the
    matrix of the slice at x = 0, which T, a cone, always has; a member
    is solved by passing its slice's b."""
    return None if T is None else linsolve.LPFamily(
        c, A_ub=_slice_cone(T, np.zeros(n_in)).A)


def _joint_second_order_graph(E: PolyMapSpec, xbar, ebar, u, v,
                              tol) -> Optional[Polyhedron]:
    """Unsliced second-order derivative set in (x, e); None when the
    direction pair leaves the graph's tangent cone."""
    direction = np.concatenate([np.asarray(u, float), np.asarray(v, float)])
    T = _graph_tangent_cone(E, xbar, ebar, tol)
    if not T.contains(direction, tol):
        return None
    return tangent_cone(T, direction, tol)


def second_order_graph_derivative(E: PolyMapSpec, xbar, ebar, u, v, x,
                                  tol: float = 1e-9) -> Optional[Polyhedron]:
    """D2E(xbar, ebar, u, v)(x), the second-order derivative set at x.

    None when (u, v) leaves the graph's tangent cone or the slice is
    known empty without an LP; otherwise the slice of the nested tangent
    cone, which equals both the contingent and adjacent second-order
    sets for polyhedral graphs.
    """
    return _slice_cone(_joint_second_order_graph(E, xbar, ebar, u, v, tol), x)


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

    def __post_init__(self):
        self.xbar = np.asarray(self.xbar, dtype=float)
        self.ybar = np.asarray(self.ybar, dtype=float)
        self.zbar = np.asarray(self.zbar, dtype=float)

    def validate(self, tol: float = 1e-9) -> list[str]:
        """Feasibility of the base triple plus cone sanity; returns problems."""
        bad = []
        if not self.S.contains(self.xbar, tol):
            bad.append("xbar outside S")
        if not self.F.contains(self.xbar, self.ybar, tol):
            bad.append("ybar not in F(xbar)")
        if not self.G.contains(self.xbar, self.zbar, tol):
            bad.append("zbar not in G(xbar)")
        minusD = Polyhedron(-self.D.A, self.D.b)
        if not minusD.contains(self.zbar, tol):
            bad.append("zbar not in -D")
        if not self.H.contains(self.xbar, np.zeros(self.r), tol):
            bad.append("0 not in H(xbar)")
        for name, K in (("C", self.C), ("Q", self.Q), ("D", self.D)):
            if not K.is_cone():
                bad.append(f"{name} is not a cone")
            elif not _pointed(K, tol):
                bad.append(f"{name} is not pointed")
        if not self.D.has_nonempty_interior(tol):
            bad.append("D has empty interior")
        if not self.Q.has_nonempty_interior(tol):
            bad.append("Q has empty interior")
        return bad

    def F_plus(self) -> PolyMapSpec:
        return graph_plus_cone(self.F, self.Q)

    def G_plus(self) -> PolyMapSpec:
        return graph_plus_cone(self.G, self.D)

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


def _pointed(K: Polyhedron, tol: float = 1e-9) -> bool:
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
                        rng: Optional[np.random.Generator] = None,
                        tol: float = 1e-9) -> list[CriticalTriple]:
    """Sampled enumeration of the critical-direction system.

    Candidate u come from a direction sample plus the coordinate axes;
    a u outside T(S, xbar) is skipped (IT2(S, xbar, u) is empty there).
    For each remaining u the three memberships are resolved by linear
    feasibility: v in DF+(xbar, ybar)(u) meeting -bd Q (facet by facet),
    k in DG+(xbar, zbar)(u) meeting -cl cone(D + zbar), and (u, 0) in
    the tangent cone of gph H.  Every returned triple re-verifies each
    membership.  An empty list is a valid outcome.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    cands = [np.zeros(inst.n)]
    cands += [e for e in np.eye(inst.n)] + [-e for e in np.eye(inst.n)]
    cands += list(sample_directions(inst.n, n_dirs, rng))

    # first-order cones at the base point, sliced per candidate u
    TS = tangent_cone(inst.S, inst.xbar, tol)
    TH = tangent_cone(inst.H.graph,
                      np.concatenate([inst.xbar, np.zeros(inst.r)]), tol)
    TF = _graph_tangent_cone(inst.F_plus(), inst.xbar, inst.ybar, tol)
    TG = _graph_tangent_cone(inst.G_plus(), inst.xbar, inst.zbar, tol)
    big_cone = cone_hull_shifted(inst.D, inst.zbar)

    out: list[CriticalTriple] = []
    for u in cands:
        if not TS.contains(u, tol):
            continue
        if not TH.contains(np.concatenate([u, np.zeros(inst.r)]), tol):
            continue
        DV = _slice_cone(TF, u)
        if DV is None:
            continue
        v = _point_on_minus_boundary(inst.Q, DV)
        if v is None:
            continue
        DK = _slice_cone(TG, u)
        if DK is None:
            continue
        # k = 0 first when admissible: it carries no orthogonality
        # constraint on k*, so multipliers are most often found there
        kcands = []
        zero_k = np.zeros(inst.q)
        if DK.contains(zero_k, tol) and big_cone.contains(zero_k, tol):
            kcands.append(zero_k)
        A_ub = np.vstack([DK.A, -big_cone.A])
        b_ub = np.concatenate([DK.b, big_cone.b])
        resk = linsolve.feasible_point(inst.q, A_ub, b_ub)
        if resk.feasible and (not kcands
                              or np.abs(resk.point - zero_k).max() > tol):
            kcands.append(resk.point)
        for k in kcands:
            trip = CriticalTriple(u=np.asarray(u, float), v=v, k=k)
            if _verify_critical(inst, trip, TS, TH, TF, TG, big_cone, tol):
                out.append(trip)
    return out


def _verify_critical(inst, trip, TS, TH, TF, TG, big_cone, tol) -> bool:
    if not TS.contains(trip.u, tol):
        return False
    if not TH.contains(np.concatenate([trip.u, np.zeros(inst.r)]), tol):
        return False
    DV = _slice_cone(TF, trip.u)
    if DV is None or not DV.contains(trip.v, tol):
        return False
    if not inst.Q.contains(-trip.v, tol):
        return False
    if inst.Q.m and not (np.abs(inst.Q.A @ -trip.v - inst.Q.b) <= tol).any():
        return False
    DK = _slice_cone(TG, trip.u)
    if DK is None or not DK.contains(trip.k, tol):
        return False
    return big_cone.contains(-trip.k, tol)


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


def _min_support(family: linsolve.LPFamily, P: Optional[Polyhedron]):
    """inf <c, y> over the slice P, a member of `family` (see
    `_slice_family`); +inf over the empty set, -inf when unbounded."""
    if P is None:
        return np.inf, None
    return family.solve(P.b).minimum()


def a2_of_minus_D(inst: OptInstance, k, tol: float = 1e-9) -> Optional[Polyhedron]:
    """A2(-D, zbar, k); None (empty) when k leaves the tangent cone."""
    mD = inst.minus_D()
    T = tangent_cone(mD, inst.zbar, tol)
    if not T.contains(k, tol):
        return None
    return second_order_sets(mD, inst.zbar, k, tol).A2


@dataclass
class _TripleSets:
    """What the rule needs at one critical triple, independent of the
    sampled x and of the multipliers.

    TF2, TG2 and TH2 are the joint second-order cones in (x, e) of the F+,
    G+ and H graphs along (u, v), (u, k) and (u, 0), each None when that
    pair leaves the graph's tangent cone; slicing one at x gives the
    second-order derivative set at x.
    """

    S2: SecondOrderSets             # second-order sets of S at (xbar, u)
    A2: Optional[Polyhedron]        # A2(-D, zbar, k)
    TF2: Optional[Polyhedron]
    TG2: Optional[Polyhedron]
    TH2: Optional[Polyhedron]

    def slices(self, x):
        """The F+, G+ and H second-order derivative sets at x."""
        return tuple(_slice_cone(T, x) for T in (self.TF2, self.TG2, self.TH2))

    def families(self, n: int, cs):
        """One LP family per derivative set, minimizing <c, .> for the
        matching c of `cs` over that set's slices."""
        return tuple(_slice_family(T, n, c)
                     for T, c in zip((self.TF2, self.TG2, self.TH2), cs))


def _triple_sets(inst: OptInstance, trip: CriticalTriple,
                 tol: float) -> _TripleSets:
    zero = np.zeros(inst.r)
    return _TripleSets(
        S2=second_order_sets(inst.S, inst.xbar, trip.u, tol),
        A2=a2_of_minus_D(inst, trip.k, tol),
        TF2=_joint_second_order_graph(inst.F_plus(), inst.xbar, inst.ybar,
                                      trip.u, trip.v, tol),
        TG2=_joint_second_order_graph(inst.G_plus(), inst.xbar, inst.zbar,
                                      trip.u, trip.k, tol),
        TH2=_joint_second_order_graph(inst.H, inst.xbar, zero, trip.u, zero,
                                      tol))


def _sample_points(P: Polyhedron, family: linsolve.LPFamily,
                   rng: np.random.Generator) -> np.ndarray:
    """A few points of P: sampled when P is a cone (then it holds 0), else
    one LP point, or none when P is empty.  P is a member of `family`, an
    LP family with c = 0."""
    if P.is_cone():
        return sample_cone_points(P, 4, rng)
    pt = family.solve(P.b).minimum()[1]
    return pt[None, :] if pt is not None else np.zeros((0, P.dim))


def check_multiplier_rule(inst: OptInstance, trip: CriticalTriple,
                          mult: Multipliers, n_samples: int = 32,
                          rng: Optional[np.random.Generator] = None,
                          tol: float = 1e-9) -> RuleVerdict:
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
    sets = _triple_sets(inst, trip, tol)
    notes: list[str] = []
    if not mult.nonzero():
        raise OptError("multiplier invariant: (v*, k*, w*) = 0")
    if not linsolve.in_cone_of(dual_cone_generators(inst.Q), mult.v_star, tol):
        raise OptError("multiplier invariant: v* outside the dual cone of Q")
    Ngen = normal_cone_generators(inst.minus_D(), inst.zbar, tol)
    if not linsolve.in_cone_of(Ngen, mult.k_star, tol):
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

    families = sets.families(inst.n, (mult.v_star, mult.k_star, mult.w_star))
    worst, arg = np.inf, None
    checked = 0
    for x in xs:
        if IT2.m and not (IT2.A @ x < -tol).all():
            continue
        (fy, ay), (gz, az), (hw, aw) = (
            _min_support(fam, P) for fam, P in zip(families, sets.slices(x)))
        lhs = fy + gz + hw
        if np.isnan(lhs):       # inf + (-inf): an empty set wins, vacuous
            continue
        checked += 1
        margin = lhs - rhs if rhs > -np.inf else np.inf
        if margin < worst:
            worst, arg = margin, (x.copy(), ay, az, aw)
    if checked == 0:
        notes.append("no admissible sample: inequality vacuous at resolution")
        return RuleVerdict(True, np.inf, rhs, n_samples=0, notes=notes)
    return RuleVerdict(bool(worst >= -tol), float(worst), float(rhs),
                       argmin=arg, n_samples=checked, notes=notes)


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

    def block(T, lo, hi):
        rows = np.zeros((T.m, nvar))
        rows[:, :n] = T.A[:, :n]
        rows[:, lo:hi] = T.A[:, n:]
        return rows

    A_ub = np.vstack([
        np.hstack([A2S.A, np.zeros((A2S.m, p + q + r))]),
        block(TF, n, n + p),
        block(TG, n + p, n + p + q),
        block(TH, n + p + q, nvar),
    ])
    b_ub = np.concatenate([A2S.b, TF.b, TG.b, TH.b])
    return A_ub, b_ub


_BOX = 1e6


def _rule_lp(inst: OptInstance, A2: Optional[Polyhedron], system,
             mult: Multipliers):
    """Boxed margin of the rule over the closed second-order set of S and
    a violating tuple (y, z, w, d) for use as a cutting plane.

    The box keeps both programs bounded: an unbounded left-hand side or
    right-hand side comes out as a finite, very negative margin with a
    concrete violating point.  (+inf, None) means the inequality is
    vacuous: an empty d-side or no admissible x.
    """
    if A2 is None or system is None:
        return np.inf, None
    res_d = linsolve.solve_lp(-mult.k_star,
                              A_ub=A2.A if A2.m else None,
                              b_ub=A2.b if A2.m else None,
                              bounds=(-_BOX, _BOX))
    if res_d.status == 2:
        return np.inf, None
    if res_d.status != 0:
        raise OptError(f"rule rhs LP failed with status {res_d.status}")
    rhs, darg = -float(res_d.fun), np.asarray(res_d.x)
    A_ub, b_ub = system
    c = np.concatenate([np.zeros(inst.n), mult.v_star, mult.k_star,
                        mult.w_star])
    res = linsolve.solve_lp(c, A_ub=A_ub, b_ub=b_ub, bounds=(-_BOX, _BOX))
    if res.status == 2:
        return np.inf, None
    if res.status != 0:
        raise OptError(f"joint rule LP failed with status {res.status}")
    sol = np.asarray(res.x)
    n, p, q = inst.n, inst.p, inst.q
    cut = (sol[n:n + p], sol[n + p:n + p + q], sol[n + p + q:], darg)
    return float(res.fun - rhs), cut


def exact_rule_margin(inst: OptInstance, trip: CriticalTriple,
                      mult: Multipliers, tol: float = 1e-9) -> float:
    """Exact worst-case margin of the rule over the closed second-order
    set of S, via one joint linear program in (x, y, z, w).

    The closure over-covers the strict set, so a nonnegative value here
    certifies the sampled inequality at every admissible point; +inf
    means the inequality is vacuous (empty d-side or no admissible x).
    The program is boxed, so a left-hand side unbounded below shows as
    a large negative margin.
    """
    sets = _triple_sets(inst, trip, tol)
    return _rule_lp(inst, sets.A2, _joint_rule_system(inst, sets), mult)[0]


def find_multipliers(inst: OptInstance, trip: CriticalTriple,
                     n_samples: int = 16,
                     rng: Optional[np.random.Generator] = None,
                     tol: float = 1e-9) -> Optional[Multipliers]:
    """Search for multipliers by linear feasibility.

    Parameterization: v* = sum of dual-cone generators of Q with weights
    alpha >= 0, k* = sum of normal-cone generators with beta >= 0, and
    w* = sign-pattern times s >= 0 (one feasibility solve per pattern,
    which makes the 1-norm normalization exact); the orthogonality
    equalities and the rule inequalities at sampled (x, y, z, w, d)
    tuples are all linear.  A candidate is kept once its exact rule
    margin (the joint LP of `exact_rule_margin`) is >= -1e-9; the one
    with the largest alpha-mass is returned, the first on a tie, so that
    normality (v* != 0) is found when available.  The sampled oracle
    `check_multiplier_rule` is left to the caller.  Failure at sampling
    resolution does not refute existence and is reported as None.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    GQ = dual_cone_generators(inst.Q)                    # rows
    GN = normal_cone_generators(inst.minus_D(), inst.zbar, tol)
    nq, nn = GQ.shape[0], GN.shape[0]
    r = inst.r
    nvar = nq + nn + r

    # orthogonality and normalization (sign-independent parts)
    row_v = np.zeros(nvar)
    if nq:
        row_v[:nq] = GQ @ trip.v
    row_k = np.zeros(nvar)
    if nn:
        row_k[nq:nq + nn] = GN @ trip.k
    eqs_A = np.vstack([row_v, row_k, np.ones(nvar)])
    eqs_b = np.array([0.0, 0.0, 1.0])

    # sampled rule data: lhs - <k*, d> >= 0 at tuples (y, z, w, d)
    sets = _triple_sets(inst, trip, tol)
    xs = sample_cone_points(sets.S2.IT2, n_samples, rng)
    if sets.A2 is not None:
        # 0 always lies in the second-order cone and realizes the rhs sup
        # whenever <k*, .> is nonpositive on it, so it must be sampled
        ds = np.vstack([np.zeros((1, inst.q)),
                        sample_cone_points(sets.A2, max(4, n_samples // 4),
                                           rng)])
    else:
        ds = np.zeros((1, inst.q))
    families = sets.families(inst.n, (np.zeros(inst.p), np.zeros(inst.q),
                                      np.zeros(inst.r)))
    tuples: list[tuple] = []
    for x in xs:
        slices = sets.slices(x)
        if any(P is None for P in slices):
            continue
        ys, zs, ws = (_sample_points(P, fam, rng)
                      for P, fam in zip(slices, families))
        for y in ys:
            for z in zs:
                for w in ws:
                    for d in ds:
                        tuples.append((y, z, w, d))
    system = _joint_rule_system(inst, sets)

    def rule_row(sigma, y, z, w, d):
        row = np.zeros(nvar)
        if nq:
            row[:nq] = -(GQ @ y)
        if nn:
            row[nq:nq + nn] = -(GN @ (z - d))
        row[nq + nn:] = -(sigma * w)
        return row

    candidates = []
    for signs in product((1.0, -1.0), repeat=r):
        sigma = np.array(signs)
        cuts: list[tuple] = []
        # row generation: re-solve with each exact violating tuple added
        # as a constraint until the candidate passes the exact check
        for _ in range(25):
            rows = [rule_row(sigma, y, z, w, d)
                    for (y, z, w, d) in tuples + cuts]
            ub_A = [-np.eye(nvar)] + ([np.array(rows)] if rows else [])
            ub_b = [np.zeros(nvar)] + ([np.zeros(len(rows))] if rows else [])
            # prefer alpha-mass: normality when the data allows it
            c = np.zeros(nvar)
            c[:nq] = -1.0
            res = linsolve.solve_lp(c, A_ub=np.vstack(ub_A),
                                    b_ub=np.concatenate(ub_b),
                                    A_eq=eqs_A, b_eq=eqs_b)
            if res.status != 0:
                break
            sol = np.asarray(res.x)
            mult = Multipliers(
                v_star=sol[:nq] @ GQ if nq else np.zeros(inst.p),
                k_star=sol[nq:nq + nn] @ GN if nn else np.zeros(inst.q),
                w_star=sigma * sol[nq + nn:])
            if not mult.nonzero(tol):
                break
            margin, cut = _rule_lp(inst, sets.A2, system, mult)
            if margin >= -1e-9:
                candidates.append((float(sol[:nq].sum()), mult))
                break
            if cut is None:
                break
            cuts.append(cut)
    if not candidates:
        return None
    # one draw per success: callers go on drawing from rng, and this keeps
    # their random streams, and so their report bytes, as in earlier releases
    rng.integers(2 ** 31)
    return max(candidates, key=lambda c: c[0])[1]


# -- constraint qualification ----------------------------------------------

@dataclass
class CQVerdict:
    holds: bool
    rank: int
    needed: int
    missing: Optional[np.ndarray] = None

    def __bool__(self):
        return self.holds


def check_cq(inst: OptInstance, trip: CriticalTriple, n_samples: int = 32,
             rng: Optional[np.random.Generator] = None,
             tol: float = 1e-9) -> CQVerdict:
    """Positive-spanning test for the second-order constraint qualification.

    Collects sampled generators of cone((D2G+ - A2(-D, zbar, k),
    D2H)(IT2(S, xbar, u))) plus cone(D + zbar) x {0}, then asks whether
    each signed coordinate axis of Z x W lies in their conic hull; a
    rank check fails fast when the generators do not even span linearly.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    sets = _triple_sets(inst, trip, tol)
    xs = sample_cone_points(sets.S2.IT2, n_samples, rng)
    ds = sample_cone_points(sets.A2, max(4, n_samples // 4), rng) \
        if sets.A2 is not None else np.zeros((1, inst.q))
    if ds.shape[0] == 0:
        ds = np.zeros((1, inst.q))
    fam_z = _slice_family(sets.TG2, inst.n, np.zeros(inst.q))
    fam_w = _slice_family(sets.TH2, inst.n, np.zeros(inst.r))
    gens: list[np.ndarray] = []
    for x in xs:
        GZ, HW = _slice_cone(sets.TG2, x), _slice_cone(sets.TH2, x)
        if GZ is None or HW is None:
            continue
        zs, ws = _sample_points(GZ, fam_z, rng), _sample_points(HW, fam_w, rng)
        for z in zs:
            for w in ws:
                for d in ds:
                    gens.append(np.concatenate([z - d, w]))
    big = cone_hull_shifted(inst.D, inst.zbar)
    for pt in sample_cone_points(big, max(8, n_samples // 2), rng):
        gens.append(np.concatenate([pt, np.zeros(inst.r)]))
    needed = inst.q + inst.r
    if not gens:
        return CQVerdict(False, 0, needed)
    Gm = np.array(gens)
    rank = int(np.linalg.matrix_rank(Gm, tol=1e-9))
    if rank < needed:
        return CQVerdict(False, rank, needed)
    for j in range(needed):
        for sgn in (1.0, -1.0):
            e = np.zeros(needed)
            e[j] = sgn
            if not linsolve.in_cone_of(Gm, e, tol):
                return CQVerdict(False, rank, needed, missing=e)
    return CQVerdict(True, rank, needed)


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
                 n_samples: int = 8, levels: int = 12,
                 rng: Optional[np.random.Generator] = None,
                 tol: float = 1e-9) -> Claim2Report:
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
    sampled-limit test.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    rep = Claim2Report()

    # gate 1: extension bound on the discretized neighborhood
    ok_ext, ok_zero = Hext.audit(inst.H, theta, tol)
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

    sets = _triple_sets(inst, trip, tol)
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
    joint = Polyhedron(np.vstack([
        np.hstack([IT2.A, np.zeros((IT2.m, q))]),
        np.hstack([TG2.A[:, :n], TG2.A[:, n:]]),
        np.hstack([np.zeros((A2mD.m, n)), A2mD.A]),
        np.hstack([TH2.A[:, :n], np.zeros((TH2.m, q))]),
    ]), np.concatenate([IT2.b, TG2.b, A2mD.b - 1e-9, TH2.b]))
    # the region is a cone but may have empty interior (equality-like row
    # pairs), so rejection sampling is hopeless: take LP vertices of an
    # eps-tightened, boxed copy under random objectives and rescale
    strict_rows = np.concatenate([np.ones(IT2.m), np.zeros(TG2.m),
                                  np.ones(A2mD.m), np.zeros(TH2.m)])
    nv = n + q
    A_all = np.vstack([joint.A, np.eye(nv), -np.eye(nv)])
    b_all = np.concatenate([joint.b - 1e-6 * strict_rows, np.ones(2 * nv)])
    samples = []
    for _ in range(n_samples):
        res = linsolve.solve_lp(rng.normal(size=nv), A_ub=A_all, b_ub=b_all)
        if res.status == 0:
            pt = np.asarray(res.x)
            nrm = np.abs(pt).max(initial=0.0)
            if nrm > tol:
                samples.append(pt / nrm)
    if not samples:
        rep.vacuous = True
        return rep
    for xz in samples:
        x = xz[:n]
        if IT2.m and not (IT2.A @ x < -tol).all():
            rep.skipped.append("sample left the strict second-order set")
            continue
        GZ, HW = _slice_cone(TG2, x), _slice_cone(TH2, x)
        if HW is None or not HW.contains(np.zeros(inst.r), tol):
            rep.skipped.append("0 not in the second-order H-derivative")
            continue
        if GZ is None:
            rep.skipped.append("G-derivative or -D second-order set empty")
            continue
        meet = linsolve.feasible_point(
            inst.q, np.vstack([GZ.A, A2mD.A]),
            np.concatenate([GZ.b, A2mD.b - 1e-9]))
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
            if not dist <= bound + tol:
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

    def audit(self, H: PolyMapSpec, theta: float, tol: float = 1e-9):
        ok_ext = all(self.delta(x) <= theta * H.dist_to_value(
            np.zeros(H.n_out), x) + tol for x in self.samples)
        ok_zero = all(abs(self.delta(x) - H.dist_to_value(
            np.zeros(H.n_out), x)) <= tol for x in self.samples)
        return ok_ext, ok_zero
