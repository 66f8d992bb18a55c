"""Polyhedra in H-representation and their first/second-order cones.

A polyhedron is {x : A x <= b} with rows normalized to unit Euclidean
norm at construction.  All cone calculus is exact linear algebra on the
active rows at `policy.POLY_TOL`; the sampled-limit oracles re-derive
memberships from the defining limits at gamma_n = 2^-n, at their own
tolerance, and exist purely for cross-checking.

Strict variants (the interior second-order set IT2) reuse the same matrix with a
strictness flag; membership then requires A x < 0 componentwise.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linsolve
from .policy import POLY_TOL, RegkitError


class PolyhedronError(RegkitError, ValueError):
    pass


@dataclass
class Polyhedron:
    A: np.ndarray
    b: np.ndarray
    strict: bool = False      # membership via A x < b instead of <=

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if A.shape[0] != b.shape[0]:
            raise PolyhedronError("A/b row mismatch")
        # np.linalg.norm(A, axis=1) without its wrappers, bit for bit
        norms = np.sqrt(np.add.reduce(A * A, axis=1))
        keep = norms > 1e-14
        if not keep.all():
            if (~keep & (b < -1e-12)).any():
                raise PolyhedronError(
                    "zero row with negative bound: empty system")
            A, b, norms = A[keep], b[keep], norms[keep]
        # the divisions copy, so A and b never alias the caller's arrays
        self.A, self.b = A / norms[:, None], b / norms

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.A.shape[0]

    def contains(self, x, tol: float = POLY_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        if self.m == 0:
            return True
        res = self.A @ x - self.b
        if self.strict:
            return bool((res < -tol).all())
        return bool((res <= tol).all())

    def active_rows(self, x) -> np.ndarray:
        if self.m == 0:
            return np.zeros(0, dtype=int)
        res = self.A @ np.asarray(x, dtype=float) - self.b
        return np.nonzero(np.abs(res) <= POLY_TOL)[0]

    def is_cone(self) -> bool:
        return self.m == 0 or np.abs(self.b).max(initial=0.0) <= 1e-12

    def is_empty(self) -> bool:
        if self.strict:
            return self.interior_point() is None
        return not linsolve.feasible_point(self.dim, self.A, self.b).feasible

    def interior_point(self):
        """A point with A x < b (see `linsolve.strict_interior_point`),
        or None; solved for once per polyhedron."""
        return self._interior

    @cached_property
    def _interior(self):
        x = linsolve.strict_interior_point(self.dim, self.A, self.b)
        if x is not None:
            x.flags.writeable = False
        return x

    def has_nonempty_interior(self) -> bool:
        return self.interior_point() is not None

    def linf_distance(self, p) -> float:
        """sup-norm distance from p to the polyhedron; +inf when empty."""
        p = np.asarray(p, dtype=float)
        n = self.dim
        # min t  s.t.  A x <= b,  x - p <= t,  p - x <= t
        c = np.concatenate([np.zeros(n), [1.0]])
        eye = np.eye(n)
        A_ub = np.vstack([
            np.hstack([self.A, np.zeros((self.m, 1))]),
            np.hstack([eye, -np.ones((n, 1))]),
            np.hstack([-eye, -np.ones((n, 1))]),
        ])
        b_ub = np.concatenate([self.b, p, -p])
        res = linsolve.solve_lp(c, A_ub=A_ub, b_ub=b_ub)
        if res.status == 2:
            return np.inf
        if res.status != 0:
            raise PolyhedronError(f"distance LP failed: {res.message}")
        return max(float(res.fun), 0.0)

    @classmethod
    def orthant(cls, n: int) -> "Polyhedron":
        return cls(-np.eye(n), np.zeros(n))


def matvecs(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A @ x for every row x of X, bit for bit: one BLAS matrix-vector
    product per x (X @ A.T, one matrix product, sums in another order)."""
    return (A[None] @ X[:, :, None])[..., 0]


# -- first-order cones ------------------------------------------------------

def tangent_cone(P: Polyhedron, xbar) -> Polyhedron:
    """{d : A_I d <= 0} with I the active rows at xbar."""
    if not P.contains(xbar):
        raise PolyhedronError("base point outside the polyhedron")
    I = P.active_rows(xbar)
    return Polyhedron(P.A[I], np.zeros(I.size))


def normal_cone_generators(P: Polyhedron, xbar) -> np.ndarray:
    """Generators (rows) of the normal cone: the active constraint rows."""
    if not P.contains(xbar):
        raise PolyhedronError("base point outside the polyhedron")
    I = P.active_rows(xbar)
    return P.A[I].copy()


# -- second-order sets ------------------------------------------------------

@dataclass
class SecondOrderSets:
    T2: Polyhedron
    A2: Polyhedron          # equals T2 for polyhedra (identity audited in tests)
    IT2: Polyhedron         # strict variant


def second_order_sets(P: Polyhedron, xbar, u) -> SecondOrderSets:
    """T2 = A2 = tangent cone of the tangent cone, taken at direction u."""
    T = tangent_cone(P, xbar)
    if not T.contains(u):
        raise PolyhedronError("direction outside the tangent cone")
    T2 = tangent_cone(T, u)
    return SecondOrderSets(T2=T2, A2=Polyhedron(T2.A.copy(), T2.b.copy()),
                           IT2=Polyhedron(T2.A.copy(), T2.b.copy(), strict=True))


# -- sampled-limit oracles --------------------------------------------------

@dataclass
class LimitSample:
    gammas: np.ndarray
    ratios: np.ndarray
    member: bool


def sampled_tangent_membership(P: Polyhedron, xbar, d, levels: int = 20,
                               tol: float = 1e-6) -> LimitSample:
    """d in T(P, xbar) iff dist(xbar + gamma d, P)/gamma can be driven to ~0.

    Ratios are sup-norm distances over gamma; the verdict takes the
    minimum ratio across the ladder, which for polyhedral data is exact
    away from a tol-neighborhood of the cone's boundary.
    """
    xbar = np.asarray(xbar, dtype=float)
    d = np.asarray(d, dtype=float)
    gammas = 0.5 ** np.arange(1, levels + 1)
    # the distance LP resolves ~1e-8; below gamma = 1e-8/tol that noise,
    # divided by gamma, would swamp the tolerance and flip small-margin
    # non-members to members
    gammas = gammas[gammas > 1e-8 / tol]
    ratios = np.array([P.linf_distance(xbar + g * d) / g for g in gammas])
    return LimitSample(gammas, ratios, bool(ratios.min(initial=np.inf) <= tol))


def sampled_second_order_membership(P: Polyhedron, xbar, u, w,
                                    levels: int = 20,
                                    tol: float = 1e-6) -> LimitSample:
    """w in T2(P, xbar, u) via dist(xbar + g u + g^2/2 w, P) / (g^2/2) -> 0.

    The gamma ladder stops where g^2/2 approaches solver precision, so
    distance noise is never amplified past the tolerance.
    """
    xbar = np.asarray(xbar, dtype=float)
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    gammas = 0.5 ** np.arange(1, levels + 1)
    gammas = gammas[gammas ** 2 / 2 > 1e-10]
    ratios = np.array([
        P.linf_distance(xbar + g * u + 0.5 * g * g * w) / (0.5 * g * g)
        for g in gammas])
    return LimitSample(gammas, ratios, bool(ratios.min(initial=np.inf) <= tol))


# -- projection -------------------------------------------------------------

def _dedupe(A: np.ndarray, b: np.ndarray):
    if A.shape[0] == 0:
        return A, b
    norms = np.linalg.norm(A, axis=1)
    keep = norms > 1e-12
    drop_vac = (~keep) & (b >= -1e-12)
    A, b, norms = A[~drop_vac], b[~drop_vac], norms[~drop_vac]
    if A.shape[0] == 0:
        return A, b
    M = np.hstack([A / norms[:, None], (b / norms)[:, None]])
    key = np.round(M / POLY_TOL).astype(np.int64)
    # the first row of each run of equal keys in a stable sort is the first
    # occurrence of that key, as np.unique(key, axis=0, return_index=True)
    order = np.lexsort(key.T)
    run = key[order]
    first = np.concatenate([[True], (run[1:] != run[:-1]).any(axis=1)])
    idx = np.sort(order[first])
    return A[idx], b[idx]


FM_ROW_CAP = 20_000     # each elimination can square the rows: bounds memory


def fourier_motzkin(A: np.ndarray, b: np.ndarray, eliminate: list[int]):
    """Project {x : A x <= b} onto the coordinates not in `eliminate`.

    Classic pairwise elimination with duplicate pruning; intended for the
    small dimensions used here (graph liftings in <= ~10 variables).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float)).copy()
    b = np.atleast_1d(np.asarray(b, dtype=float)).copy()
    for j in sorted(eliminate, reverse=True):
        col = A[:, j]
        pos = np.nonzero(col > 1e-12)[0]
        neg = np.nonzero(col < -1e-12)[0]
        zer = np.nonzero(np.abs(col) <= 1e-12)[0]
        rows_A = [A[zer]]
        rows_b = [b[zer]]
        for i in pos:
            # combine with every negative row: eliminate coordinate j
            coef = col[i]
            combA = A[neg] * (coef / -col[neg])[:, None] + A[i]
            combB = b[neg] * (coef / -col[neg]) + b[i]
            rows_A.append(combA)
            rows_b.append(combB)
        A = np.vstack(rows_A) if rows_A else np.zeros((0, A.shape[1]))
        b = np.concatenate(rows_b) if rows_b else np.zeros(0)
        A = np.delete(A, j, axis=1)
        A, b = _dedupe(A, b)
        if A.shape[0] > FM_ROW_CAP:
            raise PolyhedronError("projection exceeded the row budget")
    return A, b


def cone_hull_shifted(D: Polyhedron, zbar) -> Polyhedron:
    """cl cone(D + zbar) = D + R+ zbar, for a polyhedral cone D containing
    -zbar (scaling absorbs the cone part; polyhedral, hence closed): the x
    with x - s zbar in D for some s >= 0, s eliminated from (x, s)."""
    Az = D.A @ np.asarray(zbar, dtype=float)
    A = np.vstack([np.column_stack([D.A, -Az]),
                   np.append(np.zeros(D.dim), -1.0)])     # -s <= 0
    return Polyhedron(*fourier_motzkin(A, np.append(D.b, 0.0), [D.dim]))


def sample_directions(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform unit directions in R^n (Gaussian normalization)."""
    g = rng.normal(size=(count, n))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    return g / norms


def sample_cone_points(C: Polyhedron, count: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Points of a polyhedral cone: rejection plus projection fallback.

    Rejection-samples unit directions; if too few land inside, mixes in
    nonnegative combinations of boundary solutions found by LP.
    """
    dirs = sample_directions(C.dim, max(count * 4, 64), rng)
    if C.m == 0:
        return dirs[:count]
    res = dirs @ C.A.T
    inside = (res < -POLY_TOL if C.strict else res <= POLY_TOL).all(axis=1)
    picked = dirs[inside][:count]
    if picked.shape[0] >= count:
        return picked
    extra = []
    ip = C.interior_point() if C.strict else None
    base = ip if ip is not None else (
        linsolve.feasible_point(C.dim, C.A, np.zeros(C.m)).point
        if not C.strict else None)
    if base is not None and np.abs(base).max(initial=0.0) > POLY_TOL:
        scales = rng.uniform(0.1, 2.0, size=count)
        extra = [s * base for s in scales]
    pool = list(picked) + list(extra)
    if not pool:
        pool = [np.zeros(C.dim)] if not C.strict else []
    return np.array(pool[:count]) if pool else np.zeros((0, C.dim))
