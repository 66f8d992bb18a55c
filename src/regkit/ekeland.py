"""Constructive variational principle on finite metric spaces.

Given f: X -> R u {+inf}, bounded below, a starting point x with
f(x) < inf f + eps, and lambda > 0, the iteration produces z with

  (i)   d(z, x) < lambda,
  (ii)  f(z) <= f(x),
  (iii) f(u) + (eps/lambda) d(u, z) >= f(z)  for all u.

The construction tracks the residual a_n = sup_u [f(x_n) - f(u)
- (eps/lambda) d(u, x_n)] and at each step moves to a point realizing at
least half of it, so a_{n+1} <= a_n / 2 and the iteration halts in
O(log(a_0 / tol)) steps.  Among the admissible successors the one with
maximal f-decrease is taken (then lowest index), so the trace is
deterministic.  Verification of (i)-(iii) is independent of the
construction and runs vectorized over all of X.

Lower semicontinuity of f is vacuous on a finite space and is recorded
as satisfied rather than checked.  The solver's chain is eventually
constant, so its cluster set is exactly the terminal point.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .metric import FiniteMetricSpace
from .policy import DEFAULT_POLICY, INF, NumericPolicy, RegkitError


class EVPError(RegkitError, ValueError):
    pass


@dataclass
class EVPInstance:
    space: FiniteMetricSpace
    f: np.ndarray          # +inf entries allowed; must be bounded below
    eps: float
    lam: float
    x0: int

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=float)
        if self.f.shape != (self.space.n,):
            raise EVPError("f must assign one value per point")
        if np.isneginf(self.f).any() or np.isnan(self.f).any():
            raise EVPError("f must be proper and bounded below")
        if not np.isfinite(self.f).any():
            raise EVPError("f is nowhere finite")
        if not (0 < self.eps < INF and 0 < self.lam < INF):  # NaN fails too
            raise EVPError("eps and lambda must be positive and finite")
        self.space._check(self.x0)
        if not np.isfinite(self.f[self.x0]):
            raise EVPError("starting point has infinite value")
        if not self.f[self.x0] < float(np.min(self.f)) + self.eps:
            raise EVPError("standing hypothesis f(x0) < inf f + eps fails")

    @property
    def slope(self) -> float:
        return self.eps / self.lam


@dataclass
class EVPStep:
    n: int
    x_n: int
    f_n: float
    a_n: float


@dataclass
class EVPResult:
    z: int
    steps: list[EVPStep] = field(default_factory=list)
    n_iter: int = 0
    residual: float = 0.0


def _residuals(inst: EVPInstance, xn: int) -> np.ndarray:
    """f(x_n) - f(u) - slope * d(u, x_n), vectorized over u, and 0 at x_n."""
    row = inst.space.dist_rows(np.array([xn]))[0]
    gain = np.where(np.isfinite(inst.f), inst.f[xn] - inst.f - inst.slope * row, -INF)
    gain[xn] = 0.0
    return gain


def evp_solve(inst: EVPInstance,
              policy: NumericPolicy = DEFAULT_POLICY) -> EVPResult:
    """Run the half-residual descent.

    Successor selection: among points whose gain reaches a_n / 2, take the
    maximal f-decrease, then the lowest index; a_n <= tol_strict stops.
    """
    tol = policy.tol_strict
    xn = int(inst.x0)
    steps: list[EVPStep] = []
    for n in range(policy.horizon):
        gains = _residuals(inst, xn)
        a_n = float(gains.max())
        steps.append(EVPStep(n, xn, float(inst.f[xn]), a_n))
        if a_n <= tol:
            return EVPResult(z=xn, steps=steps, n_iter=n, residual=a_n)
        decrease = np.where(gains >= a_n / 2, inst.f[xn] - inst.f, -INF)
        xn = int(np.argmax(decrease))  # argmax breaks ties at lowest index
    # residual halves each step, so the horizon is generous; reaching it
    # means tol is smaller than the geometric decay can deliver
    gains = _residuals(inst, xn)
    return EVPResult(z=xn, steps=steps, n_iter=policy.horizon,
                     residual=float(gains.max()))


@dataclass
class EVPCheck:
    near: bool           # (i)  d(z, x0) < lambda
    descent: bool        # (ii) f(z) <= f(x0)
    stationary: bool     # (iii) no u improves f(z) by more than slope * d
    violation: Optional[tuple] = None
    dist: float = 0.0

    @property
    def ok(self) -> bool:
        return self.near and self.descent and self.stationary


def evp_verify(inst: EVPInstance, z: int,
               policy: NumericPolicy = DEFAULT_POLICY) -> EVPCheck:
    """Check conclusions (i)-(iii) directly; independent of the solver."""
    tol = policy.tol_strict
    inst.space._check(z)
    dz = inst.space.dist_rows(np.array([inst.x0]))[0, z]
    near = dz < inst.lam
    descent = inst.f[z] <= inst.f[inst.x0] + tol
    gains = _residuals(inst, z)
    u = int(np.argmax(gains))
    stationary = gains[u] <= tol
    return EVPCheck(near=bool(near), descent=bool(descent),
                    stationary=bool(stationary),
                    violation=None if stationary else (u, float(gains[u])),
                    dist=float(dz))


def evp_oracle(inst: EVPInstance,
               policy: NumericPolicy = DEFAULT_POLICY) -> np.ndarray:
    """All points satisfying conclusions (i)-(iii), by brute force.

    Chunked over candidate points so the |X| x |X| distance tensor never
    materializes; used to cross-check that the solver's output lies in
    the exact solution set.
    """
    if inst.space.n > policy.evp_cap:
        raise EVPError(f"oracle capped at {policy.evp_cap} points")
    tol = policy.tol_strict
    finite = np.isfinite(inst.f)
    good: list[int] = []
    fvals = inst.f
    slope = inst.slope
    near = inst.space.dist_rows(np.array([inst.x0]))[0] < inst.lam
    idx_all = np.nonzero(near & finite & (fvals <= fvals[inst.x0] + tol))[0]
    chunk = 256     # block arrays are chunk x |X| floats: 20 MB at |X| = 10^4
    for lo in range(0, idx_all.size, chunk):
        cand = idx_all[lo:lo + chunk]
        # rows: candidate z; cols: competitor u
        D = inst.space.dist_rows(cand)
        gain = fvals[cand][:, None] - fvals[None, :] - slope * D
        gain[:, ~finite] = -INF
        gain[np.arange(cand.size), cand] = 0.0
        ok = gain.max(axis=1) <= tol
        good.extend(int(z) for z in cand[ok])
    return np.array(sorted(good), dtype=int)
