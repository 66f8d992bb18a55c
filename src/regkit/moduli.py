"""Functional moduli mu: [0, inf] -> [0, inf] and auxiliary scheme functions.

Three representations: linear kappa*t, power lam*t^k (k > 1 allowed
behind a "nonstandard" flag), and monotone tables (right-continuous step
or piecewise-linear interpolation).  All variants are nondecreasing and
upper semicontinuous by construction; mu(+inf) = +inf.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .policy import INF, RegkitError


class ModulusError(RegkitError, ValueError):
    pass


@dataclass(frozen=True)
class FunctionalModulus:
    kind: str                      # "linear" | "power" | "table"
    kappa: float = 1.0             # linear slope
    lam: float = 1.0               # power scale
    k: float = 1.0                 # power exponent
    breakpoints: tuple = ()        # table: ((t0, v0), (t1, v1), ...)
    interp: str = "step"           # table: "step" | "linear"
    nonstandard: bool = False

    def __post_init__(self):
        if self.kind == "linear":
            if self.kappa <= 0:
                raise ModulusError("linear modulus needs kappa > 0")
        elif self.kind == "power":
            if self.lam <= 0 or self.k <= 0:
                raise ModulusError("power modulus needs lam > 0, k > 0")
            if self.k > 1 and not self.nonstandard:
                raise ModulusError("exponent k > 1 requires the nonstandard flag")
        elif self.kind == "table":
            bps = tuple((float(t), float(v)) for t, v in self.breakpoints)
            if not bps:
                raise ModulusError("empty table modulus")
            ts = [t for t, _ in bps]
            vs = [v for _, v in bps]
            if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
                raise ModulusError("table breakpoints must be strictly increasing")
            if any(v2 < v1 for v1, v2 in zip(vs, vs[1:])):
                raise ModulusError("table modulus must be nondecreasing")
            if any(t < 0 or v < 0 for t, v in bps):
                raise ModulusError("table modulus must be nonnegative")
            object.__setattr__(self, "breakpoints", bps)
            if self.interp not in ("step", "linear"):
                raise ModulusError(f"bad interp {self.interp!r}")
            # mu as pieces a + b (t - c) / d, piece k for the t with k
            # breakpoints at or below them.  Piece 0 is 0 (step) or the ramp
            # v0 t / t0 from (0, 0) (linear); piece k is v[k-1] (step) or the
            # interpolation v[k-1] + (v[k] - v[k-1]) (t - t[k-1]) / (t[k] -
            # t[k-1]) (linear); the last piece is v[-1].  A constant piece has
            # b = -0.0, which adds -0.0 and so keeps its value.  Built once,
            # not as fields, so eq and hash read the breakpoints alone.
            ts, vs, lin = np.array(ts), np.array(vs), self.interp == "linear"
            abcd = np.array([
                np.r_[-0.0 if lin and ts[0] > 0 else 0.0, vs],
                np.r_[vs[0], np.diff(vs), -0.0] if lin else np.full(len(ts) + 1, -0.0),
                np.r_[0.0, ts],
                np.r_[ts[0] or 1.0, np.diff(ts), 1.0] if lin else np.ones(len(ts) + 1)])
            object.__setattr__(self, "_ts", ts)
            object.__setattr__(self, "_abcd", abcd)  # for each()
            object.__setattr__(self, "_pieces", abcd.T.tolist())  # for one t
        else:
            raise ModulusError(f"unknown modulus kind {self.kind!r}")

    def __call__(self, t: float) -> float:
        if t == INF:
            return INF
        if t < 0:
            raise ModulusError("modulus argument must be nonnegative")
        if self.kind == "linear":
            return self.kappa * t
        if self.kind == "power":
            return self.lam * t ** self.k
        a, b, c, d = self._pieces[bisect_right(self._ts, t)]
        return float(a + b * (t - c) / d)

    def each(self, t: np.ndarray) -> np.ndarray:
        """mu at each entry of t, equal to mu(t) bit for bit; NaN where
        t < 0, which mu rejects.  A power modulus is evaluated entry by
        entry, since np.power and ** differ in the last bit on some t."""
        t = np.asarray(t, dtype=float)
        if self.kind == "power":  # the arithmetic of __call__
            lam, k = self.lam, self.k
            out = np.array([lam * v ** k if v >= 0 else np.nan for v in t.tolist()])
        elif self.kind == "linear":
            out = self.kappa * t
        else:
            u = np.where((t >= 0) & (t < INF), t, 0.0)  # t = inf and t < 0 are set below
            a, b, c, d = self._abcd[:, np.searchsorted(self._ts, u, side="right")]
            out = a + b * (u - c) / d
            out[t == INF] = INF
        out[t < 0] = np.nan
        return out

    @property
    def continuous(self) -> bool:
        if self.kind in ("linear", "power"):
            return True
        return self.interp == "linear" and self.breakpoints[0][0] == 0.0

    @property
    def vanishes_only_at_zero(self) -> bool:
        if self.kind in ("linear", "power"):
            return True
        bps = self.breakpoints
        return bps[0] == (0.0, 0.0) and all(v > 0 for t, v in bps[1:])

    @classmethod
    def linear(cls, kappa: float) -> "FunctionalModulus":
        return cls("linear", kappa=kappa)

    @classmethod
    def power(cls, lam: float, k: float) -> "FunctionalModulus":
        return cls("power", lam=lam, k=k, nonstandard=k > 1)

    @classmethod
    def table(cls, breakpoints: Sequence[tuple], interp: str = "step") -> "FunctionalModulus":
        return cls("table", breakpoints=tuple(breakpoints), interp=interp)


@dataclass
class AuxScheme:
    """Auxiliary functions (b, m) and optional explicit sequences.

    b drives the parameter orbit tau, b(tau), b(b(tau)), ...; m controls
    the step sizes in X.  For the fixed-sequence criterion the explicit
    (b_n) and (c_n) tables are used together with the function m.
    """

    b: Optional[FunctionalModulus] = None
    m: Optional[FunctionalModulus] = None
    b_seq: tuple = ()
    c_seq: tuple = ()

    def orbit(self, t: float, horizon: int, tol: float = 1e-12) -> list[float]:
        """tau_n = b^n(t) down to <= tol or horizon; raises if b missing."""
        if self.b is None:
            raise ModulusError("scheme has no b function")
        out = [float(t)]
        for _ in range(horizon):
            nxt = self.b(out[-1])
            out.append(float(nxt))
            if nxt <= tol:
                break
        return out

    def orbit_vanishes(self, t: float, horizon: int, tol: float = 1e-12) -> bool:
        """Sufficient replacement for the m-vanishing condition: b^n(t) -> 0."""
        orb = self.orbit(t, horizon, tol)
        return orb[-1] <= tol and all(b <= a for a, b in zip(orb, orb[1:]))

    def m_vanishing_sampled(self, t: float, horizon: int,
                            tol: float = 1e-12) -> bool:
        """Sampled form of 'm(tau) -> 0 forces tau -> 0': inf m on [eps, t] > 0
        at 33 points for eps = t/2, ..., t/2^8, 264 calls of m at most."""
        if self.m is None:
            raise ModulusError("scheme has no m function")
        if t <= 0:
            return True
        for j in range(8):
            eps = t * 0.5 ** (j + 1)
            taus = np.linspace(eps, t, 33)
            if min(self.m(float(s)) for s in taus) <= tol:
                return False
        return True


def canonical_mu(scheme: AuxScheme, tau: float, horizon: int,
                 tol: float = 1e-12) -> float:
    """Smallest admissible mu: sum of m over the b-orbit of tau."""
    if scheme.b is None or scheme.m is None:
        raise ModulusError("canonical mu needs both b and m")
    total = 0.0
    cur = float(tau)
    for _ in range(horizon):
        if cur <= tol:
            return total
        total += scheme.m(cur)
        cur = scheme.b(cur)
    if cur > tol:
        return INF  # orbit failed to vanish: series not certified finite
    return total
