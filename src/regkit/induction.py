"""Cauchy-iteration engine: execute and verify the chain-building step.

Given a mapping Phi from ladder levels to subsets of a finite metric
space, sequences a_n (down to 0, a_0 = t) and b_n (summable), the engine
checks the step condition d(u, Phi(a_{n+1})) < b_n on the admissible
region and constructs a chain x_0 = x, x_1, ... landing in Phi(0) within
distance sum(b_n).

Off-ladder a_n values snap to the nearest level not below a_n; values at
or below the strictness tolerance snap to level 0.  The chain search is
a depth-first traversal ordered by (distance, index), so the certified /
failed verdict coincides with an exhaustive path search while the
reported trace is the greedy-first chain.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, tee
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .metric import FiniteMetricSpace
from .policy import DEFAULT_POLICY, INF, NumericPolicy, RegkitError
from .svmap import LadderError, ParamSetValuedMap, TLadder


class PreconditionError(RegkitError, ValueError):
    pass


@dataclass
class LevelMap:
    """Phi: R+ => X sampled on a ladder; fibres are x-index sets."""

    space: FiniteMetricSpace
    ladder: TLadder
    fibres: dict[int, np.ndarray]  # level index -> sorted x indices

    def fibre(self, level_idx: int) -> np.ndarray:
        return self.fibres.get(level_idx, np.empty(0, dtype=int))

    @classmethod
    def from_table(cls, space, ladder, table: dict[int, Iterable[int]]) -> "LevelMap":
        fib = {int(k): np.array(sorted(set(int(i) for i in v)), dtype=int)
               for k, v in table.items()}
        return cls(space, ladder, fib)

    @classmethod
    def from_param_map(cls, F: ParamSetValuedMap, y: int) -> "LevelMap":
        """Phi(tau) := F_tau^{-1}(y)."""
        fib = {k: F.inverse_at_level_idx(k, y) for k in range(len(F.ladder))}
        return cls(F.X, F.ladder, fib)


@dataclass
class Seq:
    kind: str          # "geometric" | "explicit"
    first: float = 0.0
    ratio: float = 0.0
    table: tuple = ()

    def value(self, n: int) -> float:
        if self.kind == "geometric":
            return self.first * self.ratio ** n
        return float(self.table[n]) if n < len(self.table) else 0.0

    @classmethod
    def geometric(cls, first: float, ratio: float) -> "Seq":
        if first <= 0 or not (0 < ratio < 1):
            raise PreconditionError("geometric sequence needs first>0, ratio in (0,1)")
        return cls("geometric", first=first, ratio=ratio)

    @classmethod
    def explicit(cls, table: Iterable[float]) -> "Seq":
        tab = tuple(float(v) for v in table)
        if any(v <= 0 for v in tab):
            raise PreconditionError("explicit sequence entries must be positive")
        return cls("explicit", table=tab)


@dataclass
class SequenceSpec:
    a: Seq
    b: Seq
    horizon: int = 64

    def b_total(self) -> float:
        """sum(b_n): analytic tail for geometric specs, truncation otherwise."""
        if self.b.kind == "geometric":
            return self.b.first / (1.0 - self.b.ratio)
        return float(sum(self.b.table))

    def b_partial(self, n: int) -> float:
        return float(sum(self.b.value(i) for i in range(n)))

    def b_steps(self) -> Iterator[tuple[float, float]]:
        """(b_n, b_partial(n)) for n < horizon, each b_n read once; the sums
        are b_partial's left-to-right additions in one pass, bit for bit."""
        b, partial = tee(self.b.value(n) for n in range(self.horizon))
        return zip(b, accumulate(partial, initial=0.0))


@dataclass
class StepRecord:
    n: int
    a_n: float
    level: float
    x_n: int
    b_n: float
    n_candidates: int


@dataclass
class IterationTrace:
    steps: list[StepRecord] = field(default_factory=list)
    witness: Optional[int] = None
    bound: float = INF
    status: str = "pending"   # certified | precondition_failed | horizon_exhausted
    failed_condition: str = ""
    failed_at: int = -1
    message: str = ""

    @property
    def certified(self) -> bool:
        return self.status == "certified"


@dataclass
class PreReport:
    ok: bool
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    witness: Optional[tuple[int, int]] = None  # (n, u) of first (A3) violation

    def __bool__(self):
        return self.ok


def _fibres_in_U(phi: LevelMap, t: float, x: int, restrict_U: Optional[set[int]],
                 tol: float) -> Callable[[int], np.ndarray]:
    """Check x in Phi(t) and in U; return Phi's fibre query restricted to U."""
    if int(x) not in phi.fibre(phi.ladder.index_of(t, tol)).tolist():
        raise PreconditionError(f"x={x} not in Phi(t={t})")
    if restrict_U is None:
        return phi.fibre
    if int(x) not in restrict_U:
        raise PreconditionError(f"x={x} not in the restriction set")
    keep = np.array(list(restrict_U))

    def fibre(level_idx: int) -> np.ndarray:
        fib = phi.fibre(level_idx)
        return fib[np.isin(fib, keep)]
    return fibre


def step_distances(space: FiniteMetricSpace, fib: np.ndarray, nxt: np.ndarray,
                   x: int, radius: float, tol: float) -> Iterator[tuple[int, float]]:
    """The induction step: (u, d(u, nxt)) for each u of fib in the region,
    in index order.  The region is {x} at radius <= 0, else the u with
    d(x, u) < radius - tol; the distance to an empty nxt is +inf.  Each
    caller applies its own bound to d(u, nxt)."""
    region = fib[fib == x] if radius <= 0 else fib[space.dist_row(x)[fib] < radius - tol]
    for u in region.tolist():
        yield u, space.dist_row(u)[nxt].min(initial=INF)


def verify_preconditions(phi: LevelMap, t: float, x: int, seqs: SequenceSpec,
                         restrict_U: Optional[set[int]] = None,
                         policy: NumericPolicy = DEFAULT_POLICY) -> PreReport:
    """Check summability, a_0 = t, a_n down to 0, and the step condition."""
    checks: list[tuple[str, bool, str]] = []
    tol = policy.tol_strict
    ladder = phi.ladder

    total = seqs.b_total()
    checks.append(("A4", np.isfinite(total), f"sum b_n = {total}"))

    a0 = seqs.a.value(0)
    a_ok = abs(a0 - t) <= tol
    msg = f"a_0 = {a0}, t = {t}"
    prev = a0
    reached_zero = False
    for n in range(1, seqs.horizon + 1):
        an = seqs.a.value(n)
        if an > prev + tol:
            a_ok, msg = False, f"a_{n} = {an} increases"
            break
        prev = an
        if an <= tol:
            reached_zero = True
            break
    if a_ok and not reached_zero:
        a_ok, msg = False, "a_n does not reach 0 within horizon"
    checks.append(("A2", a_ok, msg))

    fibre = _fibres_in_U(phi, t, x, restrict_U, tol)
    witness = None
    a3_ok, a3_msg = True, ""
    a_next = a0
    for n, (b_n, radius) in enumerate(seqs.b_steps()):
        a_n, a_next = a_next, seqs.a.value(n + 1)
        try:
            lev_n = ladder.snap_up(a_n, tol)
            lev_next = ladder.snap_up(a_next, tol)
        except LadderError as e:
            raise PreconditionError(f"resolution error at n={n}: {e}") from e
        if n and not radius:
            continue  # the open ball B(x, 0) is empty: a vacuous step
        stepped = False
        for u, du in step_distances(phi.space, fibre(lev_n), fibre(lev_next),
                                    x, radius, tol):
            stepped = True
            if not policy.lt(du, b_n):
                a3_ok, witness = False, (n, u)
                a3_msg = f"d(u={u}, Phi(a_{n + 1})) = {du} >= b_{n} = {b_n}"
                break
        if not a3_ok or (stepped and lev_next == 0):
            break  # an empty region is vacuous and does not end the sweep
    checks.append(("A3", a3_ok, a3_msg))
    return PreReport(ok=all(c[1] for c in checks), checks=checks, witness=witness)


def run_induction(phi: LevelMap, t: float, x: int, seqs: SequenceSpec,
                  restrict_U: Optional[set[int]] = None,
                  policy: NumericPolicy = DEFAULT_POLICY) -> IterationTrace:
    """Execute the chain construction; returns a trace with verdict.

    Depth-first over admissible successors, ordered by (distance, index),
    with dead-state memoization: certifies exactly when some admissible
    chain reaches Phi(0), and the reported chain is the greedy-first one.
    """
    tol = policy.tol_strict
    ladder = phi.ladder
    trace = IterationTrace(bound=seqs.b_total())
    fibre = _fibres_in_U(phi, t, x, restrict_U, tol)

    levels = []
    for n in range(seqs.horizon + 1):
        try:
            lev = ladder.snap_up(seqs.a.value(n), tol)
        except LadderError as e:
            raise PreconditionError(f"resolution error at n={n}: {e}") from e
        levels.append(lev)
        if lev == 0:
            break
    if levels[-1] != 0:
        trace.status = "horizon_exhausted"
        trace.message = "a_n did not reach ladder level 0 within horizon"
        return trace

    depth_cap = len(levels) - 1
    dead: set[tuple[int, int]] = set()
    deepest = [0]
    path: list[tuple[int, int]] = []  # (x_n, n_candidates)

    def successors(n: int, xn: int) -> list[int]:
        nxt = fibre(levels[n + 1])
        d = phi.space.dist_row(xn)[nxt]
        ok = d < seqs.b.value(n) - tol
        return nxt[ok][np.lexsort((nxt[ok], d[ok]))].tolist()

    def dfs(n: int, xn: int) -> bool:
        deepest[0] = max(deepest[0], n)
        if n == depth_cap:
            path.append((xn, 0))
            return True
        if (n, xn) in dead:
            return False
        cands = successors(n, xn)
        path.append((xn, len(cands)))
        for c in cands:
            if dfs(n + 1, c):
                return True
        path.pop()
        dead.add((n, xn))
        return False

    found = dfs(0, int(x))
    for n, (xn, ncand) in enumerate(path):
        trace.steps.append(StepRecord(
            n=n, a_n=seqs.a.value(n), level=float(ladder.levels[levels[n]]),
            x_n=int(xn), b_n=seqs.b.value(n), n_candidates=ncand))
    if not found:
        trace.status = "precondition_failed"
        trace.failed_condition = "A3"
        trace.failed_at = deepest[0]
        if deepest[0] == depth_cap - 1:
            trace.message = ("no admissible step into Phi(0): "
                             "outer-semicontinuity violation at ladder resolution")
        else:
            trace.message = f"no admissible successor at step {deepest[0]}"
        return trace

    z = trace.steps[-1].x_n
    # independent confirmation: z in Phi(0) and d(x, z) < sum b_n
    in_zero = int(z) in set(phi.fibre(0).tolist())
    dz = phi.space.d(int(x), int(z))
    if in_zero and policy.lt(dz, trace.bound):
        trace.status = "certified"
        trace.witness = int(z)
        trace.message = f"z={z}, d(x,z)={dz} < {trace.bound}"
    else:
        trace.status = "precondition_failed"
        trace.failed_condition = "bound"
        trace.message = f"chain landed at z={z} but d(x,z)={dz} vs bound {trace.bound}"
    return trace
