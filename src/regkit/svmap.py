"""Set-valued mappings F: X x R+ => Y on a finite parameter ladder.

Two backings share one query API: an explicit graph of (x, level, y)
triples, and the embedding of a plain mapping F: X => Y where the t-fibre
is the (open or closed) t-enlargement of F(x).  Both keep the onset matrix
on[x, y], the first positive ladder index with y in F(x, t).  An embedded
map is stored as it, so fine ladders stay cheap; a triple graph as sorted
(x, t, y) and (t, y, x) integer keys, each fibre and inverse one run.

The distance-like quantity delta(y, F, x) = inf{t > 0 | y in F(x, t)} is
resolved on the ladder: the returned value is the smallest positive
ladder level witnessing membership, which over-estimates the continuum
infimum by at most one ladder gap for monotone mappings.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from .metric import FiniteMetricSpace
from .policy import DEFAULT_POLICY, INF, NumericPolicy, RegkitError


class LadderError(RegkitError, ValueError):
    pass


@dataclass
class TLadder:
    """Strictly increasing finite list of parameter levels starting at 0."""

    levels: np.ndarray

    def __post_init__(self):
        lv = np.asarray(self.levels, dtype=float)
        if lv.ndim != 1 or lv.size == 0 or lv[0] != 0.0:
            raise LadderError("ladder must be a list of levels starting at 0")
        if not (np.diff(lv) > 0).all():  # a NaN level fails too
            raise LadderError("ladder levels must be strictly increasing")
        self.levels = lv

    def __len__(self):
        return len(self.levels)

    @property
    def positive(self) -> np.ndarray:
        return self.levels[1:]

    def index_of(self, t: float, tol: float = 1e-12) -> int:
        i = int(np.searchsorted(self.levels, t))
        for j in (i - 1, i, i + 1):
            if 0 <= j < len(self.levels) and abs(self.levels[j] - t) <= tol:
                return j
        raise LadderError(f"level {t} not on ladder")

    def snap_up(self, t: float, tol: float = 1e-12) -> int:
        """Index of the smallest level >= t (level 0 when t <= tol)."""
        if t <= tol:
            return 0
        i = int(np.searchsorted(self.levels, t - tol))
        if i >= len(self.levels):
            raise LadderError(f"value {t} above ladder top {self.levels[-1]}")
        return i

    def max_gap(self) -> float:
        return float(np.diff(self.levels).max())


@dataclass
class PlainSetValuedMap:
    """F: X => Y given by an explicit graph of (x, y) pairs."""

    X: FiniteMetricSpace
    Y: FiniteMetricSpace
    graph: set[tuple[int, int]]

    def __post_init__(self):
        self.graph = {(int(a), int(b)) for a, b in self.graph}
        images = [[] for _ in range(self.X.n)]
        preimages = [[] for _ in range(self.Y.n)]
        for (a, b) in sorted(self.graph):  # (a, b) order sorts both lists
            self.X._check(a)
            self.Y._check(b)
            images[a].append(b)
            preimages[b].append(a)
        self._images = [np.array(v, dtype=int) for v in images]
        self._preimages = [np.array(v, dtype=int) for v in preimages]

    def image(self, x: int) -> np.ndarray:
        return self._images[x]

    def preimage(self, y: int) -> np.ndarray:
        return self._preimages[y]

    def dist_to_image(self, y: int, x: int) -> float:
        """d(y, F(x)); +inf when F(x) is empty."""
        return float(self.Y.dist_row(y)[self._images[x]].min(initial=INF))

    def dist_to_image_matrix(self) -> np.ndarray:
        """Matrix D[x, y] = d(y, F(x)), one column-block min per x;
        computed once per map and read-only."""
        return self._dist_to_image

    @cached_property
    def _dist_to_image(self) -> np.ndarray:
        D = np.full((self.X.n, self.Y.n), INF)
        for xi, img in enumerate(self._images):
            if img.size:
                D[xi] = self.Y.dist_cols(img).min(axis=1)
        D.flags.writeable = False
        return D

    def dist_to_preimage(self, x: int, y: int) -> float:
        return float(self.X.dist_row(x)[self._preimages[y]].min(initial=INF))


class ParamSetValuedMap:
    """F: X x R+ => Y over a finite t-ladder."""

    def __init__(self, X: FiniteMetricSpace, Y: FiniteMetricSpace, ladder: TLadder,
                 graph: Optional[Iterable[tuple[int, int, int]]] = None,
                 embedded: Optional[tuple[np.ndarray, PlainSetValuedMap]] = None,
                 monotone: bool = False,
                 policy: NumericPolicy = DEFAULT_POLICY):
        self.X, self.Y, self.ladder, self.policy = X, Y, ladder, policy
        self._on, self._plain = embedded or (None, None)  # onset matrix, plain map
        if embedded is not None:
            self.graph = None
            return
        g = np.array(graph if isinstance(graph, np.ndarray) else list(graph or ()),
                     dtype=np.int64).reshape(-1, 3)
        nx, L, ny = X.n, len(ladder), Y.n
        X._check_each(g[:, 0])
        Y._check_each(g[:, 2])
        if g.size and not 0 <= g[:, 1].min() <= g[:, 1].max() < L:
            raise LadderError(f"level index {g[(g[:, 1] < 0) | (g[:, 1] >= L), 1][0]} off ladder")
        if nx * L * ny >= 2 ** 63:
            raise LadderError(f"{nx} x {L} x {ny} triples do not fit 64-bit keys")
        # the distinct triples as sorted (x, t, y) keys and (t, y, x) keys;
        # _fib and _inv are (ptr, members): F(x, t) is members[ptr[r]:
        # ptr[r + 1]] for r = x L + t, and F_t^{-1}(y) for r = t |Y| + y
        xty = np.unique((g[:, 0] * L + g[:, 1]) * ny + g[:, 2])
        self.graph = np.column_stack([xty // (L * ny), xty // ny % L, xty % ny])
        self.graph.flags.writeable = False  # fibres are views of it
        a, t, b = self.graph.T
        tyx = np.sort((t * ny + b) * nx + a)
        self._fib = (np.searchsorted(xty, np.arange(nx * L + 1) * ny), b)
        self._inv = (np.searchsorted(tyx, np.arange(L * ny + 1) * nx), tyx % nx)
        self._on, pos = np.full((nx, ny), L), t > 0
        np.minimum.at(self._on, (a[pos], b[pos]), t[pos])
        self._inv[1].flags.writeable = self._on.flags.writeable = False
        # monotone: every pair holds each level from its onset up, so the
        # positive triples number sum(L - on) exactly
        if monotone and pos.sum() != (L - self._on).sum():
            held = np.bincount(a[pos] * ny + b[pos], minlength=nx * ny)
            i = int(((L - self._on).ravel() != held)[a * ny + b].argmax())
            raise ValueError(f"monotonicity flag violated for pair ({a[i]},{b[i]})")

    # -- membership and fibres ------------------------------------------

    def contains(self, x: int, t_idx: int, y: int) -> bool:
        if self._plain is not None:
            if t_idx == 0:
                return (x, y) in self._plain.graph
            return bool(t_idx >= self._on[x, y])
        ys = self.fibre(x, t_idx)
        i = ys.searchsorted(y)
        return bool(i < ys.size and ys[i] == y)

    def fibre(self, x: int, t_idx: int) -> np.ndarray:
        """F(x, t) as sorted y indices."""
        if self._plain is not None:
            if t_idx == 0:
                return self._plain.image(x)
            return np.nonzero(self._on[x] <= t_idx)[0]
        (ptr, ys), r = self._fib, x * len(self.ladder) + t_idx
        return ys[ptr[r]:ptr[r + 1]]

    def inverse_at_level_idx(self, t_idx: int, y: int) -> np.ndarray:
        """F_t^{-1}(y) as sorted x indices, t given by ladder index."""
        if self._plain is not None:
            if t_idx == 0:
                return self._plain.preimage(y)
            return np.nonzero(self._on[:, y] <= t_idx)[0]
        (ptr, xs), r = self._inv, t_idx * self.Y.n + y
        return xs[ptr[r]:ptr[r + 1]]

    def delta(self, y: int, x: int) -> float:
        """Smallest positive ladder level t with y in F(x, t); +inf if none."""
        k = self._on[x, y]
        return float(self.ladder.levels[k]) if k < len(self.ladder) else INF

    def onset_matrix(self) -> np.ndarray:
        """Matrix on[x, y]: the first positive ladder index k with x in
        F_k^{-1}(y), or len(ladder) if none; every map is stored with it.
        For a monotone map (every embedded one) x is in F_k^{-1}(y), k >= 1,
        exactly when k >= on[x, y].
        """
        return self._on

    def delta_matrix(self) -> np.ndarray:
        """Matrix Dl[x, y] = delta(y, F, x), read off the onset matrix."""
        return np.append(self.ladder.levels, INF)[self.onset_matrix()]

    def dist_to_inverse(self, x: int, t_idx: int, y: int) -> float:
        return float(self.X.dist_row(x)[self.inverse_at_level_idx(t_idx, y)].min(initial=INF))

    def level0_image_dists(self, y: int) -> np.ndarray:
        """d(y, F_0(x)) for every x, +inf where F_0(x) is empty."""
        yrow = self.Y.dist_row(y)
        return np.array([yrow[self.fibre(x, 0)].min(initial=INF) for x in range(self.X.n)])


def embed_plain(F: PlainSetValuedMap, ladder: TLadder, closed: bool = False,
                policy: NumericPolicy = DEFAULT_POLICY) -> ParamSetValuedMap:
    """Embed a plain mapping as (x, t) -> t-enlargement of F(x), stored as
    its onset matrix: on[x, y] is the first positive ladder index k with
    d(y, F(x)) < t_k - tol (open) or d(y, F(x)) <= t_k + tol (closed), or
    len(ladder) if none."""
    D = F.dist_to_image_matrix()
    lv, tol = ladder.levels, policy.tol_strict
    if closed:  # d <= t + tol
        on = np.searchsorted(lv + tol, D, side="left")
    else:  # d < t - tol
        on = np.searchsorted(lv - tol, D, side="right")
    on = np.maximum(on, 1)
    on.flags.writeable = False
    return ParamSetValuedMap(F.X, F.Y, ladder, embedded=(on, F), policy=policy)


# -- outer semicontinuity at 0 ---------------------------------------------

@dataclass
class OscReport:
    holds: bool
    witness: Optional[int] = None

    def __bool__(self):
        return self.holds


def outer_semicontinuity_at_zero(F: ParamSetValuedMap, y: int) -> OscReport:
    """Check Limsup_{t->0} F_t^{-1}(y) inside F_0^{-1}(y), at ladder resolution.

    The limsup is operationalized at the smallest positive ladder level.
    """
    if F.ladder.positive.size == 0:
        raise LadderError("no positive ladder levels")
    zero = F.inverse_at_level_idx(0, y)
    # members of the zero fibre pass outright; any other z needs a member
    # within tol of it
    for z in np.setdiff1d(F.inverse_at_level_idx(1, y), zero).tolist():
        if F.X.dist_row(z)[zero].min(initial=INF) > F.policy.tol_strict:
            return OscReport(False, witness=z)
    return OscReport(True)


# -- embedding audit --------------------------------------------------------

@dataclass
class ClauseResult:
    clause: str
    status: str  # "pass" | "fail" | "not_applicable"
    witness: Optional[tuple] = None
    detail: str = ""


@dataclass
class AuditReport:
    clauses: list[ClauseResult]

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.clauses)

    def by_name(self, name: str) -> ClauseResult:
        return next(c for c in self.clauses if c.clause == name)


def _first_split(lo: np.ndarray, hi: np.ndarray, levels: np.ndarray):
    """(y, t) for the first level t = levels[k] at which some pair has
    lo <= k < hi, y from the row-major first such pair; None if none."""
    split = lo < hi
    if not split.any():
        return None
    k = lo[split].min()
    return int(np.argwhere(split & (lo == k))[0][1]), float(levels[k])


def prop41_audit(F: PlainSetValuedMap, ladder: TLadder,
                 policy: NumericPolicy = DEFAULT_POLICY) -> AuditReport:
    """Exhaustive audit of the plain-map embedding identities.

    Checks, by enumeration over the finite data: the level-0 fibres
    coincide with F; the ladder delta tracks d(y, F(x)) within one gap
    (exactly at representable boundaries for the closed embedding); the
    inverse-image identities for open and closed enlargements; and the
    image-space inclusion used by the image-space certifier.

    The positive-level identities compare onset matrices, not each level:
    the oracle's ball preimages and the embedding's inverses both grow with
    t (monotonicity), so each side is fixed by the level at which a pair
    (x, y) enters it.  A failing clause reports the first level at which
    the sets differ and the y of its row-major first pair.
    """
    Fo = embed_plain(F, ladder, closed=False, policy=policy)
    Fc = embed_plain(F, ladder, closed=True, policy=policy)
    gap = ladder.max_gap()
    tol = policy.tol_strict
    out: list[ClauseResult] = []

    # (i) level-0 fibres equal F (closure trivial on finite spaces)
    bad = None
    for xi in range(F.X.n):
        img = set(F.image(xi).tolist())
        if set(Fo.fibre(xi, 0).tolist()) != img or set(Fc.fibre(xi, 0).tolist()) != img:
            bad = (xi,)
            break
    out.append(ClauseResult("i", "fail" if bad else "pass", bad))

    # Independent re-derivation of d(y, F(x)) through Y-ball enumeration:
    # member[x, y'] and the Y distance table, masked-min over images.
    member = np.zeros((F.X.n, F.Y.n), dtype=bool)
    for (a, b) in F.graph:
        member[a, b] = True
    dY = np.stack([F.Y.dist_row(j) for j in range(F.Y.n)])  # dY[y, y']
    dplain = np.full((F.X.n, F.Y.n), INF)
    for xi in range(F.X.n):
        if member[xi].any():
            dplain[xi] = dY[:, member[xi]].min(axis=1)

    # (ii) delta within one ladder gap of d(y, F(x)); exact at closed boundaries
    bad = None
    detail = ""
    for G, name in ((Fo, "open"), (Fc, "closed")):
        dl = G.delta_matrix()
        inf_mismatch = (dl == INF) != (dplain == INF)
        fin = np.isfinite(dplain) & np.isfinite(dl)
        off = fin & ((dl < dplain - tol) | (dl > dplain + gap + tol))
        if inf_mismatch.any() or off.any():
            w = np.argwhere(inf_mismatch | off)[0]
            bad, detail = (name, int(w[0]), int(w[1])), "delta off by more than one gap"
            break
        if name == "closed":
            # exact equality when d(y, F(x)) sits on a positive ladder level
            on_level = fin & (np.abs(
                ladder.levels[np.clip(np.searchsorted(ladder.levels, dplain.clip(max=1e300)),
                                      0, len(ladder.levels) - 1)] - dplain) <= tol) & (dplain > tol)
            diff = np.where(fin, dl, 0.0) - np.where(fin, dplain, 0.0)
            exact_bad = on_level & (np.abs(diff) > tol)
            if exact_bad.any():
                w = np.argwhere(exact_bad)[0]
                bad, detail = (name, int(w[0]), int(w[1])), "closed delta missed boundary"
                break
    out.append(ClauseResult("ii", "fail" if bad else "pass", bad, detail))

    # (iii), (iv), (vi): inverse-image identities on onsets; the oracle's
    # come from its own dplain, by the comparisons the engine documents
    bad3 = bad4 = bad6 = None
    # level 0: plain preimages must coincide with level-0 inverses
    for yi in range(F.Y.n):
        if set(Fo.inverse_at_level_idx(0, yi).tolist()) != set(np.nonzero(member[:, yi])[0].tolist()):
            bad3 = (yi, 0.0)
            break
    lv = ladder.levels
    o_open = np.maximum(np.searchsorted(lv - tol, dplain, side="right"), 1)
    o_closed = np.maximum(np.searchsorted(lv + tol, dplain, side="left"), 1)
    e_open, e_closed = Fo.onset_matrix(), Fc.onset_matrix()
    if bad3 is None:
        bad3 = _first_split(np.minimum(o_open, e_open), np.maximum(o_open, e_open), lv)
    bad4 = _first_split(o_closed, e_closed, lv)
    open6, closed6 = _first_split(o_open, e_open, lv), _first_split(o_open, e_closed, lv)
    if open6 and (not closed6 or open6[1] <= closed6[1]):
        bad6 = ("open", open6[1])
    elif closed6:
        bad6 = ("closed", closed6[1])
    out.append(ClauseResult("iii", "fail" if bad3 else "pass", bad3))
    out.append(ClauseResult("iv", "fail" if bad4 else "pass", bad4))
    out.append(ClauseResult("vi", "fail" if bad6 else "pass", bad6))

    out.append(ClauseResult("vii", "not_applicable", None,
                            "upper semicontinuity is vacuous on finite spaces"))
    return AuditReport(out)
