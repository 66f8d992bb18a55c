"""Instance files: one schema, loading with located errors, and generators.

One versioned JSON format carries every kind of instance the toolkit reads.
`_get` reads each field by one rule of a closed set and raises any failure
as an `InstanceError` at the field's JSON pointer; `_make` locates at its
section the invariant a regkit constructor rejects.  Every integer of a
file sizes an array the file holds or is capped, and a map's |X|·|Y| is
capped (`MAP_CAP`), so memory stays bounded by the file's size and the
caps.  Loading a map allocates no |X|×|Y| array; its embedding builds
them on its first query.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .ekeland import EVPInstance
from .induction import Seq, SequenceSpec
from .metric import FiniteMetricSpace
from .moduli import AuxScheme, FunctionalModulus
from .optcond import OptInstance, PolyMapSpec
from .policy import DEFAULT_POLICY, NumericPolicy, RegkitError
from .polyhedra import Polyhedron
from .svmap import ParamSetValuedMap, PlainSetValuedMap, TLadder, embed_plain

FORMAT_VERSION = 1

# The largest accepted value of each policy loop count (the least is 1):
POLICY_CAPS = {
    "horizon": 512,             # run_induction recurses per step; Python stops at 1,000
    "cone_gamma_levels": 1074,  # the cone oracles' gamma_k = 2^-k is 0.0 for k > 1074
    "evp_cap": 100_000,         # evp_oracle's |X|^2 distances: 10^10 at this cap
}
# The largest accepted |X|·|Y| of a map: an embedding's first query builds
# dist_to_image_matrix and the onset matrix, |X|×|Y| arrays of 32 MB each here
MAP_CAP = 4_000_000


class InstanceError(RegkitError, ValueError):
    """Schema or invariant violation, carrying a JSON-pointer location."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


@dataclass
class InstanceFile:
    kind: str
    policy: NumericPolicy
    raw: dict
    X: Optional[FiniteMetricSpace] = None
    Y: Optional[FiniteMetricSpace] = None
    plain: Optional[PlainSetValuedMap] = None
    param: Optional[ParamSetValuedMap] = None
    ladder: Optional[TLadder] = None
    mu: Optional[FunctionalModulus] = None
    scheme: Optional[AuxScheme] = None
    W: list = field(default_factory=list)
    nu: dict = field(default_factory=dict)
    evp: Optional[EVPInstance] = None
    opt: Optional[OptInstance] = None
    meta: dict = field(default_factory=dict)
    kappa_true: Optional[float] = None          # /meta/kappa_true
    sequences: Optional[SequenceSpec] = None


# -- the schema: how each field is read, converted and located ---------------

def _get(sec: dict, key, ptr: str, rule, *args, default=...):
    """sec[key] converted by rule(value, pointer, *args), or the default when
    absent (a field without one is required).  A failed conversion is raised
    at the field's pointer; an InstanceError raised deeper passes unchanged."""
    at = f"{ptr}/{key}"
    if key not in sec:
        if default is ...:
            raise InstanceError(at, "missing")
        return default
    try:
        return rule(sec[key], at, *args)
    except InstanceError:
        raise
    except (TypeError, ValueError, KeyError, IndexError, OverflowError) as e:
        raise InstanceError(at, str(e)) from e


def _make(ptr: str, build, *args, **kw):
    """build(*args, **kw), with the invariant it rejects located at ptr."""
    try:
        return build(*args, **kw)
    except InstanceError:
        raise
    except (RegkitError, ValueError) as e:  # svmap's monotone check: ValueError
        raise InstanceError(ptr, str(e)) from e


def _is(v, at, kind, options=()):
    """v itself if it is a JSON value of that kind, and one of options if any."""
    if not isinstance(v, kind) or (options and v not in options):
        raise TypeError("must be " + (" or ".join(map(json.dumps, options)) or {
            dict: "an object", list: "an array", str: "a string", bool: "a boolean"}[kind]))
    return v


def _number(v, at, lo=-np.inf) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) \
            or not lo <= float(v) < np.inf:
        raise ValueError("must be a finite number" + (f" >= {lo}" if lo > -np.inf else ""))
    return float(v)


def _int(v, at, lo, hi=np.inf) -> int:
    if isinstance(v, bool) or not isinstance(v, int) or not lo <= v <= hi:
        raise ValueError(f"must be {lo}" if lo == hi else
                         f"must be an integer in [{lo}, {hi}]")
    return v


def _floats(v, at, *shapes) -> np.ndarray:
    """v as one float array whose shape fits one of shapes (None: any)."""
    a = np.array(v, dtype=float)
    if not any(len(s) == a.ndim and all(k in (None, m) for k, m in zip(s, a.shape))
               for s in shapes):
        raise ValueError(f"must be an array of shape {' or '.join(map(str, shapes))}"
                         f", not {a.shape}".replace("None", "*"))
    return a


def _rows(v, at, sizes, free=0) -> np.ndarray:
    """v as a (k, len(sizes) + free) float array whose column j < len(sizes)
    holds integers in [0, sizes[j]); the first row breaking this is located."""
    width = len(sizes) + free
    a = _floats(v, at, (None, width), (0,)).reshape(-1, width)
    idx = a[:, :len(sizes)]
    bad = ((idx < 0) | (idx >= sizes) | (idx % 1 != 0)).any(axis=1)
    if bad.any():
        i = int(bad.argmax())
        raise InstanceError(f"{at}/{i}", f"{v[i]} has an index outside the "
                                         f"sizes {tuple(sizes)}")
    return a


# -- sections, each read through the rules above ----------------------------

def _space(sec, at, policy) -> FiniteMetricSpace:
    metric = _get(_is(sec, at, dict), "metric", at, _is, str)
    arr = {"dmatrix": _get(sec, "dmatrix", at, _floats, (None, None))} \
        if metric == "matrix" else \
        {"coords": _get(sec, "points", at, _floats, (None,), (None, None))}
    return _make(at, FiniteMetricSpace, metric=metric, policy=policy, **arr)


def _map(sec, at, X, Y, policy) -> tuple:
    """(ladder, plain map, parametric map) of the map section."""
    if X is None or Y is None:
        raise InstanceError(at, "map requires X and Y spaces")
    if X.n * Y.n > MAP_CAP:
        raise InstanceError(at, f"{X.n} x {Y.n} points is above the cap of {MAP_CAP} pairs")
    embed = _get(_is(sec, at, dict), "embed", at, _is, str, ("open", "closed"),
                 default="open")
    ladder = _get(sec, "ladder", at, _floats, (None,), default=None)
    ladder = ladder if ladder is None else _make(at + "/ladder", TLadder, ladder)
    if "plain_graph" in sec:
        pairs = _get(sec, "plain_graph", at, _rows, (X.n, Y.n)).astype(int)
        plain = _make(at + "/plain_graph", PlainSetValuedMap, X, Y, pairs.tolist())
        return ladder, plain, None if ladder is None else embed_plain(
            plain, ladder, closed=embed == "closed", policy=policy)
    if "graph" not in sec:
        return ladder, None, None
    if ladder is None:
        raise InstanceError(at + "/ladder", "missing for triple graph")
    triples = _get(sec, "graph", at, _rows, (X.n, len(ladder), Y.n)).astype(int)
    return ladder, None, _make(
        at + "/graph", ParamSetValuedMap, X, Y, ladder, graph=triples,
        monotone=_get(sec, "monotone", at, _is, bool, default=False), policy=policy)


def _modulus(sec, at) -> FunctionalModulus:
    kind = _get(_is(sec, at, dict), "kind", at, _is, str, ("linear", "power", "table"))
    if kind == "table":
        return _make(at, FunctionalModulus.table,
                     _get(sec, "breakpoints", at, _floats, (None, 2)),
                     interp=_get(sec, "interp", at, _is, str, default="step"))
    args = ("kappa",) if kind == "linear" else ("lam", "k")
    return _make(at, getattr(FunctionalModulus, kind),
                 *(_get(sec, k, at, _number) for k in args))


def _scheme(sec, at) -> AuxScheme:
    return AuxScheme(
        b=_get(_is(sec, at, dict), "b", at, _modulus, default=None),
        m=_get(sec, "m", at, _modulus, default=None),
        **{k: tuple(_get(sec, k, at, _floats, (None,), default=np.empty(0)).tolist())
           for k in ("b_seq", "c_seq")})


def _seq(sec, at) -> Seq:
    kind = _get(_is(sec, at, dict), "kind", at, _is, str, ("geometric", "explicit"))
    if kind == "explicit":
        return _make(at, Seq.explicit, _get(sec, "table", at, _floats, (None,)).tolist())
    return _make(at, Seq.geometric, *(_get(sec, k, at, _number) for k in ("first", "ratio")))


def _evp(sec, at, X) -> EVPInstance:
    if X is None:
        raise InstanceError(at, "evp requires the X space")
    f = _get(_is(sec, at, dict), "f", at, _floats, (None,))
    if np.isnan(f).any():  # null means +inf; a NaN stays for EVPInstance
        f[np.array(sec["f"], dtype=object) == None] = np.inf  # noqa: E711
    return _make(at, EVPInstance, space=X, f=f, eps=_get(sec, "epsilon", at, _number),
                 lam=_get(sec, "lambda", at, _number), x0=_get(sec, "x0", at, _int, 0))


def _polyhedron(sec, at, dim) -> Polyhedron:
    A = _get(_is(sec, at, dict), "A", at, _floats, (None, dim))
    return _make(at, Polyhedron, A, _get(sec, "b", at, _floats, (None,)))


def _polymap(sec, at, n_in, n_out) -> PolyMapSpec:
    for key, k in (("n_in", n_in), ("n_out", n_out)):
        _get(_is(sec, at, dict), key, at, _int, k, k)
    return PolyMapSpec(_polyhedron(sec, at, n_in + n_out), n_in, n_out)


def _poly(sec, at) -> OptInstance:
    """The optimisation problem; n, p, q and r must size every array."""
    n, p, q, r = (_get(_is(sec, at, dict), k, at, _int, 1) for k in "npqr")
    base = dict(enumerate(_get(sec, "base", at, _is, list)))
    opt = OptInstance(
        n, p, q, r, *(_get(sec, k, at, _polyhedron, d)
                      for k, d in (("S", n), ("C", p), ("D", q), ("Q", p))),
        *(_get(sec, k, at, _polymap, n, d)
          for k, d in (("F_graph", p), ("G_graph", q), ("H_graph", r))),
        *(_get(base, i, at + "/base", _floats, (d,)) for i, d in enumerate((n, p, q))))
    problems = _make(at, opt.validate)
    if problems:
        raise InstanceError(at, "; ".join(problems))
    return opt


_POLICY_RULES = {f.name: {bool: (_is, bool), float: (_number, 0.0),
                          int: (_int, 1 if f.name in POLICY_CAPS else 0,
                                POLICY_CAPS.get(f.name, np.inf))}[type(f.default)]
                 for f in fields(NumericPolicy)}


def _policy(sec, at, override: Optional[dict]) -> NumericPolicy:
    """The section with the overrides, each read by its default's type's rule."""
    sec = dict(_is(sec, at, dict),
               **{k: v for k, v in (override or {}).items() if v is not None})
    for name in sec:
        if name not in _POLICY_RULES:
            raise InstanceError(f"{at}/{name}", "unknown policy field")
    return DEFAULT_POLICY.with_overrides(
        **{name: _get(sec, name, at, *_POLICY_RULES[name]) for name in sec})


def load_instance(path: str, policy_override: Optional[dict] = None) -> InstanceFile:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise InstanceError("/", f"cannot read instance: {e}") from e
    return parse_instance(raw, policy_override)


def parse_instance(raw: dict, policy_override: Optional[dict] = None) -> InstanceFile:
    raw = _get({"": raw}, "", "", _is, dict)        # the document, at "/"
    _get(raw, "version", "", _int, FORMAT_VERSION, FORMAT_VERSION)
    policy = _get({"policy": {}, **raw}, "policy", "", _policy, policy_override)
    meta = _get(raw, "meta", "", _is, dict, default={})
    seqs = _get(raw, "sequences", "", _is, dict, default=None)
    X, Y = (_get(raw, k, "", _space, policy, default=None) for k in "XY")
    ladder, plain, param = _get(raw, "map", "", _map, X, Y, policy,
                                default=(None, None, None))
    sizes = tuple(0 if S is None else S.n for S in (X, Y))
    W = _get(raw, "W", "", _rows, sizes, default=np.empty((0, 2))).astype(int)
    nu = _get(raw, "nu", "", _rows, sizes, 1, default=np.empty((0, 3)))
    return InstanceFile(
        kind=_get(raw, "kind", "", _is, str, default="generic"), policy=policy,
        raw=raw, X=X, Y=Y, plain=plain, param=param, ladder=ladder,
        mu=_get(raw, "mu", "", _modulus, default=None),
        scheme=_get(raw, "scheme", "", _scheme, default=None),
        W=list(map(tuple, W.tolist())),
        nu=dict(zip(map(tuple, nu[:, :2].astype(int).tolist()), nu[:, 2].tolist())),
        evp=_get(raw, "evp", "", _evp, X, default=None),
        opt=_get(raw, "poly", "", _poly, default=None), meta=meta,
        kappa_true=_get(meta, "kappa_true", "/meta", _number, default=None),
        sequences=None if seqs is None else SequenceSpec(
            *(_get(seqs, k, "/sequences", _seq) for k in "ab"), horizon=policy.horizon))


def save_instance(raw: dict, path: str):
    with open(path, "w") as fh:
        json.dump(raw, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- generators -------------------------------------------------------------

SIZE_CAPS = {"plain-lipschitz": 200, "param-monotone": 200,
             "evp": 10_000, "polyhedral-opt": 6}


def generate_instance(kind: str, size: int, seed: int) -> dict:
    if kind not in SIZE_CAPS:
        raise InstanceError("/kind", f"unknown kind {kind!r}")
    if size > SIZE_CAPS[kind]:
        raise InstanceError("/size", f"cap for {kind} is {SIZE_CAPS[kind]}")
    gen = {"plain-lipschitz": _gen_plain_lipschitz, "param-monotone": _gen_param_monotone,
           "evp": _gen_evp, "polyhedral-opt": _gen_polyopt}[kind]
    return {**gen(size, np.random.default_rng(seed)), "version": FORMAT_VERSION,
            "kind": kind, "policy": {"seed": seed}}


def _gen_plain_lipschitz(size: int, rng) -> dict:
    """Y is a c-scaled copy of X with identity pairing, so the best linear
    modulus for the identity query set is exactly 1/c (recorded)."""
    n = max(size, 3)
    xs = np.sort(rng.uniform(-5.0, 5.0, size=n))
    c = float(rng.uniform(0.5, 2.0))
    ys = c * xs
    W = [[i, int(j)] for i in range(n)
         for j in rng.choice(n, size=min(n, 8), replace=False)]
    return {
        "X": {"metric": "euclidean", "points": xs.tolist()},
        "Y": {"metric": "euclidean", "points": ys.tolist()},
        "map": {"plain_graph": [[i, i] for i in range(n)], "embed": "open",
                "ladder": np.linspace(0.0, float(2 * np.ptp(ys) + 1.0),
                                      33).tolist()},
        "mu": {"kind": "linear", "kappa": 1.0 / c},
        "W": W,
        "meta": {"kappa_true": 1.0 / c, "scale": c},
    }


def _gen_param_monotone(size: int, rng) -> dict:
    n = max(size, 3)
    m = max(n // 2, 2)
    xs = np.sort(rng.uniform(0.0, 4.0, size=n))
    ys = np.sort(rng.uniform(0.0, 4.0, size=m))
    levels = np.linspace(0.0, 2.0, 9).tolist()
    L = len(levels)
    triples = []
    for i in range(n):
        for j in rng.choice(m, size=min(m, 3), replace=False):
            onset = int(rng.integers(0, L))
            for t in range(onset, L):
                if t > 0 or onset == 0:
                    triples.append([i, t, int(j)])
    W = [[int(i), int(rng.integers(0, m))] for i in range(n)]
    return {
        "X": {"metric": "euclidean", "points": xs.tolist()},
        "Y": {"metric": "euclidean", "points": ys.tolist()},
        "map": {"ladder": levels, "graph": triples, "monotone": True},
        "mu": {"kind": "linear", "kappa": float(rng.uniform(1.0, 4.0))},
        "W": W,
    }


def _gen_evp(size: int, rng) -> dict:
    n = max(size, 4)
    pts = rng.uniform(-3.0, 3.0, size=(n, 2))
    f = (pts ** 2).sum(axis=1) + rng.normal(scale=0.3, size=n)
    f -= f.min()
    eps = float(rng.uniform(0.5, 2.0))
    lam = float(rng.uniform(0.5, 3.0))
    x0 = int(rng.choice(np.nonzero(f < f.min() + eps)[0]))
    return {
        "X": {"metric": "euclidean", "points": pts.tolist()},
        "evp": {"f": f.tolist(), "epsilon": eps, "lambda": lam, "x0": x0},
    }


def _linmap_graph(M) -> dict:
    """Graph section of the single-valued map x -> M x (equality pairs)."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    mm, nn = M.shape
    A = np.block([[M, -np.eye(mm)], [-M, np.eye(mm)]])
    return {"A": A.tolist(), "b": [0.0] * (2 * mm), "n_in": nn, "n_out": mm}


def _poly_raw(AS, MF, MG, MH) -> dict:
    """The poly section of min F(x) on S = {AS x <= 0}, G(x) in -D, 0 in H(x),
    for linear maps x -> M x into R, C = D = Q = R+ and base point 0."""
    n = len(AS[0])
    ray = {"A": [[-1.0]], "b": [0.0]}          # the half-line t >= 0
    return {"n": n, "p": 1, "q": 1, "r": 1,
            "S": {"A": np.asarray(AS, dtype=float).tolist(), "b": [0.0] * len(AS)},
            "C": ray, "D": ray, "Q": ray,
            "F_graph": _linmap_graph(MF), "G_graph": _linmap_graph(MG),
            "H_graph": _linmap_graph(MH),
            "base": [[0.0] * n, [0.0], [0.0]]}


def _gen_polyopt(size: int, rng) -> dict:
    """A random linear vector problem around the origin, optimal by design:
    G, H, S are random and M_F = -beta M_G - w M_H - gamma' A_S for a chosen
    certificate (beta, w, gamma >= 0), so v* = 1, k* = beta, w* = w are exact
    multipliers for the critical triple (0, 0, 0) and the rule holds on all
    of S with right-hand side 0.  The certificate is recorded in metadata."""
    n = int(np.clip(size, 2, 6))
    MG = rng.normal(size=(1, n)).round(3)
    MH = rng.normal(size=(1, n)).round(3)
    n_rows = int(rng.integers(1, n + 1))
    AS = rng.normal(size=(n_rows, n)).round(3)
    beta = round(float(rng.uniform(0.0, 2.0)), 3)
    wmul = round(float(rng.normal()), 3)
    gamma = rng.uniform(0.0, 1.0, size=n_rows).round(3)
    MF = -(beta * MG + wmul * MH + (gamma @ AS)[None, :])
    return {"poly": _poly_raw(AS, MF, MG, MH),
            "meta": {"certificate": {"v": 1.0, "k": beta, "w": wmul,
                                     "gamma": gamma.tolist()}}}


def demo_polyopt_raw() -> dict:
    """minimize -x2 subject to x2 <= 0, x1 = 0 (the shipped LP demo): F(x) = -x2,
    G(x) = x2, H(x) = x1 and S = R^2; the origin is optimal with v* = k* = 1."""
    return {"version": FORMAT_VERSION, "kind": "polyhedral-opt",
            "policy": {"seed": 0},
            "poly": _poly_raw([[0.0, 0.0]], [[0.0, -1.0]], [[0.0, 1.0]],
                              [[1.0, 0.0]])}
