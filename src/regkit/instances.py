"""Instance files: schema, loading with located errors, and generators.

One JSON format (versioned) carries every kind of instance the toolkit
consumes: finite metric spaces, plain/parametric set-valued maps,
moduli and schemes, validation sets, variational-principle data, and
polyhedral optimization problems.  Loading re-validates the inner
invariants (metric axioms, ladder shape, monotonicity flags) and
reports violations with JSON-pointer-style locations.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .ekeland import EVPError, EVPInstance
from .metric import FiniteMetricSpace, MetricError
from .moduli import AuxScheme, FunctionalModulus
from .optcond import OptInstance, PolyMapSpec
from .policy import DEFAULT_POLICY, NumericPolicy, RegkitError
from .polyhedra import Polyhedron, PolyhedronError
from .svmap import (LadderError, ParamSetValuedMap, PlainSetValuedMap, TLadder,
                    embed_plain)

FORMAT_VERSION = 1


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
    sequences: dict = field(default_factory=dict)


def _object(sec, ptr: str) -> dict:
    if not isinstance(sec, dict):
        raise InstanceError(ptr, "must be an object")
    return sec


def _space(sec: dict, ptr: str, policy: NumericPolicy) -> FiniteMetricSpace:
    _object(sec, ptr)
    metric = sec.get("metric")
    key = "dmatrix" if metric == "matrix" else "points"
    if key not in sec:
        raise InstanceError(f"{ptr}/{key}", "missing")
    try:
        arr = np.array(sec[key], dtype=float)
    except (TypeError, ValueError) as e:    # ragged, or not numbers
        raise InstanceError(f"{ptr}/{key}", str(e)) from e
    try:
        if metric == "matrix":
            return FiniteMetricSpace(metric="matrix", dmatrix=arr,
                                     policy=policy)
        return FiniteMetricSpace(metric=metric, coords=arr,
                                 labels=sec.get("labels"), policy=policy)
    except MetricError as e:
        raise InstanceError(ptr, str(e)) from e


def _modulus(sec: dict, ptr: str) -> FunctionalModulus:
    kind = _object(sec, ptr).get("kind")
    if kind not in ("linear", "power", "table"):
        raise InstanceError(ptr + "/kind", f"unknown modulus kind {kind!r}")
    try:
        if kind == "linear":
            return FunctionalModulus.linear(float(sec["kappa"]))
        if kind == "power":
            return FunctionalModulus.power(float(sec["lam"]), float(sec["k"]))
        return FunctionalModulus.table(
            [tuple(p) for p in sec["breakpoints"]],
            interp=sec.get("interp", "step"))
    except (KeyError, TypeError, ValueError) as e:  # ModulusError is a ValueError
        raise InstanceError(ptr, str(e)) from e


def _scheme(sec: dict, ptr: str) -> AuxScheme:
    _object(sec, ptr)
    seqs = {}
    for key in ("b_seq", "c_seq"):
        try:
            seqs[key] = tuple(float(v) for v in sec.get(key, ()))
        except (TypeError, ValueError) as e:
            raise InstanceError(f"{ptr}/{key}", str(e)) from e
    return AuxScheme(
        b=_modulus(sec["b"], ptr + "/b") if "b" in sec else None,
        m=_modulus(sec["m"], ptr + "/m") if "m" in sec else None, **seqs)


def _poly(sec: dict, ptr: str) -> Polyhedron:
    try:
        return Polyhedron(np.array(sec["A"], dtype=float),
                          np.array(sec["b"], dtype=float))
    except (KeyError, PolyhedronError) as e:
        raise InstanceError(ptr, str(e)) from e


def _polymap(sec: dict, ptr: str) -> PolyMapSpec:
    try:
        return PolyMapSpec(_poly(sec, ptr), int(sec["n_in"]), int(sec["n_out"]))
    except (KeyError, ValueError) as e:
        raise InstanceError(ptr, str(e)) from e


_POLICY_DEFAULTS = {f.name: f.default for f in fields(NumericPolicy)}
_POLICY_KINDS = {float: ((int, float), "a number"), int: ((int,), "an integer"),
                 bool: ((bool,), "a boolean")}


def _policy(sec, override: Optional[dict]) -> NumericPolicy:
    """The policy section with the overrides applied; each field must have
    its default's type (a JSON integer counts as a number)."""
    sec = dict(_object(sec, "/policy"),
               **{k: v for k, v in (override or {}).items() if v is not None})
    for name, value in sec.items():
        if name not in _POLICY_DEFAULTS:
            raise InstanceError(f"/policy/{name}", "unknown policy field")
        accepted, what = _POLICY_KINDS[type(_POLICY_DEFAULTS[name])]
        # bool subclasses int, so a boolean passes only where one is expected
        if isinstance(value, bool) != (bool in accepted) or not isinstance(value, accepted):
            raise InstanceError(f"/policy/{name}", f"must be {what}")
    return DEFAULT_POLICY.with_overrides(**sec)


def load_instance(path: str,
                  policy_override: Optional[dict] = None) -> InstanceFile:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise InstanceError("/", f"cannot read instance: {e}") from e
    return parse_instance(raw, policy_override)


def parse_instance(raw: dict,
                   policy_override: Optional[dict] = None) -> InstanceFile:
    if raw.get("version") != FORMAT_VERSION:
        raise InstanceError("/version", f"expected {FORMAT_VERSION}")
    kind = raw.get("kind", "generic")

    policy = _policy(raw.get("policy", {}), policy_override)

    inst = InstanceFile(kind=kind, policy=policy, raw=raw,
                        meta=raw.get("meta", {}),
                        sequences=raw.get("sequences", {}))
    if "X" in raw:
        inst.X = _space(raw["X"], "/X", policy)
    if "Y" in raw:
        inst.Y = _space(raw["Y"], "/Y", policy)

    msec = raw.get("map")
    if msec is not None:
        if inst.X is None or inst.Y is None:
            raise InstanceError("/map", "map requires X and Y spaces")
        embed = _object(msec, "/map").get("embed", "open")
        if embed not in ("open", "closed"):
            raise InstanceError("/map/embed", 'must be "open" or "closed"')
        if "ladder" in msec:
            try:
                inst.ladder = TLadder(np.array(msec["ladder"], dtype=float))
            except (LadderError, TypeError, ValueError) as e:
                raise InstanceError("/map/ladder", str(e)) from e
        if "plain_graph" in msec:
            try:
                inst.plain = PlainSetValuedMap(
                    inst.X, inst.Y,
                    {(int(a), int(b)) for a, b in msec["plain_graph"]})
            except (IndexError, TypeError, ValueError) as e:
                raise InstanceError("/map/plain_graph", str(e)) from e
            if inst.ladder is not None:
                inst.param = embed_plain(
                    inst.plain, inst.ladder,
                    closed=embed == "closed",
                    policy=policy)
        elif "graph" in msec:
            if inst.ladder is None:
                raise InstanceError("/map/ladder", "missing for triple graph")
            try:
                inst.param = ParamSetValuedMap(
                    inst.X, inst.Y, inst.ladder,
                    graph=[(int(a), int(t), int(b)) for a, t, b in msec["graph"]],
                    monotone=bool(msec.get("monotone", False)),
                    policy=policy)
            except (IndexError, TypeError, ValueError, LadderError) as e:
                raise InstanceError("/map/graph", str(e)) from e

    if "mu" in raw:
        inst.mu = _modulus(raw["mu"], "/mu")
    if "scheme" in raw:
        inst.scheme = _scheme(raw["scheme"], "/scheme")
    try:
        inst.W = [(int(a), int(b)) for a, b in raw.get("W", [])]
    except (TypeError, ValueError) as e:
        raise InstanceError("/W", f"must be a list of index pairs: {e}") from e
    if "nu" in raw:
        try:
            inst.nu = {(int(a), int(b)): float(v) for a, b, v in raw["nu"]}
        except (TypeError, ValueError) as e:
            raise InstanceError("/nu", f"must be a list of (x, y, nu) "
                                f"triples: {e}") from e

    if "evp" in raw:
        sec = raw["evp"]
        if inst.X is None:
            raise InstanceError("/evp", "evp requires the X space")
        try:
            f = np.array([np.inf if v is None else float(v) for v in sec["f"]])
            inst.evp = EVPInstance(space=inst.X, f=f,
                                   eps=float(sec["epsilon"]),
                                   lam=float(sec["lambda"]),
                                   x0=int(sec["x0"]))
        except KeyError as e:
            raise InstanceError(f"/evp/{e.args[0]}", "missing") from e
        except (EVPError, TypeError, ValueError) as e:
            raise InstanceError("/evp", str(e)) from e

    if "poly" in raw:
        sec = raw["poly"]
        try:
            base = sec["base"]
            opt = OptInstance(
                n=int(sec["n"]), p=int(sec["p"]), q=int(sec["q"]),
                r=int(sec["r"]),
                S=_poly(sec["S"], "/poly/S"), C=_poly(sec["C"], "/poly/C"),
                D=_poly(sec["D"], "/poly/D"), Q=_poly(sec["Q"], "/poly/Q"),
                F=_polymap(sec["F_graph"], "/poly/F_graph"),
                G=_polymap(sec["G_graph"], "/poly/G_graph"),
                H=_polymap(sec["H_graph"], "/poly/H_graph"),
                xbar=np.array(base[0], dtype=float),
                ybar=np.array(base[1], dtype=float),
                zbar=np.array(base[2], dtype=float))
        except (KeyError, ValueError) as e:
            raise InstanceError("/poly", str(e)) from e
        problems = opt.validate()
        if problems:
            raise InstanceError("/poly", "; ".join(problems))
        inst.opt = opt
    return inst


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
    rng = np.random.default_rng(seed)
    gen = {"plain-lipschitz": _gen_plain_lipschitz,
           "param-monotone": _gen_param_monotone,
           "evp": _gen_evp,
           "polyhedral-opt": _gen_polyopt}[kind]
    raw = gen(size, rng)
    raw["version"] = FORMAT_VERSION
    raw["kind"] = kind
    raw["policy"] = {"seed": seed}
    return raw


def _gen_plain_lipschitz(size: int, rng) -> dict:
    """Y is a c-scaled copy of X with identity pairing, so the best linear
    modulus for the identity query set is exactly 1/c (recorded)."""
    n = max(size, 3)
    xs = np.sort(rng.uniform(-5.0, 5.0, size=n))
    c = float(rng.uniform(0.5, 2.0))
    ys = c * xs
    pairs = [[i, i] for i in range(n)]
    W = [[i, j] for i in range(n) for j in rng.choice(n, size=min(n, 8),
                                                     replace=False)]
    return {
        "X": {"metric": "euclidean", "points": xs.tolist()},
        "Y": {"metric": "euclidean", "points": ys.tolist()},
        "map": {"plain_graph": pairs, "embed": "open",
                "ladder": np.linspace(0.0, float(2 * np.ptp(ys) + 1.0),
                                      33).tolist()},
        "mu": {"kind": "linear", "kappa": 1.0 / c},
        "W": [[int(a), int(b)] for a, b in W],
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
    admissible = np.nonzero(f < f.min() + eps)[0]
    x0 = int(rng.choice(admissible))
    return {
        "X": {"metric": "euclidean", "points": pts.tolist()},
        "evp": {"f": f.tolist(), "epsilon": eps, "lambda": lam, "x0": x0},
    }


def _linmap_graph(M) -> dict:
    """Graph section of the single-valued map x -> M x (equality pairs)."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    mm, nn = M.shape
    A = np.vstack([np.hstack([M, -np.eye(mm)]),
                   np.hstack([-M, np.eye(mm)])])
    return {"A": A.tolist(), "b": [0.0] * (2 * mm), "n_in": nn, "n_out": mm}


def _gen_polyopt(size: int, rng) -> dict:
    """A random linear vector problem around the origin, optimal by design.

    G, H, S are random; the objective row is synthesized from a chosen
    certificate (beta, w, gamma >= 0) as M_F = -beta M_G - w M_H
    - gamma' A_S, which makes v* = 1, k* = beta, w* = w exact
    multipliers for the critical triple (0, 0, 0): the combined row then
    lies in the dual cone of S, so the rule holds on all of S with
    right-hand side 0.  The certificate is recorded in metadata.
    """
    n = int(np.clip(size, 2, 6))
    p, q, r = 1, 1, 1
    MG = rng.normal(size=(q, n)).round(3)
    MH = rng.normal(size=(r, n)).round(3)
    n_rows = int(rng.integers(1, n + 1))
    AS = rng.normal(size=(n_rows, n)).round(3)
    beta = round(float(rng.uniform(0.0, 2.0)), 3)
    wmul = round(float(rng.normal()), 3)
    gamma = rng.uniform(0.0, 1.0, size=n_rows).round(3)
    MF = -(beta * MG + wmul * MH + (gamma @ AS)[None, :])
    ray = {"A": [[-1.0]], "b": [0.0]}          # the half-line t >= 0
    return {
        "poly": {
            "n": n, "p": p, "q": q, "r": r,
            "S": {"A": AS.tolist(), "b": [0.0] * n_rows},
            "C": ray, "D": ray, "Q": ray,
            "F_graph": _linmap_graph(MF), "G_graph": _linmap_graph(MG),
            "H_graph": _linmap_graph(MH),
            "base": [[0.0] * n, [0.0] * p, [0.0] * q],
        },
        "meta": {"certificate": {"v": 1.0, "k": beta, "w": wmul,
                                 "gamma": gamma.tolist()}},
    }


def demo_polyopt_raw() -> dict:
    """minimize -x2 subject to x2 <= 0, x1 = 0 (the shipped LP demo).

    F(x) = -x2 into Y = R ordered by Q = R+; G(x) = x2 with the
    constraint G(x) in -D = -R+; H(x) = x1 with 0 in H(x); S = R^2.
    The origin is optimal with multipliers v* = 1, k* = 1.
    """
    ray = {"A": [[-1.0]], "b": [0.0]}
    return {
        "version": FORMAT_VERSION,
        "kind": "polyhedral-opt",
        "policy": {"seed": 0},
        "poly": {
            "n": 2, "p": 1, "q": 1, "r": 1,
            "S": {"A": [[0.0, 0.0]], "b": [0.0]},
            "C": ray, "D": ray, "Q": ray,
            "F_graph": _linmap_graph([[0.0, -1.0]]),
            "G_graph": _linmap_graph([[0.0, 1.0]]),
            "H_graph": _linmap_graph([[1.0, 0.0]]),
            "base": [[0.0, 0.0], [0.0], [0.0]],
        },
    }
