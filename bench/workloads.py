"""The benchmark's workloads: seeded inputs, the timed item, and its check.

Each workload is an object built from a seed and a scratch directory. Its
constructor is the set-up: it generates `items`, the inputs of one round,
from the seed alone (and writes the corpus). A run repeats that round;
`run_item(inp)` is the timed call into regkit, and `check(inp, outcome)`
returns the list of correctness problems (empty when the item passed).

The instance generators here are the benchmark's own. They use
`regkit.instances.generate_instance` where regkit has a generator and never
import the test suite's helpers, so editing a test cannot change a workload.
regkit functions are called through their modules (`optcond.find_multipliers`,
not a name imported from it), so the traced run sees every call.
"""
from __future__ import annotations

import fnmatch
import json
from pathlib import Path

import numpy as np

from regkit import (certifiers, cli, conventional, induction, optcond,
                    polyhedra, svmap)
from regkit.instances import (demo_polyopt_raw, generate_instance,
                              parse_instance, save_instance)
from regkit.metric import FiniteMetricSpace
from regkit.moduli import FunctionalModulus


def derive(seed: int, *keys) -> int:
    """A 31-bit seed that depends only on `seed` and the integer keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0] >> 1)


# -- optcond-rule -------------------------------------------------------------

class OptcondRule:
    """The multiplier-rule pipeline of acceptance criterion 11.

    A round is the shipped demo problem plus one generated `polyhedral-opt`
    problem of each size 2..6. Almost all the time goes to small LPs.
    """

    name = "optcond-rule"
    SIZES = (None, 2, 3, 4, 5, 6)          # None is the demo problem

    def __init__(self, seed: int, workdir: Path):
        self.items = []
        for k, size in enumerate(self.SIZES):
            raw = demo_polyopt_raw() if size is None else generate_instance(
                "polyhedral-opt", size, derive(seed, 1, k))
            self.items.append({"label": f"size-{size}" if size else "demo",
                               "raw": raw, "rng": derive(seed, 2, k),
                               "fresh": derive(seed, 3, k),
                               "cq": derive(seed, 4, k)})

    def run_item(self, inp: dict) -> dict:
        opt = parse_instance(inp["raw"]).opt
        rng = np.random.default_rng(inp["rng"])
        trips = optcond.critical_directions(opt, n_dirs=16, rng=rng)
        # the rule is stated for critical directions in T(S, xbar), and
        # find_multipliers raises on a u outside it; critical_directions
        # does not test that membership and returns such a u on about 0.2%
        # of generated problems, so those triples are noted, not searched
        TS = polyhedra.tangent_cone(opt.S, opt.xbar)
        rows, notes = [], []
        for i, trip in enumerate(trips[:2]):
            if not TS.contains(trip.u):
                rows.append({"found": False})
                notes.append("critical triple with u outside T(S, xbar)")
                continue
            mult = optcond.find_multipliers(opt, trip, n_samples=16, rng=rng)
            if mult is None:
                rows.append({"found": False})
                notes.append("no multipliers found at sampling resolution")
                continue
            verdict = optcond.check_multiplier_rule(
                opt, trip, mult, n_samples=64,
                rng=np.random.default_rng(inp["fresh"]))
            cq = optcond.check_cq(opt, trip,
                                  rng=np.random.default_rng(inp["cq"]))
            rows.append({"found": True, "holds": bool(verdict.holds),
                         "margin": float(verdict.margin),
                         "cq": bool(cq.holds),
                         "v_norm1": float(np.abs(mult.v_star).sum())})
        return {"n_trips": len(trips), "triples": rows, "notes": notes}

    def check(self, inp: dict, out: dict) -> list[str]:
        """As criterion 11, a triple without multipliers is a verdict at
        sampling resolution, not a failure. The miss shows in the item's
        notes and in `optcond.find_multipliers.found_frac`; it happens on
        about 1% of generated problems, whose certificate does satisfy the
        rule."""
        if out["n_trips"] < 1:
            return ["no critical triple"]
        bad = []
        for t in out["triples"]:
            if not t["found"]:
                continue
            if not (t["holds"] and t["margin"] >= -1e-9):
                bad.append(f"rule fails at margin {t['margin']}")
            if t["cq"] and t["v_norm1"] < 1e-9:
                bad.append("CQ holds but v* = 0")
        return bad


# -- finite-audit -------------------------------------------------------------

def _mu_spec(rng, strictly_increasing: bool) -> dict:
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return {"kind": "linear", "kappa": float(rng.uniform(0.2, 4.0))}
    if kind == 1:
        return {"kind": "power", "lam": float(rng.uniform(0.2, 4.0)),
                "k": float(rng.uniform(0.4, 1.0))}
    ts = np.sort(rng.uniform(0.05, 6.0, size=4))
    vs = np.cumsum(rng.uniform(0.05, 2.0, size=4))
    linear = strictly_increasing or rng.random() < 0.5
    return {"kind": "table", "interp": "linear" if linear else "step",
            "breakpoints": [[0.0, 0.0]] + np.column_stack([ts, vs]).tolist()}


def _mu(spec: dict) -> FunctionalModulus:
    if spec["kind"] == "linear":
        return FunctionalModulus.linear(spec["kappa"])
    if spec["kind"] == "power":
        return FunctionalModulus.power(spec["lam"], spec["k"])
    return FunctionalModulus.table([tuple(p) for p in spec["breakpoints"]],
                                   interp=spec["interp"])


def _plain_inputs(rng, nx: int, ny: int) -> dict:
    """A random plain map on the line with the given |X| and |Y|, a ladder
    whose gap is 1e-3 * diam(Y) (about 1,050 levels), a validation set W
    and a strictly increasing modulus. Point i of X has i % 4 images, so
    the graph's size is fixed by |X| and the seed draws only which."""
    xs = rng.uniform(-3.0, 3.0, size=nx)
    ys = rng.uniform(-3.0, 3.0, size=ny)
    graph = []
    for i in range(nx):
        for j in rng.choice(ny, size=i % 4, replace=False):
            graph.append([i, int(j)])
    diam = max(float(np.ptp(ys)), 1e-6)
    n_levels = int(np.ceil(1.05 / 1e-3)) + 1
    W = np.column_stack([rng.integers(0, nx, size=24),
                         rng.integers(0, ny, size=24)])
    return {"xs": xs, "ys": ys, "graph": graph,
            "ladder": np.linspace(0.0, 1.05 * diam, n_levels),
            "W": W.tolist(), "mu": _mu_spec(rng, strictly_increasing=True)}


def _param_inputs(rng, n: int, m: int, L: int) -> dict:
    """A monotone triple-graph map with |X| = n, |Y| = m and L positive
    levels; random onsets, W and a modulus."""
    triples = []
    for i in range(n):
        for j in rng.choice(m, size=min(m, 3), replace=False):
            onset = int(rng.integers(0, L + 1))
            triples += [[i, lev, int(j)] for lev in range(max(onset, 1), L + 1)]
            if onset == 0:
                triples.append([i, 0, int(j)])
    W = np.column_stack([rng.integers(0, n, size=2 * n),
                         rng.integers(0, m, size=2 * n)])
    return {"xs": np.sort(rng.uniform(0.0, 4.0, size=n)),
            "ys": np.sort(rng.uniform(0.0, 4.0, size=m)),
            "ladder": np.concatenate(
                [[0.0], np.sort(rng.uniform(0.05, 3.0, size=L))]),
            "triples": triples, "W": W.tolist(),
            "mu": _mu_spec(rng, strictly_increasing=False)}


def _induction_inputs(rng, L: int, n_decoy: int) -> dict:
    """A level map on the line that passes the step condition by design.

    Chain points p_0 < p_1 < ... < p_L sit p_{n+1} - p_n = f_n * b_n apart
    with f_n in [0.4, 0.9], so each step is strictly shorter than b_n.
    Phi(a_n) holds p_n..p_L plus a few decoys placed beyond sum b_n, where
    no step can reach them; Phi(0) holds p_L and decoys.
    """
    t = float(rng.uniform(0.5, 3.0))
    a = t * np.cumprod(np.concatenate([[1.0], rng.uniform(0.4, 0.8, L - 1)]))
    b = rng.uniform(0.05, 1.0, size=L)
    chain = np.concatenate([[0.0], np.cumsum(rng.uniform(0.4, 0.9, L) * b)])
    decoys = chain[-1] + b.sum() + 1.0 + np.sort(rng.uniform(0, 5, n_decoy))
    ids = np.arange(L + 1, L + 1 + n_decoy)

    def some_decoys():
        k = min(n_decoy, int(rng.integers(0, 3)))
        return rng.choice(ids, size=k, replace=False).tolist() if k else []
    table = {L - n: list(range(n, L + 1)) + some_decoys() for n in range(L)}
    table[0] = [L] + some_decoys()
    return {"points": np.concatenate([chain, decoys]), "t": t,
            "ladder": np.concatenate([[0.0], a[::-1]]),
            "a": a, "b": b, "table": table}


class FiniteAudit:
    """Finite-space checks with no LPs (acceptance criteria 3, 7, 4 and 1).

    One item runs the Prop. 4.1 embedding audit on a plain map with a
    1,000-level ladder, the three-property T6.1 audit on the same map, the
    regular-iff-open audit on a parametric map, and the induction engine
    on a level map built to pass. Every size is fixed by the item's place
    in the round (|Y| of the audited map is 3..18, |X| a permutation of
    3..18), and the seed draws only the points, edges and moduli, so each
    seed's round carries the same mix of sizes and about the same work.
    """

    name = "finite-audit"

    def __init__(self, seed: int, workdir: Path):
        self.items = []
        for k in range(16):
            rng = np.random.default_rng(derive(seed, 5, k + 3))
            L = 3 + 11 * k % 29
            self.items.append({
                "label": f"ny-{k + 3}",
                "plain": _plain_inputs(rng, nx=3 + 7 * k % 16, ny=k + 3),
                "param": _param_inputs(rng, n=3 + 5 * k % 18,
                                       m=2 + 3 * k % 9, L=4 + k % 6),
                "induction": _induction_inputs(
                    rng, L, n_decoy=(37 * k + 13) % (200 - L))})

    def run_item(self, inp: dict) -> dict:
        p = inp["plain"]
        F = svmap.PlainSetValuedMap(
            FiniteMetricSpace(metric="euclidean", coords=p["xs"]),
            FiniteMetricSpace(metric="euclidean", coords=p["ys"]),
            {tuple(e) for e in p["graph"]})
        audit = svmap.prop41_audit(F, svmap.TLadder(p["ladder"]))
        q = conventional.RegularityQuery(F, [tuple(w) for w in p["W"]],
                                         _mu(p["mu"]))
        t61 = conventional.equivalence_audit_T61(q)

        pm = inp["param"]
        G = svmap.ParamSetValuedMap(
            FiniteMetricSpace(metric="euclidean", coords=pm["xs"]),
            FiniteMetricSpace(metric="euclidean", coords=pm["ys"]),
            svmap.TLadder(pm["ladder"]), graph=pm["triples"], monotone=True)
        equiv = certifiers.equivalence_audit(
            G, [tuple(w) for w in pm["W"]], _mu(pm["mu"]))

        ind = inp["induction"]
        space = FiniteMetricSpace(metric="euclidean", coords=ind["points"])
        phi = induction.LevelMap.from_table(
            space, svmap.TLadder(ind["ladder"]), ind["table"])
        seqs = induction.SequenceSpec(a=induction.Seq.explicit(ind["a"]),
                                      b=induction.Seq.explicit(ind["b"]))
        pre = induction.verify_preconditions(phi, ind["t"], 0, seqs)
        tr = induction.run_induction(phi, ind["t"], 0, seqs)
        witness_ok = tr.certified and tr.witness in set(phi.fibre(0).tolist())
        return {"prop41": {c.clause: c.status for c in audit.clauses},
                "t61_agree": bool(t61.agree),
                "equiv_agree": bool(equiv.agree),
                "pre_ok": bool(pre.ok),
                "certified": bool(tr.certified),
                "witness_in_zero": bool(witness_ok),
                "dist_ok": bool(witness_ok and space.d(0, tr.witness)
                                < seqs.b_total() + 1e-12)}

    def check(self, inp: dict, out: dict) -> list[str]:
        bad = [f"prop41 clause {c} is {s}" for c, s in out["prop41"].items()
               if s != ("not_applicable" if c == "vii" else "pass")]
        for key in ("t61_agree", "equiv_agree", "pre_ok", "certified",
                    "witness_in_zero", "dist_ok"):
            if out[key] is not True:
                bad.append(f"{key} is false")
        return bad


# -- cli-corpus ---------------------------------------------------------------

def _large_plain_raw(rng, n: int = 600) -> dict:
    """A plain map with |X| = |Y| = n and few ladder levels, so loading is
    dominated by building the map and its distance-to-image matrix. Point
    i has 1 + i % 2 images, so the graph's size does not depend on rng."""
    xs = np.sort(rng.uniform(-5.0, 5.0, size=n))
    ys = np.sort(rng.uniform(-5.0, 5.0, size=n))
    graph = [[i, int(j)] for i in range(n)
             for j in rng.choice(n, size=1 + i % 2, replace=False)]
    return {"version": 1, "kind": "plain-large",
            "X": {"metric": "euclidean", "points": xs.tolist()},
            "Y": {"metric": "euclidean", "points": ys.tolist()},
            "map": {"plain_graph": graph, "embed": "open",
                    "ladder": np.linspace(0.0, 21.0, 9).tolist()}}


def _matrix_raw(rng, n: int = 300) -> dict:
    """An explicit distance matrix (planar points), audited on load."""
    pts = rng.uniform(0.0, 10.0, size=(n, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    return {"version": 1, "kind": "metric",
            "X": {"metric": "matrix", "dmatrix": d.tolist()}}


class CliCorpus:
    """`regkit.cli.main` in process over a corpus written at set-up.

    One item is one subcommand call writing its report with `--out`; a
    round is the 13 calls below. Large maps with few levels make map
    construction, not queries, the svmap cost; the corpus also carries
    instances, reports, ekeland and the matrix-metric audit.
    """

    name = "cli-corpus"
    COMMANDS = (
        ("plain-lipschitz", ["load"]),
        ("plain-lipschitz", ["regcheck", "--setting", "conventional"]),
        ("plain-lipschitz", ["run", "--plan",
                             "prop41_audit,t61_audit,modulus_fit"]),
        ("plain-large", ["load"]),
        ("param-monotone", ["load"]),
        ("param-monotone", ["regcheck", "--property", "regular"]),
        ("param-monotone", ["regcheck", "--property", "open"]),
        ("param-monotone", ["run", "--plan", "equivalence_audit"]),
        ("evp-10000", ["load"]),
        ("evp-10000", ["ekeland"]),
        ("evp-2000", ["run", "--plan", "evp"]),
        ("matrix-300", ["load"]),
        ("polyhedral-opt", ["optcond", "--task", "critical"]),
    )
    # rows that are true by construction of the corpus and must pass
    MUST_PASS = ("evp/*", "ekeland/*", "*/agreement", "prop41/*", "modulus/*")

    def __init__(self, seed: int, workdir: Path):
        self.corpus = Path(workdir) / "corpus"
        self.reports = Path(workdir) / "reports"
        self.corpus.mkdir(parents=True)
        self.reports.mkdir()
        rng = np.random.default_rng(derive(seed, 6))
        raws = {
            "plain-lipschitz": generate_instance("plain-lipschitz", 200,
                                                 derive(seed, 7)),
            "plain-large": _large_plain_raw(rng),
            "param-monotone": generate_instance("param-monotone", 200,
                                                derive(seed, 8)),
            "evp-10000": generate_instance("evp", 10_000, derive(seed, 9)),
            "evp-2000": generate_instance("evp", 2_000, derive(seed, 10)),
            "matrix-300": _matrix_raw(rng),
            "polyhedral-opt": generate_instance("polyhedral-opt", 4,
                                                derive(seed, 11)),
        }
        for name, raw in raws.items():
            save_instance(raw, str(self.corpus / f"{name}.json"))
        self.first_report: dict[int, bytes] = {}
        self.items = []
        for i, (inst, cmd) in enumerate(self.COMMANDS):
            path = self.reports / f"{i}.json"
            argv = [cmd[0], str(self.corpus / f"{inst}.json"), *cmd[1:],
                    "--out", str(path)]
            self.items.append({"label": cmd[0], "index": i, "argv": argv,
                               "out": path})

    def run_item(self, inp: dict) -> dict:
        inp["out"].unlink(missing_ok=True)
        code = cli.main(inp["argv"])
        report = inp["out"].read_bytes() if inp["out"].exists() else None
        return {"code": code, "report": report}

    def check(self, inp: dict, out: dict) -> list[str]:
        if out["code"] not in (0, 1):
            return [f"exit code {out['code']}"]
        if out["report"] is None:
            return ["no report written"]
        first = self.first_report.setdefault(inp["index"], out["report"])
        if out["report"] != first:
            return ["report differs from the first run of this command"]
        bad = []
        for row in json.loads(out["report"])["rows"]:
            must = any(fnmatch.fnmatchcase(row["check_id"], p)
                       for p in self.MUST_PASS)
            if must and row["verdict"] != "pass":
                bad.append(f"{row['check_id']} is {row['verdict']}")
        return bad


WORKLOADS = {w.name: w for w in (OptcondRule, FiniteAudit, CliCorpus)}
