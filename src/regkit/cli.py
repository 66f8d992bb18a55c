"""Command-line entry point.

Subcommands: load, gen, induct, certify, regcheck, ekeland, optcond, run.
Global flags: --tol, --horizon, --seed, --out, --validate.  Exit codes:
0 all checks pass, 1 at least one check failed, 2 input/usage error
(every regkit error, reported as "error: ..." on stderr), 3 a bug: any
other exception, reported as "internal error: ..." and its traceback on
stderr.
"""
from __future__ import annotations

import argparse
import sys
import traceback
from functools import lru_cache

import numpy as np

from . import certifiers, conventional, ekeland, optcond
from .induction import (LevelMap, PreconditionError, run_induction,
                        verify_preconditions)
from .instances import (InstanceError, demo_polyopt_raw, generate_instance,
                        load_instance, save_instance)
from .moduli import FunctionalModulus, ModulusError
from .policy import RegkitError
from .polyhedra import (sample_directions, sampled_tangent_membership,
                        tangent_cone)
from .reports import Report
from .svmap import prop41_audit

EXIT_PASS, EXIT_FAIL, EXIT_INPUT, EXIT_BUG = 0, 1, 2, 3


def _policy_overrides(args) -> dict:
    return {"tol_strict": args.tol, "horizon": args.horizon,
            "seed": args.seed, "validate": args.validate or None}


def _emit(report: Report, args) -> int:
    if args.out:
        report.write(args.out)
    else:
        sys.stdout.write(report.to_json())
    return EXIT_PASS if report.ok else EXIT_FAIL


def _load(args):
    return load_instance(args.instance, _policy_overrides(args))


def _check_points(F, args):
    """--x and --y must name points of F's X and Y (PointIndexError)."""
    F.X._check(args.x)
    F.Y._check(args.y)


# -- subcommand handlers ----------------------------------------------------

def cmd_load(args) -> int:
    inst = _load(args)
    rep = Report("load", inst.policy.seed, inst.policy)
    rep.add("load/schema", True, detail=f"kind={inst.kind}")
    if inst.X is not None:
        rep.add("load/X", True, detail=f"|X|={inst.X.n}")
    if inst.param is not None:
        rep.add("load/map", True,
                detail=f"ladder levels={len(inst.param.ladder)}")
    if inst.opt is not None:
        rep.add("load/poly", True, detail=f"n={inst.opt.n}")
    return _emit(rep, args)


def cmd_gen(args) -> int:
    raw = generate_instance(args.kind, args.size,
                            args.seed if args.seed is not None else 0)
    out = args.out or f"{args.kind}-{args.size}.json"
    save_instance(raw, out)
    print(f"wrote {out}")
    return EXIT_PASS


def cmd_induct(args) -> int:
    inst = _load(args)
    if inst.param is None:
        raise InstanceError("/map", "induct needs a parametric map")
    seqs = inst.sequences
    if seqs is None:
        raise InstanceError("/sequences", "induct needs sequences a and b")
    _check_points(inst.param, args)
    phi = LevelMap.from_param_map(inst.param, args.y)
    pre = verify_preconditions(phi, args.t, args.x, seqs, policy=inst.policy)
    trace = run_induction(phi, args.t, args.x, seqs, policy=inst.policy)
    rep = Report("induct", inst.policy.seed, inst.policy)
    for name, ok, msg in pre.checks:
        rep.add(f"induct/pre/{name}", ok, detail=msg)
    rep.add("induct/certified", trace.certified, margin=trace.bound,
            witness=trace.witness, detail=trace.message)
    return _emit(rep, args)


def _criterion_inputs(name: str, inst) -> dict:
    """The certifier inputs of criterion `name`, read from the instance by
    its row of `certifiers.CRITERIA`; a field it needs that the instance
    lacks (absent, or an empty table) is an InstanceError at its pointer."""
    crit = certifiers.CRITERIA[name]
    for path in crit.needs:
        value, at = inst, ""
        for key in path.split("."):
            value, at = getattr(value, key), f"{at}/{key}"
            if value is None or value == ():
                raise InstanceError(at, f"criterion {name} needs {path}")
    return {f.split(".")[0]: getattr(inst, f.split(".")[0])
            for f in crit.needs + crit.optional}


def cmd_certify(args) -> int:
    inst = _load(args)
    if inst.param is None:
        raise InstanceError("/map", "certify needs a parametric map")
    rep = Report(f"certify/{args.criterion}", inst.policy.seed, inst.policy)
    F, pol = inst.param, inst.policy
    _check_points(F, args)
    if args.criterion == "free-t":
        crit = "khanh4+" if getattr(inst.scheme, "b", None) is not None else "decrease"
        cert = certifiers.free_t_estimate(F, args.x, args.y, crit,
                                          _criterion_inputs(crit, inst), pol)
    else:
        cert = certifiers.CRITERIA[args.criterion].certify(
            F, args.x, args.t, args.y, policy=pol,
            **_criterion_inputs(args.criterion, inst))
    for h in cert.hypotheses:
        rep.add(f"certify/hyp/{h.name}", h.passed, witness=h.witness,
                detail=h.detail)
    rep.add("certify/conclusion", cert.confirmed, margin=cert.bound,
            detail=f"target={cert.target} bound={cert.bound} "
                   f"strict={cert.strict} vacuous={cert.vacuous}")
    return _emit(rep, args)


def cmd_regcheck(args) -> int:
    inst = _load(args)
    rep = Report(f"regcheck/{args.property}", inst.policy.seed, inst.policy)
    if args.setting == "conventional":
        if inst.plain is None or inst.mu is None:
            raise InstanceError("/map", "conventional regcheck needs a plain "
                                        "map and mu")
        q = conventional.RegularityQuery(inst.plain, inst.W, inst.mu)
        audit = conventional.equivalence_audit_T61(q, inst.policy)
        for v in (audit.metric_regular, audit.open_, audit.holder):
            rep.add(f"regcheck/{v.name}", v.holds, witness=v.counterexample,
                    detail=f"lhs={v.lhs} rhs={v.rhs}")
        rep.add("regcheck/agreement", audit.agree)
        fit = conventional.estimate_best_modulus(inst.plain, inst.W,
                                                 policy=inst.policy)
        rep.add("regcheck/modulus-fit", fit.lam_star < float("inf"),
                margin=fit.lam_star, witness=fit.achieved_at)
        return _emit(rep, args)
    if inst.param is None or inst.mu is None:
        raise InstanceError("/map", "regcheck needs a parametric map and mu")
    F, mu, W = inst.param, inst.mu, inst.W
    if args.property in ("regular", "open"):
        check = conventional.check_metric_regularity if args.property == "regular" \
            else conventional.check_openness
        v = check(conventional.RegularityQuery(F, W, mu), F.policy)
        rep.add(f"regcheck/{args.property}", v.holds, witness=v.counterexample)
    elif args.property == "nu-regular":
        v = certifiers.check_nu_regular_on_W(F, W, mu, inst.nu)
        rep.add("regcheck/nu-regular", v.holds, witness=v.counterexample)
    else:                                    # "local", by argparse choices
        _check_points(F, args)
        v = certifiers.check_local_regularity(F, args.x, args.y, mu)
        rep.add("regcheck/local", v.holds,
                detail=f"r_U={v.r_U} r_V={v.r_V} {v.at_resolution_note}")
    return _emit(rep, args)


def cmd_ekeland(args) -> int:
    inst = _load(args)
    if inst.evp is None:
        raise InstanceError("/evp", "instance has no variational data")
    evp = inst.evp
    if (args.epsilon, args.lam, args.x0) != (None, None, None):
        evp = ekeland.EVPInstance(
            space=evp.space, f=evp.f,
            eps=evp.eps if args.epsilon is None else args.epsilon,
            lam=evp.lam if args.lam is None else args.lam,
            x0=evp.x0 if args.x0 is None else args.x0)
    rep = Report("ekeland", inst.policy.seed, inst.policy)
    if args.verify_only is not None:
        chk = ekeland.evp_verify(evp, args.verify_only, inst.policy)
    else:
        res = ekeland.evp_solve(evp, inst.policy)
        chk = ekeland.evp_verify(evp, res.z, inst.policy)
        rep.add("ekeland/solve", chk.ok, witness=res.z,
                detail=f"iters={res.n_iter} residual={res.residual}")
    for name, ok in (("near", chk.near), ("descent", chk.descent),
                     ("stationary", chk.stationary)):
        rep.add(f"ekeland/{name}", ok, witness=chk.violation)
    return _emit(rep, args)


def cmd_optcond(args) -> int:
    inst = _load(args)
    if inst.opt is None:
        raise InstanceError("/poly", "instance has no polyhedral data")
    opt = inst.opt
    rng = np.random.default_rng(inst.policy.seed)
    rep = Report(f"optcond/{args.task}", inst.policy.seed, inst.policy)
    if args.task == "cones":
        T = tangent_cone(opt.S, opt.xbar)
        rep.add("optcond/tangent", True, detail=f"{T.m} active rows")
        if inst.policy.validate:
            dirs = sample_directions(opt.n, 200, rng)
            agree = sum(
                T.contains(d) == sampled_tangent_membership(
                    opt.S, opt.xbar, d,
                    inst.policy.cone_gamma_levels,
                    inst.policy.cone_oracle_tol).member
                for d in dirs)
            rep.add("optcond/oracle-agreement", agree >= 198,
                    margin=agree / 200.0)
    elif args.task == "critical":
        trips = optcond.critical_directions(opt, rng=rng)
        rep.add("optcond/critical", True, detail=f"{len(trips)} triples")
    else:                    # "multipliers", "cq", "claim2", by argparse choices
        trips = optcond.critical_directions(opt, rng=rng)
        if not trips:
            rep.add(f"optcond/{args.task}", False,
                    detail="no critical triple at sampling resolution")
            return _emit(rep, args)
        trip = trips[0]
        if args.task == "multipliers":
            mult = optcond.find_multipliers(opt, trip, rng=rng)
            if mult is None:
                rep.add("optcond/multipliers", False,
                        detail="no candidate passed the exact rule check")
            else:
                verdict = optcond.check_multiplier_rule(opt, trip, mult,
                                                        rng=rng)
                rep.add("optcond/multipliers", verdict.holds,
                        margin=verdict.margin,
                        detail=f"rhs={verdict.rhs} " + "; ".join(verdict.notes))
        elif args.task == "cq":
            v = optcond.check_cq(opt, trip, rng=rng)
            rep.add("optcond/cq", v.holds,
                    detail=f"rank {v.rank}/{v.needed}")
        else:
            ext = optcond.BallExtension(
                opt.H, opt.xbar + 0.1 * sample_directions(opt.n, 16, rng))
            mu = FunctionalModulus.linear(10.0)
            c2 = optcond.check_claim2(opt, trip, ext, mu, theta=1.0, rng=rng)
            rep.add("optcond/claim2", c2.holds,
                    detail=f"{len(c2.verified)} verified, "
                           f"{len(c2.skipped)} skipped")
    return _emit(rep, args)


# -- experiment plans -------------------------------------------------------

def _check_prop41(inst, rep):
    if inst.plain is None or inst.ladder is None:
        raise InstanceError("/map", "prop41_audit needs a plain map + ladder")
    audit = prop41_audit(inst.plain, inst.ladder, inst.policy)
    for c in audit.clauses:
        rep.add(f"prop41/{c.clause}", c.status != "fail", witness=c.witness,
                detail=c.status)


def _check_equivalence(inst, rep):
    if inst.param is None or inst.mu is None:
        raise InstanceError("/map", "equivalence_audit needs param map + mu")
    audit = certifiers.equivalence_audit(inst.param, inst.W, inst.mu)
    rep.add("equivalence/regular", audit.regular.holds,
            witness=audit.regular.counterexample)
    rep.add("equivalence/open", audit.open_.holds,
            witness=audit.open_.counterexample)
    rep.add("equivalence/agreement", audit.agree)


def _check_t61(inst, rep):
    if inst.plain is None or inst.mu is None:
        raise InstanceError("/map", "t61_audit needs plain map + mu")
    q = conventional.RegularityQuery(inst.plain, inst.W, inst.mu)
    audit = conventional.equivalence_audit_T61(q, inst.policy)
    rep.add("t61/agreement", audit.agree)


def _check_modulus_fit(inst, rep):
    if inst.plain is None:
        raise InstanceError("/map", "modulus_fit needs a plain map")
    fit = conventional.estimate_best_modulus(inst.plain, inst.W,
                                             policy=inst.policy)
    tight = conventional.modulus_is_tight(inst.plain, inst.W, fit,
                                          policy=inst.policy)
    rep.add("modulus/tight", tight, margin=fit.lam_star,
            witness=fit.achieved_at)
    if inst.kappa_true is not None:
        rep.add("modulus/vs-construction",
                fit.lam_star <= inst.kappa_true + 1e-9,
                margin=fit.lam_star)


def _check_evp(inst, rep):
    if inst.evp is None:
        raise InstanceError("/evp", "evp check needs variational data")
    res = ekeland.evp_solve(inst.evp, inst.policy)
    chk = ekeland.evp_verify(inst.evp, res.z, inst.policy)
    oracle = ekeland.evp_oracle(inst.evp, policy=inst.policy)
    rep.add("evp/verify", chk.ok, witness=res.z)
    rep.add("evp/in-oracle", int(res.z) in set(oracle.tolist()),
            detail=f"|admissible|={oracle.size}")


PLAN_CHECKS = {
    "prop41_audit": _check_prop41,
    "equivalence_audit": _check_equivalence,
    "t61_audit": _check_t61,
    "modulus_fit": _check_modulus_fit,
    "evp": _check_evp,
}


def cmd_run(args) -> int:
    inst = _load(args)
    names = [n for n in (args.plan or "").split(",") if n]
    rep = Report("run", inst.policy.seed, inst.policy)
    for name in names:
        if name not in PLAN_CHECKS:
            raise InstanceError("/plan", f"unknown check {name!r}")
    for name in sorted(names):
        try:
            PLAN_CHECKS[name](inst, rep)
        except (PreconditionError, ModulusError) as e:
            rep.add_error(name, str(e))
    return _emit(rep, args)


def cmd_demo(args) -> int:
    out = args.out or "demo-lp.json"
    save_instance(demo_polyopt_raw(), out)
    print(f"wrote {out}")
    return EXIT_PASS


# -- argument wiring --------------------------------------------------------

@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process; `main` runs the
    subcommand's handler, cmd_<name>, looked up when it is called."""
    p = argparse.ArgumentParser(
        prog="regkit",
        description="Verification toolkit for nonlinear regularity models "
                    "on finite structures.")
    def add_globals(parser, default):
        parser.add_argument("--tol", type=float, default=default,
                            help="strictness tolerance override")
        parser.add_argument("--horizon", type=int, default=default)
        parser.add_argument("--seed", type=int, default=default)
        parser.add_argument("--out", type=str, default=default,
                            help="report path (.json or .csv)")
        parser.add_argument("--validate", action="store_true",
                            default=default if default else False,
                            help="enable sampled-limit oracles")

    add_globals(p, None)
    # the same flags are accepted after the subcommand; SUPPRESS keeps a
    # pre-subcommand value from being clobbered by the subparser default
    common = argparse.ArgumentParser(add_help=False)
    add_globals(common, argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=lambda **kw: argparse.ArgumentParser(
                               parents=[common], **kw))

    sp = sub.add_parser("load", help="validate an instance file")
    sp.add_argument("instance")

    sp = sub.add_parser("gen", help="generate a random instance")
    sp.add_argument("--kind", required=True,
                    choices=["plain-lipschitz", "param-monotone", "evp",
                             "polyhedral-opt"])
    sp.add_argument("--size", type=int, required=True)

    sp = sub.add_parser("induct", help="run the iteration engine")
    sp.add_argument("instance")
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--y", type=int, required=True)
    sp.add_argument("--t", type=float, required=True)

    sp = sub.add_parser("certify", help="run a sufficient criterion")
    sp.add_argument("instance")
    sp.add_argument("--criterion", required=True,
                    choices=[*certifiers.CRITERIA, "free-t"])
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--y", type=int, required=True)
    sp.add_argument("--t", type=float, default=0.0)

    sp = sub.add_parser("regcheck", help="check a regularity property")
    sp.add_argument("instance")
    sp.add_argument("--property", default="regular",
                    choices=["regular", "open", "nu-regular", "local"])
    sp.add_argument("--setting", default="param",
                    choices=["param", "conventional"])
    sp.add_argument("--x", type=int, default=0)
    sp.add_argument("--y", type=int, default=0)

    sp = sub.add_parser("ekeland", help="variational principle solver")
    sp.add_argument("instance")
    sp.add_argument("--epsilon", type=float, default=None)
    sp.add_argument("--lambda", dest="lam", type=float, default=None)
    sp.add_argument("--x0", type=int, default=None)
    sp.add_argument("--verify-only", type=int, default=None)

    sp = sub.add_parser("optcond", help="second-order optimality tasks")
    sp.add_argument("instance")
    sp.add_argument("--task", required=True,
                    choices=["cones", "critical", "multipliers", "cq",
                             "claim2"])

    sp = sub.add_parser("run", help="run a named-check experiment plan")
    sp.add_argument("instance")
    sp.add_argument("--plan", default="")

    sub.add_parser("demo", help="write the shipped LP demo instance")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else 0
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (RegkitError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:
        print(f"internal error: {e!r}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_BUG


if __name__ == "__main__":
    sys.exit(main())
