"""Acceptance gate: one test per top-level criterion, with a per-criterion
pass/fail line collected into the terminal summary.

Each criterion is judged at the stated tolerance against an oracle that
is independent of the code path under test (exhaustive enumeration,
containment limits, or raw recomputation written inline here).
"""
import json
import time

import numpy as np
import pytest

import helpers
from conftest import ACCEPTANCE_LINES
from regkit import certifiers, conventional, ekeland
from regkit.cli import EXIT_PASS, main
from regkit.induction import run_induction, verify_preconditions
from regkit.instances import (demo_polyopt_raw, generate_instance,
                              parse_instance, save_instance)
from regkit.moduli import FunctionalModulus, canonical_mu
from regkit.optcond import (check_cq, check_multiplier_rule,
                            critical_directions, find_multipliers)
from regkit.policy import DEFAULT_POLICY, INF
from regkit.polyhedra import (Polyhedron, normal_cone_generators,
                              sample_cone_points, sample_directions,
                              sampled_tangent_membership, second_order_sets,
                              tangent_cone)
from regkit.svmap import TLadder, prop41_audit


def _record(num: int, passed: bool, desc: str):
    verdict = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append(f"criterion {num:2d}: {verdict} — {desc}")
    assert passed, f"criterion {num}: {desc}"


# -- 1: induction soundness ---------------------------------------------------

def test_criterion_01_induction_soundness():
    false_certs, slow, failures = 0, 0, []
    for seed in range(200):
        case = helpers.induction_pass_instance(seed, n_max=200, l_max=32)
        t0 = time.perf_counter()
        pre = verify_preconditions(case.phi, case.t, case.x, case.seqs)
        if not pre.ok:
            failures.append((seed, "preconditions"))
            continue
        tr = run_induction(case.phi, case.t, case.x, case.seqs)
        elapsed = time.perf_counter() - t0
        if elapsed >= 1.0:
            slow += 1
        if not tr.certified:
            failures.append((seed, tr.status))
            continue
        zero_fibre = set(case.phi.fibre(0).tolist())
        total = case.seqs.b_total()
        dz = case.phi.space.d(case.x, tr.witness)
        if tr.witness not in zero_fibre or not dz < total + 1e-12:
            false_certs += 1
    ok = not failures and false_certs == 0 and slow == 0
    _record(1, ok,
            f"induction certifies 200 pre-passing instances "
            f"(|X|<=200, ladder<=32); d(x,z) < sum b_n at tol 1e-12; "
            f"{false_certs} false certificates; {slow} instances >= 1 s")


# -- 2: small-scale oracle equivalence ---------------------------------------

def test_criterion_02_oracle_equivalence():
    disagreements = []
    outcomes = set()
    for seed in range(50):
        case = helpers.induction_random_instance(seed, n_max=12)
        tr = run_induction(case.phi, case.t, case.x, case.seqs)
        got = "certified" if tr.certified else (
            "horizon_exhausted" if tr.status == "horizon_exhausted"
            else "failed")
        want = helpers.exhaustive_chain_verdict(case)
        outcomes.add(want)
        if got != want:
            disagreements.append((seed, got, want))
    _record(2, not disagreements and len(outcomes) >= 2,
            f"engine verdict matches the exhaustive path oracle on 50 "
            f"instances (|X|<=12): {50 - len(disagreements)}/50 agree, "
            f"outcomes exercised: {sorted(outcomes)}")


# -- 3: embedding audit ------------------------------------------------------

def test_criterion_03_embedding_audit():
    bad = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        F = helpers.random_plain_map(rng, nx_max=18, ny_max=18)
        diam = max(F.Y.diameter(), 1e-6)
        gap = 1e-3 * diam
        n_levels = int(np.ceil(1.05 * diam / gap)) + 1
        lad = TLadder(np.linspace(0.0, 1.05 * diam, n_levels))
        assert lad.max_gap() <= gap + 1e-12
        audit = prop41_audit(F, lad)
        for name in ("i", "iii", "iv", "vi"):
            if audit.by_name(name).status != "pass":
                bad.append((seed, name))
        if audit.by_name("ii").status != "pass":   # judged within one gap
            bad.append((seed, "ii"))
    _record(3, not bad,
            f"enlargement audit clauses (i)(iii)(iv)(vi) exact and (ii) "
            f"within one ladder gap (gap <= 1e-3 * diameter) on 100 random "
            f"plain maps: {100 - len(bad)}/100")


# -- 4: regular <=> open -----------------------------------------------------

def test_criterion_04_regular_iff_open():
    disagreements, kinds = [], set()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        F, W = helpers.random_param_map(rng)
        mu = helpers.random_mu(rng)
        kinds.add(mu.kind)
        audit = certifiers.equivalence_audit(F, W, mu)
        if not audit.agree:
            disagreements.append(seed)
    ok = not disagreements and kinds == {"linear", "power", "table"}
    _record(4, ok,
            f"distance-form and covering-form verdicts agree on 100 random "
            f"parametric maps with moduli from families {sorted(kinds)}: "
            f"{100 - len(disagreements)}/100")


# -- 5: certifier soundness --------------------------------------------------

def test_criterion_05_certifier_soundness():
    runs = {"sequence": 0, "orbit": 0, "image": 0, "decrease": 0, "free-t": 0}
    false_certs = []
    for seed in range(100):
        ci = helpers.make_chain(seed)
        truth = helpers.chain_dist_level0(ci)     # raw recomputation
        certs = {
            "sequence": certifiers.certify_khanh_plus(
                ci.F, ci.x, ci.t, ci.y, ci.scheme_seq),
            "orbit": certifiers.certify_khanh4_plus(
                ci.F, ci.x, ci.t, ci.y, ci.scheme_orbit),
            "image": certifiers.certify_image_space(
                ci.F, ci.x, ci.t, ci.y, ci.scheme_orbit),
            "decrease": certifiers.certify_decrease(
                ci.F, ci.x, ci.t, ci.y, ci.mu),
            "free-t": certifiers.free_t_estimate(
                ci.F, ci.x, ci.y, "khanh4+",
                {"scheme": ci.scheme_orbit,
                 "mu": lambda s: canonical_mu(ci.scheme_orbit, s, 64)}),
        }
        for name, cert in certs.items():
            if not cert.hypotheses_pass:
                continue
            runs[name] += 1
            bound_ok = truth <= cert.bound + 1e-9 if not cert.strict \
                else truth < cert.bound
            if not (cert.confirmed and bound_ok
                    and abs(cert.target - truth) <= 1e-9):
                false_certs.append((seed, name))
    ok = not false_certs and all(v == 100 for v in runs.values())
    _record(5, ok,
            f"five sufficient criteria each certify 100 instances with the "
            f"concluded inequality re-verified from raw distances; "
            f"{len(false_certs)} false certificates; runs per criterion "
            f"{sorted(runs.values())}")


# -- 6: variational principle ------------------------------------------------

def _evp_instance(seed, n):
    rng = np.random.default_rng(seed)
    coords = np.sort(rng.uniform(0.0, 50.0, size=n))
    from regkit.metric import FiniteMetricSpace
    space = FiniteMetricSpace.from_grid(coords)
    f = rng.uniform(0.0, 5.0, size=n)
    eps = float(rng.uniform(0.5, 3.0))
    lam = float(rng.uniform(0.5, 5.0))
    lo = float(f.min())
    ok = np.nonzero(f < lo + eps - 1e-9)[0]
    return ekeland.EVPInstance(space=space, f=f, eps=eps, lam=lam,
                               x0=int(rng.choice(ok)))


def test_criterion_06_variational_principle():
    bad, slow = [], 0
    for seed in range(100):
        n = 10_000 if seed < 2 else int(
            np.random.default_rng(seed).integers(10, 2000))
        inst = _evp_instance(seed, n)
        t0 = time.perf_counter()
        res = ekeland.evp_solve(inst)
        chk = ekeland.evp_verify(inst, res.z)
        oracle = ekeland.evp_oracle(inst)
        if time.perf_counter() - t0 >= 2.0:
            slow += 1
        a = [s.a_n for s in res.steps]
        halves = all(nxt <= prev / 2 + 1e-12 for prev, nxt in zip(a, a[1:]))
        pts = [s.x_n for s in res.steps] + [res.z]
        total = sum(inst.space.d(u, v) for u, v in zip(pts, pts[1:]))
        if not (chk.ok and res.z in set(oracle.tolist()) and halves
                and total < inst.lam):
            bad.append(seed)
    _record(6, not bad and slow == 0,
            f"descent output verifies and lies in the brute-force admissible "
            f"set on 100 instances (|X| up to 10^4); residual halves each "
            f"step and step lengths sum below lambda; {slow} instances >= 2 s")


# -- 7: three-property equivalence -------------------------------------------

def test_criterion_07_three_property_equivalence():
    disagreements = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        F = helpers.random_plain_map(rng, nx_max=15, ny_max=15)
        W = helpers.random_W(rng, F)
        mu = helpers.random_mu(rng, strictly_increasing=True)
        q = conventional.RegularityQuery(F, W, mu)
        if not conventional.equivalence_audit_T61(q).agree:
            disagreements.append(seed)
    _record(7, not disagreements,
            f"metric-regularity, openness, and inverse-continuity verdicts "
            f"agree on 100 plain-map queries with strictly increasing "
            f"moduli: {100 - len(disagreements)}/100")


# -- 8: decrease criterion soundness -----------------------------------------

def test_criterion_08_decrease_soundness():
    verified, false_certs = 0, []
    for seed in range(50):
        pc = helpers.make_plain_chain(seed)
        mu = FunctionalModulus.linear(pc.kappa)
        cert = certifiers.certify_T64(pc.F, pc.x, pc.y, mu)
        if not cert.hypotheses_pass:
            continue
        verified += 1
        q = conventional.RegularityQuery(pc.F, pc.W, mu)
        if not (cert.confirmed
                and conventional.check_metric_regularity(q).holds):
            false_certs.append(seed)
    ok = verified == 50 and not false_certs
    _record(8, ok,
            f"decrease condition verifies on {verified}/50 instances and "
            f"metric regularity on W confirms in every case; "
            f"{len(false_certs)} false certificates")


# -- 9: modulus tightness ----------------------------------------------------

def test_criterion_09_modulus_tightness():
    bad, nontrivial = [], 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        F = helpers.random_plain_map(rng, nx_max=15, ny_max=15,
                                     allow_empty=False)
        W = helpers.random_W(rng, F)
        fit = conventional.estimate_best_modulus(F, W)
        if fit.lam_star == INF:
            # no power modulus works: the argmax pair must witness either
            # an empty preimage at finite image distance or a positive
            # gap at zero image distance
            x, y = fit.achieved_at
            t = F.dist_to_image(y, x)
            lhs = F.dist_to_preimage(x, y)
            if not ((lhs == INF and t < INF)
                    or (t <= 1e-12 and lhs > 1e-12)):
                bad.append((seed, "inf"))
            continue
        q = conventional.RegularityQuery(
            F, W, FunctionalModulus.power(fit.lam_star, fit.k)
            if fit.lam_star > 0 else (lambda s: 0.0))
        if not conventional.check_metric_regularity(q).holds:
            bad.append((seed, "pass-at"))
        if fit.lam_star > 0:
            nontrivial += 1
            x, y = fit.achieved_at
            t = F.dist_to_image(y, x)
            lhs = F.dist_to_preimage(x, y)
            if not lhs > fit.lam_star * (1.0 - 1e-9) * t ** fit.k:
                bad.append((seed, "shrunk"))
    construction_bad = []
    for seed in range(10):
        inst = parse_instance(generate_instance("plain-lipschitz", 20, seed))
        fit = conventional.estimate_best_modulus(inst.plain, inst.W)
        if not fit.lam_star <= inst.meta["kappa_true"] + 1e-9:
            construction_bad.append(seed)
    ok = not bad and not construction_bad and nontrivial >= 40
    _record(9, ok,
            f"best linear-rate estimate passes and its 1e-9 shrink fails at "
            f"the reported argmax on 100 instances ({nontrivial} with a "
            f"positive finite rate); generated scaled-copy instances stay "
            f"below the construction constant on 10/10")


# -- 10: polyhedral cones ----------------------------------------------------

def _acc_poly(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(2, 6))
    m = int(rng.integers(n, 2 * n + 3))
    A = rng.normal(size=(m, n))
    interior = rng.normal(size=n) * 0.5
    b = A @ interior + rng.uniform(0.1, 1.0, size=m)
    P = Polyhedron(A, b)
    # walk to the boundary so the tangent cone is proper
    x0 = P.interior_point()
    d = rng.normal(size=n)
    Ad = P.A @ d
    slack = P.b - P.A @ x0
    pos = Ad > 1e-12
    if not pos.any():
        return None
    return P, x0 + (slack[pos] / Ad[pos]).min() * d, rng


def _limit_ratios(P, base, dirs, scale):
    """min over the gamma ladder of max-violation(base + gamma*dir)/scale(gamma);
    containment-limit functional, vectorized over directions."""
    r0 = P.A @ base - P.b
    RD = dirs @ P.A.T
    best = np.full(dirs.shape[0], np.inf)
    for g in 0.5 ** np.arange(1, 21):
        viol = (r0[None, :] + scale(g) * RD).max(axis=1)
        best = np.minimum(best, np.maximum(viol, 0.0) / scale(g))
    return best


def test_criterion_10_polyhedral_cones():
    worst_tan = worst_so = 1.0
    polarity_bad, lp_route_bad = 0, 0
    checked = 0
    for seed in range(40):
        made = _acc_poly(seed)
        if made is None:
            continue
        P, x, rng = made
        checked += 1
        T = tangent_cone(P, x)
        dirs = sample_directions(P.dim, 1000, rng)
        # first-order: containment-limit oracle over the full sample
        ratios = _limit_ratios(P, x, dirs, lambda g: g)
        oracle = ratios <= 1e-6
        exact = np.array([T.contains(d) for d in dirs])
        worst_tan = min(worst_tan, float((exact == oracle).mean()))
        # second-order at a tangent direction with the same sample as w
        u = sample_cone_points(T, 1, rng)
        u = u[0] if u.shape[0] else np.zeros(P.dim)
        so = second_order_sets(P, x, u)
        r0 = P.A @ x - P.b
        Au = P.A @ u
        RD = dirs @ P.A.T
        best = np.full(dirs.shape[0], np.inf)
        for g in 0.5 ** np.arange(1, 21):
            h = 0.5 * g * g
            viol = (r0[None, :] + g * Au[None, :] + h * RD).max(axis=1)
            best = np.minimum(best, np.maximum(viol, 0.0) / h)
        oracle2 = best <= 1e-6
        exact2 = np.array([so.T2.contains(w) for w in dirs])
        worst_so = min(worst_so, float((exact2 == oracle2).mean()))
        # independent LP-distance route on a subsample
        for d in dirs[:10]:
            if np.abs(T.A @ d).min(initial=np.inf) < 1e-5:
                continue
            if sampled_tangent_membership(P, x, d).member != T.contains(d):
                lp_route_bad += 1
        # normal-cone polarity on all sampled pairs
        N = normal_cone_generators(P, x)
        pts = sample_cone_points(T, 50, rng)
        if N.size and pts.size:
            if float((pts @ N.T).max()) > 1e-9:
                polarity_bad += 1
        if checked == 20:
            break
    ok = (checked == 20 and worst_tan >= 0.99 and worst_so >= 0.99
          and polarity_bad == 0 and lp_route_bad == 0)
    _record(10, ok,
            f"first/second-order cones agree with the sampled-limit oracle "
            f"on 10^3 directions for each of {checked} polyhedra (dim<=5, "
            f"tol 1e-6): worst agreement {worst_tan:.3f}/{worst_so:.3f}; "
            f"polarity <n,d> <= 1e-9 on all pairs ({polarity_bad} bad); "
            f"LP-distance route agrees on subsamples ({lp_route_bad} bad)")


# -- 11: multiplier rule -----------------------------------------------------

def test_criterion_11_multiplier_rule():
    insts = [parse_instance(demo_polyopt_raw()).opt]
    insts += [parse_instance(generate_instance("polyhedral-opt", 4, s)).opt
              for s in range(10)]
    found, rule_bad, normality_bad = 0, [], []
    for i, inst in enumerate(insts):
        rng = np.random.default_rng(100 + i)
        trips = critical_directions(inst, n_dirs=16, rng=rng)
        for trip in trips[:2]:
            mult = find_multipliers(inst, trip, n_samples=16, rng=rng)
            if mult is None:
                continue
            found += 1
            fresh = np.random.default_rng(5000 + i)
            verdict = check_multiplier_rule(inst, trip, mult,
                                            n_samples=64, rng=fresh)
            if not (verdict.holds and verdict.margin >= -1e-9):
                rule_bad.append(i)
            cq = check_cq(inst, trip, rng=np.random.default_rng(7000 + i))
            if cq.holds and np.abs(mult.v_star).sum() < 1e-9:
                normality_bad.append(i)
    ok = found > 0 and not rule_bad and not normality_bad
    _record(11, ok,
            f"multiplier search succeeded {found} times over the demo plus "
            f"10 generated problems; rule re-verified at margin >= -1e-9 on "
            f"a 4x denser fresh sample ({len(rule_bad)} failures); "
            f"qualification implies a nonzero objective multiplier "
            f"({len(normality_bad)} failures)")


# -- 12: determinism ---------------------------------------------------------

def test_criterion_12_determinism(tmp_path):
    corpus = []
    for kind, size, seeds in (("plain-lipschitz", 12, 2),
                              ("param-monotone", 10, 2),
                              ("evp", 60, 2),
                              ("polyhedral-opt", 3, 2)):
        for s in range(seeds):
            p = tmp_path / f"{kind}-{s}.json"
            save_instance(generate_instance(kind, size, s), str(p))
            corpus.append((str(p), kind))
    demo = tmp_path / "demo.json"
    save_instance(demo_polyopt_raw(), str(demo))
    corpus.append((str(demo), "polyhedral-opt"))

    commands = {
        "plain-lipschitz": [["load"], ["regcheck", "--setting",
                                       "conventional"]],
        "param-monotone": [["load"], ["regcheck", "--property", "regular"]],
        "evp": [["load"], ["ekeland"]],
        "polyhedral-opt": [["load"], ["optcond", "--task", "critical"]],
    }
    mismatches = []
    runs = 0
    for path, kind in corpus:
        for cmd in commands[kind]:
            runs += 1
            outs = []
            for tag in ("a", "b"):
                out = tmp_path / f"r{runs}-{tag}.json"
                argv = [cmd[0], path] + cmd[1:] + ["--out", str(out)]
                code = main(argv)
                assert code in (0, 1), (argv, code)
                outs.append(out.read_bytes())
            if outs[0] != outs[1]:
                mismatches.append((path, cmd))
    _record(12, not mismatches,
            f"reports byte-identical across two runs for every corpus "
            f"instance ({runs} command/instance pairs, "
            f"{len(mismatches)} mismatches)")
