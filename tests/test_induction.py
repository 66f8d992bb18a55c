"""Iteration engine: preconditions, chain search, verdicts."""
import numpy as np
import pytest

import helpers
from regkit import conventional
from regkit.induction import (LevelMap, PreconditionError, Seq, SequenceSpec,
                              run_induction, step_distances, verify_preconditions)
from regkit.metric import FiniteMetricSpace
from regkit.policy import DEFAULT_POLICY, INF
from regkit.svmap import TLadder


def test_sequence_validation():
    with pytest.raises(PreconditionError):
        Seq.geometric(0.0, 0.5)
    with pytest.raises(PreconditionError):
        Seq.geometric(1.0, 1.0)
    with pytest.raises(PreconditionError):
        Seq.explicit([1.0, -0.5])
    g = Seq.geometric(2.0, 0.5)
    assert g.value(3) == 0.25
    e = Seq.explicit([3.0, 1.0])
    assert e.value(0) == 3.0 and e.value(5) == 0.0


def test_sequence_spec_totals():
    s = SequenceSpec(a=Seq.geometric(1.0, 0.5), b=Seq.geometric(1.0, 0.5))
    assert s.b_total() == pytest.approx(2.0)
    assert s.b_partial(2) == pytest.approx(1.5)
    e = SequenceSpec(a=Seq.explicit([1.0]), b=Seq.explicit([2.0, 1.0]))
    assert e.b_total() == 3.0


@pytest.mark.parametrize("b", [
    Seq.geometric(0.3, 0.7), Seq.geometric(1.0 / 3.0, 0.9),
    Seq.explicit([0.1, 0.2, 0.3, 1e-17, 0.7, 1.0 / 3.0, 0.1]),   # then zeros
])
def test_b_steps_are_the_partial_sums_bit_for_bit(b):
    spec = SequenceSpec(a=Seq.geometric(1.0, 0.5), b=b, horizon=40)
    steps = list(spec.b_steps())
    assert len(steps) == spec.horizon
    for n, (b_n, radius) in enumerate(steps):
        assert b_n.hex() == b.value(n).hex()
        assert radius.hex() == spec.b_partial(n).hex()


def test_constructed_instances_certify():
    for seed in range(25):
        case = helpers.induction_pass_instance(seed, n_max=40)
        pre = verify_preconditions(case.phi, case.t, case.x, case.seqs)
        assert pre.ok, (seed, pre.checks)
        tr = run_induction(case.phi, case.t, case.x, case.seqs)
        assert tr.certified, (seed, tr.status, tr.message)
        assert tr.witness in set(case.phi.fibre(0).tolist())
        dz = case.phi.space.d(case.x, tr.witness)
        assert dz < tr.bound - 1e-12
        # greedy-first chain ends at the constructed terminal point
        assert tr.steps[-1].x_n == case.meta["z_expected"]


def test_precondition_failures_reported():
    case = helpers.induction_pass_instance(1, n_max=20)
    # a_n increasing after the start
    bad_a = SequenceSpec(a=Seq.explicit([case.t, 0.4 * case.t, 0.8 * case.t]),
                         b=case.seqs.b)
    rep = verify_preconditions(case.phi, case.t, case.x, bad_a)
    assert not rep.ok
    assert any(name == "A2" and not ok for name, ok, _ in rep.checks)
    # a_0 != t
    off = SequenceSpec(a=Seq.explicit([0.5 * case.t]), b=case.seqs.b)
    rep = verify_preconditions(case.phi, case.t, case.x, off)
    assert any(name == "A2" and not ok for name, ok, _ in rep.checks)
    # a_n drifting above the ladder top is a resolution error
    high = SequenceSpec(a=Seq.explicit([case.t, 2 * case.t]), b=case.seqs.b)
    with pytest.raises(PreconditionError, match="resolution"):
        verify_preconditions(case.phi, case.t, case.x, high)
    # x outside Phi(t)
    with pytest.raises(PreconditionError):
        verify_preconditions(case.phi, case.t, case.phi.space.n - 1, case.seqs)
    with pytest.raises(PreconditionError):
        run_induction(case.phi, case.t, case.phi.space.n - 1, case.seqs)


@pytest.mark.parametrize("seed", range(20))
def test_step_distances_match_brute_force(seed, monkeypatch):
    """The step's region and d(u, next fibre) against a brute force, with
    step 0 at an x outside fib, a later step of radius <= 0, an empty fib,
    an empty next fibre and a radius below tol, in one block and in blocks
    of 3 distances."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 15))
    space = FiniteMetricSpace(metric="euclidean",
                              coords=rng.uniform(0.0, 4.0, size=(n, 2)))
    tol = DEFAULT_POLICY.tol_strict
    x = int(rng.integers(0, n))
    subsets = [np.nonzero(rng.random(n) < p)[0] for p in (0.3, 0.7)]
    empty = np.empty(0, dtype=int)
    without_x = np.setdiff1d(np.arange(n), [x])
    steps = [(0, 0.0), (1, 0.0), (1, -1.0), (1, 5e-13), (1, float(rng.uniform(0.5, 3.0)))]
    for fib, nxt, (k, radius) in [(f, g, s) for f in subsets + [empty, without_x]
                                  for g in subsets + [empty] for s in steps]:
        # {x} at step 0, else B(x, r): d(x, u) < r at resolution, r > 0 and
        # a distance <= tol being 0
        want = [u for u in fib.tolist() if
                (u == x if k == 0 else radius > 0 and
                 (space.d(x, u) <= tol or space.d(x, u) < radius - tol))]
        dists = [min((space.d(u, v) for v in nxt.tolist()), default=INF) for u in want]
        for block in (1 << 20, 3):
            monkeypatch.setattr(conventional, "_BLOCK", block)
            got = step_distances(space, fib, nxt, x, k, radius, tol)
            assert (got[0].tolist(), got[1].tolist()) == (want, dists)


def test_horizon_exhausted():
    case = helpers.induction_pass_instance(2, n_max=20)
    slow = SequenceSpec(a=Seq.geometric(case.t, 0.999), b=case.seqs.b,
                        horizon=16)
    tr = run_induction(case.phi, case.t, case.x, slow)
    assert tr.status == "horizon_exhausted"


def test_restriction_set_filters_fibres():
    case = helpers.induction_pass_instance(3, n_max=20)
    all_pts = set(range(case.phi.space.n))
    tr = run_induction(case.phi, case.t, case.x, case.seqs,
                       restrict_U=all_pts)
    assert tr.certified
    # removing the terminal chain point cuts every chain
    cut = all_pts - {case.meta["z_expected"]}
    zero = set(case.phi.fibre(0).tolist())
    if zero <= {case.meta["z_expected"]}:
        tr2 = run_induction(case.phi, case.t, case.x, case.seqs,
                            restrict_U=cut)
        assert not tr2.certified
    with pytest.raises(PreconditionError):
        run_induction(case.phi, case.t, case.x, case.seqs, restrict_U={99})


def test_dfs_backtracks_past_greedy_dead_end():
    """The nearest successor leads nowhere; the engine must still certify."""
    # points: x=0, trap=0.1 (near), live=0.5, target=0.6
    space = FiniteMetricSpace.from_grid([0.0, 0.1, 0.5, 0.6])
    ladder = TLadder(np.array([0.0, 1.0, 2.0]))
    phi = LevelMap.from_table(space, ladder,
                              {2: [0], 1: [1, 2], 0: [3]})
    seqs = SequenceSpec(a=Seq.explicit([2.0, 1.0]),
                        b=Seq.explicit([0.7, 0.2]))
    # from the trap, d(0.1, 0.6) = 0.5 >= b_1; from live, d = 0.1 < b_1
    tr = run_induction(phi, 2.0, 0, seqs)
    assert tr.certified
    assert [s.x_n for s in tr.steps] == [0, 2, 3]


def test_no_chain_reports_depth_of_failure():
    space = FiniteMetricSpace.from_grid([0.0, 3.0])
    ladder = TLadder(np.array([0.0, 1.0, 2.0]))
    phi = LevelMap.from_table(space, ladder, {2: [0], 1: [1], 0: [1]})
    seqs = SequenceSpec(a=Seq.explicit([2.0, 1.0]), b=Seq.explicit([1.0, 1.0]))
    tr = run_induction(phi, 2.0, 0, seqs)
    assert tr.status == "precondition_failed"
    assert tr.failed_condition == "A3"


def test_verdicts_match_exhaustive_oracle():
    agree = certified = 0
    for seed in range(60):
        case = helpers.induction_random_instance(seed)
        tr = run_induction(case.phi, case.t, case.x, case.seqs)
        want = helpers.exhaustive_chain_verdict(case)
        got = "certified" if tr.certified else (
            "horizon_exhausted" if tr.status == "horizon_exhausted"
            else "failed")
        assert got == want, (seed, got, want)
        agree += 1
        certified += got == "certified"
    # the family must exercise both outcomes
    assert 0 < certified < agree


def test_no_false_certificates_on_random_instances():
    for seed in range(60):
        case = helpers.induction_random_instance(seed)
        tr = run_induction(case.phi, case.t, case.x, case.seqs)
        if tr.certified:
            assert tr.witness in set(case.phi.fibre(0).tolist())
            assert case.phi.space.d(case.x, tr.witness) < tr.bound
