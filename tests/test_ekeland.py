"""Variational-principle solver: standing hypothesis, descent trace, oracle."""
import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from regkit import cli
from regkit.ekeland import (EVPError, EVPInstance, evp_oracle, evp_solve,
                            evp_verify)
from regkit.instances import generate_instance, parse_instance, save_instance
from regkit.metric import FiniteMetricSpace
from regkit.policy import DEFAULT_POLICY, INF, NumericPolicy


def _random_instance(seed, n_max=60):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, n_max + 1))
    coords = np.sort(rng.uniform(0.0, 10.0, size=n))
    space = FiniteMetricSpace.from_grid(coords)
    f = rng.uniform(0.0, 5.0, size=n)
    if rng.random() < 0.4:              # sprinkle +inf values
        mask = rng.random(n) < 0.2
        f[mask] = INF
    if not np.isfinite(f).any():
        f[0] = 1.0
    fin = np.nonzero(np.isfinite(f))[0]
    eps = float(rng.uniform(0.5, 3.0))
    lam = float(rng.uniform(0.5, 5.0))
    # pick a start satisfying the standing hypothesis
    lo = float(f[fin].min())
    ok = fin[f[fin] < lo + eps - 1e-9]
    x0 = int(rng.choice(ok))
    return EVPInstance(space=space, f=f, eps=eps, lam=lam, x0=x0)


def test_standing_hypothesis_enforced():
    space = FiniteMetricSpace.from_grid([0.0, 1.0, 2.0])
    with pytest.raises(EVPError, match="standing hypothesis"):
        EVPInstance(space=space, f=np.array([0.0, 5.0, 1.0]),
                    eps=1.0, lam=1.0, x0=1)
    with pytest.raises(EVPError, match="positive"):
        EVPInstance(space=space, f=np.array([0.0, 0.1, 1.0]),
                    eps=-1.0, lam=1.0, x0=0)
    with pytest.raises(EVPError, match="infinite value"):
        EVPInstance(space=space, f=np.array([0.0, INF, 1.0]),
                    eps=10.0, lam=1.0, x0=1)
    with pytest.raises(EVPError, match="nowhere finite"):
        EVPInstance(space=space, f=np.full(3, INF), eps=1.0, lam=1.0, x0=0)
    with pytest.raises(EVPError, match="proper"):
        EVPInstance(space=space, f=np.array([0.0, -INF, 1.0]),
                    eps=1.0, lam=1.0, x0=0)


def test_solve_then_verify():
    for seed in range(40):
        inst = _random_instance(seed)
        res = evp_solve(inst)
        chk = evp_verify(inst, res.z)
        assert chk.ok, (seed, chk)
        assert chk.dist < inst.lam


def test_residual_halves_along_trace():
    for seed in range(40):
        inst = _random_instance(seed)
        res = evp_solve(inst)
        a = [s.a_n for s in res.steps]
        for prev, nxt in zip(a, a[1:]):
            assert nxt <= prev / 2 + 1e-12, (seed, a)
        # f never increases along the trace
        fv = [s.f_n for s in res.steps]
        for prev, nxt in zip(fv, fv[1:]):
            assert nxt <= prev + 1e-12


def test_step_lengths_sum_below_lambda():
    for seed in range(40):
        inst = _random_instance(seed)
        res = evp_solve(inst)
        pts = [s.x_n for s in res.steps] + [res.z]
        total = sum(inst.space.d(a, b) for a, b in zip(pts, pts[1:]))
        assert total < inst.lam


def test_solution_lies_in_oracle_set():
    for seed in range(40):
        inst = _random_instance(seed)
        res = evp_solve(inst)
        good = evp_oracle(inst)
        assert res.z in set(good.tolist()), seed
        # every oracle point independently verifies
        for z in good.tolist():
            assert evp_verify(inst, int(z)).ok


def test_oracle_cap():
    inst = _random_instance(0)
    tight = NumericPolicy(evp_cap=2)
    with pytest.raises(EVPError, match="capped"):
        evp_oracle(inst, policy=tight)


def test_infinite_values_never_selected():
    space = FiniteMetricSpace.from_grid([0.0, 0.1, 0.2, 5.0])
    f = np.array([1.0, INF, 0.9, 0.0])
    inst = EVPInstance(space=space, f=f, eps=2.0, lam=1.0, x0=0)
    res = evp_solve(inst)
    assert np.isfinite(f[res.z])
    assert evp_verify(inst, res.z).ok


def test_generated_instances_roundtrip_and_solve():
    for seed in range(5):
        raw = generate_instance("evp", 200, seed)
        inst = parse_instance(raw)
        res = evp_solve(inst.evp)
        assert evp_verify(inst.evp, res.z).ok


def test_solve_verify_and_oracle_read_rows_only():
    inst = parse_instance(generate_instance("evp", 300, 0)).evp
    z = evp_solve(inst).z
    assert evp_verify(inst, z).ok and z in evp_oracle(inst)
    assert inst.space._dmat is None        # no n x n matrix was built


def test_run_plan_evp_peak_memory_is_far_below_one_matrix(tmp_path):
    path = str(tmp_path / "evp.json")
    save_instance(generate_instance("evp", 2000, 3), path)
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", path, "--plan", "evp"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8e6, peak                # one 2000 x 2000 matrix is 32 MB
