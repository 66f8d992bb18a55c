"""Functional moduli and auxiliary schemes."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regkit.moduli import (AuxScheme, FunctionalModulus, ModulusError,
                           canonical_mu)
from regkit.policy import INF


def mu_strategy():
    linear = st.builds(FunctionalModulus.linear, st.floats(0.1, 5.0))
    power = st.builds(FunctionalModulus.power, st.floats(0.1, 5.0),
                      st.floats(0.2, 1.0))
    return st.one_of(linear, power)


@settings(max_examples=50, deadline=None)
@given(mu_strategy(), st.floats(0, 10), st.floats(0, 10))
def test_moduli_nondecreasing_and_vanish(mu, s, t):
    lo, hi = sorted((s, t))
    assert mu(lo) <= mu(hi) + 1e-12
    assert mu(0.0) == 0.0
    assert mu(INF) == INF


def test_validation_errors():
    with pytest.raises(ModulusError):
        FunctionalModulus.linear(0.0)
    with pytest.raises(ModulusError):
        FunctionalModulus("power", lam=1.0, k=2.0)   # k > 1 without the flag
    FunctionalModulus.power(1.0, 2.0)                # classmethod sets the flag
    with pytest.raises(ModulusError):
        FunctionalModulus.table([])
    with pytest.raises(ModulusError):
        FunctionalModulus.table([(0.0, 1.0), (0.0, 2.0)])
    with pytest.raises(ModulusError):
        FunctionalModulus.table([(0.0, 2.0), (1.0, 1.0)])
    with pytest.raises(ModulusError):
        FunctionalModulus.table([(0.0, 0.0)], interp="cubic")
    with pytest.raises(ModulusError):
        FunctionalModulus.linear(1.0)(-0.5)
    with pytest.raises(ModulusError):
        FunctionalModulus("sqrtish")


def test_table_step_vs_linear():
    bps = [(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)]
    step = FunctionalModulus.table(bps, interp="step")
    lin = FunctionalModulus.table(bps, interp="linear")
    assert step(0.5) == 0.0 and lin(0.5) == pytest.approx(0.5)
    assert step(1.5) == 1.0 and lin(1.5) == pytest.approx(2.0)
    assert step(5.0) == 3.0 and lin(5.0) == 3.0       # clamp past the table
    assert lin.continuous and not step.continuous
    assert lin.vanishes_only_at_zero


def test_table_flags_negative_cases():
    positive = FunctionalModulus.table([(0.5, 1.0), (1.0, 2.0)], interp="linear")
    assert not positive.vanishes_only_at_zero


def test_orbit_and_vanishing():
    sch = AuxScheme(b=FunctionalModulus.linear(0.5),
                    m=FunctionalModulus.linear(1.0))
    orb = sch.orbit(1.0, horizon=64)
    assert orb[0] == 1.0 and orb[-1] <= 1e-12
    assert all(b <= a for a, b in zip(orb, orb[1:]))
    assert sch.orbit_vanishes(1.0, 64)
    assert sch.m_vanishing_sampled(1.0, 64)
    stuck = AuxScheme(b=FunctionalModulus.linear(1.0),
                      m=FunctionalModulus.linear(1.0))
    assert not stuck.orbit_vanishes(1.0, 64)
    with pytest.raises(ModulusError):
        AuxScheme().orbit(1.0, 8)
    with pytest.raises(ModulusError):
        AuxScheme().m_vanishing_sampled(1.0, 8)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.2, 0.8), st.floats(0.5, 2.0), st.floats(0.1, 3.0))
def test_canonical_mu_is_geometric_series(r, c, tau):
    """For b = r*t and m = c*t the suffix sum has a closed form."""
    sch = AuxScheme(b=FunctionalModulus.linear(r),
                    m=FunctionalModulus.linear(c))
    got = canonical_mu(sch, tau, horizon=200)
    assert got == pytest.approx(c * tau / (1.0 - r), rel=1e-9, abs=1e-10)


def test_canonical_mu_infinite_when_orbit_stalls():
    sch = AuxScheme(b=FunctionalModulus.linear(1.0),
                    m=FunctionalModulus.linear(1.0))
    assert canonical_mu(sch, 1.0, horizon=50) == INF
    with pytest.raises(ModulusError):
        canonical_mu(AuxScheme(), 1.0, 10)


def test_canonical_mu_satisfies_functional_inequality():
    """mu(tau) = m(tau) + mu(b(tau)): the defining recursion, exactly."""
    sch = AuxScheme(b=FunctionalModulus.linear(0.6),
                    m=FunctionalModulus.power(0.8, 0.9))
    for tau in (0.1, 0.7, 1.9):
        lhs = canonical_mu(sch, tau, 128)
        rhs = sch.m(tau) + canonical_mu(sch, sch.b(tau), 128)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def _table_reference(mu, t: float) -> float:
    """A table modulus at t >= 0, branch by branch."""
    ts = [p[0] for p in mu.breakpoints]
    vs = [p[1] for p in mu.breakpoints]
    if t == INF:
        return INF
    if t < ts[0]:
        return vs[0] * t / ts[0] if mu.interp == "linear" and ts[0] > 0 else 0.0
    if t >= ts[-1]:
        return vs[-1]
    i = max(j for j in range(len(ts)) if ts[j] <= t)
    if mu.interp == "step":
        return vs[i]
    return vs[i] + (vs[i + 1] - vs[i]) * (t - ts[i]) / (ts[i + 1] - ts[i])


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(0, 320).map(lambda k: k / 64), min_size=1, max_size=5),
       st.lists(st.one_of(st.just(-0.0), st.floats(0.0, 5.0)), min_size=5, max_size=5),
       st.sampled_from(["step", "linear"]),
       st.lists(st.one_of(st.floats(0.0, 8.0), st.just(INF)), max_size=10))
def test_table_pieces_are_the_branch_formula_bit_for_bit(ts, vs, interp, points):
    mu = FunctionalModulus.table(list(zip(sorted(ts), sorted(vs))), interp=interp)
    points = points + [t for t, _ in mu.breakpoints] + [0.0]
    assert np.array([mu(t) for t in points]).tobytes() == \
        np.array([_table_reference(mu, t) for t in points]).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.builds(FunctionalModulus.linear, st.floats(0.1, 5.0)),
    st.builds(FunctionalModulus.power, st.floats(0.1, 5.0), st.floats(0.2, 1.0)),
    st.builds(lambda ts, vs, interp: FunctionalModulus.table(
        list(zip(sorted(ts), sorted(vs))), interp=interp),
        st.sets(st.integers(0, 320).map(lambda k: k / 64), min_size=1, max_size=5),
        st.lists(st.floats(0.0, 5.0), min_size=5, max_size=5),
        st.sampled_from(["step", "linear"]))),
    st.lists(st.one_of(st.floats(0.0, 8.0), st.just(INF)), max_size=20))
def test_each_is_call_bit_for_bit(mu, ts):
    # breakpoints among the points too, where step and linear switch pieces
    ts = ts + [t for t, _ in mu.breakpoints]
    got = mu.each(np.array(ts + [-1.0]))
    assert got[:-1].tobytes() == np.array([mu(t) for t in ts]).tobytes()
    assert np.isnan(got[-1])                          # mu(-1) raises


def test_table_arrays_leave_eq_and_hash_to_the_breakpoints():
    a = FunctionalModulus.table([(0.0, 0.0), (1.0, 2.0)], interp="linear")
    b = FunctionalModulus.table([(0, 0), (1, 2)], interp="linear")
    assert a == b and hash(a) == hash(b) and "_ts" not in repr(a)
