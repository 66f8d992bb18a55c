"""The numeric policy: strict comparison, scalar and array forms."""
import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from regkit.policy import INF, NumericPolicy

SPECIAL = st.sampled_from([0.0, 1.0, -1.0, INF, -INF, float("nan")])


@st.composite
def ties(draw):
    """A pivot a and values on, near and across a within tol_strict."""
    tol = draw(st.sampled_from([0.0, 1e-12, 1e-3]))
    a = draw(st.one_of(SPECIAL, st.floats(-10, 10)))
    near = st.sampled_from([-2, -1, -0.5, 0, 0.5, 1, 2]).map(
        lambda k: a + k * tol)
    vals = draw(hnp.arrays(float, st.integers(0, 12),
                           elements=st.one_of(SPECIAL, near, st.floats(-10, 10))))
    return NumericPolicy(tol_strict=tol), a, vals


@settings(max_examples=300, deadline=None)
@given(ties())
def test_lt_each_is_lt_per_value(case):
    policy, a, vals = case
    mask = policy.lt_each(a, vals)
    assert mask.dtype == bool and mask.shape == vals.shape
    assert mask.tolist() == [bool(policy.lt(a, v)) for v in vals]
