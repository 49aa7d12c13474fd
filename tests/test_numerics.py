import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruin2d.errors import MaxIterations, NoSignChange
from ruin2d.numerics import (
    integrate,
    normal_cdf,
    normal_logcdf,
    normal_quantile,
    root_solve,
)


def test_root_solve_polynomial():
    r = root_solve(lambda x: x * x * x - 2.0, 0.0, 2.0)
    assert abs(r - 2.0 ** (1.0 / 3.0)) < 1e-12


def test_root_solve_endpoint_roots():
    assert root_solve(lambda x: x, 0.0, 1.0) == 0.0
    assert root_solve(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_root_solve_refuses_same_sign():
    with pytest.raises(NoSignChange):
        root_solve(lambda x: x * x + 1.0, -1.0, 1.0)


def test_root_solve_bad_bracket():
    with pytest.raises(ValueError):
        root_solve(lambda x: x, 1.0, 0.0)


def test_root_solve_iteration_budget():
    with pytest.raises(MaxIterations):
        root_solve(lambda x: math.atan(x - 0.3), -1.0, 1e6, tol=1e-15, max_iter=4)


@given(st.floats(-5.0, 5.0), st.floats(0.1, 10.0))
@settings(max_examples=50, deadline=None)
def test_root_solve_affine(root, slope):
    got = root_solve(lambda x: slope * (x - root), root - 7.0, root + 11.0)
    assert abs(got - root) < 1e-9


def test_integrate_polynomial_exact():
    v, err = integrate(lambda x: 3.0 * x * x, 0.0, 2.0)
    assert abs(v - 8.0) <= max(err, 1e-12)


def test_integrate_gaussian_tail():
    v, _ = integrate(lambda x: np.exp(-x * x / 2.0), 0.0, 40.0)
    assert abs(v - math.sqrt(math.pi / 2.0)) < 1e-10


def test_integrate_orientation():
    v1, _ = integrate(lambda x: x, 0.0, 1.0)
    v2, _ = integrate(lambda x: x, 1.0, 0.0)
    assert v1 == -v2
    assert integrate(lambda x: x, 2.0, 2.0) == (0.0, 0.0)


@pytest.mark.parametrize("a,b", [(0.0, math.inf), (-math.inf, math.inf), (math.nan, 1.0), (0.0, math.nan)])
def test_integrate_refuses_limits_that_are_not_finite(a, b):
    with pytest.raises(ValueError, match="finite"):
        integrate(lambda x: x, a, b)


def test_integrate_error_bound_honest():
    # a sharp peak: the reported bound must still cover the true defect
    v, err = integrate(lambda x: 1.0 / (1e-4 + x * x), -1.0, 1.0)
    true = 2.0 / 1e-2 * math.atan(1.0 / 1e-2)
    assert abs(v - true) <= 10.0 * err + 1e-9


def test_normal_cdf_symmetry_and_tails():
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    for z in (0.5, 1.0, 2.5, 6.0):
        assert normal_cdf(z) + normal_cdf(-z) == pytest.approx(1.0, abs=1e-14)
    # deep tail handled in log space
    assert normal_logcdf(-40.0) == pytest.approx(
        math.log(1.0 / (40.0 * math.sqrt(2.0 * math.pi))) - 800.0, rel=1e-3
    )


@given(st.floats(1e-6, 1.0 - 1e-6))
@settings(max_examples=50, deadline=None)
def test_normal_quantile_round_trip(q):
    assert normal_cdf(normal_quantile(q)) == pytest.approx(q, abs=1e-9)

