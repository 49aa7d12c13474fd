import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruin2d.cones import (
    ConeLabel,
    classify,
    crossing_time,
    exit_rate,
    gamma_ray,
    partition,
    rate_function,
)
from ruin2d.errors import ConfigError, OutOfRange
from ruin2d.models import (
    CompoundPoissonExp,
    StandardBrownian,
    TwoLineModel,
    adjustment,
)

CPE = TwoLineModel(CompoundPoissonExp(1.0, 2.0), 3.0, 1.0)
BM = TwoLineModel(StandardBrownian(), 3.0, 1.0)
# narrower premium gaps keep the slow-line sector nondegenerate
CPE_D2 = TwoLineModel(CompoundPoissonExp(1.0, 2.0), 1.5, 1.0)
BM_D2 = TwoLineModel(StandardBrownian(), 1.8, 1.0)


def cpe_models(draw):
    lam = draw(st.floats(0.3, 3.0))
    mu = draw(st.floats(0.5, 4.0))
    p2 = lam / mu * (1.0 + draw(st.floats(0.1, 2.0)))
    p1 = p2 * (1.0 + draw(st.floats(0.1, 3.0)))
    return TwoLineModel(CompoundPoissonExp(lam, mu), p1, p2)


random_cpe = st.composite(cpe_models)()


# --- crossing time -----------------------------------------------------------

def test_crossing_time_values():
    assert crossing_time(1.0, 3.0, 3.0, 1.0) == 1.0
    assert crossing_time(3.0, 1.0, 3.0, 1.0) == 0.0
    assert crossing_time(2.0, 2.0, 5.0, 1.0) == 0.0
    with pytest.raises(ConfigError):
        crossing_time(1.0, 3.0, 1.0, 3.0)


# --- the slope partition -----------------------------------------------------

def test_partition_reference_models():
    p = partition(CPE)
    assert p.s1 == pytest.approx(15.0 / 17.0, abs=1e-10)
    assert p.s2 == 0.0
    assert p.s3 == pytest.approx(3.0 / 7.0, abs=1e-10)
    assert p.d2_empty

    p = partition(BM)
    assert p.s1 == pytest.approx(0.6, abs=1e-10)
    assert p.s2 == 0.0
    assert p.s3 == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert p.d2_empty


def test_partition_nondegenerate_models():
    p = partition(CPE_D2)
    assert not p.d2_empty
    assert p.s2 == pytest.approx(0.5, abs=1e-10)
    assert p.s3 == pytest.approx(0.5, abs=1e-10)
    assert p.s1 == pytest.approx(6.0 / 7.0, abs=1e-10)
    # when the slow-line sector survives, the joint exponent collapses
    assert adjustment(CPE_D2).gamma_tilde == pytest.approx(0.0, abs=1e-10)

    p = partition(BM_D2)
    assert not p.d2_empty
    assert p.s2 == pytest.approx(0.2, abs=1e-10)
    assert p.s1 == pytest.approx(1.8 / 2.6, abs=1e-10)


@given(random_cpe)
@settings(max_examples=60, deadline=None)
def test_partition_ordering_random_models(model2):
    # partition() internally cross-checks the derivative-ratio slopes
    # against the per-driver closed forms, so surviving the call is
    # already a two-route agreement test
    p = partition(model2)
    adj = adjustment(model2)
    assert 0.0 <= p.s2 <= p.s3 < p.s1 < 1.0
    assert p.s2 < adj.gamma2 / adj.gamma1 < p.s1
    assert p.d2_empty == (p.s2 == 0.0)


@given(st.floats(0.3, 2.8))
@settings(max_examples=30, deadline=None)
def test_partition_brownian_premium_sweep(gap):
    model2 = TwoLineModel(StandardBrownian(), 1.0 + gap, 1.0)
    p = partition(model2)
    assert p.s1 == pytest.approx((1.0 + gap) / (1.0 + 2.0 * gap), abs=1e-10)


# --- ray classification ------------------------------------------------------

def test_classify_reference_sectors():
    assert classify(CPE, 0.95, 1.0) is ConeLabel.D1
    assert classify(CPE, 0.6, 1.0) is ConeLabel.D0
    assert classify(CPE, 0.3, 1.0, "and") is ConeLabel.D2_HAT
    assert classify(CPE, 0.6, 1.0, "and") is ConeLabel.D0_HAT
    assert classify(CPE_D2, 0.4, 1.0) is ConeLabel.D2
    assert classify(CPE_D2, 0.7, 1.0) is ConeLabel.D0


def test_classify_scale_invariance():
    for k in (1.0, 10.0, 1000.0):
        assert classify(CPE, 0.6 * k, k) is ConeLabel.D0
        assert classify(BM, 0.2 * k, k, "and") is ConeLabel.D2_HAT


def test_classify_boundary_and_lower_cone():
    assert classify(CPE, 15.0, 17.0) is ConeLabel.BOUNDARY_RAY
    assert classify(BM, 0.6, 1.0) is ConeLabel.BOUNDARY_RAY
    assert classify(CPE, 3.0, 1.0) is ConeLabel.LOWER_CONE
    assert classify(CPE, 1.0, 1.0) is ConeLabel.LOWER_CONE


def test_classify_guards():
    with pytest.raises(OutOfRange):
        classify(CPE, 0.0, 1.0)
    with pytest.raises(OutOfRange):
        classify(CPE, -1.0, 2.0)


@pytest.mark.parametrize("x1, x2", [(3.0, 1.0), (1.0, 1.0), (1.0, 3.0)])
def test_classify_refuses_unknown_partition_kind_on_every_ray(x1, x2):
    with pytest.raises(OutOfRange, match="unknown partition kind 'bogus'"):
        classify(CPE, x1, x2, "bogus")


@given(random_cpe, st.floats(0.02, 0.98))
@settings(max_examples=60, deadline=None)
def test_classify_two_routes_agree_random(model2, a):
    # classify() computes the sector by slope and by hitting times and
    # raises if they disagree; sweeping random models and rays exercises
    # both routes across every sector
    for kind in ("sim", "and"):
        label = classify(model2, a, 1.0, kind)
        assert label in ConeLabel


# --- ray exponent and exit rate ----------------------------------------------

def test_gamma_ray_brownian_closed_form():
    # v = 4 on a = 0.5; the quadratic transform makes the exponent 25/8
    assert gamma_ray(BM, 0.5) == pytest.approx(3.125, abs=1e-10)


def test_gamma_ray_guards():
    for bad in (0.0, -0.5, 1.0, 1.5):
        with pytest.raises(OutOfRange):
            gamma_ray(CPE, bad)


@pytest.mark.parametrize("model2", [CPE, BM, CPE_D2, BM_D2])
def test_exit_rate_branches_touch(model2):
    p = partition(model2)
    adj = adjustment(model2)
    assert gamma_ray(model2, p.s1) == pytest.approx(p.s1 * adj.gamma1, rel=1e-9)
    if not p.d2_empty:
        assert gamma_ray(model2, p.s2) == pytest.approx(adj.gamma2, rel=1e-9)
    # the piecewise rate agrees with its branches on each side
    assert exit_rate(model2, p.s1 + 0.01) == pytest.approx(
        (p.s1 + 0.01) * adj.gamma1, rel=1e-12)
    mid = 0.5 * (p.s1 + max(p.s2, 0.05))
    assert exit_rate(model2, mid) == pytest.approx(gamma_ray(model2, mid), rel=1e-12)
    if not p.d2_empty:
        assert exit_rate(model2, 0.5 * p.s2) == adj.gamma2


def test_exit_rate_monotone_on_grid():
    vals = [exit_rate(BM, a) for a in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_exit_rate_guard():
    with pytest.raises(OutOfRange):
        exit_rate(BM, 0.0)


# --- large-deviation rate ----------------------------------------------------

def test_rate_function_matches_ray_exponent():
    assert rate_function(CPE, -0.5, -1.0) == pytest.approx(
        gamma_ray(CPE, 0.5), rel=1e-12)
    # positive homogeneity
    assert rate_function(CPE, -2.0, -4.0) == pytest.approx(
        4.0 * gamma_ray(CPE, 0.5), rel=1e-12)


def test_rate_function_diagonal():
    # equal displacement needs a single oversized claim: cost mu per unit
    assert rate_function(CPE, -2.0, -2.0) == pytest.approx(4.0, abs=1e-12)
    assert math.isinf(rate_function(BM, -1.0, -1.0))


def test_rate_function_guards():
    with pytest.raises(OutOfRange):
        rate_function(CPE, 1.0, -1.0)
    with pytest.raises(OutOfRange):
        rate_function(CPE, -1.0, 0.0)
