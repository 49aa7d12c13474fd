import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruin2d.errors import (
    ConfigError,
    InvalidProportions,
    NoAdjustment,
    OutOfDomain,
    UnsupportedDriver,
)
from ruin2d.models import (
    CompoundPoissonExp,
    LineModel,
    Renewal,
    StandardBrownian,
    TwoLineModel,
    adjustment,
    deterministic_dist,
    exponential_dist,
    joint_cumulant,
    line_adjustment,
    renewal_adjustment,
    saddle,
    scale_to_canonical,
    tilt,
)

CPE = TwoLineModel(CompoundPoissonExp(1.0, 2.0), 3.0, 1.0)
BM = TwoLineModel(StandardBrownian(), 3.0, 1.0)


# --- construction and validation ------------------------------------------

def test_premium_ordering_enforced():
    with pytest.raises(ConfigError):
        TwoLineModel(CompoundPoissonExp(1.0, 2.0), 1.0, 3.0)
    with pytest.raises(ConfigError):
        TwoLineModel(StandardBrownian(), 1.0, -1.0)


def test_jump_line_needs_positive_premium():
    with pytest.raises(ConfigError):
        LineModel(CompoundPoissonExp(1.0, 2.0), 0.0)
    # a Brownian line may carry negative drift (it arises from tilting)
    assert LineModel(StandardBrownian(), -1.0).drift == -1.0


def test_cpe_parameter_validation():
    with pytest.raises(ConfigError):
        CompoundPoissonExp(0.0, 2.0)
    with pytest.raises(ConfigError):
        CompoundPoissonExp(1.0, -2.0)


# --- cumulants --------------------------------------------------------------

def test_cpe_cumulant_values():
    line = CPE.line1
    assert line.kappa(1.0) == pytest.approx(3.0 - 1.0 / 3.0, abs=1e-15)
    assert line.kappa_prime(0.0) == pytest.approx(3.0 - 0.5, abs=1e-15)
    assert line.kappa_double_prime(0.0) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(OutOfDomain):
        line.kappa(-2.0)


def test_brownian_cumulant_values():
    line = BM.line2
    assert line.kappa(2.0) == pytest.approx(4.0, abs=1e-15)
    assert line.kappa_prime(-1.0) == pytest.approx(0.0, abs=1e-15)
    assert line.kappa_double_prime(5.0) == 1.0


def test_renewal_line_refuses_cumulant_calculus():
    line = LineModel(Renewal(deterministic_dist(1.0), exponential_dist(2.0)), 3.0)
    with pytest.raises(UnsupportedDriver):
        line.kappa(0.5)
    assert line.drift == pytest.approx(3.0 - 0.5)


def test_joint_cumulant_marginals():
    for model2 in (CPE, BM):
        th = 0.37
        assert joint_cumulant(model2, th, 0.0) == pytest.approx(
            model2.line1.kappa(th), abs=1e-14)
        assert joint_cumulant(model2, 0.0, th) == pytest.approx(
            model2.line2.kappa(th), abs=1e-14)


# --- adjustment coefficients and constants ----------------------------------

def test_adjustment_constants_reference_model():
    adj = adjustment(CPE)
    assert adj.gamma1 == pytest.approx(5.0 / 3.0, abs=1e-10)
    assert adj.gamma2 == pytest.approx(1.0, abs=1e-10)
    assert adj.gamma3 == pytest.approx(4.0 / 3.0, abs=1e-10)
    assert adj.gamma_tilde == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert adj.C1 == pytest.approx(1.0 / 6.0, abs=1e-10)
    assert adj.C2 == pytest.approx(1.0 / 2.0, abs=1e-10)
    assert adj.C2_hat == pytest.approx(1.0 / 3.0, abs=1e-10)
    # memoryless overshoot makes the hat constant collapse to p2/p1
    assert adj.C2_hat == pytest.approx(CPE.p2 / CPE.p1, abs=1e-10)


def test_adjustment_constants_brownian():
    adj = adjustment(BM)
    assert adj.gamma1 == pytest.approx(6.0, abs=1e-10)
    assert adj.gamma2 == pytest.approx(2.0, abs=1e-10)
    assert adj.gamma3 == pytest.approx(4.0, abs=1e-10)
    assert adj.C1 == 1.0
    assert adj.C2 == 1.0
    assert adj.C2_hat == pytest.approx(1.0, abs=1e-10)


def test_line_adjustment_closed_form():
    for p in (1.0, 2.0, 3.0, 7.5):
        gamma, C = line_adjustment(LineModel(CompoundPoissonExp(1.0, 2.0), p))
        assert gamma == pytest.approx(2.0 - 1.0 / p, abs=1e-12)
        assert C == pytest.approx(1.0 / (2.0 * p), abs=1e-12)
        # the root really solves the Lundberg equation
        assert LineModel(CompoundPoissonExp(1.0, 2.0), p).kappa(-gamma) == pytest.approx(0.0, abs=1e-12)


def test_line_adjustment_requires_net_profit():
    with pytest.raises(NoAdjustment):
        line_adjustment(LineModel(CompoundPoissonExp(4.0, 2.0), 1.0))


@given(st.floats(0.6, 5.0), st.floats(0.2, 4.0), st.floats(0.05, 3.0))
@settings(max_examples=40, deadline=None)
def test_adjustment_ordering_random_cpe(p2, lam, extra):
    mu = (lam + extra) / p2 + 0.1  # keeps net profit on the slow line
    model2 = TwoLineModel(CompoundPoissonExp(lam, mu), p2 + 1.0 + extra, p2)
    adj = adjustment(model2)
    assert 0.0 < adj.gamma2 < adj.gamma1
    assert adj.gamma2 <= adj.gamma3 <= adj.gamma1 + 1e-12
    assert adj.gamma_tilde == pytest.approx(adj.gamma3 - adj.gamma2, abs=1e-12)
    assert 0.0 < adj.C2 <= 1.0


# --- exponential tilting -----------------------------------------------------

@given(st.floats(-1.5, 3.0), st.floats(-1.4, 3.0))
@settings(max_examples=60, deadline=None)
def test_tilt_cumulant_identity_cpe(c, theta):
    line = CPE.line1
    tilted = tilt(line, c)
    if theta + c <= -2.0 or theta <= -(2.0 + c):
        return
    assert tilted.kappa(theta) == pytest.approx(
        line.kappa(theta + c) - line.kappa(c), rel=1e-12, abs=1e-12)


def test_tilt_brownian_shifts_drift():
    t = tilt(LineModel(StandardBrownian(), 1.0), -3.0)
    assert isinstance(t.driver, StandardBrownian)
    assert t.p == -2.0


def test_tilt_out_of_domain():
    with pytest.raises(OutOfDomain):
        tilt(CPE.line1, -2.0)


def test_tilt_renewal_unsupported():
    line = LineModel(Renewal(deterministic_dist(1.0), exponential_dist(2.0)), 3.0)
    with pytest.raises(UnsupportedDriver):
        tilt(line, -1.0)


# --- saddle points -----------------------------------------------------------

@pytest.mark.parametrize("line,v", [
    (CPE.line1, 1.0), (CPE.line1, 3.0), (CPE.line2, 0.7),
    (BM.line1, 2.0), (BM.line2, 4.0),
])
def test_saddle_defining_equations(line, v):
    s = saddle(line, v)
    assert line.kappa_prime(s.theta_v) == pytest.approx(-v, rel=1e-9, abs=1e-9)
    assert s.kstar == pytest.approx(-v * s.theta_v - line.kappa(s.theta_v),
                                    rel=1e-9, abs=1e-9)
    assert s.theta_conj >= s.theta_v
    assert line.kappa(s.theta_conj) == pytest.approx(line.kappa(s.theta_v),
                                                     rel=1e-8, abs=1e-9)
    assert s.kpp > 0.0


def test_brownian_saddle_closed_form():
    s = saddle(BM.line2, 4.0)  # kappa' = theta + 1 = -4
    assert s.theta_v == pytest.approx(-5.0, abs=1e-10)
    assert s.theta_conj == pytest.approx(3.0, abs=1e-8)
    assert s.kstar == pytest.approx(12.5, rel=1e-10)


# --- scaling of the proportional-split form ---------------------------------

def test_scale_to_canonical():
    (x1, x2), (p1, p2) = scale_to_canonical(1.0, 3.0, 2.0, 0.5, 0.5, 0.5)
    assert (x1, x2) == (2.0, 6.0)
    assert (p1, p2) == (4.0, 1.0)


def test_scale_to_canonical_bad_proportions():
    with pytest.raises(InvalidProportions):
        scale_to_canonical(1.0, 1.0, 1.0, 1.0, 0.7, 0.2)
    with pytest.raises(InvalidProportions):
        scale_to_canonical(1.0, 1.0, 1.0, 1.0, -0.2, 1.2)


# --- renewal adjustment ------------------------------------------------------

def test_renewal_adjustment_frozen_values():
    drv = Renewal(deterministic_dist(1.0), exponential_dist(2.0))
    g1 = renewal_adjustment(drv, 3.0)
    g2 = renewal_adjustment(drv, 1.0)
    assert g1 == pytest.approx(1.9949670754675315, abs=1e-11)
    assert g2 == pytest.approx(1.59362426004004, abs=1e-11)
    # the roots satisfy E exp(-g (p z - s)) = 1 for det(1) interarrivals
    for p, g in ((3.0, g1), (1.0, g2)):
        assert math.exp(-g * p) * 2.0 / (2.0 - g) == pytest.approx(1.0, abs=1e-10)


def test_renewal_adjustment_matches_poisson_special_case():
    drv = Renewal(exponential_dist(1.0), exponential_dist(2.0))
    assert renewal_adjustment(drv, 3.0) == pytest.approx(5.0 / 3.0, abs=1e-10)
    assert renewal_adjustment(drv, 1.0) == pytest.approx(1.0, abs=1e-10)


def test_renewal_adjustment_requires_net_profit():
    drv = Renewal(deterministic_dist(1.0), exponential_dist(2.0))
    with pytest.raises(NoAdjustment):
        renewal_adjustment(drv, 0.4)


# --- distribution specs ------------------------------------------------------

def test_exponential_dist_spec():
    d = exponential_dist(2.0)
    assert d.mean == 0.5
    assert d.mgf(1.0) == pytest.approx(2.0, abs=1e-15)
    assert d.mgf_sup == 2.0
    t = d.tilted(1.5)
    assert t.mean == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(OutOfDomain):
        d.tilted(2.0)
    rng = np.random.default_rng(0)
    xs = d.sample(rng, 50_000)
    assert xs.mean() == pytest.approx(0.5, rel=0.02)


def test_deterministic_dist_spec():
    d = deterministic_dist(1.5)
    assert d.mean == 1.5
    assert d.mgf(0.7) == pytest.approx(math.exp(1.05), rel=1e-14)
    assert math.isinf(d.mgf_sup)
    assert d.tilted(3.0).mean == 1.5  # point mass is tilt invariant
    rng = np.random.default_rng(0)
    assert set(d.sample(rng, 10).tolist()) == {1.5}


def test_a_bar_unbounded_drivers():
    # both concrete Levy drivers allow the full open slope range (0, 1)
    assert CPE.a_bar == 1.0
    assert BM.a_bar == 1.0
