import math

import numpy as np
import pytest

from ruin2d.errors import BoundaryVelocity, OutOfRange, UnsupportedDriver
from ruin2d.finite_time import finite_ruin, limit_law, ruin_after, ultimate_ruin
from ruin2d.models import (
    CompoundPoissonExp,
    LineModel,
    Renewal,
    StandardBrownian,
    TwoLineModel,
    deterministic_dist,
    exponential_dist,
    line_adjustment,
    saddle,
    tilt,
)
from ruin2d.numerics import integrate

CPE1 = LineModel(CompoundPoissonExp(1.0, 2.0), 1.0)
BM1 = LineModel(StandardBrownian(), 1.0)


def _ig_first_passage(x: float, p: float, t: float) -> float:
    """Integral of the level-x first-passage density of drifted Brownian
    motion; an oracle independent of the reflection formula."""
    def dens(s):
        return x / np.sqrt(2.0 * np.pi * s ** 3) * np.exp(-(x + p * s) ** 2 / (2.0 * s))
    val, _ = integrate(dens, 1e-12, t, tol=1e-13)
    return val


def _hoglund(line: LineModel, x: float, t: float) -> tuple[float, float]:
    """Hoglund's large-time law (1990, Ann. Probab. 18) of (psi(x, t),
    w(x, t)) at v = x/t: below the critical velocity -kappa'(-gamma), psi
    follows the Cramer branch C e^{-gamma x} and w the saddle-point branch
    |D(v)| e^{-t kappa*(-v)} / sqrt(2 pi kappa''(theta_v) t); above it the
    two swap.  An oracle for the exact rows, built from public solves."""
    gamma, c = line_adjustment(line)
    sd = saddle(line, x / t)
    d_v = (sd.theta_conj - sd.theta_v) / (sd.theta_v * sd.theta_conj)
    local = abs(d_v) / math.sqrt(2.0 * math.pi * sd.kpp * t) * math.exp(-t * sd.kstar)
    cramer = c * math.exp(-gamma * x)
    return (cramer, local) if x / t < -line.kappa_prime(-gamma) else (local, cramer)


# --- ultimate ruin -----------------------------------------------------------

def test_ultimate_ruin_closed_forms():
    assert ultimate_ruin(CPE1, 2.0) == pytest.approx(0.5 * math.exp(-2.0), abs=1e-12)
    assert ultimate_ruin(BM1, 2.0) == pytest.approx(math.exp(-4.0), abs=1e-12)
    # no net profit: certain ruin
    assert ultimate_ruin(LineModel(CompoundPoissonExp(4.0, 2.0), 1.0), 3.0) == 1.0


def test_ultimate_ruin_guards():
    with pytest.raises(OutOfRange):
        ultimate_ruin(CPE1, -0.5)
    rw = LineModel(Renewal(deterministic_dist(1.0), exponential_dist(2.0)), 3.0)
    with pytest.raises(UnsupportedDriver):
        ultimate_ruin(rw, 1.0)


# --- exact finite-time values ------------------------------------------------

@pytest.mark.parametrize("x,p,t", [
    (1.0, 1.0, 2.0), (0.5, 2.0, 1.0), (2.0, -0.5, 3.0), (3.0, 0.0, 4.0),
])
def test_brownian_finite_matches_first_passage_density(x, p, t):
    line = LineModel(StandardBrownian(), p)
    assert finite_ruin(line, x, t).value == pytest.approx(
        _ig_first_passage(x, p, t), abs=1e-11)


def test_brownian_deferred_completes_ultimate():
    for x, p, t in [(1.0, 1.0, 2.0), (0.5, 2.0, 1.0), (2.0, 0.3, 8.0)]:
        line = LineModel(StandardBrownian(), p)
        total = finite_ruin(line, x, t).value + ruin_after(line, x, t).value
        assert total == pytest.approx(ultimate_ruin(line, x), abs=1e-13)


def test_cpe_small_time_single_claim():
    # By t = 1e-3 ruin is (almost) only possible through one oversized
    # claim; the two-claim correction is below (lam*t)^2 / 2 = 5e-7.
    t = 1e-3
    one_claim = math.exp(-2.0) * (1.0 - math.exp(-3.0 * t)) / 3.0
    got = finite_ruin(CPE1, 1.0, t)
    assert got.value == pytest.approx(one_claim, abs=6e-7)
    assert got.quad_err < 1e-10


def test_cpe_long_time_reaches_ultimate():
    assert finite_ruin(CPE1, 1.0, 200.0).value == pytest.approx(
        ultimate_ruin(CPE1, 1.0), abs=1e-12)
    assert ruin_after(CPE1, 1.0, 200.0).value == pytest.approx(0.0, abs=1e-12)


def test_cpe_finite_regression_values():
    # pinned values; independently corroborated against simulation in the
    # acceptance suite and against the small-t / large-t limits above
    assert finite_ruin(CPE1, 1.0, 2.0).value == pytest.approx(
        0.1259283586865379, abs=1e-11)
    assert finite_ruin(CPE1, 5.0, 5.0).value == pytest.approx(
        0.0017707382994118083, abs=1e-11)
    assert ruin_after(CPE1, 2.0, 10.0).value == pytest.approx(
        0.0029334796747816955, abs=1e-11)


def test_cpe_monotone_in_time_and_reserve():
    ts = [0.5, 1.0, 2.0, 4.0, 8.0]
    vals = [finite_ruin(CPE1, 1.0, t).value for t in ts]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    xs = [0.5, 1.0, 2.0, 4.0]
    vals = [finite_ruin(CPE1, x, 3.0).value for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_cpe_no_profit_still_exact():
    # drift < 0: psi(x, t) -> 1 and the deferred mass is the survivor
    line = LineModel(CompoundPoissonExp(4.0, 2.0), 1.0)
    r = finite_ruin(line, 1.0, 50.0)
    assert r.value == pytest.approx(1.0, abs=1e-5)
    assert finite_ruin(line, 1.0, 2.0).value < r.value


def test_finite_ruin_guards():
    with pytest.raises(OutOfRange):
        finite_ruin(CPE1, -1.0, 1.0)
    with pytest.raises(OutOfRange):
        finite_ruin(CPE1, 1.0, 0.0)
    rw = LineModel(Renewal(deterministic_dist(1.0), exponential_dist(2.0)), 3.0)
    with pytest.raises(UnsupportedDriver):
        finite_ruin(rw, 1.0, 1.0)
    with pytest.raises(BoundaryVelocity):
        # zero safety loading: spectral band touches the origin
        finite_ruin(LineModel(CompoundPoissonExp(2.0, 2.0), 1.0), 1.0, 1.0)


def test_finite_ruin_refuses_a_two_line_model():
    with pytest.raises(UnsupportedDriver, match="^expected a line model, got TwoLineModel$"):
        finite_ruin(TwoLineModel(CompoundPoissonExp(1.0, 2.0), 3.0, 1.0), 1.0, 1.0)


def test_finite_ruin_unwraps_tilted_models():
    t = tilt(LineModel(StandardBrownian(), 3.0), -2.0)
    direct = finite_ruin(BM1, 1.5, 2.0).value
    assert finite_ruin(t, 1.5, 2.0).value == direct


@pytest.mark.parametrize("driver", [CompoundPoissonExp(1.0, 2.0), StandardBrownian()])
@pytest.mark.parametrize("c", [-0.5, -0.25])
def test_tilted_line_is_a_line_model(driver, c):
    line = LineModel(driver, 3.0)
    tilted = tilt(line, c)
    plain = LineModel(*driver.tilted(line.p, c))
    assert tilted == plain
    assert tilted.drift > 0.0
    # the solve caches key on the line, so both spellings share one entry
    assert saddle(tilted, 1.0) is saddle(plain, 1.0)
    assert line_adjustment(tilted) is line_adjustment(plain)
    for x, t in ((0.5, 0.3), (2.0, 1.5), (4.0, 6.0)):
        assert finite_ruin(tilted, x, t) == finite_ruin(plain, x, t)
        assert ruin_after(tilted, x, t) == ruin_after(plain, x, t)
        assert ultimate_ruin(tilted, x) == ultimate_ruin(plain, x)


# --- large-time law, as an oracle --------------------------------------------

def test_critical_velocity_both_drivers():
    # -kappa'(-gamma): 1.0 for both reference lines
    for line in (CPE1, BM1):
        assert -line.kappa_prime(-line_adjustment(line)[0]) == pytest.approx(1.0, abs=1e-10)


def test_cramer_branch_is_lundberg_tail():
    assert line_adjustment(CPE1) == pytest.approx((1.0, 0.5), abs=1e-10)
    assert _hoglund(CPE1, 16.0, 40.0)[0] == pytest.approx(0.5 * math.exp(-16.0), rel=1e-10)


def test_cramer_regime_converges_to_exact():
    ratios = []
    for t in (20.0, 50.0, 100.0):
        x = 0.4 * t
        ratios.append(_hoglund(CPE1, x, t)[0] / finite_ruin(CPE1, x, t).value)
    assert abs(ratios[-1] - 1.0) < 0.01
    assert abs(ratios[0] - 1.0) > abs(ratios[-1] - 1.0)


def test_saddle_regime_converges_to_exact():
    ratios = []
    for t in (15.0, 30.0, 60.0):
        x = 2.0 * t
        ratios.append(_hoglund(BM1, x, t)[0] / finite_ruin(BM1, x, t).value)
    assert abs(ratios[1] - 1.0) < 0.05
    assert ratios[0] > ratios[1] > ratios[2] > 1.0


def test_deferred_branch_tracks_exact_tail():
    # w(x, t) follows the saddle branch in the Cramer regime; convergence
    # is the slow t^{-1/2} kind, so only the trend and a loose band hold
    ratios = []
    for t in (20.0, 40.0, 80.0):
        x = 0.5 * t
        ratios.append(_hoglund(CPE1, x, t)[1] / ruin_after(CPE1, x, t).value)
    assert ratios[0] > ratios[1] > ratios[2] > 1.0
    assert ratios[2] < 1.3


# --- conditional limit laws --------------------------------------------------

def test_survival_law_brownian_closed_form():
    law = limit_law(LineModel(StandardBrownian(), -1.0), 0.5, "survival")
    assert law.theta_v == pytest.approx(0.5, abs=1e-10)
    assert law.theta_conj == pytest.approx(1.5, abs=1e-8)
    assert law.cdf(0.0) == 0.0
    mass, _ = integrate(lambda y: np.vectorize(law.pdf)(y), 0.0, 60.0, tol=1e-12)
    assert mass == pytest.approx(1.0, abs=1e-9)
    part, _ = integrate(lambda y: np.vectorize(law.pdf)(y), 0.0, 2.0, tol=1e-12)
    assert law.cdf(2.0) == pytest.approx(part, abs=1e-10)


def test_ruin_law_brownian_two_sided():
    law = limit_law(BM1, 2.0, "ruin")
    assert law.theta_v == pytest.approx(-3.0, abs=1e-9)
    assert law.theta_conj == pytest.approx(1.0, abs=1e-8)
    assert law.cdf(0.0) == pytest.approx(0.25, abs=1e-9)
    lo, _ = integrate(lambda y: np.vectorize(law.pdf)(y), -30.0, 0.0, tol=1e-12)
    hi, _ = integrate(lambda y: np.vectorize(law.pdf)(y), 0.0, 60.0, tol=1e-12)
    assert lo + hi == pytest.approx(1.0, abs=1e-9)
    assert law.cdf(-40.0) == pytest.approx(0.0, abs=1e-12)
    assert law.cdf(60.0) == pytest.approx(1.0, abs=1e-12)


def test_survival_law_cpe_normalized():
    line = LineModel(CompoundPoissonExp(3.0, 2.0), 1.0)  # drift -1/2
    law = limit_law(line, 0.3, "survival")
    assert 0.0 < law.theta_v < law.theta_conj
    mass, _ = integrate(lambda y: np.vectorize(law.pdf)(y), 0.0, 400.0, tol=1e-12)
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_limit_law_refusals():
    with pytest.raises(OutOfRange):
        limit_law(BM1, 0.5, "ruin")  # conjugate root negative
    with pytest.raises(OutOfRange):
        limit_law(BM1, 0.5, "survival")  # saddle negative under positive drift
    with pytest.raises(OutOfRange):
        limit_law(BM1, 1.0, "ruin")  # conjugate degenerates to zero
    # an unknown side is refused before the saddle point is solved
    with pytest.raises(OutOfRange, match="unknown side 'both'"):
        limit_law(BM1, 2.0, "both")
    with pytest.raises(OutOfRange, match="unknown side 'bogus'"):
        limit_law(CPE1, -1.0, "bogus")  # a velocity the saddle solve refuses
