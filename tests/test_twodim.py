import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ruin2d.cones import ConeLabel, partition
from ruin2d.errors import (
    BoundaryRay,
    BoundaryVelocity,
    ConfigError,
    InternalInconsistency,
    OutOfRange,
    Ruin2dError,
    UnsupportedDriver,
)
from ruin2d.finite_time import ultimate_ruin
from ruin2d.models import (
    CompoundPoissonExp,
    Renewal,
    StandardBrownian,
    TwoLineModel,
    adjustment,
    deterministic_dist,
    exponential_dist,
)
from ruin2d.twodim import (
    ExpansionTerms,
    RuinEstimate,
    RuinQuery,
    _psi_star,
    exact,
    leading,
    renewal_exponents,
    two_term_and,
    two_term_or,
    two_term_sim,
)

CPE = TwoLineModel(CompoundPoissonExp(1.0, 2.0), 3.0, 1.0)
BM = TwoLineModel(StandardBrownian(), 3.0, 1.0)
CPE_D2 = TwoLineModel(CompoundPoissonExp(1.0, 2.0), 1.5, 1.0)
BM_D2 = TwoLineModel(StandardBrownian(), 1.8, 1.0)
RENEWAL = Renewal(deterministic_dist(1.0), exponential_dist(2.0))


def _psi(model2, event, x1, x2):
    return exact(model2, RuinQuery(event, x1, x2))


def cpe_models(draw):
    lam = draw(st.floats(0.3, 3.0))
    mu = draw(st.floats(0.5, 4.0))
    p2 = lam / mu * (1.0 + draw(st.floats(0.15, 2.0)))
    p1 = p2 * (1.0 + draw(st.floats(0.1, 3.0)))
    return TwoLineModel(CompoundPoissonExp(lam, mu), p1, p2)


def bm_models(draw):
    p2 = draw(st.floats(0.2, 3.0))
    return TwoLineModel(StandardBrownian(), p2 * (1.0 + draw(st.floats(0.1, 3.0))), p2)


any_model = st.one_of(st.composite(cpe_models)(), st.composite(bm_models)())


# --- query validation --------------------------------------------------------

def test_query_validation():
    with pytest.raises(OutOfRange):
        RuinQuery("XOR", 1.0, 2.0)
    with pytest.raises(OutOfRange):
        RuinQuery("OR", -1.0, 2.0)
    with pytest.raises(OutOfRange):
        RuinQuery("OR", 1.0, math.inf)


def test_estimate_probability_guard():
    with pytest.raises(InternalInconsistency):
        RuinEstimate(value=1.5, method="exact", cone=None)


def test_expansion_terms_guards():
    with pytest.raises(InternalInconsistency):
        ExpansionTerms(term1=-0.1, term2=0.0, constants={}, cone=ConeLabel.D0,
                       velocity=2.0)
    with pytest.raises(InternalInconsistency):
        ExpansionTerms(term1=0.9, term2=0.9, constants={}, cone=ConeLabel.D0,
                       velocity=2.0)


# --- exact values ------------------------------------------------------------

def test_exact_reference_values():
    assert _psi(CPE, "OR", 1.0, 3.0).value == pytest.approx(
        0.048051495658607446, abs=1e-12)
    assert _psi(CPE, "SIM", 1.0, 3.0).value == pytest.approx(
        0.005813308389434474, abs=1e-12)
    assert _psi(CPE, "AND", 1.0, 3.0).value == pytest.approx(
        0.008321305664918162, abs=1e-12)
    assert _psi(BM, "OR", 1.0, 3.0).value == pytest.approx(
        0.004708660403042589, abs=1e-12)
    assert _psi(BM, "SIM", 1.0, 3.0).value == pytest.approx(
        0.00012797634156342942, abs=1e-12)
    assert _psi(BM, "AND", 1.0, 4.0).value == pytest.approx(
        3.8547932490518445e-05, abs=1e-14)


def test_exact_cone_labels():
    assert _psi(CPE, "OR", 1.0, 3.0).cone is ConeLabel.D0
    assert _psi(CPE, "AND", 1.0, 3.0).cone is ConeLabel.D2_HAT
    # a = 1/3 sits exactly on the joint-partition boundary of this model;
    # the exact value is still well defined there
    assert _psi(BM, "AND", 1.0, 3.0).cone is ConeLabel.BOUNDARY_RAY


def test_exact_line_events():
    assert _psi(CPE, "LINE1", 1.0, 3.0).value == pytest.approx(
        ultimate_ruin(CPE.line1, 1.0), abs=1e-14)
    assert _psi(CPE, "LINE2", 1.0, 3.0).value == pytest.approx(
        ultimate_ruin(CPE.line2, 3.0), abs=1e-14)


def test_exact_lower_cone():
    assert _psi(CPE, "OR", 3.0, 1.0).value == pytest.approx(
        ultimate_ruin(CPE.line2, 1.0), abs=1e-14)
    assert _psi(CPE, "SIM", 3.0, 1.0).value == pytest.approx(
        ultimate_ruin(CPE.line1, 3.0), abs=1e-14)
    assert _psi(CPE, "AND", 3.0, 1.0).value == pytest.approx(
        ultimate_ruin(CPE.line1, 3.0), abs=1e-14)
    assert _psi(CPE, "OR", 3.0, 1.0).cone is ConeLabel.LOWER_CONE
    # the diagonal belongs to the lower cone: the barriers only spread
    assert _psi(CPE, "OR", 2.0, 2.0).value == pytest.approx(
        ultimate_ruin(CPE.line2, 2.0), abs=1e-14)


def test_exact_zero_first_reserve():
    r = _psi(CPE, "OR", 0.0, 2.0)
    assert 0.0 < r.value < 1.0
    assert r.value == pytest.approx(two_term_or(CPE, 0.0, 2.0).total, rel=1e-10)


def test_exact_brownian_grid_dual_route():
    # every Brownian call recomputes the value from the reflection closed
    # forms and raises if the routes drift beyond 1e-8
    for i in range(5):
        for j in range(5):
            x1 = 0.25 + 0.55 * i
            x2 = x1 + 0.4 + 0.7 * j
            for ev in ("OR", "SIM", "AND"):
                r = _psi(BM, ev, x1, x2)
                assert abs(r.diagnostics["closed_form_delta"]) < 1e-8


def test_exact_refuses_renewal():
    with pytest.raises(UnsupportedDriver):
        _psi(TwoLineModel(RENEWAL, 3.0, 1.0), "OR", 1.0, 3.0)


def test_exact_refuses_sector_boundary_models():
    # mu p2^2 == lam p1 closes the slow-line sector exactly; the OR and
    # AND assemblies then need a zero-drift tilted line, which the
    # spectral integral declines rather than approximates
    boundary = TwoLineModel(CompoundPoissonExp(1.0, 1.0), 4.0, 2.0)
    with pytest.raises(BoundaryVelocity, match="zero safety loading"):
        _psi(boundary, "OR", 1.0, 3.0)
    # the SIM assembly tilts the other line and stays regular
    assert 0.0 < _psi(boundary, "SIM", 1.0, 3.0).value < 1.0


@given(any_model, st.floats(0.2, 0.9), st.floats(1.0, 6.0))
@settings(max_examples=40, deadline=None)
def test_complementarity_and_sandwich(model2, a, x2):
    # on the exact closing slope of the slow-line sector the -gamma_2
    # tilt lands on zero safety loading and the exact method refuses;
    # stay off that measure-zero boundary here
    adj = adjustment(model2)
    assume(abs(model2.line1.kappa_prime(-adj.gamma2)) > 1e-6 * model2.p1)
    x1 = a * x2
    psi1 = ultimate_ruin(model2.line1, x1)
    psi2 = ultimate_ruin(model2.line2, x2)
    r_or = _psi(model2, "OR", x1, x2)
    r_sim = _psi(model2, "SIM", x1, x2)
    r_and = _psi(model2, "AND", x1, x2)
    slack = 2.0 * (r_or.diagnostics["quad_err"] + r_and.diagnostics["quad_err"]) + 1e-11
    assert r_and.value == pytest.approx(psi1 + psi2 - r_or.value, abs=slack)
    assert max(psi1, psi2) - slack <= r_or.value <= psi1 + psi2 + slack
    assert r_sim.value <= r_and.value + slack
    assert r_and.value <= min(psi1, psi2) + slack


def test_exact_monotone_in_reserves():
    vals = [_psi(CPE, "OR", x1, 3.0).value for x1 in (0.5, 1.0, 1.5, 2.0)]
    assert all(u > v for u, v in zip(vals, vals[1:]))
    vals = [_psi(CPE, "SIM", 1.0, x2).value for x2 in (2.0, 3.0, 4.0, 5.0)]
    assert all(u > v for u, v in zip(vals, vals[1:]))


# --- two-term expansions -----------------------------------------------------

def test_two_term_exact_for_memoryless_drivers():
    # with no overshoot correction left over, the expansion is not just
    # asymptotic, it reproduces the exact value
    for m in (CPE, BM, CPE_D2, BM_D2):
        for x1, x2 in ((1.0, 4.0), (2.0, 5.0)):
            assert two_term_or(m, x1, x2).total == pytest.approx(
                _psi(m, "OR", x1, x2).value, rel=1e-10)
            assert two_term_sim(m, x1, x2).total == pytest.approx(
                _psi(m, "SIM", x1, x2).value, rel=1e-10)


GRID_MODELS = {
    **{f"cpe-{p1}-{p2}": TwoLineModel(CompoundPoissonExp(1.0, 2.0), p1, p2)
       for p1, p2 in ((3.0, 1.0), (2.0, 1.0), (3.0, 2.0), (5.0, 1.0))},
    **{f"bm-{p1}-{p2}": TwoLineModel(StandardBrownian(), p1, p2)
       for p1, p2 in ((3.0, 1.0), (2.0, 1.0), (3.0, 2.0))},
}


def _refused_or_value(call):
    try:
        return call()
    except Ruin2dError as exc:
        return type(exc)


@pytest.mark.parametrize("name", sorted(GRID_MODELS))
def test_two_term_or_sim_total_is_exact_bit_for_bit(name):
    # C-tilde_j(v) = C_j for both Levy drivers, so the two-term OR/SIM
    # total is the exact assembly itself: same float, same refusals, also
    # at the velocities -kappa_2'(-gamma_j) where C-tilde_j(v) branches
    model2 = GRID_MODELS[name]
    answered = 0
    for i in range(40):
        for K in (1.0, 5.0, 20.0, 40.0):
            x1, x2 = i / 40 * K, K
            for event, fn in (("OR", two_term_or), ("SIM", two_term_sim)):
                want = _refused_or_value(lambda: _psi(model2, event, x1, x2).value)
                got = _refused_or_value(lambda: fn(model2, x1, x2).total)
                assert got == want, (event, x1, x2)
                answered += isinstance(want, float)
    assert answered >= 160


@pytest.mark.parametrize("model2, x1, x2", [
    (CPE_D2, 1.0, 4.0),   # v below -kappa_2'(-gamma_j): C-tilde_j from the transform of psi_j
    (CPE, 15.0, 17.0),    # the crossing velocity v = 17 on -kappa_2'(-gamma_1)
    (BM, 0.6, 1.0),       # the crossing velocity v = 5 on -kappa_2'(-gamma_1)
], ids=["cpe-d2-1-4", "cpe-15-17", "bm-0.6-1"])
def test_two_term_or_sim_exact_where_c_tilde_branches(model2, x1, x2):
    assert two_term_or(model2, x1, x2).total == _psi(model2, "OR", x1, x2).value
    assert two_term_sim(model2, x1, x2).total == _psi(model2, "SIM", x1, x2).value
    assert two_term_or(model2, x1, x2).constants == {"C2_tilde": adjustment(model2).C2}


def test_two_term_and_small_velocity_exact():
    for m, x1, x2 in ((CPE, 1.0, 3.0), (CPE_D2, 1.0, 4.0), (BM, 1.0, 4.0)):
        tt = two_term_and(m, x1, x2)
        assert tt.constants["branch"] == "small_v"
        assert tt.total == pytest.approx(_psi(m, "AND", x1, x2).value, rel=1e-10)


def test_two_term_and_large_velocity_converges():
    ratios = []
    for k in (12.0, 24.0, 48.0):
        tt = two_term_and(CPE, 0.6 * k, k)
        assert tt.constants["branch"] == "large_v"
        ratios.append(tt.total / _psi(CPE, "AND", 0.6 * k, k).value)
    assert ratios[0] > ratios[1] > ratios[2] > 1.0
    assert ratios[2] < 1.05


def test_two_term_guards():
    with pytest.raises(OutOfRange):
        two_term_or(CPE, 3.0, 1.0)
    with pytest.raises(OutOfRange):
        two_term_sim(CPE, 2.0, 2.0)
    with pytest.raises(UnsupportedDriver):
        two_term_or(TwoLineModel(RENEWAL, 3.0, 1.0), 1.0, 3.0)
    # a = 15/17 puts the crossing velocity on a branch point of C-tilde,
    # which is C_2 there as everywhere
    assert two_term_or(CPE, 15.0, 17.0).total == _psi(CPE, "OR", 15.0, 17.0).value
    for fn in (two_term_or, two_term_sim, two_term_and):
        with pytest.raises(OutOfRange, match="nonnegative"):
            fn(CPE, -1.0, 3.0)


@pytest.mark.parametrize("line", [CPE.line1, CPE.line2, BM.line1, BM.line2],
                         ids=["cpe-p3", "cpe-p1", "bm-p3", "bm-p1"])
def test_psi_star_near_the_adjustment_root(line):
    # kappa in factored form keeps its relative accuracy at theta = -gamma + h,
    # where theta + gamma is exact (Sterbenz); the direct kappa(theta) there
    # is off by 1e-10 to 1e-7
    p, g = line.p, line.driver.gamma(line.p)
    for h in (1e-7, -1e-7, 1e-9, -1e-9):
        theta = -g + h
        if isinstance(line.driver, StandardBrownian):
            k = theta * (theta + 2.0 * p) / 2.0
        else:
            k = p * theta * (theta + g) / (line.driver.mu + theta)
        want = 1.0 / theta - line.kappa_prime(0.0) / k
        assert abs(_psi_star(line, theta) - want) <= 1e-12 * abs(want), h


# --- leading-order asymptotics -----------------------------------------------

def test_leading_or_two_exponential_law():
    adj = adjustment(CPE)
    want = adj.C1 * math.exp(-adj.gamma1 * 1.0) + adj.C2 * math.exp(-adj.gamma2 * 3.0)
    assert leading(CPE, 1.0, 3.0, "OR").value == pytest.approx(want, rel=1e-12)


def test_leading_line_events():
    assert leading(CPE, 2.0, 3.0, "LINE1").value == pytest.approx(
        (1.0 / 6.0) * math.exp(-10.0 / 3.0), rel=1e-10)
    assert leading(CPE, 2.0, 3.0, "LINE2").value == pytest.approx(
        0.5 * math.exp(-3.0), rel=1e-10)


def test_leading_outer_cones():
    r = leading(CPE, 9.5, 10.0, "SIM")
    assert r.cone is ConeLabel.D1
    assert r.value == pytest.approx((1.0 / 6.0) * math.exp(-5.0 / 3.0 * 9.5), rel=1e-12)
    assert leading(CPE, 9.5, 10.0, "AND").value == r.value

    r = leading(CPE, 3.0, 10.0, "AND")
    assert r.cone is ConeLabel.D2_HAT
    assert r.diagnostics["rate_per_x2"] == pytest.approx(1.1, abs=1e-10)
    assert r.value == pytest.approx((1.0 / 3.0) * math.exp(-11.0), rel=1e-9)


@pytest.mark.parametrize("model2", [
    TwoLineModel(CompoundPoissonExp(1.0, 2.0), 3.0, 1.5),
    TwoLineModel(StandardBrownian(), 3.0, 2.0),
], ids=["cpe", "bm"])
def test_leading_d2_cone(model2):
    # both premium pairs bound a nonempty D2 by s2 = 0.5 (the reference
    # models' is empty), so the ray a = 0.25 lies in it, where SIM decays
    # like line 2's ruin alone
    cones = partition(model2)
    assert not cones.d2_empty and cones.s2 == pytest.approx(0.5, abs=1e-12)
    adj = adjustment(model2)
    ratios = []
    for k in (5.0, 10.0, 20.0, 40.0):
        r = leading(model2, 0.25 * k, k, "SIM")
        assert r.cone is ConeLabel.D2
        assert r.value == adj.C2 * math.exp(-adj.gamma2 * k)
        ratios.append(exact(model2, RuinQuery("SIM", 0.25 * k, k)).value / r.value)
    assert all(a < b < 1.0 for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > 0.9


def test_leading_middle_cone_brownian_constants():
    # at velocity w = 4 the saddle pair is (-5, 3) for the fast line and
    # (-5, -1) for the slow one, giving the elementary constants below
    r = leading(BM, 5.0, 10.0, "SIM")
    scale = math.sqrt(2.0 / math.pi)
    assert r.diagnostics["D_prime"] == pytest.approx(8.0 / 15.0 * scale, abs=1e-12)
    assert r.diagnostics["D_sharp"] == pytest.approx(8.0 / 9.0 * scale, abs=1e-12)
    assert r.diagnostics["gamma_ray"] == pytest.approx(3.125, abs=1e-12)
    want = (r.diagnostics["D_prime"] + r.diagnostics["D_sharp"]) * \
        math.exp(-3.125 * 10.0) / math.sqrt(10.0)
    assert r.value == pytest.approx(want, rel=1e-12)


def test_leading_tracks_exact_along_middle_ray():
    ratios = []
    for k in (10.0, 40.0):
        ld = leading(BM, 0.5 * k, k, "SIM").value
        ex = _psi(BM, "SIM", 0.5 * k, k).value
        ratios.append(ld / ex)
    assert abs(ratios[1] - 1.0) < 0.1
    assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)


def test_leading_refuses_boundary_rays():
    with pytest.raises(BoundaryRay, match="cone boundary"):
        leading(CPE, 15.0, 17.0, "SIM")
    with pytest.raises(BoundaryRay):
        leading(BM, 1.0, 3.0, "AND")


def test_leading_guards():
    with pytest.raises(OutOfRange):
        leading(CPE, 0.0, 3.0, "SIM")
    with pytest.raises(UnsupportedDriver):
        leading(TwoLineModel(RENEWAL, 3.0, 1.0), 1.0, 3.0, "OR")


# --- renewal exponents -------------------------------------------------------

def test_renewal_exponents_frozen():
    g1, g2, rate = renewal_exponents(RENEWAL, 3.0, 1.0, 0.5)
    assert g1 == pytest.approx(1.9949670754675315, abs=1e-11)
    assert g2 == pytest.approx(1.59362426004004, abs=1e-11)
    assert rate == pytest.approx(0.5 * g1, rel=1e-12)
    # a steep ray flips the binding constraint to the slow line
    assert renewal_exponents(RENEWAL, 3.0, 1.0, 0.9)[2] == pytest.approx(g2, rel=1e-12)


def test_renewal_exponents_poisson_special_case():
    drv = Renewal(exponential_dist(1.0), exponential_dist(2.0))
    g1, g2, _ = renewal_exponents(drv, 3.0, 1.0, 0.5)
    assert g1 == pytest.approx(5.0 / 3.0, abs=1e-10)
    assert g2 == pytest.approx(1.0, abs=1e-10)


def test_renewal_exponents_guards():
    with pytest.raises(ConfigError):
        renewal_exponents(RENEWAL, 1.0, 3.0, 0.5)
    with pytest.raises(OutOfRange):
        renewal_exponents(RENEWAL, 3.0, 1.0, 0.0)
