"""Frozen reference values of the exact, asymptotic and Monte Carlo routes.

Analytic values are pinned to 1e-15 relative.  Monte Carlo estimates must
repeat bit for bit: that is the stream contract, under which path ``i``
draws from lane ``i % chunk_size`` of chunk ``i // chunk_size`` with the
Philox key ``(seed, chunk)``, whatever the worker count.  A change that
moves any number here changes the answers, not only the code.
"""

import pytest

from ruin2d.cones import partition
from ruin2d.models import (
    CompoundPoissonExp,
    Renewal,
    StandardBrownian,
    TwoLineModel,
    adjustment,
    deterministic_dist,
    exponential_dist,
    renewal_adjustment,
)
from ruin2d.montecarlo import FixedTime, SimConfig, default_safe_level, estimate
from ruin2d.twodim import RuinQuery, exact, leading, two_term_and, two_term_or, two_term_sim

MODELS = {
    "cpe": TwoLineModel(CompoundPoissonExp(1.0, 2.0), 3.0, 1.0),
    "brownian": TwoLineModel(StandardBrownian(), 3.0, 1.0),
}
RW = TwoLineModel(Renewal(deterministic_dist(1.0), exponential_dist(2.0)), 3.0, 1.0)
TWO_TERM = {"OR": two_term_or, "SIM": two_term_sim, "AND": two_term_and}

# (driver, x1, x2, event): (exact value, two-term term1, two-term term2)
EXACT_AND_TWO_TERM = {
    ("cpe", 1.0, 3.0, "OR"): (0.048051495658607446, 0.030477946675264413, 0.017573548983343033),
    ("cpe", 1.0, 3.0, "SIM"): (0.005813308389434474, 0.004341646172364287, 0.0014716622170701883),
    ("cpe", 1.0, 3.0, "AND"): (0.008321305664918162, 0.0010013204643292218, 0.007319985200588935),
    ("cpe", 2.0, 5.0, "OR"): (0.00854986629754329, 0.005864792848847591, 0.002685073448695699),
    ("cpe", 2.0, 5.0, "SIM"): (0.0004893961917194439, 0.00036749260363137326, 0.00012190358808807071),
    ("cpe", 2.0, 5.0, "AND"): (0.0007647727598748423, 8.08727090278082e-05, 0.0006839000508470338),
    ("cpe", 12.0, 40.0, "OR"): (3.4352560584239186e-10, 3.435256037394444e-10, 2.1029474616412315e-18),
    ("cpe", 12.0, 40.0, "SIM"): (4.4722193915626514e-21, 3.749579470561277e-21, 7.226399210013744e-22),
    ("cpe", 12.0, 40.0, "AND"): (2.15449179985072e-20, 3.152519939441457e-22, 2.1229666004563064e-20),
    ("brownian", 1.0, 4.0, "OR"): (0.002775666872078352, 0.00247701305411171, 0.00029865381796664197),
    ("brownian", 1.0, 4.0, "SIM"): (1.3996854466641693e-05, 1.046398509114605e-05, 3.5328693754956414e-06),
    ("brownian", 1.0, 4.0, "AND"): (3.8547932490518445e-05, 1.739122554648587e-06, 3.680880993586987e-05),
    ("brownian", 2.0, 5.0, "OR"): (5.1092281872964014e-05, 6.0732116718340134e-06, 4.501907020113e-05),
    ("brownian", 2.0, 5.0, "SIM"): (2.4953525685221736e-07, 1.5250703146652657e-07, 9.70282253856908e-08),
    ("brownian", 2.0, 5.0, "AND"): (4.518602428490497e-07, 7.100068149419928e-08, 4.0463900379356705e-07),
}

# (driver, x1, x2, event): (cone label, leading-order value) on a middle-cone ray
LEADING_MIDDLE_CONE = {
    ("cpe", 3.0, 5.0, "SIM"): ("D0", 0.00040692845914289827),
    ("cpe", 3.0, 5.0, "AND"): ("D0_hat", 0.0009882308564886043),
    ("brownian", 2.5, 5.0, "SIM"): ("D0", 8.30943011818409e-08),
    ("brownian", 2.5, 5.0, "AND"): ("D0_hat", 1.2464145177276135e-07),
}

# driver: (s1, s2, s3, d2_empty)
PARTITION = {
    "cpe": (0.8823529411764707, 0.0, 0.4285714285714289, True),
    "brownian": (0.6, 0.0, 0.3333333333333333, True),
}

# driver: (gamma1, gamma2, gamma3, gamma_tilde, C1, C2, C2_hat)
ADJUSTMENT = {
    "cpe": (1.6666666666666667, 1.0, 1.3333333333333335, 0.3333333333333335,
            0.16666666666666666, 0.5, 0.3333333333333329),
    "brownian": (6.0, 2.0, 4.0, 2.0, 1.0, 1.0, 1.0),
}


def _same(got, want):
    return got == pytest.approx(want, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("key", sorted(EXACT_AND_TWO_TERM))
def test_exact_and_two_term(key):
    name, x1, x2, event = key
    model2 = MODELS[name]
    value, term1, term2 = EXACT_AND_TWO_TERM[key]
    assert _same(exact(model2, RuinQuery(event, x1, x2)).value, value)
    terms = TWO_TERM[event](model2, x1, x2)
    assert _same(terms.term1, term1)
    assert _same(terms.term2, term2)


@pytest.mark.parametrize("key", sorted(LEADING_MIDDLE_CONE))
def test_leading_on_the_middle_cone(key):
    name, x1, x2, event = key
    cone, value = LEADING_MIDDLE_CONE[key]
    est = leading(MODELS[name], x1, x2, event)
    assert est.cone.value == cone
    assert _same(est.value, value)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_partition_and_adjustment(name):
    part = partition(MODELS[name])
    s1, s2, s3, d2_empty = PARTITION[name]
    assert _same(part.s1, s1) and _same(part.s2, s2) and _same(part.s3, s3)
    assert part.d2_empty is d2_empty
    adj = adjustment(MODELS[name])
    got = (adj.gamma1, adj.gamma2, adj.gamma3, adj.gamma_tilde, adj.C1, adj.C2, adj.C2_hat)
    assert all(_same(g, w) for g, w in zip(got, ADJUSTMENT[name]))


def _mc(model2, x1, x2, event, **kw):
    kw.setdefault("horizon", default_safe_level(model2))
    est = estimate(model2, x1, x2, event, SimConfig(n=4096, seed=1, **kw))
    return est.p_hat, est.std_err


def test_mc_untilted():
    assert _mc(MODELS["cpe"], 1.0, 3.0, "OR") == (0.050048828125, 0.0034069646228693014)
    assert _mc(MODELS["brownian"], 1.0, 3.0, "OR") == (0.005060909865903388, 0.0003735224544360163)


def test_mc_tilted():
    cpe = MODELS["cpe"]
    c = -0.75 * adjustment(cpe).gamma2
    assert _mc(cpe, 5.0, 10.0, "SIM", tilt=c) == (1.0925244758249566e-06, 2.940190178933755e-07)
    c = -renewal_adjustment(RW.driver, RW.p1)
    assert _mc(RW, 2.0, 4.0, "OR", tilt=c) == (0.0003369867717386846, 0.00019239547471140887)


def test_mc_fixed_time_tilted():
    got = _mc(MODELS["cpe"], 1.0, 3.0, "OR", tilt=-1.0, horizon=FixedTime(25.0),
              workers=2, chunk_size=1024)
    assert got == (0.04896727035647056, 0.0009229997847880846)
