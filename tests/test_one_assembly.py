"""``exact`` and the two-term splits read one assembly: on a grid of
models, rays and scales every cone they report is ``_classify``'s, the
x1 = 0 axis included, the split totals are ``exact``'s floats, and
``exact``'s ``quad_err`` is the assembly's error bound.

p = (3, 1) has an empty D2 sector for both drivers, so the axis a = 0 is
its closing ray s2 and SIM/OR report BoundaryRay there.  p = (3, 1.5)
has a nonempty D2 for CPE(1, 2), whose D2 and D2_hat close at a = 0.5;
for the Brownian driver it is the model whose D2 and D2_hat sectors both
close exactly at the axis (s2 = s3 = 0).
"""

import pytest

from ruin2d.cones import ConeLabel, _classify, crossing_time, partition
from ruin2d.errors import BoundaryVelocity
from ruin2d.models import CompoundPoissonExp, StandardBrownian, TwoLineModel, adjustment
from ruin2d.twodim import RuinQuery, _assembly, exact, two_term_and, two_term_or, two_term_sim

DRIVERS = {"cpe": CompoundPoissonExp(1.0, 2.0), "bm": StandardBrownian()}
PREMIUMS = ((3.0, 1.0), (3.0, 1.5))
RAYS = (0.0, 0.2, 0.5, 0.8)
KS = (1.0, 5.0, 20.0)
TWO_TERM = {"OR": two_term_or, "SIM": two_term_sim, "AND": two_term_and}


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("p1,p2", PREMIUMS)
@pytest.mark.parametrize("a", RAYS)
@pytest.mark.parametrize("K", KS)
def test_exact_and_two_term_share_the_assembly(driver, p1, p2, a, K):
    model2 = TwoLineModel(DRIVERS[driver], p1, p2)
    adj = adjustment(model2)
    x1, x2 = a * K, K
    T = crossing_time(x1, x2, p1, p2)
    for event, fn in TWO_TERM.items():
        label = _classify(model2, adj, x1, x2, "and" if event == "AND" else "sim")
        est = exact(model2, RuinQuery(event, x1, x2))
        settled, term2, err, cone, _ = _assembly(model2, x1, x2, T, event, adj)
        assert est.cone is cone is label
        assert est.diagnostics["quad_err"] == err
        assert est.value == settled + term2
        try:
            terms = fn(model2, x1, x2)
        except BoundaryVelocity:
            # AND's branch velocity is that of the ray s3, which closes
            # its D2_hat sector: the ray's velocity is refused exactly there
            assert event == "AND" and label is ConeLabel.BOUNDARY_RAY
            continue
        assert terms.cone is label
        if terms.constants.get("branch") != "large_v":
            assert terms.total == est.value
            assert (terms.term1, terms.term2) == (settled, term2)


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_axis_cones(driver):
    # the axis is D2's closing ray where D2 is empty, inside D2 where it
    # is not, and inside D2_hat unless the AND sector closes there too
    for p1, p2 in PREMIUMS:
        model2 = TwoLineModel(DRIVERS[driver], p1, p2)
        part = partition(model2)
        sim = ConeLabel.BOUNDARY_RAY if part.d2_empty else ConeLabel.D2
        joint = ConeLabel.BOUNDARY_RAY if part.s3 == 0.0 else ConeLabel.D2_HAT
        for K in KS:
            assert exact(model2, RuinQuery("OR", 0.0, K)).cone is sim
            assert exact(model2, RuinQuery("SIM", 0.0, K)).cone is sim
            assert exact(model2, RuinQuery("AND", 0.0, K)).cone is joint
    assert [partition(TwoLineModel(DRIVERS[driver], *p)).d2_empty for p in PREMIUMS] == \
        ([True, False] if driver == "cpe" else [True, True])
