"""The per-driver formula table and what rests on it: closed forms that
agree with the generic cumulant calculus, per-unit-time drifts, one
AdjustmentData per public two-line call, and the reserve axis x1 = 0."""

import hashlib
import math

import pytest

from ruin2d import cli, cones, twodim
from ruin2d.errors import UnsupportedDriver
from ruin2d.finite_time import finite_ruin, ruin_after
from ruin2d.models import (
    CompoundPoissonExp,
    LineModel,
    Renewal,
    StandardBrownian,
    TwoLineModel,
    deterministic_dist,
    exponential_dist,
    tilt,
)
from ruin2d.twodim import RuinQuery, exact, leading, two_term_and, two_term_or, two_term_sim

CPE = TwoLineModel(CompoundPoissonExp(1.0, 2.0), 3.0, 1.0)
BM = TwoLineModel(StandardBrownian(), 3.0, 1.0)
RENEWAL = Renewal(deterministic_dist(1.0), exponential_dist(2.0))


@pytest.mark.parametrize("model2", [CPE, BM], ids=["cpe", "brownian"])
def test_closed_forms_solve_their_defining_equations(model2):
    d, p1, p2 = model2.driver, model2.p1, model2.p2
    line1, line2 = model2.line1, model2.line2
    h = 1e-5
    for line in (line1, line2):
        th = 0.3
        assert line.kappa_prime(th) == pytest.approx(
            (line.kappa(th + h) - line.kappa(th - h)) / (2 * h), rel=1e-8)
        assert line.kappa_double_prime(th) == pytest.approx(
            (line.kappa_prime(th + h) - line.kappa_prime(th - h)) / (2 * h), rel=1e-8)
        assert line.kappa_triple(th) == pytest.approx(
            (line.kappa_double_prime(th + h) - line.kappa_double_prime(th - h)) / (2 * h),
            rel=1e-6, abs=1e-9)
        g = d.gamma(line.p)
        assert line.kappa(-g) == pytest.approx(0.0, abs=1e-14)
        assert d.cramer_constant(line.p) == pytest.approx(
            -line.kappa_prime(0.0) / line.kappa_prime(-g), rel=1e-14)
        assert line.kappa_prime(d.saddle_point(line.p, 0.7)) == pytest.approx(-0.7, rel=1e-13)
        assert line.kappa_prime(d.saddle_point(line.p, 0.0)) == pytest.approx(0.0, abs=1e-14)
        assert tilt(line, -0.5).drift == pytest.approx(line.kappa_prime(-0.5), rel=1e-14)
    g2, g3 = d.gamma(p2), d.gamma3(p1, p2)
    assert line1.kappa(-g3) == pytest.approx(line1.kappa(-g2), abs=1e-14)


def test_renewal_row_refuses_the_cumulant_calculus():
    line = LineModel(RENEWAL, 3.0)
    for call in (lambda: line.theta_lower, lambda: line.kappa_prime(0.1),
                 lambda: line.kappa_triple(0.1), lambda: RENEWAL.gamma(3.0),
                 lambda: RENEWAL.saddle_point(3.0, 1.0), lambda: tilt(line, -0.5),
                 lambda: finite_ruin(line, 1, 1), lambda: ruin_after(line, 1, 1)):
        with pytest.raises(UnsupportedDriver):
            call()
    with pytest.raises(UnsupportedDriver):
        StandardBrownian().jump_dists()


def test_drift_is_per_unit_time_for_every_driver():
    # Exp(2) gaps and claims: claims arrive at rate 2 with mean 1/2, so
    # the claim rate is 1 per unit time and p = 3 leaves a drift of 2
    # (per claim epoch it would be 3 * 0.5 - 0.5 = 1)
    line = LineModel(Renewal(exponential_dist(2.0), exponential_dist(2.0)), 3.0)
    assert line.drift == 2.0
    assert LineModel(CompoundPoissonExp(1.0, 2.0), 3.0).drift == 2.5
    assert LineModel(StandardBrownian(), 3.0).drift == 3.0


@pytest.fixture
def adjustment_calls(monkeypatch):
    calls = []
    real = twodim.adjustment

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(twodim, "adjustment", counted)
    monkeypatch.setattr(cones, "adjustment", counted)
    monkeypatch.setattr(cli, "adjustment", counted)
    return calls


@pytest.mark.parametrize("model2", [CPE, BM], ids=["cpe", "brownian"])
def test_each_two_line_call_builds_one_adjustment(model2, adjustment_calls):
    x1, x2 = 2.0, 5.0
    calls = [lambda ev=ev: exact(model2, RuinQuery(ev, x1, x2)) for ev in ("OR", "SIM", "AND")]
    calls += [lambda fn=fn: fn(model2, x1, x2) for fn in (two_term_or, two_term_sim, two_term_and)]
    calls += [lambda ev=ev: leading(model2, x1, x2, ev) for ev in ("OR", "SIM", "AND")]
    calls += [lambda: cones.classify(model2, x1, x2, "and"), lambda: cones.partition(model2)]
    for call in calls:
        adjustment_calls.clear()
        call()
        assert len(adjustment_calls) == 1


# sha256 prefixes of the ``ruin2d cones`` CSV, unchanged since the command
# classified each ray through the public, self-contained ``classify``
CONES_CSV = {
    "cpe": (["--driver", "cpe", "--lambda", "1", "--mu", "2", "--p1", "3", "--p2", "1"],
            "d051ce7d4125b6e4"),
    "brownian": (["--driver", "brownian", "--p1", "3", "--p2", "1"], "df7559c0ca0502b5"),
}


@pytest.mark.parametrize("driver", sorted(CONES_CSV))
def test_cli_cones_builds_one_adjustment(driver, adjustment_calls, capsys):
    flags, digest = CONES_CSV[driver]
    assert cli.run(["cones", *flags, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert len(adjustment_calls) == 1
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("model2", [CPE, BM], ids=["cpe", "brownian"])
@pytest.mark.parametrize("x2", [3.0, 10.0])
def test_two_term_sim_on_the_reserve_axis(model2, x2):
    # with x1 = 0 the crossing velocity is p1 - p2, where the line-1
    # saddle sits at zero velocity; only the line-2 conjugate is needed
    got = two_term_sim(model2, 0.0, x2).total
    want = exact(model2, RuinQuery("SIM", 0.0, x2)).value
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("driver", ["cpe", "brownian"])
def test_cli_two_term_sim_on_the_reserve_axis(driver, capsys):
    argv = ["compute", "--driver", driver, "--lambda", "1", "--mu", "2",
            "--p1", "3", "--p2", "1", "--x1", "0", "--x2", "3",
            "--event", "sim", "--method", "two_term"]
    assert cli.run(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and math.isfinite(float(out[1].split(",")[6]))
