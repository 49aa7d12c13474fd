"""Non-finite reals and non-integer counts are refused where they enter:
the CLI exits 2 naming the flag, the library raises OutOfRange (or
ConfigError for configuration values) before any arithmetic, and SimConfig
refuses a count that is not an integer."""

import math

import numpy as np
import pytest

from ruin2d.cli import run
from ruin2d.cones import classify, exit_rate
from ruin2d.errors import ConfigError, OutOfRange
from ruin2d.finite_time import ah_branches, finite_ruin, limit_law, ruin_after, ultimate_ruin
from ruin2d.models import (
    CompoundPoissonExp,
    Renewal,
    TwoLineModel,
    deterministic_dist,
    exponential_dist,
    saddle,
    scale_to_canonical,
)
from ruin2d.montecarlo import SafeLevel, SimConfig, estimate
from ruin2d.twodim import leading, renewal_exponents, two_term_and, two_term_or, two_term_sim

CPE_FLAGS = ["--driver", "cpe", "--lambda", "1", "--mu", "2", "--p1", "3", "--p2", "1"]
CPE = TwoLineModel(CompoundPoissonExp(1.0, 2.0), 3.0, 1.0)
LINE = CPE.line1
RENEWAL = Renewal(deterministic_dist(1.0), exponential_dist(2.0))
INF, NAN = math.inf, math.nan


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["compute", *CPE_FLAGS, "--x1", "inf", "--x2", "3"], "--x1"),
        (["sweep", *CPE_FLAGS, "--a", "nan", "--k", "1,2"], "--a"),
        (["compute", *CPE_FLAGS, "--x1", "1", "--x2", "inf", "--event", "and",
          "--method", "two_term"], "--x2"),
        (["compute", *CPE_FLAGS, "--x1", "1", "--x2", "inf", "--event", "or",
          "--method", "two_term"], "--x2"),
        (["compute", *CPE_FLAGS, "--x1", "1", "--x2", "inf", "--method", "leading"], "--x2"),
        (["sweep", *CPE_FLAGS, "--a", "0.5", "--k", "1,inf", "--method", "leading"], "k entry"),
        (["compute", "--driver", "cpe", "--lambda", "1", "--mu", "2", "--u1", "nan",
          "--u2", "1", "--c1", "3", "--c2", "1", "--delta1", "0.5", "--delta2", "0.5"], "--u1"),
        (["compute", *CPE_FLAGS, "--x1", "nan", "--x2", "3", "--method", "mc"], "--x1"),
    ],
    ids=["compute_x1_inf", "sweep_a_nan", "two_term_and", "two_term_or", "leading",
         "sweep_k_inf", "raw_triple", "mc"],
)
def test_nonfinite_flag_exits_2(capsys, argv, flag):
    assert run(argv) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("ruin2d: configuration error: ")
    assert f"{flag} must be finite" in cap.err
    assert "Traceback" not in cap.err


@pytest.mark.parametrize(
    "call,exc",
    [
        (lambda: ultimate_ruin(LINE, NAN), OutOfRange),
        (lambda: ultimate_ruin(LINE, INF), OutOfRange),
        (lambda: finite_ruin(LINE, INF, 1.0), OutOfRange),
        (lambda: finite_ruin(LINE, 1.0, INF), OutOfRange),
        (lambda: finite_ruin(LINE, NAN, 1.0), OutOfRange),
        (lambda: finite_ruin(LINE, 1.0, NAN), OutOfRange),
        (lambda: ruin_after(LINE, INF, 1.0), OutOfRange),
        (lambda: ruin_after(LINE, 1.0, INF), OutOfRange),
        (lambda: ruin_after(LINE, NAN, 1.0), OutOfRange),
        (lambda: ruin_after(LINE, 1.0, NAN), OutOfRange),
        (lambda: ah_branches(LINE, NAN, 1.0), OutOfRange),
        (lambda: ah_branches(LINE, 1.0, INF), OutOfRange),
        (lambda: saddle(LINE, NAN), OutOfRange),
        (lambda: saddle(LINE, INF), OutOfRange),
        (lambda: limit_law(LINE, NAN, "ruin"), OutOfRange),
        (lambda: two_term_or(CPE, 1.0, INF), OutOfRange),
        (lambda: two_term_sim(CPE, 1.0, INF), OutOfRange),
        (lambda: two_term_and(CPE, 1.0, INF), OutOfRange),
        (lambda: scale_to_canonical(NAN, 1.0, 3.0, 1.0, 0.5, 0.5), ConfigError),
        (lambda: scale_to_canonical(1.0, 1.0, 3.0, 1.0, NAN, 0.5), ConfigError),
    ],
    ids=["ultimate_nan", "ultimate_inf", "finite_x_inf", "finite_t_inf", "finite_x_nan",
         "finite_t_nan", "after_x_inf", "after_t_inf", "after_x_nan", "after_t_nan",
         "ah_x_nan", "ah_t_inf", "saddle_nan", "saddle_inf", "limit_law_nan",
         "two_term_or", "two_term_sim", "two_term_and", "scale_u1_nan", "scale_delta1_nan"],
)
def test_nonfinite_real_is_refused(call, exc):
    with pytest.raises(exc, match="finite"):
        call()


@pytest.mark.parametrize("bad", [INF, NAN], ids=["inf", "nan"])
@pytest.mark.parametrize(
    "call",
    [
        lambda bad: leading(CPE, 1.0, bad, "OR"),
        lambda bad: leading(CPE, bad, 3.0, "OR"),
        lambda bad: leading(CPE, 1.0, bad, "SIM"),
        lambda bad: classify(CPE, 1.0, bad),
        lambda bad: classify(CPE, bad, 3.0),
        lambda bad: exit_rate(CPE, bad),
        lambda bad: renewal_exponents(RENEWAL, 3.0, 1.0, bad),
    ],
    ids=["leading_or_x2", "leading_or_x1", "leading_sim_x2", "classify_x2", "classify_x1",
         "exit_rate", "renewal_exponents"],
)
def test_nonfinite_ray_is_refused(call, bad):
    with pytest.raises(OutOfRange, match="finite"):
        call(bad)


def test_refused_saddle_key_is_not_cached():
    before = saddle.cache_info()
    for _ in range(2):
        with pytest.raises(OutOfRange):
            saddle(LINE, INF)
    after = saddle.cache_info()
    assert (after.misses - before.misses, after.currsize) == (2, before.currsize)


@pytest.mark.parametrize(
    "field,value",
    [("n", 2.5), ("n", 100.0), ("chunk_size", 2.5), ("seed", 1.5), ("workers", 2.5)],
)
def test_simconfig_refuses_non_integer_counts(field, value):
    kw = {"n": 64, "seed": 3, "horizon": SafeLevel(30.0), field: value}
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        SimConfig(**kw)


def test_simconfig_accepts_numpy_integers():
    plain = SimConfig(n=64, seed=3, horizon=SafeLevel(30.0), chunk_size=32)
    numpy = SimConfig(n=np.int64(64), seed=np.uint32(3), horizon=SafeLevel(30.0),
                      workers=np.int32(1), chunk_size=np.int64(32))
    assert estimate(CPE, 1.0, 3.0, "OR", numpy) == estimate(CPE, 1.0, 3.0, "OR", plain)
