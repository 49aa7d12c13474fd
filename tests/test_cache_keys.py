"""Saddle points and renewal distributions are memoised like the Lundberg
constants: a repeat call returns the very same object, a refusal raises on
every call, and equal renewal drivers share one constants-cache entry."""

import math

import pytest

from ruin2d.cli import run
from ruin2d.errors import ConfigError, InternalInconsistency, OutOfRange
from ruin2d.models import (
    CompoundPoissonExp,
    LineModel,
    Renewal,
    deterministic_dist,
    exponential_dist,
    renewal_adjustment,
    saddle,
)

# a premium that no other test uses, so the saddle keys below are fresh
LINE = LineModel(CompoundPoissonExp(1.0, 2.0), 1.4375)


def test_repeat_saddle_is_the_same_object():
    first = saddle(LINE, 2.0)
    assert saddle(LINE, 2.0) is first
    assert saddle(LINE, v=2.0) is first


def test_saddle_cross_check_runs_on_the_first_solve(monkeypatch):
    real = CompoundPoissonExp.saddle_point
    monkeypatch.setattr(CompoundPoissonExp, "saddle_point",
                        lambda self, p, v: real(self, p, v) + 1e-3)
    for _ in range(2):
        with pytest.raises(InternalInconsistency, match="saddle point"):
            saddle(LINE, 2.5)
    monkeypatch.undo()
    assert saddle(LINE, 2.5).theta_v == real(LINE.driver, LINE.p, 2.5)


@pytest.mark.parametrize(
    "call,exc",
    [
        (lambda: saddle(LINE, -1.0), OutOfRange),
        (lambda: exponential_dist(-2.0), ConfigError),
        (lambda: deterministic_dist(0.0), ConfigError),
    ],
    ids=["saddle", "exponential_dist", "deterministic_dist"],
)
def test_refusals_raise_on_every_call(call, exc):
    for _ in range(3):
        with pytest.raises(exc):
            call()


@pytest.mark.parametrize("fn", (saddle, exponential_dist, deterministic_dist),
                         ids=lambda fn: fn.__name__)
def test_caches_are_bounded(fn):
    maxsize = fn.cache_info().maxsize
    assert maxsize is not None and math.isfinite(maxsize) and maxsize > 0


def test_equal_arguments_give_one_dist():
    assert exponential_dist(2.0) is exponential_dist(2.0)
    assert deterministic_dist(1.0) is deterministic_dist(1.0)
    assert (Renewal(exponential_dist(2.0), exponential_dist(2.0))
            == Renewal(exponential_dist(2.0), exponential_dist(2.0)))


def test_repeated_renewal_runs_solve_each_line_once(capsys):
    # distribution parameters that no other test uses
    argv = ["mc", "--driver", "renewal", "--interarrival", "det:1.25", "--claim", "exp:2.5",
            "--p1", "3", "--p2", "1", "--x1", "1", "--x2", "3", "--n", "256"]
    before = renewal_adjustment.cache_info().misses
    for _ in range(3):
        assert run(argv) == 0
    capsys.readouterr()
    assert renewal_adjustment.cache_info().misses - before == 2
