"""Each model's Lundberg constants are solved once per argument key and
then served from a bounded cache; refusals are never cached and
the closed-form cross-checks run on the first solve of every key."""

import math

import pytest

from ruin2d import cones, models, numerics
from ruin2d.errors import InternalInconsistency, NoAdjustment
from ruin2d.models import (
    CompoundPoissonExp,
    LineModel,
    Renewal,
    StandardBrownian,
    TwoLineModel,
    adjustment,
    deterministic_dist,
    exponential_dist,
    line_adjustment,
    renewal_adjustment,
)
from ruin2d.montecarlo import SimConfig, default_safe_level, estimate

CACHED = (line_adjustment, adjustment, renewal_adjustment, cones._partition)

# premiums that no other test uses, so each key below is solved afresh
P1, P2 = 3.625, 1.375


@pytest.fixture(autouse=True)
def clear_caches():
    yield
    for fn in CACHED:
        fn.cache_clear()


@pytest.fixture
def root_solves(monkeypatch):
    calls = []
    real = models.root_solve

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(models, "root_solve", counted)
    return calls


@pytest.mark.parametrize("driver", [CompoundPoissonExp(1.0, 2.0), StandardBrownian()],
                         ids=["cpe", "brownian"])
def test_repeated_adjustment_solves_nothing(driver, root_solves):
    model2 = TwoLineModel(driver, P1, P2)
    first = adjustment(model2)
    assert root_solves  # the first call of the key solves (and cross-checks)
    root_solves.clear()
    assert adjustment(model2) == first
    assert adjustment(model2=model2) == first
    assert line_adjustment(model2.line1) == (first.gamma1, first.C1)
    assert line_adjustment(model2.line2) == (first.gamma2, first.C2)
    assert root_solves == []


def test_positional_and_keyword_share_one_entry():
    line = LineModel(CompoundPoissonExp(1.0, 2.0), P1)
    before = line_adjustment.cache_info()
    line_adjustment(line)
    line_adjustment(model=line)
    after = line_adjustment.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)


def test_renewal_adjustment_is_solved_once(root_solves):
    driver = Renewal(deterministic_dist(1.0), exponential_dist(2.0))
    g = renewal_adjustment(driver, P1)
    assert len(root_solves) == 1
    assert renewal_adjustment(driver, P1) == g
    assert len(root_solves) == 1


def test_refusals_raise_on_every_call():
    cpe = CompoundPoissonExp(1.0, 2.0)
    renewal = Renewal(deterministic_dist(1.0), exponential_dist(2.0))
    before = [fn.cache_info() for fn in (adjustment, renewal_adjustment)]
    for _ in range(2):
        with pytest.raises(NoAdjustment):
            line_adjustment(LineModel(cpe, 0.4))  # drift 0.4 - 0.5 < 0
        with pytest.raises(NoAdjustment):
            adjustment(TwoLineModel(cpe, P1, 0.4))
        with pytest.raises(NoAdjustment):
            renewal_adjustment(renewal, 0.4)
    # a refusal stores no entry: each call was a miss that solved again
    for fn, old in zip((adjustment, renewal_adjustment), before):
        new = fn.cache_info()
        assert (new.misses - old.misses, new.hits - old.hits) == (2, 0)
        assert new.currsize == old.currsize


@pytest.mark.parametrize("fn", CACHED, ids=lambda fn: fn.__name__)
def test_caches_are_bounded(fn):
    maxsize = fn.cache_info().maxsize
    assert maxsize is not None and math.isfinite(maxsize) and maxsize > 0


def test_cross_check_runs_on_the_first_solve_of_a_key(monkeypatch):
    line = LineModel(CompoundPoissonExp(1.0, 2.0), 2.875)
    real = CompoundPoissonExp.gamma
    monkeypatch.setattr(CompoundPoissonExp, "gamma", lambda self, p: 1.01 * real(self, p))
    for _ in range(2):
        with pytest.raises(InternalInconsistency, match="adjustment coefficient"):
            line_adjustment(line)
    monkeypatch.undo()
    gamma, _ = line_adjustment(line)
    assert gamma == real(line.driver, line.p)


def test_repeated_estimate_solves_no_quantile(monkeypatch):
    calls = []
    real = numerics.root_solve

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(numerics, "root_solve", counted)
    numerics.normal_quantile.cache_clear()
    model2 = TwoLineModel(CompoundPoissonExp(1.0, 2.0), 3.0, 1.0)
    cfg = SimConfig(n=256, seed=3, horizon=default_safe_level(model2), ci_level=0.9)
    first = estimate(model2, 1.0, 3.0, "OR", cfg)
    assert len(calls) == 1  # the quantile of the 0.9 level
    calls.clear()
    assert estimate(model2, 1.0, 3.0, "OR", cfg) == first
    assert calls == []
