"""The Brownian values: each event's probability given W_T, weighed.

A Brownian chunk scores each lane by L * P(event | W_T), from the one
standard normal that draws W_T (``montecarlo._bm_values``); ``simulate``
then draws every epoch from the same W_T.  These tests hold the closed
forms against the epochs drawn on the same paths and against
``finite_ruin``, the exact answers where every lane holds one closed
form, the per-chunk inclusion check, and the one draw per lane.
"""

import math

import numpy as np
import pytest

from ruin2d import montecarlo
from ruin2d.errors import InternalInconsistency
from ruin2d.finite_time import finite_ruin
from ruin2d.models import StandardBrownian, TwoLineModel, adjustment
from ruin2d.montecarlo import FixedTime, SafeLevel, SimConfig, _chunk_rng, estimate, simulate
from ruin2d.twodim import _EVENTS

BM = TwoLineModel(StandardBrownian(), 3.0, 1.0)
ADJ = adjustment(BM)


def _epochs(block):
    return {"OR": block["tau_or"], "SIM": block["tau_sim"],
            "AND": np.maximum(block["tau1"], block["tau2"]),
            "LINE1": block["tau1"], "LINE2": block["tau2"]}


# (0.5, 2) has T = 0.75: t = 0.6 sees the bridge alone, t = 2 both parts
@pytest.mark.parametrize("t", [0.6, 2.0], ids=["before_T", "after_T"])
def test_fixed_time_values_match_the_epochs_and_finite_ruin(t):
    x1, x2, n = 0.5, 2.0, 20_000
    block = next(simulate(BM, x1, x2, SimConfig(n=n, seed=5, horizon=FixedTime(t), chunk_size=n)))
    for event, tau in _epochs(block).items():
        hits = np.isfinite(tau)
        assert hits.sum() >= 10, event  # the epochs see the event
        diff = hits - block[event]
        assert abs(diff.mean()) <= 4.0 * diff.std() / math.sqrt(n), event
    for event, line, x in (("LINE1", BM.line1, x1), ("LINE2", BM.line2, x2)):
        v = block[event]
        target = finite_ruin(line, x, t).value
        assert abs(v.mean() - target) <= 4.0 * v.std() / math.sqrt(n), event
    if t < 0.75:  # before T line 1 is the lower barrier and line 2 the upper
        assert np.array_equal(block["OR"], block["LINE1"])
        assert np.array_equal(block["SIM"], block["LINE2"])
        assert np.array_equal(block["AND"], block["LINE2"])


@pytest.mark.parametrize("x1,x2", [(3.0, 1.0), (1.5, 1.5), (0.7, 0.3)])
@pytest.mark.parametrize("horizon,tilt", [(SafeLevel(30.0), None), (FixedTime(2.0), -0.5)],
                         ids=["ultimate", "fixed_time"])
def test_lower_cone_estimate_is_the_closed_form(x1, x2, horizon, tilt):
    # at x2 <= x1 line 2's barrier lies below line 1's throughout, so every
    # lane holds LINE_i = P(line i ruined), with OR = LINE2 and
    # SIM = AND = LINE1, weighed by L = 1 (T = 0)
    if isinstance(horizon, FixedTime):
        a1, a2 = (finite_ruin(line, x, horizon.t).value
                  for line, x in ((BM.line1, x1), (BM.line2, x2)))
    else:
        a1, a2 = math.exp(-2.0 * BM.p1 * x1), math.exp(-2.0 * BM.p2 * x2)
    want = dict(zip(_EVENTS, (a2, a1, a1, a1, a2)))
    config = SimConfig(n=20_000, seed=3, horizon=horizon, tilt=tilt)
    got = estimate(BM, x1, x2, list(_EVENTS), config)
    for e in _EVENTS:
        # exact but for the rounding of the chunk sums and of s2/n - p_hat^2
        assert got[e].p_hat == pytest.approx(want[e], rel=1e-14, abs=0.0), e
        assert got[e].std_err <= 1e-8 * want[e], e
    for block in simulate(BM, x1, x2, config):
        assert all((block[e] == want[e]).all() for e in _EVENTS)


def _broken(monkeypatch, event, lane_value):
    """Make _bm_probs put lane_value(values) into lane 0 of event."""
    real = montecarlo._bm_probs

    def broken(*args):
        values = real(*args)
        values[event][0] = lane_value(values)
        return values
    monkeypatch.setattr(montecarlo, "_bm_probs", broken)


@pytest.mark.parametrize("event,lane_value", [
    ("SIM", lambda v: v["AND"][0] + 1e-3),   # SIM > AND
    ("AND", lambda v: v["LINE2"][0] * 2.0 + 1e-3),  # AND > LINE2
    ("OR", lambda v: v["LINE1"][0] / 2.0 - 1e-3),  # OR < LINE1
    ("LINE1", lambda v: -1e-300),  # a negative value
    ("SIM", lambda v: math.nan),
], ids=["sim_above_and", "and_above_line2", "or_below_line1", "negative", "nan"])
@pytest.mark.parametrize("tilt", [None, -1.5], ids=["untilted", "tilted"])
def test_broken_inclusion_is_refused(monkeypatch, event, lane_value, tilt):
    _broken(monkeypatch, event, lane_value)
    config = SimConfig(n=100, seed=13, horizon=SafeLevel(30.0), tilt=tilt)
    for query in ("OR", "AND"):  # whichever event is asked for
        with pytest.raises(InternalInconsistency, match="Brownian values break"):
            estimate(BM, 1.0, 3.0, query, config)
    with pytest.raises(InternalInconsistency, match="Brownian values break"):
        next(simulate(BM, 1.0, 3.0, config))


@pytest.mark.parametrize("c", [-ADJ.gamma1, -0.75 * ADJ.gamma2], ids=["g1", "g2"])
def test_deep_tilted_values_are_finite_and_nonnegative(c):
    # (20, 40): every event has probability below 1e-34, and the weight
    # spans dozens of orders of magnitude over the lanes
    config = SimConfig(n=16_384, seed=7, horizon=SafeLevel(60.0), tilt=c)
    for block in simulate(BM, 20.0, 40.0, config):
        for e in _EVENTS:
            assert np.isfinite(block[e]).all() and (block[e] >= 0.0).all(), e
    got = estimate(BM, 20.0, 40.0, list(_EVENTS), config)
    assert all(got[e].p_hat > 0.0 and got[e].std_err < got[e].p_hat for e in _EVENTS)


@pytest.mark.parametrize("tilt", [None, -1.5], ids=["untilted", "tilted"])
@pytest.mark.parametrize("x1,x2", [(1.0, 3.0), (3.0, 1.0)], ids=["upper_cone", "lower_cone"])
def test_estimate_draws_one_normal_per_lane(monkeypatch, tilt, x1, x2):
    rngs, width = [], 1000

    def recorded(seed, chunk_idx):
        rngs.append(_chunk_rng(seed, chunk_idx))
        return rngs[-1]
    monkeypatch.setattr(montecarlo, "_chunk_rng", recorded)
    config = SimConfig(n=width, seed=9, horizon=SafeLevel(30.0), tilt=tilt)
    estimate(BM, x1, x2, list(_EVENTS), config)
    assert len(rngs) == 1
    one = _chunk_rng(9, 0)
    one.standard_normal(width)
    # the counter, key and buffered words, whose arrays repr shows in full
    assert repr(rngs[0].bit_generator.state) == repr(one.bit_generator.state)
    # simulate draws on from there: the uniforms and passages of the epochs
    next(simulate(BM, x1, x2, config))
    assert repr(rngs[1].bit_generator.state) != repr(one.bit_generator.state)
