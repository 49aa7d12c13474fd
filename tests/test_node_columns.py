"""What the analytic path keeps between calls, and that keeping it moves no float.

The spectral integrand of ``CompoundPoissonExp.ruin_after`` takes sin(2u),
sin(u)**2 and 2u from a cache of one node array: the first-call nodes that
``integrate`` keeps for [0, pi/2].  Any other array, such as the 30 nodes
of an ahead call, gets them computed afresh; an ahead call's geometry is
built directly, float for float as ``_geometry`` builds it.  A two-line
model builds each of its lines once.  No integral value is kept.
"""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_quadrature_pin import DEFERRED, _line

from ruin2d import models
from ruin2d.models import CompoundPoissonExp, StandardBrownian, TwoLineModel
from ruin2d.numerics import _NODES, _first_call, _geometry, _halves, _panels_below
from ruin2d.twodim import RuinQuery, exact

BAND = (0.0, 0.5 * math.pi)


def _bits(a) -> list:
    return np.asarray(a, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize("name", sorted(DEFERRED))
def test_trig_cache_hit_and_miss_give_the_pinned_floats(monkeypatch, name):
    which, x, t, want = DEFERRED[name]
    line = _line(which)
    line.driver.ruin_after(line.p, x, t)  # the kept nodes have their columns now
    assert models._band[0] is _first_call(*BAND)[1]
    hit = repr(line.driver.ruin_after(line.p, x, t))
    # no array is ever the kept one: every call computes its columns afresh
    monkeypatch.setattr(models, "_band", (None, None))
    monkeypatch.setattr(models, "_first_call", lambda a, b: (None, None, None))
    miss = repr(line.driver.ruin_after(line.p, x, t))
    assert hit == miss == want


def test_kept_columns_are_those_of_a_copy_of_the_nodes():
    nodes = _first_call(*BAND)[1]
    models._band_trig(nodes)
    u = nodes.copy()
    for got, want in zip(models._band_trig(nodes), (np.sin(2.0 * u), np.sin(u) ** 2, 2.0 * u)):
        assert _bits(got) == _bits(want)


def _ulps_above(lo: float, k: int) -> float:
    hi = lo
    for _ in range(k):
        hi = math.nextafter(hi, math.inf)
    return hi


@settings(max_examples=300, deadline=None)
@given(lo=st.floats(-1e6, 1e6, allow_subnormal=False),
       width=st.one_of(st.floats(1e-9, 1e3), st.integers(2, 6)))
def test_ahead_geometry_equals_geometry_of_panels_below(lo, width):
    """Widths include 2 to 6 ulps, where the halves are a few floats wide."""
    hi = _ulps_above(lo, width) if isinstance(width, int) else lo + width
    mid = 0.5 * (lo + hi)
    assume(lo < mid < hi)
    spans, x, half = _halves(lo, mid, hi)
    want_spans, want_x, want_half = _geometry(_panels_below(lo, hi, 1))
    assert spans == want_spans == ((lo, mid), (mid, hi))
    assert _bits(x) == _bits(want_x) and _bits(half) == _bits(want_half)
    assert not (x.flags.writeable or half.flags.writeable)
    # every node is c + h*node in Python floats
    assert _bits(x) == _bits([0.5 * (l + h) + 0.5 * (h - l) * n
                              for l, h in spans for n in _NODES.tolist()])


def test_cache_holds_one_array_and_an_exact_recomputes_for_ahead_calls_only(monkeypatch):
    model = TwoLineModel(CompoundPoissonExp(1.0, 2.0), 3.0, 1.0)
    query = RuinQuery("SIM", 20.0, 40.0)
    want = exact(model, query)
    nodes = _first_call(*BAND)[1]
    assert models._band[0] is nodes
    assert [c.shape for c in models._band[1]] == [nodes.shape] * 3

    sizes, misses = [], []
    real_integrate, real_first_call = models.integrate, models._first_call

    def watched(f, a, b, **kwargs):
        def g(u):
            sizes.append(u.size)
            return f(u)
        return real_integrate(g, a, b, **kwargs)

    def first_call(a, b):
        misses.append((a, b))
        return real_first_call(a, b)

    monkeypatch.setattr(models, "integrate", watched)
    monkeypatch.setattr(models, "_first_call", first_call)
    assert repr(exact(model, query)) == repr(want)
    ahead = [n for n in sizes if n != nodes.size]
    assert ahead and set(ahead) == {30} and nodes.size in sizes
    assert len(misses) == len(ahead)
    assert models._band[0] is nodes  # an ahead array never takes the cache


@pytest.mark.parametrize("driver", [CompoundPoissonExp(1.0, 2.0), StandardBrownian()])
def test_cached_lines_leave_the_dataclass_as_it_was(driver):
    model, fresh = TwoLineModel(driver, 3.0, 1.0), TwoLineModel(driver, 3.0, 1.0)
    state = pickle.dumps(fresh)
    line1, line2 = model.line1, model.line2
    assert model.line1 is line1 and model.line2 is line2
    assert (line1.p, line2.p) == (3.0, 1.0) and line1.driver is line2.driver is driver
    assert model == fresh and hash(model) == hash(fresh) and repr(model) == repr(fresh)
    assert [f.name for f in dataclasses.fields(model)] == ["driver", "p1", "p2"]
    assert pickle.dumps(model) == state
    assert pickle.loads(state) == model and pickle.loads(state).line1 == line1
    moved = dataclasses.replace(model, p2=0.5)
    assert moved.line2.p == 0.5 and moved.line1 == line1 and moved.line1 is not line1
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.line1 = line2
