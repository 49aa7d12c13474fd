"""``integrate`` against a one-panel-at-a-time oracle, float for float.

The oracle is the adaptive loop as it was before the integrand was
evaluated ahead: the whole interval in one call, then the two halves of
each bisected panel in one call.  Evaluating panels ahead must not move
any float, so ``repr((value, err))`` (or the refusal) of both must agree
for every integrand below.
"""

import math
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruin2d import models
from ruin2d.errors import MaxIterations
from ruin2d.models import CompoundPoissonExp, TwoLineModel, adjustment, tilt
from ruin2d.numerics import _NODES, _WG_FULL, _WK, integrate


def _gk_sums(h, y):
    k = h * float(np.dot(_WK, y))
    g = h * float(np.dot(_WG_FULL, y))
    return k, abs(k - g)


def _gk_panel(f, a, b):
    """One Gauss-Kronrod 7/15 evaluation on [a, b]: (value, error estimate)."""
    h = 0.5 * (b - a)
    return _gk_sums(h, np.asarray(f(0.5 * (a + b) + h * _NODES), dtype=float))


def _gk_pair(f, lo, mid, hi):
    """``_gk_panel`` on [lo, mid] and on [mid, hi], from one call of ``f``
    on the 30 nodes of both halves.  The nodes and the sums are those of
    two separate panels, so both results are the same floats."""
    h1, h2 = 0.5 * (mid - lo), 0.5 * (hi - mid)
    x = np.concatenate((0.5 * (lo + mid) + h1 * _NODES, 0.5 * (mid + hi) + h2 * _NODES))
    y = np.asarray(f(x), dtype=float)
    return _gk_sums(h1, y[:15]), _gk_sums(h2, y[15:])


def oracle(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    tol: float = 1e-10,
    max_panels: int = 200,
) -> tuple[float, float]:
    if a == b:
        return 0.0, 0.0
    if b < a:
        v, e = oracle(f, b, a, tol=tol, max_panels=max_panels)
        return -v, e

    panels: list[tuple[float, float, float, float]] = []  # (-err, lo, hi, value)
    v, e = _gk_panel(f, a, b)
    panels.append((-e, a, b, v))
    for _ in range(max_panels):
        total_err = -sum(p[0] for p in panels)
        if total_err <= tol:
            break
        panels.sort()  # worst (most negative first entry) panel first
        _, lo, hi, v = panels.pop(0)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # Panel at floating-point resolution; keep its estimate as is.
            panels.append((-0.0, lo, hi, v))
            continue
        (v1, e1), (v2, e2) = _gk_pair(f, lo, mid, hi)
        panels.append((-e1, lo, mid, v1))
        panels.append((-e2, mid, hi, v2))
    else:
        total_err = -sum(p[0] for p in panels)
        if total_err > tol:
            raise MaxIterations(
                f"quadrature error {total_err:g} above tol {tol:g} after {max_panels} panel splits"
            )

    value = math.fsum(p[3] for p in panels)
    err = -math.fsum(p[0] for p in panels)
    return value, err


def outcome(quad, f, a, b, tol):
    try:
        return repr(quad(f, a, b, tol=tol))
    except MaxIterations as exc:
        return f"MaxIterations: {exc}"


def assert_same(f, a, b, tol, reverse):
    if reverse:
        a, b = b, a
    assert outcome(integrate, f, a, b, tol) == outcome(oracle, f, a, b, tol)


TOLS = st.sampled_from([1e-8, 1e-10, 1e-12, 1e-14])


@settings(max_examples=60, deadline=None)
@given(c=st.floats(0.05, 3.0), w=st.floats(0.5, 30.0), a=st.floats(-2.0, 2.0),
       width=st.floats(0.1, 10.0), tol=TOLS, reverse=st.booleans())
def test_damped_sine(c, w, a, width, tol, reverse):
    assert_same(lambda x: np.exp(-c * x) * np.sin(w * x), a, a + width, tol, reverse)


@settings(max_examples=60, deadline=None)
@given(k=st.floats(1.0, 400.0), lo=st.floats(-2.0, -0.05), hi=st.floats(0.05, 2.0),
       tol=TOLS, reverse=st.booleans())
def test_runge(k, lo, hi, tol, reverse):
    assert_same(lambda x: 1.0 / (1.0 + k * x * x), lo, hi, tol, reverse)


@settings(max_examples=60, deadline=None)
@given(s=st.floats(0.1, 10.0), b=st.floats(0.01, 20.0), tol=TOLS, reverse=st.booleans())
def test_sqrt_edge(s, b, tol, reverse):
    assert_same(lambda x: s * np.sqrt(x), 0.0, b, tol, reverse)


@settings(max_examples=40, deadline=None)
@given(a=st.floats(-1e3, 1e3), width=st.floats(1e-3, 10.0), frac=st.floats(0.05, 0.95),
       height=st.floats(0.1, 1e3), tol=st.sampled_from([1e-9, 1e-11]), reverse=st.booleans())
def test_step_at_resolution(a, width, frac, height, tol, reverse):
    step = a + frac * width
    assert_same(lambda x: np.where(x > step, height, 0.0), a, a + width, tol, reverse)


@settings(max_examples=40, deadline=None)
@given(a=st.floats(-1e6, 1e6), ulps=st.integers(0, 40), tol=TOLS)
def test_degenerate_and_resolution_intervals(a, ulps, tol):
    b = a
    for _ in range(ulps):
        b = math.nextafter(b, math.inf)
    for lo, hi in ((a, b), (b, a)):
        assert (outcome(integrate, lambda x: np.cos(x) + 2.0, lo, hi, tol)
                == outcome(oracle, lambda x: np.cos(x) + 2.0, lo, hi, tol))


def test_step_at_floating_point_resolution():
    # a step at the midpoint of [1, 1 + 8 ulps] keeps the loop bisecting
    # down to panels with no float strictly inside, which it keeps as they
    # are; a tolerance below every nonzero defect forces that
    a = b = 1.0
    for _ in range(8):
        b = math.nextafter(b, math.inf)
    step = 0.5 * (a + b)

    def f(x):
        return np.where(x > step, 1e300, 0.0)
    assert outcome(integrate, f, a, b, 1e-310) == outcome(oracle, f, a, b, 1e-310)


CPE = TwoLineModel(CompoundPoissonExp(1.0, 2.0), 3.0, 1.0)
_ADJ = adjustment(CPE)
# the plain lines and the tilted lines that exact SIM integrates
LINES = {
    "line1": CPE.line1,
    "line2": CPE.line2,
    "tilt_g1": tilt(CPE.line2, -_ADJ.gamma1),
    "tilt_g2": tilt(CPE.line1, -_ADJ.gamma2),
}


def ruin_after_both(monkeypatch, line, x, t):
    with monkeypatch.context() as m:
        m.setattr(models, "integrate", oracle)
        want = repr(line.driver.ruin_after(line.p, x, t))
    return repr(line.driver.ruin_after(line.p, x, t)), want


@pytest.mark.parametrize("name", sorted(LINES))
def test_ruin_after_grid(monkeypatch, name):
    line = LINES[name]
    for x in (0.25, 1.0, 3.0, 7.5, 15.0, 25.0, 40.0):
        for t in (0.05, 0.5, 1.0, 2.5, 5.0, 10.0, 20.0):
            got, want = ruin_after_both(monkeypatch, line, x, t)
            assert got == want, (name, x, t)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(LINES)), x=st.floats(0.01, 40.0), t=st.floats(0.01, 40.0))
def test_ruin_after_random(name, x, t):
    with pytest.MonkeyPatch.context() as mp:
        got, want = ruin_after_both(mp, LINES[name], x, t)
    assert got == want
