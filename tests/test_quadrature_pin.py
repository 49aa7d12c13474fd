"""Bit-level pins of the adaptive Gauss-Kronrod quadrature.

Each pin is the ``repr`` of ``(value, err)``, so a change in how the
panels are evaluated (node batching, summation order, panel order) must
leave every float as it was.  The integrands need from a dozen to a few
dozen bisections, one of them down to floating-point resolution, and
the points of the compound Poisson row's deferred-ruin integral include
one deep in the tail of the ray (K/2, K) at K = 40.
"""

import numpy as np
import pytest

from ruin2d import models
from ruin2d.models import CompoundPoissonExp, TwoLineModel, adjustment, tilt
from ruin2d.numerics import integrate

# name: (integrand, a, b, tol, repr of (value, err))
INTEGRALS = {
    "damped_sine": (lambda x: np.exp(-x) * np.sin(7.0 * x), 0.0, 6.0, 1e-12,
                    "(0.1401842416214594, 2.515677011323547e-14)"),
    "sqrt_edge": (np.sqrt, 0.0, 1.0, 1e-13,
                  "(0.6666666666666662, 6.558532256831806e-14)"),
    "runge": (lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0, 1e-14,
              "(0.5493603067780047, 4.9231452248221785e-15)"),
    "reversed_log": (np.log, 2.0, 1e-3, 1e-12,
                     "(0.6057978836011253, 8.967540252036166e-13)"),
    # bisects down to panels at floating-point resolution (twice)
    "step_at_resolution": (lambda x: np.where(x > 1e3 + 1.0 / 3.0, 1e3, 0.0),
                           1e3, 1e3 + 1.0, 1e-11,
                           "(666.6666666666268, 2.2737367544321913e-12)"),
}


@pytest.mark.parametrize("name", sorted(INTEGRALS))
def test_integrate_is_pinned(name):
    f, a, b, tol, want = INTEGRALS[name]
    assert repr(integrate(f, a, b, tol=tol)) == want


CPE = TwoLineModel(CompoundPoissonExp(1.0, 2.0), 3.0, 1.0)

# name: (line, x, t, repr of (value, err)); "tilt_g1" is line 2 under the
# -gamma_1 tilt that exact SIM integrates, "tilt_g2" line 1 under -gamma_2
DEFERRED = {
    "line1": ("line1", 1.0, 1.0, "(0.0010013204643292218, 9.330519367744532e-16)"),
    "line2": ("line2", 3.0, 2.0, "(0.01577240242365752, 1.2308453916037712e-14)"),
    "line1_tilt_g2": ("tilt_g2", 2.0, 1.5, "(0.13927854524181912, 7.794853622057703e-14)"),
    "line2_tilt_g1": ("tilt_g1", 5.0, 1.5, "(0.020502933927489732, 2.666507475378326e-13)"),
    "line2_deep_k40": ("line2", 40.0, 10.0, "(2.123945541394631e-18, 2.3890810514344468e-24)"),
    "line2_tilt_g1_deep_k40": ("tilt_g1", 40.0, 10.0,
                               "(1.3751808052166782e-07, 9.257480631019333e-10)"),
}


def _line(which):
    adj = adjustment(CPE)
    return {
        "line1": CPE.line1,
        "line2": CPE.line2,
        "tilt_g1": tilt(CPE.line2, -adj.gamma1),
        "tilt_g2": tilt(CPE.line1, -adj.gamma2),
    }[which]


@pytest.mark.parametrize("name", sorted(DEFERRED))
def test_cpe_deferred_is_pinned(name):
    which, x, t, want = DEFERRED[name]
    line = _line(which)
    assert repr(line.driver.ruin_after(line.p, x, t)) == want


# integrand calls of each deferred pin: the panels are evaluated ahead, a
# batch of levels per call (one call per bisection took 7 to 14)
CALLS = {"line1": 1, "line2": 1, "line1_tilt_g2": 1, "line2_tilt_g1": 1,
         "line2_deep_k40": 6, "line2_tilt_g1_deep_k40": 5}


@pytest.mark.parametrize("name", sorted(DEFERRED))
def test_cpe_deferred_calls_and_domain(monkeypatch, name):
    """Few integrand calls, and every node inside the open interval."""
    limits, nodes = [], []
    real = models.integrate

    def watched(f, a, b, **kwargs):
        limits.append((a, b))

        def g(u):
            nodes.append(np.array(u, copy=True))
            return f(u)

        return real(g, a, b, **kwargs)

    monkeypatch.setattr(models, "integrate", watched)
    which, x, t, want = DEFERRED[name]
    line = _line(which)
    assert repr(line.driver.ruin_after(line.p, x, t)) == want
    [(a, b)] = limits
    assert 0 < len(nodes) <= CALLS[name]
    u = np.concatenate(nodes)
    assert ((a < u) & (u < b)).all()
