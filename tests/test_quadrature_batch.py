"""The batched Gauss-Kronrod sums and the cached first-call nodes.

``integrate`` sums the panels of one integrand call together, as a stack
of 1x15 by 15x1 products.  numpy sends each of those to the same dot
kernel as ``np.dot`` of two vectors, so every panel keeps its float; the
2-D matrix-vector form does not (its summation order differs).  The
nodes of the first call on an interval are kept across calls, so the
integrand gets them read-only.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_quadrature_oracle import oracle, outcome

from ruin2d import numerics
from ruin2d.numerics import _WG_FULL, _WK, _evaluate, _first_call, _geometry, integrate


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 127), seed=st.integers(0, 2**32 - 1), zero_share=st.floats(0.0, 0.5))
def test_stacked_products_equal_np_dot(k, seed, zero_share):
    """Signed values of magnitude 2^-60 to 2^60, some rows all zero."""
    rng = np.random.default_rng(seed)
    y = rng.choice([-1.0, 1.0], (k, 15)) * np.exp2(rng.uniform(-60.0, 60.0, (k, 15)))
    y[rng.random(k) < zero_share] = 0.0
    for w in (_WK, _WG_FULL):
        want = _bits([np.dot(w, row) for row in y])
        assert (_bits(np.matmul(y.reshape(k, 1, 15), w[:, None])[:, 0, 0]) == want).all()

    # _evaluate on panels of half-width 1, which scales no product
    spans = [(2.0 * j, 2.0 * j + 2.0) for j in range(k)]
    values = {}
    _evaluate(lambda x: y.ravel(), _geometry(spans), values)
    for span, row in zip(spans, y):
        kron, gauss = float(np.dot(_WK, row)), float(np.dot(_WG_FULL, row))
        assert _bits(values[span]).tolist() == _bits((kron, abs(kron - gauss))).tolist()


def test_integrand_gets_read_only_nodes():
    a, b = 0.0, 2.0 + math.pi
    writable = []

    def spy(x):
        writable.append(x.flags.writeable)
        return np.sqrt(x)

    integrate(spy, a, b, tol=1e-13)  # bisects towards 0, past the first call
    assert len(writable) > 1 and not any(writable)

    def vandal(x):
        x *= 2.0
        return x

    with pytest.raises(ValueError):
        integrate(vandal, a, b)
    # the cached nodes are untouched: a later integral on the interval
    # still takes every float of the one-panel-at-a-time oracle
    for tol in (1e-8, 1e-12):
        assert outcome(integrate, _damped, a, b, tol) == outcome(oracle, _damped, a, b, tol)


def _damped(x):
    return np.exp(-0.3 * x) * np.sin(7.0 * x)


def test_first_call_cache_is_bounded_and_keeps_geometry_only():
    assert 0 < _first_call.cache_info().maxsize <= 64
    spans, x, half = _first_call(0.0, 0.5 * math.pi)
    assert len(spans) == 2 ** (numerics._FIRST_DEPTH + 1) - 1
    assert x.shape == (15 * len(spans),) and half.shape == (len(spans),)
    assert not (x.flags.writeable or half.flags.writeable)
    # no value is kept: the same interval with another integrand is
    # integrated afresh
    for f in (np.cos, _damped):
        assert outcome(integrate, f, 0.0, 0.5 * math.pi, 1e-12) == \
            outcome(oracle, f, 0.0, 0.5 * math.pi, 1e-12)
