"""Scalar numerical primitives shared by the rest of the package.

Three tools live here: bracketed root solving (bisection with a secant
polish), adaptive panel quadrature built on a fixed 7/15 Gauss-Kronrod
pair, and the standard normal CDF in linear and log form.  Everything is
deliberately boring; the interesting mathematics happens in the callers.

The quadrature evaluates its integrand ahead, on the panels of the next
few levels of bisection in one call, so an integrand must be elementwise
in its abscissae and finite on the open interval of integration, and it
may be evaluated on panels that the adaptive loop never uses.  The nodes
it gets are read-only, and the panel sums of one call are taken together.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .errors import MaxIterations, NoSignChange

__all__ = [
    "root_solve",
    "integrate",
    "normal_cdf",
    "normal_logcdf",
    "normal_quantile",
]


def root_solve(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Locate a root of ``f`` inside the bracket ``[lo, hi]``.

    Plain bisection narrows the bracket to width ``tol``, then a few
    secant steps polish the result to close to machine precision.  The
    returned point always lies inside the original bracket.

    Raises NoSignChange if ``f(lo)`` and ``f(hi)`` have the same sign,
    MaxIterations if the bracket cannot be narrowed within the budget.
    """
    if not (hi > lo):
        raise ValueError(f"invalid bracket [{lo}, {hi}]")
    a, b = float(lo), float(hi)
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise NoSignChange(f"f({a})={fa:g} and f({b})={fb:g} have equal sign")

    for _ in range(max_iter):
        if (b - a) <= tol:
            break
        m = 0.5 * (a + b)
        if m <= a or m >= b:  # bracket hit floating-point resolution
            break
        fm = f(m)
        if fm == 0.0:
            return m
        if math.copysign(1.0, fm) == math.copysign(1.0, fa):
            a, fa = m, fm
        else:
            b, fb = m, fm
    else:
        raise MaxIterations(f"bracket still {b - a:g} wide after {max_iter} bisections")

    # Secant polish.  The iterate is clamped to the final bracket, so a
    # wild step can never leave the sign-change interval.
    x0, f0 = a, fa
    x1, f1 = b, fb
    best_x, best_f = (x0, abs(f0)) if abs(f0) < abs(f1) else (x1, abs(f1))
    for _ in range(6):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not (a <= x2 <= b):
            x2 = 0.5 * (a + b)
        f2 = f(x2)
        if abs(f2) < best_f:
            best_x, best_f = x2, abs(f2)
        if f2 == 0.0:
            break
        x0, f0, x1, f1 = x1, f1, x2, f2
    return best_x


# 7-point Gauss / 15-point Kronrod pair on [-1, 1] (QUADPACK constants).
_XGK = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)
# All 15 Kronrod abscissae and weights, plus Gauss weights aligned to the
# embedded nodes (zero where the node is Kronrod-only).
_NODES = np.concatenate([-_XGK[:7], _XGK[::-1]])
_WK = np.concatenate([_WGK[:7], _WGK[::-1]])
_wg_full = np.zeros(15)
_wg_full[1:15:2] = np.concatenate([_WG[:3], _WG[::-1]])
_WG_FULL = _wg_full
del _wg_full


# Levels of bisection evaluated ahead: below the whole interval on the
# first call of the integrand, and below a panel whose halves are missing.
_FIRST_DEPTH = 5
_AHEAD_DEPTH = 1
_MAX_SPLITS = 200  # bisections before integrate refuses with MaxIterations


def _panels_below(lo: float, hi: float, depth: int) -> list[tuple[float, float]]:
    """The panels of the first ``depth`` levels of bisection of [lo, hi],
    each with the midpoint floats the loop of ``integrate`` gives it.  A
    panel at floating-point resolution is not bisected."""
    spans: list[tuple[float, float]] = []
    level = [(lo, hi)]
    for _ in range(depth):
        below = []
        for l, h in level:
            m = 0.5 * (l + h)
            if l < m < h:
                below += [(l, m), (m, h)]
        spans += below
        level = below
    return spans


def _geometry(spans: list[tuple[float, float]]) -> tuple[tuple, np.ndarray, np.ndarray]:
    """``spans``, their 15 nodes each in one read-only array, and their half-widths."""
    centre = np.array([0.5 * (lo + hi) for lo, hi in spans])
    half = np.array([0.5 * (hi - lo) for lo, hi in spans])
    x = (centre[:, None] + half[:, None] * _NODES).ravel()
    x.flags.writeable = half.flags.writeable = False
    return tuple(spans), x, half


@functools.lru_cache(maxsize=8)
def _first_call(a: float, b: float) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The first call's geometry on [a, b]: it and ``_FIRST_DEPTH`` levels of bisection."""
    return _geometry([(a, b), *_panels_below(a, b, _FIRST_DEPTH)])


def _evaluate(f: Callable[[np.ndarray], np.ndarray],
              geometry: tuple[tuple, np.ndarray, np.ndarray],
              values: dict[tuple[float, float], tuple[float, float]]) -> None:
    """Store in ``values`` the Kronrod value and Gauss/Kronrod defect of
    each panel of ``geometry``, from one call of ``f`` on all its nodes.
    A stacked 1x15 by 15x1 product gives each panel's ``np.dot`` float."""
    spans, x, half = geometry
    y = np.asarray(f(x), dtype=float).reshape(len(spans), 1, 15)
    k = half * np.matmul(y, _WK[:, None])[:, 0, 0]
    g = half * np.matmul(y, _WG_FULL[:, None])[:, 0, 0]
    values.update(zip(spans, zip(k.tolist(), np.abs(k - g).tolist())))


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    tol: float = 1e-10,
) -> tuple[float, float]:
    """Adaptively integrate ``f`` over ``[a, b]`` to absolute tolerance.

    ``f`` must accept a numpy array of abscissae and return values of the
    same shape, each depending on its own abscissa only and finite on the
    open interval (a, b).  It is evaluated ahead of the loop: the first
    call passes the 15 nodes of each panel of the whole interval and its
    first 5 levels of bisection (63 panels, 945 nodes), and a bisection
    whose halves are missing passes the 30 nodes of those two halves, so
    ``f`` also sees panels the loop never uses.  The array ``f`` gets is
    read-only, as the first call's nodes are kept for the next integral
    on [a, b]; writing into it raises ValueError.  The panel sums of one
    call are taken together, each the float of one ``np.dot``.  Returns
    ``(value, err_est)`` where ``err_est`` is the final conservative
    error bound (the summed Gauss/Kronrod defects).  The worst panel is
    bisected until the bound drops below ``tol``; exceeding
    ``_MAX_SPLITS`` splits raises MaxIterations, and so do panels with no
    float strictly inside once their defects alone exceed ``tol``; a
    limit that is not finite raises ValueError.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integration limits must be finite, got [{a}, {b}]")
    if a == b:
        return 0.0, 0.0
    if b < a:
        v, e = integrate(f, b, a, tol=tol)
        return -v, e

    values: dict[tuple[float, float], tuple[float, float]] = {}  # (lo, hi) -> (value, defect)
    _evaluate(f, _first_call(a, b), values)
    panels: list[tuple[float, float, float, float]] = []  # (-err, lo, hi, value)
    v, e = values.pop((a, b))
    panels.append((-e, a, b, v))
    # panels with no float strictly inside: set aside, their defects counted
    unsplit: list[tuple[float, float, float, float]] = []
    unsplit_err = 0.0
    for _ in range(_MAX_SPLITS):
        total_err = -sum(p[0] for p in panels) + unsplit_err
        if total_err <= tol:
            break
        panels.sort()  # worst (most negative first entry) panel first
        worst = panels.pop(0)
        _, lo, hi, v = worst
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            unsplit.append(worst)
            unsplit_err -= worst[0]
            if unsplit_err > tol:
                raise MaxIterations(f"quadrature error {unsplit_err:g} above tol {tol:g} "
                                    "on panels at floating-point resolution")
            continue
        if (lo, mid) not in values:
            _evaluate(f, _geometry(_panels_below(lo, hi, _AHEAD_DEPTH)), values)
        for l, h in ((lo, mid), (mid, hi)):
            v, e = values.pop((l, h))
            panels.append((-e, l, h, v))
    else:
        total_err = -sum(p[0] for p in panels) + unsplit_err
        if total_err > tol:
            raise MaxIterations(
                f"quadrature error {total_err:g} above tol {tol:g} after {_MAX_SPLITS} panel splits"
            )

    panels += unsplit
    value = math.fsum(p[3] for p in panels)
    err = -math.fsum(p[0] for p in panels)
    return value, err


_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def normal_cdf(z: float) -> float:
    """Standard normal CDF, accurate to ~1e-16 absolute via erfc."""
    return 0.5 * math.erfc(-z / _SQRT2)


def normal_logcdf(z: float) -> float:
    """log of the standard normal CDF, stable far into the left tail.

    Below z = -34 the direct CDF underflows relative precision, so the
    asymptotic Mills-ratio series takes over; five terms give full
    double accuracy there.
    """
    if z > -34.0:
        return math.log(normal_cdf(z))
    zz = z * z
    r = 1.0 / zz
    # Phi(z) = phi(z)/(-z) * (1 - 1/z^2 + 3/z^4 - 15/z^6 + 105/z^8 - ...)
    series = 1.0 + r * (-1.0 + r * (3.0 + r * (-15.0 + r * 105.0)))
    return -0.5 * zz - math.log(-z) - _LOG_SQRT_2PI + math.log(series)


def _exp_cdf(logcoef: float, z: float) -> float:
    """exp(logcoef) * Phi(z), assembled in log space so a huge coefficient
    against a tiny tail cannot overflow."""
    s = logcoef + normal_logcdf(z)
    return math.exp(s) if s < 700.0 else math.inf


@functools.lru_cache(maxsize=64)
def normal_quantile(q: float) -> float:
    """Inverse standard normal CDF for q in (0, 1), solved once per level
    (a run asks for the same few levels on every estimate)."""
    if not 0.0 < q < 1.0:
        raise ValueError("quantile level must lie in (0, 1)")
    return root_solve(lambda z: normal_cdf(z) - q, -13.0, 13.0, tol=1e-13)
