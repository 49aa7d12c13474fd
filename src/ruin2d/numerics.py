"""Scalar numerical primitives shared by the rest of the package.

Three tools live here: bracketed root solving (bisection with a secant
polish), adaptive panel quadrature built on a fixed 7/15 Gauss-Kronrod
pair, and the standard normal CDF in linear and log form.  Everything is
deliberately boring; the interesting mathematics happens in the callers.
"""

from __future__ import annotations

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


def _gk_sums(h: float, y: np.ndarray) -> tuple[float, float]:
    """Kronrod value and Gauss/Kronrod defect of one panel of half-width h
    from its 15 integrand values."""
    k = h * float(np.dot(_WK, y))
    g = h * float(np.dot(_WG_FULL, y))
    return k, abs(k - g)


def _gk_panel(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod 7/15 evaluation on [a, b]: (value, error estimate)."""
    h = 0.5 * (b - a)
    return _gk_sums(h, np.asarray(f(0.5 * (a + b) + h * _NODES), dtype=float))


def _gk_pair(f: Callable[[np.ndarray], np.ndarray], lo: float, mid: float,
             hi: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """``_gk_panel`` on [lo, mid] and on [mid, hi], from one call of ``f``
    on the 30 nodes of both halves.  The nodes and the sums are those of
    two separate panels, so both results are the same floats."""
    h1, h2 = 0.5 * (mid - lo), 0.5 * (hi - mid)
    x = np.concatenate((0.5 * (lo + mid) + h1 * _NODES, 0.5 * (mid + hi) + h2 * _NODES))
    y = np.asarray(f(x), dtype=float)
    return _gk_sums(h1, y[:15]), _gk_sums(h2, y[15:])


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    tol: float = 1e-10,
    max_panels: int = 200,
) -> tuple[float, float]:
    """Adaptively integrate ``f`` over ``[a, b]`` to absolute tolerance.

    ``f`` must accept a numpy array of abscissae and return values of the
    same shape, each depending on its own abscissa only: the first panel
    passes 15 nodes, and each bisection passes the 30 nodes of both
    halves in one call.  Returns ``(value, err_est)`` where ``err_est`` is the
    final conservative error bound (the summed Gauss/Kronrod defects).
    The worst panel is bisected until the bound drops below ``tol``;
    exceeding ``max_panels`` splits raises MaxIterations.
    """
    if a == b:
        return 0.0, 0.0
    if b < a:
        v, e = integrate(f, b, a, tol=tol, max_panels=max_panels)
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


def normal_quantile(q: float) -> float:
    """Inverse standard normal CDF for q in (0, 1)."""
    if not 0.0 < q < 1.0:
        raise ValueError("quantile level must lie in (0, 1)")
    return root_solve(lambda z: normal_cdf(z) - q, -13.0, 13.0, tol=1e-13)
