"""Quadrant geometry for the two-line process: the barrier crossing time,
the cone partition of initial-reserve rays, the ray exponent gamma(a),
the large-deviation rate function, and the quadrant exit rate.

Because both lines share one claim process, kappa_1 and kappa_2 differ
only by the premium gap: kappa_1'(theta) = kappa_2'(theta) + (p1 - p2).
That identity makes the slope description (a vs s_j, where a = x1/x2)
and the hitting-time description (T vs T_i = x_i / [-kappa_i'(-gamma_i)])
of the cones algebraically equivalent; ``classify`` computes both and
treats disagreement as an internal bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Literal

from .errors import ConfigError, InternalInconsistency, OutOfRange
from .models import AdjustmentData, TwoLineModel, _solved_once, adjustment, saddle

__all__ = [
    "RAY_TOL",
    "ConeLabel",
    "ConePartition",
    "crossing_time",
    "partition",
    "classify",
    "gamma_ray",
    "rate_function",
    "exit_rate",
]

# Relative half-width of the band around each separating ray inside which
# classification reports BoundaryRay instead of picking a side.
RAY_TOL = 1e-9

_SLOPE_CHECK_TOL = 1e-10


class ConeLabel(Enum):
    """Sector of the positive quadrant containing an initial-reserve ray."""

    D1 = "D1"
    D0 = "D0"
    D2 = "D2"
    D0_HAT = "D0_hat"
    D2_HAT = "D2_hat"
    BOUNDARY_RAY = "BoundaryRay"
    LOWER_CONE = "LowerCone"


@dataclass(frozen=True)
class ConePartition:
    """Slopes a = x1/x2 separating the asymptotic sectors.

    s1 bounds the sector where the first line dominates; s2 (simultaneous
    ruin) and s3 (joint ruin) bound the sector where the second does.
    ``d2_empty`` records whether the s2 sector degenerates to the axis.
    """

    s1: float
    s2: float
    s3: float
    d2_empty: bool


def crossing_time(x1: float, x2: float, p1: float, p2: float) -> float:
    """Time at which the barriers x1 + p1 t and x2 + p2 t cross, floored
    at zero: T = (x2 - x1)+ / (p1 - p2)."""
    if not p1 > p2:
        raise ConfigError(f"need p1 > p2, got p1={p1:g}, p2={p2:g}")
    if x2 <= x1:
        return 0.0
    return (x2 - x1) / (p1 - p2)


def partition(model2: TwoLineModel) -> ConePartition:
    """Cone slopes from the cumulant derivatives at the decay exponents,
    cross-checked against the elementary per-driver expressions.

    s_j = kappa_1'(-g)/kappa_2'(-g) evaluated at g = gamma_1, gamma_2,
    gamma_3.  The s2 ratio is meaningful only while kappa_1'(-gamma_2) <= 0;
    a positive derivative means even the steepest useful ray cannot make
    the second line dominate, the sector is empty, and s2 clamps to 0.
    """
    return _partition(model2, adjustment(model2))


@_solved_once
def _partition(model2: TwoLineModel, adj: AdjustmentData) -> ConePartition:
    l1, l2 = model2.line1, model2.line2

    def ratio(g: float) -> float:
        return l1.kappa_prime(-g) / l2.kappa_prime(-g)

    s1 = ratio(adj.gamma1)
    s2_raw = ratio(adj.gamma2)
    s3 = ratio(adj.gamma3)
    # >= 0: a vanishing derivative means the sector closes exactly at the
    # axis, and the ratio route returns -0.0 there
    d2_empty = l1.kappa_prime(-adj.gamma2) >= 0.0
    s2 = 0.0 if d2_empty else s2_raw
    if s2 - 1e-12 * max(1.0, abs(s2)) <= s3 < s2:
        s3 = s2  # rounding at the closing of the sector, where s3 -> s2

    cf1, cf2_raw, cf3 = model2.driver.cone_slopes(model2.p1, model2.p2, adj.gamma2, adj.gamma3)
    for got, want, name in ((s1, cf1, "s1"), (s2_raw, cf2_raw, "s2"), (s3, cf3, "s3")):
        if abs(got - want) > _SLOPE_CHECK_TOL * max(1.0, abs(want)):
            raise InternalInconsistency(
                f"slope {name}: derivative ratio {got!r} vs closed form {want!r}"
            )

    ordered = (0.0 <= s2 <= s3 < s1 < 1.0) if d2_empty else (0.0 < s2 < s1 < 1.0 and
                                                             abs(s2 - s3) <= 1e-12)
    ray_ratio = adj.gamma2 / adj.gamma1
    if not ordered or not (s2 < ray_ratio < s1):
        raise InternalInconsistency(
            f"slope ordering violated: s=({s1!r}, {s2!r}, {s3!r}), "
            f"gamma2/gamma1={ray_ratio!r}"
        )
    return ConePartition(s1=s1, s2=s2, s3=s3, d2_empty=d2_empty)


def classify(model2: TwoLineModel, x1: float, x2: float,
             partition_kind: Literal["sim", "and"] = "sim") -> ConeLabel:
    """Locate the reserve ray (x1, x2) in the cone partition.

    Classifies twice, by slope comparison and by the hitting-time
    comparison T vs T_i, and insists the answers agree; rays within
    RAY_TOL of a separating slope come back as BOUNDARY_RAY.
    """
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise OutOfRange(f"reserves must be finite, got ({x1:g}, {x2:g})")
    if not (x1 > 0.0 and x2 > 0.0):
        raise OutOfRange(f"need x1, x2 > 0, got ({x1:g}, {x2:g})")
    if x2 <= x1:
        return ConeLabel.LOWER_CONE
    return _classify(model2, adjustment(model2), x1, x2, partition_kind)


def _classify(model2: TwoLineModel, adj: AdjustmentData, x1: float, x2: float,
              partition_kind: str) -> ConeLabel:
    """``classify`` on the upper cone x2 > x1 > 0, with the model's
    adjustment data supplied by the caller."""
    part = _partition(model2, adj)
    a = x1 / x2
    low = part.s2 if partition_kind == "sim" else part.s3
    if partition_kind not in ("sim", "and"):
        raise ValueError(f"unknown partition kind {partition_kind!r}")
    for s in (part.s1, low):
        if abs(a - s) < RAY_TOL * max(1.0, s):
            return ConeLabel.BOUNDARY_RAY

    if a > part.s1:
        by_slope = ConeLabel.D1
    elif a > low:
        by_slope = ConeLabel.D0 if partition_kind == "sim" else ConeLabel.D0_HAT
    else:
        by_slope = ConeLabel.D2 if partition_kind == "sim" else ConeLabel.D2_HAT

    l1, l2 = model2.line1, model2.line2
    t_cross = crossing_time(x1, x2, model2.p1, model2.p2)
    t1 = x1 / (-l1.kappa_prime(-adj.gamma1))
    g_low = adj.gamma2 if partition_kind == "sim" else adj.gamma3
    t2 = x2 / (-l2.kappa_prime(-g_low))
    if t_cross < t1:
        by_time = ConeLabel.D1
    elif t_cross > t2:
        by_time = ConeLabel.D2 if partition_kind == "sim" else ConeLabel.D2_HAT
    else:
        by_time = ConeLabel.D0 if partition_kind == "sim" else ConeLabel.D0_HAT

    if by_time is not by_slope:
        raise InternalInconsistency(
            f"cone classification mismatch at a={a!r}: slope route {by_slope}, "
            f"time route {by_time}"
        )
    return by_slope


def gamma_ray(model2: TwoLineModel, a: float) -> float:
    """Decay exponent along the ray x = (a, 1)K:
    gamma(a) = kappa_2*(-v_a)/v_a with v_a = (p1 - p2)/(1 - a)."""
    if not (0.0 < a < model2.a_bar) or a == 1.0:
        raise OutOfRange(f"ray slope must lie in (0, {model2.a_bar:g}) \\ {{1}}, got {a:g}")
    v = (model2.p1 - model2.p2) / (1.0 - a)
    sd = saddle(model2.line2, v)
    return sd.kstar / v


def rate_function(model2: TwoLineModel, x1: float, x2: float) -> float:
    """Large-deviation cost |x2| gamma(x1/x2) of driving the scaled pair
    to the point (x1, x2) in the open negative quadrant.

    On the diagonal the ray exponent degenerates to the boundary of the
    exponential domain of the shared driver: gamma(1) = -theta_lower
    (claim-size decay rate for exponential claims, infinite for the
    Brownian driver whose transform is entire).
    """
    if not (x1 < 0.0 and x2 < 0.0):
        raise OutOfRange(f"rate function is defined on the open negative quadrant, "
                         f"got ({x1:g}, {x2:g})")
    a = x1 / x2
    if abs(a - 1.0) <= 1e-12:
        return abs(x2) * (-model2.line2.theta_lower)
    return abs(x2) * gamma_ray(model2, a)


def exit_rate(model2: TwoLineModel, a: float) -> float:
    """Exponential rate of the quadrant-exit probability from (a, 1)K:
    gamma_2 on (0, s2], gamma(a) inside the middle sector, a gamma_1
    beyond s1.  The three branches touch at the junction slopes."""
    if not math.isfinite(a):
        raise OutOfRange(f"ray slope must be finite, got {a:g}")
    if not a > 0.0:
        raise OutOfRange(f"ray slope must be positive, got {a:g}")
    adj = adjustment(model2)
    part = _partition(model2, adj)
    if a <= part.s2:
        return adj.gamma2
    if a >= part.s1:
        return a * adj.gamma1
    return gamma_ray(model2, a)
