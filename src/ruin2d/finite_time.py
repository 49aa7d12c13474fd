"""Single-line ruin probabilities: exact finite-time values and the
conditional limit laws of the reserve position.

Exact finite-time ruin is available for the two concrete drivers.  For
compound Poisson / exponential claims the probability is the classical
inversion integral over the spectral band [s-, s+],

    psi(x, t) = C e^{-gamma x} * 1{gamma > 0} - w(x, t),
    w(x, t)   = (1/pi) sqrt(lam/(mu p)) *
                int_{s-}^{s+} e^{a(q)x - qt} sin(b(q)x + phi(q)) dq / q,

where s+- = (sqrt(lam) +- sqrt(mu p))^2, phi(q) ranges over [0, pi] and
a, b are elementary in q.  (The phase enters with a plus sign; the
substitution q = s- + (s+ - s-) sin^2(u) both removes the square-root
vanishing of b at the endpoints and turns phi into exactly 2u, which is
how the driver row evaluates the integrand.  The t -> 0 limit then reproduces
C e^{-gamma x} identically, a property the tests pin down.)  For the
Brownian driver the reflection formula gives a closed form valid for
either drift sign.  Both are rows of the driver table in ``models``;
``finite_ruin`` and ``ruin_after`` here validate, call the row and clamp.
Every function takes a ``LineModel``; a tilted line ``tilt(line, c)`` is one.

w(x, t) = P(t < tau < infinity) is exposed directly as ``ruin_after``
because the two-line decompositions need it without cancellation.

``limit_law`` builds the limiting conditional densities of X(t) on the
ray x = vt.  The large-time law of psi(x, t) itself (Hoglund 1990) is not
a route here; the tests keep it as an oracle for ``finite_ruin``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

from .errors import (
    BoundaryVelocity,
    InternalInconsistency,
    OutOfRange,
    UnsupportedDriver,
)
from .models import LineModel, _zeta_and_constant, saddle

__all__ = [
    "FiniteRuinResult",
    "LimitLaw",
    "ultimate_ruin",
    "finite_ruin",
    "ruin_after",
    "limit_law",
]

# Relative half-width of the refusal band around a branch velocity.
_VELOCITY_BAND = 1e-6


def _as_line(model: LineModel) -> LineModel:
    if isinstance(model, LineModel):
        return model
    raise UnsupportedDriver(f"expected a line model, got {type(model).__name__}")


@dataclass(frozen=True)
class FiniteRuinResult:
    """A finite-time ruin probability with its evaluation pedigree."""

    value: float
    method: Literal["exact_cpe", "exact_brownian"]
    quad_err: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.value <= 1.0):
            raise InternalInconsistency(f"probability {self.value!r} outside [0, 1]")
        if self.quad_err < 0.0:
            raise InternalInconsistency("quadrature error must be nonnegative")


@dataclass(frozen=True)
class LimitLaw:
    """Limiting conditional law of X(t) on the ray x = vt (survival or
    ruin conditioning), a combination of exponential flanks determined
    by the saddle point and its conjugate."""

    side: Literal["survival", "ruin"]
    v: float
    theta_v: float
    theta_conj: float
    c_v: float
    pdf: Callable[[float], float]
    cdf: Callable[[float], float]


def _guard_velocity(v: float, boundary: float, what: str) -> None:
    if abs(v - boundary) <= _VELOCITY_BAND * max(1.0, abs(boundary)):
        raise BoundaryVelocity(
            f"velocity {v:g} within the guard band of {what} = {boundary:g}"
        )


def ultimate_ruin(model: LineModel, x: float) -> float:
    """Probability of ever hitting 0 from reserve x: C e^{-gamma x} under
    net profit, 1 otherwise."""
    line = _as_line(model)
    line.theta_lower  # refuses the renewal driver first
    if not 0.0 <= x < math.inf:
        raise OutOfRange(f"reserve must be finite and nonnegative, got {x:g}")
    gamma, c = _zeta_and_constant(line)
    return c * math.exp(-gamma * x)


def ruin_after(model: LineModel, x: float, t: float) -> FiniteRuinResult:
    """P(t < tau < infinity): ruin strictly after time t.

    Computed directly (not as a difference of ruin probabilities), so it
    stays accurate when it is exponentially smaller than either one.
    """
    line = _line_at(model, x, t)
    return _result(line, *line.driver.ruin_after(line.p, x, t))


def _line_at(model: LineModel, x: float, t: float) -> LineModel:
    line = _as_line(model)
    if not (0.0 <= x < math.inf and 0.0 < t < math.inf):
        raise OutOfRange(f"need finite x >= 0 and t > 0, got x={x:g}, t={t:g}")
    return line


def _result(line: LineModel, value: float, err: float) -> FiniteRuinResult:
    """A driver row's (value, err), clamped into [0, 1] unless the value
    lies outside by more than its error bound."""
    if not 0.0 <= value <= 1.0:
        slack = 10.0 * err + 1e-13
        if value < -slack or value > 1.0 + slack:
            raise InternalInconsistency(
                f"value {value!r} outside [0, 1] by more than the error bound {err:g}"
            )
        value = min(max(value, 0.0), 1.0)
    return FiniteRuinResult(value=value, method=line.driver.method, quad_err=err)


def finite_ruin(model: LineModel, x: float, t: float) -> FiniteRuinResult:
    """Ruin probability by time t from reserve x, exact per driver.

    Exponential-claim lines use the spectral integral, Brownian lines the
    reflection formula; the renewal driver has no exact finite-time
    transform here and is refused.
    """
    line = _line_at(model, x, t)
    return _result(line, *line.driver.finite_ruin(line.p, x, t))


def limit_law(model: LineModel, v: float, side: Literal["survival", "ruin"]) -> LimitLaw:
    """Limiting law of X(t) on x = vt conditioned on survival past t or
    on ruin before t.

    Survival conditioning requires the saddle pair to satisfy
    theta'_v > theta_v > 0 (possible only under negative drift and
    v < -kappa'(0)); ruin conditioning requires theta_v < 0 < theta'_v.
    Violations raise OutOfRange rather than returning a signed "density".
    """
    if side not in ("survival", "ruin"):
        raise OutOfRange(f"unknown side {side!r}")
    line = _as_line(model)
    sd = saddle(line, v)
    th, thc = sd.theta_v, sd.theta_conj
    c_v = (thc - th) / (th * thc) if th != 0.0 and thc != 0.0 else math.nan
    if side == "survival":
        if not (thc > th > 0.0):
            raise OutOfRange(
                f"survival conditioning needs theta'_v > theta_v > 0, got "
                f"theta_v={th:g}, theta'_v={thc:g}"
            )

        def pdf(y: float) -> float:
            if y <= 0.0:
                return 0.0
            return (math.exp(-th * y) - math.exp(-thc * y)) / c_v

        def cdf(y: float) -> float:
            if y <= 0.0:
                return 0.0
            return ((1.0 - math.exp(-th * y)) / th - (1.0 - math.exp(-thc * y)) / thc) / c_v

        return LimitLaw(side=side, v=v, theta_v=th, theta_conj=thc, c_v=c_v, pdf=pdf, cdf=cdf)

    if not (th < 0.0 < thc):
        raise OutOfRange(
            f"ruin conditioning needs theta_v < 0 < theta'_v, got "
            f"theta_v={th:g}, theta'_v={thc:g}"
        )
    a = abs(c_v)
    mass_neg = 1.0 / (-th) / a  # P(limit < 0)

    def pdf(y: float) -> float:
        return math.exp(-thc * y) / a if y > 0.0 else math.exp(-th * y) / a

    def cdf(y: float) -> float:
        if y <= 0.0:
            return math.exp(-th * y) / (-th) / a
        return mass_neg + (1.0 - math.exp(-thc * y)) / thc / a

    return LimitLaw(side=side, v=v, theta_v=th, theta_conj=thc, c_v=c_v, pdf=pdf, cdf=cdf)
