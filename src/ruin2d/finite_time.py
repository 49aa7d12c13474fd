"""Single-line ruin probabilities: exact finite-time values, large-time
asymptotics, and the conditional limit laws of the reserve position.

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
how the integrand is evaluated here.  The t -> 0 limit then reproduces
C e^{-gamma x} identically, a property the tests pin down.)  For the
Brownian driver the reflection formula gives a closed form valid for
either drift sign.

w(x, t) = P(t < tau < infinity) is exposed directly as ``ruin_after``
because the two-line decompositions need it without cancellation.

The large-deviation switch between the Cramer branch C e^{-zeta x} and
the saddle-point branch |D(v)| t^{-1/2} e^{-t kappa*(-v)} lives in
``ah_branches``/``ah_asymptotic``, and ``limit_law`` builds the limiting
conditional densities of X(t) on the ray x = vt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, Union

import numpy as np

from .errors import (
    BoundaryVelocity,
    InternalInconsistency,
    OutOfRange,
    UnsupportedDriver,
)
from .models import (
    CompoundPoissonExp,
    LineModel,
    Renewal,
    StandardBrownian,
    TiltedModel,
    line_adjustment,
    saddle,
)
from .numerics import integrate, normal_cdf, normal_logcdf

__all__ = [
    "FiniteRuinResult",
    "AhAsymptotics",
    "LimitLaw",
    "ultimate_ruin",
    "finite_ruin",
    "ruin_after",
    "ah_branches",
    "ah_asymptotic",
    "ah_ruin_after",
    "limit_law",
]

_VELOCITY_BAND = 1e-6

ModelLike = Union[LineModel, TiltedModel]


def _as_line(model: ModelLike) -> LineModel:
    if isinstance(model, TiltedModel):
        return model.model
    if isinstance(model, LineModel):
        return model
    raise UnsupportedDriver(f"expected a line model, got {type(model).__name__}")


@dataclass(frozen=True)
class FiniteRuinResult:
    """A finite-time ruin probability with its evaluation pedigree."""

    value: float
    method: Literal["exact_cpe", "exact_brownian", "ah_asymptotic"]
    quad_err: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.value <= 1.0):
            raise InternalInconsistency(f"probability {self.value!r} outside [0, 1]")
        if self.quad_err < 0.0:
            raise InternalInconsistency("quadrature error must be nonnegative")


@dataclass(frozen=True)
class AhAsymptotics:
    """Both large-time branches of psi(x, t) at velocity v = x/t.

    ``cramer`` is C e^{-zeta x}; ``saddle`` is the local-limit value
    |D(v)| t^{-1/2} e^{-t kappa*(-v)}.  ``regime`` names the branch that
    approximates psi(x, t); the deferred-ruin mass w(x, t) follows the
    opposite branch.
    """

    v: float
    critical_velocity: float
    regime: Literal["cramer", "saddle"]
    cramer: float
    saddle: float
    zeta: float
    C: float


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


def _zeta_and_constant(line: LineModel) -> tuple[float, float]:
    """Decay exponent zeta = -min{theta : kappa(theta) = 0} and its
    prefactor: (gamma, C) under net profit, (0, 1) otherwise."""
    if line.drift > 0.0:
        return line_adjustment(line)
    return 0.0, 1.0


def ultimate_ruin(model: ModelLike, x: float) -> float:
    """Probability of ever hitting 0 from reserve x: C e^{-gamma x} under
    net profit, 1 otherwise."""
    line = _as_line(model)
    if isinstance(line.driver, Renewal):
        raise UnsupportedDriver("ultimate ruin is exact only for Levy drivers")
    if not 0.0 <= x < math.inf:
        raise OutOfRange(f"reserve must be finite and nonnegative, got {x:g}")
    if line.drift <= 0.0:
        return 1.0
    gamma, c = line_adjustment(line)
    return c * math.exp(-gamma * x)


def _exp_cdf(logcoef: float, z: float) -> float:
    """exp(logcoef) * Phi(z), assembled in log space so a huge coefficient
    against a tiny tail cannot overflow."""
    s = logcoef + normal_logcdf(z)
    return math.exp(s) if s < 700.0 else math.inf


def _brownian_finite(line: LineModel, x: float, t: float) -> float:
    p = line.p
    rt = math.sqrt(t)
    return normal_cdf(-(x + p * t) / rt) + _exp_cdf(-2.0 * p * x, (-x + p * t) / rt)


def _brownian_after(line: LineModel, x: float, t: float) -> float:
    p = line.p
    rt = math.sqrt(t)
    if p > 0.0:
        val = _exp_cdf(-2.0 * p * x, (x - p * t) / rt) - normal_cdf(-(x + p * t) / rt)
    else:
        val = 1.0 - _brownian_finite(line, x, t)
    return max(val, 0.0)


def _cpe_band(lam: float, mu: float, p: float) -> tuple[float, float]:
    sm = (math.sqrt(lam) - math.sqrt(mu * p)) ** 2
    sp = (math.sqrt(lam) + math.sqrt(mu * p)) ** 2
    return sm, sp


def _cpe_deferred(line: LineModel, x: float, t: float) -> tuple[float, float]:
    """The deferred-ruin integral w(x, t) for the compound Poisson line,
    with the integrand rescaled by its peak so deep-tail values keep
    relative accuracy.  Returns (value, error bound)."""
    d = line.driver
    lam, mu, p = d.lam, d.mu, line.p
    if abs(p - lam / mu) <= 1e-12 * p:
        raise BoundaryVelocity("zero safety loading: the spectral band touches the origin")
    sm, sp = _cpe_band(lam, mu, p)
    width = sp - sm
    # Exponent a(q)x - qt is decreasing in q, so its peak sits at q = s-.
    peak = (lam - mu * p - sm) / (2.0 * p) * x - sm * t

    def integrand(u: np.ndarray) -> np.ndarray:
        s2u = np.sin(2.0 * u)
        q = sm + width * np.sin(u) ** 2
        expo = (lam - mu * p - q) / (2.0 * p) * x - q * t - peak
        phase = (width / (4.0 * p)) * s2u * x + 2.0 * u
        return np.exp(expo) * np.sin(phase) * width * s2u / q

    # Integrate the unit-peak integrand to 1e-12 absolute; the bound then
    # scales by exp(peak) <= 1 in the net-profit regime and by the true
    # peak otherwise.
    raw, raw_err = integrate(integrand, 0.0, 0.5 * math.pi, tol=1e-12)
    scale = math.exp(peak) / math.pi * math.sqrt(lam / (mu * p))
    return raw * scale, raw_err * scale


def ruin_after(model: ModelLike, x: float, t: float) -> FiniteRuinResult:
    """P(t < tau < infinity): ruin strictly after time t.

    Computed directly (not as a difference of ruin probabilities), so it
    stays accurate when it is exponentially smaller than either one.
    """
    line = _as_line(model)
    if not (0.0 <= x < math.inf and 0.0 < t < math.inf):
        raise OutOfRange(f"need finite x >= 0 and t > 0, got x={x:g}, t={t:g}")
    if isinstance(line.driver, CompoundPoissonExp):
        w, err = _cpe_deferred(line, x, t)
        return FiniteRuinResult(value=_clamp_prob(w, err), method="exact_cpe", quad_err=err)
    if isinstance(line.driver, StandardBrownian):
        return FiniteRuinResult(value=_brownian_after(line, x, t),
                                method="exact_brownian", quad_err=0.0)
    raise UnsupportedDriver("deferred ruin is exact only for Levy drivers")


def _clamp_prob(value: float, err: float) -> float:
    slack = 10.0 * err + 1e-13
    if value < -slack or value > 1.0 + slack:
        raise InternalInconsistency(
            f"value {value!r} outside [0, 1] by more than the error bound {err:g}"
        )
    return min(max(value, 0.0), 1.0)


def finite_ruin(model: ModelLike, x: float, t: float) -> FiniteRuinResult:
    """Ruin probability by time t from reserve x, exact per driver.

    Exponential-claim lines use the spectral integral, Brownian lines the
    reflection formula; the renewal driver has no exact finite-time
    transform here and is refused.
    """
    line = _as_line(model)
    if not (0.0 <= x < math.inf and 0.0 < t < math.inf):
        raise OutOfRange(f"need finite x >= 0 and t > 0, got x={x:g}, t={t:g}")
    d = line.driver
    if isinstance(d, CompoundPoissonExp):
        w, err = _cpe_deferred(line, x, t)
        if line.drift > 0.0:
            gamma, c = line_adjustment(line)
            raw = c * math.exp(-gamma * x) - w
        else:
            raw = 1.0 - w
        return FiniteRuinResult(value=_clamp_prob(raw, err), method="exact_cpe", quad_err=err)
    if isinstance(d, StandardBrownian):
        return FiniteRuinResult(value=_clamp_prob(_brownian_finite(line, x, t), 0.0),
                                method="exact_brownian", quad_err=0.0)
    raise UnsupportedDriver("finite-time ruin is exact only for Levy drivers")


def ah_branches(model: ModelLike, x: float, t: float) -> AhAsymptotics:
    """Evaluate both large-time branches of psi(x, t) at v = x/t.

    The Cramer branch dominates for v below the critical velocity
    -kappa'(-zeta); beyond it the probability is carried by paths moving
    at atypical speed and the saddle-point branch takes over.  Exactly on
    the critical ray the expansion constants degenerate, so a relative
    guard band of 1e-6 refuses the call.
    """
    line = _as_line(model)
    if not (0.0 < x < math.inf and 0.0 < t < math.inf):
        raise OutOfRange(f"need finite x > 0 and t > 0, got x={x:g}, t={t:g}")
    v = x / t
    zeta, c = _zeta_and_constant(line)
    w_c = -line.kappa_prime(-zeta)
    if abs(v - w_c) <= _VELOCITY_BAND * max(1.0, w_c):
        raise BoundaryVelocity(
            f"velocity {v:g} within the guard band of the critical velocity {w_c:g}"
        )
    sd = saddle(line, v)
    c_v = (sd.theta_conj - sd.theta_v) / (sd.theta_v * sd.theta_conj)
    saddle_val = abs(c_v) / math.sqrt(2.0 * math.pi * sd.kpp * t) * math.exp(-t * sd.kstar)
    return AhAsymptotics(
        v=v,
        critical_velocity=w_c,
        regime="cramer" if v < w_c else "saddle",
        cramer=c * math.exp(-zeta * x),
        saddle=saddle_val,
        zeta=zeta,
        C=c,
    )


def ah_asymptotic(model: ModelLike, x: float, t: float) -> FiniteRuinResult:
    """Large-time approximation of psi(x, t), regime-correct branch."""
    br = ah_branches(model, x, t)
    value = br.cramer if br.regime == "cramer" else br.saddle
    return FiniteRuinResult(value=min(max(value, 0.0), 1.0),
                            method="ah_asymptotic", quad_err=0.0)


def ah_ruin_after(model: ModelLike, x: float, t: float) -> float:
    """Large-time approximation of w(x, t) = P(t < tau < inf); it follows
    the branch complementary to psi's."""
    br = ah_branches(model, x, t)
    return br.saddle if br.regime == "cramer" else br.cramer


def limit_law(model: ModelLike, v: float, side: Literal["survival", "ruin"]) -> LimitLaw:
    """Limiting law of X(t) on x = vt conditioned on survival past t or
    on ruin before t.

    Survival conditioning requires the saddle pair to satisfy
    theta'_v > theta_v > 0 (possible only under negative drift and
    v < -kappa'(0)); ruin conditioning requires theta_v < 0 < theta'_v.
    Violations raise OutOfRange rather than returning a signed "density".
    """
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

    if side == "ruin":
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

    raise ValueError(f"unknown side {side!r}")
