"""Claim drivers, line models and their cumulant machinery.

A *line* is a reserve process ``x + p*t - S(t)`` where ``S`` is a claim
driver shared by both lines of the business.  Three drivers are
supported:

* ``CompoundPoissonExp``: compound Poisson claims at rate ``lam`` with
  exponential sizes of rate ``mu`` (mean ``1/mu``),
* ``StandardBrownian``: standard Brownian motion (a diffusion limit),
* ``Renewal``: claims of arbitrary distribution at renewal epochs; only
  Lundberg exponents and simulation are available for it.

The cumulant of a line is ``kappa(theta) = log E exp(theta*(p - S(1)))``
per unit time.  Everything downstream (finite-time expansions, cone
partitions, two-line decompositions) is expressed through ``kappa``, its
derivatives, its Legendre transform and exponential tilting, so those
live here.  Closed forms are authoritative for the two concrete drivers;
a bracketed root solve runs alongside them and any disagreement beyond
1e-10 raises InternalInconsistency rather than silently picking a side.
``line_adjustment``, ``adjustment``, ``renewal_adjustment`` and ``saddle``
keep their results per argument key in a bounded LRU cache, so each
model's constants are solved, and cross-checked, on the first call only;
the two ``DistSpec`` builders are kept so too, so equal renewal drivers
compare equal.  Within one ``cli.run`` the spectral integral of
``CompoundPoissonExp.ruin_after`` is kept per (driver, p, x, t) as well.

Each driver class is one row of the driver table, so the generic code
never branches on the driver type to pick a formula.  Every method takes
the premium rate ``p`` where the quantity depends on it:

* ``theta_lower``: lower end of the cumulant domain,
* ``kappa``, ``kappa_prime``, ``kappa_double_prime``, ``kappa_triple``,
* ``gamma`` and ``cramer_constant``: the root of kappa(-gamma) = 0 and C,
* ``gamma3``: the largest root of kappa_1(-s) = kappa_1(-gamma_2),
* ``saddle_point``: theta_v with kappa'(theta_v) = -v; at v = 0 it is
  the minimiser of kappa,
* ``cone_slopes``: the elementary cone slopes (s1, s2, s3),
* ``tilted`` and ``tilt_compensator``: the exponential tilt map and the
  log-likelihood compensator of a tilt,
* ``claim_rate``: mean claim amount per unit time,
* ``jump_dists``: the (interarrival, claim size) sampler pair,
* ``lundberg_gamma``: the Lundberg exponent of a line, for every driver,
* ``ruin_after``: the deferred ruin w(x, t) = P(t < tau < infinity) and
  its error bound,
* ``finite_ruin``: psi(x, t) = psi(x) - w(x, t) and its error bound; the
  Brownian row has the reflection formula instead,
* ``method``: the label of those two closed forms.

The renewal driver has no cumulant: its cumulant rows and both
finite-time rows raise UnsupportedDriver, its tilt is that of the claim
walk (gaps by c*p, claims by -c) and its compensator counts steps, not
time.  The Brownian driver has no jumps, so ``jump_dists`` raises there.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import (
    BoundaryVelocity,
    ConfigError,
    InternalInconsistency,
    InvalidProportions,
    NoAdjustment,
    NoConjugate,
    OutOfDomain,
    OutOfRange,
    UnsupportedDriver,
)
from .numerics import _exp_cdf, integrate, normal_cdf, root_solve

__all__ = [
    "CompoundPoissonExp",
    "StandardBrownian",
    "DistSpec",
    "exponential_dist",
    "deterministic_dist",
    "Renewal",
    "ClaimDriver",
    "LineModel",
    "TwoLineModel",
    "AdjustmentData",
    "SaddleData",
    "scale_to_canonical",
    "line_adjustment",
    "adjustment",
    "tilt",
    "saddle",
    "joint_cumulant",
    "renewal_adjustment",
]

_CROSS_CHECK_TOL = 1e-10

# Entries per memoised solve: a model contributes a handful of keys (its
# two lines, their tilts, the pair), so this holds many models at once.
_CACHE_SIZE = 256

# Spectral integrals of the current ``cli.run``, by (driver, p, x, t).  The
# front end sets a fresh dict for one invocation and resets it after, so
# the Exact and TwoTerm rows at one point share their integrals; library
# calls see the default None and cache nothing.
_SPECTRAL_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "ruin2d_spectral_memo", default=None)


def _solved_once(fn):
    """Memoise a solve on its frozen, hashable arguments in a bounded LRU
    cache.  The key is the positional argument list, so ``f(m, v)`` and
    ``f(m, v=v)`` share one entry.  Exceptions are not cached: a refusal
    raises on every call, and the cross-checks inside ``fn`` run on the
    first solve of each key."""
    cached = functools.lru_cache(maxsize=_CACHE_SIZE)(fn)
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def solve(*args, **kwargs):
        if kwargs:
            args = sig.bind(*args, **kwargs).args
        return cached(*args)

    solve.cache_info = cached.cache_info
    solve.cache_clear = cached.cache_clear
    return solve


class _Levy:
    """What the two Levy drivers share: the tilt's likelihood compensator
    grows with the cumulant per unit time, whatever the claim count, and
    finite-time ruin is the ultimate ruin less the deferred ruin."""

    def tilt_compensator(self, p: float, c: float, t, n):
        return self.kappa(p, c) * t

    def lundberg_gamma(self, p: float) -> float:
        return line_adjustment(LineModel(self, p))[0]

    def finite_ruin(self, p: float, x: float, t: float) -> tuple[float, float]:
        """C e^{-zeta x} - w(x, t), with the error bound of w."""
        w, err = self.ruin_after(p, x, t)
        zeta, c = _zeta_and_constant(LineModel(self, p))
        return c * math.exp(-zeta * x) - w, err


@dataclass(frozen=True)
class CompoundPoissonExp(_Levy):
    """Compound Poisson driver: rate ``lam``, Exp(``mu``) claim sizes."""

    lam: float
    mu: float

    method = "exact_cpe"

    def __post_init__(self) -> None:
        for name, value in (("claim rate lam", self.lam), ("claim size rate mu", self.mu)):
            if not 0.0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value!r}")

    @property
    def theta_lower(self) -> float:
        return -self.mu

    @property
    def claim_rate(self) -> float:
        return self.lam / self.mu

    def _shifted(self, theta: float) -> float:
        """mu + theta, refusing theta outside the cumulant domain (-mu, inf)."""
        if theta <= -self.mu:
            raise OutOfDomain(f"theta={theta:g} at or below -mu={-self.mu:g}")
        return self.mu + theta

    def kappa(self, p: float, theta: float) -> float:
        return p * theta - self.lam * theta / self._shifted(theta)

    def kappa_prime(self, p: float, theta: float) -> float:
        s = self._shifted(theta)
        return p - self.lam * self.mu / (s * s)

    def kappa_double_prime(self, p: float, theta: float) -> float:
        s = self._shifted(theta)
        return 2.0 * self.lam * self.mu / (s * s * s)

    def kappa_triple(self, p: float, theta: float) -> float:
        return -6.0 * self.lam * self.mu / self._shifted(theta) ** 4

    def gamma(self, p: float) -> float:
        return self.mu - self.lam / p

    def cramer_constant(self, p: float) -> float:
        return self.lam / (self.mu * p)

    def gamma3(self, p1: float, p2: float) -> float:
        return self.mu * (1.0 - p2 / p1)

    def saddle_point(self, p: float, v: float) -> float:
        return -self.mu + math.sqrt(self.lam * self.mu / (p + v))

    def tilted(self, p: float, c: float) -> tuple[CompoundPoissonExp, float]:
        s = self._shifted(c)
        return CompoundPoissonExp(self.lam * self.mu / s, s), p

    def cone_slopes(self, p1: float, p2: float, g2: float,
                    g3: float) -> tuple[float, float, float]:
        big = p1 * p1 * self.mu / self.lam
        s1 = (big - p1) / (big - p2)
        small = self.mu * p2 * p2 / self.lam
        s2_raw = (p1 - small) / (p2 - small)
        if g3 > g2:
            mid = self.lam * p1 * p1 / (self.mu * p2 * p2)
            s3 = (p1 - mid) / (p2 - mid)
        else:
            s3 = s2_raw
        return s1, s2_raw, s3

    def jump_dists(self) -> tuple[DistSpec, DistSpec]:
        return exponential_dist(self.lam), exponential_dist(self.mu)

    def ruin_after(self, p: float, x: float, t: float) -> tuple[float, float]:
        """The deferred-ruin integral w(x, t) over the spectral band
        [s-, s+], with the integrand rescaled by its peak so deep-tail
        values keep relative accuracy.  Returns (value, error bound).
        Inside a ``cli.run`` a value is computed once per key; a refusal
        is not stored and raises again."""
        memo, key = _SPECTRAL_MEMO.get(), (self, p, x, t)
        if memo is not None and key in memo:
            return memo[key]
        lam, mu = self.lam, self.mu
        if abs(p - lam / mu) <= 1e-12 * p:
            raise BoundaryVelocity("zero safety loading: the spectral band touches the origin")
        sm = (math.sqrt(lam) - math.sqrt(mu * p)) ** 2
        sp = (math.sqrt(lam) + math.sqrt(mu * p)) ** 2
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
        result = raw * scale, raw_err * scale
        if memo is not None:
            memo[key] = result
        return result


@dataclass(frozen=True)
class StandardBrownian(_Levy):
    """Standard Brownian claim driver (zero drift, unit variance)."""

    theta_lower = -math.inf
    claim_rate = 0.0
    method = "exact_brownian"

    def kappa(self, p: float, theta: float) -> float:
        return 0.5 * theta * theta + p * theta

    def kappa_prime(self, p: float, theta: float) -> float:
        return theta + p

    def kappa_double_prime(self, p: float, theta: float) -> float:
        return 1.0

    def kappa_triple(self, p: float, theta: float) -> float:
        return 0.0

    def gamma(self, p: float) -> float:
        return 2.0 * p

    def cramer_constant(self, p: float) -> float:
        return 1.0

    def gamma3(self, p1: float, p2: float) -> float:
        return 2.0 * (p1 - p2)

    def saddle_point(self, p: float, v: float) -> float:
        return -(v + p)

    def tilted(self, p: float, c: float) -> tuple[StandardBrownian, float]:
        return self, p + c

    def cone_slopes(self, p1: float, p2: float, g2: float,
                    g3: float) -> tuple[float, float, float]:
        s1 = p1 / (2.0 * p1 - p2)
        s2_raw = (2.0 * p2 - p1) / p2
        s3 = (p1 - 2.0 * p2) / (2.0 * p1 - 3.0 * p2) if g3 > g2 else s2_raw
        return s1, s2_raw, s3

    def jump_dists(self):
        raise UnsupportedDriver("jump engine requires a jump driver")

    def finite_ruin(self, p: float, x: float, t: float) -> tuple[float, float]:
        """The reflection formula, exact for either drift sign."""
        rt = math.sqrt(t)
        return normal_cdf(-(x + p * t) / rt) + _exp_cdf(-2.0 * p * x, (-x + p * t) / rt), 0.0

    def ruin_after(self, p: float, x: float, t: float) -> tuple[float, float]:
        rt = math.sqrt(t)
        if p > 0.0:
            val = _exp_cdf(-2.0 * p * x, (x - p * t) / rt) - normal_cdf(-(x + p * t) / rt)
        else:
            val = 1.0 - self.finite_ruin(p, x, t)[0]
        return max(val, 0.0), 0.0


@dataclass(frozen=True)
class DistSpec:
    """A nonnegative distribution for the renewal driver.

    Carries the moment generating function with the supremum of its
    domain, a vectorised sampler, and (optionally) the exponentially
    tilted family member used for importance sampling.
    """

    name: str
    mean: float
    mgf: Callable[[float], float]
    mgf_sup: float
    sample: Callable[[np.random.Generator, int], np.ndarray]
    tilted: Callable[[float], "DistSpec"] | None = None

    def __post_init__(self) -> None:
        if self.mean <= 0:
            raise ConfigError(f"{self.name}: mean must be positive")


@_solved_once
def exponential_dist(rate: float) -> DistSpec:
    """Exponential distribution of the given rate, tiltable within (-inf, rate)."""
    if not 0.0 < rate < math.inf:
        raise ConfigError(f"exponential rate must be positive and finite, got {rate!r}")

    def _tilt(theta: float) -> DistSpec:
        if theta >= rate:
            raise OutOfDomain(f"cannot tilt Exp({rate:g}) by {theta:g}")
        return exponential_dist(rate - theta)

    return DistSpec(
        name=f"exp({rate:g})",
        mean=1.0 / rate,
        mgf=lambda th: rate / (rate - th) if th < rate else math.inf,
        mgf_sup=rate,
        sample=lambda rng, n: rng.exponential(1.0 / rate, n),
        tilted=_tilt,
    )


@_solved_once
def deterministic_dist(value: float) -> DistSpec:
    """Point mass at ``value``; invariant under exponential tilting."""
    if not 0.0 < value < math.inf:
        raise ConfigError(f"deterministic value must be positive and finite, got {value!r}")
    return DistSpec(
        name=f"det({value:g})",
        mean=value,
        mgf=lambda th: math.exp(th * value),
        mgf_sup=math.inf,
        sample=lambda rng, n: np.full(n, value),
        tilted=lambda theta: deterministic_dist(value),
    )


def _no_cumulant(self, *args):
    raise UnsupportedDriver("cumulant calculus is unavailable for the renewal driver")


@dataclass(frozen=True)
class Renewal:
    """Renewal driver: claims ``claim`` at epochs with gaps ``interarrival``."""

    interarrival: DistSpec
    claim: DistSpec

    # the cumulant calculus and its closed forms need a Levy driver
    theta_lower = property(_no_cumulant)
    kappa = kappa_prime = kappa_double_prime = kappa_triple = _no_cumulant
    gamma = cramer_constant = gamma3 = saddle_point = cone_slopes = _no_cumulant
    finite_ruin = ruin_after = _no_cumulant

    def lundberg_gamma(self, p: float) -> float:
        return renewal_adjustment(self, p)

    @property
    def claim_rate(self) -> float:
        return self.claim.mean / self.interarrival.mean

    def tilted(self, p: float, c: float) -> tuple[Renewal, float]:
        """The tilt of the claim walk: gaps by c*p, claims by -c."""
        if self.interarrival.tilted is None or self.claim.tilted is None:
            raise UnsupportedDriver("renewal distributions do not expose a tilted family")
        return Renewal(self.interarrival.tilted(c * p), self.claim.tilted(-c)), p

    def tilt_compensator(self, p: float, c: float, t, n):
        """n phi(c), with phi(c) = log E exp(c (p z - s)) per renewal step."""
        m = self.interarrival.mgf(c * p) * self.claim.mgf(-c)
        if not (0.0 < m < math.inf):
            raise UnsupportedDriver(f"walk tilt {c:g} leaves the moment domain")
        return n * math.log(m)

    def jump_dists(self) -> tuple[DistSpec, DistSpec]:
        return self.interarrival, self.claim


ClaimDriver = Union[CompoundPoissonExp, StandardBrownian, Renewal]


@dataclass(frozen=True)
class LineModel:
    """One line of business: premium rate ``p`` against the shared driver."""

    driver: ClaimDriver
    p: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.p):
            raise ConfigError("premium rate must be finite")
        # A tilted Brownian line may carry a negative drift coefficient,
        # but a line that pays claims must earn at a positive rate.
        if self.p <= 0 and self.driver.claim_rate > 0.0:
            raise ConfigError("premium rate must be positive")

    # -- cumulant and derivatives -------------------------------------

    @property
    def theta_lower(self) -> float:
        """Lower endpoint of the cumulant domain."""
        return self.driver.theta_lower

    def kappa(self, theta: float) -> float:
        return self.driver.kappa(self.p, theta)

    def kappa_prime(self, theta: float) -> float:
        return self.driver.kappa_prime(self.p, theta)

    def kappa_double_prime(self, theta: float) -> float:
        return self.driver.kappa_double_prime(self.p, theta)

    def kappa_triple(self, theta: float) -> float:
        return self.driver.kappa_triple(self.p, theta)

    @property
    def drift(self) -> float:
        """Mean reserve growth per unit time, p minus the claim rate."""
        return self.p - self.driver.claim_rate

    @property
    def has_net_profit(self) -> bool:
        return self.drift > 0.0


@dataclass(frozen=True)
class TwoLineModel:
    """Two lines with a common claim driver and ordered premiums p1 > p2."""

    driver: ClaimDriver
    p1: float
    p2: float

    def __post_init__(self) -> None:
        if self.p2 <= 0:
            raise ConfigError("premium rates must be positive")
        if not self.p1 > self.p2:
            raise ConfigError(
                f"premium rates must satisfy p1 > p2, got p1={self.p1:g}, p2={self.p2:g}"
            )

    @property
    def line1(self) -> LineModel:
        return LineModel(self.driver, self.p1)

    @property
    def line2(self) -> LineModel:
        return LineModel(self.driver, self.p2)

    @property
    def a_bar(self) -> float:
        """Supremum of admissible ray slopes, 1 + (p1 - p2)/w, where w is
        the limit of kappa' at the lower end of the cumulant domain.  That
        limit is -inf for both Levy drivers (kappa' falls without bound
        towards -mu, and linearly for Brownian), so every slope below the
        diagonal is admissible."""
        return 1.0


@dataclass(frozen=True)
class AdjustmentData:
    """Lundberg exponents and constants of a two-line model.

    gamma1/gamma2 are the per-line adjustment coefficients, gamma3 the
    largest root of kappa1(-s) = kappa1(-gamma2) (equal to gamma2 when
    kappa1'(-gamma2) <= 0) and gamma_tilde = gamma3 - gamma2.  C1/C2 are
    the Cramer-Lundberg prefactors and C2_hat the prefactor of the simultaneous-ruin tail on
    its lower cone.
    """

    gamma1: float
    gamma2: float
    gamma3: float
    gamma_tilde: float
    C1: float
    C2: float
    C2_hat: float

    def __post_init__(self) -> None:
        if not (0.0 < self.gamma2 < self.gamma1):
            raise InternalInconsistency(
                f"adjustment coefficients must satisfy 0 < gamma2 < gamma1, "
                f"got {self.gamma2:g}, {self.gamma1:g}"
            )
        if self.gamma3 < self.gamma2 or self.gamma_tilde < 0:
            raise InternalInconsistency("gamma3 must not be below gamma2")
        for c in (self.C1, self.C2):
            if not (0.0 < c <= 1.0):
                raise InternalInconsistency(f"Cramer constant {c:g} outside (0, 1]")


@dataclass(frozen=True)
class SaddleData:
    """Saddle point of a line at velocity ``v``: kappa'(theta_v) = -v.

    theta_conj is the conjugate point on the other flank of kappa with
    the same cumulant value, kstar the Legendre transform kappa*(-v),
    and kpp the curvature kappa''(theta_v).
    """

    v: float
    theta_v: float
    theta_conj: float
    kstar: float
    kpp: float

    def __post_init__(self) -> None:
        if self.kstar < -1e-12:
            raise InternalInconsistency(f"kappa*(-v) = {self.kstar:g} negative")
        if not self.theta_conj >= self.theta_v:
            raise InternalInconsistency("conjugate point left of the saddle")
        if self.kpp <= 0:
            raise InternalInconsistency("kappa'' must be positive at the saddle")


def scale_to_canonical(
    u1: float,
    u2: float,
    c1: float,
    c2: float,
    delta1: float,
    delta2: float,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Reduce proportional-split reserves ``u_i + c_i t - delta_i S(t)``
    to canonical form ``x_i + p_i t - S(t)`` by dividing line ``i`` by
    ``delta_i``.  Returns ``((x1, x2), (p1, p2))``.
    """
    if not all(map(math.isfinite, (u1, u2, c1, c2, delta1, delta2))):
        raise ConfigError("reserves, premiums and proportions must be finite")
    if min(delta1, delta2) <= 0.0:
        raise InvalidProportions(f"proportions must be positive, got ({delta1:g}, {delta2:g})")
    if abs(delta1 + delta2 - 1.0) > 1e-12:
        raise InvalidProportions(f"proportions must sum to 1, got {delta1 + delta2!r}")
    if min(u1, u2) < 0.0:
        raise ConfigError("initial reserves must be nonnegative")
    return (u1 / delta1, u2 / delta2), (c1 / delta1, c2 / delta2)


def _cross_check(label: str, closed: float, solved: float) -> float:
    if abs(closed - solved) > _CROSS_CHECK_TOL * max(1.0, abs(closed)):
        raise InternalInconsistency(
            f"{label}: closed form {closed!r} and root solve {solved!r} disagree"
        )
    return closed


@_solved_once
def line_adjustment(model: LineModel) -> tuple[float, float]:
    """Adjustment coefficient and Cramer constant ``(gamma, C)`` of a line.

    gamma is the positive root of kappa(-gamma) = 0 and
    C = -kappa'(0)/kappa'(-gamma).  Requires net profit.
    """
    # the cumulant domain caps the bracket, and reading it refuses renewal
    hi = -model.theta_lower * (1.0 - 1e-14)
    if not model.has_net_profit:
        raise NoAdjustment(f"net profit violated: drift {model.drift:g} <= 0")
    gamma_closed = model.driver.gamma(model.p)
    c_closed = model.driver.cramer_constant(model.p)
    gamma_solved = root_solve(lambda g: model.kappa(-g), 0.5 * gamma_closed,
                              min(1.5 * gamma_closed, hi))
    gamma = _cross_check("adjustment coefficient", gamma_closed, gamma_solved)
    c_general = -model.kappa_prime(0.0) / model.kappa_prime(-gamma)
    c = _cross_check("Cramer constant", c_closed, c_general)
    return gamma, c


def _zeta_and_constant(line: LineModel) -> tuple[float, float]:
    """Decay exponent zeta = -min{theta : kappa(theta) = 0} and its
    prefactor: (gamma, C) under net profit, (0, 1) otherwise."""
    if line.drift > 0.0:
        return line_adjustment(line)
    return 0.0, 1.0


def _gamma3(model2: TwoLineModel, gamma2: float) -> float:
    """Largest root of kappa1(-s) = kappa1(-gamma2)."""
    line1 = model2.line1
    slope_at_g2 = line1.kappa_prime(-gamma2)
    if slope_at_g2 <= 0.0:
        return gamma2
    closed = model2.driver.gamma3(model2.p1, model2.p2)
    # bracket up to the domain edge, or a multiple of the root without one
    hi = -line1.theta_lower * (1.0 - 1e-14)
    if math.isinf(hi):
        hi = 4.0 * closed
    target = line1.kappa(-gamma2)
    lo = gamma2 * (1.0 + 1e-9)
    if closed <= lo * (1.0 + 1e-9):
        # nearly coincident roots: the bracketed solve has no resolution
        # inside the guard band, and the elementary expression is exact
        return max(closed, gamma2)
    solved = root_solve(lambda s: line1.kappa(-s) - target, lo, hi)
    return _cross_check("gamma3", closed, solved)


@_solved_once
def adjustment(model2: TwoLineModel) -> AdjustmentData:
    """All Lundberg exponents and tail constants of a two-line model."""
    gamma1, c1 = line_adjustment(model2.line1)
    gamma2, c2 = line_adjustment(model2.line2)
    gamma3 = _gamma3(model2, gamma2)
    if gamma3 > gamma2 * (1.0 + 3e-9):
        c2_hat = -c2 * model2.line1.kappa_prime(-gamma2) / model2.line1.kappa_prime(-gamma3)
    else:
        # Coincident or nearly coincident case: simultaneous and
        # single-line tails share both exponent and constant (they
        # sandwich each other), and the derivative ratio in the formula
        # above tends to -1 as the roots merge.  The band matches the
        # widest value _gamma3 can return without a verified bracket.
        c2_hat = c2
    return AdjustmentData(
        gamma1=gamma1,
        gamma2=gamma2,
        gamma3=gamma3,
        gamma_tilde=gamma3 - gamma2,
        C1=c1,
        C2=c2,
        C2_hat=c2_hat,
    )


def tilt(model: LineModel, c: float) -> LineModel:
    """The line exponentially tilted by ``c``, itself a ``LineModel``: its
    cumulant is kappa(theta + c) - kappa(c).

    For the compound Poisson driver this maps (lam, mu) to
    (lam*mu/(mu+c), mu+c) with the premium unchanged; for Brownian it
    shifts the premium to p + c.  It is returned once its drift checks
    against kappa'(c), which also refuses the renewal driver: it has no
    cumulant, and the simulator tilts its claim walk instead.
    """
    new = LineModel(*model.driver.tilted(model.p, c))
    _cross_check("tilted drift", model.kappa_prime(c), new.drift)
    return new


@_solved_once
def saddle(model: LineModel, v: float) -> SaddleData:
    """Saddle point data of one line at downward velocity ``v > 0``.

    Solves kappa'(theta_v) = -v, finds the conjugate point theta'_v with
    kappa(theta'_v) = kappa(theta_v) on the increasing flank, and returns
    the Legendre transform kappa*(-v) = -v*theta_v - kappa(theta_v).
    """
    lo_dom = model.theta_lower  # refuses the renewal driver first
    if not 0.0 < v < math.inf:
        raise OutOfRange(f"saddle velocity must be positive and finite, got {v:g}")
    theta_closed = model.driver.saddle_point(model.p, v)
    # Root-solve cross-check on a bracket around the closed form.
    width = max(1.0, abs(theta_closed))
    lo = theta_closed - 0.5 * width
    if not math.isinf(lo_dom):
        lo = max(lo, lo_dom + (theta_closed - lo_dom) * 1e-8)
    theta_solved = root_solve(lambda th: model.kappa_prime(th) + v, lo,
                              theta_closed + 0.5 * width)
    theta_v = _cross_check("saddle point", theta_closed, theta_solved)

    k_at = model.kappa(theta_v)
    # Conjugate: same kappa value on the increasing flank, right of the
    # minimiser theta_m, the saddle point at zero velocity.
    theta_m = model.driver.saddle_point(model.p, 0.0)
    if theta_v >= theta_m:
        # v = -kappa'(0) style degenerate call: conjugate equals the saddle.
        theta_conj = theta_v
    else:
        hi = theta_m + max(1.0, theta_m - theta_v)
        for _ in range(200):
            if model.kappa(hi) > k_at:
                break
            hi = theta_m + 2.0 * (hi - theta_m)
        else:
            raise NoConjugate(f"no conjugate point for v={v:g}")
        theta_conj = root_solve(lambda th: model.kappa(th) - k_at, theta_m, hi)
    return SaddleData(
        v=v,
        theta_v=theta_v,
        theta_conj=theta_conj,
        kstar=-v * theta_v - k_at,
        kpp=model.kappa_double_prime(theta_v),
    )


def joint_cumulant(model2: TwoLineModel, t1: float, t2: float) -> float:
    """Joint cumulant of the two coordinates,
    kappa1(t1 + t2) - t2*(p1 - p2); both coordinates load the same driver
    so only the sum t1 + t2 enters the nonlinear part.
    """
    return model2.line1.kappa(t1 + t2) - t2 * (model2.p1 - model2.p2)


@_solved_once
def renewal_adjustment(driver: Renewal, p: float) -> float:
    """Lundberg exponent of a renewal line: the positive root of
    E[exp(-gamma*p*interarrival)] * E[exp(gamma*claim)] = 1.
    """
    if p <= 0:
        raise ConfigError("premium rate must be positive")
    if p * driver.interarrival.mean <= driver.claim.mean:
        raise NoAdjustment(
            f"net profit violated: p*E[interarrival]={p * driver.interarrival.mean:g} "
            f"<= E[claim]={driver.claim.mean:g}"
        )

    def logratio(g: float) -> float:
        m_claim = driver.claim.mgf(g)
        if not math.isfinite(m_claim) or m_claim <= 0:
            return math.inf
        return math.log(driver.interarrival.mgf(-g * p)) + math.log(m_claim)

    sup = driver.claim.mgf_sup
    hi_cap = sup * (1.0 - 1e-12) if math.isfinite(sup) else 1e6
    # Scan geometrically for a sign change; logratio starts negative.
    lo = hi_cap * 1e-9
    if logratio(lo) >= 0:
        lo = hi_cap * 1e-15
    hi = lo
    for _ in range(200):
        hi = min(2.0 * hi, hi_cap)
        val = logratio(hi)
        if math.isfinite(val) and val > 0:
            break
        if hi >= hi_cap:
            raise NoAdjustment("no Lundberg root inside the claim mgf domain")
    else:
        raise NoAdjustment("no Lundberg root inside the claim mgf domain")
    gamma = root_solve(logratio, lo, hi)
    if abs(logratio(gamma)) > 1e-8:
        raise NoAdjustment(f"Lundberg residual too large at gamma={gamma:g}")
    return gamma
