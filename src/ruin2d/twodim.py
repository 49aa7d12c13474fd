"""Two-line ruin probabilities: exact values, two-term expansions, and
leading-order asymptotics.

Everything rests on the barrier picture.  With x2 > x1 the claim process
must cross the lower envelope of the two barriers for OR-ruin and the
upper envelope for simultaneous ruin, and the envelopes exchange roles at
the crossing time T.  Conditioning at T (or at the first passage before
T) and removing the exponential overshoot factor by a measure change
turns each probability into a finite-time piece plus a discounted piece
under a tilted law:

    psi_or  = psi_1(x1, T) + psi_2(x2) * [1 - psi_1^(-g2)(x1, T)]
    psi_sim = psi_2(x2, T) + psi_1(x1) * [1 - psi_2^(-g1)(x2, T)]
    psi_and = w_1(x1, T)   + psi_2(x2) * psi_1^(-g2)(x1, T)

These identities are exact for the two concrete drivers because
psi_i(y) e^{g_i y} = C_i for every y (exponential claims are memoryless at
overshoot; Brownian paths have none).  The same fact makes the two-term
constant C-tilde_j(v) equal C_j, so ``exact`` and the OR, SIM and small-v
AND expansions read one assembly: each line above as A + psi_j(x_j) * B,
with its error bound and the ray's cone, the x1 = 0 axis included.  Under
phase-type claims C-tilde_j(v) != C_j.  Only AND above -kappa_2'(-g3) approximates.

The saddle quantities reuse a shared-driver identity throughout: since
kappa_1' - kappa_2' = p1 - p2, the kappa_i-conjugate of the kappa_2
saddle point at velocity v is obtained by running the one-line saddle
solver on line i at velocity v - (p_i - p_2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Optional, get_args

from .cones import ConeLabel, _classify, crossing_time, gamma_ray
from .errors import (
    BoundaryRay,
    ConfigError,
    InternalInconsistency,
    OutOfRange,
)
from .finite_time import _guard_velocity, finite_ruin, ruin_after, ultimate_ruin
from .models import (
    AdjustmentData,
    LineModel,
    Renewal,
    StandardBrownian,
    TwoLineModel,
    adjustment,
    renewal_adjustment,
    saddle,
    tilt,
)
from .numerics import _exp_cdf, normal_cdf

__all__ = [
    "Event",
    "RuinQuery",
    "ExpansionTerms",
    "RuinEstimate",
    "exact",
    "two_term_or",
    "two_term_sim",
    "two_term_and",
    "leading",
    "renewal_exponents",
]

Event = Literal["OR", "SIM", "AND", "LINE1", "LINE2"]

_EVENTS = get_args(Event)

_BROWNIAN_ROUTE_TOL = 1e-8


@dataclass(frozen=True)
class RuinQuery:
    event: Event
    x1: float
    x2: float

    def __post_init__(self) -> None:
        if self.event not in _EVENTS:
            raise OutOfRange(f"unknown event {self.event!r}")
        _check_reserves(self.x1, self.x2)


def _check_reserves(x1: float, x2: float) -> None:
    for name, x in (("x1", x1), ("x2", x2)):
        if not (math.isfinite(x) and x >= 0.0):
            raise OutOfRange(f"reserves must be finite and nonnegative, got {name}={x!r}")


@dataclass(frozen=True)
class ExpansionTerms:
    """The two pieces of a Proposition-style expansion, plus the constants
    that entered the second piece."""

    term1: float
    term2: float
    constants: dict
    cone: ConeLabel
    velocity: float

    def __post_init__(self) -> None:
        if self.term1 < -1e-12 or self.term2 < -1e-9:
            raise InternalInconsistency(
                f"expansion terms must be nonnegative, got ({self.term1!r}, {self.term2!r})"
            )
        if self.total > 1.0 + 1e-6:
            raise InternalInconsistency(f"expansion total {self.total!r} exceeds 1")

    @property
    def total(self) -> float:
        return self.term1 + self.term2


@dataclass(frozen=True)
class RuinEstimate:
    value: float
    method: str
    cone: Optional[ConeLabel]
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.method == "exact" and not (0.0 <= self.value <= 1.0):
            raise InternalInconsistency(f"exact probability {self.value!r} outside [0, 1]")


def _brownian_closed(model2: TwoLineModel, x1: float, x2: float, T: float,
                     event: str) -> float:
    """Reflection-formula expression for the OR, SIM or AND probability,
    used as an independent route against the conditioning assembly."""
    p1, p2 = model2.p1, model2.p2
    if event == "SIM":  # OR with the lines exchanged
        x1, x2, p1, p2 = x2, x1, p2, p1
    rt = math.sqrt(T)

    def a(x: float, p: float) -> float:
        return (x + p * T) / rt

    q = p1 - 2.0 * p2
    if event == "AND":
        return (
            -normal_cdf(-a(x1, p1))
            + _exp_cdf(-2.0 * p1 * x1, -a(-x1, p1))
            + _exp_cdf(-2.0 * p2 * x2 - 2.0 * x1 * q, a(-x1, q))
            + _exp_cdf(-2.0 * p2 * x2, -a(x1, q))
        )
    return (
        normal_cdf(-a(x1, p1))
        + _exp_cdf(-2.0 * p1 * x1, a(-x1, p1))
        + _exp_cdf(-2.0 * p2 * x2, a(x1, q))
        - _exp_cdf(-2.0 * p2 * x2 - 2.0 * x1 * q, a(-x1, q))
    )


def _assembly(model2: TwoLineModel, x1: float, x2: float, T: float, event: str,
              adj: AdjustmentData):
    """(A, psi_j(x_j) * B, their error bound, cone, j) of psi = A + psi_j(x_j) * B for
    OR, SIM or AND at x2 > x1 >= 0: A is settled by T on the leading line i (ruin by T,
    or after T for AND), B is under line i's -gamma_j tilt, the cone ``_classify``'s."""
    i, j = (2, 1) if event == "SIM" else (1, 2)
    line, x = (model2.line1, model2.line2)[i - 1], (x1, x2)[i - 1]
    tilted = tilt(line, -(adj.gamma1, adj.gamma2)[j - 1])
    if event == "AND":
        settled = ruin_after(line, x, T)
        r = finite_ruin(tilted, x, T)
        b = r.value
    else:
        settled = finite_ruin(line, x, T)
        # B is the survival P(tau > T) of the tilted line; where its ruin is
        # certain that is the ruin after T, taken without the 1 - psi subtraction
        if tilted.drift <= 0.0:
            r = ruin_after(tilted, x, T)
            b = r.value
        else:
            r = finite_ruin(tilted, x, T)
            b = 1.0 - r.value
    psi_j = ultimate_ruin((model2.line1, model2.line2)[j - 1], (x1, x2)[j - 1])
    cone = _classify(model2, adj, x1, x2, "and" if event == "AND" else "sim")
    return settled.value, psi_j * b, settled.quad_err + psi_j * r.quad_err, cone, j


def exact(model2: TwoLineModel, query: RuinQuery) -> RuinEstimate:
    """Exact ruin probability for the queried event.

    Upper-cone values and cones, the x1 = 0 axis included, are ``_assembly``'s;
    for the Brownian driver the reflection closed form of the event is
    evaluated as well and the two routes must agree to 1e-8.  The OR value is
    checked against the sandwich max(psi_1, psi_2) <= psi_or <= psi_1 + psi_2.
    """
    x1, x2 = query.x1, query.x2
    l1, l2 = model2.line1, model2.line2
    if query.event in ("LINE1", "LINE2"):
        line, x = (l1, x1) if query.event == "LINE1" else (l2, x2)
        return RuinEstimate(value=ultimate_ruin(line, x), method="exact",
                            cone=None, diagnostics={"quad_err": 0.0})

    if x2 <= x1:
        value = ultimate_ruin(l2, x2) if query.event == "OR" else ultimate_ruin(l1, x1)
        return RuinEstimate(value=value, method="exact", cone=ConeLabel.LOWER_CONE,
                            diagnostics={"quad_err": 0.0})

    T = crossing_time(x1, x2, model2.p1, model2.p2)
    settled, term2, err, cone, _ = _assembly(model2, x1, x2, T, query.event,
                                             adjustment(model2))
    value = settled + term2
    diag: dict = {"T": T, "v": x2 / T, "terms": (settled, term2), "quad_err": err}

    if isinstance(model2.driver, StandardBrownian):
        closed = _brownian_closed(model2, x1, x2, T, query.event)
        if abs(closed - value) > _BROWNIAN_ROUTE_TOL:
            raise InternalInconsistency(
                f"{query.event}: conditioning route {value!r} vs reflection "
                f"route {closed!r} differ beyond {_BROWNIAN_ROUTE_TOL:g}"
            )
        diag["closed_form_delta"] = closed - value

    if query.event == "OR":
        psi1, psi2 = ultimate_ruin(l1, x1), ultimate_ruin(l2, x2)
        slack = 2.0 * err + 1e-12
        if not max(psi1, psi2) - slack <= value <= psi1 + psi2 + slack:
            raise InternalInconsistency(
                f"OR sandwich violated: psi1={psi1!r}, psi2={psi2!r}, psi_or={value!r}"
            )
    value = min(max(value, 0.0), 1.0)
    return RuinEstimate(value=value, method="exact", cone=cone, diagnostics=diag)


def _psi_star(line: LineModel, theta: float) -> float:
    """Laplace transform of the one-line ruin probability,
    psi*(theta) = 1/theta - kappa'(0)/kappa(theta).

    Both apparent poles are removable or cancel: near theta = 0 the two
    terms cancel to a finite limit (series evaluation), and near the
    adjustment root -gamma the cumulant is evaluated by Taylor expansion
    to keep full relative accuracy.
    """
    a = line.kappa_prime(0.0)
    if a <= 0.0:
        raise OutOfRange("the ruin transform identity requires positive drift")
    if abs(theta) < 1e-6:
        b = line.kappa_double_prime(0.0)
        c = line.kappa_triple(0.0)
        return b / (2.0 * a) - (b * b / (4.0 * a * a) - c / (6.0 * a)) * theta
    root = -line.driver.gamma(line.p)
    if abs(theta - root) < 1e-6:
        h = theta - root
        k = line.kappa_prime(root) * h + 0.5 * line.kappa_double_prime(root) * h * h \
            + line.kappa_triple(root) * h ** 3 / 6.0
    else:
        k = line.kappa(theta)
    return 1.0 / theta - a / k


def _psi_bar_star(line: LineModel, theta: float) -> float:
    """Laplace transform of the survival probability, kappa'(0)/kappa(theta)."""
    return line.kappa_prime(0.0) / line.kappa(theta)


def _conjugate_pair(model2: TwoLineModel, i: int, v: float) -> tuple[float, float]:
    """(theta_v, theta_v^{(i)}): the kappa_2 saddle at velocity v and its
    conjugate with respect to kappa_i, via the premium-gap shift."""
    sd2 = saddle(model2.line2, v)
    if i == 2:
        return sd2.theta_v, sd2.theta_conj
    sd1 = saddle(model2.line1, v - (model2.p1 - model2.p2))
    if abs(sd1.theta_v - sd2.theta_v) > 1e-9 * max(1.0, abs(sd2.theta_v)):
        raise InternalInconsistency(
            f"saddle points via kappa_1 and kappa_2 disagree: "
            f"{sd1.theta_v!r} vs {sd2.theta_v!r}"
        )
    return sd2.theta_v, sd1.theta_conj


def _two_term_pre(model2: TwoLineModel, x1: float,
                  x2: float) -> tuple[float, float, AdjustmentData]:
    _check_reserves(x1, x2)
    if not x2 > x1:
        raise OutOfRange(
            f"two-term expansions need x2 > x1, got ({x1:g}, {x2:g}); "
            f"the lower cone reduces to one-line values"
        )
    T = crossing_time(x1, x2, model2.p1, model2.p2)
    return T, x2 / T, adjustment(model2)


def _exact_terms(model2: TwoLineModel, x1: float, x2: float, event: str,
                 T: float, v: float, adj: AdjustmentData) -> ExpansionTerms:
    """``_assembly``'s two terms of OR, SIM or AND: C-tilde_j(v) e^{-gamma_j x_j}
    is psi_j(x_j), read as in ``exact``."""
    settled, term2, _, cone, j = _assembly(model2, x1, x2, T, event, adj)
    constants = {f"C{j}_tilde": (adj.C1, adj.C2)[j - 1]}
    if event == "AND":  # below the branch velocity; see two_term_and
        constants["branch"] = "small_v"
    return ExpansionTerms(term1=settled, term2=term2, constants=constants, cone=cone,
                          velocity=v)


def two_term_or(model2: TwoLineModel, x1: float, x2: float) -> ExpansionTerms:
    """psi_or ~ psi_1(x1, T) + C-tilde_2(v) e^{-gamma_2 x2} survival_1^(-gamma_2)(x1, T).

    C-tilde_2(v) = C_2 for both Levy drivers, so the total is ``exact``'s
    value bit for bit; phase-type claims are where the two would part."""
    return _exact_terms(model2, x1, x2, "OR", *_two_term_pre(model2, x1, x2))


def two_term_sim(model2: TwoLineModel, x1: float, x2: float) -> ExpansionTerms:
    """psi_sim ~ psi_2(x2, T) + C-tilde_1(v) e^{-gamma_1 x1} survival_2^(-gamma_1)(x2, T).

    C-tilde_1(v) = C_1 for both Levy drivers, so the total is ``exact``'s
    value bit for bit; phase-type claims are where the two would part."""
    return _exact_terms(model2, x1, x2, "SIM", *_two_term_pre(model2, x1, x2))


def two_term_and(model2: TwoLineModel, x1: float, x2: float) -> ExpansionTerms:
    """psi_and ~ w_1(x1, T) + {C-bar_2 e^{-g2 x2} psi_2^(-g2)(x2, T)
    + C-bar_1 e^{-g2 x2 - gtilde x1} psi_1^(-g3)(x1, T)}, the paper's
    approximation, for v >= -kappa_2'(-gamma_3).  Below it the expansion is
    the exact AND assembly split as OR's is, ``exact``'s value bit for bit."""
    T, v, adj = _two_term_pre(model2, x1, x2)
    l1, l2 = model2.line1, model2.line2
    boundary = -l2.kappa_prime(-adj.gamma3)
    _guard_velocity(v, boundary, "-kappa_2'(-gamma_3)")
    if v < boundary:
        return _exact_terms(model2, x1, x2, "AND", T, v, adj)
    gt = adj.gamma_tilde
    theta_v, theta_2 = _conjugate_pair(model2, 2, v)
    _, theta_1 = _conjugate_pair(model2, 1, v)
    c2_norm = (theta_2 - theta_v) / ((theta_2 + adj.gamma2) * (theta_v + adj.gamma2))
    c2_bar = _psi_bar_star(l2, theta_2) / abs(c2_norm)
    c1_norm = (theta_1 - theta_v) / ((theta_1 + adj.gamma3) * (theta_v + adj.gamma3))
    c1_bar = (_psi_star(l2, theta_1) - 1.0 / theta_v) / abs(c1_norm)
    term1 = ruin_after(l1, x1, T).value
    piece2 = c2_bar * math.exp(-adj.gamma2 * x2) * \
        finite_ruin(tilt(l2, -adj.gamma2), x2, T).value
    piece1 = c1_bar * math.exp(-adj.gamma2 * x2 - gt * x1) * \
        finite_ruin(tilt(l1, -adj.gamma3), x1, T).value
    return ExpansionTerms(term1=term1, term2=piece1 + piece2,
                          constants={"C1_bar": c1_bar, "C2_bar": c2_bar,
                                     "gamma_tilde": gt, "branch": "large_v"},
                          cone=_classify(model2, adj, x1, x2, "and"), velocity=v)


def _d_constants(model2: TwoLineModel, i: int, w: float) -> tuple[float, float]:
    """(D_i'(w), D_i^#(w)): the two local-limit constants of the middle
    cone, sharing the factor sqrt(w / (2 pi kappa''(theta_w)))."""
    other = (model2.line1, model2.line2)[2 - i]  # line 3-i
    theta_w, theta_i = _conjugate_pair(model2, i, w)
    scale = math.sqrt(w / (2.0 * math.pi * other.kappa_double_prime(theta_w)))
    d_prime = (theta_i - theta_w) / abs(theta_w * theta_i) * scale
    kp0 = other.kappa_prime(0.0)
    d_sharp = (1.0 / theta_w - 1.0 / theta_i
               + kp0 / other.kappa(theta_i) - kp0 / other.kappa(theta_w)) * scale
    return d_prime, d_sharp


def leading(model2: TwoLineModel, x1: float, x2: float, event: Event) -> RuinEstimate:
    """Sharp leading-order asymptotics on the ray through (x1, x2).

    OR follows the global two-exponential law; SIM and AND switch between
    the one-line constants on the outer cones and the x2^{-1/2}-corrected
    ray law on the middle cone.  Rays inside the boundary band are
    refused since every branch degenerates there.
    """
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise OutOfRange(f"reserves must be finite, got ({x1:g}, {x2:g})")
    if not (x1 > 0.0 and x2 > 0.0):
        raise OutOfRange(f"need x1, x2 > 0, got ({x1:g}, {x2:g})")
    adj = adjustment(model2)
    if event in ("LINE1", "LINE2"):
        c, g, x = (adj.C1, adj.gamma1, x1) if event == "LINE1" else (adj.C2, adj.gamma2, x2)
        return RuinEstimate(value=c * math.exp(-g * x), method="leading", cone=None,
                            diagnostics={"C": c})
    if event == "OR":
        value = adj.C2 * math.exp(-adj.gamma2 * x2) + adj.C1 * math.exp(-adj.gamma1 * x1)
        return RuinEstimate(value=value, method="leading", cone=None,
                            diagnostics={"C1": adj.C1, "C2": adj.C2})

    if event not in ("SIM", "AND"):
        raise OutOfRange(f"unknown event {event!r}")
    kind = "sim" if event == "SIM" else "and"
    label = ConeLabel.LOWER_CONE if x2 <= x1 else _classify(model2, adj, x1, x2, kind)
    if label is ConeLabel.BOUNDARY_RAY:
        raise BoundaryRay(
            f"ray a={x1 / x2:g} lies on a cone boundary; the asymptotic "
            f"constants degenerate there"
        )
    diag: dict = {"cone": label.value}
    if label in (ConeLabel.D1, ConeLabel.LOWER_CONE):
        value = adj.C1 * math.exp(-adj.gamma1 * x1)
        diag["C"] = adj.C1
    elif label is ConeLabel.D2:
        value = adj.C2 * math.exp(-adj.gamma2 * x2)
        diag["C"] = adj.C2
    elif label is ConeLabel.D2_HAT:
        a = x1 / x2
        rate = a * adj.gamma3 + (1.0 - a) * adj.gamma2
        value = adj.C2_hat * math.exp(-rate * x2)
        diag["C"] = adj.C2_hat
        diag["rate_per_x2"] = rate
    else:  # middle cone, either partition
        a = x1 / x2
        w = (model2.p1 - model2.p2) / (1.0 - a)
        g_a = gamma_ray(model2, a)
        if event == "SIM":
            d_prime, d_sharp = _d_constants(model2, 2, w)
            const = d_sharp + d_prime
        else:
            d_prime, d_sharp = _d_constants(model2, 1, w)
            const = d_prime - d_sharp
        if const <= 0.0:
            raise InternalInconsistency(
                f"middle-cone constant must be positive, got {const!r}"
            )
        value = const * math.exp(-g_a * x2) / math.sqrt(x2)
        diag.update({"D_prime": d_prime, "D_sharp": d_sharp,
                     "gamma_ray": g_a, "velocity": w})
    return RuinEstimate(value=value, method="leading", cone=label, diagnostics=diag)


def renewal_exponents(driver: Renewal, p1: float, p2: float,
                      a: float) -> tuple[float, float, float]:
    """Lundberg exponents of the two lines under a renewal driver and the
    predicted OR decay rate min(gamma_2, a gamma_1) per unit of x2 along
    the ray (a K, K).  Constants are not available at this generality."""
    if not p1 > p2:
        raise ConfigError(f"need p1 > p2, got ({p1:g}, {p2:g})")
    if not math.isfinite(a):
        raise OutOfRange(f"ray slope must be finite, got {a:g}")
    if not a > 0.0:
        raise OutOfRange(f"ray slope must be positive, got {a:g}")
    g1 = renewal_adjustment(driver, p1)
    g2 = renewal_adjustment(driver, p2)
    return g1, g2, min(g2, a * g1)
