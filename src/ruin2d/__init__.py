"""Ruin probabilities for two insurance lines sharing one claim process.

The reserve processes are X_i(t) = x_i + p_i t - S(t) with a common claim
process S and ordered premiums p1 > p2.  The package computes exact values,
sharp asymptotics along reserve rays, and Monte Carlo estimates for the
probabilities that at least one line is ruined, that both are negative
simultaneously, and that both are ruined at some (possibly different)
times.
"""

from .cones import (
    ConeLabel,
    ConePartition,
    classify,
    crossing_time,
    exit_rate,
    gamma_ray,
    partition,
    rate_function,
)
from .errors import (
    BoundaryRay,
    BoundaryVelocity,
    ConfigError,
    InsufficientConditionedSamples,
    InternalInconsistency,
    InvalidHorizon,
    InvalidProportions,
    NoAdjustment,
    NoConjugate,
    NumericalRefusal,
    OutOfDomain,
    OutOfRange,
    Ruin2dError,
    UnsupportedDriver,
)
from .finite_time import (
    LimitLaw,
    finite_ruin,
    limit_law,
    ruin_after,
    ultimate_ruin,
)
from .models import (
    AdjustmentData,
    CompoundPoissonExp,
    DistSpec,
    LineModel,
    Renewal,
    SaddleData,
    StandardBrownian,
    TwoLineModel,
    adjustment,
    deterministic_dist,
    exponential_dist,
    joint_cumulant,
    line_adjustment,
    renewal_adjustment,
    saddle,
    scale_to_canonical,
    tilt,
)
from .montecarlo import (
    CheckReport,
    FixedTime,
    McEstimate,
    SafeLevel,
    SimConfig,
    check_limits,
    default_safe_level,
    estimate,
    simulate,
)
from .twodim import (
    ExpansionTerms,
    RuinEstimate,
    RuinQuery,
    exact,
    leading,
    renewal_exponents,
    two_term_and,
    two_term_or,
    two_term_sim,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
