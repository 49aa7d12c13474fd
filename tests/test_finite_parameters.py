"""Non-finite driver parameters are configuration errors: the library
constructors refuse them, and the CLI exits 2 naming the parameter."""

import math

import pytest

from ruin2d.cli import run
from ruin2d.errors import ConfigError
from ruin2d.models import CompoundPoissonExp, deterministic_dist, exponential_dist


@pytest.mark.parametrize(
    "build,needle",
    [
        (lambda: CompoundPoissonExp(1.0, math.inf), "claim size rate mu"),
        (lambda: CompoundPoissonExp(math.nan, 2.0), "claim rate lam"),
        (lambda: exponential_dist(math.nan), "exponential rate"),
        (lambda: deterministic_dist(math.inf), "deterministic value"),
    ],
    ids=["cpe_mu_inf", "cpe_lam_nan", "exp_nan", "det_inf"],
)
def test_nonfinite_parameter_is_refused(build, needle):
    with pytest.raises(ConfigError, match=f"{needle} must be positive and finite"):
        build()


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["compute", "--driver", "cpe", "--lambda", "1", "--mu", "inf",
          "--p1", "3", "--p2", "1", "--x1", "1", "--x2", "3"], "mu must be"),
        (["mc", "--driver", "renewal", "--interarrival", "det:inf", "--claim", "exp:2",
          "--p1", "3", "--p2", "1", "--x1", "1", "--x2", "3"], "deterministic value must be"),
    ],
    ids=["compute_cpe", "mc_renewal"],
)
def test_nonfinite_parameter_exits_2(capsys, argv, needle):
    assert run(argv) == 2
    assert needle in capsys.readouterr().err
