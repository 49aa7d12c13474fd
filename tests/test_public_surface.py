"""The public surface: the README's library quick start runs as written and
prints what it says, and the names exported by ``ruin2d`` and the columns
of a ``simulate`` block are pinned, so a change to them is a deliberate
edit of this file."""

import re
import types
from pathlib import Path

import ruin2d

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = [
    "AdjustmentData", "BoundaryRay", "BoundaryVelocity", "CheckReport",
    "CompoundPoissonExp", "ConeLabel", "ConePartition", "ConfigError", "DistSpec",
    "ExpansionTerms", "FixedTime", "InsufficientConditionedSamples",
    "InternalInconsistency", "InvalidHorizon", "InvalidProportions", "LimitLaw",
    "LineModel", "McEstimate", "NoAdjustment", "NoConjugate", "NumericalRefusal",
    "OutOfDomain", "OutOfRange", "Renewal", "Ruin2dError",
    "RuinEstimate", "RuinQuery", "SaddleData", "SafeLevel", "SimConfig",
    "StandardBrownian", "TwoLineModel", "UnsupportedDriver",
    "adjustment", "check_limits",
    "classify", "cones", "crossing_time", "default_safe_level", "deterministic_dist",
    "errors", "estimate", "exact", "exit_rate", "exponential_dist", "finite_ruin",
    "finite_time", "gamma_ray", "joint_cumulant", "leading", "limit_law",
    "line_adjustment", "models", "montecarlo", "numerics", "partition",
    "rate_function", "renewal_adjustment", "renewal_exponents", "ruin_after",
    "saddle", "scale_to_canonical", "simulate", "tilt", "two_term_and",
    "two_term_or", "two_term_sim", "twodim", "ultimate_ruin",
]


def _quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_prints_what_it_says():
    code = _quick_start()
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    # a comment line holding only a number is the value of the line above it
    lines = code.splitlines()
    printed = [(lines[i - 1], line[2:]) for i, line in enumerate(lines)
               if re.fullmatch(r"# [-+0-9.e]+", line)]
    assert printed == [('exact(model, RuinQuery("OR", 1.0, 3.0)).value',
                        "0.048051495658607446")]
    for expr, want in printed:
        assert repr(eval(expr, namespace)) == want


def test_public_names_are_pinned():
    assert sorted(ruin2d.__all__) == PUBLIC_NAMES


def test_block_columns_are_pinned():
    model = ruin2d.TwoLineModel(ruin2d.CompoundPoissonExp(1.0, 2.0), 3.0, 1.0)
    config = ruin2d.SimConfig(n=5, seed=1, horizon=ruin2d.SafeLevel(30.0))
    block = next(ruin2d.simulate(model, 1.0, 3.0, config))
    assert isinstance(block, types.MappingProxyType)
    assert {k: (v.dtype.str, v.shape) for k, v in block.items()} == {
        "tau1": ("<f8", (5,)), "tau2": ("<f8", (5,)), "tau_or": ("<f8", (5,)),
        "tau_sim": ("<f8", (5,)), "censor_reason": ("|O", (5,)),
        "OR": ("<f8", (5,)), "SIM": ("<f8", (5,)), "AND": ("<f8", (5,)),
        "LINE1": ("<f8", (5,)), "LINE2": ("<f8", (5,))}
    assert list(block) == ["tau1", "tau2", "tau_or", "tau_sim", "censor_reason",
                           "OR", "SIM", "AND", "LINE1", "LINE2"]
