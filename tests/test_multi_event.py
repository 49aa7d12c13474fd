"""Several events from one simulation.

``estimate`` given a list or tuple of events reduces all of them from one
pass over the chunk engines.  Each entry must equal the single-event call
with the same config bit for bit, and the CLI must make one such call per
reserve point while emitting exactly what it emitted when it simulated
once per event (the sha256 prefixes below were taken from that output).
"""

import hashlib
import math

import pytest

from ruin2d import cli, montecarlo
from ruin2d.errors import OutOfRange
from ruin2d.models import (
    CompoundPoissonExp,
    Renewal,
    StandardBrownian,
    TwoLineModel,
    adjustment,
    deterministic_dist,
    exponential_dist,
    renewal_adjustment,
)
from ruin2d.montecarlo import FixedTime, McEstimate, SimConfig, default_safe_level, estimate
from ruin2d.twodim import _EVENTS

CPE = TwoLineModel(CompoundPoissonExp(1.0, 2.0), 3.0, 1.0)
BM = TwoLineModel(StandardBrownian(), 3.0, 1.0)
RW = TwoLineModel(Renewal(deterministic_dist(1.0), exponential_dist(2.0)), 3.0, 1.0)
MODELS = {"cpe": CPE, "bm": BM, "renewal": RW}

CPE_FLAGS = ["--driver", "cpe", "--lambda", "1", "--mu", "2", "--p1", "3", "--p2", "1"]
BM_FLAGS = ["--driver", "brownian", "--p1", "3", "--p2", "1"]


def _tilt(name, which):
    if name == "renewal":
        return -renewal_adjustment(RW.driver, RW.p1)
    adj = adjustment(MODELS[name])
    return -adj.gamma1 if which == "g1" else -0.75 * adj.gamma2


# case id: (model, x1, x2, tilt (None, "g1" = -gamma1, "g2" = -0.75 gamma2),
#           horizon (None = default_safe_level), n, chunk_size)
CASES = {
    "cpe-untilted": ("cpe", 1.0, 3.0, None, None, 3000, 1024),
    "bm-untilted": ("bm", 1.0, 3.0, None, None, 3000, 1024),
    "renewal-untilted": ("renewal", 1.0, 3.0, None, None, 3000, 1024),
    "cpe-tilted": ("cpe", 10.0, 20.0, "g1", None, 3000, 1024),
    "bm-tilted": ("bm", 4.0, 8.0, "g1", None, 3000, 1024),
    "renewal-tilted": ("renewal", 6.0, 12.0, "g1", None, 3000, 1024),
    "cpe-fixed-time": ("cpe", 1.0, 3.0, "g2", FixedTime(5.0), 3000, 1024),
    "bm-fixed-time": ("bm", 1.0, 3.0, "g2", FixedTime(5.0), 3000, 1024),
    "cpe-partial-last-chunk": ("cpe", 1.0, 3.0, None, None, 8192 + 777, 8192),
}


def _config(name, tilt, horizon, n, chunk_size, workers):
    model2 = MODELS[name]
    return SimConfig(n=n, seed=17, chunk_size=chunk_size, workers=workers,
                     tilt=None if tilt is None else _tilt(name, tilt),
                     horizon=default_safe_level(model2) if horizon is None else horizon)


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_sequence_equals_single_event_calls(case, workers):
    name, x1, x2, tilt, horizon, n, chunk_size = CASES[case]
    cfg = _config(name, tilt, horizon, n, chunk_size, workers)
    model2 = MODELS[name]
    many = estimate(model2, x1, x2, list(_EVENTS), cfg)
    assert list(many) == list(_EVENTS)
    for ev in _EVENTS:
        one = estimate(model2, x1, x2, ev, cfg)
        assert isinstance(one, McEstimate)
        got = many[ev]
        assert got.p_hat == one.p_hat, ev
        assert got.std_err == one.std_err, ev
        assert got.ci == one.ci, ev
        assert got.n == one.n == n
        assert _same(got.bias_bound, one.bias_bound), ev


def test_sequence_keeps_the_order_given():
    cfg = SimConfig(n=512, seed=3, horizon=default_safe_level(CPE))
    got = estimate(CPE, 1.0, 3.0, ("AND", "LINE2", "OR"), cfg)
    assert list(got) == ["AND", "LINE2", "OR"]
    assert estimate(CPE, 1.0, 3.0, ["SIM"], cfg) == {"SIM": estimate(CPE, 1.0, 3.0, "SIM", cfg)}


@pytest.fixture()
def chunk_runs(monkeypatch):
    """Count the passes over the chunk engines."""
    runs = []
    real = montecarlo._run_chunks

    def counted(*args):
        runs.append(args[1:3])
        return real(*args)

    monkeypatch.setattr(montecarlo, "_run_chunks", counted)
    return runs


@pytest.mark.parametrize("events", [("OR", "RUIN"), ("RUIN", "OR"), ("OR", "SIM", "line1"),
                                    ["SIM", None], (), []])
def test_bad_sequence_refused_before_simulating(events, chunk_runs):
    cfg = SimConfig(n=512, seed=3, horizon=default_safe_level(CPE))
    with pytest.raises(OutOfRange):
        estimate(CPE, 1.0, 3.0, events, cfg)
    assert chunk_runs == []


def _run_cli(argv, capsys):
    code = cli.run(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# sha256 prefixes of the output, which every MC row running its own
# estimate also gives (the Brownian compare rows average each event's
# probability given W_T); (argv, passes over the chunk engines, digest)
CLI_CASES = {
    "mc": (["mc", *CPE_FLAGS, "--x1", "1", "--x2", "3", "--event", "or,sim,and",
            "--n", "2048", "--seed", "5", "--format", "json"], 1, "486f910352b29251"),
    "compare": (["compare", *BM_FLAGS, "--x1", "1", "--x2", "4",
                 "--n", "2048", "--seed", "5", "--format", "json"], 1, "08fa893d0c5a0ad4"),
    "compute": (["compute", *CPE_FLAGS, "--x1", "1", "--x2", "3", "--method", "mc",
                 "--event", "or,sim", "--n", "2048", "--seed", "5", "--format", "csv"],
                1, "117bccf59aad6359"),
    "compute-mixed": (["compute", *CPE_FLAGS, "--x1", "1", "--x2", "3",
                       "--method", "exact,mc", "--event", "or,sim,line1",
                       "--n", "2048", "--seed", "5", "--format", "json"], 1, "5edbc624306b4f12"),
    "sweep": (["sweep", *CPE_FLAGS, "--a", "0.5", "--k", "2,4", "--method", "exact,mc",
               "--event", "or,and", "--n", "2048", "--seed", "5", "--format", "csv"],
              2, "7b58538358faeeba"),
    "repeated-event": (["mc", *CPE_FLAGS, "--x1", "1", "--x2", "3", "--event", "or,or",
                        "--n", "1024", "--seed", "5", "--format", "json"], 1, "a192947c175da04f"),
}


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_simulates_each_point_once(case, chunk_runs, capsys):
    argv, passes, digest = CLI_CASES[case]
    code, out, err = _run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert len(chunk_runs) == passes
    assert len(set(chunk_runs)) == passes  # one pass per reserve point
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_compare_refusal_after_the_shared_simulation(chunk_runs, capsys):
    # Brownian (1, 3): the OR and SIM rows succeed, the AND Exact row refuses;
    # the one simulation runs at the OR MC row, as the OR estimate did
    code, out, err = _run_cli(["compare", *BM_FLAGS, "--x1", "1", "--x2", "3",
                               "--n", "2048", "--seed", "5"], capsys)
    assert code == 3
    assert out == ""
    assert err == ("ruin2d: refused: BoundaryVelocity: velocity 3 within the guard "
                   "band of -kappa_2'(-gamma_3) = 3\n")
    assert len(chunk_runs) == 1
