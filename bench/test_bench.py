"""Tests of the benchmark's own machinery: the tracer, the workload
generators and the metric lists.  Run with

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import ruin2d as R  # noqa: E402
import ruin2d.cli  # noqa: E402,F401
import run  # noqa: E402
import speed  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, fingerprint  # noqa: E402

CPE = R.TwoLineModel(R.CompoundPoissonExp(1.0, 2.0), 3.0, 1.0)
BM = R.TwoLineModel(R.StandardBrownian(), 3.0, 1.0)


def _bindings():
    return {(name, attr): val for name, mod in sys.modules.items()
            if name == "ruin2d" or name.startswith("ruin2d.")
            for attr, val in vars(mod).items() if callable(val)}


def _sample_calls(tmp_path):
    cfg = R.SimConfig(n=2048, seed=3, horizon=R.default_safe_level(BM))
    out = tmp_path / "cones.csv"
    return [
        R.exact(CPE, R.RuinQuery("SIM", 1.0, 3.0)),
        R.two_term_and(CPE, 2.0, 5.0),
        R.leading(BM, 2.0, 5.0, "SIM"),
        R.classify(BM, 2.0, 5.0, "and"),
        R.partition(CPE),
        R.estimate(BM, 1.0, 3.0, "OR", cfg),
        R.cli.run(["cones", "--driver", "cpe", "--lambda", "1", "--mu", "2",
                   "--p1", "3", "--p2", "1", "--out", str(out)]),
        out.read_bytes(),
    ]


def test_traced_calls_return_the_untraced_values(tmp_path):
    plain = [repr(fingerprint(x)) for x in _sample_calls(tmp_path)]
    with Tracer() as tr:
        traced = [repr(fingerprint(x)) for x in _sample_calls(tmp_path)]
    assert traced == plain
    names = {s.name for s in tr.spans}
    assert {"twodim.exact", "montecarlo.estimate", "cli.run", "cli.emit"} <= names


def test_every_binding_is_wrapped_and_restored():
    before = _bindings()
    with Tracer() as tr:
        wrapped = set(tr.bindings)
        assert {"ruin2d.twodim.finite_ruin", "ruin2d.cli.exact", "ruin2d.exact",
                "ruin2d.numerics.root_solve", "ruin2d.models.root_solve"} <= wrapped
        assert R.twodim.finite_ruin is not before[("ruin2d.twodim", "finite_ruin")]
        for defining, names in TARGETS.values():
            for fname in names:
                assert f"ruin2d.{defining}.{fname}" in wrapped
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_spans_nest_and_self_times_fit_in_wall(tmp_path):
    with Tracer() as tr:
        t0 = time.perf_counter_ns()
        _sample_calls(tmp_path)
        wall = time.perf_counter_ns() - t0
    own = tr.self_ns()
    ids = {s.id for s in tr.spans}
    assert all(s.parent is None or s.parent in ids for s in tr.spans)
    assert all(v >= 0 for v in own.values())
    assert sum(own.values()) <= wall
    assert any(s.parent is not None for s in tr.spans)


def test_counters_count_integrand_and_root_function_calls():
    seen = {"f": 0, "g": 0}

    def f(x):
        seen["f"] += 1
        return x * x

    def g(x):
        seen["g"] += 1
        return x - 0.3

    with Tracer() as tr:
        R.numerics.integrate(f, 0.0, 1.0)
        R.numerics.integrate(f, 1.0, 0.0)  # reversed limits recurse once
        R.numerics.root_solve(g, 0.0, 1.0)
    assert tr.counters["numerics.integrate.panels"] == seen["f"] > 0
    assert tr.counters["numerics.integrate.calls"] == 3
    assert tr.counters["numerics.root_solve.fevals"] == seen["g"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_generates_the_same_workload(name, tmp_path):
    wl = WORKLOADS[name]
    ctx = wl.build(R, str(tmp_path))

    def listing(seed):
        return [(op.key, op.attr, repr(op.args)) for op in wl.ops(R, ctx, seed)]

    first = listing(11)
    assert first == listing(11)
    assert first != listing(12)
    assert len({key for key, _, _ in first}) == len(first)
    # enough distinct calls for the tail percentile to lie above the median
    assert len(first) > 2 * run.TAIL_BEYOND


def test_tail_leaves_the_stated_number_of_samples_beyond():
    value, pct = run.tail([float(i) for i in range(1, 31)])
    assert (value, pct) == (20.0, pytest.approx(100 * 20 / 30))
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_speed_scaling_uses_the_readings_around_the_interval():
    tr = speed.SpeedTrace()
    ref = speed.REF_S
    for t in range(10):  # reference speed for 10 s, then twice as slow
        tr.add(float(t), (ref, ref))
    for t in range(10, 20):
        tr.add(float(t), (2 * ref, 4 * ref))
    assert tr.factor(3.0, 4.0, 1.0) == pytest.approx(1.0)
    assert tr.factor(14.0, 15.0, 1.0) == pytest.approx(0.5)
    assert tr.factor(14.0, 15.0, 0.0) == pytest.approx(0.25)
    assert tr.factor(14.0, 15.0, 0.5) == pytest.approx(0.5 ** 0.5 * 0.25 ** 0.5)


def test_probe_readings_are_positive():
    meter = speed.Speedometer()
    a, b = meter.probe(), meter.probe()
    assert all(x > 0.0 for x in a + b)


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
