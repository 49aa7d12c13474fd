"""Benchmark of the ruin2d package: one workload per run.

    python3 bench/run.py --workload analytic_sweep --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  Set-up (import, models, one warm-up call per entry point) is
timed several times; then a single caller repeats passes over the
seed's list of public calls, a closed loop, until ``--seconds`` is used
up.  With ``--trace 0`` every end-to-end metric is printed; with
``--trace 1`` half the time runs untraced and half under the tracer,
and every per-layer metric is printed.  Times in the end-to-end metrics
are scaled to a reference machine speed by probes taken between the
calls (see ``speed.py``).  The outputs of each pass are
checked (see ``workloads.py``); the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Exits 2 without a result when the package sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from speed import REF_S, SpeedTrace, Speedometer  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Op, Verdict, Workload, fingerprint  # noqa: E402

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = "ruin2d"
SETUP_REPEATS = 5  # before the timed phase, and as many again after it
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
BLOCK_S = 0.025  # calls between two speed probes take about this long (or one call)

# (name, unit, better) of the metrics printed with --trace 0 ...
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("call_p50_ms", "ms", "lower"),
    ("call_tail_ms", "ms", "lower"),
    ("queries_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# ... and with --trace 1.  Counts and self times are per pass.
PER_LAYER = (
    ("numerics.integrate.calls", "count", "lower"),
    ("numerics.integrate.panels", "count", "lower"),
    ("numerics.integrate.self_ms", "ms", "lower"),
    ("numerics.root_solve.calls", "count", "lower"),
    ("numerics.root_solve.fevals", "count", "lower"),
    ("numerics.root_solve.self_ms", "ms", "lower"),
    ("models.adjustment.calls", "count", "lower"),
    ("models.adjustment.self_ms", "ms", "lower"),
    ("models.line_adjustment.calls", "count", "lower"),
    ("models.line_adjustment.self_ms", "ms", "lower"),
    ("models.saddle.calls", "count", "lower"),
    ("models.saddle.self_ms", "ms", "lower"),
    ("finite_time.finite_ruin.calls", "count", "lower"),
    ("finite_time.finite_ruin.self_ms", "ms", "lower"),
    ("finite_time.ruin_after.calls", "count", "lower"),
    ("finite_time.ruin_after.self_ms", "ms", "lower"),
    ("finite_time.ultimate_ruin.calls", "count", "lower"),
    ("cones.partition.calls", "count", "lower"),
    ("cones.partition.self_ms", "ms", "lower"),
    ("cones.classify.calls", "count", "lower"),
    ("cones.classify.self_ms", "ms", "lower"),
    ("twodim.exact.calls", "count", "lower"),
    ("twodim.exact.self_ms", "ms", "lower"),
    ("twodim.two_term.calls", "count", "lower"),
    ("twodim.two_term.self_ms", "ms", "lower"),
    ("twodim.leading.calls", "count", "lower"),
    ("twodim.leading.self_ms", "ms", "lower"),
    ("montecarlo.estimate.calls", "count", "lower"),
    ("montecarlo.estimate.paths", "count", "lower"),
    ("montecarlo.estimate.jump.self_ms", "ms", "lower"),
    ("montecarlo.estimate.brownian.self_ms", "ms", "lower"),
    ("montecarlo.estimate.paths_per_self_s", "1/s", "higher"),
    ("cli.run.calls", "count", "lower"),
    ("cli.run.self_ms", "ms", "lower"),
    ("cli.emit.self_ms", "ms", "lower"),
    ("cli.emit.bytes", "bytes", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


class MissingSources(Exception):
    pass


def fresh_import():
    """Import the package from ``src/`` as if for the first time."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    R = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    if Path(R.__file__).resolve().parent != SRC / PACKAGE:
        raise MissingSources(f"{PACKAGE} was imported from {R.__file__}, not from {SRC}")
    return R


@dataclass
class Phase:
    walls: List[float] = field(default_factory=list)
    lat: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))  # measured
    scaled: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    speed: SpeedTrace = field(default_factory=SpeedTrace)
    # (start, end, calls) of each stretch of calls between two probe readings
    blocks: List[Tuple[float, float, List[Tuple[Op, float]]]] = field(default_factory=list)
    rss_mb: Dict[str, float] = field(default_factory=dict)  # peak RSS after each call of pass 1

    def latency(self) -> Dict[str, float]:
        """Each call's median over its repeats of the time scaled to the
        reference speed (see ``speed.py``)."""
        return {k: statistics.median(v) for k, v in self.scaled.items()}

    def measured_latency(self) -> Dict[str, float]:
        return {k: statistics.median(v) for k, v in self.lat.items()}

    def scale_calls(self) -> None:
        """Scale every call's time by the readings around its block."""
        for t0, t1, calls in self.blocks:
            factors: Dict[float, float] = {}
            for op, dt in calls:
                if op.speed_mix not in factors:
                    factors[op.speed_mix] = self.speed.factor(t0, t1, op.speed_mix)
                self.lat[op.key].append(dt)
                self.scaled[op.key].append(dt * factors[op.speed_mix])
        self.blocks.clear()


def run_passes(wl: Workload, ops: Sequence[Op], rng: random.Random, budget_s: float,
               outs: Dict[str, object], fps: Dict[str, str], mismatches: List[str],
               meter: Speedometer) -> Phase:
    """Closed loop: one caller makes each call when the previous returns.

    Passes repeat until the next one would overrun ``budget_s`` (at least
    one runs).  As in ``timeit``, the cyclic garbage collector runs between
    passes and not during them: otherwise a collection paced by the
    harness's own objects lands on the same call in every pass.

    A speed reading is taken at the start of each pass and whenever
    ``BLOCK_S`` has passed since the last one, after the call then under
    way; at the end every call's time is scaled by the readings around it
    (see ``speed.py``).

    The first output of each op goes to ``outs``; an op whose output
    differs from one already seen (in this or an earlier phase) is
    appended to ``mismatches``.
    """
    ph = Phase()
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        gc.collect()
        gc.disable()
        try:
            block: List[Tuple[Op, float]] = []
            t_block = ph.speed.read(meter)
            for op in wl.pass_order(ops, rng):
                t0 = time.perf_counter()
                try:
                    out = op()
                except Exception as exc:  # the op failed; verify() reports it
                    out = exc
                t1 = time.perf_counter()
                block.append((op, t1 - t0))
                if not ph.walls:
                    ph.rss_mb[op.key] = _peak_rss_mb()
                fp = repr(fingerprint(out))
                if op.key not in fps:
                    fps[op.key] = fp
                    outs[op.key] = out
                elif fps[op.key] != fp:
                    mismatches.append(op.key)
                if t1 - t_block >= BLOCK_S:
                    ph.blocks.append((t_block, t1, block))
                    block = []
                    t_block = ph.speed.read(meter)
            if block:
                ph.blocks.append((t_block, time.perf_counter(), block))
                ph.speed.read(meter)
        finally:
            gc.enable()
        now = time.perf_counter()
        ph.walls.append(now - t_pass)
        if now - start + ph.walls[-1] > budget_s:
            ph.scale_calls()
            return ph


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss(ops: Sequence[Op], ph: Phase) -> Dict[str, float]:
    """Peak RSS up to the end of the first pass's single-threaded calls, and
    over the whole first pass.  Calls with workers=2 come last in a pass;
    their peak moves by 15-20% from run to run with thread scheduling."""
    w1 = [ph.rss_mb[op.key] for op in ops if op.info.get("workers", 1) == 1]
    return {"peak_rss_mb": max(w1), "peak_rss_w2_mb": max(ph.rss_mb.values())}


def tail(samples: Sequence[float]):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples beyond it."""
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(setup_times: List[float], ops: Sequence[Op], ph: Phase) -> Dict[str, float]:
    per_op = list(ph.latency().values())
    wall = sum(per_op)  # one pass, every call at its median scaled time
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "call_p50_ms": 1e3 * statistics.median(per_op),
        "call_tail_ms": 1e3 * tail(per_op)[0],
        "queries_per_s": len(per_op) / wall,
        "peak_rss_mb": peak_rss(ops, ph)["peak_rss_mb"],
    }


def per_layer(tr: Tracer, traced: Phase, untraced: Phase) -> Dict[str, float]:
    passes = len(traced.walls)
    own = tr.self_ms_by()
    out: Dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        if name.endswith(".self_ms"):
            out[name] = own.get(name[: -len(".self_ms")], 0.0) / passes
        else:
            out[name] = tr.counters.get(name, 0) / passes
    engine_ms = out["montecarlo.estimate.jump.self_ms"] + out["montecarlo.estimate.brownian.self_ms"]
    out["montecarlo.estimate.paths_per_self_s"] = (
        out["montecarlo.estimate.paths"] / (engine_ms / 1e3) if engine_ms > 0.0 else 0.0)
    out["trace.overhead_frac"] = (
        sum(traced.latency().values()) / sum(untraced.latency().values()) - 1.0)
    return out


def _git_commit() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(seed: int) -> Dict[str, object]:
    import numpy

    src = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _git_commit(),
        "src_sha256": src.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def _quartiles_ms(xs: Sequence[float]) -> List[float]:
    return [1e3 * q for q in statistics.quantiles(xs, n=4)] if len(xs) > 1 else [1e3 * xs[0]] * 3


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"bench: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_start = os.getloadavg()
    import numpy  # noqa: F401  (kept out of the set-up time: the harness pays it once)

    meter = Speedometer()
    wl = WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT)
    setup_times: List[float] = []  # scaled to the reference speed, like the calls
    setup_speed = SpeedTrace()

    def set_up():
        t0 = setup_speed.read(meter)
        R = fresh_import()
        ctx = wl.build(R, workdir)
        wl.warm(R, ctx)
        t1 = time.perf_counter()
        setup_speed.read(meter)
        # set-up is mostly imports and Python, so only the Python probe scales it
        setup_times.append((t1 - t0) * setup_speed.factor(t0, t1, 1.0))
        return R, ctx

    try:
        for _ in range(SETUP_REPEATS):
            R, ctx = set_up()
        ops = wl.ops(R, ctx, args.seed)
        order_rng = random.Random(f"order/{args.seed}")
        outs: Dict[str, object] = {}
        fps: Dict[str, str] = {}
        mismatches: List[str] = []
        if args.trace:
            untraced = run_passes(wl, ops, order_rng, args.seconds / 2, outs, fps, mismatches,
                                  meter)
            with Tracer() as tr:
                traced = run_passes(wl, ops, order_rng, args.seconds / 2, outs, fps,
                                    mismatches, meter)
        else:
            untraced = run_passes(wl, ops, order_rng, args.seconds, outs, fps, mismatches, meter)
        verdict = wl.verify(R, ctx, ops, outs, untraced.latency())
        # more set-ups, spread away from the first ones so that one slow
        # spell of a shared machine does not set the median
        for _ in range(SETUP_REPEATS):
            set_up()
    except MissingSources as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = per_layer(tr, traced, untraced)
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        metrics = end_to_end(setup_times, ops, untraced)
        units = {n: u for n, u, _ in END_TO_END}
    report(args, wl, ops, untraced, metrics, units, verdict, mismatches,
           dict(provenance(args.seed), loadavg_start=load_start, loadavg_end=os.getloadavg()))
    return 0


def report(args, wl, ops, ph: Phase, metrics, units, v: Verdict, mismatches, prov) -> None:
    problems = v.problems + [f"{k}: output differs between passes" for k in sorted(set(mismatches))]
    if any(op.info.get("workers") == 2 for op in ops):
        v.extras["peak_rss_w2_mb"] = (peak_rss(ops, ph)["peak_rss_w2_mb"], "MB")
    per_op = list(ph.latency().values())
    measured = list(ph.measured_latency().values())
    calls = sum(len(x) for x in ph.lat.values())
    _, pct = tail(per_op)
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(ph.walls)}  calls {calls}")
    print(f"  why: {wl.why}")
    for name, value in metrics.items():
        print(f"  {name:<40} {_fmt(value):>14} {units[name]}")
    if not args.trace:
        print(f"  (set-up: median of {2 * SETUP_REPEATS}; latency samples: {len(per_op)} "
              f"distinct calls, each the median of its repeats; tail = p{pct:.4g}; "
              f"times scaled to the reference speed)")
        print(f"  measured, unscaled: wall_s {_fmt(sum(measured))} s, call_p50_ms "
              f"{_fmt(1e3 * statistics.median(measured))} ms, call_tail_ms "
              f"{_fmt(1e3 * tail(measured)[0])} ms")
    readings = ph.speed.readings
    probe_q = {kind: _quartiles_ms([p[i] for p in readings])
               for i, kind in enumerate(("python", "numpy"))}
    print(f"  speed probes: {len(readings)} readings, reference {_fmt(1e3 * REF_S)} ms; "
          f"quartiles " + ", ".join(
              f"{kind} {' / '.join(_fmt(q) for q in qs)} ms" for kind, qs in probe_q.items()))
    print(f"  failed_frac {len(v.failed)}/{len(ops)} = {len(v.failed) / len(ops):.4g} ratio")
    for name, (value, unit) in v.extras.items():
        print(f"  {name:<40} {_fmt(value):>14} {unit}")
    for line in v.lines:
        print(f"  {line}")
    for key, why in sorted(v.failed.items()):
        print(f"  failed {key}: {why}")
    for p in problems:
        print(f"  INCORRECT: {p}")
    record = {
        "provenance": prov,
        "latency": {"distinct_calls": len(per_op), "calls": calls, "tail_percentile": pct},
        "measured": {"wall_s": sum(measured), "call_p50_ms": 1e3 * statistics.median(measured),
                     "call_tail_ms": 1e3 * tail(measured)[0]},
        "speed_probe_ms": {"readings": len(readings), "quartiles": probe_q,
                           "reference": 1e3 * REF_S},
        "failed_frac": len(v.failed) / len(ops),
        "extras": {k: {"value": x, "unit": u} for k, (x, u) in v.extras.items()},
        "output_digest": v.digest,
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(v.failed),
        "metrics": {k: {"value": x, "unit": units[k]} for k, x in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
