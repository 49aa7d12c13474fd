"""The benchmark's four workloads.

Each workload builds its models, generates the list of public calls of
one pass from the seed, and checks the outputs of a pass.  A call is an
``Op``: the attribute to call on a ruin2d module and its arguments.  The
attribute is looked up at call time, so the tracer's wrappers are seen.

Inputs depend only on the seed; the program sees only the generated
arguments.  Every pass of a run makes the same calls, in an order that
``Workload.pass_order`` reshuffles for each pass.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
import random
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

EVENTS = ("OR", "SIM", "AND")
TWO_TERM = {"OR": "two_term_or", "SIM": "two_term_sim", "AND": "two_term_and"}

# Rays x = (aK, K), one inside each cone of both partitions and away from
# every guard band: CPE(1, 2) has s1 = 0.882, s3 = 0.429 and Brownian has
# s1 = 0.6, s3 = 1/3, both with p = (3, 1) and an empty D2 sector.
RAYS = {"cpe": (0.3, 0.6, 0.95), "bm": (0.2, 0.45, 0.8)}
K_MIN, K_MAX = 1.0, 40.0  # the exact engine's documented accurate domain

EXACT_VS_TWO_TERM_RTOL = 1e-10  # OR and SIM; the README claims ~1e-15
Z_LIMIT = 4.0


@dataclass
class Op:
    """One public call: ``getattr(owner, attr)(*args)``."""

    key: str
    owner: Any
    attr: str
    args: Tuple
    info: Dict[str, Any] = field(default_factory=dict)
    # weight of the Python probe when the call's time is scaled to the
    # reference speed; the rest goes to the numpy probe (see speed.py)
    speed_mix: float = 1.0

    def __call__(self):
        return getattr(self.owner, self.attr)(*self.args)


@dataclass
class Verdict:
    problems: List[str] = field(default_factory=list)  # any entry invalidates the run
    failed: Dict[str, str] = field(default_factory=dict)  # op key -> reason
    extras: Dict[str, Tuple[float, str]] = field(default_factory=dict)  # name -> (value, unit)
    lines: List[str] = field(default_factory=list)  # per-op notes for the report
    digest: str = ""


def fingerprint(out: Any) -> Any:
    """A comparable summary of one call's output, used to require that
    every pass (and the traced pass) returns the same values."""
    if isinstance(out, BaseException):
        return ("error", type(out).__name__)
    if hasattr(out, "p_hat"):
        return (out.p_hat, out.std_err)
    if hasattr(out, "term1"):
        return (out.term1, out.term2)
    if hasattr(out, "s1"):
        return (out.s1, out.s2, out.s3, out.d2_empty)
    if hasattr(out, "method"):
        return (out.value, getattr(out.cone, "value", None))
    return getattr(out, "value", out)


def build_models(R) -> Dict[str, Any]:
    return {
        "cpe": R.TwoLineModel(R.CompoundPoissonExp(1.0, 2.0), 3.0, 1.0),
        "bm": R.TwoLineModel(R.StandardBrownian(), 3.0, 1.0),
        # criterion-12 renewal model: deterministic unit gaps, exp(2) claims
        "renewal": R.TwoLineModel(
            R.Renewal(R.deterministic_dist(1.0), R.exponential_dist(2.0)), 3.0, 1.0),
    }


def _jittered_ks(rng: random.Random, count: int) -> List[float]:
    """An even grid over [K_MIN, K_MAX], each K moved by up to 3% by the seed.
    The jitter is small so that every seed asks for about the same work."""
    step = (K_MAX - K_MIN) / (count - 1)
    return [min(max((K_MIN + step * j) * (1.0 + 0.03 * (2.0 * rng.random() - 1.0)), K_MIN), K_MAX)
            for j in range(count)]


def _failed_by_error(ops: Sequence[Op], outs: Dict[str, Any], verdict: Verdict) -> None:
    for op in ops:
        out = outs[op.key]
        if isinstance(out, BaseException):
            verdict.failed[op.key] = f"{type(out).__name__}: {out}"


class Workload:
    name = ""
    why = ""

    def build(self, R, workdir: str) -> Dict[str, Any]:
        """Models and fixed inputs; ``workdir`` is a scratch directory."""
        return build_models(R)

    def warm(self, R, ctx: Dict[str, Any]) -> None:
        """One call per entry point the workload uses."""

    def ops(self, R, ctx: Dict[str, Any], seed: int) -> List[Op]:
        """The calls of one pass, generated from the seed."""
        raise NotImplementedError

    def pass_order(self, ops: Sequence[Op], rng: random.Random) -> List[Op]:
        """The order of one pass.  Each pass is shuffled afresh, so that a
        call's fastest repeat does not always follow the same neighbour
        (a large simulation leaves the caches cold for the next call)."""
        order = list(ops)
        rng.shuffle(order)
        return order

    def verify(self, R, ctx: Dict[str, Any], ops: Sequence[Op],
               outs: Dict[str, Any], lat: Dict[str, float]) -> Verdict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# analytic_sweep


class AnalyticSweep(Workload):
    name = "analytic_sweep"
    why = ("exact, two-term and leading answers plus cone classification on rays "
           "in every cone; all work in models/numerics/finite_time/cones/twodim, "
           "montecarlo idle")
    k_count = 16

    def warm(self, R, ctx):
        m = ctx["cpe"]
        R.exact(m, R.RuinQuery("OR", 1.0, 3.0))
        R.two_term_or(m, 1.0, 3.0)
        R.two_term_sim(m, 1.0, 3.0)
        R.two_term_and(m, 1.0, 3.0)
        R.leading(m, 1.0, 3.0, "SIM")
        R.classify(m, 1.0, 3.0, "sim")
        R.partition(m)

    def ops(self, R, ctx, seed):
        rng = random.Random(seed)
        out: List[Op] = []
        for mname, slopes in RAYS.items():
            model = ctx[mname]
            out.append(Op(f"{mname}/partition", R, "partition", (model,)))
            for a in slopes:
                for j, K in enumerate(_jittered_ks(rng, self.k_count)):
                    x1, x2 = a * K, K
                    pt = f"{mname}/a{a}/k{j}"
                    info = {"model": mname, "x1": x1, "x2": x2}
                    for ev in EVENTS:
                        out.append(Op(f"{pt}/exact/{ev}", R, "exact",
                                      (model, R.RuinQuery(ev, x1, x2)), dict(info, event=ev)))
                        out.append(Op(f"{pt}/two_term/{ev}", R, TWO_TERM[ev],
                                      (model, x1, x2), dict(info, event=ev)))
                        out.append(Op(f"{pt}/leading/{ev}", R, "leading",
                                      (model, x1, x2, ev), dict(info, event=ev)))
                    for kind in ("sim", "and"):
                        out.append(Op(f"{pt}/classify/{kind}", R, "classify",
                                      (model, x1, x2, kind), info))
        return out

    def verify(self, R, ctx, ops, outs, lat):
        v = Verdict()
        _failed_by_error(ops, outs, v)
        points = sorted({op.key.rsplit("/", 2)[0] for op in ops if "/k" in op.key})
        worst = 0.0
        for pt in points:
            got = {k[len(pt) + 1:]: outs[k] for k in outs if k.startswith(pt + "/")}
            if any(isinstance(o, BaseException) for o in got.values()):
                continue
            for ev in ("OR", "SIM"):
                ex, tt = got[f"exact/{ev}"].value, got[f"two_term/{ev}"].total
                rel = abs(ex - tt) / ex if ex > 0.0 else abs(tt)
                worst = max(worst, rel)
                if not rel <= EXACT_VS_TWO_TERM_RTOL:
                    v.problems.append(f"{pt} {ev}: exact {ex!r} vs two_term {tt!r} (rel {rel:.2e})")
            for kind, ev in (("sim", "SIM"), ("and", "AND")):
                label = got[f"classify/{kind}"]
                if label is R.ConeLabel.BOUNDARY_RAY or label is not got[f"exact/{ev}"].cone:
                    v.problems.append(f"{pt}: classify({kind}) {label} vs exact {ev} "
                                      f"cone {got[f'exact/{ev}'].cone}")
        v.lines.append(f"exact vs two_term (OR, SIM): worst relative gap {worst:.2e} "
                       f"over {len(points)} points, gate {EXACT_VS_TWO_TERM_RTOL:g}")
        return v


# ---------------------------------------------------------------------------
# Monte Carlo workloads


def _mc_op(R, ctx, key, mname, x1, x2, ev, n, seed, tilt, workers) -> Op:
    model = ctx[mname]
    cfg = R.SimConfig(n=n, seed=seed, horizon=ctx["horizon"][mname], tilt=tilt,
                      workers=workers)
    info = {"model": mname, "x1": x1, "x2": x2, "event": ev, "n": n, "workers": workers}
    return Op(key, R, "estimate", (model, x1, x2, ev, cfg), info, speed_mix=0.0)


def _rerun(R, op: Op, workers: int):
    *query, cfg = op.args
    return R.estimate(*query, dataclasses.replace(cfg, workers=workers))


class _MonteCarlo(Workload):
    def build(self, R, workdir):
        ctx = build_models(R)
        ctx["horizon"] = {k: R.default_safe_level(ctx[k]) for k in ("cpe", "bm", "renewal")}
        return ctx

    def warm(self, R, ctx):
        R.estimate(ctx["cpe"], 1.0, 3.0, "OR",
                   R.SimConfig(n=512, seed=0, horizon=ctx["horizon"]["cpe"]))

    def _check_estimates(self, R, ctx, ops, outs, lat, v: Verdict) -> None:
        """Statistical outcome of every estimate: z against ``exact`` and
        std_err/p_hat.  An op fails if |z| > 4 or std_err >= p_hat."""
        refs: Dict[Tuple, float] = {}
        costs, paths, digest = [], {1: [0, 0.0], 2: [0, 0.0]}, hashlib.sha256()
        for op in sorted(ops, key=lambda o: o.key):
            est, i = outs[op.key], op.info
            if isinstance(est, BaseException):
                continue
            digest.update(f"{op.key}:{est.p_hat!r}:{est.std_err!r};".encode())
            acc = paths[i["workers"]]
            acc[0] += i["n"]
            acc[1] += lat[op.key]
            rel_se = est.std_err / est.p_hat if est.p_hat > 0.0 else math.inf
            if i["workers"] == 1 and est.p_hat > 0.0:
                costs.append(lat[op.key] * (rel_se / 0.01) ** 2)
            if i["model"] == "renewal":  # no exact value: finite and positive
                z = math.nan
                bad = not (math.isfinite(est.p_hat) and est.p_hat > 0.0)
            else:
                rk = (i["model"], i["x1"], i["x2"], i["event"])
                if rk not in refs:
                    refs[rk] = R.exact(ctx[i["model"]], R.RuinQuery(i["event"], i["x1"], i["x2"])).value
                z = (est.p_hat - refs[rk]) / est.std_err if est.std_err > 0.0 else -math.inf
                bad = abs(z) > Z_LIMIT
            if bad or not rel_se < 1.0:
                v.failed[op.key] = f"z={z:+.3g} std_err/p_hat={rel_se:.3g}"
            zs = "n/a" if math.isnan(z) else f"{z:+.3g}"
            v.lines.append(f"{op.key:<24} p_hat={est.p_hat:.6g} std_err/p_hat={rel_se:.3g} "
                           f"z={zs}{'  FAILED' if op.key in v.failed else ''}")
        for w, name in ((1, "paths_per_s"), (2, "paths_per_s_w2")):
            if paths[w][1] > 0.0:
                v.extras[name] = (paths[w][0] / paths[w][1], "1/s")
        if costs:
            v.extras["s_per_1pct"] = (statistics.median(costs), "s")
        v.digest = digest.hexdigest()[:16]

    def _check_workers(self, pairs: Sequence[Tuple[str, Any, Any]], v: Verdict) -> None:
        for key, a, b in pairs:
            if isinstance(a, BaseException) or isinstance(b, BaseException):
                continue
            if (a.p_hat, a.std_err) != (b.p_hat, b.std_err):
                v.problems.append(f"{key}: workers=1 gives {(a.p_hat, a.std_err)!r}, "
                                  f"workers=2 gives {(b.p_hat, b.std_err)!r}")


class McUntilted(_MonteCarlo):
    name = "mc_untilted"
    why = ("untilted estimates at (1, 3) for CPE and Brownian, workers=1 then 2: paths "
           "walk to the safe level, so the round loops of both chunk engines dominate")
    point = (1.0, 3.0)  # the acceptance criterion-5 point
    replicas = 2
    # paths per estimate: Brownian SIM and AND have p = 1.3e-4 and 2.5e-4, so
    # they get enough paths for about 17 expected hits each.  With a handful
    # of hits the estimate's own std_err is too small and |z| > 4 is common
    n_paths = {("cpe", "OR"): 16384, ("cpe", "SIM"): 16384, ("cpe", "AND"): 16384,
               ("bm", "OR"): 16384, ("bm", "SIM"): 131072, ("bm", "AND"): 65536}

    def ops(self, R, ctx, seed):
        rng = random.Random(seed)
        x1, x2 = self.point
        out = []
        for (mname, ev), n in self.n_paths.items():
            for r in range(self.replicas):
                s = rng.getrandbits(31)
                for w in (1, 2):
                    out.append(_mc_op(R, ctx, f"{mname}/{ev}/r{r}/w{w}", mname, x1, x2,
                                      ev, n, s, None, w))
        return out

    def pass_order(self, ops, rng):
        # workers=1 first: run.peak_rss reads the peak at the end of those calls
        w1 = [o for o in ops if o.info["workers"] == 1]
        w2 = [o for o in ops if o.info["workers"] == 2]
        rng.shuffle(w1)
        rng.shuffle(w2)
        return w1 + w2

    def verify(self, R, ctx, ops, outs, lat):
        v = Verdict()
        _failed_by_error(ops, outs, v)
        self._check_workers([(k[:-3], outs[k], outs[k[:-1] + "2"])
                             for k in outs if k.endswith("/w1")], v)
        self._check_estimates(R, ctx, ops, outs, lat, v)
        return v


class McTiltedTail(_MonteCarlo):
    name = "mc_tilted_tail"
    why = ("tilted estimates deep in the tail on the ray (K/2, K): paths ruin within a "
           "few rounds, so per-round overhead, weight bookkeeping and the renewal sampler dominate")
    n = 16384
    ks = {"cpe": (10.0, 20.0), "bm": (4.0, 8.0)}
    renewal_ks = (12.0, 18.0)

    def ops(self, R, ctx, seed):
        rng = random.Random(seed)
        out = []
        for mname, ks in self.ks.items():
            adj = R.adjustment(ctx[mname])
            for K in ks:
                for ci, c in enumerate((-0.75 * adj.gamma2, -adj.gamma1)):
                    for ev in EVENTS:
                        out.append(_mc_op(R, ctx, f"{mname}/K{K:g}/c{ci}/{ev}", mname,
                                          K / 2, K, ev, self.n, rng.getrandbits(31), c, 1))
        g1 = R.renewal_adjustment(ctx["renewal"].driver, ctx["renewal"].p1)
        for K in self.renewal_ks:
            out.append(_mc_op(R, ctx, f"renewal/K{K:g}/c1/OR", "renewal", K / 2, K, "OR",
                              self.n, rng.getrandbits(31), -g1, 1))
        return out

    def verify(self, R, ctx, ops, outs, lat):
        v = Verdict()
        _failed_by_error(ops, outs, v)
        # worker invariance on the strongly tilted estimates, renewal included
        heavy = [op for op in ops if "/c1/" in op.key and not isinstance(outs[op.key], BaseException)]
        self._check_workers([(op.key, outs[op.key], _rerun(R, op, 2)) for op in heavy], v)
        self._check_estimates(R, ctx, ops, outs, lat, v)
        return v


# ---------------------------------------------------------------------------
# cli_compare


_MODEL_FLAGS = {
    "cpe": ["--driver", "cpe", "--lambda", "1", "--mu", "2", "--p1", "3", "--p2", "1"],
    "bm": ["--driver", "brownian", "--p1", "3", "--p2", "1"],
}
# Brownian (1, 3) sits on the AND guard band (exit 3), so Brownian compares at (1, 4)
_COMPARE_POINTS = {"cpe": (1.0, 3.0), "bm": (1.0, 4.0)}


class CliCompare(Workload):
    name = "cli_compare"
    why = ("in-process cli.run of compare, mc --event or,sim,and, sweep and cones: the "
           "only entry point that re-simulates per event and calls exact twice per event")
    n = 4096
    seeds_per_command = 4
    # a fixed grid: the seed only picks the MC streams and the order, so every
    # seed asks for the same work and the latency quantiles land on the same calls
    sweep_ks = (2.0, 5.0, 10.0, 20.0, 30.0, 40.0)

    def build(self, R, workdir):
        ctx = build_models(R)
        ctx["horizon"] = {k: R.default_safe_level(ctx[k]) for k in ("cpe", "bm")}
        ctx["outdir"] = workdir
        return ctx

    def warm(self, R, ctx):
        R.cli.run(["cones", *_MODEL_FLAGS["cpe"], "--out", os.path.join(ctx["outdir"], "warm.csv")])

    def ops(self, R, ctx, seed):
        rng = random.Random(seed)
        out = []

        def add(kind, mname, argv, fmt, **info):
            path = os.path.join(ctx["outdir"], f"{len(out):02d}.{fmt}")
            argv = [kind, *_MODEL_FLAGS[mname], *argv, "--format", fmt, "--out", path]
            # compare and mc spend about 90% of their time in the chunk
            # engines, which are numpy work; sweep and cones are Python
            out.append(Op(f"{kind}/{mname}/{len(out):02d}", R.cli, "run", (argv,),
                          dict(info, kind=kind, model=mname, path=path),
                          speed_mix=0.0 if kind in ("compare", "mc") else 1.0))

        for _ in range(self.seeds_per_command):
            s = rng.getrandbits(31)
            mc_flags = ["--n", str(self.n), "--seed", str(s)]
            for mname, (x1, x2) in _COMPARE_POINTS.items():
                add("compare", mname, ["--x1", repr(x1), "--x2", repr(x2), *mc_flags],
                    "json", seed=s)
            x1, x2 = _COMPARE_POINTS["cpe"]
            add("mc", "cpe", ["--x1", repr(x1), "--x2", repr(x2), "--event", "or,sim,and",
                              *mc_flags], "json", seed=s)
        for mname, slopes in RAYS.items():
            for a in slopes:
                ks = self.sweep_ks
                for ev in EVENTS:
                    add("sweep", mname, ["--a", repr(a), "--k", ",".join(map(repr, ks)),
                                         "--event", ev.lower(),
                                         "--method", "exact,two_term,leading"],
                        "csv", a=a, ks=ks)
            add("cones", mname, [], "csv")
        return out

    def verify(self, R, ctx, ops, outs, lat):
        v = Verdict()
        lib = _Library(R, ctx, self.n)
        digest = hashlib.sha256()
        checked = 0
        for op in sorted(ops, key=lambda o: o.key):
            code, i = outs[op.key], op.info
            if isinstance(code, BaseException) or code != 0:
                v.failed[op.key] = f"exit {code!r}"
                continue
            with open(i["path"], "rb") as fh:
                raw = fh.read()
            digest.update(raw)
            model = ctx[i["model"]]
            if i["kind"] in ("compare", "mc"):
                for row in json.loads(raw):
                    want = lib.value(i["model"], row["method"], row["x1"], row["x2"],
                                     row["event"], i["seed"])
                    got = row["value"] if row["method"] != "MC" else (
                        row["value"], row["diagnostics"]["std_err"])
                    checked += 1
                    if got != want:
                        v.problems.append(f"{op.key} {row['event']} {row['method']}: "
                                          f"cli {got!r} vs library {want!r}")
            elif i["kind"] == "sweep":
                for row in csv.DictReader(raw.decode().splitlines()):
                    # the CSV rounds K to 12 digits; the library gets the K that was sent
                    K = min(i["ks"], key=lambda k: abs(k - float(row["K"])))
                    got = float(row["value"])
                    want = lib.value(i["model"], row["method"], i["a"] * K, K,
                                     row["event"], None)
                    checked += 1
                    if not abs(got - want) <= 1e-11 * abs(want):
                        v.problems.append(f"{op.key} {row['event']} {row['method']} "
                                          f"K={row['K']}: cli {got!r} vs library {want!r}")
            else:  # cones
                rows = list(csv.DictReader(raw.decode().splitlines()))
                part = R.partition(model)
                head = json.loads(rows[0]["diagnostics"])
                checked += 1
                if (head["s1"], head["s2"], head["s3"]) != (part.s1, part.s2, part.s3):
                    v.problems.append(f"{op.key}: slopes {head} vs library {part}")
                for row in rows[1:]:
                    checked += 1
                    want = R.classify(model, float(row["a"]), 1.0).value
                    if row["cone"] != want:
                        v.problems.append(f"{op.key} a={row['a']}: cone {row['cone']} vs {want}")
        v.lines.append(f"{checked} parsed CLI values checked against the library")
        v.digest = digest.hexdigest()[:16]
        return v


class _Library:
    """The library's own answer for one parsed CLI row, memoised."""

    def __init__(self, R, ctx, n: int) -> None:
        self.R, self.ctx, self.n = R, ctx, n
        self._memo: Dict[Tuple, Any] = {}

    def value(self, mname: str, method: str, x1: float, x2: float, event: str,
              seed: Optional[int]):
        key = (mname, method, x1, x2, event, seed)
        if key not in self._memo:
            self._memo[key] = self._compute(*key)
        return self._memo[key]

    def _compute(self, mname, method, x1, x2, event, seed):
        R, model = self.R, self.ctx[mname]
        if method == "Exact":
            return R.exact(model, R.RuinQuery(event, x1, x2)).value
        if method == "TwoTerm":
            return getattr(R, TWO_TERM[event])(model, x1, x2).total
        if method == "Leading":
            return R.leading(model, x1, x2, event).value
        est = R.estimate(model, x1, x2, event, R.SimConfig(
            n=self.n, seed=seed, horizon=self.ctx["horizon"][mname]))
        return (est.p_hat, est.std_err)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (AnalyticSweep(), McUntilted(), McTiltedTail(), CliCompare())
}
