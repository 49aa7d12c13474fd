"""Command-line front end.

Subcommands: ``compute`` (single queries), ``sweep`` (ray sweeps along
(aK, K)), ``cones`` (sector slopes plus a plot-ready label grid), ``mc``
(Monte Carlo estimate with CI) and ``compare`` (methods side by side with
ratios against the exact engine).

Configuration comes from an optional single JSON document (``--config``)
with blocks {model, query, mc, output}; every key has a flat flag of the
same name, and a flag always wins over the file value.  Exit codes: 0
success, 2 invalid configuration, 3 numerical refusal (the reason goes to
stderr), 4 output IO failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from .cones import _classify, _partition, classify
from .errors import ConfigError, NumericalRefusal
from .models import (
    _SPECTRAL_MEMO,
    CompoundPoissonExp,
    Renewal,
    StandardBrownian,
    TwoLineModel,
    adjustment,
    deterministic_dist,
    exponential_dist,
    scale_to_canonical,
)
from .montecarlo import (
    FixedTime,
    SafeLevel,
    SimConfig,
    default_safe_level,
    estimate,
)
from .twodim import (
    _EVENTS,
    RuinEstimate,
    RuinQuery,
    exact,
    leading,
    two_term_and,
    two_term_or,
    two_term_sim,
)

_METHOD_LABELS = {"exact": "Exact", "two_term": "TwoTerm", "leading": "Leading", "mc": "MC"}
_METHODS = tuple(_METHOD_LABELS)
_ROW_FIELDS = ("x1", "x2", "a", "K", "event", "method", "value", "cone",
               "exponent", "diagnostics")


@dataclass
class OutputRow:
    x1: Optional[float] = None
    x2: Optional[float] = None
    a: Optional[float] = None
    K: Optional[float] = None
    event: str = ""
    method: str = ""
    value: Optional[float] = None
    cone: str = ""
    exponent: Optional[float] = None
    diagnostics: Dict[str, Any] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# configuration ingestion

@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, Dict[str, argparse.Action]]:
    """The argument parser, and the flag of each config key (every
    subcommand has the same flags).  Built on the first ``run`` and kept
    for the process: parsing does not change it, and the flags are read
    only."""
    ap = argparse.ArgumentParser(
        prog="ruin2d",
        description="Ruin probabilities for two lines sharing one claim process.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("compute", "sweep", "cones", "mc", "compare"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file {model, query, mc, output}")
        # model block
        p.add_argument("--driver", choices=("cpe", "brownian", "renewal"))
        p.add_argument("--lambda", type=float, help="claim arrival rate (cpe)")
        p.add_argument("--mu", type=float, help="claim size rate (cpe)")
        p.add_argument("--interarrival", help="renewal interarrival, det:V or exp:RATE")
        p.add_argument("--claim", help="renewal claim size, det:V or exp:RATE")
        p.add_argument("--p1", type=float)
        p.add_argument("--p2", type=float)
        for flag in ("u1", "u2", "c1", "c2", "delta1", "delta2"):
            p.add_argument(f"--{flag}", type=float,
                           help="raw proportional-split triple, scaled to canonical form")
        # query block
        p.add_argument("--x1", type=float)
        p.add_argument("--x2", type=float)
        p.add_argument("--event", help="comma list from or,sim,and,line1,line2")
        p.add_argument("--method", help="comma list from exact,two_term,leading,mc")
        p.add_argument("--a", type=float, help="ray slope x1/x2 for sweeps")
        p.add_argument("--k", help="comma list of ray magnitudes K")
        # mc block
        p.add_argument("--n", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--workers", type=int)
        p.add_argument("--chunk-size", dest="chunk_size", type=int)
        p.add_argument("--ci-level", dest="ci_level", type=float)
        p.add_argument("--tilt", type=float)
        p.add_argument("--safe-level", dest="safe_level", type=float)
        p.add_argument("--horizon-time", dest="horizon_time", type=float)
        # output block
        p.add_argument("--format", choices=("json", "csv"))
        p.add_argument("--out", help="destination path (default: standard output)")
    return ap, {a.dest: a for a in p._actions}


_BLOCK_KEYS = {
    "model": ("driver", "lambda", "mu", "interarrival", "claim", "p1", "p2",
              "u1", "u2", "c1", "c2", "delta1", "delta2"),
    "query": ("x1", "x2", "event", "method", "a", "k"),
    "mc": ("n", "seed", "workers", "chunk_size", "ci_level", "tilt",
           "safe_level", "horizon_time"),
    "output": ("format", "out"),
}


def _finite(value: float, what: str) -> None:
    """Every real input is a finite number: nan and +-inf are refused."""
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {value!r}")


def _config_value(flag: argparse.Action, value: Any, where: str) -> Any:
    """A config-file value read as its flag reads the same text: converted
    to the flag's type and checked against its choices (None is unset)."""
    if value is None:
        return None
    if flag.type is not None:
        try:
            value = flag.type(value if isinstance(value, str) else json.dumps(value))
        except ValueError as exc:
            raise ConfigError(f"{where}: expected {flag.type.__name__}, got {value!r}") from exc
    if flag.type is float:
        _finite(value, where)
    if flag.choices is not None and value not in flag.choices:
        raise ConfigError(f"{where}: {value!r} is not one of {', '.join(flag.choices)}")
    return value


def _load_config(path: Optional[str], flags: Dict[str, argparse.Action]) -> Dict[str, Any]:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    flat: Dict[str, Any] = {}
    for block, keys in _BLOCK_KEYS.items():
        sub = doc.get(block, {})
        if not isinstance(sub, dict):
            raise ConfigError(f"config block {block!r} must be an object")
        for key, value in sub.items():
            where = f"key {key!r} in config block {block!r}"
            if key not in keys:
                raise ConfigError(f"unknown {where}")
            flat[key] = _config_value(flags[key], value, where)
    return flat


def _merge(args: argparse.Namespace, cfg: Dict[str, Any],
           flags: Dict[str, argparse.Action]) -> Dict[str, Any]:
    """Flag value wins over the config-file value; None means unset."""
    merged = dict(cfg)
    for key, val in vars(args).items():
        if key in ("command", "config") or val is None:
            continue
        if flags[key].type is float:
            _finite(val, flags[key].option_strings[0])
        merged[key] = val
    return merged


def _csv_list(raw: Any, what: str) -> List[str]:
    if raw is None:
        return []
    if isinstance(raw, (list, tuple)):
        items = [str(v) for v in raw]
    else:
        items = str(raw).split(",")
    items = [s.strip() for s in items if s.strip()]
    if not items:
        raise ConfigError(f"empty {what} list")
    return items


def _float_list(raw: Any, what: str) -> List[float]:
    out = []
    for s in _csv_list(raw, what):
        try:
            out.append(float(s))
        except ValueError as exc:
            raise ConfigError(f"bad {what} entry {s!r}") from exc
        _finite(out[-1], f"{what} entry")
    return out


# ---------------------------------------------------------------------------
# model construction

def _dist_spec(raw: Any, what: str):
    if raw is None:
        raise ConfigError(f"renewal driver requires --{what}")
    try:
        kind, _, arg = str(raw).partition(":")
        value = float(arg)
    except ValueError as exc:
        raise ConfigError(f"bad {what} spec {raw!r}, expected det:V or exp:RATE") from exc
    if kind == "det":
        return deterministic_dist(value)
    if kind == "exp":
        return exponential_dist(value)
    raise ConfigError(f"unknown {what} kind {kind!r}, expected det or exp")


def _build_model(cfg: Dict[str, Any]):
    """Returns (model2, reserves_from_raw_triple_or_None)."""
    driver_kind = cfg.get("driver")
    if driver_kind is None:
        raise ConfigError("a driver must be specified (cpe, brownian or renewal)")
    if driver_kind == "cpe":
        lam, mu = cfg.get("lambda"), cfg.get("mu")
        if lam is None or mu is None:
            raise ConfigError("cpe driver requires --lambda and --mu")
        driver = CompoundPoissonExp(lam, mu)
    elif driver_kind == "brownian":
        driver = StandardBrownian()
    elif driver_kind == "renewal":
        driver = Renewal(_dist_spec(cfg.get("interarrival"), "interarrival"),
                         _dist_spec(cfg.get("claim"), "claim"))
    else:
        raise ConfigError(f"unknown driver {driver_kind!r}")

    raw_keys = ("u1", "u2", "c1", "c2", "delta1", "delta2")
    given = [k for k in raw_keys if cfg.get(k) is not None]
    reserves = None
    if given:
        if len(given) != len(raw_keys):
            missing = sorted(set(raw_keys) - set(given))
            raise ConfigError(f"raw triple needs all of u1,u2,c1,c2,delta1,delta2; missing {missing}")
        if any(cfg.get(k) is not None for k in ("p1", "p2", "x1", "x2")):
            raise ConfigError("give either the raw (u, c, delta) triple or p1/p2 with reserves, not both")
        reserves, (p1, p2) = scale_to_canonical(*(cfg[k] for k in raw_keys))
    else:
        p1, p2 = cfg.get("p1"), cfg.get("p2")
        if p1 is None or p2 is None:
            raise ConfigError("premium rates p1 and p2 are required")
    model2 = TwoLineModel(driver, p1, p2)
    # the slower line has the smaller drift, so checking line 2 suffices
    if not model2.line2.has_net_profit:
        raise ConfigError(
            f"net profit condition violated: line-2 drift {model2.line2.drift:g} must be positive"
        )
    return model2, reserves


def _events(cfg: Dict[str, Any], default: Sequence[str]) -> List[str]:
    raw = _csv_list(cfg.get("event"), "event") or list(default)
    out = []
    for e in raw:
        name = e.upper()
        if name not in _EVENTS:
            raise ConfigError(f"unknown event {e!r}, expected one of {', '.join(_EVENTS).lower()}")
        out.append(name)
    return out


def _methods(cfg: Dict[str, Any], default: Sequence[str]) -> List[str]:
    raw = _csv_list(cfg.get("method"), "method") or list(default)
    out = []
    for m in raw:
        name = m.lower().replace("-", "_")
        if name == "twoterm":
            name = "two_term"
        if name not in _METHODS:
            raise ConfigError(f"unknown method {m!r}, expected one of {', '.join(_METHODS)}")
        out.append(name)
    return out


def _reserves(cfg: Dict[str, Any], scaled) -> tuple:
    if scaled is not None:
        if cfg.get("a") is not None or cfg.get("k") is not None:
            raise ConfigError("the raw triple fixes the reserves; a ray spec cannot also be given")
        return scaled
    x1, x2 = cfg.get("x1"), cfg.get("x2")
    has_ray = cfg.get("a") is not None or cfg.get("k") is not None
    if (x1 is None) != (x2 is None):
        raise ConfigError("reserves need both x1 and x2")
    if (x1 is not None) == has_ray:
        raise ConfigError("exactly one of reserves (x1, x2) or a ray spec (a, k) must be given")
    if x1 is None:
        return None
    return x1, x2


def _ray(cfg: Dict[str, Any]) -> tuple:
    a, ks = cfg.get("a"), cfg.get("k")
    if a is None or ks is None:
        raise ConfigError("sweeps need a ray spec: --a and --k")
    return a, _float_list(ks, "k")


def _sim_config(cfg: Dict[str, Any], model2: TwoLineModel) -> SimConfig:
    if cfg.get("horizon_time") is not None and cfg.get("safe_level") is not None:
        raise ConfigError("give at most one of --horizon-time and --safe-level")
    if cfg.get("horizon_time") is not None:
        horizon = FixedTime(cfg["horizon_time"])
    elif cfg.get("safe_level") is not None:
        horizon = SafeLevel(cfg["safe_level"])
    else:
        horizon = default_safe_level(model2)
    given = {k: cfg[k] for k in ("n", "seed", "workers", "chunk_size", "ci_level", "tilt")
             if cfg.get(k) is not None}
    return SimConfig(horizon=horizon, **{"n": 100_000, "seed": 0, **given})


# ---------------------------------------------------------------------------
# row production

def _cone_name(model2: TwoLineModel, x1: float, x2: float) -> str:
    try:
        return classify(model2, x1, x2).value
    except NumericalRefusal:
        return ""


def _exact_row(model2: TwoLineModel, x1: float, x2: float, event: str,
               est: RuinEstimate) -> OutputRow:
    row = OutputRow(x1=x1, x2=x2, event=event, method=_METHOD_LABELS["exact"])
    row.value = est.value
    row.cone = est.cone.value if est.cone else _cone_name(model2, x1, x2)
    row.diagnostics = dict(est.diagnostics)
    return row


def _mc_rows(model2: TwoLineModel, x1: float, x2: float, events: List[str],
             sim_cfg: Callable[[], SimConfig]) -> Callable[[str], OutputRow]:
    """The MC row of any of ``events`` at (x1, x2).  The first row asked
    for calls sim_cfg and runs one estimate over all of them, where a
    per-event estimate of that row would have run, so refusals surface in
    the same order."""
    rows: Dict[str, OutputRow] = {}

    def row(event: str) -> OutputRow:
        if not rows:
            ests = estimate(model2, x1, x2, events, sim_cfg())
            cone = _cone_name(model2, x1, x2)
            for ev, est in ests.items():
                rows[ev] = OutputRow(
                    x1=x1, x2=x2, event=ev, method=_METHOD_LABELS["mc"],
                    value=est.p_hat, cone=cone,
                    diagnostics={"std_err": est.std_err, "ci_lo": est.ci[0],
                                 "ci_hi": est.ci[1], "n": est.n,
                                 "bias_bound": est.bias_bound})
        return rows[event]

    return row


def _one_row(model2: TwoLineModel, x1: float, x2: float, event: str,
             method: str, mc: Callable[[str], OutputRow]) -> OutputRow:
    if method == "exact":
        return _exact_row(model2, x1, x2, event, exact(model2, RuinQuery(event, x1, x2)))
    if method == "mc":
        return mc(event)
    row = OutputRow(x1=x1, x2=x2, event=event, method=_METHOD_LABELS[method])
    if method == "two_term":
        fn = {"OR": two_term_or, "SIM": two_term_sim, "AND": two_term_and}.get(event)
        if fn is None:
            raise ConfigError(f"method two_term supports or/sim/and, not {event.lower()}")
        terms = fn(model2, x1, x2)
        row.value = terms.total
        row.cone = terms.cone.value
        row.diagnostics = {"term1": terms.term1, "term2": terms.term2,
                           "velocity": terms.velocity, **terms.constants}
    else:
        if event not in ("OR", "SIM", "AND"):
            raise ConfigError(f"method leading supports or/sim/and, not {event.lower()}")
        est = leading(model2, x1, x2, event)
        row.value = est.value
        row.cone = est.cone.value if est.cone else ""
        row.diagnostics = dict(est.diagnostics)
    return row


def _run_compute(model2, cfg, scaled) -> List[OutputRow]:
    xs = _reserves(cfg, scaled)
    if xs is None:
        raise ConfigError("compute needs reserves (x1, x2)")
    x1, x2 = xs
    events = _events(cfg, ("OR",))
    methods = _methods(cfg, ("exact",))
    mc = _mc_rows(model2, x1, x2, events, functools.partial(_sim_config, cfg, model2))
    return [_one_row(model2, x1, x2, ev, m, mc) for ev in events for m in methods]


def _run_sweep(model2, cfg, scaled) -> List[OutputRow]:
    if scaled is not None or cfg.get("x1") is not None or cfg.get("x2") is not None:
        raise ConfigError("sweep takes a ray spec (a, k), not reserves")
    a, ks = _ray(cfg)
    events = _events(cfg, ("OR",))
    methods = _methods(cfg, ("exact",))
    # the horizon does not depend on K: the first MC row builds the SimConfig
    sim_cfg = functools.cache(functools.partial(_sim_config, cfg, model2))
    rows = []
    for K in ks:
        mc = _mc_rows(model2, a * K, K, events, sim_cfg)
        for ev in events:
            for m in methods:
                row = _one_row(model2, a * K, K, ev, m, mc)
                row.a, row.K = a, K
                if row.value is not None and row.value > 0.0 and K > 0.0:
                    row.exponent = -math.log(row.value) / K
                rows.append(row)
    return rows


def _run_cones(model2, cfg) -> List[OutputRow]:
    # one AdjustmentData serves the partition and every ray; each ray
    # (a, 1) with 0 < a < 1 lies in the upper cone that _classify covers
    adj = adjustment(model2)
    part = _partition(model2, adj)
    head = OutputRow(method="cones", diagnostics={
        "s1": part.s1, "s2": part.s2, "s3": part.s3,
        "gamma1": adj.gamma1, "gamma2": adj.gamma2, "gamma3": adj.gamma3,
        "d2_empty": part.d2_empty,
    })
    rows = [head]
    for i in range(1, 50):  # ray grid below the diagonal, Fig.-2 style data
        a = i / 50.0
        rows.append(OutputRow(a=a, method="cones",
                              cone=_classify(model2, adj, a, 1.0, "sim").value))
    return rows


def _run_mc(model2, cfg, scaled) -> List[OutputRow]:
    xs = _reserves(cfg, scaled)
    if xs is None:
        raise ConfigError("mc needs reserves (x1, x2)")
    events = _events(cfg, ("OR",))
    mc = _mc_rows(model2, xs[0], xs[1], events, functools.partial(_sim_config, cfg, model2))
    return [mc(ev) for ev in events]


def _run_compare(model2, cfg, scaled) -> List[OutputRow]:
    xs = _reserves(cfg, scaled)
    if xs is None:
        raise ConfigError("compare needs reserves (x1, x2)")
    x1, x2 = xs
    events = _events(cfg, ("OR", "SIM", "AND"))
    methods = _methods(cfg, _METHODS)
    mc = _mc_rows(model2, x1, x2, events, functools.partial(_sim_config, cfg, model2))
    rows = []
    for ev in events:
        base_est = exact(model2, RuinQuery(ev, x1, x2))
        base = base_est.value
        for m in methods:
            row = (_exact_row(model2, x1, x2, ev, base_est) if m == "exact"
                   else _one_row(model2, x1, x2, ev, m, mc))
            if base > 0.0:
                row.diagnostics["ratio_to_exact"] = row.value / base
            if m == "mc":
                se = row.diagnostics["std_err"]
                row.diagnostics["agree_3sigma"] = bool(abs(row.value - base) <= 3.0 * se)
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# emission

def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _json_safe(value: Any) -> Any:
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    return value


def emit(rows: Sequence[OutputRow], fmt: str, destination: Optional[str]) -> None:
    if fmt == "json":
        doc = [
            {name: _json_safe(getattr(r, name)) for name in _ROW_FIELDS}
            for r in rows
        ]
        text = json.dumps(doc, indent=2) + "\n"
    else:
        lines = [",".join(_ROW_FIELDS)]
        for r in rows:
            cells = []
            for name in _ROW_FIELDS:
                v = getattr(r, name)
                if name == "diagnostics":
                    cell = json.dumps(_json_safe(v), separators=(",", ":"))
                    cell = '"' + cell.replace('"', '""') + '"'
                else:
                    cell = _fmt(v)
                cells.append(cell)
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
    if destination is None:
        sys.stdout.write(text)
        return
    try:
        with open(destination, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise _EmitError(str(exc)) from exc


class _EmitError(Exception):
    pass


# ---------------------------------------------------------------------------
# entry point

def run(argv: Optional[Sequence[str]] = None) -> int:
    ap, flags = _parser()
    args = ap.parse_args(argv)
    # the Exact and TwoTerm rows share each spectral integral of this run
    memo = _SPECTRAL_MEMO.set({})
    try:
        cfg = _merge(args, _load_config(args.config, flags), flags)
        model2, scaled = _build_model(cfg)
        if args.command == "compute":
            rows = _run_compute(model2, cfg, scaled)
        elif args.command == "sweep":
            rows = _run_sweep(model2, cfg, scaled)
        elif args.command == "cones":
            rows = _run_cones(model2, cfg)
        elif args.command == "mc":
            rows = _run_mc(model2, cfg, scaled)
        else:
            rows = _run_compare(model2, cfg, scaled)
        emit(rows, cfg.get("format") or "csv", cfg.get("out"))
    except ConfigError as exc:
        print(f"ruin2d: configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalRefusal as exc:
        print(f"ruin2d: refused: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except _EmitError as exc:
        print(f"ruin2d: cannot write output: {exc}", file=sys.stderr)
        return 4
    finally:
        _SPECTRAL_MEMO.reset(memo)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
