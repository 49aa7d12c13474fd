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

_RAW_HELP = "raw proportional-split triple, scaled to canonical form"
# every config key, by block, with the options of its flag --key (an
# underscore in the key is a dash in the flag)
_BLOCKS: Dict[str, Dict[str, Dict[str, Any]]] = {
    "model": {
        "driver": {"choices": ("cpe", "brownian", "renewal")},
        "lambda": {"type": float, "help": "claim arrival rate (cpe)"},
        "mu": {"type": float, "help": "claim size rate (cpe)"},
        "interarrival": {"help": "renewal interarrival, det:V or exp:RATE"},
        "claim": {"help": "renewal claim size, det:V or exp:RATE"},
        "p1": {"type": float},
        "p2": {"type": float},
        **{k: {"type": float, "help": _RAW_HELP}
           for k in ("u1", "u2", "c1", "c2", "delta1", "delta2")},
    },
    "query": {
        "x1": {"type": float},
        "x2": {"type": float},
        "event": {"help": "comma list from or,sim,and,line1,line2"},
        "method": {"help": "comma list from exact,two_term,leading,mc"},
        "a": {"type": float, "help": "ray slope x1/x2 for sweeps"},
        "k": {"help": "comma list of ray magnitudes K"},
    },
    "mc": {
        **{k: {"type": int} for k in ("n", "seed", "workers", "chunk_size")},
        **{k: {"type": float} for k in ("ci_level", "tilt", "safe_level", "horizon_time")},
    },
    "output": {
        "format": {"choices": ("json", "csv")},
        "out": {"help": "destination path (default: standard output)"},
    },
}


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, Dict[str, argparse.Action]]:
    """The argument parser, and the flag of each config key (every
    subcommand has the same flags, built from ``_BLOCKS``).  Built on the
    first ``run`` and kept for the process: parsing does not change it,
    and the flags are read only."""
    ap = argparse.ArgumentParser(
        prog="ruin2d",
        description="Ruin probabilities for two lines sharing one claim process.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("compute", "sweep", "cones", "mc", "compare"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file {model, query, mc, output}")
        for keys in _BLOCKS.values():
            for key, opts in keys.items():
                p.add_argument("--" + key.replace("_", "-"), dest=key, **opts)
    return ap, {a.dest: a for a in p._actions}


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
    for block, keys in _BLOCKS.items():
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
    """Flag value wins over the config-file value; None means unset.  The
    list keys are parsed here, whichever command reads them; an unset list
    is empty."""
    merged = dict(cfg)
    for key, val in vars(args).items():
        if key in ("command", "config") or val is None:
            continue
        if flags[key].type is float:
            _finite(val, flags[key].option_strings[0])
        merged[key] = val
    merged["k"] = _float_list(merged.get("k"), "k")
    merged["event"] = _events(merged.get("event"))
    merged["method"] = _methods(merged.get("method"))
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


def _events(raw: Any) -> List[str]:
    out = []
    for e in _csv_list(raw, "event"):
        name = e.upper()
        if name not in _EVENTS:
            raise ConfigError(f"unknown event {e!r}, expected one of {', '.join(_EVENTS).lower()}")
        out.append(name)
    return out


def _methods(raw: Any) -> List[str]:
    out = []
    for m in _csv_list(raw, "method"):
        name = m.lower().replace("-", "_")
        if name == "twoterm":
            name = "two_term"
        if name not in _METHODS:
            raise ConfigError(f"unknown method {m!r}, expected one of {', '.join(_METHODS)}")
        out.append(name)
    return out


def _reserves(cfg: Dict[str, Any], scaled) -> tuple:
    has_ray = cfg.get("a") is not None or bool(cfg["k"])
    if scaled is not None:
        if has_ray:
            raise ConfigError("the raw triple fixes the reserves; a ray spec cannot also be given")
        return scaled
    x1, x2 = cfg.get("x1"), cfg.get("x2")
    if (x1 is None) != (x2 is None):
        raise ConfigError("reserves need both x1 and x2")
    if (x1 is not None) == has_ray:
        raise ConfigError("exactly one of reserves (x1, x2) or a ray spec (a, k) must be given")
    if x1 is None:
        return None
    return x1, x2


def _ray(cfg: Dict[str, Any]) -> tuple:
    if cfg.get("a") is None or not cfg["k"]:
        raise ConfigError("sweeps need a ray spec: --a and --k")
    return cfg["a"], cfg["k"]


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


def _row(model2: TwoLineModel, x1: float, x2: float, event: str, method: str,
         mc: Callable[[str], OutputRow], base: Optional[RuinEstimate]) -> OutputRow:
    """One method's row of ``event`` at (x1, x2); ``base`` is the event's
    Exact estimate when the caller already has it."""
    if method == "mc":
        return mc(event)
    if method != "exact" and event not in ("OR", "SIM", "AND"):
        raise ConfigError(f"method {method} supports or/sim/and, not {event.lower()}")
    row = OutputRow(x1=x1, x2=x2, event=event, method=_METHOD_LABELS[method])
    if method == "two_term":
        # read at call time, so a rebound module name (bench/tracer.py) is seen
        fn = {"OR": two_term_or, "SIM": two_term_sim, "AND": two_term_and}[event]
        terms = fn(model2, x1, x2)
        row.value, row.cone = terms.total, terms.cone.value
        row.diagnostics = {"term1": terms.term1, "term2": terms.term2,
                           "velocity": terms.velocity, **terms.constants}
        return row
    est = (base or exact(model2, RuinQuery(event, x1, x2)) if method == "exact"
           else leading(model2, x1, x2, event))
    row.value = est.value
    row.cone = (est.cone.value if est.cone
                else _cone_name(model2, x1, x2) if method == "exact" else "")
    row.diagnostics = dict(est.diagnostics)
    return row


def _run_points(model2, cfg, scaled, command: str) -> List[OutputRow]:
    """The rows of compute, mc, compare and sweep: for each point (the
    reserves, or each (aK, K) of the ray), each event, then each method.
    ``compare`` adds each row's ratio to the event's Exact value and MC's
    3-sigma agreement; ``sweep`` adds a, K and -log(value)/K."""
    if command == "sweep":
        if scaled is not None or cfg.get("x1") is not None or cfg.get("x2") is not None:
            raise ConfigError("sweep takes a ray spec (a, k), not reserves")
        a, ks = _ray(cfg)
        points = [(a * K, K, a) for K in ks]
    else:
        xs = _reserves(cfg, scaled)
        if xs is None:
            raise ConfigError(f"{command} needs reserves (x1, x2)")
        points = [(*xs, None)]
    compare = command == "compare"
    events = cfg["event"] or (["OR", "SIM", "AND"] if compare else ["OR"])
    methods = (["mc"] if command == "mc"
               else cfg["method"] or (_METHODS if compare else ["exact"]))
    # the horizon does not depend on the point: the first MC row builds the SimConfig
    sim_cfg = functools.cache(functools.partial(_sim_config, cfg, model2))
    rows = []
    for x1, x2, a in points:
        mc = _mc_rows(model2, x1, x2, events, sim_cfg)
        for ev in events:
            base = exact(model2, RuinQuery(ev, x1, x2)) if compare else None
            for m in methods:
                row = _row(model2, x1, x2, ev, m, mc, base)
                if compare:
                    if base.value > 0.0:
                        row.diagnostics["ratio_to_exact"] = row.value / base.value
                    if m == "mc":
                        se = row.diagnostics["std_err"]
                        row.diagnostics["agree_3sigma"] = bool(abs(row.value - base.value) <= 3.0 * se)
                elif command == "sweep":
                    row.a, row.K = a, x2
                    if row.value is not None and row.value > 0.0 and x2 > 0.0:
                        row.exponent = -math.log(row.value) / x2
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
        rows = (_run_cones(model2, cfg) if args.command == "cones"
                else _run_points(model2, cfg, scaled, args.command))
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
