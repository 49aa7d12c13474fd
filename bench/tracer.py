"""Outside-in tracer for the ruin2d package.

The tracer changes no file of the package.  On entry it looks up each
traced public function in the module that defines it, then replaces
every module-global binding of that same function object across the
loaded ``ruin2d`` and ``ruin2d.*`` modules (so ``ruin2d.twodim.finite_ruin``
and ``ruin2d.cli.exact`` are caught as well as the definitions) with a
wrapper that records a span.  On exit every binding is restored.

A span is ``(id, parent id, name, tag, start ns, end ns)``; the parent is
the innermost open span of the same thread.  Counters are recorded at
the same boundaries: quadrature panels (calls of the integrand, one
15-node Gauss-Kronrod panel each), root-solve function evaluations,
simulated paths per ``estimate`` and bytes written by ``cli.emit``.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

PACKAGE = "ruin2d"

# span name -> (defining module, function names traced under that name)
TARGETS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "numerics.integrate": ("numerics", ("integrate",)),
    "numerics.root_solve": ("numerics", ("root_solve",)),
    "models.adjustment": ("models", ("adjustment",)),
    "models.line_adjustment": ("models", ("line_adjustment",)),
    "models.saddle": ("models", ("saddle",)),
    "finite_time.finite_ruin": ("finite_time", ("finite_ruin",)),
    "finite_time.ruin_after": ("finite_time", ("ruin_after",)),
    "finite_time.ultimate_ruin": ("finite_time", ("ultimate_ruin",)),
    "cones.partition": ("cones", ("partition",)),
    "cones.classify": ("cones", ("classify",)),
    "twodim.exact": ("twodim", ("exact",)),
    "twodim.two_term": ("twodim", ("two_term_or", "two_term_sim", "two_term_and")),
    "twodim.leading": ("twodim", ("leading",)),
    "montecarlo.estimate": ("montecarlo", ("estimate",)),
    "cli.run": ("cli", ("run",)),
    "cli.emit": ("cli", ("emit",)),
}


@dataclass(frozen=True)
class Span:
    id: int
    parent: Optional[int]
    name: str
    tag: str
    start_ns: int
    end_ns: int


class Tracer:
    """Context manager that wraps the traced functions for its lifetime;
    ``spans`` and ``counters`` accumulate while it is active."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _modules(self) -> List[object]:
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _install(self) -> None:
        modules = self._modules()
        for span_name, (defining, names) in TARGETS.items():
            home = sys.modules[f"{PACKAGE}.{defining}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(span_name, orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, orig))

    def _restore(self) -> None:
        while self._patched:
            mod, attr, orig = self._patched.pop()
            setattr(mod, attr, orig)

    @property
    def bindings(self) -> List[str]:
        """``module.attr`` of every binding currently wrapped."""
        return [f"{m.__name__}.{a}" for m, a, _ in self._patched]

    # -- recording --------------------------------------------------------

    def _stack(self) -> List[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, span_name: str, fn: Callable) -> Callable:
        counters = self.counters
        hook = _HOOKS.get(span_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            tag = ""
            if hook is not None:
                args, kwargs, tag = hook(counters, args, kwargs)
            counters[f"{span_name}.calls"] += 1
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                self.spans.append(Span(sid, parent, span_name, tag, t0, t1))
                if span_name == "cli.emit":
                    _count_emit(counters, args, kwargs)

        return traced

    # -- analysis ---------------------------------------------------------

    def self_ns(self) -> Dict[int, int]:
        """Span id -> duration minus the part covered by its child spans."""
        children: Dict[int, List[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        out = {}
        for s in self.spans:
            covered = 0
            edge = s.start_ns
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start_ns):
                lo, hi = max(c.start_ns, edge), min(c.end_ns, s.end_ns)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out[s.id] = (s.end_ns - s.start_ns) - covered
        return out

    def self_ms_by(self) -> Dict[str, float]:
        """Summed self time in ms per span name and per ``name.tag``."""
        own = self.self_ns()
        totals: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            ms = own[s.id] / 1e6
            totals[s.name] += ms
            if s.tag:
                totals[f"{s.name}.{s.tag}"] += ms
        return dict(totals)


# -- per-function counter hooks ---------------------------------------------


def _counting(fn: Callable, counters: Counter, key: str) -> Callable:
    if getattr(fn, "__counted__", False):
        return fn  # integrate recurses on reversed limits with the same integrand

    def counted(*a, **k):
        counters[key] += 1
        return fn(*a, **k)

    counted.__counted__ = True
    return counted


def _first_arg_counter(key: str):
    def hook(counters, args, kwargs):
        if args:
            args = (_counting(args[0], counters, key),) + tuple(args[1:])
        elif "f" in kwargs:
            kwargs = dict(kwargs, f=_counting(kwargs["f"], counters, key))
        return args, kwargs, ""
    return hook


def _estimate_hook(counters, args, kwargs):
    model2 = args[0] if args else kwargs["model2"]
    config = args[4] if len(args) > 4 else kwargs["config"]
    counters["montecarlo.estimate.paths"] += int(config.n)
    brownian = sys.modules[f"{PACKAGE}.models"].StandardBrownian
    engine = "brownian" if isinstance(model2.driver, brownian) else "jump"
    return args, kwargs, engine


def _count_emit(counters, args, kwargs) -> None:
    dest = args[2] if len(args) > 2 else kwargs.get("destination")
    if dest is not None and os.path.exists(dest):
        counters["cli.emit.bytes"] += os.path.getsize(dest)


_HOOKS = {
    "numerics.integrate": _first_arg_counter("numerics.integrate.panels"),
    "numerics.root_solve": _first_arg_counter("numerics.root_solve.fevals"),
    "montecarlo.estimate": _estimate_hook,
}
