"""Monte Carlo oracles for the shared-claim two-line model.

Event-driven simulation is exact for the jump drivers: the claim
surplus is nondecreasing between epochs while both reserve lines rise,
so every ruin (and every simultaneous-ruin spell) can only begin at a
claim instant.  The Brownian engine draws exact Gaussian checkpoints
and accounts for within-segment excursions with bridge crossing
probabilities against each linear barrier piece; because the
checkpoint grid is aligned to the crossing time T, every barrier is
linear on every segment and the event indicators carry no
discretisation bias.  Checkpoint spacing only limits the resolution of
the reported crossing times.

Both engines keep their per-chunk bookkeeping (outputs, live-lane flags,
first sightings, stopping, FixedTime censoring, weights) in one core,
``_Events``, and add only their draws, crossing and safe-level tests; the
jump engine and ``_line_ruin_times`` read their draws through ``_Blocks``.

Reproducibility contract: path ``i`` lives at lane ``i % chunk_size``
of chunk ``i // chunk_size``; every chunk consumes its own Philox
substream (key ``[seed, chunk index]``) in a fixed round order; partial
sums are reduced in chunk-index order.  Worker count therefore never
changes any emitted number.

Importance sampling follows the classical exponential change of
measure: under a tilt ``c`` the claim dynamics are exchanged for their
tilted family member and every path carries the likelihood weight
``exp(-c Z(t_stop) + kappa(c) t_stop)`` where ``Z = p2 t - S``.  The
weight is insensitive to which line it is written against because the
premium parts cancel.  The renewal driver has no continuous-time
cumulant, so its weight uses the per-step analogue
``exp(-c Z_n + n phi(c))`` with ``phi(c) = log E exp(c (p2 z - s))``.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    ConfigError,
    InsufficientConditionedSamples,
    InternalInconsistency,
    InvalidHorizon,
    OutOfRange,
    UnsupportedDriver,
)
from .finite_time import _as_line, limit_law
from .models import (
    DistSpec,
    LineModel,
    Renewal,
    StandardBrownian,
    TwoLineModel,
    line_adjustment,
    renewal_adjustment,
)
from .numerics import DEFAULT_TOL, normal_quantile, normal_logcdf
from .twodim import _EVENTS

__all__ = [
    "FixedTime",
    "SafeLevel",
    "SimConfig",
    "PathRecord",
    "McEstimate",
    "CheckReport",
    "default_safe_level",
    "simulate",
    "estimate",
    "check_limits",
]

_BLOCK = 128  # rounds drawn per RNG refill in the jump engine
_MASK64 = (1 << 64) - 1
_EXP_FLOOR = -40.0  # bridge exponents are clipped here; see _bridge_hit


# ---------------------------------------------------------------------------
# configuration types


@dataclass(frozen=True)
class FixedTime:
    """Stop every path at the deterministic horizon ``t``."""

    t: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t) and self.t > 0.0):
            raise InvalidHorizon(f"FixedTime horizon must be positive, got {self.t!r}")


@dataclass(frozen=True)
class SafeLevel:
    """Retire a line as "never ruined" once its reserve exceeds its
    starting value by ``L``; the truncation bias is Lundberg-bounded by
    exp(-gamma L) per line."""

    L: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.L) and self.L > 0.0):
            raise InvalidHorizon(f"SafeLevel must be positive, got {self.L!r}")


Horizon = Union[FixedTime, SafeLevel]


@dataclass(frozen=True)
class SimConfig:
    n: int
    seed: int
    horizon: Horizon
    tilt: Optional[float] = None
    ci_level: float = 0.95
    workers: int = 1
    chunk_size: int = 8192

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError(f"replication count must be >= 1, got {self.n}")
        if not isinstance(self.horizon, (FixedTime, SafeLevel)):
            raise InvalidHorizon(f"unknown horizon {self.horizon!r}")
        if not 0.0 < self.ci_level < 1.0:
            raise ConfigError(f"ci_level must lie in (0, 1), got {self.ci_level}")
        if self.tilt is not None and not math.isfinite(self.tilt):
            raise ConfigError("tilt must be finite")
        if self.workers < 1 or self.chunk_size < 1:
            raise ConfigError("workers and chunk_size must be >= 1")


@dataclass(frozen=True)
class PathRecord:
    """One simulated path.  Censored times are +inf; ``censor_reason``
    says why anything was left unobserved (or declared by retirement)."""

    tau1: float
    tau2: float
    tau_or: float
    tau_sim: float
    censor_reason: Optional[str]
    likelihood_weight: float = 1.0

    def __post_init__(self) -> None:
        if math.isfinite(self.tau1) or math.isfinite(self.tau2):
            if abs(self.tau_or - min(self.tau1, self.tau2)) > 1e-12:
                raise InternalInconsistency("tau_or must equal min(tau1, tau2)")
        if math.isfinite(self.tau_sim):
            if self.tau_sim + 1e-12 < max(self.tau1, self.tau2):
                raise InternalInconsistency("tau_sim below an individual ruin time")
        if self.likelihood_weight < 0.0:
            raise InternalInconsistency("negative likelihood weight")


@dataclass(frozen=True)
class McEstimate:
    p_hat: float
    std_err: float
    ci: Tuple[float, float]
    n: int
    bias_bound: float


@dataclass(frozen=True)
class CheckReport:
    what: str
    passed: bool
    details: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# small helpers


def _line_gamma(line: LineModel, tol=DEFAULT_TOL) -> float:
    if isinstance(line.driver, Renewal):
        return renewal_adjustment(line.driver, line.p, tol)
    return line_adjustment(line, tol)[0]


def default_safe_level(model2: TwoLineModel, tol=DEFAULT_TOL) -> SafeLevel:
    """SafeLevel(30 / min(gamma1, gamma2)): truncation bias below
    exp(-30) per line at the default."""
    g = min(_line_gamma(model2.line1, tol), _line_gamma(model2.line2, tol))
    return SafeLevel(30.0 / g)


def _chunk_rng(seed: int, chunk_idx: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, chunk_idx & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _check_safelevel(model2: TwoLineModel, x1: float, x2: float,
                     cfg: SimConfig) -> None:
    hz = cfg.horizon
    if not isinstance(hz, SafeLevel):
        return
    if hz.L <= max(x1, x2):
        raise InvalidHorizon(
            f"SafeLevel L={hz.L:g} must exceed max(x1, x2)={max(x1, x2):g}"
        )
    c = cfg.tilt
    for line in (model2.line1, model2.line2):
        eff = LineModel(*line.driver.tilted(line.p, c)) if c is not None else line
        if eff.drift == 0.0:
            raise InvalidHorizon(
                "zero effective drift: a SafeLevel run can neither ruin nor retire"
            )


def _reserves_ok(x1: float, x2: float) -> None:
    for x in (x1, x2):
        if not (math.isfinite(x) and x >= 0.0):
            raise ConfigError(f"reserves must be finite and nonnegative, got {x!r}")


# ---------------------------------------------------------------------------
# per-chunk event bookkeeping, shared by both chunk engines

_CENSOR_SAFE = 1
_CENSOR_TIME = 2
_CENSOR_NAMES = {0: None, 1: "safe_level", 2: "fixed_time"}


def _at(x, mask):
    """x[mask] for a per-lane array, x itself for a value all lanes share."""
    return x[mask] if isinstance(x, np.ndarray) else x


class _Events:
    """The outputs of one chunk and the event flags of its live lanes.

    Outputs are indexed by original lane; live lane j is original lane
    ids[j].  ``step`` and ``stop`` compact the flags and ids, and return
    the keep mask with which the engine compacts its own state.  Each
    event (LINE1, LINE2, SIM) records the time, claim level and step count
    of its first sighting in its entry of tau, s_e and n_e, so its
    importance weight stops accumulating variance once the event is
    decided instead of drifting until the whole record resolves.  stop_te
    is a lane's last claim epoch and stop_t its stopping time (the horizon
    for lanes censored there).  The flags are separate 1-D arrays:
    compacting one (3, width) array along its second axis is several
    times slower."""

    def __init__(self, width: int):
        # one 1-D array per event: a (3, width) array outgrows malloc's mmap
        # threshold at 8192 lanes, and its pages then fault in every chunk
        self.tau = [np.full(width, math.inf) for _ in range(3)]
        self.s_e = [np.zeros(width) for _ in range(3)]
        self.n_e = [np.zeros(width, dtype=np.int64) for _ in range(3)]
        self.stop_t = np.zeros(width)
        self.stop_te = np.zeros(width)
        self.stop_s = np.zeros(width)
        self.nstep = np.zeros(width, dtype=np.int64)
        self.censor = np.zeros(width, dtype=np.int8)
        self.ids = np.arange(width)
        self.ruin1 = np.zeros(width, dtype=bool)
        self.ruin2 = np.zeros(width, dtype=bool)
        self.sim = np.zeros(width, dtype=bool)
        self.safe1 = np.zeros(width, dtype=bool)
        self.safe2 = np.zeros(width, dtype=bool)

    def step(self, hit1, hit2, hit_sim, t, s, n, safe1=None, safe2=None):
        """Record the first sightings among the live lanes at time t, claim
        level s and step count n, retire the lines that cleared the safe
        level, and stop every lane whose record is decided: each line is
        ruined or retired, and SIM has happened or cannot be told apart
        from a retirement.  Returns the keep mask, or None if none stop."""
        for e, (hit, seen) in enumerate(((hit1, self.ruin1), (hit2, self.ruin2),
                                         (hit_sim, self.sim))):
            new = hit & ~seen
            if new.any():
                k = self.ids[new]
                self.tau[e][k] = _at(t, new)
                self.s_e[e][k] = s[new]
                self.n_e[e][k] = n
                seen |= new
        if safe1 is not None:
            self.safe1 |= safe1
            self.safe2 |= safe2
        done = ((self.ruin1 | self.safe1) & (self.ruin2 | self.safe2)
                & (self.sim | self.safe1 | self.safe2))
        if not done.any():
            return None
        # a decided lane that misses an event has retired a line
        declared = ~(self.ruin1 & self.ruin2 & self.sim)[done]
        return self.stop(done, t, s, n, _CENSOR_SAFE, coded=declared)

    def stop(self, mask, t, s, n, code, coded=None, t_e=None) -> np.ndarray:
        """Stop the live lanes in mask at time t, claim level s and step
        count n, and give the censor code to those of them in coded (all if
        None); t_e is their last claim epoch if that is not t."""
        k = self.ids[mask]
        self.stop_t[k] = t_k = _at(t, mask)
        self.stop_te[k] = t_k if t_e is None else t_e[mask]
        self.stop_s[k] = s[mask]
        self.nstep[k] = n
        self.censor[k if coded is None else k[coded]] = code
        live = ~mask
        self.ids = self.ids[live]
        self.ruin1, self.ruin2 = self.ruin1[live], self.ruin2[live]
        self.safe1, self.safe2 = self.safe1[live], self.safe2[live]
        self.sim = self.sim[live]
        return live

    def result(self, model2: TwoLineModel, cfg: SimConfig, at_epoch: bool) -> dict:
        """The chunk's arrays; the path weight is taken at stop_te if
        at_epoch, else at stop_t."""
        c = cfg.tilt
        if c is None:
            w = np.ones_like(self.stop_t)
        else:
            t_w = self.stop_te if at_epoch else self.stop_t
            w = np.exp(_log_weight(model2, c, t_w, self.stop_s, self.nstep))
        w1, w2, wsim = (_event_weight(model2, cfg, *e) for e in zip(self.tau, self.s_e, self.n_e))
        return {"tau1": self.tau[0], "tau2": self.tau[1], "tsim": self.tau[2],
                "censor": self.censor, "w": w, "w1": w1, "w2": w2, "wsim": wsim}


def _log_weight(model2: TwoLineModel, c: float, t, s, n):
    """Log likelihood weight of tilt c after time t, claim total s and n
    claims: -c Z + the driver's compensator, with Z = p2 t - s."""
    p2 = model2.p2
    return -c * (p2 * t - s) + model2.driver.tilt_compensator(p2, c, t, n)


def _event_weight(model2: TwoLineModel, cfg: SimConfig, tau: np.ndarray,
                  s_e: np.ndarray, n_e: np.ndarray) -> np.ndarray:
    """Likelihood weight frozen at an event epoch; 0 where the event never
    happened (any finite placeholder would do, the indicator kills it)."""
    c = cfg.tilt
    hit = np.isfinite(tau)
    if c is None:
        return hit.astype(float)
    t_e = np.where(hit, tau, 0.0)
    return np.where(hit, np.exp(_log_weight(model2, c, t_e, s_e, n_e)), 0.0)


# ---------------------------------------------------------------------------
# jump-driver chunk engine (compound Poisson and renewal)


class _Blocks:
    """Gap and claim draws of a jump-driven chunk.  Each refill draws
    _BLOCK rounds for the lanes live at that moment; live lane j reads
    column pos[j] of the block, so compacting the lanes compacts pos and
    never copies the block."""

    def __init__(self, rng: np.random.Generator, ia: DistSpec, cl: DistSpec):
        self.rng, self.ia, self.cl = rng, ia, cl
        self.dz = self.sz = self.pos = None
        self.col = _BLOCK

    def draw(self, nl: int) -> Tuple[np.ndarray, np.ndarray]:
        """One round of (gap, claim) for the nl live lanes."""
        if self.col == _BLOCK:
            self.dz = self.ia.sample(self.rng, _BLOCK * nl).reshape(_BLOCK, nl)
            self.sz = self.cl.sample(self.rng, _BLOCK * nl).reshape(_BLOCK, nl)
            self.pos = np.arange(nl)
            self.col = 0
        col = self.col
        self.col += 1
        return self.dz[col].take(self.pos), self.sz[col].take(self.pos)

    def keep(self, live: np.ndarray) -> None:
        self.pos = self.pos[live]


def _jump_dists(model2: TwoLineModel, c: Optional[float]) -> Tuple[DistSpec, DistSpec]:
    d = model2.driver if c is None else model2.driver.tilted(model2.p2, c)[0]
    return d.jump_dists()


def _jump_chunk(model2: TwoLineModel, x1: float, x2: float, cfg: SimConfig,
                chunk_idx: int, width: int) -> dict:
    p1, p2 = model2.p1, model2.p2
    ia, cl = _jump_dists(model2, cfg.tilt)
    blocks = _Blocks(_chunk_rng(cfg.seed, chunk_idx), ia, cl)
    t_hor = cfg.horizon.t if isinstance(cfg.horizon, FixedTime) else math.inf
    level = cfg.horizon.L if isinstance(cfg.horizon, SafeLevel) else math.inf
    ev = _Events(width)

    # live state, compacted whenever a lane stops; every live lane has taken
    # the same number of steps, so one counter serves them all
    t = np.zeros(width)
    s = np.zeros(width)
    steps = 0
    while ev.ids.size:
        if steps >= 5_000_000:
            raise InternalInconsistency("jump engine failed to resolve a chunk")
        dz, sz = blocks.draw(ev.ids.size)
        t_next = t + dz

        if t_hor < math.inf:
            over = t_next > t_hor
            if over.any():
                keep = ev.stop(over, t_hor, s, steps, _CENSOR_TIME, t_e=t)
                blocks.keep(keep)
                t_next, s, sz = t_next[keep], s[keep], sz[keep]
                if not ev.ids.size:
                    break
        t = t_next
        s = s + sz
        steps += 1

        b1 = x1 + p1 * t
        b2 = x2 + p2 * t
        u1 = b1 - s
        u2 = b2 - s

        # barrier bookkeeping cross-check: S above the lower envelope iff
        # some coordinate is negative (skip lanes within rounding of zero)
        umin = np.minimum(u1, u2)
        mism = (s > np.minimum(b1, b2)) != (umin < 0.0)
        if mism.any() and (mism & (np.abs(umin) > 1e-9 * (1.0 + np.abs(s)))).any():
            raise InternalInconsistency("coordinate and barrier ruin bookkeeping disagree")

        neg1 = u1 < 0.0
        neg2 = u2 < 0.0
        safe = (p1 * t - s >= level, p2 * t - s >= level) if level < math.inf else ()
        live = ev.step(neg1, neg2, neg1 & neg2, t, s, steps, *safe)
        if live is not None:
            blocks.keep(live)
            t, s = t[live], s[live]

    # A lane censored at a deterministic horizon carries the weight at the
    # horizon when its gaps are exponential: the Levy form holds at any
    # time, and for a renewal walk the memoryless survival ratio extends
    # the epoch value there.  A deterministic gap has ratio 1, so its
    # weight stays at the last epoch.
    return ev.result(model2, cfg, at_epoch=not math.isfinite(ia.mgf_sup))


# ---------------------------------------------------------------------------
# Brownian chunk engine


def _bm_segments(T: float, t_hor: float) -> Iterator[Tuple[float, float]]:
    """Checkpoint pairs up to t_hor: at least 64 per unit time up to T, so
    that T is a checkpoint, then one per unit time."""
    n1 = max(1, math.ceil(T / (min(T, 1.0) / 64.0))) if T > 0.0 else 0
    h1 = T / max(n1, 1)
    t, k = 0.0, 0
    while t < t_hor:
        k += 1
        t1 = min(k * h1 if k <= n1 else t + 1.0, t_hor)
        if t1 <= t:
            return
        yield t, t1
        t = t1


def _bridge_hit(g0: np.ndarray, g1: np.ndarray, h: float, u: np.ndarray) -> np.ndarray:
    """Whether a Brownian bridge over a segment of length h, at distances
    g0 and g1 above a linear barrier at its ends, crosses it: certain if
    an endpoint touches, otherwise with probability exp(-2 g0 g1 / h),
    decided by the uniform u.  The exponent overflows only where an
    endpoint touches, and is not used there.

    Most exponents of a far-from-barrier lane lie deep below zero, where
    np.exp is many times slower (underflow and subnormal results), so
    they are clipped at _EXP_FLOOR first.  exp(_EXP_FLOOR) < 2**-53, the
    grid of ``Generator.random``, so a clipped lane can pass the test only
    with u == 0; those lanes are decided again on the exact exponent."""
    with np.errstate(over="ignore"):
        e = -2.0 * g0 * g1 / h
        hit = (g0 <= 0.0) | (g1 <= 0.0) | (u < np.exp(np.maximum(e, _EXP_FLOOR)))
        redo = (u < math.exp(_EXP_FLOOR)) & (e < _EXP_FLOOR)
        if redo.any():
            hit[redo] = (g0[redo] <= 0.0) | (g1[redo] <= 0.0) | (u[redo] < np.exp(e[redo]))
    return hit


def _bm_chunk(model2: TwoLineModel, x1: float, x2: float, cfg: SimConfig,
              chunk_idx: int, width: int) -> dict:
    p1, p2 = model2.p1, model2.p2
    rng = _chunk_rng(cfg.seed, chunk_idx)
    c = 0.0 if cfg.tilt is None else cfg.tilt
    t_hor = cfg.horizon.t if isinstance(cfg.horizon, FixedTime) else math.inf
    level = cfg.horizon.L if isinstance(cfg.horizon, SafeLevel) else math.inf
    T = max(x2 - x1, 0.0) / (p1 - p2)
    ev = _Events(width)

    # live state, compacted whenever a lane stops.  The stream contract
    # draws every segment at full width; live lane j reads column ids[j]
    wS = np.zeros(width)  # claim process S = W at the current checkpoint
    t_retire = (level + max(x1, x2)) * 10.0 / max(abs(p2 + c), abs(p1 + c), 1e-3) + 100.0 * (T + 1.0)
    for t0, t1 in _bm_segments(T, t_hor):
        if not ev.ids.size:
            break
        if t0 > t_retire:
            raise InternalInconsistency("Brownian engine failed to resolve a chunk")
        h = t1 - t0
        ids = ev.ids
        nrm = rng.standard_normal(width)
        u = rng.random(width).take(ids)
        z = wS + nrm.take(ids) * math.sqrt(h) - c * h

        c1 = _bridge_hit((x1 + p1 * t0) - wS, (x1 + p1 * t1) - z, h, u)
        c2 = _bridge_hit((x2 + p2 * t0) - wS, (x2 + p2 * t1) - z, h, u)
        csim = c2 if t1 <= T else c1  # upper envelope piece
        # crossings are only localised to a segment, so its end is the
        # earliest stopping time at which an event is known
        safe = (z < p1 * t1 - level, z < p2 * t1 - level) if level < math.inf else ()
        live = ev.step(c1, c2, csim, t1, z, 0, *safe)
        if live is not None:
            z = z[live]
        wS = z

        if t1 >= t_hor:
            ev.stop(np.ones(ev.ids.size, dtype=bool), t_hor, z, 0, _CENSOR_TIME)
            break
    return ev.result(model2, cfg, at_epoch=False)


# ---------------------------------------------------------------------------
# public driving functions


def _chunk_fn(model2: TwoLineModel):
    if isinstance(model2.line2.driver, StandardBrownian):
        return _bm_chunk
    return _jump_chunk


def _run_chunks(model2: TwoLineModel, x1: float, x2: float, cfg: SimConfig):
    """Yield per-chunk result dicts in chunk order, fanning the chunk
    computations out over cfg.workers threads.  At most 2 * workers
    chunks are in flight, so memory stays flat in n."""
    fn = _chunk_fn(model2)
    n_chunks = (cfg.n + cfg.chunk_size - 1) // cfg.chunk_size
    jobs = ((model2, x1, x2, cfg, i, min(cfg.chunk_size, cfg.n - i * cfg.chunk_size))
            for i in range(n_chunks))
    if cfg.workers == 1:
        for job in jobs:
            yield fn(*job)
        return
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        window: deque = deque()
        for job in jobs:
            window.append(pool.submit(fn, *job))
            if len(window) == 2 * cfg.workers:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()


def simulate(model2: TwoLineModel, x1: float, x2: float,
             config: SimConfig) -> Iterator[PathRecord]:
    """Stream PathRecords for n paths of the two-line model."""
    _reserves_ok(x1, x2)
    _check_safelevel(model2, x1, x2, config)
    for res in _run_chunks(model2, x1, x2, config):
        t1, t2, ts = res["tau1"], res["tau2"], res["tsim"]
        cen, w = res["censor"], res["w"]
        for k in range(t1.size):
            yield PathRecord(
                tau1=float(t1[k]),
                tau2=float(t2[k]),
                tau_or=float(min(t1[k], t2[k])),
                tau_sim=float(ts[k]),
                censor_reason=_CENSOR_NAMES[int(cen[k])],
                likelihood_weight=float(w[k]),
            )


def _event_value(res: dict, event: str) -> np.ndarray:
    """indicator * likelihood weight, the weight taken at the event's own
    resolution time.  The event-epoch weights are already zero where the
    event did not happen, so the selections below need no extra masking."""
    if event == "OR":
        return np.where(res["tau1"] <= res["tau2"], res["w1"], res["w2"])
    if event == "AND":
        return np.where(res["tau1"] >= res["tau2"], res["w1"], res["w2"])
    if event == "SIM":
        return res["wsim"]
    if event == "LINE1":
        return res["w1"]
    return res["w2"]


def _bias_bounds(model2: TwoLineModel, cfg: SimConfig) -> Dict[str, float]:
    """Declared horizon-truncation bias of every event."""
    if isinstance(cfg.horizon, FixedTime):
        return dict.fromkeys(_EVENTS, math.nan)  # not quantified under FixedTime
    level = cfg.horizon.L
    b1 = math.exp(-_line_gamma(model2.line1) * level)
    b2 = math.exp(-_line_gamma(model2.line2) * level)
    return {"OR": b1 + b2, "SIM": b1 + b2, "AND": b1 + b2, "LINE1": b1, "LINE2": b2}


def estimate(model2: TwoLineModel, x1: float, x2: float,
             event: Union[str, Sequence[str]],
             config: SimConfig) -> Union[McEstimate, Dict[str, McEstimate]]:
    """Estimate the ultimate probability of ``event`` with a normal CI.

    ``event`` is one name, answered with an McEstimate, or a list or
    tuple of names, answered with a dict of McEstimates in the order
    given.  Every event is read off the same simulated paths, so each
    entry equals the single-name call with the same config bit for bit.

    With a tilt the estimator averages likelihood_weight * indicator and
    stays unbiased up to the declared horizon truncation.
    """
    many = isinstance(event, (list, tuple))
    names = list(event) if many else [event]
    if not names:
        raise OutOfRange("no event to estimate")
    for name in names:
        if name not in _EVENTS:
            raise OutOfRange(f"unknown event {name!r}")
    _reserves_ok(x1, x2)
    if isinstance(config.horizon, FixedTime) and config.tilt is None:
        raise InvalidHorizon(
            "a FixedTime horizon truncates ultimate events; use SafeLevel or a tilt"
        )
    _check_safelevel(model2, x1, x2, config)

    # per-event sums of the values and their squares, in chunk order; a
    # repeated name shares one entry
    sums = {name: [0.0, 0.0] for name in names}
    for res in _run_chunks(model2, x1, x2, config):
        for name, acc in sums.items():
            wi = _event_value(res, name)
            acc[0] += float(wi.sum())
            acc[1] += float((wi * wi).sum())
    n = config.n
    q = normal_quantile(0.5 + config.ci_level / 2.0)
    bias = _bias_bounds(model2, config)
    out = {}
    for name, (s1, s2) in sums.items():
        p_hat = s1 / n
        se = math.sqrt(max(s2 / n - p_hat * p_hat, 0.0) / n)
        out[name] = McEstimate(
            p_hat=p_hat,
            std_err=se,
            ci=(p_hat - q * se, p_hat + q * se),
            n=n,
            bias_bound=bias[name],
        )
    return out if many else out[event]


# ---------------------------------------------------------------------------
# limit checks (LLN of the ruin time; Theorem-2 conditional laws)


def _line_ruin_times(line: LineModel, x: float, n: int, seed: int,
                     t_cap: float, salt: int) -> np.ndarray:
    """First passage below zero for one line; inf where not ruined by t_cap."""
    d = line.driver
    p = line.p
    taus = np.full(n, math.inf)
    chunk = 8192
    n_chunks = (n + chunk - 1) // chunk
    for ci in range(n_chunks):
        width = min(chunk, n - ci * chunk)
        rng = _chunk_rng(seed, (salt << 32) | ci)
        out = taus[ci * chunk:ci * chunk + width]
        if isinstance(d, StandardBrownian):
            h = 0.25
            wS = np.zeros(width)
            alive = np.ones(width, dtype=bool)
            t = 0.0
            while alive.any() and t < t_cap:
                z = wS + rng.standard_normal(width) * math.sqrt(h)
                u = rng.random(width)
                hit = alive & _bridge_hit((x + p * t) - wS, (x + p * (t + h)) - z, h, u)
                out[hit] = t + h
                alive &= ~hit
                wS = z
                t += h
            continue
        blocks = _Blocks(rng, *d.jump_dists())
        t = np.zeros(width)
        s = np.zeros(width)
        ids = np.arange(width)
        while ids.size:
            dz, sz = blocks.draw(ids.size)
            t = t + dz
            s = s + sz
            ruin = x + p * t - s < 0.0
            out[ids[ruin]] = t[ruin]
            live = ~ruin & (t < t_cap)
            if not live.all():
                ids, t, s = ids[live], t[live], s[live]
                blocks.keep(live)
    return taus


def _fill(n: int, batch: Callable[[int], np.ndarray]) -> np.ndarray:
    """n draws of a rejection sampler; batch(k) proposes a round sized for
    k missing draws and returns the accepted ones."""
    out = np.empty(n)
    filled = 0
    while filled < n:
        z = batch(n - filled)
        take = min(z.size, n - filled)
        out[filled:filled + take] = z[:take]
        filled += take
    return out


def _truncated_std_normal(rng: np.random.Generator, n: int, alpha: float) -> np.ndarray:
    """Standard normal conditioned on exceeding alpha; exact for any alpha."""
    if alpha < 3.0:
        tail = max(1.0 - 0.5 * (1 + math.erf(alpha / math.sqrt(2))), 1e-3)

        def batch(k: int) -> np.ndarray:
            z = rng.standard_normal(max(int(k / tail) + 16, 64))
            return z[z > alpha]
        return _fill(n, batch)

    def robert(k: int) -> np.ndarray:  # exponential proposal: z = alpha + E/alpha
        m = int(k * 1.5) + 16
        e = rng.exponential(1.0 / alpha, m)
        return (alpha + e)[rng.random(m) < np.exp(-0.5 * e * e)]
    return _fill(n, robert)


def _limit_law_samples(line: LineModel, v: float, side: str, n: int,
                       rng: np.random.Generator, t: float) -> np.ndarray:
    """Exact draws from the law of X(t) given survival past t (side
    "survival") or given ruin before t (side "ruin"), for the Brownian
    line.  Built on the absorbed-drifted-Brownian density, so every draw
    is a conditioned sample no matter how rare the conditioning event."""
    p = line.p
    x = v * t
    sd = math.sqrt(t)
    if side == "ruin":
        lm_plus = -2.0 * p * x + normal_logcdf((p * t - x) / sd)
        lm_minus = normal_logcdf(-(x + p * t) / sd)
        q_plus = 1.0 / (1.0 + math.exp(lm_minus - lm_plus))
        upper = rng.random(n) < q_plus
        n_up = int(upper.sum())
        out = np.empty(n)
        # y > 0: N(pt - x, t) conditioned positive
        a_up = (0.0 - (p * t - x)) / sd
        out[upper] = (p * t - x) + sd * _truncated_std_normal(rng, n_up, a_up)
        # y < 0: N(x + pt, t) conditioned negative
        a_lo = (x + p * t) / sd
        out[~upper] = (x + p * t) - sd * _truncated_std_normal(rng, n - n_up, a_lo)
        return out
    # survival: density on y > 0 proportional to
    # phi_t(y - x - pt) * (1 - exp(-2 x y / t)); rejection from the first factor
    a = -(x + p * t) / sd

    def batch(k: int) -> np.ndarray:
        m = int(k * 2) + 16
        y = (x + p * t) + sd * _truncated_std_normal(rng, m, a)
        return y[rng.random(m) < -np.expm1(-2.0 * x * y / t)]
    return _fill(n, batch)


def check_limits(model, what, config: SimConfig) -> CheckReport:
    """Empirical checks of the ruin-time LLN and the conditional limit laws.

    ``what`` is either the string "lln_ruin_time" or a tuple
    ("limit_law", v, side) with side in {"survival", "ruin"}.  The LLN
    check simulates the (possibly tilted) line dynamics directly and
    compares mean tau(x)/x against -1/kappa'(0) at x in {50, 100}; the
    limit-law check draws config.n exact conditioned samples of X(t) at
    t = 200, x = vt and applies a Kolmogorov-Smirnov test at 0.05
    against the two-sided / gap exponential target.
    """
    if what == "lln_ruin_time":
        line = _as_line(model)
        drift = line.drift
        if drift >= 0.0:
            raise OutOfRange(
                f"lln_ruin_time needs a ruinous (negative-drift) line, drift={drift:g}"
            )
        target = -1.0 / drift
        details = {"target": target, "n": config.n}
        passed = True
        for salt, x in enumerate((50.0, 100.0)):
            t_cap = 50.0 * x * target
            taus = _line_ruin_times(line, x, config.n, config.seed, t_cap, salt + 1)
            ruined = np.isfinite(taus)
            n_ruined = int(ruined.sum())
            if n_ruined < 1000:
                raise InsufficientConditionedSamples(
                    f"only {n_ruined} ruined paths at x={x:g}"
                )
            mean_ratio = float(taus[ruined].mean()) / x
            details[f"x={x:g}"] = {"mean_ratio": mean_ratio, "n_ruined": n_ruined}
            passed &= abs(mean_ratio - target) <= 0.10 * target
        return CheckReport(what="lln_ruin_time", passed=passed, details=details)

    if isinstance(what, (tuple, list)) and len(what) == 3 and what[0] == "limit_law":
        _, v, side = what
        line = _as_line(model)
        if not isinstance(line.driver, StandardBrownian):
            raise UnsupportedDriver(
                "exact conditioned sampling of the limit law is available "
                "for the Brownian driver only"
            )
        if config.n < 1000:
            raise InsufficientConditionedSamples(
                f"{config.n} conditioned samples are too few for a stable KS test"
            )
        law = limit_law(line, v, side)
        t = 200.0
        rng = _chunk_rng(config.seed, 0x4C494D)
        ys = np.sort(_limit_law_samples(line, v, side, config.n, rng, t))
        F = np.array([law.cdf(float(y)) for y in ys])
        k = np.arange(1, ys.size + 1)
        ks = float(max(np.max(k / ys.size - F), np.max(F - (k - 1) / ys.size)))
        return CheckReport(
            what=f"limit_law({v:g}, {side})",
            passed=ks < 0.05,
            details={"ks": ks, "threshold": 0.05, "n": config.n, "t": t},
        )

    raise OutOfRange(f"unknown check {what!r}")
