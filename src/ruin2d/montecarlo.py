"""Monte Carlo oracles for the shared-claim two-line model.

Event-driven simulation is exact for the jump drivers: the claim
surplus is nondecreasing between epochs while both reserve lines rise,
so every ruin (and every simultaneous-ruin spell) can only begin at a
claim instant.  The Brownian driver needs no time grid, tilted or not:
``_bm_exact_chunk`` draws the claim level at the crossing time T, where
both barriers meet, and then every crossing and its epoch exactly, at
premiums p_i + c under a tilt c.

The jump engine keeps its per-chunk bookkeeping (outputs, live-lane
flags, first sightings, stopping, FixedTime censoring) in one core,
``_Events``, and adds only its draws, crossing and safe-level tests; it
and ``_line_ruin_times`` read their draws through ``_Blocks``.  The exact
Brownian engine fills the same outputs.  Either returns ``_Events.result``:
the epochs, the censor codes and one value column per event, all
read-only.  ``estimate`` sums the value columns chunk by chunk, and
``simulate`` yields each chunk's columns as one read-only block.

Cost model.  The draws take about half of the jump engine's time, and
the stream contract fixes them: a refill draws the gaps of _BLOCK rounds
for its live lanes.  Claims are drawn on demand, in pieces of 8, 8, 16,
32 and 64 rounds, so a chunk that resolves in its first rounds draws few
of them.  The rest is array passes and a fixed Python overhead per step.
The engine advances its lanes by sub-blocks sized by rounds x lanes
(about _SUB_BLOCK values: one round at full width, up to a claim piece
when few lanes are live), so that overhead is paid once per sub-block.
Its running sums are taken row by row, one numpy call per round over all
the sub-block's lanes, since numpy's accumulate along the round axis
runs a short strided loop per lane (see ``_Blocks.walk``).  ``_Events``
spends its calls on the lanes with something new only.  The engine
compacts its slots at one place per pass, when ``_Events.compact`` finds
an eighth of them held by stopped lanes (or any, before a refill).  The
exact Brownian engine makes one pass, tilted or not: three full-width
draws, then a normal and a uniform per crossing; a tilt adds one pass to
record the claim levels.

Reproducibility contract: path ``i`` lives at lane ``i % chunk_size``
of chunk ``i // chunk_size``; every chunk consumes its own Philox
substream (key ``[seed, chunk index]``) in a fixed round order; partial
sums are reduced in chunk-index order.  Worker count therefore never
changes any emitted number.

Importance sampling follows the classical exponential change of
measure: under a tilt ``c`` the claim dynamics are exchanged for their
tilted family member, and each event is weighed at its own epoch tau,
the first time it is known, with ``exp(-c Z(tau) + kappa(c) tau)`` where
``Z = p2 t - S``.  The weight is insensitive to which line it is written
against because the premium parts cancel.  The renewal driver has no
continuous-time cumulant, so its weight uses the per-step analogue
``exp(-c Z_n + n phi(c))`` with ``phi(c) = log E exp(c (p2 z - s))``.
OR takes the weight at the first ruin and AND at the second.  Each
event's column holds these weights, 0 where the event did not happen.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Dict, Iterator, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .cones import crossing_time
from .errors import (
    ConfigError,
    InsufficientConditionedSamples,
    InternalInconsistency,
    InvalidHorizon,
    OutOfRange,
    UnsupportedDriver,
)
from .finite_time import _as_line, limit_law
from .models import DistSpec, LineModel, StandardBrownian, TwoLineModel
from .numerics import normal_quantile, normal_logcdf
from .twodim import _EVENTS, _check_reserves

__all__ = [
    "FixedTime",
    "SafeLevel",
    "SimConfig",
    "McEstimate",
    "CheckReport",
    "default_safe_level",
    "simulate",
    "estimate",
    "check_limits",
]

_BLOCK = 128  # rounds drawn per RNG refill in the jump engine
_PIECE = 8  # claim rows of a block's first piece; each later piece ends at twice its start
_SUB_BLOCK = 8192  # about rounds x slots per step of the jump engine (see _Blocks)
_MAX_ROUNDS = 5_000_000  # a jump chunk still live after this many rounds is a bug
_MASK64 = (1 << 64) - 1


# ---------------------------------------------------------------------------
# configuration types; a horizon gives the chunk engines their (stopping
# time, safe level) in ``limits``, refuses a run it cannot end in ``check``
# and declares each event's truncation bias in ``bias_bounds``


@dataclass(frozen=True)
class FixedTime:
    """Stop every path at the deterministic horizon ``t``."""

    t: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t) and self.t > 0.0):
            raise InvalidHorizon(f"FixedTime horizon must be positive, got {self.t!r}")

    def limits(self) -> Tuple[float, float]:
        return self.t, math.inf

    def check(self, model2: TwoLineModel, x1: float, x2: float,
              tilt: Optional[float]) -> None:
        """Every path stops at t, whatever the drift."""

    def bias_bounds(self, model2: TwoLineModel, tilt: Optional[float]) -> Dict[str, float]:
        """NaN for every event: the truncation is not quantified.  Without
        a tilt the run estimates P(event by t), so it is refused."""
        if tilt is None:
            raise InvalidHorizon(
                "a FixedTime horizon truncates ultimate events; use SafeLevel or a tilt"
            )
        return dict.fromkeys(_EVENTS, math.nan)


@dataclass(frozen=True)
class SafeLevel:
    """Retire a line as "never ruined" once its reserve exceeds its
    starting value by ``L``; the truncation bias is Lundberg-bounded by
    exp(-gamma L) per line."""

    L: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.L) and self.L > 0.0):
            raise InvalidHorizon(f"SafeLevel must be positive, got {self.L!r}")

    def limits(self) -> Tuple[float, float]:
        return math.inf, self.L

    def check(self, model2: TwoLineModel, x1: float, x2: float,
              tilt: Optional[float]) -> None:
        """Refuse a level below a reserve, and a line whose drift under the
        tilt is zero: it would neither ruin nor retire."""
        if self.L <= max(x1, x2):
            raise InvalidHorizon(
                f"SafeLevel L={self.L:g} must exceed max(x1, x2)={max(x1, x2):g}"
            )
        for line in (model2.line1, model2.line2):
            eff = LineModel(*line.driver.tilted(line.p, tilt)) if tilt is not None else line
            if eff.drift == 0.0:
                raise InvalidHorizon(
                    "zero effective drift: a SafeLevel run can neither ruin nor retire"
                )

    def bias_bounds(self, model2: TwoLineModel, tilt: Optional[float]) -> Dict[str, float]:
        """exp(-gamma_i L) per line, and their sum for the two-line events."""
        d = model2.driver
        b1 = math.exp(-d.lundberg_gamma(model2.p1) * self.L)
        b2 = math.exp(-d.lundberg_gamma(model2.p2) * self.L)
        return {"OR": b1 + b2, "SIM": b1 + b2, "AND": b1 + b2, "LINE1": b1, "LINE2": b2}


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
        for name in ("n", "seed", "workers", "chunk_size"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            # a numpy integer would overflow the 64-bit key masks of _chunk_rng
            object.__setattr__(self, name, int(value))
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


def default_safe_level(model2: TwoLineModel) -> SafeLevel:
    """SafeLevel(30 / min(gamma1, gamma2)): truncation bias below
    exp(-30) per line at the default."""
    d = model2.driver
    return SafeLevel(30.0 / min(d.lundberg_gamma(model2.p1), d.lundberg_gamma(model2.p2)))


def _chunk_rng(seed: int, chunk_idx: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, chunk_idx & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# per-chunk event bookkeeping: the outputs of both chunk engines, and the
# sightings and stops of the jump engine

_CENSOR_SAFE = 1
_CENSOR_TIME = 2
_CENSOR_NAMES = np.array([None, "safe_level", "fixed_time"], dtype=object)  # by censor code


class _Events:
    """The outputs of one chunk and the event flags of its lanes.

    Outputs are indexed by original lane; the lane in slot j is original
    lane ids[j].  ``step`` takes a sub-block of R rounds at once.  A
    stopped lane keeps its slot, with every flag set so that it never
    shows anything new, until the engine calls ``compact`` at the top of
    a pass, so the slots stay put through a pass.  Each event (LINE1,
    LINE2, SIM) records the time, claim level and step count of its first
    sighting in its row of tau, s_e and n_e, where ``result`` takes its
    importance weight: the weight stops accumulating variance once the
    event is decided instead of drifting until the whole record resolves.
    A lane that no event decides has no weight, only its censor code.

    Cost model: a step makes a few passes over its (5, R, slots)
    sightings to find the lanes with something new, then a fixed number
    of numpy calls on those lanes alone, so its Python overhead is paid
    once per sub-block, not once per round.  Compaction is deferred (see
    ``compact``)."""

    def __init__(self, width: int):
        # rows: LINE1, LINE2, SIM
        self.tau = np.full((3, width), math.inf)
        self.s_e = np.zeros((3, width))
        self.n_e = np.zeros((3, width), dtype=np.int64)
        self.censor = np.zeros(width, dtype=np.int8)
        self.ids = np.arange(width)
        # sighted so far, per slot: line 1 ruined, line 2 ruined, SIM, line 1
        # retired, line 2 retired (the rows of step's hits); a stopped lane
        # has them all
        self.seen = np.zeros((5, width), dtype=bool)
        self.dead = 0  # stopped lanes that still hold a slot (see compact)

    def step(self, hits: np.ndarray, t: np.ndarray, s: np.ndarray, n: int) -> None:
        """Record the first sightings among the live lanes over a
        sub-block of R rounds and stop every lane whose record is decided:
        each line is ruined or retired, and SIM has happened or cannot be
        told apart from a retirement.  A lane stops at the round where that
        happens, and nothing it shows later in the sub-block is recorded.

        hits is a (5, R, slots) bool array, in the order of ``seen``: a
        line below zero, both at once, a line past the safe level.  t and s
        are the times and claim levels of the rounds, (R, slots) arrays;
        round r is step n + r."""
        R = hits.shape[1]
        news = np.greater(hits[:, 0] if R == 1 else hits.any(axis=1), self.seen)
        idx = news.any(axis=0).nonzero()[0]
        if not idx.size:
            return
        new = news.take(idx, axis=1)
        # round of each first sighting: -1 if sighted before, R if not yet
        first = np.where(new, hits.take(idx, axis=2).argmax(axis=1) if R > 1 else 0, R)
        first[self.seen.take(idx, axis=1)] = -1
        f1, f2, fs, g1, g2 = first
        k = np.maximum(np.maximum(np.minimum(f1, g1), np.minimum(f2, g2)),
                       np.minimum(fs, np.minimum(g1, g2)))
        e, j = np.nonzero(new[:3] & (first[:3] <= k))
        if e.size:
            r, lanes = first[e, j], idx[j]
            dest = e * self.censor.size + self.ids[lanes]  # into the raveled outputs
            self.tau.reshape(-1)[dest] = t[r, lanes]
            self.s_e.reshape(-1)[dest] = s[r, lanes]
            self.n_e.reshape(-1)[dest] = n + r
        # the lanes that stop below get every flag, so the extra ones are moot
        self.seen |= news
        done = (k < R).nonzero()[0]
        if not done.size:
            return
        # a decided lane that misses an event has retired a line
        declared = np.maximum(np.maximum(f1[done], f2[done]), fs[done]) > k[done]
        self.stop(idx[done], np.where(declared, _CENSOR_SAFE, 0))

    def stop(self, lanes: np.ndarray, code) -> None:
        """Stop the live lanes at indices lanes with censor code code, one
        value per stopped lane or one value for all."""
        self.censor[self.ids[lanes]] = code
        self.seen[:, lanes] = True
        self.dead += lanes.size

    def running(self) -> bool:
        """Whether any lane has not stopped."""
        return self.dead < self.ids.size

    def live(self) -> np.ndarray:
        """Mask of the slots whose lanes have not stopped: a live lane never
        has every flag, since that decides its record."""
        return ~self.seen.all(axis=0)

    def compact(self, refill: bool) -> Optional[np.ndarray]:
        """Drop the slots of stopped lanes once an eighth of the slots are
        stopped ones, or once any are if refill (a jump refill draws for
        the live lanes alone): compacting every array of a wide chunk costs
        far more than carrying a few stopped lanes.  Returns the keep mask,
        with which the engine compacts its own state, or None if the slots
        stay."""
        if not (8 * self.dead >= self.ids.size or refill and self.dead):
            return None
        live = self.live()
        self.ids = self.ids[live]
        self.seen = np.compress(live, self.seen, axis=1)
        self.dead = 0
        return live

    def check_sim(self) -> None:
        """Refuse a record with SIM before either line's ruin.  A jump
        engine sights SIM only where it sights both ruins, and the exact
        Brownian engine draws SIM's epoch from a ruin's, so in neither can
        SIM come first."""
        if (self.tau[2] < np.maximum(self.tau[0], self.tau[1])).any():
            raise InternalInconsistency("SIM recorded before a line's ruin")

    def result(self, model2: TwoLineModel, cfg: SimConfig) -> dict:
        """The chunk's arrays, all read-only: the epochs of both ruins and
        of SIM, the censor codes, and per event the values that
        ``estimate`` averages and ``simulate`` yields: the weight at the
        event's epoch, 0 where it did not happen.  OR is decided at the
        first ruin, AND at the second.  Refuses SIM before a ruin
        (``check_sim``) and a negative weight in any event column: every
        column takes its values from w1, w2 and wsim."""
        self.check_sim()
        tau1, tau2, tau_sim = self.tau
        w1, w2, wsim = (_event_weight(model2, cfg, *e) for e in zip(self.tau, self.s_e, self.n_e))
        if min(w1.min(), w2.min(), wsim.min()) < 0.0:
            raise InternalInconsistency("negative likelihood weight")
        res = {"tau1": tau1, "tau2": tau2, "tau_sim": tau_sim, "censor": self.censor,
               "OR": np.where(tau1 <= tau2, w1, w2), "SIM": wsim,
               "AND": np.where(tau1 >= tau2, w1, w2), "LINE1": w1, "LINE2": w2}
        for a in (self.tau, *res.values()):
            a.flags.writeable = False
        return res


def _event_weight(model2: TwoLineModel, cfg: SimConfig, tau: np.ndarray,
                  s_e: np.ndarray, n_e: np.ndarray) -> np.ndarray:
    """Likelihood weight of tilt c frozen at an event epoch t, after claim
    total s and n claims: exp(-c Z + the driver's compensator) with
    Z = p2 t - s; 1 untilted, and 0 where the event never happened (any
    finite placeholder time would do, the indicator kills it)."""
    c = cfg.tilt
    hit = np.isfinite(tau)
    if c is None:
        return hit.astype(float)
    t = np.where(hit, tau, 0.0)
    p2 = model2.p2
    log_w = -c * (p2 * t - s_e) + model2.driver.tilt_compensator(p2, c, t, n_e)
    return np.where(hit, np.exp(log_w), 0.0)


# ---------------------------------------------------------------------------
# jump-driver chunk engine (compound Poisson and renewal)


class _Blocks:
    """Gap and claim draws of a jump-driven chunk.

    Each refill draws the gaps of _BLOCK rounds for the lanes live at that
    moment; the lane in slot j reads column pos[j] of the block (pos is
    None until the slots are compacted), so compacting the slots compacts
    pos and never copies the block.  The claims of a block are drawn on
    demand, in pieces of 8, 8, 16, 32 and 64 rows as the lanes reach
    them: a chunk that resolves in its first rounds never draws the rest.
    numpy's samplers consume the stream one sample after another, so every
    claim has the value, and every refill starts at the stream position,
    of one eager draw of (_BLOCK, lanes) gaps and then claims.  A refill
    only follows the last row of a block, when every piece of its claims
    has been drawn.

    ``walk`` reads a sub-block of rounds sized by rows x slots: about
    _SUB_BLOCK values, so one row at full width and up to a whole piece
    when few lanes are live.  A sub-block never crosses a piece or a
    refill."""

    def __init__(self, rng: np.random.Generator, ia: DistSpec, cl: DistSpec):
        self.rng, self.ia, self.cl = rng, ia, cl
        self.gaps = self.claims = self.pos = None
        self.row = self.end = _BLOCK  # next round; end of the drawn claim rows

    def walk(self, t: np.ndarray, s: np.ndarray, limit: int) -> Tuple[np.ndarray, np.ndarray]:
        """Epochs and claim totals of the slots, at times t and claim
        totals s now, after each of the next R <= limit rounds: two
        (R, slots) arrays, summed round by round as one round at a time
        would.  The running sums add one row to the next, R - 1 calls
        over whole rows: ``np.add.accumulate(axis=0)`` makes the same
        additions in the same order, but loops over the rounds of one
        slot at a time, 4-25x slower on the wide sub-blocks of the first
        rounds and faster only on thin late ones."""
        nl = t.size
        if self.row == _BLOCK:
            self.gaps = self.ia.sample(self.rng, _BLOCK * nl).reshape(_BLOCK, nl)
            self.pos = None
            self.row = self.end = 0
        if self.row == self.end:
            rows = max(self.row, _PIECE)
            width = self.gaps.shape[1]
            self.claims = self.cl.sample(self.rng, rows * width).reshape(rows, width)
            self.end += rows
        r0 = self.row
        R = min(max(1, _SUB_BLOCK // nl), self.end - r0, limit)
        self.row += R
        c0 = r0 - self.end + self.claims.shape[0]
        gaps, claims = self.gaps[r0:r0 + R], self.claims[c0:c0 + R]
        if self.pos is None:
            T, S = gaps.copy(), claims.copy()
        else:
            T, S = gaps.take(self.pos, axis=1), claims.take(self.pos, axis=1)
        T[0] += t
        S[0] += s
        for r in range(1, R):
            np.add(T[r - 1], T[r], out=T[r])
            np.add(S[r - 1], S[r], out=S[r])
        return T, S

    def keep(self, live: np.ndarray) -> None:
        self.pos = np.flatnonzero(live) if self.pos is None else self.pos[live]


def _jump_chunk(model2: TwoLineModel, x1: float, x2: float, cfg: SimConfig,
                chunk_idx: int, width: int) -> dict:
    p1, p2 = model2.p1, model2.p2
    d = model2.driver if cfg.tilt is None else model2.driver.tilted(p2, cfg.tilt)[0]
    ia, cl = d.jump_dists()
    blocks = _Blocks(_chunk_rng(cfg.seed, chunk_idx), ia, cl)
    t_hor, level = cfg.horizon.limits()
    ev = _Events(width)

    # per-slot state, compacted with ev's slots; every live lane has taken
    # the same number of steps, so one counter serves them all
    t = np.zeros(width)
    s = np.zeros(width)
    steps = 0
    while ev.running():
        if steps >= _MAX_ROUNDS:
            raise InternalInconsistency("jump engine failed to resolve a chunk")
        live = ev.compact(refill=blocks.row == _BLOCK)
        if live is not None:
            blocks.keep(live)  # a refill resets pos anyway
            t, s = t[live], s[live]
        T, S = blocks.walk(t, s, _MAX_ROUNDS - steps)
        R = T.shape[0]

        # b - S < 0 exactly when S > b for finite IEEE values, so each line
        # is ruined where the claims pass its barrier
        p1t = p1 * T
        p2t = p2 * T
        hits = np.zeros((5, R, ev.ids.size), dtype=bool)
        np.greater(S, p1t + x1, out=hits[0])
        np.greater(S, p2t + x2, out=hits[1])
        np.logical_and(hits[0], hits[1], out=hits[2])
        if level < math.inf:
            np.greater_equal(np.subtract(p1t, S, out=p1t), level, out=hits[3])
            np.greater_equal(np.subtract(p2t, S, out=p2t), level, out=hits[4])
        over = T > t_hor if t_hor < math.inf and T[-1].max() > t_hor else None
        if over is not None:
            hits &= ~over  # a lane past the horizon sees nothing from that round on
        ev.step(hits, T, S, steps + 1)
        if over is not None:  # and, if still live, stops there
            ev.stop(np.flatnonzero(over[-1] & ev.live()), _CENSOR_TIME)
        t, s = T[-1], S[-1]
        steps += R

    return ev.result(model2, cfg)


# ---------------------------------------------------------------------------
# exact Brownian chunk engine


def _passage(rng: np.random.Generator, a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """First-passage times of Brownian motion to a level at distance a,
    given that it gets there, under a drift of size k / a (either sign:
    given a passage, the law is the same): IG(a^2 / k, a^2), or the Levy
    law a^2 / Z^2 where k = 0.  Michael, Schucany & Haas (1976), from one
    normal and then one uniform per lane; the smaller root is written
    without the cancellation of its textbook form, so k = 0 needs no
    branch and a = 0 gives 0."""
    a2 = a * a
    z2 = np.square(rng.standard_normal(a.size))
    u = rng.random(a.size)
    s = 2.0 * a2 / (z2 + 2.0 * k + np.sqrt(z2 * (z2 + 4.0 * k)))
    big = u * (a2 + k * s) > a2  # the larger root, with probability s / (mean + s)
    s[big] = np.square(a2[big] / k[big]) / s[big]
    return s


def _bridge_epoch(t0: Union[float, np.ndarray], span: Union[float, np.ndarray],
                  s: np.ndarray) -> np.ndarray:
    """Epoch in [t0, t0 + span] of a bridge over that span whose passage
    is the passage s of free Brownian motion: t0 + span s / (span + s)."""
    return t0 + span * np.divide(s, span + s, out=np.zeros_like(s), where=s > 0.0)


def _bm_exact_chunk(model2: TwoLineModel, x1: float, x2: float, cfg: SimConfig,
                    chunk_idx: int, width: int) -> dict:
    """Brownian chunk with every crossing and its epoch drawn exactly, at
    premiums q_i = p_i + c under a tilt c (the tilted law of a Brownian
    line, see ``StandardBrownian.tilted``).

    Draws, in this order: W_T ~ N(0, T), a uniform u and a uniform v, each
    at full width; then, for the crossing lanes only, in lane order, the
    passages of line 1 before T, of line 2 before T, of line 2 after T, one
    uniform per line-2 crossing after T, and the passages of line 1 after T.

    Both barriers reach b = x1 + q1 T at T, and W_T sits g = b - W_T below
    it; T is the same at any tilt, since q1 - q2 = p1 - p2.  Before T the
    bridge crosses line i's barrier with probability exp(-2 x_i g+ / T);
    line 1's is the lower one, so u decides both, nested.  After T line 2's
    barrier is the lower one: v decides its crossing, with probability
    exp(-2 q2 g2) capped at 1, and line 1 can cross only from line 2's
    epoch, a gap g1 - g2 + (p1 - p2) s2 below its barrier, so its own
    uniform decides it once s2 is known.  SIM is line 2 before T or line 1
    after T.  For T = 0 (x2 <= x1) only the after-T step runs, with g1 = x1
    and g2 = x2.

    Under a tilt every event A is {tau_A < inf} for a stopping time tau_A,
    at which the claim level is the barrier's, so the weight taken there
    gives E_c[L(tau_A); tau_A < inf] = P(A) with no truncation (Siegmund
    1976), for ``estimate`` and for each path of ``simulate`` alike."""
    p1, p2 = model2.p1, model2.p2
    c = 0.0 if cfg.tilt is None else cfg.tilt
    q1, q2 = p1 + c, p2 + c
    rng = _chunk_rng(cfg.seed, chunk_idx)
    T = crossing_time(x1, x2, p1, p2)
    g = (x1 + q1 * T) - rng.standard_normal(width) * math.sqrt(T)
    u = rng.random(width)
    v = rng.random(width)
    ev = _Events(width)
    tau1, tau2, tau_sim = ev.tau
    if T > 0.0:
        gp = np.maximum(g, 0.0)
        h1 = np.flatnonzero(u < np.exp(gp * (-2.0 * x1 / T)))
        # the bridge from 0 to W_T is free motion with drift g / T seen
        # through t = sT / (T + s); line 2's from line 1's epoch likewise
        tau1[h1] = _bridge_epoch(0.0, T, _passage(rng, np.full(h1.size, x1),
                                                  np.abs(g[h1]) * (x1 / T)))
        h2 = h1[u[h1] < np.exp(gp[h1] * (-2.0 * x2 / T))]
        span = T - tau1[h2]
        tau2[h2] = tau_sim[h2] = _bridge_epoch(
            tau1[h2], span, _passage(rng, (p1 - p2) * span, (p1 - p2) * np.abs(g[h2])))
        later = np.flatnonzero(tau_sim == math.inf)
        g1 = g2 = g[later]
    else:
        later = np.arange(width)
        g1, g2 = np.full(width, x1), np.full(width, x2)
    # a line that drifts down (q <= 0) crosses for sure; given a crossing,
    # its passage law is the same for either sign of the drift
    cross = v[later] < np.exp(np.minimum(-2.0 * q2 * g2, 0.0))
    lanes, g1, g2 = later[cross], g1[cross], g2[cross]
    s2 = _passage(rng, g2, abs(q2) * g2)
    tau2[lanes] = T + s2
    gap = g1 - g2 + (p1 - p2) * s2
    cross = rng.random(lanes.size) < np.exp(np.minimum(-2.0 * q1 * gap, 0.0))
    lanes, gap = lanes[cross], gap[cross]
    t = tau2[lanes] + _passage(rng, gap, abs(q1) * gap)
    tau1[lanes] = np.minimum(tau1[lanes], t)
    tau_sim[lanes] = t

    t_hor = cfg.horizon.limits()[0]  # a safe level truncates nothing here
    if t_hor < math.inf:
        ev.tau[ev.tau > t_hor] = math.inf
        ev.censor[tau_sim == math.inf] = _CENSOR_TIME  # SIM still possible after t_hor
    if cfg.tilt is not None:
        # each event's claim level is its barrier's at its epoch: the upper
        # one's at SIM (an event that never happens weighs 0 at any level)
        t = np.where(np.isfinite(ev.tau), ev.tau, 0.0)
        ev.s_e[0] = x1 + p1 * t[0]
        ev.s_e[1] = x2 + p2 * t[1]
        ev.s_e[2] = np.maximum(x1 + p1 * t[2], x2 + p2 * t[2])
    return ev.result(model2, cfg)


# ---------------------------------------------------------------------------
# public driving functions


def _chunk_fn(model2: TwoLineModel):
    """The chunk engine of a run: the exact engine for the Brownian
    driver, the jump engine for the others."""
    return _bm_exact_chunk if isinstance(model2.line2.driver, StandardBrownian) else _jump_chunk


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
             config: SimConfig) -> Iterator[Mapping[str, np.ndarray]]:
    """Yield one read-only block per chunk of the n paths, in chunk order.

    A block maps each column name to an array with one entry per path of
    the chunk: the epochs ``tau1``, ``tau2``, ``tau_or`` (their minimum)
    and ``tau_sim``, inf where not observed; ``censor_reason``, None or
    why anything was left unobserved or declared by a retirement
    ("fixed_time", "safe_level"); and per event of ``OR``, ``SIM``,
    ``AND``, ``LINE1``, ``LINE2`` the value that ``estimate`` averages on
    the same path: the likelihood weight at the event's epoch, 0 where it
    did not happen (1 where it did, untilted).
    Summed chunk by chunk, the value columns give ``estimate``'s p_hat.
    No column can be written."""
    _check_reserves(x1, x2)
    config.horizon.check(model2, x1, x2, config.tilt)
    for res in _run_chunks(model2, x1, x2, config):
        tau_or = np.minimum(res["tau1"], res["tau2"])
        censor_reason = _CENSOR_NAMES.take(res["censor"])
        tau_or.flags.writeable = censor_reason.flags.writeable = False
        yield MappingProxyType({"tau1": res["tau1"], "tau2": res["tau2"], "tau_or": tau_or,
                                "tau_sim": res["tau_sim"], "censor_reason": censor_reason,
                                **{e: res[e] for e in _EVENTS}})


def estimate(model2: TwoLineModel, x1: float, x2: float,
             event: Union[str, Sequence[str]],
             config: SimConfig) -> Union[McEstimate, Dict[str, McEstimate]]:
    """Estimate the ultimate probability of ``event`` with a normal CI.

    ``event`` is one name, answered with an McEstimate, or a list or
    tuple of names, answered with a dict of McEstimates in the order
    given.  Every event is read off the same simulated paths, so each
    entry equals the single-name call with the same config bit for bit.

    The estimator averages each event's value, its weight at its epoch
    times its indicator (1 * indicator untilted; see ``_Events.result``),
    and stays unbiased up to the declared horizon truncation.
    """
    many = isinstance(event, (list, tuple))
    names = list(event) if many else [event]
    if not names:
        raise OutOfRange("no event to estimate")
    for name in names:
        if name not in _EVENTS:
            raise OutOfRange(f"unknown event {name!r}")
    _check_reserves(x1, x2)
    config.horizon.check(model2, x1, x2, config.tilt)
    bias = config.horizon.bias_bounds(model2, config.tilt)

    # per-event sums of the values and their squares, in chunk order; a
    # repeated name shares one entry
    sums = {name: [0.0, 0.0] for name in names}
    for res in _run_chunks(model2, x1, x2, config):
        for name, acc in sums.items():
            wi = res[name]
            acc[0] += float(wi.sum())
            acc[1] += float((wi * wi).sum())
    n = config.n
    q = normal_quantile(0.5 + config.ci_level / 2.0)
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
            # ruined with probability min(1, exp(-2 p x)), at an exact passage
            hit = np.flatnonzero(rng.random(width) < math.exp(min(-2.0 * p * x, 0.0)))
            s = _passage(rng, np.full(hit.size, x), np.full(hit.size, abs(p) * x))
            out[hit] = np.where(s <= t_cap, s, math.inf)
            continue
        blocks = _Blocks(rng, *d.jump_dists())
        t = np.zeros(width)
        s = np.zeros(width)
        ids = np.arange(width)
        while ids.size:
            T, S = blocks.walk(t, s, _MAX_ROUNDS)
            ruin = x + p * T - S < 0.0
            stop = ruin | (T >= t_cap)
            t, s = T[-1], S[-1]
            done = stop.any(axis=0)
            if done.any():
                lanes = np.flatnonzero(done)
                r = stop[:, lanes].argmax(axis=0)
                hit = ruin[r, lanes]
                out[ids[lanes[hit]]] = T[r[hit], lanes[hit]]
                live = ~done
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
    ("limit_law", v, side) with side in {"survival", "ruin"}; ``model`` is
    a ``LineModel`` (a tilted line is ``tilt(line, c)``).  The LLN check
    simulates the line and compares mean tau(x)/x with -1/kappa'(0) at x
    in {50, 100}; the limit-law check draws config.n exact conditioned
    samples of X(t) at t = 200, x = vt and applies a Kolmogorov-Smirnov
    test at 0.05 against the two-sided / gap exponential target.
    """
    line = _as_line(model)
    if what == "lln_ruin_time":
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
