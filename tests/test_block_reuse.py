"""The jump engine keeps its draw buffers between calls.

``_jump_chunk`` leases a buffer from ``montecarlo._FREE`` and puts it
back when the chunk ends, so a process that makes many calls maps and
faults its blocks once.  A reused buffer must never reach a result: no
column may view a buffer, no buffer may serve two live chunks, and a
chunk that raises must leave the list as fit for the next run as one
that ends.
"""

import dataclasses
import hashlib
import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from ruin2d import montecarlo
from ruin2d.errors import InternalInconsistency
from ruin2d.models import (
    CompoundPoissonExp,
    Renewal,
    TwoLineModel,
    deterministic_dist,
    exponential_dist,
)
from ruin2d.montecarlo import SimConfig, default_safe_level, estimate, simulate

CPE = TwoLineModel(CompoundPoissonExp(1.0, 2.0), 3.0, 1.0)
RW = TwoLineModel(Renewal(deterministic_dist(1.0), exponential_dist(2.0)), 3.0, 1.0)
LEVEL = default_safe_level(CPE)

# OR and AND of CPE at (1, 3) under the tilt -0.75 gamma2 = -0.75, 4096
# paths in chunks of 1024, as (p_hat, std_err); equal at workers 1 and 2
TILTED = SimConfig(n=4 * 1024, seed=21, horizon=LEVEL, tilt=-0.75, workers=2, chunk_size=1024)
TILTED_PIN = {"OR": ("0x1.72ffbcd65f12ep-5", "0x1.28ea333240ebfp-10"),
              "AND": ("0x1.fdb517971edffp-8", "0x1.4705a08420247p-12")}


def _tilted_estimate():
    ests = estimate(CPE, 1.0, 3.0, list(TILTED_PIN), TILTED)
    return {e: (est.p_hat.hex(), est.std_err.hex()) for e, est in ests.items()}


def _digest(block):
    h = hashlib.sha256()
    for name, col in block.items():
        h.update(name.encode())
        h.update(repr(col.tolist()).encode() if col.dtype == object else col.tobytes())
    return h.hexdigest()


def test_yielded_blocks_keep_their_values_after_the_buffers_are_reused():
    blocks, digests = [], []
    for block in simulate(CPE, 1.0, 3.0, SimConfig(n=2 * 1024, seed=5, horizon=LEVEL,
                                                   chunk_size=1024)):
        blocks.append(block)
        digests.append(_digest(block))
    # later runs draw into the buffers these chunks put back: a wider chunk,
    # a tilted run, a renewal run and a workers=2 run over 4 chunks
    estimate(CPE, 1.0, 3.0, "OR", SimConfig(n=4096, seed=6, horizon=LEVEL, chunk_size=4096))
    _tilted_estimate()
    estimate(RW, 1.0, 3.0, "OR", SimConfig(n=2048, seed=8, horizon=default_safe_level(RW),
                                           chunk_size=1024))
    estimate(CPE, 1.0, 3.0, "OR", SimConfig(n=4 * 1024, seed=9, horizon=LEVEL, workers=2,
                                            chunk_size=1024))
    assert [_digest(b) for b in blocks] == digests


def test_estimate_after_a_raising_chunk_equals_its_pin(monkeypatch):
    def broken(*args):
        raise InternalInconsistency("weight refused")

    with monkeypatch.context() as m:
        m.setattr(montecarlo, "_event_weight", broken)
        with pytest.raises(InternalInconsistency, match="weight refused"):
            _tilted_estimate()
    assert _tilted_estimate() == TILTED_PIN


@pytest.fixture()
def watched(monkeypatch):
    """The leases of the jump chunks, by thread, and every lease that
    shares memory with one a live chunk holds: a lease is live from when
    its chunk takes it until the chunk puts it back.  The first two leases
    wait for each other, so two chunks are live at once."""
    lock = threading.Lock()
    live, clashes, leases = {}, [], []
    both = threading.Barrier(2, timeout=30)
    real_lease, real_chunk = montecarlo._lease, montecarlo._jump_chunk

    @contextmanager
    def lease(size, keep):
        with real_lease(size, keep) as buf:
            me = threading.get_ident()
            with lock:
                clashes.extend(other for other, bufs in live.items()
                               if other != me and any(np.shares_memory(buf, b) for b in bufs))
                live[me].append(buf)
                leases.append(me)
                wait = len(leases) <= 2
            if wait:
                both.wait()
            try:
                yield buf
            finally:
                # before the real lease puts buf back, where another chunk
                # may take it at once
                with lock:
                    live[me] = [b for b in live[me] if b is not buf]

    def chunk(*args):
        me = threading.get_ident()
        with lock:
            live[me] = []
        try:
            return real_chunk(*args)
        finally:
            with lock:
                del live[me]

    monkeypatch.setattr(montecarlo, "_lease", lease)
    monkeypatch.setattr(montecarlo, "_jump_chunk", chunk)
    return leases, clashes


def test_no_buffer_serves_two_live_chunks(watched):
    leases, clashes = watched
    assert _tilted_estimate() == TILTED_PIN
    assert len(leases) == 4 and not clashes


def test_more_workers_than_cores_share_the_free_list(watched):
    leases, clashes = watched
    cfg = SimConfig(n=48 * 128, seed=3, horizon=LEVEL, tilt=-0.75, workers=6, chunk_size=128)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = estimate(CPE, 1.0, 3.0, "OR", cfg)
    finally:
        sys.setswitchinterval(interval)
    assert len(leases) == 48 and not clashes
    assert got == estimate(CPE, 1.0, 3.0, "OR", dataclasses.replace(cfg, workers=1))


def test_free_list_holds_at_most_the_last_runs_workers():
    for workers in (2, 1, 3):
        estimate(CPE, 1.0, 3.0, "OR", SimConfig(n=6 * 512, seed=4, horizon=LEVEL,
                                                workers=workers, chunk_size=512))
        assert len(montecarlo._FREE) <= workers
        assert len({b.ctypes.data for b in montecarlo._FREE}) == len(montecarlo._FREE)
