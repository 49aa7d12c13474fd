"""Memory of a multi-worker Monte Carlo run stays flat in the path count:
only a bounded window of chunks is in flight, and each chunk's result is
released once it has been reduced."""

import tracemalloc

from ruin2d.models import CompoundPoissonExp, TwoLineModel
from ruin2d.montecarlo import SafeLevel, SimConfig, estimate

CPE = TwoLineModel(CompoundPoissonExp(1.0, 2.0), 3.0, 1.0)


def _config(n_chunks: int) -> SimConfig:
    # from zero reserves and a low safe level most paths resolve within a
    # few claims, which keeps the traced run short
    return SimConfig(n=256 * n_chunks, seed=5, horizon=SafeLevel(0.5),
                     workers=2, chunk_size=256)


def _peak_bytes(n_chunks: int) -> int:
    cfg = _config(n_chunks)
    tracemalloc.start()
    try:
        estimate(CPE, 0.0, 0.0, "OR", cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_is_flat_in_the_chunk_count():
    # a first run pays one-time set-up allocations, among them a kept buffer
    # for each chunk that runs beside another, which a short run may never
    # do; warm with both runs to keep them out of both peaks
    for n_chunks in (16, 256):
        estimate(CPE, 0.0, 0.0, "OR", _config(n_chunks))
    assert _peak_bytes(256) <= 1.5 * _peak_bytes(16)
