"""``_Events.step`` finds each new sighting's round by a reduction along
rows: the max over rounds of hits x (R, ..., 1) is R - the first round.
The reference here is the strided argmax search it replaced, over the
same random hit planes, sighted-before masks and slot layouts; both must
record the same first rounds, stop the same lanes with the same censor
codes, and leave the same flags.
"""

import copy

import numpy as np
import pytest

from ruin2d.montecarlo import _CENSOR_SAFE, _Events


def _reference_step(ev, hits, t, s, n):
    """The first sightings and stops of one sub-block, by argmax over the
    rounds of each new sighting's plane."""
    R = hits.shape[1]
    news = np.greater(hits.any(axis=1), ev.seen)
    idx = news.any(axis=0).nonzero()[0]
    if not idx.size:
        return
    new = news[:, idx]
    # round of each first sighting: -1 if sighted before, R if not yet
    first = np.where(new, hits[:, :, idx].argmax(axis=1), R)
    first[ev.seen[:, idx]] = -1
    f1, f2, fs, g1, g2 = first
    k = np.maximum(np.maximum(np.minimum(f1, g1), np.minimum(f2, g2)),
                   np.minimum(fs, np.minimum(g1, g2)))
    e, j = np.nonzero(new[:3] & (first[:3] <= k))
    r, lanes = first[e, j], idx[j]
    ev.tau[e, ev.ids[lanes]] = t[r, lanes]
    ev.s_e[e, ev.ids[lanes]] = s[r, lanes]
    ev.n_e[e, ev.ids[lanes]] = n + r
    ev.seen |= news
    done = (k < R).nonzero()[0]
    declared = np.maximum(np.maximum(f1[done], f2[done]), fs[done]) > k[done]
    ev.stop(idx[done], np.where(declared, _CENSOR_SAFE, 0))


def _events(rng, width, slots, seen_p):
    """An _Events whose slots hold `slots` of `width` lanes, each flag
    sighted before with probability seen_p."""
    ev = _Events(width)
    ev.ids = np.sort(rng.choice(width, slots, replace=False))
    ev.seen = rng.random((5, slots)) < seen_p
    return ev


@pytest.mark.parametrize("R", [1, 2, 7, 64])
@pytest.mark.parametrize("hit_p", [0.01, 0.2, 0.7])
@pytest.mark.parametrize("seed", range(4))
def test_first_sightings_equal_the_argmax_search(R, hit_p, seed):
    rng = np.random.default_rng([R, int(hit_p * 100), seed])
    width, slots = 600, 450
    ev = _events(rng, width, slots, seen_p=0.3)
    ref = copy.deepcopy(ev)
    hits = rng.random((5, R, slots)) < hit_p
    hits[2] &= hits[0] & hits[1]  # SIM only where both lines are ruined
    t = np.cumsum(rng.exponential(1.0, (R, slots)), axis=0)
    s = np.cumsum(rng.exponential(0.5, (R, slots)), axis=0)
    n = int(rng.integers(1, 1000))
    _reference_step(ref, hits, t, s, n)
    ev.step(hits.copy(), t, s, n)  # step overwrites its hit planes
    assert np.array_equal(ev.tau, ref.tau)
    assert np.array_equal(ev.s_e, ref.s_e)
    assert np.array_equal(ev.n_e, ref.n_e)
    assert np.array_equal(ev.censor, ref.censor)
    assert np.array_equal(ev.seen, ref.seen)
    assert ev.dead == ref.dead
    # the draws stop some lanes at every R, and record some sightings
    assert ev.dead > 0 and np.isfinite(ev.tau).any()
