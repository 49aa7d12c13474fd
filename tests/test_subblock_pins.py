"""More array-level pins of the jump chunk engine, at the edges of its
claim pieces and refills.

The jump engine draws a block of rounds at each refill and reads it in
pieces.  These cases sit where that bookkeeping can slip: a chunk that
stops inside its first few rounds, chunks whose late refills hold a
handful of lanes (so their rounds run many at a time), horizon
censoring on both sides of a refill, and the 4096-lane chunk of a
``compare --n 4096`` run, whose sub-blocks hold two rounds from the
first.  The digests were computed with the one-round-at-a-time engine
(the 4096-lane one with the engine that summed rounds by
``np.add.accumulate``); any engine change must leave them unchanged.
"""

import hashlib

import numpy as np
import pytest

from ruin2d.models import CompoundPoissonExp, TwoLineModel, adjustment
from ruin2d.montecarlo import FixedTime, SimConfig, _jump_chunk, default_safe_level

CPE = TwoLineModel(CompoundPoissonExp(1.0, 2.0), 3.0, 1.0)
ARRAYS = ("tau1", "tau2", "tau_sim", "censor", "OR", "SIM", "AND", "LINE1", "LINE2")

# case id: (x1, x2, tilt (None, "g1" = -gamma1, "g2" = -0.75 gamma2),
#           horizon (None = default_safe_level), chunk index, width, chunk_size)
CASES = {
    # every lane stops within 7 rounds: the chunk never leaves its first piece
    "cpe-g1-first-piece": (0.5, 1.0, "g1", None, 0, 8192, 8192),
    # refills of 8192, 681, 54, 6 and 1 lanes; the 6-lane block runs all
    # 128 rounds and the 1-lane block 2
    "cpe-g2-thin-refills": (5.0, 10.0, "g2", None, 1, 8192, 8192),
    # refills of 2048, 61, 4 and 1 lanes; the last runs 46 rounds
    "cpe-g2-thin-partial": (3.0, 6.0, "g2", None, 2, 2048, 2048),
    # 1804 of 2048 lanes are censored at the horizon, between rounds 113
    # and 204, on both sides of the refill at round 128
    "cpe-fixed-time-refill": (1.0, 3.0, "g2", FixedTime(100.0), 1, 2048, 2048),
    # the CLI's --n 4096 chunk at (1, 3): 8192 // 4096 = 2 rounds per
    # sub-block from round 1; chunk 1, a stream that test_engine_streams'
    # cpe-untilted-1-3 (chunk 0) does not read
    "cpe-untilted-4096": (1.0, 3.0, None, None, 1, 4096, 4096),
}

DIGESTS = {
    "cpe-fixed-time-refill": {
        "tau1": "d40a7f9ce47c0f08",
        "tau2": "8086fa40c9c7eefd",
        "tau_sim": "6f8b0acdfb13f887",
        "censor": "572e13d79db42452",
        "LINE1": "7762da319027636c",
        "LINE2": "99b94b311d055395",
        "SIM": "3fc41a5b5308d66a",
        "OR": "0971d34b5fd7925f",
        "AND": "fc487d5a602acf7b",
    },
    "cpe-g1-first-piece": {
        "tau1": "5c29da776e84c042",
        "tau2": "30661d36390d0b68",
        "tau_sim": "2b4d1d58a27a7ecf",
        "censor": "906a76d3372ecf96",
        "LINE1": "090483b714327cb8",
        "LINE2": "2c5c4fc367bdc2e1",
        "SIM": "efa315f3c9ce0e50",
        "OR": "8bf40004266028d5",
        "AND": "cfe3789561f452ca",
    },
    "cpe-g2-thin-partial": {
        "tau1": "223b7ce993945204",
        "tau2": "f4c89b16ca36447e",
        "tau_sim": "ab067c2aa8b23e37",
        "censor": "0fd0fd93cf998661",
        "LINE1": "e6b496daf862007a",
        "LINE2": "6236c9872d32e12d",
        "SIM": "ed4beefdfa2c4aaa",
        "OR": "ebe07c8e422a7d47",
        "AND": "baf53fba9e971f52",
    },
    "cpe-g2-thin-refills": {
        "tau1": "a6b092d5db08286c",
        "tau2": "154d86cafd6c03c8",
        "tau_sim": "e400007421eed96d",
        "censor": "bc8db246ea1d64c5",
        "LINE1": "d9be86227799a413",
        "LINE2": "13a6d67b72d74ec5",
        "SIM": "e3307df18029bad1",
        "OR": "5a4ed12d34545dc3",
        "AND": "2640e61cda8e6bbb",
    },
    "cpe-untilted-4096": {
        "tau1": "e0071a0644969e25",
        "tau2": "43c785557c40860a",
        "tau_sim": "eace3c8f55e85437",
        "censor": "e178f0ff15118b9d",
        "LINE1": "010a18401e59d8a8",
        "LINE2": "64fe30a3a1f74962",
        "SIM": "99009feaf9072bb6",
        "OR": "66511b2e7582203c",
        "AND": "6170398a02782bb0",
    },
}


def _digest(a: np.ndarray) -> str:
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _run(case):
    x1, x2, tilt, horizon, chunk_idx, width, chunk_size = CASES[case]
    adj = adjustment(CPE)
    c = {None: None, "g1": -adj.gamma1, "g2": -0.75 * adj.gamma2}[tilt]
    cfg = SimConfig(n=chunk_idx * chunk_size + width, seed=7,
                    horizon=horizon or default_safe_level(CPE), tilt=c,
                    chunk_size=chunk_size)
    return _jump_chunk(CPE, x1, x2, cfg, chunk_idx, width)


@pytest.mark.parametrize("case", sorted(CASES))
def test_jump_engine_arrays_are_pinned(case):
    res = _run(case)
    assert set(res) == set(ARRAYS)
    assert all(res[k].shape == (CASES[case][5],) for k in ARRAYS)
    assert {k: _digest(res[k]) for k in ARRAYS} == DIGESTS[case]
