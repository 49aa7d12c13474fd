"""Array-level pins of the Monte Carlo chunk engines.

Every array that the chunk engines return (``_jump_chunk``, and for the
Brownian driver ``_bm_exact_chunk``, which every ``estimate`` and
``simulate`` runs) is pinned by a sha256 of its dtype, shape and
bytes.  ``test_golden.py`` pins only sums, which a permutation of lanes
inside a chunk would leave unchanged; these pins catch it.  Under the
stream contract lane ``k`` of chunk ``j`` is path ``j * chunk_size + k``
and draws from the Philox key ``(seed, j)``, so a change that moves any
digest here changes the emitted paths.
"""

import hashlib

import numpy as np
import pytest

from ruin2d.models import (
    CompoundPoissonExp,
    LineModel,
    Renewal,
    StandardBrownian,
    TwoLineModel,
    adjustment,
    deterministic_dist,
    exponential_dist,
    renewal_adjustment,
)
from ruin2d.montecarlo import (
    FixedTime,
    SimConfig,
    _chunk_fn,
    _line_ruin_times,
    default_safe_level,
)

CPE = TwoLineModel(CompoundPoissonExp(1.0, 2.0), 3.0, 1.0)
BM = TwoLineModel(StandardBrownian(), 3.0, 1.0)
RW = TwoLineModel(Renewal(deterministic_dist(1.0), exponential_dist(2.0)), 3.0, 1.0)
MODELS = {"cpe": CPE, "bm": BM, "renewal": RW}
ARRAYS = ("tau1", "tau2", "tau_sim", "censor", "OR", "SIM", "AND", "LINE1", "LINE2")
WIDTH = 4096
TAIL_K = {"cpe": 20.0, "bm": 8.0}


def _tilt(name, which):
    if name == "renewal":
        if which == "g1":
            return -renewal_adjustment(RW.driver, RW.p1)
        return -0.75 * renewal_adjustment(RW.driver, RW.p2)
    adj = adjustment(MODELS[name])
    return -adj.gamma1 if which == "g1" else -0.75 * adj.gamma2


# case id: (model, x1, x2, tilt (None, "g1" = -gamma1, "g2" = -0.75 gamma2),
#           horizon (None = default_safe_level), chunk index, width, chunk_size)
CASES = {
    "cpe-untilted-1-3": ("cpe", 1.0, 3.0, None, None, 0, WIDTH, 8192),
    "bm-untilted-1-3": ("bm", 1.0, 3.0, None, None, 0, WIDTH, 8192),
    "cpe-tail-g1": ("cpe", TAIL_K["cpe"] / 2, TAIL_K["cpe"], "g1", None, 0, WIDTH, 8192),
    "cpe-tail-g2": ("cpe", TAIL_K["cpe"] / 2, TAIL_K["cpe"], "g2", None, 0, WIDTH, 8192),
    "bm-tail-g1": ("bm", TAIL_K["bm"] / 2, TAIL_K["bm"], "g1", None, 0, WIDTH, 8192),
    "bm-tail-g2": ("bm", TAIL_K["bm"] / 2, TAIL_K["bm"], "g2", None, 0, WIDTH, 8192),
    "cpe-fixed-time": ("cpe", 1.0, 3.0, "g2", FixedTime(5.0), 0, WIDTH, 8192),
    "bm-fixed-time": ("bm", 1.0, 3.0, "g2", FixedTime(5.0), 0, WIDTH, 8192),
    "cpe-lower-cone": ("cpe", 3.0, 1.0, None, None, 0, WIDTH, 8192),
    "bm-lower-cone": ("bm", 3.0, 1.0, None, None, 0, WIDTH, 8192),
    "cpe-origin": ("cpe", 0.0, 0.0, None, None, 0, WIDTH, 8192),
    "bm-origin": ("bm", 0.0, 0.0, None, None, 0, WIDTH, 8192),
    "cpe-partial-chunk": ("cpe", 1.0, 3.0, None, None, 3, 777, 1024),
    "bm-partial-chunk": ("bm", 1.0, 3.0, None, None, 3, 777, 1024),
    "renewal-tail-g1": ("renewal", 6.0, 12.0, "g1", None, 0, WIDTH, 8192),
    # deterministic gaps under a FixedTime horizon: 3827 of the 4096
    # lanes end censored at the horizon
    "renewal-fixed-time": ("renewal", 1.0, 3.0, "g2", FixedTime(5.5), 0, WIDTH, 8192),
}

DIGESTS = {
    "bm-fixed-time": {
        "tau1": "0d3f4e39049d265c",
        "tau2": "bc8cf07639c6d11a",
        "tau_sim": "4ba7f4f6c114cf1c",
        "censor": "bd5a8e4a160525e4",
        "LINE1": "1e32b3ba1e66c1c9",
        "LINE2": "3651b89867e47e9a",
        "SIM": "12e4a953d5570efa",
        "OR": "62968a71990f9e30",
        "AND": "52d985ad3dac98a6",
    },
    "bm-lower-cone": {
        "tau1": "66efc2d923ff9956",
        "tau2": "f4ce840bf4559d93",
        "tau_sim": "66efc2d923ff9956",
        "censor": "cfab9fd2c97bf618",
        "LINE1": "b7470fd27b67e79f",
        "LINE2": "7ffe119fb5668977",
        "SIM": "b7470fd27b67e79f",
        "OR": "7ffe119fb5668977",
        "AND": "b7470fd27b67e79f",
    },
    "bm-origin": {
        "tau1": "b7470fd27b67e79f",
        "tau2": "b7470fd27b67e79f",
        "tau_sim": "b7470fd27b67e79f",
        "censor": "cfab9fd2c97bf618",
        "LINE1": "ad7489174fe06d09",
        "LINE2": "ad7489174fe06d09",
        "SIM": "ad7489174fe06d09",
        "OR": "ad7489174fe06d09",
        "AND": "ad7489174fe06d09",
    },
    "bm-partial-chunk": {
        "tau1": "d37dfa93f8ce1a04",
        "tau2": "4677c93f88b232e5",
        "tau_sim": "160806ddae9b5432",
        "censor": "eff247a723dcedd5",
        "LINE1": "541d8f86fbcf5ec1",
        "LINE2": "5ee3165cb684c395",
        "SIM": "24a6364936cf2284",
        "OR": "f1e7a408de31eb40",
        "AND": "24a6364936cf2284",
    },
    "bm-tail-g1": {
        "tau1": "2042a34b1406c65e",
        "tau2": "272b559189da40f7",
        "tau_sim": "3bb61caacd715e96",
        "censor": "cfab9fd2c97bf618",
        "LINE1": "e5de6b4ed639997e",
        "LINE2": "51b63e534b747a2b",
        "SIM": "5b7e7cfb6e7c0b28",
        "OR": "b9628dcab2823a21",
        "AND": "ee5845087a82a5f5",
    },
    "bm-tail-g2": {
        "tau1": "66efc2d923ff9956",
        "tau2": "5b7d627d8feb2096",
        "tau_sim": "66efc2d923ff9956",
        "censor": "cfab9fd2c97bf618",
        "LINE1": "b7470fd27b67e79f",
        "LINE2": "6422ca7eba45e35f",
        "SIM": "b7470fd27b67e79f",
        "OR": "6422ca7eba45e35f",
        "AND": "b7470fd27b67e79f",
    },
    "bm-untilted-1-3": {
        "tau1": "e3a48cc14bef8eea",
        "tau2": "c38d3c6fe836c658",
        "tau_sim": "66efc2d923ff9956",
        "censor": "cfab9fd2c97bf618",
        "LINE1": "84a9d131471e0d60",
        "LINE2": "cb4be777375afd4e",
        "SIM": "b7470fd27b67e79f",
        "OR": "157ad2ee422d9f99",
        "AND": "b7470fd27b67e79f",
    },
    "cpe-fixed-time": {
        "tau1": "ea51b14b164f6785",
        "tau2": "0d51de4dfdf90212",
        "tau_sim": "f72df7774fc5bde6",
        "censor": "afa4049b6f276076",
        "LINE1": "fd975edbfd7152f1",
        "LINE2": "7c334129a7e10653",
        "SIM": "35d71728ae311db7",
        "OR": "58005c3ad914dee2",
        "AND": "cc28237898296338",
    },
    "cpe-lower-cone": {
        "tau1": "dc671bc0c81d4d38",
        "tau2": "b6ce2bc542869fd2",
        "tau_sim": "dc671bc0c81d4d38",
        "censor": "84b1e93ab795ba36",
        "LINE1": "83d689c55f3aa600",
        "LINE2": "d358fc1f5f7a75b8",
        "SIM": "83d689c55f3aa600",
        "OR": "d358fc1f5f7a75b8",
        "AND": "83d689c55f3aa600",
    },
    "cpe-origin": {
        "tau1": "3df3ae3fd949fa4f",
        "tau2": "2e71db3875690764",
        "tau_sim": "3df3ae3fd949fa4f",
        "censor": "7d432f1b95dfa96e",
        "LINE1": "64cc72b0abab3419",
        "LINE2": "633e80fa9a6e3b7b",
        "SIM": "64cc72b0abab3419",
        "OR": "633e80fa9a6e3b7b",
        "AND": "64cc72b0abab3419",
    },
    "cpe-partial-chunk": {
        "tau1": "e70101db63d99ed3",
        "tau2": "8a47ddf990755821",
        "tau_sim": "0223890070697c7a",
        "censor": "357ad0502f1dc584",
        "LINE1": "115cf9414fbf42dc",
        "LINE2": "0f54297aa852e2fb",
        "SIM": "458f5b121d968e85",
        "OR": "c2d237a3d8ac2aeb",
        "AND": "a5c77cc7bf1ae94c",
    },
    "cpe-tail-g1": {
        "tau1": "6d20550cc31979bc",
        "tau2": "89cf37114c2fd237",
        "tau_sim": "89cf37114c2fd237",
        "censor": "cfab9fd2c97bf618",
        "LINE1": "c34829ca2c65e1a5",
        "LINE2": "796b6d51c7d9a0cc",
        "SIM": "796b6d51c7d9a0cc",
        "OR": "c34829ca2c65e1a5",
        "AND": "796b6d51c7d9a0cc",
    },
    "cpe-tail-g2": {
        "tau1": "3822c0448c5ba263",
        "tau2": "3f7a8ce486408dfe",
        "tau_sim": "16c289feac32a159",
        "censor": "823c9d10c82e0f53",
        "LINE1": "98e393b4caeaf063",
        "LINE2": "d44c0cb7b21c178c",
        "SIM": "f87646f97a311671",
        "OR": "192bc1e2e1bd7910",
        "AND": "e00f2f19f578aa55",
    },
    "cpe-untilted-1-3": {
        "tau1": "da0d4ac70c3828b6",
        "tau2": "03dfbcea61926899",
        "tau_sim": "1a1f5af92514bc41",
        "censor": "c114135d41026172",
        "LINE1": "aadc1f451dd6cc42",
        "LINE2": "7b1a16472bfd900c",
        "SIM": "744a27c7bc517d9e",
        "OR": "ccb4b2b331226c34",
        "AND": "2146e4e3705838b0",
    },
    "renewal-fixed-time": {
        "tau1": "19ce595f4a1dcbb1",
        "tau2": "3a64aaf5d138a0ad",
        "tau_sim": "19ce595f4a1dcbb1",
        "censor": "13d045bdd3d7a8f1",
        "LINE1": "bae0db85a62e0193",
        "LINE2": "53f63f05e7cdf36a",
        "SIM": "bae0db85a62e0193",
        "OR": "53f63f05e7cdf36a",
        "AND": "bae0db85a62e0193",
    },
    "renewal-tail-g1": {
        "tau1": "98bbfe6abcba164c",
        "tau2": "6acb9350eceb8509",
        "tau_sim": "6acb9350eceb8509",
        "censor": "cfab9fd2c97bf618",
        "LINE1": "52ca1fee9e8c07f9",
        "LINE2": "d452d7ade08a9da6",
        "SIM": "d452d7ade08a9da6",
        "OR": "52ca1fee9e8c07f9",
        "AND": "d452d7ade08a9da6",
    },
}


def _digest(a: np.ndarray) -> str:
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _run(case):
    name, x1, x2, tilt, horizon, chunk_idx, width, chunk_size = CASES[case]
    model2 = MODELS[name]
    cfg = SimConfig(n=chunk_idx * chunk_size + width, seed=7,
                    horizon=horizon or default_safe_level(model2),
                    tilt=None if tilt is None else _tilt(name, tilt),
                    chunk_size=chunk_size)
    return _chunk_fn(model2)(model2, x1, x2, cfg, chunk_idx, width), width


@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_arrays_are_pinned(case):
    res, width = _run(case)
    assert set(res) == set(ARRAYS)
    assert all(res[k].shape == (width,) for k in ARRAYS)
    assert {k: _digest(res[k]) for k in ARRAYS} == DIGESTS[case]


# (driver, premium, x, n, salt, t_cap in units of x / |drift|): the
# single-line ruin times that check_limits("lln_ruin_time") averages; n
# spans one full and one partial chunk, and a cap of 1 leaves paths
# unruined.  The renewal case's partial chunk has 4096 lanes, so its
# sub-blocks hold two rounds from the first (its digest was taken with
# the engine that summed rounds by np.add.accumulate)
LINE_CASES = {
    "cpe-lln-x10": (CompoundPoissonExp(2.0, 2.0), 0.5, 10.0, 9000, 1, 50.0),
    "cpe-lln-capped": (CompoundPoissonExp(2.0, 2.0), 0.5, 10.0, 9000, 1, 1.0),
    "bm-lln-x10": (StandardBrownian(), -0.5, 10.0, 9000, 2, 50.0),
    "renewal-lln-x10": (RW.driver, 0.3, 10.0, 12288, 1, 50.0),
}
LINE_DIGESTS = {
    "bm-lln-x10": "c97c1c2e046f6b30",
    "cpe-lln-capped": "51a43434c301f5c9",
    "cpe-lln-x10": "1c9af0cf9cc488d9",
    "renewal-lln-x10": "4daf8fef386b3944",
}


@pytest.mark.parametrize("case", sorted(LINE_CASES))
def test_line_ruin_times_are_pinned(case):
    driver, p, x, n, salt, cap = LINE_CASES[case]
    line = LineModel(driver, p)
    taus = _line_ruin_times(line, x, n, 7, cap * x / -line.drift, salt)
    assert taus.shape == (n,)
    assert _digest(taus) == LINE_DIGESTS[case]
