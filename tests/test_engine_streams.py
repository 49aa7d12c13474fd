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
ARRAYS = ("tau1", "tau2", "tsim", "censor", "w1", "w2", "wsim")
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
        "tsim": "4ba7f4f6c114cf1c",
        "censor": "bd5a8e4a160525e4",
        "w1": "1e32b3ba1e66c1c9",
        "w2": "3651b89867e47e9a",
        "wsim": "12e4a953d5570efa",
    },
    "bm-lower-cone": {
        "tau1": "66efc2d923ff9956",
        "tau2": "f4ce840bf4559d93",
        "tsim": "66efc2d923ff9956",
        "censor": "cfab9fd2c97bf618",
        "w1": "b7470fd27b67e79f",
        "w2": "7ffe119fb5668977",
        "wsim": "b7470fd27b67e79f",
    },
    "bm-origin": {
        "tau1": "b7470fd27b67e79f",
        "tau2": "b7470fd27b67e79f",
        "tsim": "b7470fd27b67e79f",
        "censor": "cfab9fd2c97bf618",
        "w1": "ad7489174fe06d09",
        "w2": "ad7489174fe06d09",
        "wsim": "ad7489174fe06d09",
    },
    "bm-partial-chunk": {
        "tau1": "d37dfa93f8ce1a04",
        "tau2": "4677c93f88b232e5",
        "tsim": "160806ddae9b5432",
        "censor": "eff247a723dcedd5",
        "w1": "541d8f86fbcf5ec1",
        "w2": "5ee3165cb684c395",
        "wsim": "24a6364936cf2284",
    },
    "bm-tail-g1": {
        "tau1": "2042a34b1406c65e",
        "tau2": "272b559189da40f7",
        "tsim": "3bb61caacd715e96",
        "censor": "cfab9fd2c97bf618",
        "w1": "e5de6b4ed639997e",
        "w2": "51b63e534b747a2b",
        "wsim": "5b7e7cfb6e7c0b28",
    },
    "bm-tail-g2": {
        "tau1": "66efc2d923ff9956",
        "tau2": "5b7d627d8feb2096",
        "tsim": "66efc2d923ff9956",
        "censor": "cfab9fd2c97bf618",
        "w1": "b7470fd27b67e79f",
        "w2": "6422ca7eba45e35f",
        "wsim": "b7470fd27b67e79f",
    },
    "bm-untilted-1-3": {
        "tau1": "e3a48cc14bef8eea",
        "tau2": "c38d3c6fe836c658",
        "tsim": "66efc2d923ff9956",
        "censor": "cfab9fd2c97bf618",
        "w1": "84a9d131471e0d60",
        "w2": "cb4be777375afd4e",
        "wsim": "b7470fd27b67e79f",
    },
    "cpe-fixed-time": {
        "tau1": "ea51b14b164f6785",
        "tau2": "0d51de4dfdf90212",
        "tsim": "f72df7774fc5bde6",
        "censor": "afa4049b6f276076",
        "w1": "fd975edbfd7152f1",
        "w2": "7c334129a7e10653",
        "wsim": "35d71728ae311db7",
    },
    "cpe-lower-cone": {
        "tau1": "dc671bc0c81d4d38",
        "tau2": "b6ce2bc542869fd2",
        "tsim": "dc671bc0c81d4d38",
        "censor": "84b1e93ab795ba36",
        "w1": "83d689c55f3aa600",
        "w2": "d358fc1f5f7a75b8",
        "wsim": "83d689c55f3aa600",
    },
    "cpe-origin": {
        "tau1": "3df3ae3fd949fa4f",
        "tau2": "2e71db3875690764",
        "tsim": "3df3ae3fd949fa4f",
        "censor": "7d432f1b95dfa96e",
        "w1": "64cc72b0abab3419",
        "w2": "633e80fa9a6e3b7b",
        "wsim": "64cc72b0abab3419",
    },
    "cpe-partial-chunk": {
        "tau1": "e70101db63d99ed3",
        "tau2": "8a47ddf990755821",
        "tsim": "0223890070697c7a",
        "censor": "357ad0502f1dc584",
        "w1": "115cf9414fbf42dc",
        "w2": "0f54297aa852e2fb",
        "wsim": "458f5b121d968e85",
    },
    "cpe-tail-g1": {
        "tau1": "6d20550cc31979bc",
        "tau2": "89cf37114c2fd237",
        "tsim": "89cf37114c2fd237",
        "censor": "cfab9fd2c97bf618",
        "w1": "c34829ca2c65e1a5",
        "w2": "796b6d51c7d9a0cc",
        "wsim": "796b6d51c7d9a0cc",
    },
    "cpe-tail-g2": {
        "tau1": "3822c0448c5ba263",
        "tau2": "3f7a8ce486408dfe",
        "tsim": "16c289feac32a159",
        "censor": "823c9d10c82e0f53",
        "w1": "98e393b4caeaf063",
        "w2": "d44c0cb7b21c178c",
        "wsim": "f87646f97a311671",
    },
    "cpe-untilted-1-3": {
        "tau1": "da0d4ac70c3828b6",
        "tau2": "03dfbcea61926899",
        "tsim": "1a1f5af92514bc41",
        "censor": "c114135d41026172",
        "w1": "aadc1f451dd6cc42",
        "w2": "7b1a16472bfd900c",
        "wsim": "744a27c7bc517d9e",
    },
    "renewal-fixed-time": {
        "tau1": "19ce595f4a1dcbb1",
        "tau2": "3a64aaf5d138a0ad",
        "tsim": "19ce595f4a1dcbb1",
        "censor": "13d045bdd3d7a8f1",
        "w1": "bae0db85a62e0193",
        "w2": "53f63f05e7cdf36a",
        "wsim": "bae0db85a62e0193",
    },
    "renewal-tail-g1": {
        "tau1": "98bbfe6abcba164c",
        "tau2": "6acb9350eceb8509",
        "tsim": "6acb9350eceb8509",
        "censor": "cfab9fd2c97bf618",
        "w1": "52ca1fee9e8c07f9",
        "w2": "d452d7ade08a9da6",
        "wsim": "d452d7ade08a9da6",
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
