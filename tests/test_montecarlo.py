"""Simulation engine tests.

Every stochastic assertion here runs at a frozen seed, so the observed
z-scores are deterministic; bands are set at 3.5 sigma against exact or
closed-form oracles.  The heavy n=10^6 comparisons live in the
acceptance suite; these runs are sized to keep the file under a minute.
"""

import math

import numpy as np
import pytest

from ruin2d.errors import (
    ConfigError,
    InsufficientConditionedSamples,
    InternalInconsistency,
    InvalidHorizon,
    OutOfDomain,
    OutOfRange,
    UnsupportedDriver,
)
from ruin2d.finite_time import finite_ruin
from ruin2d.models import (
    CompoundPoissonExp,
    LineModel,
    Renewal,
    StandardBrownian,
    TwoLineModel,
    adjustment,
    deterministic_dist,
    exponential_dist,
)
from ruin2d.montecarlo import (
    FixedTime,
    PathRecord,
    SafeLevel,
    SimConfig,
    _chunk_rng,
    _Events,
    _run_chunks,
    _truncated_std_normal,
    check_limits,
    default_safe_level,
    estimate,
    simulate,
)
from ruin2d.twodim import _EVENTS, RuinQuery, exact

CPE = TwoLineModel(CompoundPoissonExp(1.0, 2.0), 3.0, 1.0)
BM = TwoLineModel(StandardBrownian(), 3.0, 1.0)
RW = TwoLineModel(Renewal(deterministic_dist(1.0), exponential_dist(2.0)), 3.0, 1.0)

# ladder constants for the renewal pair: psi_i(x) = (1 - gamma_i/mu) e^{-gamma_i x}
RW_GAMMA1 = 1.9949670754675315
RW_GAMMA2 = 1.59362426004004


def cfg(n, seed, horizon=None, **kw):
    return SimConfig(n=n, seed=seed, horizon=horizon or SafeLevel(30.0), **kw)


def unit_weights(r):
    """An untilted record's weights: 1 for each event that happened."""
    epochs = {"OR": r.tau_or, "SIM": r.tau_sim, "AND": max(r.tau1, r.tau2),
              "LINE1": r.tau1, "LINE2": r.tau2}
    return {e: float(math.isfinite(epochs[e])) for e in _EVENTS}


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError, match="replication count"):
            SimConfig(n=0, seed=1, horizon=SafeLevel(30.0))
        with pytest.raises(ConfigError, match="workers and chunk_size"):
            SimConfig(n=10, seed=1, horizon=SafeLevel(30.0), workers=0)
        with pytest.raises(ConfigError, match="ci_level"):
            SimConfig(n=10, seed=1, horizon=SafeLevel(30.0), ci_level=1.2)
        with pytest.raises(InvalidHorizon, match="must be positive"):
            FixedTime(-1.0)
        with pytest.raises(InvalidHorizon, match="must be positive"):
            SafeLevel(0.0)

    def test_default_safe_level(self):
        for model, lo_gamma in ((CPE, 1.0), (BM, 2.0), (RW, RW_GAMMA2)):
            sl = default_safe_level(model)
            assert isinstance(sl, SafeLevel)
            assert sl.L == pytest.approx(30.0 / lo_gamma, rel=1e-12)


class TestRecords:
    def test_invariants(self):
        config = cfg(4000, 13)
        records = list(simulate(CPE, 1.0, 3.0, config))
        assert len(records) == 4000
        sim_ruined = 0
        for r in records:
            assert r.tau_or == min(r.tau1, r.tau2)
            if math.isfinite(r.tau_sim):
                assert r.tau_sim + 1e-12 >= max(r.tau1, r.tau2)
                sim_ruined += 1
            assert r.censor_reason in (None, "safe_level")
            assert r.weights == unit_weights(r)  # untilted runs carry unit weights
        assert sim_ruined > 0
        assert records[-1] in set(records)  # records hash, their weights aside

    def test_estimate_matches_record_average(self):
        # untilted, the estimator is a plain indicator mean over the
        # same substreams simulate() exposes
        config = cfg(4000, 13)
        for model in (CPE, BM):
            records = list(simulate(model, 1.0, 3.0, config))
            frac = np.mean([math.isfinite(r.tau_or) for r in records])
            est = estimate(model, 1.0, 3.0, "OR", config)
            assert est.p_hat == frac
            assert est.n == 4000

    def test_clean_horizon_censors_everything(self):
        # claim rate ~0: nothing can ruin inside a unit horizon
        quiet = TwoLineModel(CompoundPoissonExp(1e-9, 2.0), 3.0, 1.0)
        records = list(simulate(quiet, 1.0, 3.0, cfg(60, 1, FixedTime(1.0))))
        assert all(r.censor_reason == "fixed_time" for r in records)
        assert all(math.isinf(r.tau_or) for r in records)
        assert all(r.weights == unit_weights(r) for r in records)

    def test_first_claim_sinks_both_lines(self):
        # mean claim 5 against reserves 0.01: the opening claim almost
        # surely ruins both lines in the same instant
        heavy = TwoLineModel(CompoundPoissonExp(5.0, 0.2), 3.0, 1.0)
        records = list(simulate(heavy, 0.01, 0.01, cfg(300, 4, SafeLevel(1.0))))
        simo = [r for r in records if math.isfinite(r.tau_sim) and r.tau1 == r.tau2 == r.tau_sim]
        assert len(simo) > len(records) // 2

    def test_sim_before_a_ruin_is_refused(self):
        # lane 1 sees both ruins and SIM at once and stops, a record the
        # check passes; lane 0 then sees SIM and line 2's ruin without line
        # 1's, which a jump engine cannot sight and the check refuses
        ev = _Events(2)
        hits = np.zeros((5, 1, 2), dtype=bool)
        hits[:3, 0, 1] = True
        ev.step(hits, np.full((1, 2), 0.5), np.zeros((1, 2)), 1)
        ev.check_sim()
        hits[1:3, 0, 0] = True
        ev.step(hits, np.full((1, 2), 1.0), np.zeros((1, 2)), 2)
        assert ev.tau[:, 0].tolist() == [math.inf, 1.0, 1.0]
        with pytest.raises(InternalInconsistency, match="SIM recorded before"):
            ev.check_sim()

    def test_negative_weight_is_refused(self):
        weights = dict.fromkeys(_EVENTS, 0.0)
        PathRecord(math.inf, math.inf, math.inf, math.inf, None, weights)
        with pytest.raises(InternalInconsistency, match="negative likelihood weight"):
            PathRecord(math.inf, math.inf, math.inf, math.inf, None, {**weights, "AND": -1e-300})

    def test_weights_are_read_only(self):
        # a weight written after the record is made would skip the refusal
        # above and part two equal records
        weights = dict.fromkeys(_EVENTS, 0.0)
        r = PathRecord(math.inf, math.inf, math.inf, math.inf, None, weights)
        with pytest.raises(TypeError):
            r.weights["OR"] = -1.0
        weights["OR"] = -1.0  # the record holds a copy
        assert r.weights["OR"] == 0.0
        assert r == PathRecord(math.inf, math.inf, math.inf, math.inf, None,
                               dict.fromkeys(_EVENTS, 0.0))

    @pytest.mark.parametrize("model", [CPE, BM, RW], ids=["cpe", "bm", "renewal"])
    @pytest.mark.parametrize("tilt,fixed", [(None, False), (-0.5, False), (-0.5, True)],
                             ids=["untilted", "tilted", "tilted-fixed-time"])
    def test_records_reassemble_every_estimate(self, model, tilt, fixed):
        # each record's weights are the values estimate averages, so their
        # chunk sums, added in chunk order, give its p_hat bit for bit
        horizon = FixedTime(5.0) if fixed else default_safe_level(model)
        config = SimConfig(n=5000, seed=17, horizon=horizon, tilt=tilt, chunk_size=1024)
        records = list(simulate(model, 1.0, 3.0, config))
        ests = estimate(model, 1.0, 3.0, _EVENTS, config)
        for e in _EVENTS:
            total = 0.0
            for k in range(0, config.n, config.chunk_size):
                chunk = records[k:k + config.chunk_size]
                total += float(np.array([r.weights[e] for r in chunk]).sum())
            assert total / config.n == ests[e].p_hat, e


class TestExactBrownian:
    """The untilted Brownian engine draws each crossing and its epoch
    exactly, so its frequencies and epoch laws match the closed forms at
    any n; 983040 paths per geometry (120 chunks)."""

    N = 983_040
    GEOMETRIES = [(1.0, 3.0), (0.5, 1.0), (0.2, 2.0), (2.0, 1.0), (0.0, 0.5)]

    @staticmethod
    def _z(hits, target):
        if target == 1.0:  # a reserve of 0 is ruined at once
            return 0.0 if hits.all() else math.inf
        return (hits.mean() - target) / math.sqrt(target * (1.0 - target) / hits.size)

    @pytest.mark.parametrize("x1,x2", GEOMETRIES)
    def test_events_and_epoch_laws(self, x1, x2, monkeypatch):
        checks = []
        real = _Events.check_sim
        monkeypatch.setattr(_Events, "check_sim", lambda ev: checks.append(real(ev)))
        config = SimConfig(n=self.N, seed=23, horizon=default_safe_level(BM))
        res = list(_run_chunks(BM, x1, x2, config))
        assert len(checks) == len(res) == 120  # no SIM before a ruin, chunk by chunk
        t1, t2, ts = (np.concatenate([r[k] for r in res]) for k in ("tau1", "tau2", "tsim"))
        assert not (ts < np.maximum(t1, t2)).any()
        assert not np.concatenate([r["censor"] for r in res]).any()  # SafeLevel cuts nothing
        for event, hits in (("OR", np.minimum(t1, t2)), ("SIM", ts), ("AND", np.maximum(t1, t2))):
            z = self._z(np.isfinite(hits), exact(BM, RuinQuery(event, x1, x2)).value)
            assert abs(z) <= 4.0, f"{event}: z={z:+.2f}"
        T = max(x2 - x1, 0.0) / (BM.p1 - BM.p2)
        for t in sorted({T / 2, T, 2 * T + 0.5, 5.0} - {0.0}):
            for line, x, tau in ((BM.line1, x1, t1), (BM.line2, x2, t2)):
                z = self._z(tau <= t, finite_ruin(line, x, t).value)
                assert abs(z) <= 4.0, f"P(tau <= {t:g}) from x={x:g}: z={z:+.2f}"

    def test_fixed_time_truncates_the_same_paths(self):
        t = 2.0
        safe = list(simulate(BM, 0.5, 1.0, cfg(20_000, 29, SafeLevel(15.0))))
        fixed = list(simulate(BM, 0.5, 1.0, cfg(20_000, 29, FixedTime(t))))
        assert all(r.censor_reason is None for r in safe)
        for a, b in zip(safe, fixed):
            for name in ("tau1", "tau2", "tau_or", "tau_sim"):
                want = getattr(a, name)
                assert getattr(b, name) == (want if want <= t else math.inf)
            # a lane without SIM by t could still show it later
            assert b.censor_reason == (None if b.tau_sim <= t else "fixed_time")
        assert {b.censor_reason for b in fixed} == {None, "fixed_time"}


class TestTiltedExactBrownian:
    """A tilted Brownian ``estimate`` runs the exact engine at premiums
    p_i + c and weighs each event at its exact epoch, where the claim
    level is the barrier's; bands at 4 sigma."""

    G1, G2 = adjustment(BM).gamma1, adjustment(BM).gamma2
    N = 983_040

    def test_zero_tilt_is_the_untilted_stream(self):
        plain = cfg(20_000, 5, default_safe_level(BM))
        zero = cfg(20_000, 5, default_safe_level(BM), tilt=0.0)
        assert estimate(BM, 1.0, 3.0, _EVENTS, zero) == estimate(BM, 1.0, 3.0, _EVENTS, plain)
        assert (list(simulate(BM, 1.0, 3.0, cfg(2_000, 5, default_safe_level(BM), tilt=0.0)))
                == list(simulate(BM, 1.0, 3.0, cfg(2_000, 5, default_safe_level(BM)))))

    @pytest.mark.parametrize("line", [1, 2])
    def test_weights_take_the_closed_form(self, line):
        # at c = -gamma_i the weight at line i's ruin is exp(-gamma_i x_i)
        # whatever the epoch, and the line drifts down, so it always ruins
        x1, x2 = 2.0, 4.0
        gamma, x = (self.G1, x1) if line == 1 else (self.G2, x2)
        config = cfg(16_384, 13, default_safe_level(BM), tilt=-gamma)
        for res in _run_chunks(BM, x1, x2, config):
            assert np.isfinite(res[f"tau{line}"]).all()
            np.testing.assert_allclose(res[f"LINE{line}"], math.exp(-gamma * x), rtol=1e-12, atol=0.0)

    def test_fixed_time_line2_against_finite_ruin(self):
        x2, t = 3.0, 5.0
        est = estimate(BM, 1.0, x2, "LINE2", cfg(50_000, 19, FixedTime(t), tilt=-0.75 * self.G2))
        target = finite_ruin(BM.line2, x2, t).value
        assert abs(est.p_hat - target) <= 4.0 * est.std_err

    @pytest.mark.parametrize("x1,x2,which,event", [
        (2.0, 4.0, "g2", "OR"), (2.0, 4.0, "g2", "SIM"), (2.0, 4.0, "g2", "AND"),
        (2.0, 4.0, "g1", "SIM"), (4.0, 8.0, "g1", "SIM"),
    ])
    def test_large_n_against_exact(self, x1, x2, which, event):
        c = -self.G1 if which == "g1" else -0.75 * self.G2
        est = estimate(BM, x1, x2, event, cfg(self.N, 31, default_safe_level(BM), tilt=c))
        z = (est.p_hat - exact(BM, RuinQuery(event, x1, x2)).value) / est.std_err
        assert abs(z) <= 4.0, f"{event} at ({x1:g}, {x2:g}), c={c:g}: z={z:+.2f}"


class TestReproducibility:
    CASES = [
        ("cpe-safe", CPE, dict(horizon=SafeLevel(30.0))),
        ("cpe-tilt", CPE, dict(horizon=FixedTime(25.0), tilt=-1.0)),
        ("bm-safe", BM, dict(horizon=SafeLevel(15.0))),
        ("rw-tilt", RW, dict(horizon=SafeLevel(25.0), tilt=-1.8)),
    ]

    @pytest.mark.parametrize("name,model,kw", CASES, ids=[c[0] for c in CASES])
    def test_worker_count_is_invisible(self, name, model, kw):
        runs = [
            estimate(model, 1.0, 3.0, "OR", SimConfig(n=20_000, seed=5, workers=w, **kw))
            for w in (1, 4, 16)
        ]
        assert runs[0].p_hat == runs[1].p_hat == runs[2].p_hat
        assert runs[0].std_err == runs[1].std_err == runs[2].std_err

    def test_seed_matters(self):
        a = estimate(CPE, 1.0, 3.0, "OR", cfg(20_000, 5))
        b = estimate(CPE, 1.0, 3.0, "OR", cfg(20_000, 6))
        assert a.p_hat != b.p_hat


class TestAgainstExact:
    @pytest.mark.parametrize("event", ["OR", "SIM", "AND", "LINE1", "LINE2"])
    @pytest.mark.parametrize("model,n", [(CPE, 100_000), (BM, 50_000)], ids=["cpe", "bm"])
    def test_plain_estimate(self, model, n, event):
        target = exact(model, RuinQuery(event, 1.0, 3.0)).value
        est = estimate(model, 1.0, 3.0, event, SimConfig(n=n, seed=11, horizon=default_safe_level(model)))
        assert abs(est.p_hat - target) <= 3.5 * est.std_err
        assert est.ci[0] <= est.p_hat <= est.ci[1]

    @pytest.mark.parametrize("x1,x2,horizon", [(3.0, 1.0, None), (1.0, 3.0, SafeLevel(60.0))],
                             ids=["line2_first", "line1_first"])
    def test_tilted_brownian_resolves_on_the_slower_line(self, x1, x2, horizon):
        # under tilt -0.75 the lines drift at 2.25 and 0.25: the chunk's
        # time budget must follow the slower one
        target = exact(BM, RuinQuery("OR", x1, x2)).value
        config = SimConfig(n=8192, seed=11, horizon=horizon or default_safe_level(BM), tilt=-0.75)
        est = estimate(BM, x1, x2, "OR", config)
        assert abs(est.p_hat - target) <= 3.5 * est.std_err

    def test_ci_level_widens_interval(self):
        narrow = estimate(CPE, 1.0, 3.0, "OR", cfg(20_000, 5, ci_level=0.90))
        wide = estimate(CPE, 1.0, 3.0, "OR", cfg(20_000, 5, ci_level=0.99))
        assert wide.ci[1] - wide.ci[0] > narrow.ci[1] - narrow.ci[0]
        assert narrow.p_hat == wide.p_hat


class TestImportanceSampling:
    def test_finite_time_weights_are_unbiased(self):
        # single line lambda=1, mu=2, p=1 carried on line 2 of a pair;
        # P(tau <= 5) from x=5 against the spectral integral
        single = TwoLineModel(CompoundPoissonExp(1.0, 2.0), 2.0, 1.0)
        target = finite_ruin(LineModel(CompoundPoissonExp(1.0, 2.0), 1.0), 5.0, 5.0).value
        errs = {}
        for tilt in (None, -1.0):
            config = SimConfig(n=30_000, seed=3, horizon=FixedTime(5.0), tilt=tilt)
            vals = np.fromiter(
                (r.weights["LINE2"] for r in simulate(single, 5.0, 5.0, config)),
                dtype=float,
            )
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            assert abs(vals.mean() - target) <= 3.5 * se
            errs[tilt] = se
        # exponential twisting pays for itself by a wide margin here
        assert errs[-1.0] < errs[None] / 3.0

    def test_ultimate_variance_reduction(self):
        target = 0.5 * math.exp(-6.0)  # C2 e^{-gamma2 x}
        plain = estimate(CPE, 6.0, 6.0, "LINE2", cfg(30_000, 9, SafeLevel(40.0)))
        tilted = estimate(CPE, 6.0, 6.0, "LINE2", cfg(30_000, 9, SafeLevel(40.0), tilt=-1.0))
        for est in (plain, tilted):
            assert abs(est.p_hat - target) <= 3.5 * est.std_err
        assert tilted.std_err < plain.std_err / 10.0

    def test_renewal_ladder_value(self):
        # det(1) interarrivals, Exp(2) claims: psi_2(x) = (1 - g2/2) e^{-g2 x}
        target = (1.0 - RW_GAMMA2 / 2.0) * math.exp(-RW_GAMMA2 * 2.0)
        est = estimate(RW, 1.0, 2.0, "LINE2", cfg(40_000, 21, tilt=-1.8))
        assert abs(est.p_hat - target) <= 3.5 * est.std_err

    def test_strong_tilt_or_respects_sandwich(self):
        # at tilt -gamma_1 the line-1-only contribution dominates the
        # weight bookkeeping; a stale weight deflates OR by an order of
        # magnitude, so the single-line sandwich is a sharp regression net
        psi1 = (1.0 - RW_GAMMA1 / 2.0) * math.exp(-RW_GAMMA1 * 3.5)
        psi2 = (1.0 - RW_GAMMA2 / 2.0) * math.exp(-RW_GAMMA2 * 7.0)
        est = estimate(RW, 3.5, 7.0, "OR", cfg(60_000, 33, tilt=-RW_GAMMA1))
        assert est.p_hat >= 0.5 * max(psi1, psi2)
        assert est.p_hat <= 1.5 * (psi1 + psi2)


class TestSafeLevelBias:
    def test_raising_the_level_moves_less_than_the_bound(self):
        lo = estimate(CPE, 1.0, 3.0, "OR", cfg(50_000, 2, SafeLevel(20.0)))
        hi = estimate(CPE, 1.0, 3.0, "OR", cfg(50_000, 2, SafeLevel(40.0)))
        assert abs(lo.p_hat - hi.p_hat) <= lo.bias_bound + hi.bias_bound + 1e-15
        assert 0.0 < hi.bias_bound < lo.bias_bound

    def test_fixed_time_reports_nan_bound(self):
        est = estimate(CPE, 1.0, 3.0, "OR", cfg(5_000, 5, FixedTime(25.0), tilt=-1.0))
        assert math.isnan(est.bias_bound)

    # repr of bias_bound for OR, SIM, AND, LINE1, LINE2 at (1, 3), n = 64
    BOUNDS = {
        "cpe": ("9.357622988127674e-14",) * 3 + ("1.9287498479639178e-22",
                                                  "9.357622968840175e-14"),
        "bm": ("9.357622968840175e-14",) * 3 + ("8.194012623990515e-40",
                                                 "9.357622968840175e-14"),
        "renewal": ("9.362520161974887e-14",) * 3 + ("4.897193134746452e-17",
                                                      "9.357622968840141e-14"),
        "fixed_time_tilted": ("nan",) * 5,
    }

    @pytest.mark.parametrize("name", sorted(BOUNDS))
    def test_bias_bounds_are_pinned(self, name):
        model = {"cpe": CPE, "bm": BM, "renewal": RW}.get(name, CPE)
        config = (cfg(64, 1, FixedTime(5.0), tilt=-1.0) if name == "fixed_time_tilted"
                  else cfg(64, 1, default_safe_level(model)))
        events = ("OR", "SIM", "AND", "LINE1", "LINE2")
        got = estimate(model, 1.0, 3.0, events, config)
        assert tuple(repr(got[e].bias_bound) for e in events) == self.BOUNDS[name]


class TestEstimateGuards:
    def test_fixed_time_without_tilt_is_refused(self):
        with pytest.raises(InvalidHorizon, match="truncates ultimate"):
            estimate(CPE, 1.0, 3.0, "OR", cfg(100, 1, FixedTime(5.0)))

    def test_safe_level_must_clear_reserves(self):
        with pytest.raises(InvalidHorizon, match="must exceed max"):
            estimate(CPE, 1.0, 3.0, "OR", cfg(100, 1, SafeLevel(2.0)))

    def test_zero_tilted_drift(self):
        # tilt -1.0 stalls line 2 of the renewal pair exactly
        with pytest.raises(InvalidHorizon, match="zero effective drift"):
            estimate(RW, 1.0, 2.0, "LINE2", cfg(100, 1, tilt=-1.0))

    def test_unknown_event(self):
        with pytest.raises(OutOfRange, match="unknown event"):
            estimate(CPE, 1.0, 3.0, "RUIN", cfg(100, 1))

    def test_negative_reserve(self):
        with pytest.raises(OutOfRange, match="reserves"):
            estimate(CPE, -1.0, 3.0, "OR", cfg(100, 1))

    def test_tilt_outside_claim_domain(self):
        with pytest.raises(OutOfDomain):
            estimate(CPE, 1.0, 3.0, "OR", cfg(100, 1, tilt=-2.5))


class TestCheckLimits:
    @pytest.mark.parametrize(
        "line",
        [LineModel(StandardBrownian(), -0.5), LineModel(CompoundPoissonExp(2.0, 2.0), 0.5)],
        ids=["bm", "cpe"],
    )
    def test_lln_ruin_time(self, line):
        report = check_limits(line, "lln_ruin_time", cfg(5_000, 7, SafeLevel(50.0)))
        assert report.passed
        assert report.details["target"] == pytest.approx(2.0)
        for key in ("x=50", "x=100"):
            cell = report.details[key]
            assert cell["n_ruined"] == 5_000  # ruin is certain under negative drift
            assert abs(cell["mean_ratio"] - 2.0) <= 0.2

    @pytest.mark.parametrize(
        "line,spec",
        [
            (LineModel(StandardBrownian(), 1.0), ("limit_law", 2.0, "ruin")),
            (LineModel(StandardBrownian(), -1.0), ("limit_law", 0.5, "survival")),
        ],
        ids=["ruin", "survival"],
    )
    def test_limit_law(self, line, spec):
        report = check_limits(line, spec, cfg(4_000, 7, SafeLevel(50.0)))
        assert report.passed
        assert report.details["ks"] < report.details["threshold"] == 0.05
        assert report.details["t"] == 200.0

    @pytest.mark.parametrize("alpha", [-1.0, 0.5, 2.5])
    def test_truncated_normal_by_rejection(self, alpha):
        # below alpha = 3 the sampler rejects plain normals; the mean of
        # N(0, 1) given Z > alpha is the inverse Mills ratio lam, and the
        # variance 1 + alpha lam - lam^2
        z = _truncated_std_normal(_chunk_rng(1, 0), 20_000, alpha)
        assert z.shape == (20_000,) and (z > alpha).all()
        lam = math.exp(-0.5 * alpha * alpha) / math.sqrt(2.0 * math.pi) \
            / (0.5 * math.erfc(alpha / math.sqrt(2.0)))
        se = math.sqrt((1.0 + alpha * lam - lam * lam) / z.size)
        assert abs(z.mean() - lam) <= 4.0 * se

    def test_refusals(self):
        ok = cfg(2_000, 1, SafeLevel(50.0))
        with pytest.raises(OutOfRange, match="negative-drift"):
            check_limits(LineModel(StandardBrownian(), 0.5), "lln_ruin_time", ok)
        with pytest.raises(InsufficientConditionedSamples):
            check_limits(LineModel(StandardBrownian(), -0.5), "lln_ruin_time", cfg(500, 1, SafeLevel(50.0)))
        with pytest.raises(UnsupportedDriver, match="Brownian driver only"):
            check_limits(LineModel(CompoundPoissonExp(1.0, 2.0), 1.0), ("limit_law", 2.0, "ruin"), ok)
        with pytest.raises(InsufficientConditionedSamples):
            check_limits(LineModel(StandardBrownian(), 1.0), ("limit_law", 2.0, "ruin"), cfg(500, 1, SafeLevel(50.0)))
        with pytest.raises(OutOfRange, match="unknown check"):
            check_limits(LineModel(StandardBrownian(), 1.0), "nope", ok)
        with pytest.raises(OutOfRange, match="unknown side 'bogus'"):
            check_limits(LineModel(StandardBrownian(), -1.0), ("limit_law", 0.5, "bogus"), ok)
