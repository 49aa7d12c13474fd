"""Acceptance suite: thirteen numbered criteria, one test and one
pass/fail line each.

Each test enforces its stated tolerance and its runtime budget; the
budgets are generous against the timings measured on a development box
(the whole file runs in under three minutes).  The heavy Monte Carlo
comparisons (n = 10^6) live here and nowhere else.

Criterion 7 asserts the simultaneous-ruin ratios and reports the
joint-ruin ratios informationally: on the tested rays the joint-ruin
leading constant is still far outside its asymptotic regime at K = 40
(the a = 0.9 ray sits 0.018 above the sector boundary, so the boundary
scale (a - s1) K is only ~0.7 there).  The reported numbers document
that gap rather than hiding it.
"""

import math
import random
import time

import numpy as np
import pytest

from ruin2d.cones import classify, exit_rate, partition
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
    renewal_adjustment,
)
from ruin2d.montecarlo import (
    FixedTime,
    SafeLevel,
    SimConfig,
    check_limits,
    default_safe_level,
    estimate,
    simulate,
)
from ruin2d.twodim import RuinQuery, exact, leading

CPE = TwoLineModel(CompoundPoissonExp(1.0, 2.0), 3.0, 1.0)
BM = TwoLineModel(StandardBrownian(), 3.0, 1.0)
RW = TwoLineModel(Renewal(deterministic_dist(1.0), exponential_dist(2.0)), 3.0, 1.0)


class _Budget:
    """Context manager enforcing a criterion's runtime budget."""

    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc == (None, None, None):
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.1f}s exceeds the {self.limit:g}s budget")
        return False


def _report(number, text):
    print(f"criterion {number:2d}: PASS  {text}")


def test_criterion_01_closed_form_constants():
    with _Budget(1.0) as b:
        adj = adjustment(CPE)
        for got, want in (
            (adj.gamma1, 5.0 / 3.0),
            (adj.gamma2, 1.0),
            (adj.gamma3, 4.0 / 3.0),
            (adj.gamma_tilde, 1.0 / 3.0),
            (adj.C1, 1.0 / 6.0),
            (adj.C2, 1.0 / 2.0),
            (adj.C2_hat, 1.0 / 3.0),
        ):
            assert got == pytest.approx(want, abs=1e-10)
        # root route: gamma3 solves kappa1(-s) = kappa1(-gamma2) above gamma2
        assert abs(CPE.line1.kappa(-adj.gamma3) - CPE.line1.kappa(-adj.gamma2)) < 1e-10
        assert adj.gamma3 > adj.gamma2
        # exponential-claim cross-check of the simultaneous-ruin prefactor
        assert adj.C2_hat == pytest.approx(CPE.p2 / CPE.p1, abs=1e-10)
    _report(1, f"constants match rationals to 1e-10 ({b.elapsed:.2f}s)")


def test_criterion_02_cone_slopes_two_routes():
    with _Budget(1.0) as b:
        # partition() computes the derivative-ratio route and raises unless
        # it agrees with the closed forms at 1e-10; asserting the rational
        # values here pins both routes at once
        for model, want in ((CPE, (15.0 / 17.0, 0.0, 3.0 / 7.0)),
                            (BM, (3.0 / 5.0, 0.0, 1.0 / 3.0))):
            part = partition(model)
            assert part.s1 == pytest.approx(want[0], abs=1e-10)
            assert part.s2 == pytest.approx(want[1], abs=1e-10)
            assert part.s3 == pytest.approx(want[2], abs=1e-10)
    _report(2, f"slopes (15/17, 0, 3/7) and (3/5, 0, 1/3) ({b.elapsed:.2f}s)")


def test_criterion_03_brownian_dual_route_grid():
    with _Budget(5.0) as b:
        worst = 0.0
        for i in range(5):
            for j in range(5):
                x1 = 0.25 + 0.55 * i
                x2 = x1 + 0.4 + 0.7 * j
                for ev in ("OR", "SIM", "AND"):
                    r = exact(BM, RuinQuery(ev, x1, x2))
                    worst = max(worst, abs(r.diagnostics["closed_form_delta"]))
        assert worst < 1e-8
    _report(3, f"conditioning vs reflection, worst delta {worst:.1e} ({b.elapsed:.2f}s)")


def test_criterion_04_middle_cone_constant_brackets():
    with _Budget(1.0) as b:
        # ray a = 1/2 at K = 10 has velocity w = 4
        r = leading(BM, 5.0, 10.0, "SIM")
        scale = math.sqrt(2.0 / math.pi)
        assert r.diagnostics["D_prime"] == pytest.approx(8.0 / 15.0 * scale, abs=1e-12)
        assert r.diagnostics["D_sharp"] == pytest.approx(8.0 / 9.0 * scale, abs=1e-12)
    _report(4, f"D' and D# brackets 8/15 and 8/9 to 1e-12 ({b.elapsed:.2f}s)")


def test_criterion_05_mc_vs_exact_million_paths():
    with _Budget(120.0) as b:
        zs = {}
        for model, name in ((CPE, "cpe"), (BM, "bm")):
            # one simulation of the million paths serves all three events
            ests = estimate(model, 1.0, 3.0, ("OR", "SIM", "AND"),
                            SimConfig(n=1_000_000, seed=101, workers=4,
                                      horizon=default_safe_level(model)))
            for ev, est in ests.items():
                target = exact(model, RuinQuery(ev, 1.0, 3.0)).value
                z = (est.p_hat - target) / est.std_err
                zs[f"{name}/{ev.lower()}"] = z
                assert abs(z) <= 3.0, f"{name} {ev}: z={z:+.2f}"
    worst = max(zs.values(), key=abs)
    _report(5, f"six events inside 3 sigma, worst z {worst:+.2f} ({b.elapsed:.1f}s)")


def test_criterion_06_finite_time_vs_event_driven_mc():
    with _Budget(60.0) as b:
        # single line with p=1 carried on line 2 of a pair: CPE lambda=1,
        # mu=2 (event-driven) and Brownian (exact passages)
        zs = []
        for driver in (CompoundPoissonExp(1.0, 2.0), StandardBrownian()):
            pair = TwoLineModel(driver, 2.0, 1.0)
            line = LineModel(driver, 1.0)
            for x, t in ((1.0, 2.0), (5.0, 5.0)):
                target = finite_ruin(line, x, t).value
                cfg = SimConfig(n=1_000_000, seed=31, horizon=FixedTime(t))
                hits = np.fromiter((r.tau2 <= t for r in simulate(pair, x, x, cfg)), dtype=float)
                se = hits.std(ddof=1) / math.sqrt(len(hits))
                z = (hits.mean() - target) / se
                zs.append(z)
                assert abs(z) <= 3.0, f"{driver} (x={x}, t={t}): z={z:+.2f}"
    _report(6, "(1,2) and (5,5) inside 3 sigma, z cpe "
            f"{zs[0]:+.2f} / {zs[1]:+.2f}, bm {zs[2]:+.2f} / {zs[3]:+.2f} ({b.elapsed:.1f}s)")


def test_criterion_07_leading_order_convergence_on_rays():
    with _Budget(30.0) as b:
        def ratio(ev, a, K):
            return (exact(CPE, RuinQuery(ev, a * K, K)).value
                    / leading(CPE, a * K, K, ev).value)

        sim_ratios = {}
        for a in (0.3, 0.5, 0.9):
            r10, r40 = ratio("SIM", a, 10.0), ratio("SIM", a, 40.0)
            sim_ratios[a] = r40
            assert abs(r40 - 1.0) <= 0.15, f"a={a}: exact/leading {r40:.4f}"
            assert abs(r40 - 1.0) < abs(r10 - 1.0), f"a={a}: not improving"
        and_note = ", ".join(
            f"a={a}: {ratio('AND', a, 10.0):.3f} -> {ratio('AND', a, 40.0):.3f}"
            for a in (0.3, 0.5, 0.9))
    _report(7, "sim ratios at K=40 "
            + ", ".join(f"{a}: {r:.4f}" for a, r in sim_ratios.items())
            + f" ({b.elapsed:.2f}s)")
    print(f"              joint-ruin ratios K=10 -> K=40 (informational): {and_note}")


def test_criterion_08_or_constant_sum():
    with _Budget(10.0) as b:
        adj = adjustment(CPE)
        worst = 0.0
        for a in (0.3, 0.6, 0.9):
            K = 40.0
            value = exact(CPE, RuinQuery("OR", a * K, K)).value
            predicted = (adj.C1 * math.exp(-adj.gamma1 * a * K)
                         + adj.C2 * math.exp(-adj.gamma2 * K))
            err = abs(value / predicted - 1.0)
            worst = max(worst, err)
            assert err <= 0.10, f"a={a}: ratio {value / predicted:.4f}"
    _report(8, f"constant-sum ratio within 10%, worst {worst:.1e} ({b.elapsed:.2f}s)")


def test_criterion_09_sim_rate_function():
    with _Budget(5.0) as b:
        worst = 0.0
        for a in (0.2, 0.5, 0.8):
            K = 40.0
            value = exact(BM, RuinQuery("SIM", a * K, K)).value
            empirical = -math.log(value) / K
            rate = exit_rate(BM, a)
            rel = abs(empirical - rate) / rate
            worst = max(worst, rel)
            assert rel <= 0.05, f"a={a}: {empirical:.4f} vs {rate:.4f}"
    _report(9, f"decay exponent within 5% of the exit rate, worst {worst:.2%} ({b.elapsed:.2f}s)")


def test_criterion_10_complementarity_and_sandwich():
    with _Budget(30.0) as b:
        rng = random.Random(12021)
        checked = 0
        while checked < 100:
            if rng.random() < 0.5:
                lam = rng.uniform(0.3, 3.0)
                mu = rng.uniform(0.5, 4.0)
                p2 = lam / mu * (1.0 + rng.uniform(0.08, 1.5))
                p1 = p2 * (1.0 + rng.uniform(0.08, 1.5))
                model = TwoLineModel(CompoundPoissonExp(lam, mu), p1, p2)
            else:
                p2 = rng.uniform(0.3, 2.0)
                model = TwoLineModel(StandardBrownian(), p2 * (1.0 + rng.uniform(0.08, 1.5)), p2)
            adj = adjustment(model)
            # stay off the measure-zero sector-closing boundary, where the
            # exact engine refuses the tilted integral
            if abs(model.line1.kappa_prime(-adj.gamma2)) <= 1e-6 * model.p1:
                continue
            x2 = rng.uniform(0.2, 6.0)
            x1 = rng.uniform(0.0, x2 * 0.999)
            res = {ev: exact(model, RuinQuery(ev, x1, x2))
                   for ev in ("OR", "SIM", "AND", "LINE1", "LINE2")}
            err = sum(r.diagnostics.get("quad_err", 0.0) for r in res.values())
            slack = 2.0 * err + 1e-11
            p = {ev: r.value for ev, r in res.items()}
            assert abs(p["LINE1"] + p["LINE2"] - p["OR"] - p["AND"]) <= slack
            assert p["SIM"] <= p["AND"] + slack
            assert p["AND"] <= min(p["LINE1"], p["LINE2"]) + slack
            assert max(p["LINE1"], p["LINE2"]) <= p["OR"] + slack
            assert p["OR"] <= p["LINE1"] + p["LINE2"] + slack
            checked += 1
    _report(10, f"identities hold on {checked} random models ({b.elapsed:.1f}s)")


def test_criterion_11_lln_and_limit_law_checks():
    with _Budget(300.0) as b:
        cfg = SimConfig(n=100_000, seed=7, horizon=SafeLevel(50.0))
        reports = {
            "lln/cpe": check_limits(LineModel(CompoundPoissonExp(2.0, 2.0), 0.5),
                                    "lln_ruin_time", cfg),
            "lln/bm": check_limits(LineModel(StandardBrownian(), -0.5),
                                   "lln_ruin_time", cfg),
            "law/ruin": check_limits(LineModel(StandardBrownian(), 1.0),
                                     ("limit_law", 2.0, "ruin"), cfg),
            "law/survival": check_limits(LineModel(StandardBrownian(), -1.0),
                                         ("limit_law", 0.5, "survival"), cfg),
        }
        for name, rep in reports.items():
            assert rep.passed, f"{name}: {rep.details}"
        ks = max(reports["law/ruin"].details["ks"], reports["law/survival"].details["ks"])
    _report(11, f"LLN within 10%, KS max {ks:.4f} < 0.05 at n=1e5 ({b.elapsed:.1f}s)")


def test_criterion_12_renewal_exponent_regression():
    with _Budget(180.0) as b:
        gamma1 = renewal_adjustment(RW.driver, RW.p1)
        gamma2 = renewal_adjustment(RW.driver, RW.p2)
        target = min(gamma2, 0.5 * gamma1)
        ks = np.array([12.0, 15.0, 18.0, 21.0])
        logs = []
        for K in ks:
            est = estimate(RW, 0.5 * K, K, "OR",
                           SimConfig(n=200_000, seed=71, horizon=SafeLevel(50.0), tilt=-gamma1))
            assert est.p_hat > 0.0
            logs.append(-math.log(est.p_hat))
        slope = float(np.polyfit(ks, logs, 1)[0])
        rel = abs(slope - target) / target
        assert rel <= 0.10, f"slope {slope:.4f} vs {target:.4f}"
    _report(12, f"regression slope {slope:.4f} vs min(g2, a*g1)={target:.4f}, "
            f"off by {rel:.2%} ({b.elapsed:.1f}s)")


def test_criterion_13_bit_identical_across_workers():
    results = {}
    for model, name in ((CPE, "cpe"), (BM, "bm")):
        horizon = default_safe_level(model)
        runs = [estimate(model, 1.0, 3.0, "OR",
                         SimConfig(n=100_000, seed=5, workers=w, horizon=horizon))
                for w in (1, 4, 16)]
        assert runs[0].p_hat == runs[1].p_hat == runs[2].p_hat
        assert runs[0].std_err == runs[1].std_err == runs[2].std_err
        results[name] = runs[0].p_hat
    _report(13, "workers 1/4/16 bit-identical, p_hat "
            + ", ".join(f"{k}={v:.6g}" for k, v in results.items()))
