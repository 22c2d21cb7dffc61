from __future__ import annotations

import math

import numpy as np
import pytest

from vhfl_lab import netqueue as nq
from vhfl_lab.rng import substream

BENCH = nq.He2Params(lambda_n=2.0, alpha1=0.5, alpha2=0.5, mu1=8.0, mu2=2.0)


def pk_mean_sojourn(p: nq.He2Params) -> float:
    """Mean waiting (from the service moments) plus mean service."""
    return p.mean_service + p.lambda_n * p.second_moment_service / (2.0 * (1.0 - p.rho))


def transform(analysis: nq.QueueAnalysis, s: float) -> float:
    """Rational transform implied by the analysis, evaluated on the real axis."""
    p = analysis.params
    num = (1.0 - analysis.rho) * (analysis.mu12 * s + p.mu1 * p.mu2)
    return num / ((s - analysis.s1) * (s - analysis.s2))


def test_params_validation():
    with pytest.raises(ValueError):
        nq.He2Params(lambda_n=2.0, alpha1=0.6, alpha2=0.5, mu1=8.0, mu2=2.0)
    with pytest.raises(ValueError):
        nq.He2Params(lambda_n=2.0, alpha1=0.5, alpha2=0.5, mu1=2.0, mu2=8.0)
    with pytest.raises(ValueError):
        nq.He2Params(lambda_n=0.0, alpha1=0.5, alpha2=0.5, mu1=8.0, mu2=2.0)
    # unstable: rho >= 1 is rejected with a diagnostic
    with pytest.raises(ValueError, match="unstable"):
        nq.He2Params(lambda_n=4.0, alpha1=0.5, alpha2=0.5, mu1=8.0, mu2=2.0)


def test_analyze_benchmark_parameters():
    a = nq.analyze(BENCH)
    assert abs(a.rho - 0.625) < 1e-15
    assert abs(a.mu12 - 5.0) < 1e-15
    # hand-evaluated quadratic roots
    disc = 8.0**2 + 2.0**2 + 2.0**2 - 2 * 8 * 2 + 2 * 2 * 8 + 2 * 2 * 2 - 4 * 5 * 2
    expected_s1 = 0.5 * ((2.0 - 8.0 - 2.0) + math.sqrt(disc))
    expected_s2 = 0.5 * ((2.0 - 8.0 - 2.0) - math.sqrt(disc))
    assert abs(a.s1 - expected_s1) < 1e-12
    assert abs(a.s2 - expected_s2) < 1e-12
    assert abs(a.s1 - (-0.8377)) < 5e-5
    assert abs(a.s2 - (-7.1623)) < 5e-5


def test_alpha1_one_reduces_to_mm1_transform():
    p = nq.He2Params(lambda_n=2.0, alpha1=1.0, alpha2=0.0, mu1=8.0, mu2=2.0)
    a = nq.analyze(p)
    for s in np.linspace(0.0, 10.0, 33):
        b = p.mu1 / (s + p.mu1)
        mm1 = (1.0 - a.rho) * s / (s - p.lambda_n + p.lambda_n * b) * b if s > 0 else 1.0
        assert abs(transform(a, s) - mm1) < 1e-9
    # the mass-carrying root is -(mu1 - lambda)
    w_expected = [(p.mu1 - p.lambda_n) * math.exp(-(p.mu1 - p.lambda_n) * t) for t in (0.0, 0.3, 1.0)]
    w_actual = [nq.sojourn_pdf(a, t) for t in (0.0, 0.3, 1.0)]
    assert np.allclose(w_actual, w_expected, rtol=1e-9)


def test_roots_negative_for_random_stable_params():
    rng = substream(0, "roots")
    checked = 0
    while checked < 100:
        mu2 = float(rng.uniform(0.5, 5.0))
        mu1 = mu2 + float(rng.uniform(0.0, 10.0))
        alpha1 = float(rng.uniform(0.0, 1.0))
        lam = float(rng.uniform(0.05, 3.0))
        p_try = dict(lambda_n=lam, alpha1=alpha1, alpha2=1.0 - alpha1, mu1=mu1, mu2=mu2)
        rho = alpha1 * lam / mu1 + (1.0 - alpha1) * lam / mu2
        if rho >= 0.999:
            continue
        a = nq.analyze(nq.He2Params(**p_try))
        assert a.s2 < a.s1 < 0.0
        checked += 1


def test_sojourn_pdf_normalizes():
    for p in (BENCH, nq.He2Params(2.0, 0.25, 0.75, 8.0, 2.0), nq.He2Params(2.0, 0.75, 0.25, 8.0, 2.0)):
        a = nq.analyze(p)
        scale = (1.0 - a.rho) / (a.s1 - a.s2)
        coeff1 = scale * (a.mu12 * a.s1 + p.mu1 * p.mu2)
        coeff2 = scale * (a.mu12 * a.s2 + p.mu1 * p.mu2)
        integral = coeff1 / (-a.s1) - coeff2 / (-a.s2)
        assert abs(integral - 1.0) < 1e-9


def test_sojourn_pdf_nonnegative_on_grid():
    a = nq.analyze(BENCH)
    horizon = 20.0 * pk_mean_sojourn(BENCH)
    for t in np.linspace(0.0, horizon, 500):
        assert nq.sojourn_pdf(a, float(t)) >= 0.0
    with pytest.raises(ValueError):
        nq.sojourn_pdf(a, -0.1)


def test_sojourn_mean_matches_waiting_formula():
    a = nq.analyze(BENCH)
    scale = (1.0 - a.rho) / (a.s1 - a.s2)
    coeff1 = scale * (a.mu12 * a.s1 + BENCH.mu1 * BENCH.mu2)
    coeff2 = scale * (a.mu12 * a.s2 + BENCH.mu1 * BENCH.mu2)
    mean_from_pdf = coeff1 / a.s1**2 - coeff2 / a.s2**2
    expected = pk_mean_sojourn(BENCH)
    assert abs(expected - (0.3125 + 0.53125 / 0.75)) < 1e-12
    assert abs(mean_from_pdf - expected) < 1e-6
    assert abs(expected - 1.0208333333) < 1e-6


def test_success_rate_limits_and_benchmark_point():
    a = nq.analyze(BENCH)
    assert abs(nq.success_rate(a, 0.0)) < 1e-9
    assert nq.success_rate(a, 200.0) > 1.0 - 1e-12
    assert nq.success_rate(a, math.inf) == 1.0
    gamma = nq.success_rate(a, 1.0)
    assert abs(gamma - 0.6381) < 1e-4
    samples = nq.simulate_mg1(BENCH, 1_000_000, seed=6)
    assert abs(gamma - nq.empirical_gamma(samples, 1.0)) < 0.01


def test_success_rate_monotone():
    a = nq.analyze(BENCH)
    grid = np.linspace(0.0, 8.0, 60)
    values = [nq.success_rate(a, float(t)) for t in grid]
    assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))


def test_required_deadline_round_trips():
    a = nq.analyze(BENCH)
    for target in (0.5, 0.9, 0.99):
        t_p = nq.required_deadline(a, target, tol=1e-9)
        assert abs(nq.success_rate(a, t_p) - target) <= 1e-9


def test_required_deadline_monotone_and_superlinear():
    a = nq.analyze(BENCH)
    t90 = nq.required_deadline(a, 0.9)
    t99 = nq.required_deadline(a, 0.99)
    assert t90 < t99
    assert t99 / t90 > 0.99 / 0.9


def test_required_deadline_rejects_unreachable_targets():
    a = nq.analyze(BENCH)
    for bad in (0.0, 1.0, 1.5, -0.3):
        with pytest.raises(ValueError):
            nq.required_deadline(a, bad)


def test_more_congestion_needs_larger_deadline():
    for gamma in (0.5, 0.8, 0.95):
        previous = None
        for alpha1 in (0.75, 0.5, 0.25):
            a = nq.analyze(nq.He2Params(2.0, alpha1, 1.0 - alpha1, 8.0, 2.0))
            t_p = nq.required_deadline(a, gamma)
            if previous is not None:
                assert t_p >= previous
            previous = t_p


def test_simulation_mean_sojourn():
    samples = nq.simulate_mg1(BENCH, 1_000_000, seed=6)
    assert abs(float(samples.mean()) - 1.0208333333) < 0.02


def test_simulation_matches_formula_on_grid():
    a = nq.analyze(BENCH)
    samples = nq.simulate_mg1(BENCH, 1_000_000, seed=6)
    for t_p in np.linspace(0.1, 4.0, 20):
        gap = abs(nq.success_rate(a, float(t_p)) - nq.empirical_gamma(samples, float(t_p)))
        assert gap <= 0.01


def test_equal_rates_degenerate_to_mm1_by_ks():
    p = nq.He2Params(lambda_n=2.0, alpha1=0.5, alpha2=0.5, mu1=3.0, mu2=3.0)
    samples = np.sort(nq.simulate_mg1(p, 1_000_000, seed=2))
    n = samples.size
    cdf = 1.0 - np.exp(-(p.mu1 - p.lambda_n) * samples)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    ks = max(float(np.max(np.abs(upper - cdf))), float(np.max(np.abs(lower - cdf))))
    assert ks < 0.01


def test_simulation_determinism():
    a = nq.simulate_mg1(BENCH, 20_000, seed=5)
    b = nq.simulate_mg1(BENCH, 20_000, seed=5)
    assert np.array_equal(a, b)
    c = nq.simulate_mg1(BENCH, 20_000, seed=6)
    assert not np.array_equal(a, c)


def test_empirical_gamma_edges():
    samples = np.array([0.5, 1.0, 2.0, 4.0])
    assert nq.empirical_gamma(samples, 0.0) == 0.0
    assert nq.empirical_gamma(samples, math.inf) == 1.0
    assert nq.empirical_gamma(samples, 1.0) == 0.5


def test_sample_sojourn_matches_distribution():
    a = nq.analyze(BENCH)
    rng = substream(3, "ar")
    samples = nq.sample_sojourn(a, rng, 400_000)
    assert abs(float(samples.mean()) - pk_mean_sojourn(BENCH)) < 0.01
    for t_p in (0.5, 1.0, 2.0):
        assert abs(float(np.mean(samples <= t_p)) - nq.success_rate(a, t_p)) < 0.005


def test_apply_channel_edges_and_mean_count():
    none = nq.ChannelModel(**vars(BENCH), t_p=0.0, seed=1)
    assert nq.apply_channel(none, list(range(10)), epoch=0) == []
    everything = nq.ChannelModel(**vars(BENCH), t_p=math.inf, seed=1)
    assert nq.apply_channel(everything, list(range(10)), epoch=0) == list(range(10))

    a = nq.analyze(BENCH)
    t_p = nq.required_deadline(a, 0.7, tol=1e-9)
    channel = nq.ChannelModel(**vars(BENCH), t_p=t_p, seed=9)
    counts = [len(nq.apply_channel(channel, list(range(10)), epoch=e)) for e in range(4000)]
    assert abs(float(np.mean(counts)) - 7.0) < 0.1


def test_apply_channel_deterministic_and_order_independent():
    channel = nq.ChannelModel(**vars(BENCH), t_p=1.0, seed=4)
    first = nq.apply_channel(channel, [3, 1, 4, 1 + 1, 5], epoch=7)
    second = nq.apply_channel(channel, [5, 2, 4, 1, 3], epoch=7)
    assert sorted(first) == sorted(second)
    assert first == nq.apply_channel(channel, [3, 1, 4, 2, 5], epoch=7)


def test_analysis_purity():
    a1 = nq.analyze(BENCH)
    a2 = nq.analyze(BENCH)
    assert (a1.rho, a1.mu12, a1.s1, a1.s2) == (a2.rho, a2.mu12, a2.s1, a2.s2)
    assert nq.success_rate(a1, 1.234) == nq.success_rate(a2, 1.234)
    assert nq.sojourn_pdf(a1, 0.777) == nq.sojourn_pdf(a2, 0.777)
