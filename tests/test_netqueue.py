from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohorts import deliver
from vhfl_lab import netqueue as nq
from vhfl_lab.rng import seed_states, substream

BENCH = nq.He2Params(lambda_n=2.0, alpha1=0.5, alpha2=0.5, mu1=8.0, mu2=2.0)


def pk_mean_sojourn(p: nq.He2Params) -> float:
    """Mean waiting (Pollaczek-Khinchine, from the first two service moments
    m1, m2) plus mean service."""
    m1 = p.alpha1 / p.mu1 + p.alpha2 / p.mu2
    m2 = 2.0 * (p.alpha1 / p.mu1**2 + p.alpha2 / p.mu2**2)
    return m1 + p.lambda_n * m2 / (2.0 * (1.0 - p.rho))


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


def test_coinciding_roots_reduce_to_mm1():
    # with alpha1 = 1 and mu1 - mu2 = lambda_n the two roots coincide, and
    # a vanishing alpha2 puts them a rounding error apart
    for p in (
        nq.He2Params(lambda_n=0.5, alpha1=1.0, alpha2=0.0, mu1=1.0, mu2=0.5),
        nq.He2Params(lambda_n=0.14, alpha1=1.0 - 2.0**-53, alpha2=2.0**-53, mu1=4.696, mu2=4.556),
    ):
        a = nq.analyze(p)
        for t in (0.0, 0.5, 2.0):
            mm1 = 1.0 - math.exp(-(p.mu1 - p.lambda_n) * t)
            assert abs(nq.success_rate(a, t) - mm1) < 1e-6


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


# Exp(mu1) service (alpha2 = 0): the sojourn root lam - mu1 lies below -mu2,
# above it, or on it
MM1_POINTS = (
    nq.He2Params(lambda_n=2.0, alpha1=1.0, alpha2=0.0, mu1=8.0, mu2=2.0),
    nq.He2Params(lambda_n=0.5, alpha1=1.0, alpha2=0.0, mu1=1.0, mu2=0.8),
    nq.He2Params(lambda_n=0.5, alpha1=1.0, alpha2=0.0, mu1=1.0, mu2=0.5),
)


def test_sojourn_pdf_normalizes():
    he2 = (BENCH, nq.He2Params(2.0, 0.25, 0.75, 8.0, 2.0), nq.He2Params(2.0, 0.75, 0.25, 8.0, 2.0))
    for p in he2 + MM1_POINTS:
        a = nq.analyze(p)
        integral = a.a / (-a.s1) - a.b / (-a.s2)
        assert abs(integral - 1.0) < 1e-9


def test_sojourn_pdf_nonnegative_on_grid():
    a = nq.analyze(BENCH)
    horizon = 20.0 * pk_mean_sojourn(BENCH)
    grid = np.linspace(0.0, horizon, 500)
    for t in grid:
        assert nq.sojourn_pdf(a, float(t)) >= 0.0
    with pytest.raises(ValueError):
        nq.sojourn_pdf(a, -0.1)
    # on an array, elementwise
    pointwise = [a.a * math.exp(a.s1 * t) - a.b * math.exp(a.s2 * t) for t in grid]
    assert np.allclose(nq.sojourn_pdf(a, grid), pointwise, rtol=1e-14, atol=0.0)
    with pytest.raises(ValueError):
        nq.sojourn_pdf(a, np.array([0.0, -0.1]))


def test_sojourn_mean_matches_waiting_formula():
    expected = pk_mean_sojourn(BENCH)
    assert abs(expected - (0.3125 + 0.53125 / 0.75)) < 1e-12
    assert abs(expected - 1.0208333333) < 1e-6
    for p in (BENCH,) + MM1_POINTS:
        a = nq.analyze(p)
        mean_from_pdf = a.a / a.s1**2 - a.b / a.s2**2
        assert abs(mean_from_pdf - pk_mean_sojourn(p)) < 1e-6


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


def lindley_sojourns(params: nq.He2Params, n_jobs: int, seed: int) -> np.ndarray:
    """The sojourns of the first ``n_jobs`` jobs from the stream that
    ``simulate_mg1`` draws, by the recursion w_{n+1} = max(0, w_n + s_n - a_{n+1})."""
    rng = substream(seed, "mg1")
    arrivals = rng.exponential(1.0 / params.lambda_n, size=n_jobs)
    branch = rng.random(n_jobs) < params.alpha1
    service = rng.exponential(1.0, size=n_jobs) / np.where(branch, params.mu1, params.mu2)
    waits = [0.0]
    for k in range(1, n_jobs):
        waits.append(max(0.0, waits[-1] + service[k - 1] - arrivals[k]))
    return np.array(waits) + service


@pytest.mark.parametrize("n_jobs", [1, 2, 3])
def test_few_jobs_follow_the_lindley_recursion(n_jobs):
    # no warm-up is dropped below 100 jobs; the seeds give both signs of the
    # first increment, and with it both branches of the recursion
    for seed in range(20):
        samples = nq.simulate_mg1(BENCH, n_jobs, seed=seed)
        expected = lindley_sojourns(BENCH, n_jobs, seed)
        if n_jobs < 3:
            assert np.array_equal(samples, expected)
        else:  # the running minimum of prefix sums rounds apart from the recursion
            assert np.allclose(samples, expected, rtol=0.0, atol=1e-12)


def allocating_sojourns(params: nq.He2Params, n_jobs: int, seed: int) -> np.ndarray:
    """The allocating form of ``simulate_mg1``, one new array for each step:
    ``np.where`` rates and a concatenated prefix."""
    rng = substream(seed, "mg1")
    arrivals = rng.exponential(1.0 / params.lambda_n, size=n_jobs)
    branch = rng.random(n_jobs) < params.alpha1
    service = rng.exponential(1.0, size=n_jobs) / np.where(branch, params.mu1, params.mu2)
    prefix = np.concatenate(([0.0], np.cumsum(service[:-1] - arrivals[1:])))
    sojourn = prefix - np.minimum.accumulate(prefix) + service
    return sojourn[n_jobs // 100 :]


# three He2 points of the benchmark's queue_plan, Exp(mu1) service, and equal rates
SIMULATED_POINTS = (
    BENCH,
    nq.He2Params(lambda_n=2.5, alpha1=0.7, alpha2=0.3, mu1=10.0, mu2=2.5),
    nq.He2Params(lambda_n=4.0, alpha1=0.9, alpha2=0.1, mu1=16.0, mu2=4.0),
    nq.He2Params(lambda_n=2.0, alpha1=1.0, alpha2=0.0, mu1=8.0, mu2=2.0),
    nq.He2Params(lambda_n=2.0, alpha1=0.5, alpha2=0.5, mu1=3.0, mu2=3.0),
)


@pytest.mark.parametrize("n_jobs", [1, 2, 3, 99, 100, 101, 200_000])
@pytest.mark.parametrize("params", SIMULATED_POINTS)
def test_simulation_in_reused_buffers_matches_the_allocating_form(params, n_jobs):
    samples = nq.simulate_mg1(params, n_jobs, seed=11)
    assert samples.dtype == np.float64
    assert np.array_equal(samples, allocating_sojourns(params, n_jobs, seed=11))


def test_simulation_peak_memory_is_about_four_buffers_of_the_jobs():
    """Three float64 buffers, the branch mask and the indices ``np.take`` casts
    it to: about 4.1 arrays of float64 per job at the peak, against 6.0 for
    the allocating form; after the return only the sojourns stay allocated."""
    n_jobs = 200_000
    nq.simulate_mg1(BENCH, 1_000, seed=3)
    tracemalloc.start()
    try:
        samples = nq.simulate_mg1(BENCH, n_jobs, seed=3)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert samples.size == n_jobs - n_jobs // 100
    assert peak <= 4.5 * 8 * n_jobs
    assert 8 * n_jobs <= current < 1.01 * 8 * n_jobs


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
    # a Python float, which the queue tables write as a plain number
    assert type(nq.empirical_gamma(samples, 2.5)) is float


def test_sample_sojourn_matches_distribution():
    a = nq.analyze(BENCH)
    samples, _ = reference_sojourns(a, substream(3, "ar"), 400_000)
    assert abs(float(samples.mean()) - pk_mean_sojourn(BENCH)) < 0.01
    for t_p in (0.5, 1.0, 2.0):
        assert abs(float(np.mean(samples <= t_p)) - nq.success_rate(a, t_p)) < 0.005


def test_apply_channel_edges_and_mean_count():
    none = nq.ChannelModel(**vars(BENCH), t_p=0.0, seed=1)
    assert deliver(none, list(range(10)), 0) == []
    everything = nq.ChannelModel(**vars(BENCH), t_p=math.inf, seed=1)
    assert deliver(everything, list(range(10)), 0) == list(range(10))

    a = nq.analyze(BENCH)
    t_p = nq.required_deadline(a, 0.7, tol=1e-9)
    channel = nq.ChannelModel(**vars(BENCH), t_p=t_p, seed=9)
    counts = [len(deliver(channel, list(range(10)), e)) for e in range(4000)]
    assert abs(float(np.mean(counts)) - 7.0) < 0.1


def test_apply_channel_returns_one_decision_per_stream():
    keys = range(12)
    channel = nq.ChannelModel(**vars(BENCH), t_p=1.0, seed=4)
    states = seed_states([(4, "channel", 0, key) for key in keys])
    mask = nq.apply_channel(channel, states)
    assert mask.dtype == bool and mask.shape == (len(keys),)
    assert 0 < mask.sum() < len(keys)
    # decision i is stream i's one sojourn draw against the deadline
    analysis = nq.analyze(channel)
    alone = [nq.sample_sojourn(analysis, [substream(4, "channel", 0, key)])[0] <= 1.0 for key in keys]
    assert mask.tolist() == alone
    assert nq.apply_channel(channel, seed_states([])).shape == (0,)
    # every sojourn fits under an infinite deadline
    lossless = nq.ChannelModel(**vars(BENCH), t_p=math.inf, seed=4)
    mask = nq.apply_channel(lossless, states)
    assert mask.dtype == bool and mask.shape == (len(keys),) and mask.all()


def test_apply_channel_deterministic_and_order_independent():
    channel = nq.ChannelModel(**vars(BENCH), t_p=1.0, seed=4)
    first = deliver(channel, [3, 1, 4, 1 + 1, 5], 7)
    second = deliver(channel, [5, 2, 4, 1, 3], 7)
    assert sorted(first) == sorted(second)
    assert first == deliver(channel, [3, 1, 4, 2, 5], 7)


def test_channel_rejects_a_nan_deadline_and_keeps_infinity():
    with pytest.raises(ValueError, match="t_p must be non-negative, got nan"):
        nq.ChannelModel(**vars(BENCH), t_p=math.nan)
    assert nq.ChannelModel(**vars(BENCH), t_p=math.inf).t_p == math.inf


def test_success_rate_rejects_a_nan_deadline():
    a = nq.analyze(BENCH)
    with pytest.raises(ValueError, match="t_p must be non-negative, got nan"):
        nq.success_rate(a, math.nan)
    assert nq.success_rate(a, math.inf) == 1.0


def test_empirical_gamma_rejects_a_nan_deadline():
    with pytest.raises(ValueError, match="t_p must be non-negative, got nan"):
        nq.empirical_gamma(np.array([0.5, 1.0]), math.nan)
    assert nq.empirical_gamma(np.array([0.5, 1.0]), math.inf) == 1.0


def test_sojourn_pdf_rejects_nan():
    a = nq.analyze(BENCH)
    for t in (math.nan, np.array([0.5, math.nan])):
        with pytest.raises(ValueError, match="t must be non-negative"):
            nq.sojourn_pdf(a, t)
    assert nq.sojourn_pdf(a, math.inf) == 0.0


def test_params_reject_nan_state_probabilities():
    for alphas in ((math.nan, math.nan), (math.nan, 0.5), (0.5, math.nan)):
        with pytest.raises(ValueError, match="state probabilities must be non-negative"):
            nq.He2Params(2.0, *alphas, 8.0, 2.0)
    with pytest.raises(ValueError, match="state probabilities must be non-negative"):
        nq.ChannelModel(2.0, math.nan, math.nan, 8.0, 2.0, t_p=1.0)


def test_required_deadline_rejects_a_nan_tolerance():
    a = nq.analyze(BENCH)
    for tol in (math.nan, 0.0, -1e-6):
        with pytest.raises(ValueError, match="tol must be positive"):
            nq.required_deadline(a, 0.9, tol=tol)


def test_analysis_purity():
    a1 = nq.analyze(BENCH)
    a2 = nq.analyze(BENCH)
    assert (a1.rho, a1.mu12, a1.s1, a1.s2) == (a2.rho, a2.mu12, a2.s1, a2.s2)
    assert nq.success_rate(a1, 1.234) == nq.success_rate(a2, 1.234)
    assert nq.sojourn_pdf(a1, 0.777) == nq.sojourn_pdf(a2, 0.777)


@st.composite
def stable_he2(draw, max_rho: float = 0.95) -> nq.He2Params:
    """He2 parameters with mu1 >= mu2 and utilization in [0.05, max_rho]."""
    mu2 = draw(st.floats(0.5, 5.0))
    mu1 = mu2 + draw(st.floats(0.0, 10.0))
    alpha1 = draw(st.floats(0.0, 1.0))
    rho = draw(st.floats(0.05, max_rho))
    lambda_n = rho / (alpha1 / mu1 + (1.0 - alpha1) / mu2)
    return nq.He2Params(lambda_n, alpha1, 1.0 - alpha1, mu1, mu2)


@settings(deadline=None)
@given(stable_he2(), st.lists(st.floats(0.0, 50.0), min_size=2, max_size=2))
def test_success_rate_non_decreasing_and_one_at_infinity(params, deadlines):
    a = nq.analyze(params)
    early, late = sorted(deadlines)
    assert nq.success_rate(a, early) <= nq.success_rate(a, late)
    assert nq.success_rate(a, math.inf) == 1.0


@settings(deadline=None)
@given(stable_he2(), st.floats(0.01, 0.99), st.sampled_from((1e-3, 1e-6, 1e-9)))
def test_required_deadline_meets_its_target_within_tol(params, target, tol):
    a = nq.analyze(params)
    t_p = nq.required_deadline(a, target, tol)
    assert abs(nq.success_rate(a, t_p) - target) <= tol


@settings(max_examples=40, deadline=None, derandomize=True)
@given(stable_he2(max_rho=0.7), st.floats(0.1, 3.0))
def test_success_rate_matches_the_simulated_queue(params, scale):
    """gamma(t_p) from the transform agrees with the fraction of 200k simulated
    sojourns within t_p, for t_p from 0.1 to 3 mean sojourns. The bound 0.02
    is about 18 standard errors of 200k independent draws (0.5 / sqrt(n));
    successive sojourns are positively correlated, which widens the error
    as the load grows, so the load stays at or below 0.7, where a fixed
    run length still converges. The examples are derandomized, so the test
    cannot flake; over 400 random points of this space the largest gap was
    0.009."""
    t_p = scale * pk_mean_sojourn(params)
    samples = nq.simulate_mg1(params, 200_000, seed=7)
    gap = abs(nq.success_rate(nq.analyze(params), t_p) - nq.empirical_gamma(samples, t_p))
    assert gap <= 0.02


def reference_sojourns(analysis: nq.QueueAnalysis, rng: np.random.Generator, n: int) -> tuple[np.ndarray, int]:
    """``n`` sojourn draws from one stream by a plain acceptance-rejection
    loop, and the number of passes after the first; ``sample_sojourn`` gives
    each of its streams the bits of ``n = 1``."""
    a, b = analysis.a, analysis.b
    rate = -analysis.s1
    envelope = max((a - b) / rate, a / rate)
    out = np.empty(n)
    filled = 0
    passes = -1
    while filled < n:
        passes += 1
        want = n - filled
        draw = max(16, int(1.5 * want * envelope) + 1)
        proposals = rng.exponential(1.0 / rate, size=draw)
        density = a * np.exp(analysis.s1 * proposals) - b * np.exp(analysis.s2 * proposals)
        bound = envelope * rate * np.exp(-rate * proposals)
        accept = rng.random(draw) * bound <= density
        accepted = proposals[accept][:want]
        out[filled : filled + accepted.size] = accepted
        filled += accepted.size
    return out, passes


def reference_apply_channel(channel: nq.ChannelModel, keys, epoch: int) -> tuple[list, int]:
    """The per-upload loop: one stream and one sojourn draw per key; also
    the number of redraw passes taken."""
    if math.isinf(channel.t_p):
        return list(keys), 0
    analysis = nq.analyze(channel)
    delivered = []
    redraws = 0
    for key in keys:
        delays, passes = reference_sojourns(analysis, substream(channel.seed, "channel", epoch, key), 1)
        redraws += passes
        if float(delays[0]) <= channel.t_p:
            delivered.append(key)
    return delivered, redraws


@st.composite
def high_envelope_he2(draw) -> nq.He2Params:
    """Mostly fast service with a rare slow mode at low load: the sojourn
    density peaks far above the Exp(-s1) proposal, so the acceptance rate
    1/envelope is low and about a fifth of the streams need a second pass."""
    mu2 = draw(st.floats(0.2, 1.0))
    mu1 = draw(st.floats(20.0, 200.0))
    alpha1 = draw(st.floats(0.9, 0.99))
    rho = draw(st.floats(0.001, 0.05))
    lambda_n = rho / (alpha1 / mu1 + (1.0 - alpha1) / mu2)
    return nq.He2Params(lambda_n, alpha1, 1.0 - alpha1, mu1, mu2)


def test_apply_channel_matches_the_per_upload_loop():
    redraws = []

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(stable_he2(), high_envelope_he2()),
        st.one_of(st.sampled_from((0.0, math.inf)), st.floats(0.0, 10.0)),
        st.lists(st.integers(0, 10_000), max_size=30),
        st.integers(0, 2**32),
        st.integers(0, 1000),
    )
    @example(nq.He2Params(0.1, 0.9, 0.1, 15.0, 0.5), 2.0, list(range(40)), 3, 5)
    # more than two blocks of delay streams
    @example(nq.He2Params(0.1, 0.9, 0.1, 15.0, 0.5), 2.0, list(range(2 * nq._CHANNEL_BLOCK + 5)), 8, 1)
    def check(params, t_p, keys, seed, epoch):
        channel = nq.ChannelModel(**vars(params), t_p=t_p, seed=seed)
        delivered, passes = reference_apply_channel(channel, keys, epoch)
        assert deliver(channel, keys, epoch) == delivered
        redraws.append(passes)
        # one draw per stream from fresh generators, stream by stream
        analysis = nq.analyze(params)
        draws = nq.sample_sojourn(analysis, [substream(seed, "draws", key) for key in keys])
        assert draws.shape == (len(keys),)
        for key, draw in zip(keys, draws):
            expected, passes = reference_sojourns(analysis, substream(seed, "draws", key), 1)
            assert draw.tobytes() == expected.tobytes()
            redraws.append(passes)

    check()
    assert sum(redraws) > 0
