from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vhfl_lab.bounds import BoundParams, evaluate, sweep

BASE = BoundParams(
    l_smooth=1.0,
    mu_pl=0.5,
    sigma2=0.4,
    sigma0_2=0.2,
    g2=1.0,
    lambda_niid=2.0,
    f_init=3.0,
    f_star=0.5,
    f0=1.0,
    local_epochs=5,
    k=10,
    global_epochs=100,
    gamma=1.0,
)


def test_nonconvex_noise_free_head_term():
    p = dataclasses.replace(BASE, lambda_niid=1.0, sigma2=0.0, sigma0_2=0.0)
    expected = 2.0 * (p.f_init - p.f_star) / math.sqrt(p.global_epochs * p.local_epochs)
    assert evaluate(p)[0] == expected


def test_nonconvex_decreasing_in_k():
    values = [evaluate(dataclasses.replace(BASE, k=k))[0] for k in range(1, 65)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_nonconvex_scales_like_inverse_sqrt_tg():
    a = evaluate(BASE)[0]
    b = evaluate(dataclasses.replace(BASE, global_epochs=2 * BASE.global_epochs))[0]
    assert abs(b / a - 1.0 / math.sqrt(2.0)) < 1e-9


def test_convex_halves_when_tg_doubles():
    a = evaluate(BASE)[1]
    b = evaluate(dataclasses.replace(BASE, global_epochs=2 * BASE.global_epochs))[1]
    assert b == a / 2.0


def test_convex_nonmonotone_in_local_epochs():
    p = dataclasses.replace(BASE, lambda_niid=1.0, sigma0_2=0.1, f0=8.0)
    values = [evaluate(dataclasses.replace(p, local_epochs=el))[1] for el in range(1, 41)]
    best = min(range(len(values)), key=values.__getitem__)
    assert 0 < best < len(values) - 1  # interior minimizer exists


def test_convex_noise_free_leaves_f0_term():
    p = dataclasses.replace(BASE, lambda_niid=1.0, sigma2=0.0, sigma0_2=0.0)
    expected = (
        (1.0 / p.global_epochs)
        * (2.0 * p.l_smooth / p.mu_pl**2)
        * (p.f0 * p.g2 / (4.0 * p.local_epochs))
    )
    assert evaluate(p)[1] == expected


def lossless(p: BoundParams) -> tuple[float, float]:
    """Both bounds of the lossless theorem, with all K collected models."""
    el, tg, l, k = p.local_epochs, p.global_epochs, p.l_smooth, float(p.k)
    noise = (
        el * p.sigma0_2
        + (p.sigma2 / k) * (1.0 / el + (p.lambda_niid - 1.0) * l)
        + (p.lambda_niid - 1.0) * l * el * p.g2
    )
    head = 2.0 * (p.f_init - p.f_star) / (math.sqrt(tg) * math.sqrt(el))
    nonconvex = head + (l * math.sqrt(el) / math.sqrt(tg)) * noise
    convex = (1.0 / tg) * (2.0 * l / p.mu_pl**2) * (noise + p.f0 * p.g2 / (4.0 * el))
    return nonconvex, convex


def test_lossy_gamma_one_is_lossless():
    for k in (1, 3, 10, 64):
        p = dataclasses.replace(BASE, k=k, gamma=1.0)
        assert evaluate(p) == lossless(p)


def test_lossy_increases_when_gamma_halves():
    high = evaluate(dataclasses.replace(BASE, gamma=1.0))
    low = evaluate(dataclasses.replace(BASE, gamma=0.5))
    assert low[0] > high[0]
    assert low[1] > high[1]


def test_lossy_k_gamma_equivalence_bit_exact():
    lossy = evaluate(dataclasses.replace(BASE, k=10, gamma=0.5))
    assert lossy == evaluate(dataclasses.replace(BASE, k=5, gamma=1.0))
    assert lossy == lossless(dataclasses.replace(BASE, k=5))


@given(
    k=st.integers(1, 100),
    local_epochs=st.integers(1, 50),
    lambda_niid=st.floats(1.0, 10.0),
    sigma2=st.floats(0.0, 10.0),
    gammas=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2),
)
def test_bounds_non_increasing_in_gamma(k, local_epochs, lambda_niid, sigma2, gammas):
    lo, hi = sorted(gammas)
    p = dataclasses.replace(BASE, k=k, local_epochs=local_epochs, lambda_niid=lambda_niid, sigma2=sigma2)
    more_loss = evaluate(dataclasses.replace(p, gamma=lo))
    less_loss = evaluate(dataclasses.replace(p, gamma=hi))
    assert more_loss[0] >= less_loss[0]
    assert more_loss[1] >= less_loss[1]


def test_bounds_finite_nonnegative_random_sweep():
    import numpy as np

    rng = np.random.default_rng(0)
    for _ in range(100):
        p = BoundParams(
            l_smooth=float(rng.uniform(0.1, 5.0)),
            mu_pl=float(rng.uniform(0.1, 2.0)),
            sigma2=float(rng.uniform(0.0, 3.0)),
            sigma0_2=float(rng.uniform(0.0, 3.0)),
            g2=float(rng.uniform(0.0, 4.0)),
            lambda_niid=float(rng.uniform(1.0, 6.0)),
            f_init=float(rng.uniform(1.0, 10.0)),
            f_star=float(rng.uniform(0.0, 1.0)),
            f0=float(rng.uniform(0.0, 4.0)),
            local_epochs=int(rng.integers(1, 30)),
            k=int(rng.integers(1, 50)),
            global_epochs=int(rng.integers(1, 500)),
            gamma=float(rng.uniform(0.05, 1.0)),
        )
        nc, cv = evaluate(p)
        assert math.isfinite(nc) and nc >= 0.0
        assert math.isfinite(cv) and cv >= 0.0


def test_parameter_validation():
    with pytest.raises(ValueError):
        dataclasses.replace(BASE, lambda_niid=0.5)
    with pytest.raises(ValueError):
        dataclasses.replace(BASE, gamma=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(BASE, f_init=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(BASE, sigma2=-0.1)


def test_counts_must_be_integral():
    for name in ("local_epochs", "k", "global_epochs"):
        p = dataclasses.replace(BASE, **{name: 4.0})
        assert type(getattr(p, name)) is int and getattr(p, name) == 4
        for bad in (2.5, math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                dataclasses.replace(BASE, **{name: bad})


def test_sweep_rows():
    rows = sweep(BASE, "gamma", [0.25, 0.5, 1.0])
    assert [r[0] for r in rows] == [0.25, 0.5, 1.0]
    assert rows[-1][1:] == evaluate(BASE)
    assert rows[0][1] > rows[1][1] > rows[2][1]
    with pytest.raises(ValueError):
        sweep(BASE, "not_a_field", [1.0])
    rows = sweep(BASE, "k", [2.0, 3.0])
    assert rows == [(float(k), *evaluate(dataclasses.replace(BASE, k=k))) for k in (2, 3)]
    with pytest.raises(ValueError, match="k must be an integer, got 2.5"):
        sweep(BASE, "k", [2.0, 2.5])
