"""Hyper-exponential M/G/1 delay model for upload deadline planning.

Packets arrive Poisson at rate ``lambda_n`` and are served with a
two-stage hyper-exponential time: rate ``mu1`` with probability
``alpha1`` (idle network) and ``mu2`` with probability ``alpha2``
(congested network). The stationary sojourn (waiting + service) density
is a two-exponential mixture whose rates are the roots ``s1``, ``s2`` of
the transform denominator; the closed-form success rate gamma(t_p) is
the probability a sojourn fits under the collection deadline ``t_p``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .rng import substream


@dataclass(frozen=True)
class He2Params:
    """Measured network parameters: arrival rate plus two-state service mix."""

    lambda_n: float
    alpha1: float
    alpha2: float
    mu1: float
    mu2: float

    def __post_init__(self) -> None:
        if self.lambda_n <= 0.0:
            raise ValueError(f"arrival rate must be positive, got {self.lambda_n}")
        if self.alpha1 < 0.0 or self.alpha2 < 0.0:
            raise ValueError("state probabilities must be non-negative")
        if abs(self.alpha1 + self.alpha2 - 1.0) > 1e-12:
            raise ValueError(f"alpha1 + alpha2 must be 1, got {self.alpha1 + self.alpha2}")
        if not (self.mu1 >= self.mu2 > 0.0):
            # mu1 == mu2 collapses to M/M/1 and is kept valid for cross-checks
            raise ValueError(f"service rates need mu1 >= mu2 > 0, got {self.mu1}, {self.mu2}")
        if self.rho >= 1.0:
            raise ValueError(f"unstable queue: utilization rho = {self.rho:.6g} >= 1")

    @property
    def rho(self) -> float:
        return self.alpha1 * self.lambda_n / self.mu1 + self.alpha2 * self.lambda_n / self.mu2

    @property
    def mean_service(self) -> float:
        return self.alpha1 / self.mu1 + self.alpha2 / self.mu2

    @property
    def second_moment_service(self) -> float:
        return 2.0 * (self.alpha1 / self.mu1**2 + self.alpha2 / self.mu2**2)


@dataclass(frozen=True)
class QueueAnalysis:
    """Derived quantities: utilization, mixed rate, and transform roots s2 < s1 < 0."""

    params: He2Params
    rho: float
    mu12: float
    s1: float
    s2: float


def analyze(params: He2Params) -> QueueAnalysis:
    """Evaluate rho, mu12 = alpha1*mu1 + alpha2*mu2 and the roots s1, s2."""
    lam, mu1, mu2 = params.lambda_n, params.mu1, params.mu2
    mu12 = params.alpha1 * mu1 + params.alpha2 * mu2
    disc = (
        mu1**2 + mu2**2 + lam**2
        - 2.0 * mu1 * mu2 + 2.0 * lam * mu1 + 2.0 * lam * mu2
        - 4.0 * mu12 * lam
    )
    root = math.sqrt(disc)
    s1 = 0.5 * ((lam - mu1 - mu2) + root)
    s2 = 0.5 * ((lam - mu1 - mu2) - root)
    return QueueAnalysis(params=params, rho=params.rho, mu12=mu12, s1=s1, s2=s2)


def _mixture_coeffs(analysis: QueueAnalysis) -> tuple[float, float]:
    """Coefficients a, b with sojourn density W(t) = a*e^{s1 t} - b*e^{s2 t}."""
    p = analysis.params
    scale = (1.0 - analysis.rho) / (analysis.s1 - analysis.s2)
    a = scale * (analysis.mu12 * analysis.s1 + p.mu1 * p.mu2)
    b = scale * (analysis.mu12 * analysis.s2 + p.mu1 * p.mu2)
    return a, b


def sojourn_pdf(analysis: QueueAnalysis, t: float) -> float:
    """Stationary sojourn-time density W(t) for t >= 0."""
    if t < 0.0:
        raise ValueError(f"t must be non-negative, got {t}")
    a, b = _mixture_coeffs(analysis)
    return a * math.exp(analysis.s1 * t) - b * math.exp(analysis.s2 * t)


def success_rate(analysis: QueueAnalysis, t_p: float) -> float:
    """Probability gamma(t_p) that a sojourn does not exceed the deadline."""
    if t_p < 0.0:
        raise ValueError(f"t_p must be non-negative, got {t_p}")
    if math.isinf(t_p):
        return 1.0
    a, b = _mixture_coeffs(analysis)
    gamma = (
        1.0
        + (a / analysis.s1) * math.exp(analysis.s1 * t_p)
        - (b / analysis.s2) * math.exp(analysis.s2 * t_p)
    )
    return min(1.0, max(0.0, gamma))


def required_deadline(analysis: QueueAnalysis, gamma_target: float, tol: float = 1e-6) -> float:
    """Smallest deadline whose success rate matches ``gamma_target`` within ``tol``.

    The bracket grows by doubling from 1/|s1| until the target is exceeded,
    then bisection runs until the success-rate gap closes.
    """
    if not 0.0 < gamma_target < 1.0:
        raise ValueError(f"gamma_target must lie in (0, 1), got {gamma_target}")
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    lo = 0.0
    hi = 1.0 / abs(analysis.s1)
    for _ in range(200):
        if success_rate(analysis, hi) >= gamma_target:
            break
        lo = hi
        hi *= 2.0
    else:
        raise ValueError(f"could not bracket gamma_target {gamma_target}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g = success_rate(analysis, mid)
        if abs(g - gamma_target) <= tol:
            return mid
        if g < gamma_target:
            lo = mid
        else:
            hi = mid
    raise ValueError(f"bisection failed to reach tolerance {tol}")


def _service_draws(params: He2Params, n: int, rng: np.random.Generator) -> np.ndarray:
    branch = rng.random(n) < params.alpha1
    draws = rng.exponential(1.0, size=n)
    rates = np.where(branch, params.mu1, params.mu2)
    return draws / rates


def simulate_mg1(params: He2Params, n_jobs: int, seed: int) -> np.ndarray:
    """Sojourn samples from a simulated queue; the first 1% is warm-up and dropped.

    Waiting times follow the recursion w_{n+1} = max(0, w_n + s_n - a_{n+1}),
    vectorized as the running maximum of increment prefix sums.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    rng = substream(seed, "mg1")
    arrivals = rng.exponential(1.0 / params.lambda_n, size=n_jobs)
    service = _service_draws(params, n_jobs, rng)
    if n_jobs == 1:
        waits = np.zeros(1)
    else:
        increments = service[:-1] - arrivals[1:]
        prefix = np.concatenate(([0.0], np.cumsum(increments)))
        waits = prefix - np.minimum.accumulate(prefix)
    sojourn = waits + service
    warmup = n_jobs // 100
    return sojourn[warmup:]


def empirical_gamma(samples: np.ndarray, t_p: float) -> float:
    """Fraction of sojourn samples within the deadline."""
    if t_p < 0.0:
        raise ValueError(f"t_p must be non-negative, got {t_p}")
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("no samples")
    return float(np.mean(samples <= t_p))


def sample_sojourn(analysis: QueueAnalysis, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw i.i.d. sojourn times by acceptance-rejection against W(t).

    Proposals come from the dominant exponential Exp(-s1); the envelope
    constant is max(W(0)/(-s1), a/(-s1)), covering both signs of the
    second mixture coefficient.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    a, b = _mixture_coeffs(analysis)
    rate = -analysis.s1
    w0 = a - b
    envelope = max(w0 / rate, a / rate)
    out = np.empty(n)
    filled = 0
    while filled < n:
        want = n - filled
        draw = max(16, int(1.5 * want * envelope) + 1)
        proposals = rng.exponential(1.0 / rate, size=draw)
        density = a * np.exp(analysis.s1 * proposals) - b * np.exp(analysis.s2 * proposals)
        bound = envelope * rate * np.exp(-rate * proposals)
        accept = rng.random(draw) * bound <= density
        accepted = proposals[accept][:want]
        out[filled : filled + accepted.size] = accepted
        filled += accepted.size
    return out


@dataclass(frozen=True)
class ChannelModel(He2Params):
    """Lossy upload channel: the network's He2 parameters, the upload deadline
    ``t_p`` and the seed of the delay draws; sojourns beyond ``t_p`` are dropped."""

    t_p: float
    seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.t_p < 0.0:
            raise ValueError(f"t_p must be non-negative, got {self.t_p}")


def apply_channel(
    channel: ChannelModel,
    uploads: Sequence[Hashable],
    epoch: int = 0,
) -> list[Hashable]:
    """Return the uploads whose sampled sojourn fits under the deadline.

    Each upload gets one stationary sojourn draw from a stream keyed by
    (channel seed, epoch, upload key), so delivery is reproducible and
    independent of iteration order.
    """
    if math.isinf(channel.t_p):
        return list(uploads)
    analysis = analyze(channel)
    delivered = []
    for key in uploads:
        rng = substream(channel.seed, "channel", epoch, key)
        delay = float(sample_sojourn(analysis, rng, 1)[0])
        if delay <= channel.t_p:
            delivered.append(key)
    return delivered
