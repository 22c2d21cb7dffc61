"""Hyper-exponential M/G/1 delay model for upload deadline planning.

Packets arrive Poisson at rate ``lambda_n`` and are served with a
two-stage hyper-exponential time: rate ``mu1`` with probability
``alpha1`` (idle network) and ``mu2`` with probability ``alpha2``
(congested network). The stationary sojourn (waiting + service) density
is a two-exponential mixture whose rates are the roots ``s1``, ``s2`` of
the transform denominator; the closed-form success rate gamma(t_p) is
the probability a sojourn fits under the collection deadline ``t_p``.

The lossy upload channel (:class:`ChannelModel`) is the one home of that
decision for training runs: :func:`apply_channel` turns the seed words of
a run's delay streams into its delivery mask, one sampled sojourn per
upload, each kept when it fits under ``t_p``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rng import check_seed, generators, substream


@dataclass(frozen=True)
class He2Params:
    """Measured network parameters: arrival rate plus two-state service mix."""

    lambda_n: float
    alpha1: float
    alpha2: float
    mu1: float
    mu2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lambda_n) and self.lambda_n > 0.0):
            raise ValueError(f"arrival rate must be finite and positive, got {self.lambda_n}")
        # written so that NaN fails the checks
        if not (self.alpha1 >= 0.0 and self.alpha2 >= 0.0):
            raise ValueError("state probabilities must be non-negative")
        if not abs(self.alpha1 + self.alpha2 - 1.0) <= 1e-12:
            raise ValueError(f"alpha1 + alpha2 must be 1, got {self.alpha1 + self.alpha2}")
        if not (math.isfinite(self.mu1) and self.mu1 >= self.mu2 > 0.0):
            # mu1 == mu2 collapses to M/M/1 and is kept valid for cross-checks
            raise ValueError(f"service rates need finite mu1 >= mu2 > 0, got {self.mu1}, {self.mu2}")
        if self.rho >= 1.0:
            raise ValueError(f"unstable queue: utilization rho = {self.rho:.6g} >= 1")
        # analyze's discriminant squares the rates; rho < 1 makes lambda_n <
        # mu1, which keeps it below 5 * mu1**2
        if not math.isfinite(8.0 * self.mu1 * self.mu1):
            raise ValueError(f"mu1 = {self.mu1:g} overflows the squares of the queue analysis")

    @property
    def rho(self) -> float:
        return self.alpha1 * self.lambda_n / self.mu1 + self.alpha2 * self.lambda_n / self.mu2


@dataclass(frozen=True)
class QueueAnalysis:
    """Derived quantities: utilization, mixed rate, the transform roots
    s2 < s1 < 0, and the coefficients of the sojourn density
    W(t) = a*e^{s1 t} - b*e^{s2 t}."""

    params: He2Params
    rho: float
    mu12: float
    s1: float
    s2: float
    a: float
    b: float


def analyze(params: He2Params) -> QueueAnalysis:
    """Evaluate rho, mu12 = alpha1*mu1 + alpha2*mu2, the roots s1, s2 and the
    mixture coefficients a, b."""
    lam, mu1, mu2 = params.lambda_n, params.mu1, params.mu2
    mu12 = params.alpha1 * mu1 + params.alpha2 * mu2
    if params.alpha2 == 0.0:
        # Exp(mu1) service: the sojourn is Exp(mu1 - lam), and the root -mu2
        # cancels in the transform, also when it equals lam - mu1
        s1, s2 = max(lam - mu1, -mu2), min(lam - mu1, -mu2)
        a, b = (mu1 - lam, 0.0) if s1 == lam - mu1 else (0.0, lam - mu1)
        return QueueAnalysis(params=params, rho=params.rho, mu12=mu12, s1=s1, s2=s2, a=a, b=b)
    # the discriminant as a sum of squares, which cannot round below zero
    shift = mu1 - mu2 + (params.alpha2 - params.alpha1) * lam
    disc = shift**2 + 4.0 * params.alpha1 * params.alpha2 * lam**2
    root = math.sqrt(disc)
    s1 = 0.5 * ((lam - mu1 - mu2) + root)
    s2 = 0.5 * ((lam - mu1 - mu2) - root)
    scale = (1.0 - params.rho) / (s1 - s2)
    a = scale * (mu12 * s1 + mu1 * mu2)
    b = scale * (mu12 * s2 + mu1 * mu2)
    return QueueAnalysis(params=params, rho=params.rho, mu12=mu12, s1=s1, s2=s2, a=a, b=b)


def sojourn_pdf(analysis: QueueAnalysis, t: float | np.ndarray) -> float | np.ndarray:
    """Stationary sojourn-time density W(t) for t >= 0, elementwise on an array."""
    if not np.all(np.greater_equal(t, 0.0)):
        raise ValueError(f"t must be non-negative, got {t}")
    return analysis.a * np.exp(analysis.s1 * t) - analysis.b * np.exp(analysis.s2 * t)


def success_rate(analysis: QueueAnalysis, t_p: float) -> float:
    """Probability gamma(t_p) that a sojourn does not exceed the deadline."""
    if not t_p >= 0.0:
        raise ValueError(f"t_p must be non-negative, got {t_p}")
    if math.isinf(t_p):
        return 1.0
    gamma = (
        1.0
        + (analysis.a / analysis.s1) * math.exp(analysis.s1 * t_p)
        - (analysis.b / analysis.s2) * math.exp(analysis.s2 * t_p)
    )
    return min(1.0, max(0.0, gamma))


def required_deadline(analysis: QueueAnalysis, gamma_target: float, tol: float = 1e-6) -> float:
    """Smallest deadline whose success rate matches ``gamma_target`` within ``tol``.

    The bracket grows by doubling from 1/|s1| until the target is exceeded,
    then bisection runs until the success-rate gap closes.
    """
    if not 0.0 < gamma_target < 1.0:
        raise ValueError(f"gamma_target must lie in (0, 1), got {gamma_target}")
    if not tol > 0.0:
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


def simulate_mg1(params: He2Params, n_jobs: int, seed: int) -> np.ndarray:
    """Sojourn samples from a simulated queue; the first 1% is warm-up and dropped.

    Waiting times follow the recursion w_{n+1} = max(0, w_n + s_n - a_{n+1}),
    vectorized as the running maximum of increment prefix sums. Three float64
    buffers of ``n_jobs`` are reused: ``prefix`` (arrivals, then increments
    and their prefix sums), ``service`` (unit draws, then service times) and
    ``sojourn`` (rates, then the running minimum, waits and sojourns). With
    the branch mask and the indices ``np.take`` casts it to, the peak is about
    33 bytes a job. The samples equal those of the allocating form
    (``np.where`` rates, a concatenated prefix) bit for bit: the same draws
    and divisions, and sums and minima taken in the same order.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    rng = substream(seed, "mg1")
    prefix = rng.exponential(1.0 / params.lambda_n, size=n_jobs)
    branch = rng.random(n_jobs) < params.alpha1
    service = rng.exponential(1.0, size=n_jobs)
    sojourn = np.take(np.array([params.mu2, params.mu1]), branch.view(np.uint8))
    np.divide(service, sojourn, out=service)
    np.subtract(service[:-1], prefix[1:], out=prefix[1:])
    prefix[0] = 0.0
    np.cumsum(prefix[1:], out=prefix[1:])
    np.minimum.accumulate(prefix, out=sojourn)
    np.subtract(prefix, sojourn, out=sojourn)
    sojourn += service
    return sojourn[n_jobs // 100 :]


def empirical_gamma(samples: np.ndarray, t_p: float) -> float:
    """Fraction of sojourn samples within the deadline."""
    if not t_p >= 0.0:
        raise ValueError(f"t_p must be non-negative, got {t_p}")
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("no samples")
    return int(np.count_nonzero(samples <= t_p)) / samples.size


def sample_sojourn(analysis: QueueAnalysis, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """One sojourn time from each generator by acceptance-rejection against
    W(t), as a ``(len(rngs),)`` array; entry i is the draw of ``rngs[i]``.

    Proposals come from the dominant exponential Exp(-s1); the envelope
    constant is max(W(0)/(-s1), a/(-s1)), covering both signs of the
    second mixture coefficient. In each pass, every stream still without a
    draw takes ``draw`` standard exponentials and then ``random(draw)``
    from its own generator, each into its row of the pass's proposals and
    uniforms, so its draw does not depend on the other streams. The
    proposals are then scaled by 1/(-s1) at once: numpy's
    ``exponential(scale)`` is ``scale * standard_exponential()``, so they
    are the bits of ``exponential(1/(-s1), draw)``. The density, envelope
    and acceptance test run once over the ``(pending, draw)`` proposals,
    and a stream's draw is its first accepted proposal.
    """
    a, b = analysis.a, analysis.b
    rate = -analysis.s1
    envelope = max((a - b) / rate, a / rate)
    draw = max(16, int(1.5 * envelope) + 1)
    out = np.empty(len(rngs))
    pending = np.arange(len(rngs))
    while pending.size:
        proposals = np.empty((pending.size, draw))
        uniforms = np.empty((pending.size, draw))
        for row, i in enumerate(pending.tolist()):
            rngs[i].standard_exponential(out=proposals[row])
            rngs[i].random(out=uniforms[row])
        proposals *= 1.0 / rate
        bound = envelope * rate * np.exp(-rate * proposals)
        accept = uniforms * bound <= sojourn_pdf(analysis, proposals)
        hit = accept.any(axis=1)
        out[pending[hit]] = proposals[hit, accept[hit].argmax(axis=1)]
        pending = pending[~hit]
    return out


@dataclass(frozen=True)
class ChannelModel(He2Params):
    """Lossy upload channel: the network's He2 parameters, the upload deadline
    ``t_p`` and the seed of the delay draws; sojourns beyond ``t_p`` are dropped."""

    t_p: float
    seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.t_p >= 0.0:
            raise ValueError(f"t_p must be non-negative, got {self.t_p}")
        check_seed(self.seed, "seed")


# the most delay streams one sample_sojourn call draws from: a call holds
# the generators of all its streams at once
_CHANNEL_BLOCK = 128


def apply_channel(channel: ChannelModel, states: np.ndarray) -> np.ndarray:
    """Whether each upload's sampled sojourn fits under the deadline, as an
    ``(M,)`` bool array, from the ``(M, 4)`` ``rng.seed_states`` rows of the
    uploads' delay streams.

    Upload i gets one stationary sojourn draw from a fresh generator seeded
    with row i, so its delivery is reproducible and independent of the other
    uploads. The generators are built and drawn from ``_CHANNEL_BLOCK`` rows
    at a time, one :func:`sample_sojourn` call a block, in row order.
    ``fedcore.plan_run`` seeds the rows and decides a run's deliveries
    before its first round; it draws none under an infinite deadline, which
    delivers every upload.
    """
    analysis = analyze(channel)
    delays = np.empty(len(states))
    for start in range(0, len(states), _CHANNEL_BLOCK):
        block = slice(start, start + _CHANNEL_BLOCK)
        delays[block] = sample_sojourn(analysis, generators(states[block]))
    return delays <= channel.t_p
