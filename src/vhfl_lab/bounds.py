"""Convergence-bound calculators.

One evaluator, :func:`evaluate`, gives both analytic bounds on federated
training with a central vertical model: the non-convex rate in terms of
averaged gradient norms and the convex-case (PL condition) loss gap. Both
take the collected-model count at K*gamma, the count a lossy network
leaves; the lossless bounds are the gamma = 1 case, where K*1.0 equals
float(K) exactly. No constants are estimated from runs; callers supply them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Sequence


@dataclass(frozen=True)
class BoundParams:
    """Constants entering the bounds.

    ``l_smooth``: smoothness constant L; ``mu_pl``: PL constant;
    ``sigma2``/``sigma0_2``: local and central stochastic-gradient
    variances; ``g2``: gradient-norm bound; ``lambda_niid``: gradient
    divergence ratio (>= 1); ``f_init``/``f_star``: initial and optimal
    loss; ``f0``: initial-gradient factor in the convex bound. Every value
    must be finite, and so must ``mu_pl**2`` be and not 0; the counts
    ``local_epochs``, ``k`` and ``global_epochs`` must also be integral, and
    are stored as ints.
    """

    l_smooth: float
    mu_pl: float
    sigma2: float
    sigma0_2: float
    g2: float
    lambda_niid: float
    f_init: float
    f_star: float
    f0: float
    local_epochs: int
    k: int
    global_epochs: int
    gamma: float = 1.0

    def __post_init__(self) -> None:
        for name in ("local_epochs", "k", "global_epochs"):
            value = getattr(self, name)
            if not float(value).is_integer():
                raise ValueError(f"{name} must be an integer, got {value}")
            object.__setattr__(self, name, int(value))
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.l_smooth <= 0.0 or self.mu_pl <= 0.0:
            raise ValueError("smoothness and PL constants must be positive")
        # the convex bound divides by mu_pl**2, which must neither underflow nor overflow
        if not 0.0 < self.mu_pl * self.mu_pl < math.inf:
            raise ValueError(f"mu_pl squared must be a positive finite float, got mu_pl={self.mu_pl}")
        if min(self.sigma2, self.sigma0_2, self.g2, self.f0) < 0.0:
            raise ValueError("variances, gradient bound and f0 must be non-negative")
        if self.lambda_niid < 1.0:
            raise ValueError(f"divergence ratio must be >= 1, got {self.lambda_niid}")
        if self.f_init < self.f_star:
            raise ValueError("initial loss cannot be below the optimal loss")
        if self.local_epochs < 1 or self.k < 1 or self.global_epochs < 1:
            raise ValueError("epoch and client counts must be >= 1")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma}")


def evaluate(p: BoundParams) -> tuple[float, float]:
    """The (nonconvex, convex) bounds with the collected-model count at K*gamma.

    ``nonconvex`` bounds the averaged gradient norm over the global epochs,
    ``convex`` the expected loss gap under the PL condition. A bound that is
    not finite raises ``ValueError``.
    """
    el, tg, l = p.local_epochs, p.global_epochs, p.l_smooth
    k_eff = p.k * p.gamma
    noise = (
        el * p.sigma0_2
        + (p.sigma2 / k_eff) * (1.0 / el + (p.lambda_niid - 1.0) * l)
        + (p.lambda_niid - 1.0) * l * el * p.g2
    )
    head = 2.0 * (p.f_init - p.f_star) / (math.sqrt(tg) * math.sqrt(el))
    nonconvex = head + (l * math.sqrt(el) / math.sqrt(tg)) * noise
    convex = (1.0 / tg) * (2.0 * l / p.mu_pl**2) * (noise + p.f0 * p.g2 / (4.0 * el))
    if not (math.isfinite(nonconvex) and math.isfinite(convex)):
        raise ValueError(f"the bounds are not finite: nonconvex {nonconvex}, convex {convex}")
    return nonconvex, convex


def sweep(
    p: BoundParams,
    param: str,
    values: Sequence[float],
) -> list[tuple[float, float, float]]:
    """Evaluate (value, nonconvex, convex) along a one-parameter sweep.

    Each value replaces ``param`` in ``p``, so ``BoundParams`` rejects a
    non-integral count; a gamma sweep is just another column.
    """
    if param not in {f.name for f in fields(BoundParams)}:
        raise ValueError(f"unknown bound parameter {param!r}")
    return [(float(value), *evaluate(replace(p, **{param: value}))) for value in values]
