"""Separation statistics of labeled data and closed-form misclassification bounds.

The class gap is exact through the distance engine's one bound-and-verify,
`core.ShiftWindows.minimum`; `_min_cross_sq` is the direct reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LabeledDataset, ShiftWindows, integer_at_least, sq_dists, stacked_windows
from .errors import ParamError
from .synth import LatentSourceModel

_SQRT2 = math.sqrt(2.0)


def _min_cross_sq(A: np.ndarray, B: np.ndarray, block: int = 256) -> float:
    """Minimum squared Euclidean distance between rows of A and rows of B."""
    best = math.inf
    for i in range(0, A.shape[0], block):
        a = A[i : i + block, None, :]
        for j in range(0, B.shape[0], block):
            m = float(sq_dists(a, B[None, j : j + block]).min())
            if m < best:
                best = m
    return best


def gap(data: LabeledDataset, T: int, delta_max: int, *, cutoff: bool = True) -> float:
    """Minimum squared distance between the classes over [1, T], both sides shifted.

    Minimizes over every positive example, negative example, and pair of shifts
    in {-delta_max..delta_max}. Each series must be defined on
    [1 - delta_max, T + delta_max]. The result is exactly the core.sq_dists float
    of the closest pair; ParamError if it overflows float64.

    cutoff=True takes, per block of positive windows, the exact minimum of
    ShiftWindows(negatives).minimum, which verifies only the pairs its GEMM
    bound keeps; cutoff=False, the reference, computes every pair directly.
    """
    data.require_both_classes()
    T, delta_max = integer_at_least("T", T, 1), integer_at_least("delta_max", delta_max, 0)
    pos = ShiftWindows(data.positives, T, -delta_max, delta_max).views.reshape(-1, T)
    neg = ShiftWindows(data.negatives, T, -delta_max, delta_max)
    if cutoff:
        best = min(float(neg.minimum(pos[b], None)[0]) for b in neg.query_blocks(len(pos)))
    else:
        best = _min_cross_sq(pos, neg.views.reshape(-1, T))
    if not math.isfinite(best):
        raise ParamError(f"the class gap overflows float64 (T={T}, delta_max={delta_max})")
    return best


def gap_star(model: LatentSourceModel, T: int) -> float:
    """Minimum squared separation over [1, T] between distinct sources, labels ignored."""
    if model.m < 2:
        raise ParamError(f"need at least two sources, got m={model.m}")
    T = integer_at_least("T", T, 1)
    W = stacked_windows([src for src, _ in model.sources], 1, T)
    best = math.inf
    for i in range(model.m - 1):
        m = float(sq_dists(W[i + 1 :], W[i]).min())
        if m < best:
            best = m
    return best


@dataclass(frozen=True)
class BoundInputs:
    """Everything the closed-form misclassification bounds consume."""

    m: int
    m_plus: int
    m_minus: int
    n: int
    beta: float
    sigma: float
    gamma: float
    theta: float
    delta_max: int
    gap: float

    def __post_init__(self):
        if int(self.m) < 1 or int(self.n) < 1:
            raise ParamError("m and n must be positive")
        if int(self.m_plus) < 0 or int(self.m_minus) < 0:
            raise ParamError("class counts must be nonnegative")
        if int(self.m_plus) + int(self.m_minus) != int(self.m):
            raise ParamError(
                f"m_plus + m_minus must equal m ({self.m_plus} + {self.m_minus} != {self.m})"
            )
        if not (1.0 < self.beta < math.inf):
            raise ParamError(f"beta must be finite and > 1, got {self.beta}")
        if not (0.0 < self.sigma < math.inf):
            raise ParamError(f"sigma must be finite and > 0, got {self.sigma}")
        if not (0.0 <= self.gamma < math.inf):
            raise ParamError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not (0.0 < self.theta < math.inf):
            raise ParamError(f"theta must be finite and > 0, got {self.theta}")
        if int(self.delta_max) < 0:
            raise ParamError(f"delta_max must be >= 0, got {self.delta_max}")
        if not (0.0 <= self.gap < math.inf):
            raise ParamError(f"gap must be finite and >= 0, got {self.gap}")


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def wmv_bound(inputs: BoundInputs) -> float:
    """Misclassification bound for generalized weighted voting.

    (theta*m+/m + m-/(theta*m)) * (2*delta_max+1) * n
        * exp(-(gamma - 4*sigma^2*gamma^2) * gap) + m^(1-beta).
    May exceed 1 (vacuous); returned unclamped.
    """
    class_factor = (
        inputs.theta * inputs.m_plus / inputs.m + inputs.m_minus / (inputs.theta * inputs.m)
    )
    rate = inputs.gamma - 4.0 * inputs.sigma**2 * inputs.gamma**2
    tail = _exp(-rate * inputs.gap)
    return class_factor * (2 * inputs.delta_max + 1) * inputs.n * tail + inputs.m ** (
        1.0 - inputs.beta
    )


def nn_bound(inputs: BoundInputs) -> float:
    """Misclassification bound for the nearest-neighbor classifier.

    (2*delta_max+1) * n * exp(-gap / (16*sigma^2)) + m^(1-beta); unclamped.
    """
    tail = _exp(-inputs.gap / (16.0 * inputs.sigma**2))
    return (2 * inputs.delta_max + 1) * inputs.n * tail + inputs.m ** (1.0 - inputs.beta)


def is_vacuous(bound: float) -> bool:
    """A bound of 1 or more says nothing about the error rate."""
    return not (bound < 1.0)


def required_gap(
    theta: float,
    m_plus: int,
    m_minus: int,
    m: int,
    delta_max: int,
    n: int,
    delta: float,
    gamma: float,
    sigma: float,
) -> float:
    """Separation needed for the voting bound to drop below the tolerance delta.

    [log(theta*m+/m + m-/(theta*m)) + log(2*delta_max+1) + log n + log(2/delta)]
        / (gamma - 4*sigma^2*gamma^2).
    """
    rate = gamma - 4.0 * sigma**2 * gamma**2
    if not (rate > 0.0):
        raise ParamError(
            f"gamma - 4*sigma^2*gamma^2 must be positive, got {rate} "
            f"(gamma={gamma}, sigma={sigma})"
        )
    numerator = (
        math.log(theta * m_plus / m + m_minus / (theta * m))
        + math.log(2 * delta_max + 1)
        + math.log(n)
        + math.log(2.0 / delta)
    )
    return numerator / rate


@dataclass(frozen=True)
class GaussianConditionsReport:
    """Verdicts for the Gaussian no-shift correctness conditions."""

    n: int
    m: int
    sigma: float
    delta: float
    g_star: float
    T: int
    n_threshold: float
    g_star_threshold: float
    t_threshold: float
    n_ok: bool
    g_star_ok: bool
    t_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.n_ok and self.g_star_ok and self.t_ok


def gaussian_conditions(
    n: int, m: int, sigma: float, delta: float, g_star: float, T: int
) -> GaussianConditionsReport:
    """Check n > m*log(4m/delta), g_star >= 4*sigma^2*log(4n^2/delta),
    and T >= (12+8*sqrt(2))*log(4n^2/delta)."""
    if not (0.0 < delta < 1.0):
        raise ParamError(f"delta must be in (0, 1), got {delta}")
    log_n_term = math.log(4.0 * n * n / delta)
    n_threshold = m * math.log(4.0 * m / delta)
    g_star_threshold = 4.0 * sigma**2 * log_n_term
    t_threshold = (12.0 + 8.0 * _SQRT2) * log_n_term
    return GaussianConditionsReport(
        n=n,
        m=m,
        sigma=sigma,
        delta=delta,
        g_star=g_star,
        T=T,
        n_threshold=n_threshold,
        g_star_threshold=g_star_threshold,
        t_threshold=t_threshold,
        n_ok=n > n_threshold,
        g_star_ok=g_star >= g_star_threshold,
        t_ok=T >= t_threshold,
    )
