"""Separation statistics of labeled data and closed-form misclassification bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LabeledDataset, ShiftWindows, expansion_slack, sq_dists, stacked_windows
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


def _bound_and_verify(P: np.ndarray, N: np.ndarray) -> float:
    """_min_cross_sq(P, N) bit for bit, verifying only the pairs a GEMM bound keeps."""
    p_sq, n_sq = np.einsum("ij,ij->i", P, P), np.einsum("ij,ij->i", N, N)
    if not math.isfinite(4.0 * (p_sq.max() + n_sq.max())):
        return _min_cross_sq(P, N)
    threshold = best = math.inf
    block = max(1, 65536 // N.shape[0])  # verify temporaries as small as _min_cross_sq's
    for i in range(0, P.shape[0], block):
        norms = p_sq[i : i + block, None] + n_sq
        approx = norms - 2.0 * (P[i : i + block] @ N.T)
        slack = expansion_slack(norms, P.shape[1] + 4)
        threshold = min(threshold, float((approx + slack).min()))
        rows, cols = np.nonzero(approx - slack <= threshold)
        if rows.size:
            best = min(best, float(sq_dists(P[i + rows], N[cols]).min()))
    return best


def gap(data: LabeledDataset, T: int, delta_max: int, *, cutoff: bool = True) -> float:
    """Minimum squared distance between the classes over [1, T], both sides shifted.

    Minimizes over every positive example, negative example, and pair of shifts
    in {-delta_max..delta_max}. Each series must be defined on
    [1 - delta_max, T + delta_max]. The result is exactly the core.sq_dists float
    of the closest pair; ParamError if it overflows float64.

    cutoff=True bounds, then verifies. One GEMM per block of positive windows a
    gives d~ = |a|^2 + |b|^2 - 2a.b for every negative window b. Both d~ and the
    direct sum lie within g (|a| + |b|)^2 <= 2g (|a|^2 + |b|^2) of the exact
    distance, g = (T+4)u / (1 - (T+4)u), so with a safety factor 2 and a term for
    underflow, eps = 8g (|a|^2 + |b|^2) + 4 (T+4) tiny (core.expansion_slack)
    bounds |d~ - sq_dists|.
    Only pairs with d~ - eps <= min(d~ + eps) are verified. If a squared norm
    overflows, the unpruned path (cutoff=False, kept as the reference) runs.
    """
    data.require_both_classes()
    T = int(T)
    delta_max = int(delta_max)
    if T < 1:
        raise ParamError(f"T must be >= 1, got {T}")
    if delta_max < 0:
        raise ParamError(f"delta_max must be >= 0, got {delta_max}")
    pos = ShiftWindows(data.positives, T, -delta_max, delta_max).views.reshape(-1, T)
    neg = ShiftWindows(data.negatives, T, -delta_max, delta_max).views.reshape(-1, T)
    with np.errstate(over="ignore"):
        best = _bound_and_verify(pos, neg) if cutoff else _min_cross_sq(pos, neg)
    if not math.isfinite(best):
        raise ParamError(f"the class gap overflows float64 (T={T}, delta_max={delta_max})")
    return best


def gap_star(model: LatentSourceModel, T: int) -> float:
    """Minimum squared separation over [1, T] between distinct sources, labels ignored."""
    if model.m < 2:
        raise ParamError(f"need at least two sources, got m={model.m}")
    T = int(T)
    if T < 1:
        raise ParamError(f"T must be >= 1, got {T}")
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
