"""Separation statistics of labeled data and closed-form misclassification bounds.

The class gap is exact through the distance engine's per-series forms:
`core.ShiftWindows.expansion_minimum` bounds it, `core.ShiftWindows.minimum`
verifies it, and its reference is the engine's direct grid. The voting
bound's exponent rate (`wmv_rate`) and class factor (`class_factor`) are each
defined once, for `wmv_bound`, `required_gap` and the `bounds` command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    LabeledDataset,
    ShiftWindows,
    blocks,
    expansion_slack,
    integer_at_least,
    real_at_least,
    sq_dists,
    stacked_windows,
)
from .errors import ParamError
from .synth import LatentSourceModel

_SQRT2 = math.sqrt(2.0)


def gap(data: LabeledDataset, T: int, delta_max: int, *, cutoff: bool = True) -> float:
    """Minimum squared distance between the classes over [1, T], both sides shifted.

    Minimizes over every positive example, negative example, and pair of shifts
    in {-delta_max..delta_max}. Each series must be defined on
    [1 - delta_max, T + delta_max]. The result is exactly the core.sq_dists float
    of the closest pair; ParamError if it overflows float64.

    cutoff=True bounds each negative series' minimum over shifts for a block
    of positive windows (ShiftWindows.expansion_minimum), and verifies with
    ShiftWindows.minimum only the windows within slack of the block's lowest
    bound; cutoff=False, the reference, takes the direct grid of every pair.
    """
    data.require_both_classes()
    T, delta_max = integer_at_least("T", T, 1), integer_at_least("delta_max", delta_max, 0)
    pos = ShiftWindows(data.positives, T, -delta_max, delta_max).views.reshape(-1, T)
    neg = ShiftWindows(data.negatives, T, -delta_max, delta_max)
    (n, S), L = neg.views.shape[:2], neg.rows.shape[1]
    if cutoff:
        # eps (expansion_slack) grows with R_i + |q|^2, so its value at the largest
        # norms bounds every pair's; an overflow makes every window a candidate
        with np.errstate(over="ignore"):
            top = neg.norms[1].max() + np.einsum("ij,ij->i", pos, pos).max()
            slack = 2.0 * expansion_slack(top, L + 4)
        best = math.inf
        for b in blocks(len(pos), 2 * n):
            low = neg.expansion_minimum(pos[b])
            keep = (low <= low.min() + slack).any(axis=0)
            best = min(best, float(neg.minimum(pos[b][keep])[0].min()))
    else:
        best = min(float(neg.grid(pos[b]).min()) for b in blocks(len(pos), n * S))
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
        for name, low in (("m", 1), ("m_plus", 0), ("m_minus", 0), ("n", 1), ("delta_max", 0)):
            object.__setattr__(self, name, integer_at_least(name, getattr(self, name), low))
        if self.m_plus + self.m_minus != self.m:
            raise ParamError(
                f"m_plus + m_minus must equal m ({self.m_plus} + {self.m_minus} != {self.m})"
            )
        for name, low, strict in (("beta", 1, True), ("sigma", 0, True), ("gamma", 0, False),
                                  ("theta", 0, True), ("gap", 0, False)):
            value = real_at_least(name, getattr(self, name), low, strict=strict)
            object.__setattr__(self, name, value)


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def wmv_rate(gamma: float, sigma: float) -> float:
    """gamma - 4*sigma^2*gamma^2, the rate at which the voting bound falls with the gap."""
    return gamma - 4.0 * sigma**2 * gamma**2


def class_factor(theta: float, m_plus: int, m_minus: int, m: int) -> float:
    """theta*m+/m + m-/(theta*m), the voting bound's factor for the class balance."""
    return theta * m_plus / m + m_minus / (theta * m)


def wmv_bound(inputs: BoundInputs) -> float:
    """Misclassification bound for generalized weighted voting.

    class_factor * (2*delta_max+1) * n * exp(-wmv_rate * gap) + m^(1-beta).
    May exceed 1 (vacuous); returned unclamped.
    """
    factor = class_factor(inputs.theta, inputs.m_plus, inputs.m_minus, inputs.m)
    tail = _exp(-wmv_rate(inputs.gamma, inputs.sigma) * inputs.gap)
    return factor * (2 * inputs.delta_max + 1) * inputs.n * tail + inputs.m ** (1.0 - inputs.beta)


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

    [log(class_factor) + log(2*delta_max+1) + log n + log(2/delta)] / wmv_rate;
    ParamError unless delta, a failure probability, is in (0, 1) and wmv_rate
    is positive.
    """
    if not (0.0 < delta < 1.0):
        raise ParamError(f"delta must be in (0, 1), got {delta}")
    rate = wmv_rate(gamma, sigma)
    if not (rate > 0.0):
        raise ParamError(
            f"gamma - 4*sigma^2*gamma^2 must be positive, got {rate} "
            f"(gamma={gamma}, sigma={sigma})"
        )
    numerator = (
        math.log(class_factor(theta, m_plus, m_minus, m))
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
