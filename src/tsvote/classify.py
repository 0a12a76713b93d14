"""Voting and nearest-neighbor classifiers over shift-minimized distances.

Every classifier here is a thin caller of one engine. Distance grids come from
`core.shifted_windows` and `core.sq_dists` (batches in `log_lambda_many` use the
inner-product expansion instead); `_vote_ratio` turns both classes' distances
into their log votes (through `_logsumexp`) and the log ratio; `_tie_order`
ranks examples for k-NN and nearest neighbor; `_outcome` turns the votes into a
verdict.

All vote aggregation happens in log space with max-subtraction: gamma times a
squared distance routinely reaches the thousands, where naive exponentiation
underflows to a 0/0 ratio. gamma * distance overflowing to inf is a vote of
exactly zero; a ratio that is still undefined (both classes' votes are zero)
raises ParamError instead of becoming a verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Label, LabeledDataset, TimeSeries, VotingParams, shifted_windows, sq_dists
from .errors import ParamError
from .synth import LatentSourceModel

NEG_INF = float("-inf")


@dataclass(frozen=True)
class ClassificationOutcome:
    """Decision plus the log vote ratio and the per-class log votes behind it."""

    label: Label
    log_lambda: float
    per_class_log_votes: tuple[float, float]


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) along axis 0; -inf where that axis is empty or all -inf."""
    m = a.max(axis=0, initial=NEG_INF)
    shift = np.where(m == NEG_INF, 0.0, m)
    with np.errstate(divide="ignore"):  # log(0): a class that casts no vote
        return shift + np.log(np.exp(a - shift).sum(axis=0))


def _class_dists(dists: np.ndarray, shift_mode: str) -> np.ndarray:
    """The voting distances of an (examples, shifts[, batch]) grid along axis 0:
    each example's minimum over shifts, or every (example, shift) pair."""
    if shift_mode == "min":
        return dists.min(axis=1)
    return dists.reshape(-1, *dists.shape[2:])


def _vote_ratio(gamma, pos_d, neg_d, pos_log_w=0.0, neg_log_w=0.0) -> tuple:
    """(log ratio, positive log vote, negative log vote); each class casts
    exp(-gamma * d + log_w) votes, summed along axis 0. A NaN ratio raises
    ParamError, since no threshold can judge it.
    """
    # gamma * d overflowing to inf is a zero vote and two zero votes give a NaN
    # ratio; both are handled here, so numpy need not warn about them
    with np.errstate(over="ignore", invalid="ignore"):
        pos = _logsumexp(-gamma * pos_d + pos_log_w)
        neg = _logsumexp(-gamma * neg_d + neg_log_w)
        ratio = pos - neg
    if np.isnan(ratio).any():
        raise ParamError(
            "log vote ratio is undefined: both classes' votes are zero in floating point "
            "(gamma * distance overflowed); use a smaller gamma"
        )
    return ratio, pos, neg


def _tie_order(dmin: np.ndarray) -> np.ndarray:
    """Example indices by distance, then class +1 before -1, then insertion order.

    Rows are in insertion order with the positives first, so a stable sort by
    distance alone gives exactly this order.
    """
    return np.argsort(dmin, kind="stable")


def _outcome(votes: tuple, log_threshold: float) -> ClassificationOutcome:
    """Label +1 iff the log vote ratio of _vote_ratio's votes reaches log_threshold."""
    log_lambda, pos, neg = (float(v) for v in votes)
    label = Label.POSITIVE if log_lambda >= log_threshold else Label.NEGATIVE
    return ClassificationOutcome(label, log_lambda, (pos, neg))


class VotingKernel:
    """Precomputed alignment windows for classifying many series against one dataset.

    Rows follow dataset insertion order (positives then negatives); shift j of
    row i covers time steps [1 + j - delta_max, T + j - delta_max].
    """

    def __init__(self, data: LabeledDataset, params: VotingParams):
        data.require_both_classes()
        self.data = data
        self.params = params
        dmax = params.delta_max
        self._views = shifted_windows(data.examples(), params.T, -dmax, dmax)
        self.n_pos = data.n_pos
        self.n = data.n

    def shift_sq_dists(self, s: TimeSeries) -> np.ndarray:
        """(n, 2*delta_max+1) squared distances of s to every shifted window."""
        return sq_dists(self._views, s.window(1, self.params.T))

    def _min_from_dists(self, dists: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        j = dists.argmin(axis=1)  # argmin returns the first minimum: ascending shifts
        return dists[np.arange(self.n), j], j - self.params.delta_max

    def min_dists(self, s: TimeSeries) -> tuple[np.ndarray, np.ndarray]:
        """Per-example minimum distance and its first minimizing shift."""
        return self._min_from_dists(self.shift_sq_dists(s))

    def _votes(self, dists: np.ndarray) -> tuple:
        g, mode = self.params.gamma, self.params.shift_mode
        return _vote_ratio(
            g, _class_dists(dists[: self.n_pos], mode), _class_dists(dists[self.n_pos :], mode)
        )

    def _gwmv_from_dists(self, dists: np.ndarray) -> ClassificationOutcome:
        return _outcome(self._votes(dists), math.log(self.params.theta))

    def _knn_from_dists(self, dists: np.ndarray, k: int) -> ClassificationOutcome:
        k = int(k)
        if k < 1:
            raise ParamError(f"k must be >= 1, got {k}")
        if k > self.n:
            raise ParamError(f"k={k} exceeds the dataset size n={self.n}")
        dmin = dists.min(axis=1)
        selected = np.sort(_tie_order(dmin)[:k])  # back to insertion order for stable accumulation
        d = dmin[selected]
        split = int(np.searchsorted(selected, self.n_pos))
        votes = _vote_ratio(self.params.gamma, d[:split], d[split:])
        return _outcome(votes, math.log(self.params.theta))

    def _nearest_from_dists(self, dists: np.ndarray) -> tuple[int, float, int]:
        dmin, shifts = self._min_from_dists(dists)
        idx = int(_tie_order(dmin)[0])
        return idx, float(dmin[idx]), int(shifts[idx])

    def log_lambda(self, s: TimeSeries) -> float:
        return self.gwmv(s).log_lambda

    def gwmv(self, s: TimeSeries) -> ClassificationOutcome:
        return self._gwmv_from_dists(self.shift_sq_dists(s))

    def knn(self, s: TimeSeries, k: int) -> ClassificationOutcome:
        return self._knn_from_dists(self.shift_sq_dists(s), k)

    def nearest(self, s: TimeSeries) -> tuple[int, float, int]:
        """Index (insertion order), distance, and shift of the nearest example."""
        return self._nearest_from_dists(self.shift_sq_dists(s))

    def log_lambda_many(self, observations: np.ndarray) -> np.ndarray:
        """log vote ratio for each row of a (P, T) observation matrix.

        Uses the inner-product expansion of the squared distance, so values can
        differ from the direct path at floating-point level only.
        """
        obs = np.asarray(observations, dtype=np.float64)
        if obs.ndim != 2 or obs.shape[1] != self.params.T:
            raise ParamError(f"observations must have shape (P, {self.params.T})")
        flat = self._views.reshape(-1, self.params.T)  # (n * n_shifts, T)
        sq = np.einsum("ij,ij->i", flat, flat)
        cross = flat @ obs.T  # (n * n_shifts, P)
        d = np.maximum(sq[:, None] - 2.0 * cross + np.einsum("ij,ij->i", obs, obs)[None, :], 0.0)
        d = d.reshape(self.n, self._views.shape[1], -1)
        return self._votes(d)[0]


def log_vote_sum(examples: Sequence[TimeSeries], s: TimeSeries, params: VotingParams) -> float:
    """log of the summed exp(-gamma * d) votes cast by one class of examples."""
    if not examples:
        raise ParamError("examples must be non-empty")
    views = shifted_windows(examples, params.T, -params.delta_max, params.delta_max)
    dists = _class_dists(sq_dists(views, s.window(1, params.T)), params.shift_mode)
    return float(_logsumexp(-params.gamma * dists))


def lambda_ratio(s: TimeSeries, data: LabeledDataset, params: VotingParams) -> float:
    """log of the positive-to-negative vote ratio."""
    return VotingKernel(data, params).log_lambda(s)


def classify_gwmv(
    s: TimeSeries, data: LabeledDataset, params: VotingParams
) -> ClassificationOutcome:
    """Generalized weighted majority voting: +1 iff the vote ratio is >= theta."""
    return VotingKernel(data, params).gwmv(s)


def classify_knn(
    s: TimeSeries, data: LabeledDataset, params: VotingParams, k: int
) -> ClassificationOutcome:
    """Weighted voting restricted to the k nearest examples; k=1 is plain nearest-neighbor."""
    return VotingKernel(data, params).knn(s, k)


class MapKernel:
    """Posterior-ratio classifier with oracle access to the true sources.

    Sums votes over sources and over the one-sided shift range {0..delta_max};
    with non-uniform source weights the weights enter as log-prior terms.
    """

    def __init__(self, model: LatentSourceModel, params: VotingParams):
        pos = [src for src, lab in model.sources if lab == Label.POSITIVE]
        neg = [src for src, lab in model.sources if lab == Label.NEGATIVE]
        if not pos or not neg:
            raise ParamError("the model must contain sources of both labels")
        self.params = params
        self._views_pos = shifted_windows(pos, params.T, 0, params.delta_max)
        self._views_neg = shifted_windows(neg, params.T, 0, params.delta_max)
        if model.weights is not None:
            # one log weight per (source, shift) pair, in flattened distance order
            n_shifts = params.delta_max + 1
            labels = np.repeat([int(lab) for _, lab in model.sources], n_shifts)
            with np.errstate(divide="ignore"):  # zero weight: a source that never votes
                logw = np.repeat(np.log(np.asarray(model.weights, dtype=np.float64)), n_shifts)
            self._logw_pos, self._logw_neg = logw[labels == 1], logw[labels == -1]
        else:
            self._logw_pos = self._logw_neg = 0.0

    def log_lambda(self, s: TimeSeries) -> float:
        return self.classify(s).log_lambda

    def classify(self, s: TimeSeries) -> ClassificationOutcome:
        sw = s.window(1, self.params.T)
        pos, neg = (sq_dists(v, sw).ravel() for v in (self._views_pos, self._views_neg))
        votes = _vote_ratio(self.params.gamma, pos, neg, self._logw_pos, self._logw_neg)
        # decision threshold fixed at a ratio of 1; theta plays no role here
        return _outcome(votes, 0.0)


def classify_map(
    s: TimeSeries, sources: LatentSourceModel, params: VotingParams
) -> ClassificationOutcome:
    """Oracle posterior-ratio classifier; +1 iff the ratio is >= 1."""
    return MapKernel(sources, params).classify(s)


def nearest_neighbor(
    s: TimeSeries, data: LabeledDataset, params: VotingParams
) -> tuple[TimeSeries, float, int, Label]:
    """Nearest training example, its distance, minimizing shift, and label."""
    kernel = VotingKernel(data, params)
    idx, dist, shift = kernel.nearest(s)
    example = data.examples()[idx]
    label = Label.POSITIVE if idx < data.n_pos else Label.NEGATIVE
    return example, dist, shift, label
