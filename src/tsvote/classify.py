"""Voting and nearest-neighbor classifiers over shift-minimized distances.

Every classifier here is a thin caller of one engine, `core.ShiftWindows`: the
training windows (or, for the oracle, the sources) at every shift. Its `grid`
is the full (examples, shifts) distance grid, its `expansion` the same
distances from one GEMM within a stated bound, and its `minimum` the
per-example minimum over shifts, bit for bit the grid's min and first argmin.
`min`-mode voting, k-NN and nearest neighbor read the minimum; `sum` mode and
the oracle, which vote with every cell, read the grid; batches in
`log_lambda_many` vote on the expansion itself.
`_log_votes` turns one class's distances into its log vote (through
`_logsumexp`) and `_vote_ratio` both classes' into the log ratio; `_tie_order`
ranks examples for k-NN and nearest neighbor; `_outcome` turns the votes into a
verdict.

All vote aggregation happens in log space with max-subtraction: gamma times a
squared distance routinely reaches the thousands, where naive exponentiation
underflows to a 0/0 ratio. A squared distance or gamma * distance overflowing
to inf is a vote of exactly zero, except at gamma = 0, where every vote is 1; a
ratio that is still undefined (both classes' votes are zero) raises ParamError
instead of becoming a verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Label, LabeledDataset, ShiftWindows, TimeSeries, VotingParams
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


def _log_votes(gamma, d, log_w=0.0) -> np.ndarray:
    """log of the exp(-gamma * d + log_w) votes summed along axis 0; at gamma = 0
    every vote is exp(log_w), even where d is +inf."""
    if gamma == 0.0:
        d = np.zeros_like(d)  # 0 * inf would be NaN
    # gamma * d overflowing to inf is a zero vote, so numpy need not warn about it
    with np.errstate(over="ignore"):
        return _logsumexp(-gamma * d + log_w)


def _vote_ratio(gamma, pos_d, neg_d, pos_log_w=0.0, neg_log_w=0.0) -> tuple:
    """(log ratio, positive log vote, negative log vote) of the two classes'
    _log_votes. A NaN ratio raises ParamError, since no threshold can judge it.
    """
    pos, neg = _log_votes(gamma, pos_d, pos_log_w), _log_votes(gamma, neg_d, neg_log_w)
    with np.errstate(invalid="ignore"):  # two zero votes give a NaN ratio, raised below
        ratio = pos - neg
    if np.isnan(ratio).any():
        raise ParamError(
            "log vote ratio is undefined: both classes' votes are zero in floating point "
            "(a squared distance or gamma * distance overflowed); rescale the series "
            "or use a smaller gamma"
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
        self._windows = ShiftWindows(data.examples(), params.T, -params.delta_max, params.delta_max)
        self.n_pos = data.n_pos
        self.n = data.n

    def shift_sq_dists(self, s: TimeSeries) -> np.ndarray:
        """(n, 2*delta_max+1) squared distances of s to every shifted window."""
        return self._windows.grid(s.window(1, self.params.T))

    def min_dists(self, s: TimeSeries) -> tuple[np.ndarray, np.ndarray]:
        """Per-example minimum distance and its first minimizing shift: exactly
        the min and first argmin of shift_sq_dists(s), without building it."""
        dmin, j = self._windows.minimum(s.window(1, self.params.T)[None], 1)
        return dmin[:, 0], j[:, 0] + self._windows.first_shift

    def _vote_dists(self, s: TimeSeries, dmin=None) -> np.ndarray:
        """The distances s votes with along axis 0 (see _votes): its per-example
        minima (dmin when given) in min mode, every grid cell in sum mode."""
        if self.params.shift_mode == "sum":
            return _class_dists(self.shift_sq_dists(s), "sum")
        return self.min_dists(s)[0] if dmin is None else dmin

    def _votes(self, d: np.ndarray) -> tuple:
        """_vote_ratio of voting distances whose axis 0 runs over the examples
        (min mode) or over every (example, shift) cell (sum mode)."""
        per_example = 1 if self.params.shift_mode == "min" else self._windows.views.shape[1]
        split = self.n_pos * per_example
        return _vote_ratio(self.params.gamma, d[:split], d[split:])

    def _gwmv_from_dists(self, d: np.ndarray) -> ClassificationOutcome:
        return _outcome(self._votes(d), math.log(self.params.theta))

    def _knn_from_dists(self, dmin: np.ndarray, k: int) -> ClassificationOutcome:
        """k-NN verdict from the per-example minimum distances."""
        k = int(k)
        if k < 1:
            raise ParamError(f"k must be >= 1, got {k}")
        if k > self.n:
            raise ParamError(f"k={k} exceeds the dataset size n={self.n}")
        selected = np.sort(_tie_order(dmin)[:k])  # back to insertion order for stable accumulation
        d = dmin[selected]
        split = int(np.searchsorted(selected, self.n_pos))
        votes = _vote_ratio(self.params.gamma, d[:split], d[split:])
        return _outcome(votes, math.log(self.params.theta))

    def _nearest_from_min(self, dmin: np.ndarray, shifts: np.ndarray) -> tuple[int, float, int]:
        idx = int(_tie_order(dmin)[0])
        return idx, float(dmin[idx]), int(shifts[idx])

    def log_lambda(self, s: TimeSeries) -> float:
        return self.gwmv(s).log_lambda

    def gwmv(self, s: TimeSeries) -> ClassificationOutcome:
        return self._gwmv_from_dists(self._vote_dists(s))

    def knn(self, s: TimeSeries, k: int) -> ClassificationOutcome:
        return self._knn_from_dists(self.min_dists(s)[0], k)

    def nearest(self, s: TimeSeries) -> tuple[int, float, int]:
        """Index (insertion order), distance, and shift of the nearest example."""
        return self._nearest_from_min(*self.min_dists(s))

    def verdict_and_nearest(self, s: TimeSeries, k=None) -> tuple:
        """(gwmv(s), or knn(s, k) when k is given, and nearest(s)) from one
        shift minimum."""
        dmin, shifts = self.min_dists(s)
        if k is None:
            outcome = self._gwmv_from_dists(self._vote_dists(s, dmin))
        else:
            outcome = self._knn_from_dists(dmin, k)
        return outcome, self._nearest_from_min(dmin, shifts)

    def log_lambda_many(self, observations: np.ndarray) -> np.ndarray:
        """log vote ratio for each row of a (P, T) observation matrix.

        Votes on ShiftWindows.expansion clamped at 0, unverified. Each distance
        is then within 2 eps_i of the direct path's, and a class's log vote moves
        by at most gamma times the largest change of its distances, so a row is
        within 4 gamma max_i eps_i of gwmv's log ratio, plus log-sum-exp rounding.
        """
        obs = np.asarray(observations, dtype=np.float64)
        if obs.ndim != 2 or obs.shape[1] != self.params.T:
            raise ParamError(f"observations must have shape (P, {self.params.T})")
        if not np.isfinite(obs).all():
            raise ParamError("observations must be finite")
        if obs.shape[0] == 0:
            return np.empty(0)
        d = np.maximum(self._windows.expansion(obs)[0], 0.0)
        return self._votes(_class_dists(d, self.params.shift_mode))[0]


def log_vote_sum(examples: Sequence[TimeSeries], s: TimeSeries, params: VotingParams) -> float:
    """log of the summed exp(-gamma * d) votes cast by one class of examples."""
    if not examples:
        raise ParamError("examples must be non-empty")
    windows = ShiftWindows(examples, params.T, -params.delta_max, params.delta_max)
    q = s.window(1, params.T)
    if params.shift_mode == "min":
        dists = windows.minimum(q[None], 1)[0][:, 0]
    else:
        dists = _class_dists(windows.grid(q), "sum")
    return float(_log_votes(params.gamma, dists))


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
        self._pos = ShiftWindows(pos, params.T, 0, params.delta_max)
        self._neg = ShiftWindows(neg, params.T, 0, params.delta_max)
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
        pos, neg = (w.grid(sw).ravel() for w in (self._pos, self._neg))
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
