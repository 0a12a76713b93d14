"""Voting and nearest-neighbor classifiers over shift-minimized distances.

Every classifier here is a thin caller of one engine, `core.ShiftWindows`: the
training windows (or, for the oracle, the sources) at every shift. Its `grid`
is the full (examples, shifts) distance grid, and its `minimum` the
per-example minimum over shifts, bound by GEMMs and verified, bit for bit the
grid's min and first argmin.
`_vote_dists` is the one rule for the exact distances a query votes with: the
minimum in `min` mode, every grid cell in `sum` mode and for the oracle; k-NN
and nearest neighbor read the minimum. Batches in `log_lambda_many` vote in
`min` mode unverified, on the GEMM form's minimum over shifts
(`expansion_minimum`, one GEMM per shift), and in `sum` mode on `_vote_dists`,
bit for bit as `gwmv_block` does.
`_log_votes` turns one class's distances into its log vote (through
`_logsumexp`) and `_vote_ratio` both classes' into the log ratio; `_tie_order`
ranks examples for k-NN, and nearest neighbor (`_nearest`) takes the first
example in that order; `_outcome` turns the votes into verdicts.

Each classifier scores a block of queries at once: `VotingKernel.min_dists_block`
takes a (P, T) block of query windows, `gwmv_block` and `knn_block` a (P, n)
block of voting distances, `verdict_and_nearest_block` and
`MapKernel.classify_block` a (P, T) block. Every vote is reduced along the last
axis of a C-ordered block, the accumulation order of a single 1-D row, so row p
of a block is bit for bit the verdict of query p alone; the per-series methods
are the blocks of one. A block of no queries gives empty results. `_queries`
checks every (P, T) block: a NaN or infinite observation raises ParamError
rather than voting.

The library calls `classify_gwmv`, `classify_knn`, `nearest_neighbor`,
`lambda_ratio` and `classify_map` get their kernel from `_kernel`, which keeps
the last VotingKernel and the last MapKernel built: repeated calls on the same
dataset or model object with equal params reuse it instead of restacking the
windows and recomputing their norms per call. A VotingKernel in turn keeps
the shift minimum of the last series object it scored (`min_dists`), so
`classify_gwmv` (min mode), `lambda_ratio`, `classify_knn` and
`nearest_neighbor` on one series compute it once, in any order.

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
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .core import Label, LabeledDataset, ShiftWindows, TimeSeries, VotingParams, blocks
from .core import integer_at_least
from .errors import ParamError
from .synth import LatentSourceModel

NEG_INF = float("-inf")


@dataclass(frozen=True)
class ClassificationOutcome:
    """Decision plus the log vote ratio and the per-class log votes behind it."""

    label: Label
    log_lambda: float
    per_class_log_votes: tuple[float, float]


class BlockOutcome(NamedTuple):
    """The verdicts of a block of P queries: (P,) arrays of labels (+1 or -1),
    log vote ratios and each class's log votes."""

    labels: np.ndarray
    log_lambda: np.ndarray
    per_class_log_votes: tuple[np.ndarray, np.ndarray]

    def row(self, p: int) -> ClassificationOutcome:
        """The verdict of query p."""
        pos, neg = self.per_class_log_votes
        label = Label.POSITIVE if self.labels[p] == 1 else Label.NEGATIVE
        return ClassificationOutcome(label, float(self.log_lambda[p]), (float(pos[p]), float(neg[p])))


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) along the last axis, overwriting a; -inf where it is empty or all -inf."""
    m = a.max(axis=-1, initial=NEG_INF)
    shift = np.where(m == NEG_INF, 0.0, m)
    a -= shift[..., None]
    with np.errstate(divide="ignore"):  # log(0): a class that casts no vote
        return shift + np.log(np.exp(a, out=a).sum(axis=-1))


def _log_votes(gamma, d, log_w=0.0) -> np.ndarray:
    """log of the exp(-gamma * d + log_w) votes summed along the last axis; at
    gamma = 0 every vote is exp(log_w), even where d is +inf."""
    if gamma == 0.0:
        d = np.zeros_like(d)  # 0 * inf would be NaN
    # gamma * d overflowing to inf is a zero vote, so numpy need not warn about it
    with np.errstate(over="ignore"):
        a = -gamma * d
    return _logsumexp(np.add(a, log_w, out=a))  # in place: one temporary of d's size


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
    """Example indices by distance along the last axis, then class +1 before -1,
    then insertion order.

    Examples are in insertion order with the positives first, so a stable sort
    by distance alone gives exactly this order.
    """
    return np.argsort(dmin, axis=-1, kind="stable")


class NearestBlock(NamedTuple):
    """The nearest examples of a block of P queries: (P,) arrays of example
    indices (insertion order), distances and minimizing shifts."""

    indices: np.ndarray
    distances: np.ndarray
    shifts: np.ndarray

    def row(self, p: int) -> tuple[int, float, int]:
        """Index, distance and shift of the example nearest to query p."""
        return int(self.indices[p]), float(self.distances[p]), int(self.shifts[p])


def _nearest(dmin: np.ndarray, shifts: np.ndarray) -> NearestBlock:
    """The first example in _tie_order along each row of (P, n) minimum
    distances and their shifts. That is the first minimizer, which argmin
    returns without a sort, since distances are never NaN."""
    idx = dmin.argmin(axis=-1)
    rows = np.arange(len(dmin))
    return NearestBlock(idx, dmin[rows, idx], shifts[rows, idx])


def _outcome(votes: tuple, log_threshold: float) -> BlockOutcome:
    """Label +1 iff the log vote ratio of _vote_ratio's votes reaches log_threshold."""
    log_lambda, pos, neg = votes
    return BlockOutcome(np.where(log_lambda >= log_threshold, 1, -1), log_lambda, (pos, neg))


def _block(D, width: int) -> np.ndarray:
    """D as a C-ordered (P, width) float64 block, so that each row's votes
    accumulate in the order of a 1-D row's; ParamError for another shape."""
    D = np.ascontiguousarray(D, dtype=np.float64)
    if D.ndim != 2 or D.shape[1] != width:
        raise ParamError(f"a block must have shape (P, {width}), got {D.shape}")
    return D


def _queries(Q, T: int) -> np.ndarray:
    """Q as a (P, T) _block of query windows; ParamError unless it is finite,
    since a NaN or inf observation has no distance to vote with."""
    Q = _block(Q, T)
    if not np.isfinite(Q).all():
        raise ParamError("observations must be finite")
    return Q


def _vote_dists(windows: ShiftWindows, Q: np.ndarray, shift_mode: str, dmin=None) -> np.ndarray:
    """The (P, width) distances the rows of a (P, T) block Q vote with: each
    series' exact minimum over shifts (dmin, when given) in min mode, every
    (series, shift) cell of the grid in sum mode."""
    if shift_mode == "sum":
        return windows.grid(Q).reshape(len(Q), math.prod(windows.views.shape[:2]))
    return windows.minimum(Q)[0].T if dmin is None else dmin


class VotingKernel:
    """Precomputed alignment windows for classifying many series against one dataset.

    Rows follow dataset insertion order (positives then negatives); shift j of
    row i covers time steps [1 + j - delta_max, T + j - delta_max].
    """

    def __init__(self, data: LabeledDataset, params: VotingParams):
        data.require_both_classes()
        self.data = data
        self.params = params
        self.n_pos = data.n_pos
        self.n = data.n
        # voting distances per example: its minimum, or one per shift
        self._per_example = 1 if params.shift_mode == "min" else 2 * params.delta_max + 1
        self.width = self.n * self._per_example  # voting distances per query
        self._last = (None, None, None)  # (series, dmin, shifts): min_dists' last result

    @cached_property
    def _windows(self) -> ShiftWindows:
        """The examples at every shift, stacked on first use: a kernel that only
        votes on distances it is given (gwmv_block, knn_block) never stacks
        them, and one whose examples lack the shifted range raises
        SupportError there. Threads that race on first use may each stack
        them; one of the equal results is kept."""
        p = self.params
        return ShiftWindows(self.data.examples(), p.T, -p.delta_max, p.delta_max)

    def shift_sq_dists(self, s: TimeSeries) -> np.ndarray:
        """(n, 2*delta_max+1) squared distances of s to every shifted window."""
        return self._windows.grid(s.window(1, self.params.T))

    def min_dists_block(self, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(P, n) per-example minimum distances and first minimizing shifts of
        the rows of a (P, T) block of query windows: row p is min_dists of a
        series whose [1, T] window is Q[p]."""
        dmin, j = self._windows.minimum(_queries(Q, self.params.T))
        return dmin.T, j.T + self._windows.first_shift

    def min_dists(self, s: TimeSeries) -> tuple[np.ndarray, np.ndarray]:
        """Per-example minimum distance and its first minimizing shift: exactly
        the min and first argmin of shift_sq_dists(s), without building it.

        The kernel keeps the last series it scored with its (read-only)
        results, so gwmv, knn, nearest and log_lambda on one series object
        compute the minimum once; any other object, even an equal copy,
        replaces it. Series values are read-only and the slot holds the series,
        so its id cannot be reused and the kept minimum is never stale. The
        slot is read and set as one tuple: threads that race here may each
        compute a minimum, never read another series'.
        """
        last = self._last
        if last[0] is not s:
            dmin, shifts = self.min_dists_block(s.window(1, self.params.T)[None])
            dmin, shifts = dmin[0], shifts[0]
            dmin.flags.writeable = shifts.flags.writeable = False
            last = self._last = (s, dmin, shifts)
        return last[1], last[2]

    def _votes(self, D: np.ndarray) -> tuple:
        """_vote_ratio of voting distances whose last axis runs over the examples
        (min mode) or over every (example, shift) cell (sum mode)."""
        split = self.n_pos * self._per_example
        return _vote_ratio(self.params.gamma, D[..., :split], D[..., split:])

    def gwmv_block(self, D) -> BlockOutcome:
        """Voting verdicts of a (P, n) block of per-example minimum distances
        (min mode), or of every (example, shift) cell in (P, n S) (sum mode)."""
        D = _block(D, self.width)
        return _outcome(self._votes(D), math.log(self.params.theta))

    def knn_block(self, D, k: int) -> BlockOutcome:
        """k-NN verdicts of a (P, n) block of per-example minimum distances.

        Each row votes with its k nearest examples (_tie_order), taken in
        insertion order. Rows that select the same number of positives vote as
        one rectangular block, so each row accumulates as it would alone. For
        k = 1 the one example is the first minimizer, which argmin returns
        without a sort (as in _nearest).
        """
        k = integer_at_least("k", k, 1)
        if k > self.n:
            raise ParamError(f"k={k} exceeds the dataset size n={self.n}")
        D = _block(D, self.n)
        if k == 1:
            selected = D.argmin(axis=-1)[:, None]
        else:
            selected = np.sort(_tie_order(D)[:, :k], axis=-1)  # back to insertion order
        d = D[np.arange(len(D))[:, None], selected]
        positives = (selected < self.n_pos).sum(axis=-1)
        votes = np.empty((3, len(D)))
        for c in set(positives.tolist()):
            rows = positives == c
            group = d[rows]
            votes[:, rows] = _vote_ratio(self.params.gamma, group[:, :c], group[:, c:])
        return _outcome(tuple(votes), math.log(self.params.theta))

    def _gwmv_from_dists(self, d: np.ndarray) -> ClassificationOutcome:
        return self.gwmv_block(d[None]).row(0)

    def _knn_from_dists(self, dmin: np.ndarray, k: int) -> ClassificationOutcome:
        """k-NN verdict from the per-example minimum distances."""
        return self.knn_block(dmin[None], k).row(0)

    def log_lambda(self, s: TimeSeries) -> float:
        return self.gwmv(s).log_lambda

    def gwmv(self, s: TimeSeries) -> ClassificationOutcome:
        """Voting verdict of s on the distances _vote_dists names: the kept
        min_dists in min mode, the grid in sum mode."""
        if self.params.shift_mode == "min":
            d = self.min_dists(s)[0]
        else:
            d = _vote_dists(self._windows, s.window(1, self.params.T)[None], "sum")[0]
        return self._gwmv_from_dists(d)

    def knn(self, s: TimeSeries, k: int) -> ClassificationOutcome:
        return self._knn_from_dists(self.min_dists(s)[0], k)

    def nearest(self, s: TimeSeries) -> tuple[int, float, int]:
        """Index (insertion order), distance, and shift of the nearest example."""
        dmin, shifts = self.min_dists(s)
        return _nearest(dmin[None], shifts[None]).row(0)

    def verdict_and_nearest_block(self, Q, k=None) -> tuple[BlockOutcome, NearestBlock]:
        """The verdicts of the rows of a (P, T) block of query windows (voting,
        or k-NN when k is given) and their nearest examples, from one block
        shift minimum: row p is verdict_and_nearest of a series whose [1, T]
        window is Q[p]."""
        Q = _queries(Q, self.params.T)
        dmin, shifts = self.min_dists_block(Q)
        if k is None:
            outcome = self.gwmv_block(_vote_dists(self._windows, Q, self.params.shift_mode, dmin))
        else:
            outcome = self.knn_block(dmin, k)
        return outcome, _nearest(dmin, shifts)

    def verdict_and_nearest(self, s: TimeSeries, k=None) -> tuple:
        """(gwmv(s), or knn(s, k) when k is given, and nearest(s)): row 0 of
        verdict_and_nearest_block."""
        outcome, nearest = self.verdict_and_nearest_block(s.window(1, self.params.T)[None], k)
        return outcome.row(0), nearest.row(0)

    def log_lambda_many(self, observations: np.ndarray) -> np.ndarray:
        """log vote ratio for each row of a (P, T) observation matrix.

        In min mode it votes on ShiftWindows.expansion_minimum, unverified, per
        core.blocks of 2 n rows, whose two (n, p) arrays so fit in BLOCK_VALUES.
        Each distance is within 2 eps_i (core.expansion_slack) of the exact
        minimum, and a class's log vote moves by at most gamma times its
        largest change, so a row is within 4 gamma max_i eps_i of gwmv's, plus
        log-sum-exp rounding. In sum mode it votes on _vote_dists, the exact
        grid, per core.blocks of width cells: bit for bit gwmv. Each row votes
        alone, along the last axis, so the blocks move no bit.
        """
        Q = _queries(observations, self.params.T)
        if self.params.shift_mode == "sum":
            width, distances = self.width, lambda q: _vote_dists(self._windows, q, "sum")
        else:
            width, distances = 2 * self.n, lambda q: self._windows.expansion_minimum(q).T
        out = np.empty(len(Q))
        for b in blocks(len(Q), width):
            out[b] = self._votes(distances(Q[b]))[0]
        return out


def log_vote_sum(examples: Sequence[TimeSeries], s: TimeSeries, params: VotingParams) -> float:
    """log of the summed exp(-gamma * d) votes cast by one class of examples."""
    if not examples:
        raise ParamError("examples must be non-empty")
    windows = ShiftWindows(examples, params.T, -params.delta_max, params.delta_max)
    dists = _vote_dists(windows, s.window(1, params.T)[None], params.shift_mode)[0]
    return float(_log_votes(params.gamma, dists))


# kernel class -> (dataset or model, params, kernel): the last kernel built
_kept: dict = {}


def _kernel(cls, source, params: VotingParams):
    """The cls kernel (VotingKernel or MapKernel) of source and params: the kept
    one if it was built for this very object and equal params, else a new one,
    which is then kept instead. Datasets and models are immutable (tuples of
    series with read-only values), so a kept kernel is never stale; a kept
    kernel holds its source, so no other object can reuse its id. Threads that
    race here may each build a kernel, and any one of them is kept: a lost
    slot costs a rebuild, never a wrong verdict."""
    kept = _kept.get(cls)
    if kept is None or kept[0] is not source or kept[1] != params:
        kept = _kept[cls] = (source, params, cls(source, params))
    return kept[2]


def lambda_ratio(s: TimeSeries, data: LabeledDataset, params: VotingParams) -> float:
    """log of the positive-to-negative vote ratio."""
    return _kernel(VotingKernel, data, params).log_lambda(s)


def classify_gwmv(
    s: TimeSeries, data: LabeledDataset, params: VotingParams
) -> ClassificationOutcome:
    """Generalized weighted majority voting: +1 iff the vote ratio is >= theta."""
    return _kernel(VotingKernel, data, params).gwmv(s)


def classify_knn(
    s: TimeSeries, data: LabeledDataset, params: VotingParams, k: int
) -> ClassificationOutcome:
    """Weighted voting restricted to the k nearest examples; k=1 is plain nearest-neighbor."""
    return _kernel(VotingKernel, data, params).knn(s, k)


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
        self.width = len(model.sources) * (params.delta_max + 1)  # cells each query votes with
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
        return self.classify_block(s.window(1, self.params.T)[None]).row(0)

    def classify_block(self, Q: np.ndarray) -> BlockOutcome:
        """Verdicts of the rows of a (P, T) block of query windows: row p is
        classify of a series whose [1, T] window is Q[p].

        The queries are walked in core.blocks of width cells each, so the two
        grids and the vote temporaries of a chunk hold at most BLOCK_VALUES
        values each; rows vote independently, so the chunks change no bit."""
        Q = _queries(Q, self.params.T)
        chunks = [self._votes(Q[b]) for b in blocks(len(Q), self.width)]
        votes = chunks[0] if len(chunks) == 1 else tuple(map(np.concatenate, zip(*chunks)))
        # decision threshold fixed at a ratio of 1; theta plays no role here
        return _outcome(votes, 0.0)

    def _votes(self, Q: np.ndarray) -> tuple:
        """_vote_ratio of the rows of a (P, T) block against both classes' grids."""
        pos, neg = (_vote_dists(w, Q, "sum") for w in (self._pos, self._neg))
        return _vote_ratio(self.params.gamma, pos, neg, self._logw_pos, self._logw_neg)


def classify_map(
    s: TimeSeries, sources: LatentSourceModel, params: VotingParams
) -> ClassificationOutcome:
    """Oracle posterior-ratio classifier; +1 iff the ratio is >= 1."""
    return _kernel(MapKernel, sources, params).classify(s)


def nearest_neighbor(
    s: TimeSeries, data: LabeledDataset, params: VotingParams
) -> tuple[TimeSeries, float, int, Label]:
    """Nearest training example, its distance, minimizing shift, and label."""
    idx, dist, shift = _kernel(VotingKernel, data, params).nearest(s)
    example = data.examples()[idx]
    label = Label.POSITIVE if idx < data.n_pos else Label.NEGATIVE
    return example, dist, shift, label
