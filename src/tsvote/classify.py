"""Voting and nearest-neighbor classifiers over shift-minimized distances.

Every classifier here is a thin caller of one engine, `core.ShiftWindows`: the
training windows (or, for the oracle, the sources) at every shift. Its `grid`
is the full (examples, shifts) distance grid, and its `minimum` the
per-example minimum over shifts, bound by GEMMs and verified, bit for bit the
grid's min and first argmin.
`_vote_dists` is the one rule for the exact distances a query votes with: the
minimum in `min` mode, every grid cell in `sum` mode and for the oracle; k-NN
and nearest neighbor read the minimum. `min_dists`, `min_dists_block` and so
the library calls verify every example's minimum for every query;
`verdict_and_nearest_block` (the `classify` command), for k-NN and for its
nearest example, verifies only the examples whose bounds can place them among
a query's k nearest (`ShiftWindows.minimum` with k), which gives the same
verdicts and nearest examples bit for bit. Traces (`log_lambda_many`) take two
steps: `trace_distances` gives each block's distances, in `min` mode the GEMM
form's minimum over shifts, unverified (`expansion_minimum`, one GEMM per
shift), and in `sum` mode `_vote_dists`, bit for bit as `gwmv_block` votes;
`trace_votes` votes one block at every gamma of a sweep, which so shares the
distances and each class's row minima.
`_log_votes` turns one class's distances into its log vote (through
`_logsumexp`) and `_vote_ratio` both classes' into the log ratio, which
`require_defined` refuses where it is NaN. Labels
can also be certified without exact distances: `_certified` decides a voting
or oracle label from distance bounds and their radii where they prove it,
`_certified_nearest` a nearest-neighbor label. `VotingKernel.min_bounds_block`
gives the bounds of the per-example minima (`ShiftWindows.minimum_bound`);
`certified_gwmv_block`, `certified_nn_block` and `MapKernel.certified_block`
(on every cell's bound, `ShiftWindows.grid_bound`) return the labels and
which rows are decided. The error curves use them and score only the
undecided rows through the exact blocks; the library calls, `classify` and
`detect` report log ratios and stay on the exact paths. `_tie_order` is the
one selection of examples by distance: k-NN takes its first k, nearest
neighbor (`_nearest`) its first; `_outcome` turns the votes into verdicts.

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


def _logsumexp(a: np.ndarray, top=None) -> np.ndarray:
    """log(sum(exp(a))) along the last axis, overwriting a; -inf where it is
    empty or all -inf. top, when given, is a's maximum along that axis."""
    m = a.max(axis=-1, initial=NEG_INF) if top is None else top
    shift = np.where(m == NEG_INF, 0.0, m)
    a -= shift[..., None]
    with np.errstate(divide="ignore"):  # log(0): a class that casts no vote
        return shift + np.log(np.exp(a, out=a).sum(axis=-1))


def _log_votes(gamma, d, log_w=None, d_low=None) -> np.ndarray:
    """log of the exp(-gamma * d + log_w) votes summed along the last axis
    (log_w None: no weights); at gamma = 0 every vote is exp(log_w), even
    where d is +inf. d_low, when given, is d's minimum along that axis
    (initial +inf); without weights, -gamma * d_low is then the largest
    exponent, bit for bit, as rounding is monotone, so it need not be searched."""
    if gamma == 0.0:
        d, d_low = np.zeros_like(d), None  # 0 * inf would be NaN
    # gamma * d overflowing to inf is a zero vote, so numpy need not warn about it
    with np.errstate(over="ignore"):
        a = -gamma * d
        top = None if d_low is None or log_w is not None else -gamma * d_low
    if log_w is not None:
        np.add(a, log_w, out=a)  # in place: one temporary of d's size
    return _logsumexp(a, top)


def _log_ratio(gamma, pos_d, neg_d, pos_log_w=None, neg_log_w=None, lows=(None, None)) -> tuple:
    """(log ratio, positive log vote, negative log vote) of the two classes'
    _log_votes (lows: their d_low); the ratio is NaN where both votes are zero."""
    pos = _log_votes(gamma, pos_d, pos_log_w, lows[0])
    neg = _log_votes(gamma, neg_d, neg_log_w, lows[1])
    with np.errstate(invalid="ignore"):
        return pos - neg, pos, neg


def require_defined(log_lambda: np.ndarray) -> np.ndarray:
    """log_lambda, unless one of its log vote ratios is NaN, which raises
    ParamError, since no threshold can judge it."""
    if np.isnan(log_lambda).any():
        raise ParamError(
            "log vote ratio is undefined: both classes' votes are zero in floating point "
            "(a squared distance or gamma * distance overflowed); rescale the series "
            "or use a smaller gamma"
        )
    return log_lambda


def _vote_ratio(gamma, pos_d, neg_d, pos_log_w=None, neg_log_w=None) -> tuple:
    """_log_ratio, whose NaN ratio raises ParamError (require_defined)."""
    ratio, pos, neg = _log_ratio(gamma, pos_d, neg_d, pos_log_w, neg_log_w)
    return require_defined(ratio), pos, neg


def _classes(D: np.ndarray, split: int) -> tuple:
    """The positive and negative parts of values along the last axis, positives
    first: the examples, sources or their cells; the negatives start at split."""
    return D[..., :split], D[..., split:]


def _certified(gamma, pos_d, neg_d, pos_r, neg_r, log_threshold, pos_log_w=None, neg_log_w=None):
    """(labels, decided): _outcome's (P,) labels of the _log_ratio of
    distance bounds pos_d and neg_d, and where each is certified to be the
    label that _vote_ratio of the exact distances gives, when every exact
    distance of a class lies within that class's (P,) radius, pos_r or neg_r,
    of its bound. Rows that are not decided (their votes, bounds or radius
    not finite among them) are for the exact path; this never raises.

    A row is decided when its computed log ratio L~ is further than
        rho = g + 64 u (n + 4 + |pos~| + |neg~| + g),   g = gamma (pos_r + neg_r)
    from log_threshold, with u the unit roundoff, n the number of votes and
    pos~, neg~ the computed log votes; the exact path's computed ratio L is
    then on the same side. In real arithmetic a class's log-sum-exp of
    -gamma d + log w moves by at most gamma times the largest change of its d
    (it is 1-Lipschitz in the max norm), so the ratios of the exact distances
    and of the bounds are within g. Each computed ratio is within
    u (4 |pos| + 4 |neg| + 15 n + 10) of its real one: for one class of k
    votes a_i with largest M (log w <= 0, so |gamma d_i| <= |a_i|),
    -gamma d and + log w round by u |a_i| each and a_i - M by u (M - a_i),
    which move the log-sum-exp by u times their softmax average, at most
    2 |M| + 2 k / e + k / e; exp (within 3 ulp = 6u) by 6u; the pairwise
    sum of k positive terms by (k - 1) u (1 + O(u)); log of that sum, in
    [1, k] (within 4 ulp), by 8u log k; the final add by u (|M| + log k);
    and |M| <= |L| + log k, log k <= k. The subtraction adds
    u (|pos| + |neg|). The exact path's votes are within g of pos~ and neg~,
    so both paths together stay within 30 u (n + 1 + |pos~| + |neg~| + g),
    which rho's 64 u term covers with room for the second-order terms and
    rho's own rounding.
    A class whose exact votes all overflow to zero (gamma d beyond the
    largest float F) has bound votes within g + log k of -F, and then
    64 u F alone exceeds what would let the bounds decide against the
    infinite exact ratio; a row whose exact votes both overflow, which
    raises on the exact path, is therefore never decided.
    """
    log_lambda, pos, neg = _log_ratio(gamma, pos_d, neg_d, pos_log_w, neg_log_w)
    n, u = pos_d.shape[-1] + neg_d.shape[-1], np.finfo(np.float64).eps / 2
    # a bound's inf radius (an overflowing norm), or an infinite vote, gives an
    # infinite or NaN rho, and no row is decided by that
    with np.errstate(invalid="ignore", over="ignore"):
        g = gamma * (pos_r + neg_r)
        rho = g + 64.0 * u * (n + 4 + np.abs(pos) + np.abs(neg) + g)
        decided = np.isfinite(rho) & (np.abs(log_lambda - log_threshold) > rho)
    return np.where(log_lambda >= log_threshold, 1, -1), decided


def _certified_nearest(gamma, D: np.ndarray, R: np.ndarray, n_pos: int) -> tuple:
    """(labels, decided): the (P,) labels of the nearest example of (P, n)
    distance bounds D whose exact distances lie within R, the positives in
    the first n_pos columns, and where each is certified to be knn_block's
    label for k = 1 on the exact distances; this never raises.

    A row is decided when one class's smallest upper bound D + R lies
    strictly below the other class's smallest lower bound D - R: that
    class's exact minimum is then below every exact distance of the other,
    so the first minimizer is in it whatever the tie order. An exact tie is
    left to the exact path, which keeps its positive-first order. gamma times
    that upper bound must be finite too, since the exact path raises where
    the nearest vote overflows."""
    (pos_up, pos_low), (neg_up, neg_low) = (
        (np.add(D[:, c], R[:, c]).min(axis=1), np.subtract(D[:, c], R[:, c]).min(axis=1))
        for c in (slice(None, n_pos), slice(n_pos, None))
    )
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(gamma * np.minimum(pos_up, neg_up))
    positive = pos_up < neg_low
    return np.where(positive, 1, -1), finite & (positive | (neg_up < pos_low))


def _tie_order(D: np.ndarray, k=None) -> np.ndarray:
    """Example indices by distance along the last axis, then class +1 before -1,
    then insertion order; with k, the first k of them. Examples are in
    insertion order with the positives first, so a stable sort by distance
    alone gives exactly this order; its first is the first minimizer, which
    argmin returns without a sort (k = 1), since distances are never NaN."""
    if k == 1:
        return D.argmin(axis=-1)[..., None]
    order = np.argsort(D, axis=-1, kind="stable")
    return order if k is None else order[..., :k]


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
    distances and their shifts."""
    idx = _tie_order(dmin, 1)[:, 0]
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
        self._split = self.n_pos * self._per_example  # the first negative's column
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
        return self._minimum(_queries(Q, self.params.T))

    def _minimum(self, Q: np.ndarray, k=None) -> tuple[np.ndarray, np.ndarray]:
        """min_dists_block of a block Q that _queries has checked; with k,
        ShiftWindows.minimum's: exact for every example that can be among a
        row's k nearest, +inf for the others."""
        windows = self._windows
        dmin, j = windows.minimum(Q, k=k)
        return dmin.T, j.T + windows.first_shift

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

    def min_bounds_block(self, Q) -> tuple[np.ndarray, np.ndarray]:
        """(P, n) bounds on min_dists_block(Q)'s distances and their radii
        (ShiftWindows.minimum_bound), the inputs of the certified blocks."""
        low, radius = self._windows.minimum_bound(_queries(Q, self.params.T))
        return low.T, radius.T

    def certified_gwmv_block(self, D, R) -> tuple[np.ndarray, np.ndarray]:
        """(labels, decided): gwmv_block's (P,) labels of the exact voting
        distances where decided, from bounds D on them and radii R
        (min_bounds_block in min mode) through _certified."""
        D, R = _block(D, self.width), _block(R, self.width)
        radii = (r.max(axis=1) for r in _classes(R, self._split))
        return _certified(self.params.gamma, *_classes(D, self._split), *radii,
                          math.log(self.params.theta))

    def certified_nn_block(self, D, R) -> tuple[np.ndarray, np.ndarray]:
        """(labels, decided): knn_block(·, 1)'s (P,) labels of the exact (P, n)
        minimum distances where decided, from bounds D on them and radii R
        (min_bounds_block) through _certified_nearest."""
        D, R = _block(D, self.n), _block(R, self.n)
        return _certified_nearest(self.params.gamma, D, R, self.n_pos)

    def _neighbours(self, k) -> int:
        """k as an int; ParamError unless it is an integer in [1, n]."""
        k = integer_at_least("k", k, 1)
        if k > self.n:
            raise ParamError(f"k={k} exceeds the dataset size n={self.n}")
        return k

    def gwmv_block(self, D) -> BlockOutcome:
        """Voting verdicts of a (P, n) block of per-example minimum distances
        (min mode), or of every (example, shift) cell in (P, n S) (sum mode)."""
        D = _block(D, self.width)
        votes = _vote_ratio(self.params.gamma, *_classes(D, self._split))
        return _outcome(votes, math.log(self.params.theta))

    def knn_block(self, D, k: int) -> BlockOutcome:
        """k-NN verdicts of a (P, n) block of per-example minimum distances.

        Each row votes with its k nearest examples (_tie_order), taken in
        insertion order. Rows that select the same number of positives vote as
        one rectangular block, so each row accumulates as it would alone.
        """
        k = self._neighbours(k)
        D = _block(D, self.n)
        selected = np.sort(_tie_order(D, k), axis=-1)  # back to insertion order
        d = D[np.arange(len(D))[:, None], selected]
        positives = (selected < self.n_pos).sum(axis=-1)
        votes = np.empty((3, len(D)))
        for c in set(positives.tolist()):
            rows = positives == c
            group = d[rows]
            votes[:, rows] = _vote_ratio(self.params.gamma, *_classes(group, c))
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
        window is Q[p].

        Only min-mode voting reads every example's minimum. k-NN and the
        nearest example read a row's k nearest (1 nearest), so the minimum
        verifies only the examples that can be among them
        (ShiftWindows.minimum with k), and knn_block and _nearest read the
        same exact values, bit for bit, as from the full minimum."""
        Q = _queries(Q, self.params.T)
        if k is not None:
            k = self._neighbours(k)  # before the engine runs
            dmin, shifts = self._minimum(Q, k)
            return self.knn_block(dmin, k), _nearest(dmin, shifts)
        mode = self.params.shift_mode
        dmin, shifts = self._minimum(Q, None if mode == "min" else 1)
        return self.gwmv_block(_vote_dists(self._windows, Q, mode, dmin)), _nearest(dmin, shifts)

    def verdict_and_nearest(self, s: TimeSeries, k=None) -> tuple:
        """(gwmv(s), or knn(s, k) when k is given, and nearest(s)): row 0 of
        verdict_and_nearest_block."""
        outcome, nearest = self.verdict_and_nearest_block(s.window(1, self.params.T)[None], k)
        return outcome.row(0), nearest.row(0)

    def trace_distances(self, observations: np.ndarray):
        """An iterator of (b, D) for each core.blocks slice b of a (P, T)
        observation matrix: D holds the distances the rows observations[b]
        vote with. The matrix is checked (_queries) at the call, before any
        block is computed.

        In min mode D is the (p, n) ShiftWindows.expansion_minimum, unverified,
        per blocks of 2 n rows, whose two (n, p) arrays so fit in BLOCK_VALUES.
        Each distance is within 2 eps_i (core.expansion_slack) of the exact
        minimum, and a class's log vote moves by at most gamma times its
        largest change, so a row's ratio is within 4 gamma max_i eps_i of
        gwmv's, plus log-sum-exp rounding. In sum mode D is _vote_dists, the
        exact grid, per blocks of width cells. The GEMMs round by block, so
        callers that compare traces keep these blocks; the votes of a row do
        not depend on the others.
        """
        Q = _queries(observations, self.params.T)
        if self.params.shift_mode == "sum":
            width, distances = self.width, lambda q: _vote_dists(self._windows, q, "sum")
        else:
            width, distances = 2 * self.n, lambda q: self._windows.expansion_minimum(q).T
        return ((b, distances(Q[b])) for b in blocks(len(Q), width))

    def trace_votes(self, D: np.ndarray, gammas: Sequence[float]) -> list:
        """Per gamma, the (p,) log vote ratios of a block D from
        trace_distances, NaN where both classes' votes are zero: the block's
        distances, and each class's row minima (every gamma's largest
        exponent), serve every gamma."""
        pos_d, neg_d = _classes(D, self._split)
        lows = pos_d.min(axis=-1, initial=np.inf), neg_d.min(axis=-1, initial=np.inf)
        return [_log_ratio(gamma, pos_d, neg_d, lows=lows)[0] for gamma in gammas]

    def log_lambda_many(self, observations: np.ndarray) -> np.ndarray:
        """log vote ratio for each row of a (P, T) observation matrix:
        trace_votes at the kernel's gamma of each block of trace_distances,
        which require_defined checks. In sum mode that is bit for bit gwmv."""
        walk = self.trace_distances(observations)
        out = np.empty(len(observations))
        for b, D in walk:
            out[b] = require_defined(self.trace_votes(D, [self.params.gamma])[0])
            del D  # before the next block's distances
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
    with non-uniform source weights the weights enter as log-prior terms. The
    sources are stacked once, positives first (LabeledDataset.from_draws), so
    a query's (source, shift) cells split into the two classes at one column.
    """

    def __init__(self, model: LatentSourceModel, params: VotingParams):
        labels = np.array([lab == Label.POSITIVE for _, lab in model.sources])
        if labels.all() or not labels.any():
            raise ParamError("the model must contain sources of both labels")
        sources = LabeledDataset.from_draws((src, lab, None) for src, lab in model.sources)
        n_shifts = params.delta_max + 1
        self.params = params
        self.width = sources.n * n_shifts  # cells each query votes with
        self._split = sources.n_pos * n_shifts  # the first negative cell's column
        self._windows = ShiftWindows(sources.examples(), params.T, 0, params.delta_max)
        self._logw = (None, None)
        if model.weights is not None:
            # one log weight per (source, shift) cell, in the windows' order
            w = np.asarray(model.weights, dtype=np.float64)
            with np.errstate(divide="ignore"):  # zero weight: a source that never votes
                logw = np.repeat(np.log(np.concatenate([w[labels], w[~labels]])), n_shifts)
            self._logw = _classes(logw, self._split)

    def log_lambda(self, s: TimeSeries) -> float:
        return self.classify(s).log_lambda

    def classify(self, s: TimeSeries) -> ClassificationOutcome:
        return self.classify_block(s.window(1, self.params.T)[None]).row(0)

    def classify_block(self, Q: np.ndarray) -> BlockOutcome:
        """Verdicts of the rows of a (P, T) block of query windows: row p is
        classify of a series whose [1, T] window is Q[p], through _chunks."""
        # decision threshold fixed at a ratio of 1; theta plays no role here
        return _outcome(self._chunks(Q, self._votes), 0.0)

    def certified_block(self, Q) -> tuple[np.ndarray, np.ndarray]:
        """(labels, decided): classify_block(Q)'s (P,) labels where decided,
        from the GEMM bounds of every cell (ShiftWindows.grid_bound) through
        _certified, in the chunks classify_block takes."""
        return self._chunks(Q, self._bounded)

    def _chunks(self, Q, score) -> tuple:
        """score's arrays for the rows of a (P, T) block Q, which score takes
        in core.blocks of width cells each, so the grid and the vote
        temporaries of a chunk hold at most BLOCK_VALUES values each; rows
        vote independently, so the chunks change no bit."""
        Q = _queries(Q, self.params.T)
        chunks = [score(Q[b]) for b in blocks(len(Q), self.width)]
        return tuple(map(np.concatenate, zip(*chunks)))

    def _votes(self, Q: np.ndarray) -> tuple:
        """_vote_ratio of the rows of a (P, T) block, class by class, on its grid."""
        D = _vote_dists(self._windows, Q, "sum")
        return _vote_ratio(self.params.gamma, *_classes(D, self._split), *self._logw)

    def _bounded(self, Q: np.ndarray) -> tuple:
        """_certified of the rows of a (P, T) block, class by class, on the
        bounds of its grid; a class's radius is the largest of its sources'."""
        cells, radius = self._windows.grid_bound(Q)
        n_pos = self._split // (self.params.delta_max + 1)
        radii = (r.max(axis=1) for r in _classes(radius.T, n_pos))
        D = _classes(cells.reshape(len(Q), self.width), self._split)
        return _certified(self.params.gamma, *D, *radii, 0.0, *self._logw)


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
