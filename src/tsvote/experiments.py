"""Experiment harness: synthetic error curves, online detection, and ROC sweeps.

The error curves count wrong labels, which need only the side of the
threshold each log ratio falls on: labels are certified from GEMM bounds on
the distances, and exact distances are computed only for the rows the bounds
leave undecided (`_trial_rates`), so every rate is the exact path's.

The detection sweep (`roc_sweep`) loops over (T, t_smooth, h): each setting
preprocesses both sides of the split as one batch of rows
(`pipeline.preprocess_rows`), builds its training set and kernel once and
computes its trace distances once (`VotingKernel.trace_distances`); every
gamma votes on those distances (`trace_votes`), and every theta reads the
running maxima of the traces. One rule places both sides' windows
(`_placed_windows`): w-bucket training slices and (2 half + T)-bucket test regions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .classify import MapKernel, VotingKernel, require_defined
from .core import (
    Label,
    LabeledDataset,
    TimeSeries,
    VotingParams,
    blocks,
    integer_at_least,
    real_at_least,
    stacked_windows,
)
from .errors import ParamError, SupportError
from .pipeline import (
    PipelineParams,
    RateSeries,
    preprocess_rows,
    require_prefix,
    training_slice_start,
    window_buckets,
)
from .synth import (
    GeneratorConfig,
    NoiseSpec,
    RngStream,
    as_generator,
    derive_streams,
    make_latent_sources,
    sample_draws,
    training_size,
)

CLASSIFIERS = ("wmv", "nn", "map")


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for the synthetic error-curve experiments."""

    model_cfg: GeneratorConfig
    beta: float = 8.0
    gamma: float = 0.125
    theta: float = 1.0
    delta_max: int = 10
    T_grid: tuple = (10, 20, 40, 70, 100)
    beta_grid: tuple = (2.0, 4.0, 6.0, 8.0)
    test_size: int = 200
    trials: int = 20
    seed: int = 0
    sigma: float = 1.0
    noise_family: str = "gaussian"

    def __post_init__(self):
        for name, low in (("trials", 1), ("test_size", 1), ("delta_max", 0), ("seed", 0)):
            object.__setattr__(self, name, integer_at_least(name, getattr(self, name), low))
        # a pool of n(beta <= 1) draws can miss a class
        object.__setattr__(self, "beta", real_at_least("beta", self.beta, 1, strict=True))
        T_grid = tuple(integer_at_least("T_grid", t, 1) for t in self.T_grid)
        beta_grid = tuple(real_at_least("beta_grid", b, 1, strict=True) for b in self.beta_grid)
        for name, grid in (("T_grid", T_grid), ("beta_grid", beta_grid)):
            if not grid:
                raise ParamError(f"{name} must be non-empty")
            object.__setattr__(self, name, grid)
        needed = max(self.T_grid) + 2 * self.delta_max
        if self.model_cfg.series_length < needed:
            raise ParamError(
                f"series_length={self.model_cfg.series_length} is shorter than "
                f"max(T) + 2*delta_max = {needed}"
            )

    def noise(self) -> NoiseSpec:
        return NoiseSpec(self.noise_family, self.sigma)


@dataclass(frozen=True)
class ErrorCurves:
    """Per-trial misclassification rates along one sweep axis."""

    axis_name: str
    axis: tuple
    per_trial: dict  # classifier -> (trials, len(axis)) array

    def mean(self, classifier: str) -> np.ndarray:
        return self.per_trial[classifier].mean(axis=0)

    def std(self, classifier: str) -> np.ndarray:
        arr = self.per_trial[classifier]
        if arr.shape[0] < 2:
            return np.zeros(arr.shape[1])
        return arr.std(axis=0, ddof=1)

    def rows(self):
        """Plot-ready rows: (axis_value, classifier, mean, std)."""
        for clf in CLASSIFIERS:
            means, stds = self.mean(clf), self.std(clf)
            for x, m, s in zip(self.axis, means, stds):
                yield x, clf, float(m), float(s)


def _axis_cells(cfg: ExperimentConfig, axes: Sequence[str]) -> dict:
    """The (training size, T) cell behind each point of each requested axis: the
    T axis trains on n(beta) at every T, the beta axis on n(b) at max(T_grid)."""
    m, T_max = cfg.model_cfg.m, max(cfg.T_grid)
    cells = {
        "T": [(training_size(cfg.beta, m), T) for T in cfg.T_grid],
        "beta": [(training_size(b, m), T_max) for b in cfg.beta_grid],
    }
    if not axes or not set(axes) <= set(cells):
        raise ParamError(f"axes must be a non-empty subset of ('T', 'beta'), got {axes!r}")
    return {axis: cells[axis] for axis in axes}


def _pool_labels(kernels: dict, columns: dict, Q: np.ndarray) -> dict:
    """{n: {"wmv": labels, "nn": labels}} of the rows of the (P, T) block Q
    for each pool size n: certified from one bound of the shift minimum
    against the largest pool, whose columns[n] each size gathers. The rows
    some label leaves undecided get one exact shift minimum, on whose
    columns each size votes as one block."""
    pool_kernel = kernels[max(kernels)]
    D, R = pool_kernel.min_bounds_block(Q)
    verdicts = {}  # n -> classifier -> (labels, decided)
    for n, kernel in kernels.items():
        d, r = D[:, columns[n]], R[:, columns[n]]
        verdicts[n] = {"wmv": kernel.certified_gwmv_block(d, r),
                       "nn": kernel.certified_nn_block(d, r)}
    decided = [dec for by_clf in verdicts.values() for _, dec in by_clf.values()]
    rows = np.flatnonzero(~np.logical_and.reduce(decided))
    labels = {n: {clf: got for clf, (got, _) in v.items()} for n, v in verdicts.items()}
    if rows.size:
        exact = pool_kernel.min_dists_block(Q[rows])[0]
        for n, kernel in kernels.items():
            # a gathered block is not C-ordered; its copy is, so each row votes as alone
            d = np.ascontiguousarray(exact[:, columns[n]])
            labels[n]["wmv"][rows] = kernel.gwmv_block(d).labels
            labels[n]["nn"][rows] = kernel.knn_block(d, 1).labels
    return labels


def _oracle_labels(oracle: MapKernel, Q: np.ndarray) -> np.ndarray:
    """The oracle's labels of the rows of the (P, T) block Q: certified from
    the bounds of every cell, and one exact block for the undecided rows."""
    labels, decided = oracle.certified_block(Q)
    rows = np.flatnonzero(~decided)
    if rows.size:
        labels[rows] = oracle.classify_block(Q[rows]).labels
    return labels


def _trial_rates(cfg: ExperimentConfig, trial_ss: np.random.SeedSequence, cells) -> dict:
    """Error rate per classifier of every (training size, T) cell in one trial.

    One draw of sources, training pool and tests serves every cell: a smaller
    pool is a prefix of the pool draws and a shorter observation is a prefix of
    each test. Each T scores the (tests, T) block of observations in chunks of
    tests whose (tests, pool) distances hold at most BLOCK_VALUES values (all
    200 desk tests are one chunk). Per chunk, _pool_labels gives every pool
    size's voting and nearest-neighbour labels against the largest pool at
    that T, each size reading its columns (its first positives and first
    negatives), and _oracle_labels the oracle's: certified from GEMM bounds,
    with exact distances only for the rows the bounds leave undecided. A
    certified label is the exact one, and rows are scored independently, so
    the counts of wrong verdicts depend neither on the chunks nor on which
    rows are certified.
    """
    src_ss, train_ss, test_ss = trial_ss.spawn(3)
    gen_seed = int(src_ss.generate_state(1, np.uint64)[0])
    model = make_latent_sources(
        replace(cfg.model_cfg, seed=gen_seed), delta_max=cfg.delta_max, noise=cfg.noise()
    )
    pool = sample_draws(model, max(n for n, _ in cells), train_ss)
    tests = sample_draws(model, cfg.test_size, test_ss, window_start=1,
                         window_length=max(cfg.T_grid), id_prefix="test")
    observed = stacked_windows([s for s, _, _ in tests], 1, max(cfg.T_grid))
    labels = np.array([int(label) for _, label, _ in tests])
    rates = {}
    for T in dict.fromkeys(T for _, T in cells):
        params = VotingParams(cfg.gamma, T, cfg.delta_max, cfg.theta)
        sizes = sorted({n for n, t in cells if t == T})
        kernels = {n: VotingKernel(LabeledDataset.from_draws(pool[:n]), params) for n in sizes}
        pool_kernel, oracle = kernels[sizes[-1]], MapKernel(model, params)
        pool_pos = pool_kernel.n_pos
        columns = {n: np.r_[: k.n_pos, pool_pos : pool_pos + k.n - k.n_pos] for n, k in kernels.items()}
        wrong = {n: dict.fromkeys(CLASSIFIERS, 0) for n in sizes}
        for b in blocks(len(tests), pool_kernel.n):
            Q = np.ascontiguousarray(observed[b, :T])
            map_wrong = np.count_nonzero(_oracle_labels(oracle, Q) != labels[b])
            for n, predicted in _pool_labels(kernels, columns, Q).items():
                for clf, got in predicted.items():
                    wrong[n][clf] += np.count_nonzero(got != labels[b])
                wrong[n]["map"] += map_wrong
        for n in sizes:
            rates[n, T] = {clf: wrong[n][clf] / len(tests) for clf in CLASSIFIERS}
    return rates


def error_curves(cfg: ExperimentConfig, axes: Sequence[str] = ("T", "beta")) -> dict:
    """Misclassification rate of voting, nearest-neighbor, and the oracle along
    each requested axis ("T": the observed prefix length grows at beta; "beta":
    the training pool grows at T = max(T_grid)), keyed by axis name.

    Fresh sources, training, and test data per trial, shared by both axes.
    Training pools are nested across beta within a trial (prefixes of one draw
    sequence), so larger beta strictly adds examples. The oracle ignores
    training data, so its beta row is constant within a trial.
    """
    axis_cells = _axis_cells(cfg, axes)
    cells = list(dict.fromkeys(c for points in axis_cells.values() for c in points))
    per_trial = {
        axis: {clf: np.zeros((cfg.trials, len(points))) for clf in CLASSIFIERS}
        for axis, points in axis_cells.items()
    }
    for t, trial_ss in enumerate(np.random.SeedSequence(cfg.seed).spawn(cfg.trials)):
        rates = _trial_rates(cfg, trial_ss, cells)
        for axis, points in axis_cells.items():
            for clf in CLASSIFIERS:
                per_trial[axis][clf][t] = [rates[cell][clf] for cell in points]
    values = {"T": cfg.T_grid, "beta": cfg.beta_grid}
    return {axis: ErrorCurves(axis, values[axis], per_trial[axis]) for axis in axis_cells}


def error_vs_T(cfg: ExperimentConfig) -> ErrorCurves:
    """error_curves along the T axis alone."""
    return error_curves(cfg, ("T",))["T"]


def error_vs_beta(cfg: ExperimentConfig) -> ErrorCurves:
    """error_curves along the beta axis alone."""
    return error_curves(cfg, ("beta",))["beta"]


# ---------------------------------------------------------------------------
# Online detection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DetectionConfig:
    """Settings for sliding-window online detection.

    The detector classifies the most recent T buckets at every position within
    h_hours either side of the anchor (trend onset for trends, a random anchor
    otherwise); the first positive verdict is the detection.
    """

    h_hours: float = 7.0
    T: int = 115
    gamma: float = 10.0
    theta: float = 1.0
    pipeline: PipelineParams = PipelineParams()
    bucket_width_minutes: float = 2.0
    delta_max: Optional[int] = None  # None: widest shift every training slice supports

    def __post_init__(self):
        object.__setattr__(self, "T", integer_at_least("T", self.T, 1))
        if self.delta_max is not None:
            object.__setattr__(self, "delta_max", integer_at_least("delta_max", self.delta_max, 0))
        for name in ("h_hours", "bucket_width_minutes", "theta", "gamma"):  # gamma may be 0
            value = real_at_least(name, getattr(self, name), 0, strict=name != "gamma")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class DetectionResult:
    """Verdict for one topic: fired or not, where, and how early."""

    topic_id: str
    detected: bool
    detection_index: Optional[int]
    relative_minutes: Optional[float]
    truth: Label

    def __post_init__(self):
        if self.detected != (self.detection_index is not None):
            raise ParamError("detection_index must be present exactly when detected")
        if self.detected != (self.relative_minutes is not None):
            raise ParamError("relative_minutes must be present exactly when detected")


def _max_supported_shift(training: LabeledDataset, T: int) -> int:
    dmax = None
    for ts in training.examples():
        cap = min(1 - ts.start_index, ts.end_index - T)
        dmax = cap if dmax is None else min(dmax, cap)
    if dmax is None or dmax < 0:
        raise SupportError("training slices are too short for the observation length T")
    return dmax


def _detection_kernel(training: LabeledDataset, cfg: DetectionConfig) -> VotingKernel:
    dmax = cfg.delta_max if cfg.delta_max is not None else _max_supported_shift(training, cfg.T)
    return VotingKernel(training, VotingParams(cfg.gamma, cfg.T, dmax, cfg.theta))


def _running_maxima(kernel: VotingKernel, regions: np.ndarray, half: int, gammas) -> list:
    """Per gamma, the (k, 2 half + 1) running maxima of the log-ratio traces
    of the k rows of regions, each of 2 half + T values: one trace_distances
    call per core.blocks chunk of rows whose sliding T-windows hold at most
    BLOCK_VALUES values, and each block of distances voted at every gamma. A
    row whose ratio is undefined somewhere has NaN maxima from there on."""
    T, width = kernel.params.T, 2 * half + 1
    views = np.lib.stride_tricks.sliding_window_view(regions, T, axis=1)
    traces = [[] for _ in gammas]
    for chunk in blocks(len(regions), width * T):
        for _, D in kernel.trace_distances(views[chunk].reshape(-1, T)):
            for trace, ratios in zip(traces, kernel.trace_votes(D, gammas)):
                trace.append(ratios)
            del D  # before the next block's distances
    return [np.maximum.accumulate(np.concatenate(t).reshape(-1, width), axis=1) for t in traces]


def _first_crossings(maxima: np.ndarray, log_theta: float) -> np.ndarray:
    """Per row of running maxima, the first position whose trace reaches log_theta, or -1: a
    running maximum is nondecreasing, so its last value says whether, its first crossing where."""
    return np.where(maxima[:, -1] >= log_theta, (maxima >= log_theta).argmax(axis=1), -1)


def _detections(topics: list, maxima, log_theta: float, half: int, bw: float) -> tuple:
    """DetectionResult per (id, truth, anchor) of topics at its first crossing."""
    return tuple(
        DetectionResult(sid, True, anchor - half + i, (i - half) * bw, truth) if i >= 0
        else DetectionResult(sid, False, None, None, truth)
        for (sid, truth, anchor), i in zip(topics, _first_crossings(maxima, log_theta).tolist())
    )


def detect_online(
    series: TimeSeries, training: LabeledDataset, cfg: DetectionConfig, anchor: int, truth: Label
) -> DetectionResult:
    """Slide a T-bucket observation window across the region h_hours either side of anchor.

    Detection fires at the first position whose vote ratio clears theta;
    relative_minutes is negative when that happens before the anchor. This is
    roc_sweep's trace and crossing for one topic and one theta.
    """
    anchor, bw = integer_at_least("anchor", anchor), cfg.bucket_width_minutes
    half = window_buckets(cfg.h_hours, bw)
    region = series.window(anchor - half - cfg.T + 1, anchor + half)  # SupportError if too short
    maxima = _running_maxima(_detection_kernel(training, cfg), region[None], half, [cfg.gamma])[0]
    require_defined(maxima[:, -1])
    return _detections([(series.id, truth, anchor)], maxima, math.log(cfg.theta), half, bw)[0]


# ---------------------------------------------------------------------------
# Synthetic detection corpus
# ---------------------------------------------------------------------------


_N_BURST_SHAPES = 4  # the envelopes _burst_shape defines


@dataclass(frozen=True)
class CorpusConfig:
    """Synthetic rate corpus: bursty trend topics and flat background topics.

    Trend activity is a train of sharing spikes whose density and height follow
    a latent envelope that builds over ramp_buckets leading into the recorded
    onset (one of n_patterns envelope shapes). Background topics carry the same
    baseline noise plus occasional isolated bumps.
    """

    n_trends: int = 200
    n_non_trends: int = 200
    length: int = 240
    bucket_width_minutes: float = 2.0
    base_rate: float = 50.0
    burst_scale: float = 6.0
    ramp_buckets: int = 60
    n_patterns: int = 4
    onset_low: int = 90
    onset_high: int = 150
    noise_frac: float = 0.12
    bump_scale: float = 0.8
    spike_rate: float = 0.35
    seed: int = 0

    def __post_init__(self):
        counts = ("n_trends", "n_non_trends", "length", "ramp_buckets", "n_patterns")
        for name in counts + ("onset_low", "onset_high"):  # onsets are 1-based indices
            object.__setattr__(self, name, integer_at_least(name, getattr(self, name), 1))
        object.__setattr__(self, "seed", integer_at_least("seed", self.seed, 0))
        if not (self.onset_low <= self.onset_high <= self.length):
            raise ParamError("onset range must fit inside the series")
        if self.n_patterns > _N_BURST_SHAPES:
            raise ParamError(f"n_patterns must be in 1..{_N_BURST_SHAPES}, got {self.n_patterns}")
        positive = ("bucket_width_minutes", "base_rate", "burst_scale", "spike_rate")
        for name in positive + ("noise_frac", "bump_scale"):  # the last two may be 0
            value = real_at_least(name, getattr(self, name), 0, strict=name in positive)
            object.__setattr__(self, name, value)
        if self.spike_rate > 1.0:
            raise ParamError(f"spike_rate must be in (0, 1], got {self.spike_rate}")


def _burst_shape(u: np.ndarray, pattern: int, steepness: float) -> np.ndarray:
    """Unit-peak burst profiles on ramp-relative time u ((t - onset) / ramp)."""
    if pattern == 0:  # sigmoid rise to a plateau
        return 1.0 / (1.0 + np.exp(-steepness * (u + 0.5)))
    if pattern == 1:  # linear rise, then decay
        rise = np.clip(u + 1.0, 0.0, 1.0)
        return np.where(u <= 0.0, rise, np.exp(-u / 0.7))
    if pattern == 2:  # late cubic surge
        return np.clip((u + 1.0), 0.0, None) ** 3 / (1.0 + np.clip(u + 1.0, 0.0, None) ** 3) * 2.0
    # double burst: plateau plus an echo after onset
    main = 1.0 / (1.0 + np.exp(-steepness * (u + 0.5)))
    echo = 0.8 * np.exp(-0.5 * ((u - 0.6) / 0.25) ** 2)
    return main + echo


def make_detection_corpus(cfg: CorpusConfig) -> tuple:
    """Returns (trends, non_trends) as lists of RateSeries with onsets on trends."""
    t_idx = np.arange(1, cfg.length + 1, dtype=np.float64)
    trend_root, bg_root = np.random.SeedSequence(cfg.seed).spawn(2)
    trend_streams = derive_streams(trend_root, cfg.n_trends)
    bg_streams = derive_streams(bg_root, cfg.n_non_trends)

    trends = []
    for i, rng in enumerate(trend_streams):
        onset = int(rng.integers(cfg.onset_low, cfg.onset_high + 1))
        pattern = int(rng.integers(0, cfg.n_patterns))
        steepness = float(rng.uniform(6.0, 12.0))
        amplitude = float(rng.uniform(0.7, 1.3)) * cfg.burst_scale
        ramp = cfg.ramp_buckets * float(rng.uniform(0.8, 1.25))
        u = (t_idx - onset) / ramp
        level = np.clip(_burst_shape(u, pattern, steepness), 0.0, None)
        # sharing arrives as short spikes; their density and height follow the envelope
        impulses = (rng.random(cfg.length) < cfg.spike_rate * np.clip(level, 0.0, 1.0)) * (
            rng.uniform(0.4, 1.6, cfg.length) * level * amplitude * cfg.base_rate
        )
        width = float(rng.uniform(0.8, 1.8))
        x = np.arange(-4, 5, dtype=np.float64)
        spike_kernel = np.exp(-0.5 * (x / width) ** 2)
        spikes = np.convolve(impulses, spike_kernel, mode="same")
        sustained = 0.25 * cfg.base_rate * amplitude * level
        noise = cfg.base_rate * cfg.noise_frac * rng.standard_normal(cfg.length)
        counts = np.maximum(cfg.base_rate + noise + sustained + spikes, 0.0)
        counts[0] = max(counts[0], 1.0)
        trends.append(
            RateSeries(counts, cfg.bucket_width_minutes, f"trend-{i:04d}", onset_index=onset)
        )

    non_trends = []
    for i, rng in enumerate(bg_streams):
        noise = cfg.base_rate * cfg.noise_frac * rng.standard_normal(cfg.length)
        counts = cfg.base_rate + noise
        for _ in range(int(rng.poisson(2.0))):
            center = float(rng.uniform(1, cfg.length))
            width = float(rng.uniform(2.0, 6.0))
            height = cfg.base_rate * cfg.bump_scale * float(rng.uniform(0.1, 1.0))
            counts = counts + height * np.exp(-0.5 * ((t_idx - center) / width) ** 2)
        counts = np.maximum(counts, 0.0)
        counts[0] = max(counts[0], 1.0)
        non_trends.append(RateSeries(counts, cfg.bucket_width_minutes, f"bg-{i:04d}"))
    return trends, non_trends


def split_topics(
    trends: Sequence[RateSeries], non_trends: Sequence[RateSeries], rng_stream: RngStream
) -> tuple:
    """Shuffle each class and split it in half: (train_half, test_half).

    Each half is a list of (RateSeries, Label); no topic appears in both.
    ParamError unless each class has at least 2 topics, one per half.
    """
    rng = as_generator(rng_stream)
    train, test = [], []
    for topics, label in ((list(trends), Label.POSITIVE), (list(non_trends), Label.NEGATIVE)):
        if len(topics) < 2:
            name = "trend" if label == Label.POSITIVE else "non-trend"
            raise ParamError(f"need >= 2 {name} topics to split in half, got {len(topics)}")
        order = rng.permutation(len(topics))
        cut = len(topics) // 2
        train.extend((topics[k], label) for k in order[:cut])
        test.extend((topics[k], label) for k in order[cut:])
    train_ids = {rate.topic_id for rate, _ in train}
    test_ids = {rate.topic_id for rate, _ in test}
    overlap = train_ids & test_ids
    if overlap:
        raise ParamError(f"topics appear on both sides of the split: {sorted(overlap)[:5]}")
    return train, test


def _placed_windows(
    topics: Sequence, streams, width: int, past_onset: int, cfg: DetectionConfig
) -> tuple:
    """(starts, windows) of each topic's width-bucket window: a trend's ends
    past_onset buckets after its onset, a background topic's is placed at
    random from one draw of its stream (pipeline.training_slice_start). Placed
    in topic order, so the first topic with an error raises it; a topic whose
    buckets are not cfg's width is one, since every window length and offset
    counts cfg's buckets. Then the topics are preprocessed with cfg.pipeline
    as one batch (preprocess_rows) and each window is cut from its row."""
    starts = []
    for (rate, label), stream in zip(topics, streams):
        if rate.bucket_width_minutes != cfg.bucket_width_minutes:
            raise ParamError(
                f"topic {rate.topic_id!r} has {rate.bucket_width_minutes}-minute buckets, but "
                f"detection counts {cfg.bucket_width_minutes}-minute buckets"
            )
        require_prefix(rate)
        if label == Label.POSITIVE:
            if rate.onset_index is None:
                raise ParamError(f"trend topic {rate.topic_id!r} has no onset_index")
            anchor, mode = rate.onset_index + past_onset, "pre_onset"
        else:
            anchor, mode = 0, "random"
        starts.append(training_slice_start(rate.topic_id, 1, len(rate), anchor, width, mode, stream))
    rows = preprocess_rows([rate for rate, _ in topics], cfg.pipeline)
    return starts, [row[first - 1 : first - 1 + width] for row, first in zip(rows, starts)]


def prepare_training(topics: Sequence, cfg: DetectionConfig, rng_stream) -> LabeledDataset:
    """Preprocess, slice, and align the training half.

    Trend slices end at their onset; background slices are placed at random
    (_placed_windows). Slices are re-indexed symmetrically around the
    observation window so the shift range covers (almost) every T-chunk of
    each slice. rng_stream may be a seed, a SeedSequence, or a pre-built
    per-topic stream sequence.
    """
    w = window_buckets(cfg.h_hours, cfg.bucket_width_minutes)
    if w < cfg.T:
        raise ParamError(f"h={cfg.h_hours}h gives {w}-bucket slices, shorter than T={cfg.T}")
    if isinstance(rng_stream, (list, tuple)):
        streams = list(rng_stream)
        if len(streams) != len(topics):
            raise ParamError("need one rng stream per training topic")
    else:
        streams = derive_streams(rng_stream, len(topics))
    _, slices = _placed_windows(topics, streams, w, 0, cfg)
    target_start = 1 - (w - cfg.T) // 2
    return LabeledDataset.from_draws(
        (TimeSeries(target_start, values, id=rate.topic_id), label, None)
        for (rate, label), values in zip(topics, slices)
    )


@dataclass(frozen=True)
class RocPoint:
    """Detection aggregates for one parameter setting."""

    fpr: float
    tpr: float
    mean_relative_minutes: Optional[float]  # over detected trends
    early_fraction_detected: Optional[float]
    early_fraction_all: float
    n_trends: int
    n_non_trends: int
    n_detected_trends: int
    n_detected_non_trends: int
    params: dict


@dataclass(frozen=True)
class SweepGrid:
    gammas: tuple = (1.0,)
    Ts: tuple = (115,)
    t_smooths: tuple = (80,)
    h_hours: tuple = (7.0,)
    thetas: tuple = (1.0,)

    def __post_init__(self):
        # each grid's entries pass the rule of the setting it sweeps
        for name in ("gammas", "Ts", "t_smooths", "h_hours", "thetas"):
            grid = getattr(self, name)
            if not grid:
                raise ParamError(f"sweep grid {name} must be non-empty")
            if name in ("Ts", "t_smooths"):
                grid = tuple(integer_at_least(name, x, 1) for x in grid)
            else:  # gamma may be 0
                grid = tuple(real_at_least(name, x, 0, strict=name != "gammas") for x in grid)
            object.__setattr__(self, name, grid)


@dataclass(frozen=True)
class RocSweepResult:
    points: tuple
    results: tuple  # per point: tuple of DetectionResult

    def envelope(self, n_bins: int = 20) -> list:
        """Best achievable TPR per FPR bin, forced nondecreasing in FPR."""
        best = [None] * n_bins
        for p in self.points:
            b = min(int(p.fpr * n_bins), n_bins - 1)
            if best[b] is None or p.tpr > best[b]:
                best[b] = p.tpr
        out, running = [], 0.0
        for b in range(n_bins):
            if best[b] is None:
                continue
            running = max(running, best[b])
            out.append(((b + 0.5) / n_bins, running))
        return out


def _roc_point(results: tuple, params: dict) -> RocPoint:
    trends = [r for r in results if r.truth == Label.POSITIVE]
    bgs = [r for r in results if r.truth == Label.NEGATIVE]
    det_trends = [r for r in trends if r.detected]
    det_bgs = [r for r in bgs if r.detected]
    early = [r for r in det_trends if r.relative_minutes < 0]
    mean_rel = float(np.mean([r.relative_minutes for r in det_trends])) if det_trends else None
    return RocPoint(
        fpr=len(det_bgs) / len(bgs) if bgs else 0.0,
        tpr=len(det_trends) / len(trends) if trends else 0.0,
        mean_relative_minutes=mean_rel,
        early_fraction_detected=len(early) / len(det_trends) if det_trends else None,
        early_fraction_all=len(early) / len(trends) if trends else 0.0,
        n_trends=len(trends),
        n_non_trends=len(bgs),
        n_detected_trends=len(det_trends),
        n_detected_non_trends=len(det_bgs),
        params=params,
    )


def roc_sweep(
    corpus: Sequence,
    training: Sequence,
    grid: SweepGrid,
    base_cfg: DetectionConfig,
    seed: int = 0,
) -> RocSweepResult:
    """Run detection over the test topics at every grid point and aggregate rates.

    corpus and training are sequences of (RateSeries, Label) from split_topics;
    the two sides must be disjoint by topic id. Each (T, t_smooth, h) setting
    preprocesses each side as one batch per length, builds its training set
    and kernel once and computes the distances of all test topics' windows
    once, in a few blocked calls; every gamma votes on them, and
    each theta only reads the running maxima of those traces. Points come in
    (gamma, T, t_smooth, h, theta) order, and an error is the one a sweep in
    that order would meet first: a setting's own errors (its topics, its
    kernel, the first gamma's votes) before the next setting's, and a later
    gamma's undefined votes only after every setting.
    """
    corpus_ids = {rate.topic_id for rate, _ in corpus}
    train_ids = {rate.topic_id for rate, _ in training}
    if corpus_ids & train_ids:
        raise ParamError(
            f"training and test topics overlap: {sorted(corpus_ids & train_ids)[:5]}"
        )
    # common random numbers across grid points: every setting places a topic's
    # window from the same seed, so settings differ only in their parameters
    train_ss, anchor_ss = np.random.SeedSequence(seed).spawn(2)
    train_children = train_ss.spawn(len(training))
    anchor_children = anchor_ss.spawn(len(corpus))
    bw = base_cfg.bucket_width_minutes
    settings = []  # per (T, t_smooth, h): its parameters, test topics, half and maxima per gamma
    for T, t_smooth, h in itertools.product(grid.Ts, grid.t_smooths, grid.h_hours):
        pipeline = replace(base_cfg.pipeline, t_smooth=t_smooth)
        cfg = replace(base_cfg, h_hours=h, T=T, pipeline=pipeline)  # gammas are voted below
        kernel = _detection_kernel(prepare_training(training, cfg, train_children), cfg)
        half = window_buckets(h, bw)
        # a test region ends half past its anchor, a trend's onset
        starts, regions = _placed_windows(corpus, anchor_children, 2 * half + T, half, cfg)
        regions = np.array(regions).reshape(len(corpus), 2 * half + T)
        maxima = _running_maxima(kernel, regions, half, grid.gammas)
        require_defined(maxima[0][:, -1])  # the first gamma's error comes before the next setting's
        topics = [(r.topic_id, label, s + half + T - 1) for (r, label), s in zip(corpus, starts)]
        settings.append(((T, t_smooth, h), topics, half, maxima))
    points, per_point_results = [], []
    for i, gamma in enumerate(grid.gammas):
        for (T, t_smooth, h), topics, half, maxima in settings:
            require_defined(maxima[i][:, -1])
            for theta in grid.thetas:
                results = _detections(topics, maxima[i], math.log(theta), half, bw)
                params = {
                    "gamma": gamma, "T": T, "t_smooth": t_smooth, "h_hours": h, "theta": theta
                }
                points.append(_roc_point(results, params))
                per_point_results.append(results)
    return RocSweepResult(tuple(points), tuple(per_point_results))
