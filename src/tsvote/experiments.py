"""Experiment harness: synthetic error curves, online detection, and ROC sweeps."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .classify import MapKernel, VotingKernel
from .core import Label, LabeledDataset, TimeSeries, VotingParams, advance
from .errors import ParamError, SupportError
from .pipeline import (
    PipelineParams,
    RateSeries,
    preprocess,
    slice_training_window,
    window_buckets,
)
from .synth import (
    GeneratorConfig,
    NoiseSpec,
    RngStream,
    as_generator,
    derive_streams,
    make_latent_sources,
    sample_series,
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
        if not self.T_grid or not self.beta_grid:
            raise ParamError("T_grid and beta_grid must be non-empty")
        if int(self.trials) < 1:
            raise ParamError(f"trials must be >= 1, got {self.trials}")
        if int(self.test_size) < 1:
            raise ParamError(f"test_size must be >= 1, got {self.test_size}")
        object.__setattr__(self, "T_grid", tuple(int(t) for t in self.T_grid))
        object.__setattr__(self, "beta_grid", tuple(float(b) for b in self.beta_grid))
        needed = max(self.T_grid) + 2 * int(self.delta_max)
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


def _sample_draws(model, n, stream, *, window_start=None, window_length=None, id_prefix="ex"):
    draws = []
    for i, rng in enumerate(derive_streams(stream, n)):
        draws.append(
            sample_series(
                model,
                rng,
                window_start=window_start,
                window_length=window_length,
                id=f"{id_prefix}-{i:05d}",
            )
        )
    return draws


def _dataset_from_draws(draws) -> LabeledDataset:
    pos = [(s, p) for s, lab, p in draws if lab == Label.POSITIVE]
    neg = [(s, p) for s, lab, p in draws if lab == Label.NEGATIVE]
    return LabeledDataset(
        tuple(s for s, _ in pos),
        tuple(s for s, _ in neg),
        tuple(p for _, p in pos),
        tuple(p for _, p in neg),
    )


def _trial(cfg: ExperimentConfig, trial_ss: np.random.SeedSequence, n_train: int, T: int):
    """One trial's fresh sources, n_train training draws, and test draws on [1, T].

    Both error curves draw their trials here, so equal (n_train, T) means equal data.
    """
    src_ss, train_ss, test_ss = trial_ss.spawn(3)
    gen_seed = int(src_ss.generate_state(1, np.uint64)[0])
    model = make_latent_sources(
        replace(cfg.model_cfg, seed=gen_seed), delta_max=cfg.delta_max, noise=cfg.noise()
    )
    train = _sample_draws(model, n_train, train_ss, id_prefix="train")
    tests = _sample_draws(
        model, cfg.test_size, test_ss, window_start=1, window_length=T, id_prefix="test"
    )
    return model, train, tests


def _map_wrong(mk: MapKernel, tests) -> int:
    return sum(mk.classify(s).label != label for s, label, _ in tests)


def _error_rates(vk: VotingKernel, tests, map_wrong: int) -> dict:
    """Error rate per classifier. The oracle ignores training data, so its
    misclassification count comes in precomputed."""
    wrong = {"wmv": 0, "nn": 0, "map": map_wrong}
    for s, label, _ in tests:
        d = vk.shift_sq_dists(s)  # one grid serves both voting and nearest neighbor
        wrong["wmv"] += vk._gwmv_from_dists(d).label != label
        wrong["nn"] += vk._knn_from_dists(d, 1).label != label
    return {clf: wrong[clf] / len(tests) for clf in CLASSIFIERS}


def error_vs_T(cfg: ExperimentConfig) -> ErrorCurves:
    """Misclassification rate of voting, nearest-neighbor, and the oracle as the
    observed prefix length grows. Fresh sources, training, and test data per trial."""
    T_max = max(cfg.T_grid)
    n = training_size(cfg.beta, cfg.model_cfg.m)
    per_trial = {clf: np.zeros((cfg.trials, len(cfg.T_grid))) for clf in CLASSIFIERS}
    trial_streams = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    for t, trial_ss in enumerate(trial_streams):
        model, draws, tests = _trial(cfg, trial_ss, n, T_max)
        train = _dataset_from_draws(draws)
        for j, T in enumerate(cfg.T_grid):
            params = VotingParams(cfg.gamma, T, cfg.delta_max, cfg.theta)
            map_wrong = _map_wrong(MapKernel(model, params), tests)
            rates = _error_rates(VotingKernel(train, params), tests, map_wrong)
            for clf in CLASSIFIERS:
                per_trial[clf][t, j] = rates[clf]
    return ErrorCurves("T", cfg.T_grid, per_trial)


def error_vs_beta(cfg: ExperimentConfig) -> ErrorCurves:
    """Misclassification rate at fixed T = max(T_grid) as the training pool grows.

    Training pools are nested across beta within a trial (prefixes of one draw
    sequence), so larger beta strictly adds examples. The oracle ignores
    training data, so its row is constant within a trial.
    """
    T = max(cfg.T_grid)
    n_max = training_size(max(cfg.beta_grid), cfg.model_cfg.m)
    per_trial = {clf: np.zeros((cfg.trials, len(cfg.beta_grid))) for clf in CLASSIFIERS}
    trial_streams = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    params = VotingParams(cfg.gamma, T, cfg.delta_max, cfg.theta)
    for t, trial_ss in enumerate(trial_streams):
        model, pool, tests = _trial(cfg, trial_ss, n_max, T)
        map_wrong = _map_wrong(MapKernel(model, params), tests)
        for j, beta in enumerate(cfg.beta_grid):
            train = _dataset_from_draws(pool[: training_size(beta, cfg.model_cfg.m)])
            rates = _error_rates(VotingKernel(train, params), tests, map_wrong)
            for clf in CLASSIFIERS:
                per_trial[clf][t, j] = rates[clf]
    return ErrorCurves("beta", cfg.beta_grid, per_trial)


# ---------------------------------------------------------------------------
# Online detection
# ---------------------------------------------------------------------------


def _check_theta(theta: float) -> None:
    if not (0.0 < theta < math.inf):
        raise ParamError(f"theta must be finite and > 0, got {theta}")


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
        if int(self.T) < 1:
            raise ParamError(f"T must be >= 1, got {self.T}")
        if not (0.0 <= self.gamma < math.inf):
            raise ParamError(f"gamma must be finite and >= 0, got {self.gamma}")
        _check_theta(self.theta)
        if not all(0.0 < v < math.inf for v in (self.h_hours, self.bucket_width_minutes)):
            raise ParamError("h_hours and bucket_width_minutes must be positive and finite")
        object.__setattr__(self, "T", int(self.T))


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


def _log_ratio_trace(series: TimeSeries, kernel: VotingKernel, anchor: int, half: int):
    """log vote ratio of the T buckets ending at each position anchor-half..anchor+half."""
    T = kernel.params.T
    region = series.window(anchor - half - T + 1, anchor + half)  # SupportError if too short
    return kernel.log_lambda_many(np.lib.stride_tricks.sliding_window_view(region, T))


def _first_crossing(trace, log_theta, series_id, anchor, half, bw, truth) -> DetectionResult:
    """Detection at the first trace position whose log ratio reaches log_theta."""
    hits = trace >= log_theta
    if not hits.any():
        return DetectionResult(series_id, False, None, None, truth)
    position = anchor - half + int(np.argmax(hits))
    return DetectionResult(series_id, True, position, (position - anchor) * bw, truth)


def detect_online(
    series: TimeSeries,
    training: LabeledDataset,
    cfg: DetectionConfig,
    anchor: int,
    truth: Label,
) -> DetectionResult:
    """Slide a T-bucket observation window across the region h_hours either side of anchor.

    Detection fires at the first position whose vote ratio clears theta;
    relative_minutes is negative when that happens before the anchor.
    """
    anchor = int(anchor)
    bw = cfg.bucket_width_minutes
    half = window_buckets(cfg.h_hours, bw)
    trace = _log_ratio_trace(series, _detection_kernel(training, cfg), anchor, half)
    return _first_crossing(trace, math.log(cfg.theta), series.id, anchor, half, bw, truth)


# ---------------------------------------------------------------------------
# Synthetic detection corpus
# ---------------------------------------------------------------------------


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
        if int(self.n_trends) < 1 or int(self.n_non_trends) < 1:
            raise ParamError("corpus needs at least one topic per class")
        if not (1 <= int(self.onset_low) <= int(self.onset_high) <= int(self.length)):
            raise ParamError("onset range must fit inside the series")
        if not (0.0 < self.spike_rate <= 1.0):
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
    """
    rng = as_generator(rng_stream)
    train, test = [], []
    for topics, label in ((list(trends), Label.POSITIVE), (list(non_trends), Label.NEGATIVE)):
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


def prepare_training(topics: Sequence, cfg: DetectionConfig, rng_stream) -> LabeledDataset:
    """Preprocess, slice, and align the training half.

    Trend slices end at their onset; background slices are placed at random.
    Slices are re-indexed symmetrically around the observation window so the
    shift range covers (almost) every T-chunk of each slice. rng_stream may be
    a seed, a SeedSequence, or a pre-built per-topic stream sequence.
    """
    w = window_buckets(cfg.h_hours, cfg.bucket_width_minutes)
    if w < cfg.T:
        raise ParamError(f"h={cfg.h_hours}h gives {w}-bucket slices, shorter than T={cfg.T}")
    dmax = (w - cfg.T) // 2
    target_start = 1 - dmax
    pos, neg = [], []
    if isinstance(rng_stream, (list, tuple)):
        streams = list(rng_stream)
        if len(streams) != len(topics):
            raise ParamError("need one rng stream per training topic")
    else:
        streams = derive_streams(rng_stream, len(topics))
    for (rate, label), stream in zip(topics, streams):
        processed = preprocess(rate, cfg.pipeline)
        if label == Label.POSITIVE:
            if rate.onset_index is None:
                raise ParamError(f"trend topic {rate.topic_id!r} has no onset_index")
            sl = slice_training_window(
                processed, rate.onset_index, cfg.h_hours, cfg.bucket_width_minutes, "pre_onset"
            )
        else:
            sl = slice_training_window(
                processed, 0, cfg.h_hours, cfg.bucket_width_minutes, "random", stream
            )
        sl = advance(sl, sl.start_index - target_start)
        (pos if label == Label.POSITIVE else neg).append(sl)
    return LabeledDataset(tuple(pos), tuple(neg))


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
        for name in ("gammas", "Ts", "t_smooths", "h_hours", "thetas"):
            if not getattr(self, name):
                raise ParamError(f"sweep grid {name} must be non-empty")
        for theta in self.thetas:
            _check_theta(theta)


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
    the two sides must be disjoint by topic id. Each (gamma, T, t_smooth, h)
    setting builds its training set, kernel and per-topic log-ratio traces
    once; every theta then only thresholds those traces.
    """
    corpus_ids = {rate.topic_id for rate, _ in corpus}
    train_ids = {rate.topic_id for rate, _ in training}
    if corpus_ids & train_ids:
        raise ParamError(
            f"training and test topics overlap: {sorted(corpus_ids & train_ids)[:5]}"
        )
    # common random numbers across grid points: slice placement and anchors are
    # drawn once per topic, so settings differ only in their parameters
    train_ss, anchor_ss = np.random.SeedSequence(seed).spawn(2)
    train_children = train_ss.spawn(len(training))
    anchor_children = anchor_ss.spawn(len(corpus))
    bw = base_cfg.bucket_width_minutes
    points, per_point_results = [], []
    settings = itertools.product(grid.gammas, grid.Ts, grid.t_smooths, grid.h_hours)
    for gamma, T, t_smooth, h in settings:
        pipeline = replace(base_cfg.pipeline, t_smooth=t_smooth)
        cfg = replace(base_cfg, h_hours=h, T=T, gamma=gamma, pipeline=pipeline)
        train_data = prepare_training(
            training, cfg, [np.random.default_rng(c) for c in train_children]
        )
        kernel = _detection_kernel(train_data, cfg)
        half = window_buckets(h, bw)
        traces = []  # (topic id, truth, anchor, log-ratio trace) per test topic
        for (rate, label), child in zip(corpus, anchor_children):
            processed = preprocess(rate, cfg.pipeline)
            if label == Label.POSITIVE:
                if rate.onset_index is None:
                    raise ParamError(f"trend topic {rate.topic_id!r} has no onset_index")
                anchor = rate.onset_index
            else:
                lo = processed.start_index + half + cfg.T - 1
                hi = processed.end_index - half
                if hi < lo:
                    raise SupportError(
                        f"topic {rate.topic_id!r} is too short for the detection region"
                    )
                anchor = lo + int(np.random.default_rng(child).integers(0, hi - lo + 1))
            trace = _log_ratio_trace(processed, kernel, anchor, half)
            traces.append((processed.id, label, anchor, trace))
        for theta in grid.thetas:
            log_theta = math.log(theta)
            results = tuple(
                _first_crossing(trace, log_theta, sid, anchor, half, bw, label)
                for sid, label, anchor, trace in traces
            )
            params = {"gamma": gamma, "T": T, "t_smooth": t_smooth, "h_hours": h, "theta": theta}
            points.append(_roc_point(results, params))
            per_point_results.append(results)
    return RocSweepResult(tuple(points), tuple(per_point_results))
