"""Synthetic data generation: latent sources and shifted, noisy samples from them.

Every draw is keyed to a splittable seed stream, so datasets are bit-identical
across runs and independent of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import (
    BLOCK_VALUES,
    Label,
    LabeledDataset,
    Provenance,
    TimeSeries,
    integer_at_least,
    real_at_least,
)
from .errors import ParamError, ProvenanceError

RngStream = Union[int, np.random.SeedSequence, np.random.Generator]

_NOISE_FAMILIES = ("gaussian", "uniform")


def as_generator(stream: RngStream) -> np.random.Generator:
    if isinstance(stream, np.random.Generator):
        return stream
    if isinstance(stream, np.random.SeedSequence):
        return np.random.default_rng(stream)
    return np.random.default_rng(integer_at_least("seed", stream, 0))


def derive_streams(stream: RngStream, n: int) -> list[np.random.Generator]:
    """n independent child generators; deterministic for a given parent stream."""
    if isinstance(stream, np.random.Generator):
        return stream.spawn(n)
    if not isinstance(stream, np.random.SeedSequence):
        stream = np.random.SeedSequence(integer_at_least("seed", stream, 0))
    return [np.random.default_rng(child) for child in stream.spawn(n)]


@dataclass(frozen=True)
class NoiseSpec:
    """Additive noise family; both are sub-Gaussian with parameter sigma.

    gaussian: standard deviation sigma. uniform: support [-sigma, sigma].
    sigma = 0 is the degenerate noiseless case.
    """

    family: str = "gaussian"
    sigma: float = 1.0

    def __post_init__(self):
        if self.family not in _NOISE_FAMILIES:
            raise ParamError(f"noise family must be one of {_NOISE_FAMILIES}, got {self.family!r}")
        object.__setattr__(self, "sigma", real_at_least("sigma", self.sigma, 0))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.sigma == 0.0:
            return np.zeros(size)
        if self.family == "gaussian":
            return rng.normal(0.0, self.sigma, size)
        return rng.uniform(-self.sigma, self.sigma, size)


@dataclass(frozen=True)
class LatentSourceModel:
    """The labeled prototype series samples are generated from.

    sources: tuple of (TimeSeries, Label). Samples take a source, advance it by
    a shift drawn uniformly from {0..delta_max}, add noise, and keep the label.
    weights, when present, bias the source choice (uniform otherwise).
    window_start/window_length give the default index range on which samples
    are materialized; every source must cover that window plus the shift margin.
    """

    sources: tuple
    delta_max: int
    noise: NoiseSpec
    window_start: int
    window_length: int
    weights: Optional[tuple] = None

    def __post_init__(self):
        sources = tuple((src, Label.from_int(lab)) for src, lab in self.sources)
        object.__setattr__(self, "sources", sources)
        for name, low in (("delta_max", 0), ("window_start", None), ("window_length", 1)):
            object.__setattr__(self, name, integer_at_least(name, getattr(self, name), low))
        if self.m < 1:
            raise ParamError("the model needs at least one source")
        if self.weights is not None:
            w = tuple(real_at_least("weights", x, 0) for x in self.weights)
            object.__setattr__(self, "weights", w)
            if len(w) != self.m:
                raise ParamError(f"weights must have length m={self.m}, got {len(w)}")
            if abs(sum(w) - 1.0) > 1e-12:
                raise ParamError(f"weights must sum to 1, got {sum(w)!r}")
        lo = self.window_start
        hi = self.window_start + self.window_length - 1 + self.delta_max
        for src, _ in sources:
            if not src.covers(lo, hi):
                raise ParamError(
                    f"source {src.id!r} on [{src.start_index}, {src.end_index}] does not "
                    f"cover the sampling window plus shift margin [{lo}, {hi}]"
                )

    @property
    def m(self) -> int:
        return len(self.sources)

    @property
    def m_pos(self) -> int:
        return sum(1 for _, lab in self.sources if lab == Label.POSITIVE)

    @property
    def m_neg(self) -> int:
        return self.m - self.m_pos

    def labels(self) -> tuple:
        return tuple(lab for _, lab in self.sources)


@dataclass(frozen=True)
class GeneratorConfig:
    """Recipe for synthetic latent sources: smoothed Gaussian noise tracks.

    series_length is the length of the series later sampled from the model
    (the sources themselves carry an extra shift margin).
    """

    m: int
    series_length: int
    amplitude_variance: float = 100.0
    smoothing_scale: float = 30.0
    seed: int = 0

    def __post_init__(self):
        for name, low in (("m", 2), ("series_length", 1), ("seed", 0)):
            object.__setattr__(self, name, integer_at_least(name, getattr(self, name), low))
        variance = real_at_least("amplitude_variance", self.amplitude_variance, 0, strict=True)
        object.__setattr__(self, "amplitude_variance", variance)
        object.__setattr__(self, "smoothing_scale", _scale("smoothing_scale", self.smoothing_scale))


# the largest scale whose kernel, 2 ceil(4 scale) + 1 taps, holds at most BLOCK_VALUES
MAX_SMOOTHING_SCALE = (BLOCK_VALUES // 2 - 1) / 4


def _scale(name: str, scale) -> float:
    """A positive finite kernel scale of at most MAX_SMOOTHING_SCALE; ParamError naming name."""
    scale = real_at_least(name, scale, 0, strict=True)
    if scale > MAX_SMOOTHING_SCALE:
        raise ParamError(
            f"{name} must be <= {MAX_SMOOTHING_SCALE}, so that its kernel has at most "
            f"BLOCK_VALUES taps, got {scale}"
        )
    return scale


def gaussian_kernel(scale: float) -> np.ndarray:
    """Normalized Gaussian smoothing kernel truncated at +-4 scales."""
    radius = max(1, math.ceil(4.0 * _scale("scale", scale)))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / scale) ** 2)
    return k / k.sum()


def make_latent_sources(
    cfg: GeneratorConfig,
    *,
    delta_max: int = 0,
    noise: Optional[NoiseSpec] = None,
    weights: Optional[Sequence[float]] = None,
) -> LatentSourceModel:
    """Build m smoothed-noise sources with alternating labels.

    Each source samples i.i.d. zero-mean Gaussian entries of the configured
    variance on an extended support, convolves with the truncated smoothing
    kernel, and crops the convolution margin so the ends carry no boundary
    artifacts. Labels alternate +1/-1, so ceil(m/2) sources are positive.

    The default sampling window is [1 - delta_max, series_length - delta_max]:
    a sample of series_length points whose shifted windows stay inside the
    source supports.
    """
    delta_max = integer_at_least("delta_max", delta_max, 0)
    if noise is None:
        noise = NoiseSpec()
    kernel = gaussian_kernel(cfg.smoothing_scale)
    margin = (len(kernel) - 1) // 2
    window_start = 1 - delta_max
    source_len = cfg.series_length + delta_max  # sampling window plus shift margin
    sd = math.sqrt(cfg.amplitude_variance)
    streams = derive_streams(np.random.SeedSequence(cfg.seed), cfg.m)
    sources = []
    for i, rng in enumerate(streams):
        raw = rng.normal(0.0, sd, source_len + 2 * margin)
        smoothed = np.convolve(raw, kernel, mode="valid")
        label = Label.POSITIVE if i % 2 == 0 else Label.NEGATIVE
        sources.append((TimeSeries(window_start, smoothed, id=f"source-{i:04d}"), label))
    return LatentSourceModel(
        sources=tuple(sources),
        delta_max=delta_max,
        noise=noise,
        window_start=window_start,
        window_length=cfg.series_length,
        weights=tuple(weights) if weights is not None else None,
    )


def sample_series(
    model: LatentSourceModel,
    rng_stream: RngStream,
    *,
    window_start: Optional[int] = None,
    window_length: Optional[int] = None,
    id: str = "",
) -> tuple[TimeSeries, Label, Provenance]:
    """One draw from the model: pick a source, shift it, add noise.

    The sample is materialized on [window_start, window_start+window_length-1]
    (the model's default window unless overridden): SupportError if the chosen
    source cannot cover the shifted window.
    """
    rng = as_generator(rng_stream)
    start = model.window_start if window_start is None else window_start
    length = model.window_length if window_length is None else window_length
    start = integer_at_least("window_start", start)
    length = integer_at_least("window_length", length, 1)
    if model.weights is None:
        idx = int(rng.integers(0, model.m))
    else:
        idx = int(rng.choice(model.m, p=np.asarray(model.weights)))
    shift = int(rng.integers(0, model.delta_max + 1))
    source, label = model.sources[idx]
    base = source.window(start + shift, start + length - 1 + shift)
    values = base + model.noise.sample(rng, length)
    return TimeSeries(start, values, id=id), label, Provenance(idx, shift)


def sample_draws(
    model: LatentSourceModel,
    n: int,
    rng_stream: RngStream,
    *,
    window_start: Optional[int] = None,
    window_length: Optional[int] = None,
    id_prefix: str = "train",
) -> list:
    """n independent sample_series draws, one child stream each, in draw order."""
    n = integer_at_least("n", n, 1)
    window = {"window_start": window_start, "window_length": window_length}
    return [
        sample_series(model, rng, id=f"{id_prefix}-{i:05d}", **window)
        for i, rng in enumerate(derive_streams(rng_stream, n))
    ]


def sample_dataset(
    model: LatentSourceModel,
    n: int,
    rng_stream: RngStream,
    *,
    window_start: Optional[int] = None,
    window_length: Optional[int] = None,
    id_prefix: str = "train",
) -> LabeledDataset:
    """n independent draws, split into the two classes with provenance retained."""
    draws = sample_draws(
        model, n, rng_stream, window_start=window_start, window_length=window_length,
        id_prefix=id_prefix,
    )
    return LabeledDataset.from_draws(draws)


def coverage_counts(data: LabeledDataset, model: LatentSourceModel) -> list[int]:
    """How many training examples each source generated, from provenance."""
    counts = [0] * model.m
    for prov in data.provenance():
        if not (0 <= prov.source_index < model.m):
            raise ProvenanceError(
                f"provenance points at source {prov.source_index}, but the model has m={model.m}"
            )
        counts[prov.source_index] += 1
    return counts


def training_size(beta: float, m: int) -> int:
    """Training set size ceil(beta * m * log m) (natural log)."""
    beta, m = real_at_least("beta", beta, 0, strict=True), integer_at_least("m", m, 2)
    return math.ceil(beta * m * math.log(m))
