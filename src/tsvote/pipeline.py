"""Rate preprocessing: bucketed activity counts to classifier-ready series.

The chain normalizes counts against their running total, emphasizes spikes,
smooths with a trailing window, and takes a (floored) natural log. Stages are
pure and composable; preprocess() is exactly the four stages in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import TimeSeries, integer_at_least, real_at_least
from .errors import EmptyPrefixError, ParamError, SupportError
from .synth import RngStream, as_generator


@dataclass(frozen=True)
class RateSeries:
    """Bucketed activity counts for one topic, indexed from bucket 1."""

    counts: np.ndarray
    bucket_width_minutes: float = 2.0
    topic_id: str = ""
    onset_index: Optional[int] = None

    def __post_init__(self):
        arr = np.asarray(self.counts, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ParamError(f"topic {self.topic_id!r}: counts must be a non-empty vector")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise ParamError(f"topic {self.topic_id!r}: counts must be nonnegative and finite")
        if arr is self.counts and arr.flags.writeable:
            arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "counts", arr)
        width = real_at_least("bucket_width_minutes", self.bucket_width_minutes, 0, strict=True)
        object.__setattr__(self, "bucket_width_minutes", width)
        if self.onset_index is not None:
            onset = integer_at_least(f"topic {self.topic_id!r}: onset_index", self.onset_index, 1)
            if onset > arr.size:
                raise ParamError(
                    f"topic {self.topic_id!r}: onset_index {onset} outside [1, {arr.size}]"
                )
            object.__setattr__(self, "onset_index", onset)

    def __len__(self) -> int:
        return self.counts.size


@dataclass(frozen=True)
class PipelineParams:
    alpha: float = 1.2
    t_smooth: int = 80
    log_floor: float = 1e-12

    def __post_init__(self):
        object.__setattr__(self, "alpha", real_at_least("alpha", self.alpha, 1))
        object.__setattr__(self, "t_smooth", integer_at_least("t_smooth", self.t_smooth, 1))
        floor = real_at_least("log_floor", self.log_floor, 0, strict=True)
        object.__setattr__(self, "log_floor", floor)


def baseline_normalize(rho: RateSeries) -> TimeSeries:
    """Counts relative to their running total: out(t) = counts(t) / sum(counts(1..t))."""
    counts = rho.counts
    if counts[0] == 0.0:
        raise EmptyPrefixError(
            f"topic {rho.topic_id!r}: first bucket is empty, normalization is undefined"
        )
    return TimeSeries(1, counts / np.cumsum(counts), id=rho.topic_id)


def spike_emphasize(rho_b: TimeSeries, alpha: float) -> TimeSeries:
    """|out(t) - out(t-1)|^alpha with the value before the first step taken as 0."""
    alpha = real_at_least("alpha", alpha, 1)
    v = rho_b.values
    prev = np.concatenate(([0.0], v[:-1]))
    return TimeSeries(rho_b.start_index, np.abs(v - prev) ** alpha, id=rho_b.id)


def smooth(rho_bs: TimeSeries, t_smooth: int) -> TimeSeries:
    """Trailing-window sum of the last t_smooth entries, truncated at the start."""
    t_smooth = integer_at_least("t_smooth", t_smooth, 1)
    v = rho_bs.values
    out = np.convolve(v, np.ones(t_smooth))[: v.size]
    return TimeSeries(rho_bs.start_index, out, id=rho_bs.id)


def log_transform(rho_bsc: TimeSeries, log_floor: float) -> TimeSeries:
    """Natural log after clamping below at log_floor, keeping everything finite."""
    log_floor = real_at_least("log_floor", log_floor, 0, strict=True)
    return TimeSeries(
        rho_bsc.start_index, np.log(np.maximum(rho_bsc.values, log_floor)), id=rho_bsc.id
    )


def preprocess(rho: RateSeries, params: PipelineParams) -> TimeSeries:
    """The full chain: normalize, emphasize spikes, smooth, log."""
    out = baseline_normalize(rho)
    out = spike_emphasize(out, params.alpha)
    out = smooth(out, params.t_smooth)
    return log_transform(out, params.log_floor)


def window_buckets(h_hours: float, bucket_width_minutes: float) -> int:
    """Number of buckets in an h-hour window."""
    h_hours = real_at_least("h_hours", h_hours, 0, strict=True)
    width = real_at_least("bucket_width_minutes", bucket_width_minutes, 0, strict=True)
    exact = h_hours * 60.0 / width
    buckets = round(exact) if np.isfinite(exact) else 0  # inf: too many buckets to count
    if buckets < 1 or abs(exact - buckets) > 1e-9:
        raise ParamError(
            f"h={h_hours}h does not give a whole number of {bucket_width_minutes}-minute buckets"
        )
    return buckets


def slice_training_window(
    series: TimeSeries,
    anchor: int,
    h_hours: float,
    bucket_width_minutes: float,
    mode: str = "pre_onset",
    rng_stream: Optional[RngStream] = None,
) -> TimeSeries:
    """Cut an h-hour window out of a preprocessed series.

    pre_onset takes the window ending at the anchor; random places the window
    uniformly inside the series (seeded through rng_stream). The slice keeps
    its original indexing.
    """
    w = window_buckets(h_hours, bucket_width_minutes)
    if mode == "pre_onset":
        first = integer_at_least("anchor", anchor) - w + 1
    elif mode == "random":
        if rng_stream is None:
            raise ParamError("random mode needs an rng_stream")
        span = len(series) - w
        if span < 0:
            raise SupportError(
                f"series {series.id!r} has {len(series)} entries, shorter than the "
                f"{w}-bucket window"
            )
        rng = as_generator(rng_stream)
        first = series.start_index + int(rng.integers(0, span + 1))
    else:
        raise ParamError(f"mode must be 'pre_onset' or 'random', got {mode!r}")
    return TimeSeries(first, series.window(first, first + w - 1), id=series.id)
