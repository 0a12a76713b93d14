"""Rate preprocessing: bucketed activity counts to classifier-ready series.

The chain normalizes counts against their running total, emphasizes spikes,
smooths with a trailing window, and takes a (floored) natural log. Each stage
is defined once, as array math on the rows of a (topics, length) matrix: a
cumulative sum along rows, elementwise passes, and one np.convolve per row.
The public stage functions apply it to one series; preprocess() is the four
stages in order on one row, with one TimeSeries at the end; preprocess_rows()
runs many topics as rows of one batch per length, walked in core.blocks, bit
for bit preprocess() of each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import TimeSeries, _read_only, blocks, integer_at_least, real_at_least, require_support
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
        if arr is self.counts and not _read_only(arr):
            arr = arr.copy()  # the caller could still write it, or the array it views
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


# work arrays of one block of rows in _chain, each as large as the block
_WORK_ARRAYS = 4


def require_prefix(rho: RateSeries) -> None:
    """EmptyPrefixError if rho's first bucket is empty: preprocess's first error."""
    if rho.counts[0] == 0.0:
        raise EmptyPrefixError(
            f"topic {rho.topic_id!r}: first bucket is empty, normalization is undefined"
        )


def _normalized(counts: np.ndarray) -> np.ndarray:
    """counts(t) / sum(counts(1..t)) along each row."""
    total = np.cumsum(counts, axis=-1)
    return np.divide(counts, total, out=total)


def _emphasized(v: np.ndarray, alpha: float) -> np.ndarray:
    """|v(t) - v(t-1)|^alpha along each row, with v(0) taken as 0."""
    step = np.zeros_like(v)
    step[:, 1:] = v[:, :-1]
    np.subtract(v, step, out=step)
    return np.abs(step, out=step) ** alpha


def _smoothed(v: np.ndarray, t_smooth: int) -> np.ndarray:
    """Sum of the last t_smooth entries along each row, truncated at the start.
    np.convolve takes its longer operand first, so every kernel longer than
    the rows gives the same bits: one entry past the row length is the most built."""
    ones, out = np.ones(min(t_smooth, v.shape[-1] + 1)), np.empty_like(v)
    for row, smoothed in zip(v, out):
        smoothed[:] = np.convolve(row, ones)[: row.size]
    return out


def _logged(v: np.ndarray, log_floor: float, out=None) -> np.ndarray:
    """Natural log of each entry after clamping it below at log_floor."""
    return np.log(np.maximum(v, log_floor), out=out)


def _chain(counts: np.ndarray, params: PipelineParams, out: np.ndarray) -> None:
    """The four stages on each row of a (k, L) block of counts, into out."""
    v = _emphasized(_normalized(counts), params.alpha)
    _logged(_smoothed(v, params.t_smooth), params.log_floor, out)


def baseline_normalize(rho: RateSeries) -> TimeSeries:
    """Counts relative to their running total: out(t) = counts(t) / sum(counts(1..t))."""
    require_prefix(rho)
    return TimeSeries(1, _normalized(rho.counts[None])[0], id=rho.topic_id)


def spike_emphasize(rho_b: TimeSeries, alpha: float) -> TimeSeries:
    """|out(t) - out(t-1)|^alpha with the value before the first step taken as 0."""
    alpha = real_at_least("alpha", alpha, 1)
    return TimeSeries(rho_b.start_index, _emphasized(rho_b.values[None], alpha)[0], id=rho_b.id)


def smooth(rho_bs: TimeSeries, t_smooth: int) -> TimeSeries:
    """Trailing-window sum of the last t_smooth entries, truncated at the start."""
    t_smooth = integer_at_least("t_smooth", t_smooth, 1)
    return TimeSeries(rho_bs.start_index, _smoothed(rho_bs.values[None], t_smooth)[0], id=rho_bs.id)


def log_transform(rho_bsc: TimeSeries, log_floor: float) -> TimeSeries:
    """Natural log after clamping below at log_floor, keeping everything finite."""
    log_floor = real_at_least("log_floor", log_floor, 0, strict=True)
    values = _logged(rho_bsc.values[None], log_floor)[0]
    return TimeSeries(rho_bsc.start_index, values, id=rho_bsc.id)


def preprocess_rows(rates: Sequence[RateSeries], params: PipelineParams) -> list:
    """preprocess(rate, params).values of each rate, in order, as read-only rows.

    Rates of one length are the rows of one (topics, length) batch, walked in
    core.blocks of rows whose _WORK_ARRAYS work arrays fit in BLOCK_VALUES
    together. Every stage treats each row alone, so a row is bit for bit the
    same in any batch. EmptyPrefixError names the first rate, in order, whose
    first bucket is empty.
    """
    for rate in rates:
        require_prefix(rate)
    by_length = {}
    for i, rate in enumerate(rates):
        by_length.setdefault(len(rate), []).append(i)
    rows = [None] * len(rates)
    for length, topics in by_length.items():
        out = np.empty((len(topics), length))
        for b in blocks(len(topics), _WORK_ARRAYS * length):
            _chain(np.stack([rates[i].counts for i in topics[b]]), params, out[b])
        out.setflags(write=False)
        for i, row in zip(topics, out):
            rows[i] = row
    return rows


def preprocess(rho: RateSeries, params: PipelineParams) -> TimeSeries:
    """The full chain: normalize, emphasize spikes, smooth, log."""
    return TimeSeries(1, preprocess_rows([rho], params)[0], id=rho.topic_id)


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


def training_slice_start(
    series_id: str,
    start_index: int,
    length: int,
    anchor: int,
    w: int,
    mode: str = "pre_onset",
    rng_stream: Optional[RngStream] = None,
) -> int:
    """First index of the w-bucket slice that slice_training_window cuts from
    series series_id, of length values from start_index.

    pre_onset ends the slice at the anchor; random places it uniformly inside
    the series, from one draw of rng_stream. Raises the error of a bad mode or
    anchor, a missing stream, or a slice the series does not cover. The
    detection sweep's test regions are placed by it too, 2 half + T wide.
    """
    if mode == "pre_onset":
        first = integer_at_least("anchor", anchor) - w + 1
    elif mode == "random":
        if rng_stream is None:
            raise ParamError("random mode needs an rng_stream")
        span = length - w
        if span < 0:
            raise SupportError(
                f"series {series_id!r} has {length} entries, shorter than the {w}-bucket window"
            )
        first = start_index + int(as_generator(rng_stream).integers(0, span + 1))
    else:
        raise ParamError(f"mode must be 'pre_onset' or 'random', got {mode!r}")
    require_support(series_id, start_index, start_index + length - 1, first, first + w - 1)
    return first


def slice_training_window(
    series: TimeSeries,
    anchor: int,
    h_hours: float,
    bucket_width_minutes: float,
    mode: str = "pre_onset",
    rng_stream: Optional[RngStream] = None,
) -> TimeSeries:
    """Cut an h-hour window out of a preprocessed series, where
    training_slice_start places it. The slice keeps its original indexing.
    """
    w = window_buckets(h_hours, bucket_width_minutes)
    first = training_slice_start(
        series.id, series.start_index, len(series), anchor, w, mode, rng_stream
    )
    return TimeSeries(first, series.window(first, first + w - 1), id=series.id)
