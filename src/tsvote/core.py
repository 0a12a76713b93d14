"""Time series on explicit integer supports and the shift-minimized squared distance.

A series is defined exactly on [start_index, start_index + len - 1]; reading
outside that range raises SupportError rather than fabricating zeros. All types
here are immutable and all operations are pure functions, except that
ShiftWindows, the one builder of shifted windows, computes its norms on first
use. Its forms of the distances are:
- `grid`, the direct `sq_dists` reference (the cells that sum-mode voting and
  the oracle vote with, and the class gap's unpruned path), built in long
  contiguous passes over one reused tile;
- `expansion_minimum`, the minimum over shifts of the GEMM form d~ = |w|^2 -
  2 w.q, plus |q|^2 and clamped at 0, not verified (min-mode detection traces
  vote on it, the class gap prunes with it): one GEMM per shift, norms
  included, into a running minimum;
- `minimum`, the one bound-and-verify: each series' exact minimum over shifts
  and its first minimizer, decided by the two smallest d~ over shifts (from
  the same shift walk for several queries, from one banded row for one) and
  computed with `sq_dists`;
- `minimum_bound` and `grid_bound`, the same two GEMM forms unverified, each
  with its radius 2 eps: the minimum over shifts, or every cell. The error
  curves certify their labels from these bounds and compute exact distances
  only for the rows the bounds leave undecided.

Callers check their queries; the engine assumes finite ones. `grid`,
`minimum` and the two bounds take a block of queries and walk it in `blocks`,
however many queries it has: no temporary of `grid` holds more than
BLOCK_VALUES float64 values beyond one series' (S, T) differences, since a
query whose differences do not fit is walked in blocks of series, and none of
the others more than a few BLOCK_VALUES beyond one query's banded (n, S) row.
`expansion_minimum` takes its block whole; a detection trace walks its queries
in `blocks` of 2 n. A block of no queries gives empty grids and minima.

Every number a caller hands in as a setting passes one of two rules defined
here, neither of which truncates: `integer_at_least` for sizes, shifts,
indices, labels and seeds; `real_at_least` for finite reals bounded below.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParamError, SupportError


class Label(IntEnum):
    POSITIVE = 1
    NEGATIVE = -1

    @classmethod
    def from_int(cls, value: int) -> "Label":
        value = integer_at_least("label", value)
        if value not in (1, -1):
            raise ParamError(f"label must be +1 or -1, got {value!r}")
        return cls(value)


def _read_only(a) -> bool:
    """True if neither a nor any array whose memory it views can be written."""
    while isinstance(a, np.ndarray) and not a.flags.writeable:
        a = a.base
    return a is None


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A real-valued signal on the integer range [start_index, start_index + len - 1]."""

    start_index: int
    values: np.ndarray
    id: str = ""

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ParamError(f"series {self.id!r}: values must be one-dimensional")
        if arr.size == 0:
            raise ParamError(f"series {self.id!r}: values must be non-empty")
        if not np.all(np.isfinite(arr)):
            raise ParamError(f"series {self.id!r}: values must be finite")
        if arr is self.values and not _read_only(arr):
            arr = arr.copy()  # the caller could still write it, or the array it views
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "start_index", integer_at_least("start_index", self.start_index))

    def __len__(self) -> int:
        return self.values.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return (
            self.start_index == other.start_index
            and self.id == other.id
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return (
            f"TimeSeries(id={self.id!r}, support=[{self.start_index}, "
            f"{self.end_index}], n={len(self)})"
        )

    @property
    def end_index(self) -> int:
        return self.start_index + len(self) - 1

    def covers(self, first: int, last: int) -> bool:
        return self.start_index <= first and last <= self.end_index

    def window(self, first: int, last: int) -> np.ndarray:
        """Values on [first, last] as a read-only view."""
        if last < first:
            raise ParamError(f"empty window [{first}, {last}]")
        if not self.covers(first, last):
            raise SupportError(
                f"series {self.id!r} is defined on [{self.start_index}, "
                f"{self.end_index}] but [{first}, {last}] was requested"
            )
        offset = first - self.start_index
        return self.values[offset : offset + (last - first + 1)]

    def value_at(self, t: int) -> float:
        return float(self.window(t, t)[0])


@dataclass(frozen=True)
class Provenance:
    """Which latent source generated an example and at what shift."""

    source_index: int
    shift: int


@dataclass(frozen=True)
class LabeledDataset:
    """Training examples split by label, with optional generation provenance."""

    positives: tuple
    negatives: tuple
    positive_provenance: Optional[tuple] = None
    negative_provenance: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "positives", tuple(self.positives))
        object.__setattr__(self, "negatives", tuple(self.negatives))
        if self.positive_provenance is not None:
            object.__setattr__(self, "positive_provenance", tuple(self.positive_provenance))
            if len(self.positive_provenance) != len(self.positives):
                raise ParamError("positive_provenance length must match positives")
        if self.negative_provenance is not None:
            object.__setattr__(self, "negative_provenance", tuple(self.negative_provenance))
            if len(self.negative_provenance) != len(self.negatives):
                raise ParamError("negative_provenance length must match negatives")
        if self.n == 0:
            raise ParamError("dataset must contain at least one example")

    @classmethod
    def from_draws(cls, draws: Iterable) -> "LabeledDataset":
        """Dataset of (series, label, provenance or None) draws: positives first,
        each class in draw order; provenance is kept only if every draw has it."""
        draws = tuple(draws)
        pos = [d for d in draws if d[1] == Label.POSITIVE]
        neg = [d for d in draws if d[1] != Label.POSITIVE]
        keep = all(p is not None for _, _, p in draws)
        return cls(
            tuple(s for s, _, _ in pos),
            tuple(s for s, _, _ in neg),
            tuple(p for _, _, p in pos) if keep else None,
            tuple(p for _, _, p in neg) if keep else None,
        )

    def draws(self) -> tuple:
        """(series, label, provenance or None) per example in row order; from_draws inverts it."""
        labels = (Label.POSITIVE,) * self.n_pos + (Label.NEGATIVE,) * self.n_neg
        provs = (self.positive_provenance or (None,) * self.n_pos) + (
            self.negative_provenance or (None,) * self.n_neg
        )
        return tuple(zip(self.examples(), labels, provs))

    @property
    def n(self) -> int:
        return len(self.positives) + len(self.negatives)

    @property
    def n_pos(self) -> int:
        return len(self.positives)

    @property
    def n_neg(self) -> int:
        return len(self.negatives)

    def examples(self) -> tuple:
        """All examples in insertion order: positives first, then negatives."""
        return self.positives + self.negatives

    def labels(self) -> np.ndarray:
        return np.array([1] * self.n_pos + [-1] * self.n_neg, dtype=np.int64)

    def provenance(self) -> tuple:
        """Per-example provenance in insertion order; ProvenanceError when absent."""
        from .errors import ProvenanceError

        if self.positive_provenance is None or self.negative_provenance is None:
            raise ProvenanceError("dataset carries no generation provenance")
        return self.positive_provenance + self.negative_provenance

    def require_both_classes(self) -> None:
        if self.n_pos == 0 or self.n_neg == 0:
            raise ParamError(
                f"both classes must be non-empty (n+={self.n_pos}, n-={self.n_neg})"
            )

    def swapped(self) -> "LabeledDataset":
        return LabeledDataset(
            self.negatives, self.positives, self.negative_provenance, self.positive_provenance
        )


_SHIFT_MODES = ("min", "sum")


def _number(value) -> bool:
    """True for a real number that is not a bool (nor a string, nor an array)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def integer_at_least(name: str, value, low: Optional[int] = None) -> int:
    """value as an int; ParamError naming it unless it is an integral, finite
    number (an int, a numpy integer or an integral float; not a bool or a
    string) and, when low is given, >= low."""
    if type(value) is not int:
        if not (_number(value) and math.isfinite(value) and value == int(value)):
            raise ParamError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if low is not None and value < low:
        raise ParamError(f"{name} must be >= {low}, got {value}")
    return value


def real_at_least(name: str, value, low: float, *, strict: bool = False) -> float:
    """value as a float; ParamError naming it unless it is a finite real number
    (not a bool or a string) >= low, or > low when strict."""
    sign = ">" if strict else ">="
    if not (_number(value) and math.isfinite(value) and (value > low if strict else value >= low)):
        raise ParamError(f"{name} must be finite and {sign} {low}, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class VotingParams:
    """Knobs of the voting classifiers.

    gamma scales the vote weight exp(-gamma * distance); theta is the class
    ratio threshold; T is the observed prefix length; delta_max bounds the
    integer alignment shift; shift_mode "min" takes the best shift per example
    while "sum" pools votes from every shift.
    """

    gamma: float
    T: int
    delta_max: int = 0
    theta: float = 1.0
    shift_mode: str = "min"

    def __post_init__(self):
        object.__setattr__(self, "gamma", real_at_least("gamma", self.gamma, 0))
        object.__setattr__(self, "theta", real_at_least("theta", self.theta, 0, strict=True))
        object.__setattr__(self, "T", integer_at_least("T", self.T, 1))
        object.__setattr__(self, "delta_max", integer_at_least("delta_max", self.delta_max, 0))
        if self.shift_mode not in _SHIFT_MODES:
            raise ParamError(f"shift_mode must be one of {_SHIFT_MODES}, got {self.shift_mode!r}")


def advance(q: TimeSeries, delta: int) -> TimeSeries:
    """The series q advanced by delta steps: result(t) = q(t + delta)."""
    delta = integer_at_least("delta", delta)
    if delta == 0:
        return q
    return TimeSeries(q.start_index - delta, q.values, id=q.id)


def window_sq_dist(r: TimeSeries, s: TimeSeries, delta: int, T: int) -> float:
    """Squared Euclidean distance between r shifted by delta and s over [1, T].

    Requires r defined on [1 + delta, T + delta] and s on [1, T].
    """
    T, delta = integer_at_least("T", T, 1), integer_at_least("delta", delta)
    diff = r.window(1 + delta, T + delta) - s.window(1, T)
    return float(np.sum(diff**2))


def shift_min_distance(
    r: TimeSeries, s: TimeSeries, T: int, delta_max: int
) -> tuple[float, int]:
    """Minimum of window_sq_dist over shifts in {-delta_max, ..., delta_max}.

    Returns (distance, shift); ties resolve to the first minimizer in
    ascending shift order so runs are reproducible. Requires r defined on
    [1 - delta_max, T + delta_max] and s on [1, T].
    """
    T, delta_max = integer_at_least("T", T, 1), integer_at_least("delta_max", delta_max, 0)
    best_val = None
    best_delta = 0
    for delta in range(-delta_max, delta_max + 1):
        val = window_sq_dist(r, s, delta, T)
        if best_val is None or val < best_val:
            best_val = val
            best_delta = delta
    return best_val, best_delta


def stacked_windows(seriess: Sequence[TimeSeries], first: int, last: int) -> np.ndarray:
    """Matrix whose i-th row is seriess[i] on [first, last]; SupportError if any lacks it."""
    if not seriess:
        raise ParamError("need at least one series")
    return np.stack([ts.window(first, last) for ts in seriess])


def sq_dists(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Squared Euclidean distances along the last axis, broadcasting a against b.

    A distance beyond float64 is +inf (numpy need not warn about it). out, a
    C-ordered array of the broadcast shape (a itself, say), holds the squared
    differences instead of fresh temporaries; the sums are the same floats.
    """
    with np.errstate(over="ignore"):
        if out is None:
            return ((a - b) ** 2).sum(axis=-1)
        np.subtract(a, b, out=out)
        np.square(out, out=out)
        return out.sum(axis=-1)


# float64 values (0.5 MB) that the temporaries of one block of work may hold,
# so that memory stays bounded however many queries or cells a call is given
BLOCK_VALUES = 65536

# shifts per GEMM of a one-query minimum: a group of SHIFT_GROUP placements
# multiplies only the SHIFT_GROUP + T - 1 row values it touches, not all L
SHIFT_GROUP = 32


def blocks(count: int, size: int) -> list:
    """Slices that cover range(count) in order, each of at most
    BLOCK_VALUES // size items (at least one): the blocks of items that take
    size values each (all of them when size is 0). An empty range is one empty
    slice."""
    step = max(1, BLOCK_VALUES // max(size, 1))
    return [slice(i, i + step) for i in range(0, max(count, 1), step)]


def expansion_slack(norms, k: int):
    """eps = 8 g norms + 4 k tiny, with g = k u / (1 - k u) and u the unit
    roundoff: the rounding slack of the engine's GEMM forms of a squared
    distance, for rows of L = k - 4 values.

    Let D be the exact distance of a window w of row i and a query q, and
    N = R_i + |q|^2 (norms), with R_i the squared norm of the row. sq_dists
    (T squares) is within g D <= 2g N of D. Both GEMM forms compute d~ =
    |w|^2 - 2 w.q, which is D - |q|^2 up to rounding: the cumulative-sum
    |w|^2 within 3g R_i; the banded row's dot product with -2q (at most L
    products) within g N, and adding |w|^2 within g N; or the shift walk's
    one dot product of T + 1 terms, the norm's among them, whose magnitudes
    sum to at most 2N (1 + 3g), within 2g N (1 + 3g). So d~ is within
    5g N + 6g^2 N of D - |q|^2, and adding |q|^2 keeps it within eps of D.
    A second-smallest d~ over shifts more than 2 eps above the smallest thus
    leaves the smallest one's exact cell below every other by more than
    2 eps - 14g N - 12g^2 N > 0: the unique, hence first, minimizer. The
    4 k tiny term covers subnormal rounding, which no relative slack does.
    """
    u, tiny = np.finfo(np.float64).eps / 2, np.finfo(np.float64).tiny
    return 8.0 * k * u / (1.0 - k * u) * norms + 4.0 * k * tiny


class ShiftWindows:
    """Series at every shift in first_shift..last_shift: row i of rows is
    seriess[i] on [1 + first_shift, T + last_shift] (L values), and views[i, j],
    at shift first_shift + j, is its values j..j+T-1 (a read-only view)."""

    def __init__(self, seriess: Sequence[TimeSeries], T: int, first_shift: int, last_shift: int):
        self.T, self.first_shift = T, first_shift
        self.rows = stacked_windows(seriess, 1 + first_shift, T + last_shift)
        self.views = sliding_window_view(self.rows, T, axis=1)

    @cached_property
    def norms(self) -> tuple[np.ndarray, np.ndarray]:
        """(n, S) window and (n,) row squared norms from one cumulative sum,
        computed on first use; an overflow gives inf, or NaN in a window."""
        (n, L), T = self.rows.shape, self.T
        with np.errstate(over="ignore", invalid="ignore"):
            cum = np.zeros((n, L + 1))
            np.cumsum(self.rows * self.rows, axis=1, out=cum[:, 1:])
            return cum[:, T:] - cum[:, : L + 1 - T], cum[:, -1]

    def grid(self, q: np.ndarray) -> np.ndarray:
        """(n, S) squared distances of a (T,) q to every window, or (P, n, S) of
        each row of a (P, T) block: the exact reference.

        Tiles of queries and series hold at most BLOCK_VALUES differences: as
        many whole queries as fit, or one query's series in blocks when it
        alone does not fit. Every tile reuses one buffer: the windows are
        copied in, then the block's queries, each repeated S times, are
        subtracted along rows of S T values, so each pass is long and
        contiguous. Each cell is still one sum along a contiguous row of T
        squares, so it is bit for bit sq_dists(window, q).
        """
        Q = q if q.ndim == 2 else q[None]
        (n, S, T), P = self.views.shape, len(Q)
        out = np.empty((P, n, S))
        query_tiles, series_tiles = blocks(P, n * S * T), blocks(n, S * T)
        # the first tile is the largest: one buffer for every tile's differences
        # and one for its queries, each repeated S times
        p, r = len(Q[query_tiles[0]]), len(self.views[series_tiles[0]])
        tile, repeated = np.empty(p * r * S * T), np.empty((p, S, T))
        with np.errstate(over="ignore"):  # as sq_dists: a distance beyond float64 is inf
            for a in query_tiles:
                p = len(Q[a])
                np.copyto(repeated[:p], Q[a, None])
                queries = repeated[:p].reshape(p, 1, S * T)
                for b in series_tiles:
                    r = len(self.views[b])
                    d = tile[: p * r * S * T].reshape(p, r, S, T)
                    np.copyto(d, self.views[b])
                    flat = d.reshape(p, r, S * T)
                    np.subtract(flat, queries, out=flat)
                    np.square(flat, out=flat)
                    d.sum(axis=-1, out=out[a, b])
        return out if q.ndim == 2 else out[0]

    def _query_sq(self, Q: np.ndarray) -> Optional[np.ndarray]:
        """The (P,) squared norms of the rows of Q, or None if 4 (R_i + |q|^2)
        overflows for some row and query, where d~ would be inf - inf."""
        with np.errstate(over="ignore"):
            q_sq = np.einsum("ij,ij->i", Q, Q)
        if not math.isfinite(4.0 * (float(self.norms[1].max()) + float(q_sq.max(initial=0.0)))):
            return None
        return q_sq

    def slack(self, Q: np.ndarray) -> Optional[np.ndarray]:
        """The (n, P) eps (expansion_slack) of every row and row q of the (P, T)
        block Q, or None if a squared norm overflows."""
        q_sq = self._query_sq(Q)
        if q_sq is None:
            return None
        return expansion_slack(self.norms[1][:, None] + q_sq, self.rows.shape[1] + 4)

    def _shift_walk(self, Q: np.ndarray):
        """Yields (j, the (n, P) d~ = |w_j|^2 - 2 w_j.q of every row and row q
        of Q) for each shift j from the last down to 0, in one reused buffer.

        The rows are copied into an (n, L+1) array; from the last shift down,
        |w_j|^2 goes into column j+T, which no smaller shift reads, and one GEMM
        multiplies values j..j+T by the (T+1, P) placements, -2 Q^T over ones.
        The work arrays are these, not an (n, S, P) array of every shift.
        """
        (n, S, T), P = self.views.shape, len(Q)
        window_sq = self.norms[0]
        placements = np.ones((T + 1, P))  # C-ordered, as the GEMMs read it
        placements[:T] = Q.T  # a ufunc of Q.T into it would buffer 64 kB
        placements[:T] *= -2.0
        work = np.hstack([self.rows, window_sq[:, -1:]])
        cross = np.empty((n, P))
        for j in range(S - 1, -1, -1):
            work[:, j + T] = window_sq[:, j]
            yield j, np.matmul(work[:, j : j + T + 1], placements, out=cross)

    def expansion_minimum(self, Q: np.ndarray) -> np.ndarray:
        """The (n, P) minimum over shifts of d~ + |q|^2 for the (P, T) block Q,
        clamped at 0 and not verified: within 2 eps (expansion_slack) of the
        exact minimum, minimum(Q)[0]. If a squared norm overflows, the exact
        minimum of the grids.

        A running minimum (exact in any order) of the _shift_walk, then |q|^2
        and the clamp, both monotone. Q is taken whole.
        """
        q_sq = self._query_sq(Q)
        if q_sq is None:
            return self.grid(Q).min(axis=-1).T.copy()
        low = np.full((len(self.views), len(Q)), np.inf)
        for _, cross in self._shift_walk(Q):
            np.minimum(low, cross, out=low)
        del cross  # the walk's buffer, before the broadcast add's 64 kB ufunc buffer
        return np.maximum(np.add(low, q_sq, out=low), 0.0, out=low)

    def _bound_blocks(self, Q: np.ndarray, radius: np.ndarray):
        """Yields (b, Q[b], its (p,) squared norms) for each block of queries
        of the (P, T) block Q, the same blocks as minimum's, having set the
        (n, P) radius[:, b] to 2 eps (expansion_slack); a block whose squared
        norms overflow (slack is None) is skipped, so its radius stays as the
        caller filled it."""
        for b in blocks(len(Q), 5 * len(self.views)):
            q = Q[b]
            eps = self.slack(q)
            if eps is not None:
                np.multiply(eps, 2.0, out=radius[:, b])
                yield b, q, np.einsum("ij,ij->i", q, q)

    def minimum_bound(self, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(low, radius): the (n, P) minimum over shifts of d~ + |q|^2 for the
        (P, T) block Q, clamped at 0 and not verified, and the (n, P) radius
        2 eps within which the exact minimum, minimum(Q)[0], lies. Where a
        squared norm overflows, the radius is +inf and low is 0.

        A block of several queries is an expansion_minimum, one running
        np.minimum per shift of the _shift_walk; a block of one query (a full
        scale pool) is the minimum of its _banded_row plus |q|^2, clamped.
        Every cell of either form is within eps of the exact distance, and so
        each minimum (exact in any order) is, of the exact minimum."""
        n, P = len(self.views), len(Q)
        low, radius = np.zeros((n, P)), np.full((n, P), np.inf)
        for b, q, q_sq in self._bound_blocks(Q, radius):
            if len(q) == 1:
                d = self._banded_row(q[0]).min(axis=1, keepdims=True)
                low[:, b] = np.maximum(np.add(d, q_sq, out=d), 0.0, out=d)
            else:
                low[:, b] = self.expansion_minimum(q)
        return low, radius

    def grid_bound(self, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(cells, radius): the (P, n, S) d~ + |q|^2 of every cell of the
        (P, T) block Q, clamped at 0 and not verified, and the (n, P) radius
        2 eps within which every cell of its row and query in grid(Q) lies.
        Where a squared norm overflows, the radius is +inf and the cells 0.

        The same two GEMM forms as minimum_bound keep every shift: a block of
        several queries writes each step of the _shift_walk into its shift's
        column, a block of one query is its _banded_row."""
        (n, S, T), P = self.views.shape, len(Q)
        cells, radius = np.zeros((P, n, S)), np.full((n, P), np.inf)
        for b, q, q_sq in self._bound_blocks(Q, radius):
            block = cells[b]
            if len(q) == 1:
                block[0] = self._banded_row(q[0])
            else:
                for j, cross in self._shift_walk(q):
                    block[:, :, j] = cross.T
            np.add(block, q_sq[:, None, None], out=block)
        return np.maximum(cells, 0.0, out=cells), radius

    def _banded_row(self, q: np.ndarray) -> np.ndarray:
        """The (n, S) d~ of every row and shift for one (T,) query q: a GEMM
        per group of SHIFT_GROUP shifts against the placements of -2q on only
        the row values they touch, plus |w|^2."""
        n, S, T = self.views.shape
        # B copies of -2q zero-padded to k + 1 = B + T values: read as rows of k
        # values, copy j moves right by j, so row j is -2q at offset j
        B = min(S, SHIFT_GROUP)
        k = B + T - 1
        stack = np.zeros((B, k + 1))
        stack[:, :T] = -2.0 * q
        stack = stack.reshape(-1)[: B * k].reshape(B, k)
        d = np.empty((n, S))
        for j0 in range(0, S, B):
            b = min(B, S - j0)
            row_values, placements = self.rows[:, j0 : j0 + b + T - 1], stack[:b, : b + T - 1]
            np.matmul(row_values, placements.T, out=d[:, j0 : j0 + b])
        d += self.norms[0]
        return d

    def _two_smallest(self, Q: np.ndarray) -> tuple:
        """(first, second, shift): the (n, P) smallest and second-smallest d~
        over shifts of the rows of the (P, T) block Q, and a shift of the
        smallest. Several queries fold the _shift_walk into running values.
        One query takes its _banded_row; then the argmin, and the minimum
        with that cell set to +inf."""
        (n, S, T), P = self.views.shape, len(Q)
        if P != 1:  # ufuncs only: a copyto with where= took 20 times as long
            first, second = np.full((n, P), np.inf), np.full((n, P), np.inf)
            low, lower, work = np.zeros((n, P)), np.empty((n, P), dtype=bool), np.empty((n, P))
            for j, d in self._shift_walk(Q):
                np.less(d, first, out=lower)
                # shifts descend, so the last new smallest has the lowest j - S < 0
                np.minimum(low, np.multiply(lower, j - S, out=work), out=low)
                np.minimum(second, np.maximum(first, d, out=work), out=second)
                np.minimum(first, d, out=first)
            return first, second, (low + S).astype(np.intp)
        d = self._banded_row(Q[0])
        rows, shift = np.arange(n), d.argmin(axis=1)
        first = d[rows, shift]
        d[rows, shift] = np.inf
        return first[:, None], d.min(axis=1)[:, None], shift[:, None]

    def minimum(self, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(n, P) min and first argmin over shifts of the (n, S, P) exact grids
        of the (P, T) block Q, bit for bit, without building them.

        Per row and query, where the second-smallest d~ over shifts exceeds
        the smallest by more than 2 eps (_two_smallest, expansion_slack), the
        smallest one's shift is the first minimizer: only that cell is
        computed, with sq_dists. Otherwise (ties: constant or duplicated
        windows, or an overflowing norm) all S cells of that row and query
        are, and their first argmin is taken. Q is walked in blocks of
        queries whose five (n, p) arrays of the walk fit in BLOCK_VALUES, so
        at full scale each block is one query, a banded row.
        """
        (n, S, T), P = self.views.shape, len(Q)
        dmin, j = np.empty((n, P)), np.empty((n, P), dtype=np.intp)
        for b in blocks(P, 5 * n):
            q, eps, block_min, block_j = Q[b], self.slack(Q[b]), dmin[:, b], j[:, b]
            tied = np.ones(block_min.shape, dtype=bool)  # an overflowing norm: every pair
            if eps is not None:
                first, second, shift = self._two_smallest(q)
                tied = second - first <= 2.0 * eps
                block_min[:], block_j[:] = self._verify_candidates(q, shift)
                del first, second, shift, eps  # not held into the next block's walk
            rows, queries = np.nonzero(tied)
            # a tied pair's windows and their differences: S T values, plus its query
            for c in blocks(rows.size, (S + 1) * T) if rows.size else ():
                windows = self.views[rows[c]]
                d = sq_dists(windows, q[queries[c], None], out=windows)
                first_j = d.argmin(axis=1)  # argmin returns the first minimum
                block_min[rows[c], queries[c]] = d[np.arange(len(d)), first_j]
                block_j[rows[c], queries[c]] = first_j
        return dmin, j

    def _verify_candidates(self, Q: np.ndarray, j: np.ndarray) -> tuple:
        """minimum of Q at one candidate per row and query, the (n, P) shifts
        j. The windows of those cells are gathered in blocks of rows of at
        most BLOCK_VALUES / 4 values, and each block's differences are
        formed in place. Blocks that size stay in the allocator's heap, where
        whole BLOCK_VALUES ones were mapped afresh (about 8.5k minor page
        faults per desk pass); a gather into one reused buffer needs an index
        array for np.take, and took 3.8 times as long as this copy."""
        n, (P, T) = len(self.views), Q.shape
        dmin = np.empty((n, P))
        series = np.arange(n)[:, None]
        for b in blocks(n, 4 * P * T):
            windows = self.views[series[b], j[b]]
            dmin[b] = sq_dists(windows, Q, out=windows)
        return dmin, j
