import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dyadic_series
from tsvote import (
    Label,
    LabeledDataset,
    ParamError,
    Provenance,
    SupportError,
    TimeSeries,
    VotingParams,
    advance,
    classify_knn,
    shift_min_distance,
    window_sq_dist,
)
import tsvote.core as core


def brute_window_sq_dist(r, s, delta, T):
    total = 0.0
    for t in range(1, T + 1):
        total += (r.value_at(t + delta) - s.value_at(t)) ** 2
    return total


def brute_shift_min(r, s, T, delta_max):
    best, best_d = None, None
    for d in range(-delta_max, delta_max + 1):
        v = brute_window_sq_dist(r, s, d, T)
        if best is None or v < best:
            best, best_d = v, d
    return best, best_d


class TestTimeSeries:
    def test_support_bounds(self):
        ts = TimeSeries(-2, [1.0, 2.0, 3.0], id="x")
        assert ts.start_index == -2 and ts.end_index == 0
        assert ts.value_at(-1) == 2.0

    def test_values_are_read_only(self):
        ts = TimeSeries(1, [1.0, 2.0])
        with pytest.raises(ValueError):
            ts.values[0] = 9.0

    def test_a_read_only_view_of_writable_memory_is_copied(self):
        # a kept kernel relies on a series never changing after it is built
        base = np.array([1.0, 2.0, 3.0])
        view = base[1:]
        view.setflags(write=False)
        ts = TimeSeries(1, view)
        base[1] = 9.0
        assert ts.values.tolist() == [2.0, 3.0]
        # a window of a series is already read-only throughout, so it is shared
        assert np.shares_memory(TimeSeries(1, ts.window(1, 2)).values, ts.values)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ParamError):
            TimeSeries(1, [])
        with pytest.raises(ParamError):
            TimeSeries(1, [1.0, float("nan")])
        with pytest.raises(ParamError):
            TimeSeries(1, [1.0, float("inf")])

    def test_window_outside_support(self):
        ts = TimeSeries(1, [1.0, 2.0, 3.0], id="short")
        with pytest.raises(SupportError, match="short"):
            ts.window(0, 2)
        with pytest.raises(SupportError):
            ts.window(2, 4)

    def test_equality_is_structural(self):
        a = TimeSeries(1, [1.0, 2.0], id="a")
        b = TimeSeries(1, [1.0, 2.0], id="a")
        c = TimeSeries(0, [1.0, 2.0], id="a")
        assert a == b and a != c


class TestAdvance:
    def test_identity(self, rng):
        q = dyadic_series(rng, 3, 7, id="q")
        assert advance(q, 0) == q

    def test_worked_example(self):
        q = TimeSeries(1, [5.0, 6.0, 7.0], id="q")
        shifted = advance(q, 1)
        assert shifted.start_index == 0 and shifted.end_index == 2
        assert shifted.value_at(1) == 6.0
        assert np.array_equal(shifted.values, q.values)

    @settings(max_examples=100, deadline=None)
    @given(
        start=st.integers(-5, 5),
        vals=st.lists(st.integers(-50, 50), min_size=1, max_size=8),
        a=st.integers(-4, 4),
        b=st.integers(-4, 4),
    )
    def test_composition(self, start, vals, a, b):
        q = TimeSeries(start, [float(v) for v in vals], id="q")
        lhs = advance(advance(q, a), b)
        rhs = advance(q, a + b)
        assert lhs.start_index == rhs.start_index
        assert np.array_equal(lhs.values, rhs.values)


class TestWindowSqDist:
    def test_identical_series(self, rng):
        r = dyadic_series(rng, 1, 5, id="r")
        assert window_sq_dist(r, r, 0, 5) == 0.0

    def test_constant_offset(self):
        r = TimeSeries(1, [0.0, 0.0, 0.0], id="r")
        s = TimeSeries(1, [2.0, 2.0, 2.0], id="s")
        assert window_sq_dist(r, s, 0, 3) == 12.0

    def test_matches_bruteforce(self, rng):
        for _ in range(200):
            r = dyadic_series(rng, -1, 12, id="r")  # covers [-1, 10]
            s = dyadic_series(rng, 1, 8, id="s")
            for delta in range(-2, 3):
                assert window_sq_dist(r, s, delta, 8) == brute_window_sq_dist(r, s, delta, 8)

    def test_support_error_not_padding(self):
        r = TimeSeries(1, [1.0, 2.0, 3.0], id="r")
        s = TimeSeries(1, [0.0, 0.0, 0.0], id="s")
        with pytest.raises(SupportError):
            window_sq_dist(r, s, 1, 3)
        with pytest.raises(SupportError):
            window_sq_dist(r, s, -1, 3)


class TestShiftMinDistance:
    def test_worked_example(self):
        r = TimeSeries(0, np.arange(0.0, 7.0), id="r")  # r(t) = t on [0, 6]
        s = TimeSeries(1, [2.0, 3.0, 4.0], id="s")  # s(t) = t + 1 on [1, 3]
        assert shift_min_distance(r, s, 3, 1) == (0.0, 1)

    def test_singleton_shift_set(self, rng):
        r = dyadic_series(rng, 1, 6, id="r")
        s = dyadic_series(rng, 1, 6, id="s")
        assert shift_min_distance(r, s, 6, 0) == (window_sq_dist(r, s, 0, 6), 0)

    def test_constant_series_tiebreak(self):
        # constants are shift-invariant: first minimizer in ascending order wins
        r = TimeSeries(-10, np.zeros(30), id="r")
        s = TimeSeries(1, np.full(4, 3.0), id="s")
        for dmax in (0, 1, 3):
            assert shift_min_distance(r, s, 4, dmax) == (4 * 9.0, -dmax)

    def test_matches_bruteforce(self, rng):
        for _ in range(200):
            T = int(rng.integers(1, 17))
            dmax = int(rng.integers(0, 5))
            r = dyadic_series(rng, 1 - dmax, T + 2 * dmax, id="r")
            s = dyadic_series(rng, 1, T, id="s")
            assert shift_min_distance(r, s, T, dmax) == brute_shift_min(r, s, T, dmax)

    def test_monotone_in_T(self, rng):
        dmax = 3
        r = dyadic_series(rng, 1 - dmax, 16 + 2 * dmax, id="r")
        s = dyadic_series(rng, 1, 16, id="s")
        dists = [shift_min_distance(r, s, T, dmax)[0] for T in range(1, 17)]
        assert all(a <= b for a, b in zip(dists, dists[1:]))

    def test_monotone_in_delta_max(self, rng):
        r = dyadic_series(rng, -3, 16, id="r")  # covers [-3, 12]
        s = dyadic_series(rng, 1, 8, id="s")
        dists = [shift_min_distance(r, s, 8, d)[0] for d in range(5)]
        assert all(a >= b for a, b in zip(dists, dists[1:]))

    def test_scaling(self, rng):
        dmax = 2
        r = dyadic_series(rng, 1 - dmax, 8 + 2 * dmax, id="r")
        s = dyadic_series(rng, 1, 8, id="s")
        base, base_shift = shift_min_distance(r, s, 8, dmax)
        for a in (0.5, 2.0, 4.0):  # powers of two keep the scaling exact
            ra = TimeSeries(r.start_index, a * r.values, id="ra")
            sa = TimeSeries(s.start_index, a * s.values, id="sa")
            scaled, scaled_shift = shift_min_distance(ra, sa, 8, dmax)
            assert scaled == a * a * base
            assert scaled_shift == base_shift

    def test_zero_iff_exact_match(self, rng):
        base = dyadic_series(rng, -2, 14, id="base")  # covers [-2, 11]
        s = TimeSeries(1, base.window(2, 9), id="s")  # matches base at shift +1
        d, shift = shift_min_distance(base, s, 8, 3)
        assert d == 0.0 and shift == 1

    def test_support_error(self):
        r = TimeSeries(1, np.zeros(10), id="r")
        s = TimeSeries(1, np.zeros(4), id="s")
        with pytest.raises(SupportError):
            shift_min_distance(r, s, 4, 1)  # r lacks index 0


class TestParamsAndDataset:
    def test_voting_params_validation(self):
        with pytest.raises(ParamError):
            VotingParams(gamma=-0.1, T=5)
        with pytest.raises(ParamError):
            VotingParams(gamma=0.1, T=0)
        with pytest.raises(ParamError):
            VotingParams(gamma=0.1, T=5, theta=0.0)
        with pytest.raises(ParamError):
            VotingParams(gamma=0.1, T=5, delta_max=-1)
        with pytest.raises(ParamError):
            VotingParams(gamma=0.1, T=5, shift_mode="max")

    def test_voting_params_take_integral_sizes_only(self):
        with pytest.raises(ParamError, match="T must be an integer"):
            VotingParams(1.0, 2.7)
        with pytest.raises(ParamError, match="T must be an integer"):
            VotingParams(1.0, np.float64(3.5))
        with pytest.raises(ParamError, match="delta_max must be an integer"):
            VotingParams(1.0, 4, 1.5)
        with pytest.raises(ParamError, match="^T must be an integer"):
            VotingParams(1.0, True)  # a bool used to run as 1
        with pytest.raises(ParamError, match="^delta_max must be an integer"):
            VotingParams(1.0, 4, np.bool_(True))
        for T, delta_max in ((3, 1), (np.int64(3), np.int32(1)), (3.0, 1.0), (np.float64(3.0), 1)):
            params = VotingParams(1.0, T, delta_max)
            assert (params.T, params.delta_max) == (3, 1)
            assert type(params.T) is int and type(params.delta_max) is int

    def test_dataset_needs_an_example(self):
        with pytest.raises(ParamError):
            LabeledDataset((), ())

    def test_dataset_counts_and_order(self, rng):
        p = dyadic_series(rng, 1, 4, id="p")
        n = dyadic_series(rng, 1, 4, id="n")
        data = LabeledDataset((p,), (n,))
        assert (data.n, data.n_pos, data.n_neg) == (2, 1, 1)
        assert data.examples() == (p, n)
        assert data.labels().tolist() == [1, -1]

    def test_provenance_length_checked(self, rng):
        p = dyadic_series(rng, 1, 4, id="p")
        with pytest.raises(ParamError):
            LabeledDataset((p,), (p,), positive_provenance=())


def _knn(k):
    pos, neg = TimeSeries(1, [1.0, 2.0]), TimeSeries(1, [0.0, 0.0])
    return classify_knn(TimeSeries(1, [1.0, 1.0]), LabeledDataset((pos, pos), (neg,)),
                        VotingParams(1.0, 2), k)


class TestOneRulePerKind:
    @pytest.mark.parametrize(
        "field, call",
        [
            ("start_index", lambda: TimeSeries(2.9, [1.0, 2.0])),
            ("start_index", lambda: TimeSeries(True, [1.0, 2.0])),
            ("label", lambda: Label.from_int(True)),
            ("delta", lambda: advance(TimeSeries(1, [1.0, 2.0]), 1.5)),
            ("delta", lambda: window_sq_dist(TimeSeries(0, [1.0, 1.0]), TimeSeries(1, [1.0]), 0.5, 1)),
            ("k", lambda: _knn(2.5)),
            ("k", lambda: _knn(True)),
        ],
    )
    def test_a_caller_integer_is_never_truncated(self, field, call):
        # each used to be cut by int() (2.9 -> 2), or a bool ran as 1
        with pytest.raises(ParamError, match=f"^{field} must be"):
            call()

    @pytest.mark.parametrize("value", [True, np.bool_(False), "3", 2.5, math.inf, math.nan, None])
    def test_integer_rule_refuses(self, value):
        with pytest.raises(ParamError, match="^n must be an integer"):
            core.integer_at_least("n", value)

    def test_integer_rule_accepts_integral_numbers(self):
        for value in (3, np.int64(3), np.uint8(3), 3.0, np.float32(3.0)):
            got = core.integer_at_least("n", value, 3)
            assert got == 3 and type(got) is int
        assert core.integer_at_least("n", -10**30) == -10**30  # no floor unless given
        with pytest.raises(ParamError, match="^n must be >= 4, got 3"):
            core.integer_at_least("n", 3.0, 4)

    @pytest.mark.parametrize("value", [True, "1", None, math.inf, -math.inf, math.nan, -0.5])
    def test_real_rule_refuses(self, value):
        with pytest.raises(ParamError, match="^x must be finite and >= 0"):
            core.real_at_least("x", value, 0)

    def test_real_rule_returns_a_float(self):
        for value in (2, np.int32(2), 2.0, np.float32(2.0)):
            got = core.real_at_least("x", value, 0)
            assert got == 2.0 and type(got) is float
        assert core.real_at_least("x", 0, 0) == 0.0
        with pytest.raises(ParamError, match="^x must be finite and > 0, got 0"):
            core.real_at_least("x", 0, 0, strict=True)


class TestDraws:
    """from_draws puts positives first, each class in draw order, and keeps
    provenance only when every draw has it; draws() is its inverse."""

    @staticmethod
    def mixed_draws(rng, n=7, with_provenance=True):
        labels = [Label.NEGATIVE, Label.POSITIVE, Label.NEGATIVE] + [
            Label.POSITIVE if rng.random() < 0.5 else Label.NEGATIVE for _ in range(n - 3)
        ]
        return [
            (
                dyadic_series(rng, -1, 5, id=f"d{i}"),
                label,
                Provenance(i % 3, i % 2) if with_provenance else None,
            )
            for i, label in enumerate(labels)
        ]

    @pytest.mark.parametrize("with_provenance", [True, False])
    def test_round_trip(self, rng, with_provenance):
        draws = self.mixed_draws(rng, with_provenance=with_provenance)
        data = LabeledDataset.from_draws(draws)
        assert LabeledDataset.from_draws(data.draws()) == data
        in_row_order = sorted(draws, key=lambda d: d[1] != Label.POSITIVE)  # stable
        assert [(s.id, lab, p) for s, lab, p in data.draws()] == [
            (s.id, lab, p) for s, lab, p in in_row_order
        ]
        assert (data.positive_provenance is None) == (not with_provenance)

    def test_class_order_kept(self, rng):
        draws = self.mixed_draws(rng, n=12)
        data = LabeledDataset.from_draws(draws)
        assert [s.id for s in data.positives] == [s.id for s, lab, _ in draws if lab == 1]
        assert [s.id for s in data.negatives] == [s.id for s, lab, _ in draws if lab == -1]
        assert data.labels().tolist() == sorted((int(lab) for _, lab, _ in draws), reverse=True)
        assert data.provenance() == tuple(
            p for lab in (1, -1) for _, d_lab, p in draws if d_lab == lab
        )

    def test_provenance_dropped_when_any_draw_lacks_it(self, rng):
        draws = self.mixed_draws(rng)
        draws[4] = (draws[4][0], draws[4][1], None)
        data = LabeledDataset.from_draws(draws)
        assert data.positive_provenance is None and data.negative_provenance is None
        assert all(p is None for _, _, p in data.draws())

    def test_one_class_and_no_draws(self, rng):
        draws = [d for d in self.mixed_draws(rng) if d[1] == Label.NEGATIVE]
        data = LabeledDataset.from_draws(draws)
        assert (data.n_pos, data.n_neg) == (0, len(draws))
        assert LabeledDataset.from_draws(data.draws()) == data
        with pytest.raises(ParamError):
            LabeledDataset.from_draws([])
