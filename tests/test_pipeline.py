import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsvote.core as core
import tsvote.pipeline as pipeline

from tsvote import (
    EmptyPrefixError,
    ParamError,
    PipelineParams,
    RateSeries,
    SupportError,
    TimeSeries,
    baseline_normalize,
    log_transform,
    preprocess,
    slice_training_window,
    smooth,
    spike_emphasize,
)
from tsvote.dataio import record_to_rate
from tsvote.pipeline import preprocess_rows, window_buckets


def random_rate(rng, n=None, topic="t"):
    n = n or int(rng.integers(3, 40))
    counts = rng.uniform(0.5, 100.0, n)
    return RateSeries(counts, 2.0, topic)


class TestBaselineNormalize:
    def test_constant_counts(self):
        out = baseline_normalize(RateSeries(np.full(6, 7.0), 2.0, "c"))
        assert np.allclose(out.values, 1.0 / np.arange(1, 7), atol=1e-15)

    def test_worked_example(self):
        out = baseline_normalize(RateSeries([1.0, 1.0, 2.0], 2.0, "w"))
        assert np.array_equal(out.values, [1.0, 0.5, 0.5])

    def test_first_entry_is_one(self, rng):
        for _ in range(50):
            out = baseline_normalize(random_rate(rng))
            assert out.values[0] == 1.0

    def test_scale_invariance(self, rng):
        rate = random_rate(rng, n=20)
        base = baseline_normalize(rate).values
        for c in (2.0, 0.25, 1024.0):  # powers of two cancel exactly
            scaled = RateSeries(c * rate.counts, 2.0, "s")
            assert np.array_equal(baseline_normalize(scaled).values, base)
        odd = RateSeries(3.7 * rate.counts, 2.0, "s")
        assert np.allclose(baseline_normalize(odd).values, base, rtol=1e-12)

    def test_empty_first_bucket(self):
        with pytest.raises(EmptyPrefixError):
            baseline_normalize(RateSeries([0.0, 1.0], 2.0, "z"))


class TestSpikeEmphasize:
    def test_constant_input_goes_flat(self):
        ts = TimeSeries(1, np.full(5, 0.3), id="c")
        out = spike_emphasize(ts, 1.2)
        assert out.values[0] == pytest.approx(0.3**1.2)
        assert np.all(out.values[1:] == 0.0)

    def test_worked_examples(self):
        ts = TimeSeries(1, [1.0, 0.5, 0.5], id="w")
        assert np.array_equal(spike_emphasize(ts, 1.0).values, [1.0, 0.5, 0.0])
        assert np.array_equal(spike_emphasize(ts, 2.0).values, [1.0, 0.25, 0.0])

    def test_nonnegative(self, rng):
        ts = TimeSeries(1, rng.standard_normal(30), id="r")
        assert np.all(spike_emphasize(ts, 1.5).values >= 0.0)

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ParamError):
            spike_emphasize(TimeSeries(1, [1.0]), 0.9)


class TestSmooth:
    def test_window_one_is_identity(self, rng):
        ts = TimeSeries(1, rng.uniform(0, 1, 10), id="r")
        assert np.array_equal(smooth(ts, 1).values, ts.values)

    def test_worked_example(self):
        ts = TimeSeries(1, [1.0, 0.5, 0.0], id="w")
        assert np.array_equal(smooth(ts, 2).values, [1.0, 1.5, 0.5])

    def test_long_window_gives_prefix_sums(self):
        ts = TimeSeries(1, [1.0, 2.0, 3.0], id="w")
        out = smooth(ts, 10)
        assert out.values[-1] == pytest.approx(6.0)
        assert np.allclose(out.values, [1.0, 3.0, 6.0])

    @pytest.mark.parametrize("length", [1, 2, 7, 40, 240])
    def test_a_window_past_the_row_is_the_full_kernel_bit_for_bit(self, rng, length):
        # the kernel stops one entry past the row; np.convolve swaps its operands
        # for every kernel longer than the row, so the bits are those of t_smooth's
        v = rng.uniform(0, 1, (3, length)) ** 1.2
        for t_smooth in (length + 1, length + 2, 2 * length + 5, 10 * length + 3, 50 * length + 11):
            full = np.array([np.convolve(row, np.ones(t_smooth))[:length] for row in v])
            assert pipeline._smoothed(v, t_smooth).tobytes() == full.tobytes()

    def test_monotone_under_pointwise_larger_input(self, rng):
        a = rng.uniform(0, 1, 25)
        b = a + rng.uniform(0, 1, 25)
        sa = smooth(TimeSeries(1, a, id="a"), 5).values
        sb = smooth(TimeSeries(1, b, id="b"), 5).values
        assert np.all(sb >= sa)


class TestLogTransform:
    def test_ones_to_zeros(self):
        out = log_transform(TimeSeries(1, np.ones(4), id="1"), 1e-12)
        assert np.array_equal(out.values, np.zeros(4))

    def test_floor_applies(self):
        out = log_transform(TimeSeries(1, [0.0, math.e], id="f"), 1e-12)
        assert out.values[0] == pytest.approx(math.log(1e-12))
        assert out.values[0] == pytest.approx(-27.631, abs=1e-3)
        assert out.values[1] == pytest.approx(1.0)


class TestPreprocess:
    def test_equals_stage_composition(self, rng):
        params = PipelineParams(alpha=1.3, t_smooth=7, log_floor=1e-12)
        for _ in range(20):
            rate = random_rate(rng)
            manual = log_transform(
                smooth(
                    spike_emphasize(baseline_normalize(rate), params.alpha), params.t_smooth
                ),
                params.log_floor,
            )
            assert preprocess(rate, params) == manual

    def test_worked_example(self):
        out = preprocess(RateSeries([1.0, 1.0, 2.0], 2.0, "w"), PipelineParams(1.0, 2, 1e-12))
        assert np.allclose(out.values, [0.0, 0.40546, -0.69315], atol=1e-5)

    def test_standard_operating_point_accepted(self):
        params = PipelineParams()  # alpha 1.2, smoothing window 80
        assert params.alpha == 1.2 and params.t_smooth == 80

    def test_stage_outputs_keep_shape(self, rng):
        rate = random_rate(rng, n=30)
        params = PipelineParams(alpha=1.2, t_smooth=5, log_floor=1e-12)
        stage = baseline_normalize(rate)
        for nxt in (
            spike_emphasize(stage, params.alpha),
            smooth(stage, params.t_smooth),
            log_transform(stage, params.log_floor),
        ):
            assert len(nxt) == len(stage) and nxt.start_index == stage.start_index

    @pytest.mark.parametrize("value", [2.5, 0, math.inf])
    def test_t_smooth_must_be_an_integer(self, value):
        # 2.5 used to be truncated to 2
        with pytest.raises(ParamError, match="^t_smooth must be"):
            PipelineParams(t_smooth=value)

    @pytest.mark.parametrize("onset", [3.7, 0, 5])
    def test_onset_index_must_be_an_index(self, onset):
        # a rate file's 3.7 used to be read as 3
        with pytest.raises(ParamError, match="onset_index"):
            record_to_rate({"counts": [1.0, 2.0, 3.0, 4.0], "onset_index": onset})

    def test_integral_float_onset_becomes_int(self):
        rate = record_to_rate({"counts": [1.0, 2.0, 3.0, 4.0], "onset_index": 3.0})
        assert rate.onset_index == 3 and type(rate.onset_index) is int
        assert PipelineParams(t_smooth=2.0).t_smooth == 2

    def test_a_read_only_view_of_writable_counts_is_copied(self):
        # counts were kept whenever the view itself was read-only, so writing
        # its base could turn a validated count negative
        base = np.ones(5)
        view = base[:]
        view.setflags(write=False)
        rate = RateSeries(view)
        base[0] = -1.0
        assert rate.counts.tolist() == [1.0] * 5
        # counts read-only throughout are shared
        assert np.shares_memory(RateSeries(rate.counts).counts, rate.counts)

    def test_param_validation(self):
        with pytest.raises(ParamError):
            PipelineParams(alpha=0.5)
        with pytest.raises(ParamError):
            PipelineParams(t_smooth=0)
        with pytest.raises(ParamError):
            PipelineParams(log_floor=0.0)


def one_topic_at_a_time(counts, params):
    """The four stages as they were written for one vector of counts."""
    v = counts / np.cumsum(counts)
    v = np.abs(v - np.concatenate(([0.0], v[:-1]))) ** params.alpha
    v = np.convolve(v, np.ones(params.t_smooth))[: v.size]
    return np.log(np.maximum(v, params.log_floor))


class TestBatchedPreprocess:
    """preprocess_rows runs many topics as rows of one batch per length;
    preprocess is a batch of one."""

    @settings(max_examples=80, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 50), min_size=1, max_size=8),
        alpha=st.one_of(st.just(1.0), st.just(2.0), st.floats(1.0, 6.0)),
        t_smooth=st.integers(1, 80),  # often beyond the length
        log_floor=st.sampled_from([1e-12, 1e-300, 5e-324, 0.25]),
        scale=st.integers(-300, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_are_the_stage_chain_bit_for_bit(self, lengths, alpha, t_smooth, log_floor,
                                                   scale, seed):
        rng = np.random.default_rng(seed)
        rates = []
        for i, n in enumerate(lengths):
            counts = rng.uniform(0.0, 100.0, n) * (rng.random(n) < 0.7)  # with empty buckets
            counts[0] = rng.uniform(0.5, 100.0)
            rates.append(RateSeries(counts * 10.0**scale, 2.0, f"t{i}"))
        params = PipelineParams(alpha, t_smooth, log_floor)
        for rate, row in zip(rates, preprocess_rows(rates, params)):
            chain = log_transform(
                smooth(spike_emphasize(baseline_normalize(rate), alpha), t_smooth), log_floor
            )
            assert row.tobytes() == chain.values.tobytes()
            assert row.tobytes() == one_topic_at_a_time(rate.counts, params).tobytes()
            assert preprocess(rate, params) == TimeSeries(1, row, id=rate.topic_id)
            assert not row.flags.writeable

    def test_blocks_hold_at_most_block_values(self, rng, monkeypatch):
        rates = [random_rate(rng, n=n, topic=f"t{i}") for i, n in enumerate([30, 7, 30, 30, 7, 30])]
        params = PipelineParams(alpha=1.2, t_smooth=5, log_floor=1e-12)
        want = [preprocess(rate, params).values for rate in rates]
        sizes = []

        def chain(counts, params, out, _original=pipeline._chain):
            sizes.append(counts.shape)
            _original(counts, params, out)

        monkeypatch.setattr(pipeline, "_chain", chain)
        monkeypatch.setattr(core, "BLOCK_VALUES", 2 * pipeline._WORK_ARRAYS * 30)
        got = preprocess_rows(rates, params)
        assert sizes == [(2, 30), (2, 30), (2, 7)]  # a batch per length, in blocks of rows
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    def test_the_first_empty_topic_is_named(self):
        rates = [RateSeries([1.0, 2.0], 2.0, "a"), RateSeries([0.0, 2.0, 3.0], 2.0, "b"),
                 RateSeries([0.0, 1.0], 2.0, "c")]
        with pytest.raises(EmptyPrefixError, match="'b'"):
            preprocess_rows(rates, PipelineParams())
        assert preprocess_rows([], PipelineParams()) == []


POSITIVE = TimeSeries(1, [0.5, 1.0, 2.0, 4.0])


class TestOneRulePerKind:
    @pytest.mark.parametrize(
        "field, call",
        [
            ("alpha", lambda: PipelineParams(alpha=math.inf)),
            ("log_floor", lambda: PipelineParams(log_floor=math.inf)),
            ("bucket_width_minutes", lambda: RateSeries([1.0, 2.0], math.inf)),
            ("h_hours", lambda: window_buckets(math.inf, 2.0)),
            ("bucket_width_minutes", lambda: window_buckets(1.0, math.nan)),
            ("alpha", lambda: spike_emphasize(POSITIVE, math.inf)),
            ("t_smooth", lambda: smooth(POSITIVE, 2.5)),
            ("log_floor", lambda: log_transform(POSITIVE, math.inf)),
            ("anchor", lambda: slice_training_window(POSITIVE, 3.5, 0.1, 2.0)),
        ],
    )
    def test_settings_pass_the_core_rules(self, field, call):
        # each used to be truncated, accepted, or to overflow (OverflowError)
        with pytest.raises(ParamError, match=f"^{field} must be"):
            call()


class TestSliceTrainingWindow:
    def test_window_length_seven_hours(self):
        assert window_buckets(7.0, 2.0) == 210

    def test_rejects_fractional_windows(self):
        with pytest.raises(ParamError):
            window_buckets(0.05, 2.0)  # 1.5 buckets

    def test_pre_onset_takes_trailing_entries(self, rng):
        series = TimeSeries(1, rng.uniform(0, 1, 300), id="s")
        out = slice_training_window(series, 300, 7.0, 2.0, "pre_onset")
        assert len(out) == 210
        assert out.start_index == 91
        assert np.array_equal(out.values, series.values[-210:])

    def test_pre_onset_support_check(self, rng):
        series = TimeSeries(1, rng.uniform(0, 1, 100), id="s")
        with pytest.raises(SupportError):
            slice_training_window(series, 100, 7.0, 2.0, "pre_onset")

    def test_random_mode_reproducible(self, rng):
        series = TimeSeries(1, rng.uniform(0, 1, 400), id="s")
        a = slice_training_window(series, 0, 7.0, 2.0, "random", rng_stream=42)
        b = slice_training_window(series, 0, 7.0, 2.0, "random", rng_stream=42)
        c = slice_training_window(series, 0, 7.0, 2.0, "random", rng_stream=43)
        assert a == b
        assert len(a) == 210
        assert a != c or a.start_index == c.start_index

    def test_random_mode_needs_stream(self, rng):
        series = TimeSeries(1, rng.uniform(0, 1, 400), id="s")
        with pytest.raises(ParamError):
            slice_training_window(series, 0, 7.0, 2.0, "random")
