import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsvote import (
    CorpusConfig,
    DetectionConfig,
    DetectionResult,
    ExperimentConfig,
    GeneratorConfig,
    Label,
    LabeledDataset,
    ParamError,
    PipelineParams,
    SupportError,
    SweepGrid,
    TimeSeries,
    detect_online,
    error_vs_T,
    error_vs_beta,
    make_detection_corpus,
    prepare_training,
    roc_sweep,
    split_topics,
)


def tiny_config(**overrides):
    base = dict(
        model_cfg=GeneratorConfig(m=4, series_length=30, smoothing_scale=3.0, seed=1),
        beta=4.0,
        gamma=0.125,
        delta_max=3,
        T_grid=(8, 24),
        beta_grid=(2.0, 4.0),
        test_size=30,
        trials=2,
        seed=5,
        sigma=1.0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestErrorCurves:
    def test_shapes_and_range(self):
        curves = error_vs_T(tiny_config())
        for clf in ("wmv", "nn", "map"):
            assert curves.per_trial[clf].shape == (2, 2)
            assert np.all(curves.per_trial[clf] >= 0) and np.all(curves.per_trial[clf] <= 1)
        assert curves.axis == (8, 24)

    def test_deterministic(self):
        a = error_vs_T(tiny_config())
        b = error_vs_T(tiny_config())
        for clf in ("wmv", "nn", "map"):
            assert np.array_equal(a.per_trial[clf], b.per_trial[clf])

    def test_noiseless_separable_is_perfect(self):
        # separation must dominate 1/gamma for the pooled vote to be clean too
        cfg = tiny_config(
            sigma=0.0,
            delta_max=0,
            gamma=1.0,
            T_grid=(8, 16),
            model_cfg=GeneratorConfig(m=4, series_length=30, smoothing_scale=1.0, seed=1),
        )
        curves = error_vs_T(cfg)
        for clf in ("wmv", "nn", "map"):
            assert np.all(curves.per_trial[clf] == 0.0)

    def test_series_length_guard(self):
        with pytest.raises(ParamError):
            tiny_config(T_grid=(40,), delta_max=3)

    def test_map_constant_across_beta(self):
        curves = error_vs_beta(tiny_config())
        map_rows = curves.per_trial["map"]
        assert np.all(map_rows == map_rows[:, :1])

    def test_beta_errors_shrink_on_average(self):
        # a regime where training size matters: moderate noise, short prefix
        cfg = ExperimentConfig(
            model_cfg=GeneratorConfig(m=10, series_length=40, smoothing_scale=10.0, seed=2),
            beta=8.0,
            gamma=0.125,
            delta_max=10,
            T_grid=(20,),
            beta_grid=(1.5, 8.0),
            test_size=100,
            trials=20,
            seed=9,
            sigma=1.0,
        )
        curves = error_vs_beta(cfg)
        assert curves.mean("wmv")[-1] <= curves.mean("wmv")[0]
        assert curves.mean("nn")[-1] <= curves.mean("nn")[0]

    def test_map_dominates_on_average(self):
        cfg = tiny_config(trials=5, test_size=60)
        curves = error_vs_T(cfg)
        trials = cfg.trials
        for clf in ("wmv", "nn"):
            diff = curves.per_trial[clf] - curves.per_trial["map"]
            mean = diff.mean(axis=0)
            se = diff.std(axis=0, ddof=1) / math.sqrt(trials)
            assert np.all(curves.per_trial["map"].mean(axis=0) <= curves.per_trial[clf].mean(axis=0) + 2 * se + 1e-12)

    def test_rows_iterate_plot_points(self):
        curves = error_vs_T(tiny_config())
        rows = list(curves.rows())
        assert len(rows) == 3 * len(curves.axis)
        assert {r[1] for r in rows} == {"wmv", "nn", "map"}


def toy_training(T=6, margin=3):
    length = T + 2 * margin
    pos = TimeSeries(1 - margin, np.concatenate([np.zeros(margin), np.ones(T), np.zeros(margin)]), id="pos")
    neg = TimeSeries(1 - margin, np.full(length, 5.0), id="neg")
    return LabeledDataset((pos,), (neg,))


class TestDetectOnline:
    def cfg(self, **kw):
        base = dict(
            h_hours=0.2,  # 6-bucket slices at 2-minute buckets
            T=6,
            gamma=50.0,
            theta=1.0,
            pipeline=PipelineParams(alpha=1.2, t_smooth=2, log_floor=1e-12),
            bucket_width_minutes=2.0,
            delta_max=0,
        )
        base.update(kw)
        return DetectionConfig(**base)

    def test_exact_match_fires_at_first_position(self):
        training = toy_training()
        series = TimeSeries(1, np.concatenate([np.ones(30), np.zeros(10)]), id="s")
        result = detect_online(series, training, self.cfg(), anchor=20, truth=Label.POSITIVE)
        assert result.detected
        assert result.detection_index == 20 - 6  # first window end in the region
        assert result.relative_minutes == -12.0

    def test_far_series_never_fires(self):
        training = toy_training()
        series = TimeSeries(1, np.full(40, 5.0), id="s")
        result = detect_online(series, training, self.cfg(), anchor=20, truth=Label.NEGATIVE)
        assert not result.detected
        assert result.detection_index is None and result.relative_minutes is None

    def test_support_error_when_region_escapes(self):
        training = toy_training()
        series = TimeSeries(1, np.ones(12), id="s")
        with pytest.raises(SupportError):
            detect_online(series, training, self.cfg(), anchor=6, truth=Label.POSITIVE)

    def test_timing_sign_convention(self):
        training = toy_training()
        # ones start late in the region: detection lands after the anchor
        series = TimeSeries(1, np.concatenate([np.full(22, 5.0), np.ones(18)]), id="s")
        result = detect_online(series, training, self.cfg(), anchor=20, truth=Label.POSITIVE)
        assert result.detected
        assert result.detection_index > 20
        assert result.relative_minutes > 0

    @pytest.mark.parametrize("field", ["gamma", "theta", "h_hours", "bucket_width_minutes"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_config_rejected(self, field, value):
        with pytest.raises(ParamError, match=field):
            self.cfg(**{field: value})

    def test_result_invariant_enforced(self):
        with pytest.raises(ParamError):
            DetectionResult("x", True, None, None, Label.POSITIVE)
        with pytest.raises(ParamError):
            DetectionResult("x", False, 3, -1.0, Label.POSITIVE)


def small_corpus(seed=0, n=16):
    cfg = CorpusConfig(
        n_trends=n,
        n_non_trends=n,
        length=300,
        base_rate=50.0,
        burst_scale=6.0,
        ramp_buckets=60,
        onset_low=120,
        onset_high=200,
        noise_frac=0.10,
        seed=seed,
    )
    return make_detection_corpus(cfg)


def small_base_cfg():
    return DetectionConfig(
        h_hours=1.0,
        T=15,
        gamma=1.0,
        theta=1.0,
        pipeline=PipelineParams(alpha=1.2, t_smooth=20, log_floor=1e-12),
        bucket_width_minutes=2.0,
    )


class TestCorpusAndSweep:
    def test_corpus_shapes(self):
        trends, bgs = small_corpus()
        assert len(trends) == len(bgs) == 16
        for rate in trends:
            assert rate.onset_index is not None
            assert 120 <= rate.onset_index <= 200
            assert np.all(rate.counts >= 0) and rate.counts[0] > 0
        for rate in bgs:
            assert rate.onset_index is None

    def test_corpus_deterministic(self):
        a_trends, a_bgs = small_corpus(seed=4)
        b_trends, b_bgs = small_corpus(seed=4)
        assert all(
            np.array_equal(x.counts, y.counts) for x, y in zip(a_trends + a_bgs, b_trends + b_bgs)
        )

    def test_split_disjoint_and_half(self):
        trends, bgs = small_corpus()
        train, test = split_topics(trends, bgs, 3)
        assert len(train) == len(test) == 16
        assert {r.topic_id for r, _ in train}.isdisjoint({r.topic_id for r, _ in test})

    def test_sweep_rejects_overlap(self):
        trends, bgs = small_corpus()
        both = [(t, Label.POSITIVE) for t in trends] + [(b, Label.NEGATIVE) for b in bgs]
        with pytest.raises(ParamError):
            roc_sweep(both, both, SweepGrid(), small_base_cfg(), seed=0)

    def test_prepare_training_alignment(self):
        trends, bgs = small_corpus()
        train, _ = split_topics(trends, bgs, 3)
        cfg = small_base_cfg()
        data = prepare_training(train, cfg, 11)
        w = 30  # one hour of 2-minute buckets
        dmax = (w - cfg.T) // 2
        for ts in data.examples():
            assert ts.start_index == 1 - dmax
            assert len(ts) == w

    def test_sweep_deterministic_and_monotone_envelope(self):
        trends, bgs = small_corpus()
        train, test = split_topics(trends, bgs, 3)
        grid = SweepGrid(gammas=(1.0,), Ts=(15,), t_smooths=(20,), h_hours=(1.0,), thetas=(0.5, 2.0, 8.0))
        a = roc_sweep(test, train, grid, small_base_cfg(), seed=21)
        b = roc_sweep(test, train, grid, small_base_cfg(), seed=21)
        assert a.points == b.points
        env = a.envelope()
        tprs = [t for _, t in env]
        assert tprs == sorted(tprs)
        fprs = [f for f, _ in env]
        assert fprs == sorted(fprs)

    def test_theta_extremes_hit_roc_corners(self):
        trends, bgs = small_corpus()
        train, test = split_topics(trends, bgs, 3)
        grid = SweepGrid(gammas=(1.0,), Ts=(15,), t_smooths=(20,), h_hours=(1.0,), thetas=(1e-300, 1e300))
        res = roc_sweep(test, train, grid, small_base_cfg(), seed=2)
        always, never = res.points
        assert (always.fpr, always.tpr) == (1.0, 1.0)
        assert (never.fpr, never.tpr) == (0.0, 0.0)

    def test_fpr_nonincreasing_in_theta(self):
        trends, bgs = small_corpus()
        train, test = split_topics(trends, bgs, 3)
        thetas = (0.1, 1.0, 10.0)
        grid = SweepGrid(gammas=(1.0,), Ts=(15,), t_smooths=(20,), h_hours=(1.0,), thetas=thetas)
        res = roc_sweep(test, train, grid, small_base_cfg(), seed=2)
        fprs = [p.fpr for p in res.points]
        tprs = [p.tpr for p in res.points]
        assert fprs == sorted(fprs, reverse=True)
        assert tprs == sorted(tprs, reverse=True)

    @pytest.mark.parametrize("theta", [0.0, -1.0, math.inf, math.nan])
    def test_grid_rejects_bad_theta(self, theta):
        with pytest.raises(ParamError, match="theta"):
            SweepGrid(thetas=(1.0, theta))

    def test_detection_rows_consistent(self):
        trends, bgs = small_corpus()
        train, test = split_topics(trends, bgs, 3)
        grid = SweepGrid(gammas=(1.0,), Ts=(15,), t_smooths=(20,), h_hours=(1.0,), thetas=(1.0,))
        res = roc_sweep(test, train, grid, small_base_cfg(), seed=2)
        point, results = res.points[0], res.results[0]
        assert len(results) == len(test)
        onsets = {rate.topic_id: rate.onset_index for rate, _ in test}
        for r in results:
            if r.detected and r.truth == Label.POSITIVE:
                # early exactly when the detection lands before the onset anchor
                assert (r.relative_minutes < 0) == (r.detection_index < onsets[r.topic_id])
        n_det_trends = sum(1 for r in results if r.truth == Label.POSITIVE and r.detected)
        assert point.n_detected_trends == n_det_trends


@functools.lru_cache(maxsize=None)
def theta_sweep_topics():
    trends, bgs = small_corpus(seed=7, n=8)
    train, test = split_topics(trends, bgs, 5)
    return tuple(test), tuple(train)


def theta_sweep(thetas):
    test, train = theta_sweep_topics()
    grid = SweepGrid(gammas=(1.0,), Ts=(15,), t_smooths=(20,), h_hours=(1.0,), thetas=thetas)
    return roc_sweep(test, train, grid, small_base_cfg(), seed=13)


class TestThetaAxis:
    """theta only thresholds each topic's log-ratio trace, so a sweep over many
    thetas equals one sweep per theta, and raising theta never adds a detection."""

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-12.0, max_value=12.0).map(math.exp),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    def test_sweep_equals_one_sweep_per_theta(self, thetas):
        together = theta_sweep(tuple(thetas))
        for i, theta in enumerate(thetas):
            alone = theta_sweep((theta,))
            assert together.points[i] == alone.points[0]
            assert together.results[i] == alone.results[0]
        by_theta = sorted(zip(thetas, together.points))
        for (_, lo), (_, hi) in zip(by_theta, by_theta[1:]):
            assert hi.tpr <= lo.tpr and hi.fpr <= lo.fpr
