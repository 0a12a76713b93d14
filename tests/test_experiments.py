import functools
import math
from pathlib import Path

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
    error_curves,
    error_vs_T,
    error_vs_beta,
    make_detection_corpus,
    prepare_training,
    roc_sweep,
    split_topics,
)
import tsvote.core as core
from tsvote.classify import VotingKernel
from tsvote.config import corpus_config, detection_config, load_config
from tsvote.experiments import _first_crossings


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

    @pytest.mark.parametrize(
        "grid",
        [
            {"T_grid": ()},
            {"T_grid": (8, 0)},
            {"beta_grid": ()},
            {"beta_grid": (-1.0,)},
            {"beta_grid": (2.0, math.inf)},
            {"beta_grid": (0.5,)},  # a pool of n(beta <= 1) draws can miss a class
            {"beta_grid": (2.0, 1.0)},
        ],
    )
    def test_grids_must_be_positive(self, grid):
        with pytest.raises(ParamError, match=next(iter(grid))):
            tiny_config(**grid)

    @pytest.mark.parametrize("beta", [0.3, 1.0, math.inf, math.nan])
    def test_beta_must_exceed_one(self, beta):
        # rejected when the config is built, before any trial samples a pool
        with pytest.raises(ParamError, match="^beta must be finite and > 1"):
            error_vs_T(tiny_config(beta=beta))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("trials", 2.5),
            ("trials", 0),
            ("test_size", 3.9),
            ("delta_max", 2.5),
            ("delta_max", -1),
            ("T_grid", (10.7, 20)),
            ("T_grid", (8, math.inf)),
            ("trials", True),
            ("delta_max", False),
            ("T_grid", (True, 20)),
        ],
    )
    def test_sizes_must_be_integers(self, field, value):
        # a non-integral size used to be truncated (T_grid) or kept until a trial
        # failed, and a bool ran as 0 or 1
        with pytest.raises(ParamError, match=f"^{field} must be"):
            tiny_config(**{field: value})

    def test_integral_float_sizes_become_ints(self):
        cfg = tiny_config(trials=2.0, test_size=30.0, delta_max=3.0, T_grid=(8.0, 24))
        assert (cfg.trials, cfg.test_size, cfg.delta_max, cfg.T_grid) == (2, 30, 3, (8, 24))
        assert all(type(x) is int for x in (cfg.trials, cfg.test_size, cfg.delta_max, *cfg.T_grid))

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


# Misclassified test counts (of 30) per trial and grid point, recorded from the
# two separate per-axis loops that error_curves replaced. Noisier than
# tiny_config's default so that few counts are zero.
PINNED_SIGMA = 4.0
PINNED_BETA_AXIS = {
    "wmv": [[11, 11], [12, 10]],
    "nn": [[11, 11], [12, 10]],
    "map": [[2, 2], [3, 3]],
}
PINNED_T_AXIS = {
    4.0: {"wmv": [[14, 11], [10, 10]], "nn": [[15, 11], [10, 10]], "map": [[6, 2], [6, 3]]},
    3.0: {"wmv": [[12, 12], [10, 11]], "nn": [[13, 12], [10, 11]], "map": [[6, 2], [6, 3]]},
    6.0: {"wmv": [[10, 11], [7, 9]], "nn": [[13, 11], [7, 9]], "map": [[6, 2], [6, 3]]},
}


class TestPinnedCurves:
    """error_curves, error_vs_T and error_vs_beta reproduce the recorded rates
    exactly, with beta at the top of beta_grid (4), between its values (3), and
    above it (6, so the beta axis reads rows of a larger pool's grid)."""

    @staticmethod
    def assert_pinned(curves, counts, test_size):
        for clf in ("wmv", "nn", "map"):
            assert np.array_equal(curves.per_trial[clf], np.array(counts[clf]) / test_size), clf

    @pytest.mark.parametrize("beta", [4.0, 3.0, 6.0])
    def test_matches_recorded_rates(self, beta):
        cfg = tiny_config(beta=beta, sigma=PINNED_SIGMA)
        both = error_curves(cfg, ("T", "beta"))
        assert list(both) == ["T", "beta"]
        for curves in (both["T"], error_vs_T(cfg)):
            assert curves.axis_name == "T" and curves.axis == cfg.T_grid
            self.assert_pinned(curves, PINNED_T_AXIS[beta], cfg.test_size)
        for curves in (both["beta"], error_vs_beta(cfg)):
            assert curves.axis_name == "beta" and curves.axis == cfg.beta_grid
            self.assert_pinned(curves, PINNED_BETA_AXIS, cfg.test_size)

    def test_shared_cell_agrees_across_axes(self):
        cfg = tiny_config(sigma=PINNED_SIGMA)
        assert cfg.beta == max(cfg.beta_grid)
        curves = error_curves(cfg)
        for clf in ("wmv", "nn", "map"):
            t_last = curves["T"].per_trial[clf][:, -1]
            assert np.array_equal(curves["beta"].per_trial[clf][:, -1], t_last)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ParamError, match="axes"):
            error_curves(tiny_config(), ("gamma",))


class TestBlocks:
    """Each trial scores its tests in blocks of at most core.BLOCK_VALUES values;
    the block size changes no rate and bounds every temporary."""

    @pytest.mark.parametrize("values", [1, 500, 2**30])
    def test_rates_do_not_depend_on_the_block_size(self, values, monkeypatch):
        # 1: one query per block and one verified cell at a time; 2**30: one block
        cfg = tiny_config(sigma=PINNED_SIGMA)
        want = error_curves(cfg)
        monkeypatch.setattr(core, "BLOCK_VALUES", values)
        got = error_curves(cfg)
        for axis, curves in want.items():
            for clf in ("wmv", "nn", "map"):
                assert got[axis].per_trial[clf].tobytes() == curves.per_trial[clf].tobytes()

    @pytest.mark.parametrize("values", [500, core.BLOCK_VALUES])
    def test_no_temporary_exceeds_the_block_size(self, values, monkeypatch):
        # the bounds of every block of the shift minimum (the shift walk's five
        # (n, p) arrays, or one query's banded (n, S) row) and every sq_dists
        # broadcast of the verified cells; the oracle's grid tiles are bounded
        # in test_classify.TestTiledGrid
        sizes = {"bounds": [], "sq_dists": []}
        two_smallest, direct = core.ShiftWindows._two_smallest, core.sq_dists

        def recording_two_smallest(self, Q):
            n, S = self.views.shape[:2]
            sizes["bounds"].append(5 * n * len(Q) if len(Q) > 1 else n * S)
            return two_smallest(self, Q)

        def recording_sq_dists(a, b, out=None):
            sizes["sq_dists"].append(math.prod(np.broadcast_shapes(a.shape, b.shape)))
            return direct(a, b, out=out)

        monkeypatch.setattr(core, "BLOCK_VALUES", values)
        monkeypatch.setattr(core.ShiftWindows, "_two_smallest", recording_two_smallest)
        monkeypatch.setattr(core, "sq_dists", recording_sq_dists)
        cfg = tiny_config()
        error_curves(cfg)
        trials_and_T = cfg.trials * len(cfg.T_grid)
        assert len(sizes["bounds"]) > (trials_and_T if values == 500 else 0)
        assert 0 < max(sizes["bounds"]) <= values
        assert 0 < max(sizes["sq_dists"]) <= values

    @pytest.mark.parametrize("values", [100, 500, core.BLOCK_VALUES])
    def test_tests_are_scored_in_chunks(self, values, monkeypatch):
        # each chunk's (tests, pool) distances hold at most values values, the
        # oracle's grids at most that too; one chunk when all tests fit
        rows = {"min_dists_block": [], "grid": []}
        min_dists_block, grid = VotingKernel.min_dists_block, core.ShiftWindows.grid

        def recording_min(self, Q):
            rows["min_dists_block"].append((len(Q), self.n))
            return min_dists_block(self, Q)

        def recording_grid(self, q):
            out = grid(self, q)
            rows["grid"].append(out.size)
            return out

        one_chunk = values == core.BLOCK_VALUES
        monkeypatch.setattr(core, "BLOCK_VALUES", values)
        monkeypatch.setattr(VotingKernel, "min_dists_block", recording_min)
        monkeypatch.setattr(core.ShiftWindows, "grid", recording_grid)
        cfg = tiny_config()
        error_curves(cfg)
        assert all(P <= max(1, values // n) for P, n in rows["min_dists_block"])
        assert 0 < max(rows["grid"]) <= values
        tests = sum(P for P, _ in rows["min_dists_block"])
        assert tests == cfg.trials * len(cfg.T_grid) * cfg.test_size
        if one_chunk:
            assert len(rows["min_dists_block"]) == cfg.trials * len(cfg.T_grid)


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

    @pytest.mark.parametrize(
        "field, call",
        [
            ("delta_max", lambda: DetectionConfig(delta_max=2.5)),
            ("delta_max", lambda: DetectionConfig(delta_max=-1)),
            ("gammas", lambda: SweepGrid(gammas=(-1.0,))),
            ("Ts", lambda: SweepGrid(Ts=(2.5,))),
            ("t_smooths", lambda: SweepGrid(t_smooths=(80, True))),
            ("h_hours", lambda: SweepGrid(h_hours=(math.inf,))),
        ],
    )
    def test_settings_pass_the_core_rules(self, field, call):
        # each used to be accepted, and failed (or was truncated) only inside a sweep
        with pytest.raises(ParamError, match=f"^{field} must be"):
            call()

    def test_non_integral_T_rejected(self):
        with pytest.raises(ParamError, match="T must be an integer"):
            self.cfg(T=6.5)
        assert self.cfg(T=6.0).T == 6 and type(self.cfg(T=6.0).T) is int

    def test_result_invariant_enforced(self):
        with pytest.raises(ParamError):
            DetectionResult("x", True, None, None, Label.POSITIVE)
        with pytest.raises(ParamError):
            DetectionResult("x", False, 3, -1.0, Label.POSITIVE)


DETECT_CFG = Path(__file__).resolve().parents[1] / "configs" / "detect.cfg"


def detect_profile(seed=0, n=16):
    """configs/detect.cfg with its seed and topic counts overridden."""
    counts = [f"corpus.n_trends={n}", f"corpus.n_non_trends={n}"]
    return load_config(DETECT_CFG, [f"seed={seed}", *counts])


def small_corpus(seed=0, n=16):
    return make_detection_corpus(corpus_config(detect_profile(seed, n)))


def small_base_cfg():
    return detection_config(detect_profile())


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

    @pytest.mark.parametrize(
        "field, value",
        [("n_trends", 1.5), ("n_non_trends", 0), ("length", 240.5), ("ramp_buckets", 30.2),
         ("n_patterns", 2.5), ("onset_low", 90.5), ("onset_high", 0), ("n_trends", True),
         ("base_rate", -1.0), ("burst_scale", math.inf), ("noise_frac", math.nan),
         ("bump_scale", -0.5), ("bucket_width_minutes", 0.0)],
    )
    def test_corpus_sizes_must_be_integers(self, field, value):
        # a non-integral count used to be kept as a float and a bool as an int; a
        # negative, zero or non-finite rate or scale used to be accepted
        with pytest.raises(ParamError, match=f"^{field} must be"):
            CorpusConfig(**{field: value})

    def test_corpus_integral_float_sizes_become_ints(self):
        cfg = CorpusConfig(n_trends=3.0, length=240.0, onset_low=90.0)
        assert (cfg.n_trends, cfg.length, cfg.onset_low) == (3, 240, 90)
        assert all(type(x) is int for x in (cfg.n_trends, cfg.length, cfg.onset_low))

    @pytest.mark.parametrize("n_patterns", [0, 5])
    def test_corpus_has_four_burst_shapes(self, n_patterns):
        with pytest.raises(ParamError, match="n_patterns"):
            CorpusConfig(n_patterns=n_patterns)

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


class TestBlockedTraces:
    """roc_sweep scores a setting's test topics in chunks through
    log_lambda_many, which walks its rows in blocks; every theta reads the
    running maxima of the traces."""

    THETAS = (1e-300, 0.3, 1.0, 3.0, 1e300)

    def test_small_blocks_give_the_default_sweep(self, monkeypatch):
        default = theta_sweep(self.THETAS)
        rows, blocks = [], []

        def log_lambda_many(kernel, observations, _original=VotingKernel.log_lambda_many):
            rows.append(len(observations))
            blocks.append(0)
            return _original(kernel, observations)

        def expansion_minimum(windows, Q, _original=core.ShiftWindows.expansion_minimum):
            blocks[-1] += 1
            return _original(windows, Q)

        monkeypatch.setattr(VotingKernel, "log_lambda_many", log_lambda_many)
        monkeypatch.setattr(core.ShiftWindows, "expansion_minimum", expansion_minimum)
        monkeypatch.setattr(core, "BLOCK_VALUES", 400)
        small = theta_sweep(self.THETAS)
        test, _ = theta_sweep_topics()
        assert len(rows) >= 3 and sum(rows) == len(test) * 61  # 61 positions per topic
        assert min(blocks) >= 3
        assert small == default

    def test_one_call_per_chunk_of_topics(self, monkeypatch):
        calls = []
        original = VotingKernel.log_lambda_many
        monkeypatch.setattr(
            VotingKernel, "log_lambda_many", lambda k, obs: calls.append(len(obs)) or original(k, obs)
        )
        result = theta_sweep(self.THETAS)
        assert calls == [len(result.results[0]) * 61]

    def test_an_empty_test_half_gives_zero_counts(self):
        _, train = theta_sweep_topics()
        grid = SweepGrid(gammas=(1.0,), Ts=(15,), t_smooths=(20,), h_hours=(1.0,), thetas=(0.5, 2.0))
        result = roc_sweep([], train, grid, small_base_cfg(), seed=13)
        assert result.results == ((), ())
        for point in result.points:
            assert (point.n_trends, point.n_non_trends) == (0, 0)
            assert (point.n_detected_trends, point.n_detected_non_trends) == (0, 0)
            assert (point.fpr, point.tpr, point.mean_relative_minutes) == (0.0, 0.0, None)

    @pytest.mark.parametrize("seed", range(5))
    def test_crossings_from_running_maxima_match_each_trace(self, seed):
        rng = np.random.default_rng(seed)
        traces = rng.standard_normal((40, 61)).round(1)  # rounded, so values repeat
        traces[0] = 0.5  # constant
        traces[1, 7] = np.inf
        traces[2] = -np.inf
        traces[3, :5] = -np.inf
        traces[4] = -10.0  # fires only at the two lowest thresholds
        maxima = np.maximum.accumulate(traces, axis=1)
        # values exactly at some trace entries, between them, and beyond every one
        thresholds = [0.5, 0.0, -0.3, 1.25, 2.0, -9.0, 50.0, -50.0, math.log(1e-300)]
        for log_theta in thresholds:
            got = _first_crossings(maxima, log_theta)
            for trace, first in zip(traces, got):
                hits = trace >= log_theta
                assert first == (int(np.argmax(hits)) if hits.any() else -1)
