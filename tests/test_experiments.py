import dataclasses
import functools
import itertools
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
    preprocess,
    roc_sweep,
    slice_training_window,
    split_topics,
)
import tsvote.core as core
import tsvote.experiments as experiments
import tsvote.pipeline as pipeline
from tsvote.classify import MapKernel, VotingKernel
from tsvote.core import VotingParams, advance, stacked_windows
from tsvote.synth import derive_streams, make_latent_sources, sample_draws, training_size
from tsvote.config import corpus_config, detection_config, load_config
from tsvote.experiments import (
    RocPoint,
    RocSweepResult,
    _detection_kernel,
    _detections,
    _first_crossings,
    _roc_point,
)
from tsvote.pipeline import window_buckets


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

    @pytest.mark.parametrize("seed", [2.5, -1, True])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # it used to reach np.random.SeedSequence in the first trial
        with pytest.raises(ParamError, match="^seed must be"):
            tiny_config(seed=seed)

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
    """Each trial bounds and scores its tests in blocks of at most
    core.BLOCK_VALUES values; the block size changes no rate and bounds every
    temporary."""

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
        # every block of the bound walk (the shift walk's (n, p) arrays, in
        # the blocks of queries minimum takes, or one query's banded (n, S)
        # row), every chunk of the oracle's bounded cells, and every sq_dists
        # broadcast of an undecided row's verified cells, if any; the oracle's
        # exact grid tiles are bounded in test_classify.TestTiledGrid
        sizes = {"bounds": [], "cells": [], "sq_dists": []}
        bound_blocks, grid_bound = core.ShiftWindows._bound_blocks, core.ShiftWindows.grid_bound
        direct = core.sq_dists

        def recording_bound_blocks(self, Q, radius):
            n, S = self.views.shape[:2]
            for block in bound_blocks(self, Q, radius):
                p = len(block[1])
                sizes["bounds"].append(5 * n * p if p > 1 else n * S)
                yield block

        def recording_grid_bound(self, Q):
            cells, radius = grid_bound(self, Q)
            sizes["cells"].append(cells.size)
            return cells, radius

        def recording_sq_dists(a, b, out=None):
            sizes["sq_dists"].append(math.prod(np.broadcast_shapes(a.shape, b.shape)))
            return direct(a, b, out=out)

        monkeypatch.setattr(core, "BLOCK_VALUES", values)
        monkeypatch.setattr(core.ShiftWindows, "_bound_blocks", recording_bound_blocks)
        monkeypatch.setattr(core.ShiftWindows, "grid_bound", recording_grid_bound)
        monkeypatch.setattr(core, "sq_dists", recording_sq_dists)
        cfg = tiny_config()
        error_curves(cfg)
        trials_and_T = cfg.trials * len(cfg.T_grid)
        assert len(sizes["bounds"]) > (3 * trials_and_T if values == 500 else 0)
        assert 0 < max(sizes["bounds"]) <= values
        assert 0 < max(sizes["cells"]) <= values
        assert max(sizes["sq_dists"], default=0) <= values

    @pytest.mark.parametrize("values", [100, 500, core.BLOCK_VALUES])
    def test_tests_are_scored_in_chunks(self, values, monkeypatch):
        # each chunk's (tests, pool) bounds hold at most values values, the
        # oracle's bounded cells at most that too; one chunk when all tests fit
        rows = {"min_bounds_block": [], "grid_bound": []}
        min_bounds_block, grid_bound = VotingKernel.min_bounds_block, core.ShiftWindows.grid_bound

        def recording_min(self, Q):
            rows["min_bounds_block"].append((len(Q), self.n))
            return min_bounds_block(self, Q)

        def recording_grid(self, q):
            out = grid_bound(self, q)
            rows["grid_bound"].append(out[0].size)
            return out

        one_chunk = values == core.BLOCK_VALUES
        monkeypatch.setattr(core, "BLOCK_VALUES", values)
        monkeypatch.setattr(VotingKernel, "min_bounds_block", recording_min)
        monkeypatch.setattr(core.ShiftWindows, "grid_bound", recording_grid)
        cfg = tiny_config()
        error_curves(cfg)
        assert all(P <= max(1, values // n) for P, n in rows["min_bounds_block"])
        assert 0 < max(rows["grid_bound"]) <= values
        tests = sum(P for P, _ in rows["min_bounds_block"])
        assert tests == cfg.trials * len(cfg.T_grid) * cfg.test_size
        if one_chunk:
            assert len(rows["min_bounds_block"]) == cfg.trials * len(cfg.T_grid)


def draw_trial(cfg, trial_ss):
    """(model, pool, tests, truth) of one trial, drawn as error_curves draws
    them with both axes."""
    src_ss, train_ss, test_ss = trial_ss.spawn(3)
    seed = int(src_ss.generate_state(1, np.uint64)[0])
    model = make_latent_sources(
        dataclasses.replace(cfg.model_cfg, seed=seed), delta_max=cfg.delta_max, noise=cfg.noise()
    )
    sizes = [training_size(b, cfg.model_cfg.m) for b in (cfg.beta, *cfg.beta_grid)]
    pool = sample_draws(model, max(sizes), train_ss)
    tests = sample_draws(model, cfg.test_size, test_ss, window_start=1,
                         window_length=max(cfg.T_grid), id_prefix="test")
    return model, pool, [s for s, _, _ in tests], np.array([int(lab) for _, lab, _ in tests])


def exact_rates(cfg):
    """error_curves(cfg)'s per-trial rates through the exact block entry
    points alone: min_dists_block, then gwmv_block and knn_block(d, 1), and
    MapKernel.classify_block, one (training size, T) cell at a time."""
    m, T_max = cfg.model_cfg.m, max(cfg.T_grid)
    axes = {
        "T": [(training_size(cfg.beta, m), T) for T in cfg.T_grid],
        "beta": [(training_size(b, m), T_max) for b in cfg.beta_grid],
    }
    rates = {axis: {clf: np.zeros((cfg.trials, len(cells))) for clf in ("wmv", "nn", "map")}
             for axis, cells in axes.items()}
    for t, trial_ss in enumerate(np.random.SeedSequence(cfg.seed).spawn(cfg.trials)):
        model, pool, tests, truth = draw_trial(cfg, trial_ss)
        for axis, cells in axes.items():
            for i, (n, T) in enumerate(cells):
                params = VotingParams(cfg.gamma, T, cfg.delta_max, cfg.theta)
                kernel = VotingKernel(LabeledDataset.from_draws(pool[:n]), params)
                Q = stacked_windows(tests, 1, T)
                D = kernel.min_dists_block(Q)[0]
                for clf, labels in (
                    ("wmv", kernel.gwmv_block(D).labels),
                    ("nn", kernel.knn_block(D, 1).labels),
                    ("map", MapKernel(model, params).classify_block(Q).labels),
                ):
                    rates[axis][clf][t, i] = np.count_nonzero(labels != truth) / len(tests)
    return rates


def per_trial_bytes(curves):
    return {axis: {clf: c.per_trial[clf].tobytes() for clf in ("wmv", "nn", "map")}
            for axis, c in curves.items()}


class TestCertifiedRates:
    """error_curves certifies each label from the GEMM bounds and computes
    exact distances only for the rows the bounds leave undecided; its rates
    are the exact entry points' bit for bit, whichever rows that is."""

    @pytest.mark.parametrize("sigma", [1.0, PINNED_SIGMA])
    def test_rates_are_the_exact_entry_points(self, sigma):
        cfg = tiny_config(sigma=sigma)
        want = {axis: {clf: a.tobytes() for clf, a in by_clf.items()}
                for axis, by_clf in exact_rates(cfg).items()}
        assert per_trial_bytes(error_curves(cfg)) == want

    def test_every_row_undecided_gives_the_same_rates(self, monkeypatch):
        # a radius of +inf proves nothing, so every label takes the exact path
        cfg = tiny_config(sigma=PINNED_SIGMA)
        want = per_trial_bytes(error_curves(cfg))
        rows = {"min_dists_block": 0, "classify_block": 0}

        def unbounded(bound):
            def call(self, Q):
                cells, radius = bound(self, Q)
                radius[:] = np.inf
                return cells, radius
            return call

        def counting(name, exact):
            def call(self, Q, *args):
                rows[name] += len(Q)
                return exact(self, Q, *args)
            return call

        for name in ("minimum_bound", "grid_bound"):
            monkeypatch.setattr(core.ShiftWindows, name, unbounded(getattr(core.ShiftWindows, name)))
        monkeypatch.setattr(VotingKernel, "min_dists_block",
                            counting("min_dists_block", VotingKernel.min_dists_block))
        monkeypatch.setattr(MapKernel, "classify_block",
                            counting("classify_block", MapKernel.classify_block))
        assert per_trial_bytes(error_curves(cfg)) == want
        every_test = cfg.trials * len(cfg.T_grid) * cfg.test_size
        assert rows == {"min_dists_block": every_test, "classify_block": every_test}

    def test_a_threshold_at_a_tests_ratio_takes_the_exact_path(self, monkeypatch):
        # theta = exp(log ratio) of test 0 at the first T: no bound can tell
        # which side of it that test's exact ratio falls
        cfg = tiny_config(sigma=PINNED_SIGMA)
        model, pool, tests, _ = draw_trial(cfg, np.random.SeedSequence(cfg.seed).spawn(1)[0])
        T = cfg.T_grid[0]
        kernel = VotingKernel(
            LabeledDataset.from_draws(pool[: training_size(cfg.beta, cfg.model_cfg.m)]),
            VotingParams(cfg.gamma, T, cfg.delta_max),
        )
        Q = stacked_windows(tests, 1, T)
        cfg = dataclasses.replace(
            cfg, theta=math.exp(kernel.gwmv_block(kernel.min_dists_block(Q)[0]).log_lambda[0])
        )
        exact = []
        gwmv_block = VotingKernel.gwmv_block

        def recording(self, D):
            exact.append((self.params.T, len(D)))
            return gwmv_block(self, D)

        monkeypatch.setattr(VotingKernel, "gwmv_block", recording)
        got = per_trial_bytes(error_curves(cfg))
        assert (T, 1) in exact
        monkeypatch.undo()
        want = {axis: {clf: a.tobytes() for clf, a in by_clf.items()}
                for axis, by_clf in exact_rates(cfg).items()}
        assert got == want


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

    @pytest.mark.parametrize("seed", [2.5, -1, False])
    def test_corpus_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ParamError, match="^seed must be"):
            CorpusConfig(seed=seed)

    def test_corpus_integral_float_sizes_become_ints(self):
        cfg = CorpusConfig(n_trends=3.0, length=240.0, onset_low=90.0)
        assert (cfg.n_trends, cfg.length, cfg.onset_low) == (3, 240, 90)
        assert all(type(x) is int for x in (cfg.n_trends, cfg.length, cfg.onset_low))

    @pytest.mark.parametrize("n_patterns", [0, 5])
    def test_corpus_has_four_burst_shapes(self, n_patterns):
        with pytest.raises(ParamError, match="n_patterns"):
            CorpusConfig(n_patterns=n_patterns)

    @pytest.mark.parametrize("field", ["n_trends", "n_non_trends"])
    def test_corpus_classes_hold_two_topics(self, field):
        # split_topics halves each class, as the corpus.n_trends key requires;
        # the settings class used to accept a class of one topic
        with pytest.raises(ParamError, match=f"^{field} must be >= 2, got 1"):
            CorpusConfig(**{field: 1})
        assert getattr(CorpusConfig(**{field: 2}), field) == 2

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

    def test_prepare_training_cuts_each_topics_slice_training_window(self):
        train, _ = mixed_length_topics()  # rows of two lengths
        cfg = small_base_cfg()
        bw, first = cfg.bucket_width_minutes, 1 - (30 - cfg.T) // 2
        draws = []
        for (rate, label), stream in zip(train, derive_streams(11, len(train))):
            processed = preprocess(rate, cfg.pipeline)
            if label == Label.POSITIVE:
                sl = slice_training_window(processed, rate.onset_index, cfg.h_hours, bw, "pre_onset")
            else:
                sl = slice_training_window(processed, 0, cfg.h_hours, bw, "random", stream)
            draws.append((advance(sl, sl.start_index - first), label, None))
        assert prepare_training(train, cfg, 11) == LabeledDataset.from_draws(draws)

    def test_prepare_training_refuses_another_bucket_width(self):
        trends, bgs = small_corpus()
        train, _ = split_topics(trends, bgs, 3)
        rate, label = train[5]
        train[5] = (dataclasses.replace(rate, bucket_width_minutes=5.0), label)
        with pytest.raises(ParamError) as err:
            prepare_training(train, small_base_cfg(), 11)
        assert str(err.value) == (
            f"topic {rate.topic_id!r} has 5.0-minute buckets, but detection counts "
            "2.0-minute buckets"
        )

    def test_sweep_refuses_a_test_topic_of_another_bucket_width(self):
        # h = 1 h is 30 buckets of 2 minutes, but 150 minutes of 5-minute data
        trends, bgs = small_corpus()
        train, test = split_topics(trends, bgs, 3)
        rate, label = test[-1]
        test[-1] = (dataclasses.replace(rate, bucket_width_minutes=5.0), label)
        with pytest.raises(ParamError, match=f"topic {rate.topic_id!r} has 5.0-minute buckets"):
            roc_sweep(test, train, SweepGrid(Ts=(15,), t_smooths=(20,), h_hours=(1.0,)),
                      small_base_cfg(), seed=0)

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

    @pytest.mark.parametrize("n_bins", [0, -3, 2.5, True, "20"])
    def test_envelope_bins_are_a_positive_integer(self, n_bins):
        # 0 and -3 used to raise IndexError, 2.5 TypeError, and True was one bin
        with pytest.raises(ParamError, match="^n_bins must be"):
            RocSweepResult((), ()).envelope(n_bins)

    def test_envelope_takes_an_integral_float(self):
        point = RocPoint(0.3, 0.5, None, None, 0.0, 1, 1, 1, 0, {})
        result = RocSweepResult((point,), ((),))
        assert result.envelope(2.0) == result.envelope(2) == [(0.25, 0.5)]

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
    """roc_sweep computes a setting's trace distances in chunks of test topics
    through trace_distances, which walks its rows in blocks; every theta reads
    the running maxima of the traces."""

    THETAS = (1e-300, 0.3, 1.0, 3.0, 1e300)

    def test_small_blocks_give_the_default_sweep(self, monkeypatch):
        default = theta_sweep(self.THETAS)
        rows, blocks = [], []

        def trace_distances(kernel, observations, _original=VotingKernel.trace_distances):
            rows.append(len(observations))
            blocks.append(0)
            return _original(kernel, observations)

        def expansion_minimum(windows, Q, _original=core.ShiftWindows.expansion_minimum):
            blocks[-1] += 1
            return _original(windows, Q)

        monkeypatch.setattr(VotingKernel, "trace_distances", trace_distances)
        monkeypatch.setattr(core.ShiftWindows, "expansion_minimum", expansion_minimum)
        monkeypatch.setattr(core, "BLOCK_VALUES", 400)
        small = theta_sweep(self.THETAS)
        test, _ = theta_sweep_topics()
        assert len(rows) >= 3 and sum(rows) == len(test) * 61  # 61 positions per topic
        assert min(blocks) >= 3
        assert small == default

    def test_one_call_per_chunk_of_topics(self, monkeypatch):
        calls = []
        original = VotingKernel.trace_distances
        monkeypatch.setattr(
            VotingKernel, "trace_distances", lambda k, obs: calls.append(len(obs)) or original(k, obs)
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


def reference_sweep(corpus, training, grid, base_cfg, seed=0):
    """roc_sweep one (gamma, T, t_smooth, h) setting at a time: per setting one
    preprocess, slice_training_window and region per topic, and the traces
    from log_lambda_many on roc_sweep's chunks of topics."""
    train_ss, anchor_ss = np.random.SeedSequence(seed).spawn(2)
    train_children, anchor_children = train_ss.spawn(len(training)), anchor_ss.spawn(len(corpus))
    bw = base_cfg.bucket_width_minutes
    points, per_point = [], []
    for gamma, T, t_smooth, h in itertools.product(grid.gammas, grid.Ts, grid.t_smooths, grid.h_hours):
        pipeline = dataclasses.replace(base_cfg.pipeline, t_smooth=t_smooth)
        cfg = dataclasses.replace(base_cfg, h_hours=h, T=T, gamma=gamma, pipeline=pipeline)
        w = window_buckets(h, bw)
        if w < T:
            raise ParamError(f"h={h}h gives {w}-bucket slices, shorter than T={T}")
        draws = []
        for (rate, label), child in zip(training, train_children):
            processed = preprocess(rate, pipeline)
            if label == Label.POSITIVE:
                if rate.onset_index is None:
                    raise ParamError(f"trend topic {rate.topic_id!r} has no onset_index")
                sl = slice_training_window(processed, rate.onset_index, h, bw, "pre_onset")
            else:
                sl = slice_training_window(processed, 0, h, bw, "random", np.random.default_rng(child))
            draws.append((advance(sl, sl.start_index - (1 - (w - T) // 2)), label, None))
        kernel = _detection_kernel(LabeledDataset.from_draws(draws), cfg)
        half = window_buckets(h, bw)
        topics, regions = [], []
        for (rate, label), child in zip(corpus, anchor_children):
            processed = preprocess(rate, pipeline)
            if label == Label.POSITIVE:
                if rate.onset_index is None:
                    raise ParamError(f"trend topic {rate.topic_id!r} has no onset_index")
                anchor = rate.onset_index
            else:
                lo, hi = half + T, processed.end_index - half
                if hi < lo:
                    raise SupportError(f"series {rate.topic_id!r} has {len(rate)} entries, "
                                       f"shorter than the {2 * half + T}-bucket window")
                anchor = lo + int(np.random.default_rng(child).integers(0, hi - lo + 1))
            regions.append(processed.window(anchor - half - T + 1, anchor + half))
            topics.append((rate.topic_id, label, anchor))
        rows = np.array(regions).reshape(len(corpus), 2 * half + T)
        views = np.lib.stride_tricks.sliding_window_view(rows, T, axis=1)
        traces = [kernel.log_lambda_many(views[b].reshape(-1, T))
                  for b in core.blocks(len(rows), (2 * half + 1) * T)]
        maxima = np.maximum.accumulate(np.concatenate(traces).reshape(-1, 2 * half + 1), axis=1)
        for theta in grid.thetas:
            results = _detections(topics, maxima, math.log(theta), half, bw)
            params = {"gamma": gamma, "T": T, "t_smooth": t_smooth, "h_hours": h, "theta": theta}
            points.append(_roc_point(results, params))
            per_point.append(results)
    return RocSweepResult(tuple(points), tuple(per_point))


def mixed_length_topics():
    """The small corpus with every third topic cut short by 40 buckets."""
    trends, bgs = small_corpus(seed=3, n=10)
    cut = [
        dataclasses.replace(rate, counts=rate.counts[:-40]) if i % 3 == 0 else rate
        for i, rate in enumerate(trends + bgs)
    ]
    return split_topics(cut[:10], cut[10:], 4)


def raised(call):
    """(type, message) of the exception call raises."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


class TestSweepSharing:
    """roc_sweep preprocesses each side once per (T, t_smooth, h) setting,
    as one batch, and computes the setting's trace distances once, voted at
    every gamma: the results, and the errors, of one sweep per setting."""

    THETAS = (1e-300, 0.5, 2.0, 1e300)

    def test_equals_one_sweep_per_setting(self):
        train, test = mixed_length_topics()
        grid = SweepGrid(gammas=(1.0, 0.0, 3.0, 1.0), Ts=(15, 12), t_smooths=(20, 7),
                         h_hours=(1.0, 0.8), thetas=self.THETAS)
        got = roc_sweep(test, train, grid, small_base_cfg(), seed=8)
        assert got == reference_sweep(test, train, grid, small_base_cfg(), seed=8)
        assert len(got.points) == 4 * 2 * 2 * 2 * len(self.THETAS)

    def test_a_gamma_grid_equals_one_sweep_per_gamma(self):
        test, train = theta_sweep_topics()
        gammas = (1.0, 0.0, 10.0, 1.0)  # gamma 0 casts equal votes; a duplicate its own rows
        base = dict(Ts=(15,), t_smooths=(20,), h_hours=(1.0,), thetas=self.THETAS)
        together = roc_sweep(test, train, SweepGrid(gammas=gammas, **base), small_base_cfg(), seed=13)
        k = len(self.THETAS)
        for i, gamma in enumerate(gammas):
            alone = roc_sweep(test, train, SweepGrid(gammas=(gamma,), **base), small_base_cfg(), seed=13)
            assert together.points[i * k : (i + 1) * k] == alone.points
            assert together.results[i * k : (i + 1) * k] == alone.results

    def test_gammas_share_the_distances_and_preprocessing(self, monkeypatch):
        test, train = theta_sweep_topics()
        base = dict(Ts=(15,), t_smooths=(20,), h_hours=(1.0,), thetas=self.THETAS)
        counts = {}
        for name, owner in (("expansion_minimum", core.ShiftWindows), ("_chain", pipeline)):
            def counted(*args, _original=getattr(owner, name), _name=name):
                counts[_name] += 1
                return _original(*args)
            monkeypatch.setattr(owner, name, counted)
        seen = []
        for gammas in ((1.0,), (0.3, 1.0, 3.0, 10.0)):
            counts.update(expansion_minimum=0, _chain=0)
            roc_sweep(test, train, SweepGrid(gammas=gammas, **base), small_base_cfg(), seed=13)
            seen.append(dict(counts))
        assert seen[0] == seen[1]
        assert seen[0]["_chain"] == 2  # one block of rows per side

    def test_one_placement_rule_for_both_sides(self, monkeypatch):
        train, test = mixed_length_topics()
        calls = []

        def spy(series_id, start_index, length, anchor, w, *args):
            calls.append((series_id, w))
            return original(series_id, start_index, length, anchor, w, *args)

        original = experiments.training_slice_start
        monkeypatch.setattr(experiments, "training_slice_start", spy)
        grid = SweepGrid(gammas=(1.0, 3.0), Ts=(15, 12), t_smooths=(20,), h_hours=(1.0, 0.8),
                         thetas=self.THETAS)
        roc_sweep(test, train, grid, small_base_cfg(), seed=8)
        want = []
        for T, h in itertools.product(grid.Ts, grid.h_hours):
            half = window_buckets(h, small_base_cfg().bucket_width_minutes)
            want += [(rate.topic_id, half) for rate, _ in train]
            want += [(rate.topic_id, 2 * half + T) for rate, _ in test]
        assert calls == want

    @pytest.mark.parametrize("case", ["prefix_after_onset", "test_prefix", "short_test", "early_onset",
                                      "short_slice", "undefined_then_short", "undefined"])
    def test_errors_are_those_of_one_sweep_per_setting(self, case):
        train, test = (list(side) for side in mixed_length_topics())
        grid = dict(gammas=(1.0,), Ts=(15,), t_smooths=(20,), h_hours=(1.0,), thetas=(1.0,))

        def retopic(side, i, **changes):
            rate, label = side[i]
            side[i] = (dataclasses.replace(rate, **changes), label)

        trend = next(i for i, (_, label) in enumerate(train) if label == Label.POSITIVE)
        if case == "prefix_after_onset":  # a later empty first bucket, an earlier missing onset
            retopic(train, trend, onset_index=None)
            retopic(train, len(train) - 1, counts=np.r_[0.0, train[-1][0].counts[1:]])
        elif case == "test_prefix":
            retopic(test, 3, counts=np.r_[0.0, test[3][0].counts[1:]])
        elif case == "short_test":
            retopic(test, len(test) - 1, counts=test[-1][0].counts[:40])
        elif case == "early_onset":  # its detection region starts before bucket 1
            retopic(test, next(i for i, (_, label) in enumerate(test) if label == Label.POSITIVE),
                    onset_index=20)
        elif case == "short_slice":
            retopic(train, trend, onset_index=10)
        else:  # every vote of gamma 1e308 overflows, so its ratios are undefined
            grid["gammas"] = (1.0, 1e308)
            if case == "undefined_then_short":
                grid["Ts"] = (15, 40)  # a 30-bucket slice is shorter than T = 40
        args = (test, train, SweepGrid(**grid), small_base_cfg())
        want = raised(lambda: reference_sweep(*args, seed=2))
        assert raised(lambda: roc_sweep(*args, seed=2)) == want
