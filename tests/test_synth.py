import math
from dataclasses import replace

import numpy as np
import pytest

from tsvote import (
    GeneratorConfig,
    Label,
    LabeledDataset,
    LatentSourceModel,
    NoiseSpec,
    ParamError,
    ProvenanceError,
    SupportError,
    TimeSeries,
    coverage_counts,
    make_latent_sources,
    sample_dataset,
    sample_series,
    training_size,
)
from tsvote.synth import derive_streams, gaussian_kernel, sample_draws


class TestMakeLatentSources:
    def test_labels_alternate(self):
        cfg = GeneratorConfig(m=2, series_length=20, smoothing_scale=2.0, seed=1)
        model = make_latent_sources(cfg)
        assert model.m == 2 and model.m_pos == 1 and model.m_neg == 1
        cfg5 = GeneratorConfig(m=5, series_length=20, smoothing_scale=2.0, seed=1)
        model5 = make_latent_sources(cfg5)
        assert model5.m_pos == 3  # ceil(m/2) positives
        assert [int(lab) for _, lab in model5.sources] == [1, -1, 1, -1, 1]

    def test_supports_carry_shift_margin(self):
        cfg = GeneratorConfig(m=2, series_length=30, smoothing_scale=2.0, seed=0)
        model = make_latent_sources(cfg, delta_max=4)
        assert model.window_start == -3
        assert model.window_length == 30
        for src, _ in model.sources:
            assert src.start_index == -3 and src.end_index == 30

    def test_tiny_smoothing_scale_keeps_variance(self):
        cfg = GeneratorConfig(
            m=2, series_length=10_000, amplitude_variance=100.0, smoothing_scale=1e-6, seed=3
        )
        model = make_latent_sources(cfg)
        values = model.sources[0][0].values
        # kernel collapses to the identity; per-entry variance stays put
        tol = 4.0 * 100.0 * math.sqrt(2.0 / values.size)
        assert abs(values.var() - 100.0) < tol

    def test_smoothing_reduces_variance(self):
        cfg = GeneratorConfig(
            m=2, series_length=10_000, amplitude_variance=100.0, smoothing_scale=30.0, seed=3
        )
        model = make_latent_sources(cfg)
        assert model.sources[0][0].values.var() < 5.0

    def test_full_scale_configuration(self):
        # the large profile: 200 sources, variance 100, smoothing scale 30
        cfg = GeneratorConfig(
            m=200, series_length=12, amplitude_variance=100.0, smoothing_scale=30.0, seed=0
        )
        model = make_latent_sources(cfg)
        assert model.m == 200 and model.m_pos == 100

    def test_kernel_is_normalized_and_truncated(self):
        k = gaussian_kernel(3.0)
        assert k.size == 2 * 12 + 1
        assert k.sum() == pytest.approx(1.0, abs=1e-12)
        assert k[0] == pytest.approx(k[-1])

    @pytest.mark.parametrize(
        "field, value", [("m", 2.7), ("m", 1), ("series_length", 40.9), ("series_length", 0)]
    )
    def test_sizes_must_be_integers(self, field, value):
        # a non-integral size used to be truncated
        with pytest.raises(ParamError, match=f"^{field} must be"):
            GeneratorConfig(**{"m": 2, "series_length": 40, field: value})

    @pytest.mark.parametrize("seed", [2.5, -1, True, "3"])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # it used to reach np.random.SeedSequence, which raised its own
        # TypeError or ValueError when the sources were made
        with pytest.raises(ParamError, match="^seed must be"):
            GeneratorConfig(m=2, series_length=10, seed=seed)
        assert GeneratorConfig(m=2, series_length=10, seed=3.0).seed == 3

    def test_integral_float_sizes_become_ints(self):
        cfg = GeneratorConfig(m=2.0, series_length=40.0)
        assert (cfg.m, cfg.series_length) == (2, 40)
        assert type(cfg.m) is int and type(cfg.series_length) is int

    def test_bad_params(self):
        with pytest.raises(ParamError):
            GeneratorConfig(m=1, series_length=10)
        with pytest.raises(ParamError):
            GeneratorConfig(m=2, series_length=10, smoothing_scale=0.0)
        with pytest.raises(ParamError):
            GeneratorConfig(m=2, series_length=10, amplitude_variance=-1.0)


def small_model(delta_max=3, sigma=1.0, family="gaussian", weights=None, length=24):
    cfg = GeneratorConfig(m=4, series_length=length, smoothing_scale=2.0, seed=11)
    return make_latent_sources(
        cfg, delta_max=delta_max, noise=NoiseSpec(family, sigma), weights=weights
    )


class TestSampleSeries:
    def test_noiseless_shiftless_equals_source(self):
        model = small_model(delta_max=0, sigma=0.0)
        series, label, prov = sample_series(model, 7)
        src, src_label = model.sources[prov.source_index]
        assert prov.shift == 0
        assert label == src_label
        assert np.array_equal(series.values, src.window(1, model.window_length))

    def test_shift_histogram_uniform(self):
        model = small_model(delta_max=3, sigma=0.0, length=12)
        draws = 100_000
        counts = np.zeros(4, dtype=int)
        for stream in derive_streams(123, draws):
            _, _, prov = sample_series(model, stream)
            counts[prov.shift] += 1
        p = 1.0 / 4.0
        band = 3.0 * math.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) < band)

    def test_degenerate_weights_pin_the_source(self):
        model = small_model(weights=(1.0, 0.0, 0.0, 0.0))
        for seed in range(40):
            _, _, prov = sample_series(model, seed)
            assert prov.source_index == 0

    def test_support_error_when_window_escapes(self):
        model = small_model(delta_max=2)
        with pytest.raises(SupportError):
            sample_series(model, 0, window_start=-50, window_length=10)


class TestSampleDataset:
    def test_single_draw(self):
        data = sample_dataset(small_model(), 1, 5)
        assert data.n == 1 and (data.n_pos + data.n_neg) == 1

    def test_training_size_full_profile(self):
        n = training_size(8.0, 200)
        assert n == math.ceil(8.0 * 200 * math.log(200))
        assert abs(n - 8479) <= 2  # the nominal full-profile size

    def test_class_sizes_binomial(self):
        model = small_model(delta_max=0, sigma=0.0, length=8)
        n = 4000
        data = sample_dataset(model, n, 99)
        p = model.m_pos / model.m
        band = 3.0 * math.sqrt(n * p * (1 - p))
        assert abs(data.n_pos - n * p) < band

    def test_leaves_no_gap_in_provenance(self):
        model = small_model()
        data = sample_dataset(model, 25, 1)
        prov = data.provenance()
        assert len(prov) == 25
        assert all(0 <= p.source_index < model.m for p in prov)
        assert all(0 <= p.shift <= model.delta_max for p in prov)

    def test_labels_match_sources(self):
        model = small_model()
        data = sample_dataset(model, 40, 3)
        for series_list, prov_list, label in (
            (data.positives, data.positive_provenance, Label.POSITIVE),
            (data.negatives, data.negative_provenance, Label.NEGATIVE),
        ):
            for prov in prov_list:
                assert model.sources[prov.source_index][1] == label

    def test_reproducible_and_seed_sensitive(self):
        model = small_model()
        a = sample_dataset(model, 12, 42)
        b = sample_dataset(model, 12, 42)
        c = sample_dataset(model, 12, 43)
        assert a.positives == b.positives and a.negatives == b.negatives
        assert a.positive_provenance == b.positive_provenance
        assert not (a.positives == c.positives and a.negatives == c.negatives)


class TestNoise:
    def test_moments(self):
        draws = 100_000
        for family in ("gaussian", "uniform"):
            spec = NoiseSpec(family, 2.0)
            values = spec.sample(np.random.default_rng(7), draws)
            assert abs(values.mean()) < 4.0 * 2.0 / math.sqrt(draws)
            if family == "uniform":
                assert np.all(np.abs(values) <= 2.0)

    def test_validation(self):
        with pytest.raises(ParamError):
            NoiseSpec("poisson", 1.0)
        with pytest.raises(ParamError):
            NoiseSpec("gaussian", -0.5)


class TestCoverage:
    def test_counts_sum_to_n(self):
        model = small_model()
        data = sample_dataset(model, 30, 2)
        counts = coverage_counts(data, model)
        assert sum(counts) == 30 and len(counts) == model.m

    def test_single_source_degenerate(self):
        src = TimeSeries(1, np.zeros(8), id="only")
        model = LatentSourceModel(
            sources=((src, Label.POSITIVE),),
            delta_max=0,
            noise=NoiseSpec("gaussian", 0.0),
            window_start=1,
            window_length=8,
        )
        data = sample_dataset(model, 9, 0)
        assert coverage_counts(data, model) == [9]

    def test_missing_provenance(self):
        model = small_model()
        data = sample_dataset(model, 10, 2)
        stripped = LabeledDataset(data.positives, data.negatives)
        with pytest.raises(ProvenanceError):
            coverage_counts(stripped, model)

    def test_coupon_collector_rate(self):
        # uniform sampling with n > m log(2m/delta) sees every source often enough
        m, delta = 10, 0.2
        n = math.ceil(m * math.log(2 * m / delta))
        cfg = GeneratorConfig(m=m, series_length=4, smoothing_scale=1.0, seed=5)
        model = make_latent_sources(cfg, delta_max=0, noise=NoiseSpec("gaussian", 0.0))
        trials = 200
        hits = 0
        for stream in derive_streams(314, trials):
            data = sample_dataset(model, n, stream)
            hits += min(coverage_counts(data, model)) > 0
        rate = hits / trials
        floor = (1 - delta / 2) - 3.0 * math.sqrt(delta / 2 * (1 - delta / 2) / trials)
        assert rate >= floor


def _relabeled(label):
    model = small_model()
    return replace(model, sources=((model.sources[0][0], label),) + model.sources[1:])


class TestOneRulePerKind:
    @pytest.mark.parametrize(
        "field, call",
        [
            ("smoothing_scale", lambda: make_latent_sources(
                GeneratorConfig(m=2, series_length=10, smoothing_scale=math.inf))),
            ("amplitude_variance", lambda: GeneratorConfig(m=2, series_length=10,
                                                           amplitude_variance=math.inf)),
            ("scale", lambda: gaussian_kernel(math.inf)),
            ("sigma", lambda: NoiseSpec(sigma=math.inf)),
            ("weights", lambda: small_model(weights=(math.nan, 0.5, 0.25, 0.25))),
            ("delta_max", lambda: replace(small_model(), delta_max=2.5)),
            ("window_start", lambda: replace(small_model(), window_start=1.9)),
            ("window_length", lambda: replace(small_model(), window_length=10.2)),
            ("label", lambda: _relabeled(-1.7)),
            ("label", lambda: _relabeled(True)),
            ("delta_max", lambda: small_model(delta_max=2.5)),
            ("n", lambda: sample_draws(small_model(), 2.5, 0)),
            ("window_length", lambda: sample_series(small_model(), 0, window_length=3.7)),
            ("window_start", lambda: sample_series(small_model(), 0, window_start=0.5)),
            ("seed", lambda: sample_series(small_model(), 7.5)),
            ("m", lambda: training_size(2.0, 2.5)),
            ("beta", lambda: training_size(math.inf, 10)),
        ],
    )
    def test_settings_pass_the_core_rules(self, field, call):
        # each used to be truncated, accepted, or to overflow (OverflowError)
        with pytest.raises(ParamError, match=f"^{field} must be"):
            call()


class TestModelValidation:
    def test_weights_checked(self):
        with pytest.raises(ParamError):
            small_model(weights=(0.5, 0.5))  # wrong length
        with pytest.raises(ParamError):
            small_model(weights=(0.7, 0.2, 0.2, 0.2))  # wrong sum
        with pytest.raises(ParamError):
            small_model(weights=(-0.1, 0.5, 0.3, 0.3))

    def test_source_support_checked(self):
        short = TimeSeries(1, np.zeros(5), id="short")
        with pytest.raises(ParamError):
            LatentSourceModel(
                sources=((short, Label.POSITIVE),),
                delta_max=2,
                noise=NoiseSpec("gaussian", 1.0),
                window_start=1,
                window_length=5,
            )
