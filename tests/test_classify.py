import math
import warnings

import numpy as np
import pytest

from conftest import random_instance
from tsvote import (
    Label,
    LabeledDataset,
    LatentSourceModel,
    NoiseSpec,
    ParamError,
    TimeSeries,
    VotingParams,
    classify_gwmv,
    classify_knn,
    classify_map,
    lambda_ratio,
    log_vote_sum,
)
from tsvote.classify import MapKernel, VotingKernel


def series_at_distance(d, T, id):
    """A series whose squared distance to the zero series over [1, T] is d."""
    return TimeSeries(1, np.full(T, math.sqrt(d / T)), id=id)


ZERO3 = TimeSeries(1, np.zeros(3), id="s")
P3 = VotingParams(gamma=1.0, T=3, delta_max=0)


class TestLogVoteSum:
    def test_exact_match(self):
        assert log_vote_sum([series_at_distance(0.0, 3, "r")], ZERO3, P3) == 0.0

    def test_two_examples(self):
        examples = [series_at_distance(1.0, 3, "a"), series_at_distance(2.0, 3, "b")]
        expected = math.log(math.exp(-1.0) + math.exp(-2.0))  # ~ -0.68673
        assert log_vote_sum(examples, ZERO3, P3) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-0.68673, abs=1e-5)

    def test_gamma_zero_counts_examples(self, rng):
        data, s = random_instance(rng, 4, 3, T=5, delta_max=1)
        params = VotingParams(gamma=0.0, T=5, delta_max=1)
        assert log_vote_sum(data.positives, s, params) == pytest.approx(math.log(4), abs=1e-12)

    def test_no_underflow_at_huge_exponents(self):
        examples = [series_at_distance(5000.0, 3, "far")]
        out = log_vote_sum(examples, ZERO3, P3)
        assert out == pytest.approx(-5000.0, rel=1e-12)

    def test_empty_class_rejected(self):
        with pytest.raises(ParamError):
            log_vote_sum([], ZERO3, P3)


class TestLambdaRatio:
    def test_worked_example(self):
        data = LabeledDataset(
            (series_at_distance(0.0, 3, "r1"),), (series_at_distance(5.0, 3, "r2"),)
        )
        assert lambda_ratio(ZERO3, data, P3) == pytest.approx(5.0, abs=1e-12)

    def test_mirror_antisymmetry(self, rng):
        for _ in range(20):
            data, s = random_instance(rng, 3, 2, T=6, delta_max=2)
            params = VotingParams(gamma=0.7, T=6, delta_max=2)
            assert lambda_ratio(s, data, params) == -lambda_ratio(s, data.swapped(), params)

    def test_gamma_zero_balanced(self, rng):
        data, s = random_instance(rng, 3, 3, T=4, delta_max=0)
        params = VotingParams(gamma=0.0, T=4, delta_max=0)
        assert lambda_ratio(s, data, params) == 0.0


class TestGwmv:
    def test_theta_thresholds(self):
        data = LabeledDataset(
            (series_at_distance(1.0, 3, "r1"),), (series_at_distance(2.0, 3, "r2"),)
        )
        # vote ratio is e
        at2 = classify_gwmv(ZERO3, data, VotingParams(gamma=1.0, T=3, theta=2.0))
        at3 = classify_gwmv(ZERO3, data, VotingParams(gamma=1.0, T=3, theta=3.0))
        assert at2.label == Label.POSITIVE
        assert at3.label == Label.NEGATIVE
        assert at2.log_lambda == pytest.approx(1.0, abs=1e-12)

    def test_member_with_dominant_vote(self, rng):
        data, _ = random_instance(rng, 3, 3, T=5, delta_max=1)
        s = TimeSeries(1, data.positives[0].window(1, 5), id="copy")
        out = classify_gwmv(s, data, VotingParams(gamma=5.0, T=5, delta_max=1))
        assert out.label == Label.POSITIVE

    def test_exact_tie_goes_positive(self):
        data = LabeledDataset(
            (series_at_distance(2.0, 3, "r1"),), (series_at_distance(2.0, 3, "r2"),)
        )
        out = classify_gwmv(ZERO3, data, VotingParams(gamma=1.0, T=3, theta=1.0))
        assert out.log_lambda == 0.0
        assert out.label == Label.POSITIVE

    def test_theta_switches_at_most_once(self, rng):
        for _ in range(10):
            data, s = random_instance(rng, 3, 3, T=5, delta_max=1)
            labels = [
                classify_gwmv(s, data, VotingParams(gamma=0.5, T=5, delta_max=1, theta=th)).label
                for th in (0.01, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0)
            ]
            switches = sum(1 for a, b in zip(labels, labels[1:]) if a != b)
            assert switches <= 1
            if switches == 1:
                assert labels[0] == Label.POSITIVE and labels[-1] == Label.NEGATIVE

    def test_class_swap_with_inverted_theta(self, rng):
        for _ in range(20):
            data, s = random_instance(rng, 3, 2, T=6, delta_max=1)
            for theta in (0.5, 1.0, 2.0):
                params = VotingParams(gamma=0.8, T=6, delta_max=1, theta=theta)
                swapped = VotingParams(gamma=0.8, T=6, delta_max=1, theta=1.0 / theta)
                a = classify_gwmv(s, data, params)
                if a.log_lambda == math.log(theta):
                    continue  # ties resolve positive under both rules
                b = classify_gwmv(s, data.swapped(), swapped)
                assert b.label == Label.from_int(-int(a.label))

    def test_log_space_matches_naive_ratio(self, rng):
        from tsvote import shift_min_distance

        for _ in range(20):
            data, s = random_instance(rng, 4, 3, T=6, delta_max=2, scale=0.4)
            params = VotingParams(gamma=0.9, T=6, delta_max=2)
            num = sum(
                math.exp(-params.gamma * shift_min_distance(r, s, 6, 2)[0])
                for r in data.positives
            )
            den = sum(
                math.exp(-params.gamma * shift_min_distance(r, s, 6, 2)[0])
                for r in data.negatives
            )
            expected = math.log(num / den)
            got = lambda_ratio(s, data, params)
            assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))

    def test_sum_mode_equals_min_mode_without_shifts(self, rng):
        data, s = random_instance(rng, 3, 3, T=5, delta_max=0)
        p_min = VotingParams(gamma=0.7, T=5, delta_max=0, shift_mode="min")
        p_sum = VotingParams(gamma=0.7, T=5, delta_max=0, shift_mode="sum")
        assert lambda_ratio(s, data, p_min) == lambda_ratio(s, data, p_sum)

    def test_sum_mode_pools_all_shifts(self):
        # one example, two shifts at distances 1 and 2: pooled vote is their sum
        r = TimeSeries(0, [1.0, 0.0, math.sqrt(2.0)], id="r")
        s = TimeSeries(1, [0.0], id="s")
        params = VotingParams(gamma=1.0, T=1, delta_max=1, shift_mode="sum")
        got = log_vote_sum([r], s, params)
        assert got == pytest.approx(
            math.log(math.exp(-1.0) + math.exp(0.0) + math.exp(-2.0)), abs=1e-12
        )


class TestKnn:
    def test_nearest_positive(self):
        data = LabeledDataset(
            (series_at_distance(1.0, 3, "r1"),), (series_at_distance(2.0, 3, "r2"),)
        )
        out = classify_knn(ZERO3, data, P3, k=1)
        assert out.label == Label.POSITIVE
        assert out.log_lambda == math.inf

    def test_distance_tie_prefers_positive(self):
        data = LabeledDataset(
            (series_at_distance(2.0, 3, "r1"),), (series_at_distance(2.0, 3, "r2"),)
        )
        assert classify_knn(ZERO3, data, P3, k=1).label == Label.POSITIVE

    def test_k_must_fit(self, rng):
        data, s = random_instance(rng, 2, 2, T=4, delta_max=0)
        with pytest.raises(ParamError):
            classify_knn(s, data, VotingParams(gamma=1.0, T=4), k=5)

    def test_k_equals_n_matches_gwmv(self, rng):
        for _ in range(50):
            n_pos, n_neg = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            data, s = random_instance(rng, n_pos, n_neg, T=5, delta_max=1)
            params = VotingParams(gamma=0.6, T=5, delta_max=1, theta=1.0)
            full = classify_knn(s, data, params, k=data.n)
            vote = classify_gwmv(s, data, params)
            assert full.label == vote.label
            assert full.log_lambda == vote.log_lambda  # identical accumulation order

    def test_knn_restricts_votes(self):
        # two far positives, one near negative: k=1 sees only the negative
        data = LabeledDataset(
            (series_at_distance(9.0, 3, "p1"), series_at_distance(9.0, 3, "p2")),
            (series_at_distance(1.0, 3, "n1"),),
        )
        params = VotingParams(gamma=0.01, T=3)
        assert classify_knn(ZERO3, data, params, k=1).label == Label.NEGATIVE
        # with all votes, the two positives outweigh at small gamma
        assert classify_gwmv(ZERO3, data, params).label == Label.POSITIVE


def two_source_model(T, delta_max, sep=4.0):
    margin = delta_max
    length = T + margin
    pos = TimeSeries(1, np.zeros(length), id="v+")
    neg = TimeSeries(1, np.full(length, sep), id="v-")
    return LatentSourceModel(
        sources=((pos, Label.POSITIVE), (neg, Label.NEGATIVE)),
        delta_max=delta_max,
        noise=NoiseSpec("gaussian", 0.0),
        window_start=1,
        window_length=T,
    )


class TestMap:
    def test_noiseless_match(self):
        model = two_source_model(T=4, delta_max=0)
        s = TimeSeries(1, np.zeros(4), id="s")
        out = classify_map(s, model, VotingParams(gamma=1.0, T=4, delta_max=0))
        assert out.label == Label.POSITIVE

    def test_label_swap_negates(self):
        model = two_source_model(T=4, delta_max=0)
        swapped = LatentSourceModel(
            sources=tuple((src, Label.from_int(-int(lab))) for src, lab in model.sources),
            delta_max=0,
            noise=model.noise,
            window_start=1,
            window_length=4,
        )
        s = TimeSeries(1, np.full(4, 0.5), id="s")
        a = classify_map(s, model, VotingParams(gamma=1.0, T=4, delta_max=0))
        b = classify_map(s, swapped, VotingParams(gamma=1.0, T=4, delta_max=0))
        assert a.log_lambda == pytest.approx(-b.log_lambda, abs=1e-12)
        assert a.label != b.label

    def test_matches_hand_enumeration(self, rng):
        # two sources per class, T=4, one-sided shifts {0, 1}, gamma = 1/2
        T, dmax, gamma = 4, 1, 0.5
        sources = []
        for i in range(4):
            vals = rng.standard_normal(T + dmax)
            sources.append(
                (TimeSeries(1, vals, id=f"v{i}"), Label.POSITIVE if i < 2 else Label.NEGATIVE)
            )
        model = LatentSourceModel(
            sources=tuple(sources),
            delta_max=dmax,
            noise=NoiseSpec("gaussian", 0.0),
            window_start=1,
            window_length=T,
        )
        s = TimeSeries(1, rng.standard_normal(T), id="s")
        num = 0.0
        den = 0.0
        for src, lab in sources:
            for shift in range(dmax + 1):
                d = sum(
                    (src.value_at(t + shift) - s.value_at(t)) ** 2 for t in range(1, T + 1)
                )
                term = math.exp(-gamma * d)
                if lab == Label.POSITIVE:
                    num += term
                else:
                    den += term
        expected = math.log(num) - math.log(den)
        out = classify_map(s, model, VotingParams(gamma=gamma, T=T, delta_max=dmax))
        assert out.log_lambda == pytest.approx(expected, abs=1e-12)

    def test_one_sided_shifts_only(self):
        # source matches s only at shift -1, which the posterior ratio may not use
        vals = np.array([7.0, 0.0, 0.0, 0.0, 5.0])
        pos = TimeSeries(0, vals, id="v+")  # v(t)=0 for t in [1,3]; v(0)=7
        neg = TimeSeries(0, np.full(5, 3.0), id="v-")
        model = LatentSourceModel(
            sources=((pos, Label.POSITIVE), (neg, Label.NEGATIVE)),
            delta_max=1,
            noise=NoiseSpec("gaussian", 0.0),
            window_start=1,
            window_length=3,
        )
        s = TimeSeries(1, np.array([7.0, 0.0, 0.0]), id="s")  # equals pos advanced by -1
        params = VotingParams(gamma=2.0, T=3, delta_max=1)
        out = classify_map(s, model, params)
        kernel = MapKernel(model, params)
        # shifts 0 and +1 both miss the leading spike: the match at -1 is out of range
        assert out.log_lambda < math.log(math.exp(-params.gamma * 0.0))
        # while the two-sided voting distance would find it
        from tsvote import shift_min_distance

        assert shift_min_distance(pos, s, 3, 1) == (0.0, -1)

    def test_weighted_sources_reduce_to_uniform(self, rng):
        T, dmax = 5, 1
        sources = []
        for i in range(4):
            vals = rng.standard_normal(T + dmax)
            sources.append(
                (TimeSeries(1, vals, id=f"v{i}"), Label.POSITIVE if i % 2 == 0 else Label.NEGATIVE)
            )
        kwargs = dict(
            delta_max=dmax, noise=NoiseSpec("gaussian", 0.0), window_start=1, window_length=T
        )
        uniform = LatentSourceModel(sources=tuple(sources), weights=None, **kwargs)
        explicit = LatentSourceModel(sources=tuple(sources), weights=(0.25,) * 4, **kwargs)
        s = TimeSeries(1, rng.standard_normal(T), id="s")
        params = VotingParams(gamma=0.5, T=T, delta_max=dmax)
        a = classify_map(s, uniform, params)
        b = classify_map(s, explicit, params)
        assert a.log_lambda == pytest.approx(b.log_lambda, abs=1e-12)
        assert a.label == b.label


class TestKernelConsistency:
    def test_kernel_matches_scalar_distance(self, rng):
        from tsvote import shift_min_distance, window_sq_dist

        data, s = random_instance(rng, 3, 4, T=7, delta_max=2)
        params = VotingParams(gamma=1.0, T=7, delta_max=2)
        kernel = VotingKernel(data, params)
        d = kernel.shift_sq_dists(s)
        for i, r in enumerate(data.examples()):
            for j, delta in enumerate(range(-2, 3)):
                assert d[i, j] == window_sq_dist(r, s, delta, 7)
        dmin, shifts = kernel.min_dists(s)
        for i, r in enumerate(data.examples()):
            assert (dmin[i], shifts[i]) == shift_min_distance(r, s, 7, 2)

    def test_batched_log_lambda_matches_single(self, rng):
        data, _ = random_instance(rng, 4, 4, T=6, delta_max=2)
        params = VotingParams(gamma=0.8, T=6, delta_max=2)
        kernel = VotingKernel(data, params)
        obs = rng.standard_normal((9, 6))
        batched = kernel.log_lambda_many(obs)
        for i in range(9):
            single = kernel.log_lambda(TimeSeries(1, obs[i], id=f"o{i}"))
            assert batched[i] == pytest.approx(single, rel=1e-9, abs=1e-9)

    def test_batched_log_lambda_sum_mode(self, rng):
        data, _ = random_instance(rng, 3, 3, T=5, delta_max=1)
        params = VotingParams(gamma=0.6, T=5, delta_max=1, shift_mode="sum")
        kernel = VotingKernel(data, params)
        obs = rng.standard_normal((4, 5))
        batched = kernel.log_lambda_many(obs)
        for i in range(4):
            single = kernel.log_lambda(TimeSeries(1, obs[i], id=f"o{i}"))
            assert batched[i] == pytest.approx(single, rel=1e-9, abs=1e-9)

    def test_gamma_limit_agrees_with_nearest_neighbor(self, rng):
        agree = checked = 0
        for _ in range(100):
            data, s = random_instance(rng, 3, 3, T=5, delta_max=1)
            params = VotingParams(gamma=1.0, T=5, delta_max=1)
            kernel = VotingKernel(data, params)
            dmin, _ = kernel.min_dists(s)
            order = np.sort(dmin)
            scale = max(order[-1], 1e-9)
            if (order[1] - order[0]) < 1e-6 * scale:
                continue  # needs a unique nearest neighbor
            sharp = VotingParams(gamma=1e6 / scale, T=5, delta_max=1, theta=1.0)
            checked += 1
            agree += (
                classify_gwmv(s, data, sharp).label == classify_knn(s, data, sharp, k=1).label
            )
        assert checked > 50
        assert agree == checked


class TestUndefinedRatio:
    @pytest.mark.parametrize(
        "field, value",
        [("gamma", math.inf), ("gamma", math.nan), ("theta", math.inf), ("theta", math.nan)],
    )
    def test_params_must_be_finite(self, field, value):
        with pytest.raises(ParamError, match=field):
            VotingParams(**{"gamma": 1.0, "T": 3, field: value})

    @pytest.mark.parametrize(
        "run",
        [
            lambda data, model, p: classify_gwmv(ZERO3, data, p),
            lambda data, model, p: classify_knn(ZERO3, data, p, k=1),
            lambda data, model, p: classify_knn(ZERO3, data, p, k=2),
            lambda data, model, p: classify_map(TimeSeries(1, np.full(3, 2.0)), model, p),
            lambda data, model, p: VotingKernel(data, p).log_lambda_many(np.zeros((2, 3))),
        ],
        ids=["gwmv", "knn1", "knn2", "map", "log_lambda_many"],
    )
    def test_overflowing_gamma_is_an_error_not_a_verdict(self, run):
        # 1e308 * distance overflows to an -inf vote for every example of both classes
        data = LabeledDataset(
            (series_at_distance(4.0, 3, "p"),), (series_at_distance(9.0, 3, "n"),)
        )
        params = VotingParams(gamma=1e308, T=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # the error is the only report
            with pytest.raises(ParamError, match="undefined"):
                run(data, two_source_model(T=3, delta_max=0), params)

    def test_infinite_ratio_is_still_a_verdict(self):
        data = LabeledDataset(
            (series_at_distance(0.0, 3, "p"),), (series_at_distance(9.0, 3, "n"),)
        )
        params = VotingParams(gamma=1e308, T=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # only the negative class overflows
            out = classify_gwmv(ZERO3, data, params)
            many = VotingKernel(data, params).log_lambda_many(np.zeros((2, 3)))
        assert out.label == Label.POSITIVE
        assert out.log_lambda == math.inf
        assert many.tolist() == [math.inf, math.inf]
