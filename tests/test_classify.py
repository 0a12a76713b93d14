import dataclasses
import math
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dyadic_values, random_instance
from tsvote import (
    Label,
    LabeledDataset,
    LatentSourceModel,
    NoiseSpec,
    ParamError,
    SupportError,
    TimeSeries,
    VotingParams,
    advance,
    classify_gwmv,
    classify_knn,
    classify_map,
    gap,
    lambda_ratio,
    log_vote_sum,
    nearest_neighbor,
)
import tsvote.core as core
from tsvote import dataio
from tsvote.classify import (
    MapKernel,
    VotingKernel,
    _log_votes,
    _nearest,
    _tie_order,
    _vote_ratio,
)
from tsvote.core import expansion_slack, sq_dists
from tsvote.cli import main


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

    def test_gamma_zero_votes_one_at_infinite_distance(self):
        # the squared distance overflows to +inf, and gamma = 0 still votes exp(0)
        far = TimeSeries(1, np.full(5, 1e200), id="far")
        zero5, params = TimeSeries(1, np.zeros(5), id="s"), VotingParams(0.0, 5)
        assert log_vote_sum([far], zero5, params) == 0.0
        data = LabeledDataset((far, far), (TimeSeries(1, np.full(5, -1e200), id="n"),))
        assert classify_gwmv(zero5, data, params).log_lambda == math.log(2.0)
        many = VotingKernel(data, params).log_lambda_many(np.zeros((1, 5)))
        assert many.tolist() == [math.log(2.0)]

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

    def test_k1_is_the_first_example_in_tie_order(self, rng):
        # distances in {0, 1, 2} tie across classes in most rows, and the first
        # row ties everywhere; k = 1 selects by argmin, which must be the
        # example that _tie_order ranks first
        data, _ = random_instance(rng, 3, 4, T=4, delta_max=1)
        kernel = VotingKernel(data, VotingParams(0.5, 4, 1))
        D = rng.integers(0, 3, size=(60, kernel.n)).astype(np.float64)
        D[0] = 1.0
        first = _tie_order(D)[:, 0]
        want = [
            _vote_ratio(0.5, d[[i]][: int(i < kernel.n_pos)], d[[i]][int(i < kernel.n_pos):])
            for d, i in zip(D, first)
        ]
        ratio, pos, neg = (np.array(values) for values in zip(*want))
        assert (first < kernel.n_pos).any() and (first >= kernel.n_pos).any()
        assert block_bytes(kernel.knn_block(D, 1)) == [
            np.where(ratio >= 0.0, 1, -1).astype(np.int64).tobytes(), ratio.tobytes(),
            np.stack([pos, neg], axis=1).tobytes(),
        ]

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

    @pytest.mark.parametrize("values", [1, 64, core.BLOCK_VALUES])
    def test_sum_mode_traces_are_gwmv_block_bit_for_bit(self, rng, monkeypatch, values):
        # an offset makes the norms dwarf the distances, so a GEMM form would
        # round; sum-mode traces vote on the exact grid in blocks of rows
        data, _ = random_instance(rng, 3, 4, T=6, delta_max=2)
        data = LabeledDataset(*(
            tuple(TimeSeries(s.start_index, 1e3 + s.values, id=s.id) for s in part)
            for part in (data.positives, data.negatives)
        ))
        kernel = VotingKernel(data, VotingParams(0.6, 6, 2, shift_mode="sum"))
        obs = 1e3 + rng.standard_normal((9, 6))
        want = kernel.gwmv_block(kernel._windows.grid(obs).reshape(len(obs), -1)).log_lambda
        per_row = [kernel.gwmv(TimeSeries(1, row, id="o")).log_lambda for row in obs]
        monkeypatch.setattr(core, "BLOCK_VALUES", values)
        got = kernel.log_lambda_many(obs)
        assert got.tobytes() == want.tobytes()
        assert got.tolist() == per_row

    @settings(max_examples=200, deadline=None)
    @given(
        n_pos=st.integers(1, 8),
        n_neg=st.integers(1, 8),
        T=st.integers(1, 8),
        delta_max=st.integers(0, 3),
        P=st.integers(1, 6),
        shift_mode=st.sampled_from(["min", "sum"]),
        gamma=st.floats(0.0, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batched_rows_match_direct_path(
        self, n_pos, n_neg, T, delta_max, P, shift_mode, gamma, seed
    ):
        # distances of dyadic inputs are exact on both paths, but the batched
        # log-sum-exp may add in another order: rows agree to a few ulps, not bitwise
        rng = np.random.default_rng(seed)
        data, _ = random_instance(rng, n_pos, n_neg, T=T, delta_max=delta_max, dyadic=True)
        params = VotingParams(gamma=gamma, T=T, delta_max=delta_max, shift_mode=shift_mode)
        kernel = VotingKernel(data, params)
        obs = dyadic_values(rng, (P, T))
        for row, batched in zip(obs, kernel.log_lambda_many(obs)):
            direct = kernel.gwmv(TimeSeries(1, row, id="o"))
            assert abs(batched - direct.log_lambda) <= 1e-12 * max(1.0, abs(direct.log_lambda))
            if abs(direct.log_lambda) > 1e-9:
                assert (batched >= 0.0) == (direct.label == Label.POSITIVE)

    @settings(max_examples=300, deadline=None)
    @example(  # R + |q|^2 overflows at gamma = 0, where both sides are 0
        n_pos=1, n_neg=1, T=1, delta_max=0, P=1, scale_exp=148, offset=-1e6, spread=0,
        shift_mode="min", gamma=0.0, seed=0,
    )
    @given(
        n_pos=st.integers(1, 4),
        n_neg=st.integers(1, 4),
        T=st.integers(1, 12),
        delta_max=st.integers(0, 3),
        P=st.integers(1, 4),
        scale_exp=st.integers(-150, 150),
        offset=st.sampled_from([0.0, 1e3, -1e6]),
        spread=st.integers(0, 6),
        shift_mode=st.sampled_from(["min", "sum"]),
        gamma=st.sampled_from([0.0, 1e-3, 0.5, 4.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batched_rows_match_direct_path_on_any_scale(
        self, n_pos, n_neg, T, delta_max, P, scale_exp, offset, spread, shift_mode, gamma, seed
    ):
        # non-dyadic values round on both paths, offsets make the norms dwarf the
        # distances, and each value of a row has its own magnitude, up to
        # 10**spread apart; the rows may differ by the bound of log_lambda_many
        rng = np.random.default_rng(seed)
        scale, L = 1.37 * 10.0**scale_exp, T + 2 * delta_max

        def draw(*size):
            magnitudes = 10.0 ** rng.uniform(-spread, 0, size)
            return scale * (offset + rng.standard_normal(size) * magnitudes)

        data = LabeledDataset(
            tuple(TimeSeries(1 - delta_max, draw(L), id=f"p{i}") for i in range(n_pos)),
            tuple(TimeSeries(1 - delta_max, draw(L), id=f"n{i}") for i in range(n_neg)),
        )
        params = VotingParams(gamma=gamma, T=T, delta_max=delta_max, shift_mode=shift_mode)
        kernel = VotingKernel(data, params)
        obs = draw(P, T)
        with np.errstate(over="ignore"):
            R = np.array([r.values @ r.values for r in data.examples()])
            slack = [expansion_slack(R + q @ q, L + 4).max() for q in obs]
        for row, batched, eps in zip(obs, kernel.log_lambda_many(obs), slack):
            direct = kernel.gwmv(TimeSeries(1, row, id="o")).log_lambda
            vote_slack = 4.0 * gamma * eps if gamma else 0.0  # 0 * inf would be NaN
            assert abs(batched - direct) <= vote_slack + 1e-12 * max(1.0, abs(direct))

    def test_batched_overflowing_norms_take_the_exact_grid(self):
        # |w|^2 = 8e310 overflows, so d~ would be inf - inf
        data = LabeledDataset(
            (TimeSeries(1, np.full(8, 1.0e155), id="p"),),
            (TimeSeries(1, np.full(8, 1.04e155), id="n"),),
        )
        kernel = VotingKernel(data, VotingParams(gamma=1e-300, T=8))
        q = np.full(8, 1.001e155)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            many = kernel.log_lambda_many(q[None])
        direct = kernel.gwmv(TimeSeries(1, q, id="q")).log_lambda
        assert many.tolist() == [direct]
        assert direct == pytest.approx(1.216e8, rel=1e-3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_batched_rejects_non_finite_observations(self, rng, bad):
        data, _ = random_instance(rng, 2, 2, T=4, delta_max=1)
        obs = rng.standard_normal((3, 4))
        obs[1, 2] = bad
        with pytest.raises(ParamError, match="observations must be finite"):
            VotingKernel(data, VotingParams(gamma=0.5, T=4, delta_max=1)).log_lambda_many(obs)

    @pytest.mark.parametrize("shift_mode", ["min", "sum"])
    def test_batched_empty_block_gives_empty_trace(self, rng, shift_mode):
        data, _ = random_instance(rng, 2, 2, T=4, delta_max=1)
        kernel = VotingKernel(data, VotingParams(0.5, 4, 1, shift_mode=shift_mode))
        trace = kernel.log_lambda_many(np.empty((0, 4)))
        assert trace.shape == (0,) and trace.dtype == np.float64

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

    def test_overflowing_class_vote_is_minus_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # an overflow is a zero vote, not noise
            params = VotingParams(gamma=1e308, T=3)
            out = log_vote_sum([series_at_distance(9.0, 3, "r")], ZERO3, params)
        assert out == -math.inf

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


def grid_minimum(kernel, s):
    """Per-example min and first argmin shift of the full shift_sq_dists grid."""
    grid = kernel.shift_sq_dists(s)
    j = grid.argmin(axis=1)
    return grid[np.arange(kernel.n), j], j - kernel.params.delta_max


def outcome_of(run):
    """run()'s value, or the message of the ParamError it raised."""
    try:
        return run()
    except ParamError as exc:
        return str(exc)


class TestExactShiftMinimum:
    """min_dists bounds every cell with one GEMM and verifies a few with
    sq_dists; it must give the full grid's min and first argmin bit for bit."""

    def assert_matches_grid(self, data, s, params):
        kernel = VotingKernel(data, params)
        dmin, shifts = kernel.min_dists(s)
        want_d, want_shift = grid_minimum(kernel, s)
        assert dmin.tobytes() == want_d.tobytes()
        assert shifts.tolist() == want_shift.tolist()
        votes = want_d if params.shift_mode == "min" else kernel.shift_sq_dists(s).reshape(-1)
        pairs = [
            (lambda: kernel.gwmv(s), lambda: kernel._gwmv_from_dists(votes)),
            (lambda: kernel.knn(s, 1), lambda: kernel._knn_from_dists(want_d, 1)),
            (lambda: kernel.knn(s, kernel.n), lambda: kernel._knn_from_dists(want_d, kernel.n)),
            (lambda: kernel.nearest(s), lambda: _nearest(want_d[None], want_shift[None]).row(0)),
        ]
        for got, want in pairs:
            assert outcome_of(got) == outcome_of(want)
        if params.shift_mode == "min":
            want = float(_log_votes(params.gamma, want_d[: data.n_pos]))
            got = log_vote_sum(data.positives, s, params)
            assert got == want
        return dmin, shifts

    @settings(max_examples=300, deadline=None)
    @given(
        n_pos=st.integers(1, 4),
        n_neg=st.integers(1, 4),
        T=st.integers(1, 12),
        delta_max=st.integers(0, 4),
        # subnormal squares, ordinary values, and norms that overflow float64
        scale_exp=st.one_of(st.integers(-170, -145), st.integers(-145, 140), st.integers(140, 160)),
        offset=st.sampled_from([0.0, 1e3, -1e8, 1e12]),
        values=st.sampled_from(["normal", "dyadic", "periodic"]),
        duplicate=st.booleans(),
        member_query=st.booleans(),
        shift_mode=st.sampled_from(["min", "sum"]),
        gamma=st.sampled_from([0.0, 1e-3, 0.5, 2.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_minimum_is_the_grids_on_any_scale(
        self, n_pos, n_neg, T, delta_max, scale_exp, offset, values, duplicate, member_query,
        shift_mode, gamma, seed,
    ):
        # non-dyadic values round on both paths and offsets make the norms dwarf
        # the distances; dyadic values tie exactly across examples, periodic ones
        # across shifts; a window shared by the classes or with the query is at 0
        rng = np.random.default_rng(seed)
        scale = 1.37 * 10.0**scale_exp
        length = T + 2 * delta_max

        def draw(size):
            if values == "normal":
                return scale * (offset + rng.standard_normal(size))
            if values == "dyadic":
                return dyadic_values(rng, size, denom=4, span=8)
            return np.resize(dyadic_values(rng, 2, denom=4, span=8), size)

        pos = [TimeSeries(1 - delta_max, draw(length), id=f"p{i}") for i in range(n_pos)]
        neg = [TimeSeries(1 - delta_max, draw(length), id=f"n{i}") for i in range(n_neg)]
        if duplicate:
            neg[0] = TimeSeries(1 - delta_max, pos[0].values, id="dup")
        q = pos[-1].window(1, T) if member_query else draw(T)
        params = VotingParams(gamma=gamma, T=T, delta_max=delta_max, shift_mode=shift_mode)
        data = LabeledDataset(tuple(pos), tuple(neg))
        dmin, _ = self.assert_matches_grid(data, TimeSeries(1, q, id="q"), params)
        if member_query:
            assert dmin[n_pos - 1] == 0.0

    def test_overflowing_norms_take_the_full_grid(self, rng):
        # |w|^2 overflows, so the bound would be NaN; the distances (about 1e302) do not
        T, dmax = 8, 2
        data = LabeledDataset(
            tuple(
                TimeSeries(1 - dmax, 1e160 + 1e150 * rng.standard_normal(T + 2 * dmax), id=f"p{i}")
                for i in range(3)
            ),
            (TimeSeries(1 - dmax, 1e160 + 1e150 * rng.standard_normal(T + 2 * dmax), id="n"),),
        )
        s = TimeSeries(1, 1e160 + 1e150 * rng.standard_normal(T), id="s")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            dmin, _ = self.assert_matches_grid(data, s, VotingParams(1e-303, T, dmax))
        assert np.isfinite(dmin).all() and dmin.min() > 1e300

    def test_overflowing_distances_are_zero_votes(self):
        # the distances themselves overflow: +inf, quietly, then the ratio is undefined
        data = LabeledDataset(
            (TimeSeries(1, np.full(5, 1e200), id="p"),),
            (TimeSeries(1, np.full(5, -1e200), id="n"),),
        )
        s = TimeSeries(1, np.zeros(5), id="s")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            dmin, _ = self.assert_matches_grid(data, s, VotingParams(0.1, 5, 0))
            with pytest.raises(ParamError, match="squared distance"):
                classify_gwmv(s, data, VotingParams(0.1, 5, 0))
        assert dmin.tolist() == [math.inf, math.inf]

    def test_subnormal_near_tie_survives_the_bound(self):
        # squares below tiny round by an absolute amount no relative slack covers:
        # the two shifts' distances are 1e-323 and 5e-324
        data = LabeledDataset(
            (TimeSeries(0, np.array([2.6, 2.7, 0.0]) * 1e-161, id="p"),),
            (TimeSeries(0, np.array([0.0, 2.7, 2.6]) * 1e-161, id="n"),),
        )
        s = TimeSeries(1, np.array([2.9e-161]), id="s")
        dmin, shifts = self.assert_matches_grid(data, s, VotingParams(1.0, 1, 1))
        assert dmin.tolist() == [5e-324, 5e-324]
        assert shifts.tolist() == [0, 0]

    def test_every_cell_tied_verifies_in_blocks(self):
        # constant series tie at every shift, so all 40 * 41 cells are verified,
        # more than one block of rows; the first shift wins each tie
        T, dmax = 64, 20

        def const(v, id):
            return TimeSeries(1 - dmax, np.full(T + 2 * dmax, v), id=id)

        data = LabeledDataset(
            tuple(const(float(i % 3), f"p{i}") for i in range(20)),
            tuple(const(float(i % 3) + 0.25, f"n{i}") for i in range(20)),
        )
        s = TimeSeries(1, np.full(T, 0.5), id="s")
        _, shifts = self.assert_matches_grid(data, s, VotingParams(0.5, T, dmax))
        assert shifts.tolist() == [-dmax] * 40

    def test_desk_queries_verify_few_cells(self, tmp_path, monkeypatch):
        # a silent fallback to the full grid would pass every exactness test
        desk_cfg = Path(__file__).resolve().parents[1] / "configs" / "desk.cfg"
        argv = ["generate", "--config", str(desk_cfg), "--seed", "1", "--out", str(tmp_path)]
        assert main(argv) == 0
        train = dataio.read_dataset(tmp_path / "train.jsonl")
        tests = [ts for ts, _ in dataio.read_series_file(tmp_path / "test.jsonl")]
        kernel = VotingKernel(train, VotingParams(0.125, 100, 10))
        verified, direct = [], core.sq_dists

        def counting(a, b, out=None):
            verified.append(math.prod(np.broadcast_shapes(a.shape, b.shape)[:-1]))
            return direct(a, b, out=out)

        monkeypatch.setattr(core, "sq_dists", counting)
        for s in tests:
            verified.clear()
            kernel.min_dists(s)
            # one candidate per example: its shift minimum is that one cell
            assert sum(verified) == kernel.n

    def test_min_mode_calls_allocate_no_grid(self, rng):
        # nor do the calls that read the grid itself: it is built in tiles
        T, dmax = 100, 20
        data, s = random_instance(rng, 100, 100, T=T, delta_max=dmax)
        kernel = VotingKernel(data, VotingParams(0.5, T, dmax))
        summing = VotingKernel(data, VotingParams(0.5, T, dmax, shift_mode="sum"))
        model = LatentSourceModel(
            sources=tuple((series, label) for series, label, _ in data.draws()),
            delta_max=dmax, noise=NoiseSpec("gaussian", 1.0), window_start=1, window_length=T,
        )
        oracle = MapKernel(model, VotingParams(0.5, T, dmax))  # two (1, 100, 21, T) grids
        grid_bytes = kernel.n * (2 * dmax + 1) * T * 8
        calls = {
            "probe": lambda q: np.ones(grid_bytes // 8),
            "min_dists": lambda q: kernel.min_dists(q),
            "gwmv": lambda q: kernel.gwmv(q),
            "knn": lambda q: kernel.knn(q, 3),
            "nearest": lambda q: kernel.nearest(q),
            "verdict_and_nearest": lambda q: kernel.verdict_and_nearest(q),
            "shift_sq_dists": lambda q: kernel.shift_sq_dists(q),
            "sum-mode gwmv": lambda q: summing.gwmv(q),
            "MapKernel.classify": lambda q: oracle.classify(q),
        }
        peaks = {}
        for name, call in calls.items():
            call(s)  # warm up
            # an equal copy of s: the kernel keeps s's minimum, not the copy's
            fresh = TimeSeries(s.start_index, s.values, id=s.id)
            tracemalloc.start()
            try:
                call(fresh)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks.pop("probe") >= grid_bytes  # the probe sees an array of the grid's size
        assert max(peaks.values()) < grid_bytes / 4, peaks


def knn_reference(gamma, d, n_pos, k):
    """k-NN log ratio of one 1-D row of minimum distances, class by class: the
    k nearest in stable order, back in insertion order, each class's 1-D votes."""
    selected = np.sort(np.argsort(d, kind="stable")[:k])
    split = int(np.searchsorted(selected, n_pos))
    return _log_votes(gamma, d[selected[:split]]) - _log_votes(gamma, d[selected[split:]])


def outcome_bytes(outcomes):
    """Labels, log ratios and per-class log votes of outcomes, as bytes."""
    return [
        np.array([o.label for o in outcomes], dtype=np.int64).tobytes(),
        np.array([o.log_lambda for o in outcomes]).tobytes(),
        np.array([o.per_class_log_votes for o in outcomes]).tobytes(),
    ]


def nearest_values(found):
    """nearest_neighbor's example id, distance as bytes, shift and label."""
    example, dist, shift, label = found
    return example.id, np.float64(dist).tobytes(), shift, label


def block_bytes(block):
    pos, neg = block.per_class_log_votes
    return [block.labels.astype(np.int64).tobytes(), block.log_lambda.tobytes(),
            np.stack([pos, neg], axis=1).tobytes()]


def random_model(rng, n_sources, T, delta_max, weights=None):
    """A model of n_sources random sources, alternately positive and negative."""
    sources = tuple(
        (TimeSeries(1, rng.standard_normal(T + delta_max), id=f"v{i}"),
         Label.POSITIVE if i % 2 == 0 else Label.NEGATIVE)
        for i in range(n_sources)
    )
    return LatentSourceModel(
        sources=sources, weights=weights, delta_max=delta_max, noise=NoiseSpec("gaussian", 1.0),
        window_start=1, window_length=T,
    )


def certified_or_raises(certified, exact):
    """The labels of certified = (labels, decided) with each undecided row's
    label from exact(rows) instead, as error_curves scores them, or
    "ParamError" if that raises; exact(None) scores every row."""
    labels, decided = certified
    rows = np.flatnonzero(~decided)
    try:
        if rows.size:
            labels = labels.copy()
            labels[rows] = exact(rows)
        return labels.tolist()
    except ParamError:
        return "ParamError"


def exact_or_raises(exact):
    try:
        return exact(slice(None)).tolist()
    except ParamError:
        return "ParamError"


class TestCertifiedLabels:
    """The certified blocks decide labels from the GEMM bounds alone and never
    raise: each decided label is the exact path's (gwmv_block and knn_block
    on min_dists_block, MapKernel.classify_block), and a row the bounds cannot
    settle, a near tie among them, is left undecided for the exact path."""

    T, DMAX = 6, 2

    def voting(self, kernel, Q):
        """{classifier: (certified (labels, decided), exact labels of some rows)}"""
        D, R = kernel.min_bounds_block(Q)

        def exact(score):
            return lambda rows: score(kernel.min_dists_block(Q[rows])[0]).labels

        return {
            "wmv": (kernel.certified_gwmv_block(D, R), exact(kernel.gwmv_block)),
            "nn": (kernel.certified_nn_block(D, R), exact(lambda d: kernel.knn_block(d, 1))),
        }

    @pytest.mark.parametrize("gamma", [0.5, 1e-9])
    def test_a_threshold_at_a_rows_ratio_leaves_it_undecided(self, rng, gamma):
        # at the small gamma the bounds move the ratio by less than its rounding
        data, _ = random_instance(rng, 4, 3, T=self.T, delta_max=self.DMAX)
        Q = rng.standard_normal((5, self.T))
        kernel = VotingKernel(data, VotingParams(gamma, self.T, self.DMAX))
        log_lambda = kernel.gwmv_block(kernel.min_dists_block(Q)[0]).log_lambda
        theta = math.exp(log_lambda[2])
        kernel = VotingKernel(data, VotingParams(gamma, self.T, self.DMAX, theta))
        (labels, decided), exact = self.voting(kernel, Q)["wmv"]
        assert decided.tolist() == [True, True, False, True, True]
        assert labels[decided].tolist() == exact(decided).tolist()

    def test_a_nearest_neighbour_tie_across_classes_is_left_undecided(self, rng):
        # the query is a window of an example that both classes hold, so the
        # exact path's positive-first order decides it
        data, _ = random_instance(rng, 3, 3, T=self.T, delta_max=self.DMAX)
        twin = data.positives[1]
        data = LabeledDataset(data.positives, data.negatives + (advance(twin, 0),))
        Q = rng.standard_normal((4, self.T))
        Q[1] = twin.window(2, self.T + 1)
        kernel = VotingKernel(data, VotingParams(0.5, self.T, self.DMAX))
        (labels, decided), exact = self.voting(kernel, Q)["nn"]
        assert decided.tolist() == [True, False, True, True]
        assert exact([1]).tolist() == [1]
        assert labels[decided].tolist() == exact(decided).tolist()

    def test_an_oracle_tie_is_left_undecided(self, rng):
        # sources v and -v are equally far from the zero query at every shift
        v = rng.standard_normal(self.T + self.DMAX)
        model = LatentSourceModel(
            sources=((TimeSeries(1, v, id="v+"), Label.POSITIVE),
                     (TimeSeries(1, -v, id="v-"), Label.NEGATIVE)),
            delta_max=self.DMAX, noise=NoiseSpec("gaussian", 1.0), window_start=1,
            window_length=self.T,
        )
        oracle = MapKernel(model, VotingParams(0.5, self.T, self.DMAX))
        Q = rng.standard_normal((3, self.T))
        Q[0] = 0.0
        labels, decided = oracle.certified_block(Q)
        assert oracle.classify_block(Q[:1]).log_lambda.tolist() == [0.0]
        assert decided.tolist() == [False, True, True]
        assert labels[1:].tolist() == oracle.classify_block(Q[1:]).labels.tolist()

    def test_an_empty_block_gives_empty_results(self, rng):
        data, _ = random_instance(rng, 4, 3, T=self.T, delta_max=self.DMAX)
        kernel = VotingKernel(data, VotingParams(0.5, self.T, self.DMAX))
        Q = np.empty((0, self.T))
        D, R = kernel.min_bounds_block(Q)
        assert D.shape == R.shape == (0, kernel.n)
        oracle = MapKernel(random_model(rng, 4, self.T, self.DMAX), kernel.params)
        certified = [c for c, _ in self.voting(kernel, Q).values()] + [oracle.certified_block(Q)]
        for labels, decided in certified:
            assert labels.shape == decided.shape == (0,)

    @settings(max_examples=200, deadline=None)
    @given(
        n_pos=st.integers(1, 3),
        n_neg=st.integers(1, 3),
        T=st.integers(1, 6),
        delta_max=st.integers(0, 3),
        gamma=st.sampled_from([0.0, 0.125, 2.0, 1e3, 1e300]),
        scale=st.sampled_from([1e-160, 1e-4, 1.0, 1e100, 1e152, 1e154]),
        theta=st.sampled_from([1.0, 0.25, 3.0]),
        ties=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_pos=1, n_neg=1, T=3, delta_max=0, gamma=1e300, scale=1.0, theta=1.0, ties=False,
             seed=0)  # every vote overflows: the exact path raises
    def test_certified_labels_are_the_exact_labels(
        self, n_pos, n_neg, T, delta_max, gamma, scale, theta, ties, seed
    ):
        # gamma = 0, a huge gamma, tiny and near-overflowing values, and ties;
        # the combined path raises ParamError exactly where the exact one does
        rng = np.random.default_rng(seed)
        data, _ = random_instance(rng, n_pos, n_neg, T=T, delta_max=delta_max, scale=scale)
        Q = scale * rng.standard_normal((4, T))
        if ties:  # an example in both classes, and a query on one of its windows
            data = LabeledDataset(data.positives, data.negatives + (advance(data.positives[0], 0),))
            Q[0] = data.positives[0].window(1, T)
        params = VotingParams(gamma, T, delta_max, theta)
        sources = tuple(
            (TimeSeries(1, scale * rng.standard_normal(T + delta_max), id=f"v{i}"), label)
            for i, label in enumerate((Label.POSITIVE, Label.NEGATIVE, Label.POSITIVE))
        )
        if ties:
            sources += ((sources[0][0], Label.NEGATIVE),)
        model = LatentSourceModel(
            sources=sources, delta_max=delta_max, noise=NoiseSpec("gaussian", 1.0),
            window_start=1, window_length=T,
        )
        oracle = MapKernel(model, params)
        paths = self.voting(VotingKernel(data, params), Q)
        paths["map"] = (oracle.certified_block(Q), lambda rows: oracle.classify_block(Q[rows]).labels)
        for name, (certified, exact) in paths.items():
            assert certified_or_raises(certified, exact) == exact_or_raises(exact), name


class TestBlocks:
    """A block of queries scores each row bit for bit as the per-query path
    scores that query alone."""

    T, DMAX = 9, 2

    def instance(self, rng, gamma, P=40):
        data, _ = random_instance(rng, 24, 20, T=self.T, delta_max=self.DMAX)
        kernel = VotingKernel(data, VotingParams(gamma, self.T, self.DMAX))
        Q = rng.standard_normal((P, self.T))
        return kernel, Q, [TimeSeries(1, q, id=f"q{p}") for p, q in enumerate(Q)]

    @pytest.mark.parametrize("gamma", [0.0, 0.125, 3.0])
    def test_votes_and_knn_equal_the_per_query_path(self, rng, gamma):
        kernel, Q, queries = self.instance(rng, gamma)
        D, shifts = kernel.min_dists_block(Q)
        singles = [kernel.min_dists(s) for s in queries]
        assert D.tobytes() == np.array([d for d, _ in singles]).tobytes()
        assert shifts.tolist() == [j.tolist() for _, j in singles]
        block = kernel.gwmv_block(D)
        assert block_bytes(block) == outcome_bytes([kernel.gwmv(s) for s in queries])
        n_pos = kernel.n_pos
        reference = [_log_votes(gamma, d[:n_pos]) - _log_votes(gamma, d[n_pos:]) for d in D]
        assert block.log_lambda.tobytes() == np.array(reference).tobytes()
        # k = 30 selects 10 to 20 positives, sums long enough that padding a
        # class with zero votes would reassociate them
        for k in (1, 3, 30, kernel.n):
            block = kernel.knn_block(D, k)
            assert block_bytes(block) == outcome_bytes([kernel.knn(s, k) for s in queries])
            reference = [knn_reference(gamma, d, kernel.n_pos, k) for d in D]
            assert block.log_lambda.tobytes() == np.array(reference).tobytes()

    def test_gathered_columns_vote_as_a_smaller_pool(self, rng):
        # a prefix pool reads its columns of the full pool's minima, as error_curves does
        kernel, Q, queries = self.instance(rng, 0.5)
        data = kernel.data
        small = VotingKernel(
            LabeledDataset(data.positives[:15], data.negatives[:12]), kernel.params
        )
        D = kernel.min_dists_block(Q)[0][:, np.r_[:15, 24:36]]
        assert not D.flags.c_contiguous
        assert block_bytes(small.gwmv_block(D)) == outcome_bytes([small.gwmv(s) for s in queries])
        for k in (1, 3, 20, small.n):
            want = outcome_bytes([small.knn(s, k) for s in queries])
            assert block_bytes(small.knn_block(D, k)) == want

    def test_an_undefined_row_raises_as_alone(self, rng):
        kernel, Q, _ = self.instance(rng, 0.5, P=6)
        D = np.ascontiguousarray(kernel.min_dists_block(Q)[0])
        D[3] = np.inf  # every vote of row 3 is zero
        for block, row in (
            (lambda: kernel.gwmv_block(D), lambda: kernel._gwmv_from_dists(D[3])),
            (lambda: kernel.knn_block(D, 1), lambda: kernel._knn_from_dists(D[3], 1)),
            (lambda: kernel.knn_block(D, 5), lambda: kernel._knn_from_dists(D[3], 5)),
        ):
            with pytest.raises(ParamError, match="undefined") as from_block:
                block()
            with pytest.raises(ParamError) as from_row:
                row()
            assert str(from_block.value) == str(from_row.value)

    def test_rejects_a_block_of_another_width(self, rng):
        kernel, Q, _ = self.instance(rng, 0.5, P=3)
        with pytest.raises(ParamError, match="shape"):
            kernel.gwmv_block(np.zeros((3, kernel.n + 1)))
        with pytest.raises(ParamError, match="shape"):
            kernel.min_dists_block(Q[:, :-1])

    def oracle(self, rng, weights=None, gamma=0.5):
        model = random_model(rng, 4, self.T, self.DMAX, weights)
        return MapKernel(model, VotingParams(gamma, self.T, self.DMAX))

    @pytest.mark.parametrize("weights", [None, (0.4, 0.1, 0.3, 0.2), (0.5, 0.0, 0.3, 0.2)])
    def test_oracle_equals_the_per_query_path(self, rng, weights):
        T = self.T
        oracle = self.oracle(rng, weights)
        Q = rng.standard_normal((40, T))
        want = outcome_bytes([oracle.classify(TimeSeries(1, q)) for q in Q])
        block = oracle.classify_block(Q)
        assert block_bytes(block) == want
        # each query's 1-D grid of cells, voted class by class
        reference = [
            _log_votes(0.5, oracle._pos.grid(q).ravel(), oracle._logw_pos)
            - _log_votes(0.5, oracle._neg.grid(q).ravel(), oracle._logw_neg)
            for q in Q
        ]
        assert block.log_lambda.tobytes() == np.array(reference).tobytes()

    @pytest.mark.parametrize("shift_mode", ["min", "sum"])
    @pytest.mark.parametrize("k", [None, 1, 5])
    def test_verdict_and_nearest_equal_the_per_query_path(self, rng, shift_mode, k):
        data, _ = random_instance(rng, 24, 20, T=self.T, delta_max=self.DMAX)
        # a negative that repeats positive 5: a query on it ties the two at distance 0
        twin = TimeSeries(data.positives[5].start_index, data.positives[5].values, id="twin")
        data = LabeledDataset(data.positives, (twin,) + data.negatives)
        params = VotingParams(0.5, self.T, self.DMAX, shift_mode=shift_mode)
        kernel = VotingKernel(data, params)
        Q = rng.standard_normal((40, self.T))
        Q[7] = twin.window(1, self.T)
        queries = [TimeSeries(1, q) for q in Q]
        block, nearest = kernel.verdict_and_nearest_block(Q, k)
        singles = [kernel.verdict_and_nearest(s, k) for s in queries]
        assert block_bytes(block) == outcome_bytes([outcome for outcome, _ in singles])
        verdicts = [kernel.gwmv(s) if k is None else kernel.knn(s, k) for s in queries]
        assert block_bytes(block) == outcome_bytes(verdicts)
        idx, dist, shift = (np.array(column) for column in zip(*(nn for _, nn in singles)))
        assert nearest.indices.tobytes() == idx.astype(nearest.indices.dtype).tobytes()
        assert nearest.distances.tobytes() == dist.tobytes()
        assert nearest.shifts.tobytes() == shift.astype(nearest.shifts.dtype).tobytes()
        # the first example in tie order, by a stable sort of each row
        D, shifts = kernel.min_dists_block(Q)
        first = _tie_order(D)[:, 0]
        rows = np.arange(len(Q))
        assert nearest.indices.tolist() == first.tolist()
        assert nearest.distances.tobytes() == D[rows, first].tobytes()
        assert nearest.shifts.tolist() == shifts[rows, first].tolist()
        assert nearest.row(7) == (5, 0.0, 0)  # the positive, not its twin at index 24
        assert D[7, 24] == 0.0

    @pytest.mark.parametrize(
        "entry",
        ["min_dists_block", "verdict_and_nearest_block", "MapKernel.classify_block", "log_lambda_many"],
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("gamma", [0.0, 0.125])
    def test_a_non_finite_observation_raises(self, rng, entry, bad, gamma):
        # it used to vote: at gamma = 0 a NaN row came out as label -1 whose
        # nearest example lay at distance NaN, and at gamma > 0 it claimed overflow
        kernel, Q, _ = self.instance(rng, gamma, P=3)
        Q[1, 4] = bad
        run = {
            "min_dists_block": kernel.min_dists_block,
            "verdict_and_nearest_block": kernel.verdict_and_nearest_block,
            "MapKernel.classify_block": self.oracle(rng, gamma=gamma).classify_block,
            "log_lambda_many": kernel.log_lambda_many,
        }[entry]
        with pytest.raises(ParamError, match="observations must be finite"):
            run(Q)

    @pytest.mark.parametrize(
        "entry",
        [
            "ShiftWindows.grid", "ShiftWindows.minimum", "min_dists_block", "gwmv_block",
            "knn_block", "log_lambda_many", "verdict_and_nearest_block",
            "MapKernel.classify_block",
        ],
    )
    @pytest.mark.parametrize("shift_mode", ["min", "sum"])
    def test_an_empty_block_gives_empty_results(self, rng, entry, shift_mode):
        data, _ = random_instance(rng, 4, 3, T=self.T, delta_max=self.DMAX)
        kernel = VotingKernel(data, VotingParams(0.5, self.T, self.DMAX, shift_mode=shift_mode))
        n, S = kernel.n, 2 * self.DMAX + 1
        Q = np.empty((0, self.T))
        outcome = [(0,)] * 4  # labels, log ratios and each class's log votes
        calls = {
            "ShiftWindows.grid": (lambda: kernel._windows.grid(Q), [(0, n, S)]),
            "ShiftWindows.minimum": (lambda: kernel._windows.minimum(Q), [(n, 0)] * 2),
            "min_dists_block": (lambda: kernel.min_dists_block(Q), [(0, n)] * 2),
            "gwmv_block": (lambda: kernel.gwmv_block(np.empty((0, kernel.width))), outcome),
            "knn_block": (lambda: kernel.knn_block(np.empty((0, n)), 3), outcome),
            "log_lambda_many": (lambda: kernel.log_lambda_many(Q), [(0,)]),
            "verdict_and_nearest_block": (
                lambda: kernel.verdict_and_nearest_block(Q, None if shift_mode == "sum" else 3),
                outcome + [(0,)] * 3,
            ),
            "MapKernel.classify_block": (lambda: self.oracle(rng).classify_block(Q), outcome),
        }
        call, shapes = calls[entry]

        def arrays(x):
            return [x] if isinstance(x, np.ndarray) else [a for part in x for a in arrays(part)]

        assert [a.shape for a in arrays(call())] == shapes


class TestLazyWindows:
    """A VotingKernel stacks its shifted windows on first use, so a kernel that
    only votes on given distances never holds them."""

    def test_voting_on_given_distances_stacks_no_windows(self, rng):
        data, s = random_instance(rng, 3, 4, T=6, delta_max=2)
        kernel = VotingKernel(data, VotingParams(0.5, 6, 2))
        D = rng.random((5, kernel.n))
        kernel.gwmv_block(D), kernel.knn_block(D, 3)
        assert "_windows" not in vars(kernel)
        kernel.min_dists(s)
        assert "_windows" in vars(kernel)

    def test_examples_too_short_raise_on_first_use(self, rng):
        data, s = random_instance(rng, 2, 2, T=6, delta_max=1)
        kernel = VotingKernel(data, VotingParams(0.5, 6, 2))  # needs one more step each side
        with pytest.raises(SupportError):
            kernel.min_dists(s)


class TestChunkedOracle:
    """MapKernel.classify_block walks its queries in core.blocks of its width,
    so each chunk's grids hold at most BLOCK_VALUES values, bit for bit."""

    def test_each_chunk_grid_is_bounded(self, rng, monkeypatch):
        T, dmax = 10, 4
        oracle = MapKernel(random_model(rng, 6, T, dmax), VotingParams(0.01, T, dmax))
        Q = rng.standard_normal((23, T))
        want = block_bytes(oracle.classify_block(Q))
        sizes, grid = [], core.ShiftWindows.grid

        def recording(self, q):
            out = grid(self, q)
            sizes.append(len(out))
            return out

        monkeypatch.setattr(core.ShiftWindows, "grid", recording)
        monkeypatch.setattr(core, "BLOCK_VALUES", 3 * oracle.width)
        assert block_bytes(oracle.classify_block(Q)) == want
        assert sizes == [3] * 14 + [2] * 2  # 7 chunks of 3 and one of 2, two classes each


class TestKernelReuse:
    """The library calls keep the last VotingKernel and the last MapKernel they
    built, and reuse it for the same dataset or model object with equal params."""

    T, DMAX = 12, 3

    @pytest.fixture
    def builds(self, monkeypatch):
        counts = {VotingKernel: 0, MapKernel: 0}
        for cls in counts:
            def counting(self, source, params, _cls=cls, _init=cls.__init__):
                counts[_cls] += 1
                _init(self, source, params)

            monkeypatch.setattr(cls, "__init__", counting)
        return counts

    def instance(self, rng):
        data, _ = random_instance(rng, 6, 5, T=self.T, delta_max=self.DMAX)
        model = random_model(rng, 4, self.T, self.DMAX)
        Q = rng.standard_normal((5, self.T))
        return data, model, [TimeSeries(1, q, id=f"q{p}") for p, q in enumerate(Q)]

    @staticmethod
    def calls(s, data, model, params):
        example, dist, shift, label = nearest_neighbor(s, data, params)
        return [
            *outcome_bytes([classify_gwmv(s, data, params), classify_knn(s, data, params, 3),
                            classify_map(s, model, params)]),
            np.float64(lambda_ratio(s, data, params)).tobytes(),
            (example.id, np.float64(dist).tobytes(), shift, label),
        ]

    @staticmethod
    def fresh(s, data, model, params):
        """What calls gives, from kernels built for this query alone."""
        kernel = VotingKernel(data, params)
        idx, dist, shift = kernel.nearest(s)
        return [
            *outcome_bytes([kernel.gwmv(s), kernel.knn(s, 3),
                            MapKernel(model, params).classify(s)]),
            np.float64(kernel.log_lambda(s)).tobytes(),
            (data.examples()[idx].id, np.float64(dist).tobytes(), shift,
             Label.POSITIVE if idx < data.n_pos else Label.NEGATIVE),
        ]

    @pytest.mark.parametrize("shift_mode", ["min", "sum"])
    def test_repeated_calls_build_one_kernel_each(self, rng, builds, shift_mode):
        data, model, queries = self.instance(rng)
        params = VotingParams(0.5, self.T, self.DMAX, shift_mode=shift_mode)
        got = [self.calls(s, data, model, params) for s in queries]
        assert builds == {VotingKernel: 1, MapKernel: 1}
        assert got == [self.fresh(s, data, model, params) for s in queries]

    @pytest.mark.parametrize(
        "change",
        ["another object", "equal copy", "gamma", "theta", "T", "delta_max", "shift_mode"],
    )
    def test_another_source_or_params_builds_anew(self, rng, builds, change):
        data, model, queries = self.instance(rng)
        params = VotingParams(0.5, self.T, self.DMAX)
        other_data, other_model, other_params = data, model, params
        if change == "another object":
            other_data, other_model, _ = self.instance(rng)
        elif change == "equal copy":
            other_data = LabeledDataset(data.positives, data.negatives)
            other_model = dataclasses.replace(model)
            assert (other_data, other_model) == (data, model)
        else:
            value = {"gamma": 0.25, "theta": 2.0, "T": self.T - 2, "delta_max": self.DMAX - 1,
                     "shift_mode": "sum"}[change]
            other_params = dataclasses.replace(params, **{change: value})
        s = queries[0]
        first = self.calls(s, data, model, params)
        assert builds == {VotingKernel: 1, MapKernel: 1}
        second = self.calls(s, other_data, other_model, other_params)
        assert builds == {VotingKernel: 2, MapKernel: 2}
        again = self.calls(s, data, model, params)  # one kept kernel of each kind
        assert builds == {VotingKernel: 3, MapKernel: 3}
        assert first == again == self.fresh(s, data, model, params)
        assert second == self.fresh(s, other_data, other_model, other_params)


class TestKeptMinimum:
    """A VotingKernel keeps the shift minimum of the last series object it
    scored, so the README calls on one series compute it once, in any order."""

    T, DMAX = 12, 3
    CALLS = {
        "gwmv": lambda s, data, p: outcome_bytes([classify_gwmv(s, data, p)]),
        "knn 1": lambda s, data, p: outcome_bytes([classify_knn(s, data, p, 1)]),
        "knn 5": lambda s, data, p: outcome_bytes([classify_knn(s, data, p, 5)]),
        "nearest": lambda s, data, p: nearest_values(nearest_neighbor(s, data, p)),
        "lambda_ratio": lambda s, data, p: np.float64(lambda_ratio(s, data, p)).tobytes(),
    }

    @pytest.fixture
    def minima(self, monkeypatch):
        """The number of ShiftWindows.minimum calls so far, as a list's length."""
        calls = []
        minimum = core.ShiftWindows.minimum

        def counting(self, Q):
            calls.append(len(Q))
            return minimum(self, Q)

        monkeypatch.setattr(core.ShiftWindows, "minimum", counting)
        return calls

    def instance(self, rng):
        data, _ = random_instance(rng, 6, 5, T=self.T, delta_max=self.DMAX)
        Q = rng.standard_normal((3, self.T))
        return data, [TimeSeries(1, q, id=f"q{p}") for p, q in enumerate(Q)]

    def fresh(self, s, data, params, names):
        """Each named call on s from a kernel of its own: an equal copy of the
        dataset builds a new kernel, which has kept no minimum."""
        return [self.CALLS[name](s, LabeledDataset(data.positives, data.negatives), params)
                for name in names]

    @pytest.mark.parametrize("shift_mode", ["min", "sum"])
    @pytest.mark.parametrize(
        "order",
        [["gwmv", "knn 1", "knn 5", "nearest", "lambda_ratio"],
         ["nearest", "knn 5", "lambda_ratio", "knn 1", "gwmv"]],
    )
    def test_the_readme_calls_on_one_series_compute_one_minimum(
        self, rng, minima, shift_mode, order
    ):
        # in sum mode gwmv and lambda_ratio vote on the grid, and knn and
        # nearest share the minimum
        data, queries = self.instance(rng)
        params = VotingParams(0.5, self.T, self.DMAX, shift_mode=shift_mode)
        for s in queries:
            before = len(minima)
            got = [self.CALLS[name](s, data, params) for name in order]
            assert len(minima) == before + 1
            assert got == self.fresh(s, data, params, order)

    def test_another_series_object_recomputes(self, rng, minima):
        data, (s, t, _) = self.instance(rng)
        copy = TimeSeries(s.start_index, s.values, id=s.id)
        assert copy == s
        params = VotingParams(0.5, self.T, self.DMAX)
        sequence = [s, copy, s, t, s, t]
        names = ["knn 5", "nearest", "gwmv"]
        got = [[self.CALLS[name](q, data, params) for name in names] for q in sequence]
        assert len(minima) == len(sequence)
        assert got == [self.fresh(q, data, params, names) for q in sequence]

    def test_the_kept_minimum_is_read_only(self, rng):
        data, (s, _, _) = self.instance(rng)
        params = VotingParams(0.5, self.T, self.DMAX)
        kernel = VotingKernel(data, params)
        dmin, shifts = kernel.min_dists(s)
        for kept in (dmin, shifts):
            with pytest.raises(ValueError):
                kept[0] = 0
        again = kernel.min_dists(s)
        assert again[0] is dmin and again[1] is shifts
        fresh = VotingKernel(data, params).min_dists(s)
        assert (dmin.tobytes(), shifts.tobytes()) == (fresh[0].tobytes(), fresh[1].tobytes())

    def test_threads_sharing_the_kernel_read_their_own_minimum(self, rng):
        # three threads per series score it through the one kept kernel; a slot
        # read or set in two steps could hand a thread another series' minimum
        data, queries = self.instance(rng)
        params = VotingParams(0.5, self.T, self.DMAX)
        names = ["nearest", "knn 5"]
        wrong = []

        def work(s, want):
            for _ in range(500):
                if [self.CALLS[name](s, data, params) for name in names] != want:
                    wrong.append(s.id)
                    return

        threads = [
            threading.Thread(target=work, args=(s, self.fresh(s, data, params, names)))
            for s in queries * 3
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class TestTiledGrid:
    """ShiftWindows.grid walks tiles of queries and series of at most
    core.BLOCK_VALUES differences; every cell is bit for bit the untiled one."""

    n, T, DMAX = 6, 150, 4  # rows longer than numpy's 128-value pairwise blocks

    def block_values(self):
        S = 2 * self.DMAX + 1
        return [1, S * self.T - 1, S * self.T, self.n * S * self.T]

    @pytest.mark.parametrize("P", [0, 1, 7])
    def test_grid_equals_the_untiled_differences(self, rng, monkeypatch, P):
        data, _ = random_instance(rng, 3, self.n - 3, T=self.T, delta_max=self.DMAX, scale=30.0)
        windows = core.ShiftWindows(data.examples(), self.T, -self.DMAX, self.DMAX)
        Q = rng.standard_normal((P, self.T))
        want = sq_dists(windows.views, Q[:, None, None])
        for values in self.block_values():
            monkeypatch.setattr(core, "BLOCK_VALUES", values)
            got = windows.grid(Q)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), values
            for p in range(P):
                assert windows.grid(Q[p]).tobytes() == want[p].tobytes()

    @pytest.mark.parametrize("P", [1, 7])
    def test_grid_holds_one_tile(self, rng, monkeypatch, P):
        # beyond its output, grid allocates one tile of differences and one
        # block of queries repeated S times; a tile allocated per pass would
        # show here as a second tile. Every tile has more than 8192 values
        # (numpy's ufunc buffer), so numpy buffers none of it; 4 kB covers
        # numpy's iterators and the array headers
        n, T, dmax = 6, 300, 15
        data, _ = random_instance(rng, 3, n - 3, T=T, delta_max=dmax)
        windows = core.ShiftWindows(data.examples(), T, -dmax, dmax)
        Q = rng.standard_normal((P, T))
        S = windows.views.shape[1]
        for values in (1, S * T, n * S * T):
            monkeypatch.setattr(core, "BLOCK_VALUES", values)
            queries = min(P, max(1, values // (n * S * T)))
            series = min(n, max(1, values // (S * T)))
            allowed = 8 * (P * n * S + queries * series * S * T + queries * S * T)
            windows.grid(Q)  # warm up
            tracemalloc.start()
            try:
                windows.grid(Q)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= allowed + 4096, (values, peak, allowed)

    @pytest.mark.parametrize("weights", [None, (0.4, 0.1, 0.3, 0.2, 0.0, 0.0)])
    def test_sum_mode_and_oracle_votes_are_unchanged(self, rng, monkeypatch, weights):
        data, _ = random_instance(rng, 3, self.n - 3, T=self.T, delta_max=self.DMAX)
        kernel = VotingKernel(data, VotingParams(0.01, self.T, self.DMAX, shift_mode="sum"))
        oracle = MapKernel(random_model(rng, 6, self.T, self.DMAX, weights),
                           VotingParams(0.01, self.T, self.DMAX))
        Q = rng.standard_normal((7, self.T))

        def untiled(windows):
            return sq_dists(windows.views, Q[:, None, None]).reshape(len(Q), -1)

        wmv = kernel.gwmv_block(untiled(kernel._windows))
        votes = _vote_ratio(0.01, untiled(oracle._pos), untiled(oracle._neg),
                            oracle._logw_pos, oracle._logw_neg)
        for values in self.block_values():
            monkeypatch.setattr(core, "BLOCK_VALUES", values)
            assert block_bytes(kernel.verdict_and_nearest_block(Q)[0]) == block_bytes(wmv)
            assert oracle.classify_block(Q).log_lambda.tobytes() == votes[0].tobytes()


class TestBandedExpansion:
    """ShiftWindows._two_smallest bounds the two smallest exact cells of every
    row and query over shifts: one query from one banded row of GEMMs per
    group of core.SHIFT_GROUP shifts, several from the shift walk. Either way
    minimum is the grid's min and first argmin bit for bit."""

    n, T = 5, 12

    def windows(self, rng, S):
        # an offset makes the norms dwarf the distances, so d~ rounds
        seriess = [
            TimeSeries(1, 1e3 + rng.standard_normal(self.T + S - 1), id=f"r{i}")
            for i in range(self.n)
        ]
        return core.ShiftWindows(seriess, self.T, 0, S - 1)

    @pytest.mark.parametrize("S", [1, 31, 32, 33, 65, 201])
    @pytest.mark.parametrize("P", [0, 1, 3])
    def test_expansion_bounds_the_grid_and_minimum_is_exact(self, rng, S, P):
        windows = self.windows(rng, S)
        Q = 1e3 + rng.standard_normal((P, self.T))
        grid = np.moveaxis(windows.grid(Q), 0, -1)  # (n, S, P)
        assert windows.views.shape[1] == S
        first, second, shift = windows._two_smallest(Q)
        eps = windows.slack(Q)
        assert first.shape == second.shape == shift.shape == eps.shape == (self.n, P)
        # |q|^2 moves d~ to the distance; each order statistic of d~ + |q|^2 is
        # within 2 eps of the grid's, since every cell is
        ordered = np.sort(grid, axis=1)
        q_sq = np.einsum("ij,ij->i", Q, Q)
        assert np.all(np.abs(first + q_sq - ordered[:, 0]) <= 2.0 * eps)
        if S > 1:
            assert np.all(np.abs(second + q_sq - ordered[:, 1]) <= 2.0 * eps)
        else:
            assert np.all(second == np.inf)
        at_shift = np.take_along_axis(grid, shift[:, None], axis=1)[:, 0]
        assert np.all(np.abs(at_shift - ordered[:, 0]) <= 4.0 * eps)
        dmin, j = windows.minimum(Q)
        assert dmin.tobytes() == grid.min(axis=1).tobytes()
        assert j.tobytes() == grid.argmin(axis=1).tobytes()


class TestExpansionMinimum:
    """ShiftWindows.expansion_minimum, the unverified minimum over shifts that
    min-mode log_lambda_many votes on, lies within 2 eps of the exact minimum
    and holds two (n, P) arrays, not an (n, S, P) array of every shift."""

    n, T = 5, 12

    def windows(self, rng, S):
        # an offset makes the norms dwarf the distances, so d~ rounds
        seriess = [
            TimeSeries(1, 1e3 + rng.standard_normal(self.T + S - 1), id=f"r{i}")
            for i in range(self.n)
        ]
        return core.ShiftWindows(seriess, self.T, 0, S - 1)

    @pytest.mark.parametrize("S", [1, 15, 33, 65])
    @pytest.mark.parametrize("P", [0, 1, 4])
    def test_within_twice_eps_of_the_exact_minimum(self, rng, S, P):
        windows = self.windows(rng, S)
        Q = 1e3 + rng.standard_normal((P, self.T))
        Q[-1:] = windows.views[0, S // 2]  # distance 0 at one cell of row 0
        got = windows.expansion_minimum(Q)
        exact = windows.minimum(Q)[0]
        eps = windows.slack(Q)
        assert got.shape == (self.n, P) and got.dtype == np.float64
        assert np.all(got >= 0.0)
        assert np.all(np.abs(got - exact) <= 2.0 * eps)

    @pytest.mark.parametrize("S", [1, 33])
    def test_dyadic_values_give_the_exact_minimum(self, rng, S):
        # every product and sum of small dyadic values is exact on both paths
        windows = core.ShiftWindows(
            [TimeSeries(1, dyadic_values(rng, (self.T + S - 1,)), id=f"r{i}") for i in range(4)],
            self.T, 0, S - 1,
        )
        Q = dyadic_values(rng, (3, self.T))
        assert windows.expansion_minimum(Q).tobytes() == windows.minimum(Q)[0].tobytes()

    def test_overflowing_norms_take_the_exact_minimum(self):
        # |w|^2 = 8e310 overflows, so d~ would be inf - inf
        seriess = [TimeSeries(1, np.full(10, v), id=f"r{v}") for v in (1.0e155, 1.04e155)]
        windows = core.ShiftWindows(seriess, 8, 0, 2)
        Q = np.stack([np.full(8, 1.001e155), np.linspace(0.0, 1.0e155, 8)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = windows.expansion_minimum(Q)
        assert windows.slack(Q) is None
        assert got.flags.c_contiguous
        assert got.tobytes() == windows.minimum(Q)[0].tobytes()

    def test_no_call_of_many_queries_allocates_every_shift(self, rng):
        # S > SHIFT_GROUP. The positive control, the (P, n, S) grid, shows
        # that tracemalloc sees an array of every (series, shift, query); the
        # traces of both modes and the exact minimum stay far below it, and a
        # sum-mode trace holds one block's grid, its tile and one vote
        # temporary, each of at most BLOCK_VALUES values
        T, dmax, P = 8, 20, 1000
        data, _ = random_instance(rng, 10, 10, T=T, delta_max=dmax)
        S = 2 * dmax + 1
        assert S > core.SHIFT_GROUP
        every_shift = data.n * S * P * 8
        obs = rng.standard_normal((P, T))

        def peak(call):
            call()  # warm up: stacks the windows, computes their norms
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peaks = {}
        for mode in ("min", "sum"):
            kernel = VotingKernel(data, VotingParams(0.5, T, dmax, shift_mode=mode))
            peaks[mode] = peak(lambda: kernel.log_lambda_many(obs))
        peaks["minimum"] = peak(lambda: kernel.min_dists_block(obs))
        assert peak(lambda: kernel._windows.grid(obs)) >= every_shift  # the positive control
        assert max(peaks.values()) < every_shift / 4, peaks
        assert peaks["sum"] <= 8 * (3 * core.BLOCK_VALUES + P) + 8192, peaks

    def test_many_queries_beyond_a_group_of_shifts(self, rng, monkeypatch):
        # S > SHIFT_GROUP, and P spans several of minimum's blocks of queries
        S, P = 2 * core.SHIFT_GROUP + 1, 40
        monkeypatch.setattr(core, "BLOCK_VALUES", 5 * self.n * 13)
        windows = self.windows(rng, S)
        Q = 1e3 + rng.standard_normal((P, self.T))
        Q[::7] = windows.views[np.arange(P)[::7] % self.n, np.arange(P)[::7] % S]
        calls, two_smallest = [], core.ShiftWindows._two_smallest

        def recording(self, q):
            calls.append(len(q))
            return two_smallest(self, q)

        monkeypatch.setattr(core.ShiftWindows, "_two_smallest", recording)
        got, exact = windows.expansion_minimum(Q), windows.minimum(Q)[0]
        assert len(calls) >= 3 and sum(calls) == P
        assert np.all(got >= 0.0)
        assert np.all(np.abs(got - exact) <= 2.0 * windows.slack(Q))

    def test_blocked_traces_hold_one_block(self, rng):
        # ten blocks of rows: the peak is the output, one block's query norms,
        # placements and (n, p) arrays, and the (n, L + 1) copy of the rows
        T, dmax = 8, 20
        data, _ = random_instance(rng, 10, 10, T=T, delta_max=dmax)
        n, L = data.n, T + 2 * dmax
        p = core.BLOCK_VALUES // (2 * n)
        obs = rng.standard_normal((10 * p, T))
        kernel = VotingKernel(data, VotingParams(0.5, T, dmax))
        kernel.log_lambda_many(obs[:1])  # warm up: stacks the windows, computes their norms
        tracemalloc.start()
        try:
            kernel.log_lambda_many(obs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = len(obs) + p + 2 * n * p + (T + 1) * p + n * (L + 1)
        assert peak <= 8 * held + 8192, (peak, 8 * held)


class TestBounds:
    """ShiftWindows.minimum_bound and grid_bound, the unverified GEMM forms
    that the error curves certify labels from: every exact minimum and cell
    lies within the radius 2 eps of its bound, for blocks of one query (a
    banded row) and of several (the shift walk), and an overflowing norm
    gives an infinite radius instead of a warning."""

    n, T = 5, 12

    def windows(self, rng, S):
        # an offset makes the norms dwarf the distances, so d~ rounds
        seriess = [
            TimeSeries(1, 1e3 + rng.standard_normal(self.T + S - 1), id=f"r{i}")
            for i in range(self.n)
        ]
        return core.ShiftWindows(seriess, self.T, 0, S - 1)

    @pytest.mark.parametrize("S", [1, 15, 33, 65])
    @pytest.mark.parametrize("P", [0, 1, 4])
    @pytest.mark.parametrize("values", [5 * n, core.BLOCK_VALUES])  # one query per block, or all
    def test_the_exact_values_lie_within_the_radius(self, rng, monkeypatch, S, P, values):
        monkeypatch.setattr(core, "BLOCK_VALUES", values)
        windows = self.windows(rng, S)
        Q = 1e3 + rng.standard_normal((P, self.T))
        Q[-1:] = windows.views[0, S // 2]  # distance 0 at one cell of row 0
        low, radius = windows.minimum_bound(Q)
        cells, cell_radius = windows.grid_bound(Q)
        assert low.shape == radius.shape == cell_radius.shape == (self.n, P)
        assert cells.shape == (P, self.n, S)
        assert np.all(low >= 0.0) and np.all(cells >= 0.0)
        assert radius.tobytes() == cell_radius.tobytes() == (2.0 * windows.slack(Q)).tobytes()
        assert np.all(np.abs(low - windows.minimum(Q)[0]) <= radius)
        assert np.all(np.abs(cells - windows.grid(Q)) <= radius.T[:, :, None])

    def test_overflowing_norms_give_an_infinite_radius(self):
        # |w|^2 = 8e310 overflows, so d~ would be inf - inf
        seriess = [TimeSeries(1, np.full(10, v), id=f"r{v}") for v in (1.0e155, 1.04e155)]
        windows = core.ShiftWindows(seriess, 8, 0, 2)
        Q = np.stack([np.full(8, 1.001e155), np.linspace(0.0, 1.0e155, 8)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for low, radius in (windows.minimum_bound(Q), windows.grid_bound(Q)):
                assert np.all(radius == np.inf) and np.all(low == 0.0)


class TestOneCandidatePerGroup:
    """ShiftWindows.minimum computes one cell per series and query, at the
    smallest bound's shift, and every shift of a pair whose two smallest
    bounds lie within 2 eps; either way it is the grid's min and first
    argmin, bit for bit."""

    T, dmax = 8, 3

    def series(self, rng, tied):
        # an offset makes the norms dwarf the distances, so d~ rounds; a
        # constant series ties at every shift and a duplicated one ties the
        # first series everywhere
        L = self.T + 2 * self.dmax
        values = [1e3 + rng.standard_normal(L) for _ in range(5)]
        if tied:
            values[1:3] = [np.full(L, 1e3), values[0]]
        return [TimeSeries(1 - self.dmax, v, id=f"r{i}") for i, v in enumerate(values)]

    def windows(self, rng, tied):
        return core.ShiftWindows(self.series(rng, tied), self.T, -self.dmax, self.dmax)

    def verified(self, monkeypatch):
        """The number of cells sq_dists computes from now on, as a list's sum."""
        cells, direct = [], core.sq_dists

        def counting(a, b, out=None):
            cells.append(math.prod(np.broadcast_shapes(a.shape, b.shape)[:-1]))
            return direct(a, b, out=out)

        monkeypatch.setattr(core, "sq_dists", counting)
        return cells

    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("P", [1, 4])
    def test_minimum_over_shifts_is_the_grids(self, rng, monkeypatch, tied, P):
        windows = self.windows(rng, tied)
        Q = 1e3 + rng.standard_normal((P, self.T))
        Q[-1] = windows.views[0, 2]  # distance 0 at one cell of row 0 (and its duplicate)
        grid = np.moveaxis(windows.grid(Q), 0, -1)  # (n, S, P)
        verified = self.verified(monkeypatch)
        dmin, j = windows.minimum(Q)
        assert dmin.tobytes() == grid.min(axis=1).tobytes()
        assert j.tobytes() == grid.argmin(axis=1).tobytes()
        n, S = windows.views.shape[:2]
        # one cell per row and query, and every shift of the constant row,
        # which ties at all of them
        assert sum(verified) == (n * P + S * P if tied else n * P)

    @pytest.mark.parametrize("tied", [False, True])
    def test_the_class_gap_verifies_only_candidate_windows(self, rng, monkeypatch, tied):
        # the negatives are these series; one positive window equals series 0
        # at shift 2 (and its duplicate), so the gap is 0, and no other pair
        # comes near it
        negatives = self.series(rng, tied)
        L = self.T + 2 * self.dmax
        values = [1e3 + rng.standard_normal(L) for _ in range(3)]
        values[1][1 : 1 + self.T] = negatives[0].values[2 : 2 + self.T]
        positives = [TimeSeries(1 - self.dmax, v, id=f"p{i}") for i, v in enumerate(values)]
        data = LabeledDataset(tuple(positives), tuple(negatives))
        want = gap(data, self.T, self.dmax, cutoff=False)
        calls, minimum = [], core.ShiftWindows.minimum

        def recording(self, Q):
            calls.append((Q.copy(), *minimum(self, Q)))
            return calls[-1][1:]

        monkeypatch.setattr(core.ShiftWindows, "minimum", recording)
        verified = self.verified(monkeypatch)
        got = gap(data, self.T, self.dmax)
        assert got == 0.0 and np.float64(got).tobytes() == np.float64(want).tobytes()
        [(Q, dmin, j)] = calls  # one block, whose one candidate is the shared window
        assert Q.tobytes() == negatives[0].values[None, 2 : 2 + self.T].tobytes()
        n, S = len(negatives), 2 * self.dmax + 1
        if tied:  # the duplicate ties series 0; the constant series ties at every shift
            assert dmin[[0, 2], 0].tolist() == [0.0, 0.0] and j[[0, 1, 2], 0].tolist() == [2, 0, 2]
        assert sum(verified) == (n + S if tied else n)

    @pytest.mark.parametrize("values", [1, 64, 2**30])
    @pytest.mark.parametrize("P", [1, 2, 9])
    def test_every_block_size_gives_the_grids_minimum(self, rng, monkeypatch, values, P):
        # tied data: the constant series ties at every shift, the duplicated one
        # the first series. 1 makes every block one query (a banded row), 64
        # makes blocks of three queries (the walk), and 2**30 one block of all
        # P; queries at distance 0 from series 0 and from the constant series
        windows = self.windows(rng, tied=True)
        Q = 1e3 + rng.standard_normal((P, self.T))
        Q[::2] = windows.views[0, 2]
        Q[1::3] = 1e3
        grid = np.moveaxis(windows.grid(Q), 0, -1)  # (n, S, P)
        monkeypatch.setattr(core, "BLOCK_VALUES", values)
        dmin, j = windows.minimum(Q)
        assert dmin.tobytes() == grid.min(axis=1).tobytes()
        assert j.tobytes() == grid.argmin(axis=1).tobytes()

    @pytest.mark.parametrize("values", [1, 64, core.BLOCK_VALUES])
    def test_an_empty_block_gives_empty_minima(self, rng, monkeypatch, values):
        monkeypatch.setattr(core, "BLOCK_VALUES", values)
        windows = self.windows(rng, tied=False)
        dmin, j = windows.minimum(np.empty((0, self.T)))
        assert dmin.shape == j.shape == (5, 0)
        assert dmin.dtype == np.float64 and j.dtype == np.intp

    def test_a_multi_block_call_holds_one_blocks_work_arrays(self, rng):
        # five blocks of p queries whose five (n, p) arrays of the walk fill
        # BLOCK_VALUES: the peak is the results and about one block's arrays
        n, T, dmax = 200, 10, 15
        data, _ = random_instance(rng, 100, 100, T=T, delta_max=dmax)
        windows = core.ShiftWindows(data.examples(), T, -dmax, dmax)
        S, L = windows.views.shape[1], windows.rows.shape[1]
        p = core.BLOCK_VALUES // (5 * n)
        Q = rng.standard_normal((5 * p, T))
        calls, two_smallest = [], core.ShiftWindows._two_smallest

        def recording(self, q):
            calls.append(len(q))
            return two_smallest(self, q)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core.ShiftWindows, "_two_smallest", recording)
            want = windows.minimum(Q)
        assert calls == [p] * 5
        tracemalloc.start()
        try:
            got = windows.minimum(Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        grid = np.moveaxis(windows.grid(Q), 0, -1)
        assert got[0].tobytes() == grid.min(axis=1).tobytes()
        assert got[1].tobytes() == grid.argmin(axis=1).tobytes()
        allowed = 8 * (
            2 * n * len(Q)  # the results
            # (n, p) arrays: one block's walk, slack and verify; the block
            # before it drops its bounds, shifts and slack once it is verified
            + 9 * n * p
            + n * (L + 1) + (T + 1) * p  # the walk's copy of the rows, its placements
        ) + 4096  # the masks, headers
        assert peak <= allowed, (peak, allowed)


class TestShiftInvariance:
    """Advancing every training series, source and query by k is the same as
    observing the originals k steps later: every output equals that of series
    that hold only those later windows, surrounded by unrelated values."""

    @settings(max_examples=150, deadline=None)
    @given(
        n_pos=st.integers(1, 3),
        n_neg=st.integers(1, 3),
        T=st.integers(1, 8),
        delta_max=st.integers(0, 3),
        k=st.integers(-4, 4),
        shift_mode=st.sampled_from(["min", "sum"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_advancing_every_series_changes_nothing(
        self, n_pos, n_neg, T, delta_max, k, shift_mode, seed
    ):
        rng = np.random.default_rng(seed)
        K = 4  # every series reaches K steps beyond what any k observes

        def wide(first, last, id):
            return TimeSeries(first - K, rng.standard_normal(last - first + 1 + 2 * K), id=id)

        def later(ts, first, last):
            # ts on [first + k, last + k], moved to [first, last] between fresh values
            pad = int(rng.integers(0, 3))
            vals = np.concatenate(
                (rng.standard_normal(pad), ts.window(first + k, last + k), rng.standard_normal(2))
            )
            return TimeSeries(first - pad, vals, id=ts.id)

        lo, hi = 1 - delta_max, T + delta_max
        pos = [wide(lo, hi, f"p{i}") for i in range(n_pos)]
        neg = [wide(lo, hi, f"n{i}") for i in range(n_neg)]
        labels = (Label.POSITIVE, Label.NEGATIVE)
        sources = [(wide(1, hi, f"v{i}"), lab) for i, lab in enumerate(labels)]
        s = wide(1, T, "s")

        def model(srcs):
            return LatentSourceModel(
                sources=tuple(srcs), delta_max=delta_max, noise=NoiseSpec("gaussian", 1.0),
                window_start=1, window_length=T,
            )

        advanced = (
            LabeledDataset(tuple(advance(r, k) for r in pos), tuple(advance(r, k) for r in neg)),
            model((advance(v, k), lab) for v, lab in sources),
            advance(s, k),
        )
        observed_later = (
            LabeledDataset(
                tuple(later(r, lo, hi) for r in pos), tuple(later(r, lo, hi) for r in neg)
            ),
            model((later(v, 1, hi), lab) for v, lab in sources),
            later(s, 1, T),
        )
        params = VotingParams(gamma=0.5, T=T, delta_max=delta_max, shift_mode=shift_mode)

        def outputs(data, m, q):
            kernel = VotingKernel(data, params)
            return (
                kernel.gwmv(q),
                kernel.knn(q, 1),
                kernel.knn(q, data.n),
                kernel.nearest(q),
                kernel.verdict_and_nearest(q),
                kernel.min_dists(q)[0].tobytes(),
                kernel.min_dists(q)[1].tolist(),
                kernel.shift_sq_dists(q).tobytes(),
                MapKernel(m, params).classify(q),
            )

        assert outputs(*advanced) == outputs(*observed_later)
