import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsvote.core as core
from conftest import dyadic_values
from tsvote import (
    BoundInputs,
    GeneratorConfig,
    Label,
    LabeledDataset,
    LatentSourceModel,
    NoiseSpec,
    ParamError,
    SupportError,
    TimeSeries,
    gap,
    gap_star,
    gaussian_conditions,
    is_vacuous,
    make_latent_sources,
    nn_bound,
    required_gap,
    wmv_bound,
)
from tsvote import dataio
from tsvote.cli import main
from tsvote.gapbounds import failure_probability

DESK_CFG = Path(__file__).resolve().parents[1] / "configs" / "desk.cfg"


def brute_gap(data, T, delta_max):
    best = None
    for rp in data.positives:
        for rn in data.negatives:
            for dp in range(-delta_max, delta_max + 1):
                for dn in range(-delta_max, delta_max + 1):
                    total = 0.0
                    for t in range(1, T + 1):
                        total += (rp.value_at(t + dp) - rn.value_at(t + dn)) ** 2
                    if best is None or total < best:
                        best = total
    return best


def random_gap_instance(rng, n_pos, n_neg, T, delta_max):
    length = T + 2 * delta_max

    def make(tag, i):
        return TimeSeries(1 - delta_max, dyadic_values(rng, length), id=f"{tag}{i}")

    return LabeledDataset(
        tuple(make("p", i) for i in range(n_pos)),
        tuple(make("n", i) for i in range(n_neg)),
    )


class TestGap:
    def test_two_singletons(self):
        data = LabeledDataset(
            (TimeSeries(1, [0.0, 0.0], id="p"),), (TimeSeries(1, [1.0, 1.0], id="n"),)
        )
        assert gap(data, 2, 0) == 2.0

    def test_constant_series_any_shift(self):
        data = LabeledDataset(
            (TimeSeries(-10, np.zeros(30), id="p"),), (TimeSeries(-10, np.ones(30), id="n"),)
        )
        for dmax in (0, 1, 4):
            assert gap(data, 2, dmax) == 2.0

    def test_matches_bruteforce(self, rng):
        for _ in range(50):
            data = random_gap_instance(rng, 3, 3, T=6, delta_max=2)
            want = brute_gap(data, 6, 2)
            for cutoff in (True, False):  # the pruned path and its reference
                assert gap(data, 6, 2, cutoff=cutoff) == want

    def test_cutoff_is_bit_identical(self, rng):
        for _ in range(30):
            data = random_gap_instance(rng, 4, 3, T=5, delta_max=2)
            assert gap(data, 5, 2, cutoff=True) == gap(data, 5, 2, cutoff=False)

    @settings(max_examples=300, deadline=None)
    @given(
        n_pos=st.integers(1, 4),
        n_neg=st.integers(1, 4),
        T=st.integers(1, 12),
        delta_max=st.integers(0, 3),
        # subnormal squares, ordinary values, and norms that overflow float64
        scale_exp=st.one_of(st.integers(-170, -145), st.integers(-145, 140), st.integers(140, 160)),
        offset=st.sampled_from([0.0, 1e3, -1e8, 1e12]),
        duplicate=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cutoff_is_exact_on_any_scale(
        self, n_pos, n_neg, T, delta_max, scale_exp, offset, duplicate, seed
    ):
        # non-dyadic values, so both paths round; offsets make norms dwarf the
        # distances, and a window shared by the classes makes the gap 0
        rng = np.random.default_rng(seed)
        scale = 1.37 * 10.0**scale_exp
        length = T + 2 * delta_max

        def make(tag, i):
            vals = scale * (offset + rng.standard_normal(length))
            return TimeSeries(1 - delta_max, vals, id=f"{tag}{i}")

        pos = [make("p", i) for i in range(n_pos)]
        neg = [make("n", i) for i in range(n_neg)]
        if duplicate:
            neg[0] = TimeSeries(1 - delta_max, pos[0].values, id="dup")
        data = LabeledDataset(tuple(pos), tuple(neg))
        outcomes = []
        for cutoff in (True, False):
            try:
                outcomes.append(gap(data, T, delta_max, cutoff=cutoff))
            except ParamError as exc:  # the gap itself overflows
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        if duplicate:
            assert outcomes[0] == 0.0

    def test_subnormal_distances_survive_the_bound(self):
        # squares below tiny round by an absolute amount no relative slack covers
        data = LabeledDataset(
            (TimeSeries(1, np.array([2.9]) * 1e-161, id="p"),),
            (
                TimeSeries(1, np.array([2.6]) * 1e-161, id="n1"),
                TimeSeries(1, np.array([2.7]) * 1e-161, id="n2"),
            ),
        )
        assert gap(data, 1, 0) == gap(data, 1, 0, cutoff=False) == 5e-324

    def test_overflowing_norms_fall_back_to_unpruned(self, rng):
        # |a|^2 overflows, so the bound would be NaN; the gap (about 1e302) does not
        length = 8 + 2 * 2
        data = LabeledDataset(
            tuple(
                TimeSeries(-1, 1e160 + 1e150 * rng.standard_normal(length), id=f"p{i}")
                for i in range(3)
            ),
            tuple(
                TimeSeries(-1, 1e160 + 1e150 * rng.standard_normal(length), id=f"n{i}")
                for i in range(2)
            ),
        )
        got = gap(data, 8, 2)
        assert math.isfinite(got) and got > 1e300
        assert got == gap(data, 8, 2, cutoff=False)

    @pytest.mark.parametrize("cutoff", [True, False])
    def test_overflowing_gap_is_an_error(self, cutoff):
        # with no RuntimeWarning: the suite turns them into errors
        for big in (1e160, 1e200):
            data = LabeledDataset(
                (TimeSeries(1, [big, 0.0], id="p"),), (TimeSeries(1, [-big, 0.0], id="n"),)
            )
            with pytest.raises(ParamError, match="overflows"):
                gap(data, 2, 0, cutoff=cutoff)

    def test_overflowing_norms_make_every_window_a_candidate(self, monkeypatch):
        # the squared norms are finite but their sum is not, so the slack is inf
        # and every positive window is verified; the first is at distance 4
        data = LabeledDataset(
            (TimeSeries(0, [0.0, 0.0, 1.1e154, 0.0], id="p"),),
            (TimeSeries(0, [2.0, 0.0, 1e154, 1.0], id="n"),),
        )
        verified, minimum = [], core.ShiftWindows.minimum

        def recording(self, Q):
            verified.append(len(Q))
            return minimum(self, Q)

        monkeypatch.setattr(core.ShiftWindows, "minimum", recording)
        assert gap(data, 2, 1) == gap(data, 2, 1, cutoff=False) == 4.0
        assert verified == [3]

    def test_blocks_of_windows_keep_the_closest_pair(self, rng, monkeypatch):
        # blocks of 3 of the 15 positive windows: the closest pair (1/16 apart)
        # holds the last window, and a window of the first block ties it
        T, dmax = 6, 2
        negatives = random_gap_instance(rng, 1, 4, T=T, delta_max=dmax).negatives
        first, middle, last = (dyadic_values(rng, T + 2 * dmax) for _ in range(3))
        first[:T] = negatives[0].values[:T] - np.eye(T)[-1] / 4
        last[-T:] = negatives[3].values[1 : 1 + T] + np.eye(T)[0] / 4
        data = LabeledDataset(
            tuple(TimeSeries(1 - dmax, v, id=f"p{i}") for i, v in enumerate((first, middle, last))),
            negatives,
        )
        assert brute_gap(data, T, dmax) == 1 / 16
        monkeypatch.setattr(core, "BLOCK_VALUES", 3 * 2 * data.n_neg)
        lowest, minimum = [], core.ShiftWindows.minimum

        def recording(self, Q):
            dmin, j = minimum(self, Q)
            lowest.append(dmin.min())
            return dmin, j

        monkeypatch.setattr(core.ShiftWindows, "minimum", recording)
        assert gap(data, T, dmax) == gap(data, T, dmax, cutoff=False) == 1 / 16
        # each block verifies its own candidates: the first and last hold the pairs
        assert len(lowest) == 5 and lowest[0] == lowest[-1] == 1 / 16 < min(lowest[1:-1])

    def test_zero_shift_equals_min_pairwise(self, rng):
        from tsvote import window_sq_dist

        data = random_gap_instance(rng, 3, 4, T=6, delta_max=0)
        pairwise = min(
            window_sq_dist(rp, rn, 0, 6) for rp in data.positives for rn in data.negatives
        )
        assert gap(data, 6, 0) == pairwise

    def test_monotonicity(self, rng):
        data = random_gap_instance(rng, 3, 3, T=10, delta_max=3)
        by_dmax = [gap(data, 4, d) for d in range(4)]
        assert all(a >= b for a, b in zip(by_dmax, by_dmax[1:]))
        by_T = [gap(data, T, 3) for T in range(1, 5)]
        assert all(a <= b for a, b in zip(by_T, by_T[1:]))

    def test_needs_both_classes(self):
        data = LabeledDataset((TimeSeries(1, [0.0, 1.0], id="p"),), ())
        with pytest.raises(ParamError):
            gap(data, 2, 0)

    @pytest.mark.parametrize(
        "T, delta_max, field",
        [(2.7, 1, "T"), (2, 0.5, "delta_max"), (0, 1, "T"), (2, -1, "delta_max")],
    )
    def test_rejects_bad_sizes(self, T, delta_max, field):
        data = LabeledDataset(
            (TimeSeries(-1, [0.0] * 6, id="p"),), (TimeSeries(-1, [1.0] * 6, id="n"),)
        )
        with pytest.raises(ParamError, match=field):
            gap(data, T, delta_max)

    def test_support_error(self):
        data = LabeledDataset(
            (TimeSeries(1, [0.0, 0.0], id="p"),), (TimeSeries(1, [1.0, 1.0], id="n"),)
        )
        with pytest.raises(SupportError):
            gap(data, 2, 1)


@pytest.fixture(scope="module")
def desk_train(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk")
    assert main(["generate", "--config", str(DESK_CFG), "--seed", "1", "--out", str(out)]) == 0
    return out / "train.jsonl"


class TestGapAtDeskScale:
    """A desk train set: about 185 series, 21 shifts, T = 100."""

    def test_pruned_equals_unpruned(self, desk_train):
        data = dataio.read_dataset(desk_train)
        assert gap(data, 100, 10) == gap(data, 100, 10, cutoff=False)

    def test_cli_gap_verifies_few_pairs(self, desk_train, tmp_path, monkeypatch):
        # a silent fallback to the unpruned path would pass every exactness test
        verified = []
        direct = core.sq_dists

        def counting(a, b, out=None):
            verified.append(math.prod(np.broadcast_shapes(a.shape, b.shape)[:-1]))
            return direct(a, b, out=out)

        monkeypatch.setattr(core, "sq_dists", counting)
        argv = ["gap", "--train", str(desk_train), "--T", "100", "--delta-max", "10"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "gap.json").read_text())
        pairs = (doc["n_pos"] * 21) * (doc["n_neg"] * 21)
        assert 0 < sum(verified) < 0.01 * pairs


class TestGapStar:
    def make_model(self, series):
        sources = tuple(
            (TimeSeries(1, vals, id=f"v{i}"), Label.POSITIVE if i % 2 == 0 else Label.NEGATIVE)
            for i, vals in enumerate(series)
        )
        return LatentSourceModel(
            sources=sources,
            delta_max=0,
            noise=NoiseSpec("gaussian", 1.0),
            window_start=1,
            window_length=len(series[0]),
        )

    def test_identical_sources(self):
        model = self.make_model([[1.0, 2.0], [1.0, 2.0]])
        assert gap_star(model, 2) == 0.0

    def test_three_four_five(self):
        model = self.make_model([[0.0, 0.0], [3.0, 4.0]])
        assert gap_star(model, 2) == 25.0

    def test_matches_bruteforce(self, rng):
        series = [dyadic_values(rng, 6) for _ in range(5)]
        model = self.make_model(series)
        for T in (1, 3, 6):
            expected = min(
                sum((a[t] - b[t]) ** 2 for t in range(T))
                for i, a in enumerate(series)
                for b in series[i + 1 :]
            )
            assert gap_star(model, T) == expected

    def test_ignores_labels(self):
        # the closest pair shares a label; the separation still counts it
        model = self.make_model([[0.0, 0.0], [9.0, 9.0], [0.1, 0.0]])
        assert gap_star(model, 2) == pytest.approx(0.1**2)

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_is_the_pairwise_loop_bit_for_bit(self, rng, scale):
        # the engine's grid sums each pair's squares in the order sq_dists does
        for _ in range(20):
            m, T = int(rng.integers(2, 9)), int(rng.integers(1, 40))
            model = self.make_model([scale * rng.standard_normal(T) for _ in range(m)])
            W = core.stacked_windows([src for src, _ in model.sources], 1, T)
            expected = min(float(core.sq_dists(W[i + 1 :], W[i]).min()) for i in range(m - 1))
            assert gap_star(model, T) == expected

    @pytest.mark.parametrize("level", [1e200, -1e200])
    def test_an_overflowing_separation_is_refused(self, level):
        # the pairwise loop returned inf for sources at +-1e200
        model = self.make_model([[0.0, 0.0], [level, level]])
        with pytest.raises(ParamError, match="overflows float64"):
            gap_star(model, 2)


WORKED = dict(
    m=4, m_plus=2, m_minus=2, n=10, beta=2.0, sigma=1.0, gamma=0.125, theta=1.0, delta_max=0,
    gap=32.0,
)


class TestBounds:
    def test_worked_value(self):
        expected = 10.0 * math.exp(-2.0) + 0.25  # rate 1/16, gap 32
        got = wmv_bound(BoundInputs(**WORKED))
        assert got == pytest.approx(expected, rel=1e-12)
        assert nn_bound(BoundInputs(**WORKED)) == pytest.approx(expected, rel=1e-12)

    def test_gamma_zero_drops_exponential(self):
        inputs = BoundInputs(**{**WORKED, "gamma": 0.0, "delta_max": 2, "gap": 123.0})
        expected = 1.0 * 5 * 10 + 0.25
        assert wmv_bound(inputs) == pytest.approx(expected, rel=1e-12)

    def test_nn_extremes(self):
        zero_gap = BoundInputs(**{**WORKED, "gap": 0.0})
        assert nn_bound(zero_gap) == pytest.approx(10.0 + 0.25, rel=1e-12)
        far = BoundInputs(**{**WORKED, "gap": 1e9})
        assert nn_bound(far) == pytest.approx(0.25, rel=1e-12)

    def test_identity_with_matched_gamma(self, rng):
        # theta = 1 and gamma = 1/(8 sigma^2): the two bounds coincide exactly.
        # Powers of two for sigma keep every intermediate representable, so the
        # equality is bitwise, not approximate.
        for _ in range(2000):
            sigma = float(rng.choice([0.25, 0.5, 1.0, 2.0, 4.0, 8.0]))
            m = int(rng.integers(2, 500))
            m_plus = int(rng.integers(1, m))
            inputs = BoundInputs(
                m=m,
                m_plus=m_plus,
                m_minus=m - m_plus,
                n=int(rng.integers(1, 10_000)),
                beta=float(rng.uniform(1.01, 6.0)),
                sigma=sigma,
                gamma=1.0 / (8.0 * sigma * sigma),
                theta=1.0,
                delta_max=int(rng.integers(0, 200)),
                gap=float(rng.uniform(0.0, 5000.0)),
            )
            assert wmv_bound(inputs) == nn_bound(inputs)

    def test_identity_close_for_arbitrary_sigma(self, rng):
        for _ in range(500):
            sigma = float(rng.uniform(0.2, 4.0))
            m = int(rng.integers(2, 100))
            mp = int(rng.integers(1, m))
            inputs = BoundInputs(
                m=m,
                m_plus=mp,
                m_minus=m - mp,
                n=int(rng.integers(1, 1000)),
                beta=2.0,
                sigma=sigma,
                gamma=1.0 / (8.0 * sigma * sigma),
                theta=1.0,
                delta_max=3,
                gap=float(rng.uniform(0.0, 500.0)),
            )
            assert wmv_bound(inputs) == pytest.approx(nn_bound(inputs), rel=1e-10)

    def test_monotone_in_gap_n_delta(self):
        base = BoundInputs(**WORKED)
        wider = BoundInputs(**{**WORKED, "gap": 64.0})
        assert wmv_bound(wider) < wmv_bound(base)
        assert nn_bound(wider) < nn_bound(base)
        more_data = BoundInputs(**{**WORKED, "n": 20})
        assert wmv_bound(more_data) > wmv_bound(base)
        more_shift = BoundInputs(**{**WORKED, "delta_max": 1})
        assert nn_bound(more_shift) > nn_bound(base)

    def test_vacuous_flag(self):
        assert is_vacuous(1.0) and is_vacuous(7.3)
        assert not is_vacuous(0.999)

    def test_input_validation(self):
        with pytest.raises(ParamError):
            BoundInputs(**{**WORKED, "m_plus": 3})  # 3 + 2 != 4
        with pytest.raises(ParamError):
            BoundInputs(**{**WORKED, "beta": 1.0})
        with pytest.raises(ParamError):
            BoundInputs(**{**WORKED, "gap": -1.0})

    @pytest.mark.parametrize(
        "field, value",
        [("m", 4.5), ("m", 0), ("m_minus", 2.5), ("m_plus", -1), ("n", 10.2), ("delta_max", 0.5),
         ("n", True), ("delta_max", False)],
    )
    def test_sizes_must_be_integers(self, field, value):
        # a non-integral count or shift used to be accepted
        with pytest.raises(ParamError, match=f"^{field} must be"):
            BoundInputs(**{**WORKED, field: value})

    def test_integral_float_sizes_become_ints(self):
        inputs = BoundInputs(**{**WORKED, "m": 4.0, "m_plus": 2.0, "n": 10.0, "delta_max": 1.0})
        sizes = (inputs.m, inputs.m_plus, inputs.m_minus, inputs.n, inputs.delta_max)
        assert sizes == (4, 2, 2, 10, 1) and all(type(x) is int for x in sizes)

    @pytest.mark.parametrize("field", ["beta", "sigma", "gamma", "theta", "gap"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ParamError, match=field):
            BoundInputs(**{**WORKED, field: value})


class TestRequiredGap:
    def test_balanced_theta_one(self):
        # first log term vanishes when theta = 1 and classes balance, and with
        # delta_max = 0 and n = 1 only log(2/delta) is left, over rate 1/16
        got = required_gap(1.0, 3, 3, 6, 0, 1, 0.5, 0.125, 1.0)
        assert got == math.log(4.0) * 16.0

    @pytest.mark.parametrize("delta", [0.0, 1.0, 1.5, 5.0, -0.1, math.nan])
    def test_rejects_delta_outside_the_unit_interval(self, delta):
        with pytest.raises(ParamError, match=r"delta must be in \(0, 1\)"):
            required_gap(1.0, 2, 2, 4, 1, 100, delta, 0.125, 1.0)

    def test_worked_value(self):
        got = required_gap(1.0, 2, 2, 4, 1, 100, 0.1, 0.125, 1.0)
        expected = (math.log(3) + math.log(100) + math.log(20)) * 16.0
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(139.19, abs=0.01)

    def test_rejects_flat_exponent(self):
        with pytest.raises(ParamError):
            required_gap(1.0, 2, 2, 4, 0, 10, 0.1, 0.25, 1.0)  # gamma = 1/(4 sigma^2)
        with pytest.raises(ParamError):
            required_gap(1.0, 2, 2, 4, 0, 10, 0.1, 0.5, 1.0)

    GOOD = dict(theta=1.0, m_plus=2, m_minus=2, m=4, delta_max=1, n=100, delta=0.1,
                gamma=0.125, sigma=1.0)

    @pytest.mark.parametrize(
        "changes, reason",
        [
            # each of these used to raise ValueError("math domain error")
            ({"theta": -1.0}, "theta must be finite and > 0"),
            ({"n": 0}, "n must be >= 1"),
            # ZeroDivisionError
            ({"m": 0, "m_plus": 0, "m_minus": 0}, "m must be >= 1"),
            ({"m_plus": 0, "m_minus": 0}, r"m_plus \+ m_minus must equal m"),
            ({"delta_max": 1.5}, "delta_max must be an integer"),
            ({"m_plus": True, "m_minus": 3}, "m_plus must be an integer"),
            ({"sigma": 0.0}, "sigma must be finite and > 0"),
            ({"gamma": math.nan}, "gamma must be finite and >= 0"),
            ({"theta": math.inf}, "theta must be finite"),
        ],
    )
    def test_every_input_passes_its_rule(self, changes, reason):
        with pytest.raises(ParamError, match=f"^{reason}"):
            required_gap(**{**self.GOOD, **changes})

    def test_integral_floats_give_the_same_value(self):
        sizes = dict(m_plus=2.0, m_minus=2.0, m=4.0, delta_max=1.0, n=100.0)
        assert required_gap(**{**self.GOOD, **sizes}) == required_gap(**self.GOOD)


class TestGaussianConditions:
    def test_worked_thresholds(self):
        report = gaussian_conditions(n=10, m=4, sigma=1.0, delta=0.05, g_star=40.0, T=250)
        log_term = math.log(4 * 100 / 0.05)
        assert report.g_star_threshold == pytest.approx(4 * log_term, rel=1e-12)
        assert report.g_star_threshold == pytest.approx(35.95, abs=0.01)
        assert report.t_threshold == pytest.approx((12 + 8 * math.sqrt(2)) * log_term, rel=1e-12)
        assert report.t_threshold == pytest.approx(209.52, abs=0.01)
        assert report.g_star_ok and report.t_ok

    def test_loose_delta_small_n(self):
        report = gaussian_conditions(n=20, m=2, sigma=1.0, delta=0.99, g_star=100.0, T=400)
        assert report.n_threshold == pytest.approx(2 * math.log(8 / 0.99), rel=1e-12)
        assert report.n_ok and report.all_ok

    def test_thresholds_scale_as_stated(self):
        # g* threshold grows linearly in sigma^2, every threshold in log(1/delta)
        a = gaussian_conditions(10, 4, 1.0, 0.05, 1.0, 1)
        b = gaussian_conditions(10, 4, 2.0, 0.05, 1.0, 1)
        assert b.g_star_threshold == pytest.approx(4.0 * a.g_star_threshold, rel=1e-12)
        c = gaussian_conditions(10, 4, 1.0, 0.005, 1.0, 1)
        assert c.g_star_threshold > a.g_star_threshold
        assert c.t_threshold > a.t_threshold

    def test_delta_range(self):
        with pytest.raises(ParamError, match=r"^delta must be in \(0, 1\)"):
            gaussian_conditions(10, 4, 1.0, 1.5, 1.0, 1)

    GOOD = dict(n=10, m=4, sigma=1.0, delta=0.05, g_star=40.0, T=250)

    @pytest.mark.parametrize(
        "changes, reason",
        [
            ({"m": 0}, "m must be >= 1"),  # ValueError("math domain error")
            ({"n": 0}, "n must be >= 1"),
            ({"sigma": math.nan}, "sigma must be finite and >= 0"),  # a NaN threshold
            ({"sigma": -1.0}, "sigma must be finite and >= 0"),
            ({"g_star": -1.0}, "g_star must be finite and >= 0"),
            ({"g_star": math.inf}, "g_star must be finite"),
            ({"T": 2.5}, "T must be an integer"),
            ({"T": 0}, "T must be >= 1"),
            ({"delta": math.nan}, r"delta must be in \(0, 1\)"),
        ],
    )
    def test_every_input_passes_its_rule(self, changes, reason):
        with pytest.raises(ParamError, match=f"^{reason}"):
            gaussian_conditions(**{**self.GOOD, **changes})

    def test_the_report_holds_the_checked_values(self):
        report = gaussian_conditions(**{**self.GOOD, "n": 10.0, "T": 250.0, "sigma": 0})
        assert (report.n, report.T, report.sigma) == (10, 250, 0.0)
        assert type(report.n) is int and type(report.T) is int
        assert report.g_star_threshold == 0.0 and report.g_star_ok


def test_delta_has_one_rule():
    # required_gap, gaussian_conditions and the bounds.delta key all use it
    for delta in (0.0, 1.0, -0.5, math.nan, math.inf, True, "0.5"):
        with pytest.raises(ParamError, match=r"^p must be in \(0, 1\)"):
            failure_probability("p", delta)
    assert failure_probability("p", np.float64(0.25)) == 0.25
    assert type(failure_probability("p", 0.25)) is float


class TestEmpiricalSoundness:
    def test_nn_bound_holds_monte_carlo(self):
        # well-separated constant sources: the bound must dominate the measured
        # error over a decent test sample
        from tsvote import VotingParams, sample_dataset, sample_series
        from tsvote.classify import VotingKernel
        from tsvote.synth import derive_streams

        T, dmax, sigma = 16, 2, 1.0
        levels = [0.0, 6.0, 12.0, 18.0]
        length = T + 2 * dmax
        sources = tuple(
            (
                TimeSeries(1 - 2 * dmax, np.full(length + 2 * dmax, lv), id=f"v{i}"),
                Label.POSITIVE if i % 2 == 0 else Label.NEGATIVE,
            )
            for i, lv in enumerate(levels)
        )
        model = LatentSourceModel(
            sources=sources,
            delta_max=dmax,
            noise=NoiseSpec("gaussian", sigma),
            window_start=1 - dmax,
            window_length=length,
        )
        beta = 4.0
        n = math.ceil(beta * 4 * math.log(4))
        train = sample_dataset(model, n, 17)
        g = gap(train, T, dmax)
        inputs = BoundInputs(
            m=4, m_plus=2, m_minus=2, n=n, beta=beta, sigma=sigma, gamma=0.125, theta=1.0,
            delta_max=dmax, gap=g,
        )
        bound = nn_bound(inputs)
        assert bound < 0.5
        params = VotingParams(gamma=0.125, T=T, delta_max=dmax)
        kernel = VotingKernel(train, params)
        wrong = 0
        n_test = 500
        for stream in derive_streams(99, n_test):
            s, label, _ = sample_series(model, stream, window_start=1, window_length=T)
            wrong += kernel.knn(s, 1).label != label
        rate = wrong / n_test
        se = math.sqrt(max(rate * (1 - rate), 1e-12) / n_test)
        assert rate <= bound + 3 * se
