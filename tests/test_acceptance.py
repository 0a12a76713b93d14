"""Acceptance gate: every release criterion, one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they pass.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import dyadic_values
from tsvote import (
    BoundInputs,
    GeneratorConfig,
    Label,
    LabeledDataset,
    LatentSourceModel,
    NoiseSpec,
    PipelineParams,
    RateSeries,
    TimeSeries,
    VotingParams,
    baseline_normalize,
    classify_gwmv,
    classify_knn,
    coverage_counts,
    error_vs_T,
    gap,
    make_detection_corpus,
    make_latent_sources,
    nn_bound,
    preprocess,
    roc_sweep,
    sample_dataset,
    sample_series,
    shift_min_distance,
    spike_emphasize,
    split_topics,
    training_size,
    wmv_bound,
)
from tsvote.classify import VotingKernel
from tsvote.cli import main as cli_main
from tsvote.config import (
    corpus_config,
    detection_config,
    experiment_config,
    load_config,
    sweep_grid,
)
from tsvote.synth import derive_streams


def report(number, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {verdict}  {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


# -- helpers shared with the unit suites -------------------------------------


def brute_shift_min(r, s, T, delta_max):
    best, best_d = None, None
    for d in range(-delta_max, delta_max + 1):
        total = 0.0
        for t in range(1, T + 1):
            total += (r.value_at(t + d) - s.value_at(t)) ** 2
        if best is None or total < best:
            best, best_d = total, d
    return best, best_d


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


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    for _ in range(600):
        T = int(rng.integers(1, 17))
        dmax = int(rng.integers(0, 5))
        r = TimeSeries(1 - dmax, dyadic_values(rng, T + 2 * dmax), id="r")
        s = TimeSeries(1, dyadic_values(rng, T), id="s")
        assert shift_min_distance(r, s, T, dmax) == brute_shift_min(r, s, T, dmax)
    for _ in range(400):
        T = int(rng.integers(1, 7))
        dmax = int(rng.integers(0, 3))
        n_pos, n_neg = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        length = T + 2 * dmax
        data = LabeledDataset(
            tuple(
                TimeSeries(1 - dmax, dyadic_values(rng, length), id=f"p{i}")
                for i in range(n_pos)
            ),
            tuple(
                TimeSeries(1 - dmax, dyadic_values(rng, length), id=f"n{i}")
                for i in range(n_neg)
            ),
        )
        assert gap(data, T, dmax) == brute_gap(data, T, dmax)
    elapsed = time.monotonic() - start
    report(
        1,
        "oracle equivalence",
        elapsed < 10.0,
        f"1000 instances match brute force exactly in {elapsed:.2f}s",
    )


def test_criterion_2_closed_form_bounds():
    # direct evaluation of the bound at the worked inputs: rate then tail
    worked = BoundInputs(
        m=4, m_plus=2, m_minus=2, n=10, beta=2.0, sigma=1.0, gamma=0.125, theta=1.0,
        delta_max=0, gap=32.0,
    )
    rate = 0.125 - 4.0 * 0.125**2  # 1/16
    expected = (1.0 * 2 / 4 + 2 / (1.0 * 4)) * 1 * 10 * math.exp(-rate * 32.0) + 4.0 ** (-1.0)
    got_wmv, got_nn = wmv_bound(worked), nn_bound(worked)
    ok_worked = (
        abs(got_wmv - expected) <= 1e-9 * expected
        and abs(got_nn - expected) <= 1e-9 * expected
    )

    rng = np.random.default_rng(202)
    mismatches = 0
    for _ in range(10_000):
        sigma = float(rng.choice([0.25, 0.5, 1.0, 2.0, 4.0, 8.0]))
        m = int(rng.integers(2, 1000))
        m_plus = int(rng.integers(1, m))
        inputs = BoundInputs(
            m=m,
            m_plus=m_plus,
            m_minus=m - m_plus,
            n=int(rng.integers(1, 100_000)),
            beta=float(rng.uniform(1.001, 8.0)),
            sigma=sigma,
            gamma=1.0 / (8.0 * sigma * sigma),
            theta=1.0,
            delta_max=int(rng.integers(0, 500)),
            gap=float(rng.uniform(0.0, 10_000.0)),
        )
        if wmv_bound(inputs) != nn_bound(inputs):
            mismatches += 1
    report(
        2,
        "closed-form bounds",
        ok_worked and mismatches == 0,
        f"worked value {got_wmv:.6f} (= {expected:.6f}); "
        f"identity exact on 10000/10000 inputs" if mismatches == 0 else f"{mismatches} mismatches",
    )


def test_criterion_3_empirical_bound_soundness():
    start = time.monotonic()
    T, sigma, gamma, beta, m = 16, 1.0, 0.125, 4.0, 4
    levels = [0.0, 6.0, 12.0, 18.0]  # separation chosen so the bound is < 0.5
    n = training_size(beta, m)
    reps_per_dmax = 10  # two delta_max settings, 20 repetitions total
    held = 0
    total = 0
    worst_bound = 0.0
    for dmax in (0, 2):
        length = T + 2 * dmax
        sources = tuple(
            (
                TimeSeries(1 - dmax, np.full(length + dmax, lv), id=f"v{i}"),
                Label.POSITIVE if i % 2 == 0 else Label.NEGATIVE,
            )
            for i, lv in enumerate(levels)
        )
        model = LatentSourceModel(
            sources=sources,
            delta_max=dmax,
            noise=NoiseSpec("gaussian", sigma),
            window_start=1 - dmax,
            window_length=T + 2 * dmax,
        )
        for rep in range(reps_per_dmax):
            rep_root = np.random.SeedSequence((dmax + 1) * 1000 + rep)
            train_ss, test_ss = rep_root.spawn(2)
            train = sample_dataset(model, n, train_ss)
            g = gap(train, T, dmax)
            inputs = BoundInputs(
                m=m, m_plus=2, m_minus=2, n=n, beta=beta, sigma=sigma, gamma=gamma,
                theta=1.0, delta_max=dmax, gap=g,
            )
            bound = wmv_bound(inputs)
            assert bound < 0.5, f"setup failed: bound {bound} not informative"
            worst_bound = max(worst_bound, bound)
            params = VotingParams(gamma, T, dmax)
            kernel = VotingKernel(train, params)
            wrong = 0
            n_test = 2000
            for stream in derive_streams(test_ss, n_test):
                s, label, _ = sample_series(model, stream, window_start=1, window_length=T)
                wrong += kernel.gwmv(s).label != label
            rate = wrong / n_test
            se = math.sqrt(max(rate * (1 - rate), 0.0) / n_test)
            total += 1
            held += rate <= bound + 3 * se
    elapsed = time.monotonic() - start
    report(
        3,
        "empirical bound soundness",
        held >= 19 and total == 20 and elapsed < 300.0,
        f"{held}/20 repetitions within bound (worst bound {worst_bound:.4f}), {elapsed:.1f}s",
    )


def test_criterion_4_error_curve_pattern():
    start = time.monotonic()
    cfg = experiment_config(load_config(Path(__file__).parents[1] / "configs" / "desk.cfg"))
    curves = error_vs_T(cfg)
    wmv, nn, oracle = curves.mean("wmv"), curves.mean("nn"), curves.mean("map")
    elapsed = time.monotonic() - start
    early_ok = wmv[0] <= nn[0]
    late_ok = abs(wmv[-1] - oracle[-1]) <= 0.05 and abs(nn[-1] - oracle[-1]) <= 0.05
    report(
        4,
        "synthetic error-curve pattern",
        early_ok and late_ok and elapsed < 600.0,
        f"T={cfg.T_grid[0]}: wmv {wmv[0]:.3f} <= nn {nn[0]:.3f}; "
        f"T={cfg.T_grid[-1]}: |wmv-map|={abs(wmv[-1]-oracle[-1]):.4f}, "
        f"|nn-map|={abs(nn[-1]-oracle[-1]):.4f}; {elapsed:.1f}s",
    )


def test_criterion_5_coverage_lemma():
    start = time.monotonic()
    m, delta = 5, 0.2
    weights = (0.1, 0.15, 0.2, 0.25, 0.3)
    pi_min = min(weights)
    n = math.ceil((8.0 / pi_min) * math.log(2 * m / delta))
    cfg = GeneratorConfig(m=m, series_length=4, smoothing_scale=1.0, seed=77)
    model = make_latent_sources(
        cfg, delta_max=0, noise=NoiseSpec("gaussian", 0.0), weights=weights
    )
    trials = 500
    hits = 0
    for stream in derive_streams(515, trials):
        data = sample_dataset(model, n, stream)
        hits += min(coverage_counts(data, model)) > 0.5 * n * pi_min
    rate = hits / trials
    target = 1.0 - delta / 2.0
    slack = 3.0 * math.sqrt(target * (1 - target) / trials)
    elapsed = time.monotonic() - start
    report(
        5,
        "coverage lemma",
        rate >= target - slack and elapsed < 60.0,
        f"min-count event in {rate:.3f} of {trials} trials "
        f"(needs {target - slack:.3f}, n={n}); {elapsed:.1f}s",
    )


def test_criterion_6_pipeline_exactness():
    out = preprocess(RateSeries([1.0, 1.0, 2.0], 2.0, "w"), PipelineParams(1.0, 2, 1e-12))
    worked_ok = np.allclose(out.values, [0.0, 0.40546, -0.69315], atol=1e-5)
    rng = np.random.default_rng(606)
    invariants_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 50))
        rate = RateSeries(rng.uniform(0.5, 100.0, n), 2.0, "r")
        normalized = baseline_normalize(rate)
        if normalized.values[0] != 1.0 or np.any(normalized.values <= 0.0):
            invariants_ok = False
            break
        doubled = baseline_normalize(RateSeries(2.0 * rate.counts, 2.0, "r2"))
        if not np.array_equal(doubled.values, normalized.values):
            invariants_ok = False
            break
        spikes = spike_emphasize(normalized, 1.2)
        if np.any(spikes.values < 0.0) or len(spikes) != n:
            invariants_ok = False
            break
    report(
        6,
        "pipeline exactness",
        worked_ok and invariants_ok,
        "worked example within 1e-5; stage invariants hold on 1000 random series",
    )


def test_criterion_7_detection_surrogate():
    start = time.monotonic()
    theta_always, theta_agg, theta_cons, theta_never = 1e-300, 0.3, 3.0, 1e300
    thetas = f"detection.theta_grid=[{theta_always}, {theta_agg}, {theta_cons}, {theta_never}]"
    detect_cfg = Path(__file__).parents[1] / "configs" / "detect.cfg"
    n_seeds = 20
    strict_wins = 0
    endpoints_ok = True
    envelopes_ok = True
    margins = []
    for seed in range(n_seeds):
        cfg = load_config(detect_cfg, [f"seed={seed}", thetas])
        trends, bgs = make_detection_corpus(corpus_config(cfg))
        train, test = split_topics(trends, bgs, 10_000 + seed)
        result = roc_sweep(test, train, sweep_grid(cfg), detection_config(cfg), seed=20_000 + seed)
        always, agg, cons, never = result.points
        endpoints_ok &= (always.fpr, always.tpr) == (1.0, 1.0)
        endpoints_ok &= (never.fpr, never.tpr) == (0.0, 0.0)
        env_tprs = [t for _, t in result.envelope()]
        envelopes_ok &= env_tprs == sorted(env_tprs)
        if agg.mean_relative_minutes is not None and cons.mean_relative_minutes is not None:
            margins.append(cons.mean_relative_minutes - agg.mean_relative_minutes)
            strict_wins += agg.mean_relative_minutes < cons.mean_relative_minutes
    # one-sided exact binomial sign test against a fair coin
    p_value = sum(math.comb(n_seeds, i) for i in range(strict_wins, n_seeds + 1)) / 2.0**n_seeds
    elapsed = time.monotonic() - start
    report(
        7,
        "detection surrogate",
        endpoints_ok and envelopes_ok and p_value < 0.05 and elapsed < 600.0,
        f"endpoints and envelopes ok; aggressive earlier in {strict_wins}/{n_seeds} seeds "
        f"(sign test p={p_value:.2e}, median margin {np.median(margins):.1f} min); {elapsed:.1f}s",
    )


def test_criterion_8_limit_equivalences():
    rng = np.random.default_rng(808)

    def instance():
        T, dmax = int(rng.integers(3, 9)), int(rng.integers(0, 3))
        n_pos, n_neg = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        length = T + 2 * dmax
        data = LabeledDataset(
            tuple(
                TimeSeries(1 - dmax, rng.standard_normal(length), id=f"p{i}")
                for i in range(n_pos)
            ),
            tuple(
                TimeSeries(1 - dmax, rng.standard_normal(length), id=f"n{i}")
                for i in range(n_neg)
            ),
        )
        return data, TimeSeries(1, rng.standard_normal(T), id="s"), T, dmax

    sharp_checked = sharp_agreed = 0
    while sharp_checked < 200:
        data, s, T, dmax = instance()
        probe = VotingKernel(data, VotingParams(1.0, T, dmax))
        dmin, _ = probe.min_dists(s)
        order = np.sort(dmin)
        scale = max(order[-1], 1e-9)
        if data.n > 1 and (order[1] - order[0]) < 1e-6 * scale:
            continue  # needs a unique global nearest neighbor
        params = VotingParams(1e6 / scale, T, dmax, theta=1.0)
        sharp_checked += 1
        sharp_agreed += (
            classify_gwmv(s, data, params).label == classify_knn(s, data, params, 1).label
        )

    full_checked = full_agreed = 0
    for _ in range(200):
        data, s, T, dmax = instance()
        params = VotingParams(float(rng.uniform(0.05, 2.0)), T, dmax, theta=1.0)
        full_checked += 1
        full_agreed += (
            classify_knn(s, data, params, data.n).label == classify_gwmv(s, data, params).label
        )
    report(
        8,
        "limit equivalences",
        sharp_agreed == sharp_checked == 200 and full_agreed == full_checked == 200,
        f"sharp-vote vs nearest neighbor {sharp_agreed}/200; k=n vs full vote {full_agreed}/200",
    )


def _tree_bytes(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def test_criterion_9_command_determinism(tmp_path):
    gen_args = [
        "--set", "generator.m=4",
        "--set", "generator.series_length=30",
        "--set", "generator.smoothing_scale=3.0",
        "--set", "model.delta_max=3",
        "--set", "experiment.beta=4.0",
        "--set", "experiment.test_size=8",
    ]
    data_dir = tmp_path / "data"
    assert cli_main(["generate", "--seed", "5", "--out", str(data_dir)] + gen_args) == 0

    rates_file = tmp_path / "rates.jsonl"
    rng = np.random.default_rng(3)
    from tsvote import dataio

    dataio.write_rates(
        rates_file,
        [RateSeries(rng.uniform(1, 20, 60), 2.0, f"topic-{i}", onset_index=40) for i in range(3)],
    )
    series_file = tmp_path / "series.jsonl"
    test_series = dataio.read_series_file(data_dir / "test.jsonl")
    dataio.write_jsonl(series_file, [dataio.series_to_record(test_series[0][0])])

    commands = {
        "generate": ["generate", "--seed", "5"] + gen_args,
        "classify": [
            "classify", "--train", str(data_dir / "train.jsonl"), "--series", str(series_file),
            "--method", "wmv", "--gamma", "0.5", "--T", "20", "--delta-max", "3", "--seed", "5",
        ],
        "preprocess": [
            "preprocess", "--rates", str(rates_file), "--slice-mode", "random",
            "--slice-hours", "1.0", "--seed", "5",
        ],
        "gap": [
            "gap", "--train", str(data_dir / "train.jsonl"), "--T", "20", "--delta-max", "2",
            "--seed", "5",
        ],
        "bounds": ["bounds", "--seed", "5"],
        "experiment": [
            "experiment", "--mode", "T", "--seed", "5",
            "--set", "generator.m=4",
            "--set", "generator.series_length=26",
            "--set", "generator.smoothing_scale=3.0",
            "--set", "model.delta_max=3",
            "--set", "experiment.beta=4.0",
            "--set", "experiment.t_grid=[10, 20]",
            "--set", "experiment.trials=1",
            "--set", "experiment.test_size=6",
        ],
        "detect": [
            "detect", "--seed", "5",
            "--set", "corpus.n_trends=10",
            "--set", "corpus.n_non_trends=10",
            "--set", "corpus.length=300",
            "--set", "corpus.onset_low=120",
            "--set", "corpus.onset_high=200",
            "--set", "corpus.ramp_buckets=60",
            "--set", "detection.h_hours=1.0",
            "--set", "detection.T=15",
            "--set", "detection.gamma=1.0",
            "--set", "pipeline.t_smooth=20",
        ],
    }
    all_ok = True
    for name, args in commands.items():
        out_a = tmp_path / f"{name}-a"
        out_b = tmp_path / f"{name}-b"
        code_a = cli_main(args + ["--out", str(out_a)])
        code_b = cli_main(args + ["--out", str(out_b)])
        identical = code_a == code_b == 0 and _tree_bytes(out_a) == _tree_bytes(out_b)
        all_ok &= identical
        if not identical:
            print(f"  command {name}: outputs differ or failed")
    report(9, "command determinism", all_ok, f"{len(commands)} commands byte-identical on reruns")
