"""The benchmark's traced run (perfbench/tracing.py) patches tsvote by name and
reads the patched calls' arguments by name. Installing it here makes a rename
of any traced function, method or argument fail the test suite."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import tsvote.classify as classify
import tsvote.core as core
import tsvote.gapbounds as gapbounds
from conftest import random_instance
from test_experiments import tiny_config
from tsvote import Label, LatentSourceModel, NoiseSpec, TimeSeries, VotingParams, error_curves

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_traced_names_resolve_and_hooks_bind(rng):
    T, dmax = 4, 1
    data, s = random_instance(rng, 2, 2, T=T, delta_max=dmax)
    params = VotingParams(gamma=0.5, T=T, delta_max=dmax)
    model = LatentSourceModel(
        sources=tuple(
            (TimeSeries(1, rng.standard_normal(T + dmax), id=f"v{i}"), label)
            for i, label in enumerate((Label.POSITIVE, Label.NEGATIVE))
        ),
        delta_max=dmax,
        noise=NoiseSpec("gaussian", 0.0),
        window_start=1,
        window_length=T,
    )
    originals = (classify.classify_gwmv, classify.VotingKernel.__dict__["__init__"])
    tracer = load_tracer_class()()
    try:
        tracer.install()  # raises if any traced name no longer resolves
        classify.classify_gwmv(s, data, params)
        classify.classify_map(s, model, params)
        kernel = classify.VotingKernel(data, params)
        kernel.shift_sq_dists(s)  # min-mode voting no longer builds the full grid
        kernel.log_lambda_many(rng.standard_normal((3, T)))
        gapbounds.gap(data, T, dmax, cutoff=True)
    finally:
        tracer.uninstall()
    assert (classify.classify_gwmv, classify.VotingKernel.__dict__["__init__"]) == originals

    flat = tracer.flat()
    for span in (
        "classify.classify_gwmv",
        "classify.kernel_build",
        "classify.shift_sq_dists",
        "classify.vote",
        "classify.classify_map",
        "classify.map_build",
        "classify.map",
        "classify.log_lambda_many",
        "gapbounds.gap",
    ):
        assert flat[f"{span}.calls"] >= 1, span
    # values the hooks derive from the bound arguments
    S = 2 * dmax + 1
    assert flat["classify.kernel_build.distinct"] == 1
    assert flat["classify.shift_sq_dists.cells"] == data.n * S * T
    assert flat["classify.log_lambda_many.cells"] == data.n * S * 3 * T
    assert flat["gapbounds.gap.pairs"] == (data.n_pos * S) * (data.n_neg * S)


@pytest.mark.parametrize(
    "beta, beta_grid",
    [(4.0, (2.0, 4.0)), (3.0, (2.0, 4.0, 6.0)), (6.0, (2.0,)), (4.0, (8.0, 2.0, 3.0, 4.0, 6.0))],
)
def test_error_curves_compute_one_grid_per_test_and_T(beta, beta_grid, monkeypatch):
    # every pool size reads its rows of the largest pool's shift minimum, so the
    # count does not depend on how many pool sizes the beta grid asks for
    cfg = tiny_config(beta=beta, beta_grid=beta_grid)
    queries = []
    exact_min = core.ShiftWindows.minimum

    def counting(self, Q):
        queries.append(len(Q))
        return exact_min(self, Q)

    monkeypatch.setattr(core.ShiftWindows, "minimum", counting)
    tracer = load_tracer_class()()
    try:
        tracer.install()
        error_curves(cfg, ("T", "beta"))
    finally:
        tracer.uninstall()
    assert sum(queries) == cfg.trials * len(set(cfg.T_grid)) * cfg.test_size
    assert tracer.flat().get("classify.shift_sq_dists.calls", 0) == 0
