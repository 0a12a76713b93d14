"""Flat key=value configuration with dotted section prefixes and a strict schema.

Unknown keys are rejected; every value is validated against the owning module's
constraints before any work starts. Command-line --set overrides use the same
keys. A `section.field` key feeds the settings-object field of that name.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Optional

from .core import VotingParams, integer_at_least, real_at_least
from .errors import ConfigError, ParamError
from .experiments import CorpusConfig, DetectionConfig, ExperimentConfig, SweepGrid
from .gapbounds import BoundInputs
from .pipeline import PipelineParams, window_buckets
from .synth import MAX_SMOOTHING_SCALE, GeneratorConfig, NoiseSpec

OUTPUT_DIR_ENV = "TSVOTE_OUTPUT_DIR"


def _parse_scalar(raw):
    if isinstance(raw, str):
        try:
            return json.loads(raw)
        except json.JSONDecodeError:
            return raw.strip()
    return raw


def _as_int(key, raw):
    try:
        return integer_at_least(key, _parse_scalar(raw))
    except ParamError:
        raise ConfigError(f"field {key!r}: expected an integer, got {raw!r}") from None


def _as_float(key, raw):
    try:
        return real_at_least(key, _parse_scalar(raw), -math.inf)
    except ParamError:
        raise ConfigError(f"field {key!r}: expected a finite number, got {raw!r}") from None


def _as_str(key, raw):
    v = _parse_scalar(raw)
    if not isinstance(v, str):
        raise ConfigError(f"field {key!r}: expected a string, got {raw!r}")
    return v


def _as_list(key, raw, elem):
    v = _parse_scalar(raw)
    if isinstance(v, str):
        parts = [p.strip() for p in v.split(",") if p.strip()]
        return [elem(key, p) for p in parts]
    if isinstance(v, (int, float)):
        return [elem(key, v)]
    if isinstance(v, list):
        return [elem(key, x) for x in v]
    raise ConfigError(f"field {key!r}: expected a list, got {raw!r}")


def _int_list(key, raw):
    return _as_list(key, raw, _as_int)


def _float_list(key, raw):
    return _as_list(key, raw, _as_float)


def _none_or(parser):
    def parse(key, raw):
        v = _parse_scalar(raw)
        if v is None or v == "none":
            return None
        return parser(key, raw)

    return parse


@dataclass(frozen=True)
class FieldSpec:
    parse: Callable
    default: object
    check: Optional[Callable] = None


def _ge(limit):
    return lambda v: v >= limit or f"must be >= {limit}"


def _gt(limit):
    return lambda v: v > limit or f"must be > {limit}"


def _within(low, high):
    return lambda v: low < v <= high or f"must be > {low} and <= {high}"


def _between(low, high):
    return lambda v: low < v < high or f"must be > {low} and < {high}"


def _choice(*options):
    return lambda v: v in options or f"must be one of {options}"


def _entries(check):
    """A list check: non-empty, and check (a _ge or _gt) holds for every entry."""

    def run(v):
        if not v:
            return "must be non-empty"
        return next((f"every entry {m}" for m in map(check, v) if m is not True), True)

    return run


def _weights(v):
    ok = all(x >= 0.0 for x in v) and abs(sum(v) - 1.0) <= 1e-12
    return ok or "must be nonnegative and sum to 1"


SCHEMA: dict[str, FieldSpec] = {
    "seed": FieldSpec(_as_int, 0, _ge(0)),  # a SeedSequence entropy
    "output_dir": FieldSpec(_as_str, None),
    # synthetic latent sources
    "generator.m": FieldSpec(_as_int, 10, _ge(2)),
    "generator.series_length": FieldSpec(_as_int, 120, _ge(1)),
    "generator.amplitude_variance": FieldSpec(_as_float, 100.0, _gt(0)),
    "generator.smoothing_scale": FieldSpec(_as_float, 10.0, _within(0, MAX_SMOOTHING_SCALE)),
    # sampling model
    "model.delta_max": FieldSpec(_as_int, 10, _ge(0)),
    "model.noise_family": FieldSpec(_as_str, "gaussian", _choice("gaussian", "uniform")),
    "model.noise_sigma": FieldSpec(_as_float, 1.0, _ge(0)),
    "model.weights": FieldSpec(_none_or(_float_list), None, _weights),
    # voting classifier
    "voting.gamma": FieldSpec(_as_float, 0.125, _ge(0)),
    "voting.theta": FieldSpec(_as_float, 1.0, _gt(0)),
    "voting.T": FieldSpec(_as_int, 100, _ge(1)),
    "voting.delta_max": FieldSpec(_as_int, 10, _ge(0)),
    "voting.shift_mode": FieldSpec(_as_str, "min", _choice("min", "sum")),
    # rate preprocessing
    "pipeline.alpha": FieldSpec(_as_float, 1.2, _ge(1.0)),
    "pipeline.t_smooth": FieldSpec(_as_int, 80, _ge(1)),
    "pipeline.log_floor": FieldSpec(_as_float, 1e-12, _gt(0)),
    # synthetic error-curve experiments
    "experiment.beta": FieldSpec(_as_float, 8.0, _gt(1.0)),
    "experiment.t_grid": FieldSpec(_int_list, [10, 20, 40, 70, 100], _entries(_gt(0))),
    "experiment.beta_grid": FieldSpec(_float_list, [2.0, 4.0, 6.0, 8.0], _entries(_gt(1.0))),
    "experiment.test_size": FieldSpec(_as_int, 200, _ge(1)),
    "experiment.trials": FieldSpec(_as_int, 20, _ge(1)),
    "experiment.mode": FieldSpec(_as_str, "both", _choice("T", "beta", "both")),
    # online detection
    "detection.h_hours": FieldSpec(_as_float, 1.0, _gt(0)),
    # retired; it stays, unset, so manifests and their config hashes are unchanged
    "detection.window_hours": FieldSpec(
        _none_or(_as_float), None, lambda v: "is retired: detection spans h_hours around the anchor"
    ),
    "detection.T": FieldSpec(_as_int, 12, _ge(1)),
    "detection.gamma": FieldSpec(_as_float, 1.0, _ge(0)),
    "detection.theta": FieldSpec(_as_float, 1.0, _gt(0)),
    "detection.bucket_width_minutes": FieldSpec(_as_float, 2.0, _gt(0)),
    "detection.delta_max": FieldSpec(_none_or(_as_int), None, _ge(0)),
    # sweep grids; an unset grid sweeps the single setting above
    "detection.gamma_grid": FieldSpec(_none_or(_float_list), None, _entries(_ge(0))),
    "detection.t_grid": FieldSpec(_none_or(_int_list), None, _entries(_ge(1))),
    "detection.t_smooth_grid": FieldSpec(_none_or(_int_list), None, _entries(_ge(1))),
    "detection.h_grid": FieldSpec(_none_or(_float_list), None, _entries(_gt(0))),
    "detection.theta_grid": FieldSpec(_none_or(_float_list), None, _entries(_gt(0))),
    # synthetic detection corpus
    "corpus.n_trends": FieldSpec(_as_int, 200, _ge(2)),  # split_topics halves each class
    "corpus.n_non_trends": FieldSpec(_as_int, 200, _ge(2)),
    "corpus.length": FieldSpec(_as_int, 240, _ge(1)),
    "corpus.base_rate": FieldSpec(_as_float, 50.0, _gt(0)),
    "corpus.burst_scale": FieldSpec(_as_float, 6.0, _gt(0)),
    "corpus.ramp_buckets": FieldSpec(_as_int, 30, _ge(1)),
    "corpus.n_patterns": FieldSpec(_as_int, 4, _choice(1, 2, 3, 4)),
    "corpus.onset_low": FieldSpec(_as_int, 90, _ge(1)),
    "corpus.onset_high": FieldSpec(_as_int, 150, _ge(1)),
    "corpus.noise_frac": FieldSpec(_as_float, 0.12, _ge(0)),
    "corpus.bump_scale": FieldSpec(_as_float, 0.8, _ge(0)),
    # closed-form bounds
    "bounds.m": FieldSpec(_as_int, 4, _ge(1)),
    "bounds.m_plus": FieldSpec(_as_int, 2, _ge(0)),
    "bounds.m_minus": FieldSpec(_as_int, 2, _ge(0)),
    "bounds.n": FieldSpec(_as_int, 10, _ge(1)),
    "bounds.beta": FieldSpec(_as_float, 2.0, _gt(1)),
    "bounds.sigma": FieldSpec(_as_float, 1.0, _gt(0)),
    "bounds.gamma": FieldSpec(_as_float, 0.125, _ge(0)),
    "bounds.theta": FieldSpec(_as_float, 1.0, _gt(0)),
    "bounds.delta_max": FieldSpec(_as_int, 0, _ge(0)),
    "bounds.gap": FieldSpec(_as_float, 32.0, _ge(0)),
    "bounds.delta": FieldSpec(_as_float, 0.05, _between(0, 1)),  # a failure probability
    "bounds.g_star": FieldSpec(_none_or(_as_float), None, _ge(0)),
    "bounds.T": FieldSpec(_none_or(_as_int), None, _ge(1)),
}


class RunConfig:
    """Validated, fully-defaulted view of one run's settings."""

    def __init__(self, values: dict):
        self.values = values

    def __getitem__(self, key):
        return self.values[key]

    def science_dict(self) -> dict:
        """Settings that define the run's results; excludes file placement, so
        the manifest hash is stable across output locations."""
        return {k: v for k, v in sorted(self.values.items()) if k != "output_dir"}

    @property
    def output_dir(self) -> Path:
        explicit = self.values.get("output_dir")
        if explicit:
            return Path(explicit)
        return Path(os.environ.get(OUTPUT_DIR_ENV, "."))


def _validate(key: str, value) -> None:
    spec = SCHEMA[key]
    if value is None or spec.check is None:
        return
    verdict = spec.check(value)
    if verdict is not True:
        raise ConfigError(f"field {key!r}: {verdict} (got {value!r})")


def parse_config_text(text: str, where: str = "<config>") -> dict:
    """key = value lines into a raw string map; '#' starts a comment."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{where}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key in raw:
            raise ConfigError(f"{where}:{lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


def load_config(path=None, overrides: Optional[list] = None) -> RunConfig:
    """Read an optional config file, apply key=value overrides, validate everything."""
    raw: dict = {}
    if path is not None:
        p = Path(path)
        raw.update(parse_config_text(p.read_text(encoding="utf-8"), where=str(p)))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, value = item.split("=", 1)
        raw[key.strip()] = value.strip()

    unknown = sorted(set(raw) - set(SCHEMA))
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")

    values = {}
    for key, spec in SCHEMA.items():
        if key in raw:
            value = spec.parse(key, raw[key])
        else:
            value = spec.default
        _validate(key, value)
        values[key] = value
    if values["corpus.onset_low"] > values["corpus.onset_high"]:
        raise ConfigError("field 'corpus.onset_low': must not exceed corpus.onset_high")
    if values["corpus.onset_high"] > values["corpus.length"]:
        raise ConfigError("field 'corpus.onset_high': must not exceed corpus.length")
    weights = values["model.weights"]
    if weights is not None and len(weights) != values["generator.m"]:
        raise ConfigError("field 'model.weights': must have one entry per source (generator.m)")
    if values["bounds.m_plus"] + values["bounds.m_minus"] != values["bounds.m"]:
        raise ConfigError("field 'bounds.m': must equal bounds.m_plus + bounds.m_minus")
    return RunConfig(values)


# ---------------------------------------------------------------------------
# Builders turning a RunConfig into module-level settings objects
# ---------------------------------------------------------------------------


def _section(cfg: RunConfig, cls, section: str, **given):
    """cls from the keys `section.<field>` named after its fields, plus the given fields."""
    names = {f"{section}.{f.name}": f.name for f in fields(cls)}
    return cls(**{names[k]: v for k, v in cfg.values.items() if k in names}, **given)


def generator_config(cfg: RunConfig) -> GeneratorConfig:
    return _section(cfg, GeneratorConfig, "generator", seed=cfg["seed"])


def noise_spec(cfg: RunConfig) -> NoiseSpec:
    return NoiseSpec(cfg["model.noise_family"], cfg["model.noise_sigma"])


def voting_params(cfg: RunConfig) -> VotingParams:
    return _section(cfg, VotingParams, "voting")


def pipeline_params(cfg: RunConfig) -> PipelineParams:
    return _section(cfg, PipelineParams, "pipeline")


def experiment_config(cfg: RunConfig) -> ExperimentConfig:
    # checked here rather than in load_config: only experiment observes t_grid,
    # and generate may well draw series shorter than its default
    needed = max(cfg["experiment.t_grid"]) + 2 * cfg["model.delta_max"]
    if needed > cfg["generator.series_length"]:
        raise ConfigError(
            f"field 'experiment.t_grid': max(experiment.t_grid) + 2*model.delta_max = {needed} "
            f"exceeds generator.series_length = {cfg['generator.series_length']}"
        )
    return _section(
        cfg,
        ExperimentConfig,
        "experiment",
        model_cfg=generator_config(cfg),
        T_grid=tuple(cfg["experiment.t_grid"]),
        gamma=cfg["voting.gamma"],
        theta=cfg["voting.theta"],
        delta_max=cfg["model.delta_max"],
        sigma=cfg["model.noise_sigma"],
        noise_family=cfg["model.noise_family"],
        seed=cfg["seed"],
    )


def detection_config(cfg: RunConfig) -> DetectionConfig:
    return _section(cfg, DetectionConfig, "detection", pipeline=pipeline_params(cfg))


def _detection_regions(cfg: RunConfig):
    """(h key, h, T, half) for every (h, T) pair the sweep runs, half being the
    buckets in h hours: each training slice and each half of a test topic's
    detection region around its anchor."""
    h_grid = cfg["detection.h_grid"]
    h_key = "detection.h_grid" if h_grid else "detection.h_hours"
    width = cfg["detection.bucket_width_minutes"]
    for h in h_grid or [cfg["detection.h_hours"]]:
        try:
            half = window_buckets(h, width)
        except ParamError as exc:
            raise ConfigError(f"field {h_key!r}: {exc}") from None
        for T in cfg["detection.t_grid"] or [cfg["detection.T"]]:
            yield h_key, h, T, half


def sweep_grid(cfg: RunConfig) -> SweepGrid:
    """The sweep's grid; every training slice must hold a T window at every shift."""
    dmax = cfg["detection.delta_max"]
    for h_key, h, T, half in _detection_regions(cfg):
        if half < T:
            raise ConfigError(
                f"field {h_key!r}: h={h} gives {half}-bucket training slices, shorter than T={T}"
            )
        if dmax is not None and dmax > (half - T) // 2:
            raise ConfigError(
                f"field 'detection.delta_max': h={h} and T={T} leave shifts up to "
                f"{(half - T) // 2}, got {dmax}"
            )
    return SweepGrid(
        gammas=tuple(cfg["detection.gamma_grid"] or [cfg["detection.gamma"]]),
        Ts=tuple(cfg["detection.t_grid"] or [cfg["detection.T"]]),
        t_smooths=tuple(cfg["detection.t_smooth_grid"] or [cfg["pipeline.t_smooth"]]),
        h_hours=tuple(cfg["detection.h_grid"] or [cfg["detection.h_hours"]]),
        thetas=tuple(cfg["detection.theta_grid"] or [cfg["detection.theta"]]),
    )


def corpus_config(cfg: RunConfig) -> CorpusConfig:
    """The synthetic corpus; every detection region around an onset must fit in it."""
    low, high, length = cfg["corpus.onset_low"], cfg["corpus.onset_high"], cfg["corpus.length"]
    for h_key, h, T, half in _detection_regions(cfg):
        if half + T > low or high + half > length:
            raise ConfigError(
                f"field {h_key!r}: h={h} ({half} buckets) and T={T} need "
                f"corpus.onset_low >= {half + T} and corpus.length >= corpus.onset_high + {half}"
            )
    width = cfg["detection.bucket_width_minutes"]
    return _section(cfg, CorpusConfig, "corpus", bucket_width_minutes=width, seed=cfg["seed"])


def bound_inputs(cfg: RunConfig) -> BoundInputs:
    return _section(cfg, BoundInputs, "bounds")
