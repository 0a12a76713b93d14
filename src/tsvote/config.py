"""Flat key=value configuration with dotted section prefixes and a strict schema.

Unknown keys are rejected; every value passes the rule its owning module
applies to the setting, before any work starts, and a refusal is the
ConfigError "field '<key>': <the rule's message>". Command-line --set
overrides use the same keys. A `section.field` key feeds the settings-object
field of that name.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from typing import Callable, Optional

from .core import _SHIFT_MODES, VotingParams, grid_of, integer_at_least, one_of, real_at_least
from .errors import ConfigError, ParamError
from .experiments import CorpusConfig, DetectionConfig, ExperimentConfig, SweepGrid, pattern_count
from .gapbounds import BoundInputs, class_sizes, failure_probability
from .pipeline import PipelineParams, window_buckets
from .synth import _NOISE_FAMILIES, GeneratorConfig, NoiseSpec, kernel_scale, source_weights

OUTPUT_DIR_ENV = "TSVOTE_OUTPUT_DIR"


def _parse_scalar(raw):
    if isinstance(raw, str):
        try:
            return json.loads(raw)
        except json.JSONDecodeError:
            return raw.strip()
    return raw


def _items(raw) -> list:
    """raw as a list of scalars: a JSON list, comma-separated values or one value."""
    v = _parse_scalar(raw)
    if isinstance(v, str):
        return [_parse_scalar(p) for p in v.split(",") if p.strip()]
    return [_parse_scalar(x) for x in v] if isinstance(v, list) else [v]


def _string(name, value) -> str:
    if not isinstance(value, str):
        raise ParamError(f"{name} must be a string, got {value!r}")
    return value


def _retired(name, value):
    raise ParamError(f"{name} is retired: detection spans h_hours around the anchor")


def _int(low):
    return partial(integer_at_least, low=low)


def _real(low, strict=False):
    return partial(real_at_least, low=low, strict=strict)


@dataclass(frozen=True)
class FieldSpec:
    """A key's default and rule: rule(name, value) is the check the owning
    module applies to one value, ParamError naming name. A grid is a non-empty
    list of values, each passed through rule; a key whose default is None may
    be left unset with none or null."""

    default: object
    rule: Callable
    grid: bool = False

    def read(self, name: str, raw):
        value = _parse_scalar(raw)
        if self.default is None and value in (None, "none"):
            return None
        if self.grid:
            return list(grid_of(name, _items(raw), self.rule))
        return self.rule(name, value)


SCHEMA: dict[str, FieldSpec] = {
    "seed": FieldSpec(0, _int(0)),  # a SeedSequence entropy
    "output_dir": FieldSpec(None, _string),
    # synthetic latent sources
    "generator.m": FieldSpec(10, _int(2)),
    "generator.series_length": FieldSpec(120, _int(1)),
    "generator.amplitude_variance": FieldSpec(100.0, _real(0, strict=True)),
    "generator.smoothing_scale": FieldSpec(10.0, kernel_scale),
    # sampling model
    "model.delta_max": FieldSpec(10, _int(0)),
    "model.noise_family": FieldSpec("gaussian", partial(one_of, options=_NOISE_FAMILIES)),
    "model.noise_sigma": FieldSpec(1.0, _real(0)),
    # entries as read; load_config passes them to source_weights with generator.m
    "model.weights": FieldSpec(None, lambda name, value: value, grid=True),
    # voting classifier
    "voting.gamma": FieldSpec(0.125, _real(0)),
    "voting.theta": FieldSpec(1.0, _real(0, strict=True)),
    "voting.T": FieldSpec(100, _int(1)),
    "voting.delta_max": FieldSpec(10, _int(0)),
    "voting.shift_mode": FieldSpec("min", partial(one_of, options=_SHIFT_MODES)),
    # rate preprocessing
    "pipeline.alpha": FieldSpec(1.2, _real(1)),
    "pipeline.t_smooth": FieldSpec(80, _int(1)),
    "pipeline.log_floor": FieldSpec(1e-12, _real(0, strict=True)),
    # synthetic error-curve experiments
    "experiment.beta": FieldSpec(8.0, _real(1, strict=True)),
    "experiment.t_grid": FieldSpec([10, 20, 40, 70, 100], _int(1), grid=True),
    "experiment.beta_grid": FieldSpec([2.0, 4.0, 6.0, 8.0], _real(1, strict=True), grid=True),
    "experiment.test_size": FieldSpec(200, _int(1)),
    "experiment.trials": FieldSpec(20, _int(1)),
    "experiment.mode": FieldSpec("both", partial(one_of, options=("T", "beta", "both"))),
    # online detection
    "detection.h_hours": FieldSpec(1.0, _real(0, strict=True)),
    # retired; it stays, unset, so manifests and their config hashes are unchanged
    "detection.window_hours": FieldSpec(None, _retired),
    "detection.T": FieldSpec(12, _int(1)),
    "detection.gamma": FieldSpec(1.0, _real(0)),
    "detection.theta": FieldSpec(1.0, _real(0, strict=True)),
    "detection.bucket_width_minutes": FieldSpec(2.0, _real(0, strict=True)),
    "detection.delta_max": FieldSpec(None, _int(0)),
    # sweep grids; an unset grid sweeps the single setting above
    "detection.gamma_grid": FieldSpec(None, _real(0), grid=True),
    "detection.t_grid": FieldSpec(None, _int(1), grid=True),
    "detection.t_smooth_grid": FieldSpec(None, _int(1), grid=True),
    "detection.h_grid": FieldSpec(None, _real(0, strict=True), grid=True),
    "detection.theta_grid": FieldSpec(None, _real(0, strict=True), grid=True),
    # synthetic detection corpus
    "corpus.n_trends": FieldSpec(200, _int(2)),  # split_topics halves each class
    "corpus.n_non_trends": FieldSpec(200, _int(2)),
    "corpus.length": FieldSpec(240, _int(1)),
    "corpus.base_rate": FieldSpec(50.0, _real(0, strict=True)),
    "corpus.burst_scale": FieldSpec(6.0, _real(0, strict=True)),
    "corpus.ramp_buckets": FieldSpec(30, _int(1)),
    "corpus.n_patterns": FieldSpec(4, pattern_count),
    "corpus.onset_low": FieldSpec(90, _int(1)),
    "corpus.onset_high": FieldSpec(150, _int(1)),
    "corpus.noise_frac": FieldSpec(0.12, _real(0)),
    "corpus.bump_scale": FieldSpec(0.8, _real(0)),
    # closed-form bounds
    "bounds.m": FieldSpec(4, _int(1)),
    "bounds.m_plus": FieldSpec(2, _int(0)),
    "bounds.m_minus": FieldSpec(2, _int(0)),
    "bounds.n": FieldSpec(10, _int(1)),
    "bounds.beta": FieldSpec(2.0, _real(1, strict=True)),
    "bounds.sigma": FieldSpec(1.0, _real(0, strict=True)),
    "bounds.gamma": FieldSpec(0.125, _real(0)),
    "bounds.theta": FieldSpec(1.0, _real(0, strict=True)),
    "bounds.delta_max": FieldSpec(0, _int(0)),
    "bounds.gap": FieldSpec(32.0, _real(0)),
    "bounds.delta": FieldSpec(0.05, failure_probability),
    "bounds.g_star": FieldSpec(None, _real(0)),
    "bounds.T": FieldSpec(None, _int(1)),
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


@contextmanager
def _naming(key: str):
    """Turns a ParamError in its body into the ConfigError "field '<key>': ..."."""
    try:
        yield
    except ParamError as exc:
        raise ConfigError(f"field {key!r}: {exc}") from None


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
    try:
        for key, spec in SCHEMA.items():
            values[key] = spec.read(key.rsplit(".", 1)[-1], raw.get(key, spec.default))
    except ParamError as exc:
        raise ConfigError(f"field {key!r}: {exc}") from None
    if values["model.weights"] is not None:
        with _naming("model.weights"):
            weights = source_weights("weights", values["model.weights"], values["generator.m"])
        values["model.weights"] = list(weights)
    if values["corpus.onset_low"] > values["corpus.onset_high"]:
        raise ConfigError("field 'corpus.onset_low': must not exceed corpus.onset_high")
    if values["corpus.onset_high"] > values["corpus.length"]:
        raise ConfigError("field 'corpus.onset_high': must not exceed corpus.length")
    with _naming("bounds.m"):
        class_sizes(values["bounds.m"], values["bounds.m_plus"], values["bounds.m_minus"])
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
    # every key passed load_config, so ExperimentConfig can refuse only its series
    # length, which only experiment observes: generate may well draw shorter series
    # than t_grid's default needs
    with _naming("experiment.t_grid"):
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
        with _naming(h_key):
            half = window_buckets(h, width)
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
