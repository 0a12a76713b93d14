"""Serialization: JSONL series files, CSV rate import, manifests.

One JSON object per line, keys sorted, no timestamps: identical inputs produce
byte-identical files.

A malformed JSONL record, invalid JSON or a field its type refuses, raises
ConfigError("<path>:<line>: ...") with its line in the file; a refused rate
CSV count raises ConfigError("<path>: bad rate record (...)"), and a refused
model.json field, its weights among them, ConfigError("<path>: bad model
record (...)"). An input file with no records raises a ConfigError that
names it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .core import Label, LabeledDataset, Provenance, TimeSeries, integer_at_least
from .errors import ConfigError, ParamError
from .pipeline import RateSeries
from .synth import LatentSourceModel, NoiseSpec

SCHEMA_VERSION = 1
# one encoder for every record: json.dumps with these options would build one per call
dumps_canonical = json.JSONEncoder(sort_keys=True, ensure_ascii=True, separators=(",", ": ")).encode


def config_hash(config: dict) -> str:
    return hashlib.sha256(dumps_canonical(config).encode("utf-8")).hexdigest()


def write_jsonl(path, records: Iterable[dict]) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as f:
        for rec in records:
            f.write(dumps_canonical(rec))
            f.write("\n")


def read_jsonl(path) -> list[dict]:
    return _read_records(path, "JSON", lambda rec: rec)


def series_to_record(
    ts: TimeSeries, label: Optional[Label] = None, provenance: Optional[Provenance] = None
) -> dict:
    rec = {"id": ts.id, "start_index": ts.start_index, "values": [float(v) for v in ts.values]}
    if label is not None:
        rec["label"] = int(label)
    if provenance is not None:
        rec["source_index"] = provenance.source_index
        rec["shift"] = provenance.shift
    return rec


@contextlib.contextmanager
def _bad_record(where: str, kind: str):
    """Reraise a malformed record's error as ConfigError naming where:
    "<where>: bad <kind> record (...)", or "<where>: <message>" for a
    ConfigError of the record's own checks."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    except (KeyError, TypeError, ValueError, ParamError) as exc:
        raise ConfigError(f"{where}: bad {kind} record ({exc})") from exc


def _read_records(path, kind: str, convert) -> list:
    """convert(record) for each record of the JSONL file at path, in file order.
    A record is located by its line in the file, blank lines counted: invalid
    JSON and convert's errors both raise ConfigError("<path>:<line>: ...")."""
    path = Path(path)
    out = []
    with path.open("r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{where}: invalid JSON ({exc.msg})") from exc
            with _bad_record(where, kind):
                out.append(convert(rec))
    return out


def _integer(rec: dict, key: str, default=None) -> int:
    """rec[key] (default when absent, if given) by core.integer_at_least."""
    return integer_at_least(key, rec[key] if default is None else rec.get(key, default))


def record_to_series(rec: dict) -> tuple:
    """(TimeSeries, label or None, Provenance or None) from one JSONL record."""
    ts = TimeSeries(rec["start_index"], rec["values"], id=str(rec.get("id", "")))
    label = Label.from_int(rec["label"]) if "label" in rec else None
    prov = None
    if "source_index" in rec:
        prov = Provenance(_integer(rec, "source_index"), _integer(rec, "shift", 0))
    return ts, label, prov


def _read_series(path, unlabeled: str = "") -> list:
    """record_to_series of each record; one without a label raises ConfigError(unlabeled)."""

    def convert(rec):
        draw = record_to_series(rec)
        if unlabeled and draw[1] is None:
            raise ConfigError(unlabeled)
        return draw

    return _read_records(path, "series", convert)


def write_dataset(path, data: LabeledDataset) -> None:
    write_jsonl(path, [series_to_record(*draw) for draw in data.draws()])


def read_dataset(path) -> LabeledDataset:
    draws = _read_series(path, "dataset records must carry a label")
    if not draws:
        raise ConfigError(f"{path}: dataset file is empty")
    return LabeledDataset.from_draws(draws)


def read_series_file(path) -> list:
    """All (TimeSeries, label-or-None) pairs in a JSONL series file."""
    out = [(ts, label) for ts, label, _ in _read_series(path)]
    if not out:
        raise ConfigError(f"{path}: no series found")
    return out


def write_model(directory, model: LatentSourceModel) -> tuple:
    """Writes model.json and sources.jsonl under directory; returns the two paths."""
    directory = Path(directory)
    meta = {
        "schema_version": SCHEMA_VERSION,
        "delta_max": model.delta_max,
        "noise": {"family": model.noise.family, "sigma": model.noise.sigma},
        "weights": list(model.weights) if model.weights is not None else None,
        "window_start": model.window_start,
        "window_length": model.window_length,
    }
    meta_path = directory / "model.json"
    meta_path.write_text(dumps_canonical(meta) + "\n", encoding="utf-8")
    sources_path = directory / "sources.jsonl"
    write_jsonl(sources_path, [series_to_record(src, lab) for src, lab in model.sources])
    return meta_path, sources_path


def read_model(directory) -> LatentSourceModel:
    directory = Path(directory)
    meta_path = directory / "model.json"
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{meta_path}: invalid JSON ({exc.msg})") from exc
    sources_path = directory / "sources.jsonl"
    sources = _read_series(sources_path, "source records need a label")
    if not sources:
        raise ConfigError(f"{sources_path}: source file is empty")
    with _bad_record(str(meta_path), "model"):
        integers = {k: _integer(meta, k) for k in ("delta_max", "window_start", "window_length")}
        weights = meta.get("weights")
        return LatentSourceModel(
            sources=tuple((ts, label) for ts, label, _ in sources),
            noise=NoiseSpec(meta["noise"]["family"], meta["noise"]["sigma"]),
            weights=tuple(weights) if weights is not None else None,
            **integers,
        )


def rate_to_record(rate: RateSeries) -> dict:
    rec = {
        "topic_id": rate.topic_id,
        "bucket_width_minutes": rate.bucket_width_minutes,
        "counts": [float(c) for c in rate.counts],
    }
    if rate.onset_index is not None:
        rec["onset_index"] = rate.onset_index
    return rec


def record_to_rate(rec: dict) -> RateSeries:
    return RateSeries(rec["counts"], rec.get("bucket_width_minutes", 2.0),
                      str(rec.get("topic_id", "")), onset_index=rec.get("onset_index"))


def write_rates(path, rates: Sequence[RateSeries]) -> None:
    write_jsonl(path, [rate_to_record(r) for r in rates])


def read_rates(path) -> list[RateSeries]:
    rates = _read_records(path, "rate", record_to_rate)
    if not rates:
        raise ConfigError(f"{path}: no rate records found")
    return rates


def read_rate_csv(path, bucket_width_minutes: float = 2.0, topic_id: str = "",
                  onset_index: Optional[int] = None) -> RateSeries:
    """One topic from a t,value CSV; t must be consecutive integers."""
    path = Path(path)
    counts = []
    with path.open("r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        prev_t, header = None, True  # the first non-blank row may be a header
        for lineno, row in enumerate(reader, start=1):
            if not row or not row[0].strip():
                continue
            if header:
                header = False
                if not row[0].strip().lstrip("-").isdigit():
                    continue
            if len(row) < 2:
                raise ConfigError(f"{path}:{lineno}: expected 't,value' rows")
            try:
                t, value = int(row[0]), float(row[1])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
            if prev_t is not None and t != prev_t + 1:
                raise ConfigError(f"{path}:{lineno}: bucket index {t} is not {prev_t + 1}")
            prev_t = t
            counts.append(value)
    if not counts:
        raise ConfigError(f"{path}: no rate rows found")
    with _bad_record(str(path), "rate"):  # the file's counts; the arguments are the caller's
        rate = RateSeries(counts, topic_id=topic_id or path.stem)
    return replace(rate, bucket_width_minutes=bucket_width_minutes, onset_index=onset_index)


def write_manifest(path, seed: int, config: dict, counts: dict, files: dict) -> dict:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "config_hash": config_hash(config),
        "config": config,
        "counts": counts,
        "files": files,
    }
    Path(path).write_text(dumps_canonical(manifest) + "\n", encoding="utf-8")
    return manifest
