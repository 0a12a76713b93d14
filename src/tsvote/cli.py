"""Command-line entry point.

Subcommands: generate, classify, preprocess, gap, bounds, experiment, detect.
Diagnostics go to stderr, data to files and stdout. Exit codes: 0 success,
1 validation, 2 IO, 3 numeric precondition. classify reads the window of
every series, scores the windows in core.blocks and prints the verdicts only
once all are known, so a file that fails prints none.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import dataio
from .classify import MapKernel, VotingKernel
from .core import Label, blocks, stacked_windows
from .errors import (
    ConfigError,
    EmptyPrefixError,
    ParamError,
    ProvenanceError,
    SupportError,
)
from .experiments import (
    error_curves,
    make_detection_corpus,
    roc_sweep,
    split_topics,
)
from .gapbounds import (
    gap,
    gaussian_conditions,
    is_vacuous,
    nn_bound,
    required_gap,
    wmv_bound,
    wmv_rate,
)
from .pipeline import preprocess, slice_training_window
from .synth import make_latent_sources, sample_dataset, training_size


# flags that are shorthand for one config key; appended after --set, so a flag wins
_FLAG_KEYS = {
    "seed": "seed",
    "out": "output_dir",
    "mode": "experiment.mode",
    "slice_hours": "detection.h_hours",
    **{flag: f"voting.{flag}" for flag in ("gamma", "theta", "T", "delta_max", "shift_mode")},
}


def _load(args) -> cfgmod.RunConfig:
    overrides = list(args.set or [])
    for flag, key in _FLAG_KEYS.items():
        value = getattr(args, flag, None)
        if value is not None:
            overrides.append(f"{key}={value}")
    return cfgmod.load_config(args.config, overrides)


def _out_dir(cfg: cfgmod.RunConfig) -> Path:
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(doc: dict) -> None:
    sys.stdout.write(dataio.dumps_canonical(doc) + "\n")


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(dataio.dumps_canonical(doc) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: list, rows: list) -> None:
    with path.open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    cfg = _load(args)
    test_length = cfg["generator.series_length"] - 2 * cfg["model.delta_max"]
    if test_length < 1:
        raise ConfigError(
            "field 'generator.series_length': must exceed 2 * model.delta_max "
            f"(got {cfg['generator.series_length']} vs delta_max={cfg['model.delta_max']})"
        )
    out = _out_dir(cfg)
    model = make_latent_sources(
        cfgmod.generator_config(cfg),
        delta_max=cfg["model.delta_max"],
        noise=cfgmod.noise_spec(cfg),
        weights=cfg["model.weights"],
    )
    n_train = training_size(cfg["experiment.beta"], model.m)
    root = np.random.SeedSequence(cfg["seed"])
    train_ss, test_ss = root.spawn(2)
    train = sample_dataset(model, n_train, train_ss, id_prefix="train")
    test = sample_dataset(
        model,
        cfg["experiment.test_size"],
        test_ss,
        window_start=1,
        window_length=test_length,
        id_prefix="test",
    )
    dataio.write_model(out, model)
    dataio.write_dataset(out / "train.jsonl", train)
    dataio.write_dataset(out / "test.jsonl", test)
    manifest = dataio.write_manifest(
        out / "manifest.json",
        seed=cfg["seed"],
        config=cfg.science_dict(),
        counts={
            "m": model.m,
            "m_plus": model.m_pos,
            "m_minus": model.m_neg,
            "n_train": train.n,
            "n_train_pos": train.n_pos,
            "n_train_neg": train.n_neg,
            "n_test": test.n,
        },
        files={
            "model": "model.json",
            "sources": "sources.jsonl",
            "train": "train.jsonl",
            "test": "test.jsonl",
        },
    )
    _emit({"command": "generate", "output_dir": str(out), "manifest": manifest})
    return 0


def cmd_classify(args) -> int:
    cfg = _load(args)
    params = cfgmod.voting_params(cfg)
    method = args.method
    train = dataio.read_dataset(args.train) if args.train else None
    model = dataio.read_model(args.model) if args.model else None
    if method in ("wmv", "nn", "knn") and train is None:
        raise ConfigError(f"--method {method} needs --train")
    if method == "map" and model is None:
        raise ConfigError("--method map needs --model")
    series = dataio.read_series_file(args.series)
    kernel = MapKernel(model, params) if method == "map" else VotingKernel(train, params)
    k = None if method in ("wmv", "map") else 1 if method == "nn" else args.k
    # every window is read, so a short series raises, before any verdict is out
    windows = stacked_windows([ts for ts, _ in series], 1, params.T)
    examples = train.examples() if train is not None else ()
    lines = []  # each verdict encoded once, for stdout and verdicts.jsonl
    for b in blocks(len(series), kernel.width):
        if method == "map":
            outcomes, nearest = kernel.classify_block(windows[b]), None
        else:
            outcomes, nearest = kernel.verdict_and_nearest_block(windows[b], k)
        for p, (ts, _) in enumerate(series[b]):
            outcome = outcomes.row(p)
            nn_id, nn_dist = None, None
            if nearest is not None:
                idx, nn_dist, _ = nearest.row(p)
                nn_id = examples[idx].id
            lines.append(dataio.dumps_canonical({
                "schema_version": dataio.SCHEMA_VERSION,
                "id": ts.id,
                "method": method,
                "label": int(outcome.label),
                "log_lambda": outcome.log_lambda,
                "log_votes_pos": outcome.per_class_log_votes[0],
                "log_votes_neg": outcome.per_class_log_votes[1],
                "nearest_id": nn_id,
                "nearest_distance": nn_dist,
            }) + "\n")
    text = "".join(lines)
    sys.stdout.write(text)
    (_out_dir(cfg) / "verdicts.jsonl").write_text(text, encoding="utf-8")
    return 0


def cmd_preprocess(args) -> int:
    cfg = _load(args)
    params = cfgmod.pipeline_params(cfg)
    if args.csv:
        rates = [
            dataio.read_rate_csv(
                args.csv,
                bucket_width_minutes=cfg["detection.bucket_width_minutes"],
                topic_id=args.topic_id or "",
                onset_index=args.onset_index,
            )
        ]
    elif args.rates:
        rates = dataio.read_rates(args.rates)
    else:
        raise ConfigError("preprocess needs --rates or --csv")
    records, csv_rows = [], []
    slice_streams = np.random.SeedSequence(cfg["seed"]).spawn(len(rates))
    for i, rate in enumerate(rates):
        series = preprocess(rate, params)
        if args.slice_mode != "none":
            anchor = rate.onset_index if args.slice_mode == "pre_onset" else 0
            if args.slice_mode == "pre_onset" and anchor is None:
                raise ConfigError(f"topic {rate.topic_id!r}: pre_onset slicing needs onset_index")
            series = slice_training_window(
                series,
                anchor,
                cfg["detection.h_hours"],
                rate.bucket_width_minutes,
                args.slice_mode,
                rng_stream=slice_streams[i],
            )
        label = Label.POSITIVE if rate.onset_index is not None else None
        records.append(dataio.series_to_record(series, label))
        csv_rows.extend(
            (series.id, series.start_index + k, float(v)) for k, v in enumerate(series.values)
        )
    out = _out_dir(cfg)
    dataio.write_jsonl(out / "preprocessed.jsonl", records)
    _write_csv(out / "preprocessed.csv", ["topic_id", "t", "value"], csv_rows)
    _emit({"command": "preprocess", "topics": len(records), "output_dir": str(out)})
    return 0


def cmd_gap(args) -> int:
    cfg = _load(args)
    data = dataio.read_dataset(args.train)
    T, delta_max = cfg["voting.T"], cfg["voting.delta_max"]
    value = gap(data, T, delta_max)
    doc = {
        "schema_version": dataio.SCHEMA_VERSION,
        "command": "gap",
        "gap": value,
        "T": T,
        "delta_max": delta_max,
        "n_pos": data.n_pos,
        "n_neg": data.n_neg,
    }
    out = _out_dir(cfg)
    _write_json(out / "gap.json", doc)
    _write_csv(out / "gap.csv", ["T", "delta_max", "gap"], [[T, delta_max, value]])
    _emit(doc)
    return 0


def cmd_bounds(args) -> int:
    cfg = _load(args)
    out = _out_dir(cfg)
    inputs = cfgmod.bound_inputs(cfg)
    wmv = wmv_bound(inputs)
    nn = nn_bound(inputs)
    req = None
    if wmv_rate(inputs.gamma, inputs.sigma) > 0.0:
        req = required_gap(
            inputs.theta,
            inputs.m_plus,
            inputs.m_minus,
            inputs.m,
            inputs.delta_max,
            inputs.n,
            cfg["bounds.delta"],
            inputs.gamma,
            inputs.sigma,
        )
    conditions = None
    if cfg["bounds.g_star"] is not None and cfg["bounds.T"] is not None:
        report = gaussian_conditions(
            inputs.n,
            inputs.m,
            inputs.sigma,
            cfg["bounds.delta"],
            cfg["bounds.g_star"],
            cfg["bounds.T"],
        )
        conditions = {
            "n_ok": report.n_ok,
            "g_star_ok": report.g_star_ok,
            "t_ok": report.t_ok,
            "all_ok": report.all_ok,
            "n_threshold": report.n_threshold,
            "g_star_threshold": report.g_star_threshold,
            "t_threshold": report.t_threshold,
        }
    doc = {
        "schema_version": dataio.SCHEMA_VERSION,
        "command": "bounds",
        "wmv_bound": wmv,
        "wmv_vacuous": is_vacuous(wmv),
        "nn_bound": nn,
        "nn_vacuous": is_vacuous(nn),
        "required_gap": req,
        "conditions": conditions,
        "inputs": {**asdict(inputs), "delta": cfg["bounds.delta"]},
    }
    _write_json(out / "bounds.json", doc)
    _write_csv(
        out / "bounds.csv",
        ["wmv_bound", "nn_bound", "required_gap"],
        [[wmv, nn, req if req is not None else ""]],
    )
    _emit(doc)
    return 0


def _curves_doc(curves) -> dict:
    return {
        "axis_name": curves.axis_name,
        "axis": list(curves.axis),
        "classifiers": {
            clf: {
                "mean": [float(x) for x in curves.mean(clf)],
                "std": [float(x) for x in curves.std(clf)],
            }
            for clf in sorted(curves.per_trial)
        },
    }


def cmd_experiment(args) -> int:
    cfg = _load(args)
    exp_cfg = cfgmod.experiment_config(cfg)
    out = _out_dir(cfg)
    mode = cfg["experiment.mode"]
    doc = {"schema_version": dataio.SCHEMA_VERSION, "command": "experiment", "mode": mode}
    axes = ("T", "beta") if mode == "both" else (mode,)
    for name, curves in error_curves(exp_cfg, axes).items():
        doc[f"curves_{name}"] = _curves_doc(curves)
        _write_csv(
            out / f"curves_{name}.csv",
            [curves.axis_name, "classifier", "mean_error", "std_error"],
            [list(row) for row in curves.rows()],
        )
    _write_json(out / "experiment.json", doc)
    _emit(doc)
    return 0


def cmd_detect(args) -> int:
    cfg = _load(args)
    grid, det_cfg = cfgmod.sweep_grid(cfg), cfgmod.detection_config(cfg)
    if args.trends or args.non_trends:
        if not (args.trends and args.non_trends):
            raise ConfigError("provide both --trends and --non-trends, or neither")
        trends = dataio.read_rates(args.trends)
        non_trends = dataio.read_rates(args.non_trends)
    else:
        trends, non_trends = make_detection_corpus(cfgmod.corpus_config(cfg))
    root = np.random.SeedSequence(cfg["seed"])
    split_ss, sweep_ss = root.spawn(2)
    training, corpus = split_topics(trends, non_trends, split_ss)
    sweep_seed = int(sweep_ss.generate_state(1, np.uint64)[0])
    result = roc_sweep(corpus, training, grid, det_cfg, seed=sweep_seed)
    detection_rows = [
        {"grid_index": gi, **vars(r), "truth": int(r.truth)}
        for gi, results in enumerate(result.results)
        for r in results
    ]
    doc = {
        "schema_version": dataio.SCHEMA_VERSION,
        "command": "detect",
        "points": [{**vars(point)} for point in result.points],
        "envelope": [[f, t] for f, t in result.envelope()],
        "n_train": len(training),
        "n_test": len(corpus),
    }
    out = _out_dir(cfg)
    _write_json(out / "roc.json", doc)
    _write_csv(
        out / "roc.csv",
        ["gamma", "T", "t_smooth", "h_hours", "theta", "fpr", "tpr", "mean_relative_minutes"],
        [
            [
                p.params["gamma"],
                p.params["T"],
                p.params["t_smooth"],
                p.params["h_hours"],
                p.params["theta"],
                p.fpr,
                p.tpr,
                p.mean_relative_minutes if p.mean_relative_minutes is not None else "",
            ]
            for p in result.points
        ],
    )
    dataio.write_jsonl(out / "detections.jsonl", detection_rows)
    summary = {
        "command": "detect",
        "points": len(result.points),
        "best_tpr": max((p.tpr for p in result.points), default=0.0),
        "output_dir": str(out),
    }
    _emit(summary)
    return 0


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on first use: parse_args leaves it as it
    was, each call filling a namespace of its own."""
    return build_parser()


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one config field (repeatable)",
    )
    common.add_argument("--seed", type=int, help="override the root seed")
    common.add_argument("--out", help="override the output directory")

    parser = argparse.ArgumentParser(
        prog="tsvote",
        description="Time series classification by shift-minimized weighted voting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("generate", parents=[common], help="write a synthetic model and datasets")

    p = sub.add_parser("classify", parents=[common], help="classify series against a dataset")
    p.add_argument("--train", help="training dataset JSONL")
    p.add_argument("--model", help="directory with model.json and sources.jsonl (for map)")
    p.add_argument("--series", required=True, help="series to classify (JSONL)")
    p.add_argument("--method", choices=("wmv", "nn", "knn", "map"), default="wmv")
    p.add_argument("--k", type=_positive_int, default=1, help="neighbors for --method knn")
    p.add_argument("--gamma", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("--T", type=int)
    p.add_argument("--delta-max", dest="delta_max", type=int)
    p.add_argument("--shift-mode", dest="shift_mode", choices=("min", "sum"))

    p = sub.add_parser("preprocess", parents=[common], help="run the rate pipeline")
    p.add_argument("--rates", help="rate series JSONL (many topics)")
    p.add_argument("--csv", help="single-topic t,value CSV")
    p.add_argument("--topic-id", dest="topic_id")
    p.add_argument("--onset-index", dest="onset_index", type=int)
    p.add_argument(
        "--slice-mode",
        dest="slice_mode",
        choices=("none", "pre_onset", "random"),
        default="none",
    )
    p.add_argument("--slice-hours", dest="slice_hours", type=float)

    p = sub.add_parser("gap", parents=[common], help="class separation of a dataset")
    p.add_argument("--train", required=True)
    p.add_argument("--T", type=int)
    p.add_argument("--delta-max", dest="delta_max", type=int)

    sub.add_parser("bounds", parents=[common], help="closed-form bound values and conditions")

    p = sub.add_parser("experiment", parents=[common], help="synthetic error curves")
    p.add_argument("--mode", choices=("T", "beta", "both"))

    p = sub.add_parser("detect", parents=[common], help="online detection ROC sweep")
    p.add_argument("--trends", help="trend rate JSONL (default: synthetic corpus)")
    p.add_argument("--non-trends", dest="non_trends", help="non-trend rate JSONL")

    return parser


_HANDLERS = {
    "generate": cmd_generate,
    "classify": cmd_classify,
    "preprocess": cmd_preprocess,
    "gap": cmd_gap,
    "bounds": cmd_bounds,
    "experiment": cmd_experiment,
    "detect": cmd_detect,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except (SupportError, ParamError, EmptyPrefixError, ProvenanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
