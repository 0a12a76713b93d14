"""Per-layer spans and counters, recorded from outside tsvote.

Each traced function is replaced wherever tsvote looks it up: in every tsvote
module namespace that binds it (``experiments`` imports ``preprocess`` by
name, so patching ``tsvote.pipeline`` alone would record nothing), in
module-level dispatch tables such as ``cli._HANDLERS``, and on the class for
methods. ``Tracer.uninstall`` puts every original back, so untraced passes run
the unmodified program.

Spans (name, parent, start, end) and counters stay in memory; the caller
writes them out at the end of the run. Work counts labelled "computed" are
derived from array shapes (float64, cache effects ignored), so they repeat
exactly between runs of the same inputs.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _model_files(directory) -> int:
    d = Path(directory)
    return _size(d / "model.json") + _size(d / "sources.jsonl")


def _digest(a) -> str:
    a = np.ascontiguousarray(a)
    return hashlib.sha1(str(a.shape).encode() + a.tobytes()).hexdigest()


# --- hooks: called after a recorded call with (tracer, bound arguments) -------


def _dataset_key(tracer, data) -> str:
    """Content fingerprint of a LabeledDataset, cached per object for one pass."""
    hit = tracer.fingerprints.get(id(data))
    if hit is None:
        h = hashlib.sha1(f"{data.n_pos}/{data.n_neg}".encode())
        for ts in data.examples():
            h.update(str(ts.start_index).encode())
            h.update(ts.values.tobytes())
        hit = (data, h.hexdigest())  # holding data keeps id() from being reused
        tracer.fingerprints[id(data)] = hit
    return hit[1]


def _kernel_build(tracer, a):
    p = a["params"]
    key = (_dataset_key(tracer, a["data"]), p.gamma, p.T, p.delta_max, p.shift_mode)
    tracer.kernel_keys[id(a["self"])] = (a["self"], key)
    tracer.useful("classify.kernel_build", key)


def _shift_sq_dists(tracer, a):
    k = a["self"]
    cells = k.n * (2 * k.params.delta_max + 1) * k.params.T
    tracer.count("classify.shift_sq_dists.cells", cells)
    # the difference and its square are two float64 temporaries of n*S*T cells
    tracer.count("classify.shift_sq_dists.bytes", 2 * 8 * cells)


def _log_lambda_many(tracer, a):
    k = a["self"]
    obs = np.asarray(a["observations"])
    S = 2 * k.params.delta_max + 1
    tracer.count("classify.log_lambda_many.cells", k.n * S * obs.shape[0] * k.params.T)
    kernel_key = tracer.kernel_keys.get(id(k), (None, id(k)))[1]
    tracer.useful("classify.log_lambda_many", (kernel_key, _digest(obs)))


def _preprocess(tracer, a):
    rho = a["rho"]
    tracer.useful("pipeline.preprocess", (rho.topic_id, _digest(rho.counts), a["params"]))


def _gap(tracer, a):
    data, S = a["data"], 2 * int(a["delta_max"]) + 1
    tracer.count("gapbounds.gap.pairs", (data.n_pos * S) * (data.n_neg * S))


def _bytes_of(arg, measure=_size):
    def hook(tracer, a):
        tracer.count(tracer.current_name + ".bytes", measure(a[arg]))

    return hook


# (span name, module, attribute, hook). Several attributes may share one name.
SPANS = [
    ("synth.make_latent_sources", "tsvote.synth", "make_latent_sources", None),
    ("synth.sample_series", "tsvote.synth", "sample_series", None),
    ("classify.kernel_build", "tsvote.classify", "VotingKernel.__init__", _kernel_build),
    ("classify.shift_sq_dists", "tsvote.classify", "VotingKernel.shift_sq_dists", _shift_sq_dists),
    ("classify.vote", "tsvote.classify", "VotingKernel._gwmv_from_dists", None),
    ("classify.vote", "tsvote.classify", "VotingKernel._knn_from_dists", None),
    ("classify.log_lambda_many", "tsvote.classify", "VotingKernel.log_lambda_many", _log_lambda_many),
    ("classify.map_build", "tsvote.classify", "MapKernel.__init__", None),
    ("classify.map", "tsvote.classify", "MapKernel.classify", None),
    ("classify.map", "tsvote.classify", "MapKernel.log_lambda", None),
    ("classify.classify_gwmv", "tsvote.classify", "classify_gwmv", None),
    ("classify.classify_knn", "tsvote.classify", "classify_knn", None),
    ("classify.nearest_neighbor", "tsvote.classify", "nearest_neighbor", None),
    ("classify.classify_map", "tsvote.classify", "classify_map", None),
    ("pipeline.preprocess", "tsvote.pipeline", "preprocess", _preprocess),
    ("pipeline.slice_training_window", "tsvote.pipeline", "slice_training_window", None),
    ("experiments.error_vs_T", "tsvote.experiments", "error_vs_T", None),
    ("experiments.error_vs_beta", "tsvote.experiments", "error_vs_beta", None),
    ("experiments.roc_sweep", "tsvote.experiments", "roc_sweep", None),
    ("experiments.make_detection_corpus", "tsvote.experiments", "make_detection_corpus", None),
    ("experiments.split_topics", "tsvote.experiments", "split_topics", None),
    ("experiments.prepare_training", "tsvote.experiments", "prepare_training", None),
    ("experiments.detect_online", "tsvote.experiments", "detect_online", None),
    ("gapbounds.gap", "tsvote.gapbounds", "gap", _gap),
    ("dataio.write", "tsvote.dataio", "write_jsonl", _bytes_of("path")),
    ("dataio.write", "tsvote.dataio", "write_dataset", _bytes_of("path")),
    ("dataio.write", "tsvote.dataio", "write_model", _bytes_of("directory", _model_files)),
    ("dataio.write", "tsvote.dataio", "write_manifest", _bytes_of("path")),
    ("dataio.write", "tsvote.dataio", "write_rates", _bytes_of("path")),
    ("dataio.read", "tsvote.dataio", "read_jsonl", _bytes_of("path")),
    ("dataio.read", "tsvote.dataio", "read_dataset", _bytes_of("path")),
    ("dataio.read", "tsvote.dataio", "read_series_file", _bytes_of("path")),
    ("dataio.read", "tsvote.dataio", "read_model", _bytes_of("directory", _model_files)),
    ("dataio.read", "tsvote.dataio", "read_rates", _bytes_of("path")),
    ("dataio.read", "tsvote.dataio", "read_rate_csv", _bytes_of("path")),
    ("config.load_config", "tsvote.config", "load_config", None),
    ("cli.generate", "tsvote.cli", "cmd_generate", None),
    ("cli.gap", "tsvote.cli", "cmd_gap", None),
    ("cli.classify", "tsvote.cli", "cmd_classify", None),
    ("cli.bounds", "tsvote.cli", "cmd_bounds", None),
    ("cli.experiment", "tsvote.cli", "cmd_experiment", None),
    ("cli.detect", "tsvote.cli", "cmd_detect", None),
]

# Called too often for a span each: counted only.
COUNTS = [("core.window", "tsvote.core", "TimeSeries.window")]


class Tracer:
    """Records spans and counters while installed; one ``reset`` per pass."""

    def __init__(self):
        self._patches = []  # (namespace or class, key, original)
        self.reset()

    def reset(self) -> None:
        self.spans = []  # [name, parent index, start, end]
        self.stack = []
        self.counters = Counter()
        self.keys = defaultdict(set)
        self.fingerprints = {}
        self.kernel_keys = {}

    @property
    def current_name(self) -> str:
        return self.spans[self.stack[-1]][0]

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def useful(self, name: str, key) -> None:
        self.keys[name].add(key)

    # --- patching -------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for name, module, attr, hook in SPANS:
            self._patch(module, attr, lambda fn, n=name, h=hook: self._span_wrapper(n, fn, h))
        for name, module, attr in COUNTS:
            self._patch(module, attr, lambda fn, n=name: self._count_wrapper(n, fn))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches = []

    def _patch(self, module: str, attr: str, make) -> None:
        mod = importlib.import_module(module)
        if "." in attr:  # a method: patch it on the class that defines it
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, make(original))
            self._patches.append((cls, meth, original))
            return
        original = getattr(mod, attr)
        wrapper = make(original)
        for ns, key in _bindings(original):
            ns[key] = wrapper
            self._patches.append((ns, key, original))

    def _span_wrapper(self, name, fn, hook):
        sig = inspect.signature(fn) if hook else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self.stack
            # nested calls under one layer name (write_dataset -> write_jsonl)
            # belong to the outer span
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                if hook is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(self, bound.arguments)
                stack.pop()

        return wrapper

    def _count_wrapper(self, name, fn):
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            self.counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- aggregation ----------------------------------------------------------

    def flat(self) -> dict:
        """This pass as metric name -> value: per span name its calls, inclusive
        seconds (``.s``) and self seconds, then counters and useful ratios."""
        child = [0.0] * len(self.spans)
        for _, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        flat = defaultdict(int)
        for (name, _, t0, t1), c in zip(self.spans, child):
            flat[f"{name}.calls"] += 1
            flat[f"{name}.s"] += t1 - t0
            flat[f"{name}.self_s"] += (t1 - t0) - c
        flat["experiments.self_s"] = sum(
            v for k, v in flat.items() if k.startswith("experiments.") and k.endswith(".self_s")
        )
        flat.update(self.counters)
        for name, keys in self.keys.items():
            calls = flat[f"{name}.calls"]
            flat[f"{name}.distinct"] = len(keys)
            flat[f"{name}.useful_ratio"] = len(keys) / calls if calls else 0.0
        return dict(flat)

    def span_records(self) -> list:
        return [
            {"id": i, "name": n, "parent": p, "start": t0, "end": t1}
            for i, (n, p, t0, t1) in enumerate(self.spans)
        ]


def _bindings(original):
    """Every (namespace, key) inside tsvote that binds ``original``."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if modname != "tsvote" and not modname.startswith("tsvote."):
            continue
        for key, value in vars(mod).items():
            if value is original:
                found.append((vars(mod), key))
            elif type(value) is dict:  # dispatch tables such as cli._HANDLERS
                found.extend((value, k) for k, v in value.items() if v is original)
    if not found:
        raise LookupError(f"{original!r} is bound nowhere in tsvote")
    return found


def is_time(name: str) -> bool:
    return name.endswith(".s") or name.endswith("self_s")


def _layer(name: str) -> tuple:
    """(metric, unit, better) for one per-layer metric name."""
    if is_time(name):
        return name, "s", "lower"
    if name.endswith("useful_ratio"):
        return name, "ratio", "higher"
    if name.endswith(".bytes"):
        return name, "bytes", "lower"
    if name == "trace.overhead_frac":
        return name, "ratio", "lower"
    return name, "count", "lower"  # calls, and computed cells / pairs


# The per-layer metrics a traced run reports, in BENCHMARK.json order.
PER_LAYER = [
    _layer(n)
    for n in """
    core.window.calls
    synth.make_latent_sources.calls synth.make_latent_sources.s
    synth.sample_series.calls synth.sample_series.s
    classify.shift_sq_dists.calls classify.shift_sq_dists.s
    classify.shift_sq_dists.cells classify.shift_sq_dists.bytes
    classify.vote.calls classify.vote.s
    classify.kernel_build.calls classify.kernel_build.s classify.kernel_build.useful_ratio
    classify.log_lambda_many.calls classify.log_lambda_many.s
    classify.log_lambda_many.cells classify.log_lambda_many.useful_ratio
    classify.map_build.calls classify.map_build.s classify.map.calls classify.map.s
    classify.classify_gwmv.s classify.classify_knn.s
    classify.nearest_neighbor.s classify.classify_map.s
    pipeline.preprocess.calls pipeline.preprocess.s pipeline.preprocess.useful_ratio
    pipeline.slice_training_window.calls pipeline.slice_training_window.s
    experiments.error_vs_T.s experiments.error_vs_beta.s
    experiments.roc_sweep.s experiments.make_detection_corpus.s
    experiments.prepare_training.calls experiments.prepare_training.s
    experiments.detect_online.calls experiments.detect_online.s
    experiments.detect_online.self_s experiments.self_s
    gapbounds.gap.calls gapbounds.gap.s gapbounds.gap.pairs
    dataio.read.calls dataio.read.s dataio.read.bytes
    dataio.write.calls dataio.write.s dataio.write.bytes
    config.load_config.calls config.load_config.s
    cli.generate.s cli.gap.s cli.classify.s cli.bounds.s cli.experiment.s cli.detect.s
    trace.overhead_frac
    """.split()
]
