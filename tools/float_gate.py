"""Float-change gate: compare the per-example log vote ratios of two tsvote trees.

    python tools/float_gate.py PARENT_SRC CHANGE_SRC

Each src directory is imported in a process of its own. It first runs, unhooked,
`tsvote experiment` on configs/desk.cfg with 2 trials and `tsvote detect` on
configs/detect.cfg (15 shifts), again with detection.h_hours = 1.6 and
detection.T = 16 (33 shifts, more than core.SHIFT_GROUP), again with
detection.gamma_grid = [0.3, 1, 3, 10], and again on a grid of
detection.t_grid = [12, 15], detection.h_grid = [0.8, 1.0] and
detection.t_smooth_grid = [7, 20] (every (T, h) setting places its training
slices and test regions anew), and keeps the bytes of every file each
run writes, which must be byte-identical between the trees: experiment
certifies most labels from GEMM bounds and computes exact distances only for
the rows they leave undecided, and detect votes one block of trace distances
at every gamma, so neither calls the entry points below for every score.
Then it records every per-example log lambda: wmv from
VotingKernel.gwmv_block, nn from knn_block (k-NN of any k), map from
MapKernel.classify_block and trace from log_lambda_many; both trees must
have these block entry points. Values are kept under a (T, n, k) key per
stream (n is the training size, None for the oracle; k for nn only), in call
order within each key, so two trees that cut the same queries into different
blocks record the same sequence per key. The runs are a replay of that
experiment through the exact entry points (`replay_experiment`), a replay of
each of the four detect runs (`replay_detect`: every (gamma, T, t_smooth, h)
setting in that order, one log_lambda_many call per chunk of test topics, as
detect scored them before gammas shared distances; traces of 33 shifts sit
under a key of their own, and each comes from ShiftWindows.expansion_minimum,
one GEMM per shift that carries the window norms in a column of its own), one
pass of perfbench's PoolStream at seed 0, then nearest_neighbor, classify_knn (k = 5)
and classify_gwmv, in that order, on each of its queries (so k-NN and voting
read a shift minimum that another call computed), then sum-mode
log_lambda_many on the block of its queries (a trace stream key of its own,
n = 530: the only sum-mode traces), then `tsvote generate` on
configs/desk.cfg and `tsvote classify` of its test.jsonl with wmv, wmv
--shift-mode sum (which votes on ShiftWindows.grid), nn, knn --k 5 and map.

A fifth stream, min, records every ShiftWindows.minimum call of the same runs
under a (T, n, S) key: per query its n minimum distances over shifts, then its
n first minimizing shifts. The runs compute no class gap, so every call is per
series; the axis argument of older trees' minimum is passed through. These are
exact by contract, so the min stream must be byte-identical between the trees.
A call with k (`classify --method nn` and `knn`, which verify only the
examples that can be among a query's k nearest) records the minimum without
k, so the stream matches a tree that verified every example; its own result
must equal that minimum bit for bit wherever it is finite, and be finite at
every example among the k nearest.

Exits 1 unless the experiment and detect outputs and the min streams are byte-identical,
no call with k of either tree failed its check, and for the other streams
both trees record the same keys with the same number of values per key,
every value has |change - parent| <= 1e-12 max(1, |parent|), and every label
flip is a near-tie, |parent - log theta| <= 1e-9. The flip point
is 0 for wmv, nn and map (every run uses theta = 1) and each log theta of
detect.cfg for traces. A value that differs where either side is not finite
(k-NN with k = 1 gives +-inf) fails the gate and is counted on its own; the
largest relative change is reported over the pairs where both are finite.
Below each stream's line, every key with a value that differs is listed with
its count of differing values (for traces: which detect run moved).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import itertools
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
REL, NEAR_TIE = 1e-12, 1e-9
# stream: (class, block entry point)
HOOKS = {
    "wmv": ("VotingKernel", "gwmv_block"),
    "nn": ("VotingKernel", "knn_block"),
    "map": ("MapKernel", "classify_block"),
    "trace": ("VotingKernel", "log_lambda_many"),
}


def replay_experiment(cfg) -> None:
    """Score the trials of error_curves(cfg), both axes, through the exact
    block entry points, as `experiment` scored them before it certified
    labels: the same draws through make_latent_sources, sample_draws and
    stacked_windows; per trial and T, per chunk of tests, one min_dists_block
    against the largest pool and one MapKernel.classify_block; per pool size,
    gwmv_block and knn_block(d, 1) on its columns of the minimum."""
    from tsvote.classify import MapKernel, VotingKernel
    from tsvote.core import LabeledDataset, VotingParams, blocks, stacked_windows
    from tsvote.synth import make_latent_sources, sample_draws, training_size

    m, T_max = cfg.model_cfg.m, max(cfg.T_grid)
    cells = [(training_size(cfg.beta, m), T) for T in cfg.T_grid]
    cells = list(dict.fromkeys(cells + [(training_size(b, m), T_max) for b in cfg.beta_grid]))
    for trial_ss in np.random.SeedSequence(cfg.seed).spawn(cfg.trials):
        src_ss, train_ss, test_ss = trial_ss.spawn(3)
        seed = int(src_ss.generate_state(1, np.uint64)[0])
        model = make_latent_sources(
            dataclasses.replace(cfg.model_cfg, seed=seed), delta_max=cfg.delta_max,
            noise=cfg.noise(),
        )
        pool = sample_draws(model, max(n for n, _ in cells), train_ss)
        tests = sample_draws(model, cfg.test_size, test_ss, window_start=1,
                             window_length=T_max, id_prefix="test")
        observed = stacked_windows([s for s, _, _ in tests], 1, T_max)
        for T in dict.fromkeys(T for _, T in cells):
            params = VotingParams(cfg.gamma, T, cfg.delta_max, cfg.theta)
            sizes = sorted({n for n, t in cells if t == T})
            kernels = [VotingKernel(LabeledDataset.from_draws(pool[:n]), params) for n in sizes]
            pool_kernel, oracle = kernels[-1], MapKernel(model, params)
            pos = pool_kernel.n_pos
            for b in blocks(len(tests), pool_kernel.n):
                Q = np.ascontiguousarray(observed[b, :T])
                D = pool_kernel.min_dists_block(Q)[0]
                oracle.classify_block(Q)
                for kernel in kernels:
                    cols = np.r_[: kernel.n_pos, pos : pos + kernel.n - kernel.n_pos]
                    d = np.ascontiguousarray(D[:, cols])
                    kernel.gwmv_block(d)
                    kernel.knn_block(d, 1)


def replay_detect(cfg) -> None:
    """Score every (gamma, T, t_smooth, h) setting of `tsvote detect` on cfg,
    in that order, through log_lambda_many, as detect scored them before its
    gammas shared distances: the same corpus, split, training set and anchors,
    and one log_lambda_many call per core.blocks chunk of test topics."""
    from numpy.lib.stride_tricks import sliding_window_view

    from tsvote import Label
    from tsvote.config import corpus_config, detection_config, sweep_grid
    from tsvote.core import blocks
    from tsvote.experiments import (
        _detection_kernel,
        make_detection_corpus,
        prepare_training,
        split_topics,
    )
    from tsvote.pipeline import preprocess, window_buckets

    grid, base = sweep_grid(cfg), detection_config(cfg)
    trends, non_trends = make_detection_corpus(corpus_config(cfg))
    split_ss, sweep_ss = np.random.SeedSequence(cfg["seed"]).spawn(2)
    training, corpus = split_topics(trends, non_trends, split_ss)
    seed = int(sweep_ss.generate_state(1, np.uint64)[0])
    train_ss, anchor_ss = np.random.SeedSequence(seed).spawn(2)
    train_children, anchor_children = train_ss.spawn(len(training)), anchor_ss.spawn(len(corpus))
    bw = base.bucket_width_minutes
    for gamma, T, t_smooth, h in itertools.product(grid.gammas, grid.Ts, grid.t_smooths, grid.h_hours):
        pipeline = dataclasses.replace(base.pipeline, t_smooth=t_smooth)
        det = dataclasses.replace(base, h_hours=h, T=T, gamma=gamma, pipeline=pipeline)
        rngs = [np.random.default_rng(c) for c in train_children]
        kernel = _detection_kernel(prepare_training(training, det, rngs), det)
        half = window_buckets(h, bw)
        regions = []
        for (rate, label), child in zip(corpus, anchor_children):
            processed = preprocess(rate, pipeline)
            if label == Label.POSITIVE:
                anchor = rate.onset_index
            else:
                lo, hi = half + T, processed.end_index - half
                anchor = lo + int(np.random.default_rng(child).integers(0, hi - lo + 1))
            regions.append(processed.window(anchor - half - T + 1, anchor + half))
        views = sliding_window_view(np.stack(regions), T, axis=1)
        for b in blocks(len(regions), (2 * half + 1) * T):
            kernel.log_lambda_many(views[b].reshape(-1, T))


def tree_digests(directory: Path) -> dict:
    """sha256 of every file under directory, keyed by its relative path."""
    return {
        str(f.relative_to(directory)): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(directory.rglob("*")) if f.is_file()
    }


# detect runs: output name -> --set overrides of configs/detect.cfg
DETECT_RUNS = {
    "detect": [],
    "detect-wide": ["detection.h_hours=1.6", "detection.T=16"],
    "detect-gammas": ["detection.gamma_grid=[0.3,1,3,10]"],
    "detect-grid": [
        "detection.t_grid=[12,15]", "detection.h_grid=[0.8,1.0]", "detection.t_smooth_grid=[7,20]"
    ],
}


def record(src: str, path: str) -> None:
    """Run experiment and detect unhooked, then the hooked workloads, on the
    tsvote in src; write the output digests and the streams to path."""
    sys.path.insert(0, src)
    import tsvote.classify
    import tsvote.cli
    import tsvote.core
    from tsvote.config import experiment_config, load_config, sweep_grid

    desk, detect = ROOT / "configs" / "desk.cfg", ROOT / "configs" / "detect.cfg"

    def cli(*argv):
        if tsvote.cli.main([str(a) for a in argv]) != 0:
            raise SystemExit(f"{src}: tsvote {argv[0]} failed")

    trials = "experiment.trials=2"
    outputs = {}
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()):
        cli("experiment", "--config", desk, "--set", trials, "--out", f"{work}/exp")
        outputs["experiment"] = tree_digests(Path(work) / "exp")
        for name, sets in DETECT_RUNS.items():
            cli("detect", "--config", detect, *(a for s in sets for a in ("--set", s)),
                "--out", f"{work}/{name}")
            outputs[name] = tree_digests(Path(work) / name)

    streams = {stream: {} for stream in HOOKS}
    for stream, (cls_name, name) in HOOKS.items():
        cls = getattr(tsvote.classify, cls_name)

        def wrapper(self, *args, _original=getattr(cls, name), _keys=streams[stream], **kwargs):
            out = _original(self, *args, **kwargs)
            k = kwargs.get("k", args[1] if len(args) > 1 else None)
            key = f"T={self.params.T} n={getattr(self, 'n', None)} k={k}"
            _keys.setdefault(key, []).extend(np.ravel(getattr(out, "log_lambda", out)).tolist())
            return out

        setattr(cls, name, wrapper)
    streams["min"], restricted = _record_minimum(tsvote.core.ShiftWindows)
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up by name
    spec.loader.exec_module(workloads)

    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()):
        replay_experiment(experiment_config(load_config(desk, [trials])))
        for sets in DETECT_RUNS.values():
            replay_detect(load_config(detect, sets))
        pool = workloads.PoolStream(0, Path(work))
        pool.run_pass()
        for q in pool.queries:
            tsvote.nearest_neighbor(q, pool.pool, pool.params)
            tsvote.classify_knn(q, pool.pool, pool.params, pool.K)
            tsvote.classify_gwmv(q, pool.pool, pool.params)
        sum_params = dataclasses.replace(pool.params, shift_mode="sum")
        Q = np.stack([q.window(1, sum_params.T) for q in pool.queries])
        tsvote.classify.VotingKernel(pool.pool, sum_params).log_lambda_many(Q)
        data = f"{work}/data"
        cli("generate", "--config", desk, "--out", data)
        for i, (method, *options) in enumerate((
            ("wmv", "--train", f"{data}/train.jsonl"),
            ("wmv", "--train", f"{data}/train.jsonl", "--shift-mode", "sum"),
            ("nn", "--train", f"{data}/train.jsonl"),
            ("knn", "--train", f"{data}/train.jsonl", "--k", "5"),
            ("map", "--model", data),
        )):
            cli("classify", "--config", desk, *options, "--series", f"{data}/test.jsonl",
                "--method", method, "--out", f"{work}/classify-{i}")
    points = {"wmv": [0.0], "nn": [0.0], "map": [0.0]}
    points["trace"] = [math.log(t) for t in sweep_grid(load_config(detect)).thetas]
    doc = {"source": tsvote.__file__, "outputs": outputs, "streams": streams, "points": points,
           "restricted": restricted}
    Path(path).write_text(json.dumps(doc))


def _record_minimum(cls) -> tuple:
    """Wrap cls.minimum so that it records its results; returns the keys and
    the count of calls with k and the problems found in them.

    A call with k records the unrestricted minimum, so that the stream is the
    same as a tree's that verifies every example. Its own result must equal
    that minimum bit for bit wherever it is finite, distances and shifts, and
    be finite for every example that a stable sort of the unrestricted
    distances places among a query's k nearest."""
    keys, checked, original = {}, {"calls": 0, "problems": []}, cls.minimum

    def minimum(self, Q, *axis, k=None):
        dmin, j = original(self, Q, *axis)
        n, S = self.views.shape[:2]
        key = f"T={self.T} n={n} S={S}"
        # per query its distances, then its shifts: the same sequence whichever
        # blocks of queries the calls are given
        per_query = np.hstack([np.transpose(dmin), np.transpose(j)])
        keys.setdefault(key, []).extend(np.ravel(per_query).tolist())
        if k is None:
            return dmin, j
        got_min, got_j = original(self, Q, *axis, k=k)
        checked["calls"] += 1
        problems = checked["problems"]
        finite = np.isfinite(got_min)
        nearest = np.argsort(dmin, axis=0, kind="stable")[:k]
        if not (got_min[finite].tobytes() == dmin[finite].tobytes()
                and np.array_equal(got_j[finite], j[finite])):
            problems.append(f"{key} k={k}: a finite entry differs from the full minimum")
        if not np.take_along_axis(finite, nearest, axis=0).all():
            problems.append(f"{key} k={k}: one of the k nearest was not verified")
        return got_min, got_j

    cls.minimum = minimum
    return keys, checked


def compare_exact(name: str, parent: dict, change: dict) -> bool:
    """parent and change map each key of the stream to its values in call
    order, which must be the same floats, bit for bit."""
    a, b = (np.array([x for key in sorted(run) for x in run[key]]) for run in (parent, change))
    counts = [{key: len(values) for key, values in run.items()} for run in (parent, change)]
    ok = counts[0] == counts[1] and a.tobytes() == b.tobytes()
    differ = int((a != b).sum()) if a.shape == b.shape else "all"
    print(f"{name}: {a.size} values in {len(parent)} keys, {differ} differ, "
          f"byte-identical required: {'ok' if ok else 'FAIL'}")
    return ok


def compare(name: str, parent: dict, change: dict, points: list) -> bool:
    """parent and change map each key of the stream to its values in call order."""
    counts = [{key: len(values) for key, values in run.items()} for run in (parent, change)]
    if counts[0] != counts[1]:
        print(f"{name}: values per key, parent {counts[0]} against change {counts[1]}")
        return False
    keys = sorted(parent)
    a, b = (np.array([x for key in keys for x in run[key]]) for run in (parent, change))
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    finite = np.isfinite(a) & np.isfinite(b)
    rel = np.abs(b[finite] - a[finite]) / np.maximum(1.0, np.abs(a[finite]))
    non_finite = int((~same & ~finite).sum())  # inf - inf has no relative size
    margins = np.concatenate([np.abs(a - p)[(a >= p) != (b >= p)] for p in points])
    ok = bool(np.all(rel <= REL) and non_finite == 0 and np.all(margins <= NEAR_TIE))
    closest = min(np.abs(a - p).min(initial=math.inf) for p in points)
    print(
        f"{name}: {a.size} values in {len(parent)} keys, {int((~same).sum())} differ "
        f"({non_finite} not both finite), largest relative change {rel.max(initial=0.0):.3g}, "
        f"{margins.size} flips, closest parent value to a flip point {closest:.3g}: "
        f"{'ok' if ok else 'FAIL'}"
    )
    ends = np.cumsum([counts[0][key] for key in keys])
    for key, part in zip(keys, np.split(~same, ends[:-1])):
        if part.any():
            print(f"  {key}: {part.size} values, {int(part.sum())} differ")
    return ok


def main(argv: list) -> int:
    if len(argv) == 3 and argv[0] == "--record":
        record(argv[1], argv[2])
        return 0
    if len(argv) != 2:
        print("usage: " + __doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    runs = []
    with tempfile.TemporaryDirectory() as work:
        for i, src in enumerate(argv):
            path = f"{work}/{i}.json"
            child = [sys.executable, __file__, "--record", str(Path(src).resolve()), path]
            subprocess.run(child, check=True)
            runs.append(json.loads(Path(path).read_text()))
    parent, change = runs
    print(f"parent {parent['source']}\nchange {change['source']}")
    results = []
    for run, files in parent["outputs"].items():
        other = change["outputs"].get(run, {})
        differ = sorted(f for f in files.keys() | other.keys() if files.get(f) != other.get(f))
        results.append(not differ)
        print(f"{run} output: {len(files)} files, differing {differ}, "
              f"byte-identical required: {'ok' if not differ else 'FAIL'}")
    results += [
        compare_exact(name, values, change["streams"][name]) if name == "min"
        else compare(name, values, change["streams"][name], parent["points"][name])
        for name, values in parent["streams"].items()
    ]
    for side, run in (("parent", parent), ("change", change)):
        problems = run["restricted"]["problems"]
        results.append(not problems)
        print(f"min with k, {side}: {run['restricted']['calls']} calls, {len(problems)} "
              f"problems: {'ok' if not problems else 'FAIL'}")
        for problem in problems:
            print(f"  {problem}")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
