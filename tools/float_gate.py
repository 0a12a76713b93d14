"""Float-change gate: compare the per-example log vote ratios of two tsvote trees.

    python tools/float_gate.py PARENT_SRC CHANGE_SRC

Each src directory is imported in a process of its own, which records every
per-example log lambda: wmv from VotingKernel.gwmv_block, nn from knn_block
(k-NN of any k), map from MapKernel.classify_block and trace from
log_lambda_many; both trees must have these block entry points. Values are
kept under a (T, n, k) key per stream (n is the training size, None for the
oracle; k for nn only), in call order within each key, so two trees that cut
the same queries into different blocks record the same sequence per key. The
runs are `tsvote experiment` on configs/desk.cfg with 2 trials, `tsvote
detect` on configs/detect.cfg (15 shifts), and again with detection.h_hours =
1.6 and detection.T = 16 (33 shifts, more than core.SHIFT_GROUP, whose traces
sit under a key of their own; detect runs in min mode and scores each
setting's test topics in a few blocked log_lambda_many calls, so each of these
traces comes from ShiftWindows.expansion_minimum, one GEMM per shift that
carries the window norms in a column of its own), one pass of
perfbench's PoolStream at seed 0, then nearest_neighbor, classify_knn (k = 5)
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

Exits 1 unless the min streams are byte-identical, and for the other streams
both trees record the same keys with the same number of values per key, every
value has |change - parent| <= 1e-12 max(1, |parent|), and every label flip is
a near-tie, |parent - log theta| <= 1e-9. The flip point
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
import importlib.util
import io
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


def record(src: str, path: str) -> None:
    """Run the three workloads on the tsvote in src; write the streams to path."""
    sys.path.insert(0, src)
    import tsvote.classify
    import tsvote.cli
    import tsvote.core
    from tsvote.config import load_config, sweep_grid

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
    streams["min"] = _record_minimum(tsvote.core.ShiftWindows)
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up by name
    spec.loader.exec_module(workloads)
    desk, detect = ROOT / "configs" / "desk.cfg", ROOT / "configs" / "detect.cfg"

    def cli(*argv):
        if tsvote.cli.main([str(a) for a in argv]) != 0:
            raise SystemExit(f"{src}: tsvote {argv[0]} failed")

    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()):
        cli("experiment", "--config", desk, "--set", "experiment.trials=2", "--out", f"{work}/exp")
        cli("detect", "--config", detect, "--out", f"{work}/detect")
        cli("detect", "--config", detect, "--set", "detection.h_hours=1.6",
            "--set", "detection.T=16", "--out", f"{work}/detect-wide")
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
    doc = {"source": tsvote.__file__, "streams": streams, "points": points}
    Path(path).write_text(json.dumps(doc))


def _record_minimum(cls) -> dict:
    """Wrap cls.minimum so that it records its results; returns the keys."""
    keys, original = {}, cls.minimum

    def minimum(self, Q, *axis):
        dmin, j = original(self, Q, *axis)
        n, S = self.views.shape[:2]
        # per query its distances, then its shifts: the same sequence whichever
        # blocks of queries the calls are given
        per_query = np.hstack([np.transpose(dmin), np.transpose(j)])
        keys.setdefault(f"T={self.T} n={n} S={S}", []).extend(np.ravel(per_query).tolist())
        return dmin, j

    cls.minimum = minimum
    return keys


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
    results = [
        compare_exact(name, values, change["streams"][name]) if name == "min"
        else compare(name, values, change["streams"][name], parent["points"][name])
        for name, values in parent["streams"].items()
    ]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
