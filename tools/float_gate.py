"""Float-change gate: compare the per-example log vote ratios of two tsvote trees.

    python tools/float_gate.py PARENT_SRC CHANGE_SRC

Each src directory is imported in a process of its own, which records every
per-example log lambda in call order, through the names perfbench's tracer
patches: wmv from VotingKernel._gwmv_from_dists, nn from _knn_from_dists (k-NN
of any k), map from MapKernel.classify and trace from log_lambda_many. The
runs are `tsvote experiment` on configs/desk.cfg with 2 trials, `tsvote detect`
on configs/detect.cfg and one pass of perfbench's PoolStream at seed 0.

Exits 1 unless both trees record the same number of values per stream, every
value has |change - parent| <= 1e-12 max(1, |parent|), and every label flip is
a near-tie, |parent - log theta| <= 1e-9. The flip point is 0 for wmv, nn and
map (every run uses theta = 1) and each log theta of detect.cfg for traces.
"""

from __future__ import annotations

import contextlib
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


def record(src: str, path: str) -> None:
    """Run the three workloads on the tsvote in src; write the streams to path."""
    sys.path.insert(0, src)
    import tsvote.cli
    from tsvote.classify import MapKernel, VotingKernel
    from tsvote.config import load_config, sweep_grid

    streams = {"wmv": [], "nn": [], "map": [], "trace": []}
    for cls, name, stream in (
        (VotingKernel, "_gwmv_from_dists", "wmv"),
        (VotingKernel, "_knn_from_dists", "nn"),
        (MapKernel, "classify", "map"),
        (VotingKernel, "log_lambda_many", "trace"),
    ):
        def wrapper(*args, _original=getattr(cls, name), _values=streams[stream], **kwargs):
            out = _original(*args, **kwargs)
            _values.extend(np.ravel(getattr(out, "log_lambda", out)).tolist())
            return out

        setattr(cls, name, wrapper)
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up by name
    spec.loader.exec_module(workloads)
    desk, detect = ROOT / "configs" / "desk.cfg", ROOT / "configs" / "detect.cfg"
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()):
        trials = ["--set", "experiment.trials=2"]
        for argv in (
            ["experiment", "--config", desk, *trials, "--out", f"{work}/exp"],
            ["detect", "--config", detect, "--out", f"{work}/detect"],
        ):
            if tsvote.cli.main([str(a) for a in argv]) != 0:
                raise SystemExit(f"{src}: tsvote {argv[0]} failed")
        workloads.PoolStream(0, Path(work)).run_pass()
    points = {"wmv": [0.0], "nn": [0.0], "map": [0.0]}
    points["trace"] = [math.log(t) for t in sweep_grid(load_config(detect)).thetas]
    doc = {"source": tsvote.__file__, "streams": streams, "points": points}
    Path(path).write_text(json.dumps(doc))


def compare(name: str, parent: list, change: list, points: list) -> bool:
    if len(parent) != len(change):
        print(f"{name}: {len(parent)} parent values against {len(change)} change values")
        return False
    a, b = np.array(parent), np.array(change)
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore"):
        rel = np.where(same, 0.0, np.abs(b - a) / np.maximum(1.0, np.abs(a)))
    margins = np.concatenate([np.abs(a - p)[(a >= p) != (b >= p)] for p in points])
    ok = bool(np.all(rel <= REL) and np.all(margins <= NEAR_TIE))
    closest = min(np.abs(a - p).min(initial=math.inf) for p in points)
    print(
        f"{name}: {a.size} values, {int((~same).sum())} differ, largest relative change "
        f"{rel.max(initial=0.0):.3g}, {margins.size} flips, closest parent value to a "
        f"flip point {closest:.3g}: {'ok' if ok else 'FAIL'}"
    )
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
        compare(name, values, change["streams"][name], parent["points"][name])
        for name, values in parent["streams"].items()
    ]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
