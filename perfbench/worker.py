"""One workload in one fresh process: set-up, timed passes, checks.

Started by run.py, never by hand. With --setup-only the process stops once
its inputs exist and reports when that was, so run.py can time set-up
(interpreter, imports, input generation) in several fresh processes.
Otherwise it times passes for --seconds and writes a JSON result to --result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tsvote
from tracing import PER_LAYER, Tracer, is_time
from workloads import WORKLOADS

DIGESTS = Path(__file__).with_name("digests.json")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = Path(tsvote.__file__).parent
    h = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in os.environ.items() if k.endswith("THREADS")},
        "tsvote_src_sha256": h.hexdigest(),
        "seed": seed,
    }


def timed_pass(wl) -> tuple:
    wl.clear()
    start = time.perf_counter()
    res = wl.run_pass()
    return res, time.perf_counter() - start


def failures(wl, passes: list, reference_work: Path) -> tuple:
    """(attempted, failed, messages): every op, plus one for the reference input."""
    messages = {}
    try:
        messages.update(wl.check())
    except Exception as exc:  # a check that cannot read the outputs fails them all
        messages["*"] = [f"check raised {type(exc).__name__}: {exc}"]
    first = passes[0].digest
    attempted = failed = 0
    for k, res in enumerate(passes):
        for op in res.ops:
            attempted += 1
            bad = not op.ok or "*" in messages or op.name in messages
            if res.digest != first:
                messages.setdefault(f"pass-{k}", ["outputs differ from the first pass"])
                bad = True
            failed += bad
    reference_work.mkdir()
    want = json.loads(DIGESTS.read_text()).get(wl.name)
    try:
        got = WORKLOADS[wl.name].reference(reference_work)
    except Exception as exc:
        got = f"raised {type(exc).__name__}: {exc}"
    attempted += 1
    if got != want:
        failed += 1
        messages["reference"] = [f"reference outputs digest {got}, recorded {want}"]
    return attempted, failed, messages


def measure(wl, seconds: float) -> tuple:
    passes, walls = [], []
    while True:
        res, wall = timed_pass(wl)
        passes.append(res)
        walls.append(wall)
        ops = [op for p in passes for op in p.ops]
        if sum(walls) >= seconds and len(ops) >= wl.min_ops:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies_ms = [op.seconds * 1000.0 for op in ops]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "decisions_per_s": (sum(p.decisions for p in passes) / sum(walls), "1/s"),
        "query_p50_ms": (percentile(latencies_ms, 50), "ms"),
        "query_p90_ms": (percentile(latencies_ms, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    samples = {"pass_wall_s": walls, "ops": len(ops), "decisions_per_pass": passes[0].decisions}
    return passes, metrics, samples


def measure_traced(wl, seconds: float, setup: dict, tracer: Tracer) -> tuple:
    """Untraced and traced passes alternate, each side going first in turn, so
    that neither pays the first pass's warm-up alone; layer values are per
    traced pass."""
    passes, plain, traced, flats = [], [], [], []
    spans = None
    while sum(plain) + sum(traced) < seconds or len(plain) != len(traced):
        trace_now = len(passes) % 4 in (1, 2)  # order: U T, T U, U T, ...
        if trace_now:
            tracer.reset()
            tracer.install()
        try:
            res, wall = timed_pass(wl)
        finally:
            if trace_now:
                tracer.uninstall()
        passes.append(res)
        if trace_now:
            traced.append(wall)
            flats.append(tracer.flat())
            if spans is None:
                spans = tracer.span_records()
        else:
            plain.append(wall)
    base = statistics.median(plain)
    metrics = {}
    for name, unit, _ in PER_LAYER:
        once = setup.get(name, 0)
        if name == "trace.overhead_frac":
            value = (statistics.median(traced) - base) / base
        elif is_time(name):
            value = once + statistics.median(f.get(name, 0.0) for f in flats)
        elif name.endswith("useful_ratio"):
            value = flats[0].get(name, 0.0)
        else:
            value = once + flats[0].get(name, 0)
        metrics[name] = (value, unit)
    counts = [{k: v for k, v in f.items() if not is_time(k)} for f in flats]
    samples = {
        "untraced_pass_wall_s": plain,
        "traced_pass_wall_s": traced,
        "counts_repeat": all(c == counts[0] for c in counts),
        "setup": setup,
        "per_pass": flats,
    }
    return passes, metrics, samples, spans


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    work = Path(args.work)
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
    finally:
        if tracer:
            tracer.uninstall()
    ready_at = time.time()
    result = {"ready_at": ready_at}
    if not args.setup_only:
        if tracer:
            setup = tracer.flat()
            passes, metrics, samples, spans = measure_traced(wl, args.seconds, setup, tracer)
            result["spans"] = spans
        else:
            passes, metrics, samples = measure(wl, args.seconds)
        attempted, failed, messages = failures(wl, passes, work / "reference")
        result.update(
            metrics={name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            samples=samples,
            attempted=attempted,
            failed=failed,
            problems=messages,
            environment=environment(args.seed),
        )
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
