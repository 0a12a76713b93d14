"""The four benchmark workloads: inputs made from a seed, one pass, output checks.

Each workload reaches tsvote only through its public entry points: the
command line (``tsvote.cli.main``, run in-process) and the library functions
of the README. Names are looked up on the ``tsvote`` modules at call time, so
a traced run sees the patched ones.

A pass is the unit a workload repeats while it is timed. It returns its
operations (each CLI command, or each query of ``pool_stream``) with their
latencies, the verdicts its outputs hold, and a digest of those outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tsvote
import tsvote.cli
import tsvote.dataio


@dataclass
class Op:
    name: str
    seconds: float
    ok: bool


@dataclass
class PassResult:
    ops: list = field(default_factory=list)
    decisions: int = 0
    digest: str = ""


def _cli(ops: list, name: str, argv: list) -> bool:
    """Run one tsvote command in-process, recording it as one operation."""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            ok = tsvote.cli.main([str(a) for a in argv]) == 0
    except Exception as exc:  # a raising command is a failed operation
        print(f"{name}: {type(exc).__name__}: {exc}", flush=True)
        ok = False
    ops.append(Op(name, time.perf_counter() - start, ok))
    return ok


def tree_digest(root: Path) -> str:
    """sha256 over every file below root: relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _fresh(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


# --- input profiles ------------------------------------------------------------

# configs/desk.cfg, one trial per pass so that a run holds a dozen passes.
DESK_TRIALS = 1
DESK_TEST_SIZE = 200


def desk_cfg(seed: int, *, trials: int = DESK_TRIALS, test_size: int = DESK_TEST_SIZE,
             beta: float = 8.0) -> str:
    return f"""\
seed = {seed}
generator.m = 10
generator.series_length = 120
generator.amplitude_variance = 100.0
generator.smoothing_scale = 10.0
model.delta_max = 10
model.noise_family = gaussian
model.noise_sigma = 1.0
voting.gamma = 0.125
voting.theta = 1.0
voting.T = 100
voting.delta_max = 10
experiment.beta = {beta}
experiment.t_grid = 10, 20, 40, 70, 100
experiment.beta_grid = 2, 4, 6, 8
experiment.test_size = {test_size}
experiment.trials = {trials}
experiment.mode = both
"""


def detect_cfg(seed: int, *, topics_per_class: int = 200) -> str:
    """configs/detect.cfg."""
    return f"""\
seed = {seed}
corpus.n_trends = {topics_per_class}
corpus.n_non_trends = {topics_per_class}
corpus.length = 300
corpus.base_rate = 50.0
corpus.burst_scale = 6.0
corpus.ramp_buckets = 60
corpus.onset_low = 120
corpus.onset_high = 200
corpus.noise_frac = 0.10
pipeline.alpha = 1.2
pipeline.t_smooth = 20
pipeline.log_floor = 1e-12
detection.h_hours = 1.0
detection.T = 15
detection.gamma = 1.0
detection.bucket_width_minutes = 2.0
detection.theta_grid = [1e-300, 0.1, 0.3, 1.0, 3.0, 10.0, 1e300]
"""


# --- workloads -------------------------------------------------------------------


class DeskCurves:
    """``tsvote experiment --mode both`` on the desk profile."""

    name = "desk_curves"
    min_ops = 1
    # Voting beats nearest-neighbour at T=10 only on average over trials: the
    # single-trial difference wmv - nn has mean -0.041 and sd 0.048 (100 trials,
    # seed 123), and is positive on 15% of seeds. A pass holds one trial, so
    # the check allows three sd; the late tolerance is the acceptance suite's.
    EARLY_MARGIN = 0.15
    LATE_TOL = 0.05

    def __init__(self, seed: int, work: Path, **profile):
        self.profile = {"trials": DESK_TRIALS, "test_size": DESK_TEST_SIZE, **profile}
        self.config = work / "desk.cfg"
        self.config.write_text(desk_cfg(seed, **self.profile))
        self.out = work / "out"

    def run_pass(self) -> PassResult:
        res = PassResult()
        argv = ["experiment", "--config", self.config, "--mode", "both", "--out", self.out]
        if _cli(res.ops, "experiment", argv):
            doc = json.loads((self.out / "experiment.json").read_text())
            per_point = self.profile["trials"] * self.profile["test_size"]
            res.decisions = sum(
                len(doc[key]["axis"]) * len(doc[key]["classifiers"]) * per_point
                for key in ("curves_T", "curves_beta")
            )
            res.digest = tree_digest(self.out)
        return res

    def clear(self) -> None:
        _fresh(self.out)

    def check(self) -> dict:
        doc = json.loads((self.out / "experiment.json").read_text())
        mean = {c: v["mean"] for c, v in doc["curves_T"]["classifiers"].items()}
        wmv, nn, oracle = mean["wmv"], mean["nn"], mean["map"]
        problems = []
        if wmv[0] - nn[0] > self.EARLY_MARGIN:
            problems.append(f"T=10: wmv {wmv[0]} exceeds nn {nn[0]} by more than {self.EARLY_MARGIN}")
        for clf, curve in (("wmv", wmv), ("nn", nn)):
            if abs(curve[-1] - oracle[-1]) > self.LATE_TOL:
                problems.append(f"T=100: |{clf} - map| = {abs(curve[-1] - oracle[-1])} > {self.LATE_TOL}")
        return {"experiment": problems} if problems else {}

    @classmethod
    def reference(cls, work: Path) -> str:
        return cls(0, work, test_size=50).run_pass().digest


class DetectSweep:
    """``tsvote detect`` on the detect profile: 200 test topics x 7 thresholds."""

    name = "detect_sweep"
    min_ops = 1

    def __init__(self, seed: int, work: Path, **profile):
        self.config = work / "detect.cfg"
        self.config.write_text(detect_cfg(seed, **profile))
        self.out = work / "out"

    def run_pass(self) -> PassResult:
        res = PassResult()
        if _cli(res.ops, "detect", ["detect", "--config", self.config, "--out", self.out]):
            doc = json.loads((self.out / "roc.json").read_text())
            res.decisions = sum(p["n_trends"] + p["n_non_trends"] for p in doc["points"])
            res.digest = tree_digest(self.out)
        return res

    def clear(self) -> None:
        _fresh(self.out)

    def check(self) -> dict:
        points = json.loads((self.out / "roc.json").read_text())["points"]
        points = sorted(points, key=lambda p: p["params"]["theta"])
        problems = []
        lo, hi = points[0], points[-1]
        if lo["params"]["theta"] != 1e-300 or (lo["tpr"], lo["fpr"]) != (1.0, 1.0):
            problems.append(f"theta={lo['params']['theta']}: tpr/fpr {lo['tpr']}/{lo['fpr']}, want 1/1")
        if hi["params"]["theta"] != 1e300 or (hi["tpr"], hi["fpr"]) != (0.0, 0.0):
            problems.append(f"theta={hi['params']['theta']}: tpr/fpr {hi['tpr']}/{hi['fpr']}, want 0/0")
        for a, b in zip(points, points[1:]):
            if b["tpr"] > a["tpr"] or b["fpr"] > a["fpr"]:
                problems.append(f"tpr/fpr rise from theta={a['params']['theta']} to {b['params']['theta']}")
        return {"detect": problems} if problems else {}

    @classmethod
    def reference(cls, work: Path) -> str:
        return cls(0, work, topics_per_class=20).run_pass().digest


class PoolStream:
    """Closed loop, one client: each query runs the four README library calls.

    The pool has the full_scale.cfg shape (m=200, series_length=300,
    delta_max=100, T=100, gamma=0.125, sigma=1) with beta=0.5, so that one
    voting call works on (530, 201, 100) float64 temporaries.
    """

    name = "pool_stream"
    min_ops = 100  # a p90 with ten samples above it
    N_QUERIES = 20
    BETA = 0.5
    K = 5
    CHECKED = (0, 1)  # queries compared with brute-force shift_min_distance

    def __init__(self, seed: int, work: Path):
        model_ss, pool_ss, query_ss = np.random.SeedSequence(seed).spawn(3)
        gen = tsvote.GeneratorConfig(
            m=200, series_length=300, amplitude_variance=100.0, smoothing_scale=30.0,
            seed=int(model_ss.generate_state(1, np.uint64)[0]),
        )
        self.model = tsvote.make_latent_sources(
            gen, delta_max=100, noise=tsvote.NoiseSpec("gaussian", 1.0)
        )
        self.pool = tsvote.sample_dataset(
            self.model, tsvote.training_size(self.BETA, gen.m), pool_ss, id_prefix="pool"
        )
        self.queries = [
            tsvote.sample_series(self.model, rng, window_start=1, window_length=100, id=f"q-{i:03d}")[0]
            for i, rng in enumerate(np.random.default_rng(query_ss).spawn(self.N_QUERIES))
        ]
        self.params = tsvote.VotingParams(gamma=0.125, T=100, delta_max=100, theta=1.0)
        self.verdicts = []

    def _query(self, q):
        p = self.params
        wmv = tsvote.classify_gwmv(q, self.pool, p)
        knn = tsvote.classify_knn(q, self.pool, p, self.K)
        example, dist, shift, label = tsvote.nearest_neighbor(q, self.pool, p)
        oracle = tsvote.classify_map(q, self.model, p)
        return (
            (int(wmv.label), wmv.log_lambda),
            (int(knn.label), knn.log_lambda),
            (example.id, dist, shift, int(label)),
            (int(oracle.label), oracle.log_lambda),
        )

    def run_pass(self, queries=None) -> PassResult:
        res = PassResult()
        self.verdicts = []
        for i, q in enumerate(self.queries if queries is None else queries):
            start = time.perf_counter()
            try:
                verdict = self._query(q)
            except Exception as exc:  # a raising query is a failed operation
                print(f"query {i}: {type(exc).__name__}: {exc}", flush=True)
                verdict = None
            res.ops.append(Op(f"query-{i}", time.perf_counter() - start, verdict is not None))
            self.verdicts.append(verdict)
            res.decisions += 4 if verdict is not None else 0
        res.digest = hashlib.sha256(repr(self.verdicts).encode()).hexdigest()
        return res

    def clear(self) -> None:
        pass

    def check(self) -> dict:
        problems = {}
        for i in self.CHECKED:
            got, want = self.verdicts[i], self._brute(self.queries[i])
            if got is None or not _same_verdicts(got, want):
                problems[f"query-{i}"] = [f"verdicts {got} differ from brute force {want}"]
        return problems

    def _brute(self, q):
        """The four verdicts from per-pair shift_min_distance / window_sq_dist loops."""
        p, data = self.params, self.pool
        pairs = [tsvote.shift_min_distance(r, q, p.T, p.delta_max) for r in data.examples()]
        dmin = [d for d, _ in pairs]
        rank = [(dmin[i], 0 if i < data.n_pos else 1, i) for i in range(data.n)]
        order = [i for _, _, i in sorted(rank)]

        def ratio(idx):
            pos = [-p.gamma * dmin[i] for i in idx if i < data.n_pos]
            neg = [-p.gamma * dmin[i] for i in idx if i >= data.n_pos]
            return _lse(pos) - _lse(neg)

        wmv = ratio(range(data.n))
        knn = ratio(sorted(order[: self.K]))
        nn = order[0]
        e = {1: [], -1: []}
        for src, lab in self.model.sources:
            for j in range(p.delta_max + 1):
                e[int(lab)].append(-p.gamma * tsvote.window_sq_dist(src, q, j, p.T))
        oracle = _lse(e[1]) - _lse(e[-1])
        theta = math.log(p.theta)
        return (
            (1 if wmv >= theta else -1, wmv),
            (1 if knn >= theta else -1, knn),
            (data.examples()[nn].id, dmin[nn], pairs[nn][1], 1 if nn < data.n_pos else -1),
            (1 if oracle >= 0.0 else -1, oracle),
        )

    @classmethod
    def reference(cls, work: Path) -> str:
        wl = cls(0, work)
        return wl.run_pass(wl.queries[:2]).digest


def _lse(values) -> float:
    if not values:
        return -math.inf
    m = max(values)
    return m + math.log(sum(math.exp(v - m) for v in values))


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def _same_verdicts(got, want) -> bool:
    """Labels, nearest example and shift equal; distances and log ratios to 1e-9."""
    (gw, gk, gn, gm), (ww, wk, wn, wm) = got, want
    return (
        all(g[0] == w[0] and _close(g[1], w[1]) for g, w in ((gw, ww), (gk, wk), (gm, wm)))
        and (gn[0], gn[2], gn[3]) == (wn[0], wn[2], wn[3])
        and _close(gn[1], wn[1])
    )


class CliRoundtrip:
    """The README command sequence: generate, gap, classify x4, bounds."""

    name = "cli_roundtrip"
    min_ops = 1
    METHODS = (("wmv",), ("nn",), ("knn", "--k", "5"), ("map",))
    T, DELTA_MAX = 100, 10

    def __init__(self, seed: int, work: Path, **profile):
        self.config = work / "generate.cfg"
        self.config.write_text(desk_cfg(seed, **profile))
        self.out = work / "out"

    def run_pass(self) -> PassResult:
        res, out = PassResult(), self.out
        data = out / "data"
        shape = ["--gamma", "0.125", "--T", self.T, "--delta-max", self.DELTA_MAX]
        steps = [
            ("generate", ["generate", "--config", self.config, "--out", data]),
            ("gap", ["gap", "--train", data / "train.jsonl", "--T", self.T,
                     "--delta-max", self.DELTA_MAX, "--out", out / "gap"]),
        ]
        for method, *extra in self.METHODS:
            source = ["--model", data] if method == "map" else ["--train", data / "train.jsonl"]
            steps.append((f"classify-{method}", ["classify", *source, "--series", data / "test.jsonl",
                                                 "--method", method, *extra, *shape,
                                                 "--out", out / method]))
        steps.append(("bounds", ["bounds", "--set", "bounds.gap=32", "--set", "bounds.n=10",
                                 "--set", "bounds.beta=2", "--set", "bounds.gamma=0.125",
                                 "--out", out / "bounds"]))
        ok = all([_cli(res.ops, name, argv) for name, argv in steps])
        if ok:
            res.decisions = sum(self._verdict_lines(m) for m, *_ in self.METHODS)
            res.digest = tree_digest(out)
        return res

    def _verdict_lines(self, method: str) -> int:
        return len((self.out / method / "verdicts.jsonl").read_text().splitlines())

    def clear(self) -> None:
        _fresh(self.out)

    def check(self) -> dict:
        data = self.out / "data"
        problems = {}
        doc = json.loads((self.out / "gap" / "gap.json").read_text())
        train = tsvote.dataio.read_dataset(data / "train.jsonl")
        want = tsvote.gap(train, self.T, self.DELTA_MAX, cutoff=True)
        if doc["gap"] != want:
            problems["gap"] = [f"gap.json holds {doc['gap']}, gap(cutoff=True) gives {want}"]
        n_series = len(tsvote.dataio.read_series_file(data / "test.jsonl"))
        for method, *_ in self.METHODS:
            if self._verdict_lines(method) != n_series:
                problems[f"classify-{method}"] = [f"{method}: not one verdict per series"]
        return problems

    @classmethod
    def reference(cls, work: Path) -> str:
        return cls(0, work, beta=2.0, test_size=10).run_pass().digest


WORKLOADS = {wl.name: wl for wl in (DeskCurves, DetectSweep, PoolStream, CliRoundtrip)}
