"""tsvote benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a tsvote checkout; tsvote is imported from its src/.
With --trace 0 the run reports the end-to-end metrics, with --trace 1 the
per-layer ones (see perfbench/README.md). The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
code is 0 only when every output check passed.

This process only orchestrates and imports no numpy. Set-up is timed in
SETUP_SAMPLES fresh processes (median reported), and the workload itself runs
in one more fresh process, so that its peak RSS is its own.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("desk_curves", "detect_sweep", "pool_stream", "cli_roundtrip")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def child_env() -> dict:
    """BLAS/OpenMP threads capped at nproc, tsvote from this checkout's src/."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = env.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            env[var] = str(nproc)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_worker(args, work: Path, name: str, deadline: float, setup_only: bool) -> tuple:
    """(result dict, seconds from spawn until its inputs were ready)."""
    result_file = work / f"{name}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", str(work / name), "--result", str(result_file),
    ]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.time()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {name} exited with {proc.returncode}")
    result = json.loads(result_file.read_text())
    return result, result["ready_at"] - spawned


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "tsvote" / "__init__.py").is_file():
        print(f"error: no tsvote sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setups = []
        if not args.trace:
            for k in range(SETUP_SAMPLES):
                setups.append(run_worker(args, work, f"setup{k}", deadline, True)[1])
        result, run_setup = run_worker(args, work, "run", deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {} if args.trace else {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
    metrics.update(result["metrics"])
    out = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  setup_s_samples=setups, run_setup_s=run_setup, result=out)
    record["environment"]["git_sha"] = git_sha()
    save = ROOT / ".perfbench_out"
    save.mkdir(exist_ok=True)
    (save / f"{tag}.json").write_text(json.dumps(record, indent=1))

    report(args, record)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


def report(args, record) -> None:
    out = record["result"]
    env = record["environment"]
    print(f"tsvote benchmark: {args.workload}, seed {args.seed}, {args.seconds} s, "
          f"trace {args.trace}")
    for name, m in out["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    frac = out["failed"] / out["attempted"]
    print(f"  {'failed_frac':40s} {frac:>16.6g} ({out['failed']} of {out['attempted']} operations)")
    print("  time waited: not applicable (one process, no queues)")
    for key, msgs in record["problems"].items():
        for msg in msgs:
            print(f"  FAILED {key}: {msg}")
    print(f"  python {env['python']}, numpy {env['numpy']} ({env['blas']}), nproc {env['nproc']}, "
          f"threads {env['threads']}, git {env['git_sha']}, "
          f"src sha256 {env['tsvote_src_sha256'][:16]}")
    print(f"  full record: .perfbench_out/{args.workload}-seed{args.seed}-trace{args.trace}.json")


if __name__ == "__main__":
    sys.exit(main())
