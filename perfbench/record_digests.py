"""Record the digest of each workload's reference outputs in digests.json.

    PYTHONPATH=src python3 perfbench/record_digests.py

Each run of the benchmark recomputes these outputs (seed 0, reduced sizes)
and fails when their bytes differ, so record them only from a commit whose
outputs are meant to be the reference.
"""

import json
import os
import shutil
import tempfile
from pathlib import Path

from worker import DIGESTS
from workloads import WORKLOADS


def main() -> None:
    digests = {}
    for name, workload in WORKLOADS.items():
        work = Path(tempfile.mkdtemp(prefix="perfbench-ref-", dir=os.getcwd()))
        try:
            digests[name] = workload.reference(work)
        finally:
            shutil.rmtree(work)
        print(name, digests[name])
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
