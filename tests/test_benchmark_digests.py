"""Every benchmark run compares each workload's reference outputs (seed 0,
reduced sizes) with the digest recorded in perfbench/digests.json and fails on
any byte of difference. Recomputing them here makes output drift fail the test
suite before it fails the benchmark."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = load_workloads()
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_reference_outputs_match_recorded_digest(name, tmp_path):
    assert WORKLOADS[name].reference(tmp_path) == DIGESTS[name]
