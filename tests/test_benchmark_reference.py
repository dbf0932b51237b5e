"""The benchmark's ``reveal`` and ``window`` commands against its reference outputs.

``perfbench/run.py`` checks every repetition of these ``optimize`` commands
with ``workloads.check_optimize`` against ``perfbench/reference.json``: the
choice line must be equal and every scan row within 1e-9 relative.  Here each
command runs once through the same check, so a change that moves an output
past that gate fails the test suite as well as the benchmark.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from commgate.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through sys.modules
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.fixture(scope="module")
def hotel_prior(tmp_path_factory):
    """The benchmark's set-up: the hotel prior fitted by ``commgate fit``."""
    path = tmp_path_factory.mktemp("perfbench") / "hotel_prior.csv"
    ratings = PERFBENCH.parent / "data" / "hotel_ratings.csv"
    assert main(["fit", str(ratings), str(path)]) == 0
    return path


@pytest.mark.parametrize("workload, label", [
    (workload, label) for workload in ("reveal", "window") for label in sorted(REFERENCE[workload])
])
def test_outputs_match_benchmark_reference(workload, label, hotel_prior, capsys):
    [op] = [op for op in workloads.ops(workload, hotel_prior.parent, hotel_prior)
            if op.label == label]
    capsys.readouterr()
    assert main(list(op.argv)) == 0
    record = workloads.optimize_record(op, capsys.readouterr().out)
    fails, _ = workloads.check_optimize(record, REFERENCE[workload][label])
    assert fails == []
