"""The public API the benchmark in ``perfbench/`` calls still works.

The first pass of each in-process workload runs at seed 0 and must pass the
benchmark's own correctness checks: no failed item, and an error within the
workload's tolerance. A cleanup of the public API that would make a
benchmark run fail fails here first. Nothing under ``perfbench/`` is
written: its modules are imported by path without bytecode caching.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    path, dont_write = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))      # workloads.py imports reference.py
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:], sys.dont_write_bytecode = path, dont_write
    return module


@pytest.mark.parametrize("name", ["sweep", "scatter-batch", "emission"])
def test_first_pass_passes_its_checks(workloads, name):
    workload = workloads.WORKLOADS[name](0)
    calls = workload.first_pass()
    assert calls
    for call in calls:
        err, failed = call.check(call.fn())
        assert failed == 0
        assert err <= workload.tolerance
