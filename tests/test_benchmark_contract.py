"""The public API the benchmark in ``perfbench/`` calls still works.

The first pass of each workload runs at seed 0 and must pass the benchmark's
own correctness checks: no failed item, and an error within the workload's
tolerance. The ``cli`` workload runs each preset once in a child
interpreter that imports this tree's ``src`` and checks its table against
the benchmark's reference. A cleanup of the public API, or a change to a
CLI table, that would make a benchmark run fail fails here first. Nothing under ``perfbench/`` is
written: its modules are imported by path without bytecode caching.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


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


def child_env() -> dict:
    """The environment of a child interpreter that imports this tree's wgqed."""
    pythonpath = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))


@pytest.mark.parametrize("name", ["sweep", "scatter-batch", "emission", "cli"])
def test_first_pass_passes_its_checks(workloads, name, tmp_path):
    args = (child_env(), tmp_path) if name == "cli" else ()
    workload = workloads.WORKLOADS[name](0, *args)
    calls = workload.first_pass()
    assert calls
    for call in calls:
        err, failed = call.check(call.fn())
        assert failed == 0
        assert err <= workload.tolerance
