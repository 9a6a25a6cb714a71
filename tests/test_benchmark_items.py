"""Every item of the benchmark passes its own check, at the tiny sizes.

`perfbench/workloads.py` calls `bordx` through its public API and checks
each result against a route of its own.  A change in `src/` that breaks
what the benchmark calls would otherwise show only when the benchmark is
run, so this builds the items of every workload in-process and runs them.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_item_passes_its_check(workload, seed, tmp_path):
    items = workloads.build_items(workload, seed, "tiny", str(tmp_path))
    assert items
    for item in items:
        assert item.check(item.run()), item.label
