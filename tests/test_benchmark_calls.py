"""The benchmark's calls into the package, run in process at its tiny scale.

Each workload of ``perfbench/workloads.py`` sets up its inputs, makes its
call 0 and checks the output, as a benchmark run does, but without the
worker process, the timing or the stored references. A rename of a
function, keyword or field that a workload calls then fails here. This
file only reads ``perfbench/``.
"""

import importlib.util
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", SOURCE)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_call_0_at_tiny_scale_passes_its_checks(tmp_path, name):
    workload = workloads.WORKLOADS[name]("tiny")
    state = workload.setup(11, tmp_path)
    workload.shape(state)
    result = workload.call(state, 0, workload.threads)
    digest, problems = workload.check(state, 0, result)
    assert problems == []
    assert digest is not None
