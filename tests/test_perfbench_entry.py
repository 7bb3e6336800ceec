"""The benchmark's entry points run against the current program.

``perfbench`` drives the pipeline through public qopf names only; a rename
or reshape of one of them would otherwise surface only when the benchmark
runs.  For every workload this sets it up, installs (without activating)
every span the traced run wraps, so each wrapped name is looked up, and
runs the permutation and protocol-report checks the benchmark makes.
"""

import sys
from pathlib import Path

import pytest

# as perfbench/run.py does: its modules import each other by bare name
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_entry_points(name, tmp_path):
    w = workloads.WORKLOADS[name]
    s = workloads.setup(w, 0)
    workloads.instrument(w, Tracer(), [])
    assert workloads.permutation_error(s.prepared, 0) <= workloads.PERMUTATION_RTOL
    error, summary = workloads.protocol_report_error(s, 0, tmp_path)
    assert error is None
    assert summary
