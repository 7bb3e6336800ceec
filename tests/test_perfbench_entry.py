"""The benchmark's entry points run against the current program.

``perfbench`` drives the pipeline through public qopf names only; a rename
or reshape of one of them would otherwise surface only when the benchmark
runs.  For every workload this installs every span the traced run wraps,
so each wrapped name is looked up, sets the workload up with the spans
active, checks that each set-up layer recorded a call, and runs the
permutation and protocol-report checks the benchmark makes.
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
    tracer = Tracer()
    workloads.instrument(w, tracer, [])
    with tracer.active():
        s = workloads.setup(w, 0)
    # a layer the pipeline reaches around its wrapped name would read 0
    for span in ("harness.prepare_case", "permute.best_rcm", "grid.assemble_qcqp",
                 "model.context_build"):
        assert tracer.durations(span), span
    assert workloads.permutation_error(s.prepared, 0) <= workloads.PERMUTATION_RTOL
    error, summary = workloads.protocol_report_error(s, 0, tmp_path)
    assert error is None
    assert summary
