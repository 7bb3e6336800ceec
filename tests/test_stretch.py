"""The 57-bus benchmark reproduction, excluded from the default run.

This is a soft gate: random initialization, an unstated RNG and an external
globally-optimal reference make exact reproduction impossible, so failures
of the error thresholds produce a diagnostic report and a warning rather
than a test failure.  It needs a reference-solution JSON (15 instances in
the documented schema; see README) because the optimal-power-flow ground
truth comes from an external tool:

    QOPF_STRETCH_REF=/path/to/reference.json \
    pytest tests/test_stretch.py -m stretch -s

Optional environment knobs: QOPF_STRETCH_INSTANCES (default 15),
QOPF_STRETCH_ITERS (default 100000), QOPF_STRETCH_OUT (report directory;
by default stretch-run/ under the test's pytest temporary directory, so the
run writes nothing into the working directory).  Expect hours of runtime.
"""

import os
import warnings

import pytest

from qopf import harness, saddle
from qopf.harness import AnsatzChoice, ExperimentConfig, bundled_case_path

X_ERROR_TARGET = 0.15
LAGRANGIAN_ERROR_TARGET = 0.05


@pytest.mark.stretch
def test_ieee57_benchmark_soft_gate(tmp_path):
    ref_path = os.environ.get("QOPF_STRETCH_REF")
    if not ref_path:
        pytest.skip("set QOPF_STRETCH_REF to a reference-solution JSON "
                    "(external OPF ground truth) to run the benchmark gate")
    instances = int(os.environ.get("QOPF_STRETCH_INSTANCES", "15"))
    max_iters = int(os.environ.get("QOPF_STRETCH_ITERS", "100000"))
    out_dir = os.environ.get("QOPF_STRETCH_OUT") or str(tmp_path / "stretch-run")

    config = ExperimentConfig(
        case_path=str(bundled_case_path("ieee57")),
        instances=instances,
        models=("qcqp_theta",),
        methods=("eg",),
        primal=AnsatzChoice(6, 10),       # Ry-CX-Rz-CX, P = 120
        dual=AnsatzChoice(2, 35),         # Ry-CX, Q = 315
        mode="exact",
        seed=0,
        rcm_runs=200,
        stop=saddle.StopRule(theta_tol=1e-6, phi_tol=1e-6, max_iters=max_iters),
        reference_path=ref_path,
        out_dir=out_dir,
    )
    report = harness.run_experiment(config)
    harness.emit_report(report, out_dir)
    summary = report.summary().get("QCQPt-EG")
    assert summary is not None, "benchmark produced no scored runs"

    x_err = summary["x_error"]
    lag_err = summary["lagrangian_error"]
    print(f"[INFO] QCQPt-EG mean x error {x_err:.4f} "
          f"(soft target {X_ERROR_TARGET}, reported 0.0762)")
    print(f"[INFO] QCQPt-EG mean Lagrangian error {lag_err:.4f} "
          f"(soft target {LAGRANGIAN_ERROR_TARGET}, reported < 0.015)")
    print(f"[INFO] full diagnostics in {out_dir}/")
    if x_err > X_ERROR_TARGET or lag_err > LAGRANGIAN_ERROR_TARGET:
        warnings.warn(
            f"soft gate missed: x_err {x_err:.4f} (target {X_ERROR_TARGET}), "
            f"lagrangian_err {lag_err:.4f} (target {LAGRANGIAN_ERROR_TARGET}); "
            f"diagnostic report written to {out_dir}",
            stacklevel=1)
