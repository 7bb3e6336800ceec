import json
import math

import numpy as np
import pytest

from qopf import bounds, grid, harness, model, saddle, sim
from qopf.grid import LABEL_GEN, LABEL_LINE, LABEL_VOLTAGE, ValidationError
from qopf.harness import (
    AnsatzChoice,
    ExperimentConfig,
    ReferenceInstance,
    ReferenceSolution,
    apply_benchmark_simplifications,
    brute_force_reference,
    compute_metrics,
    config_from_json,
    dual_comparison_entries,
    emit_report,
    fit_state,
    generate_instances,
    overlap_cost,
    overlap_gradient,
    prepare_case,
    recover_voltage,
    restricted_rows,
)

from conftest import CASE2_TEXT


def test_simplifications(ieee57):
    simplified = apply_benchmark_simplifications(ieee57)
    gens = set(simplified.generator_nodes)
    for bus in simplified.buses:
        if bus.index in gens:
            assert bus.p_demand == 0.0 and bus.q_demand == 0.0
        else:
            assert bus.q_demand == pytest.approx(0.33 * bus.p_demand)


def test_generate_instances_degenerate_range(case2):
    instances = generate_instances(case2, 1, (1.0, 1.0), seed=0)
    base = apply_benchmark_simplifications(case2)
    assert instances[0].buses == base.buses


def test_generate_instances_reproducible_and_contained(ieee57):
    a = generate_instances(ieee57, 15, (0.90, 1.05), seed=4)
    b = generate_instances(ieee57, 15, (0.90, 1.05), seed=4)
    base = apply_benchmark_simplifications(ieee57)
    base_pd = {bus.index: bus.p_demand for bus in base.buses}
    for inst_a, inst_b in zip(a, b):
        assert inst_a.buses == inst_b.buses
    gens = set(ieee57.generator_nodes)
    for inst in a:
        for bus in inst.buses:
            if bus.index in gens:
                assert bus.p_demand == 0.0
            elif base_pd[bus.index] > 0:
                ratio = bus.p_demand / base_pd[bus.index]
                assert 0.90 - 1e-12 <= ratio <= 1.05 + 1e-12
                assert bus.q_demand == pytest.approx(0.33 * bus.p_demand)


def test_generate_instances_draws_differ_per_instance(ieee57):
    a, b = generate_instances(ieee57, 2, (0.90, 1.05), seed=4)
    pa = [bus.p_demand for bus in a.buses]
    pb = [bus.p_demand for bus in b.buses]
    assert pa != pb


def test_prepare_case_pipeline_consistency(case2):
    prepared = prepare_case(case2, rcm_runs=4, seed=0)
    rng = np.random.default_rng(0)
    v_perm = rng.standard_normal(prepared.permuted.dim) \
        + 1j * rng.standard_normal(prepared.permuted.dim)
    v = prepared.perm.undo_on_vector(v_perm)
    cost_perm = np.real(v_perm.conj() @ prepared.permuted.dense_m0() @ v_perm)
    padded = grid.pad_to_qubits(prepared.problem)
    cost = np.real(v.conj() @ padded.dense_m0() @ v)
    assert cost == pytest.approx(cost_perm, abs=1e-10)


def test_prepare_case_stats_ieee57(ieee57):
    prepared = prepare_case(ieee57, rcm_runs=200, seed=7)
    s = prepared.stats
    assert (s.n, s.edges) == (57, 78)
    assert s.bandwidth_before == 46 and s.bandwidth_after == 11
    assert s.colors_before == 27 and s.colors_after == 22


def test_reference_roundtrip(tmp_path, case2):
    ref = brute_force_reference(case2)
    sol = ReferenceSolution("case2", (ref,))
    path = tmp_path / "ref.json"
    harness.save_reference(sol, path)
    back = harness.load_reference(path)
    inst = back.instances[0]
    assert np.allclose(inst.p_g, ref.p_g)
    assert np.allclose(inst.v_g, ref.v_g)
    assert np.allclose(inst.lam, ref.lam)
    assert inst.cost == ref.cost
    assert np.allclose(inst.v, ref.v)


def test_oracle_feasible_and_kkt_consistent(case3):
    ref = brute_force_reference(case3)
    problem = grid.assemble_qcqp(case3)
    forms = problem.stack.forms(ref.v)
    assert np.all(forms <= problem.bounds + 1e-6)
    assert ref.cost == pytest.approx(
        float(np.real(ref.v.conj() @ problem.dense_m0() @ ref.v)), abs=1e-9)
    # oracle refuses beyond desk scale
    big = grid.parse_case(CASE2_TEXT)
    with pytest.raises(ValidationError):
        fat = grid.NetworkCase(
            buses=tuple(grid.BusRecord(i, "load" if i else "gen", 0.1 * (i > 0),
                                       0.0, 0.9, 1.1) for i in range(5)),
            branches=tuple(grid.BranchRecord(i, i + 1, 4.0, -8.0, 1.0)
                           for i in range(4)),
            generators=(grid.GeneratorRecord(0, 1.0, 0.0, 2.0, -1.0, 1.0),),
        )
        brute_force_reference(fat)


def test_metrics_zero_at_reference(case2):
    ref = brute_force_reference(case2)
    problem = grid.assemble_qcqp(case2)
    lam = np.zeros(problem.m_stored)
    lam[restricted_rows(problem)] = ref.lam
    metrics = compute_metrics(case2, problem, ref.v, lam, ref.cost, ref)
    assert metrics.x_error == pytest.approx(0.0, abs=1e-9)
    assert metrics.lambda_error == pytest.approx(0.0, abs=1e-12)
    assert metrics.violation_count == 0
    assert metrics.lagrangian_error == pytest.approx(0.0, abs=1e-12)


def test_metrics_doubled_lambda_is_100_percent(case2):
    ref = brute_force_reference(case2)
    problem = grid.assemble_qcqp(case2)
    lam = np.zeros(problem.m_stored)
    lam[restricted_rows(problem)] = 2.0 * ref.lam
    metrics = compute_metrics(case2, problem, ref.v, lam, ref.cost, ref)
    assert metrics.lambda_error == pytest.approx(1.0, abs=1e-12)


def test_violation_stats_normalization(case2):
    problem = grid.assemble_qcqp(case2)
    # inflate the voltage at bus 2 beyond its box by scaling the solution
    ref = brute_force_reference(case2)
    v_bad = ref.v * 1.2
    count, vmax, vmean = harness.violation_stats(case2, problem, v_bad)
    assert count > 0
    assert vmax > 0 and vmean > 0
    # balance rows are excluded: a feasible point scores zero
    count0, vmax0, _ = harness.violation_stats(case2, problem, ref.v)
    assert count0 == 0
    assert vmax0 <= 1e-4


def test_dual_comparison_floors_small_entries(case2):
    problem = grid.assemble_qcqp(case2)
    lam = np.full(problem.m_stored, 1e-9)
    lam[restricted_rows(problem)[0]] = 0.5
    entries = dual_comparison_entries(problem, lam)
    assert entries[0] == 0.5
    assert np.all(entries[1:] == 0.0)


def test_overlap_cost_bounds_and_gradient(case2):
    spec = sim.AnsatzSpec.from_row(6, 2, 2)
    rng = np.random.default_rng(3)
    target = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    params = rng.uniform(0, 2 * math.pi, spec.param_count)
    cost = overlap_cost(spec, params, target)
    assert 0.0 <= cost <= 2.0
    # the half-angle two-point rule equals finite differences
    g = overlap_gradient(spec, params, target)
    h = 1e-6
    for j in range(spec.param_count):
        up, down = params.copy(), params.copy()
        up[j] += h
        down[j] -= h
        fd = (overlap_cost(spec, up, target) - overlap_cost(spec, down, target)) / (2 * h)
        assert abs(fd - g[j]) < 1e-6


def test_fit_state_exact_for_representable_target():
    spec = sim.AnsatzSpec.from_row(6, 1, 1)
    target = np.array([1.0, 0.0], dtype=complex)   # |0>, trivially representable
    cost, params = fit_state(spec, target, seed=1, restarts=2, iters=200)
    assert cost < 1e-6


def test_fit_ansatz_ranks_and_dual_target(case2):
    ref = brute_force_reference(case2)
    problem = grid.pad_to_qubits(grid.assemble_qcqp(case2))
    lam_full = np.zeros(problem.m_stored)
    lam_full[restricted_rows(grid.assemble_qcqp(case2))] = ref.lam
    target = harness.dual_fit_target(lam_full, problem.m_stored)
    assert np.linalg.norm(target) == pytest.approx(1.0)
    reports = harness.fit_ansatz(
        [AnsatzChoice(2, 3), AnsatzChoice(3, 3)], [target], n_qubits=4,
        role="dual", seed=0, restarts=2, iters=150)
    assert reports[0].mean_cost <= reports[1].mean_cost
    # Rz-only circuits cannot move the PMF off |0>: row 2 must win
    assert reports[0].choice.row == 2


def test_config_from_json_defaults_and_overrides(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "case": "some.case",
        "instances": 3,
        "mode": "sampled",
        "shots": 7,
        "quantum_schedule": {"theta": [0.05, 0.999]},
        "stop": {"max_iters": 11},
    }))
    config = config_from_json(path)
    assert config.instances == 3
    assert config.mode == "sampled" and config.shots == 7
    assert config.quantum_schedule.theta == (0.05, 0.999)
    assert config.quantum_schedule.phi == (0.01, 0.99985)   # default kept
    assert config.stop.max_iters == 11
    assert config.primal == AnsatzChoice(6, 10)
    assert config.dual == AnsatzChoice(2, 35)
    assert config.load_scale == (0.90, 1.05)
    with pytest.raises(ValidationError):
        config_from_json({"case": "x", "load_scale": [0.5, 2.5]})


def test_run_experiment_two_bus_exact(tmp_path, case2_file):
    config = ExperimentConfig(
        case_path=str(case2_file),
        instances=2,
        models=("qcqp", "qcqp_theta"),
        methods=("eg",),
        primal=AnsatzChoice(6, 1),
        dual=AnsatzChoice(2, 2),
        rcm_runs=4,
        seed=3,
        quantum_schedule=harness.saddle_mod.StepSchedule(
            (0.02, 1.0), (3e-5, 1.0), (0.02, 1.0), (3e-5, 1.0)),
        classical_schedule=harness.saddle_mod.StepSchedule(
            (5e-3, 1.0), (0.0, 1.0), (5e-3, 1.0), (0.0, 1.0)),
        stop=harness.saddle_mod.StopRule(1e-8, 1e-8, 400),
        classical_stop=harness.saddle_mod.StopRule(1e-10, 1e-10, 4000),
        out_dir=str(tmp_path / "run"),
    )
    report = harness.run_experiment(config)
    assert len(report.instances) == 2
    assert set(report.instances[0]) == {"QCQP-EG", "QCQPt-EG"}
    for inst in report.instances:
        for result in inst.values():
            assert result.metrics is not None
            assert math.isfinite(result.metrics.x_error)
    # classical EG on this convex desk case lands close to the oracle
    summary = report.summary()
    assert summary["QCQP-EG"]["x_error"] < 0.05
    files = emit_report(report, tmp_path / "run")
    names = {f.name for f in files}
    assert "table1.csv" in names and "report.json" in names
    table = (tmp_path / "run" / "table1.csv").read_text().splitlines()
    assert table[0] == "model,x_err,lambda_err,viol_count,viol_max,viol_mean"
    assert len(table) == 3
    doc = json.loads((tmp_path / "run" / "report.json").read_text())
    assert "summary" in doc and len(doc["instances"]) == 2


def test_run_experiment_determinism(case2_file):
    config = ExperimentConfig(
        case_path=str(case2_file), instances=1, models=("qcqp_theta",),
        methods=("pd",), primal=AnsatzChoice(6, 1), dual=AnsatzChoice(2, 1),
        rcm_runs=2, seed=9,
        stop=harness.saddle_mod.StopRule(1e-8, 1e-8, 50))
    a = harness.run_experiment(config)
    b = harness.run_experiment(config)
    ra = a.instances[0]["QCQPt-PD"]
    rb = b.instances[0]["QCQPt-PD"]
    assert ra.lagrangians == rb.lagrangians
    assert ra.metrics.x_error == rb.metrics.x_error


def test_emit_report_empty_instances(tmp_path):
    report = harness.RunReport(config=None, stats=None, instances=[])
    files = emit_report(report, tmp_path / "empty")
    table = (tmp_path / "empty" / "table1.csv").read_text().splitlines()
    assert table == ["model,x_err,lambda_err,viol_count,viol_max,viol_mean"]


def test_ieee57_pipeline_smoke(ieee57):
    """Three exact iterations at full benchmark scale: catches dimension and
    bookkeeping mistakes in the permuted 64x512 pipeline."""
    import qopf.saddle as saddle
    config = ExperimentConfig(
        case_path="unused",
        instances=1,
        models=("qcqp_theta",),
        methods=("pd",),
        primal=AnsatzChoice(6, 1),
        dual=AnsatzChoice(2, 2),
        rcm_runs=5,
        seed=1,
        stop=harness.saddle_mod.StopRule(1e-9, 1e-9, 3),
    )
    report = harness.run_experiment(config, case=ieee57)
    result = report.instances[0]["QCQPt-PD"]
    assert result.iterations == 3
    assert result.metrics is None          # no reference at this scale
    assert len(result.duals) == 278        # balance + line rows
    assert report.stats.bandwidth_after < report.stats.bandwidth_before


def test_production_paths_never_densify(monkeypatch, case2, case3):
    """Preparation, context build, gradients, bounds, the classical
    baselines, constraint values, setpoints, violations and the oracle all
    run on the stacked sparse rows, without per-row Constraint records."""
    def refuse(self):
        raise AssertionError("production code densified the problem")

    monkeypatch.setattr(grid.QcqpProblem, "dense_constraints", refuse)
    monkeypatch.setattr(grid.QcqpProblem, "dense_m0", refuse)
    monkeypatch.setattr(grid.QcqpProblem, "constraints", property(refuse))
    prepared = harness.prepare_case(case3, rcm_runs=3)
    assert prepared.permuted.m_stored == 32
    problem = grid.pad_to_qubits(grid.assemble_qcqp(case2))
    ctx = model.LagrangianContext(problem, sim.AnsatzSpec.from_row(6, 1, 1),
                                  sim.AnsatzSpec.from_row(2, 4, 1))
    p = model.PrimalPoint(np.full(ctx.p_count, 0.3), 1.2)
    d = model.DualPoint(np.full(ctx.q_count, 0.7), 0.8)
    assert np.all(np.isfinite(model.grad(ctx, p, d).stacked()))
    bounds.inputs_from_context(ctx)
    schedule = saddle.StepSchedule.constant(1e-3)
    init = saddle.ClassicalState(np.ones(problem.dim, dtype=complex),
                                 np.zeros(problem.m_stored))
    for method in (saddle.PD, saddle.EG):
        traj = saddle.run_classical(problem, init, method, schedule,
                                    saddle.StopRule(max_iters=3))
        assert len(traj.lagrangians) == 3
    forms = problem.stack.forms(init.v)
    assert forms.shape == (problem.m_stored,)
    assert harness.extract_setpoints(case2, problem, init.v).shape == (2,)
    assert np.all(np.isfinite(harness.violation_stats(case2, problem, init.v)))
    ref = brute_force_reference(case2)
    assert np.all(np.isfinite(ref.x))
