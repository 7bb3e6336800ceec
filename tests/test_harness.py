import csv
import json
import math
import re
import time
from dataclasses import replace

import numpy as np
import pytest

from qopf import bounds, grid, harness, model, saddle, sim
from qopf.grid import LABEL_BALANCE_P, LABEL_BALANCE_Q, ValidationError
from qopf.harness import (
    AnsatzChoice,
    ExperimentConfig,
    ReferenceSolution,
    apply_benchmark_simplifications,
    brute_force_reference,
    compute_metrics,
    config_from_json,
    dual_comparison_entries,
    emit_report,
    fit_state,
    generate_instances,
    minimal_split,
    overlap,
    prepare_case,
    restricted_rows,
)

from qopf.saddle import classical_lagrangian

from conftest import CASE2_TEXT, constant_schedule


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
    cost_perm = np.real(v_perm.conj() @ prepared.permuted.m0.toarray() @ v_perm)
    padded = grid.pad_to_qubits(prepared.problem)
    cost = np.real(v.conj() @ padded.m0.toarray() @ v)
    assert cost == pytest.approx(cost_perm, abs=1e-10)


def test_prepare_case_stats_ieee57(ieee57):
    prepared = prepare_case(ieee57, rcm_runs=200, seed=7)
    s = prepared.stats
    assert (s.n, s.edges) == (57, 78)
    assert s.bandwidth_before == 46 and s.bandwidth_after == 11
    assert s.colors_before == 27 and s.colors_after == 22


def test_prepare_instances_order_each_case_once(ieee57, monkeypatch):
    """One RCM search per run, on instance 0 with the run's seed; every
    instance shares its ordering and statistics.  At rcm_runs = 20, separate
    searches on instances 1 and 2 would pick orderings with other colour
    counts."""
    config = ExperimentConfig(case_path="unused", instances=3, rcm_runs=20, seed=0)
    searches = []
    search = harness.prepare_case
    monkeypatch.setattr(harness, "prepare_case",
                        lambda *args: searches.append(args) or search(*args))
    prepared = harness.prepare_instances(config, ieee57)
    assert len(searches) == 1
    instances = generate_instances(ieee57, 3, config.load_scale, config.seed)
    assert [p.case for p in prepared] == instances
    first = prepared[0]
    for other in prepared[1:]:
        assert np.array_equal(other.perm.forward, first.perm.forward)
        assert other.stats == first.stats
    alone = search(instances[0], 20, sim.chain_seed(0, 100, 0))
    assert first.stats == alone.stats
    for name in ("segments", "rows", "cols", "values"):
        assert np.array_equal(getattr(first.permuted.stack, name),
                              getattr(alone.permuted.stack, name))
    assert (first.permuted.m0 != alone.permuted.m0).nnz == 0
    assert np.array_equal(first.permuted.bounds, alone.permuted.bounds)


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
        float(np.real(ref.v.conj() @ problem.m0.toarray() @ ref.v)), abs=1e-9)
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


def test_balance_pair_shift_scores_the_same(case3):
    """Each balance equality is the row pair (M, b), (-M, -b): adding t to
    both multipliers of a pair leaves L unchanged, and the multiplier metrics
    score both sides in their minimal split, so the shift does not count."""
    ref = brute_force_reference(case3)
    problem = grid.assemble_qcqp(case3)
    rows = restricted_rows(problem)
    balance = [pos for pos, k in enumerate(rows)
               if problem.labels[k] in (LABEL_BALANCE_P, LABEL_BALANCE_Q)]
    assert len(balance) == 8
    rng = np.random.default_rng(5)
    shift = np.zeros(len(rows))
    shift[balance] = np.repeat(rng.uniform(0.1, 2.0, len(balance) // 2), 2)
    lam = np.zeros(problem.m_stored)
    lam[rows] = ref.lam + rng.uniform(0.0, 0.5, len(rows))
    shifted = lam.copy()
    shifted[rows] += shift
    assert classical_lagrangian(problem, ref.v, shifted) == \
        pytest.approx(classical_lagrangian(problem, ref.v, lam), abs=1e-12)
    base = compute_metrics(case3, problem, ref.v, lam, ref.cost, ref)
    assert base.lambda_error > 0
    for found, reference in ((shifted, ref), (lam, replace(ref, lam=ref.lam + shift)),
                             (shifted, replace(ref, lam=ref.lam + 2 * shift))):
        metrics = compute_metrics(case3, problem, ref.v, found, ref.cost, reference)
        assert metrics.lambda_error == pytest.approx(base.lambda_error, abs=1e-12)
    assert np.allclose(dual_comparison_entries(problem, shifted),
                       dual_comparison_entries(problem, lam), rtol=0, atol=1e-12)
    split = minimal_split(problem, lam[rows])
    assert np.array_equal(minimal_split(problem, split), split)
    assert np.all(np.minimum(split[balance[0::2]], split[balance[1::2]]) == 0)


def test_dual_comparison_floors_small_entries(case2):
    problem = grid.assemble_qcqp(case2)
    lam = np.full(problem.m_stored, 1e-9)
    lam[restricted_rows(problem)[0]] = 0.5
    entries = dual_comparison_entries(problem, lam)
    # row 0 is the upper row of a balance pair: its minimal split is 0.5 - 1e-9
    assert entries[0] == 0.5 - 1e-9
    assert np.all(entries[1:] == 0.0)


def test_overlap_cost_bounds_and_gradient(case2):
    spec = sim.AnsatzSpec.from_row(6, 2, 2)
    rng = np.random.default_rng(3)
    target = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    params = rng.uniform(0, 2 * math.pi, spec.param_count)
    cost, g = overlap(spec, params, target)
    assert 0.0 <= cost <= 2.0
    assert cost == 1.0 - float(np.real(np.vdot(sim.prepare(spec, params), target))) \
        / float(np.linalg.norm(target))
    # the adjoint gradient equals finite differences
    h = 1e-6
    for j in range(spec.param_count):
        up, down = params.copy(), params.copy()
        up[j] += h
        down[j] -= h
        fd = (overlap(spec, up, target)[0] - overlap(spec, down, target)[0]) / (2 * h)
        assert abs(fd - g[j]) < 1e-6


def test_fit_state_exact_for_representable_target():
    spec = sim.AnsatzSpec.from_row(6, 1, 1)
    target = np.array([1.0, 0.0], dtype=complex)   # |0>, trivially representable
    cost, params = fit_state(spec, target, seed=1, restarts=2, iters=200)
    assert cost < 1e-6


@pytest.mark.parametrize("trial", range(3))
def test_fit_state_recovers_target_of_same_ansatz(trial):
    """A target prepared by the ansatz itself is recovered to rounding."""
    spec = sim.AnsatzSpec.from_row(6, 3, 3)
    params = np.random.default_rng(trial).uniform(0, 2 * math.pi, spec.param_count)
    target = sim.prepare(spec, params)
    cost, fitted = fit_state(spec, target, seed=[40, trial], restarts=1)
    assert cost <= 1e-12
    assert overlap(spec, fitted, target)[0] == pytest.approx(cost, abs=1e-15)


def test_fit_ansatz_ranks_and_dual_target(case2):
    ref = brute_force_reference(case2)
    problem = grid.pad_to_qubits(grid.assemble_qcqp(case2))
    lam_full = np.zeros(problem.m_stored)
    lam_full[restricted_rows(grid.assemble_qcqp(case2))] = ref.lam
    target = harness.dual_fit_target(lam_full, problem.m_stored)
    # a real target keeps the real-amplitude dual's fit in real arithmetic
    assert target.dtype == np.float64
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
    # every documented key is accepted; a misspelt one, at any level, is not
    config = config_from_json({
        "case": "x", "instances": 2, "load_scale": [0.9, 1.0],
        "primal_ansatz": {"row": 6, "layers": 2}, "dual_ansatz": {"row": 2, "layers": 3},
        "models": ["qcqp"], "methods": ["pd"], "mode": "exact", "shots": 5, "seed": 4,
        "rcm_runs": 3,
        "quantum_schedule": {"theta": [0.1, 1.0], "alpha": [0.2, 1.0],
                             "phi": [0.3, 1.0], "beta": [0.4, 1.0]},
        "classical_schedule": {"theta": [0.5, 1.0]},
        "stop": {"theta_tol": 1e-3, "phi_tol": 1e-4, "max_iters": 9},
        "classical_stop": {"max_iters": 8}, "reference": "r.json", "out": "o",
        "divergence_ceiling": 1e3, "apply_simplifications": False,
    })
    assert config.quantum_schedule.beta == (0.4, 1.0)
    assert config.classical_stop.max_iters == 8
    assert config.divergence_ceiling == 1e3 and config.apply_simplifications is False
    for doc, key in (({"shot": 50}, "'shot'"),
                     ({"stop": {"max_iter": 5}}, "stop.'max_iter'"),
                     ({"classical_stop": {"tol": 1}}, "classical_stop.'tol'"),
                     ({"quantum_schedule": {"mu": [1, 1]}}, "quantum_schedule.'mu'"),
                     ({"classical_schedule": {"Theta": [1, 1]}}, "classical_schedule.'Theta'"),
                     ({"primal_ansatz": {"rows": 6}}, "primal_ansatz.'rows'"),
                     ({"dual_ansatz": {"layer": 3}}, "dual_ansatz.'layer'")):
        with pytest.raises(ValidationError, match=f"unknown config key {re.escape(key)}"):
            config_from_json({"case": "x", **doc})
    with pytest.raises(ValidationError, match="needs a 'case' key"):
        config_from_json({"instances": 1})
    # values are checked too, so the CLI exits 1 instead of failing later
    for doc, message in (({"quantum_schedule": {"theta": [0.1]}}, "quantum_schedule.theta"),
                         ({"classical_schedule": {"phi": []}}, "classical_schedule.phi"),
                         ({"quantum_schedule": {"beta": ["1", 1]}}, "quantum_schedule.beta"),
                         ({"instances": 0}, "instances"),
                         ({"shots": 2.5}, "shots"),
                         ({"rcm_runs": "20"}, "rcm_runs"),
                         ({"stop": {"max_iters": "10"}}, "stop.max_iters"),
                         ({"classical_stop": {"max_iters": -1}}, "classical_stop.max_iters"),
                         ({"primal_ansatz": {"row": 9}}, "primal_ansatz.row"),
                         ({"dual_ansatz": {"layers": -1}}, "dual_ansatz.layers"),
                         ({"load_scale": [0.9]}, "load_scale"),
                         ({"load_scale": 0.9}, "load_scale"),
                         ({"stop": {"theta_tol": "x"}}, "stop.theta_tol"),
                         ({"classical_stop": {"phi_tol": None}}, "classical_stop.phi_tol"),
                         ({"seed": "x"}, "seed"),
                         ({"seed": -1}, "seed"),
                         ({"divergence_ceiling": "big"}, "divergence_ceiling"),
                         ({"apply_simplifications": "no"}, "apply_simplifications"),
                         ({"case": 3}, "case"),
                         ({"reference": 5}, "reference"),
                         ({"out": ["o"]}, "out"),
                         ({"primal_ansatz": {"row": True}}, "primal_ansatz.row")):
        with pytest.raises(ValidationError, match=re.escape(message)):
            config_from_json({"case": "x", **doc})
    assert config_from_json({"case": "x", "stop": {"max_iters": 0}}).stop.max_iters == 0


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

    # trajectory CSVs: the classical baseline leaves the gradient-norm, scale
    # and shot cells empty; the variational run fills them, scales included
    def rows(name):
        with (tmp_path / "run" / f"trajectory_0_{name}.csv").open(newline="") as fh:
            return list(csv.DictReader(fh))

    cells = ("g_theta", "g_alpha", "g_phi", "g_beta", "g_total", "alpha", "beta", "shots")
    classical = rows("QCQP-EG")
    assert len(classical) == report.instances[0]["QCQP-EG"].iterations > 0
    assert all(row[c] == "" for row in classical for c in cells)
    variational = rows("QCQPt-EG")
    scales = report.instances[0]["QCQPt-EG"].scales
    assert len(variational) == len(scales) > 0
    for row, (alpha, beta) in zip(variational, scales):
        assert all(row[c] != "" for c in cells)
        assert (float(row["alpha"]), float(row["beta"])) == (alpha, beta)


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


def test_diverged_wall_time_includes_setup(case2_file, monkeypatch):
    """A diverged run's wall time starts where a finished run's does,
    before the context build: a build that sleeps 0.05 s shows in it."""
    class SlowContext(model.LagrangianContext):
        def __init__(self, *args):
            time.sleep(0.05)
            super().__init__(*args)

    monkeypatch.setattr(harness, "LagrangianContext", SlowContext)
    config = ExperimentConfig(
        case_path=str(case2_file), instances=1, models=("qcqp_theta",),
        methods=("pd",), primal=AnsatzChoice(6, 1), dual=AnsatzChoice(2, 1),
        rcm_runs=2, seed=9, stop=harness.saddle_mod.StopRule(1e-8, 1e-8, 50),
        divergence_ceiling=1e-12)
    result = harness.run_experiment(config).instances[0]["QCQPt-PD"]
    assert result.stop_reason == "diverged" and result.error
    assert result.wall_time >= 0.05


def test_emit_report_empty_instances(tmp_path):
    report = harness.RunReport(config=None, stats=None, instances=[])
    files = emit_report(report, tmp_path / "empty")
    table = (tmp_path / "empty" / "table1.csv").read_text().splitlines()
    assert table == ["model,x_err,lambda_err,viol_count,viol_max,viol_mean"]


def test_ieee57_pipeline_smoke(ieee57):
    """Three exact iterations at full benchmark scale: catches dimension and
    bookkeeping mistakes in the permuted 64x512 pipeline."""
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
    schedule = constant_schedule(1e-3)
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
