import json
import time

import numpy as np
import pytest

from qopf import bounds, cli, grid, harness, saddle
from qopf.sim import chain_seed

from conftest import CASE2_TEXT, CASE3_TEXT


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, case_file, **overrides):
    doc = {
        "case": str(case_file),
        "instances": 1,
        "models": ["qcqp"],
        "methods": ["eg"],
        "rcm_runs": 2,
        "classical_schedule": {"theta": [5e-3, 1.0], "phi": [5e-3, 1.0]},
        "classical_stop": {"max_iters": 1500, "theta_tol": 1e-9, "phi_tol": 1e-9},
        "stop": {"max_iters": 30},
        "primal_ansatz": {"row": 6, "layers": 1},
        "dual_ansatz": {"row": 2, "layers": 1},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_permute_reports_problem_sizes(case2_file, capsys):
    code, out, _ = run_cli(capsys, "permute", str(case2_file), "--rcm-runs", "2")
    assert code == 0
    row = dict(zip(*(line.split(",") for line in out.strip().splitlines())))
    assert row["n"] == "2" and row["rows"] == "15"
    assert (row["dim"], row["rows_padded"]) == ("2", "16")


def test_permute_csv_row(case2_file, capsys):
    code, out, _ = run_cli(capsys, "permute", str(case2_file), "--rcm-runs", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("case,n,edges")
    fields = lines[1].split(",")
    assert fields[1] == "2" and fields[2] == "1"


def chain_case_text(n):
    """An n-bus chain: a generator at bus 1 and light loads elsewhere."""
    lines = ["BUS", "1 gen 0.0 0.0 0.9 1.1"]
    lines += [f"{k} load 0.01 0.002 0.9 1.1" for k in range(2, n + 1)]
    lines += ["BRANCH"] + [f"{k} {k + 1} 4.0 -8.0 1.0" for k in range(1, n)]
    lines += ["GEN", "1 0.0 5.0 -3.0 3.0", "COST", "1 1.0"]
    return "\n".join(lines) + "\n"


def test_xbm_stats_above_dense_limit(tmp_path, capsys):
    # 260 buses store every matrix as scipy.sparse (dimension 512 after
    # padding, 2048 stored rows)
    path = tmp_path / "chain260.case"
    path.write_text(chain_case_text(260), encoding="utf-8")
    code, out, err = run_cli(capsys, "xbm-stats", str(path), "--rcm-runs", "2")
    assert code == 0, err
    assert "union colors C = " in out
    assert out.splitlines()[3].startswith("M0,")


def test_xbm_stats(case2_file, capsys):
    code, out, _ = run_cli(capsys, "xbm-stats", str(case2_file), "--rcm-runs", "2")
    assert code == 0
    assert "union colors" in out
    assert "M0" in out


def test_xbm_stats_gate_counts_ieee57(capsys):
    path = harness.bundled_case_path("ieee57")
    code, out, err = run_cli(capsys, "xbm-stats", str(path))
    assert code == 0, err
    lines = out.splitlines()
    summary = lines[lines.index("observable,colors,pieces,max_gates,sum_norm_sq") + 1]
    pieces = [line.split(",")
              for line in lines[lines.index("piece,color,part,gates,norm") + 1:]]
    assert pieces and all(row[0] == "M0" for row in pieces)
    expected = [0 if color == "0" else bin(int(color)).count("1") + (part == "imag")
                for _, color, part, _, _ in pieces]
    assert [int(row[3]) for row in pieces] == expected
    name, _, n_pieces, max_gates, _ = summary.split(",")
    assert (name, int(n_pieces), int(max_gates)) == ("M0", len(pieces), max(expected))


def test_bounds_command(tmp_path, case2_file, capsys):
    config = write_config(tmp_path, case2_file)
    code, out, _ = run_cli(capsys, "bounds", str(config), "--epsilon", "0.5")
    assert code == 0
    assert "L = " in out and "sigma^2" in out
    assert "T (iterations)" in out and "circuits/iteration" in out


def test_bounds_reads_the_solved_instance_ieee57(tmp_path, capsys):
    """The ledger's C and circuits per iteration are those of the problem a
    run solves: instance 0, load-scaled and simplified, in the run's node
    order.  The raw case under another RCM seed has fewer colours here."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(
        {"case": str(harness.bundled_case_path("ieee57")), "rcm_runs": 20}))
    code, out, err = run_cli(capsys, "bounds", str(config_path))
    assert code == 0, err
    config = harness.config_from_json(config_path)
    prepared = harness.prepare_instances(config, grid.load_case(config.case_path))[0]
    ctx = harness.build_context(config, prepared.permuted)
    circuits = bounds.circuits_per_iteration(ctx.p_count, ctx.q_count, ctx.color_count)
    lines = out.splitlines()
    assert lines[0] == f"P={ctx.p_count} Q={ctx.q_count} C={ctx.color_count}"
    assert f"circuits/iteration = {circuits}" in lines


def test_solve_and_report(tmp_path, case2_file, capsys):
    out_dir = tmp_path / "run"
    config = write_config(tmp_path, case2_file, out=str(out_dir))
    code, out, _ = run_cli(capsys, "solve", str(config))
    assert code == 0
    assert "QCQP-EG" in out
    assert (out_dir / "table1.csv").exists()
    code, out, _ = run_cli(capsys, "report", str(out_dir), "--format", "csv")
    assert code == 0
    assert out.startswith("model,")
    code, out, _ = run_cli(capsys, "report", str(out_dir), "--format", "json")
    assert code == 0
    assert json.loads(out)["summary"]


def test_fit_command(tmp_path, case2_file, capsys):
    config = write_config(tmp_path, case2_file)
    code, out, _ = run_cli(capsys, "fit", str(config), "--restarts", "1",
                           "--iters", "60")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "role,row,layers,mean_cost"
    assert any(line.startswith("primal,") for line in lines[1:])
    assert any(line.startswith("dual,") for line in lines[1:])


def test_fit_targets_are_in_the_solved_order(tmp_path, capsys, monkeypatch):
    """The primal targets are the reference voltages as the primal circuit
    represents them: padded, then permuted by the run's ordering."""
    case_file = tmp_path / "case3.case"
    case_file.write_text(CASE3_TEXT, encoding="utf-8")
    config_path = write_config(tmp_path, case_file)
    targets = {}

    def record(candidates, target_list, n_qubits, role, **kwargs):
        targets[role] = target_list
        return []

    monkeypatch.setattr(harness, "fit_ansatz", record)
    code, _, err = run_cli(capsys, "fit", str(config_path))
    assert code == 0, err
    config = harness.config_from_json(config_path)
    prepared = harness.prepare_instances(config, grid.load_case(config.case_path))[0]
    assert not np.array_equal(prepared.perm.forward, np.arange(prepared.permuted.dim))
    v_star = harness.brute_force_reference(prepared.case).v
    padded = np.zeros(prepared.permuted.dim, dtype=complex)
    padded[:len(v_star)] = v_star
    assert len(targets["primal"]) == 1
    assert np.array_equal(targets["primal"][0], prepared.perm.apply_to_vector(padded))


def test_fit_without_reference_exits_1(tmp_path, capsys):
    path = tmp_path / "chain4.case"
    path.write_text(chain_case_text(4), encoding="utf-8")
    config = write_config(tmp_path, path)
    code, _, err = run_cli(capsys, "fit", str(config))
    assert code == 1
    assert "needs a reference solution file" in err


def test_validation_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.case"
    bad.write_text(CASE2_TEXT.replace("1 2 4.0 -8.0 1.0", "2 2 4.0 -8.0 1.0"))
    code, _, err = run_cli(capsys, "permute", str(bad))
    assert code == 1
    assert "self-loop" in err


def test_config_value_exit_code(tmp_path, case2_file, capsys):
    config = write_config(tmp_path, case2_file, quantum_schedule={"theta": [0.1]})
    code, _, err = run_cli(capsys, "solve", str(config))
    assert code == 1
    assert "quantum_schedule.theta" in err


def test_io_exit_code(capsys):
    code, _, err = run_cli(capsys, "permute", "no-such-file.case")
    assert code == 3
    assert "i/o error" in err


def reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def test_diverged_report_is_strict_json(tmp_path, case2_file, capsys):
    out_dir = tmp_path / "run"
    config = write_config(
        tmp_path, case2_file,
        classical_schedule={"theta": [50.0, 1.0], "phi": [50.0, 1.0]},
        divergence_ceiling=1e6, out=str(out_dir))
    code, _, _ = run_cli(capsys, "solve", str(config))
    assert code == 2
    doc = json.loads((out_dir / "report.json").read_text(encoding="utf-8"),
                     parse_constant=reject_constant)
    result = doc["instances"][0]["QCQP-EG"]
    assert result["stop_reason"] == "diverged"
    assert result["lagrangian_final"] is None
    code, out, _ = run_cli(capsys, "report", str(out_dir), "--format", "json")
    assert code == 0
    assert json.loads(out, parse_constant=reject_constant) == doc
    code, out, _ = run_cli(capsys, "report", str(out_dir), "--format", "csv")
    assert code == 0
    assert out.startswith("model,")


def test_diverged_report_keeps_partial_run(tmp_path, case2_file, capsys):
    """A diverged run reports the iterations it completed: their count,
    their Lagrangians and the time they took, as the same classical run
    repeated outside the CLI gives them."""
    out_dir = tmp_path / "run"
    config_path = write_config(   # diverges after a few iterations
        tmp_path, case2_file,
        classical_schedule={"theta": [0.015, 1.0], "phi": [0.015, 1.0]},
        divergence_ceiling=1e6, out=str(out_dir))
    start = time.perf_counter()
    code, _, _ = run_cli(capsys, "solve", str(config_path))
    solve_s = time.perf_counter() - start
    assert code == 2
    result = json.loads((out_dir / "report.json").read_text(encoding="utf-8"),
                        parse_constant=reject_constant)["instances"][0]["QCQP-EG"]

    config = harness.config_from_json(config_path)
    prepared = harness.prepare_instances(config, grid.load_case(config.case_path))[0]
    init = saddle.default_classical_init(prepared.problem, len(prepared.case.load_nodes),
                                         chain_seed(config.seed, 1, 0))
    with pytest.raises(saddle.DivergenceError) as err:
        saddle.run_classical(prepared.problem, init, saddle.EG, config.classical_schedule,
                             config.classical_stop,
                             divergence_ceiling=config.divergence_ceiling)
    ran = err.value.trajectory.lagrangians
    assert len(ran) == err.value.iteration > 0
    assert result["iterations"] == len(ran)
    assert result["lagrangians"] == ran
    assert 0 < result["wall_time"] < solve_s
    trajectory_csv = (out_dir / "trajectory_0_QCQP-EG.csv").read_text(encoding="utf-8")
    assert len(trajectory_csv.splitlines()) == 1 + len(ran)


def test_divergence_exit_code(tmp_path, case2_file, capsys):
    config = write_config(
        tmp_path, case2_file,
        classical_schedule={"theta": [50.0, 1.0], "phi": [50.0, 1.0]},
        divergence_ceiling=1e6, out=str(tmp_path / "run"))
    code, _, err = run_cli(capsys, "solve", str(config))
    assert code == 2
    assert "divergence" in err
