import math

import numpy as np
import pytest
from scipy import sparse

from qopf import grid
from qopf.grid import (
    LABEL_BALANCE_P,
    LABEL_BALANCE_Q,
    LABEL_GEN,
    LABEL_LINE,
    LABEL_PADDING,
    LABEL_REFERENCE,
    LABEL_VOLTAGE,
    ParseError,
    ValidationError,
)

from conftest import (
    CASE2_TEXT,
    problem_from_rows,
    random_hermitian,
    random_problem,
    stack_problems,
)


def test_parse_minimal_two_bus(case2):
    assert case2.n == 2
    assert case2.generator_nodes == (0,)
    assert case2.load_nodes == (1,)
    assert len(case2.branches) == 1
    assert case2.buses[1].p_demand == 0.5


def test_parse_preserves_per_unit_values_bit_exact():
    case = grid.parse_case(CASE2_TEXT)
    assert case.buses[1].q_demand == 0.165
    assert case.branches[0].b_series == -8.0


def test_parse_rejects_self_loop():
    text = CASE2_TEXT.replace("1 2 4.0 -8.0 1.0", "2 2 4.0 -8.0 1.0")
    with pytest.raises(ValidationError, match="self-loop"):
        grid.parse_case(text)


def test_parse_rejects_duplicate_edge():
    text = CASE2_TEXT.replace("1 2 4.0 -8.0 1.0",
                              "1 2 4.0 -8.0 1.0\n2 1 1.0 -1.0 1.0")
    with pytest.raises(ValidationError, match="duplicate"):
        grid.parse_case(text)


def test_parse_rejects_disconnected_graph():
    text = """
BUS
1 gen 0 0 0.9 1.1
2 load 0.1 0.0 0.9 1.1
3 load 0.1 0.0 0.9 1.1
BRANCH
1 2 1.0 -2.0 1.0
GEN
1 0 1 -1 1
COST
1 1.0
"""
    with pytest.raises(ValidationError, match="disconnected"):
        grid.parse_case(text)


def test_parse_error_carries_line_number():
    text = CASE2_TEXT.replace("1 2 4.0 -8.0 1.0", "1 2 4.0 oops 1.0")
    with pytest.raises(ParseError, match=r"line \d+"):
        grid.parse_case(text)


def test_parse_ieee57(ieee57):
    assert ieee57.n == 57
    assert len(ieee57.generator_nodes) == 7
    assert len(ieee57.load_nodes) == 50
    assert len(ieee57.branches) == 78


def test_admittance_two_bus_laplacian():
    text = CASE2_TEXT.replace("1 2 4.0 -8.0 1.0", "1 2 1.0 -2.0 5.0")
    y = grid.build_admittance(grid.parse_case(text)).toarray()
    expected = np.array([[1 - 2j, -1 + 2j], [-1 + 2j, 1 - 2j]])
    assert np.allclose(y, expected)


def test_admittance_offdiagonal_count_matches_branches(ieee57):
    y = grid.build_admittance(ieee57).toarray()
    off = np.count_nonzero(y) - ieee57.n
    assert off == 2 * len(ieee57.branches)


def test_injection_matrices_match_scalar_power_flow(case3):
    y = grid.build_admittance(case3).toarray()
    g, b = y.real, y.imag
    rng = np.random.default_rng(0)
    for node in range(case3.n):
        mp, mq = (m.toarray() for m in grid.injection_matrices(case3, node))
        assert np.max(np.abs(mp - mp.conj().T)) == 0.0
        assert np.max(np.abs(mq - mq.conj().T)) < 1e-15
        for _ in range(100):
            v = rng.standard_normal(case3.n) + 1j * rng.standard_normal(case3.n)
            vr, vi = v.real, v.imag
            p = sum(vr[node] * (vr[m] * g[node, m] - vi[m] * b[node, m])
                    + vi[node] * (vi[m] * g[node, m] + vr[m] * b[node, m])
                    for m in range(case3.n))
            q = sum(vi[node] * (vr[m] * g[node, m] - vi[m] * b[node, m])
                    - vr[node] * (vi[m] * g[node, m] + vr[m] * b[node, m])
                    for m in range(case3.n))
            assert abs(np.real(v.conj() @ mp @ v) - p) < 1e-10
            assert abs(np.real(v.conj() @ mq @ v) - q) < 1e-10


def test_injection_flat_voltage_row_sum(case3):
    y = grid.build_admittance(case3).toarray()
    ones = np.ones(case3.n, dtype=complex)
    for node in range(case3.n):
        mp = grid.injection_matrices(case3, node)[0].toarray()
        assert np.real(ones @ mp @ ones) == pytest.approx(
            float(np.sum(y[node].real)), abs=1e-12)


def test_auxiliary_matrices(case2):
    aux = grid.auxiliary_matrices(case2)
    assert np.allclose(aux["voltage"][1].toarray(), np.diag([0.0, 1.0]))
    weight = abs(complex(4.0, -8.0))
    expected = weight * np.array([[1, -1], [-1, 1]])
    assert np.allclose(aux["current"][(0, 1)].toarray(), expected)
    assert np.allclose(aux["reference"].toarray(), np.diag([1.0, 0.0]))
    v = np.array([0.7 + 0.2j, 0.7 + 0.2j])
    assert abs(v.conj() @ aux["current"][(0, 1)].toarray() @ v) < 1e-15


def test_assemble_row_count_two_bus(case2):
    problem = grid.assemble_qcqp(case2)
    # 1 load node: 4 balance rows; 1 generator: 4; voltage: 4; ref: 2; line: 1
    assert problem.m == 15
    labels = [c.label for c in problem.constraints]
    assert labels.count(LABEL_BALANCE_P) == 2
    assert labels.count(LABEL_BALANCE_Q) == 2
    assert labels.count(LABEL_GEN) == 4
    assert labels.count(LABEL_VOLTAGE) == 4
    assert labels.count(LABEL_REFERENCE) == 2
    assert labels.count(LABEL_LINE) == 1


def test_assemble_ieee57_constraint_count(ieee57):
    from qopf.harness import apply_benchmark_simplifications
    problem = grid.assemble_qcqp(apply_benchmark_simplifications(ieee57))
    assert problem.m == 422


def test_assembled_matrices_hermitian_and_sparsity(ieee57):
    problem = grid.assemble_qcqp(ieee57)
    y = grid.build_admittance(ieee57).toarray()
    y_pattern = set(zip(*np.nonzero(y)))
    y_pattern |= {(i, i) for i in range(ieee57.n)}
    for c in problem.constraints:
        m = c.matrix.toarray()
        assert np.max(np.abs(m - m.conj().T)) <= 1e-12
        assert math.isfinite(c.bound)
        off = {(i, j) for i, j in zip(*np.nonzero(m)) if i != j}
        assert off <= y_pattern
    m0_off = {(i, j) for i, j in zip(*np.nonzero(problem.m0.toarray())) if i != j}
    assert m0_off <= y_pattern


def test_split_constraints_hold_at_reference(case2):
    from qopf import harness
    ref = harness.brute_force_reference(case2)
    problem = grid.assemble_qcqp(case2)
    forms = problem.stack.forms(ref.v)
    assert np.all(forms <= problem.bounds + 1e-8)


def test_pad_to_qubits_dimensions(case2):
    problem = grid.assemble_qcqp(case2)
    padded = grid.pad_to_qubits(problem)
    assert padded.dim == 2
    assert padded.m_stored == 16
    assert padded.m == 15
    assert padded.constraints[-1].label == LABEL_PADDING
    assert padded.constraints[-1].bound == 0.0


def test_pad_identity_when_already_power_of_two():
    problem = random_problem(4, 4, seed=5)
    assert grid.pad_to_qubits(problem) is problem


def test_pad_ieee57_to_64_and_512(ieee57):
    problem = grid.pad_to_qubits(grid.assemble_qcqp(ieee57))
    assert problem.dim == 64
    assert problem.m_stored == 512


def test_pad_to_qubits_matches_zero_embedding():
    problem = random_problem(3, 6, seed=25)
    padded = grid.pad_to_qubits(problem)
    assert (padded.dim, padded.m_stored) == (4, 8)
    rows = np.zeros((8, 4, 4), dtype=complex)
    rows[:6, :3, :3] = problem.dense_constraints()
    assert np.array_equal(padded.dense_constraints(), rows)
    m0 = np.zeros((4, 4), dtype=complex)
    m0[:3, :3] = problem.dense_m0()
    assert np.array_equal(padded.dense_m0(), m0)
    assert padded.bounds.tolist() == problem.bounds.tolist() + [0.0, 0.0]
    assert padded.labels[6:] == (LABEL_PADDING,) * 2
    assert padded.subjects[6:] == (None, None)


def test_padding_is_inert_for_lagrangian(case2):
    from qopf.saddle import classical_lagrangian
    problem = grid.assemble_qcqp(case2)
    padded = grid.pad_to_qubits(problem)
    rng = np.random.default_rng(3)
    for _ in range(10):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lam = np.abs(rng.standard_normal(problem.m_stored))
        v_pad = v.copy()
        lam_pad = np.concatenate([lam, np.zeros(padded.m_stored - problem.m_stored)])
        assert classical_lagrangian(problem, v, lam) == pytest.approx(
            classical_lagrangian(padded, v_pad, lam_pad), abs=0.0)


def test_quadratic_cost_rejected():
    mp_text = """
function mpc = case2
mpc.baseMVA = 100;
mpc.bus = [
 1 3 0 0 0 0 1 1.0 0 230 1 1.1 0.9;
 2 1 50 16.5 0 0 1 1.0 0 230 1 1.1 0.9;
];
mpc.gen = [
 1 0 0 100 -100 1.0 100 1 200 0;
];
mpc.branch = [
 1 2 0.05 0.1 0 100 0 0 0 0 1 -360 360;
];
mpc.gencost = [
 2 0 0 3 0.1 20 0;
];
"""
    with pytest.raises(ValidationError, match="quadratic"):
        grid.import_matpower(mp_text)


def test_matpower_import_roundtrip_semantics():
    mp_text = """
function mpc = case2
mpc.baseMVA = 100;
mpc.bus = [
 1 3 0 0 0 0 1 1.0 0 230 1 1.1 0.9;
 2 1 50 16.5 0 0 1 1.0 0 230 1 1.1 0.9;
];
mpc.gen = [
 1 0 0 100 -100 1.0 100 1 200 0;
];
mpc.branch = [
 1 2 0.05 0.1 0 100 0 0 0 0 1 -360 360;
];
mpc.gencost = [
 2 0 0 2 20 0;
];
"""
    case = grid.import_matpower(mp_text)
    assert case.n == 2
    assert case.buses[1].p_demand == pytest.approx(0.5)
    assert case.buses[1].q_demand == pytest.approx(0.165)
    br = case.branches[0]
    denom = 0.05**2 + 0.1**2
    assert br.g_series == pytest.approx(0.05 / denom)
    assert br.b_series == pytest.approx(-0.1 / denom)
    # rateA=100 MVA on 100 MVA base -> 1 pu; bound = 1^2 / |y|
    assert br.i_max == pytest.approx(1.0 / abs(complex(br.g_series, br.b_series)))
    assert case.generators[0].cost == pytest.approx(20 * 100)


@pytest.mark.parametrize("problem", stack_problems())
def test_matrix_stack_matches_dense_einsum(problem):
    tensor = problem.dense_constraints()
    stack = problem.stack
    assert (stack.count, stack.dim) == (problem.m_stored, problem.dim)
    # duplicates summed, stored zeros dropped: one entry per nonzero
    assert len(stack.values) == np.count_nonzero(tensor)
    assert np.all(stack.values != 0)
    dim = problem.dim
    # segment-major, row-major keys, each stored once
    keys = (stack.segments * dim + stack.rows) * dim + stack.cols
    assert np.all(np.diff(keys) > 0)
    rng = np.random.default_rng(4)
    for _ in range(5):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        forms = np.real(np.einsum("i,mij,j->m", v.conj(), tensor, v))
        assert np.allclose(stack.forms(v), forms, rtol=0, atol=1e-12)
        w = np.abs(rng.standard_normal(problem.m_stored))
        action = np.einsum("m,mij,j->i", w, tensor, v)
        assert np.allclose(stack.action(w, v), action, rtol=0, atol=1e-12)
    batch = rng.standard_normal((7, dim)) + 1j * rng.standard_normal((7, dim))
    forms = np.real(np.einsum("si,mij,sj->sm", batch.conj(), tensor, batch))
    assert stack.forms(batch).shape == (7, problem.m_stored)
    assert np.allclose(stack.forms(batch), forms, rtol=0, atol=1e-12)
    padding = [k for k, c in enumerate(problem.constraints) if c.label == LABEL_PADDING]
    assert padding and not np.any(np.isin(stack.segments, padding))


@pytest.mark.parametrize("store", [np.asarray, sparse.coo_matrix], ids=["dense", "sparse"])
@pytest.mark.parametrize("fault, message", [
    ("row", r"constraint 1 \(voltage\) not Hermitian"),
    ("cost", r"cost matrix not Hermitian"),
    ("bound", r"constraint 2 \(line-current\) has non-finite bound"),
])
def test_problem_validity_checks(fault, message, store):
    rng = np.random.default_rng(6)
    m0 = random_hermitian(rng, 4)
    matrices = [random_hermitian(rng, 4) for _ in range(3)]
    bounds = [1.0, 2.0, 3.0]

    def build():
        rows = [grid.Constraint(store(matrix), bound, label, k)
                for k, (matrix, bound, label) in enumerate(
                    zip(matrices, bounds, (LABEL_GEN, LABEL_VOLTAGE, LABEL_LINE)))]
        return problem_from_rows(4, 3, store(m0), rows)

    build()
    if fault == "row":
        matrices[1][0, 2] += 1e-6
    elif fault == "cost":
        m0[3, 1] += 1e-6j
    else:
        bounds[2] = math.nan
    with pytest.raises(ValidationError, match=message):
        build()


def test_row_larger_than_cost_rejected():
    rng = np.random.default_rng(7)
    rows = [grid.Constraint(random_hermitian(rng, 5), 1.0, LABEL_GEN, 0)]
    with pytest.raises(ValidationError, match=r"index outside \[0, 4\)"):
        problem_from_rows(4, 1, random_hermitian(rng, 4), rows)


@pytest.mark.parametrize("segment, row, col, name", [
    (2, 0, 0, "segment"), (0, -1, 0, "row"), (0, 0, 3, "column")])
def test_matrix_stack_rejects_indices_out_of_range(segment, row, col, name):
    with pytest.raises(ValidationError, match=f"{name} index outside"):
        grid.MatrixStack([segment], [row], [col], [1.0], 2, 3)
