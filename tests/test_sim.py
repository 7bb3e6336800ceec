import math

import numpy as np
import pytest

from qopf import sim
from qopf.sim import AnsatzSpec, GateOp, SimulationError

from conftest import random_hermitian, random_state


def test_ry_pi_flips_zero():
    state = sim.zero_state(1)
    out = sim.apply_gate(state, GateOp("ry", 0, angle=math.pi))
    assert np.allclose(out, [0.0, 1.0], atol=1e-15)


def test_x_on_qubit0_is_least_significant_bit():
    state = sim.zero_state(2)           # |00>
    out = sim.apply_gate(state, GateOp("x", 0))
    expected = np.zeros(4)
    expected[0b01] = 1.0                # qubit 0 flips the low bit
    assert np.allclose(out, expected)


def test_x_on_qubit1_flips_high_bit():
    out = sim.apply_gate(sim.zero_state(2), GateOp("x", 1))
    assert np.argmax(np.abs(out)) == 0b10


def test_hadamard_involution():
    rng = np.random.default_rng(0)
    state = random_state(rng, 8)
    h = GateOp("h", 1)
    back = sim.apply_gate(sim.apply_gate(state, h), h)
    assert np.allclose(back, state, atol=1e-12)


def test_cx_truth_table():
    # control 0, target 1: |01> -> |11>
    state = np.zeros(4, dtype=complex)
    state[0b01] = 1.0
    out = sim.apply_gate(state, GateOp("cx", target=1, control=0))
    assert np.argmax(np.abs(out)) == 0b11
    # control clear: |10> fixed
    state = np.zeros(4, dtype=complex)
    state[0b10] = 1.0
    out = sim.apply_gate(state, GateOp("cx", target=1, control=0))
    assert np.argmax(np.abs(out)) == 0b10


def test_norm_preserved_by_random_circuits():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        state = random_state(rng, 2**n)
        for _ in range(30):
            kind = rng.choice(["rx", "ry", "rz", "h", "s", "x", "cx"])
            target = int(rng.integers(0, n))
            if kind == "cx":
                if n == 1:
                    continue
                control = int((target + 1 + rng.integers(0, n - 1)) % n)
                gate = GateOp("cx", target=target, control=control)
            elif kind in ("h", "s", "x"):
                gate = GateOp(kind, target)
            else:
                gate = GateOp(kind, target, angle=float(rng.uniform(-6, 6)))
            state = sim.apply_gate(state, gate)
        assert abs(np.linalg.norm(state) - 1) < 1e-10


def test_gate_index_out_of_range():
    with pytest.raises(SimulationError, match="out of range"):
        sim.apply_gate(sim.zero_state(2), GateOp("x", 2))


def test_ansatz_param_counts_match_architecture_table():
    # row 2 on 6 qubits with 20 layers: 120 parameters
    assert AnsatzSpec.from_row(2, 6, 20).param_count == 120
    # row 6 on 6 qubits with 10 layers: 2 * 10 * 6 = 120
    assert AnsatzSpec.from_row(6, 6, 10).param_count == 120
    # row 7: 3 rotations, 6 layers, 6 qubits = 108; row 8: 3 * 7 * 6 = 126
    assert AnsatzSpec.from_row(7, 6, 6).param_count == 108
    assert AnsatzSpec.from_row(8, 6, 7).param_count == 126
    # dual sizes on 9 qubits
    assert AnsatzSpec.from_row(2, 9, 35).param_count == 315
    assert AnsatzSpec.from_row(6, 9, 18).param_count == 324


def test_prepare_zero_params_row2_gives_zero_state():
    spec = AnsatzSpec.from_row(2, 3, 2)
    state = sim.prepare(spec, np.zeros(spec.param_count))
    expected = sim.zero_state(3)
    assert np.allclose(state, expected, atol=1e-15)


def test_prepare_matches_gate_list():
    rng = np.random.default_rng(3)
    for row in range(1, 9):
        spec = AnsatzSpec.from_row(row, 3, 2)
        params = rng.uniform(0, 2 * math.pi, spec.param_count)
        fast = sim.prepare(spec, params)
        slow = sim.apply_circuit(sim.zero_state(3), spec.gates(params))
        assert np.allclose(fast, slow, atol=1e-12)


def test_prepare_rejects_wrong_length():
    spec = AnsatzSpec.from_row(2, 2, 1)
    with pytest.raises(SimulationError, match="parameters"):
        sim.prepare(spec, np.zeros(spec.param_count + 1))


def test_exact_expectation_basics():
    state = sim.zero_state(1)
    assert sim.exact_expectation(state, np.diag([1.0, -1.0])) == 1.0
    rng = np.random.default_rng(4)
    state = random_state(rng, 8)
    assert sim.exact_expectation(state, np.eye(8)) == pytest.approx(1.0, abs=1e-12)


def test_exact_expectation_against_double_loop():
    rng = np.random.default_rng(5)
    state = random_state(rng, 8)
    m = random_hermitian(rng, 8)
    slow = sum(state[i].conjugate() * m[i, j] * state[j]
               for i in range(8) for j in range(8))
    assert sim.exact_expectation(state, m) == pytest.approx(slow.real, abs=1e-12)
    assert abs(slow.imag) < 1e-12


def test_exact_expectation_rejects_non_hermitian():
    with pytest.raises(SimulationError, match="Hermitian"):
        sim.exact_expectation(sim.zero_state(1), np.array([[0, 1], [0, 0]]))


def test_sample_basis_deterministic_state():
    state = np.array([0.0, 1.0], dtype=complex)
    counts = sim.sample_basis(state, 100, seed=0)
    assert counts[1] == 100 and counts[0] == 0


def test_sample_basis_binomial_confidence():
    state = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    counts = sim.sample_basis(state, 10_000, seed=42)
    # 4 sigma of a fair coin at 1e4 shots
    assert abs(counts[0] / 10_000 - 0.5) < 0.02


def test_sample_basis_seed_determinism():
    rng = np.random.default_rng(6)
    state = random_state(rng, 8)
    a = sim.sample_basis(state, 1000, seed=123)
    b = sim.sample_basis(state, 1000, seed=123)
    assert np.array_equal(a, b)


def test_sampling_unbiased_for_diagonal_observable():
    rng = np.random.default_rng(7)
    state = random_state(rng, 4)
    diag = rng.standard_normal(4)
    exact = float((np.abs(state) ** 2) @ diag)
    shots = 100_000
    counts = sim.sample_basis(state, shots, seed=9)
    estimate = float(counts @ diag) / shots
    var = float((np.abs(state) ** 2) @ diag**2) - exact**2
    assert abs(estimate - exact) < 5 * math.sqrt(var / shots) + 1e-12


def test_shift_points():
    plus, minus = sim.shift_points(np.array([0.0]), 0)
    assert plus[0] == pytest.approx(math.pi / 2)
    assert minus[0] == pytest.approx(-math.pi / 2)
    back, _ = sim.shift_points(minus, 0)
    assert back[0] == pytest.approx(0.0)
    with pytest.raises(SimulationError):
        sim.shift_points(np.array([0.0]), 1)


def test_psr_matches_finite_difference_for_expectation():
    rng = np.random.default_rng(8)
    h = 1e-5
    for row in range(1, 9):
        spec = AnsatzSpec.from_row(row, 2, 1)
        m = random_hermitian(rng, 4)
        params = rng.uniform(0, 2 * math.pi, spec.param_count)

        def f(p):
            return sim.exact_expectation(sim.prepare(spec, p), m)

        for j in range(spec.param_count):
            plus, minus = sim.shift_points(params, j)
            psr = 0.5 * (f(plus) - f(minus))
            stepped = params.copy()
            stepped[j] += h
            fd = f(stepped)
            stepped[j] -= 2 * h
            fd = (fd - f(stepped)) / (2 * h)
            assert abs(psr - fd) < 1e-6, (row, j)


def test_reverse_sweep_matches_shift_rule():
    rng = np.random.default_rng(9)
    for row in range(1, 9):
        for n in (1, 3):
            spec = AnsatzSpec.from_row(row, n, 2)
            m = random_hermitian(rng, 2**n)
            params = rng.uniform(0, 2 * math.pi, spec.param_count)
            psi = sim.prepare(spec, params)
            adjoint = sim.reverse_sweep(spec, params, psi, m @ psi)

            def f(p):
                return sim.exact_expectation(sim.prepare(spec, p), m)

            shifted = (sim.shift_points(params, j) for j in range(spec.param_count))
            psr = np.array([0.5 * (f(plus) - f(minus)) for plus, minus in shifted])
            assert np.max(np.abs(adjoint - psr)) < 1e-12, (row, n)
