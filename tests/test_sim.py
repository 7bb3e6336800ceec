import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qopf import model, sim, xbm
from qopf.grid import ValidationError
from qopf.sim import AnsatzSpec

from conftest import (ORACLE_GATES, PAULIS, complex_start_prepare,
                      complex_start_shift_states, complex_start_sweep, exact_expectation,
                      oracle_ansatz, oracle_cx, oracle_rotation, oracle_single,
                      piece_fanout, random_hermitian, random_state, rotation_layer,
                      sample_basis, shift_points, zero_state)

# Reproducible property runs that leave no example database behind.
PROPERTY = settings(max_examples=30, deadline=None, database=None, derandomize=True)


def test_ry_pi_flips_zero():
    u = sim.rotation_matrix("ry", math.pi)
    out = sim.apply_single(zero_state(1), 0, u)
    assert np.allclose(out, [0.0, 1.0], atol=1e-15)
    assert np.allclose(u, oracle_rotation("ry", math.pi), atol=1e-15)


def test_x_on_qubit0_is_least_significant_bit():
    state = zero_state(2)           # |00>
    out = sim.apply_single(state, 0, ORACLE_GATES["x"])
    expected = np.zeros(4)
    expected[0b01] = 1.0                # qubit 0 flips the low bit
    assert np.allclose(out, expected)
    assert np.allclose(oracle_single(2, 0, ORACLE_GATES["x"]) @ state, expected)


def test_x_on_qubit1_flips_high_bit():
    out = sim.apply_single(zero_state(2), 1, ORACLE_GATES["x"])
    assert np.argmax(np.abs(out)) == 0b10


def test_hadamard_involution():
    rng = np.random.default_rng(0)
    state = random_state(rng, 8)
    h = ORACLE_GATES["h"]
    back = sim.apply_single(sim.apply_single(state, 1, h), 1, h)
    assert np.allclose(back, state, atol=1e-12)


def test_cx_truth_table():
    # the two-qubit chain gather is CX with control 0, target 1: |01> -> |11>
    chain, _ = sim._chain_permutation(2)
    state = np.zeros(4, dtype=complex)
    state[0b01] = 1.0
    assert np.argmax(np.abs(state[chain])) == 0b11
    # control clear: |10> fixed
    state = np.zeros(4, dtype=complex)
    state[0b10] = 1.0
    assert np.argmax(np.abs(state[chain])) == 0b10
    # the color-3 fan-out gather is CX with control 1, target 0: |10> -> |11>
    _, fanout = piece_fanout(3, xbm.REAL, 2)
    assert np.argmax(np.abs(state[fanout])) == 0b11
    # whole chains, applied and undone, against the oracle's permutations
    for n in range(1, 6):
        chain, unchain = sim._chain_permutation(n)
        expected = np.eye(2**n)
        for q in range(n - 1):
            expected = oracle_cx(n, q, q + 1) @ expected
        assert np.array_equal(np.eye(2**n)[chain], expected)
        assert np.array_equal(np.eye(2**n)[unchain], expected.T)


def test_norm_preserved_by_random_circuits():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        state = random_state(rng, 2**n)
        unitary = np.eye(2**n)
        start = state
        for _ in range(30):
            kind = rng.choice(["rx", "ry", "rz", "h", "s", "x", "chain", "fanout"])
            target = int(rng.integers(0, n))
            if kind == "chain":
                state = state[sim._chain_permutation(n)[0]]
                gate = np.eye(2**n)
                for q in range(n - 1):
                    gate = oracle_cx(n, q, q + 1) @ gate
            elif kind == "fanout":
                color = int(rng.integers(1, 2**n))
                k = color.bit_length() - 1
                state = state[piece_fanout(color, xbm.REAL, n)[1]]
                gate = np.eye(2**n)
                for bit in range(k):
                    if (color >> bit) & 1:
                        gate = oracle_cx(n, k, bit) @ gate
            else:
                if kind in ORACLE_GATES:
                    u = ORACLE_GATES[kind]
                else:
                    u = sim.rotation_matrix(kind, float(rng.uniform(-6, 6)))
                state = sim.apply_single(state, target, u)
                gate = oracle_single(n, target, u)
            unitary = gate @ unitary
        assert abs(np.linalg.norm(state) - 1) < 1e-10
        assert np.allclose(state, unitary @ start, atol=1e-12)


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
    expected = zero_state(3)
    assert np.allclose(state, expected, atol=1e-15)


def test_prepare_matches_gate_list():
    rng = np.random.default_rng(3)
    for row in range(1, 9):
        spec = AnsatzSpec.from_row(row, 3, 2)
        params = rng.uniform(0, 2 * math.pi, spec.param_count)
        fast = sim.prepare(spec, params)
        slow = oracle_ansatz(3, spec.template, spec.layers, params)[:, 0]
        assert np.allclose(fast, slow, atol=1e-12)


def test_prepare_rejects_wrong_length():
    spec = AnsatzSpec.from_row(2, 2, 1)
    with pytest.raises(ValidationError, match="parameters"):
        sim.prepare(spec, np.zeros(spec.param_count + 1))


def test_exact_expectation_basics():
    state = zero_state(1)
    assert exact_expectation(state, np.diag([1.0, -1.0])) == 1.0
    rng = np.random.default_rng(4)
    state = random_state(rng, 8)
    assert exact_expectation(state, np.eye(8)) == pytest.approx(1.0, abs=1e-12)


def test_exact_expectation_against_double_loop():
    rng = np.random.default_rng(5)
    state = random_state(rng, 8)
    m = random_hermitian(rng, 8)
    slow = sum(state[i].conjugate() * m[i, j] * state[j]
               for i in range(8) for j in range(8))
    assert exact_expectation(state, m) == pytest.approx(slow.real, abs=1e-12)
    assert abs(slow.imag) < 1e-12


def test_exact_expectation_rejects_non_hermitian():
    with pytest.raises(ValidationError, match="Hermitian"):
        exact_expectation(zero_state(1), np.array([[0, 1], [0, 0]]))


def test_sample_basis_deterministic_state():
    state = np.array([0.0, 1.0], dtype=complex)
    counts = sample_basis(state, 100, seed=0)
    assert counts[1] == 100 and counts[0] == 0


def test_sample_basis_binomial_confidence():
    state = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    counts = sample_basis(state, 10_000, seed=42)
    # 4 sigma of a fair coin at 1e4 shots
    assert abs(counts[0] / 10_000 - 0.5) < 0.02


def test_sample_basis_seed_determinism():
    rng = np.random.default_rng(6)
    state = random_state(rng, 8)
    a = sample_basis(state, 1000, seed=123)
    b = sample_basis(state, 1000, seed=123)
    assert np.array_equal(a, b)


def test_sampling_unbiased_for_diagonal_observable():
    rng = np.random.default_rng(7)
    state = random_state(rng, 4)
    diag = rng.standard_normal(4)
    exact = float((np.abs(state) ** 2) @ diag)
    shots = 100_000
    counts = sample_basis(state, shots, seed=9)
    estimate = float(counts @ diag) / shots
    var = float((np.abs(state) ** 2) @ diag**2) - exact**2
    assert abs(estimate - exact) < 5 * math.sqrt(var / shots) + 1e-12


def test_shift_points():
    plus, minus = shift_points(np.array([0.0]), 0)
    assert plus[0] == pytest.approx(math.pi / 2)
    assert minus[0] == pytest.approx(-math.pi / 2)
    back, _ = shift_points(minus, 0)
    assert back[0] == pytest.approx(0.0)
    with pytest.raises(ValidationError):
        shift_points(np.array([0.0]), 1)


def test_psr_matches_finite_difference_for_expectation():
    rng = np.random.default_rng(8)
    h = 1e-5
    for row in range(1, 9):
        spec = AnsatzSpec.from_row(row, 2, 1)
        m = random_hermitian(rng, 4)
        params = rng.uniform(0, 2 * math.pi, spec.param_count)

        def f(p):
            return exact_expectation(sim.prepare(spec, p), m)

        for j in range(spec.param_count):
            plus, minus = shift_points(params, j)
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
        for n in range(1, 10):
            spec = AnsatzSpec.from_row(row, n, 2)
            m = random_hermitian(rng, 2**n)
            params = rng.uniform(0, 2 * math.pi, spec.param_count)
            psi = sim.prepare(spec, params)
            adjoint = sim.reverse_sweep(spec, sim.rotation_factors(spec, params), psi, m @ psi)

            def f(p):
                return exact_expectation(sim.prepare(spec, p), m)

            shifted = (shift_points(params, j) for j in range(spec.param_count))
            psr = np.array([0.5 * (f(plus) - f(minus)) for plus, minus in shifted])
            assert np.max(np.abs(adjoint - psr)) < 1e-12, (row, n)


def test_stacked_prepare_matches_single_prepare():
    """A (B, P) parameter stack, random rows followed by the +-pi/2 shift
    points of every entry, prepares row by row the same states bit for bit
    as one vector at a time; ``shift_states`` matches the shift rows."""
    rng = np.random.default_rng(12)
    for row in range(1, 9):
        for n in (1, 2, 5):
            spec = AnsatzSpec.from_row(row, n, 2)
            params = rng.uniform(-2 * math.pi, 2 * math.pi, spec.param_count)
            shifts = np.array([shift_points(params, j) for j in range(spec.param_count)])
            stack = np.concatenate([rng.uniform(-7, 7, (3, spec.param_count)),
                                    shifts.reshape(-1, spec.param_count)])
            stacked = sim.prepare(spec, stack)
            assert stacked.shape == (len(stack), 2**n)
            for b, one in enumerate(stack):
                assert np.array_equal(stacked[b], sim.prepare(spec, one)), (row, n, b)
            turned = sim.shift_states(spec, sim.rotation_factors(spec, params))
            assert turned.shape == (1 + 2 * spec.param_count, 2**n)
            assert np.max(np.abs(turned[1:] - stacked[3:])) < 1e-12, (row, n)


def test_shift_stack_row_zero_is_the_prepared_state():
    """Row 0 of ``shift_states`` is the base state ``prepare`` builds from
    the same factors, bit for bit, on every architecture at odd and even
    qubit counts (both Kronecker splits of the rx and ry layers), up to
    n = 9 and 10, where real and complex matrix products round differently,
    so row 0 must run in ``prepare``'s dtype."""
    rng = np.random.default_rng(14)
    for row in range(1, 9):
        for n in (1, 2, 3, 6, 9, 10):
            spec = AnsatzSpec.from_row(row, n, 2)
            params = rng.uniform(-2 * math.pi, 2 * math.pi, spec.param_count)
            factors = sim.rotation_factors(spec, params)
            assert np.array_equal(sim.shift_states(spec, factors)[0],
                                  sim.prepare(spec, params, factors)), (row, n)


def test_state_dtype_follows_the_rotation_factors(monkeypatch):
    """Row 2 (ry + cx) has only real factors, so its prepared states, its
    shift stack and the pair its reverse sweep carries are float64; every
    other row has an rx or rz layer and stays complex128.  A complex costate
    keeps a real circuit's sweep complex."""
    seen = []
    derivatives = sim.layer_derivatives

    def recording(state, costate, kind):
        seen.append(state.dtype)
        return derivatives(state, costate, kind)

    monkeypatch.setattr(sim, "layer_derivatives", recording)
    rng = np.random.default_rng(15)
    for row in range(1, 9):
        expected = np.dtype(np.float64 if row == 2 else np.complex128)
        for n in (1, 4):
            spec = AnsatzSpec.from_row(row, n, 2)
            params = rng.uniform(-2 * math.pi, 2 * math.pi, spec.param_count)
            factors = sim.rotation_factors(spec, params)
            psi = sim.prepare(spec, params, factors)
            assert psi.dtype == expected, (row, n)
            assert sim.prepare(spec, np.stack([params, -params])).dtype == expected, (row, n)
            assert sim.shift_states(spec, factors).dtype == expected, (row, n)
            seen.clear()
            sim.reverse_sweep(spec, factors, psi, rng.standard_normal(2**n) * psi)
            assert set(seen) == {expected}, (row, n)
            seen.clear()
            sim.reverse_sweep(spec, factors, psi, random_state(rng, 2**n))
            assert set(seen) == {np.dtype(np.complex128)}, (row, n)


def test_states_match_complex_start_oracle():
    """``prepare``, ``shift_states`` and ``reverse_sweep`` agree to 1e-12
    with the same circuits run from a complex128 |0...0>, on every row at
    n = 1..10; the costate d * psi, d a real diagonal like the dual
    gradient's, keeps row 2's sweep real."""
    rng = np.random.default_rng(16)
    for row in range(1, 9):
        for n in range(1, 11):
            spec = AnsatzSpec.from_row(row, n, 2)
            params = rng.uniform(-2 * math.pi, 2 * math.pi, spec.param_count)
            factors = sim.rotation_factors(spec, params)
            psi = sim.prepare(spec, params, factors)
            assert np.max(np.abs(psi - complex_start_prepare(spec, params))) < 1e-12, (row, n)
            stack = sim.shift_states(spec, factors)
            oracle = complex_start_shift_states(spec, params)
            assert np.max(np.abs(stack - oracle)) < 1e-12, (row, n)
            costate = rng.standard_normal(2**n) * psi
            sweep = sim.reverse_sweep(spec, factors, psi, costate)
            expected = complex_start_sweep(spec, factors, psi, costate)
            assert np.max(np.abs(sweep - expected)) < 1e-12, (row, n)


def test_complex_gate_on_real_state_keeps_imaginary_part():
    """``apply_single`` writes a complex gate on a real state, or a real
    stack, into a complex array: the result of the complex-cast input."""
    rng = np.random.default_rng(17)
    gate = sim.rotation_matrix("rz", -math.pi / 2)
    for shape in ((8,), (3, 8)):
        state = rng.standard_normal(shape)
        for qubit in range(3):
            out = sim.apply_single(state, qubit, gate)
            assert out.dtype == np.complex128
            assert np.array_equal(out, sim.apply_single(state.astype(complex), qubit, gate))
            assert np.any(out.imag != 0)


def test_sampled_gradient_memory_at_benchmark_ansatz(ieee57_context):
    """The stacked parameter shifts hold one factor set per circuit, not
    one per shift: a sampled gradient on the benchmark ansatz pair (P =
    120, Q = 315, 100 shots) peaks below 64 MB of traced memory, where
    per-shift factors alone would take about 450 MB."""
    ctx = model.LagrangianContext(ieee57_context.problem, AnsatzSpec.from_row(6, 6, 10),
                                  AnsatzSpec.from_row(2, 9, 35))
    assert (ctx.p_count, ctx.q_count) == (120, 315)
    ctx.joint_diagonals.rotations
    rng = np.random.default_rng(13)
    p = model.PrimalPoint(rng.uniform(0, 2 * math.pi, ctx.p_count), 1.1)
    d = model.DualPoint(rng.uniform(0, 2 * math.pi, ctx.q_count), 3.0)
    tracemalloc.start()
    try:
        result = model.grad(ctx, p, d, model.sampled_mode(100, [13]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(result.stacked()))
    assert peak < 64e6, peak / 1e6


@pytest.mark.parametrize("kind", sim.ROTATIONS)
def test_rotation_layer_matches_oracle_gates(kind):
    # n = 1 leaves the high half empty and odd n splits the qubits unevenly
    rng = np.random.default_rng(10)
    for n in range(1, 10):
        states = np.stack([random_state(rng, 2**n) for _ in range(3)])
        angles = rng.uniform(-2 * math.pi, 2 * math.pi, n)
        gates = [oracle_single(n, q, oracle_rotation(kind, angles[q])) for q in range(n)]
        expected = states.T
        for gate in gates:
            expected = gate @ expected
        out = rotation_layer(states, kind, angles)
        assert np.max(np.abs(out - expected.T)) < 1e-12, n
        back = rotation_layer(out, kind, -angles)
        assert np.max(np.abs(back - states)) < 1e-12, n


@pytest.mark.parametrize("kind", sim.ROTATIONS)
def test_layer_derivatives_match_oracle_generators(kind):
    rng = np.random.default_rng(11)
    for n in range(1, 10):
        generators = [oracle_single(n, q, PAULIS[kind[1]]) for q in range(n)]
        for state in (random_state(rng, 2**n) for _ in range(3)):
            costate = random_state(rng, 2**n)
            expected = [np.vdot(costate, g @ state).imag for g in generators]
            got = sim.layer_derivatives(state, costate, kind)
            assert np.max(np.abs(got - expected)) < 1e-12, n


@PROPERTY
@given(n=st.integers(1, 9), kind=st.sampled_from(sim.ROTATIONS),
       batch=st.integers(1, 4), data=st.data())
def test_rotation_layer_inverse_property(n, kind, batch, data):
    angles = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    states = np.stack([random_state(rng, 2**n) for _ in range(batch)])
    out = rotation_layer(states, kind, angles)
    assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1)) < 1e-12
    assert np.max(np.abs(rotation_layer(out, kind, -angles) - states)) < 1e-12


@PROPERTY
@given(n=st.integers(1, 9), row=st.integers(1, 8), layers=st.integers(1, 2),
       data=st.data())
def test_prepare_matches_oracle_property(n, row, layers, data):
    spec = AnsatzSpec.from_row(row, n, layers)
    params = np.array(data.draw(st.lists(
        st.floats(-10, 10), min_size=spec.param_count, max_size=spec.param_count)))
    expected = oracle_ansatz(n, spec.template, layers, params)[:, 0]
    assert np.max(np.abs(sim.prepare(spec, params) - expected)) < 1e-12


WORD_EDGE = st.integers(2**32 - 2, 2**32 + 1)


@PROPERTY
@given(seed=st.lists(st.integers(0, 2**64 - 1) | WORD_EDGE, min_size=1, max_size=8))
@example(seed=[2**32 - 1, 0])
@example(seed=[5, 2**32])
def test_rng_matches_default_rng_property(seed):
    """``sim.rng`` seeds the same stream as ``np.random.default_rng`` on the
    entropy list, also when an entry needs more than 32 bits."""
    expected = np.random.default_rng(seed)
    got = sim.rng(seed)
    assert np.array_equal(got.random(5), expected.random(5))
    assert np.array_equal(got.integers(0, 2**63, 3), expected.integers(0, 2**63, 3))


def test_rng_passes_other_seeds_through():
    assert np.array_equal(sim.rng(7).random(4), np.random.default_rng(7).random(4))
    assert np.array_equal(sim.rng([7]).random(4), np.random.default_rng(7).random(4))
    assert isinstance(sim.rng(None), np.random.Generator)
    seed = [3, 1, 4]
    sim.rng(seed)
    assert seed == [3, 1, 4]
