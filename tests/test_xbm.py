import math

import numpy as np
import pytest

from qopf import grid, sim, xbm
from qopf.xbm import DecompositionError

from conftest import (ORACLE_GATES, exact_expectation, oracle_cx, oracle_rotation,
                      oracle_single, per_row_pieces, piecewise_rotation,
                      random_hermitian, random_state, stack_problems)


def circuit_unitary(circuit, n_qubits):
    dim = 2**n_qubits
    cols = []
    for k in range(dim):
        basis = np.zeros(dim, dtype=complex)
        basis[k] = 1.0
        cols.append(circuit.apply(basis))
    return np.stack(cols, axis=1)


def piece_matrix(piece, n_qubits):
    return xbm.ColorDecomposition(n_qubits, (piece,)).reconstruct()


def test_identity_decomposes_to_single_diagonal_piece():
    dec = xbm.decompose(np.eye(8))
    assert len(dec.pieces) == 1
    piece = dec.pieces[0]
    assert piece.color == 0 and piece.part == xbm.REAL
    assert np.allclose(piece.diagonal, np.ones(8))


def test_antidiagonal_single_color_piece():
    m = np.zeros((8, 8))
    for i in range(8):
        m[i, 7 - i] = float(i + 1) if i < 4 else float(8 - i)
    m = (m + m.T) / 2
    dec = xbm.decompose(m)
    assert {p.color for p in dec.pieces} == {7}
    assert all(p.part == xbm.REAL for p in dec.pieces)


def test_reconstruction_exact_for_random_hermitians():
    rng = np.random.default_rng(0)
    for n in range(1, 5):
        dim = 2**n
        for _ in range(50):
            m = random_hermitian(rng, dim)
            dec = xbm.decompose(m)
            assert np.max(np.abs(dec.reconstruct() - m)) < 1e-14
            colors = {int(i) ^ int(j) for i, j in zip(*np.nonzero(m))}
            assert dec.colors == colors
            assert len(dec.pieces) <= 2 * len(colors) - 1


def test_decompose_rejects_non_hermitian():
    with pytest.raises(DecompositionError, match="Hermitian"):
        xbm.decompose(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_decompose_rejects_bad_shape():
    with pytest.raises(DecompositionError, match="power-of-two"):
        xbm.decompose(np.zeros((3, 3)))


def fanout_targets(circuit):
    """Qubits the fan-out gather flips on indices with bit k set."""
    flips = int(circuit.fanout[1 << circuit.k]) ^ (1 << circuit.k)
    return [bit for bit in range(circuit.k) if (flips >> bit) & 1]


def oracle_rotation_circuit(n, color, part):
    """S^dag as Rz(-pi/2) on k (imaginary part), CX from k to every other
    set bit of color, then H on k, as a dense oracle product."""
    k = color.bit_length() - 1
    u = np.eye(2**n)
    if part == xbm.IMAG:
        u = oracle_single(n, k, oracle_rotation("rz", -math.pi / 2))
    for bit in range(k):
        if (color >> bit) & 1:
            u = oracle_cx(n, k, bit) @ u
    return oracle_single(n, k, ORACLE_GATES["h"]) @ u


def test_rotation_circuit_structure():
    # one qubit, color 1: a single Hadamard
    circ = xbm.rotation_circuit(1, 1, xbm.REAL)
    assert (circ.k, fanout_targets(circ), circ.gate_count) == (0, [], 1)
    # n=3, c=6: H on qubit 2 after CX(2 -> 1)
    circ = xbm.rotation_circuit(6, 3, xbm.REAL)
    assert (circ.k, fanout_targets(circ), circ.gate_count) == (2, [1], 2)
    # the imaginary part adds S^dag on qubit 2
    assert xbm.rotation_circuit(6, 3, xbm.IMAG).gate_count == 3


def test_rotation_circuit_gate_count_bound():
    for n in range(1, 5):
        for c in range(1, 2**n):
            real = xbm.rotation_circuit(c, n, xbm.REAL)
            imag = xbm.rotation_circuit(c, n, xbm.IMAG)
            assert real.gate_count <= n
            assert imag.gate_count <= n + 1
            for circ in (real, imag):
                k = c.bit_length() - 1
                assert circ.k == k
                assert fanout_targets(circ) == [b for b in range(k) if (c >> b) & 1]
                assert circ.gate_count == bin(c).count("1") + (circ.part == xbm.IMAG)
                assert np.allclose(circuit_unitary(circ, n),
                                   oracle_rotation_circuit(n, c, circ.part), atol=1e-12)


def test_grouped_rotations_match_gate_by_gate_and_oracle():
    """``rotate_pieces`` over every color and part at once, plus one color-0
    piece, at n = 1..9, on one state and on a (3, dim) stack: every rotated
    state is bitwise the gate-by-gate rotation of its piece alone (and
    ``RotationCircuit.apply`` gives the same), and within 1e-12 of the dense
    oracle product."""
    rng = np.random.default_rng(12)
    for n in range(1, 10):
        dim = 2**n
        circuits = [xbm.rotation_circuit(c, n, part)
                    for part in (xbm.REAL, xbm.IMAG) for c in range(1, dim)]
        rotations = xbm.group_rotations([None, *circuits])
        stack = np.stack([random_state(rng, dim) for _ in range(3)])
        for states in (stack[0], stack):
            rotated = xbm.rotate_pieces(states, rotations)
            assert rotated.shape == (len(circuits) + 1, *states.shape)
            assert np.array_equal(rotated[0], states)
            for circ, out in zip(circuits, rotated[1:]):
                expected = piecewise_rotation(states, circ.color, n, circ.part)
                assert np.array_equal(out, expected)
                assert np.array_equal(circ.apply(states), expected)
        # the oracle on the stack's columns for every color with top bit k:
        # the CX gates from k commute, so each lower bit doubles the column
        # blocks built so far, block s for color 2^k + s
        by_key = {(circ.color, circ.part): out for circ, out in zip(circuits, rotated[1:])}
        for k in range(n):
            h = oracle_single(n, k, ORACLE_GATES["h"])
            s_dag = oracle_single(n, k, oracle_rotation("rz", -math.pi / 2))
            for part, columns in ((xbm.REAL, stack.T), (xbm.IMAG, s_dag @ stack.T)):
                for bit in range(k):
                    columns = np.hstack([columns, oracle_cx(n, k, bit) @ columns])
                expected = (h @ columns).T.reshape(2**k, *stack.shape)
                for low, want in enumerate(expected):
                    got = by_key[(1 << k) + low, part]
                    assert np.max(np.abs(got - want)) < 1e-12


def test_decompose_stores_each_piece_rotation(ieee57):
    problem = grid.pad_to_qubits(grid.assemble_qcqp(ieee57))
    dec = xbm.decompose(problem.m0)
    for piece in dec.pieces:
        if piece.color == 0:
            assert piece.circuit is None
            continue
        built = xbm.rotation_circuit(piece.color, dec.n_qubits, piece.part)
        assert (piece.circuit.k, piece.circuit.part) == (built.k, built.part)
        assert np.array_equal(piece.circuit.fanout, built.fanout)


def test_rotation_circuit_rejects_color_zero():
    with pytest.raises(DecompositionError):
        xbm.rotation_circuit(0, 2, xbm.REAL)
    with pytest.raises(DecompositionError):
        xbm.rotation_circuit(4, 2, xbm.REAL)


def test_eigen_diagonal_pauli_x():
    dec = xbm.decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert [(p.color, p.part) for p in dec.pieces] == [(1, xbm.REAL)]
    assert np.allclose(dec.pieces[0].diagonal, [1.0, -1.0])


def test_eigen_diagonal_pauli_y():
    dec = xbm.decompose(np.array([[0, -1j], [1j, 0]]))
    assert [(p.color, p.part) for p in dec.pieces] == [(1, xbm.IMAG)]
    assert np.allclose(dec.pieces[0].diagonal, [1.0, -1.0])


def test_diagonalization_invariant_all_colors_and_parts():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3):
        dim = 2**n
        for _ in range(20):
            m = random_hermitian(rng, dim)
            for piece in xbm.decompose(m).pieces:
                if piece.color == 0:
                    continue
                r = circuit_unitary(piece.circuit, n)
                sub = piece_matrix(piece, n)
                rotated = r @ sub @ r.conj().T
                off = rotated - np.diag(np.diagonal(rotated))
                assert np.max(np.abs(off)) < 1e-12
                assert np.max(np.abs(np.real(np.diagonal(rotated))
                                     - piece.diagonal)) < 1e-12


def test_eigen_diagonal_matches_dense_eigendecomposition():
    rng = np.random.default_rng(2)
    m = np.zeros((8, 8), dtype=complex)
    idx = np.arange(8)
    low = idx[(idx >> 1) & 1 == 0]  # color 3 has k_c = 1
    vals = rng.standard_normal(len(low)) + 1j * rng.standard_normal(len(low))
    m[low, low ^ 3] = vals
    m = m + m.conj().T
    dec = xbm.decompose(m)
    total = sum(np.sort(p.diagonal) for p in dec.pieces)
    eigs = np.sort(np.linalg.eigvalsh(m))
    # eigenvalues of the full color block are sums only when parts commute;
    # instead check each part separately against a dense eigensolver
    for piece in dec.pieces:
        dense = np.linalg.eigvalsh(piece_matrix(piece, 3))
        assert np.allclose(np.sort(dense), np.sort(piece.diagonal), atol=1e-12)


def test_estimate_identity_is_exact():
    rng = np.random.default_rng(3)
    state = random_state(rng, 8)
    dec = xbm.decompose(np.eye(8))
    report = xbm.estimate_expectation(state, dec, shots_per_piece=7, seed=0)
    assert report.estimate == pytest.approx(1.0, abs=1e-12)


def test_estimate_diagonal_observable_reduces_to_basis_sampling():
    rng = np.random.default_rng(4)
    state = random_state(rng, 4)
    diag = np.diag(rng.standard_normal(4))
    dec = xbm.decompose(diag)
    assert len(dec.pieces) == 1 and dec.pieces[0].color == 0
    report = xbm.estimate_expectation(state, dec, shots_per_piece=500, seed=5)
    counts = sim.sample_basis(state, 500, sim.chain_seed(5, 0))
    assert report.estimate == pytest.approx(
        float(counts @ np.diagonal(diag)) / 500, abs=1e-12)


def test_estimate_within_five_sigma_of_exact():
    rng = np.random.default_rng(5)
    shots = 20_000
    for trial in range(10):
        m = random_hermitian(rng, 8)
        state = random_state(rng, 8)
        dec = xbm.decompose(m)
        exact = exact_expectation(state, m)
        variance, _ = xbm.estimator_variance(dec, state, shots)
        report = xbm.estimate_expectation(state, dec, shots, seed=[6, trial])
        assert abs(report.estimate - exact) < 5 * math.sqrt(variance) + 1e-9


def test_estimator_unbiased_single_shot():
    rng = np.random.default_rng(6)
    m = random_hermitian(rng, 4)
    state = random_state(rng, 4)
    dec = xbm.decompose(m)
    exact = exact_expectation(state, m)
    variance, _ = xbm.estimator_variance(dec, state, 1)
    n = 10_000
    values = [xbm.estimate_expectation(state, dec, 1, seed=[7, k]).estimate
              for k in range(n)]
    se = math.sqrt(variance / n)
    assert abs(np.mean(values) - exact) < 5 * se


def test_variance_zero_cases():
    state = np.zeros(4, dtype=complex)
    state[2] = 1.0
    diag = xbm.decompose(np.diag([1.0, 2.0, 3.0, 4.0]))
    variance, bound = xbm.estimator_variance(diag, state, 10)
    assert variance == pytest.approx(0.0, abs=1e-15)
    rng = np.random.default_rng(8)
    psi = random_state(rng, 4)
    variance, _ = xbm.estimator_variance(xbm.decompose(np.eye(4)), psi, 10)
    assert variance == pytest.approx(0.0, abs=1e-14)


def test_variance_formula_matches_monte_carlo():
    rng = np.random.default_rng(9)
    m = random_hermitian(rng, 8)
    state = random_state(rng, 8)
    dec = xbm.decompose(m)
    shots = 4
    variance, bound = xbm.estimator_variance(dec, state, shots)
    assert variance <= bound + 1e-12
    n = 1000
    values = np.array([
        xbm.estimate_expectation(state, dec, shots, seed=[10, k]).estimate
        for k in range(n)
    ])
    empirical = float(np.var(values))
    assert abs(empirical - variance) < 0.2 * variance


def test_piece_count_bound():
    rng = np.random.default_rng(10)
    for _ in range(20):
        m = random_hermitian(rng, 16)
        dec = xbm.decompose(m)
        c = len(dec.colors)
        real = sum(1 for p in dec.pieces if p.part == xbm.REAL)
        imag = sum(1 for p in dec.pieces if p.part == xbm.IMAG)
        assert real + imag == len(dec.pieces) <= 2 * c - 1


@pytest.mark.parametrize("problem", stack_problems())
def test_stacked_piece_diagonals_match_per_row_decompose(problem):
    keys, dense, norms = per_row_pieces(problem)
    table = xbm.piece_table(problem.stack)
    assert list(table.keys) == keys and len(table) == len(keys)
    assert np.array_equal(table.dense(), dense)
    assert table.norms == norms
    assert table.colors == {color for color, _ in keys}
    m0_dec = xbm.decompose(problem.dense_m0())
    sparse_dec = xbm.decompose(problem.m0)
    assert [(p.color, p.part) for p in sparse_dec.pieces] == \
        [(p.color, p.part) for p in m0_dec.pieces]
    for a, b in zip(sparse_dec.pieces, m0_dec.pieces):
        assert np.array_equal(a.diagonal, b.diagonal)


def piecewise_estimate(state, dec, shots, seed):
    """The replaced per-piece loop of ``xbm.estimate_expectation``, with the
    basis sampling of ``sim.sample_basis`` inlined as it was: a generator
    seeded with the entropy list itself."""
    total, values = 0.0, []
    for k, piece in enumerate(dec.pieces):
        probs = np.abs(piecewise_rotation(state, piece.color, dec.n_qubits, piece.part)) ** 2
        probs = probs / probs.sum()
        counts = np.random.default_rng(sim.chain_seed(seed, k)).multinomial(shots, probs)
        value = float(counts @ piece.diagonal) / shots
        values.append(value)
        total += value
    return total, values


def piecewise_variance(state, dec, shots):
    """The replaced per-piece loop of ``xbm.estimator_variance``."""
    variance = bound = 0.0
    for piece in dec.pieces:
        probs = np.abs(piecewise_rotation(state, piece.color, dec.n_qubits, piece.part)) ** 2
        mean = float(probs @ piece.diagonal)
        variance += float(probs @ piece.diagonal**2) - mean**2
        bound += piece.norm**2
    return variance / shots, bound / shots


@pytest.mark.parametrize("source", ["padded_complex", "ieee57"])
def test_estimators_match_piecewise_loops(source, request):
    """Rotating under all pieces at once keeps the estimate, every
    per-piece value and the exact variance bit for bit."""
    if source == "ieee57":
        dec = request.getfixturevalue("ieee57_context").m0_decomposition
    else:
        dec = xbm.decompose(request.getfixturevalue("padded_complex_problem").m0)
    assert {p.part for p in dec.pieces} == {xbm.REAL, xbm.IMAG}
    rng = np.random.default_rng(13)
    for trial in range(4):
        state = random_state(rng, 2**dec.n_qubits)
        report = xbm.estimate_expectation(state, dec, 40, [14, trial])
        total, values = piecewise_estimate(state, dec, 40, [14, trial])
        assert report.estimate == total
        assert [value for _, value in report.per_piece] == values
        assert all(a is b for (a, _), b in zip(report.per_piece, dec.pieces))
        assert tuple(xbm.estimator_variance(dec, state, 40)) == \
            piecewise_variance(state, dec, 40)


def test_piece_entries_lookup_matches_plain_search():
    """``PieceEntries.lookup`` searches its keys in sorted order; its values
    equal those of the plain ``np.searchsorted`` lookup on random pairs,
    about half of them misses, including keys below the first and above
    the last entry."""
    rng = np.random.default_rng(31)
    dim, segments = 64, 40
    keys = np.sort(rng.choice(segments * dim, 700, replace=False))
    entries = xbm.PieceEntries(keys, rng.standard_normal(len(keys)), dim)
    seg = rng.integers(0, segments, (7, 300))
    idx = rng.integers(0, dim, (7, 300))
    seg[0, :2], idx[0, :2] = 0, 0
    seg[0, 2:4], idx[0, 2:4] = segments - 1, dim - 1
    flat = seg * dim + idx
    pos = np.minimum(np.searchsorted(keys, flat), len(keys) - 1)
    expected = np.where(keys[pos] == flat, entries.values[pos], 0.0)
    assert 0.3 < np.mean(expected == 0) < 0.8
    got = entries.lookup(seg, idx)
    assert got.shape == seg.shape
    assert np.array_equal(got, expected)
    for side in ("left", "right"):
        assert np.array_equal(xbm.sorted_search(keys, flat, side=side),
                              np.searchsorted(keys, flat, side=side))
