import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qopf import grid, xbm
from qopf.grid import ValidationError

from conftest import (ORACLE_GATES, dense_pieces, diagonals, draw_estimates, estimate,
                      estimator_variance, exact_expectation, oracle_cx, oracle_rotation,
                      oracle_single, per_row_pieces, piece_fanout, piece_matrix,
                      piecewise_estimate, piecewise_rotation, random_hermitian, random_state,
                      reconstruct, rotate_piece, rotate_pieces, row_fanout, same_moments,
                      sample_basis, stack_problems)


def rotation_unitary(color, part, n_qubits):
    """The dense unitary of one piece's rotation: column j rotates basis state j."""
    return rotate_piece(color, part, np.eye(2**n_qubits, dtype=complex)).T


def test_identity_decomposes_to_single_diagonal_piece():
    dec = xbm.decompose(np.eye(8))
    assert len(dec.pieces) == 1
    color, part = dec.pieces[0]
    assert color == 0 and part == xbm.REAL
    assert np.allclose(diagonals(dec)[0], np.ones(8))


def test_antidiagonal_single_color_piece():
    m = np.zeros((8, 8))
    for i in range(8):
        m[i, 7 - i] = float(i + 1) if i < 4 else float(8 - i)
    m = (m + m.T) / 2
    dec = xbm.decompose(m)
    assert {color for color, _ in dec.pieces} == {7}
    assert all(part == xbm.REAL for _, part in dec.pieces)


def test_reconstruction_exact_for_random_hermitians():
    rng = np.random.default_rng(0)
    for n in range(1, 5):
        dim = 2**n
        for _ in range(50):
            m = random_hermitian(rng, dim)
            dec = xbm.decompose(m)
            assert np.max(np.abs(reconstruct(dec) - m)) < 1e-14
            colors = {int(i) ^ int(j) for i, j in zip(*np.nonzero(m))}
            assert dec.colors == colors
            assert len(dec.pieces) <= 2 * len(colors) - 1


def test_decompose_rejects_non_hermitian():
    with pytest.raises(ValidationError, match="Hermitian"):
        xbm.decompose(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_decompose_rejects_bad_shape():
    with pytest.raises(ValidationError, match="power-of-two"):
        xbm.decompose(np.zeros((3, 3)))


def fanout_targets(k, fanout):
    """Qubits the fan-out gather flips on indices with bit k set."""
    flips = int(fanout[1 << k]) ^ (1 << k)
    return [bit for bit in range(k) if (flips >> bit) & 1]


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
    k, fanout = piece_fanout(1, xbm.REAL, 1)
    assert (k, fanout_targets(k, fanout), xbm.gate_count(1, xbm.REAL)) == (0, [], 1)
    # n=3, c=6: H on qubit 2 after CX(2 -> 1)
    k, fanout = piece_fanout(6, xbm.REAL, 3)
    assert (k, fanout_targets(k, fanout), xbm.gate_count(6, xbm.REAL)) == (2, [1], 2)
    # the imaginary part adds S^dag on qubit 2
    assert xbm.gate_count(6, xbm.IMAG) == 3
    # color 0 is diagonal already: no gates, and its piece is left unrotated
    assert xbm.gate_count(0, xbm.REAL) == 0
    rotations = xbm.piece_rotations([(0, xbm.REAL)], 2)
    assert (len(rotations.lo), rotations.turns) == (1, ())
    assert np.array_equal(rotations.lo, [np.arange(4)])
    assert np.array_equal(rotations.hi, [np.arange(4)])
    assert np.array_equal(rotations.c0, np.ones((1, 4)))
    assert np.array_equal(rotations.c1, np.zeros((1, 4)))


def test_rotation_circuit_gate_count_bound():
    for n in range(1, 5):
        for c in range(1, 2**n):
            assert xbm.gate_count(c, xbm.REAL) <= n
            assert xbm.gate_count(c, xbm.IMAG) <= n + 1
            for part in (xbm.REAL, xbm.IMAG):
                k, fanout = piece_fanout(c, part, n)
                assert k == c.bit_length() - 1
                assert fanout_targets(k, fanout) == [b for b in range(k) if (c >> b) & 1]
                assert xbm.gate_count(c, part) == bin(c).count("1") + (part == xbm.IMAG)
                assert np.allclose(rotation_unitary(c, part, n),
                                   oracle_rotation_circuit(n, c, part), atol=1e-12)


def test_grouped_rotations_match_gate_by_gate_and_oracle():
    """``rotate_pieces`` of ``xbm.piece_rotations`` over every color and
    part at once, plus one color-0 piece, at n = 1..9, on one state and on
    a (3, dim) stack: every rotated state is bitwise the gate-by-gate
    rotation of its piece alone (and rotating that piece alone gives the
    same), and within 1e-12 of the dense oracle product."""
    rng = np.random.default_rng(12)
    for n in range(1, 10):
        dim = 2**n
        pieces = [(c, part) for part in (xbm.REAL, xbm.IMAG) for c in range(1, dim)]
        rotations = xbm.piece_rotations([(0, xbm.REAL), *pieces], n)
        stack = np.stack([random_state(rng, dim) for _ in range(3)])
        for states in (stack[0], stack):
            rotated = rotate_pieces(states, rotations)
            assert rotated.shape == (len(pieces) + 1, *states.shape)
            assert np.array_equal(rotated[0], states)
            for (color, part), out in zip(pieces, rotated[1:]):
                expected = piecewise_rotation(states, color, n, part)
                assert np.array_equal(out, expected)
                assert np.array_equal(rotate_piece(color, part, states), expected)
        # the oracle on the stack's columns for every color with top bit k:
        # the CX gates from k commute, so each lower bit doubles the column
        # blocks built so far, block s for color 2^k + s
        by_key = dict(zip(pieces, rotated[1:]))
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
    """The grouped rotations of a table's pieces give every piece of the
    ieee57 cost the rotation of its own (color, part): color 0 unrotated,
    any other color in a run of its (k, part) with its own fan-out."""
    problem = grid.pad_to_qubits(grid.assemble_qcqp(ieee57))
    dec = xbm.decompose(problem.m0)
    n_qubits = int(math.log2(problem.dim))
    rotations = xbm.piece_rotations(dec.pieces, n_qubits)
    dim = 2**n_qubits
    assert len(rotations.lo) == len(dec.pieces)
    assert rotations.turns == tuple(sorted({color.bit_length() - 1 for color, part
                                            in dec.pieces if color and part == xbm.IMAG}))
    unrotated = [p for p in range(len(rotations.lo)) if not np.any(rotations.c1[p])]
    assert unrotated == [p for p, (color, _) in enumerate(dec.pieces) if color == 0]
    for p in unrotated:
        assert np.array_equal(rotations.lo[p], np.arange(dim))
        assert np.array_equal(rotations.c0[p], np.ones(dim))
    for p, (color, part) in enumerate(dec.pieces):
        if color == 0:
            continue
        k, fanout = row_fanout(rotations, p)
        assert k == color.bit_length() - 1
        assert np.array_equal(fanout, piece_fanout(color, part, n_qubits)[1])
        # the source block: the state, or its copy turned on k
        block = 1 + rotations.turns.index(k) if part == xbm.IMAG else 0
        assert set(rotations.lo[p] // dim) == set(rotations.hi[p] // dim) == {block}


def test_eigen_diagonal_pauli_x():
    dec = xbm.decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert list(dec.pieces) == [(1, xbm.REAL)]
    assert np.allclose(diagonals(dec)[0], [1.0, -1.0])


def test_eigen_diagonal_pauli_y():
    dec = xbm.decompose(np.array([[0, -1j], [1j, 0]]))
    assert list(dec.pieces) == [(1, xbm.IMAG)]
    assert np.allclose(diagonals(dec)[0], [1.0, -1.0])


def test_diagonalization_invariant_all_colors_and_parts():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3):
        dim = 2**n
        for _ in range(20):
            m = random_hermitian(rng, dim)
            dec = xbm.decompose(m)
            for p, (color, part) in enumerate(dec.pieces):
                if color == 0:
                    continue
                r = rotation_unitary(color, part, n)
                sub = piece_matrix(dec, p)
                rotated = r @ sub @ r.conj().T
                off = rotated - np.diag(np.diagonal(rotated))
                assert np.max(np.abs(off)) < 1e-12
                assert np.max(np.abs(np.real(np.diagonal(rotated))
                                     - diagonals(dec)[p])) < 1e-12


def test_eigen_diagonal_matches_dense_eigendecomposition():
    rng = np.random.default_rng(2)
    m = np.zeros((8, 8), dtype=complex)
    idx = np.arange(8)
    low = idx[(idx >> 1) & 1 == 0]  # color 3 has k_c = 1
    vals = rng.standard_normal(len(low)) + 1j * rng.standard_normal(len(low))
    m[low, low ^ 3] = vals
    m = m + m.conj().T
    dec = xbm.decompose(m)
    total = sum(np.sort(diagonal) for diagonal in diagonals(dec))
    eigs = np.sort(np.linalg.eigvalsh(m))
    # eigenvalues of the full color block are sums only when parts commute;
    # instead check each part separately against a dense eigensolver
    for p, diagonal in enumerate(diagonals(dec)):
        dense = np.linalg.eigvalsh(piece_matrix(dec, p))
        assert np.allclose(np.sort(dense), np.sort(diagonal), atol=1e-12)


def test_estimate_identity_is_exact():
    rng = np.random.default_rng(3)
    state = random_state(rng, 8)
    dec = xbm.decompose(np.eye(8))
    assert estimate(state[None], dec, 7, 0)[0] == pytest.approx(1.0, abs=1e-12)


def test_estimate_diagonal_observable_reduces_to_basis_sampling():
    """A diagonal observable is one color-0 piece, which no rotation
    touches: a shot is a computational-basis outcome read off the diagonal,
    so single-shot outcomes follow basis sampling (``sample_basis``), and
    500-shot estimates match its averages in mean and variance."""
    rng = np.random.default_rng(4)
    state = random_state(rng, 4)
    diag = np.diag(rng.standard_normal(4))
    dec = xbm.decompose(diag)
    assert len(dec.pieces) == 1 and dec.pieces[0][0] == 0
    n = 4000
    single = np.array(estimate(np.tile(state, (n, 1)), dec, 1, [5]))
    found = single[:, None] == np.diagonal(diag)
    assert np.all(found.sum(axis=1) == 1)
    basis = sum(sample_basis(state, 1, [6, k]) for k in range(n))
    probs = np.abs(state) ** 2
    se = np.sqrt(probs * (1 - probs) / n)
    for counts in (found.sum(axis=0), basis):
        assert np.all(np.abs(counts / n - probs) < 5 * se)
    estimates = estimate(np.tile(state, (300, 1)), dec, 500, [7])
    averages = [float(sample_basis(state, 500, [8, k]) @ np.diagonal(diag)) / 500
                for k in range(300)]
    assert same_moments(estimates, averages)


def test_estimate_within_five_sigma_of_exact():
    rng = np.random.default_rng(5)
    shots = 20_000
    for trial in range(10):
        m = random_hermitian(rng, 8)
        state = random_state(rng, 8)
        dec = xbm.decompose(m)
        exact = exact_expectation(state, m)
        variance, _ = estimator_variance(dec, state, shots)
        value = estimate(state[None], dec, shots, [6, trial])[0]
        assert abs(value - exact) < 5 * math.sqrt(variance) + 1e-9


def test_estimator_unbiased_single_shot():
    rng = np.random.default_rng(6)
    m = random_hermitian(rng, 4)
    state = random_state(rng, 4)
    dec = xbm.decompose(m)
    exact = exact_expectation(state, m)
    variance, _ = estimator_variance(dec, state, 1)
    n = 10_000
    values = estimate(np.tile(state, (n, 1)), dec, 1, [7])
    se = math.sqrt(variance / n)
    assert abs(np.mean(values) - exact) < 5 * se


def test_variance_zero_cases():
    state = np.zeros(4, dtype=complex)
    state[2] = 1.0
    diag = xbm.decompose(np.diag([1.0, 2.0, 3.0, 4.0]))
    variance, bound = estimator_variance(diag, state, 10)
    assert variance == pytest.approx(0.0, abs=1e-15)
    rng = np.random.default_rng(8)
    psi = random_state(rng, 4)
    variance, _ = estimator_variance(xbm.decompose(np.eye(4)), psi, 10)
    assert variance == pytest.approx(0.0, abs=1e-14)


def test_variance_formula_matches_monte_carlo():
    rng = np.random.default_rng(9)
    m = random_hermitian(rng, 8)
    state = random_state(rng, 8)
    dec = xbm.decompose(m)
    shots = 4
    variance, bound = estimator_variance(dec, state, shots)
    assert variance <= bound + 1e-12
    n = 1000
    values = np.array(estimate(np.tile(state, (n, 1)), dec, shots, [10]))
    empirical = float(np.var(values))
    assert abs(empirical - variance) < 0.2 * variance


def test_piece_count_bound():
    rng = np.random.default_rng(10)
    for _ in range(20):
        m = random_hermitian(rng, 16)
        dec = xbm.decompose(m)
        c = len(dec.colors)
        real = sum(1 for _, part in dec.pieces if part == xbm.REAL)
        imag = sum(1 for _, part in dec.pieces if part == xbm.IMAG)
        assert real + imag == len(dec.pieces) <= 2 * c - 1


@pytest.mark.parametrize("problem", stack_problems())
def test_stacked_piece_diagonals_match_per_row_decompose(problem):
    keys, dense, norms = per_row_pieces(problem)
    table = xbm.piece_table(problem.stack)
    assert list(table.pieces) == keys and len(table) == len(keys)
    assert np.array_equal(dense_pieces(table), dense)
    assert table.norms == norms
    assert table.colors == {color for color, _ in keys}
    m0_dec = xbm.decompose(problem.m0.toarray())
    sparse_dec = xbm.decompose(problem.m0)
    assert sparse_dec.pieces == m0_dec.pieces
    for a, b in zip(diagonals(sparse_dec), diagonals(m0_dec)):
        assert np.array_equal(a, b)
    # the context reads the cost's pieces straight from its one-matrix stack
    cost_table = xbm.piece_table(problem.cost)
    assert cost_table.pieces == sparse_dec.pieces and cost_table.norms == sparse_dec.norms
    assert np.array_equal(cost_table.entries.keys, sparse_dec.entries.keys)
    assert np.array_equal(cost_table.entries.values, sparse_dec.entries.values)


def piecewise_variance(state, dec, shots):
    """The replaced per-piece loop of ``estimator_variance``."""
    variance = bound = 0.0
    n_qubits = int(math.log2(dec.entries.dim))
    for (color, part), diagonal in zip(dec.pieces, diagonals(dec)):
        probs = np.abs(piecewise_rotation(state, color, n_qubits, part)) ** 2
        mean = float(probs @ diagonal)
        variance += float(probs @ diagonal**2) - mean**2
        bound += float(np.max(np.abs(diagonal)))**2
    return variance / shots, bound / shots


@pytest.mark.parametrize("source", ["padded_complex", "ieee57"])
def test_estimators_match_piecewise_loops(source, request):
    """Rotating all pieces at once keeps the exact variance bit for bit,
    and the live-first estimator matches the piece-by-piece multinomial
    estimator in mean and variance."""
    if source == "ieee57":
        dec = request.getfixturevalue("ieee57_context").m0_decomposition
    else:
        dec = xbm.decompose(request.getfixturevalue("padded_complex_problem").m0)
    assert {part for _, part in dec.pieces} == {xbm.REAL, xbm.IMAG}
    rng = np.random.default_rng(13)
    for trial in range(4):
        state = random_state(rng, dec.entries.dim)
        assert tuple(estimator_variance(dec, state, 40)) == \
            piecewise_variance(state, dec, 40)
    state = random_state(rng, dec.entries.dim)
    n = 600
    estimates = estimate(np.tile(state, (n, 1)), dec, 40, [14])
    assert same_moments(estimates, [piecewise_estimate(state, dec, 40, [16, k])
                                    for k in range(n)])


@pytest.mark.parametrize("source", ["padded_complex", "ieee57"])
def test_estimates_drawn_in_one_call_are_uncorrelated(source, request):
    """The estimates of one call draw disjoint blocks of one stream: over
    400 seeds, the first row and a row drawn with it, adjacent in its
    block, first in the next block or last of a call that spans blocks,
    have a sample correlation within 4 / sqrt(n) of 0, and the last row
    keeps the moments of rows drawn alone."""
    if source == "ieee57":
        dec = request.getfixturevalue("ieee57_context").m0_decomposition
    else:
        dec = xbm.decompose(request.getfixturevalue("padded_complex_problem").m0)
    state = random_state(np.random.default_rng(17), dec.entries.dim)
    shots, n = 40, 400
    per_block = xbm._DRAW_BLOCK // shots // len(dec)  # estimates per block
    rows = 2 * per_block + 1
    draws = np.array([estimate(np.tile(state, (rows, 1)), dec, shots, [18, k])
                      for k in range(n)])
    for other in (1, per_block, rows - 1):
        assert abs(np.corrcoef(draws[:, 0], draws[:, other])[0, 1]) < 4 / math.sqrt(n)
    alone = [estimate(state[None], dec, shots, [19, k])[0] for k in range(n)]
    assert same_moments(draws[:, -1], alone)


def test_estimate_rejects_no_shots(padded_complex_problem):
    with pytest.raises(ValidationError, match="shots must be >= 1"):
        xbm.estimate_expectation(xbm.decompose(padded_complex_problem.m0),
                                 np.full((1, 1, 4), 0.25), np.ones((1, 1)), [(0, 0)], 0, 0)


def adversarial_cdfs(dim):
    """CDF rows with runs of zero-mass outcomes, a one-outcome spike, all
    mass on the last outcome, all mass on the first, and a uniform row."""
    probs = np.ones((5, dim))
    probs[0, 1:dim // 2] = 0.0
    probs[0, -3:-1] = 0.0
    probs[1] = 1e-9
    probs[1, dim // 3] = 1.0
    probs[2] = 0.0
    probs[2, -1] = 1.0
    probs[3] = 0.0
    probs[3, 0] = 1.0
    cdfs = np.cumsum(probs, axis=1)
    return cdfs / cdfs[:, -1:]


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.integers(1, 600), st.integers(0, 2**32 - 1))
def test_live_inverse_is_exact(dim, seed):
    """A draw of a piece falls at or above the piece's live mass exactly
    when ``np.searchsorted(side="right")`` on the outcome distribution,
    with the piece's live outcomes reordered first, finds a dead outcome;
    otherwise ``xbm.live_inverse`` returns the live outcome it finds, and
    never a zero-probability one.  The rows: the adversarial CDF rows and
    random ones with zero and tiny outcomes; the pieces: random live sets,
    one live outcome, all outcomes, and live outcomes of zero total mass;
    the draws: uniforms from ``Generator.random``, 0, 1 - 2^-53 and every
    live running sum, exactly and rounded down and up to the 2^-53 grid."""
    rng = np.random.default_rng(seed)
    probs = rng.random((3, dim)) * (rng.random((3, dim)) < rng.random((3, 1)))
    probs *= np.where(rng.random((3, dim)) < 0.2, 1e-18, 1.0)
    probs[np.arange(3), rng.integers(0, dim, 3)] += rng.choice([1e-3, 0.5, 1e6], 3)
    probs = np.concatenate([probs / probs.sum(axis=1, keepdims=True),
                            np.diff(adversarial_cdfs(dim), prepend=0.0, axis=1)])
    dead = probs[5] == 0  # all but the last outcome of the adversarial last-only row
    live_sets = [np.flatnonzero(rng.random(dim) < rng.random()) for _ in range(3)]
    live_sets += [rng.integers(0, dim, 1), np.arange(dim)]
    live_sets += [np.flatnonzero(dead)] if dead.any() else []
    live_sets = [np.unique(outcomes) for outcomes in live_sets if len(outcomes)]
    outcomes = np.concatenate(live_sets)
    starts = np.cumsum([0] + [len(outcomes) for outcomes in live_sets])
    cumulative = probs[:, outcomes]
    for first, end in zip(starts[:-1], starts[1:]):
        np.cumsum(cumulative[:, first:end], axis=1, out=cumulative[:, first:end])
    width = cumulative.shape[1]
    grid = 2.0**53
    firsts, lasts, draws, expected = [], [], [], []
    for r, row in enumerate(probs):
        for k, live in enumerate(live_sets):
            run = cumulative[r, starts[k]:starts[k + 1]]
            order = np.concatenate([live, np.setdiff1d(np.arange(dim), live)])
            reordered = np.cumsum(row[order])
            assert np.array_equal(reordered[:len(live)], run)
            u = np.concatenate([rng.random(20), [0.0, 1 - 2.0**-53], run[run < 1],
                                np.floor(run * grid) / grid,
                                np.minimum(np.ceil(run * grid), grid - 1) / grid])
            found = np.searchsorted(reordered, u, side="right")
            below = u < run[-1]
            assert np.array_equal(below, found < len(live))
            assert np.all(row[live[found[below]]] > 0)
            firsts.append(np.full(below.sum(), r * width + starts[k]))
            lasts.append(firsts[-1] + len(live) - 1)
            draws.append(u[below])
            expected.append(firsts[-1] + found[below])
    # every run's draws resolved together, as the estimators resolve a block
    at = xbm.live_inverse(cumulative.ravel(), np.concatenate(firsts), np.concatenate(lasts),
                          np.concatenate(draws))
    assert np.array_equal(at, np.concatenate(expected))


class RecordingDraws:
    """A seeded generator's ``binomial``, ``multinomial`` and ``random`` for
    ``xbm._draw_cells``, recording the binomial counts, the multinomial
    calls and the number of uniforms drawn; ``random`` returns ``fill`` for
    every uniform when it is given."""

    def __init__(self, seed, fill=None):
        self.generator, self.fill = np.random.default_rng(seed), fill
        self.counts, self.multinomials, self.uniforms = [], 0, 0

    def binomial(self, n, p):
        self.counts.append(self.generator.binomial(n, p))
        return self.counts[-1]

    def multinomial(self, n, pvals):
        self.multinomials += 1
        return self.generator.multinomial(n, pvals)

    def random(self, size):
        self.uniforms += size
        return self.generator.random(size) if self.fill is None else np.full(size, self.fill)


def cell_layout(pieces, cells, values):
    """A hand-made ``xbm.CellLayout``: piece k holds ``pieces[k]`` cells,
    cell c ``cells[c]`` entries, and entry j scores ``values[j]``."""
    starts = np.concatenate(([0], np.cumsum(cells)))
    none = np.zeros(len(values), dtype=int)
    return xbm.CellLayout(starts, np.concatenate(([0], np.cumsum(pieces))),
                          np.arange(len(cells)), none, none, np.array(values, dtype=float))


def draw_cells(draws, layout, weights, shared, count, shots):
    """``xbm._draw_cells`` of ``count`` estimates that share every cell
    weight and shared factor."""
    return xbm._draw_cells(draws, layout, np.tile(np.asarray(weights, dtype=float), (count, 1)),
                           np.asarray(shared, dtype=float), shots)


def test_draw_estimates_skip_a_piece_of_zero_mass():
    """A piece whose cells all have zero weight draws no shot and scores 0:
    its binomial count is 0, only the other piece's scoring shots draw
    uniforms, two each (the cell, then the entry in it), and each estimate
    is a sum of that piece's values alone."""
    draws = RecordingDraws(1)
    layout = cell_layout([1, 2], [2, 1, 1], [1e6, 2e6, 1.0, 3.0])
    totals = draw_cells(draws, layout, [0.0, 0.25, 0.5], [1.0] * 4, 50, 40)
    counts = np.concatenate(draws.counts).reshape(50, 2)
    assert np.all(counts[:, 0] == 0) and draws.uniforms == 2 * counts[:, 1].sum() > 0
    assert np.all((totals >= counts[:, 1]) & (totals <= 3 * counts[:, 1]))
    assert np.all(totals == np.round(totals))


def test_draw_estimates_never_return_a_zero_probability_entry():
    """Cells and entries of zero probability, at the end of a run or of a
    cell, are never returned, also when lo + U J rounds up to the run's
    end.  The rows' running sums over the cells are 0.5, 0.75 | 1, 1 | 1.5,
    the last cell of piece 1 of zero weight, and its first cell's entries
    have shared factors 1 and 0: with the largest uniform 1 - 2^-53,
    piece 1's target 0.75 + U * 0.25 rounds to 1.0 and its in-cell target
    2 + U to 3.0, and pieces 0 and 2 round up to their ends too, yet every
    draw scores its run's last live entry.  With random uniforms no draw
    ever scores the NaN values of the zero-probability entries."""
    layout = cell_layout([2, 2, 1], [1, 1, 2, 1, 1], [1.0, 10.0, 100.0, 1e3, 1e4, 1e5])
    weights, shared = [0.5, 0.25, 0.25, 0.0, 0.5], [1.0, 1.0, 1.0, 0.0, 1.0, 1.0]
    assert 0.75 + (1 - 2.0**-53) * 0.25 == 1.0 and 2 + (1 - 2.0**-53) == 3.0
    draws = RecordingDraws(2, fill=1 - 2.0**-53)
    totals = draw_cells(draws, layout, weights, shared, 30, 20)
    counts = np.concatenate(draws.counts).reshape(30, 3)
    assert np.array_equal(totals, counts @ [10.0, 100.0, 1e5])
    layout.values[3:5] = np.nan
    totals = draw_cells(RecordingDraws(3), layout, weights, shared, 500, 20)
    assert np.all(np.isfinite(totals))


def test_draw_estimates_one_entry_run_and_one_shot():
    """A run of one cell of one entry scores its entry on every draw, for
    the smallest and the largest uniform, and S = 1 works: over 4,000
    one-shot estimates the mean is within 5 standard errors of
    sum_j p_j v_j = 0.9 and the variance within 10 % of its closed form,
    3.45.  The entries' probabilities are 0.3 | 0.2, 0.1, piece 1 one cell
    of weight 0.3 whose entries' shared factors are 2/3 and 1/3."""
    layout = cell_layout([1, 1], [1, 2], [2.0, -1.0, 5.0])
    weights, shared = [0.3, 0.3], [1.0, 2 / 3, 1 / 3]
    for fill, second in ((0.0, -1.0), (1 - 2.0**-53, 5.0)):
        draws = RecordingDraws(4, fill=fill)
        totals = draw_cells(draws, layout, weights, shared, 40, 3)
        counts = np.concatenate(draws.counts).reshape(40, 2)
        assert np.array_equal(totals, counts @ [2.0, second])
    n = 4000
    totals = draw_cells(np.random.default_rng(5), layout, weights, shared, n, 1)
    variance = (0.3 * 4 - 0.6**2) + (0.2 * 1 + 0.1 * 25 - 0.3**2)
    assert abs(totals.mean() - 0.9) < 5 * math.sqrt(variance / n)
    assert abs(totals.var() - variance) < 0.1 * variance


def test_draw_estimates_skip_a_zero_probability_entry_inside_a_cell():
    """An entry of zero shared factor between live entries of one cell is
    never returned: the cell's running sums are 0.5, 0.5, 1, so the
    uniform 0.5 lands exactly on the dead entry's running sum and scores
    the entry after it, and with random uniforms the dead entry's NaN
    value is never scored while the live ones split the draws evenly."""
    layout = cell_layout([1], [3], [1.0, np.nan, 3.0])
    draws = RecordingDraws(6, fill=0.5)
    totals = draw_cells(draws, layout, [0.8], [0.5, 0.0, 0.5], 20, 10)
    assert np.array_equal(totals, 3.0 * np.concatenate(draws.counts))
    n, shots = 400, 50
    totals = draw_cells(np.random.default_rng(7), layout, [0.8], [0.5, 0.0, 0.5], n, shots)
    assert np.all(np.isfinite(totals))
    # each shot scores 1 or 3 with probability 0.4 each: mean 1.6, variance 4 - 1.6^2
    assert abs(totals.mean() / shots - 1.6) < 5 * math.sqrt((4 - 1.6**2) / (n * shots))


def test_draw_estimates_skip_a_zero_mass_cell_between_live_ones():
    """A cell of zero mass between live cells of one piece is never
    returned, whether its weight is 0 or its entries' shared factors are:
    the row's running sums are 0.25, 0.25, 0.5, 0.5, 1, so the uniforms
    0.25 and 0.5 land exactly on the running sums that the dead cells
    share with the cells before them and score the cells after them, and
    with random uniforms the dead cells' NaN values are never scored."""
    layout = cell_layout([5], [1, 1, 1, 1, 1], [1.0, np.nan, 2.0, np.nan, 4.0])
    weights, shared = [0.25, 0.0, 0.25, 0.5, 0.5], [1.0, 1.0, 1.0, 0.0, 1.0]
    for fill, value in ((0.25, 2.0), (0.5, 4.0)):
        draws = RecordingDraws(8, fill=fill)
        totals = draw_cells(draws, layout, weights, shared, 20, 10)
        assert np.array_equal(totals, value * np.concatenate(draws.counts))
    totals = draw_cells(np.random.default_rng(9), layout, weights, shared, 400, 50)
    assert np.all(np.isfinite(totals))


def test_draw_estimates_multinomial_path():
    """A run with at least ``xbm._MULTINOMIAL_DRAWS`` scoring draws, and
    no fewer than its piece's cells, draws one multinomial over its cells
    and one over the entries of the cells it reaches, and no uniform; a
    zero-weight cell and a zero-factor entry score nothing.  Piece 0 takes
    that path, piece 1 has too few draws and piece 2, whose 300 cells are
    more than its draws, searches too.  The law is the entry-by-entry
    draw's (``draw_estimates``): over 600 estimates at S = 4,000 the two
    agree in mean and variance.  At S = 100 no run takes the path."""
    cells = [3, 1, 1, 1] + [1] * 300
    layout = cell_layout([3, 1, 300], cells, [np.nan, 1.0, 3.0, 5.0, np.nan, -2.0] + [0.5] * 300)
    weights = [0.3, 0.4, 0.0, 0.02] + [0.05 / 300] * 300
    shared = [0.0, 0.5, 0.5, 1.0, 1.0, 1.0] + [1.0] * 300
    shots, n = 4000, 600
    draws = RecordingDraws(10)
    totals = draw_cells(draws, layout, weights, shared, n, shots)
    counts = np.concatenate(draws.counts).reshape(n, 3)
    assert np.all(counts[:, 0] >= xbm._MULTINOMIAL_DRAWS)
    assert np.all(counts[:, 1] < xbm._MULTINOMIAL_DRAWS)
    assert np.all((counts[:, 2] >= xbm._MULTINOMIAL_DRAWS) & (counts[:, 2] < 300))
    assert draws.multinomials == 2 and draws.uniforms == 2 * counts[:, 1:].sum()
    assert np.all(np.isfinite(totals))
    probs = np.array([0.0, 0.15, 0.15, 0.4, 0.0, 0.02] + [0.05 / 300] * 300)
    oracle = draw_estimates(np.random.default_rng(11), lambda first, stop: np.tile(
        probs, (stop - first, 1)), n, np.array([0, 5, 6, 306]),
        np.array([0.0, 1.0, 3.0, 5.0, 0.0, -2.0] + [0.5] * 300), shots)
    assert same_moments(totals / shots, oracle / shots)
    draws = RecordingDraws(12)
    draw_cells(draws, layout, [0.3, 0.7, 0.0, 1.0] + [1 / 300] * 300, [1.0] * 306, 50, 100)
    assert draws.multinomials == 0
    # only piece 2, with more cells than draws, reaches 2^7 draws
    draws = RecordingDraws(13)
    totals = draw_cells(draws, layout, [0.0] * 4 + [0.05 / 300] * 300, [1.0] * 306, 50, shots)
    counts = np.concatenate(draws.counts).reshape(50, 3)
    assert np.all(counts[:, 2] >= xbm._MULTINOMIAL_DRAWS) and draws.multinomials == 0
    assert np.array_equal(totals, 0.5 * counts[:, 2])
