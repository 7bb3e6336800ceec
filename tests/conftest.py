import math
import tempfile
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import configuration as hypothesis_configuration
from scipy import sparse

from qopf import grid, harness, model, permute, saddle, sim, xbm

CASE2_TEXT = """
BUS
1 gen  0.0 0.0  0.9 1.1
2 load 0.5 0.165 0.9 1.1
BRANCH
1 2 4.0 -8.0 1.0
GEN
1 0.0 2.0 -1.0 1.0
COST
1 1.0
"""

CASE3_TEXT = """
BUS
1 gen  0.0 0.0  0.9 1.1
2 load 0.3 0.1  0.9 1.1
3 load 0.2 0.05 0.9 1.1
BRANCH
1 2 4.0 -8.0 1.0
2 3 5.0 -10.0 1.0
1 3 3.0 -9.0 1.0
GEN
1 0.0 2.0 -1.0 1.0
COST
1 1.5
"""


def pytest_configure(config):
    """Hypothesis caches what it reads from the source under its home
    directory, .hypothesis/ in the working directory by default, from test
    collection on; point it at a temporary directory removed at exit, so
    that the tests write nothing into the source tree."""
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    hypothesis_configuration.set_hypothesis_home_dir(home.name)


@pytest.fixture(scope="session")
def case2():
    return grid.parse_case(CASE2_TEXT, "case2")


@pytest.fixture(scope="session")
def case3():
    return grid.parse_case(CASE3_TEXT, "case3")


@pytest.fixture(scope="session")
def ieee57():
    from qopf.harness import bundled_case_path
    return grid.load_case(bundled_case_path("ieee57"))


@pytest.fixture(scope="session")
def case2_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cases") / "case2.case"
    path.write_text(CASE2_TEXT, encoding="utf-8")
    return path


def random_hermitian(rng, dim, scale=1.0):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (a + a.conj().T) / 2


def matrix_stack(matrices, dim):
    """Square matrices, dense or scipy-sparse, as the flat entries of one
    grid.MatrixStack of dimension ``dim``, through scipy.sparse."""
    coos = [sparse.coo_matrix(matrix) for matrix in matrices]
    return grid.MatrixStack(
        np.repeat(np.arange(len(coos)), [a.nnz for a in coos]),
        np.concatenate([a.row for a in coos]),
        np.concatenate([a.col for a in coos]),
        np.concatenate([a.data for a in coos]),
        len(coos), dim)


def problem_from_rows(n, m, m0, rows):
    """A QcqpProblem from a cost matrix and per-row matrices given as
    grid.Constraint records: the cost becomes a one-matrix stack and the
    rows one stack, both of the cost's dimension."""
    dim = m0.shape[0]
    return grid.QcqpProblem(n=n, m=m, cost=matrix_stack([m0], dim),
                            stack=matrix_stack([c.matrix for c in rows], dim),
                            bounds=np.array([c.bound for c in rows], dtype=float),
                            labels=tuple(c.label for c in rows),
                            subjects=tuple(c.subject for c in rows))


def random_problem(n, m, seed, scale=1.0):
    """A QCQP with random dense Hermitian matrices; no grid semantics."""
    rng = np.random.default_rng(seed)
    m0 = random_hermitian(rng, n, scale)
    cons = tuple(
        grid.Constraint(random_hermitian(rng, n, scale),
                        float(rng.standard_normal()), "gen-limit", k)
        for k in range(m)
    )
    return problem_from_rows(n, m, m0, cons)


def sparse_row_problem(seed):
    """Three random sparse Hermitian rows given as scipy COO, padded to
    four: each row has one entry split into two duplicates and one stored
    explicit zero, and padding appends an empty fourth row."""
    rng = np.random.default_rng(seed)
    dim = 4
    rows = []
    for k in range(3):
        keep = rng.random((dim, dim)) < 0.5
        m = random_hermitian(rng, dim) * (keep | keep.T)
        i, j = np.nonzero(m)
        data = m[i, j]
        i = np.concatenate([i, i[:1], [k]])
        j = np.concatenate([j, j[:1], [(k + 1) % dim]])
        data = np.concatenate([data[:1] / 2, data[1:], data[:1] / 2, [0.0]])
        matrix = sparse.coo_matrix((data, (i, j)), shape=(dim, dim))
        rows.append(grid.Constraint(matrix, float(rng.standard_normal()), "gen-limit", k))
    m0 = sparse.coo_matrix(random_hermitian(rng, dim))
    return grid.pad_to_qubits(problem_from_rows(dim, 3, m0, rows))


def stack_problems():
    """Problems for the MatrixStack parity tests: dense complex rows with
    padding rows (one also padded in dimension), scipy-sparse rows, and a
    problem padded in both sizes and then permuted."""
    padded = grid.pad_to_qubits(random_problem(3, 6, seed=24))
    perm = permute.NodePermutation.from_forward([2, 0, 3, 1])
    return [grid.pad_to_qubits(random_problem(4, 5, seed=21)),
            grid.pad_to_qubits(random_problem(3, 6, seed=22)),
            sparse_row_problem(23),
            permute.permute_problem(padded, perm)]


def per_row_pieces(problem):
    """Reference for ``xbm.piece_table``: every stored row decomposed on its
    own.  Returns the (color, part) keys in table order (real parts by
    ascending color, then imaginary parts), the (pieces, M, dim) rotated
    diagonals and each piece's largest norm over the rows."""
    tensor = problem.dense_constraints()
    diagonals: dict[tuple[int, str], np.ndarray] = {}
    norms: dict[tuple[int, str], float] = {}
    for m in range(problem.m_stored):
        table = xbm.decompose(tensor[m])
        for key, diagonal, norm in zip(table.pieces, table.diagonals, table.norms):
            diagonals.setdefault(key, np.zeros((problem.m_stored, problem.dim)))[m] = diagonal
            norms[key] = max(norms.get(key, 0.0), norm)
    keys = sorted(diagonals, key=lambda key: (key[1] != xbm.REAL, key[0]))
    dense = np.zeros((len(keys), problem.m_stored, problem.dim))
    for p, key in enumerate(keys):
        dense[p] = diagonals[key]
    return keys, dense, [norms[key] for key in keys]


def piece_matrix(table, p):
    """The matrix of piece p of a one-matrix ``xbm.PieceTable``, rebuilt
    exactly from its diagonal."""
    color, part = table.pieces[p]
    diagonal = table.diagonals[p]
    dim = table.entries.dim
    out = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(dim)
    if color == 0:
        out[idx, idx] = diagonal
        return out
    low = idx[(idx >> (color.bit_length() - 1)) & 1 == 0]
    vals = diagonal[low] if part == xbm.REAL else -1j * diagonal[low]
    out[low, low ^ color] = vals
    out[low ^ color, low] = np.conj(vals)
    return out


def reconstruct(table):
    """Rebuild the matrix of a one-matrix ``xbm.PieceTable`` exactly from
    its piece diagonals."""
    dim = table.entries.dim
    return sum((piece_matrix(table, p) for p in range(len(table))),
               np.zeros((dim, dim), dtype=complex))


@pytest.fixture(scope="session")
def padded_complex_problem():
    # 5 rows padded to 8; random Hermitian rows carry imaginary entries
    problem = grid.pad_to_qubits(random_problem(4, 5, seed=21))
    assert problem.m_stored == 8 and problem.m == 5
    return problem


@pytest.fixture(scope="session")
def ieee57_context(ieee57):
    """The bundled ieee57, prepared as the protocol does (benchmark
    simplifications, RCM, padding), with a shallow ansatz pair: 6 primal
    qubits (row 6, one layer) and 9 dual qubits (row 2, two layers)."""
    problem = harness.prepare_case(harness.apply_benchmark_simplifications(ieee57),
                                   rcm_runs=20).permuted
    return model.LagrangianContext(problem, sim.AnsatzSpec.from_row(6, 6, 1),
                                   sim.AnsatzSpec.from_row(2, 9, 2))


def exact_expectation(state, observable):
    """psi^dag M psi for a Hermitian observable; the brute-force oracle all
    sampled estimators are tested against."""
    m = np.asarray(observable)
    if m.shape != (len(state), len(state)):
        raise grid.ValidationError("observable dimension does not match the state")
    residual = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
    if residual > 1e-10:
        raise grid.ValidationError(f"observable not Hermitian (residual {residual:.2e})")
    return float(np.real(np.vdot(state, m @ state)))


def shift_points(params, index):
    """The two parameter-shift evaluation points for entry ``index``
    (+- pi/2, the r = 1/2 convention for Pauli-generated rotations)."""
    params = np.asarray(params, dtype=float)
    if not (0 <= index < len(params)):
        raise grid.ValidationError(f"parameter index {index} out of range")
    plus = params.copy()
    minus = params.copy()
    plus[index] += math.pi / 2
    minus[index] -= math.pi / 2
    return plus, minus


def g_operator(ctx, z, mode=model.EvalMode()):
    """Signed saddle field [grad_theta; grad_alpha; -grad_phi; -grad_beta]
    at a stacked iterate z (anything with theta/alpha/phi/beta)."""
    result = model.grad(ctx, model.PrimalPoint(z.theta, z.alpha),
                        model.DualPoint(z.phi, z.beta), mode)
    return result.stacked()


def sample_basis(state, shots, seed):
    """Multinomial computational-basis counts (length 2**n) of a state,
    drawn from the generator ``sim.rng(seed)``: the sampling every sampled
    estimator applies to each rotated piece state."""
    if shots < 1:
        raise grid.ValidationError("shots must be >= 1")
    probs = np.abs(np.asarray(state)) ** 2
    probs = probs / probs.sum()
    return sim.rng(seed).multinomial(shots, probs)


def random_state(rng, dim):
    state = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return state / np.linalg.norm(state)


# Dense gate oracle, independent of qopf.sim: every single-qubit gate is a
# full 2^n x 2^n matrix built with np.kron (qubit 0 the least significant,
# i.e. rightmost, factor) and every CX a basis permutation matrix.
PAULIS = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]]),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
ORACLE_GATES = {
    "h": np.array([[1, 1], [1, -1]]) / np.sqrt(2),
    "s": np.diag([1, 1j]),
    "x": PAULIS["x"],
}


def oracle_rotation(kind, angle):
    """exp(-i angle P / 2) for kind "rx", "ry" or "rz"."""
    return np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * PAULIS[kind[1]]


def oracle_single(n, qubit, u):
    out = np.eye(1)
    for q in reversed(range(n)):
        out = np.kron(out, u if q == qubit else np.eye(2))
    return out


def oracle_cx(n, control, target):
    dim = 2**n
    out = np.zeros((dim, dim))
    for i in range(dim):
        out[i ^ (1 << target) if (i >> control) & 1 else i, i] = 1.0
    return out


def oracle_ansatz(n, template, layers, params):
    """Unitary of ``layers`` repetitions of ``template``: each rotation token
    on every qubit with the next parameter, "cx" the chain q -> q+1."""
    u = np.eye(2**n)
    k = 0
    for _ in range(layers):
        for token in template:
            if token == "cx":
                for q in range(n - 1):
                    u = oracle_cx(n, q, q + 1) @ u
                continue
            for q in range(n):
                u = oracle_single(n, q, oracle_rotation(token, params[k])) @ u
                k += 1
    return u


# Piece-by-piece reference of the grouped measurement rotations: a copy of
# the gate-by-gate rotation of one color piece that ``xbm.rotate_pieces``
# replaced, with its 2x2 primitive, so the batched path can be compared
# with it bit for bit.
PIECEWISE_S_DAG = np.array([[math.cos(-math.pi / 4) - 1j * math.sin(-math.pi / 4), 0],
                            [0, math.cos(-math.pi / 4) + 1j * math.sin(-math.pi / 4)]])
PIECEWISE_H = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)


def piecewise_single(state, qubit, u):
    view = state.reshape(-1, 2, 2**qubit)
    out = np.empty_like(view)
    out[:, 0, :] = u[0, 0] * view[:, 0, :] + u[0, 1] * view[:, 1, :]
    out[:, 1, :] = u[1, 0] * view[:, 0, :] + u[1, 1] * view[:, 1, :]
    return out.reshape(state.shape)


def piecewise_rotation(state, color, n, part):
    """Rz(-pi/2) on k = msb(color) for the imaginary part, the CX fan-out
    from k as one basis gather, then H on k; color 0 is left as it is."""
    if color == 0:
        return state
    k = color.bit_length() - 1
    if part == "imag":
        state = piecewise_single(state, k, PIECEWISE_S_DAG)
    idx = np.arange(2**n)
    fanout = np.where((idx >> k) & 1 == 1, idx ^ (color ^ (1 << k)), idx)
    return piecewise_single(state[..., fanout], k, PIECEWISE_H)


# Builders and oracles that only the tests use.


def complex_start_prepare(spec, params):
    """The ansatz state, or the states of a (B, P) parameter stack, with
    every layer run in complex arithmetic from a complex128 |0...0>: the
    reference for the dtype rule of ``sim.prepare``."""
    params = np.asarray(params, dtype=float)
    state = np.zeros((*params.shape[:-1], 2**spec.n_qubits), dtype=complex)
    state[..., 0] = 1.0
    chain = sim._layout(spec.n_qubits).chain
    factors = iter(sim.rotation_factors(spec, params))
    for token in sim._plan(spec).tokens:
        state = state[..., chain] if token == "cx" else sim._apply(state, token, next(factors))
    return state


def complex_start_shift_states(spec, params):
    """``sim.shift_states`` as one complex-start preparation per row: the
    base point, then the +-pi/2 shift points of every parameter."""
    points = [params] + [p for j in range(spec.param_count) for p in shift_points(params, j)]
    return complex_start_prepare(spec, np.array(points))


def complex_start_sweep(spec, factors, state, costate):
    """``sim.reverse_sweep`` with the (state, costate) pair held complex."""
    pair = np.stack([state, costate]).astype(complex)
    unchain = sim._layout(spec.n_qubits).unchain
    out = np.zeros((len(factors), spec.n_qubits))
    r = len(factors)
    for token in reversed(sim._plan(spec).tokens):
        if token == "cx":
            pair = pair[:, unchain]
            continue
        r -= 1
        out[r] = sim.layer_derivatives(*pair, token)
        pair = sim._apply(pair, token, sim._adjoint(token, factors[r]))
    return out.ravel()


def zero_state(n_qubits):
    state = np.zeros(2**n_qubits, dtype=complex)
    state[0] = 1.0
    return state


def rotation_layer(states, kind, angles):
    """Apply R_kind(angles[q]) to every qubit q of a state, or of every row
    of a stack of states, through the simulator's own layer kernels;
    negated angles undo it."""
    return sim._apply(states, kind, sim._kind_factors(kind, np.asarray(angles, dtype=float)))


def pattern_from_edges(n, edges, diagonal=True):
    entries = set()
    if diagonal:
        entries.update((i, i) for i in range(n))
    for a, b in edges:
        entries.add((a, b))
        entries.add((b, a))
    return permute.SparsityPattern(n, frozenset(entries))


def banded_pattern(n, k):
    entries = {
        (i, j)
        for i in range(n)
        for j in range(max(0, i - k), min(n, i + k + 1))
    }
    return permute.SparsityPattern(n, frozenset(entries))


def constant_schedule(mu):
    """The same constant step mu for every block."""
    return saddle.StepSchedule((mu, 1.0), (mu, 1.0), (mu, 1.0), (mu, 1.0))


def rotate_piece(color, part, state):
    """One piece's measurement rotation of a state or a stack of states:
    the one-piece ``xbm.rotate_pieces``."""
    n_qubits = state.shape[-1].bit_length() - 1
    return xbm.rotate_pieces(state, xbm.piece_rotations([(color, part)], n_qubits))[0]


def piece_fanout(color, part, n_qubits):
    """(k, fan-out gather) of one color >= 1 piece's rotation, read from
    its one-piece ``xbm.piece_rotations``."""
    return row_fanout(xbm.piece_rotations([(color, part)], n_qubits), 0)


def row_fanout(rotations, row):
    """(k, fan-out gather) of row ``row`` of one-gather rotations: H acts on
    the qubit k where the coefficient of the high source is negative, and
    an index i reads its gathered source from hi[i] if its bit k is set,
    else from lo[i] (both offset into the state's or a turned copy's block)."""
    high = rotations.c1[row].real < 0
    k = int(np.flatnonzero(high)[0]).bit_length() - 1
    dim = rotations.lo.shape[1]
    return k, np.where(high, rotations.hi[row], rotations.lo[row]) % dim


class VarianceReport(NamedTuple):
    variance: float
    bound: float


def estimator_variance(table, state, shots_per_piece):
    """Exact variance of the sampled estimator ``xbm.estimate_expectation``
    for one state, and its norm upper bound.

    variance = (1/S) sum_c ( <psi_c|L^2|psi_c> - <psi_c|L|psi_c>^2 )
    bound    = (1/S) sum_c ||M^c||^2
    """
    if shots_per_piece < 1:
        raise grid.ValidationError("shots_per_piece must be >= 1")
    variance = 0.0
    bound = 0.0
    rotated_probs = np.abs(xbm.rotate_pieces(state, table.rotations)) ** 2
    for diagonal, norm, probs in zip(table.diagonals, table.norms, rotated_probs):
        mean = float(probs @ diagonal)
        second = float(probs @ diagonal**2)
        variance += second - mean**2
        bound += norm**2
    return VarianceReport(variance / shots_per_piece, bound / shots_per_piece)


# The sampled F estimator that the guide-table dual inverse replaced: the
# dual draws of all pieces argsorted and searched in sorted order, and each
# pair's segment start and size read for every pair.  The fast path must
# give the same estimate bit for bit.


def sorted_search(a, v):
    """``np.searchsorted(a, v, side="right")`` with the queries searched in
    sorted order."""
    flat = v.ravel()
    order = flat.argsort()
    out = np.empty(flat.shape, dtype=np.intp)
    out[order] = np.searchsorted(a, flat[order], side="right")
    return out.reshape(v.shape)


def sorted_search_sample_f(ctx, cdfs, w_cdf, mode):
    """(estimate, shots) of ``model._sample_f`` from the dual CDF alone."""
    shots = mode.shots
    table = ctx.joint_diagonals
    pieces = len(table)
    draws = sim.rng(mode.seed)
    m = sorted_search(w_cdf, draws.random((pieces, shots)))
    u = draws.random((pieces, shots)).ravel()
    segments = (m + ctx.problem.m_stored * np.arange(pieces)[:, None]).ravel()
    first = table.segment_starts[segments]
    sizes = table.segment_starts[segments + 1] - first
    shot = np.flatnonzero(sizes)
    sizes = sizes[shot]
    entry = np.arange(sizes.sum()) + np.repeat(first[shot] - np.cumsum(sizes) + sizes, sizes)
    shot = np.repeat(shot, sizes)
    cols = table.entries.keys[entry] % table.entries.dim
    hit = model._scored(cdfs, shot // shots, cols, u[shot])
    values = np.zeros((pieces, shots))
    values.ravel()[shot[hit]] = table.entries.values[entry[hit]]
    total = 0.0
    for mean in (values.sum(axis=1) / shots).tolist():
        total += mean
    return total, shots * pieces
