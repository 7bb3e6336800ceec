import math
import tempfile

import numpy as np
import pytest
from hypothesis import configuration as hypothesis_configuration
from scipy import sparse

from qopf import grid, harness, model, permute, sim, xbm

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


def problem_from_rows(n, m, m0, rows):
    """A QcqpProblem from per-row matrices given as grid.Constraint records.

    Each matrix, dense or scipy-sparse, goes through scipy.sparse into the
    flat entries of one grid.MatrixStack whose dimension is the cost's.
    """
    coos = [sparse.coo_matrix(c.matrix) for c in rows]
    stack = grid.MatrixStack(
        np.repeat(np.arange(len(rows)), [a.nnz for a in coos]),
        np.concatenate([a.row for a in coos]),
        np.concatenate([a.col for a in coos]),
        np.concatenate([a.data for a in coos]),
        len(rows), m0.shape[0])
    m0 = sparse.csr_matrix(m0, dtype=complex)
    m0.eliminate_zeros()
    return grid.QcqpProblem(n=n, m=m, m0=m0, stack=stack,
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
        for piece in xbm.decompose(tensor[m]).pieces:
            key = (piece.color, piece.part)
            diagonals.setdefault(key, np.zeros((problem.m_stored, problem.dim)))[m] = \
                piece.diagonal
            norms[key] = max(norms.get(key, 0.0), piece.norm)
    keys = sorted(diagonals, key=lambda key: (key[1] != xbm.REAL, key[0]))
    dense = np.zeros((len(keys), problem.m_stored, problem.dim))
    for p, key in enumerate(keys):
        dense[p] = diagonals[key]
    return keys, dense, [norms[key] for key in keys]


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
        raise sim.SimulationError("observable dimension does not match the state")
    residual = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
    if residual > 1e-10:
        raise sim.SimulationError(f"observable not Hermitian (residual {residual:.2e})")
    return float(np.real(np.vdot(state, m @ state)))


def shift_points(params, index):
    """The two parameter-shift evaluation points for entry ``index``
    (+- pi/2, the r = 1/2 convention for Pauli-generated rotations)."""
    params = np.asarray(params, dtype=float)
    if not (0 <= index < len(params)):
        raise sim.SimulationError(f"parameter index {index} out of range")
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
