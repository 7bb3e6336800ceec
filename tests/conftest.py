import math
import tempfile
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import configuration as hypothesis_configuration
from scipy import sparse
from scipy.optimize import nnls

from qopf import grid, harness, model, permute, saddle, sim, xbm
from qopf.grid import NetworkCase, QcqpProblem, ValidationError, assemble_qcqp
from qopf.harness import ReferenceInstance, extract_setpoints, restricted_rows

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


@pytest.fixture(scope="session")
def desk_oracle(case2, case3):
    """``brute_force_reference`` of case2 and case3, by case name."""
    return {case.name: brute_force_reference(case) for case in (case2, case3)}


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
    by_key: dict[tuple[int, str], np.ndarray] = {}
    norms: dict[tuple[int, str], float] = {}
    for m in range(problem.m_stored):
        table = xbm.decompose(tensor[m])
        for key, diagonal, norm in zip(table.pieces, diagonals(table), table.norms):
            by_key.setdefault(key, np.zeros((problem.m_stored, problem.dim)))[m] = diagonal
            norms[key] = max(norms.get(key, 0.0), norm)
    keys = sorted(by_key, key=lambda key: (key[1] != xbm.REAL, key[0]))
    dense = np.zeros((len(keys), problem.m_stored, problem.dim))
    for p, key in enumerate(keys):
        dense[p] = by_key[key]
    return keys, dense, [norms[key] for key in keys]


def dense_pieces(table):
    """The rotated piece diagonals of an ``xbm.PieceTable`` scattered from
    its entries as a (pieces, count, dim) array."""
    out = np.zeros(len(table) * table.count * table.entries.dim)
    out[table.entries.keys] = table.entries.values
    return out.reshape(len(table), table.count, table.entries.dim)


def diagonals(table):
    """The (pieces, dim) rotated piece diagonals of matrix 0 of an
    ``xbm.PieceTable``."""
    return dense_pieces(table)[:, 0]


def piece_matrix(table, p):
    """The matrix of piece p of a one-matrix ``xbm.PieceTable``, rebuilt
    exactly from its diagonal."""
    color, part = table.pieces[p]
    diagonal = diagonals(table)[p]
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


def per_instance_problem(instance, perm):
    """One instance assembled, padded and permuted on its own: the oracle
    for a shared-matrix instance, instance 0's problem with that instance's
    bounds row."""
    return permute.permute_problem(grid.pad_to_qubits(grid.assemble_qcqp(instance)), perm)


def assert_same_rows(problem, oracle):
    """``problem`` equals ``oracle`` in every stack and cost array, bound,
    label and subject."""
    for mine, theirs in ((problem.cost, oracle.cost), (problem.stack, oracle.stack)):
        assert (mine.count, mine.dim) == (theirs.count, theirs.dim)
        for name in ("segments", "rows", "cols", "values"):
            assert np.array_equal(getattr(mine, name), getattr(theirs, name)), name
    assert np.array_equal(problem.bounds, oracle.bounds)
    assert (problem.labels, problem.subjects) == (oracle.labels, oracle.subjects)


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


# ---------------------------------------------------------------------------
# The oracle of the saddle loop: the step functions it replaced, one loop
# over them, and fresh evaluations everywhere


def mu_vector(rates, p_count, q_count):
    mu_t, mu_a, mu_f, mu_b = rates
    return np.concatenate([
        np.full(p_count, mu_t), [mu_a], np.full(q_count, mu_f), [mu_b],
    ])


def project(vec, p_count, q_count):
    vec[p_count] = max(vec[p_count], 0.0)
    vec[p_count + 1 + q_count] = max(vec[p_count + 1 + q_count], 0.0)
    return vec


def pd_step(g_fn, z, rates, t):
    """One primal-dual step at iteration t: all four blocks move against g
    evaluated once at z (Jacobi style), with alpha and beta clipped at zero."""
    p_count, q_count = len(z.theta), len(z.phi)
    g, shots = g_fn(z, t, 0)
    vec = z.stacked() - mu_vector(rates, p_count, q_count) * g
    project(vec, p_count, q_count)
    nxt = saddle.SaddlePointState.from_stacked(vec, p_count, q_count)
    return nxt, {"g": g, "shots": shots}


def eg_step(g_fn, z, rates, t):
    """One extragradient step at iteration t: midpoint with step 2*mu, final
    update with the field at the midpoint and step mu; fresh gradient
    evaluation at both points, projections at both."""
    p_count, q_count = len(z.theta), len(z.phi)
    mu = mu_vector(rates, p_count, q_count)
    g1, shots1 = g_fn(z, t, 0)
    mid_vec = project(z.stacked() - 2.0 * mu * g1, p_count, q_count)
    mid = saddle.SaddlePointState.from_stacked(mid_vec, p_count, q_count)
    g2, shots2 = g_fn(mid, t, 1)
    vec = project(z.stacked() - mu * g2, p_count, q_count)
    nxt = saddle.SaddlePointState.from_stacked(vec, p_count, q_count)
    return nxt, {"g": g1, "g_mid": g2, "shots": shots1 + shots2, "midpoint": mid}


def classical_field(problem, v, lam):
    grad_v = 2.0 * (problem.m0 @ v + problem.stack.action(lam, v))
    grad_lam = problem.stack.forms(v) - problem.bounds
    return grad_v, grad_lam


def classical_pd_step(problem, s, steps):
    """Gauss-Seidel primal-dual step on the raw QCQP: descend v at
    (v^t, lam^t), then ascend lambda at (v^{t+1}, lam^t) with projection."""
    mu_v, mu_lam = steps
    grad_v, _ = classical_field(problem, s.v, s.lam)
    v_next = s.v - mu_v * grad_v
    forms = problem.stack.forms(v_next)
    lam_next = np.maximum(s.lam + mu_lam * (forms - problem.bounds), 0.0)
    return saddle.ClassicalState(v_next, lam_next)


def classical_eg_step(problem, s, steps):
    """Extragradient on the stacked (v, lambda) with the same signed-field
    template as the variational engine (both gradients per stage evaluated
    at the stage point)."""
    mu_v, mu_lam = steps
    grad_v, grad_lam = classical_field(problem, s.v, s.lam)
    v_mid = s.v - 2.0 * mu_v * grad_v
    lam_mid = np.maximum(s.lam + 2.0 * mu_lam * grad_lam, 0.0)
    grad_v2, grad_lam2 = classical_field(problem, v_mid, lam_mid)
    v_next = s.v - mu_v * grad_v2
    lam_next = np.maximum(s.lam + mu_lam * grad_lam2, 0.0)
    return saddle.ClassicalState(v_next, lam_next)


def oracle_loop(step, value, blocks, init, schedule, stop, divergence_ceiling):
    """The saddle loop over a step function: ``step(z, rates, t)`` returns
    the next state and its (gradient norms, shots) record or None,
    ``value(z, t)`` the Lagrangian of iterate t and ``blocks(z)`` the two
    blocks the stop rule compares.  Records everything ``saddle._iterate``
    does except ``seconds``, and raises ``saddle.DivergenceError`` as it
    does, a NaN Lagrangian included."""
    traj = saddle.Trajectory(states=[init])
    z = init
    for t in range(stop.max_iters):
        nxt, record = step(z, schedule.rates(t), t)
        lag = value(nxt, t + 1)
        if not abs(lag) <= divergence_ceiling:
            traj.stop_reason = "diverged"
            raise saddle.DivergenceError(t, lag, traj)
        traj.states.append(nxt)
        traj.lagrangians.append(lag)
        if record is not None:
            traj.g_norms.append(record[0])
            traj.shots.append(record[1])
        (a, b), (a_prev, b_prev) = blocks(nxt), blocks(z)
        z = nxt
        if np.linalg.norm(a - a_prev) <= stop.theta_tol and \
                np.linalg.norm(b - b_prev) <= stop.phi_tol:
            traj.stop_reason = "converged"
            break
    return traj


def fresh_run(ctx, init, method, schedule, stop, mode=model.EvalMode(),
              divergence_ceiling=1e9):
    """The oracle of ``saddle.run``: the PD or EG step functions with a
    fresh ``model.grad`` at every gradient point and a fresh
    ``model.lagrangian`` at every iterate, so nothing is shared between
    evaluations."""
    step_fn = pd_step if method == saddle.PD else eg_step
    p_count, q_count = len(init.theta), len(init.phi)

    def g_fn(z, *tags):
        result = model.grad(ctx, model.PrimalPoint(z.theta, z.alpha),
                            model.DualPoint(z.phi, z.beta), mode.reseeded(*tags))
        return result.stacked(), result.shots_spent

    def step(z, rates, t):
        nxt, info = step_fn(g_fn, z, rates, t)
        return nxt, (saddle._block_norms(info["g"], p_count, q_count), info["shots"])

    def value(z, t):
        return model.lagrangian(ctx, model.PrimalPoint(z.theta, z.alpha),
                                model.DualPoint(z.phi, z.beta), mode.reseeded(9, t, 1))

    return oracle_loop(step, value, lambda z: (z.theta, z.phi), init, schedule, stop,
                       divergence_ceiling)


def classical_run_oracle(problem, init, method, schedule, stop, divergence_ceiling=1e9):
    """The oracle of ``saddle.run_classical``: the classical PD or EG step
    functions, v and lambda stepping at the theta and phi rates."""
    step_fn = classical_pd_step if method == saddle.PD else classical_eg_step

    def step(s, rates, t):
        mu_v, _, mu_lam, _ = rates
        return step_fn(problem, s, (mu_v, mu_lam)), None

    return oracle_loop(step, lambda s, t: saddle.classical_lagrangian(problem, s.v, s.lam),
                       lambda s: (s.v, s.lam), init, schedule, stop, divergence_ceiling)


def field_run(field, init, method, schedule, iters):
    """``iters`` PD or EG iterations of ``saddle._iterate`` from ``init``
    with the variational move and a test ``field(z, t, stage, part)``
    returning (g, shots); the stop rule never fires and L is recorded as
    0."""
    return saddle._iterate(field, saddle._move, (None,), lambda z, t: 0.0,
                           lambda z: (z.theta, z.phi), init, method, schedule,
                           saddle.StopRule(theta_tol=1e-300, phi_tol=1e-300,
                                           max_iters=iters), math.inf)


def assert_same_run(traj, oracle):
    """Two trajectories agree bit for bit: every state's fields, every
    Lagrangian, gradient norm and shot count, and the stop reason."""
    assert len(traj.states) == len(oracle.states)
    for state, expected in zip(traj.states, oracle.states):
        assert type(state) is type(expected)
        for name in state.__dataclass_fields__:
            assert np.array_equal(getattr(state, name), getattr(expected, name))
    assert traj.lagrangians == oracle.lagrangians
    assert traj.g_norms == oracle.g_norms
    assert traj.shots == oracle.shots
    assert traj.stop_reason == oracle.stop_reason


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
# the gate-by-gate rotation of one color piece that ``rotate_pieces``
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


def apply_single(state, qubit, u):
    """Apply the 2x2 matrix ``u`` to ``qubit`` of a state, or of every row
    of a stack of states, into a new array."""
    view = state.reshape(*state.shape[:-1], -1, 2, 2**qubit)
    out = np.empty(view.shape, np.result_type(view, u))
    out[..., 0, :] = u[0, 0] * view[..., 0, :] + u[0, 1] * view[..., 1, :]
    out[..., 1, :] = u[1, 0] * view[..., 0, :] + u[1, 1] * view[..., 1, :]
    return out.reshape(state.shape)


def rotate_pieces(states, rotations):
    """The full rotation that ``xbm.cell_probabilities`` reads only at
    table cells: every piece's rotation of ``xbm.piece_rotations`` applied
    to a state, or to every row of a stack of states, as a complex
    (pieces, *states.shape) array.  S^dag is applied once per qubit of
    ``rotations.turns``, then every piece reads its two sources from the
    states and these turned copies in one double gather, c0 * y[lo] + c1 *
    y[hi]: the products and sums of rotating piece by piece, in the same
    order, so the result is the same bit for bit."""
    flat = states.reshape(-1, states.shape[-1]).astype(complex, copy=False)
    y = np.concatenate([flat, *(apply_single(flat, k, xbm._S_DAG) for k in rotations.turns)],
                       axis=1)
    rotated = y[:, rotations.lo] * rotations.c0
    rotated += y[:, rotations.hi] * rotations.c1
    return np.moveaxis(rotated.reshape(*states.shape[:-1], *rotations.lo.shape), -2, 0)


def rotated_probabilities(table, states):
    """The (pieces, *states.shape) outcome probabilities of a state, or of
    every row of a stack of states, under each piece of ``table``, each
    piece's normalised over all its outcomes: the full-rotation oracle of
    ``xbm.cell_probabilities``."""
    rotations = xbm.piece_rotations(table.pieces, int(math.log2(table.entries.dim)))
    probs = np.abs(rotate_pieces(states, rotations)) ** 2
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def at_cells(table, probs):
    """(pieces, rows, dim) outcome probabilities read at the table's column
    cells: the (rows, cells) input of ``xbm.estimate_expectation``."""
    rows = probs.swapaxes(0, 1).reshape(probs.shape[1], len(table) * table.entries.dim)
    return rows[:, table.column_cells.cells]


def copied_base_shift_states(spec, factors):
    """``sim.shift_states`` as the stack was first built: at each rotation
    layer the 2n new rows start as copies of the base state, the layer runs
    on every row started so far, and the new rows are turned by
    R_q(+-pi/2) through a gather along the stack."""
    n = spec.n_qubits
    layout = sim._layout(n)
    z = layout.z.T[:, None, :]
    states = np.zeros((1 + 2 * len(factors) * n, 2**n), dtype=sim._plan(spec).dtype)
    states[0, 0] = 1.0
    live = 1
    layer = iter(factors)
    for token in sim._plan(spec).tokens:
        if token == "cx":
            states[:live] = states[:live].take(layout.chain, axis=-1)
            continue
        states[live:live + 2 * n] = states[0]
        live += 2 * n
        states[:live] = sim._apply(states[:live], token, next(layer))
        started = states[live - 2 * n:live].reshape(n, 2, -1)
        flipped = np.take_along_axis(started, np.broadcast_to(layout.flip[:, None, :],
                                                              started.shape), axis=-1)
        if token == "rz":
            turned = started - 1j * sim._PLUS_MINUS * (z * started)
        elif token == "ry":
            turned = started - sim._PLUS_MINUS * z * flipped
        else:
            turned = started - 1j * sim._PLUS_MINUS * flipped
        states[live - 2 * n:live] = (turned * math.sqrt(0.5)).reshape(2 * n, -1)
    return states


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
    return pair_undo_sweep(spec, factors, state.astype(complex), costate.astype(complex))


# A reference adjoint sweep: factors whose high half is built at the low
# half's size and cut down, conjugate-transposed adjoints, derivatives from
# basis tables built on each call, and a pair sweep that undoes every
# rotation layer, layer 0 included.  ``sim.rotation_factors`` must equal
# its factors and ``sim.reverse_sweep`` its gradients.


def padded_kind_factors(kind, angles):
    """``sim._kind_factors`` with both halves built at the low half's size:
    for odd n the high half is I (x) U_hi, one extra zero-angle factor on
    top, cut to its leading 2^b block."""
    n = angles.shape[-1]
    lead = angles.shape[:-1]
    if kind == "rz":
        z = np.where(np.arange(2**n)[:, None] & (1 << np.arange(n)), -1.0, 1.0)
        return np.exp(-0.5j * (angles[..., None, :] * z).sum(axis=-1))
    a = n - n // 2
    padded = np.zeros((*lead, 2 * a))
    padded[..., :n] = angles
    c, s = np.cos(padded / 2), np.sin(padded / 2)
    entries = (c, -1j * s, -1j * s, c) if kind == "rx" else (c, -s, s, c)
    mats = np.stack(entries, axis=-1).reshape(*lead, 2, a, 2, 2)
    krons = mats[..., 0, :, :]
    for q in range(1, a):
        u, size = mats[..., q, :, :], 2 * krons.shape[-1]
        krons = (u[..., :, None, :, None] * krons[..., None, :, None, :]).reshape(
            *lead, 2, size, size)
    hi = 2 ** (n - a)
    return krons[..., 1, :hi, :hi], krons[..., 0, :, :].swapaxes(-1, -2)


def padded_rotation_factors(spec, params):
    """``sim.rotation_factors`` built through ``padded_kind_factors``."""
    params = np.asarray(params, dtype=float)
    layers = np.moveaxis(params.reshape(*params.shape[:-1], -1, spec.n_qubits), -2, 0)
    factors = [None] * len(layers)
    for kind, rows in sim._plan(spec).rows:
        built = padded_kind_factors(kind, layers[rows])
        for i, r in enumerate(rows):
            factors[r] = built[i] if kind == "rz" else (built[0][i], built[1][i])
    return factors


def pair_undo_derivatives(state, costate, kind):
    """``sim.layer_derivatives`` from basis tables built on each call."""
    n = state.shape[-1].bit_length() - 1
    idx, bits = np.arange(2**n), 1 << np.arange(n)
    z = np.where(idx[:, None] & bits, -1.0, 1.0)
    if kind == "rz":
        return z.T @ (costate.conj() * state).imag
    flipped = state[idx ^ bits[:, None]]
    if kind == "rx":
        return (flipped @ costate.conj()).imag
    return -((z.T * flipped) @ costate.conj()).real


def pair_undo_sweep(spec, factors, state, costate):
    """``sim.reverse_sweep`` undoing every rotation layer of the pair with
    the conjugate transposes of its factors, layer 0 included."""
    pair = np.stack([state, costate])
    unchain = sim._layout(spec.n_qubits).unchain
    out = np.zeros((len(factors), spec.n_qubits))
    r = len(factors)
    for token in reversed(sim._plan(spec).tokens):
        if token == "cx":
            pair = pair[:, unchain]
            continue
        r -= 1
        out[r] = pair_undo_derivatives(*pair, token)
        adjoint = factors[r].conj() if token == "rz" else tuple(
            u.conj().swapaxes(-1, -2) for u in factors[r])
        pair = sim._apply(pair, token, adjoint)
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
    the one-piece ``rotate_pieces``."""
    n_qubits = state.shape[-1].bit_length() - 1
    return rotate_pieces(state, xbm.piece_rotations([(color, part)], n_qubits))[0]


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
    rotations = xbm.piece_rotations(table.pieces, int(math.log2(table.entries.dim)))
    rotated_probs = np.abs(rotate_pieces(state, rotations)) ** 2
    for diagonal, norm, probs in zip(diagonals(table), table.norms, rotated_probs):
        mean = float(probs @ diagonal)
        second = float(probs @ diagonal**2)
        variance += second - mean**2
        bound += norm**2
    return VarianceReport(variance / shots_per_piece, bound / shots_per_piece)


def estimate(states, table, shots_per_piece, seed):
    """``xbm.estimate_expectation`` of the rows of a stack of states under
    the rotations of the table's own pieces, all drawn from ``seed``."""
    probs = xbm.cell_probabilities(table, states)
    pairs = [(r, 0) for r in range(len(states))]
    return xbm.estimate_expectation(table, probs, np.ones((1, 1)), pairs, shots_per_piece,
                                    seed)[0]


# The sampled estimators that ``xbm.estimate_expectation`` replaced, kept as
# oracles: the estimator draws other streams, so it must match these in
# distribution (``same_moments``), not bit for bit.


def draw_estimates(draws, entry_probabilities, count, starts, values, shots):
    """The retired entry-by-entry draw: ``count`` sampled estimates, S =
    ``shots`` shots per piece each, all drawn from the one generator
    ``draws``, scoring only the shots that land on a piece's entries.

    Piece k owns entries ``starts[k]`` to ``starts[k + 1] - 1``, and entry j
    scores ``values[j]``.  ``entry_probabilities(first, stop)`` returns a
    new (stop - first, entries) array: row e - first holds the probability
    that one shot of estimate e lands on each entry.  Per estimate and
    piece, N ~ Binomial(S, J), J the piece's entry mass, and given N the
    shots are N draws of an entry by inversion over the row's running sums,
    resolved by ``xbm.live_inverse``.  The estimates go in blocks of whole
    estimates with at most ``xbm._DRAW_BLOCK`` entry probabilities and
    shots.  Returns each estimate's summed scores over S.
    """
    width, pieces = len(values), len(starts) - 1
    totals = np.zeros(count)
    step = max(1, min(count, xbm._DRAW_BLOCK // max(1, width, pieces * shots)))
    offsets = np.arange(step)[:, None] * (width + 1)
    befores, afters = (offsets + starts[:-1]).ravel(), (offsets + starts[1:]).ravel()
    estimates = np.arange(step).repeat(pieces)
    for first in range(0, count, step):
        probs = entry_probabilities(first, min(first + step, count))
        rows = len(probs)
        cumulative = np.zeros((rows, width + 1))
        np.cumsum(probs, axis=1, out=cumulative[:, 1:])
        flat = cumulative.ravel()
        before, after = befores[:rows * pieces], afters[:rows * pieces]
        lows, tops = flat[before], flat[after]
        masses = np.minimum(tops - lows, 1.0)
        highest = np.nextafter(tops, -np.inf)
        counts = draws.binomial(shots, masses)
        ends = np.concatenate(([0], np.cumsum(counts)))
        for start in range(0, int(ends[-1]), xbm._DRAW_BLOCK):
            taken = np.diff(np.minimum(np.maximum(ends, start), start + xbm._DRAW_BLOCK))
            target = draws.random(int(taken.sum()))
            target *= np.repeat(masses, taken)
            target += np.repeat(lows, taken)
            np.minimum(target, np.repeat(highest, taken), out=target)
            at = xbm.live_inverse(flat, np.repeat(before + 1, taken), np.repeat(after, taken),
                                  target)
            totals[first:first + rows] += np.bincount(
                np.repeat(estimates[:rows * pieces], taken), values[at % (width + 1) - 1],
                minlength=rows)
    return totals


def entry_estimates(table, probs, pmfs, pairs, shots, seed):
    """The retired ``xbm.estimate_expectation``: the same (estimates,
    shots) law, each estimate's entry probabilities probs[k, r, i]
    pmfs[q, m] built in full over the table's entries in table order and
    drawn by ``draw_estimates`` from ``sim.rng(seed)``."""
    dim = table.entries.dim
    pieces, cells = np.divmod(table.entries.keys, table.count * dim)
    matrices, outcomes = np.divmod(cells, dim)
    columns = pieces * dim + outcomes
    primal, dual = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    states = probs.swapaxes(0, 1).reshape(probs.shape[1], -1)

    def entry_probabilities(first, stop):
        return states[primal[first:stop, None], columns] * pmfs[dual[first:stop, None], matrices]

    totals = draw_estimates(sim.rng(seed), entry_probabilities, len(pairs),
                            table.segment_starts[::table.count], table.entries.values, shots)
    return (totals / shots).tolist(), shots * len(table) * len(pairs)


def same_moments(values, oracle, sigmas=5.0):
    """Whether two samples of independent estimates agree in mean and in
    variance to within ``sigmas`` standard errors of their difference; the
    standard error of a sample variance is read from its fourth moment."""
    def moments(x):
        x = np.asarray(x, dtype=float)
        centred = x - x.mean()
        var = float(np.mean(centred**2))
        return x.mean(), var, var / len(x), (float(np.mean(centred**4)) - var**2) / len(x)

    mean_a, var_a, se_mean_a, se_var_a = moments(values)
    mean_b, var_b, se_mean_b, se_var_b = moments(oracle)
    return (abs(mean_a - mean_b) <= sigmas * math.sqrt(se_mean_a + se_mean_b) + 1e-12
            and abs(var_a - var_b) <= sigmas * math.sqrt(se_var_a + se_var_b) + 1e-12)


def piecewise_estimate(state, dec, shots, seed):
    """The multinomial estimator of ``xbm.estimate_expectation``, piece by
    piece: one generator seeded with the entropy list itself, from which
    each piece in turn draws the multinomial counts of its rotated state."""
    total = 0.0
    n_qubits = int(math.log2(dec.entries.dim))
    rng = np.random.default_rng(seed)
    for (color, part), diagonal in zip(dec.pieces, diagonals(dec)):
        probs = np.abs(piecewise_rotation(state, color, n_qubits, part)) ** 2
        probs = probs / probs.sum()
        counts = rng.multinomial(shots, probs)
        total += float(counts @ diagonal) / shots
    return total


def multinomial_sample_g(ctx, w, shots, seed):
    """The retired sampled G of one dual PMF: the S-shot multinomial counts
    of the normalised PMF, drawn from the generator ``sim.rng(seed)``, scored
    by the bounds."""
    counts = sim.rng(seed).multinomial(shots, w / w.sum())
    return float(counts @ ctx.problem.bounds) / shots


def sorted_search(a, v):
    """``np.searchsorted(a, v, side="right")`` with the queries searched in
    sorted order."""
    flat = v.ravel()
    order = flat.argsort()
    out = np.empty(flat.shape, dtype=np.intp)
    out[order] = np.searchsorted(a, flat[order], side="right")
    return out.reshape(v.shape)


def sorted_search_sample_f(ctx, cdfs, w_cdf, mode):
    """(estimate, shots) of the sampled F from the (pieces, dim) primal CDFs
    of one state and one normalised dual CDF: per piece, S dual uniforms
    and then S primal uniforms, the dual draws argsorted and searched in
    sorted order, and each pair's segment read."""
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
    hit = scored(cdfs, shot // shots, cols, u[shot])
    values = np.zeros((pieces, shots))
    values.ravel()[shot[hit]] = table.entries.values[entry[hit]]
    total = 0.0
    for mean in (values.sum(axis=1) / shots).tolist():
        total += mean
    return total, shots * pieces


def scored(cdfs, rows, cols, u):
    """Whether the draw u from CDF row ``rows`` is outcome ``cols``, by the
    interval test cdfs[rows, cols - 1] <= u < cdfs[rows, cols], unbounded
    below at column 0: on a nondecreasing row that is exactly
    ``np.searchsorted(cdfs[rows], u, side="right") == cols``."""
    below = np.where(cols > 0, cdfs[rows, cols - 1], -np.inf)
    return (below <= u) & (u < cdfs[rows, cols])


def primal_cdfs(ctx, psi):
    """(pieces, *psi.shape) cumulative outcome distributions of the
    color-rotated primal circuit of a state, or of every state of a stack,
    one leading row per joint piece in table order: the CDFs that the
    retired estimators of F read."""
    probs = np.cumsum(rotated_probabilities(ctx.joint_diagonals, psi), axis=-1)
    probs /= probs[..., -1:]
    return probs


def live_first_sample_f(ctx, cdfs, ws, pairs, shots, seed):
    """The retired live-first estimator of F: (estimates, shots) for
    estimate e pairing the primal CDFs ``cdfs[:, r]`` (``primal_cdfs``)
    with the dual PMF ``ws[q]``, (r, q) = ``pairs[e]``, all drawn from
    ``sim.rng(seed)``.

    Per estimate and piece, S dual uniforms are drawn, estimates in blocks
    of at most ``xbm._DRAW_BLOCK`` uniforms.  The dual rows whose segment
    has entries come first in the piece's dual inverse CDF, so a dual draw
    at or above their mass scores 0; the others find their row by
    ``xbm.live_inverse`` and draw one primal uniform, which scores the
    entry of the pair's segment whose column passes the interval test
    ``scored``."""
    table = ctx.joint_diagonals
    segments = np.flatnonzero(np.diff(table.segment_starts))
    starts = np.searchsorted(segments, np.arange(len(table) + 1) * table.count)
    outcomes = segments % table.count  # each piece's live dual rows, piece-major
    cumulative = np.take(ws, outcomes, axis=-1) / ws.sum(axis=-1, keepdims=True)
    for first, end in zip(starts[:-1], starts[1:]):
        np.cumsum(cumulative[:, first:end], axis=-1, out=cumulative[:, first:end])
    width, widths, pieces = cumulative.shape[1], np.diff(starts), len(table)
    primal, dual = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    masses = cumulative[:, starts[1:] - 1][dual].ravel()
    rows = cdfs.swapaxes(0, 1).reshape(-1, cdfs.shape[-1])
    draws, totals = sim.rng(seed), np.zeros(len(pairs))
    step = max(1, xbm._DRAW_BLOCK // shots)
    if 0 < pieces <= step:
        step -= step % pieces
    for first in range(0, len(masses), step):
        u = draws.random((min(step, len(masses) - first), shots))
        live = np.flatnonzero(u < masses[first:first + len(u), None])
        estimates, piece = np.divmod(first + live // shots, pieces)
        u, v = u.ravel()[live], draws.random(len(live))
        run = dual[estimates] * width + starts[piece]
        at = xbm.live_inverse(cumulative.ravel(), run, run + widths[piece] - 1, u)
        segment = piece * table.count + outcomes[at % width]
        entry_first = table.segment_starts[segment]
        sizes = table.segment_starts[segment + 1] - entry_first
        entry = np.arange(sizes.sum()) + np.repeat(entry_first - np.cumsum(sizes) + sizes, sizes)
        pair = np.repeat(np.arange(len(u)), sizes)
        cols = table.entries.keys[entry] % table.entries.dim
        hit = scored(rows, primal[estimates[pair]] * len(cdfs) + piece[pair], cols, v[pair])
        totals += np.bincount(estimates[pair[hit]], table.entries.values[entry[hit]],
                              minlength=len(pairs))
    return (totals / shots).tolist(), shots * pieces * len(pairs)


def rcm_order(pattern, start):
    """Reverse Cuthill-McKee ordering of a connected adjacency pattern from
    ``start`` (``permute._rcm_visit``), diagonal entries ignored: the
    plain-RCM reference that the ``best_rcm`` tests compare against."""
    if not (0 <= start < pattern.n):
        raise grid.ValidationError(f"start node {start} out of range")
    order = permute._rcm_visit(permute._ranked_adjacency(pattern), start)
    forward = np.empty(pattern.n, dtype=int)
    forward[order] = np.arange(pattern.n)
    return permute.NodePermutation.from_forward(forward)


# The colour descent that the vectorised swap search of ``permute.best_rcm``
# replaced: first-improvement pairwise position swaps that strictly lower
# the colour count.  ``best_rcm`` must end below it on ieee57, and its swap
# change is the oracle for "no single in-band swap lowers C".


def rcm_pick(pattern, runs, seed):
    """(forward map, bandwidth) of the restarted-RCM pick of ``best_rcm``
    before any colour search: least (bandwidth, padded colors), earliest
    run on ties, built from ``rcm_order``."""
    starts = np.random.default_rng(seed).integers(0, pattern.n, size=runs)
    best = None
    for start in starts.tolist():
        perm = rcm_order(pattern, start)
        after = permute.permute_pattern(pattern, perm)
        key = (permute.bandwidth(after), len(permute.color_set(after.padded())))
        if best is None or key < best[0]:
            best = (key, perm.forward)
    return best[1], best[0][0]


def descent_rcm(pattern, runs, seed):
    """The ordering of the first-improvement colour descent from the RCM
    pick, at the pick's bandwidth."""
    forward, band = rcm_pick(pattern, runs, seed)
    return permute.NodePermutation.from_forward(
        color_descent(pattern.adjacency(), pattern.entries, forward, band))


def color_counts(entries, position):
    """Colour multiplicities, one count per unordered entry."""
    counts = {}
    for i, j in entries:
        if i <= j:
            c = position[i] ^ position[j]
            counts[c] = counts.get(c, 0) + 1
    return counts


def color_delta(counts, change):
    """Change of the colour count C when ``change`` adds to ``counts``."""
    delta = 0
    for c, d in change.items():
        before = counts.get(c, 0)
        delta += (before + d > 0) - (before > 0)
    return delta


def color_descent(adjacency, entries, forward, band):
    """First-improvement pairwise position swaps that strictly lower the XOR
    color count while keeping every |i - j| within ``band``.

    Positions p < q are scanned in order and passes repeat until one makes
    no swap.  Every node of a connected pattern has a neighbor within
    ``band``, so positions more than 2 * band apart can never be swapped and
    are skipped.  A swap moves only the entries at the two nodes, so color
    multiplicities (one count per unordered entry) are updated in place.
    """
    position = list(forward)
    n = len(position)
    node_at = [0] * n
    for node, p in enumerate(position):
        node_at[p] = node
    counts = color_counts(entries, position)
    improved = True
    while improved:
        improved = False
        for p in range(n):
            for q in range(p + 1, min(n, p + 2 * band + 1)):
                a, b = node_at[p], node_at[q]
                change = swap_change(adjacency, position, a, b, band)
                if change is None or color_delta(counts, change) >= 0:
                    continue
                for c, d in change.items():
                    counts[c] = counts.get(c, 0) + d
                position[a], position[b] = q, p
                node_at[p], node_at[q] = b, a
                improved = True
    return np.array(position, dtype=int)


def swap_change(adjacency, position, a, b, band):
    """Color multiplicity changes when nodes ``a`` and ``b`` trade positions,
    or None if an entry would leave the band.  The entry (a, b) itself, if
    present, keeps its color and is skipped."""
    change = {}
    for node, old, new, other in ((a, position[a], position[b], b),
                                  (b, position[b], position[a], a)):
        for x in adjacency[node]:
            if x == other:
                continue
            px = position[x]
            if abs(new - px) > band:
                return None
            change[old ^ px] = change.get(old ^ px, 0) - 1
            change[new ^ px] = change.get(new ^ px, 0) + 1
    return change


# Two copies of the bundled ieee57 graph joined by three tie lines, bus
# pairs (10, 78), (30, 98) and (50, 62) numbered from 1: the graph of the
# benchmark's tiled case.
TIE_LINES = ((9, 20), (29, 40), (49, 4))


def tiled_pattern(case, copies):
    """The sparsity pattern of ``tiled_case(case, copies)``."""
    tiled = tiled_case(case, copies)
    return pattern_from_edges(tiled.n, [(br.from_node, br.to_node) for br in tiled.branches],
                              diagonal=True)


@pytest.fixture(scope="session")
def ieee57x2_pattern(ieee57):
    return tiled_pattern(ieee57, 2)


def tiled_case(case, copies):
    """``copies`` copies of ``case`` joined in a chain by TIE_LINES, each tie
    a copy of the case's first branch, the reference bus in copy 0: the
    benchmark's tiled case."""
    n = case.n
    buses, branches, generators = [], [], []
    for k in range(copies):
        buses += [replace(b, index=b.index + k * n) for b in case.buses]
        branches += [replace(br, from_node=br.from_node + k * n, to_node=br.to_node + k * n)
                     for br in case.branches]
        generators += [replace(g, bus=g.bus + k * n) for g in case.generators]
    branches += [replace(case.branches[0], from_node=k * n + a, to_node=(k + 1) * n + b)
                 for k in range(copies - 1) for a, b in TIE_LINES]
    return grid.NetworkCase(tuple(buses), tuple(branches), tuple(generators),
                            case.reference_bus, f"{case.name}x{copies}").validate()


# The penalized grid search that computed desk-case references before
# ``harness.local_reference``, kept as its independent oracle.


def brute_force_reference(case: NetworkCase, resolution: int | None = None,
                          refine: int | None = None,
                          tol: float = 1e-6) -> ReferenceInstance:
    """Grid-search oracle for desk-scale cases.

    Fixes the reference bus at v_ref = 1 (its magnitude is pinned and the
    global phase is free) and sweeps every other node over a polar grid
    inside its voltage box, minimizing cost plus an escalating quadratic
    penalty on constraint violations; the window shrinks around the best
    point each pass, so the search lands on the (measure-zero) power-balance
    manifold.  Feasibility of the final point is verified against ``tol``.
    Multipliers come from a nonnegative least-squares fit of the
    stationarity condition on the active rows.  Practical up to three
    buses; the search space explodes beyond that.
    """
    n = case.n
    if n > 4:
        raise ValidationError("brute-force oracle is desk-scale only (N <= 4)")
    problem = assemble_qcqp(case)
    free = [i for i in range(n) if i != case.reference_bus]
    if resolution is None:
        resolution = {1: 41, 2: 19, 3: 9}[len(free)]
    b = problem.bounds

    def best_on_grid(centers, widths, points, penalty):
        axes = []
        for (r0, phi0), (dr, dphi), bus in zip(centers, widths, free):
            rec = case.buses[bus]
            r = np.linspace(max(rec.v_min, r0 - dr), min(rec.v_max, r0 + dr), points)
            phi = np.linspace(phi0 - dphi, phi0 + dphi, points)
            axes.append((r, phi))
        grids = np.meshgrid(*[axis for pair in axes for axis in pair], indexing="ij")
        total = int(np.prod(grids[0].shape))
        v = np.ones((total, n), dtype=complex)
        for k in range(len(free)):
            r = grids[2 * k].reshape(-1)
            phi = grids[2 * k + 1].reshape(-1)
            v[:, free[k]] = r * np.exp(1j * phi)
        forms = problem.stack.forms(v)
        violation = np.maximum(forms - b[None, :], 0.0)
        cost = np.real(np.sum(v.conj() * (problem.m0 @ v.T).T, axis=1))
        merit = cost + penalty * np.sum(violation**2, axis=1)
        s = int(np.argmin(merit))
        centers = [(float(np.abs(v[s, bus])), float(np.angle(v[s, bus]))) for bus in free]
        return v[s], float(cost[s]), centers, float(np.max(violation[s]))

    centers = [((case.buses[bus].v_min + case.buses[bus].v_max) / 2, 0.0) for bus in free]
    widths = [((case.buses[bus].v_max - case.buses[bus].v_min) / 2, math.pi) for bus in free]
    shrink = max(resolution / 5.0, 1.6)
    if refine is None:
        # enough passes to shrink the search window by ~1e10 overall, so the
        # returned point is feasible well inside the 1e-8 splitting check
        refine = math.ceil(math.log(1e10) / math.log(shrink))
    penalty = 1e4
    v_star, cost, centers, worst = best_on_grid(centers, widths, resolution, penalty)
    for _ in range(refine):
        widths = [(w[0] / shrink, w[1] / shrink) for w in widths]
        penalty = min(penalty * 30.0, 1e16)
        v_star, cost, centers, worst = best_on_grid(centers, widths, resolution, penalty)
    if worst > tol:
        raise ValidationError(
            f"oracle violation {worst:.2e} above tolerance; raise resolution/refine")

    lam = _kkt_multipliers(problem, v_star, tol=1e-4)
    x = extract_setpoints(case, problem, v_star)
    n_gens = len(case.generator_nodes)
    return ReferenceInstance(
        p_g=x[:n_gens], v_g=x[n_gens:], lam=lam[restricted_rows(problem)],
        cost=cost, v=v_star,
    )


def _kkt_multipliers(problem: QcqpProblem, v: np.ndarray, tol: float) -> np.ndarray:
    """Nonnegative multipliers solving the stationarity condition
    2 (M0 + sum_m lambda_m M_m) v = 0 on the active rows, by NNLS."""
    forms = problem.stack.forms(v)
    slack = problem.bounds - forms
    active = [k for k in range(problem.m_stored) if slack[k] <= tol]
    target = -2.0 * (problem.m0 @ v)
    unit = np.eye(problem.m_stored)
    columns = [2.0 * problem.stack.action(unit[k], v) for k in active]
    lam = np.zeros(problem.m_stored)
    if columns:
        a = np.stack(columns, axis=1)
        a_real = np.concatenate([a.real, a.imag], axis=0)
        t_real = np.concatenate([target.real, target.imag])
        coeffs, _ = nnls(a_real, t_real)
        for k, c in zip(active, coeffs):
            lam[k] = c
    return lam
