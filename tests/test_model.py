import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qopf import bounds, harness, model, saddle, sim, xbm
from qopf.grid import Constraint, ValidationError
from qopf.model import DualPoint, PrimalPoint, sampled_mode
from qopf.saddle import classical_lagrangian

from conftest import (at_cells, dense_pieces, entry_estimates, estimate, estimator_variance,
                      exact_expectation, field_run, g_operator, live_first_sample_f,
                      multinomial_sample_g, per_row_pieces, piecewise_rotation, primal_cdfs,
                      problem_from_rows, random_hermitian, random_problem, rotate_piece,
                      rotated_probabilities, same_moments, scored, shift_points,
                      sorted_search_sample_f, stack_problems)


@pytest.fixture(scope="module")
def ctx44():
    problem = random_problem(4, 4, seed=1)
    return model.LagrangianContext(
        problem,
        sim.AnsatzSpec.from_row(6, 2, 1),   # P = 4
        sim.AnsatzSpec.from_row(2, 2, 2),   # Q = 4
    )


def random_points(ctx, seed, alpha=None, beta=None):
    rng = np.random.default_rng(seed)
    p = PrimalPoint(rng.uniform(0, 2 * math.pi, ctx.p_count),
                    float(rng.uniform(0.2, 2)) if alpha is None else alpha)
    d = DualPoint(rng.uniform(0, 2 * math.pi, ctx.q_count),
                  float(rng.uniform(0.2, 2)) if beta is None else beta)
    return p, d


def test_context_rejects_mismatched_specs():
    problem = random_problem(4, 4, seed=2)
    with pytest.raises(ValidationError, match="primal ansatz"):
        model.LagrangianContext(problem, sim.AnsatzSpec.from_row(2, 3, 1),
                                sim.AnsatzSpec.from_row(2, 2, 1))
    with pytest.raises(ValidationError, match="dual ansatz"):
        model.LagrangianContext(problem, sim.AnsatzSpec.from_row(2, 2, 1),
                                sim.AnsatzSpec.from_row(2, 3, 1))


def test_primal_vector_norm_is_alpha(ctx44):
    p, _ = random_points(ctx44, 3)
    v = model.primal_vector(ctx44, p)
    assert np.linalg.norm(v) == pytest.approx(p.alpha, abs=1e-12)
    zero = model.primal_vector(
        ctx44, PrimalPoint(np.zeros(ctx44.p_count), 1.0))
    assert np.allclose(zero, [1, 0, 0, 0])
    big = model.primal_vector(
        ctx44, PrimalPoint(np.zeros(ctx44.p_count), math.sqrt(57)))
    assert np.linalg.norm(big) == pytest.approx(math.sqrt(57))


def test_dual_vector_sums_to_beta_squared(ctx44):
    _, d = random_points(ctx44, 4)
    lam = model.dual_vector(ctx44, d)
    assert np.all(lam >= 0)
    assert float(np.sum(lam)) == pytest.approx(d.beta**2, abs=1e-10)
    zero = model.dual_vector(ctx44, DualPoint(d.phi, 0.0))
    assert np.allclose(zero, 0.0)


def test_dual_vector_matches_amplitudes(ctx44):
    _, d = random_points(ctx44, 5)
    xi = sim.prepare(ctx44.dual_spec, d.phi)
    lam = model.dual_vector(ctx44, d)
    assert np.allclose(lam, d.beta**2 * np.abs(xi) ** 2, atol=1e-14)


def test_terms_identity_constant_observables():
    # all constraint matrices = identity -> F = 1; all bounds 1 -> G = 1
    cons = tuple(Constraint(np.eye(4, dtype=complex), 1.0, "gen-limit", k)
                 for k in range(4))
    problem = problem_from_rows(4, 4, np.eye(4, dtype=complex), cons)
    ctx = model.LagrangianContext(problem, sim.AnsatzSpec.from_row(6, 2, 1),
                                  sim.AnsatzSpec.from_row(2, 2, 2))
    p, d = random_points(ctx, 6)
    terms = model.eval_terms(ctx, p, d, model.exact_mode())
    assert terms.f == pytest.approx(1.0, abs=1e-12)
    assert terms.g == pytest.approx(1.0, abs=1e-12)


def joint_observable(ctx):
    """The MN x MN block-diagonal matrix sum_m e_m e_m^T (x) M_m,
    materialized for identity checks on tiny problems."""
    tensor = ctx.problem.dense_constraints()
    m_stored, dim = tensor.shape[0], tensor.shape[1]
    out = np.zeros((m_stored * dim, m_stored * dim), dtype=complex)
    for m in range(m_stored):
        out[m * dim:(m + 1) * dim, m * dim:(m + 1) * dim] = tensor[m]
    return out


def test_kronecker_joint_observable_identity(ctx44):
    p, d = random_points(ctx44, 7)
    psi = sim.prepare(ctx44.primal_spec, p.theta)
    xi = sim.prepare(ctx44.dual_spec, d.phi)
    composite = np.kron(xi, psi)
    big = joint_observable(ctx44)
    f_kron = float(np.real(np.vdot(composite, big @ composite)))
    terms = model.eval_terms(ctx44, p, d, model.exact_mode())
    assert f_kron == pytest.approx(terms.f, abs=1e-12)


def test_master_identity_against_classical_lagrangian():
    for seed in range(5):
        problem = random_problem(4, 8, seed=seed)
        ctx = model.LagrangianContext(problem, sim.AnsatzSpec.from_row(6, 2, 1),
                                      sim.AnsatzSpec.from_row(2, 3, 1))
        for trial in range(4):
            p, d = random_points(ctx, 100 * seed + trial)
            v = model.primal_vector(ctx, p)
            lam = model.dual_vector(ctx, d)
            variational = model.lagrangian(ctx, p, d)
            classical = classical_lagrangian(problem, v, lam)
            assert variational == pytest.approx(classical, abs=1e-10)


def test_lagrangian_degenerate_scales(ctx44):
    p, d = random_points(ctx44, 8)
    terms = model.eval_terms(ctx44, p, d, model.exact_mode())
    no_dual = model.lagrangian(ctx44, p, DualPoint(d.phi, 0.0))
    assert no_dual == pytest.approx(p.alpha**2 * terms.f0, abs=1e-12)
    no_primal = model.lagrangian(ctx44, PrimalPoint(p.theta, 0.0), d)
    assert no_primal == pytest.approx(-d.beta**2 * terms.g, abs=1e-12)


def test_eval_f_sampled_unbiased(ctx44):
    p, d = random_points(ctx44, 9)
    exact = model.eval_terms(ctx44, p, d, model.exact_mode()).f
    n = 400
    values = [model.eval_F_sampled(ctx44, p, d, shots=32, seed=[20, k])
              for k in range(n)]
    se = np.std(values) / math.sqrt(n)
    assert abs(np.mean(values) - exact) < 5 * se + 1e-9


def test_eval_f_sampled_degenerate_dual(ctx44):
    # dual state concentrated on one outcome -> estimates F_{m*} alone
    p, _ = random_points(ctx44, 10)
    d = DualPoint(np.zeros(ctx44.q_count), 1.0)   # |0000> -> m* = 0
    psi = sim.prepare(ctx44.primal_spec, p.theta)
    exact_fm = exact_expectation(psi, ctx44.problem.dense_constraints()[0])
    values = [model.eval_F_sampled(ctx44, p, d, shots=64, seed=[21, k])
              for k in range(200)]
    assert abs(np.mean(values) - exact_fm) < 0.05 * max(1.0, abs(exact_fm))


def test_eval_f_sampled_zero_observables():
    cons = tuple(Constraint(np.zeros((4, 4), dtype=complex), 0.0, "padding", None)
                 for _ in range(4))
    problem = problem_from_rows(4, 4, np.eye(4, dtype=complex), cons)
    ctx = model.LagrangianContext(problem, sim.AnsatzSpec.from_row(6, 2, 1),
                                  sim.AnsatzSpec.from_row(2, 2, 1))
    p, d = random_points(ctx, 11)
    assert model.eval_F_sampled(ctx, p, d, shots=16, seed=0) == 0.0
    # no joint piece at all: the primal probabilities hold no cell, the
    # cost's one piece has its 4, and the batched estimator draws nothing
    assert len(ctx.joint_diagonals) == 0
    psi = sim.prepare(ctx.primal_spec, p.theta)[None]
    probs = xbm.cell_probabilities(ctx.joint_diagonals, psi)
    assert probs.shape == (1, 0)
    assert xbm.cell_probabilities(ctx.m0_decomposition, psi).shape == (1, 4)
    w = model.dual_pmf(ctx, d)[None]
    assert xbm.estimate_expectation(ctx.joint_diagonals, probs,
                                    w / w.sum(axis=-1, keepdims=True), [(0, 0)], 16,
                                    0) == ([0.0], 0)


@pytest.mark.parametrize("problem", stack_problems())
def test_joint_entries_densify_to_piece_diagonals(problem):
    ctx = model.LagrangianContext(
        problem, sim.AnsatzSpec.from_row(2, int(math.log2(problem.dim)), 1),
        sim.AnsatzSpec.from_row(2, int(math.log2(problem.m_stored)), 1))
    keys, dense, _ = per_row_pieces(problem)
    table = ctx.joint_diagonals
    assert list(table.pieces) == keys
    assert np.array_equal(dense_pieces(table), dense)
    assert ctx.colors == ctx.m0_decomposition.colors | {color for color, _ in keys}
    entries = table.entries
    assert np.all(np.diff(entries.keys) > 0) and np.all(entries.values != 0)
    densified = np.zeros(dense.size)
    densified[entries.keys] = entries.values
    assert np.array_equal(densified.reshape(dense.shape), dense)
    # segment s = piece * M + m holds exactly the nonzero columns of
    # dense[piece, m], in increasing order
    starts = table.segment_starts
    assert len(starts) == len(table) * problem.m_stored + 1
    assert starts[0] == 0 and starts[-1] == len(entries.keys)
    for segment, row in enumerate(dense.reshape(-1, problem.dim)):
        run = slice(starts[segment], starts[segment + 1])
        assert np.array_equal(entries.keys[run] - segment * problem.dim, np.flatnonzero(row))
        assert np.array_equal(entries.values[run], row[row != 0])


@pytest.mark.parametrize("problem", stack_problems())
def test_cell_layouts_hold_every_entry_once(problem):
    """Both cell layouts of a joint table hold every table entry once, with
    its value.  The column cells group the entries of one (piece k,
    column i), in order of piece, column and matrix, each at k * dim + i
    of the pieces' rotated outcomes; the segment cells are the
    nonempty segments (piece k, matrix m), in table order, and are read at
    m of a PMF, their entries each at its column cell.  Piece k owns a
    contiguous run of cells."""
    table = xbm.piece_table(problem.stack)
    dim, count = table.entries.dim, table.count
    for layout, by_column in ((table.column_cells, True), (table.segment_cells, False)):
        pieces, outcomes = np.divmod(layout.outcomes, dim)
        keys = (pieces * count + layout.matrices) * dim + outcomes
        order = np.argsort(keys)
        assert np.array_equal(keys[order], table.entries.keys)
        assert np.array_equal(layout.values[order], table.entries.values)
        assert np.all(np.diff(keys if not by_column else
                              layout.outcomes * count + layout.matrices) > 0)
        # a cell's entries share its group, and the groups of cells increase
        sizes, firsts = np.diff(layout.starts), layout.starts[:-1]
        group = layout.outcomes if by_column else pieces * count + layout.matrices
        assert layout.starts[0] == 0 and np.all(sizes > 0)
        assert np.array_equal(group, np.repeat(group[firsts], sizes))
        assert np.all(np.diff(group[firsts]) > 0)
        side = layout.outcomes if by_column else layout.matrices
        assert np.array_equal(layout.cells, side[firsts])
        assert np.array_equal(layout.pieces,
                              np.searchsorted(pieces[firsts], np.arange(len(table) + 1)))
    # each segment-cell entry is read at its own column cell
    assert np.array_equal(table.column_cells.cells[table.segment_columns],
                          table.segment_cells.outcomes)


PAIR_PATTERNS = {
    "shared dual row": [(r, 0) for r in range(9)],
    "shared primal row": [(0, q) for q in range(9)],
    "distinct": [(r, r + 2) for r in range(7)],
    "repeated": [(2, 3)] * 4 + [(5, 5)] * 3,
    "mixed": [(r, 0) for r in range(4)] + [(0, q) for q in range(1, 5)] + [(6, 7), (6, 7), (3, 9)],
}


@pytest.mark.parametrize("pattern", sorted(PAIR_PATTERNS))
def test_estimates_follow_the_entry_oracle_for_any_pairs(pattern, padded_complex_problem):
    """Whatever side its pairs share, all of them the dual row or all the
    primal row, none (groups of one), repeated pairs or both kinds mixed,
    one ``xbm.estimate_expectation`` call on the padded complex problem
    follows the law of the retired entry-by-entry estimator
    (``entry_estimates``): over 300 seeds every estimate agrees with the
    oracle's in mean and variance, and both charge the same shots."""
    ctx = model.LagrangianContext(padded_complex_problem, sim.AnsatzSpec.from_row(7, 2, 1),
                                  sim.AnsatzSpec.from_row(4, 3, 1))
    p, d = random_points(ctx, 150)
    psis = sim.shift_states(ctx.primal_spec, sim.rotation_factors(ctx.primal_spec, p.theta))
    ws = np.abs(sim.shift_states(ctx.dual_spec, sim.rotation_factors(ctx.dual_spec, d.phi)))**2
    pmfs = ws / ws.sum(axis=-1, keepdims=True)
    pairs, table, n = PAIR_PATTERNS[pattern], ctx.joint_diagonals, 300
    probs = rotated_probabilities(table, psis)
    draws = [xbm.estimate_expectation(table, at_cells(table, probs), pmfs, pairs, 20, [27, k])
             for k in range(n)]
    oracle = [entry_estimates(table, probs, pmfs, pairs, 20, [28, k]) for k in range(n)]
    assert {shots for _, shots in draws} == {shots for _, shots in oracle} == {
        20 * len(table) * len(pairs)}
    values, oracle = np.array([v for v, _ in draws]), np.array([v for v, _ in oracle])
    for e in range(len(pairs)):
        assert same_moments(values[:, e], oracle[:, e])


def test_no_pairs_draw_nothing(batch_ctx):
    ctx = batch_ctx
    probs = xbm.cell_probabilities(
        ctx.joint_diagonals, sim.prepare(ctx.primal_spec, random_points(ctx, 151)[0].theta)[None])
    assert xbm.estimate_expectation(ctx.joint_diagonals, probs, np.full((1, ctx.problem.m_stored),
                                    1 / ctx.problem.m_stored), [], 20, 0) == ([], 0)


def test_eval_f_sampled_variance_matches_closed_form(ctx44):
    """Var of the sampled F is (1/S) sum_c Var_{w x p_c}[D_c]: per piece c,
    S independent pairs of a dual outcome m ~ w and a rotated primal outcome
    i ~ p_c, scored by the piece diagonal D_c[m, i]."""
    p, d = random_points(ctx44, 92)
    psi = sim.prepare(ctx44.primal_spec, p.theta)
    w = model.dual_pmf(ctx44, d)
    shots = 8
    variance = 0.0
    table = ctx44.joint_diagonals
    for (color, part), diagonals in zip(table.pieces, dense_pieces(table)):
        rotated = rotate_piece(color, part, psi)
        joint = np.outer(w, np.abs(rotated) ** 2)
        mean = float(np.sum(joint * diagonals))
        variance += (float(np.sum(joint * diagonals**2)) - mean**2) / shots
    n = 600
    values = np.array([model.eval_F_sampled(ctx44, p, d, shots=shots, seed=[23, k])
                       for k in range(n)])
    assert abs(float(np.var(values)) - variance) < 0.2 * variance


# ---------------------------------------------------------------------------
# Batched sampled estimators against the piece-by-piece loops they replaced


def piecewise_primal_probabilities(ctx, psi):
    """The per-piece loop of the replaced primal CDFs, normalised instead
    of accumulated."""
    probs = np.empty((len(ctx.joint_diagonals), len(psi)))
    for row, (color, part) in zip(probs, ctx.joint_diagonals.pieces):
        row[:] = np.abs(piecewise_rotation(psi, color, ctx.primal_spec.n_qubits, part)) ** 2
    return probs / probs.sum(axis=1, keepdims=True)


@pytest.fixture(scope="module", params=["padded_complex", "ieee57"])
def batch_ctx(request, padded_complex_problem):
    if request.param == "ieee57":
        return request.getfixturevalue("ieee57_context")
    return model.LagrangianContext(padded_complex_problem,
                                   sim.AnsatzSpec.from_row(7, 2, 1),
                                   sim.AnsatzSpec.from_row(4, 3, 1))


def test_primal_probabilities_match_piecewise_loop(batch_ctx):
    """The normalised outcome probabilities of the full rotation, one row
    per joint piece in table order, are the piece-by-piece loop's bit for
    bit, and the cell probabilities of the joint table are the loop's at
    every column cell, to 1e-14 of a piece's total."""
    table = batch_ctx.joint_diagonals
    assert len(table) > 1
    for trial in range(3):
        p, _ = random_points(batch_ctx, 70 + trial)
        psi = sim.prepare(batch_ctx.primal_spec, p.theta)
        piecewise = piecewise_primal_probabilities(batch_ctx, psi)
        assert np.array_equal(rotated_probabilities(table, psi), piecewise)
        assert np.max(np.abs(xbm.cell_probabilities(table, psi[None])
                             - at_cells(table, piecewise[:, None]))) <= 1e-14


def test_cell_probabilities_equal_the_full_rotation(padded_complex_problem, ieee57_context):
    """``xbm.cell_probabilities`` is the full rotation of every piece,
    normalised over all its outcomes (``rotated_probabilities``), read at
    every column cell, to 1e-14 of a piece's total: for shift stacks of
    all 8 architecture rows, the real states of row 2 among them, on the
    joint and cost tables of the padded complex problem and of the shallow
    ieee57 context, on a dense complex table whose imaginary pieces turn
    every qubit, and on a table with no piece."""
    rng = np.random.default_rng(78)
    dense = xbm.decompose(random_hermitian(rng, 16))
    assert xbm.piece_rotations(dense.pieces, 4).turns == (0, 1, 2, 3)
    empty = xbm.decompose(np.zeros((8, 8)))
    assert len(empty) == 0
    tables = (xbm.piece_table(padded_complex_problem.stack),
              xbm.piece_table(padded_complex_problem.cost), ieee57_context.joint_diagonals,
              ieee57_context.m0_decomposition, dense, empty)
    for t, table in enumerate(tables):
        n = int(math.log2(table.entries.dim))
        for row in range(1, 9):
            spec = sim.AnsatzSpec.from_row(row, n, 2)
            psis = sim.shift_states(spec, sim.rotation_factors(
                spec, rng.uniform(-2 * math.pi, 2 * math.pi, spec.param_count)))
            got = xbm.cell_probabilities(table, psis)
            assert got.shape == (len(psis), len(table.column_cells.cells))
            want = at_cells(table, rotated_probabilities(table, psis))
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-14, (t, row)


def test_f0_reads_the_shared_rotation_bit_for_bit(batch_ctx):
    """F0 and F rotate the one primal shift stack at their tables' cells,
    and a piece's cell probability is the same bit for bit in whichever
    table it sits: at every (piece, column) cell of the cost table whose
    piece is a joint piece, the cost table's cell probability is ``==`` to
    the joint table's.  On ieee57 every cost piece is a joint piece.  F0
    is ``==`` to one ``xbm.estimate_expectation`` call on the cost table
    alone at the same seed, and G to one on ``bounds_table`` with the
    normalised dual PMFs at its column cells as its one piece's outcome
    probabilities."""
    ctx, cost, joint = batch_ctx, batch_ctx.m0_decomposition, batch_ctx.joint_diagonals
    dim = cost.entries.dim
    if ctx.problem.m_stored > ctx.problem.m:  # ieee57
        assert set(cost.pieces) <= set(joint.pieces)
    piece, column = np.divmod(cost.column_cells.cells, dim)
    shared = np.flatnonzero([cost.pieces[k] in joint.pieces for k in piece])
    joint_cells = np.array([joint.pieces.index(cost.pieces[k]) * dim + i
                            for k, i in zip(piece[shared], column[shared])], dtype=np.intp)
    at_joint = np.searchsorted(joint.column_cells.cells, joint_cells)
    assert len(shared) and np.array_equal(joint.column_cells.cells[at_joint], joint_cells)
    for trial in range(2):
        p, d = random_points(ctx, 76 + trial)
        psis = sim.shift_states(ctx.primal_spec, sim.rotation_factors(ctx.primal_spec, p.theta))
        own = xbm.cell_probabilities(cost, psis)
        assert np.array_equal(own[:, shared], xbm.cell_probabilities(joint, psis)[:, at_joint])
        ws = np.abs(sim.shift_states(ctx.dual_spec, sim.rotation_factors(ctx.dual_spec, d.phi)))**2
        pmfs = ws / ws.sum(axis=-1, keepdims=True)
        mode = sampled_mode(50, [77, trial])
        f0, _, g, _ = model._sample_terms(ctx, psis, ws, [(0, 0)], mode)
        one = np.ones((1, 1))
        assert f0.tolist() == xbm.estimate_expectation(
            cost, own, one, [(r, 0) for r in range(len(psis))], 50, mode.reseeded(0).seed)[0]
        assert g.tolist() == xbm.estimate_expectation(
            ctx.bounds_table, pmfs[:, ctx.bounds_table.column_cells.cells], one,
            [(q, 0) for q in range(len(ws))], 50, mode.reseeded(2).seed)[0]


def test_eval_f_sampled_matches_piecewise_loop(batch_ctx):
    """``eval_F_sampled`` follows the law of the retired estimator, which
    inverts every dual draw (``sorted_search_sample_f``): over 500 seeds
    at each of 2 points the two agree in mean and variance."""
    n = 500
    for trial in range(2):
        p, d = random_points(batch_ctx, 80 + trial)
        cdfs = primal_cdfs(batch_ctx, sim.prepare(batch_ctx.primal_spec, p.theta))
        w_cdf = np.cumsum(model.dual_pmf(batch_ctx, d))
        values = [model.eval_F_sampled(batch_ctx, p, d, 50, [31, trial, k]) for k in range(n)]
        oracle = [sorted_search_sample_f(batch_ctx, cdfs, w_cdf / w_cdf[-1],
                                         sampled_mode(50, [32, trial, k]))[0] for k in range(n)]
        assert same_moments(values, oracle)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.integers(1, 9), st.integers(1, 70), st.integers(0, 2**32 - 1))
def test_scored_interval_is_exact(rows, dim, seed):
    """The interval test of the retired sampled F oracles (``scored``)
    scores column c of row k for a draw exactly when the per-row
    ``np.searchsorted(..., side="right")`` returns c, on CDF rows with
    zero-probability and tiny outcomes, for uniforms drawn by
    ``Generator.random``, draws on the CDF entries rounded down and up to
    the 2^-53 grid of the draws, and the extreme draws 0 and 1 - 2^-53."""
    rng = np.random.default_rng(seed)
    probs = rng.random((rows, dim)) * (rng.random((rows, dim)) < 0.6)
    probs *= np.where(rng.random((rows, dim)) < 0.2, 1e-18, 1.0)
    probs[np.arange(rows), rng.integers(0, dim, rows)] += 0.5
    cdfs = np.cumsum(probs, axis=1)
    cdfs /= cdfs[:, -1:]
    grid = 2.0**53
    u = np.concatenate([
        rng.random((rows, 25)),
        np.floor(cdfs * grid) / grid,
        np.minimum(np.ceil(cdfs * grid), grid - 1) / grid,
        np.zeros((rows, 1)),
        np.full((rows, 1), 1 - 2.0**-53),
    ], axis=1)
    found = np.stack([np.searchsorted(cdf, row, side="right") for cdf, row in zip(cdfs, u)])
    # every (row, draw, column) triple at once
    k, draw, c = np.indices((*u.shape, dim))
    hits = scored(cdfs, k.ravel(), c.ravel(), u[k, draw].ravel())
    assert np.array_equal(hits.reshape(k.shape), found[..., None] == c)


def pool_words(seed):
    """An entropy list as ``SeedSequence`` mixes it: padded with zeros to
    its pool of four words, so ``[5, 0]`` and ``[5]`` seed the same stream."""
    return tuple(seed) + (0,) * (4 - len(seed))


def test_sampled_gradient_seeds_one_generator_per_call(ieee57_context, monkeypatch):
    """Each sampled estimator call seeds exactly one generator, whatever
    its estimate and piece counts: one sampled gradient seeds 3, for its
    1 + 2P F0, 1 + 2P + 2Q F and 1 + 2Q G estimates, and one sampled L
    seeds 3, for F0, F and G.  The seeds stay distinct once zero-padded to
    four words, across a 3-iteration sampled PD run, its recorded L
    included."""
    seeds = []

    def counting_rng(seed):
        seeds.append(tuple(seed))
        return sim.rng(seed)

    monkeypatch.setattr(xbm, "rng", counting_rng)
    ctx = ieee57_context
    assert (ctx.p_count, ctx.q_count) == (12, 18)
    p, d = random_points(ctx, 47)
    model.grad(ctx, p, d, sampled_mode(100, [4, 3]))
    assert len(seeds) == 3
    assert len(set(seeds)) == len({pool_words(seed) for seed in seeds}) == len(seeds)
    seeds.clear()
    model.lagrangian(ctx, p, d, sampled_mode(100, [4, 3]))
    assert len(seeds) == 3

    seeds.clear()
    init = saddle.SaddlePointState(p.theta, p.alpha, d.phi, d.beta)
    traj = saddle.run(ctx, init, saddle.PD, saddle.StepSchedule.exponential(),
                      saddle.StopRule(max_iters=3), sampled_mode(20, 4))
    assert len(traj.states) == 4
    assert len(seeds) == 3 * 3 + 3 * len(traj.lagrangians) == 18
    assert len({pool_words(seed) for seed in seeds}) == len(seeds)


def test_sampled_gradient_searches_and_rotations_do_not_grow(ieee57_context, monkeypatch):
    """A sampled gradient draws its F0, F and G estimates in one
    ``xbm.estimate_expectation`` call each, searches its scoring draws a
    fixed number of times whatever P and Q, rotates its primal states
    twice whatever P and Q, as one stack of the base state and all 2P
    shift states at the cost table's cells and then at the joint table's,
    and prepares no state apart from the two shift stacks.  F0's
    estimates share the one-point PMF, G's too, and F's theta shifts share
    the base dual row: each of these groups searches its cells once, and
    F's also the entries inside them.  F's phi shifts share the base
    primal row and search their segments and the entries inside them.  So
    a gradient makes 6 searches and 2 rotations, at P = 12, Q = 18 and at
    twice the layers."""
    calls = {"estimate_expectation": 0, "live_inverse": 0, "cell_probabilities": 0, "prepare": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("estimate_expectation", "live_inverse", "cell_probabilities"):
        monkeypatch.setattr(xbm, name, counted(xbm, name))
    monkeypatch.setattr(model, "prepare", counted(model, "prepare"))
    deeper = model.LagrangianContext(ieee57_context.problem, sim.AnsatzSpec.from_row(6, 6, 2),
                                     sim.AnsatzSpec.from_row(2, 9, 4))
    assert (deeper.p_count, deeper.q_count) == (24, 36)
    for ctx in (ieee57_context, deeper):
        for name in calls:
            calls[name] = 0
        p, d = random_points(ctx, 48)
        model.grad(ctx, p, d, sampled_mode(100, [4, 4]))
        assert calls == {"estimate_expectation": 3, "live_inverse": 6, "cell_probabilities": 2,
                         "prepare": 0}


def test_sampled_f_matches_sorted_search_oracle(ieee57_context):
    """The F estimates of a gradient, drawn together in one
    ``xbm.estimate_expectation`` call, follow the law of the retired
    estimator: at 3 seeded points, 400 estimates of a theta-shift row with
    the base dual PMF and 400 of the base primal row with a phi-shift PMF
    agree in mean and variance with as many ``sorted_search_sample_f``
    estimates at the same shots."""
    ctx = ieee57_context
    n = 400
    for k in range(3):
        p, d = random_points(ctx, 130 + k)
        psis = sim.shift_states(ctx.primal_spec, sim.rotation_factors(ctx.primal_spec, p.theta))
        ws = np.abs(sim.shift_states(ctx.dual_spec, sim.rotation_factors(ctx.dual_spec, d.phi)))**2
        probs = at_cells(ctx.joint_diagonals, rotated_probabilities(ctx.joint_diagonals, psis))
        cdfs = primal_cdfs(ctx, psis)
        pairs = [(1, 0)] * n + [(0, 2)] * n
        values, shots = xbm.estimate_expectation(ctx.joint_diagonals, probs,
                                                 ws / ws.sum(axis=-1, keepdims=True), pairs,
                                                 100, [13, k])
        assert shots == 2 * n * 100 * len(ctx.joint_diagonals)
        for e, (r, q) in enumerate(pairs[::n]):
            w_cdf = np.cumsum(ws[q])
            oracle = [sorted_search_sample_f(ctx, cdfs[:, r], w_cdf / w_cdf[-1],
                                             sampled_mode(100, [14, k, e, s]))
                      for s in range(n)]
            assert {shots for _, shots in oracle} == {100 * len(ctx.joint_diagonals)}
            assert same_moments(values[e * n:(e + 1) * n], [value for value, _ in oracle])


def test_sampled_f_matches_the_retired_live_first_estimator(ieee57_context):
    """The F estimates of one ``xbm.estimate_expectation`` call follow the
    law of the live-first estimator that they replaced
    (``live_first_sample_f``): at 2 seeded points, 500 estimates of a
    theta-shift row with the base dual PMF and 500 of the base primal row
    with a phi-shift PMF agree in mean and variance with as many of the
    retired estimator's, each drawn in one call, and both spend the same
    shots."""
    ctx = ieee57_context
    n = 500
    for k in range(2):
        p, d = random_points(ctx, 134 + k)
        psis = sim.shift_states(ctx.primal_spec, sim.rotation_factors(ctx.primal_spec, p.theta))
        ws = np.abs(sim.shift_states(ctx.dual_spec, sim.rotation_factors(ctx.dual_spec, d.phi)))**2
        probs = at_cells(ctx.joint_diagonals, rotated_probabilities(ctx.joint_diagonals, psis))
        pairs = [(3, 0)] * n + [(0, 5)] * n
        values, shots = xbm.estimate_expectation(ctx.joint_diagonals, probs,
                                                 ws / ws.sum(axis=-1, keepdims=True), pairs,
                                                 100, [16, k])
        oracle, oracle_shots = live_first_sample_f(ctx, primal_cdfs(ctx, psis), ws, pairs, 100,
                                                   [17, k])
        assert shots == oracle_shots == 2 * n * 100 * len(ctx.joint_diagonals)
        for part in (slice(0, n), slice(n, 2 * n)):
            assert same_moments(values[part], oracle[part])


def test_sample_f_unbiased_with_closed_form_variance(ieee57_context):
    """Each sampled F estimate has its closed-form law: per piece k, S
    shots pair a dual outcome m ~ w with a rotated primal outcome i ~ p_k
    and score the piece diagonal D_k[m, i], so the mean is F = sum_m w_m
    psi^dag M_m psi and the variance sum_k (E_k[D^2] - E_k[D]^2) / S.
    Over 2,000 seeds at S = 100, each call drawing 8 estimates each of the
    base pair, a theta-shift pair and a phi-shift pair of a gradient, the
    16,000 estimates of each pair have a mean within 5 standard errors of
    F and a variance within 10 % of the closed form.  A single estimate
    scores about 13 of its 3,900 shots, so its law is heavy-tailed: 2,000
    estimates alone would leave the sample variance a 5-9 % standard
    error."""
    ctx, table = ieee57_context, ieee57_context.joint_diagonals
    p, d = random_points(ctx, 96)
    psis = sim.shift_states(ctx.primal_spec, sim.rotation_factors(ctx.primal_spec, p.theta))
    ws = np.abs(sim.shift_states(ctx.dual_spec, sim.rotation_factors(ctx.dual_spec, d.phi)))**2
    rotated = rotated_probabilities(table, psis)
    probs = at_cells(table, rotated)
    pairs, copies, shots, seeds = [(0, 0), (1, 0), (0, 2)], 8, 100, 2000
    diagonals = dense_pieces(table)  # (pieces, M, dim)
    pmfs = ws / ws.sum(axis=-1, keepdims=True)
    values = np.array([xbm.estimate_expectation(table, probs, pmfs, pairs * copies, shots,
                                                [18, s])[0]
                       for s in range(seeds)]).reshape(-1, len(pairs))
    for e, (r, q) in enumerate(pairs):
        w = ws[q] / ws[q].sum()
        joint = w[None, :, None] * rotated[:, r, None, :]  # (pieces, M, dim)
        means = (joint * diagonals).sum(axis=(1, 2))
        variance = float(((joint * diagonals**2).sum(axis=(1, 2)) - means**2).sum()) / shots
        exact = float(w @ ctx.problem.stack.forms(psis[r]))
        assert abs(means.sum() - exact) <= 1e-12 * max(1.0, abs(exact))
        assert abs(values[:, e].mean() - exact) < 5 * math.sqrt(variance / len(values))
        assert abs(values[:, e].var() - variance) < 0.1 * variance


def test_sampled_f_estimates_drawn_in_one_call_are_uncorrelated(ieee57_context):
    """The F estimates of one ``xbm.estimate_expectation`` call draw
    disjoint blocks of one stream: over 2,000 seeds, the first estimate and
    another of the same pair drawn with it, adjacent in its block, first in
    the next block or last of the call, have a sample correlation within
    4 / sqrt(n) of 0.
    A block holds the estimates whose entry probabilities and shots both
    fit in ``xbm._DRAW_BLOCK``."""
    ctx, table = ieee57_context, ieee57_context.joint_diagonals
    p, d = random_points(ctx, 133)
    probs = at_cells(table, rotated_probabilities(table,
                                                  sim.prepare(ctx.primal_spec, p.theta)[None]))
    w = model.dual_pmf(ctx, d)[None]
    per_block = xbm._DRAW_BLOCK // max(len(table.entries.keys), 100 * len(table))
    count, n = 2 * per_block + 1, 2000
    w /= w.sum(axis=-1, keepdims=True)
    draws = np.array([xbm.estimate_expectation(table, probs, w, [(0, 0)] * count, 100,
                                               [15, k])[0]
                      for k in range(n)])
    for other in (1, per_block, count - 1):
        assert abs(np.corrcoef(draws[:, 0], draws[:, other])[0, 1]) < 4 / math.sqrt(n)


def test_sampled_gradient_memory_peak(ieee57_context):
    """The traced allocation peak of one sampled gradient on the shallow
    ieee57 context (P = 12, Q = 18, S = 100) stays at most 1.3 MB: the
    estimates draw one after another, not all at once, and the primal
    stack is rotated only at the tables' cells."""
    ctx = ieee57_context
    assert (ctx.p_count, ctx.q_count) == (12, 18)
    p, d = random_points(ctx, 51)
    model.grad(ctx, p, d, sampled_mode(100, [16, 0]))  # builds the cached indexes
    tracemalloc.start()
    try:
        model.grad(ctx, p, d, sampled_mode(100, [16, 1]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.3e6


def test_exact_mode_never_builds_segment_index(padded_complex_problem):
    """Exact runs never build the sampled indexes: the segment index, the
    cell layouts and cell rotations of the joint and cost tables, the
    joint table's column cell of each segment-cell entry and the bounds
    table with its cell layout.  A sampled gradient builds them all,
    except the cost table's segment layouts, which no estimate of F0
    reads: its estimates all share the one-point PMF."""
    ctx = model.LagrangianContext(padded_complex_problem,
                                  sim.AnsatzSpec.from_row(7, 2, 1),
                                  sim.AnsatzSpec.from_row(4, 3, 1))
    p, d = random_points(ctx, 49)
    model.grad(ctx, p, d)
    model.lagrangian(ctx, p, d)
    indexes = ((ctx.joint_diagonals, "segment_starts"), (ctx.joint_diagonals, "column_cells"),
               (ctx.joint_diagonals, "segment_cells"), (ctx.joint_diagonals, "cell_rotation"),
               (ctx.joint_diagonals, "segment_columns"), (ctx.m0_decomposition, "column_cells"),
               (ctx.m0_decomposition, "cell_rotation"), (ctx, "bounds_table"))
    unread = ((ctx.m0_decomposition, "segment_starts"), (ctx.m0_decomposition, "segment_cells"),
              (ctx.m0_decomposition, "segment_columns"))
    assert not any(name in vars(table) for table, name in indexes + unread)
    model.grad(ctx, p, d, sampled_mode(4, 0))
    assert all(name in vars(table) for table, name in indexes)
    assert "column_cells" in vars(ctx.bounds_table)
    assert not any(name in vars(table) for table, name in unread)


def grad_by_finite_differences(ctx, p, d, h=1e-5):
    def lag(theta, alpha, phi, beta):
        return model.lagrangian(ctx, PrimalPoint(theta, alpha), DualPoint(phi, beta))

    g_theta = np.zeros(ctx.p_count)
    for j in range(ctx.p_count):
        up, down = p.theta.copy(), p.theta.copy()
        up[j] += h
        down[j] -= h
        g_theta[j] = (lag(up, p.alpha, d.phi, d.beta)
                      - lag(down, p.alpha, d.phi, d.beta)) / (2 * h)
    g_alpha = (lag(p.theta, p.alpha + h, d.phi, d.beta)
               - lag(p.theta, p.alpha - h, d.phi, d.beta)) / (2 * h)
    g_phi = np.zeros(ctx.q_count)
    for j in range(ctx.q_count):
        up, down = d.phi.copy(), d.phi.copy()
        up[j] += h
        down[j] -= h
        g_phi[j] = (lag(p.theta, p.alpha, up, d.beta)
                    - lag(p.theta, p.alpha, down, d.beta)) / (2 * h)
    g_beta = (lag(p.theta, p.alpha, d.phi, d.beta + h)
              - lag(p.theta, p.alpha, d.phi, d.beta - h)) / (2 * h)
    return g_theta, g_alpha, g_phi, g_beta


def test_exact_gradients_match_finite_differences(ctx44):
    for trial in range(5):
        p, d = random_points(ctx44, 30 + trial)
        res = model.grad(ctx44, p, d)
        fd_theta, fd_alpha, fd_phi, fd_beta = grad_by_finite_differences(ctx44, p, d)
        assert np.max(np.abs(res.theta - fd_theta)) < 1e-6
        assert abs(res.alpha - fd_alpha) < 1e-6
        assert np.max(np.abs(res.phi - fd_phi)) < 1e-6
        assert abs(res.beta - fd_beta) < 1e-6


def test_gradient_zero_beta_kills_dual_blocks(ctx44):
    p, d = random_points(ctx44, 40, beta=0.0)
    res = model.grad(ctx44, p, d)
    assert np.allclose(res.phi, 0.0)
    assert res.beta == 0.0


def test_gradient_alpha_closed_form_identity_cost():
    cons = (Constraint(np.zeros((4, 4), dtype=complex), 0.0, "padding", None),)
    problem = problem_from_rows(4, 1, np.eye(4, dtype=complex), cons + cons)
    ctx = model.LagrangianContext(problem, sim.AnsatzSpec.from_row(6, 2, 1),
                                  sim.AnsatzSpec.from_row(2, 1, 1))
    p, d = random_points(ctx, 41, alpha=1.0, beta=0.0)
    res = model.grad(ctx, p, d)
    # dL/dalpha = 2 alpha F0 = 2 for the identity cost
    assert res.alpha == pytest.approx(2.0, abs=1e-12)


def test_gradient_circuit_accounting(ctx44):
    p, d = random_points(ctx44, 42)
    res = model.grad(ctx44, p, d)
    c = ctx44.color_count
    assert res.primal_circuits == (2 * ctx44.p_count + 1) * (2 * c - 1)
    assert res.dual_circuits == 2 * ctx44.q_count + 1


def test_sampled_gradient_shot_and_circuit_counts(ctx44, padded_complex_problem):
    """One sampled gradient spends S shots on every rotated circuit it
    measures: (2P+1) primal points times the n0 cost and nF constraint
    pieces, nF pieces at each of the 2Q shifted dual points, and the dual
    circuit for G at 2Q+1 points; it charges the circuits of
    ``bounds.circuits_per_iteration``."""
    padded_ctx = model.LagrangianContext(padded_complex_problem,
                                         sim.AnsatzSpec.from_row(7, 2, 1),
                                         sim.AnsatzSpec.from_row(4, 3, 1))
    shots = 16
    for ctx in (ctx44, padded_ctx):
        p, d = random_points(ctx, 46)
        res = model.grad(ctx, p, d, sampled_mode(shots, [4, 2]))
        big_p, big_q = ctx.p_count, ctx.q_count
        n0, nf = len(ctx.m0_decomposition), len(ctx.joint_diagonals)
        assert n0 > 0 and nf > 0
        assert res.shots_spent == shots * (
            (2 * big_p + 1) * (n0 + nf) + 2 * big_q * nf + 2 * big_q + 1)
        assert res.primal_circuits + res.dual_circuits == \
            bounds.circuits_per_iteration(big_p, big_q, ctx.color_count)


def test_g_operator_sign_convention(ctx44):
    p, d = random_points(ctx44, 43)
    res = model.grad(ctx44, p, d)

    class Z:
        theta, alpha, phi, beta = p.theta, p.alpha, d.phi, d.beta

    g = g_operator(ctx44, Z)
    np.testing.assert_allclose(g[:ctx44.p_count], res.theta)
    assert g[ctx44.p_count] == res.alpha
    np.testing.assert_allclose(g[ctx44.p_count + 1:-1], -res.phi)
    assert g[-1] == -res.beta


def test_sampled_gradient_unbiased_2qubit():
    problem = random_problem(4, 4, seed=77, scale=0.7)
    ctx = model.LagrangianContext(problem, sim.AnsatzSpec.from_row(2, 2, 1),
                                  sim.AnsatzSpec.from_row(2, 2, 1))
    p, d = random_points(ctx, 44)
    exact = model.grad(ctx, p, d).stacked()
    n = 600
    draws = np.stack([
        model.grad(ctx, p, d, sampled_mode(8, [50, k])).stacked()
        for k in range(n)
    ])
    mean = draws.mean(axis=0)
    se = draws.std(axis=0) / math.sqrt(n)
    assert np.all(np.abs(mean - exact) < 5 * se + 1e-9)


def test_sample_g_unbiased_with_closed_form_variance(ieee57_context):
    """G averages the bounds b_m over S dual outcomes m ~ w, the colour-0
    piece of diag(b) by the live-first estimator: over 2,000 estimates
    drawn in one call its mean is within 5 standard errors of w.b and its
    variance within 10 % of Var_w[b] / S."""
    ctx = ieee57_context
    _, d = random_points(ctx, 94)
    w = model.dual_pmf(ctx, d)
    b = ctx.problem.bounds
    assert ctx.bounds_table.pieces == ((0, xbm.REAL),)
    shots, n = 8, 2000
    exact = float(w @ b) / w.sum()
    variance = (float(w @ b**2) / w.sum() - exact**2) / shots
    probs = at_cells(ctx.bounds_table, (w / w.sum())[None, None])
    values = np.array(xbm.estimate_expectation(ctx.bounds_table, probs, np.ones((1, 1)),
                                               [(0, 0)] * n, shots, [24])[0])
    assert abs(values.mean() - exact) < 5 * math.sqrt(variance / n)
    assert abs(values.var() - variance) < 0.1 * variance


def test_sampled_g_matches_multinomial_oracle(ieee57_context):
    """The G of a sampled L follows the law of the retired multinomial G
    (``multinomial_sample_g``): over 500 seeds at each of 2 points the two
    agree in mean and variance, at S = 100 and at one shot."""
    ctx = ieee57_context
    n = 500
    for trial, shots in enumerate((100, 1)):
        p, d = random_points(ctx, 95 + trial)
        w = model.dual_pmf(ctx, d)
        values = [model.eval_terms(ctx, p, d, sampled_mode(shots, [25, trial, k])).g
                  for k in range(n)]
        oracle = [multinomial_sample_g(ctx, w, shots, [26, trial, k]) for k in range(n)]
        assert same_moments(values, oracle)


def sampled_gradient_variances(ctx, p, d, shots):
    """The variance of every theta and phi coordinate of a sampled gradient
    under the laws of the estimators it adds: F0 by ``estimator_variance``,
    F by (1/S) sum_k Var_{w x p_k}[D_k] (per piece k, a dual outcome m ~ w
    and a rotated primal outcome i ~ p_k scoring D_k[m, i]) and G by
    Var_w[b] / S, summed over the independent estimates of each shift
    difference."""
    a2, b2 = p.alpha**2, d.beta**2
    psis = sim.shift_states(ctx.primal_spec, sim.rotation_factors(ctx.primal_spec, p.theta))
    ws = np.abs(sim.shift_states(ctx.dual_spec, sim.rotation_factors(ctx.dual_spec, d.phi)))**2
    ws /= ws.sum(axis=1, keepdims=True)
    table = ctx.joint_diagonals
    diagonals = dense_pieces(table)
    probs = rotated_probabilities(table, psis)  # (pieces, rows, dim)

    def f_variance(means, seconds):
        return (seconds - means**2).sum(axis=-1) / shots

    theta_f = f_variance(np.einsum("m,kmi,kri->rk", ws[0], diagonals, probs),
                         np.einsum("m,kmi,kri->rk", ws[0], diagonals**2, probs))
    phi_f = f_variance(np.einsum("qm,kmi,ki->qk", ws, diagonals, probs[:, 0]),
                       np.einsum("qm,kmi,ki->qk", ws, diagonals**2, probs[:, 0]))
    f0 = np.array([estimator_variance(ctx.m0_decomposition, psi, shots).variance for psi in psis])
    b = ctx.problem.bounds
    g = (ws @ b**2 - (ws @ b)**2) / shots
    theta = (a2 / 2)**2 * (f0[1::2] + f0[2::2]) + (a2 * b2 / 2)**2 * (theta_f[1::2] + theta_f[2::2])
    phi = (a2 * b2 / 2)**2 * (phi_f[1::2] + phi_f[2::2]) + (b2 / 2)**2 * (g[1::2] + g[2::2])
    return theta, phi


def test_sampled_gradient_unbiased_ieee57(ieee57_context):
    """On the protocol's padded and reordered ieee57, with empty segments
    and padding rows: at 3 points, 200 seeded sampled gradients each, every
    theta and phi coordinate is within 5 standard errors of the exact
    adjoint gradient, and the theta- and phi-block variances are within
    20 % of those of the estimators' laws (``sampled_gradient_variances``),
    which the retired estimators have."""
    ctx = ieee57_context
    assert ctx.problem.m_stored > ctx.problem.m
    n = 200
    for k in range(3):
        p, d = random_points(ctx, 140 + k)
        exact = model.grad(ctx, p, d)
        draws = [model.grad(ctx, p, d, sampled_mode(100, [17, k, s])) for s in range(n)]
        variances = sampled_gradient_variances(ctx, p, d, 100)
        for block, want, variance in zip((np.stack([g.theta for g in draws]),
                                          np.stack([g.phi for g in draws])),
                                         (exact.theta, exact.phi), variances):
            se = block.std(axis=0, ddof=1) / math.sqrt(n)
            assert np.all(np.abs(block.mean(axis=0) - want) < 5 * se + 1e-9)
            assert abs(block.var(axis=0, ddof=1).sum() / variance.sum() - 1) < 0.2


def test_sampled_lagrangian_deterministic_per_seed(ctx44):
    p, d = random_points(ctx44, 45)
    a = model.lagrangian(ctx44, p, d, sampled_mode(16, 99))
    b = model.lagrangian(ctx44, p, d, sampled_mode(16, 99))
    assert a == b


# ---------------------------------------------------------------------------
# Adjoint (exact mode) against the parameter-shift rule


def parameter_shift_field(ctx, p, d):
    """Oracle for the signed field [g_theta; g_alpha; -g_phi; -g_beta] from
    two-point differences of ``model.lagrangian`` alone: the +-pi/2 shift
    rule in theta and phi, and central differences of unit step in alpha
    and beta, which are exact because L is quadratic in each scale."""
    def lag(theta=p.theta, alpha=p.alpha, phi=d.phi, beta=d.beta):
        return model.lagrangian(ctx, PrimalPoint(theta, alpha), DualPoint(phi, beta))

    shifted_theta = (shift_points(p.theta, j) for j in range(ctx.p_count))
    g_theta = [(lag(theta=plus) - lag(theta=minus)) / 2 for plus, minus in shifted_theta]
    shifted_phi = (shift_points(d.phi, j) for j in range(ctx.q_count))
    g_phi = [(lag(phi=plus) - lag(phi=minus)) / 2 for plus, minus in shifted_phi]
    g_alpha = (lag(alpha=p.alpha + 1) - lag(alpha=p.alpha - 1)) / 2
    g_beta = (lag(beta=d.beta + 1) - lag(beta=d.beta - 1)) / 2
    return np.concatenate([g_theta, [g_alpha], -np.asarray(g_phi), [-g_beta]])


@pytest.mark.parametrize("row", range(1, 9))
def test_adjoint_gradient_matches_parameter_shift(padded_complex_problem, row):
    ctx = model.LagrangianContext(padded_complex_problem,
                                  sim.AnsatzSpec.from_row(row, 2, 2),
                                  sim.AnsatzSpec.from_row(row, 3, 2))
    assert np.any(ctx.problem.stack.values.imag != 0)
    for trial in range(2):
        p, d = random_points(ctx, 60 + 10 * row + trial)
        g = model.grad(ctx, p, d).stacked()
        oracle = parameter_shift_field(ctx, p, d)
        scale = np.max(np.abs(oracle))
        assert scale > 0
        assert np.max(np.abs(g - oracle)) <= 1e-10 * scale


def test_real_dual_adjoint_matches_parameter_shift_on_nine_qubits(ieee57_context):
    """The paper's RY/CX dual runs in float64: on 9 qubits (row 2 x 4, Q =
    36) the exact adjoint field equals the parameter-shift oracle to 1e-10
    of its largest entry."""
    ctx = model.LagrangianContext(ieee57_context.problem, ieee57_context.primal_spec,
                                  sim.AnsatzSpec.from_row(2, 9, 4))
    p, d = random_points(ctx, 71, alpha=1.1, beta=3.0)
    assert sim.prepare(ctx.dual_spec, d.phi).dtype == np.float64
    g = model.grad(ctx, p, d).stacked()
    oracle = parameter_shift_field(ctx, p, d)
    assert np.max(np.abs(g - oracle)) <= 1e-10 * np.max(np.abs(oracle))


def test_exact_gradient_builds_each_rotation_kind_once(ieee57_context, monkeypatch):
    """At the benchmark ansatz (row 6 x 10 on 6 qubits, row 2 x 35 on 9)
    one exact gradient, and one exact Lagrangian, build each circuit's
    factors once per rotation kind: ry and rz for the primal, ry for the
    dual, 3 ``sim._kind_factors`` calls, however many layers there are."""
    ctx = model.LagrangianContext(ieee57_context.problem, sim.AnsatzSpec.from_row(6, 6, 10),
                                  sim.AnsatzSpec.from_row(2, 9, 35))
    p, d = random_points(ctx, 74, alpha=1.1, beta=3.0)
    kinds = []
    build = sim._kind_factors

    def counting(kind, angles):
        kinds.append(kind)
        return build(kind, angles)

    monkeypatch.setattr(sim, "_kind_factors", counting)
    model.grad(ctx, p, d)
    assert sorted(kinds) == ["ry", "ry", "rz"]
    kinds.clear()
    model.lagrangian(ctx, p, d)
    assert sorted(kinds) == ["ry", "ry", "rz"]


def test_gradient_reads_a_forward_record_of_its_own_point(ieee57_context):
    """``grad`` given the ``exact_forward`` record of its theta and phi
    arrays equals a fresh call bit for bit, at any alpha and beta, since
    the record holds nothing that depends on them.  A record of another
    point, even of an equal copy of its arrays, or a sampled call given
    one, is refused."""
    ctx = ieee57_context
    p, d = random_points(ctx, 75, alpha=1.1, beta=3.0)
    forward = model.exact_forward(ctx, p, d)
    for alpha, beta in ((p.alpha, d.beta), (0.4, 7.0)):
        at = PrimalPoint(p.theta, alpha), DualPoint(d.phi, beta)
        fresh, reused = model.grad(ctx, *at), model.grad(ctx, *at, model.exact_mode(), forward)
        assert np.array_equal(reused.stacked(), fresh.stacked())
        assert (reused.primal_circuits, reused.dual_circuits, reused.shots_spent) == (
            fresh.primal_circuits, fresh.dual_circuits, 0)
        assert forward.terms.value_at(alpha, beta) == model.lagrangian(ctx, *at)
    other = PrimalPoint(p.theta + 0.1, p.alpha)
    for point in (other, PrimalPoint(p.theta.copy(), p.alpha)):
        with pytest.raises(ValidationError):
            model.grad(ctx, point, d, model.exact_mode(), forward)
    with pytest.raises(ValidationError):
        model.grad(ctx, p, DualPoint(d.phi.copy(), d.beta), model.exact_mode(), forward)
    with pytest.raises(ValidationError):
        model.grad(ctx, p, d, sampled_mode(10, [75]), forward)


def test_real_states_estimate_like_their_complex_casts(ieee57_context):
    """A real shift stack, from an RY/CX primal, gives the same cell
    probabilities, F0 and F estimates, bit for bit, as the same states
    cast to complex, also under a real observable, whose pieces need no
    S^dag turn."""
    ctx = model.LagrangianContext(ieee57_context.problem, sim.AnsatzSpec.from_row(2, 6, 1),
                                  ieee57_context.dual_spec)
    p, d = random_points(ctx, 72)
    psis = sim.shift_states(ctx.primal_spec, sim.rotation_factors(ctx.primal_spec, p.theta))
    assert psis.dtype == np.float64
    real_table = xbm.decompose(ctx.problem.m0.real)
    assert xbm.piece_rotations(real_table.pieces, ctx.primal_spec.n_qubits).turns == ()
    for table in (ctx.m0_decomposition, real_table):
        probs = xbm.cell_probabilities(table, psis)
        assert np.array_equal(probs, xbm.cell_probabilities(table, psis.astype(complex)))
        assert estimate(psis, table, 50, [72]) == estimate(psis.astype(complex), table, 50, [72])
    probs, complex_probs = (xbm.cell_probabilities(ctx.joint_diagonals, states)
                            for states in (psis, psis.astype(complex)))
    assert np.array_equal(probs, complex_probs)
    w = model._normalised(model.dual_pmf(ctx, d)[None])
    pairs = [(r, 0) for r in range(len(psis))]
    assert xbm.estimate_expectation(ctx.joint_diagonals, probs, w, pairs, 50,
                                    [73]) == xbm.estimate_expectation(
        ctx.joint_diagonals, complex_probs, w, pairs, 50, [73])


def test_adjoint_eg_trajectory_matches_parameter_shift(case2):
    """50 exact EG iterations with the protocol's schedule and init on the
    desk case: ``saddle.run`` (adjoint field) and the saddle loop driven by
    the parameter-shift oracle stay within 1e-9.  The desk case keeps the
    iterates from amplifying rounding; on chaotic trajectories any two
    correct gradient codes drift apart."""
    problem = harness.prepare_case(case2, 2, 0).permuted
    ctx = model.LagrangianContext(problem, sim.AnsatzSpec.from_row(7, 1, 2),
                                  sim.AnsatzSpec.from_row(4, 4, 1))
    init = saddle.default_quantum_init(ctx, case2.n, len(case2.load_nodes), 3)
    schedule = saddle.StepSchedule.exponential()
    iters = 50
    traj = saddle.run(ctx, init, saddle.EG, schedule,
                      saddle.StopRule(theta_tol=1e-300, phi_tol=1e-300, max_iters=iters))
    assert traj.iterations == iters

    def oracle_field(z, *tags):
        return parameter_shift_field(ctx, PrimalPoint(z.theta, z.alpha),
                                     DualPoint(z.phi, z.beta)), 0

    oracle = field_run(oracle_field, init, saddle.EG, schedule, iters)
    for t, z in enumerate(oracle.states[1:]):
        assert np.max(np.abs(z.stacked() - traj.states[t + 1].stacked())) <= 1e-9, t
    assert np.max(np.abs(z.stacked() - init.stacked())) > 0.1


def test_sampled_gradient_stream_unchanged(padded_complex_problem):
    """Sampled mode keeps its parameter-shift loops and seed derivation: one
    generator per estimator call, F0's, F's and G's from the mode reseeded
    with 0, 1 and 2.  The values and shots for a fixed seed are pinned bit
    for bit."""
    ctx = model.LagrangianContext(padded_complex_problem,
                                  sim.AnsatzSpec.from_row(7, 2, 1),
                                  sim.AnsatzSpec.from_row(4, 3, 1))
    rng = np.random.default_rng(5)
    p = PrimalPoint(rng.uniform(0, 6.28, ctx.p_count), 0.9)
    d = DualPoint(rng.uniform(0, 6.28, ctx.q_count), 1.3)
    res = model.grad(ctx, p, d, sampled_mode(16, [3, 1]))
    assert res.theta.tolist() == [
        -0.4453083449812844, 0.5702414717127458, 0.6390705836028712,
        1.377350296297501, -1.1495291927911149, 0.055293165699522785]
    assert res.alpha == -0.5559344486535599
    assert res.phi.tolist() == [
        0.978016934565211, 0.6194584109596654, 0.4880149824526565,
        0.6282955148967138, 0.005646585565433293, 0.8302902480687674]
    assert res.beta == 0.07197532921202887
    assert (res.primal_circuits, res.dual_circuits, res.shots_spent) == (91, 13, 4464)
